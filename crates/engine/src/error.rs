//! The one engine error type: every way a run, a build, or a service
//! request can fail as a whole, with a stable wire representation.
//!
//! Per-query failures do not abort a run — they are reported in the
//! per-query records — so these variants cover corpus loading, query-file
//! problems, engine construction, and the `veritasd` service boundary.
//!
//! Three derived views keep callers out of the string-matching business:
//!
//! * [`EngineError::kind`] — a stable machine-readable tag.
//! * [`EngineError::to_wire`] / [`EngineError::wire_json`] — the service's
//!   error envelope, `{"error": {"kind": ..., "detail": ...}}`.
//! * [`EngineError::exit_code`] — the process exit code the CLI binaries
//!   map each failure class to.

use std::fmt;
use std::io;

use serde::{Deserialize, Serialize};
use veritas::AbductionError;

use crate::store::VcorpError;

/// Why an engine operation failed as a whole.
///
/// The variants partition into failure classes (see
/// [`EngineError::exit_code`]): *bad input* (`Query`, `Config`, `Json`,
/// `Protocol`, `EmptyCorpus`, `CorpusMismatch`, `CorpusFormat`,
/// `Unauthorized`), *failed work* (`Abduction`, `UnitFailures`,
/// `CacheShortfall`), *environment* (`Io`), and *load shedding*
/// (`Overloaded`, `ConnectionsExhausted`, `Draining`).
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem error while loading a corpus, opening a cache
    /// directory, binding a listener, or writing a report.
    Io(io::Error),
    /// A query file or session log failed to parse.
    Json(serde_json::Error),
    /// A binary `.vcorp` corpus failed to open or decode: unsupported
    /// schema version, failed checksum or digest, truncation, ...
    /// (see [`crate::store::VcorpError`]).
    CorpusFormat(String),
    /// The query set is inconsistent (duplicate ids, bad selectors, ...)
    /// or cannot be compiled into a plan.
    Query(String),
    /// The engine was configured inconsistently (e.g. `--corpus`
    /// combined with `--synthetic`, or a shard index past the partition
    /// width).
    Config(String),
    /// The corpus has no sessions to run over.
    EmptyCorpus,
    /// A compiled plan was submitted against a corpus other than the one
    /// it was compiled for (session count or content fingerprint differ).
    CorpusMismatch(String),
    /// EHMM inference failed in a way that aborts the whole operation
    /// (per-unit inference failures stay per-record).
    Abduction(AbductionError),
    /// Admission control refused the plan: `active` plans were already
    /// running against a bound of `bound`. The service maps this to its
    /// `429`-style shed response; callers should retry later.
    Overloaded {
        /// Plans running when admission was refused.
        active: usize,
        /// The configured admission bound.
        bound: usize,
    },
    /// The service refused a new *connection*: `active` connections were
    /// already open against a `--max-connections` bound of `bound`. Same
    /// `"overloaded"` wire kind as [`EngineError::Overloaded`] (both are
    /// retry-later shed responses), distinguishable by detail text.
    ConnectionsExhausted {
        /// Connections open when the accept was shed.
        active: usize,
        /// The configured connection bound.
        bound: usize,
    },
    /// A service request violated the wire protocol (not a JSON object,
    /// no recognized request field, conflicting request fields, ...).
    Protocol(String),
    /// The service is draining: a shutdown was requested, in-flight plans
    /// are finishing, and no new plans are admitted. A retry-later shed
    /// response, like [`EngineError::Overloaded`], but terminal for this
    /// process — clients should fail over rather than retry here.
    Draining,
    /// The service requires an auth token (`--auth-token`) and the
    /// request carried a missing or mismatched `auth` field. The
    /// connection is closed after this answer.
    Unauthorized,
    /// A run finished but observed fewer cache hits than the configured
    /// floor (`veritas run --min-cache-hits`) — the cache-reuse assertion
    /// CLI callers opt into.
    CacheShortfall {
        /// The configured minimum.
        expected: u64,
        /// Cache hits actually observed.
        observed: u64,
    },
    /// A run finished but some records carry per-unit errors and the
    /// caller did not opt into tolerating them (`--allow-errors`).
    UnitFailures {
        /// Records that failed.
        failed: usize,
        /// Total records produced.
        units: usize,
    },
}

impl EngineError {
    /// The stable machine-readable tag of this failure — the `kind` field
    /// of the wire envelope. These strings are part of the service
    /// protocol: existing values never change meaning.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::Io(_) => "io",
            EngineError::Json(_) => "json",
            EngineError::CorpusFormat(_) => "corpus_format",
            EngineError::Query(_) => "invalid_query",
            EngineError::Config(_) => "invalid_config",
            EngineError::EmptyCorpus => "empty_corpus",
            EngineError::CorpusMismatch(_) => "corpus_mismatch",
            EngineError::Abduction(_) => "abduction",
            EngineError::Overloaded { .. } | EngineError::ConnectionsExhausted { .. } => {
                "overloaded"
            }
            EngineError::Protocol(_) => "protocol",
            EngineError::Draining => "draining",
            EngineError::Unauthorized => "unauthorized",
            EngineError::CacheShortfall { .. } => "cache_shortfall",
            EngineError::UnitFailures { .. } => "unit_failures",
        }
    }

    /// The process exit code the CLI binaries map this failure to:
    ///
    /// | code | class | variants |
    /// |------|-------|----------|
    /// | 1 | failed work | `Abduction`, `UnitFailures`, `CacheShortfall` |
    /// | 2 | bad input | `Query`, `Config`, `Json`, `Protocol`, `EmptyCorpus`, `CorpusMismatch`, `CorpusFormat`, `Unauthorized` |
    /// | 3 | environment | `Io` |
    /// | 4 | load shed | `Overloaded`, `ConnectionsExhausted`, `Draining` |
    pub fn exit_code(&self) -> u8 {
        match self {
            EngineError::Abduction(_)
            | EngineError::UnitFailures { .. }
            | EngineError::CacheShortfall { .. } => 1,
            EngineError::Query(_)
            | EngineError::Config(_)
            | EngineError::Json(_)
            | EngineError::Protocol(_)
            | EngineError::EmptyCorpus
            | EngineError::CorpusMismatch(_)
            | EngineError::CorpusFormat(_)
            | EngineError::Unauthorized => 2,
            EngineError::Io(_) => 3,
            EngineError::Overloaded { .. }
            | EngineError::ConnectionsExhausted { .. }
            | EngineError::Draining => 4,
        }
    }

    /// This error as the typed wire representation.
    pub fn to_wire(&self) -> WireError {
        WireError {
            kind: self.kind().to_string(),
            detail: self.to_string(),
        }
    }

    /// This error as one service response line:
    /// `{"error": {"kind": ..., "detail": ...}}`.
    pub fn wire_json(&self) -> String {
        serde_json::to_string(&ErrorEnvelope {
            error: self.to_wire(),
        })
        .expect("error serialization cannot fail")
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "i/o error: {e}"),
            EngineError::Json(e) => write!(f, "json error: {e}"),
            EngineError::CorpusFormat(reason) => write!(f, "corpus format error: {reason}"),
            EngineError::Query(reason) => write!(f, "invalid query set: {reason}"),
            EngineError::Config(reason) => write!(f, "invalid engine configuration: {reason}"),
            EngineError::EmptyCorpus => write!(f, "corpus contains no sessions"),
            EngineError::CorpusMismatch(reason) => write!(f, "corpus mismatch: {reason}"),
            EngineError::Abduction(e) => write!(f, "abduction failed: {e}"),
            EngineError::Overloaded { active, bound } => write!(
                f,
                "overloaded: {active} plans already running (admission bound {bound}); retry later"
            ),
            EngineError::ConnectionsExhausted { active, bound } => write!(
                f,
                "overloaded: {active} connections already open (connection bound {bound}); retry later"
            ),
            EngineError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            EngineError::Draining => write!(
                f,
                "draining: the service is shutting down; no new plans are admitted"
            ),
            EngineError::Unauthorized => {
                write!(f, "unauthorized: missing or invalid auth token")
            }
            EngineError::CacheShortfall { expected, observed } => write!(
                f,
                "expected at least {expected} cache hits, observed {observed}"
            ),
            EngineError::UnitFailures { failed, units } => write!(
                f,
                "{failed} of {units} records failed (pass --allow-errors to exit 0 anyway)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<serde_json::Error> for EngineError {
    fn from(e: serde_json::Error) -> Self {
        EngineError::Json(e)
    }
}

impl From<AbductionError> for EngineError {
    fn from(e: AbductionError) -> Self {
        EngineError::Abduction(e)
    }
}

impl From<VcorpError> for EngineError {
    fn from(e: VcorpError) -> Self {
        match e {
            // An i/o failure is an environment problem, not a format one.
            VcorpError::Io(io) => EngineError::Io(io),
            other => EngineError::CorpusFormat(other.to_string()),
        }
    }
}

/// The stable wire representation of an [`EngineError`] — what a service
/// client can parse without knowing the Rust enum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// The machine-readable tag ([`EngineError::kind`]).
    pub kind: String,
    /// The human-readable description ([`EngineError`]'s `Display`).
    pub detail: String,
}

/// The envelope an error travels in on the wire:
/// `{"error": {"kind": ..., "detail": ...}}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// The typed error payload.
    pub error: WireError,
}

impl ErrorEnvelope {
    /// Parses one response line as an error envelope, returning `None`
    /// for lines that are not error envelopes (records, summaries,
    /// metrics, or garbage).
    pub fn parse(line: &str) -> Option<WireError> {
        serde_json::from_str::<ErrorEnvelope>(line)
            .ok()
            .map(|envelope| envelope.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_maps_to_a_stable_kind_and_exit_code() {
        let samples: Vec<(EngineError, &str, u8)> = vec![
            (EngineError::Io(io::Error::other("disk on fire")), "io", 3),
            (EngineError::Query("dup id".into()), "invalid_query", 2),
            (
                EngineError::Config("cache dir without cache".into()),
                "invalid_config",
                2,
            ),
            (EngineError::EmptyCorpus, "empty_corpus", 2),
            (
                EngineError::CorpusMismatch("fingerprints differ".into()),
                "corpus_mismatch",
                2,
            ),
            (
                EngineError::Abduction(AbductionError::EmptySession),
                "abduction",
                1,
            ),
            (
                EngineError::Overloaded {
                    active: 4,
                    bound: 4,
                },
                "overloaded",
                4,
            ),
            (
                EngineError::ConnectionsExhausted {
                    active: 64,
                    bound: 64,
                },
                "overloaded",
                4,
            ),
            (
                EngineError::CorpusFormat("unsupported corpus format version 9".into()),
                "corpus_format",
                2,
            ),
            (EngineError::Protocol("not an object".into()), "protocol", 2),
            (EngineError::Draining, "draining", 4),
            (EngineError::Unauthorized, "unauthorized", 2),
            (
                EngineError::CacheShortfall {
                    expected: 3,
                    observed: 1,
                },
                "cache_shortfall",
                1,
            ),
            (
                EngineError::UnitFailures {
                    failed: 2,
                    units: 10,
                },
                "unit_failures",
                1,
            ),
        ];
        for (error, kind, code) in samples {
            assert_eq!(error.kind(), kind);
            assert_eq!(error.exit_code(), code);
        }
    }

    #[test]
    fn wire_envelope_round_trips() {
        let error = EngineError::Overloaded {
            active: 2,
            bound: 2,
        };
        let line = error.wire_json();
        assert!(line.starts_with(r#"{"error":{"#), "line was: {line}");
        let wire = ErrorEnvelope::parse(&line).expect("an envelope must parse");
        assert_eq!(wire.kind, "overloaded");
        assert!(wire.detail.contains("admission bound 2"));
        // Non-envelope lines are None, not errors.
        assert_eq!(ErrorEnvelope::parse(r#"{"query_id":"q"}"#), None);
        assert_eq!(ErrorEnvelope::parse("garbage"), None);
    }

    #[test]
    fn display_messages_keep_their_established_phrasing() {
        // The CLI tests and CI smoke greps match on these fragments.
        assert!(EngineError::UnitFailures {
            failed: 1,
            units: 2
        }
        .to_string()
        .contains("--allow-errors"));
        assert!(
            EngineError::CorpusMismatch("content fingerprints differ".into())
                .to_string()
                .contains("corpus mismatch")
        );
    }
}
