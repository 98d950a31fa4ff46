//! Corpora: the sessions a query set runs over.
//!
//! A [`SessionCorpus`] pairs recorded [`SessionLog`]s with the deployed
//! setting they were recorded under (asset, player, ABR) — the raw material
//! every causal query conditions on. Corpora come from three places: loaded
//! from a directory of session-log JSON files (`veritas run --corpus DIR`),
//! synthesized end to end (hidden GTBW trace → player emulation) for
//! benchmarks, CI smoke runs, and examples, or served lazily from a
//! columnar `.vcorp` file ([`crate::LazyCorpus`]). The [`Corpus`] trait is
//! the seam that makes the three interchangeable to
//! [`crate::QueryPlan::compile`] and the executor. Ground-truth traces are
//! kept alongside synthetic sessions so counterfactual queries can report
//! the oracle outcome; loaded real logs have no truth and simply omit it.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use veritas_abr::abr_by_name;
use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_player::{run_session, PlayerConfig, SessionLog};
use veritas_trace::generators::{FccLike, TraceGenerator};
use veritas_trace::BandwidthTrace;

use crate::cache::{combine_fingerprints, fnv_mix, fnv_mix_f64, log_fingerprint, FNV_OFFSET};
use crate::error::EngineError;
use crate::store::ColumnSet;

/// A session log borrowed from a corpus.
///
/// An eager corpus ([`SessionCorpus`]) hands out plain borrows; a lazy one
/// ([`crate::LazyCorpus`]) hands out shared ownership of a log decoded on
/// demand, which may be evicted from the resident set while still in use.
/// Both deref to [`SessionLog`], so call sites never branch.
#[derive(Debug, Clone)]
pub enum LogRef<'a> {
    /// A borrow from an eagerly loaded corpus.
    Borrowed(&'a SessionLog),
    /// Shared ownership of a lazily decoded log.
    Shared(Arc<SessionLog>),
}

impl Deref for LogRef<'_> {
    type Target = SessionLog;

    fn deref(&self) -> &SessionLog {
        match self {
            LogRef::Borrowed(log) => log,
            LogRef::Shared(log) => log,
        }
    }
}

/// What the engine needs from a corpus — the seam that makes JSON
/// directories, synthetic corpora, and `.vcorp` files interchangeable to
/// [`crate::QueryPlan::compile`] and [`crate::Engine::submit_shared`].
///
/// Everything except [`Corpus::log`] must be served from resident
/// metadata (ids, fingerprints, the deployed setting): plan compilation
/// and fingerprint checks never force a session load. Only the executor,
/// per work unit, calls `log` — with the plan's column demand for that
/// session — which is where a lazy implementation pays its decode,
/// bounded by its resident set.
pub trait Corpus: Send + Sync {
    /// Number of sessions.
    fn len(&self) -> usize;

    /// Whether the corpus has no sessions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stable id of session `index` (cache key, record field).
    fn session_id(&self, index: usize) -> &str;

    /// The log of session `index` with *at least* the columns in
    /// `columns` populated, loading it if necessary. This is the seam
    /// query-aware column projection threads through
    /// ([`crate::QueryPlan::column_demand`] derives the set, the executor
    /// passes it here). Errors (e.g. a corrupt lazy block) become
    /// per-unit record errors, not run aborts.
    ///
    /// # Contract
    ///
    /// * Every field backed by a selected column is bit-identical to the
    ///   recorded log; unselected per-chunk fields may come back
    ///   zero-filled (callers must not read them — the plan's demand
    ///   derivation guarantees the engine never does).
    /// * Session-level scalars (ABR name, durations, chunk count) are
    ///   always populated, whatever the set.
    /// * [`Corpus::log_fingerprint`] is unaffected: projection is pure
    ///   I/O pruning and must never change fingerprints, cache keys, or
    ///   emitted records.
    ///
    /// Eager corpora (JSON directories, synthetic) already hold complete
    /// logs and ignore `columns`; [`crate::LazyCorpus`] decodes only the
    /// selected column ranges.
    fn log(&self, index: usize, columns: ColumnSet) -> Result<LogRef<'_>, String>;

    /// The [`crate::log_fingerprint`] of session `index`, without
    /// necessarily loading the log (a `.vcorp` serves it from its index).
    fn log_fingerprint(&self, index: usize) -> u64;

    /// Ground-truth bandwidth trace of session `index`, when known
    /// (synthetic corpora only).
    fn truth(&self, index: usize) -> Option<&BandwidthTrace>;

    /// The video asset streamed in every session.
    fn asset(&self) -> &VideoAsset;

    /// The deployed player configuration.
    fn player(&self) -> &PlayerConfig;

    /// Name of the deployed ABR.
    fn deployed_abr(&self) -> &str;

    /// Fingerprints the deployed setting — the ABR name, player
    /// configuration (buffer, startup threshold, link), and the full
    /// video asset (ladder bitrates, per-chunk sizes and SSIMs).
    /// Combined with the per-session log fingerprints into the
    /// [`crate::QueryPlan`] corpus fingerprint: counterfactual scenarios
    /// are materialized *from* this setting at compile time, so a corpus
    /// with identical logs but a different deployed setting must not
    /// accept a stale plan. Every corpus kind uses this one default, so a
    /// directory and its ingested `.vcorp` never hash the setting
    /// differently.
    fn deployed_fingerprint(&self) -> u64 {
        let (abr, player, asset) = (self.deployed_abr(), self.player(), self.asset());
        let mut hash = FNV_OFFSET;
        fnv_mix(&mut hash, abr.len() as u64);
        for byte in abr.bytes() {
            fnv_mix(&mut hash, u64::from(byte));
        }
        fnv_mix_f64(&mut hash, player.buffer_capacity_s);
        fnv_mix(&mut hash, player.startup_chunks as u64);
        fnv_mix_f64(&mut hash, player.link.one_way_delay_s);
        fnv_mix_f64(&mut hash, player.link.mss_bytes);
        fnv_mix_f64(&mut hash, player.link.queue_segments);
        fnv_mix(&mut hash, asset.num_chunks() as u64);
        fnv_mix(&mut hash, asset.num_qualities() as u64);
        fnv_mix_f64(&mut hash, asset.chunk_duration_s());
        for chunk in 0..asset.num_chunks() {
            for quality in 0..asset.num_qualities() {
                fnv_mix_f64(&mut hash, asset.size_bytes(chunk, quality));
                fnv_mix_f64(&mut hash, asset.ssim(chunk, quality));
            }
        }
        hash
    }

    /// Fingerprint of the corpus *content*: every session's log
    /// fingerprint chained with the deployed fingerprint. This is what
    /// binds a compiled [`crate::QueryPlan`] to the corpus it was
    /// compiled against.
    fn content_fingerprint(&self) -> u64 {
        combine_fingerprints(
            (0..self.len())
                .map(|index| self.log_fingerprint(index))
                .chain(std::iter::once(self.deployed_fingerprint())),
        )
    }

    /// Splits the corpus into at most `shards` contiguous, balanced
    /// session groups. Shard sizes differ by at most one session, no
    /// shard is empty (so `shards` is clamped to the session count, and
    /// an empty corpus yields no shards at all), and every session
    /// appears in exactly one shard.
    ///
    /// Shards are views (session index lists), so one corpus can be
    /// divided across engine instances — the partition a distributed
    /// [`crate::Coordinator`] farms to its worker processes.
    fn shard(&self, shards: usize) -> Vec<CorpusShard> {
        let len = self.len();
        if len == 0 {
            return Vec::new();
        }
        let shards = shards.clamp(1, len);
        let base = len / shards;
        let extra = len % shards;
        let mut start = 0;
        (0..shards)
            .map(|index| {
                let size = base + usize::from(index < extra);
                let shard = CorpusShard {
                    index,
                    of: shards,
                    sessions: (start..start + size).collect(),
                };
                start += size;
                shard
            })
            .collect()
    }

    /// Point-in-time residency and decode counters, for corpora that
    /// stream sessions through a bounded resident set. Eager corpora
    /// (everything resident, nothing decoded on demand) return `None`;
    /// [`crate::LazyCorpus`] reports its resident window, high-water
    /// marks, and cumulative decode volume — surfaced by the daemon's
    /// `{"metrics": true}` snapshot.
    fn residency(&self) -> Option<ResidencyStats> {
        None
    }

    /// Resolves a query's session selector against this corpus: `None`
    /// selects every session, `Some(indices)` is validated to be in
    /// range.
    fn select(&self, sessions: &Option<Vec<usize>>) -> Result<Vec<usize>, String> {
        match sessions {
            None => Ok((0..self.len()).collect()),
            Some(indices) => {
                for &index in indices {
                    if index >= self.len() {
                        return Err(format!(
                            "session index {index} out of range (corpus has {} sessions)",
                            self.len()
                        ));
                    }
                }
                Ok(indices.clone())
            }
        }
    }
}

/// Point-in-time residency counters of a lazily backed corpus (see
/// [`Corpus::residency`]): how much of it is decoded right now, the
/// high-water marks, and the cumulative decode volume — the numbers that
/// make column projection's I/O pruning observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ResidencyStats {
    /// Decoded logs currently resident.
    pub resident_sessions: usize,
    /// Projected bytes of the currently resident decoded logs.
    pub resident_bytes: usize,
    /// High-water mark of concurrently resident decoded logs.
    pub peak_resident_sessions: usize,
    /// High-water mark of resident projected log bytes.
    pub peak_resident_bytes: usize,
    /// Cumulative block bytes decoded (header + selected columns, summed
    /// over every decode).
    pub bytes_decoded: u64,
    /// Cumulative per-session columns decoded.
    pub columns_decoded: u64,
}

/// One session of a corpus: an id (stable across runs, used as the cache
/// key), the recorded log, and — when known — the hidden ground truth.
#[derive(Debug, Clone)]
pub struct CorpusSession {
    /// Stable identifier (file stem for loaded corpora, `session-N` for
    /// synthetic ones).
    pub id: String,
    /// The recorded session log.
    pub log: SessionLog,
    /// The ground-truth bandwidth trace, if available (synthetic corpora
    /// only); enables oracle outcomes in counterfactual results.
    pub truth: Option<BandwidthTrace>,
}

/// A corpus of sessions plus the deployed setting they share.
#[derive(Debug, Clone)]
pub struct SessionCorpus {
    /// The video asset streamed in every session (counterfactual replays
    /// re-encode it when a ladder change is queried).
    pub asset: VideoAsset,
    /// The deployed player configuration.
    pub player: PlayerConfig,
    /// Name of the deployed ABR.
    pub deployed_abr: String,
    /// The sessions.
    pub sessions: Vec<CorpusSession>,
}

/// One shard of a corpus: a view over a subset of its sessions, produced
/// by [`Corpus::shard`]. Holds indices, not copies — the sessions stay in
/// the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusShard {
    /// This shard's position in `0..of`.
    pub index: usize,
    /// Total number of shards the corpus was split into.
    pub of: usize,
    /// Corpus session indices belonging to this shard (never empty).
    pub sessions: Vec<usize>,
}

/// Parameters for synthesizing a corpus.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Number of sessions.
    pub sessions: usize,
    /// FCC-like per-trace mean bandwidth range in Mbps.
    pub bandwidth_range_mbps: (f64, f64),
    /// Deployed ABR name.
    pub deployed_abr: String,
    /// Deployed player configuration.
    pub player: PlayerConfig,
    /// Video duration in seconds.
    pub video_duration_s: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        Self {
            sessions: 4,
            bandwidth_range_mbps: (3.0, 8.0),
            deployed_abr: "mpc".to_string(),
            player: PlayerConfig::paper_default(),
            video_duration_s: 240.0,
            seed: 20_260_001,
        }
    }
}

impl SyntheticSpec {
    /// Builds the corpus: generates hidden traces, runs the deployed
    /// setting over each, and records the logs.
    ///
    /// # Panics
    ///
    /// Panics if `deployed_abr` is not a recognized algorithm name; the
    /// corpus-opening paths (CLI, service) use [`SyntheticSpec::try_build`]
    /// and answer a typed error instead.
    pub fn build(&self) -> SessionCorpus {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid synthetic spec: {e}"))
    }

    /// [`SyntheticSpec::build`], but an unrecognized `deployed_abr` is a
    /// typed [`EngineError::Query`] instead of a panic — the variant the
    /// user-facing corpus-open paths go through.
    pub fn try_build(&self) -> Result<SessionCorpus, EngineError> {
        // Validate before the (expensive) trace generation so a typo
        // fails instantly.
        if abr_by_name(&self.deployed_abr).is_none() {
            return Err(EngineError::Query(format!(
                "unknown deployed ABR `{}` (expected one of: mpc, robust_mpc, bba, bola, \
                 throughput, random:<seed>, fixed:<rung>)",
                self.deployed_abr
            )));
        }
        let asset = VideoAsset::generate(
            QualityLadder::paper_default(),
            self.video_duration_s,
            2.0,
            VbrParams::default(),
            self.seed,
        );
        let player = self.player;
        let generator = FccLike::new(self.bandwidth_range_mbps.0, self.bandwidth_range_mbps.1);
        // Traces must outlast the session even under poor conditions.
        let trace_duration = self.video_duration_s * 6.0;
        let sessions = (0..self.sessions as u64)
            .map(|i| {
                let truth = generator.generate(trace_duration, self.seed ^ (0x9E37 + i));
                let mut abr =
                    abr_by_name(&self.deployed_abr).expect("deployed ABR validated above");
                let log = run_session(&asset, abr.as_mut(), &truth, &player);
                CorpusSession {
                    id: format!("session-{i}"),
                    log,
                    truth: Some(truth),
                }
            })
            .collect();
        Ok(SessionCorpus {
            asset,
            player,
            deployed_abr: self.deployed_abr.clone(),
            sessions,
        })
    }
}

impl SessionCorpus {
    /// Synthesizes a corpus of `sessions` sessions from `seed` with the
    /// default deployed setting (MPC, 5 s buffer, 4-minute video).
    pub fn synthetic(sessions: usize, seed: u64) -> Self {
        SyntheticSpec {
            sessions,
            seed,
            ..SyntheticSpec::default()
        }
        .build()
    }

    /// Loads every `*.json` session log in `dir` (sorted by file name with
    /// numeric awareness, so `session-2.json` precedes `session-10.json`;
    /// the file stem becomes the session id).
    ///
    /// Counterfactual replays need a deployed setting to start from. The
    /// player's buffer capacity and the asset's chunk duration are restored
    /// from the first loaded log (logs record both); the video asset itself
    /// — encoding ladder, content seed, duration — is *not* recoverable
    /// from a log, so the paper's default asset regenerated at the logged
    /// chunk duration stands in for it. Ground truth is unknown for loaded
    /// logs, so oracle outcomes are omitted.
    pub fn from_dir(dir: &Path) -> Result<Self, EngineError> {
        let paths = sorted_json_paths(dir)?;
        let mut sessions = Vec::with_capacity(paths.len());
        for path in paths {
            let data = std::fs::read_to_string(&path)?;
            let log = SessionLog::from_json(&data)?;
            let id = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| format!("session-{}", sessions.len()));
            sessions.push(CorpusSession {
                id,
                log,
                truth: None,
            });
        }
        if sessions.is_empty() {
            return Err(EngineError::EmptyCorpus);
        }
        let first = &sessions[0].log;
        let spec = SyntheticSpec::default();
        let asset = VideoAsset::generate(
            QualityLadder::paper_default(),
            first.records.len() as f64 * first.chunk_duration_s,
            first.chunk_duration_s,
            VbrParams::default(),
            spec.seed,
        );
        Ok(SessionCorpus {
            asset,
            player: PlayerConfig::paper_default().with_buffer_capacity(first.buffer_capacity_s),
            deployed_abr: spec.deployed_abr,
            sessions,
        })
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the corpus has no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

impl Corpus for SessionCorpus {
    fn len(&self) -> usize {
        self.sessions.len()
    }

    fn session_id(&self, index: usize) -> &str {
        &self.sessions[index].id
    }

    fn log(&self, index: usize, _columns: ColumnSet) -> Result<LogRef<'_>, String> {
        Ok(LogRef::Borrowed(&self.sessions[index].log))
    }

    fn log_fingerprint(&self, index: usize) -> u64 {
        log_fingerprint(&self.sessions[index].log)
    }

    fn truth(&self, index: usize) -> Option<&BandwidthTrace> {
        self.sessions[index].truth.as_ref()
    }

    fn asset(&self) -> &VideoAsset {
        &self.asset
    }

    fn player(&self) -> &PlayerConfig {
        &self.player
    }

    fn deployed_abr(&self) -> &str {
        &self.deployed_abr
    }
}

/// Lists every `*.json` file in `dir` in the numeric-aware name order
/// corpora load in — shared by [`SessionCorpus::from_dir`] and
/// [`crate::store::ingest_dir`], so a directory and its ingested `.vcorp`
/// always agree on session order (and therefore on the corpus content
/// fingerprint).
pub(crate) fn sorted_json_paths(dir: &Path) -> Result<Vec<PathBuf>, EngineError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    // Numeric-aware order, not lexicographic: plain `sort()` put
    // `session-10.json` before `session-2.json`, silently changing
    // the record order — and the corpus-content fingerprint — of any
    // corpus with ≥ 10 sessions relative to its synthetic twin.
    paths.sort_by(|a, b| {
        natural_cmp(
            &a.file_name().unwrap_or_default().to_string_lossy(),
            &b.file_name().unwrap_or_default().to_string_lossy(),
        )
        .then_with(|| a.cmp(b))
    });
    Ok(paths)
}

/// Compares two file names with numeric awareness: maximal digit runs
/// compare as integers (of any length — compared by stripped length, then
/// digits, so nothing overflows), everything else byte-wise. Equal-valued
/// runs with different zero padding (`02` vs `2`) fall back to the longer
/// (more padded) run first, keeping the order total and deterministic.
pub(crate) fn natural_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].is_ascii_digit() && b[j].is_ascii_digit() {
            let run = |s: &[u8], start: usize| {
                let mut end = start;
                while end < s.len() && s[end].is_ascii_digit() {
                    end += 1;
                }
                end
            };
            let (ai, bj) = (run(a, i), run(b, j));
            fn strip(digits: &[u8]) -> &[u8] {
                let lead = digits.iter().take_while(|&&d| d == b'0').count();
                &digits[lead.min(digits.len() - 1)..]
            }
            let (da, db) = (strip(&a[i..ai]), strip(&b[j..bj]));
            let by_value = da.len().cmp(&db.len()).then_with(|| da.cmp(db));
            if by_value != Ordering::Equal {
                return by_value;
            }
            // Same numeric value: more leading zeros sorts first.
            let by_padding = (bj - j).cmp(&(ai - i));
            if by_padding != Ordering::Equal {
                return by_padding;
            }
            (i, j) = (ai, bj);
        } else {
            let by_byte = a[i].cmp(&b[j]);
            if by_byte != Ordering::Equal {
                return by_byte;
            }
            (i, j) = (i + 1, j + 1);
        }
    }
    (a.len() - i).cmp(&(b.len() - j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_deployed_abr_is_a_typed_error_not_a_panic() {
        let spec = SyntheticSpec {
            sessions: 1,
            deployed_abr: "warp_drive".to_string(),
            ..SyntheticSpec::default()
        };
        let error = spec.try_build().expect_err("an unknown ABR must fail");
        assert_eq!(error.kind(), "invalid_query");
        let message = error.to_string();
        assert!(message.contains("warp_drive"), "message was: {message}");
        assert!(message.contains("mpc"), "message must list valid names");
        // Known names still build.
        let ok = SyntheticSpec {
            sessions: 1,
            deployed_abr: "bba".to_string(),
            video_duration_s: 12.0,
            ..SyntheticSpec::default()
        };
        assert_eq!(ok.try_build().expect("bba is valid").len(), 1);
    }

    #[test]
    fn natural_order_compares_digit_runs_numerically() {
        use std::cmp::Ordering;
        assert_eq!(natural_cmp("session-2", "session-10"), Ordering::Less);
        assert_eq!(natural_cmp("session-10", "session-2"), Ordering::Greater);
        assert_eq!(natural_cmp("session-2", "session-2"), Ordering::Equal);
        assert_eq!(natural_cmp("a-2-b-3", "a-2-b-12"), Ordering::Less);
        assert_eq!(natural_cmp("a10b1", "a10b2"), Ordering::Less);
        // Padding: equal values order deterministically (padded first).
        assert_eq!(natural_cmp("s-02", "s-2"), Ordering::Less);
        assert_eq!(natural_cmp("s-000", "s-0"), Ordering::Less);
        // Mixed digit/non-digit boundaries fall back to bytes.
        assert_eq!(natural_cmp("abc", "abd"), Ordering::Less);
        assert_eq!(natural_cmp("ab", "ab1"), Ordering::Less);
        assert_eq!(natural_cmp("1ab", "ab"), Ordering::Less);
        // Long runs beyond u64 still compare correctly (by length first).
        assert_eq!(
            natural_cmp("x99999999999999999999", "x100000000000000000000"),
            Ordering::Less
        );
        let mut names = vec![
            "session-10.json",
            "session-2.json",
            "session-1.json",
            "session-21.json",
            "session-3.json",
        ];
        names.sort_by(|x, y| natural_cmp(x, y));
        assert_eq!(
            names,
            vec![
                "session-1.json",
                "session-2.json",
                "session-3.json",
                "session-10.json",
                "session-21.json",
            ]
        );
    }

    #[test]
    fn from_dir_orders_sessions_numerically() {
        // A 12-session corpus written to disk must load in the same order
        // it was built — lexicographic sorting put session-10 before
        // session-2 and silently changed the corpus fingerprint.
        let corpus = SyntheticSpec {
            sessions: 12,
            video_duration_s: 60.0,
            ..SyntheticSpec::default()
        }
        .build();
        let dir = std::env::temp_dir().join("veritas_engine_natural_order_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for session in &corpus.sessions {
            std::fs::write(
                dir.join(format!("{}.json", session.id)),
                session.log.to_json(),
            )
            .unwrap();
        }
        let loaded = SessionCorpus::from_dir(&dir).unwrap();
        let ids: Vec<&str> = loaded.sessions.iter().map(|s| s.id.as_str()).collect();
        let expected: Vec<String> = (0..12).map(|i| format!("session-{i}")).collect();
        assert_eq!(ids, expected, "session-2 must order before session-10");
        for (loaded, built) in loaded.sessions.iter().zip(&corpus.sessions) {
            assert_eq!(loaded.log, built.log);
        }
    }

    #[test]
    fn synthetic_corpus_is_consistent_and_deterministic() {
        let spec = SyntheticSpec {
            sessions: 2,
            video_duration_s: 60.0,
            ..SyntheticSpec::default()
        };
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.len(), 2);
        for session in &a.sessions {
            assert!(session.truth.is_some());
            session
                .log
                .check_invariants()
                .expect("synthetic logs must be consistent");
        }
        assert_eq!(a.sessions[0].log, b.sessions[0].log);
        assert_eq!(a.sessions[0].id, "session-0");
    }

    #[test]
    fn selectors_resolve_and_validate() {
        let corpus = SyntheticSpec {
            sessions: 3,
            video_duration_s: 60.0,
            ..SyntheticSpec::default()
        }
        .build();
        assert_eq!(corpus.select(&None).unwrap(), vec![0, 1, 2]);
        assert_eq!(corpus.select(&Some(vec![2, 0])).unwrap(), vec![2, 0]);
        assert!(corpus.select(&Some(vec![3])).is_err());
    }

    #[test]
    fn corpus_round_trips_through_a_directory() {
        let corpus = SyntheticSpec {
            sessions: 2,
            video_duration_s: 60.0,
            ..SyntheticSpec::default()
        }
        .build();
        let dir = std::env::temp_dir().join("veritas_engine_corpus_test");
        std::fs::create_dir_all(&dir).unwrap();
        for session in &corpus.sessions {
            std::fs::write(
                dir.join(format!("{}.json", session.id)),
                session.log.to_json(),
            )
            .unwrap();
        }
        let loaded = SessionCorpus::from_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.sessions[0].id, "session-0");
        assert_eq!(loaded.sessions[0].log, corpus.sessions[0].log);
        assert!(loaded.sessions[0].truth.is_none());
    }

    #[test]
    fn sharding_is_balanced_and_complete() {
        let corpus = SyntheticSpec {
            sessions: 5,
            video_duration_s: 60.0,
            ..SyntheticSpec::default()
        }
        .build();
        let shards = corpus.shard(2);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].sessions, vec![0, 1, 2]);
        assert_eq!(shards[1].sessions, vec![3, 4]);
        assert!(shards.iter().all(|s| s.of == 2));
        // More shards than sessions clamps; zero clamps to one.
        assert_eq!(corpus.shard(9).len(), 5);
        let single = corpus.shard(0);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].sessions, vec![0, 1, 2, 3, 4]);
        // Every session appears exactly once across shards.
        let mut all: Vec<usize> = corpus
            .shard(3)
            .into_iter()
            .flat_map(|s| s.sessions)
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // An empty corpus has no shards — never an empty shard.
        let empty = SessionCorpus {
            sessions: Vec::new(),
            ..corpus
        };
        assert!(empty.shard(4).is_empty());
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = std::env::temp_dir().join("veritas_engine_empty_corpus_test");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            SessionCorpus::from_dir(&dir),
            Err(EngineError::EmptyCorpus)
        ));
    }
}
