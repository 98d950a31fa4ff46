//! `veritas_engine`: a plan-based, streaming causal-query engine over
//! session corpora.
//!
//! The public API is a three-stage pipeline — **compile → execute →
//! consume** — exposed entirely through this crate root:
//!
//! 1. **Compile** — [`QueryPlan::compile`] turns a declarative
//!    [`QuerySet`] (abduction / interventional / counterfactual queries,
//!    plus [`Query::sweep`] config grids and [`Query::aggregate`]
//!    trace-level reductions) into a flat, validated list of
//!    [`WorkUnit`]s with per-config cache fingerprints precomputed and
//!    counterfactual scenarios materialized once per distinct spec.
//! 2. **Execute** — [`Engine::submit_shared`] hands units to
//!    atomic-cursor workers (the consuming thread and `threads − 1`
//!    helpers), resolves every abduction through the shared
//!    [`AbductionCache`] (one EHMM posterior per session × config ×
//!    horizon), and pushes each helper's completed [`QueryRecord`]
//!    through a bounded channel. Engines are configured with
//!    [`EngineBuilder`] (threads, persistent cache tier, admission bound,
//!    retry policy, fault plan) via [`Engine::builder`].
//! 3. **Consume** — the returned [`RunHandle`] is an
//!    `Iterator<Item = QueryRecord>` for incremental consumption
//!    (aggregations fold from the stream without buffering records), and
//!    [`RunHandle::wait`] restores the deterministic batch shape. A
//!    distributed run ([`Coordinator::submit`]) returns the same handle.
//!    [`Engine::run`] is the blocking `compile → submit → wait` wrapper
//!    — an alias, not a second code path.
//!
//! Every failure mode surfaces as one typed [`EngineError`], with a
//! stable machine-readable tag ([`EngineError::kind`]), a wire envelope
//! (`{"error": {"kind": ..., "detail": ...}}`, see [`ErrorEnvelope`]),
//! and a CLI exit-code mapping ([`EngineError::exit_code`]).
//!
//! The `veritas` CLI binary (`src/bin/veritas.rs`) exposes the pipeline
//! end to end: `veritas run queries.json --corpus DIR` (or
//! `--synthetic N`), with `--stream` for record-at-a-time JSONL and
//! `--cache-dir DIR` for the persistent abduction store; plus
//! `veritas ingest`, `veritas synth`, `veritas example-queries`,
//! `veritas validate`, and `veritas serve`. Both binaries parse their shared engine flags with
//! one parser, [`EngineFlags`].
//!
//! # Running as a service
//!
//! [`Service`] (module [`service`], binary `veritasd`) keeps one
//! resident [`SessionCorpus`] and one warm [`AbductionCache`] behind a
//! TCP listener speaking newline-delimited JSON: clients post a
//! [`QuerySet`] and receive the [`QueryRecord`] feed followed by the
//! [`RunSummary`], byte-identical to what [`Engine::run`] produces
//! in-process. Admission control sheds load past a bounded number of
//! concurrent plans with a typed `"overloaded"` error, and a
//! `{"metrics": true}` request answers with a [`MetricsSnapshot`]
//! (uptime, plans served/active/shed, cache hit tiers, per-query
//! p50/p95/max latency). See the [`service`] module docs for the full
//! protocol.
//!
//! # Persistent cache
//!
//! The abduction cache has an optional disk tier
//! ([`EngineBuilder::cache_dir`], [`DiskStore`]): posteriors are
//! serialized to a cache directory keyed by the `(log, config, horizon)`
//! content fingerprints, so a second run over an unchanged corpus
//! performs **zero** EHMM inferences — every work unit restores its
//! posterior from disk (`"cache": "disk"` in the records, `disk_hits`
//! in the summary). Invalidation is structural: any change to a log or a
//! posterior-relevant config field changes the fingerprint and misses
//! naturally; corrupt or truncated store files are treated as misses,
//! never errors.
//!
//! # Fault injection & supervision
//!
//! The engine carries a supervision layer for chaos testing and
//! production resilience: a seeded, deterministic [`FaultPlan`]
//! ([`EngineBuilder::fault_plan`], `veritas run --fault-spec`,
//! `veritasd --fault-spec`) injects failures at the instrumented sites
//! ([`FaultSite`]: disk-cache reads/writes, `.vcorp` block decodes,
//! abduction compute, worker panics, service socket I/O); a
//! [`RetryPolicy`] ([`EngineBuilder::retry_policy`], `--retry N`)
//! re-runs failed units with bounded, deterministically-jittered
//! exponential backoff and quarantines sessions that exhaust their
//! attempts ([`RunSummary::quarantined`]); worker panics are isolated
//! into typed error records ([`executor::run_isolated`]); and corrupt
//! disk-cache entries self-heal — deleted, recomputed, rewritten
//! ([`CacheStats::healed`]). Under any fault plan with retries enabled,
//! a run over an intact corpus emits records byte-identical to the
//! fault-free run.
//!
//! # Distributed execution
//!
//! Work units are independent, so a corpus can also be split across
//! worker *processes*: a [`Coordinator`] (module [`dist`], front ends
//! `veritas run --workers N` and `veritasd --workers N`) compiles the
//! plan once, farms each [`CorpusShard`] to a pool of `veritasd` workers
//! over the JSONL wire protocol, and feeds the re-keyed records into the
//! same [`RunHandle`] an in-process run returns — so the batch is the
//! exact order and, after timing normalization, the exact bytes of the
//! single-process run. A worker that dies or refuses a shard costs one
//! shard re-dispatch under the coordinator's [`RetryPolicy`]
//! ([`RunSummary::shard_retries`]), and a shared `--cache-dir` makes the
//! re-execution mostly disk hits. See the [`dist`] module docs for the
//! topology and the retry semantics.
//!
//! # Binary corpora
//!
//! Corpora implement the [`Corpus`] trait, and come in three
//! interchangeable forms: eager [`SessionCorpus`] values (JSON
//! directories via [`SessionCorpus::from_dir`], synthetic via
//! [`SyntheticSpec`]), and lazy [`LazyCorpus`] views over a columnar
//! binary `.vcorp` file (module [`store`]). `veritas ingest DIR --out
//! corpus.vcorp` converts a JSON session directory (appends + compacts
//! with `--append`); opening a `.vcorp` verifies a whole-file checksum
//! and reads only the session index — ids, offsets, and precomputed
//! [`log_fingerprint`]s — so a daemon restart or a cold run parses zero
//! JSON and re-hashes zero floats. Each work unit fetches its session's
//! log once, decoded on demand and digest-verified. A corpus of at most
//! [`DEFAULT_MAX_RESIDENT`] sessions keeps every decoded log; a larger
//! one keeps only its most recent decode, so corpora larger than RAM
//! stream through a run. See the [`store`] module docs for the file
//! layout and versioning rules.
//!
//! Decoding is **query-aware**: [`QueryPlan::compile`] derives the
//! [`ColumnSet`] each query kind actually reads (module [`columns`]),
//! the executor passes it to [`Corpus::log`], and a [`LazyCorpus`]
//! reads and decodes only those column ranges — one positioned read per
//! contiguous range, per-column digest-verified — instead of the full
//! block. Projection never changes answers or cache keys (the
//! [`log_fingerprint`] is precomputed in the index); observe it via
//! [`Corpus::residency`] ([`ResidencyStats`]: bytes/columns decoded,
//! peak resident bytes — surfaced by the service's
//! `{"metrics": true}`).
//!
//! # Example: streaming consumption
//!
//! ```
//! use std::sync::Arc;
//! use veritas::VeritasConfig;
//! use veritas_engine::{Engine, Query, QueryPlan, QuerySet, ScenarioSpec, SessionCorpus};
//!
//! let corpus = Arc::new(SessionCorpus::synthetic(2, 7));
//! let set = QuerySet::new("demo", VeritasConfig::paper_default().with_samples(2))
//!     .with_query(Query::abduction("posterior"))
//!     .with_query(Query::counterfactual("what-if-bba", ScenarioSpec::abr("bba")));
//!
//! // Compile once; submit streams records as workers finish them.
//! let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref()).unwrap());
//! let engine = Engine::builder().threads(2).build().unwrap();
//! let mut handle = engine.submit_shared(corpus.clone(), plan).unwrap();
//! let mut seen = 0;
//! for record in &mut handle {
//!     assert!(record.is_ok());
//!     seen += 1;
//! }
//! let summary = handle.into_summary();
//! assert_eq!(seen, 4);
//! assert_eq!(summary.errors, 0);
//! // Both queries touched both sessions, but each session was abduced once.
//! assert_eq!(summary.cache_misses, 2);
//! assert_eq!(summary.cache_hits, 2);
//!
//! // The batch shape: Engine::run == compile + submit + wait.
//! let report = engine.run(corpus, &set).unwrap();
//! assert_eq!(report.records.len(), 4);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub(crate) mod cache;
pub(crate) mod corpus;
pub mod dist;
pub(crate) mod error;
pub mod executor;
pub(crate) mod fault;
pub mod flags;
pub(crate) mod persist;
pub(crate) mod plan;
pub(crate) mod query;
pub(crate) mod runner;
pub mod service;
pub mod store;

pub use cache::{
    config_fingerprint, infer_prefix, log_fingerprint, AbductionCache, CacheSource, CacheStats,
};
pub use corpus::{
    Corpus, CorpusSession, CorpusShard, LogRef, ResidencyStats, SessionCorpus, SyntheticSpec,
};
pub use dist::{worker_command, Coordinator, DistConfig, WorkerPool};
pub use error::{EngineError, ErrorEnvelope, WireError};
pub use fault::{FaultPlan, FaultSite};
pub use flags::EngineFlags;
pub use persist::{DiskLoadOutcome, DiskStore, PersistKey};
pub use plan::{
    AggregateMetric, AggregateSpec, AggregateSummary, ConfigSweep, PlannedConfig, QueryPlan,
    WorkUnit, MAX_SWEEP_VARIANTS,
};
pub use query::{Query, QueryKind, QuerySet, ScenarioSpec};
pub use runner::{
    materialize_scenario, AdmissionPermit, Engine, EngineBuilder, EngineReport, QueryLatency,
    QueryOutput, QueryRecord, RangeSummary, RetryPolicy, RunHandle, RunSummary, AGGREGATE_SESSION,
};
pub use service::{
    MetricsEnvelope, MetricsSnapshot, Service, ServiceConfig, ServiceHandle, SummaryEnvelope,
    DEFAULT_ADMISSION_BOUND, MAX_REQUEST_LINE_BYTES,
};
pub use store::{
    append_dir, columns, ingest_dir, ColumnSet, CorpusMeta, IngestReport, LazyCorpus, VcorpError,
    VcorpWriter, DEFAULT_MAX_RESIDENT, VCORP_VERSION, VCORP_VERSION_MAX,
};
