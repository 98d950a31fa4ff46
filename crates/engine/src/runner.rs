//! The execute and consume stages: [`Engine::submit_shared`] streams a
//! compiled [`QueryPlan`] over a corpus; [`RunHandle`] is the consumer's
//! view of every run, in-process or distributed.
//!
//! Execution model: every [`crate::WorkUnit`] (query × session × config)
//! is independent. Units are claimed from one atomic cursor
//! ([`crate::executor::stream`]) by the run's `threads` workers: the
//! thread consuming the [`RunHandle`] and `threads − 1` helper threads.
//! Each unit resolves its abduction through the shared [`AbductionCache`]
//! using the plan's precomputed config fingerprints, so a batch of N
//! queries touching the same session runs forward–backward once, not N
//! times. Helpers push completed [`QueryRecord`]s through a bounded
//! channel the moment they finish, and the consumer yields its own the
//! same way:
//!
//! * **incremental** — `RunHandle` implements
//!   `Iterator<Item = QueryRecord>`, yielding records in completion
//!   order; [`RunHandle::into_summary`] then closes the run.
//! * **batch** — [`RunHandle::wait`] drains the stream, restores
//!   deterministic (query-major, variant-major, session-minor) order,
//!   and returns an [`EngineReport`]. [`Engine::run`] is exactly
//!   `compile → submit → wait`.
//!
//! Aggregation queries are folded *from the stream*: the handle retains
//! only each aggregation's per-session scalars (never the record set)
//! and emits one final `session: "*"` record per aggregation when its
//! last unit completes.

use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use veritas::{
    baseline_trace, oracle_trace, Abduction, InterventionalPredictor, RangePrediction, Scenario,
};
use veritas_abr::abr_by_name;
use veritas_media::QualityLadder;
use veritas_player::{QoeSummary, SessionLog};
use veritas_trace::stats::trace_mae;

use crate::cache::{AbductionCache, CacheSource};
use crate::corpus::Corpus;
use crate::error::EngineError;
use crate::executor;
use crate::fault::{FaultPlan, FaultSite};
use crate::persist::DiskStore;
use crate::plan::{percentile_u64, AggregateSummary, PlannedConfig, QueryPlan, WorkUnit};
use crate::query::{Query, QueryKind, QuerySet, ScenarioSpec};

/// The session id carried by an aggregation's final folded record.
pub const AGGREGATE_SESSION: &str = "*";

/// Veritas(Low)/(High) and median summaries of a counterfactual range
/// prediction, one triple per QoE metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeSummary {
    /// Number of posterior samples behind the ranges.
    pub samples: usize,
    /// Veritas(Low) mean SSIM.
    pub ssim_low: f64,
    /// Veritas(High) mean SSIM.
    pub ssim_high: f64,
    /// Median mean SSIM across samples.
    pub ssim_median: f64,
    /// Veritas(Low) rebuffering ratio (percent).
    pub rebuffer_low: f64,
    /// Veritas(High) rebuffering ratio (percent).
    pub rebuffer_high: f64,
    /// Median rebuffering ratio across samples.
    pub rebuffer_median: f64,
    /// Veritas(Low) average bitrate (Mbps).
    pub bitrate_low: f64,
    /// Veritas(High) average bitrate (Mbps).
    pub bitrate_high: f64,
    /// Median average bitrate across samples.
    pub bitrate_median: f64,
}

impl RangeSummary {
    /// Summarizes a range prediction.
    pub fn of(prediction: &RangePrediction) -> Self {
        let (ssim_low, ssim_high) = prediction.ssim_range();
        let (rebuffer_low, rebuffer_high) = prediction.rebuffer_range();
        let (bitrate_low, bitrate_high) = prediction.bitrate_range();
        Self {
            samples: prediction.samples.len(),
            ssim_low,
            ssim_high,
            ssim_median: prediction.median_of(|q| q.mean_ssim),
            rebuffer_low,
            rebuffer_high,
            rebuffer_median: prediction.median_of(|q| q.rebuffer_ratio_percent),
            bitrate_low,
            bitrate_high,
            bitrate_median: prediction.median_of(|q| q.avg_bitrate_mbps),
        }
    }
}

/// The kind-specific payload of a successful query; fields irrelevant to
/// the query's kind are `null` in the JSONL output.
///
/// Every member is an `Option`, so each may be absent or `null` on input:
/// reports written by earlier engine versions, before `metric_value` or
/// `aggregate` existed, still validate. Unknown members are refused
/// (`deny_unknown_fields`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct QueryOutput {
    /// Abduction: number of chunks conditioned on.
    pub chunks: Option<usize>,
    /// Abduction: mean of the Viterbi GTBW trace in Mbps.
    pub mean_capacity_mbps: Option<f64>,
    /// Abduction: MAE of the Viterbi trace against the ground truth, when
    /// the corpus carries one.
    pub viterbi_mae_vs_truth_mbps: Option<f64>,
    /// Interventional: expected GTBW for the candidate chunk in Mbps.
    pub expected_capacity_mbps: Option<f64>,
    /// Interventional: predicted download time in seconds.
    pub predicted_download_time_s: Option<f64>,
    /// Interventional: the logged download time at the decision point, when
    /// the predicted chunk exists in the log.
    pub actual_download_time_s: Option<f64>,
    /// Counterfactual: the Veritas range prediction.
    pub veritas: Option<RangeSummary>,
    /// Counterfactual: the Baseline (observed-throughput replay) outcome.
    pub baseline: Option<QoeSummary>,
    /// Counterfactual: the Oracle (ground-truth replay) outcome, when the
    /// corpus carries the truth.
    pub oracle: Option<QoeSummary>,
    /// Aggregate (per-session unit): this session's scalar contribution.
    pub metric_value: Option<f64>,
    /// Aggregate (final `session: "*"` record): the folded reduction.
    pub aggregate: Option<AggregateSummary>,
}

/// One line of the engine's JSONL result stream.
///
/// The `Option` members may be absent or `null` on input, so reports
/// written before `variant` or `attempts` existed stay readable by
/// `veritas validate`; the other members are required and unknown ones
/// are refused (`deny_unknown_fields`). On output `attempts` is
/// *omitted* (not `null`) when unset (`skip_serializing_if`), so records
/// from runs without a [`RetryPolicy`], and every successful record,
/// keep their exact pre-supervision byte shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct QueryRecord {
    /// Id of the query this record answers.
    pub query_id: String,
    /// The query's kind.
    pub kind: QueryKind,
    /// Id of the corpus session the unit ran over, or
    /// [`AGGREGATE_SESSION`] for an aggregation's folded record.
    pub session: String,
    /// Sweep variant label (`None` for the base configuration).
    pub variant: Option<String>,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// Error description when `status == "error"`.
    pub error: Option<String>,
    /// `"hit"` (in-memory) / `"disk"` (restored from the persistent
    /// store) / `"miss"` (inferred) when the unit consulted the abduction
    /// cache, `null` when the unit failed before inference.
    pub cache: Option<String>,
    /// Wall-clock time this unit took, in microseconds.
    pub elapsed_us: u64,
    /// The payload, present when `status == "ok"`.
    pub output: Option<QueryOutput>,
    /// Execution attempts the unit consumed, set only on *final error*
    /// records produced under a [`RetryPolicy`]. Successful records —
    /// including success-after-retry — leave it absent, so a retried
    /// run's output stays identical to the fault-free run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub attempts: Option<u64>,
}

impl QueryRecord {
    /// Whether the unit succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Writes the record as one JSONL line, newline included, straight
    /// into `out`.
    pub fn write_line(&self, out: &mut impl Write) -> io::Result<()> {
        serde_json::to_writer(&mut *out, self)?;
        out.write_all(b"\n")
    }
}

/// Latency aggregates of one query's units — the streaming path reports
/// the same timing fidelity as the batch report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryLatency {
    /// The query id.
    pub id: String,
    /// Worker units the query expanded to (aggregation fold records are
    /// excluded — they are bookkeeping, not work).
    pub units: usize,
    /// Median unit latency in microseconds.
    pub p50_us: u64,
    /// 95th-percentile unit latency in microseconds.
    pub p95_us: u64,
    /// Maximum unit latency in microseconds.
    pub max_us: u64,
}

/// Aggregate summary of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Name of the query set.
    pub queryset: String,
    /// Number of queries in the set.
    pub queries: usize,
    /// Number of sessions in the corpus.
    pub sessions: usize,
    /// Number of records the run produced (work units plus one folded
    /// record per aggregation query).
    pub units: usize,
    /// Records that succeeded.
    pub ok: usize,
    /// Records that failed.
    pub errors: usize,
    /// Abduction-cache hits served from memory during this run.
    pub cache_hits: u64,
    /// Abduction-cache misses (units that ran inference) during this run.
    pub cache_misses: u64,
    /// Posteriors restored from the persistent store during this run —
    /// nonzero on a warm start, and together with `cache_misses == 0` the
    /// proof that the run performed no EHMM inference at all.
    pub disk_hits: u64,
    /// Threads that ran units, the consuming thread included (worker
    /// processes, for a distributed run).
    pub threads: usize,
    /// Corpus shards the run was partitioned into: the coordinator's
    /// partition width for a distributed run, the partition a
    /// shard-restricted worker run was cut from, and 1 otherwise.
    pub shards: usize,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_ms: f64,
    /// Unit retries performed under the engine's [`RetryPolicy`] (zero
    /// when no policy is set).
    pub retries: u64,
    /// Session ids quarantined during the run: sessions where some unit
    /// still failed after exhausting [`RetryPolicy::max_attempts`], whose
    /// remaining units were short-circuited to typed errors. Sorted;
    /// empty when no policy is set.
    pub quarantined: Vec<String>,
    /// Worker-shard re-dispatches performed by a distributed coordinator
    /// ([`crate::dist::Coordinator`]); always zero for in-process runs.
    pub shard_retries: u64,
    /// Per-query latency aggregates, in query order.
    pub per_query: Vec<QueryLatency>,
}

/// Everything an engine run produced.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Records in deterministic (query-major, variant-major,
    /// session-minor) order, with aggregation fold records at the end.
    pub records: Vec<QueryRecord>,
    /// The run summary.
    pub summary: RunSummary,
}

impl EngineReport {
    /// Renders the records as JSON Lines (one record per line): the bytes
    /// [`EngineReport::write_jsonl`] writes.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing records to memory cannot fail");
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// Writes the records as JSON Lines, one [`QueryRecord::write_line`]
    /// each, straight into `out`: the one JSONL writer behind
    /// [`EngineReport::to_jsonl`], `veritas run` and the daemon's batch
    /// responses.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        self.records
            .iter()
            .try_for_each(|record| record.write_line(out))
    }

    /// The summary as a JSON object.
    pub fn summary_json(&self) -> String {
        serde_json::to_string_pretty(&self.summary).expect("summary serialization cannot fail")
    }

    /// The records answering one query, in session order.
    pub fn records_for(&self, query_id: &str) -> Vec<&QueryRecord> {
        self.records
            .iter()
            .filter(|r| r.query_id == query_id)
            .collect()
    }

    /// The folded [`AggregateSummary`] of an aggregation query, when the
    /// query exists and its fold succeeded.
    pub fn aggregate_for(&self, query_id: &str) -> Option<AggregateSummary> {
        self.records
            .iter()
            .find(|r| r.query_id == query_id && r.session == AGGREGATE_SESSION)
            .and_then(|r| r.output.as_ref())
            .and_then(|o| o.aggregate)
    }
}

/// Admission control shared between an [`Engine`] and the permits it
/// hands out: a plain atomic counter bounded by `bound`.
#[derive(Debug)]
struct AdmissionGate {
    bound: usize,
    active: AtomicUsize,
}

/// A granted admission slot. Holding it counts as one active plan; the
/// slot is released when the permit is dropped. Permits from an engine
/// without an admission bound are no-ops.
#[derive(Debug)]
pub struct AdmissionPermit {
    gate: Option<Arc<AdmissionGate>>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(gate) = &self.gate {
            gate.active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Per-unit retry with bounded exponential backoff and deterministic,
/// seeded jitter.
///
/// Set on [`EngineBuilder::retry_policy`]. A unit that fails (typed
/// error *or* isolated panic) is re-run up to `max_attempts` total
/// attempts, sleeping `base_backoff × 2^(attempt-1)` (clamped to
/// `max_backoff`) plus a jitter drawn deterministically from
/// `(seed, unit, attempt)` between attempts — so a chaos run's sleep
/// schedule is as reproducible as its fault schedule. When a unit still
/// fails after `max_attempts`, its session is quarantined: remaining
/// units on that session short-circuit to typed errors and the session
/// id is reported in [`RunSummary::quarantined`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per unit (at least 1; 1 means "no retries").
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The default policy with `max_attempts` total attempts.
    pub fn with_max_attempts(attempts: u32) -> Self {
        Self {
            max_attempts: attempts.max(1),
            ..Self::default()
        }
    }

    /// The sleep before retrying `unit`'s attempt number `attempt`
    /// (1-based; the attempt that just failed): exponential in the
    /// attempt, clamped, plus deterministic jitter in `[0, base_backoff)`.
    pub fn backoff_for(&self, unit: usize, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        let clamped = exp.min(self.max_backoff);
        let base_nanos = self.base_backoff.as_nanos() as u64;
        if base_nanos == 0 {
            return clamped;
        }
        let hash = crate::fault::jitter_hash(self.seed, unit as u64, u64::from(attempt));
        clamped + Duration::from_nanos(hash % base_nanos)
    }
}

/// Configures and builds an [`Engine`] — the one construction path both
/// the `veritas` CLI and the `veritasd` service go through (via
/// [`crate::EngineFlags::engine_builder`]).
///
/// [`Self::build`] fails only when a configured cache directory cannot
/// be created ([`EngineError::Io`]).
///
/// ```
/// use veritas_engine::Engine;
/// let engine = Engine::builder().threads(2).build().unwrap();
/// assert_eq!(engine.admission_bound(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    admission: Option<usize>,
    retry: Option<RetryPolicy>,
    fault: Option<Arc<FaultPlan>>,
}

impl EngineBuilder {
    /// A builder with every knob at its default: default thread count,
    /// no persistent store, no admission bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads per run, counting the thread that consumes its
    /// [`RunHandle`]: a run spawns `threads − 1` helper workers, so one
    /// thread spawns none and runs every unit as the handle is consumed.
    /// `0` means "pick the default" ([`executor::default_threads`]); the
    /// builder, not the executor, owns that convention, so a summary
    /// always reports the real count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches a persistent abduction store rooted at `dir` (created at
    /// build time if absent) behind the in-memory cache.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Bounds the number of concurrently admitted plans:
    /// [`Engine::try_admit`] refuses with [`EngineError::Overloaded`]
    /// once `bound` permits are outstanding. A bound of zero sheds every
    /// plan (useful for drain/maintenance modes and tests).
    pub fn admission(mut self, bound: usize) -> Self {
        self.admission = Some(bound);
        self
    }

    /// Enables per-unit retry (and session quarantine on exhaustion)
    /// under `policy`. See [`RetryPolicy`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Attaches a deterministic fault-injection plan: compute faults and
    /// worker panics in the unit path, plus disk-cache read/write faults
    /// when a [`Self::cache_dir`] is configured. Chaos-testing only —
    /// production engines leave this unset.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builds the engine, opening the persistent store when one is
    /// configured.
    pub fn build(self) -> Result<Engine, EngineError> {
        let mut cache = AbductionCache::new();
        if let Some(dir) = self.cache_dir {
            let mut store = DiskStore::open(dir)?;
            if let Some(plan) = &self.fault {
                store = store.with_fault_plan(Arc::clone(plan));
            }
            cache.attach_disk_store(store);
        }
        Ok(Engine {
            retry: self.retry,
            fault: self.fault,
            threads: match self.threads {
                None | Some(0) => executor::default_threads(),
                Some(threads) => threads,
            },
            cache: Arc::new(cache),
            admission: self.admission.map(|bound| {
                Arc::new(AdmissionGate {
                    bound,
                    active: AtomicUsize::new(0),
                })
            }),
        })
    }
}

/// The batched, cached causal-query engine.
///
/// The API is a three-stage pipeline: **compile** a [`QuerySet`] into a
/// [`QueryPlan`] ([`QueryPlan::compile`]), **execute** it with
/// [`Engine::submit_shared`], and **consume** the returned [`RunHandle`]
/// either incrementally (it is an `Iterator`) or as a batch
/// ([`RunHandle::wait`]). [`Engine::run`] wraps all three for the
/// blocking callers. Construction goes through [`Engine::builder`].
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache: Arc<AbductionCache>,
    admission: Option<Arc<AdmissionGate>>,
    retry: Option<RetryPolicy>,
    fault: Option<Arc<FaultPlan>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Which of a plan's units a submit executes: all of them, or only those
/// whose session falls in shard `index` of the `of`-way partition
/// [`Corpus::shard`] produces — the worker half of distributed execution
/// ([`crate::dist`]).
#[derive(Clone, Copy)]
pub(crate) enum Scope {
    All,
    Shard { index: usize, of: usize },
}

impl Engine {
    /// An engine with the default thread count and no persistent store.
    pub fn new() -> Self {
        EngineBuilder::new()
            .build()
            .expect("the default engine configuration is valid")
    }

    /// The canonical construction path: a fresh [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The engine's abduction cache (shared across runs).
    pub fn cache(&self) -> &AbductionCache {
        &self.cache
    }

    /// The configured admission bound, when one was set
    /// ([`EngineBuilder::admission`]).
    pub fn admission_bound(&self) -> Option<usize> {
        self.admission.as_ref().map(|gate| gate.bound)
    }

    /// Plans currently holding an [`AdmissionPermit`]. Always zero for an
    /// engine without an admission bound.
    pub fn active_plans(&self) -> usize {
        self.admission
            .as_ref()
            .map_or(0, |gate| gate.active.load(Ordering::Acquire))
    }

    /// Claims an admission slot, refusing with
    /// [`EngineError::Overloaded`] when the configured bound is already
    /// saturated. Engines without a bound always grant (a no-op permit).
    /// Hold the permit for as long as the plan should count as active.
    pub fn try_admit(&self) -> Result<AdmissionPermit, EngineError> {
        let Some(gate) = &self.admission else {
            return Ok(AdmissionPermit { gate: None });
        };
        let mut active = gate.active.load(Ordering::Acquire);
        loop {
            if active >= gate.bound {
                return Err(EngineError::Overloaded {
                    active,
                    bound: gate.bound,
                });
            }
            match gate.active.compare_exchange_weak(
                active,
                active + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(AdmissionPermit {
                        gate: Some(Arc::clone(gate)),
                    })
                }
                Err(current) => active = current,
            }
        }
    }

    /// Executes a query set over a corpus, blocking until every record is
    /// in: a thin `compile → submit → wait` wrapper.
    pub fn run(
        &self,
        corpus: Arc<dyn Corpus>,
        set: &QuerySet,
    ) -> Result<EngineReport, EngineError> {
        let plan = QueryPlan::compile(set, corpus.as_ref())?;
        Ok(self.submit_shared(corpus, Arc::new(plan))?.wait())
    }

    /// Submits a compiled plan for streaming execution over any
    /// [`Corpus`] — eager [`crate::SessionCorpus`] values and lazy
    /// [`crate::LazyCorpus`] views alike, shared rather than copied.
    ///
    /// Returns immediately with a [`RunHandle`]. The run advances as the
    /// handle is consumed: the consuming thread runs units itself, while
    /// `threads − 1` helper workers push each completed [`QueryRecord`]
    /// through a bounded channel as it finishes. A one-thread run spawns
    /// no helper, so it advances only as the handle is consumed. Fails
    /// fast when the corpus is empty or is not the one the plan was
    /// compiled against (plans resolve session selectors and
    /// deployed-setting scenarios at compile time, so they are
    /// corpus-shaped).
    pub fn submit_shared(
        &self,
        corpus: Arc<dyn Corpus>,
        plan: Arc<QueryPlan>,
    ) -> Result<RunHandle, EngineError> {
        self.submit_scoped(corpus, plan, Scope::All)
    }

    /// The one submit implementation. A [`Scope::Shard`] run executes
    /// only the shard's units and does *not* fold aggregation queries —
    /// the handle yields the shard's per-session `metric_value` records
    /// but never the final `session: "*"` record, because no single
    /// shard sees every contribution; the coordinator folds across
    /// shards. A shard `index` at or past the actual partition width (the
    /// corpus clamps `of` to its session count) is an
    /// [`EngineError::Config`].
    pub(crate) fn submit_scoped(
        &self,
        corpus: Arc<dyn Corpus>,
        plan: Arc<QueryPlan>,
        scope: Scope,
    ) -> Result<RunHandle, EngineError> {
        check_plan_fits(corpus.as_ref(), &plan)?;
        // This must be the *same* corpus the plan's scenarios and
        // selectors were resolved against (a `.vcorp` corpus stores its
        // content fingerprint, so the check folds nothing).
        if corpus.content_fingerprint() != plan.corpus_fingerprint() {
            return Err(EngineError::CorpusMismatch(
                "plan was compiled against a different corpus (content fingerprints \
                 differ); recompile the plan for this corpus"
                    .to_string(),
            ));
        }
        let started = Instant::now();
        let (units, shards) = match scope {
            Scope::All => ((0..plan.units().len()).collect(), 1),
            Scope::Shard { index, of } => {
                let mut groups = units_by_shard(corpus.as_ref(), &plan, of);
                let shards = groups.len();
                if index >= shards {
                    return Err(EngineError::Config(format!(
                        "shard {index} out of range: the corpus partitions into {shards} shards"
                    )));
                }
                (groups.swap_remove(index), shards)
            }
        };
        // The log fingerprints of the sessions the run's units read,
        // resolved once per session here instead of once per cache
        // lookup; no other session's is resolved. A session whose
        // fingerprint happens to be 0 is merely resolved again.
        let mut log_fps = vec![0; corpus.len()];
        for &unit in &units {
            let session = plan.units()[unit].session;
            if log_fps[session] == 0 {
                log_fps[session] = corpus.log_fingerprint(session);
            }
        }
        let ctx = Arc::new(ExecCtx {
            cache: Some(Arc::clone(&self.cache)),
            log_fps,
            retry: self.retry,
            fault: self.fault.clone(),
            ..ExecCtx::new(corpus, plan)
        });
        let worker_ctx = Arc::clone(&ctx);
        let capacity = self.threads.saturating_mul(2).clamp(4, 1024);
        let stream = executor::stream(units, self.threads, capacity, move |index| {
            worker_ctx.supervised_run(index)
        });
        let mut handle = RunHandle::new(
            ctx,
            stream.results,
            stream.helpers,
            self.threads,
            shards,
            matches!(scope, Scope::All),
            started,
        );
        handle.claim = Some(stream.claim);
        Ok(handle)
    }
}

/// Rejects a plan that cannot run over `corpus`: an empty corpus, or a
/// session count other than the one the plan was compiled against.
pub(crate) fn check_plan_fits(corpus: &dyn Corpus, plan: &QueryPlan) -> Result<(), EngineError> {
    if corpus.is_empty() {
        return Err(EngineError::EmptyCorpus);
    }
    if plan.sessions() != corpus.len() {
        return Err(EngineError::CorpusMismatch(format!(
            "plan was compiled against {} sessions but the corpus has {}",
            plan.sessions(),
            corpus.len()
        )));
    }
    Ok(())
}

/// The plan's unit indices grouped by the [`Corpus::shard`] partition of
/// width `shards` (clamped by the corpus), in plan order within each
/// shard.
pub(crate) fn units_by_shard(
    corpus: &dyn Corpus,
    plan: &QueryPlan,
    shards: usize,
) -> Vec<Vec<usize>> {
    let views = corpus.shard(shards);
    let mut shard_of = vec![0usize; corpus.len()];
    for view in &views {
        for &si in &view.sessions {
            shard_of[si] = view.index;
        }
    }
    let mut groups = vec![Vec::new(); views.len()];
    for (ui, unit) in plan.units().iter().enumerate() {
        groups[shard_of[unit.session]].push(ui);
    }
    groups
}

/// Incremental fold state of one aggregation query: only the per-session
/// scalars are retained, never the records themselves.
struct AggregateFold {
    remaining: usize,
    values: Vec<f64>,
    unit_errors: usize,
}

/// A live streaming run: the **consume** stage, for in-process and
/// distributed runs alike.
///
/// Its producers — in-process helper workers ([`Engine::submit_shared`])
/// or a coordinator's per-shard dispatch threads
/// ([`crate::dist::Coordinator::submit`]) — push `(plan position,
/// record)` pairs through one bounded channel and fold their counters
/// into the run's shared context. An in-process run also advances on
/// the consuming thread: each `next()` returns a helper's finished
/// record when one is ready, otherwise runs the next unclaimed unit
/// itself, and blocks on the channel only once every unit is claimed. A
/// one-thread run has no helper, so it advances only as the handle is
/// consumed. Iterate the handle for records in completion order, then
/// call [`RunHandle::into_summary`]; or call [`RunHandle::wait`] for the
/// deterministic batch report. Dropping the handle abandons the run:
/// producers observe the closed channel and stop after their in-flight
/// unit or shard.
///
/// Unit panics are *isolated*: a panicking unit becomes a typed error
/// record (via [`crate::executor::run_isolated`]), so the only panics
/// `wait`, `into_summary`, and the iterator can re-raise on join are
/// defects in the streaming machinery itself.
pub struct RunHandle {
    rx: Option<mpsc::Receiver<(usize, QueryRecord)>>,
    producers: Vec<std::thread::JoinHandle<()>>,
    /// An in-process run's claim on its unit cursor: the consuming thread
    /// runs unclaimed units itself. `None` for a coordinator's run, whose
    /// units run in worker processes.
    claim: Option<executor::Claim<QueryRecord>>,
    /// Shared with the producers; carries this run's own counters so
    /// concurrent submits on one engine never pollute each other's
    /// summaries.
    ctx: Arc<ExecCtx>,
    /// An aggregation's fold record, waiting to be yielded right after
    /// the unit that completed it.
    pending: Option<(usize, QueryRecord)>,
    folds: Vec<Option<AggregateFold>>,
    latencies: Vec<Vec<u64>>,
    ok: usize,
    errors: usize,
    threads: usize,
    shards: usize,
    started: Instant,
}

impl RunHandle {
    /// Wraps a run submitted at `started`. `threads` and `shards` are
    /// what the summary reports (a coordinator reports its
    /// worker-process count as `threads`); `fold` enables the
    /// aggregation folds, which a shard-restricted run leaves to its
    /// coordinator.
    pub(crate) fn new(
        ctx: Arc<ExecCtx>,
        rx: mpsc::Receiver<(usize, QueryRecord)>,
        producers: Vec<std::thread::JoinHandle<()>>,
        threads: usize,
        shards: usize,
        fold: bool,
        started: Instant,
    ) -> Self {
        let plan = &ctx.plan;
        let folds = plan
            .set()
            .queries
            .iter()
            .enumerate()
            .map(|(qi, query)| {
                (fold && query.kind == QueryKind::Aggregate).then(|| AggregateFold {
                    remaining: plan.unit_count(qi),
                    values: Vec::new(),
                    unit_errors: 0,
                })
            })
            .collect();
        let latencies = vec![Vec::new(); plan.set().queries.len()];
        Self {
            rx: Some(rx),
            producers,
            claim: None,
            ctx,
            pending: None,
            folds,
            latencies,
            ok: 0,
            errors: 0,
            threads,
            shards,
            started,
        }
    }

    /// Yields the next record with its deterministic sort key (units
    /// sort by plan position; aggregation folds after all units): a
    /// producer's finished record when one is ready, else the next
    /// unclaimed unit run on this thread, and a blocking receive only
    /// once every unit has been claimed.
    fn next_keyed(&mut self) -> Option<(usize, QueryRecord)> {
        if let Some(keyed) = self.pending.take() {
            return Some(keyed);
        }
        let rx = self.rx.as_ref()?;
        let next = match rx.try_recv() {
            Ok(keyed) => Some(keyed),
            Err(_) => self
                .claim
                .as_ref()
                .and_then(executor::Claim::run_next)
                .or_else(|| rx.recv().ok()),
        };
        match next {
            Some((key, record)) => {
                self.absorb_unit(key, &record);
                Some((key, record))
            }
            None => {
                self.rx = None;
                self.join_producers();
                None
            }
        }
    }

    /// Folds a completed unit into the summary statistics and the
    /// aggregation accumulators, queueing an aggregation's final record
    /// when its last unit arrives. [`AggregateSummary::reduce`] sorts
    /// the values itself, so the fold is insensitive to the order
    /// contributions arrive in — in-process or from worker shards.
    fn absorb_unit(&mut self, key: usize, record: &QueryRecord) {
        self.count(record);
        let unit = self.ctx.plan.units()[key];
        self.latencies[unit.query].push(record.elapsed_us);
        let Some(fold) = self.folds[unit.query].as_mut() else {
            return;
        };
        match record.output.as_ref().and_then(|o| o.metric_value) {
            Some(value) => fold.values.push(value),
            None => fold.unit_errors += 1,
        }
        fold.remaining -= 1;
        if fold.remaining == 0 {
            let query = &self.ctx.plan.set().queries[unit.query];
            let final_record = aggregate_record(query, fold);
            self.count(&final_record);
            // Keyed by query index so the batch report lists fold records
            // in query order regardless of which aggregation's last unit
            // happened to finish first.
            let final_key = self.ctx.plan.units().len() + unit.query;
            self.pending = Some((final_key, final_record));
        }
    }

    fn count(&mut self, record: &QueryRecord) {
        if record.is_ok() {
            self.ok += 1;
        } else {
            self.errors += 1;
        }
    }

    fn join_producers(&mut self) {
        for handle in self.producers.drain(..) {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// The summary of everything absorbed so far.
    fn summary_now(&self) -> RunSummary {
        let set = self.ctx.plan.set();
        let per_query = set
            .queries
            .iter()
            .zip(&self.latencies)
            .map(|(query, elapsed)| {
                let mut sorted = elapsed.clone();
                sorted.sort_unstable();
                QueryLatency {
                    id: query.id.clone(),
                    units: sorted.len(),
                    p50_us: percentile_u64(&sorted, 50.0),
                    p95_us: percentile_u64(&sorted, 95.0),
                    max_us: sorted.last().copied().unwrap_or(0),
                }
            })
            .collect();
        RunSummary {
            queryset: set.name.clone(),
            queries: set.queries.len(),
            sessions: self.ctx.corpus.len(),
            units: self.ok + self.errors,
            ok: self.ok,
            errors: self.errors,
            cache_hits: self.ctx.run_hits.load(Ordering::Relaxed),
            cache_misses: self.ctx.run_misses.load(Ordering::Relaxed),
            disk_hits: self.ctx.run_disk_hits.load(Ordering::Relaxed),
            threads: self.threads,
            shards: self.shards,
            elapsed_ms: self.started.elapsed().as_secs_f64() * 1e3,
            retries: self.ctx.run_retries.load(Ordering::Relaxed),
            quarantined: self.ctx.quarantined.lock().iter().cloned().collect(),
            shard_retries: self.ctx.shard_retries.load(Ordering::Relaxed),
            per_query,
        }
    }

    /// Drains the remaining stream and returns the batch-shaped report:
    /// records restored to deterministic plan order (aggregation folds at
    /// the end) — for a distributed run, the same order and (after
    /// timing normalization) the same bytes as the in-process run.
    /// Records already taken through the iterator are *not* re-included;
    /// call `wait` on a fresh handle for the full batch.
    pub fn wait(mut self) -> EngineReport {
        let mut keyed: Vec<(usize, QueryRecord)> = Vec::with_capacity(self.ctx.plan.units().len());
        while let Some(entry) = self.next_keyed() {
            keyed.push(entry);
        }
        self.join_producers();
        keyed.sort_unstable_by_key(|(key, _)| *key);
        EngineReport {
            records: keyed.into_iter().map(|(_, record)| record).collect(),
            summary: self.summary_now(),
        }
    }

    /// Discards any remaining records and returns the run summary — the
    /// closing call of the incremental path, after the iterator has been
    /// consumed.
    pub fn into_summary(mut self) -> RunSummary {
        while self.next_keyed().is_some() {}
        self.join_producers();
        self.summary_now()
    }
}

impl Iterator for RunHandle {
    type Item = QueryRecord;

    fn next(&mut self) -> Option<QueryRecord> {
        self.next_keyed().map(|(_, record)| record)
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        // Close the channel first so blocked senders fail out, then let
        // the producers finish their in-flight work. Panics are not
        // re-raised here (a re-raise during an unwind would abort); the
        // consuming methods propagate them.
        self.rx = None;
        for handle in self.producers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Everything a run's producers share with its [`RunHandle`]: the plan,
/// the corpus, the per-run counters, and — for in-process runs — what a
/// worker needs to execute plan units. Shared, immutable apart from the
/// counters, and alive for as long as any producer runs.
pub(crate) struct ExecCtx {
    corpus: Arc<dyn Corpus>,
    plan: Arc<QueryPlan>,
    /// The engine's abduction cache, through which every unit resolves
    /// its posterior. `None` only in a coordinator's context
    /// ([`ExecCtx::new`]), which runs no units: its workers do.
    cache: Option<Arc<AbductionCache>>,
    /// Log fingerprints by session index, resolved at submit for the
    /// sessions this run's units read (0 for every other session).
    log_fps: Vec<u64>,
    /// Cache hits observed by *this run's* units. Kept per run (not as a
    /// delta of the shared cache's global counters) so concurrent submits
    /// on one engine report accurate, independent summaries.
    run_hits: AtomicU64,
    /// Cache misses observed by this run's units.
    run_misses: AtomicU64,
    /// Posteriors this run's units restored from the persistent store.
    run_disk_hits: AtomicU64,
    /// The engine's retry policy, when one was configured.
    retry: Option<RetryPolicy>,
    /// The engine's fault plan, when one was configured (chaos testing).
    fault: Option<Arc<FaultPlan>>,
    /// Unit retries this run performed.
    run_retries: AtomicU64,
    /// Worker-shard re-dispatches a coordinator performed for this run.
    pub(crate) shard_retries: AtomicU64,
    /// Ids of the sessions quarantined by retry exhaustion.
    quarantined: Mutex<BTreeSet<String>>,
}

impl ExecCtx {
    /// A context that only carries records: zeroed counters and no
    /// executor state. A coordinator's runs use it as is; the engine
    /// fills in the execution fields.
    pub(crate) fn new(corpus: Arc<dyn Corpus>, plan: Arc<QueryPlan>) -> Self {
        Self {
            corpus,
            plan,
            cache: None,
            log_fps: Vec::new(),
            run_hits: AtomicU64::new(0),
            run_misses: AtomicU64::new(0),
            run_disk_hits: AtomicU64::new(0),
            retry: None,
            fault: None,
            run_retries: AtomicU64::new(0),
            shard_retries: AtomicU64::new(0),
            quarantined: Mutex::new(BTreeSet::new()),
        }
    }

    /// Folds a worker process's per-shard summary into this run's
    /// counters: cache tiers and unit retries add up, quarantine lists
    /// union.
    pub(crate) fn absorb(&self, summary: RunSummary) {
        self.run_hits
            .fetch_add(summary.cache_hits, Ordering::Relaxed);
        self.run_misses
            .fetch_add(summary.cache_misses, Ordering::Relaxed);
        self.run_disk_hits
            .fetch_add(summary.disk_hits, Ordering::Relaxed);
        self.run_retries
            .fetch_add(summary.retries, Ordering::Relaxed);
        self.quarantined.lock().extend(summary.quarantined);
    }

    /// The supervised unit path every worker goes through: quarantine
    /// short-circuit, panic isolation, and (under a [`RetryPolicy`])
    /// bounded retry with deterministic backoff.
    ///
    /// Panic isolation is unconditional — a panicking unit becomes a
    /// typed error record whether or not retries are enabled, so one
    /// poisoned unit can never kill the run. Retry treats a typed unit
    /// error and an isolated panic identically; a unit that exhausts
    /// `max_attempts` quarantines its session (subsequent units on that
    /// session answer a typed quarantine error without running).
    fn supervised_run(&self, index: usize) -> QueryRecord {
        let session = self.corpus.session_id(self.plan.units()[index].session);
        if self.retry.is_some() && self.quarantined.lock().contains(session) {
            return self.synth_error_record(
                index,
                format!("session {session} quarantined after repeated failures"),
                None,
            );
        }
        let max_attempts = self
            .retry
            .map_or(1, |policy| u64::from(policy.max_attempts.max(1)));
        let mut attempt: u64 = 0;
        loop {
            attempt += 1;
            let outcome = executor::run_isolated(|| self.run_unit(index));
            let record = match outcome {
                Ok(record) => record,
                Err(panic_message) => self.synth_error_record(
                    index,
                    format!("worker panicked: {panic_message}"),
                    None,
                ),
            };
            if record.is_ok() {
                return record;
            }
            if attempt < max_attempts {
                self.run_retries.fetch_add(1, Ordering::Relaxed);
                let policy = self.retry.expect("max_attempts > 1 implies a policy");
                std::thread::sleep(policy.backoff_for(index, attempt as u32));
                continue;
            }
            if self.retry.is_some() {
                self.quarantined.lock().insert(session.to_string());
                let mut record = record;
                record.attempts = Some(attempt);
                return record;
            }
            return record;
        }
    }

    /// A typed error record for unit `index` that did not come out of
    /// [`ExecCtx::run_unit`]: quarantine short-circuits, isolated panics,
    /// and the units of a distributed shard that exhausted its attempts.
    pub(crate) fn synth_error_record(
        &self,
        index: usize,
        error: String,
        attempts: Option<u64>,
    ) -> QueryRecord {
        let unit = self.plan.units()[index];
        let query = &self.plan.set().queries[unit.query];
        let planned = &self.plan.configs()[unit.config];
        QueryRecord {
            query_id: query.id.clone(),
            kind: query.kind,
            session: self.corpus.session_id(unit.session).to_string(),
            variant: planned.label.clone(),
            status: "error".to_string(),
            error: Some(error),
            cache: None,
            elapsed_us: 0,
            output: None,
            attempts,
        }
    }

    fn run_unit(&self, index: usize) -> QueryRecord {
        let unit = self.plan.units()[index];
        let query = &self.plan.set().queries[unit.query];
        let planned = &self.plan.configs()[unit.config];
        let session_id = self.corpus.session_id(unit.session).to_string();
        let started = Instant::now();
        let answered = self.answer(planned, query, unit);
        let elapsed_us = started.elapsed().as_micros() as u64;
        match answered {
            Ok((output, cache)) => QueryRecord {
                query_id: query.id.clone(),
                kind: query.kind,
                session: session_id,
                variant: planned.label.clone(),
                status: "ok".to_string(),
                error: None,
                cache,
                elapsed_us,
                output: Some(output),
                attempts: None,
            },
            Err(error) => QueryRecord {
                query_id: query.id.clone(),
                kind: query.kind,
                session: session_id,
                variant: planned.label.clone(),
                status: "error".to_string(),
                error: Some(error),
                cache: None,
                elapsed_us,
                output: None,
                attempts: None,
            },
        }
    }

    /// Answers one unit: a scenario that failed to materialize is its
    /// error; otherwise it fetches the session's log once and hands it to
    /// every step of the answer.
    fn answer(
        &self,
        planned: &PlannedConfig,
        query: &Query,
        unit: WorkUnit,
    ) -> Result<(QueryOutput, Option<String>), String> {
        let scenario = match self.plan.scenario_for(unit.query) {
            Some(Ok(scenario)) => Some(scenario),
            Some(Err(error)) => return Err(error.clone()),
            None => None,
        };
        let si = unit.session;
        // The corpus decodes only the columns the plan's queries read.
        // `Corpus::log` guarantees the selected fields are bit-identical
        // to a full decode, so answers — and through the precomputed
        // fingerprints, cache keys — do not depend on the projection. A
        // load failure is this unit's error, like any other.
        let log = self.corpus.log(si, self.plan.column_demand(si))?;
        match (query.kind, scenario) {
            (QueryKind::Abduction, _) | (QueryKind::Sweep, None) => {
                self.answer_abduction(planned, si, &log)
            }
            (QueryKind::Interventional, _) => self.answer_interventional(planned, query, si, &log),
            // A sweep with a scenario replays the counterfactual under
            // every config variant; without one it is abduction-shaped.
            (QueryKind::Counterfactual | QueryKind::Sweep, Some(scenario)) => {
                self.answer_counterfactual(planned, query, si, &log, scenario)
            }
            (QueryKind::Aggregate, scenario) => {
                self.answer_aggregate(planned, query, si, &log, scenario)
            }
            (QueryKind::Counterfactual, None) => {
                unreachable!("scenarios are materialized for every counterfactual query")
            }
        }
    }

    /// Resolves a unit's abduction through the cache, using the
    /// fingerprints precomputed at compile (config) and submit (log) time.
    fn abduce(
        &self,
        si: usize,
        log: &SessionLog,
        horizon: usize,
        planned: &PlannedConfig,
    ) -> Result<(Arc<Abduction>, Option<String>), String> {
        if let Some(fault) = &self.fault {
            if fault.should_inject(FaultSite::ComputePanic) {
                panic!("injected compute panic (fault plan)");
            }
            if fault.should_inject(FaultSite::Compute) {
                return Err("injected compute fault (fault plan)".to_string());
            }
        }
        let Some(cache) = &self.cache else {
            return Err("a coordinator's context runs no units".to_string());
        };
        let (abduction, source) = cache
            .get_or_infer_keyed(
                self.corpus.session_id(si),
                log,
                self.log_fps[si],
                horizon,
                &planned.config,
                planned.fingerprint,
            )
            .map_err(|e| e.to_string())?;
        match source {
            CacheSource::Memory => self.run_hits.fetch_add(1, Ordering::Relaxed),
            CacheSource::Disk => self.run_disk_hits.fetch_add(1, Ordering::Relaxed),
            CacheSource::Inferred => self.run_misses.fetch_add(1, Ordering::Relaxed),
        };
        Ok((abduction, Some(source.label().to_string())))
    }

    fn answer_abduction(
        &self,
        planned: &PlannedConfig,
        si: usize,
        log: &SessionLog,
    ) -> Result<(QueryOutput, Option<String>), String> {
        let (abduction, cache) = self.abduce(si, log, log.records.len(), planned)?;
        let viterbi = abduction.viterbi_trace();
        let mae = self.corpus.truth(si).map(|truth| {
            let horizon = log.session_duration_s.min(truth.duration());
            trace_mae(
                &truth.with_duration(horizon),
                &viterbi,
                planned.config.delta_s,
            )
        });
        Ok((
            QueryOutput {
                chunks: Some(log.records.len()),
                mean_capacity_mbps: Some(viterbi.mean()),
                viterbi_mae_vs_truth_mbps: mae,
                ..QueryOutput::default()
            },
            cache,
        ))
    }

    fn answer_interventional(
        &self,
        planned: &PlannedConfig,
        query: &Query,
        si: usize,
        log: &SessionLog,
    ) -> Result<(QueryOutput, Option<String>), String> {
        let next_index = query.chunk_index.unwrap_or(log.records.len());
        if next_index == 0 || next_index > log.records.len() {
            return Err(format!(
                "chunk_index {next_index} out of range 1..={}",
                log.records.len()
            ));
        }
        let (abduction, cache) = self.abduce(si, log, next_index, planned)?;
        // At decision time the TCP state and (for replayed decisions) the
        // logged size of the next chunk are observable.
        let (tcp_info, logged) = if next_index < log.records.len() {
            let next = &log.records[next_index];
            (next.tcp_info, Some(next))
        } else {
            let last = log.records.last().expect("non-empty log");
            (last.tcp_info, None)
        };
        let candidate_size = query
            .candidate_size_bytes
            .or(logged.map(|r| r.size_bytes))
            .or(log.records.last().map(|r| r.size_bytes))
            .expect("non-empty log");
        let prediction = InterventionalPredictor::new(planned.config).predict_from_abduction(
            &abduction,
            log,
            next_index,
            candidate_size,
            &tcp_info,
        );
        Ok((
            QueryOutput {
                expected_capacity_mbps: Some(prediction.expected_capacity_mbps),
                predicted_download_time_s: Some(prediction.download_time_s),
                actual_download_time_s: logged.map(|r| r.download_time_s),
                ..QueryOutput::default()
            },
            cache,
        ))
    }

    /// Samples the posterior and replays a scenario over every sampled
    /// trace — the shared core of counterfactual and aggregation answers.
    fn replay_prediction(
        &self,
        planned: &PlannedConfig,
        query: &Query,
        si: usize,
        log: &SessionLog,
        scenario: &Scenario,
    ) -> Result<(RangePrediction, Option<String>), String> {
        let (abduction, cache) = self.abduce(si, log, log.records.len(), planned)?;
        let samples = query.samples.unwrap_or(planned.config.num_samples).max(1);
        let seed = query.seed.unwrap_or(planned.config.seed);
        let prediction = RangePrediction {
            samples: abduction
                .sample_traces_with_seed(samples, seed)
                .iter()
                .map(|trace| scenario.replay(trace))
                .collect(),
        };
        Ok((prediction, cache))
    }

    fn answer_counterfactual(
        &self,
        planned: &PlannedConfig,
        query: &Query,
        si: usize,
        log: &SessionLog,
        scenario: &Scenario,
    ) -> Result<(QueryOutput, Option<String>), String> {
        let (prediction, cache) = self.replay_prediction(planned, query, si, log, scenario)?;
        let baseline = scenario.replay(&baseline_trace(log, planned.config.delta_s));
        let oracle = self
            .corpus
            .truth(si)
            .map(|truth| scenario.replay(&oracle_trace(truth, log)));
        Ok((
            QueryOutput {
                veritas: Some(RangeSummary::of(&prediction)),
                baseline: Some(baseline),
                oracle,
                ..QueryOutput::default()
            },
            cache,
        ))
    }

    /// `scenario` is the one the plan materializes for a replay metric,
    /// and `None` for a metric read off the posterior.
    fn answer_aggregate(
        &self,
        planned: &PlannedConfig,
        query: &Query,
        si: usize,
        log: &SessionLog,
        scenario: Option<&Scenario>,
    ) -> Result<(QueryOutput, Option<String>), String> {
        let spec = query.aggregate.as_ref().expect("validated aggregate query");
        let (value, cache) = match scenario {
            Some(scenario) => {
                let (prediction, cache) =
                    self.replay_prediction(planned, query, si, log, scenario)?;
                // The per-session contribution is the Veritas-median
                // outcome of the metric across posterior samples (paper
                // §4.3).
                (prediction.median_of(|q| spec.metric.of_qoe(q)), cache)
            }
            None => {
                let (abduction, cache) = self.abduce(si, log, log.records.len(), planned)?;
                (abduction.viterbi_trace().mean(), cache)
            }
        };
        Ok((
            QueryOutput {
                metric_value: Some(value),
                ..QueryOutput::default()
            },
            cache,
        ))
    }
}

/// Builds the final `session: "*"` record of an aggregation query from
/// its fold state.
fn aggregate_record(query: &Query, fold: &AggregateFold) -> QueryRecord {
    let spec = query.aggregate.as_ref().expect("validated aggregate query");
    let mut record = QueryRecord {
        query_id: query.id.clone(),
        kind: QueryKind::Aggregate,
        session: AGGREGATE_SESSION.to_string(),
        variant: None,
        status: "ok".to_string(),
        error: None,
        cache: None,
        elapsed_us: 0,
        output: None,
        attempts: None,
    };
    if fold.values.is_empty() {
        record.status = "error".to_string();
        record.error = Some(format!(
            "no session produced a value to aggregate ({} unit errors)",
            fold.unit_errors
        ));
    } else {
        record.output = Some(QueryOutput {
            aggregate: Some(AggregateSummary::reduce(spec.metric, &fold.values)),
            ..QueryOutput::default()
        });
    }
    record
}

/// Builds the concrete replay [`Scenario`] a [`ScenarioSpec`] describes,
/// starting from a corpus's deployed setting. Fails (instead of panicking)
/// on unknown ABR or ladder names and invalid buffer sizes, so bad query
/// files surface as per-query errors.
pub fn materialize_scenario(corpus: &dyn Corpus, spec: &ScenarioSpec) -> Result<Scenario, String> {
    let abr = spec
        .abr
        .clone()
        .unwrap_or_else(|| corpus.deployed_abr().to_string());
    if abr_by_name(&abr).is_none() {
        return Err(format!("unknown ABR algorithm name: {abr}"));
    }
    let mut player = *corpus.player();
    if let Some(buffer) = spec.buffer_capacity_s {
        if !(buffer.is_finite() && buffer > 0.0) {
            return Err(format!("buffer_capacity_s must be positive, got {buffer}"));
        }
        player = player.with_buffer_capacity(buffer);
    }
    let asset = match spec.ladder.as_deref() {
        None => corpus.asset().clone(),
        Some("paper_default" | "default") => {
            corpus.asset().reencoded(QualityLadder::paper_default())
        }
        Some("higher" | "paper_higher" | "paper_higher_qualities") => corpus
            .asset()
            .reencoded(QualityLadder::paper_higher_qualities()),
        Some(other) => {
            return Err(format!(
                "unknown ladder `{other}` (expected paper_default | higher)"
            ))
        }
    };
    Ok(Scenario::new(&abr, player, asset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{LogRef, SessionCorpus, SyntheticSpec};
    use crate::plan::{AggregateMetric, AggregateSpec, ConfigSweep};
    use crate::query::QuerySet;
    use crate::store::ColumnSet;
    use veritas::{CounterfactualEngine, VeritasConfig};
    use veritas_media::VideoAsset;
    use veritas_player::PlayerConfig;
    use veritas_trace::BandwidthTrace;

    fn tiny_corpus() -> Arc<SessionCorpus> {
        Arc::new(
            SyntheticSpec {
                sessions: 2,
                video_duration_s: 120.0,
                ..SyntheticSpec::default()
            }
            .build(),
        )
    }

    fn config() -> VeritasConfig {
        VeritasConfig::paper_default().with_samples(2)
    }

    #[test]
    fn scenario_materialization_validates_names() {
        let corpus = tiny_corpus();
        assert!(materialize_scenario(&*corpus, &ScenarioSpec::abr("bba")).is_ok());
        assert!(
            materialize_scenario(&*corpus, &ScenarioSpec::abr("pensieve"))
                .unwrap_err()
                .contains("unknown ABR")
        );
        assert!(materialize_scenario(&*corpus, &ScenarioSpec::ladder("8k"))
            .unwrap_err()
            .contains("unknown ladder"));
        assert!(materialize_scenario(&*corpus, &ScenarioSpec::buffer(-1.0)).is_err());
    }

    /// A corpus that records the thread of each of its [`Corpus::log`]
    /// calls and counts its [`Corpus::log_fingerprint`] calls. Like a
    /// `LazyCorpus`, it stores its content fingerprint.
    struct CountingCorpus {
        inner: Arc<SessionCorpus>,
        content: u64,
        fetches: Mutex<Vec<std::thread::ThreadId>>,
        fingerprints: AtomicUsize,
    }

    impl CountingCorpus {
        fn new() -> Arc<Self> {
            Self::over(tiny_corpus())
        }

        fn over(inner: Arc<SessionCorpus>) -> Arc<Self> {
            Arc::new(Self {
                content: inner.content_fingerprint(),
                inner,
                fetches: Mutex::new(Vec::new()),
                fingerprints: AtomicUsize::new(0),
            })
        }

        fn logs(&self) -> usize {
            self.fetches.lock().len()
        }
    }

    impl Corpus for CountingCorpus {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn session_id(&self, index: usize) -> &str {
            self.inner.session_id(index)
        }

        fn log(&self, index: usize, columns: ColumnSet) -> Result<LogRef<'_>, String> {
            self.fetches.lock().push(std::thread::current().id());
            self.inner.log(index, columns)
        }

        fn log_fingerprint(&self, index: usize) -> u64 {
            self.fingerprints.fetch_add(1, Ordering::Relaxed);
            self.inner.log_fingerprint(index)
        }

        fn content_fingerprint(&self) -> u64 {
            self.content
        }

        fn truth(&self, index: usize) -> Option<&BandwidthTrace> {
            self.inner.truth(index)
        }

        fn asset(&self) -> &VideoAsset {
            self.inner.asset()
        }

        fn player(&self) -> &PlayerConfig {
            self.inner.player()
        }

        fn deployed_abr(&self) -> &str {
            self.inner.deployed_abr()
        }
    }

    #[test]
    fn every_unit_fetches_its_log_exactly_once() {
        let corpus = CountingCorpus::new();
        let set = QuerySet::new("t", config())
            .with_query(Query::abduction("ab"))
            .with_query(Query::interventional("iv").with_chunk_index(10))
            .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")))
            .with_query(
                Query::sweep("sweep-cf", ConfigSweep::new().over_sigma(vec![0.5, 1.0]))
                    .with_scenario(ScenarioSpec::buffer(30.0)),
            )
            .with_query(Query::sweep(
                "sweep-ab",
                ConfigSweep::new().over_stay_probability(vec![0.9]),
            ))
            .with_query(Query::aggregate(
                "agg-replay",
                AggregateSpec::of(AggregateMetric::MeanSsim),
            ))
            .with_query(Query::aggregate(
                "agg-posterior",
                AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
            ));
        let report = Engine::new().run(corpus.clone(), &set).unwrap();
        assert_eq!(report.summary.errors, 0);
        // 2 sessions × 8 units (the σ sweep has two variants), plus the
        // two folded aggregate records, which fetch nothing.
        assert_eq!(report.records.len(), 18);
        assert_eq!(corpus.logs(), 16);
    }

    #[test]
    fn a_submit_resolves_only_the_fingerprints_of_the_sessions_it_reads() {
        let corpus = CountingCorpus::over(Arc::new(
            SyntheticSpec {
                sessions: 20,
                video_duration_s: 30.0,
                ..SyntheticSpec::default()
            }
            .build(),
        ));
        let next_chunk = |id: &str| {
            Query::interventional(id)
                .with_sessions(vec![7])
                .with_chunk_index(5)
        };
        let set = QuerySet::new("t", config())
            .with_query(next_chunk("logged"))
            .with_query(next_chunk("rung-0").with_candidate_size(100_000.0));
        let plan = Arc::new(QueryPlan::compile(&set, &*corpus).unwrap());
        let engine = Engine::builder().threads(1).build().unwrap();
        let report = engine.submit_shared(corpus.clone(), plan).unwrap().wait();
        assert_eq!(report.summary.errors, 0);
        assert_eq!(report.records.len(), 2);
        // One session read: one fingerprint, not one per corpus session.
        assert_eq!(corpus.fingerprints.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_one_thread_run_answers_every_unit_on_the_consuming_thread() {
        let corpus = CountingCorpus::new();
        let set = QuerySet::new("t", config())
            .with_query(Query::abduction("ab"))
            .with_query(Query::interventional("iv").with_chunk_index(10))
            .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")));
        let engine = Engine::builder().threads(1).build().unwrap();
        let report = engine.run(corpus.clone(), &set).unwrap();
        assert_eq!(report.summary.errors, 0);
        assert_eq!(report.summary.threads, 1);
        let me = std::thread::current().id();
        let fetches = corpus.fetches.lock();
        assert_eq!(fetches.len(), 6, "2 sessions × 3 queries");
        assert!(
            fetches.iter().all(|&thread| thread == me),
            "a one-thread run spawns no worker: every unit runs on the consuming thread"
        );
    }

    #[test]
    fn a_one_thread_run_advances_only_as_its_handle_is_consumed() {
        let corpus = CountingCorpus::new();
        let set = QuerySet::new("t", config())
            .with_query(Query::abduction("ab"))
            .with_query(
                Query::counterfactual("cf", ScenarioSpec::abr("bba")).with_sessions(vec![1]),
            );
        let plan = Arc::new(QueryPlan::compile(&set, &*corpus).unwrap());
        assert_eq!(plan.units().len(), 3);
        let engine = Engine::builder().threads(1).build().unwrap();
        // On its own thread, so a drop that hangs fails the test instead
        // of stalling it.
        let (done, finished) = mpsc::channel();
        let consumer = {
            let corpus = Arc::clone(&corpus);
            std::thread::spawn(move || {
                let mut handle = engine.submit_shared(corpus, plan).unwrap();
                let first = handle.next().expect("a record");
                assert!(first.is_ok());
                drop(handle);
                done.send(()).unwrap();
            })
        };
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("dropping a partly consumed run must not hang");
        consumer.join().unwrap();
        assert_eq!(
            corpus.logs(),
            1,
            "one record taken: exactly one unit ran, and the drop ran no more"
        );
    }

    #[test]
    fn run_fans_out_and_orders_records() {
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config())
            .with_query(Query::abduction("ab"))
            .with_query(
                Query::counterfactual("cf", ScenarioSpec::abr("bba")).with_sessions(vec![1]),
            );
        let engine = Engine::new();
        let report = engine.run(corpus.clone(), &set).unwrap();
        assert_eq!(report.summary.units, 3);
        assert_eq!(report.summary.ok, 3);
        assert_eq!(report.summary.errors, 0);
        let ids: Vec<(&str, &str)> = report
            .records
            .iter()
            .map(|r| (r.query_id.as_str(), r.session.as_str()))
            .collect();
        assert_eq!(
            ids,
            vec![
                ("ab", "session-0"),
                ("ab", "session-1"),
                ("cf", "session-1")
            ]
        );
        // The counterfactual on session-1 reuses the abduction query's
        // posterior for that session.
        assert_eq!(report.summary.cache_misses, 2);
        assert_eq!(report.summary.cache_hits, 1);
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
    }

    #[test]
    fn per_unit_errors_do_not_abort_the_batch() {
        let corpus = tiny_corpus();
        let chunks = corpus.sessions[0].log.records.len();
        let set = QuerySet::new("t", config())
            .with_query(Query::interventional("bad").with_chunk_index(chunks + 5))
            .with_query(Query::counterfactual(
                "bad-abr",
                ScenarioSpec::abr("pensieve"),
            ))
            .with_query(Query::abduction("good"));
        let report = Engine::new().run(corpus.clone(), &set).unwrap();
        assert_eq!(report.summary.errors, 4);
        assert_eq!(report.summary.ok, 2);
        for record in report.records_for("bad") {
            assert!(record.error.as_ref().unwrap().contains("out of range"));
        }
    }

    #[test]
    fn structural_problems_fail_fast() {
        let corpus = tiny_corpus();
        let out_of_range =
            QuerySet::new("t", config()).with_query(Query::abduction("a").with_sessions(vec![9]));
        assert!(matches!(
            Engine::new().run(corpus.clone(), &out_of_range),
            Err(EngineError::Query(_))
        ));
        let empty = QuerySet::new("t", config());
        assert!(Engine::new().run(corpus.clone(), &empty).is_err());
    }

    #[test]
    fn counterfactual_matches_the_core_engine_exactly() {
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config())
            .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")));
        let report = Engine::new().run(corpus.clone(), &set).unwrap();
        let core = CounterfactualEngine::new(config());
        for (record, session) in report.records.iter().zip(&corpus.sessions) {
            let scenario = materialize_scenario(&*corpus, &ScenarioSpec::abr("bba")).unwrap();
            let expected = core.veritas_predict(&session.log, &scenario);
            let output = record.output.as_ref().unwrap();
            let veritas = output.veritas.unwrap();
            assert_eq!(veritas.samples, 2);
            let (lo, hi) = expected.ssim_range();
            assert_eq!((veritas.ssim_low, veritas.ssim_high), (lo, hi));
            assert_eq!(
                output.baseline.unwrap(),
                core.baseline_predict(&session.log, &scenario)
            );
            assert_eq!(
                output.oracle.unwrap(),
                core.oracle_predict(session.truth.as_ref().unwrap(), &session.log, &scenario)
            );
        }
    }

    #[test]
    fn queryset_shares_one_abduction_per_session_and_config() {
        // The acceptance scenario: N interventional + counterfactual
        // queries over one session must run exactly one abduction.
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config())
            .with_query(
                Query::counterfactual("cf-bba", ScenarioSpec::abr("bba")).with_sessions(vec![0]),
            )
            .with_query(
                Query::counterfactual("cf-buffer", ScenarioSpec::buffer(30.0))
                    .with_sessions(vec![0]),
            )
            .with_query(
                Query::counterfactual("cf-seeded", ScenarioSpec::abr("bola"))
                    .with_sessions(vec![0])
                    .with_seed(99)
                    .with_samples(1),
            )
            .with_query(Query::interventional("iv-next").with_sessions(vec![0]))
            .with_query(Query::abduction("ab").with_sessions(vec![0]));
        let engine = Engine::new();
        let report = engine.run(corpus.clone(), &set).unwrap();
        assert_eq!(report.summary.errors, 0);
        assert_eq!(
            report.summary.cache_misses, 1,
            "exactly one abduction per (session, config) pair"
        );
        assert_eq!(report.summary.cache_hits, 4);
        assert_eq!(engine.cache().entries(), 1);
        // Running the same set again is fully served from cache.
        let again = engine.run(corpus.clone(), &set).unwrap();
        assert_eq!(again.summary.cache_misses, 0);
        assert_eq!(again.summary.cache_hits, 5);
    }

    #[test]
    fn a_cached_posterior_answers_exactly_as_a_fresh_inference() {
        let corpus = tiny_corpus();
        // One thread runs the units in plan order, so query "a" infers
        // each session's posterior before any "b" unit asks for it.
        let run = |set: &QuerySet| {
            let engine = Engine::builder().threads(1).build().unwrap();
            engine.run(corpus.clone(), set).unwrap()
        };
        let counterfactual = Query::counterfactual("b", ScenarioSpec::abr("bba"));
        let hits = run(&QuerySet::new("t", config())
            .with_query(Query::abduction("a"))
            .with_query(counterfactual.clone()));
        // Alone on a fresh engine, every "b" unit infers its own.
        let misses = run(&QuerySet::new("t", config()).with_query(counterfactual));
        let hits = hits.records_for("b");
        let misses = misses.records_for("b");
        assert_eq!(hits.len(), corpus.len());
        assert_eq!(misses.len(), corpus.len());
        for (hit, miss) in hits.iter().zip(&misses) {
            assert_eq!(hit.cache.as_deref(), Some("hit"));
            assert_eq!(miss.cache.as_deref(), Some("miss"));
            assert_eq!(hit.session, miss.session);
            assert!(hit.output.is_some());
            assert_eq!(hit.output, miss.output);
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config())
            .with_query(Query::abduction("a").with_sessions(vec![0]))
            .with_query(
                Query::interventional("i")
                    .with_sessions(vec![0])
                    .with_chunk_index(10),
            );
        let report = Engine::new().run(corpus.clone(), &set).unwrap();
        for line in report.to_jsonl().lines() {
            let back: QueryRecord = serde_json::from_str(line).unwrap();
            assert!(report.records.contains(&back));
        }
        let summary: RunSummary = serde_json::from_str(&report.summary_json()).unwrap();
        assert_eq!(summary, report.summary);
    }

    #[test]
    fn threads_zero_normalizes_to_default() {
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config()).with_query(Query::abduction("a"));
        let run = |threads| {
            Engine::builder()
                .threads(threads)
                .build()
                .unwrap()
                .run(corpus.clone(), &set)
                .unwrap()
        };
        assert_eq!(
            run(0).summary.threads,
            executor::default_threads(),
            "threads(0) must mean `pick the default`, not one thread"
        );
        assert_eq!(run(3).summary.threads, 3);
    }

    #[test]
    fn summary_reports_per_query_latency_aggregates() {
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config())
            .with_query(Query::abduction("a"))
            .with_query(Query::counterfactual("b", ScenarioSpec::abr("bba")));
        let report = Engine::new().run(corpus.clone(), &set).unwrap();
        assert_eq!(report.summary.per_query.len(), 2);
        for latency in &report.summary.per_query {
            assert_eq!(latency.units, corpus.len());
            assert!(latency.p50_us <= latency.p95_us);
            assert!(latency.p95_us <= latency.max_us);
            assert!(latency.max_us > 0, "units take measurable time");
        }
        assert_eq!(report.summary.per_query[0].id, "a");
        assert_eq!(report.summary.per_query[1].id, "b");
    }

    #[test]
    fn submit_rejects_a_mismatched_corpus() {
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config()).with_query(Query::abduction("a"));
        let plan = Arc::new(QueryPlan::compile(&set, &*corpus).unwrap());
        let submit = |corpus: SessionCorpus| {
            Engine::new().submit_shared(Arc::new(corpus), Arc::clone(&plan))
        };
        // Wrong session count.
        let bigger = SyntheticSpec {
            sessions: 3,
            video_duration_s: 60.0,
            ..SyntheticSpec::default()
        }
        .build();
        assert!(matches!(
            submit(bigger),
            Err(EngineError::CorpusMismatch(_))
        ));
        // Same session count, different content: the plan's scenarios and
        // selectors were resolved against another corpus, so this must be
        // rejected rather than silently replaying the wrong assets.
        let impostor = SyntheticSpec {
            sessions: 2,
            video_duration_s: 120.0,
            seed: 999,
            ..SyntheticSpec::default()
        }
        .build();
        match submit(impostor) {
            Err(EngineError::CorpusMismatch(message)) => {
                assert!(message.contains("different corpus"))
            }
            Err(other) => panic!("expected a corpus-mismatch error, got {other:?}"),
            Ok(_) => panic!("a same-sized impostor corpus must be rejected"),
        }
        // Identical logs but a different deployed setting: scenarios were
        // materialized from the original setting, so this too must be
        // rejected, not silently replayed.
        let mut redeployed = (*corpus).clone();
        redeployed.deployed_abr = "bba".to_string();
        assert!(
            submit(redeployed).is_err(),
            "a changed deployed setting must invalidate the plan"
        );
        let mut rebuffered = (*corpus).clone();
        rebuffered.player = rebuffered.player.with_buffer_capacity(30.0);
        assert!(submit(rebuffered).is_err());
        // The corpus it was compiled against still works.
        assert!(submit((*corpus).clone()).is_ok());
    }

    #[test]
    fn a_shard_scope_runs_only_its_shard_and_leaves_folds_to_the_coordinator() {
        use crate::plan::{AggregateMetric, AggregateSpec};
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config())
            .with_query(Query::abduction("ab"))
            .with_query(Query::aggregate(
                "agg",
                AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
            ));
        let plan = Arc::new(QueryPlan::compile(&set, &*corpus).unwrap());
        let engine = Engine::new();
        let shard = |index| {
            engine.submit_scoped(
                corpus.clone(),
                Arc::clone(&plan),
                Scope::Shard { index, of: 2 },
            )
        };
        let report = shard(1).unwrap().wait();
        let sessions: Vec<&str> = report.records.iter().map(|r| r.session.as_str()).collect();
        assert_eq!(sessions, vec!["session-1", "session-1"]);
        assert_eq!(report.summary.shards, 2);
        assert!(report.aggregate_for("agg").is_none());
        assert!(matches!(shard(2), Err(EngineError::Config(_))));
    }

    #[test]
    fn multiple_aggregations_fold_in_query_order() {
        use crate::plan::{AggregateMetric, AggregateSpec};
        let corpus = tiny_corpus();
        let set = QuerySet::new("t", config())
            .with_query(Query::aggregate(
                "agg-a",
                AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
            ))
            .with_query(Query::aggregate(
                "agg-b",
                AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
            ));
        // Several runs with real parallelism: the two fold records must
        // always close the report in query order, no matter which
        // aggregation's last unit finished first.
        for _ in 0..3 {
            let report = Engine::builder()
                .threads(4)
                .build()
                .unwrap()
                .run(corpus.clone(), &set)
                .unwrap();
            let tail: Vec<(&str, &str)> = report.records[report.records.len() - 2..]
                .iter()
                .map(|r| (r.query_id.as_str(), r.session.as_str()))
                .collect();
            assert_eq!(
                tail,
                vec![("agg-a", AGGREGATE_SESSION), ("agg-b", AGGREGATE_SESSION)]
            );
        }
    }

    #[test]
    fn pre_variant_reports_still_deserialize() {
        // A record line written before `variant`/`metric_value`/`aggregate`
        // existed must stay readable by `veritas validate`.
        let old_line = r#"{"query_id":"posterior","kind":"abduction","session":"session-0","status":"ok","error":null,"cache":"miss","elapsed_us":1234,"output":{"chunks":60,"mean_capacity_mbps":5.5,"viterbi_mae_vs_truth_mbps":null,"expected_capacity_mbps":null,"predicted_download_time_s":null,"actual_download_time_s":null,"veritas":null,"baseline":null,"oracle":null}}"#;
        let record: QueryRecord = serde_json::from_str(old_line).unwrap();
        assert_eq!(record.query_id, "posterior");
        assert_eq!(record.variant, None);
        assert_eq!(record.output.as_ref().unwrap().chunks, Some(60));
        assert_eq!(record.output.as_ref().unwrap().metric_value, None);
        // Typos are still rejected.
        assert!(serde_json::from_str::<QueryRecord>(
            r#"{"query_id":"q","kind":"abduction","session":"s","status":"ok","elapsed_us":1,"varient":"x"}"#
        )
        .is_err());
    }

    #[test]
    fn admission_gate_bounds_concurrent_plans() {
        let engine = Engine::builder().admission(2).build().unwrap();
        assert_eq!(engine.admission_bound(), Some(2));
        assert_eq!(engine.active_plans(), 0);
        let first = engine.try_admit().unwrap();
        let _second = engine.try_admit().unwrap();
        assert_eq!(engine.active_plans(), 2);
        match engine.try_admit() {
            Err(EngineError::Overloaded { active, bound }) => {
                assert_eq!((active, bound), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Releasing a permit frees a slot.
        drop(first);
        assert_eq!(engine.active_plans(), 1);
        let _third = engine.try_admit().unwrap();
        // A zero bound sheds everything; no bound admits everything.
        let drained = Engine::builder().admission(0).build().unwrap();
        assert!(drained.try_admit().is_err());
        let unbounded = Engine::new();
        assert_eq!(unbounded.admission_bound(), None);
        for _ in 0..64 {
            // No-op permits: dropping them immediately must not underflow.
            let _ = unbounded.try_admit().unwrap();
        }
        assert_eq!(unbounded.active_plans(), 0);
    }
}
