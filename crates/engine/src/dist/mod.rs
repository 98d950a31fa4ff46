//! Distributed shard execution: farm [`crate::CorpusShard`]s to worker
//! processes and merge their record streams deterministically.
//!
//! Veritas queries are embarrassingly parallel across sessions —
//! abduction is per-trace — so a corpus partitions cleanly into shards
//! that independent *processes* can execute. This module is the
//! coordinator half of that split:
//!
//! ```text
//!                        ┌──────────────────────┐
//!          QuerySet ───▶ │      Coordinator     │ ───▶ records + summary
//!                        │  compile · partition │      (byte-identical to
//!                        │  dispatch · merge    │       the in-process run)
//!                        └──────────┬───────────┘
//!              shard 0 / JSONL      │      shard N-1 / JSONL
//!              ┌────────────────────┼────────────────────┐
//!              ▼                    ▼                    ▼
//!        ┌──────────┐        ┌──────────┐         ┌──────────┐
//!        │ worker 0 │        │ worker 1 │   ...   │ worker N │
//!        │ veritasd │        │ veritasd │         │ veritasd │
//!        └────┬─────┘        └────┬─────┘         └────┬─────┘
//!             └──────────── shared --cache-dir ────────┘
//! ```
//!
//! The [`Coordinator`] compiles a [`QueryPlan`] locally, partitions the
//! corpus with [`Corpus::shard`], and dispatches one request per shard
//! to a pool of workers — processes spawned locally ([`WorkerPool`],
//! `veritas worker` / `veritasd`) or daemons reached over TCP
//! ([`Coordinator::connect`]). The wire is the ordinary `veritasd`
//! JSONL protocol with a `shard` selector:
//! `{"query": <QuerySet>, "shard": {"index": I, "of": S}}`; the worker
//! compiles the same plan against its own copy of the corpus and
//! executes only that shard.
//!
//! **Determinism.** A record's wire identity — `(query_id, session,
//! variant)` — names exactly one plan unit, so every worker record is
//! re-keyed to its global plan position no matter which worker produced
//! it or when it arrived. The coordinator's dispatch threads feed the
//! re-keyed records into an ordinary [`crate::RunHandle`], so
//! [`crate::RunHandle::wait`] restores exactly the batch order of the
//! single-process run, and aggregation queries are folded across shards
//! by the same order-insensitive reduction the engine uses: the merged
//! JSONL is byte-identical (after timing normalization) to
//! [`crate::Engine::run`].
//!
//! **Supervision.** A worker that dies, resets the connection, answers
//! a typed error, or (with [`DistConfig::io_timeout`] set) misses its
//! deadline fails only that shard's *attempt*: the shard is
//! re-dispatched to the next worker under the coordinator's
//! [`RetryPolicy`] (reported as [`crate::RunSummary::shard_retries`]),
//! and a shared `--cache-dir` makes re-execution cheap — posteriors the
//! dead worker already persisted are disk hits for its replacement.
//! Records are forwarded only when a shard's batch is complete, so retry
//! is exactly-once as far as the consumer can tell. A shard that
//! exhausts every attempt degrades to typed per-unit error records (the
//! run still completes), mirroring session quarantine in the in-process
//! supervisor.

mod pool;

pub use pool::{worker_command, WorkerPool};

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::corpus::Corpus;
use crate::error::{EngineError, ErrorEnvelope};
use crate::plan::QueryPlan;
use crate::query::QuerySet;
use crate::runner::{
    check_plan_fits, units_by_shard, EngineReport, ExecCtx, QueryRecord, RetryPolicy, RunHandle,
    RunSummary,
};
use crate::service::SummaryEnvelope;

/// Knobs of a [`Coordinator`].
#[derive(Debug, Clone, Default)]
pub struct DistConfig {
    /// Shards to partition each submitted corpus into; `0` means one
    /// shard per worker. (The corpus clamps the width to its session
    /// count either way.)
    pub shards: usize,
    /// Shard-level retry: how many total dispatch attempts each shard
    /// gets, and the backoff between them. Attempt `k` of shard `s` goes
    /// to worker `(s + k) % N`, so a retried shard always lands on a
    /// *different* worker first.
    pub retry: RetryPolicy,
    /// Read/write deadline on worker connections (`None`: no deadline).
    /// A deadline turns a hung worker into a shard retry — but a worker
    /// sends nothing until its whole shard is done, so the deadline must
    /// exceed the slowest shard. Neither binary sets it.
    pub io_timeout: Option<Duration>,
}

/// The distributed front end: compiles plans, partitions corpora into
/// shards, farms the shards to worker processes, and merges the record
/// streams back deterministically. See the [module docs](self) for the
/// topology, the wire protocol, and the retry semantics.
///
/// Construction is either [`Coordinator::spawn`] (launch and own a
/// local [`WorkerPool`]) or [`Coordinator::connect`] (use daemons that
/// are already listening). Submission mirrors the engine:
/// [`Coordinator::submit`] returns the same streaming [`RunHandle`],
/// [`Coordinator::run`] is the blocking compile → submit → wait wrapper.
///
/// Every worker must serve **the same corpus** the coordinator submits
/// against — spawned pools guarantee this by re-opening the same corpus
/// source; with [`Coordinator::connect`] it is the operator's contract.
pub struct Coordinator {
    addrs: Vec<SocketAddr>,
    /// Owned children when the coordinator spawned its own pool; their
    /// lifetime is the coordinator's.
    _pool: Option<WorkerPool>,
    config: DistConfig,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("workers", &self.addrs)
            .field("config", &self.config)
            .finish()
    }
}

/// One shard request on the worker wire.
struct WorkerRequest<'a> {
    query: &'a QuerySet,
    shard: WireShard,
    /// Plan-wide column-demand union
    /// ([`QueryPlan::column_demand_union`]) as a bitmask. The worker
    /// recompiles the plan from `query`, so it derives the same demand
    /// by construction; advertising the coordinator's view lets the
    /// worker refuse on any derivation skew (version drift) instead of
    /// silently decoding different columns.
    columns: u32,
}

// Hand-written because the serde shim's derive does not handle
// lifetime-generic structs.
impl serde::Serialize for WorkerRequest<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("WorkerRequest", 3)?;
        state.serialize_field("query", self.query)?;
        state.serialize_field("shard", &self.shard)?;
        state.serialize_field("columns", &self.columns)?;
        state.end()
    }
}

/// The `shard` member of a worker request.
#[derive(Serialize)]
struct WireShard {
    index: usize,
    of: usize,
}

/// The wire identity of one work unit: query id, session id, and sweep
/// variant label. Unique per plan unit by construction (units are
/// query × session × config, and variant labels are unique per query).
type UnitKey = (String, String, Option<String>);

/// Everything one dispatch thread needs to drive its shard to
/// completion (or exhaustion).
struct ShardJob {
    shard: usize,
    shards: usize,
    /// The shard's global plan-unit indices.
    units: Vec<usize>,
    addrs: Vec<SocketAddr>,
    request: String,
    key_of: Arc<HashMap<UnitKey, usize>>,
    retry: RetryPolicy,
    io_timeout: Option<Duration>,
}

impl Coordinator {
    /// Spawns `workers` local worker processes and fronts them. The
    /// launch prefix comes from [`worker_command`]; `args` carries the
    /// corpus source and any shared engine flags (`--cache-dir`,
    /// `--threads`, `--fault-spec`) so every worker serves the same
    /// corpus the coordinator submits against. Blocks until every worker
    /// has announced readiness; the children are killed when the
    /// coordinator drops.
    pub fn spawn(
        workers: usize,
        command: &[String],
        args: &[String],
        config: DistConfig,
    ) -> Result<Self, EngineError> {
        let pool = WorkerPool::spawn(workers, command, args)?;
        Ok(Self {
            addrs: pool.addrs().to_vec(),
            _pool: Some(pool),
            config,
        })
    }

    /// Fronts workers that are already listening — `veritasd` daemons on
    /// other machines, or processes some other supervisor owns. The
    /// caller is responsible for every `addr` serving the same corpus
    /// the coordinator will submit against.
    pub fn connect(addrs: Vec<SocketAddr>, config: DistConfig) -> Result<Self, EngineError> {
        if addrs.is_empty() {
            return Err(EngineError::Config(
                "a coordinator needs at least one worker address".to_string(),
            ));
        }
        Ok(Self {
            addrs,
            _pool: None,
            config,
        })
    }

    /// The number of workers this coordinator dispatches to.
    pub fn workers(&self) -> usize {
        self.addrs.len()
    }

    /// Submits a compiled plan for distributed execution, mirroring
    /// [`crate::Engine::submit_shared`]: returns immediately with a
    /// streaming [`RunHandle`] while dispatch threads drive one shard
    /// each. The corpus here is the *coordinator's* copy — used for
    /// partitioning, record re-keying, and synthesizing a dead shard's
    /// error records; the workers execute against their own copies.
    pub fn submit(
        &self,
        corpus: Arc<dyn Corpus>,
        plan: Arc<QueryPlan>,
    ) -> Result<RunHandle, EngineError> {
        check_plan_fits(corpus.as_ref(), &plan)?;
        let started = Instant::now();
        let requested = if self.config.shards == 0 {
            self.addrs.len()
        } else {
            self.config.shards
        };
        let units_of_shard = units_by_shard(corpus.as_ref(), &plan, requested);
        let shards = units_of_shard.len();
        let key_of = Arc::new(key_map(&plan, corpus.as_ref()));
        let jobs: Vec<ShardJob> = units_of_shard
            .into_iter()
            .enumerate()
            .map(|(shard, units)| ShardJob {
                shard,
                shards,
                units,
                addrs: self.addrs.clone(),
                request: serde_json::to_string(&WorkerRequest {
                    query: plan.set(),
                    shard: WireShard {
                        index: shard,
                        of: shards,
                    },
                    columns: plan.column_demand_union().bits(),
                })
                .expect("request serialization cannot fail"),
                key_of: Arc::clone(&key_of),
                retry: self.config.retry,
                io_timeout: self.config.io_timeout,
            })
            .collect();
        let ctx = Arc::new(ExecCtx::new(corpus, plan));
        let (tx, rx) = mpsc::sync_channel(self.addrs.len().saturating_mul(2).clamp(4, 1024));
        let threads = jobs
            .into_iter()
            .map(|job| {
                let (ctx, tx) = (Arc::clone(&ctx), tx.clone());
                std::thread::Builder::new()
                    .name(format!("veritas-dist-{}", job.shard))
                    .spawn(move || dispatch_shard(job, &ctx, &tx))
                    .expect("spawning a dispatch thread cannot fail")
            })
            .collect();
        Ok(RunHandle::new(
            ctx,
            rx,
            threads,
            self.addrs.len(),
            shards,
            true,
            started,
        ))
    }

    /// Compiles `set` against `corpus`, submits it, and blocks for the
    /// batch report — the distributed mirror of [`crate::Engine::run`].
    pub fn run(
        &self,
        corpus: Arc<dyn Corpus>,
        set: &QuerySet,
    ) -> Result<EngineReport, EngineError> {
        let plan = Arc::new(QueryPlan::compile(set, corpus.as_ref())?);
        Ok(self.submit(corpus, plan)?.wait())
    }
}

/// Builds a plan's wire-identity → global-unit-index map, the inverse
/// the merge uses to re-key worker records.
fn key_map(plan: &QueryPlan, corpus: &dyn Corpus) -> HashMap<UnitKey, usize> {
    plan.units()
        .iter()
        .enumerate()
        .map(|(ui, unit)| {
            let query = &plan.set().queries[unit.query];
            let planned = &plan.configs()[unit.config];
            (
                (
                    query.id.clone(),
                    corpus.session_id(unit.session).to_string(),
                    planned.label.clone(),
                ),
                ui,
            )
        })
        .collect()
}

/// Drives one shard: dispatch to worker `(shard + attempt) % N`, retry
/// with the policy's deterministic backoff on any failure, then feed the
/// shard's re-keyed records — or, once every attempt has failed, one
/// typed error record per unit — into the run's channel, and the
/// worker's summary into the run's counters. Failed attempts never leak
/// records: a shard's batch is forwarded only when complete.
fn dispatch_shard(job: ShardJob, ctx: &ExecCtx, tx: &mpsc::SyncSender<(usize, QueryRecord)>) {
    let max_attempts = u64::from(job.retry.max_attempts.max(1));
    let mut attempt: u64 = 0;
    let keyed = loop {
        attempt += 1;
        let worker = job.addrs[(job.shard + attempt as usize - 1) % job.addrs.len()];
        match run_shard_attempt(&job, worker) {
            Ok((keyed, summary)) => {
                ctx.absorb(summary);
                break keyed;
            }
            Err(_) if attempt < max_attempts => {
                ctx.shard_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(job.retry.backoff_for(job.shard, attempt as u32));
            }
            Err(error) => {
                let error = format!(
                    "shard {}/{} failed after {attempt} attempts: {error}",
                    job.shard, job.shards
                );
                break job
                    .units
                    .iter()
                    .map(|&ui| (ui, ctx.synth_error_record(ui, error.clone(), Some(attempt))))
                    .collect();
            }
        }
    };
    for entry in keyed {
        if tx.send(entry).is_err() {
            return; // the handle was dropped — the run was abandoned
        }
    }
}

/// One dispatch attempt: a fresh connection, one request line, then the
/// record stream up to the worker's summary envelope. Anything short of
/// a complete, well-keyed batch — connect failure, reset, timeout, EOF
/// before the summary, a typed error envelope, an unknown or surplus
/// record — is this attempt's failure.
fn run_shard_attempt(
    job: &ShardJob,
    addr: SocketAddr,
) -> Result<(Vec<(usize, QueryRecord)>, RunSummary), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(job.io_timeout);
    let _ = stream.set_write_timeout(job.io_timeout);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone connection to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", job.request).map_err(|e| format!("send to {addr}: {e}"))?;
    writer.flush().map_err(|e| format!("send to {addr}: {e}"))?;
    let mut keyed = Vec::with_capacity(job.units.len());
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("read from {addr}: {e}"))?;
        if read == 0 {
            return Err(format!("worker {addr} hung up before its summary"));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(error) = ErrorEnvelope::parse(trimmed) {
            return Err(format!(
                "worker {addr} refused the shard: {} ({})",
                error.detail, error.kind
            ));
        }
        if let Ok(envelope) = serde_json::from_str::<SummaryEnvelope>(trimmed) {
            if keyed.len() != job.units.len() {
                return Err(format!(
                    "worker {addr} answered {} records for a {}-unit shard",
                    keyed.len(),
                    job.units.len()
                ));
            }
            return Ok((keyed, envelope.summary));
        }
        let record: QueryRecord = serde_json::from_str(trimmed)
            .map_err(|e| format!("unparseable line from worker {addr}: {e}"))?;
        let identity = (
            record.query_id.clone(),
            record.session.clone(),
            record.variant.clone(),
        );
        let key = job.key_of.get(&identity).copied().ok_or_else(|| {
            format!(
                "worker {addr} answered a record outside the plan: {} / {}",
                record.query_id, record.session
            )
        })?;
        keyed.push((key, record));
    }
}
