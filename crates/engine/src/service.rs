//! `veritasd`: the engine as a long-lived service.
//!
//! One resident corpus and one warm [`crate::AbductionCache`] (memory +
//! optional disk tier) serve every connection, so the corpus is loaded
//! once and each posterior is inferred at most once across *all* clients
//! — the amortization a per-query CLI invocation can never reach. The
//! corpus may be an eager [`crate::SessionCorpus`] (JSON directory or
//! synthetic) or a lazy [`crate::LazyCorpus`] over a `.vcorp` file
//! (see [`EngineFlags`]); with the latter, a daemon restart opens the
//! file and reads its index — no JSON parsing, no float re-hashing — so
//! restart time is decoupled from corpus size. The service is plain
//! `std::net` TCP speaking newline-delimited JSON; it rides the same
//! `compile → submit → consume` pipeline as the library, so what a
//! client receives over the wire is exactly what [`Engine::run`] would
//! have produced in-process.
//!
//! # Protocol
//!
//! Each request is one JSON object on one line of at most
//! [`MAX_REQUEST_LINE_BYTES`] bytes (a longer line is answered with a
//! typed `"protocol"` error and the connection is closed); a connection
//! may carry any number of requests, answered in order:
//!
//! * `{"query": <QuerySet>}` — compile and run a query set against the
//!   resident corpus. Optional `"stream": true` switches the record feed
//!   from deterministic batch order to completion order (records are
//!   flushed the moment their unit finishes). Optional `"shard":
//!   {"index": I, "of": S}` restricts execution to one corpus shard of
//!   an `S`-way partition — the worker half of distributed execution
//!   (see [`crate::dist`]).
//! * `{"metrics": true}` — a point-in-time [`MetricsSnapshot`].
//! * `{"shutdown": true}` — begin a graceful drain: the request is
//!   acknowledged with `{"draining": true}`, in-flight plans finish,
//!   new query requests are refused with a typed `"draining"` envelope,
//!   and once the last plan's summary is on the wire the process exits
//!   cleanly.
//!
//! When the daemon was started with `--auth-token SECRET`, every request
//! line must additionally carry `{"auth": "SECRET"}`; a missing or
//! mismatched token is answered with a typed `"unauthorized"` envelope
//! and the connection is closed. The comparison is constant-time.
//!
//! Responses are newline-delimited JSON too, serialized straight into
//! the connection's write buffer (no per-line `String`):
//!
//! * Each [`QueryRecord`] is one raw line — byte-identical to the lines
//!   of [`crate::EngineReport::to_jsonl`]: a batch response is written
//!   by [`crate::EngineReport::write_jsonl`] and a streamed record by
//!   [`QueryRecord::write_line`], the writer behind both.
//! * The terminal line of a query is `{"summary": <RunSummary>,
//!   "req_id": N}` — `req_id` is a per-daemon monotonic plan id, echoed
//!   in the structured stderr log so wire responses and log lines can
//!   be joined.
//! * A metrics request answers with `{"metrics": <MetricsSnapshot>}`.
//! * Any failure is `{"error": {"kind": ..., "detail": ...}}` (see
//!   [`crate::ErrorEnvelope`]); the connection stays open — line framing
//!   survives a bad request.
//!
//! Every served (or refused) plan also emits one structured JSONL line
//! to stderr, in one `write`: `{"ts_ms", "req_id", "peer", "records",
//! "elapsed_us", "status"}`, where `status` is one of:
//!
//! * `"ok"` — the plan ran and its summary is on the wire;
//! * `"shed"` — refused by admission control;
//! * `"drained"` — refused because the daemon is draining;
//! * `"rejected"` — refused because the query set does not compile
//!   against the corpus, a worker's column demand disagrees with its
//!   coordinator's, or the submit failed;
//! * `"unauthorized"` — a request without a valid auth token (logged
//!   with `req_id: null`, since no plan id is assigned).
//!
//! # Admission control & connection hygiene
//!
//! Concurrent plans are bounded ([`crate::EngineBuilder::admission`], default
//! [`DEFAULT_ADMISSION_BOUND`]): a request past the bound is shed
//! immediately with an `"overloaded"` error (HTTP 429 in spirit) instead
//! of queueing unboundedly. Within an admitted plan, the engine's
//! bounded record channel applies backpressure end to end: a slow client
//! stalls only its own workers, never another connection's.
//!
//! Two more knobs bound what misbehaving clients can pin:
//!
//! * `--max-connections N` caps concurrently open connections; an accept
//!   past the cap is answered with the same typed `"overloaded"`
//!   envelope (distinguishable by its detail text) and closed.
//! * `--io-timeout SECS` (default [`DEFAULT_IO_TIMEOUT_S`]) arms
//!   per-connection read *and* write deadlines, so a client that stalls
//!   mid-line — or stops draining its record feed — frees its thread
//!   instead of holding it forever. `0` disables the deadlines.
//!
//! # Distributed front end
//!
//! With `--workers N` the daemon spawns N local worker processes (each a
//! full `veritasd` over the same corpus source, bound to an ephemeral
//! port) and serves every full query through a
//! [`crate::dist::Coordinator`]: the plan is partitioned into corpus
//! shards, farmed to the workers over this very JSONL protocol with
//! per-shard `shard` requests, and the record streams are merged back
//! deterministically. Clients observe no protocol difference. A shared
//! `--cache-dir` makes the workers' disk tier common, so a posterior any
//! worker infers is a disk hit for all of them. A failed shard is
//! re-dispatched under the default [`crate::RetryPolicy`] (3 attempts);
//! worker connections carry no deadline, so a hung worker stalls its
//! shard.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::corpus::Corpus;
use crate::dist::Coordinator;
use crate::error::EngineError;
use crate::fault::{FaultPlan, FaultSite};
use crate::flags::{self, EngineFlags};
use crate::plan::{percentile_u64, QueryPlan};
use crate::query::QuerySet;
use crate::runner::{
    Engine, QueryLatency, QueryRecord, RetryPolicy, RunHandle, RunSummary, Scope, AGGREGATE_SESSION,
};
use crate::store::ColumnSet;

/// Concurrent plans admitted by default; past it requests are shed with
/// a typed `"overloaded"` response.
pub const DEFAULT_ADMISSION_BOUND: usize = 4;

/// Default per-connection read/write deadline in seconds
/// (`--io-timeout`); `0` disables the deadlines.
pub const DEFAULT_IO_TIMEOUT_S: u64 = 30;

/// Longest request line, newline included, a connection may send: 1 MiB.
/// A longer line is answered with a typed `"protocol"` error and the
/// connection is closed, so no client can make the daemon buffer an
/// unbounded line (before auth, too). Real requests are far smaller: the
/// largest the test suites and the benchmark send is 1,299 bytes (a
/// six-query next-chunk request).
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Per-query unit latencies retained for the metrics percentiles — a
/// bounded sliding window per query id.
const LATENCY_WINDOW: usize = 4096;

/// Query ids whose latency windows the metrics keep. Clients choose the
/// ids, so without a bound a client that names every query anew would
/// grow the daemon forever, and every snapshot would copy and sort every
/// window. Past the bound the least recently seen id is dropped: the
/// windows hold at most 64 × [`LATENCY_WINDOW`] samples (2 MiB), so a
/// long-lived daemon's metrics memory stays flat.
const MAX_LATENCY_IDS: usize = 64;

/// `veritasd --help` (and `veritas serve --help` / `veritas worker
/// --help`, which run the same daemon).
const USAGE: &str = "veritasd - serve Veritas causal queries from a resident engine

USAGE:
    veritasd [--addr HOST:PORT] [--corpus DIR|FILE.vcorp | --synthetic N]
             [--seed S] [--threads N] [--cache-dir DIR]
             [--admission N] [--io-timeout SECS] [--max-connections N]
             [--auth-token SECRET] [--fault-spec SPEC]
             [--workers N [--shards N]] [--worker-cmd CMD]

OPTIONS:
    --addr HOST:PORT     Listen address (default 127.0.0.1:4617; port 0 = ephemeral)
    --corpus PATH        Serve a directory of per-session JSON logs, or a
                         columnar binary `.vcorp` corpus (lazy-loaded; see
                         `veritas ingest`)
    --synthetic N        Serve an N-session synthetic corpus (default: 4 sessions)
    --seed S             Synthetic corpus seed (default 7)
    --threads N          Threads per plan, counting the connection thread,
                         which runs units too: a plan spawns N - 1 helpers
                         (default: available cores minus one, at least 1)
    --cache-dir DIR      Persistent abduction store (warm restarts)
    --admission N        Max concurrent plans before shedding (default 4)
    --io-timeout SECS    Per-connection read/write deadline (default 30; 0 = none)
    --max-connections N  Max open connections before shedding accepts with a
                         typed \"overloaded\" error (default 0 = unbounded)
    --auth-token SECRET  Require every request line to carry {\"auth\": SECRET};
                         a mismatch is answered with a typed \"unauthorized\"
                         envelope and the connection is closed
    --fault-spec SPEC    Seeded deterministic fault injection for chaos tests,
                         e.g. seed=42,compute=0.1,socket=0.05 (sites: disk_read,
                         disk_write, decode, compute, panic, socket)
    --workers N          Distributed front end: spawn N local worker daemons
                         and farm each plan's corpus shards to them (deterministic
                         merge; a failed shard is re-dispatched, up to 3
                         attempts). The workers inherit this daemon's corpus
                         source, cache dir, thread count, and fault spec
    --shards N           With --workers: corpus shards per plan (default: one
                         per worker)
    --worker-cmd CMD     Launch workers with CMD (whitespace-split) instead of
                         re-invoking this executable

PROTOCOL (one JSON object per line, responses are JSON lines too):
    {\"query\": <QuerySet>, \"stream\": bool?}  -> QueryRecord lines, then
                                                {\"summary\": ..., \"req_id\": N}
    {\"metrics\": true}                        -> {\"metrics\": ...}
    {\"shutdown\": true}                       -> {\"draining\": true}; in-flight
                                                plans finish, new queries get a
                                                typed \"draining\" error, then the
                                                process exits cleanly
    any failure                              -> {\"error\": {\"kind\": ..., \"detail\": ...}}
    with --auth-token, every request object must also carry {\"auth\": SECRET}";

/// Everything needed to bind a [`Service`]: the listen address, the
/// shared engine flags (corpus source, threads, cache directory, fault
/// spec, worker pool), and the daemon's own knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address, e.g. `127.0.0.1:4617`. Port `0` binds an
    /// ephemeral port — read it back via [`Service::local_addr`].
    pub addr: String,
    /// The resident corpus and the engine serving it. A `fault_spec`
    /// is attached to the engine, the corpus, and the service's own
    /// socket I/O; `workers > 0` serves every full query through a
    /// worker pool (see the module docs).
    pub engine: EngineFlags,
    /// Concurrent-plan admission bound.
    pub admission: usize,
    /// Per-connection read/write deadline in seconds (`0` disables).
    pub io_timeout_s: u64,
    /// Concurrently open connections admitted (`0` = unbounded); excess
    /// accepts are shed with a typed `"overloaded"` envelope.
    pub max_connections: usize,
    /// Shared secret; when set, every request line must carry a matching
    /// `auth` field or it is refused with a typed `"unauthorized"`
    /// envelope and the connection is closed.
    pub auth_token: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4617".to_string(),
            engine: EngineFlags::default(),
            admission: DEFAULT_ADMISSION_BOUND,
            io_timeout_s: DEFAULT_IO_TIMEOUT_S,
            max_connections: 0,
            auth_token: None,
        }
    }
}

impl ServiceConfig {
    /// Parses the daemon's command-line flags (shared by the `veritasd`
    /// binary and the `veritas serve` / `veritas worker` subcommands):
    /// the [`EngineFlags`] plus `--addr`, `--admission`, `--io-timeout`,
    /// `--max-connections` and `--auth-token`.
    pub fn parse(args: &[String]) -> Result<Self, EngineError> {
        let mut config = Self::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if config.engine.accept(arg, &mut rest)? {
                continue;
            }
            match arg.as_str() {
                "--addr" => config.addr = flags::value(arg, &mut rest)?,
                "--admission" => config.admission = flags::number(arg, &mut rest)?,
                "--io-timeout" => config.io_timeout_s = flags::number(arg, &mut rest)?,
                "--max-connections" => config.max_connections = flags::number(arg, &mut rest)?,
                "--auth-token" => config.auth_token = Some(flags::value(arg, &mut rest)?),
                other => {
                    return Err(EngineError::Config(format!(
                        "unknown flag `{other}` (see veritasd --help)"
                    )))
                }
            }
        }
        config.engine.validate()?;
        Ok(config)
    }
}

/// One parsed request line. Exactly one of `query` / `metrics` /
/// `shutdown` must be present. Every member may be absent or `null` (the
/// flags then read `false`); unknown members are refused, so client typos
/// fail loudly.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct Request {
    query: Option<QuerySet>,
    #[serde(default)]
    stream: bool,
    #[serde(default)]
    metrics: bool,
    #[serde(default)]
    shutdown: bool,
    auth: Option<String>,
    shard: Option<ShardSel>,
    /// Coordinator-advertised column-demand union bitmask
    /// ([`QueryPlan::column_demand_union`]); when present, the worker
    /// cross-checks it against the demand it derives from its own
    /// compiled plan and refuses on mismatch, so coordinator and worker
    /// can never prune different columns.
    columns: Option<u32>,
}

/// The `shard` member of a query request: restrict execution to shard
/// `index` of an `of`-way corpus partition. Both members are required.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct ShardSel {
    index: usize,
    of: usize,
}

/// The terminal response line of a query: `{"summary": <RunSummary>,
/// "req_id": N}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryEnvelope {
    /// The run's summary.
    pub summary: RunSummary,
    /// The daemon's monotonic plan id for this run — the join key
    /// against the structured stderr log.
    pub req_id: Option<u64>,
}

/// The response to a metrics request: `{"metrics": <MetricsSnapshot>}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsEnvelope {
    /// The snapshot payload.
    pub metrics: MetricsSnapshot,
}

/// A point-in-time view of a running service — the `/metrics` answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since the service was bound.
    pub uptime_s: f64,
    /// Sessions in the resident corpus.
    pub sessions: usize,
    /// The admission bound plans are held to.
    pub admission_bound: Option<usize>,
    /// Connections accepted so far.
    pub connections: u64,
    /// Connections currently open.
    pub connections_active: usize,
    /// Accepts shed by the `--max-connections` bound.
    pub connections_shed: u64,
    /// Plans that ran to completion (summary written).
    pub plans_served: u64,
    /// Plans currently holding an admission permit.
    pub plans_active: usize,
    /// Requests shed by admission control.
    pub plans_shed: u64,
    /// Query records written to clients so far.
    pub records_streamed: u64,
    /// Unit retries performed across every served plan (the sum of
    /// [`RunSummary::retries`]); zero unless the engine has a
    /// [`crate::RetryPolicy`].
    pub retries: u64,
    /// Sessions quarantined across every served plan (the summed lengths
    /// of [`RunSummary::quarantined`]).
    pub quarantined: u64,
    /// Worker-shard re-dispatches across every served plan (the sum of
    /// [`RunSummary::shard_retries`]); zero unless the daemon fronts a
    /// worker pool (`--workers`).
    pub shard_retries: u64,
    /// Corrupt persistent-store entries the cache healed (detected,
    /// quarantined on disk, and re-inferred) since the service started —
    /// mirrored from [`CacheStats::healed`] so the supervision counters
    /// read as one group.
    pub healed: u64,
    /// The shared abduction cache's counters (memory hits, disk hits,
    /// misses, resident entries) since the service started.
    pub cache: CacheStats,
    /// The resident corpus's decode/residency counters
    /// ([`crate::Corpus::residency`]) — present only for lazily backed
    /// corpora (`.vcorp`), where column projection and, over more than
    /// [`crate::DEFAULT_MAX_RESIDENT`] sessions, a decode per unit make
    /// decode volume worth watching.
    pub residency: Option<crate::ResidencyStats>,
    /// Per-query-id p50/p95/max unit latency over a sliding window of
    /// the last 4096 units, sorted by id, for the 64 most recently seen
    /// ids.
    pub per_query: Vec<QueryLatency>,
}

/// The shared state every connection thread sees.
struct ServiceState {
    engine: Engine,
    corpus: Arc<dyn Corpus>,
    started: Instant,
    shutdown: AtomicBool,
    /// Flipped by a `shutdown` request: new plans are refused with a
    /// typed `"draining"` envelope while in-flight plans finish.
    draining: AtomicBool,
    /// Whether the drain watcher thread has been spawned (first
    /// `shutdown` request wins; later ones are acknowledged only).
    drain_started: AtomicBool,
    /// Monotonic plan id, echoed in summary envelopes and stderr logs.
    req_ids: AtomicU64,
    /// The bound address, for the drain watcher's accept-loop wake-up.
    self_addr: SocketAddr,
    /// Shared secret required on every request when set.
    auth_token: Option<String>,
    /// Chaos hook: injects [`FaultSite::Socket`] failures when set.
    fault: Option<Arc<FaultPlan>>,
    /// Per-connection read/write deadline (`None`: no deadline).
    io_timeout: Option<Duration>,
    /// Concurrently open connections admitted (`0` = unbounded).
    max_connections: usize,
    connections: AtomicU64,
    connections_active: AtomicUsize,
    connections_shed: AtomicU64,
    plans_served: AtomicU64,
    plans_shed: AtomicU64,
    records_streamed: AtomicU64,
    retries_total: AtomicU64,
    quarantined_total: AtomicU64,
    shard_retries_total: AtomicU64,
    latencies: Mutex<LatencyWindows>,
    /// The worker-pool coordinator when the daemon fronts `--workers N`
    /// executor processes; `None` serves every plan in-process.
    dist: Option<Coordinator>,
}

/// The metrics' latency windows: one per query id, for at most
/// [`MAX_LATENCY_IDS`] ids.
#[derive(Default)]
struct LatencyWindows {
    /// Each id's window and the tick at which it was last observed.
    by_id: HashMap<String, (u64, VecDeque<u64>)>,
    /// Records observed so far: the clock of "least recently seen".
    tick: u64,
}

/// One structured stderr log line — the daemon's per-plan operational
/// record (see the module docs).
#[derive(Serialize)]
struct PlanLogLine {
    ts_ms: u64,
    req_id: Option<u64>,
    peer: String,
    records: u64,
    elapsed_us: u64,
    status: String,
}

/// Compares two secrets without short-circuiting on the first mismatch,
/// so the comparison time leaks neither the match prefix length nor
/// (beyond the max of the two lengths) the token length.
fn constant_time_eq(a: &str, b: &str) -> bool {
    let a = a.as_bytes();
    let b = b.as_bytes();
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

impl ServiceState {
    /// Folds one outgoing record into the metrics window. Aggregation
    /// fold records carry no unit work (`session == "*"`), so they count
    /// as streamed output but not as latency samples.
    fn observe(&self, record: &QueryRecord) {
        self.records_streamed.fetch_add(1, Ordering::Relaxed);
        if record.session == AGGREGATE_SESSION {
            return;
        }
        let mut latencies = self.latencies.lock();
        let LatencyWindows { by_id, tick } = &mut *latencies;
        *tick += 1;
        // Looked up by `&str`: the id is copied only the first time it
        // is seen, not once per record.
        let window = match by_id.get_mut(record.query_id.as_str()) {
            Some((seen, window)) => {
                *seen = *tick;
                window
            }
            None => {
                if by_id.len() == MAX_LATENCY_IDS {
                    let oldest = by_id
                        .iter()
                        .min_by_key(|(_, (seen, _))| *seen)
                        .map(|(id, _)| id.clone());
                    if let Some(oldest) = oldest {
                        by_id.remove(&oldest);
                    }
                }
                &mut by_id
                    .entry(record.query_id.clone())
                    .or_insert((*tick, VecDeque::new()))
                    .1
            }
        };
        if window.len() == LATENCY_WINDOW {
            window.pop_front();
        }
        window.push_back(record.elapsed_us);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let per_query = {
            let latencies = self.latencies.lock();
            let mut per_query: Vec<QueryLatency> = latencies
                .by_id
                .iter()
                .map(|(id, (_, elapsed))| {
                    let mut sorted: Vec<u64> = elapsed.iter().copied().collect();
                    sorted.sort_unstable();
                    QueryLatency {
                        id: id.clone(),
                        units: sorted.len(),
                        p50_us: percentile_u64(&sorted, 50.0),
                        p95_us: percentile_u64(&sorted, 95.0),
                        max_us: sorted.last().copied().unwrap_or(0),
                    }
                })
                .collect();
            per_query.sort_by(|a, b| a.id.cmp(&b.id));
            per_query
        };
        let cache = self.engine.cache().stats();
        MetricsSnapshot {
            uptime_s: self.started.elapsed().as_secs_f64(),
            sessions: self.corpus.len(),
            admission_bound: self.engine.admission_bound(),
            connections: self.connections.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            plans_served: self.plans_served.load(Ordering::Relaxed),
            plans_active: self.engine.active_plans(),
            plans_shed: self.plans_shed.load(Ordering::Relaxed),
            records_streamed: self.records_streamed.load(Ordering::Relaxed),
            retries: self.retries_total.load(Ordering::Relaxed),
            quarantined: self.quarantined_total.load(Ordering::Relaxed),
            shard_retries: self.shard_retries_total.load(Ordering::Relaxed),
            healed: cache.healed,
            cache,
            residency: self.corpus.residency(),
            per_query,
        }
    }

    /// Answers one request line. Write failures mean the client is gone;
    /// everything else is answered on the wire and keeps the connection —
    /// except an auth failure, which answers and then closes.
    fn respond(
        self: &Arc<Self>,
        line: &str,
        peer: &str,
        writer: &mut impl Write,
    ) -> io::Result<()> {
        if let Some(fault) = &self.fault {
            if fault.should_inject(FaultSite::Socket) {
                // Simulate the peer (or the network) dying mid-exchange:
                // the connection thread unwinds exactly as it would on a
                // real reset, and the client must reconnect.
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected socket fault",
                ));
            }
        }
        let request = match serde_json::from_str::<Request>(line) {
            Ok(request) => request,
            Err(e) => return self.refuse(writer, &EngineError::Protocol(e.to_string())),
        };
        if let Some(expected) = &self.auth_token {
            let presented = request.auth.as_deref().unwrap_or("");
            if !constant_time_eq(presented, expected) {
                self.log_plan(None, peer, 0, 0, "unauthorized");
                self.refuse(writer, &EngineError::Unauthorized)?;
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    "missing or invalid auth token",
                ));
            }
        }
        match (request.query, request.metrics, request.shutdown) {
            (None, true, false) => {
                let envelope = MetricsEnvelope {
                    metrics: self.snapshot(),
                };
                serde_json::to_writer(&mut *writer, &envelope)?;
                writer.write_all(b"\n")?;
                writer.flush()
            }
            (None, false, true) => self.begin_drain(writer),
            (Some(set), false, false) => self.serve_query(
                set,
                request.stream,
                request.shard,
                request.columns,
                peer,
                writer,
            ),
            _ => self.refuse(
                writer,
                &EngineError::Protocol(
                    "a request must carry exactly one of `query`, `metrics`, or `shutdown`"
                        .to_string(),
                ),
            ),
        }
    }

    fn refuse(&self, writer: &mut impl Write, error: &EngineError) -> io::Result<()> {
        writeln!(writer, "{}", error.wire_json())?;
        writer.flush()
    }

    /// One structured JSONL line per plan (or refusal) on stderr, so an
    /// operator can join wire responses (`req_id` in the summary
    /// envelope) against the daemon's log. The line, newline included,
    /// is serialized into one buffer and goes out in one `write`; a
    /// failed write to stderr drops the line.
    fn log_plan(
        &self,
        req_id: Option<u64>,
        peer: &str,
        records: u64,
        elapsed_us: u64,
        status: &str,
    ) {
        let line = PlanLogLine {
            ts_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|since| since.as_millis() as u64)
                .unwrap_or(0),
            req_id,
            peer: peer.to_string(),
            records,
            elapsed_us,
            status: status.to_string(),
        };
        let mut bytes = Vec::with_capacity(128);
        if serde_json::to_writer(&mut bytes, &line).is_ok() {
            bytes.push(b'\n');
            let _ = io::stderr().write_all(&bytes);
        }
    }

    /// Handles a `shutdown` request: flip the drain gate, acknowledge,
    /// and (once) spawn the watcher that waits for the last in-flight
    /// plan before stopping the accept loop.
    fn begin_drain(self: &Arc<Self>, writer: &mut impl Write) -> io::Result<()> {
        self.draining.store(true, Ordering::Release);
        if !self.drain_started.swap(true, Ordering::AcqRel) {
            let state = Arc::clone(self);
            std::thread::spawn(move || {
                while state.engine.active_plans() > 0 {
                    std::thread::sleep(Duration::from_millis(10));
                }
                state.shutdown.store(true, Ordering::Release);
                // Wake the blocking accept so the loop observes the flag.
                let _ = TcpStream::connect(state.self_addr);
            });
        }
        let ack = r#"{"draining":true}"#;
        writeln!(writer, "{ack}")?;
        writer.flush()
    }

    /// Runs one admitted query set: stream the records, then the summary
    /// envelope. The admission permit is held until the summary is on the
    /// wire, so `plans_active` covers the full client-visible lifetime.
    fn serve_query(
        &self,
        set: QuerySet,
        streaming: bool,
        shard: Option<ShardSel>,
        columns: Option<u32>,
        peer: &str,
        writer: &mut impl Write,
    ) -> io::Result<()> {
        let req_id = self.req_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let started = Instant::now();
        if self.draining.load(Ordering::Acquire) {
            self.log_plan(Some(req_id), peer, 0, 0, "drained");
            return self.refuse(writer, &EngineError::Draining);
        }
        let permit = match self.engine.try_admit() {
            Ok(permit) => permit,
            Err(error) => {
                self.plans_shed.fetch_add(1, Ordering::Relaxed);
                self.log_plan(Some(req_id), peer, 0, 0, "shed");
                return self.refuse(writer, &error);
            }
        };
        // Re-check under the permit: a drain that began between the first
        // check and admission must still see this plan refused, or the
        // watcher could observe zero active plans while we start one.
        if self.draining.load(Ordering::Acquire) {
            drop(permit);
            self.log_plan(Some(req_id), peer, 0, 0, "drained");
            return self.refuse(writer, &EngineError::Draining);
        }
        let mut handle = match self.start_plan(&set, shard, columns) {
            Ok(handle) => handle,
            Err(error) => {
                self.log_plan(Some(req_id), peer, 0, 0, "rejected");
                return self.refuse(writer, &error);
            }
        };
        let mut records: u64 = 0;
        let summary = if streaming {
            // Completion order, one flush per record: the client sees
            // each unit the moment it finishes.
            for record in &mut handle {
                self.observe(&record);
                records += 1;
                record.write_line(writer)?;
                writer.flush()?;
            }
            handle.into_summary()
        } else {
            // Deterministic batch order — the wire lines are exactly
            // `EngineReport::to_jsonl`'s lines, written by the same
            // writer straight into the connection's buffer.
            let report = handle.wait();
            for record in &report.records {
                self.observe(record);
            }
            records = report.records.len() as u64;
            report.write_jsonl(writer)?;
            report.summary
        };
        self.retries_total
            .fetch_add(summary.retries, Ordering::Relaxed);
        self.quarantined_total
            .fetch_add(summary.quarantined.len() as u64, Ordering::Relaxed);
        self.shard_retries_total
            .fetch_add(summary.shard_retries, Ordering::Relaxed);
        let envelope = SummaryEnvelope {
            summary,
            req_id: Some(req_id),
        };
        serde_json::to_writer(&mut *writer, &envelope)?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        self.plans_served.fetch_add(1, Ordering::Relaxed);
        self.log_plan(
            Some(req_id),
            peer,
            records,
            started.elapsed().as_micros() as u64,
            "ok",
        );
        drop(permit);
        Ok(())
    }

    /// Compiles `set` and submits it. A `shard` selector runs the
    /// shard-restricted in-process path (this daemon is someone's
    /// worker); a full request on a daemon fronting a worker pool is
    /// served through the [`Coordinator`] instead of the local engine.
    fn start_plan(
        &self,
        set: &QuerySet,
        shard: Option<ShardSel>,
        columns: Option<u32>,
    ) -> Result<RunHandle, EngineError> {
        let plan = Arc::new(QueryPlan::compile(set, self.corpus.as_ref())?);
        // A coordinator advertises the column demand it derived; this
        // worker just derived its own from the identical query set. Any
        // difference means the two ends would prune different columns —
        // refuse loudly rather than decode divergently.
        if let Some(bits) = columns {
            let derived = plan.column_demand_union();
            if ColumnSet::from_bits(bits) != Some(derived) {
                return Err(EngineError::Protocol(format!(
                    "column-demand mismatch: request advertised bitmask {bits:#x}, this \
                     worker derives {:#x} from the same query set (coordinator/worker \
                     version skew?)",
                    derived.bits()
                )));
            }
        }
        let corpus = Arc::clone(&self.corpus);
        match (shard, &self.dist) {
            (Some(ShardSel { index, of }), _) => {
                self.engine
                    .submit_scoped(corpus, plan, Scope::Shard { index, of })
            }
            (None, Some(coordinator)) => coordinator.submit(corpus, plan),
            (None, None) => self.engine.submit_shared(corpus, plan),
        }
    }
}

/// A bound (but not yet serving) `veritasd` instance: the resident
/// corpus is loaded, the engine (and any persistent cache tier) is
/// built, and the listener holds its port. Call [`Service::run`] to
/// serve on the current thread or [`Service::spawn`] to serve on a
/// background thread with a shutdown handle.
pub struct Service {
    listener: TcpListener,
    state: Arc<ServiceState>,
}

impl Service {
    /// Loads the corpus, builds the engine, and binds the listener. A
    /// `fault_spec`, when present, is parsed here (a malformed spec is a
    /// [`EngineError::Config`]) and attached to every injection point the
    /// daemon owns: the engine (compute + disk tier), the corpus (block
    /// decodes), and the connection handlers (socket I/O).
    pub fn bind(config: ServiceConfig) -> Result<Self, EngineError> {
        let fault = config.engine.fault_plan()?;
        let corpus = config.engine.load_corpus(fault.as_ref())?;
        if corpus.is_empty() {
            return Err(EngineError::EmptyCorpus);
        }
        // Workers re-open the same corpus source and share this daemon's
        // disk cache tier and fault spec; the coordinator owns their
        // lifetimes.
        let dist = config.engine.coordinator(RetryPolicy::default())?;
        let engine = config
            .engine
            .engine_builder(fault.as_ref())
            .admission(config.admission)
            .build()?;
        let listener = TcpListener::bind(&config.addr)?;
        let self_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            state: Arc::new(ServiceState {
                engine,
                corpus,
                started: Instant::now(),
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                drain_started: AtomicBool::new(false),
                req_ids: AtomicU64::new(0),
                self_addr,
                auth_token: config.auth_token,
                fault,
                io_timeout: (config.io_timeout_s > 0)
                    .then(|| Duration::from_secs(config.io_timeout_s)),
                max_connections: config.max_connections,
                connections: AtomicU64::new(0),
                connections_active: AtomicUsize::new(0),
                connections_shed: AtomicU64::new(0),
                plans_served: AtomicU64::new(0),
                plans_shed: AtomicU64::new(0),
                records_streamed: AtomicU64::new(0),
                retries_total: AtomicU64::new(0),
                quarantined_total: AtomicU64::new(0),
                shard_retries_total: AtomicU64::new(0),
                latencies: Mutex::new(LatencyWindows::default()),
                dist,
            }),
        })
    }

    /// The bound address — the way to learn the real port after binding
    /// `:0`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A point-in-time metrics snapshot (the same payload a `metrics`
    /// request receives on the wire).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.state.snapshot()
    }

    /// Serves connections on the current thread until shut down (via a
    /// [`ServiceHandle`]) or the listener dies. Each connection gets its
    /// own thread; requests within a connection are answered in order.
    /// Accepts past the `--max-connections` bound are answered with one
    /// typed `"overloaded"` envelope and closed.
    pub fn run(self) -> Result<(), EngineError> {
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let active = self.state.connections_active.load(Ordering::Acquire);
            if self.state.max_connections > 0 && active >= self.state.max_connections {
                self.state.connections_shed.fetch_add(1, Ordering::Relaxed);
                let error = EngineError::ConnectionsExhausted {
                    active,
                    bound: self.state.max_connections,
                };
                let _ = writeln!(stream, "{}", error.wire_json());
                continue;
            }
            self.state.connections.fetch_add(1, Ordering::Relaxed);
            self.state.connections_active.fetch_add(1, Ordering::AcqRel);
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || {
                // The guard decrements even if the handler panics, so a
                // poisoned connection never wedges the accept gate.
                struct ActiveGuard(Arc<ServiceState>);
                impl Drop for ActiveGuard {
                    fn drop(&mut self) {
                        self.0.connections_active.fetch_sub(1, Ordering::AcqRel);
                    }
                }
                let _guard = ActiveGuard(Arc::clone(&state));
                handle_connection(&state, stream);
            });
        }
        // Graceful drain: the accept loop is closed, but an admitted plan
        // may still be streaming on its connection thread. Return (and,
        // in the daemon, exit) only once every permit is back, so no
        // in-flight record or summary line is lost.
        while self.state.engine.active_plans() > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    /// [`Service::run`] on a background thread, returning the handle
    /// that can stop it.
    pub fn spawn(self) -> io::Result<ServiceHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServiceHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

fn handle_connection(state: &Arc<ServiceState>, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|addr| addr.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    // Flushed record lines should hit the wire immediately — a streaming
    // client is latency-sensitive and the lines are small.
    let _ = stream.set_nodelay(true);
    // Deadlines on both halves: a client that stalls mid-request or
    // stops draining its record feed times out and frees this thread.
    let _ = stream.set_read_timeout(state.io_timeout);
    let _ = stream.set_write_timeout(state.io_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Bytes, not a `String`: the cap may cut a multi-byte character.
        let mut cap = (&mut reader).take(MAX_REQUEST_LINE_BYTES as u64);
        match cap.read_until(b'\n', &mut line) {
            // EOF or a dead socket: the client is done.
            Ok(0) | Err(_) => return,
            Ok(read) if read == MAX_REQUEST_LINE_BYTES && line.last() != Some(&b'\n') => {
                let detail = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
                let _ = state.refuse(&mut writer, &EngineError::Protocol(detail));
                return;
            }
            Ok(_) => {}
        }
        // A line that is not UTF-8 ends the connection, like a dead socket.
        let Ok(text) = std::str::from_utf8(&line) else {
            return;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        if state.respond(trimmed, &peer, &mut writer).is_err() {
            return;
        }
    }
}

/// A running background service: the bound address plus the means to
/// stop it.
pub struct ServiceHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    thread: Option<std::thread::JoinHandle<Result<(), EngineError>>>,
}

impl ServiceHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot, read directly off the shared
    /// state (no connection needed).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.state.snapshot()
    }

    /// Whether the accept loop has exited — true after a graceful drain
    /// (`{"shutdown": true}`) has run to completion.
    pub fn is_finished(&self) -> bool {
        match &self.thread {
            Some(thread) => thread.is_finished(),
            None => true,
        }
    }

    /// Stops accepting connections and joins the accept loop. In-flight
    /// connections finish their current request on their own threads.
    pub fn stop(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The shared `main` of the `veritasd` binary and `veritas serve` /
/// `veritas worker`: print the usage for `--help`, or parse flags, bind,
/// announce the address on stdout, and serve forever.
///
/// The announcement line (`veritasd: listening on <addr>`) is the
/// machine-readable readiness signal — tests and scripts bind `:0` and
/// parse the real port from it.
pub fn run_cli(args: &[String]) -> Result<(), EngineError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let config = ServiceConfig::parse(args)?;
    let admission = config.admission;
    let service = Service::bind(config)?;
    let addr = service.local_addr()?;
    println!("veritasd: listening on {addr}");
    io::stdout().flush()?;
    eprintln!(
        "veritasd: {} resident sessions, admission bound {admission}",
        service.state.corpus.len()
    );
    service.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;
    use proptest::prelude::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn config_parses_the_daemon_flags() {
        let config = ServiceConfig::parse(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--synthetic",
            "3",
            "--seed",
            "11",
            "--threads",
            "2",
            "--shards",
            "2",
            "--cache-dir",
            "/tmp/vcache",
            "--admission",
            "8",
            "--io-timeout",
            "5",
            "--max-connections",
            "64",
            "--auth-token",
            "hunter2",
            "--fault-spec",
            "seed=7,compute=0.1",
            "--workers",
            "3",
            "--worker-cmd",
            "./veritasd",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(
            config.engine,
            EngineFlags {
                corpus: None,
                synthetic: Some(3),
                seed: Some(11),
                threads: Some(2),
                shards: Some(2),
                cache_dir: Some("/tmp/vcache".into()),
                fault_spec: Some("seed=7,compute=0.1".to_string()),
                workers: 3,
                worker_cmd: Some("./veritasd".to_string()),
            }
        );
        assert_eq!(config.admission, 8);
        assert_eq!(config.io_timeout_s, 5);
        assert_eq!(config.max_connections, 64);
        assert_eq!(config.auth_token.as_deref(), Some("hunter2"));
    }

    #[test]
    fn corpus_paths_dispatch_on_the_vcorp_extension() {
        // Two empty directories that differ only in the extension: the
        // `.vcorp` one reaches the columnar reader, which cannot read a
        // directory as a corpus file (an i/o error, or a format error
        // where the filesystem reports a tiny directory size); the other
        // is loaded as a JSON session directory and holds no sessions.
        let root = std::env::temp_dir().join("veritas_service_dispatch_test");
        let _ = std::fs::remove_dir_all(&root);
        let (vcorp, dir) = (root.join("x.vcorp"), root.join("x"));
        std::fs::create_dir_all(&vcorp).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let flags = |path: &std::path::Path| {
            ServiceConfig::parse(&args(&["--corpus", path.to_str().unwrap()]))
                .unwrap()
                .engine
        };
        assert!(matches!(
            flags(&vcorp).load_corpus(None),
            Err(EngineError::Io(_) | EngineError::CorpusFormat(_))
        ));
        assert!(matches!(
            flags(&dir).load_corpus(None),
            Err(EngineError::EmptyCorpus)
        ));
    }

    #[test]
    fn config_rejects_bad_flag_combinations() {
        for bad in [
            &["--corpus", "dir", "--synthetic", "2"][..],
            &["--shards", "2"][..],
            &["--bogus"][..],
            &["--threads"][..],
            &["--admission", "many"][..],
            &["--io-timeout", "soon"][..],
            &["--max-connections"][..],
        ] {
            assert!(matches!(
                ServiceConfig::parse(&args(bad)),
                Err(EngineError::Config(_))
            ));
        }
    }

    #[test]
    fn request_lines_parse_strictly() {
        let query: Request =
            serde_json::from_str(r#"{"query": {"queries": [{"id": "a", "kind": "abduction"}]}}"#)
                .unwrap();
        assert!(query.query.is_some());
        assert!(!query.stream && !query.metrics);
        let metrics: Request = serde_json::from_str(r#"{"metrics": true}"#).unwrap();
        assert!(metrics.metrics && metrics.query.is_none());
        let drain: Request =
            serde_json::from_str(r#"{"shutdown": true, "auth": "hunter2"}"#).unwrap();
        assert!(drain.shutdown && drain.query.is_none() && !drain.metrics);
        assert_eq!(drain.auth.as_deref(), Some("hunter2"));
        let sharded: Request = serde_json::from_str(
            r#"{"query": {"queries": [{"id": "a", "kind": "abduction"}]},
                "shard": {"index": 1, "of": 3}}"#,
        )
        .unwrap();
        let shard = sharded.shard.expect("the shard selector must parse");
        assert_eq!((shard.index, shard.of), (1, 3));
        assert_eq!(sharded.columns, None);
        let with_columns: Request = serde_json::from_str(
            r#"{"query": {"queries": [{"id": "a", "kind": "abduction"}]},
                "shard": {"index": 0, "of": 2}, "columns": 8}"#,
        )
        .unwrap();
        assert_eq!(with_columns.columns, Some(8));
        assert!(serde_json::from_str::<Request>(r#"{"querry": {}}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"[1, 2]"#).is_err());
        // A shard selector is strict too: both members, nothing else.
        assert!(serde_json::from_str::<Request>(
            r#"{"query": {"queries": []}, "shard": {"index": 0}}"#
        )
        .is_err());
        assert!(serde_json::from_str::<Request>(
            r#"{"query": {"queries": []}, "shard": {"index": 0, "of": 2, "x": 1}}"#
        )
        .is_err());
    }

    /// The JSON field policy of every struct a request line or a report
    /// decodes, one row per struct: a minimal object (the required members
    /// only) parses, an optional member reads the same absent as `null`,
    /// a required member absent or `null` is an error that names it, an
    /// unknown member is an error that names it, and a non-object is an
    /// error.
    #[test]
    fn every_wire_struct_follows_one_field_policy() {
        use crate::plan::{AggregateSpec, ConfigSweep};
        use crate::query::{Query, ScenarioSpec};
        use crate::runner::QueryOutput;

        struct Row {
            name: &'static str,
            parse: fn(&str) -> Result<String, String>,
            required: &'static [(&'static str, &'static str)],
            optional: &'static [&'static str],
        }
        fn parse<T: for<'de> Deserialize<'de> + std::fmt::Debug>(
            json: &str,
        ) -> Result<String, String> {
            serde_json::from_str::<T>(json)
                .map(|value| format!("{value:?}"))
                .map_err(|error| error.to_string())
        }
        fn request(json: &str) -> Result<String, String> {
            serde_json::from_str::<Request>(json)
                .map(|r| {
                    let shard = r.shard.map(|s| (s.index, s.of));
                    format!(
                        "{:?} {} {} {} {:?} {shard:?} {:?}",
                        r.query, r.stream, r.metrics, r.shutdown, r.auth, r.columns
                    )
                })
                .map_err(|error| error.to_string())
        }
        fn shard(json: &str) -> Result<String, String> {
            serde_json::from_str::<ShardSel>(json)
                .map(|s| format!("{} {}", s.index, s.of))
                .map_err(|error| error.to_string())
        }
        let object = |members: &[(&str, &str)]| {
            let body: Vec<String> = members
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            format!("{{{}}}", body.join(", "))
        };
        let rows = [
            Row {
                name: "ScenarioSpec",
                parse: parse::<ScenarioSpec>,
                required: &[],
                optional: &["abr", "buffer_capacity_s", "ladder"],
            },
            Row {
                name: "Query",
                parse: parse::<Query>,
                required: &[("id", "\"a\""), ("kind", "\"abduction\"")],
                optional: &[
                    "sessions",
                    "scenario",
                    "chunk_index",
                    "candidate_size_bytes",
                    "samples",
                    "seed",
                    "sweep",
                    "aggregate",
                ],
            },
            Row {
                name: "ConfigSweep",
                parse: parse::<ConfigSweep>,
                required: &[],
                optional: &[
                    "sigma_mbps",
                    "stay_probability",
                    "num_samples",
                    "epsilon_mbps",
                    "max_capacity_mbps",
                ],
            },
            Row {
                name: "AggregateSpec",
                parse: parse::<AggregateSpec>,
                required: &[("metric", "\"mean_ssim\"")],
                optional: &["scenario"],
            },
            Row {
                name: "QuerySet",
                parse: parse::<QuerySet>,
                required: &[("queries", "[]")],
                optional: &["name", "config"],
            },
            Row {
                name: "QueryOutput",
                parse: parse::<QueryOutput>,
                required: &[],
                optional: &[
                    "chunks",
                    "mean_capacity_mbps",
                    "viterbi_mae_vs_truth_mbps",
                    "expected_capacity_mbps",
                    "predicted_download_time_s",
                    "actual_download_time_s",
                    "veritas",
                    "baseline",
                    "oracle",
                    "metric_value",
                    "aggregate",
                ],
            },
            Row {
                name: "QueryRecord",
                parse: parse::<QueryRecord>,
                required: &[
                    ("query_id", "\"q\""),
                    ("kind", "\"abduction\""),
                    ("session", "\"s0\""),
                    ("status", "\"ok\""),
                    ("elapsed_us", "41"),
                ],
                optional: &["variant", "error", "cache", "output", "attempts"],
            },
            Row {
                name: "Request",
                parse: request,
                required: &[],
                optional: &[
                    "query", "stream", "metrics", "shutdown", "auth", "shard", "columns",
                ],
            },
            Row {
                name: "ShardSel",
                parse: shard,
                required: &[("index", "0"), ("of", "2")],
                optional: &[],
            },
        ];
        for Row {
            name,
            parse,
            required,
            optional,
        } in rows
        {
            let minimal = parse(&object(required))
                .unwrap_or_else(|error| panic!("{name}: the minimal object must parse: {error}"));
            for member in optional {
                let mut members = required.to_vec();
                members.push((member, "null"));
                assert_eq!(
                    parse(&object(&members)),
                    Ok(minimal.clone()),
                    "{name}: `{member}: null` must read as an absent member"
                );
            }
            for (index, (member, _)) in required.iter().enumerate() {
                let mut absent = required.to_vec();
                absent.remove(index);
                let mut null = required.to_vec();
                null[index].1 = "null";
                for (case, members) in [("absent", absent), ("null", null)] {
                    let error = parse(&object(&members))
                        .expect_err(&format!("{name}: an {case} `{member}` must be refused"));
                    assert!(
                        error.contains(&format!("`{member}`")),
                        "{name}: the error for an {case} `{member}` must name it: {error}"
                    );
                }
            }
            let mut unknown = required.to_vec();
            unknown.push(("no_such_member", "1"));
            let error = parse(&object(&unknown))
                .expect_err(&format!("{name}: an unknown member must be refused"));
            assert!(
                error.contains("no_such_member"),
                "{name}: the error for an unknown member must name it: {error}"
            );
            for not_an_object in ["[]", "1", "\"x\"", "null", "true"] {
                assert!(
                    parse(not_an_object).is_err(),
                    "{name}: `{not_an_object}` is not an object"
                );
            }
        }
    }

    /// A request line that parses and validates, one JSON token per word:
    /// the token-soup proptest edits these tokens.
    const REQUEST_TEMPLATE: &str = r#"{ "query" : { "name" : "n" , "queries" : [
        { "id" : "c" , "kind" : "counterfactual" , "sessions" : [ 0 , 1 ] ,
          "scenario" : { "abr" : "mpc" , "buffer_capacity_s" : 30 , "ladder" : "higher" } ,
          "samples" : 3 , "seed" : 1 } ,
        { "id" : "s" , "kind" : "sweep" , "sweep" : { "sigma_mbps" : [ 0.25 , 0.5 ] } } ,
        { "id" : "i" , "kind" : "interventional" , "chunk_index" : 3 ,
          "candidate_size_bytes" : 1e6 } ,
        { "id" : "g" , "kind" : "aggregate" ,
          "aggregate" : { "metric" : "mean_ssim" , "scenario" : { "abr" : "bba" } } } ] } ,
      "shard" : { "index" : 0 , "of" : 2 } , "columns" : 8 , "stream" : true ,
      "auth" : "t" }"#;

    /// A query set that parses and validates, tokenised the same way.
    const QUERY_SET_TEMPLATE: &str = r#"{ "name" : "n" , "queries" : [
        { "id" : "a" , "kind" : "abduction" , "sessions" : [ 2 ] } ,
        { "id" : "c" , "kind" : "counterfactual" , "scenario" : { "abr" : "robust_mpc" } ,
          "samples" : 2 , "seed" : 7 } ] }"#;

    /// Member names the request and query-set decoders know, with kinds,
    /// scenario names and a metric. Each goes into the soup quoted.
    const SOUP_NAMES: &str = "query stream metrics shutdown auth shard index of columns name
        config queries id kind sessions scenario chunk_index candidate_size_bytes samples seed
        sweep aggregate metric abr buffer_capacity_s ladder sigma_mbps stay_probability
        num_samples epsilon_mbps max_capacity_mbps delta_s abduction interventional
        counterfactual mpc bba higher mean_ssim";

    /// Whole JSON values: numbers past the f64 and u64 ranges, negative
    /// zero, strings with bad escapes, and empty containers.
    const SOUP_LITERALS: &str = r#"true false null 0 1 -1 -0 -0.0 0.5 1e309 -1e309 1e-400
        18446744073709551615 18446744073709551616 -9223372036854775809 4294967296
        9007199254740993 "\ud800" "\udc00\ud800" "\u12" "\uZZZZ" "\x41" "" [] {}"#;

    /// Fragments that are not whole values: structure, and malformed
    /// numbers and strings.
    const SOUP_JUNK: &str = r#"{ } [ ] , : " \ 1. .5 01 +1 NaN Infinity "\"#;

    /// The soup's whole values (the names quoted, then the literals) and
    /// all its fragments: those values, the junk, stray whitespace and
    /// bytes, a value nested 129 arrays deep, and runs of openers nested
    /// past the parser's 128 limit.
    fn soup() -> (Vec<String>, Vec<String>) {
        let values: Vec<String> = SOUP_NAMES
            .split_whitespace()
            .map(|name| format!("\"{name}\""))
            .chain(SOUP_LITERALS.split_whitespace().map(str::to_string))
            .chain(["\"é\u{0}\"".to_string()])
            .collect();
        let mut fragments = values.clone();
        fragments.extend(SOUP_JUNK.split_whitespace().map(str::to_string));
        fragments.extend([" ", "\n", "\u{0}", "\u{feff}", "\u{fffd}"].map(str::to_string));
        fragments.push(format!("{}{}", "[".repeat(129), "]".repeat(129)));
        fragments.push("[".repeat(129));
        fragments.push("{\"query\":".repeat(200));
        fragments.push("[{\"queries\":".repeat(70));
        (values, fragments)
    }

    /// Parses `line` as a request and as a query set, and validates any
    /// query set that comes out. Each step must return `Ok` or a typed
    /// error; a panic fails the calling test.
    fn parse_hostile(line: &str) {
        match serde_json::from_str::<Request>(line) {
            Ok(request) => {
                if let Some(set) = request.query {
                    let _ = set.validate();
                }
            }
            Err(error) => assert!(!error.to_string().is_empty()),
        }
        match QuerySet::from_json(line) {
            Ok(set) => {
                let _ = set.validate();
            }
            Err(error) => assert!(!error.to_string().is_empty()),
        }
    }

    #[test]
    fn the_soup_templates_parse_and_validate() {
        let request: Request = serde_json::from_str(REQUEST_TEMPLATE).unwrap();
        request
            .query
            .expect("the template carries a query")
            .validate()
            .unwrap();
        QuerySet::from_json(QUERY_SET_TEMPLATE)
            .unwrap()
            .validate()
            .unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5000))]

        /// Arbitrary bytes, read as lossy UTF-8 the way a connection turns
        /// a line into text.
        #[test]
        fn arbitrary_bytes_never_panic_the_parsers(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            parse_hostile(&String::from_utf8_lossy(&bytes));
        }

        /// A template (a request, a query set, or nothing) with one to
        /// five edits. Five in eight put a soup value in place of one of
        /// the template's values or member names, which keeps the JSON
        /// well-formed, so the member decoders meet the hostile values.
        /// The rest replace, delete or insert any token or fragment.
        #[test]
        fn token_soups_never_panic_the_parsers(
            (template, edits) in (
                0usize..3,
                prop::collection::vec((0usize..8, any::<usize>(), any::<usize>()), 1..6),
            ),
        ) {
            let (values, fragments) = soup();
            let template = ["", REQUEST_TEMPLATE, QUERY_SET_TEMPLATE][template];
            let mut tokens: Vec<&str> = template.split_whitespace().collect();
            for (op, at, pick) in edits {
                let value_slots: Vec<usize> = (0..tokens.len())
                    .filter(|&i| !matches!(tokens[i], "{" | "}" | "[" | "]" | "," | ":"))
                    .collect();
                let at_token = at % (tokens.len() + 1);
                match op {
                    0 if at_token < tokens.len() => {
                        tokens[at_token] = &fragments[pick % fragments.len()]
                    }
                    1 if at_token < tokens.len() => {
                        tokens.remove(at_token);
                    }
                    3.. if !value_slots.is_empty() => {
                        tokens[value_slots[at % value_slots.len()]] = &values[pick % values.len()]
                    }
                    _ => tokens.insert(at_token, &fragments[pick % fragments.len()]),
                }
            }
            parse_hostile(&tokens.concat());
        }
    }

    #[test]
    fn token_comparison_matches_only_exact_secrets() {
        assert!(constant_time_eq("", ""));
        assert!(constant_time_eq("hunter2", "hunter2"));
        assert!(!constant_time_eq("hunter2", "hunter3"));
        assert!(!constant_time_eq("hunter2", "hunter2 "));
        assert!(!constant_time_eq("hunter2", ""));
        assert!(!constant_time_eq("", "hunter2"));
    }

    #[test]
    fn the_latency_window_keeps_the_last_units_of_a_query() {
        let service = Service::bind(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineFlags {
                synthetic: Some(1),
                ..EngineFlags::default()
            },
            ..ServiceConfig::default()
        })
        .unwrap();
        // Latencies 1..=total: the window must drop the first 10 and keep
        // the last LATENCY_WINDOW, 11..=total.
        let total = LATENCY_WINDOW + 10;
        for elapsed_us in 1..=total as u64 {
            service.state.observe(&record_of("q", elapsed_us));
        }
        let metrics = service.metrics();
        assert_eq!(metrics.records_streamed, total as u64);
        let [latency] = metrics.per_query.as_slice() else {
            panic!("one query id, got {:?}", metrics.per_query);
        };
        assert_eq!(latency.units, LATENCY_WINDOW);
        assert_eq!(latency.p50_us, 10 + LATENCY_WINDOW as u64 / 2);
        assert_eq!(latency.max_us, total as u64);
    }

    /// Every record of `query_id` with unit latency `elapsed_us`.
    fn record_of(query_id: &str, elapsed_us: u64) -> QueryRecord {
        QueryRecord {
            query_id: query_id.to_string(),
            kind: QueryKind::Abduction,
            session: "s0".to_string(),
            variant: None,
            status: "ok".to_string(),
            error: None,
            cache: None,
            elapsed_us,
            output: None,
            attempts: None,
        }
    }

    #[test]
    fn the_latency_windows_keep_only_the_most_recently_seen_ids() {
        let service = Service::bind(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineFlags {
                synthetic: Some(1),
                ..EngineFlags::default()
            },
            ..ServiceConfig::default()
        })
        .unwrap();
        // A client names every query anew, 10 ids past the bound; one
        // more id, "hot", is seen again before each new id.
        let fresh = MAX_LATENCY_IDS + 10;
        for n in 0..fresh {
            service.state.observe(&record_of("hot", 1));
            service
                .state
                .observe(&record_of(&format!("q{n:03}"), n as u64));
        }
        let metrics = service.metrics();
        assert_eq!(metrics.records_streamed, 2 * fresh as u64);
        assert_eq!(
            metrics.per_query.len(),
            MAX_LATENCY_IDS,
            "the windows are bounded by id count"
        );
        // Sorted by id: "hot", which was always recently seen, then the
        // 63 most recent fresh ids; the first 11 were dropped oldest
        // first.
        let ids: Vec<&str> = metrics.per_query.iter().map(|q| q.id.as_str()).collect();
        assert_eq!(ids[0], "hot");
        let kept: Vec<String> = (fresh + 1 - MAX_LATENCY_IDS..fresh)
            .map(|n| format!("q{n:03}"))
            .collect();
        assert_eq!(&ids[1..], kept);
        let hot = metrics.per_query.iter().find(|q| q.id == "hot").unwrap();
        assert_eq!(hot.units, fresh, "a kept id keeps its whole window");
    }

    #[test]
    fn a_malformed_fault_spec_is_a_config_error_at_bind() {
        let config = ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineFlags {
                fault_spec: Some("seed=nope".to_string()),
                ..EngineFlags::default()
            },
            ..ServiceConfig::default()
        };
        let error = match Service::bind(config) {
            Ok(_) => panic!("a malformed fault spec must not bind"),
            Err(error) => error,
        };
        match error {
            EngineError::Config(detail) => {
                assert!(detail.contains("--fault-spec"), "got: {detail}")
            }
            other => panic!("expected a Config error, got {other:?}"),
        }
    }
}
