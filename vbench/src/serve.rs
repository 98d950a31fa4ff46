//! `nextchunk_serve`: interventional next-chunk requests against a
//! `veritasd` child process over its JSONL wire.
//!
//! The daemon's memory tier keeps every posterior it infers, so a long
//! run against one daemon would grow without bound. The timed phase is
//! therefore a series of rounds: each round starts a fresh daemon, touches
//! every session once at its deepest decision point (so the corpus is
//! resident and every transition kernel built, as in a long-running
//! daemon), then sends the same list of distinct requests from two
//! closed-loop connections. Every round does identical work, which is what
//! lets the records and the ledger be compared across rounds.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use veritas_engine::{
    LazyCorpus, MetricsEnvelope, Query, QueryPlan, QueryRecord, QuerySet, SummaryEnvelope,
};

use crate::layers::{self, Counts, Split};
use crate::recompose::{expected_ledger, normalized, Extra, Ledger, Recomposer, Store};
use crate::report::Report;
use crate::stats::{fnv, median, percentile, SplitMix};
use crate::sys;
use crate::trace::{Tracer, UNATTRIBUTED};
use crate::workload::{config, decode_volume, nextchunk_set, Kind};
use crate::Run;

/// Distinct requests per round.
const REQUESTS: usize = 600;
/// Closed-loop client connections.
const CLIENTS: usize = 2;

struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// The daemon's standard error, kept until it stops cleanly.
    log: PathBuf,
}

impl Daemon {
    fn start(veritasd: &Path, corpus: &Path) -> Result<Self, String> {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let log = corpus.with_file_name(format!(
            "veritasd-{}.log",
            STARTED.fetch_add(1, Ordering::Relaxed)
        ));
        let stderr = File::create(&log).map_err(|e| e.to_string())?;
        let mut child = Command::new(veritasd)
            .arg("--corpus")
            .arg(corpus)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", veritasd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line).map_err(|e| e.to_string());
            if read.as_ref().map_or(true, |&n| n == 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("veritasd exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("veritasd: listening on ") {
                break addr
                    .parse()
                    .map_err(|e| format!("bad address {addr}: {e}"))?;
            }
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
            log,
        })
    }

    /// `error` with the daemon's last lines of standard error that are not
    /// per-plan log lines (a panic message, say) appended.
    fn explain(&self, error: String) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = log
            .lines()
            .filter(|line| !line.starts_with("{\"ts_ms\""))
            .collect();
        let tail = tail[tail.len().saturating_sub(8)..].join(" | ");
        format!("{error} (veritasd stderr: {tail})")
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let timeout = Some(Duration::from_secs(60));
        stream
            .set_read_timeout(timeout)
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        })
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        // An idle daemon may exit before its `{"draining":true}` reaches
        // the wire (its drain watcher starts before the acknowledgement is
        // written), so a connection closed instead of acknowledged is
        // still a drain under way; the exit is what is waited for.
        let _ = conn.request("{\"shutdown\": true}");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                let _ = std::fs::remove_file(&self.log);
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("veritasd did not exit after a shutdown request".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Sends one request line and returns every response line up to and
    /// including the terminal one.
    fn request(&mut self, line: &str) -> Result<String, String> {
        let mut out = String::with_capacity(4096);
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        loop {
            let start = out.len();
            let n = self.reader.read_line(&mut out).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            let last = &out[start..];
            if [
                "{\"summary\"",
                "{\"error\"",
                "{\"metrics\"",
                "{\"draining\"",
            ]
            .iter()
            .any(|p| last.starts_with(p))
            {
                return Ok(out);
            }
        }
    }

    fn metrics(&mut self) -> Result<veritas_engine::MetricsSnapshot, String> {
        let line = self.request("{\"metrics\": true}")?;
        serde_json::from_str::<MetricsEnvelope>(line.trim())
            .map(|m| m.metrics)
            .map_err(|e| format!("bad metrics response: {e}"))
    }
}

/// A request's wire line, and the query set it carries.
struct Request {
    set: QuerySet,
    line: String,
}

fn request(set: QuerySet) -> Request {
    let query = serde_json::to_string(&set).expect("query sets serialise");
    Request {
        line: format!("{{\"query\": {query}}}"),
        set,
    }
}

/// One response checked: its normalised records.
struct Answer {
    lines: Vec<String>,
}

fn parse_answer(response: &str, units: usize) -> Result<Answer, String> {
    let mut lines = Vec::with_capacity(units);
    let mut summary = None;
    for line in response.lines() {
        if line.starts_with("{\"summary\"") {
            let envelope: SummaryEnvelope =
                serde_json::from_str(line).map_err(|e| format!("bad summary: {e}"))?;
            summary = Some(envelope.summary);
        } else {
            let record: QueryRecord = serde_json::from_str(line)
                .map_err(|e| format!("unexpected response line {line}: {e}"))?;
            if !record.is_ok() {
                return Err(format!("record failed: {line}"));
            }
            lines.push(normalized(&record));
        }
    }
    let summary = summary.ok_or("response has no summary")?;
    if summary.errors != 0 || lines.len() != units {
        return Err(format!(
            "{} records, {} errors; expected {units} ok records",
            lines.len(),
            summary.errors
        ));
    }
    Ok(Answer { lines })
}

/// Engine-side milliseconds of a response, read without a full parse.
fn engine_ms(response: &str) -> f64 {
    response
        .rsplit_once("\"elapsed_ms\":")
        .and_then(|(_, rest)| {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        })
        .unwrap_or(0.0)
}

/// What one timed round measured.
struct Round {
    rtt_ms: Vec<f64>,
    burst_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    ledger: Ledger,
    shed: u64,
    hash: u64,
    first_answers: Vec<Vec<String>>,
}

/// Counts a burst moved, from the daemon's metrics before and after it.
fn ledger_delta(
    before: &veritas_engine::MetricsSnapshot,
    after: &veritas_engine::MetricsSnapshot,
) -> Ledger {
    let decoded = |m: &veritas_engine::MetricsSnapshot| m.residency.map_or(0, |r| r.bytes_decoded);
    Ledger {
        records: after.records_streamed - before.records_streamed,
        inferences: after.cache.misses - before.cache.misses,
        memory_hits: after.cache.hits - before.cache.hits,
        disk_hits: after.cache.disk_hits - before.cache.disk_hits,
        kernel_disk_hits: after.cache.kernel_disk_hits - before.cache.kernel_disk_hits,
        bytes_decoded: decoded(after) - decoded(before),
        ..Ledger::default()
    }
}

/// Serves one round on `daemon`, which must be fresh, and stops it.
fn serve_round(daemon: Daemon, touch: &[Request], requests: &[Request]) -> Result<Round, String> {
    let round = burst(&daemon, touch, requests).map_err(|e| daemon.explain(e))?;
    daemon.stop()?;
    round.finish(requests)
}

/// One request sent: its index, round trip in ms, and response.
type Sent = (usize, f64, Result<String, String>);

/// A round's raw outcome, before its responses are checked.
struct Burst {
    results: Vec<Sent>,
    burst_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    ledger: Ledger,
    shed: u64,
}

fn burst(daemon: &Daemon, touch: &[Request], requests: &[Request]) -> Result<Burst, String> {
    let mut control = daemon.connect()?;
    for req in touch {
        parse_answer(&control.request(&req.line)?, req.set.queries.len())?;
    }
    let mut conns = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let before = control.metrics()?;
    let cpu_before = sys::proc_cpu_s(daemon.pid())?;
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Sent>> = Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for conn in &mut conns {
            let (cursor, results) = (&cursor, &results);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i) else { break };
                    let sent = Instant::now();
                    let response = conn.request(&req.line);
                    mine.push((i, sent.elapsed().as_secs_f64() * 1e3, response));
                }
                results.lock().expect("results lock").extend(mine);
            });
        }
    });
    let burst_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::proc_cpu_s(daemon.pid())? - cpu_before;
    let peak_rss_mb = sys::proc_peak_rss_mb(daemon.pid())?;
    let after = control.metrics()?;
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(i, _, _)| *i);
    if let Some((i, _, Err(e))) = results.iter().find(|(_, _, r)| r.is_err()) {
        return Err(format!("request {i}: {e}"));
    }
    Ok(Burst {
        results,
        burst_s,
        cpu_s,
        peak_rss_mb,
        ledger: ledger_delta(&before, &after),
        shed: (after.plans_shed - before.plans_shed)
            + (after.connections_shed - before.connections_shed),
    })
}

impl Burst {
    fn finish(self, requests: &[Request]) -> Result<Round, String> {
        let mut text = String::new();
        let mut rtt_ms = Vec::with_capacity(self.results.len());
        let mut first_answers = Vec::new();
        for ((_, rtt, response), req) in self.results.into_iter().zip(requests) {
            let answer = parse_answer(&response?, req.set.queries.len())?;
            rtt_ms.push(rtt);
            for line in &answer.lines {
                text.push_str(line);
                text.push('\n');
            }
            if first_answers.len() < 4 {
                first_answers.push(answer.lines);
            }
        }
        Ok(Round {
            rtt_ms,
            burst_s: self.burst_s,
            cpu_s: self.cpu_s,
            peak_rss_mb: self.peak_rss_mb,
            ledger: self.ledger,
            shed: self.shed,
            hash: fnv(text.as_bytes()),
            first_answers,
        })
    }
}

/// The request list of `seed`: `REQUESTS` distinct (session, decision
/// point) pairs. Decision points are spread evenly over 2..=n-2 of a
/// session's n chunks — at least 2 so the prefix has a transition, before
/// the last chunk so the logged download time exists, and short of the
/// touched depth n-1 — so every seed asks for the same prefix lengths; the
/// seed picks the sessions and the order.
fn request_list(corpus: &LazyCorpus, seed: u64, chunks_of: &[usize]) -> Vec<Request> {
    let mut rng = SplitMix(crate::stats::derive_seed(seed, "nextchunk-requests"));
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        loop {
            let session = rng.range(0, corpus.len());
            let chunk = 2 + i * (chunks_of[session] - 3) / REQUESTS;
            if seen.insert((session, chunk)) {
                pairs.push((session, chunk));
                break;
            }
        }
    }
    // Shuffled, so both connections see every depth.
    rng.shuffle(&mut pairs);
    pairs
        .into_iter()
        .map(|(session, chunk)| request(nextchunk_set(corpus, session, chunk)))
        .collect()
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let veritasd = run
        .veritasd
        .as_deref()
        .ok_or("nextchunk_serve needs --veritasd PATH")?;
    let crate::SetUp {
        seconds: setup_s,
        open_ms,
        layout,
        corpus,
        extra: first_daemon,
    } = crate::set_up(
        Kind::NextchunkServe,
        run,
        |layout| Daemon::start(veritasd, &layout.corpus()),
        Daemon::stop,
    )?;

    let demand = QuerySet::new("demand", config())
        .with_query(Query::interventional("demand").with_chunk_index(1));
    let touch_plan = QueryPlan::compile(&demand, &corpus).map_err(|e| e.to_string())?;
    let mut chunk_counts = Vec::with_capacity(corpus.len());
    for si in 0..corpus.len() {
        let log = corpus
            .load_log_projected(si, touch_plan.column_demand(si))
            .map_err(|e| e.to_string())?;
        chunk_counts.push(log.records.len());
    }
    // Every session once, at its deepest decision point, under the
    // requests' column demand: a touched daemon then holds the corpus
    // resident and every transition kernel a request can need, as a
    // long-running one would, and the recomposer's corpus matches its.
    let touch: Vec<Request> = (0..corpus.len())
        .map(|si| {
            let mut set = nextchunk_set(&corpus, si, chunk_counts[si] - 1);
            set.queries.truncate(1);
            request(set)
        })
        .collect();
    let requests = request_list(&corpus, run.seed, &chunk_counts);
    let mut expected = Ledger::default();
    for req in &requests {
        let plan = QueryPlan::compile(&req.set, &corpus).map_err(|e| e.to_string())?;
        let one = expected_ledger(&plan, &Store::None);
        expected.records += one.records;
        expected.inferences += one.inferences;
        expected.memory_hits += one.memory_hits;
    }

    if !run.trace {
        // Warm-up round on the set-up's daemon, then timed rounds.
        let warm = serve_round(first_daemon, &touch, &requests)?;
        check_round(report, &warm, &expected, warm.hash);
        let mut recomposer = Recomposer::new(&corpus, None, false);
        for (req, want) in requests.iter().zip(&warm.first_answers) {
            let got = recomposer.run_set(&req.set)?;
            report.check(&got == want, || {
                "recomposed records differ from the daemon's".to_string()
            });
        }
        // Throughput is the median over rounds; daemon CPU is summed, since
        // it is read in whole clock ticks.
        let (mut rtts, mut rates, mut cpu, mut rss, mut rounds) =
            (Vec::new(), Vec::new(), 0.0, 0.0f64, 0);
        let start = Instant::now();
        while rounds == 0 || start.elapsed().as_secs_f64() < run.seconds {
            rounds += 1;
            let round = serve_round(
                Daemon::start(veritasd, &layout.corpus())?,
                &touch,
                &requests,
            )?;
            check_round(report, &round, &expected, warm.hash);
            rates.push(round.rtt_ms.len() as f64 / round.burst_s);
            cpu += round.cpu_s;
            rss = rss.max(round.peak_rss_mb);
            rtts.extend(round.rtt_ms);
        }
        let ops = rtts.len() as u64;
        report.attempted = ops;
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("ops_per_s", median(&rates), "1/s");
        report.metric("op_p50_ms", median(&rtts), "ms");
        report.metric("cpu_ms_per_op", cpu * 1e3 / ops as f64, "ms");
        report.metric("peak_rss_mb", rss, "MB");
        report.lines.push(format!(
            "samples op_latency={} rounds={rounds} setups={:?} round_rates={:?}",
            rtts.len(),
            setup_s,
            rates
        ));
        report.lines.push(format!(
            "op_p99_ms = {} ms (not a gated metric)",
            percentile(&rtts, 0.99)
        ));
        report
            .lines
            .push(format!("ledger per round {}", expected.to_json()));
        return Ok(());
    }

    // Traced run: each request is recomposed in-process layer by layer,
    // then sent over the wire on one connection and the answers compared;
    // traced rounds give the split, untraced ones the tracing overhead.
    first_daemon.stop()?;
    let mut split = Split::default();
    let (mut plain_s, mut traced_s, mut n) = (0.0, 0.0, 0usize);
    let mut last = None;
    let start = Instant::now();
    // Pass 0 is a discarded warm-up; then untraced and traced alternate,
    // ending on a traced pass.
    while n < 3 || n % 2 == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let traced = n >= 2 && n % 2 == 0;
        let warm_up = n == 0;
        n += 1;
        let daemon = Daemon::start(veritasd, &layout.corpus())?;
        let mut conn = daemon.connect()?;
        for req in &touch {
            parse_answer(&conn.request(&req.line)?, 1)?;
        }
        let before = conn.metrics()?;
        let mut recomposer = Recomposer::new(&corpus, None, false);
        for req in &touch {
            recomposer.run_set(&req.set)?;
        }
        recomposer.tr = Tracer::new(traced);
        recomposer.ledger = Ledger::default();
        recomposer.extra = Extra::default();
        let mut responses = Vec::with_capacity(requests.len());
        let mut recomposed = Vec::with_capacity(requests.len());
        let begin = Instant::now();
        for req in &requests {
            let root = recomposer.tr.begin(UNATTRIBUTED);
            recomposed.push(recomposer.run_set(&req.set)?);
            let wire = recomposer.tr.begin("service.wire");
            let response = conn.request(&req.line).map_err(|e| daemon.explain(e))?;
            let engine = Duration::from_secs_f64(engine_ms(&response) / 1e3);
            recomposer.tr.record("service.engine", engine);
            recomposer.tr.end(wire);
            recomposer.tr.end(root);
            responses.push(response);
        }
        let elapsed = begin.elapsed().as_secs_f64();
        let after = conn.metrics()?;
        drop(conn);
        daemon.stop()?;
        for ((response, want), req) in responses.iter().zip(&recomposed).zip(&requests) {
            let answer = parse_answer(response, req.set.queries.len())?;
            report.check(&answer.lines == want, || {
                format!("round {n}: recomposed records differ from the daemon's")
            });
        }
        let daemon_ledger = ledger_delta(&before, &after);
        let mismatches = recomposer.ledger.mismatches(&expected);
        report.check(mismatches.is_empty(), || {
            format!("recomposed round {n} ledger: {}", mismatches.join("; "))
        });
        let mismatches = daemon_ledger.mismatches(&expected);
        report.check(mismatches.is_empty(), || {
            format!("daemon round {n} ledger: {}", mismatches.join("; "))
        });
        let shed = (after.plans_shed - before.plans_shed)
            + (after.connections_shed - before.connections_shed);
        if traced {
            traced_s += elapsed;
            split.add(&recomposer.tr);
            last = Some((recomposer.ledger, recomposer.extra, shed));
        } else if !warm_up {
            plain_s += elapsed;
        }
    }
    let (ledger, extra, shed) = last.expect("at least one traced round");
    let counts = Counts {
        ledger,
        extra,
        ops: requests.len() as u64,
        open_ms: median(&open_ms),
        peak_resident_bytes: corpus.peak_resident_bytes() as u64,
        projected_bytes_ratio: {
            let (projected, full) = decode_volume(&layout.corpus(), &touch_plan)?;
            projected as f64 / full as f64
        },
        retries: 0,
        requests: requests.len() as u64,
        shed,
    };
    let pairs = ((n - 1) / 2) as f64;
    layers::emit(
        report,
        &split,
        &counts,
        (pairs / traced_s) / (pairs / plain_s),
    );
    report.attempted = ((n as u64 - 1) / 2) * requests.len() as u64;
    report
        .lines
        .push(format!("ledger per round {}", ledger.to_json()));
    Ok(())
}

fn check_round(report: &mut Report, round: &Round, expected: &Ledger, reference: u64) {
    let mismatches = round.ledger.mismatches(expected);
    report.check(mismatches.is_empty(), || {
        format!("round ledger: {}", mismatches.join("; "))
    });
    report.check(round.shed == 0, || format!("{} requests shed", round.shed));
    report.check(round.hash == reference, || {
        "round records differ from the warm-up round".to_string()
    });
}
