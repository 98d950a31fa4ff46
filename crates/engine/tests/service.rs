//! Integration tests of the `veritasd` service: wire output equals batch
//! output, the shared cache is warm across connections and restarts,
//! admission control sheds, and the real binary speaks the protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use veritas::VeritasConfig;
use veritas_engine::{
    ingest_dir, Engine, EngineFlags, ErrorEnvelope, MetricsEnvelope, MetricsSnapshot, Query,
    QueryRecord, QuerySet, RunSummary, ScenarioSpec, Service, ServiceConfig, SessionCorpus,
    SummaryEnvelope, WireError,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veritas_service_it_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(sessions: usize, seed: u64) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineFlags {
            synthetic: Some(sessions),
            seed: Some(seed),
            threads: Some(2),
            ..EngineFlags::default()
        },
        ..ServiceConfig::default()
    }
}

/// Strips what legitimately differs between runs — timing and the cache
/// tier a posterior came from — leaving the causal payload.
fn normalize(mut record: QueryRecord) -> QueryRecord {
    record.elapsed_us = 0;
    record.cache = None;
    record
}

/// One JSONL client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Everything one query request streamed back.
struct Response {
    records: Vec<QueryRecord>,
    summary: Option<RunSummary>,
    error: Option<WireError>,
}

impl Client {
    fn connect(addr: &std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("the service must accept connections");
        let reader = BufReader::new(writer.try_clone().unwrap());
        Self { reader, writer }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line).unwrap();
        assert!(read > 0, "the service hung up unexpectedly");
        line.trim().to_string()
    }

    /// Sends a query request and reads until its terminal line (summary
    /// or error envelope).
    fn query(&mut self, set: &QuerySet, stream: bool) -> Response {
        let set_json = serde_json::to_string(set).unwrap();
        let request = if stream {
            format!(r#"{{"query": {set_json}, "stream": true}}"#)
        } else {
            format!(r#"{{"query": {set_json}}}"#)
        };
        self.send(&request);
        let mut records = Vec::new();
        loop {
            let line = self.read_line();
            if let Some(error) = ErrorEnvelope::parse(&line) {
                return Response {
                    records,
                    summary: None,
                    error: Some(error),
                };
            }
            if let Ok(envelope) = serde_json::from_str::<SummaryEnvelope>(&line) {
                return Response {
                    records,
                    summary: Some(envelope.summary),
                    error: None,
                };
            }
            records.push(serde_json::from_str(&line).expect("a record line must parse"));
        }
    }

    fn summary(&mut self, set: &QuerySet) -> RunSummary {
        let response = self.query(set, false);
        assert_eq!(
            response.error.as_ref().map(|e| e.detail.clone()),
            None,
            "the query must not be refused"
        );
        response.summary.expect("a summary must terminate the feed")
    }

    fn metrics(&mut self) -> MetricsSnapshot {
        self.send(r#"{"metrics": true}"#);
        let line = self.read_line();
        serde_json::from_str::<MetricsEnvelope>(&line)
            .unwrap_or_else(|e| panic!("metrics line must parse ({e}): {line}"))
            .metrics
    }
}

fn small_set(name: &str) -> QuerySet {
    QuerySet::new(name, VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::abduction("posterior"))
        .with_query(Query::counterfactual(
            "what-if-bba",
            ScenarioSpec::abr("bba"),
        ))
}

#[test]
fn concurrent_clients_see_batch_identical_records() {
    let sessions = 3;
    let seed = 11;
    let handle = Service::bind(config(sessions, seed))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();

    // The ground truth each client must receive: the batch pipeline run
    // in-process over an identical corpus and engine configuration.
    let corpus = Arc::new(SessionCorpus::synthetic(sessions, seed));
    let engine = Engine::builder().threads(2).build().unwrap();
    let set_a = small_set("client-a");
    let set_b = QuerySet::new("client-b", VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::abduction("only-posterior"));
    let expect_a: Vec<QueryRecord> = engine
        .run(corpus.clone(), &set_a)
        .unwrap()
        .records
        .into_iter()
        .map(normalize)
        .collect();
    let expect_b: Vec<QueryRecord> = engine
        .run(corpus.clone(), &set_b)
        .unwrap()
        .records
        .into_iter()
        .map(normalize)
        .collect();

    let expected_stream_total = (2 * expect_a.len() + expect_b.len()) as u64;
    let run_client = |set: QuerySet, expected: Vec<QueryRecord>| {
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr);
            let response = client.query(&set, false);
            let got: Vec<QueryRecord> = response.records.into_iter().map(normalize).collect();
            assert_eq!(got, expected, "wire records must equal batch records");
            let summary = response.summary.expect("the feed must end with a summary");
            assert_eq!(summary.units, expected.len());
            assert_eq!(summary.errors, 0);
        })
    };
    let thread_a = run_client(set_a.clone(), expect_a.clone());
    let thread_b = run_client(set_b, expect_b);
    thread_a.join().unwrap();
    thread_b.join().unwrap();

    // The streamed variant delivers the same records in completion order.
    let mut client = Client::connect(&addr);
    let response = client.query(&set_a, true);
    let mut streamed: Vec<String> = response
        .records
        .into_iter()
        .map(|r| serde_json::to_string(&normalize(r)).unwrap())
        .collect();
    streamed.sort();
    let mut batch: Vec<String> = expect_a
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    batch.sort();
    assert_eq!(streamed, batch);

    let metrics = client.metrics();
    assert_eq!(metrics.sessions, sessions);
    assert!(metrics.plans_served >= 3);
    assert_eq!(metrics.plans_shed, 0);
    assert_eq!(metrics.records_streamed, expected_stream_total);
    assert!(metrics.per_query.iter().any(|q| q.id == "posterior"));
    // Supervision counters ride in the same snapshot; a fault-free
    // in-process daemon has absorbed nothing.
    assert_eq!(metrics.retries, 0);
    assert_eq!(metrics.shard_retries, 0);
    assert_eq!(metrics.healed, 0);
    assert_eq!(metrics.quarantined, 0);
    handle.stop();
}

#[test]
fn a_repeat_query_is_served_from_the_warm_shared_cache() {
    let handle = Service::bind(config(2, 23)).unwrap().spawn().unwrap();
    let set = small_set("warm");

    let cold = Client::connect(&handle.addr()).summary(&set);
    assert!(cold.cache_misses > 0, "the first run must infer");

    // A *different* connection: the cache is resident in the engine, not
    // in any per-connection state.
    let warm = Client::connect(&handle.addr()).summary(&set);
    assert_eq!(
        warm.cache_misses, 0,
        "an identical query must perform zero inferences"
    );
    assert_eq!(warm.errors, 0);
    assert!(warm.cache_hits >= cold.cache_misses);

    let metrics = Client::connect(&handle.addr()).metrics();
    assert_eq!(metrics.cache.misses, cold.cache_misses);
    assert!(metrics.cache.hits >= warm.cache_hits);
    handle.stop();
}

#[test]
fn a_cache_dir_restart_serves_posteriors_from_disk() {
    let dir = temp_dir("disk_restart");
    let _ = std::fs::remove_dir_all(dir.join("store"));
    let with_store = || {
        let mut c = config(2, 31);
        c.engine.cache_dir = Some(dir.join("store"));
        c
    };
    let set = small_set("restart");

    let first = Service::bind(with_store()).unwrap().spawn().unwrap();
    let cold = Client::connect(&first.addr()).query(&set, false);
    let cold_summary = cold.summary.unwrap();
    assert!(cold_summary.cache_misses > 0);
    first.stop();

    // A brand-new daemon over the same store: every posterior restores
    // from the disk tier, none are inferred.
    let second = Service::bind(with_store()).unwrap().spawn().unwrap();
    let warm = Client::connect(&second.addr()).query(&set, false);
    let warm_summary = warm.summary.unwrap();
    assert_eq!(warm_summary.cache_misses, 0);
    assert_eq!(warm_summary.disk_hits, cold_summary.cache_misses);
    let normalized = |records: Vec<QueryRecord>| -> Vec<QueryRecord> {
        records.into_iter().map(normalize).collect()
    };
    assert_eq!(normalized(cold.records), normalized(warm.records));
    second.stop();
}

#[test]
fn requests_past_the_admission_bound_are_shed_with_a_typed_error() {
    // Deterministic variant: a bound of zero sheds every query while
    // metrics stay reachable.
    let mut zero = config(2, 41);
    zero.admission = 0;
    let handle = Service::bind(zero).unwrap().spawn().unwrap();
    let mut client = Client::connect(&handle.addr());
    let shed = client.query(&small_set("shed"), false);
    let error = shed.error.expect("a bound of zero must shed the plan");
    assert_eq!(error.kind, "overloaded");
    assert!(
        error.detail.contains("admission bound 0"),
        "{}",
        error.detail
    );
    assert!(shed.records.is_empty());
    let metrics = client.metrics();
    assert_eq!(metrics.plans_shed, 1);
    assert_eq!(metrics.plans_served, 0);
    handle.stop();

    // Concurrent variant: client A holds the single admission slot with a
    // deliberately slow plan; client B is shed while A runs and succeeds
    // once A drains.
    let mut single = config(4, 43);
    single.admission = 1;
    single.engine.threads = Some(1);
    let handle = Service::bind(single).unwrap().spawn().unwrap();
    let slow_set =
        QuerySet::new("slow", VeritasConfig::paper_default().with_samples(192)).with_query(
            Query::counterfactual("hold-the-slot", ScenarioSpec::abr("bba")),
        );

    let mut holder = Client::connect(&handle.addr());
    let set_json = serde_json::to_string(&slow_set).unwrap();
    holder.send(&format!(r#"{{"query": {set_json}, "stream": true}}"#));
    // The first streamed record proves A's plan was admitted and is
    // mid-flight (three more single-threaded units remain).
    let first = holder.read_line();
    assert!(
        serde_json::from_str::<QueryRecord>(&first).is_ok(),
        "first line was: {first}"
    );

    let mut second = Client::connect(&handle.addr());
    let refused = second.query(&small_set("too-late"), false);
    let error = refused
        .error
        .expect("the second concurrent plan must be shed");
    assert_eq!(error.kind, "overloaded");

    // Drain A; the slot frees and B's retry is admitted.
    loop {
        let line = holder.read_line();
        if serde_json::from_str::<SummaryEnvelope>(&line).is_ok() {
            break;
        }
    }
    let retry = second.summary(&small_set("retry"));
    assert_eq!(retry.errors, 0);
    assert!(handle.metrics().plans_shed >= 1);
    handle.stop();
}

#[test]
fn connections_past_the_bound_are_shed_with_a_typed_error() {
    let mut bounded = config(2, 61);
    bounded.max_connections = 1;
    let handle = Service::bind(bounded).unwrap().spawn().unwrap();

    // Client A occupies the single slot; the metrics round-trip proves
    // its connection is fully established before B tries.
    let mut holder = Client::connect(&handle.addr());
    assert_eq!(holder.metrics().connections_active, 1);

    let shed = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(shed);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let error = ErrorEnvelope::parse(line.trim())
        .expect("the excess accept must answer with an error envelope");
    assert_eq!(error.kind, "overloaded");
    assert!(
        error.detail.contains("connection bound 1"),
        "{}",
        error.detail
    );
    // ... and is then closed, not serviced.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);

    let metrics = holder.metrics();
    assert_eq!(metrics.connections_shed, 1);
    assert_eq!(metrics.connections_active, 1);

    // The slot frees when A hangs up; a later client is admitted.
    drop(holder);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let mut client = Client::connect(&handle.addr());
        client.send(r#"{"metrics": true}"#);
        let line = client.read_line();
        if serde_json::from_str::<MetricsEnvelope>(&line).is_ok() {
            break;
        }
        assert_eq!(ErrorEnvelope::parse(&line).unwrap().kind, "overloaded");
        assert!(std::time::Instant::now() < deadline, "the slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.stop();
}

#[test]
fn idle_connections_are_cut_at_the_io_deadline() {
    let mut impatient = config(2, 67);
    impatient.io_timeout_s = 1;
    let handle = Service::bind(impatient).unwrap().spawn().unwrap();

    // A silent client never sends a request; the per-connection read
    // deadline must cut it loose rather than pin the handler forever.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream);
    let started = std::time::Instant::now();
    let mut line = String::new();
    let read = reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(read, 0, "the daemon must hang up, instead sent: {line}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "the idle connection outlived the 1 s deadline by over an order \
         of magnitude"
    );

    // A live client on the same daemon still gets full service.
    let summary = Client::connect(&handle.addr()).summary(&small_set("after-timeout"));
    assert_eq!(summary.errors, 0);
    handle.stop();
}

#[test]
fn a_vcorp_corpus_serves_the_same_records_as_its_source_directory() {
    let dir = temp_dir("vcorp_daemon");
    let sessions_dir = dir.join("sessions");
    let _ = std::fs::remove_dir_all(&sessions_dir);
    std::fs::create_dir_all(&sessions_dir).unwrap();
    let corpus = SessionCorpus::synthetic(3, 71);
    for session in &corpus.sessions {
        let path = sessions_dir.join(format!("{}.json", session.id));
        std::fs::write(path, session.log.to_json()).unwrap();
    }
    let vcorp = dir.join("corpus.vcorp");
    ingest_dir(&sessions_dir, &vcorp).unwrap();

    let mut cfg = config(0, 0);
    cfg.engine = EngineFlags {
        corpus: Some(vcorp),
        threads: Some(2),
        ..EngineFlags::default()
    };
    let handle = Service::bind(cfg).unwrap().spawn().unwrap();

    // Ground truth: the batch pipeline over the JSON directory the
    // `.vcorp` was ingested from.
    let set = small_set("vcorp");
    let engine = Engine::builder().threads(2).build().unwrap();
    let from_dir = Arc::new(SessionCorpus::from_dir(&sessions_dir).unwrap());
    let expected: Vec<QueryRecord> = engine
        .run(from_dir, &set)
        .unwrap()
        .records
        .into_iter()
        .map(normalize)
        .collect();

    let mut client = Client::connect(&handle.addr());
    let response = client.query(&set, false);
    let got: Vec<QueryRecord> = response.records.into_iter().map(normalize).collect();
    assert_eq!(got, expected);
    assert_eq!(client.metrics().sessions, 3);
    handle.stop();
}

#[test]
fn protocol_errors_answer_in_band_and_keep_the_connection() {
    let handle = Service::bind(config(2, 53)).unwrap().spawn().unwrap();
    let mut client = Client::connect(&handle.addr());

    client.send("this is not json");
    assert_eq!(
        ErrorEnvelope::parse(&client.read_line()).unwrap().kind,
        "protocol"
    );

    client.send(r#"{"stream": true}"#);
    assert_eq!(
        ErrorEnvelope::parse(&client.read_line()).unwrap().kind,
        "protocol"
    );

    // An unsatisfiable query set is refused with the query error kind.
    client.send(r#"{"query": {"queries": [{"id": "s", "kind": "sweep"}]}}"#);
    let error = ErrorEnvelope::parse(&client.read_line()).unwrap();
    assert_eq!(error.kind, "invalid_query");

    // The connection survived all three refusals.
    assert!(client.metrics().uptime_s >= 0.0);
    handle.stop();
}

#[test]
fn the_veritasd_binary_announces_its_port_and_serves_queries() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_veritasd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--synthetic",
            "2",
            "--seed",
            "9",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("the veritasd binary must start");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr: std::net::SocketAddr = banner
        .trim()
        .strip_prefix("veritasd: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .unwrap();

    let set = small_set("binary");
    let corpus = Arc::new(SessionCorpus::synthetic(2, 9));
    let engine = Engine::builder().threads(2).build().unwrap();
    let expected: Vec<QueryRecord> = engine
        .run(corpus, &set)
        .unwrap()
        .records
        .into_iter()
        .map(normalize)
        .collect();

    let mut client = Client::connect(&addr);
    let response = client.query(&set, false);
    let got: Vec<QueryRecord> = response.records.into_iter().map(normalize).collect();
    assert_eq!(got, expected);
    let metrics = client.metrics();
    assert_eq!(metrics.sessions, 2);
    assert_eq!(metrics.plans_served, 1);

    child.kill().unwrap();
    let _ = child.wait();
}

#[test]
fn an_auth_token_gates_every_request() {
    let mut cfg = config(2, 47);
    cfg.auth_token = Some("hunter2".to_string());
    let handle = Service::bind(cfg).unwrap().spawn().unwrap();

    // No token: a typed refusal, then the connection is closed.
    let mut anon = Client::connect(&handle.addr());
    anon.send(r#"{"metrics": true}"#);
    let error = ErrorEnvelope::parse(&anon.read_line()).unwrap();
    assert_eq!(error.kind, "unauthorized");
    let mut line = String::new();
    assert_eq!(
        anon.reader.read_line(&mut line).unwrap(),
        0,
        "an unauthorized connection must be closed after the refusal"
    );

    // Wrong token: same refusal; the daemon itself stays healthy.
    let mut wrong = Client::connect(&handle.addr());
    wrong.send(r#"{"metrics": true, "auth": "hunter3"}"#);
    assert_eq!(
        ErrorEnvelope::parse(&wrong.read_line()).unwrap().kind,
        "unauthorized"
    );

    // The right token is served normally — metrics and queries alike.
    let mut authed = Client::connect(&handle.addr());
    authed.send(r#"{"metrics": true, "auth": "hunter2"}"#);
    let line = authed.read_line();
    let metrics = serde_json::from_str::<MetricsEnvelope>(&line)
        .unwrap_or_else(|e| panic!("an authed metrics request must be served ({e}): {line}"))
        .metrics;
    assert_eq!(metrics.sessions, 2);

    let set_json = serde_json::to_string(&small_set("authed")).unwrap();
    authed.send(&format!(r#"{{"query": {set_json}, "auth": "hunter2"}}"#));
    let mut records = 0;
    let summary = loop {
        let line = authed.read_line();
        if let Ok(envelope) = serde_json::from_str::<SummaryEnvelope>(&line) {
            break envelope.summary;
        }
        assert!(
            serde_json::from_str::<QueryRecord>(&line).is_ok(),
            "unexpected line: {line}"
        );
        records += 1;
    };
    assert_eq!(records, 4);
    assert_eq!(summary.errors, 0);
    handle.stop();
}

#[test]
fn a_shutdown_request_drains_in_flight_plans_then_exits() {
    let mut cfg = config(4, 43);
    cfg.engine.threads = Some(1);
    let handle = Service::bind(cfg).unwrap().spawn().unwrap();

    // Client A holds a deliberately slow plan in flight (single worker,
    // heavy sampling), proven admitted by its first streamed record.
    let slow_set =
        QuerySet::new("slow", VeritasConfig::paper_default().with_samples(192)).with_query(
            Query::counterfactual("hold-the-slot", ScenarioSpec::abr("bba")),
        );
    let mut holder = Client::connect(&handle.addr());
    let set_json = serde_json::to_string(&slow_set).unwrap();
    holder.send(&format!(r#"{{"query": {set_json}, "stream": true}}"#));
    let first = holder.read_line();
    assert!(
        serde_json::from_str::<QueryRecord>(&first).is_ok(),
        "first line was: {first}"
    );

    // A second connection asks for shutdown and is acked immediately.
    let mut admin = Client::connect(&handle.addr());
    admin.send(r#"{"shutdown": true}"#);
    assert_eq!(admin.read_line(), r#"{"draining":true}"#);

    // New plans on the draining daemon get the typed refusal.
    let refused = admin.query(&small_set("too-late"), false);
    let error = refused
        .error
        .expect("a draining daemon must refuse new plans");
    assert_eq!(error.kind, "draining");

    // The in-flight plan still streams every record and its summary.
    let mut records = 1;
    let summary = loop {
        let line = holder.read_line();
        if let Ok(envelope) = serde_json::from_str::<SummaryEnvelope>(&line) {
            break envelope.summary;
        }
        records += 1;
    };
    assert_eq!(records, 4, "drain must not drop in-flight records");
    assert_eq!(summary.errors, 0);

    // With the last plan drained, the accept loop exits on its own —
    // no stop() needed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "the daemon never exited after draining"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.stop();
}

#[test]
fn summaries_carry_monotonic_request_ids() {
    let handle = Service::bind(config(2, 59)).unwrap().spawn().unwrap();
    let mut client = Client::connect(&handle.addr());
    let set_json = serde_json::to_string(&small_set("req-id")).unwrap();
    for expected in 1..=3u64 {
        client.send(&format!(r#"{{"query": {set_json}}}"#));
        let envelope = loop {
            let line = client.read_line();
            if let Ok(envelope) = serde_json::from_str::<SummaryEnvelope>(&line) {
                break envelope;
            }
        };
        assert_eq!(
            envelope.req_id,
            Some(expected),
            "request ids must count every query request on the daemon"
        );
    }
    handle.stop();
}

#[test]
fn the_plan_log_records_refused_plans_too() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_veritasd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--synthetic",
            "2",
            "--threads",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the veritasd binary must start");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr: std::net::SocketAddr = banner
        .trim()
        .strip_prefix("veritasd: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .unwrap();

    let mut client = Client::connect(&addr);
    let out_of_range = QuerySet::new("bad", VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::abduction("posterior").with_sessions(vec![9]));
    let refused = client.query(&out_of_range, false);
    assert_eq!(
        refused.error.expect("a typed refusal").kind,
        "invalid_query"
    );
    client.summary(&small_set("good"));
    client.send(r#"{"shutdown": true}"#);
    assert_eq!(client.read_line(), r#"{"draining":true}"#);
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());

    // One structured line per plan, refused or served; the startup line
    // is plain text.
    #[derive(serde::Deserialize)]
    struct PlanLogLine {
        req_id: Option<u64>,
        status: String,
    }
    let plans: Vec<(Option<u64>, String)> = String::from_utf8_lossy(&output.stderr)
        .lines()
        .filter_map(|line| serde_json::from_str::<PlanLogLine>(line).ok())
        .map(|line| (line.req_id, line.status))
        .collect();
    assert_eq!(
        plans,
        vec![
            (Some(1), "rejected".to_string()),
            (Some(2), "ok".to_string())
        ]
    );
}
