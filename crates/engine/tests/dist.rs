//! Distributed execution: the [`Coordinator`] must be an invisible
//! deployment detail.
//!
//! The contract under test: for any worker count, any shard count, and
//! any completion order — including orders forced by killing workers
//! mid-shard — the merged output is byte-identical (after timing
//! normalization) to the single-process [`Engine::run`] batch. Workers
//! here are real `veritasd` processes spawned from the build's own
//! binary, speaking the production wire protocol over loopback.

use std::net::SocketAddr;
use std::sync::Arc;

use veritas::VeritasConfig;
use veritas_engine::{
    AggregateMetric, AggregateSpec, Coordinator, DistConfig, Engine, FaultPlan, FaultSite, Query,
    QueryPlan, QueryRecord, QuerySet, RetryPolicy, RunSummary, ScenarioSpec, SessionCorpus,
    AGGREGATE_SESSION,
};

const SESSIONS: usize = 4;
const SEED: u64 = 17;

fn corpus() -> SessionCorpus {
    SessionCorpus::synthetic(SESSIONS, SEED)
}

/// One query of each execution shape: a plain per-session unit, a
/// scenario re-simulation, and a corpus-level fold.
fn dist_set() -> QuerySet {
    QuerySet::new("dist", VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::abduction("posterior"))
        .with_query(Query::counterfactual(
            "what-if-bba",
            ScenarioSpec::abr("bba"),
        ))
        .with_query(Query::aggregate(
            "mean-ssim",
            AggregateSpec::of(AggregateMetric::MeanSsim),
        ))
}

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_veritasd").to_string()]
}

/// Worker args that rebuild the coordinator's corpus bit-exactly.
fn worker_args() -> Vec<String> {
    vec![
        "--synthetic".to_string(),
        SESSIONS.to_string(),
        "--seed".to_string(),
        SEED.to_string(),
    ]
}

/// Serializes records with the timing fields zeroed: `elapsed_us` is
/// wall clock and `cache` depends on which worker's warm cache a unit
/// landed on; everything else must match bit for bit.
fn normalized(records: &[QueryRecord]) -> Vec<String> {
    records
        .iter()
        .map(|record| {
            let mut record = record.clone();
            record.elapsed_us = 0;
            record.cache = None;
            serde_json::to_string(&record).expect("records serialize")
        })
        .collect()
}

fn baseline() -> (Vec<String>, RunSummary) {
    let engine = Engine::builder().build().expect("build engine");
    let report = engine
        .run(Arc::new(corpus()), &dist_set())
        .expect("baseline run");
    (normalized(&report.records), report.summary)
}

#[test]
fn merge_is_byte_identical_across_worker_and_shard_counts() {
    let (expected, base) = baseline();
    let set = dist_set();
    // Worker and shard counts permute both the partitioning and the
    // completion order (each worker process races the others); every
    // combination must collapse to the same batch.
    for (workers, shards) in [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 4)] {
        let coordinator = Coordinator::spawn(
            workers,
            &worker_command(),
            &worker_args(),
            DistConfig {
                shards,
                ..DistConfig::default()
            },
        )
        .expect("spawn worker pool");
        let report = coordinator
            .run(Arc::new(corpus()), &set)
            .expect("distributed run");
        assert_eq!(
            normalized(&report.records),
            expected,
            "workers={workers} shards={shards}"
        );
        assert_eq!(report.summary.ok, base.ok, "workers={workers}");
        assert_eq!(report.summary.errors, 0, "workers={workers}");
        assert_eq!(report.summary.shard_retries, 0, "workers={workers}");
        assert_eq!(report.summary.threads, workers, "workers={workers}");
    }
}

#[test]
fn streaming_consumption_yields_the_same_record_set() {
    let (expected, _) = baseline();
    let set = dist_set();
    let coordinator =
        Coordinator::spawn(2, &worker_command(), &worker_args(), DistConfig::default())
            .expect("spawn worker pool");
    let shared: Arc<SessionCorpus> = Arc::new(corpus());
    let plan = Arc::new(QueryPlan::compile(&set, shared.as_ref()).expect("compile"));
    let mut handle = coordinator.submit(shared, plan).expect("submit");
    let streamed: Vec<QueryRecord> = (&mut handle).collect();
    let summary = handle.into_summary();
    // Streaming surfaces records in arrival order — a permutation of
    // the batch, never a different multiset.
    let mut streamed = normalized(&streamed);
    streamed.sort_unstable();
    let mut expected = expected;
    expected.sort_unstable();
    assert_eq!(streamed, expected);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.shard_retries, 0);
}

/// Finds a seed where the socket fault stream fires on draw 0 and stays
/// quiet for the next 15 draws: every worker process then resets exactly
/// the first request it receives and serves everything after, making the
/// chaos run's retry count — and its output — deterministic.
fn calibrated_socket_seed() -> u64 {
    (0..10_000u64)
        .find(|seed| {
            let probe =
                FaultPlan::parse(&format!("seed={seed},socket=0.05")).expect("valid fault spec");
            let draws: Vec<bool> = (0..16)
                .map(|_| probe.should_inject(FaultSite::Socket))
                .collect();
            draws[0] && !draws[1..].contains(&true)
        })
        .expect("a calibrated seed exists well inside 10k candidates")
}

#[test]
fn a_killed_worker_costs_retries_but_never_changes_the_output() {
    let (expected, _) = baseline();
    let workers = 3;
    let seed = calibrated_socket_seed();
    let mut args = worker_args();
    args.push("--fault-spec".to_string());
    args.push(format!("seed={seed},socket=0.05"));
    // One shard per worker and attempts = workers + 1: even if a shard's
    // retries walk the whole pool (each worker kills its own first
    // request), the last hop lands on a worker that has already spent
    // its fault.
    let coordinator = Coordinator::spawn(
        workers,
        &worker_command(),
        &args,
        DistConfig {
            shards: workers,
            retry: RetryPolicy::with_max_attempts(workers as u32 + 1),
            ..DistConfig::default()
        },
    )
    .expect("spawn faulted worker pool");
    let report = coordinator
        .run(Arc::new(corpus()), &dist_set())
        .expect("chaos run");
    // Each of the three workers reset exactly one request, so exactly
    // three shard dispatches were retried — and the merged batch is
    // still the fault-free bytes.
    assert_eq!(report.summary.shard_retries, workers as u64);
    assert_eq!(report.summary.errors, 0);
    assert_eq!(normalized(&report.records), expected);
}

#[test]
fn exhausted_shards_degrade_to_typed_error_records() {
    // Nothing listens here: every dispatch attempt is refused, so the
    // single shard exhausts its two attempts and the coordinator must
    // synthesize per-unit error records instead of failing the run.
    let dead: SocketAddr = "127.0.0.1:9".parse().expect("addr");
    let coordinator = Coordinator::connect(
        vec![dead],
        DistConfig {
            retry: RetryPolicy::with_max_attempts(2),
            ..DistConfig::default()
        },
    )
    .expect("connect");
    let report = coordinator
        .run(Arc::new(corpus()), &dist_set())
        .expect("a dead pool degrades, it does not abort");
    assert_eq!(report.summary.ok, 0);
    assert_eq!(report.summary.errors, report.records.len());
    assert_eq!(report.summary.shard_retries, 1, "one re-dispatch per shard");
    for record in &report.records {
        assert_eq!(record.status, "error");
        if record.session != AGGREGATE_SESSION {
            assert_eq!(record.attempts, Some(2));
            let error = record.error.as_deref().unwrap_or_default();
            assert!(
                error.contains("failed after 2 attempts"),
                "unit error must name the exhausted shard: {error}"
            );
        }
    }
}
