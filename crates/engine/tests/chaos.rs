//! Chaos tests: the supervision layer's core invariant.
//!
//! Under any seeded [`FaultPlan`] over an intact corpus, a run with
//! retries enabled must emit records identical (after timing
//! normalization) to the fault-free run — faults are absorbed, never
//! observable in the output. With retries disabled the same faults must
//! surface as typed per-record errors: the run completes, nothing
//! panics, nothing hangs.
//!
//! Every test pins `threads(1)`, which makes the fault schedule fully
//! deterministic: one worker drains the units in plan order, so the
//! mapping from fault-plan sequence numbers to units never varies. The
//! seeds below were chosen so each spec provably injects within the
//! run's minimum draw window.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use veritas::VeritasConfig;
use veritas_engine::{
    ingest_dir, Engine, FaultPlan, FaultSite, LazyCorpus, Query, QueryPlan, QueryRecord, QuerySet,
    RetryPolicy, ScenarioSpec, SessionCorpus,
};

/// Chaos specs for the invariant test: per-site rates at or below 20%,
/// seeds picked so at least one compute/panic fault lands within the
/// run's eight guaranteed abduction draws.
const CHAOS_SPECS: [&str; 3] = [
    "seed=5,compute=0.2,panic=0.05",
    "seed=10,compute=0.2,panic=0.05",
    "seed=303,compute=0.1,panic=0.2",
];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veritas_chaos_it_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chaos_set(name: &str) -> QuerySet {
    QuerySet::new(name, VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::abduction("posterior"))
        .with_query(Query::counterfactual(
            "what-if-bba",
            ScenarioSpec::abr("bba"),
        ))
}

fn normalize(mut record: QueryRecord) -> QueryRecord {
    record.elapsed_us = 0;
    record.cache = None;
    record
}

/// A retry policy tuned for tests: plenty of attempts, microsecond
/// backoffs so absorbed faults don't slow the suite down.
fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(2),
        seed: 0xC0FFEE,
    }
}

#[test]
fn seeded_faults_with_retries_reproduce_the_fault_free_run() {
    let corpus = SessionCorpus::synthetic(4, 17);
    let set = chaos_set("chaos-invariant");
    let baseline: Vec<QueryRecord> = Engine::builder()
        .threads(1)
        .build()
        .unwrap()
        .run(Arc::new(corpus.clone()), &set)
        .unwrap()
        .records
        .into_iter()
        .map(normalize)
        .collect();
    assert_eq!(baseline.len(), 8);

    for spec in CHAOS_SPECS {
        let plan = Arc::new(FaultPlan::parse(spec).unwrap());
        let engine = Engine::builder()
            .threads(1)
            .fault_plan(Arc::clone(&plan))
            .retry_policy(fast_retry(10))
            .build()
            .unwrap();
        let report = engine.run(Arc::new(corpus.clone()), &set).unwrap();

        assert!(
            plan.total_injected() > 0,
            "{spec}: the plan never fired — the test proves nothing"
        );
        assert!(
            report.summary.retries > 0,
            "{spec}: faults were injected but nothing retried"
        );
        assert_eq!(
            report.summary.quarantined,
            Vec::<String>::new(),
            "{spec}: low-rate faults must never exhaust 10 attempts"
        );
        assert_eq!(
            report.summary.errors, 0,
            "{spec}: retries must absorb every fault"
        );
        let got: Vec<QueryRecord> = report.records.into_iter().map(normalize).collect();
        assert_eq!(
            got, baseline,
            "{spec}: a faulted run with retries must be indistinguishable from fault-free"
        );
    }
}

#[test]
fn injected_faults_without_retries_surface_as_typed_records() {
    let corpus = SessionCorpus::synthetic(4, 17);
    let set = chaos_set("chaos-no-retry");

    for spec in CHAOS_SPECS {
        let plan = Arc::new(FaultPlan::parse(spec).unwrap());
        let engine = Engine::builder()
            .threads(1)
            .fault_plan(Arc::clone(&plan))
            .build()
            .unwrap();
        // The run itself must succeed: faults are per-unit, never fatal.
        let report = engine.run(Arc::new(corpus.clone()), &set).unwrap();

        assert!(plan.total_injected() > 0, "{spec}: the plan never fired");
        assert!(
            report.summary.errors > 0,
            "{spec}: with no retry policy an injected fault must surface"
        );
        assert_eq!(report.summary.retries, 0);
        assert_eq!(report.records.len(), 8, "{spec}: every unit still answers");
        for record in &report.records {
            if record.is_ok() {
                continue;
            }
            let error = record.error.as_deref().unwrap_or_default();
            assert!(
                error.contains("injected compute fault")
                    || error.contains("worker panicked: injected compute panic"),
                "{spec}: unexpected error text `{error}`"
            );
            assert_eq!(
                record.attempts, None,
                "{spec}: attempts is only reported under a retry policy"
            );
        }
    }
}

#[test]
fn exhausted_retries_quarantine_the_session() {
    let corpus = SessionCorpus::synthetic(2, 9);
    let set = QuerySet::new(
        "chaos-quarantine",
        VeritasConfig::paper_default().with_samples(2),
    )
    .with_query(Query::abduction("first"))
    .with_query(Query::abduction("second"));
    let plan = Arc::new(FaultPlan::parse("seed=1,compute=1").unwrap());
    let engine = Engine::builder()
        .threads(1)
        .fault_plan(plan)
        .retry_policy(fast_retry(2))
        .build()
        .unwrap();
    let report = engine.run(Arc::new(corpus.clone()), &set).unwrap();

    let mut expected: Vec<String> = corpus.sessions.iter().map(|s| s.id.clone()).collect();
    expected.sort();
    assert_eq!(
        report.summary.quarantined, expected,
        "every session must be quarantined under a certain fault"
    );
    assert_eq!(report.summary.errors, 4);
    // One exhausting unit per session, each burning one retry.
    assert_eq!(report.summary.retries, 2);

    let exhausted: Vec<&QueryRecord> = report
        .records
        .iter()
        .filter(|r| r.attempts == Some(2))
        .collect();
    assert_eq!(
        exhausted.len(),
        2,
        "one unit per session exhausts its attempts"
    );
    for record in &exhausted {
        let error = record.error.as_deref().unwrap();
        assert!(
            error.contains("injected compute fault")
                || error.contains("worker panicked: injected compute panic"),
            "exhausted unit carries the last attempt's error, got `{error}`"
        );
    }
    let short_circuited: Vec<&QueryRecord> = report
        .records
        .iter()
        .filter(|r| {
            r.error
                .as_deref()
                .is_some_and(|e| e.contains("quarantined after repeated failures"))
        })
        .collect();
    assert_eq!(
        short_circuited.len(),
        2,
        "later units on a quarantined session answer without running"
    );
    for record in &short_circuited {
        assert_eq!(record.attempts, None, "short-circuits never attempt");
    }
}

#[test]
fn decode_faults_over_an_intact_vcorp_heal_through_retries() {
    let dir = temp_dir("decode");
    let sessions_dir = dir.join("sessions");
    let _ = std::fs::remove_dir_all(&sessions_dir);
    std::fs::create_dir_all(&sessions_dir).unwrap();
    let source = SessionCorpus::synthetic(3, 71);
    for session in &source.sessions {
        let path = sessions_dir.join(format!("{}.json", session.id));
        std::fs::write(path, session.log.to_json()).unwrap();
    }
    let vcorp = dir.join("corpus.vcorp");
    ingest_dir(&sessions_dir, &vcorp).unwrap();

    let set = chaos_set("chaos-decode");
    let clean = Arc::new(LazyCorpus::open(&vcorp).unwrap());
    let plan_clean = Arc::new(QueryPlan::compile(&set, clean.as_ref()).unwrap());
    let baseline: Vec<QueryRecord> = Engine::builder()
        .threads(1)
        .build()
        .unwrap()
        .submit_shared(clean, plan_clean)
        .unwrap()
        .wait()
        .records
        .into_iter()
        .map(normalize)
        .collect();

    // seed=3 injects twice within the first three decode draws — the
    // three guaranteed first-loads of a three-session corpus.
    let plan = Arc::new(FaultPlan::parse("seed=3,decode=0.2").unwrap());
    let faulted = Arc::new(
        LazyCorpus::open(&vcorp)
            .unwrap()
            .with_fault_plan(Arc::clone(&plan)),
    );
    let query_plan = Arc::new(QueryPlan::compile(&set, faulted.as_ref()).unwrap());
    let engine = Engine::builder()
        .threads(1)
        .retry_policy(fast_retry(10))
        .build()
        .unwrap();
    let report = engine.submit_shared(faulted, query_plan).unwrap().wait();

    assert!(
        plan.injected(FaultSite::Decode) > 0,
        "the decode site never fired"
    );
    assert!(report.summary.retries > 0, "decode faults must be retried");
    assert_eq!(report.summary.errors, 0);
    let got: Vec<QueryRecord> = report.records.into_iter().map(normalize).collect();
    assert_eq!(
        got, baseline,
        "retried decodes must reproduce the clean run"
    );
}

#[test]
fn disk_tier_faults_degrade_to_misses_without_errors() {
    let dir = temp_dir("disk");
    let cache_dir = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let corpus = SessionCorpus::synthetic(4, 17);
    let set = chaos_set("chaos-disk");

    // A clean run populates the persistent store.
    let warm = Engine::builder()
        .threads(1)
        .cache_dir(&cache_dir)
        .build()
        .unwrap();
    let baseline: Vec<QueryRecord> = warm
        .run(Arc::new(corpus.clone()), &set)
        .unwrap()
        .records
        .into_iter()
        .map(normalize)
        .collect();

    // A fresh engine over the warm store, with both disk sites faulted:
    // reads degrade to misses (recompute), writes are best-effort.
    // Neither site may ever produce a unit error — no retries needed.
    let plan = Arc::new(FaultPlan::parse("seed=2,disk_read=0.5,disk_write=0.5").unwrap());
    let engine = Engine::builder()
        .threads(1)
        .cache_dir(&cache_dir)
        .fault_plan(Arc::clone(&plan))
        .build()
        .unwrap();
    let report = engine.run(Arc::new(corpus.clone()), &set).unwrap();

    assert!(plan.total_injected() > 0, "the disk sites never fired");
    assert_eq!(report.summary.errors, 0, "disk faults must stay invisible");
    assert_eq!(report.summary.retries, 0);
    let got: Vec<QueryRecord> = report.records.into_iter().map(normalize).collect();
    assert_eq!(got, baseline);
}
