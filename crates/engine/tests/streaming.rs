//! Integration tests for the compile → execute → consume pipeline:
//! streamed records must match the batch path exactly (any order, any
//! thread count), sweeps must expand config grids through one plan, and
//! aggregations must fold correctly from the stream.

use std::sync::Arc;

use veritas::VeritasConfig;
use veritas_engine::{
    AggregateMetric, AggregateSpec, ConfigSweep, Engine, Query, QueryPlan, QueryRecord, QuerySet,
    ScenarioSpec, SessionCorpus, SyntheticSpec, AGGREGATE_SESSION,
};

fn corpus(sessions: usize) -> Arc<SessionCorpus> {
    Arc::new(
        SyntheticSpec {
            sessions,
            video_duration_s: 120.0,
            ..SyntheticSpec::default()
        }
        .build(),
    )
}

fn config() -> VeritasConfig {
    VeritasConfig::paper_default().with_samples(2)
}

/// Strips the fields that legitimately differ between two executions of
/// the same plan: wall-clock timing, and which concurrent unit won the
/// race to be the cache miss.
fn normalized(mut record: QueryRecord) -> QueryRecord {
    record.elapsed_us = 0;
    record.cache = None;
    record
}

fn sorted(mut records: Vec<QueryRecord>) -> Vec<QueryRecord> {
    records.sort_by(|a, b| {
        (&a.query_id, &a.variant, &a.session).cmp(&(&b.query_id, &b.variant, &b.session))
    });
    records
}

#[test]
fn streamed_records_match_the_batch_run_exactly() {
    let corpus = corpus(3);
    let set = QuerySet::new("equivalence", config())
        .with_query(Query::abduction("ab"))
        .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")))
        .with_query(Query::interventional("iv"))
        .with_query(Query::counterfactual("cf-seeded", ScenarioSpec::abr("bola")).with_seed(99));
    let batch = Engine::new().run(corpus.clone(), &set).unwrap();

    let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref()).unwrap());
    for threads in [1, 2, 3] {
        let engine = Engine::builder().threads(threads).build().unwrap();
        let mut handle = engine
            .submit_shared(corpus.clone(), Arc::clone(&plan))
            .unwrap();
        let streamed: Vec<QueryRecord> = (&mut handle).collect();
        let summary = handle.into_summary();
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.threads, threads);
        assert_eq!(streamed.len(), batch.records.len());
        let streamed = sorted(streamed.into_iter().map(normalized).collect());
        let expected = sorted(batch.records.iter().cloned().map(normalized).collect());
        assert_eq!(
            streamed, expected,
            "streamed records (threads={threads}) must match Engine::run records"
        );
    }
}

#[test]
fn entries_left_unsmoothed_by_interventional_units_answer_later_queries_identically() {
    // Interventional units run Viterbi only. An abduction, a counterfactual
    // (whose sampling smooths) and an aggregate over the same full-horizon
    // keys then reuse those entries and must answer exactly as a fresh
    // engine that infers them does.
    let corpus = corpus(2);
    let chunks = corpus
        .sessions
        .iter()
        .map(|s| s.log.records.len())
        .min()
        .unwrap();
    let next_chunk = QuerySet::new("next-chunk", config())
        .with_query(Query::interventional("iv-early").with_chunk_index(5))
        .with_query(Query::interventional("iv-mid").with_chunk_index(chunks / 2))
        .with_query(Query::interventional("iv-last"));
    let later = QuerySet::new("later", config())
        .with_query(Query::abduction("ab"))
        .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")))
        .with_query(Query::aggregate(
            "agg",
            AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
        ));

    let engine = Engine::builder().threads(2).build().unwrap();
    let first = engine.run(corpus.clone(), &next_chunk).unwrap();
    assert_eq!(first.summary.errors, 0);
    assert_eq!(
        first.summary.cache_misses, 6,
        "two sessions at three horizons"
    );
    let reused = engine.run(corpus.clone(), &later).unwrap();
    assert_eq!(reused.summary.errors, 0);
    assert_eq!(
        reused.summary.cache_misses, 0,
        "the later queries read the interventional units' entries"
    );
    let fresh = Engine::builder()
        .threads(2)
        .build()
        .unwrap()
        .run(corpus.clone(), &later)
        .unwrap();
    assert_eq!(fresh.summary.cache_misses, 2);
    let normalize = |records: &[QueryRecord]| {
        let records: Vec<QueryRecord> = records.iter().cloned().map(normalized).collect();
        sorted(records)
    };
    assert_eq!(normalize(&reused.records), normalize(&fresh.records));
}

#[test]
fn run_is_submit_then_wait() {
    let corpus = corpus(2);
    let set = QuerySet::new("wrap", config())
        .with_query(Query::abduction("ab"))
        .with_query(Query::counterfactual("cf", ScenarioSpec::buffer(30.0)));
    let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref()).unwrap());
    let via_run = Engine::new().run(corpus.clone(), &set).unwrap();
    let via_wait = Engine::new()
        .submit_shared(corpus.clone(), plan)
        .unwrap()
        .wait();
    // Deterministic order on both paths, identical outputs.
    let a: Vec<QueryRecord> = via_run.records.into_iter().map(normalized).collect();
    let b: Vec<QueryRecord> = via_wait.records.into_iter().map(normalized).collect();
    assert_eq!(a, b);
}

#[test]
fn sweep_expands_variants_through_one_plan() {
    let corpus = corpus(2);
    let set = QuerySet::new("sweep", config()).with_query(Query::sweep(
        "sigma-sweep",
        ConfigSweep::new().over_sigma(vec![0.25, 0.5, 1.0]),
    ));
    let plan = QueryPlan::compile(&set, corpus.as_ref()).unwrap();
    assert_eq!(plan.units().len(), 6, "3 variants x 2 sessions");
    assert_eq!(plan.configs().len(), 4, "base + 3 variants");

    let report = Engine::new().run(corpus.clone(), &set).unwrap();
    assert_eq!(report.summary.units, 6);
    assert_eq!(report.summary.errors, 0);
    let mut variants: Vec<String> = report
        .records
        .iter()
        .map(|r| r.variant.clone().expect("sweep records carry a variant"))
        .collect();
    variants.sort();
    variants.dedup();
    assert_eq!(
        variants,
        vec!["sigma=0.25", "sigma=0.5", "sigma=1"],
        "every config variant must be labeled in the records"
    );
    // Distinct posteriors per sigma: the noisier emission model must not
    // produce bitwise-identical capacity estimates for every variant.
    let mean_for = |variant: &str| -> f64 {
        report
            .records
            .iter()
            .find(|r| r.variant.as_deref() == Some(variant) && r.session == "session-0")
            .and_then(|r| r.output.as_ref())
            .and_then(|o| o.mean_capacity_mbps)
            .expect("sweep abduction output")
    };
    assert_ne!(mean_for("sigma=0.25"), mean_for("sigma=1"));
}

#[test]
fn counterfactual_sweep_replays_each_variant() {
    let corpus = corpus(2);
    let set = QuerySet::new("cf-sweep", config()).with_query(
        Query::sweep(
            "samples-sweep",
            ConfigSweep::new().over_samples(vec![1, 2, 3]),
        )
        .with_scenario(ScenarioSpec::abr("bba")),
    );
    let report = Engine::new().run(corpus.clone(), &set).unwrap();
    assert_eq!(report.summary.errors, 0);
    assert_eq!(report.summary.units, 6);
    // The sample-count axis steers posterior sampling of the replay.
    for expected in [1usize, 2, 3] {
        let record = report
            .records
            .iter()
            .find(|r| r.variant.as_deref() == Some(&format!("samples={expected}")))
            .unwrap();
        let veritas = record.output.as_ref().unwrap().veritas.unwrap();
        assert_eq!(veritas.samples, expected);
    }
    // One abduction per session serves all three variants: the sampling
    // count is excluded from the cache fingerprint.
    assert_eq!(report.summary.cache_misses, 2);
    assert_eq!(report.summary.cache_hits, 4);
}

#[test]
fn aggregate_folds_incrementally_from_the_stream() {
    let corpus = corpus(4);
    let set = QuerySet::new("agg", config())
        .with_query(Query::abduction("ab"))
        .with_query(Query::aggregate(
            "capacity",
            AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
        ));
    let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref()).unwrap());
    let engine = Engine::new();
    let mut handle = engine.submit_shared(corpus.clone(), plan).unwrap();
    let records: Vec<QueryRecord> = (&mut handle).collect();
    let summary = handle.into_summary();
    assert_eq!(summary.errors, 0);
    // 4 abduction + 4 aggregate units + 1 folded record.
    assert_eq!(records.len(), 9);
    assert_eq!(summary.units, 9);

    let finals: Vec<&QueryRecord> = records
        .iter()
        .filter(|r| r.session == AGGREGATE_SESSION)
        .collect();
    assert_eq!(finals.len(), 1);
    let aggregate = finals[0].output.as_ref().unwrap().aggregate.unwrap();
    assert_eq!(aggregate.metric, AggregateMetric::MeanCapacityMbps);
    assert_eq!(aggregate.sessions, 4);

    // The fold must equal a reduction over the per-session scalars.
    let mut values: Vec<f64> = records
        .iter()
        .filter(|r| r.query_id == "capacity" && r.session != AGGREGATE_SESSION)
        .map(|r| r.output.as_ref().unwrap().metric_value.unwrap())
        .collect();
    assert_eq!(values.len(), 4);
    values.sort_by(f64::total_cmp);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    assert!((aggregate.mean - mean).abs() < 1e-12);
    assert_eq!(aggregate.min, values[0]);
    assert_eq!(aggregate.max, values[3]);
    assert!(aggregate.min <= aggregate.p50 && aggregate.p50 <= aggregate.p95);
    assert!(aggregate.p95 <= aggregate.max);
    // The per-session scalar is the abduction's posterior mean capacity —
    // cross-check against the plain abduction query on the same sessions.
    for record in records.iter().filter(|r| r.query_id == "ab") {
        let expected = record.output.as_ref().unwrap().mean_capacity_mbps.unwrap();
        let scalar = records
            .iter()
            .find(|r| r.query_id == "capacity" && r.session == record.session)
            .and_then(|r| r.output.as_ref())
            .and_then(|o| o.metric_value)
            .unwrap();
        assert_eq!(scalar, expected);
    }
}

#[test]
fn qoe_aggregates_replay_the_declared_scenario() {
    let corpus = corpus(2);
    let set = QuerySet::new("agg-qoe", config())
        .with_query(Query::aggregate(
            "rebuffer-bba",
            AggregateSpec::of(AggregateMetric::RebufferRatioPercent)
                .with_scenario(ScenarioSpec::abr("bba")),
        ))
        .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")));
    let report = Engine::new().run(corpus.clone(), &set).unwrap();
    assert_eq!(report.summary.errors, 0);
    let aggregate = report.aggregate_for("rebuffer-bba").unwrap();
    assert_eq!(aggregate.sessions, 2);
    // Each per-session scalar is the Veritas-median rebuffer ratio of the
    // same counterfactual replay.
    for record in report.records_for("cf") {
        let veritas = record.output.as_ref().unwrap().veritas.unwrap();
        let scalar = report
            .records
            .iter()
            .find(|r| r.query_id == "rebuffer-bba" && r.session == record.session)
            .and_then(|r| r.output.as_ref())
            .and_then(|o| o.metric_value)
            .unwrap();
        assert_eq!(scalar, veritas.rebuffer_median);
    }
    // And the fold is bounded by its contributions.
    assert!(aggregate.min <= aggregate.mean && aggregate.mean <= aggregate.max);
}

#[test]
fn aggregate_over_failing_units_reports_a_fold_error() {
    let corpus = corpus(2);
    let set = QuerySet::new("agg-err", config()).with_query(Query::aggregate(
        "broken",
        AggregateSpec::of(AggregateMetric::MeanSsim).with_scenario(ScenarioSpec::abr("pensieve")),
    ));
    let report = Engine::new().run(corpus.clone(), &set).unwrap();
    // 2 unit errors + 1 fold error.
    assert_eq!(report.summary.errors, 3);
    assert_eq!(report.aggregate_for("broken"), None);
    let fold = report
        .records
        .iter()
        .find(|r| r.session == AGGREGATE_SESSION)
        .unwrap();
    assert!(!fold.is_ok());
    assert!(fold.error.as_ref().unwrap().contains("no session"));
}

#[test]
fn sweep_and_aggregate_round_trip_through_query_json() {
    let set = QuerySet::new("wire", config())
        .with_query(Query::sweep(
            "sw",
            ConfigSweep::new()
                .over_sigma(vec![0.25, 0.5])
                .over_stay_probability(vec![0.7, 0.9]),
        ))
        .with_query(Query::aggregate(
            "agg",
            AggregateSpec::of(AggregateMetric::AvgBitrateMbps)
                .with_scenario(ScenarioSpec::ladder("higher")),
        ));
    assert!(set.validate().is_ok());
    let back = QuerySet::from_json(&set.to_json()).unwrap();
    assert_eq!(back, set);
    // Typos inside the new specs are rejected with pointed errors.
    let err = QuerySet::from_json(
        r#"{"queries": [{"id": "s", "kind": "sweep", "sweep": {"sigma": [0.5]}}]}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("sigma"), "{err}");
    let err = QuerySet::from_json(
        r#"{"queries": [{"id": "a", "kind": "aggregate", "aggregate": {"metric": "qoe"}}]}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("qoe"), "{err}");
}

#[test]
fn partial_iteration_then_summary_is_safe() {
    let corpus = corpus(3);
    let set = QuerySet::new("partial", config()).with_query(Query::abduction("ab"));
    let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref()).unwrap());
    let engine = Engine::new();
    let mut handle = engine
        .submit_shared(corpus.clone(), Arc::clone(&plan))
        .unwrap();
    let first = handle.next().unwrap();
    assert!(first.is_ok());
    // into_summary drains the rest; every unit is still accounted for.
    let summary = handle.into_summary();
    assert_eq!(summary.units, 3);
    assert_eq!(summary.ok, 3);

    // Dropping a handle mid-run must not hang or panic.
    let handle = engine.submit_shared(corpus, plan).unwrap();
    drop(handle);
}
