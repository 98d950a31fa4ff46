//! Projection differential tests: for every query kind, a run over a
//! lazily loaded `.vcorp` (where the executor requests only the plan's
//! column demand) must be record-identical to the same run over the
//! eager JSON-directory corpus (which always decodes everything), and
//! must reuse the eager run's persisted cache entries — proving that
//! column projection changes neither answers nor cache keys.

use std::path::PathBuf;
use std::sync::Arc;

use veritas::VeritasConfig;
use veritas_engine::{
    ingest_dir, AggregateMetric, AggregateSpec, ColumnSet, ConfigSweep, Corpus, Engine,
    EngineReport, LazyCorpus, Query, QueryPlan, QueryRecord, QuerySet, ScenarioSpec, SessionCorpus,
    SyntheticSpec,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veritas_projection_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every query kind at once — including both sweep shapes, whose column
/// demand differs (a scenario sweep replays downloads and needs the
/// end-time column; a config-only sweep does not).
fn query_set(corpus: &SessionCorpus) -> QuerySet {
    let chunks = corpus.sessions[0].log.records.len();
    QuerySet::new(
        "projection-it",
        VeritasConfig::paper_default().with_samples(2),
    )
    .with_query(Query::abduction("ab"))
    .with_query(Query::interventional("iv").with_chunk_index(chunks.min(10)))
    .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")))
    .with_query(Query::sweep(
        "sw",
        ConfigSweep::new().over_sigma(vec![0.25, 1.0]),
    ))
    .with_query(
        Query::sweep(
            "sw-scenario",
            ConfigSweep::new().over_sigma(vec![0.25, 1.0]),
        )
        .with_scenario(ScenarioSpec::abr("bba")),
    )
    .with_query(Query::aggregate(
        "agg",
        AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
    ))
}

/// The comparable projection of a record stream: everything except the
/// wall-clock timing and the cache-tier tag, which legitimately differ
/// between a cold and a warm run. Byte-compared via JSON.
fn normalized_jsonl(report: &EngineReport) -> String {
    let mut out = String::new();
    for record in &report.records {
        let mut record: QueryRecord = record.clone();
        record.elapsed_us = 0;
        record.cache = None;
        out.push_str(&serde_json::to_string(&record).unwrap());
        out.push('\n');
    }
    out
}

#[test]
fn every_query_kind_is_projection_neutral_between_corpus_sources() {
    let dir = temp_dir("neutrality");
    let cache_dir = dir.join("cache");
    let json_dir = dir.join("sessions");
    std::fs::create_dir_all(&json_dir).unwrap();

    let source = SyntheticSpec {
        sessions: 3,
        video_duration_s: 120.0,
        ..SyntheticSpec::default()
    }
    .build();
    for session in &source.sessions {
        let path = json_dir.join(format!("{}.json", session.id));
        std::fs::write(path, session.log.to_json()).unwrap();
    }
    let vcorp = dir.join("corpus.vcorp");
    ingest_dir(&json_dir, &vcorp).unwrap();

    // Baseline: the eager directory corpus decodes every field of every
    // record, and its cold run populates the persistent cache.
    let eager = SessionCorpus::from_dir(&json_dir).unwrap();
    let set = query_set(&eager);
    let cold = Engine::builder().cache_dir(&cache_dir).build().unwrap();
    let baseline = cold.run(Arc::new(eager.clone()), &set).unwrap();
    assert_eq!(baseline.summary.errors, 0);
    assert!(baseline.summary.cache_misses > 0, "cold run must infer");

    // The lazy corpus serves the same plan with projected decodes.
    let lazy = Arc::new(LazyCorpus::open(&vcorp).unwrap());
    let plan = Arc::new(QueryPlan::compile(&set, lazy.as_ref()).unwrap());
    assert!(
        !plan.column_demand_union().is_all(),
        "this query set must not demand every column, or the test proves nothing"
    );
    let warm = Engine::builder().cache_dir(&cache_dir).build().unwrap();
    let report = warm
        .submit_shared(Arc::clone(&lazy) as Arc<dyn Corpus>, plan)
        .unwrap()
        .wait();
    assert_eq!(report.summary.errors, 0);

    // Identical answers...
    assert_eq!(
        normalized_jsonl(&report),
        normalized_jsonl(&baseline),
        "projected decodes must reproduce the eager run for every query kind"
    );
    // ...from identical cache keys: every unit of the projected run is
    // served by entries the eager run persisted.
    assert_eq!(
        report.summary.cache_misses, 0,
        "projection must not change cache keys"
    );
    assert!(report.summary.disk_hits > 0);
    // And the run really was projected: had every decode been full, the
    // corpus would report len × ColumnSet::COUNT columns (or more).
    let decoded = lazy.columns_decoded();
    assert!(decoded > 0, "the lazy corpus was never decoded");
    assert!(
        decoded < (lazy.len() * ColumnSet::COUNT) as u64,
        "expected projected decodes, got {decoded} columns over {} sessions",
        lazy.len()
    );
}

#[test]
fn mmap_backed_runs_match_pread_backed_runs() {
    let dir = temp_dir("mmap");
    let cache_dir = dir.join("cache");
    let json_dir = dir.join("sessions");
    std::fs::create_dir_all(&json_dir).unwrap();

    let source = SyntheticSpec {
        sessions: 2,
        video_duration_s: 120.0,
        ..SyntheticSpec::default()
    }
    .build();
    for session in &source.sessions {
        let path = json_dir.join(format!("{}.json", session.id));
        std::fs::write(path, session.log.to_json()).unwrap();
    }
    let vcorp = dir.join("corpus.vcorp");
    ingest_dir(&json_dir, &vcorp).unwrap();

    let pread = Arc::new(LazyCorpus::open(&vcorp).unwrap());
    let set = {
        let probe = SessionCorpus::from_dir(&json_dir).unwrap();
        query_set(&probe)
    };
    let plan = Arc::new(QueryPlan::compile(&set, pread.as_ref()).unwrap());
    let cold = Engine::builder().cache_dir(&cache_dir).build().unwrap();
    let baseline = cold
        .submit_shared(Arc::clone(&pread) as Arc<dyn Corpus>, Arc::clone(&plan))
        .unwrap()
        .wait();
    assert_eq!(baseline.summary.errors, 0);

    let mapped = Arc::new(LazyCorpus::open(&vcorp).unwrap().with_mmap());
    let warm = Engine::builder().cache_dir(&cache_dir).build().unwrap();
    let report = warm
        .submit_shared(Arc::clone(&mapped) as Arc<dyn Corpus>, plan)
        .unwrap()
        .wait();
    assert_eq!(report.summary.errors, 0);
    assert_eq!(
        normalized_jsonl(&report),
        normalized_jsonl(&baseline),
        "an mmap-backed corpus must reproduce the pread-backed run"
    );
    assert_eq!(report.summary.cache_misses, 0);
}
