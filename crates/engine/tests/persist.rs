//! End-to-end tests of the persistent abduction store: a warm engine run
//! over an unchanged corpus must be record-identical to the cold run and
//! perform zero EHMM inferences.

use std::path::PathBuf;
use std::sync::Arc;

use veritas::{Abduction, VeritasConfig};
use veritas_ehmm::EhmmWorkspace;
use veritas_engine::{
    config_fingerprint, infer_prefix, log_fingerprint, AggregateMetric, AggregateSpec, ConfigSweep,
    DiskStore, Engine, EngineReport, PersistKey, Query, QueryRecord, ScenarioSpec, SessionCorpus,
    SyntheticSpec,
};
use veritas_engine::{QuerySet, RunSummary};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veritas_persist_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus() -> SessionCorpus {
    SyntheticSpec {
        sessions: 3,
        video_duration_s: 120.0,
        ..SyntheticSpec::default()
    }
    .build()
}

/// Every query kind at once, so the warm-start equivalence covers
/// full-session posteriors, horizon prefixes, sweep variants, and
/// aggregation folds.
fn query_set(corpus: &SessionCorpus) -> QuerySet {
    let chunks = corpus.sessions[0].log.records.len();
    QuerySet::new("persist-it", VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::abduction("ab"))
        .with_query(Query::interventional("iv").with_chunk_index(chunks.min(10)))
        .with_query(Query::counterfactual("cf", ScenarioSpec::abr("bba")))
        .with_query(Query::sweep(
            "sw",
            ConfigSweep::new().over_sigma(vec![0.25, 1.0]),
        ))
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
fn warm_run_is_record_identical_with_zero_inferences() {
    let dir = temp_dir("warm_equivalence");
    let corpus = corpus();
    let set = query_set(&corpus);

    let cold = Engine::builder().cache_dir(&dir).build().unwrap();
    let cold_report = cold.run(Arc::new(corpus.clone()), &set).unwrap();
    assert_eq!(cold_report.summary.errors, 0);
    assert_eq!(cold_report.summary.disk_hits, 0, "nothing to restore yet");
    assert!(cold_report.summary.cache_misses > 0);

    // A fresh engine — fresh in-memory cache, same store directory — is a
    // different process in every way that matters.
    let warm = Engine::builder().cache_dir(&dir).build().unwrap();
    let warm_report = warm.run(Arc::new(corpus.clone()), &set).unwrap();
    assert_eq!(warm_report.summary.errors, 0);
    assert_eq!(
        warm_report.summary.cache_misses, 0,
        "a warm run over an unchanged corpus must perform zero inferences"
    );
    assert_eq!(
        warm_report.summary.disk_hits, cold_report.summary.cache_misses,
        "every posterior the cold run inferred is restored exactly once"
    );
    for record in &warm_report.records {
        if let Some(cache) = &record.cache {
            assert!(
                cache == "disk" || cache == "hit",
                "warm-run unit used cache tier {cache:?}"
            );
        }
    }
    assert_eq!(
        normalized_jsonl(&warm_report),
        normalized_jsonl(&cold_report),
        "the warm record stream must be byte-identical to the cold one"
    );
}

#[test]
fn changed_corpus_content_misses_instead_of_serving_stale_posteriors() {
    let dir = temp_dir("stale");
    let corpus = corpus();
    let set = query_set(&corpus);
    Engine::builder()
        .cache_dir(&dir)
        .build()
        .unwrap()
        .run(Arc::new(corpus.clone()), &set)
        .unwrap();

    // Same session count and ids, different observed content.
    let changed = SyntheticSpec {
        sessions: 3,
        video_duration_s: 120.0,
        seed: 999,
        ..SyntheticSpec::default()
    }
    .build();
    let summary = Engine::builder()
        .cache_dir(&dir)
        .build()
        .unwrap()
        .run(Arc::new(changed.clone()), &set)
        .unwrap()
        .summary;
    assert_eq!(
        summary.disk_hits, 0,
        "a changed corpus must never restore another corpus's posteriors"
    );
    assert!(summary.cache_misses > 0);
}

#[test]
fn real_posteriors_round_trip_bit_equal_through_the_store() {
    let dir = temp_dir("bit_equal");
    let corpus = corpus();
    let config = VeritasConfig::paper_default();
    let store = DiskStore::open(&dir).unwrap();

    for (si, session) in corpus.sessions.iter().enumerate() {
        let horizon = session.log.records.len() - si; // vary the prefix
        let inferred = infer_prefix(&session.log, horizon, &config).unwrap();
        let key = PersistKey {
            log: log_fingerprint(&session.log),
            config: config_fingerprint(&config),
            horizon,
        };
        store.save(&key, &inferred).unwrap();

        let view = veritas_player::SessionLog {
            records: session.log.records[..horizon].to_vec(),
            ..session.log.clone()
        };
        let workspace = Arc::new(EhmmWorkspace::new(Abduction::spec_for(&config)));
        let restored = store
            .load(&key, &view, &config, workspace)
            .expect("a just-saved entry must load");

        // Bit-for-bit equality of every float, not approximate equality.
        let bits = |m: &veritas_ehmm::StateMatrix| -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(restored.viterbi_states(), inferred.viterbi_states());
        assert_eq!(
            bits(&restored.posteriors().gamma),
            bits(&inferred.posteriors().gamma)
        );
        assert_eq!(
            restored.posteriors().xi.len(),
            inferred.posteriors().xi.len()
        );
        for (a, b) in restored
            .posteriors()
            .xi
            .iter()
            .zip(&inferred.posteriors().xi)
        {
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(
            restored.posteriors().log_likelihood.to_bits(),
            inferred.posteriors().log_likelihood.to_bits()
        );
        // The downstream consumers agree exactly too.
        assert_eq!(restored.viterbi_trace(), inferred.viterbi_trace());
        assert_eq!(restored.sample_traces(4), inferred.sample_traces(4));
        assert_eq!(
            restored.posterior_mean_chunk_capacities(),
            inferred.posterior_mean_chunk_capacities()
        );
    }
}

#[test]
fn truncated_and_garbage_store_files_degrade_to_cold_runs() {
    let dir = temp_dir("tolerate");
    let corpus = corpus();
    let set = query_set(&corpus);
    let baseline = Engine::builder()
        .cache_dir(&dir)
        .build()
        .unwrap()
        .run(Arc::new(corpus.clone()), &set)
        .unwrap();

    // Mangle every persisted entry a different way.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "vpost"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "the cold run must persist entries");
    for (n, entry) in entries.iter().enumerate() {
        let bytes = std::fs::read(entry).unwrap();
        match n % 3 {
            0 => std::fs::write(entry, &bytes[..bytes.len() / 3]).unwrap(),
            1 => std::fs::write(entry, b"\xDE\xAD\xBE\xEF garbage").unwrap(),
            _ => {
                let mut flipped = bytes;
                let mid = flipped.len() / 2;
                flipped[mid] ^= 0xFF;
                std::fs::write(entry, flipped).unwrap();
            }
        }
    }

    let summary: RunSummary = Engine::builder()
        .cache_dir(&dir)
        .build()
        .unwrap()
        .run(Arc::new(corpus.clone()), &set)
        .unwrap()
        .summary;
    assert_eq!(
        summary.errors, 0,
        "corrupt entries must never become errors"
    );
    assert_eq!(summary.disk_hits, 0, "nothing valid to restore");
    assert_eq!(summary.cache_misses, baseline.summary.cache_misses);

    // The corrupted entries were overwritten by write-through; a third
    // run restores everything again.
    let healed = Engine::builder()
        .cache_dir(&dir)
        .build()
        .unwrap()
        .run(Arc::new(corpus.clone()), &set)
        .unwrap()
        .summary;
    assert_eq!(healed.cache_misses, 0);
    assert_eq!(healed.disk_hits, baseline.summary.cache_misses);
}
