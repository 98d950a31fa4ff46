//! Criterion benchmarks of the end-to-end pipelines: session emulation,
//! full abduction on a recorded session, a complete counterfactual
//! comparison (abduction + K replays + baseline + oracle), and the query
//! engine over a shared-session query set.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use veritas::{Abduction, CounterfactualEngine, Scenario, VeritasConfig};
use veritas_abr::Mpc;
use veritas_engine::{Corpus, Engine, QuerySet, SyntheticSpec};
use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_player::{run_session, PlayerConfig};
use veritas_trace::generators::{FccLike, TraceGenerator};

fn bench_pipeline(c: &mut Criterion) {
    let asset = VideoAsset::generate(
        QualityLadder::paper_default(),
        240.0,
        2.0,
        VbrParams::default(),
        1,
    );
    let player = PlayerConfig::paper_default();
    let truth = FccLike::new(3.0, 8.0).generate(1200.0, 9);
    let mut abr = Mpc::new();
    let log = run_session(&asset, &mut abr, &truth, &player);
    let config = VeritasConfig::paper_default().with_samples(3);

    c.bench_function("emulate_session_120_chunks", |b| {
        b.iter(|| {
            let mut abr = Mpc::new();
            run_session(
                black_box(&asset),
                &mut abr,
                black_box(&truth),
                black_box(&player),
            )
        })
    });

    // `Abduction::infer` decodes Viterbi only and smooths on the first
    // posterior read; reading `.posteriors()` keeps this id timing a full
    // abduction (Viterbi plus forward–backward), as the baseline recorded.
    c.bench_function("abduction_120_chunks", |b| {
        b.iter(|| {
            let abduction = Abduction::infer(black_box(&log), black_box(&config));
            black_box(abduction.posteriors());
            abduction
        })
    });

    c.bench_function("counterfactual_compare_120_chunks", |b| {
        let engine = CounterfactualEngine::new(config);
        let scenario = Scenario::new("bba", player, asset.clone());
        b.iter(|| engine.compare(black_box(&log), black_box(&truth), black_box(&scenario)))
    });
}

fn bench_engine(c: &mut Criterion) {
    // The acceptance workload: a 10-query set over a 4-session corpus
    // where every query touches every session, abduced once per session.
    let corpus: Arc<dyn Corpus> = Arc::new(
        SyntheticSpec {
            sessions: 4,
            video_duration_s: 120.0,
            ..SyntheticSpec::default()
        }
        .build(),
    );
    let set = QuerySet::cache_stress(10);
    let engine = |threads| Engine::builder().threads(threads);

    c.bench_function("engine/queryset_10q4s_cached", |b| {
        b.iter(|| {
            let engine = engine(1).build().unwrap();
            let report = engine
                .run(black_box(Arc::clone(&corpus)), black_box(&set))
                .unwrap();
            assert_eq!(report.summary.cache_misses, 4);
            report
        })
    });

    // The CI smoke workload: the 3-query example set over a 5-session
    // corpus (tracked in BENCH_baseline.json as engine_queryset_small).
    let small_corpus: Arc<dyn Corpus> = Arc::new(
        SyntheticSpec {
            sessions: 5,
            video_duration_s: 120.0,
            ..SyntheticSpec::default()
        }
        .build(),
    );
    let small_set = QuerySet::example();
    c.bench_function("engine_queryset_small", |b| {
        b.iter(|| {
            let engine = engine(1).build().unwrap();
            engine
                .run(black_box(Arc::clone(&small_corpus)), black_box(&small_set))
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_engine
}
criterion_main!(benches);
