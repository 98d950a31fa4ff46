//! Criterion benchmarks of the end-to-end pipelines: session emulation,
//! full abduction on a recorded session, a complete counterfactual
//! comparison (abduction + K replays + baseline + oracle), the query
//! engine over a shared-session query set, one warm next-chunk request,
//! the parse of its query set, and the JSONL bytes of its response.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use veritas::{Abduction, CounterfactualEngine, Scenario, VeritasConfig};
use veritas_abr::Mpc;
use veritas_engine::{
    Corpus, CorpusMeta, Engine, LazyCorpus, Query, QueryPlan, QuerySet, SummaryEnvelope,
    SyntheticSpec, VcorpWriter,
};
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
    // corpus.
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

/// The fixed cost of one next-chunk request on a warm engine: compile,
/// submit and wait of a six-query interventional set (the logged chunk
/// and every ladder rung) on one session of a 200-session `.vcorp`. The
/// engine runs one thread and one earlier run left the prefix posterior
/// and the session's log resident, so every unit is a memory hit and the
/// request machinery is all that is timed. Its entry in BENCH_gates.json
/// fails if every run spawns a worker thread or every compile and submit
/// re-hashes the asset again.
fn bench_nextchunk(c: &mut Criterion) {
    c.bench_function("engine/nextchunk_request_warm", |b| {
        let synthetic = SyntheticSpec {
            sessions: 200,
            ..SyntheticSpec::default()
        }
        .try_build()
        .expect("synthetic corpus");
        let path = std::env::temp_dir().join(format!(
            "veritas_bench_nextchunk_{}.vcorp",
            std::process::id()
        ));
        let mut writer =
            VcorpWriter::create(&path, &CorpusMeta::for_log(&synthetic.sessions[0].log))
                .expect("create .vcorp");
        for session in &synthetic.sessions {
            writer.append(&session.id, &session.log).expect("append");
        }
        writer.finish().expect("finish .vcorp");
        let corpus: Arc<dyn Corpus> = Arc::new(LazyCorpus::open(&path).expect("open"));
        let set = nextchunk_set(corpus.as_ref());
        let engine = Engine::builder().threads(1).build().unwrap();
        let warm = engine.run(Arc::clone(&corpus), &set).unwrap();
        assert_eq!(warm.summary.errors, 0);
        b.iter(|| {
            let plan = QueryPlan::compile(black_box(&set), corpus.as_ref()).unwrap();
            let report = engine
                .submit_shared(Arc::clone(&corpus), Arc::new(plan))
                .unwrap()
                .wait();
            assert_eq!(report.summary.cache_misses, 0);
            report
        });
        let _ = std::fs::remove_file(&path);
    });
}

/// A next-chunk request: the logged chunk 60 of session 0 and every
/// ladder rung in its place, six interventional queries.
fn nextchunk_set(corpus: &dyn Corpus) -> QuerySet {
    let (session, chunk) = (0, 60);
    let query = |id: &str| {
        Query::interventional(id)
            .with_sessions(vec![session])
            .with_chunk_index(chunk)
    };
    let asset = corpus.asset();
    let set = (0..asset.num_qualities()).fold(
        QuerySet::new("nextchunk", VeritasConfig::paper_default()).with_query(query("logged")),
        |set, rung| {
            set.with_query(
                query(&format!("rung-{rung}")).with_candidate_size(asset.size_bytes(chunk, rung)),
            )
        },
    );
    assert_eq!(set.queries.len(), 6);
    set
}

/// The bytes of one next-chunk response: its six interventional records
/// (`EngineReport::write_jsonl`) and the summary envelope, written into
/// a reused buffer as the daemon writes them into a connection's. Its
/// entry in BENCH_gates.json fails if the JSON writer lowers every value
/// to a tree before rendering it again.
fn bench_wire(c: &mut Criterion) {
    c.bench_function("wire/nextchunk_response_6_records", |b| {
        let corpus: Arc<dyn Corpus> = Arc::new(
            SyntheticSpec {
                sessions: 1,
                ..SyntheticSpec::default()
            }
            .build(),
        );
        let set = nextchunk_set(corpus.as_ref());
        let engine = Engine::builder().threads(1).build().unwrap();
        let report = engine.run(corpus, &set).unwrap();
        assert_eq!(report.summary.errors, 0);
        let envelope = SummaryEnvelope {
            summary: report.summary.clone(),
            req_id: Some(600),
        };
        let mut out = Vec::with_capacity(8192);
        b.iter(|| {
            out.clear();
            report.write_jsonl(&mut out).unwrap();
            serde_json::to_writer(&mut out, black_box(&envelope)).unwrap();
            out.push(b'\n');
            black_box(out.len())
        });
    });
}

/// Parsing the query set of one next-chunk request:
/// `QuerySet::from_json` of the compact six-query set that a
/// `nextchunk_serve` request carries as its `query` member. Its entry in
/// BENCH_gates.json fails if the parse builds a value tree again.
fn bench_wire_parse(c: &mut Criterion) {
    c.bench_function("wire/nextchunk_queryset_parse", |b| {
        let corpus = SyntheticSpec {
            sessions: 1,
            ..SyntheticSpec::default()
        }
        .build();
        let json = serde_json::to_string(&nextchunk_set(&corpus)).unwrap();
        b.iter(|| QuerySet::from_json(black_box(&json)).unwrap());
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_engine, bench_nextchunk, bench_wire, bench_wire_parse
}
criterion_main!(benches);
