//! Criterion micro-benchmarks of the computational kernels: the EHMM
//! algorithms, the TCP throughput estimator, the round-level TCP model, the
//! MPC lookahead, `.vcorp` projection, and the posterior store's restore.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use veritas::{Abduction, VeritasConfig};
use veritas_abr::{Abr, AbrContext, Mpc};
use veritas_ehmm::{
    forward_backward, viterbi, EhmmSpec, EhmmWorkspace, EmissionTable, TransitionMatrix,
};
use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_net::{estimate_throughput, LinkModel, TcpConnection, TcpInfo};
use veritas_player::{run_session, PlayerConfig};
use veritas_trace::generators::{FccLike, TraceGenerator};
use veritas_trace::BandwidthTrace;

fn emission_table(num_obs: usize, num_states: usize) -> EmissionTable {
    let rows: Vec<Vec<f64>> = (0..num_obs)
        .map(|n| {
            let target = (n * 7) % num_states;
            (0..num_states)
                .map(|i| -0.5 * ((i as f64 - target as f64) / 1.5).powi(2))
                .collect()
        })
        .collect();
    let gaps: Vec<u32> = (0..num_obs)
        .map(|n| if n == 0 { 0 } else { 1 + (n % 3) as u32 })
        .collect();
    EmissionTable::new(rows, gaps)
}

fn bench_ehmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ehmm");
    for &num_obs in &[50usize, 300] {
        let num_states = 21;
        let spec = EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(num_states, 0.8));
        let obs = emission_table(num_obs, num_states);
        group.bench_with_input(BenchmarkId::new("viterbi", num_obs), &num_obs, |b, _| {
            b.iter(|| viterbi(black_box(&spec), black_box(&obs)))
        });
        group.bench_with_input(
            BenchmarkId::new("forward_backward", num_obs),
            &num_obs,
            |b, _| b.iter(|| forward_backward(black_box(&spec), black_box(&obs))),
        );
        // One path per iteration on a warm workspace: the kernels are
        // built once, as in the engine, so only Algorithm 1 is timed.
        let ws = EhmmWorkspace::new(spec.clone());
        let vit = ws.viterbi(&obs);
        let post = ws.forward_backward(&obs);
        group.bench_with_input(
            BenchmarkId::new("sample_path", num_obs),
            &num_obs,
            |b, _| {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                b.iter(|| ws.sample_path(black_box(&post), black_box(&vit), &mut rng))
            },
        );
    }
    // The large-K shape: a fine capacity grid makes the per-step pairwise
    // work of forward–backward dominant. The smoother only sums each step's
    // banded pairwise total here; it used to also write the dense K×K ξ
    // matrix per step ((N−1)·K² stores), which the id's entry in
    // BENCH_gates.json keeps from coming back.
    {
        let num_states = 63;
        let spec = EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(num_states, 0.8));
        let obs = emission_table(120, num_states);
        group.bench_with_input(
            BenchmarkId::new("forward_backward_largek", 120),
            &120usize,
            |b, _| b.iter(|| forward_backward(black_box(&spec), black_box(&obs))),
        );
    }
    group.finish();
}

/// Full-abduction scaling cases: 600- and 1200-chunk session logs (the
/// serving-scale shapes the engine sees), complementing the 120-chunk case
/// tracked by the pipeline bench. `Abduction::infer` decodes Viterbi only
/// and smooths on the first posterior read, so each iteration also reads
/// `.posteriors()`: the ids keep timing Viterbi plus forward–backward.
fn bench_abduction_scaling(c: &mut Criterion) {
    let config = VeritasConfig::paper_default();
    for &chunks in &[600usize, 1200] {
        // chunk_duration_s = 2.0, so the video (and trace) must span 2·N s.
        let duration = 2.0 * chunks as f64;
        let asset = VideoAsset::generate(
            QualityLadder::paper_default(),
            duration,
            2.0,
            VbrParams::default(),
            1,
        );
        let truth = FccLike::new(3.0, 8.0).generate(duration, 9);
        let mut abr = Mpc::new();
        let log = run_session(&asset, &mut abr, &truth, &PlayerConfig::paper_default());
        assert!(
            log.records.len() >= chunks * 9 / 10,
            "expected ~{chunks} chunks, got {}",
            log.records.len()
        );
        c.bench_function(&format!("abduction_{chunks}_chunks"), |b| {
            b.iter(|| {
                let abduction = Abduction::infer(black_box(&log), black_box(&config));
                black_box(abduction.posteriors());
                abduction
            })
        });
    }
}

/// A next-chunk prefix abduction: `try_infer_prepared` on the first 60
/// chunks of a 120-chunk MPC session over a warm workspace
/// (`prefix_60_viterbi`; an interventional unit runs the same inference
/// routine through `try_infer_prefix`, with rows derived from its
/// session's throughput table), and the same call followed by the first
/// `.posteriors()` read, which runs forward–backward
/// (`prefix_60_smoothed`). The pair's entry in BENCH_gates.json fails if
/// inference starts smoothing eagerly again.
fn bench_prefix_abduction(c: &mut Criterion) {
    use std::sync::Arc;

    let config = VeritasConfig::paper_default();
    let asset = VideoAsset::generate(
        QualityLadder::paper_default(),
        240.0,
        2.0,
        VbrParams::default(),
        1,
    );
    let truth = FccLike::new(3.0, 8.0).generate(1200.0, 9);
    let mut abr = Mpc::new();
    let session = run_session(&asset, &mut abr, &truth, &PlayerConfig::paper_default());
    assert_eq!(session.records.len(), 120);
    let log = session.prefix(60);
    let capacities = config.capacity_grid();
    let rows: Vec<Vec<f64>> = log
        .records
        .iter()
        .map(|r| Abduction::emission_row(r, &capacities, config.sigma_mbps))
        .collect();
    let workspace = Arc::new(EhmmWorkspace::new(Abduction::spec_for(&config)));
    let infer = || {
        Abduction::try_infer_prepared(
            black_box(&log),
            &config,
            rows.clone(),
            Arc::clone(&workspace),
        )
        .expect("inference")
    };
    // Build the transition kernels first, as the engine's shared
    // workspace has by the time it serves requests.
    black_box(infer().posteriors());
    let mut group = c.benchmark_group("abduction");
    group.bench_function("prefix_60_viterbi", |b| b.iter(infer));
    group.bench_function("prefix_60_smoothed", |b| {
        b.iter(|| {
            let abduction = infer();
            black_box(abduction.posteriors());
            abduction
        })
    });
    group.finish();
}

fn bench_tcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp");
    let info = TcpInfo {
        cwnd_segments: 10.0,
        ssthresh_segments: 1000.0,
        rto_s: 0.3,
        srtt_s: 0.08,
        min_rtt_s: 0.08,
        last_send_gap_s: 2.0,
    };
    group.bench_function("estimator_f_1mb", |b| {
        b.iter(|| estimate_throughput(black_box(6.0), black_box(&info), black_box(1_000_000.0)))
    });
    group.bench_function("connection_download_1mb", |b| {
        let trace = BandwidthTrace::constant(6.0, 1e6);
        b.iter(|| {
            let mut conn = TcpConnection::new(LinkModel::paper_default());
            conn.download(black_box(1_000_000.0), 0.0, black_box(&trace))
        })
    });
    group.finish();
}

fn bench_abr(c: &mut Criterion) {
    let asset = VideoAsset::paper_default(1);
    let history = [3.0, 4.0, 5.0, 4.5, 3.8];
    let dt = [1.0, 0.9, 1.1, 1.0, 1.2];
    let ctx = AbrContext {
        asset: &asset,
        next_chunk: 50,
        buffer_s: 3.5,
        buffer_capacity_s: 5.0,
        throughput_history_mbps: &history,
        download_time_history_s: &dt,
        last_quality: Some(2),
    };
    c.bench_function("mpc_lookahead_horizon5", |b| {
        let mut mpc = Mpc::new();
        b.iter(|| mpc.choose(black_box(&ctx)))
    });
}

/// The storage-layer projection pin: a 3-column aggregate pass over a
/// 1000-session `.vcorp`, re-decoding every block each iteration (the
/// corpus exceeds the resident bound, so only the last decode stays
/// resident). The companion full-decode bench gives the median the
/// projected pass must stay below (its entry in BENCH_gates.json).
fn bench_store(c: &mut Criterion) {
    use veritas_engine::{columns, ColumnSet, LazyCorpus, SyntheticSpec, VcorpWriter};
    use veritas_engine::{CorpusMeta, SessionCorpus};

    let corpus: SessionCorpus = SyntheticSpec {
        sessions: 1000,
        video_duration_s: 120.0,
        ..SyntheticSpec::default()
    }
    .try_build()
    .expect("synthetic corpus");
    let path =
        std::env::temp_dir().join(format!("veritas_bench_store_{}.vcorp", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut writer = VcorpWriter::create(&path, &CorpusMeta::for_log(&corpus.sessions[0].log))
        .expect("create .vcorp");
    for session in &corpus.sessions {
        writer.append(&session.id, &session.log).expect("append");
    }
    writer.finish().expect("finish .vcorp");

    let cols = ColumnSet::of(&[columns::SSIM, columns::SIZE_BYTES, columns::REBUFFER_S]);
    let mut group = c.benchmark_group("store");
    group.bench_function("projected_aggregate_1000", |b| {
        let lazy = LazyCorpus::open(&path).expect("open");
        b.iter(|| {
            let mut acc = 0.0_f64;
            for index in 0..lazy.len() {
                let log = lazy
                    .load_log_projected(index, black_box(cols))
                    .expect("projected decode");
                for record in &log.records {
                    acc += record.ssim + record.size_bytes + record.rebuffer_s;
                }
            }
            acc
        })
    });
    group.bench_function("full_aggregate_1000", |b| {
        let lazy = LazyCorpus::open(&path).expect("open");
        b.iter(|| {
            let mut acc = 0.0_f64;
            for index in 0..lazy.len() {
                let log = lazy.load_log(index).expect("full decode");
                for record in &log.records {
                    acc += record.ssim + record.size_bytes + record.rebuffer_s;
                }
            }
            acc
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// The warm restore of the posterior store: `DiskStore::load` of one real
/// 120-chunk, K = 21 posterior (63,432 bytes, page-cache warm), i.e. the
/// file read, the checksum, the decode of the key, the Viterbi path and
/// the gaps, and `Abduction::from_parts` over a warm kernel workspace, as
/// a disk hit in the engine pays it. The posterior matrices are parsed,
/// and γ derived, on the first `posteriors()` read, so
/// `restore_120x21_posteriors` times the same restore plus that read. The
/// entries of `restore_120x21` in BENCH_gates.json fail if a byte-serial
/// checksum comes back or if the restore parses the matrices at load.
fn bench_persist(c: &mut Criterion) {
    use std::sync::Arc;
    use veritas_engine::{
        config_fingerprint, infer_prefix, log_fingerprint, DiskStore, PersistKey, SyntheticSpec,
    };

    let corpus = SyntheticSpec {
        sessions: 1,
        ..SyntheticSpec::default()
    }
    .try_build()
    .expect("synthetic corpus");
    let log = &corpus.sessions[0].log;
    let config = VeritasConfig::paper_default();
    assert_eq!((log.records.len(), config.capacity_grid().len()), (120, 21));
    let key = PersistKey {
        log: log_fingerprint(log),
        config: config_fingerprint(&config),
        horizon: log.records.len(),
    };
    let dir = std::env::temp_dir().join(format!("veritas_bench_persist_{}", std::process::id()));
    let store = DiskStore::open(&dir).expect("open the store");
    let abduction = infer_prefix(log, key.horizon, &config).expect("inference");
    store.save(&key, &abduction).expect("save");
    let workspace = Arc::new(EhmmWorkspace::new(Abduction::spec_for(&config)));
    let restore = || {
        store
            .load(black_box(&key), log, &config, Arc::clone(&workspace))
            .expect("a saved posterior restores")
    };
    // The first restore builds the transition kernels, as the engine's
    // shared workspace already has by the time it serves disk hits.
    restore();
    let mut group = c.benchmark_group("persist");
    group.bench_function("restore_120x21", |b| b.iter(restore));
    group.bench_function("restore_120x21_posteriors", |b| {
        b.iter(|| {
            let abduction = restore();
            black_box(abduction.posteriors().gamma.as_slice()[0]);
            abduction
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_ehmm,
    bench_abduction_scaling,
    bench_prefix_abduction,
    bench_tcp,
    bench_abr,
    bench_store,
    bench_persist
);
criterion_main!(benches);
