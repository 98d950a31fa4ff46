//! The workloads' inputs — corpora, query sets and request lists — all
//! generated from the workload seed, and the set-up step that writes them.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use veritas::VeritasConfig;
use veritas_abr::abr_by_name;
use veritas_engine::{
    AbductionCache, AggregateMetric, AggregateSpec, ConfigSweep, Corpus, CorpusMeta, DiskStore,
    Engine, LazyCorpus, Query, QueryPlan, QuerySet, ScenarioSpec, VcorpWriter,
};
use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_player::{run_session, PlayerConfig};
use veritas_trace::generators::{FccLike, TraceGenerator};

use crate::stats::{derive_seed, SplitMix};

/// Worker threads of the in-process engine.
pub const THREADS: usize = 2;

/// Video length and chunk duration of every session: 120 chunks.
const VIDEO_S: f64 = 240.0;
const CHUNK_S: f64 = 2.0;
/// Range of the per-trace mean bandwidth, in Mbps.
const BANDWIDTH_MBPS: (f64, f64) = (3.0, 8.0);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Batch counterfactuals over an MPC corpus, cold posterior store.
    WhatifCold,
    /// Corpus scan over a BBA corpus larger than the resident bound, warm
    /// posterior store.
    ScanWarm,
    /// Interventional next-chunk requests against a `veritasd` process.
    NextchunkServe,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "whatif_cold" => Some(Kind::WhatifCold),
            "scan_warm" => Some(Kind::ScanWarm),
            "nextchunk_serve" => Some(Kind::NextchunkServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WhatifCold => "whatif_cold",
            Kind::ScanWarm => "scan_warm",
            Kind::NextchunkServe => "nextchunk_serve",
        }
    }

    fn sessions(self) -> usize {
        match self {
            // Sized so one pass takes a few seconds on two threads.
            Kind::WhatifCold => 40,
            // More than the lazy corpus's default resident bound (256), so
            // a scan evicts.
            Kind::ScanWarm => 600,
            Kind::NextchunkServe => 200,
        }
    }

    fn deployed_abr(self) -> &'static str {
        match self {
            Kind::ScanWarm => "bba",
            Kind::WhatifCold | Kind::NextchunkServe => "mpc",
        }
    }

    /// The query set of one in-process pass.
    pub fn query_set(self) -> QuerySet {
        match self {
            Kind::WhatifCold => QuerySet::new("whatif_cold", config())
                .with_query(Query::abduction("posterior"))
                .with_query(Query::sweep(
                    "sigma-stay",
                    ConfigSweep::new()
                        .over_sigma(vec![0.4, 0.6])
                        .over_stay_probability(vec![0.7, 0.9]),
                ))
                .with_query(Query::counterfactual("abr-bba", ScenarioSpec::abr("bba")))
                .with_query(Query::counterfactual(
                    "buffer-30s",
                    ScenarioSpec::buffer(30.0),
                ))
                .with_query(Query::counterfactual(
                    "ladder-higher",
                    ScenarioSpec::ladder("higher"),
                )),
            Kind::ScanWarm => QuerySet::new("scan_warm", config())
                .with_query(Query::aggregate(
                    "mean-capacity",
                    AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
                ))
                .with_query(Query::abduction("posterior")),
            Kind::NextchunkServe => unreachable!("requests are built per (session, chunk)"),
        }
    }
}

/// The deployed Veritas configuration: the paper's, with 3 samples.
pub fn config() -> VeritasConfig {
    VeritasConfig::paper_default().with_samples(3)
}

/// One next-chunk request: for session `session` at decision point
/// `chunk`, the predicted download time of every ladder rung, plus that of
/// the chunk the session actually fetched (which also carries its logged
/// download time) — one prefix inference and five memory hits.
pub fn nextchunk_set(corpus: &dyn Corpus, session: usize, chunk: usize) -> QuerySet {
    let asset = corpus.asset();
    let query = |id: &str| {
        Query::interventional(id)
            .with_sessions(vec![session])
            .with_chunk_index(chunk)
    };
    (0..asset.num_qualities()).fold(
        QuerySet::new("nextchunk", config()).with_query(query("logged")),
        |set, rung| {
            set.with_query(
                query(&format!("rung-{rung}")).with_candidate_size(asset.size_bytes(chunk, rung)),
            )
        },
    )
}

/// Paths of one set-up's outputs.
pub struct Layout {
    pub dir: PathBuf,
}

impl Layout {
    pub fn corpus(&self) -> PathBuf {
        self.dir.join("corpus.vcorp")
    }

    pub fn cache(&self) -> PathBuf {
        self.dir.join("cache")
    }
}

/// The set-up step, run in a child process so its memory does not count
/// towards the measured process's peak: synthesises the corpus into a
/// `.vcorp` file and, for `scan_warm`, fills the posterior store.
pub fn setup(kind: Kind, seed: u64, layout: &Layout) -> Result<(), String> {
    std::fs::create_dir_all(&layout.dir).map_err(|e| e.to_string())?;
    write_corpus(kind, seed, &layout.corpus())?;
    if kind == Kind::ScanWarm {
        let lazy: Arc<dyn Corpus> =
            Arc::new(LazyCorpus::open(layout.corpus()).map_err(|e| e.to_string())?);
        let plan = QueryPlan::compile(&kind.query_set(), &*lazy).map_err(|e| e.to_string())?;
        let engine = Engine::builder()
            .threads(THREADS)
            .cache_dir(layout.cache())
            .build()
            .map_err(|e| e.to_string())?;
        let report = engine
            .submit_shared(lazy, Arc::new(plan))
            .map_err(|e| e.to_string())?
            .wait();
        if report.summary.errors != 0 {
            return Err(format!("{} set-up units failed", report.summary.errors));
        }
    }
    Ok(())
}

/// Writes `kind`'s corpus for `seed`: the deployed ABR run over one
/// synthetic FCC-like trace per session. Session i's trace mean comes from
/// its own equal slice of the bandwidth range (slices dealt out in a seeded
/// order), so every seed's corpus covers the range alike and costs alike
/// to synthesise and query; the seed varies the traces and the video.
fn write_corpus(kind: Kind, seed: u64, path: &Path) -> Result<(), String> {
    let asset_seed = derive_seed(seed, kind.name()) % 1_000_000_007;
    let asset = VideoAsset::generate(
        QualityLadder::paper_default(),
        VIDEO_S,
        CHUNK_S,
        VbrParams::default(),
        asset_seed,
    );
    let player = PlayerConfig::paper_default();
    let sessions = kind.sessions();
    let mut slices: Vec<usize> = (0..sessions).collect();
    SplitMix(derive_seed(seed, "bandwidth-slices")).shuffle(&mut slices);
    let (lo, hi) = BANDWIDTH_MBPS;
    let width = (hi - lo) / sessions as f64;
    let mut writer: Option<VcorpWriter> = None;
    for (i, slice) in slices.into_iter().enumerate() {
        let min = lo + width * slice as f64;
        // Traces must outlast the session even under poor conditions.
        let truth = FccLike::new(min, min + width)
            .generate(VIDEO_S * 6.0, derive_seed(seed, &format!("trace-{i}")));
        let mut abr = abr_by_name(kind.deployed_abr()).ok_or("unknown deployed ABR")?;
        let log = run_session(&asset, abr.as_mut(), &truth, &player);
        let writer = match &mut writer {
            Some(writer) => writer,
            None => {
                let meta = CorpusMeta {
                    deployed_abr: kind.deployed_abr().to_string(),
                    asset_seed,
                    video_duration_s: VIDEO_S,
                    ..CorpusMeta::for_log(&log)
                };
                writer.insert(VcorpWriter::create(path, &meta).map_err(|e| e.to_string())?)
            }
        };
        writer
            .append(&format!("session-{i}"), &log)
            .map_err(|e| e.to_string())?;
    }
    writer
        .ok_or("a corpus needs sessions")?
        .finish()
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Number and summed size of the posterior (`.vpost`) files in `dir`.
pub fn vpost_files(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".vpost"))
        .fold((0, 0), |(n, bytes), e| {
            (n + 1, bytes + e.metadata().map_or(0, |m| m.len()))
        })
}

/// Kernels in the persisted kernel table of `config` under `dir`.
pub fn persisted_kernels(dir: &Path) -> Result<u64, String> {
    let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
    let cache = AbductionCache::new().with_disk_store(store);
    cache.workspace_for(&config());
    Ok(cache.kernel_disk_hits())
}

/// Bytes of decoding each session once under `plan`'s column demand, and
/// of decoding it in full — measured on private views of the corpus file.
pub fn decode_volume(path: &Path, plan: &QueryPlan) -> Result<(u64, u64), String> {
    let projected = LazyCorpus::open(path).map_err(|e| e.to_string())?;
    let full = LazyCorpus::open(path).map_err(|e| e.to_string())?;
    for si in 0..projected.len() {
        projected
            .load_log_projected(si, plan.column_demand(si))
            .map_err(|e| e.to_string())?;
        full.load_log(si).map_err(|e| e.to_string())?;
    }
    Ok((projected.bytes_decoded(), full.bytes_decoded()))
}
