//! Veritas: causal what-if inference for video streaming traces.
//!
//! This crate ties the substrates together into the framework the paper
//! describes:
//!
//! * [`VeritasConfig`] — the abduction hyper-parameters (δ, ε, σ, transition
//!   prior, number of posterior samples).
//! * [`Abduction`] — the core inference step: build the embedded HMM from a
//!   [`veritas_player::SessionLog`]'s observed variables, decode it with the
//!   gap-aware Viterbi and forward–backward algorithms, and sample latent
//!   GTBW traces from the posterior.
//! * [`baseline_trace`] / [`oracle_trace`] — the comparison estimators the
//!   evaluation measures Veritas against.
//! * [`CounterfactualEngine`] and [`Scenario`] — replay a logged session
//!   under a changed design (different ABR, buffer size, or quality ladder)
//!   over traces from any estimator, producing the Veritas(Low)/(High)
//!   ranges reported in the paper's figures.
//! * [`InterventionalPredictor`] — bias-free download-time prediction for
//!   arbitrary candidate chunk sizes in an ongoing session.
//!
//! # Quickstart
//!
//! ```
//! use veritas::{Abduction, CounterfactualEngine, Scenario, VeritasConfig};
//! use veritas_abr::Mpc;
//! use veritas_media::VideoAsset;
//! use veritas_player::{run_session, PlayerConfig};
//! use veritas_trace::generators::{FccLike, TraceGenerator};
//!
//! // 1. A "deployed" session (Setting A): MPC over a hidden bandwidth trace.
//! let asset = VideoAsset::paper_default(1);
//! let truth = FccLike::new(3.0, 8.0).generate(650.0, 42);
//! let mut abr = Mpc::new();
//! let log = run_session(&asset, &mut abr, &truth, &PlayerConfig::paper_default());
//!
//! // 2. What if BBA had been used instead? (counterfactual)
//! let engine = CounterfactualEngine::new(VeritasConfig::paper_default().with_samples(2));
//! let scenario = Scenario::new("bba", PlayerConfig::paper_default(), asset.clone());
//! let prediction = engine.veritas_predict(&log, &scenario);
//! let (ssim_low, ssim_high) = prediction.ssim_range();
//! assert!(ssim_low <= ssim_high);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod abduction;
mod baseline;
mod config;
mod counterfactual;
mod error;
mod interventional;

pub use abduction::{Abduction, StoredPosteriors, ThroughputTable};
pub use baseline::{baseline_trace, baseline_value_at, gtbw_trace_from_log, oracle_trace};
pub use config::VeritasConfig;
pub use counterfactual::{
    CounterfactualComparison, CounterfactualEngine, RangePrediction, Scenario,
};
pub use error::AbductionError;
pub use interventional::{DownloadTimePrediction, InterventionalPredictor};
