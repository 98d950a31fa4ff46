//! Interventional queries: predicting the download time of the *next* chunk
//! for arbitrary candidate sizes (paper §4.4, Figure 12).
//!
//! Unlike the associational Fugu predictor, Veritas first abduces the latent
//! GTBW from the observations so far, propagates it forward through the
//! transition prior, and only then asks the TCP model what a chunk of the
//! candidate size would experience. Because the capacity estimate does not
//! depend on which sizes the deployed ABR happened to pick, the prediction
//! is unbiased for sizes the ABR would never have chosen.

use veritas_net::{estimate_download_time, TcpInfo};
use veritas_player::SessionLog;

use crate::{Abduction, VeritasConfig};

/// Veritas's interventional download-time predictor.
#[derive(Debug, Clone, Copy)]
pub struct InterventionalPredictor {
    config: VeritasConfig,
}

/// A single prediction with its intermediate quantities, useful for
/// diagnostics and for the figure-reproduction binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadTimePrediction {
    /// Expected GTBW for the next chunk's interval, in Mbps.
    pub expected_capacity_mbps: f64,
    /// Predicted download time in seconds.
    pub download_time_s: f64,
}

impl InterventionalPredictor {
    /// Creates a predictor with the given Veritas configuration.
    pub fn new(config: VeritasConfig) -> Self {
        Self { config }
    }

    /// Predicts the download time of chunk `next_index` of `log` for a
    /// candidate `candidate_size_bytes`, using only observations of chunks
    /// `0..next_index`.
    ///
    /// `tcp_info` is the TCP state at the moment the candidate request would
    /// be issued; pass the logged snapshot when evaluating offline (it is
    /// observable at decision time), or a synthetic steady-state snapshot
    /// when none is available.
    ///
    /// # Panics
    ///
    /// Panics if `next_index` is 0 (no history) or out of range.
    pub fn predict(
        &self,
        log: &SessionLog,
        next_index: usize,
        candidate_size_bytes: f64,
        tcp_info: &TcpInfo,
    ) -> DownloadTimePrediction {
        assert!(next_index >= 1, "need at least one observed chunk");
        assert!(next_index <= log.records.len(), "next_index out of range");
        let abduction = Abduction::infer(&log.prefix(next_index), &self.config);
        self.predict_from_abduction(&abduction, log, next_index, candidate_size_bytes, tcp_info)
    }

    /// Same as [`Self::predict`] but reusing an existing abduction over the
    /// observation prefix `log.records[..next_index]` — the cache-friendly
    /// path: a batch executor answering many candidate sizes (or repeated
    /// queries) at the same decision point abduces once and predicts many
    /// times.
    ///
    /// # Panics
    ///
    /// Panics if `next_index` is 0, out of range, or does not match the
    /// number of chunks the abduction was inferred over.
    pub fn predict_from_abduction(
        &self,
        abduction: &Abduction,
        log: &SessionLog,
        next_index: usize,
        candidate_size_bytes: f64,
        tcp_info: &TcpInfo,
    ) -> DownloadTimePrediction {
        assert!(next_index >= 1, "need at least one observed chunk");
        assert!(next_index <= log.records.len(), "next_index out of range");
        assert_eq!(
            abduction.viterbi_states().len(),
            next_index,
            "abduction must cover exactly the observation prefix"
        );
        let expected_capacity = self.expected_next_capacity(abduction, log, next_index);
        DownloadTimePrediction {
            expected_capacity_mbps: expected_capacity,
            download_time_s: estimate_download_time(
                expected_capacity,
                tcp_info,
                candidate_size_bytes,
            ),
        }
    }

    /// Expected GTBW for the next chunk: the most likely (Viterbi) state of
    /// the last observed chunk propagated forward through `A^Δ`, where `Δ`
    /// is the gap in δ-intervals between the last observed chunk's start and
    /// the next chunk's start.
    fn expected_next_capacity(
        &self,
        abduction: &Abduction,
        log: &SessionLog,
        next_index: usize,
    ) -> f64 {
        let grid = abduction.capacity_grid();
        let last_state = *abduction
            .viterbi_states()
            .last()
            .expect("abduction on a non-empty prefix");
        let last_interval = *abduction
            .start_intervals()
            .last()
            .expect("non-empty prefix");
        // When the next chunk exists in the log we know its true start time;
        // otherwise assume it is requested immediately (same interval).
        let next_interval = if next_index < log.records.len() {
            (log.records[next_index].start_time_s / self.config.delta_s).floor() as usize
        } else {
            last_interval
        };
        let gap = next_interval.saturating_sub(last_interval) as u32;
        // Resolve A^Δ through the abduction's workspace: decision points
        // mostly reuse a gap the inference pass already materialized, and
        // repeated predictions share whatever this call adds to the cache.
        let step = abduction.workspace().kernel(gap);
        grid.iter()
            .enumerate()
            .map(|(j, &c)| step.matrix().get(last_state, j) * c)
            .sum()
    }

    /// Predicts download times for every chunk of a logged session (chunk
    /// `n` predicted from chunks `0..n` with the logged TCP state), returning
    /// `(predicted, actual)` pairs — the Veritas series of Figure 12.
    pub fn predict_over_log(&self, log: &SessionLog) -> Vec<(f64, f64)> {
        (1..log.records.len())
            .map(|n| {
                let record = &log.records[n];
                let p = self.predict(log, n, record.size_bytes, &record.tcp_info);
                (p.download_time_s, record.download_time_s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veritas_abr::{Mpc, RandomAbr};
    use veritas_media::{QualityLadder, VbrParams, VideoAsset};
    use veritas_player::{run_session, PlayerConfig};
    use veritas_trace::generators::{FccLike, TraceGenerator};
    use veritas_trace::BandwidthTrace;

    fn asset() -> VideoAsset {
        VideoAsset::generate(
            QualityLadder::paper_default(),
            120.0,
            2.0,
            VbrParams::default(),
            5,
        )
    }

    fn predictor() -> InterventionalPredictor {
        InterventionalPredictor::new(VeritasConfig::paper_default())
    }

    #[test]
    fn predicts_reasonable_times_on_a_constant_link() {
        let truth = BandwidthTrace::constant(4.0, 1200.0);
        let mut abr = Mpc::new();
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let p = predictor();
        let preds = p.predict_over_log(&log);
        let mae: f64 = preds
            .iter()
            .map(|(pred, act)| (pred - act).abs())
            .sum::<f64>()
            / preds.len() as f64;
        assert!(
            mae < 0.6,
            "MAE {mae} s on a constant 4 Mbps link is too large"
        );
    }

    #[test]
    fn larger_candidate_sizes_predict_longer_downloads() {
        let truth = BandwidthTrace::constant(4.0, 1200.0);
        let mut abr = Mpc::new();
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let p = predictor();
        let n = 20;
        let info = log.records[n].tcp_info;
        let small = p.predict(&log, n, 100_000.0, &info).download_time_s;
        let large = p.predict(&log, n, 2_000_000.0, &info).download_time_s;
        assert!(large > small);
    }

    #[test]
    fn expected_capacity_tracks_the_link() {
        let truth = BandwidthTrace::constant(6.0, 1200.0);
        let mut abr = Mpc::new();
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let p = predictor();
        let n = 30;
        let pred = p.predict(&log, n, 1_000_000.0, &log.records[n].tcp_info);
        assert!(
            (pred.expected_capacity_mbps - 6.0).abs() < 1.5,
            "expected capacity {} should be near 6 Mbps",
            pred.expected_capacity_mbps
        );
    }

    #[test]
    fn prediction_is_unbiased_for_randomized_chunk_sequences() {
        // The interventional test set: bitrates chosen at random, so chunk
        // sizes are uncorrelated with network conditions.
        let truth = FccLike::new(2.0, 8.0).generate(600.0, 7);
        let mut abr = RandomAbr::new(3);
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let p = predictor();
        let preds = p.predict_over_log(&log);
        let mean_signed_error: f64 =
            preds.iter().map(|(pred, act)| pred - act).sum::<f64>() / preds.len() as f64;
        // Allow a modest absolute bias but catch the gross underestimation
        // an associational model exhibits (several seconds).
        assert!(
            mean_signed_error.abs() < 1.0,
            "mean signed error {mean_signed_error} s indicates bias"
        );
    }

    #[test]
    fn predict_from_abduction_matches_predict() {
        let truth = BandwidthTrace::constant(4.0, 1200.0);
        let mut abr = Mpc::new();
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let p = predictor();
        let n = 15;
        let prefix = SessionLog {
            records: log.records[..n].to_vec(),
            ..log.clone()
        };
        let abduction = Abduction::infer(&prefix, &VeritasConfig::paper_default());
        let via_cache =
            p.predict_from_abduction(&abduction, &log, n, 1_000_000.0, &log.records[n].tcp_info);
        let direct = p.predict(&log, n, 1_000_000.0, &log.records[n].tcp_info);
        assert_eq!(via_cache, direct);
    }

    #[test]
    #[should_panic(expected = "exactly the observation prefix")]
    fn predict_from_abduction_rejects_mismatched_prefix() {
        let truth = BandwidthTrace::constant(4.0, 1200.0);
        let mut abr = Mpc::new();
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let abduction = Abduction::infer(&log, &VeritasConfig::paper_default());
        let _ = predictor().predict_from_abduction(
            &abduction,
            &log,
            5,
            1_000_000.0,
            &log.records[5].tcp_info,
        );
    }

    #[test]
    #[should_panic(expected = "at least one observed chunk")]
    fn requires_history() {
        let truth = BandwidthTrace::constant(4.0, 1200.0);
        let mut abr = Mpc::new();
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let _ = predictor().predict(&log, 0, 1e6, &log.records[0].tcp_info);
    }
}
