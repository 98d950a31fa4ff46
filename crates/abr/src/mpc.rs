//! MPC — model-predictive bitrate control (Yin et al., SIGCOMM 2015).

use serde::{Deserialize, Serialize};

use crate::context::{clamp_quality, AbrContext};
use crate::Abr;

/// QoE weights for the MPC objective.
///
/// The objective over the lookahead horizon is
/// `Σ bitrate_k − λ Σ |bitrate_k − bitrate_{k−1}| − μ Σ rebuffer_k`,
/// the linear QoE form from the MPC paper with bitrates in Mbps and
/// rebuffering in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeWeights {
    /// Smoothness penalty per Mbps of bitrate change.
    pub smoothness_lambda: f64,
    /// Rebuffering penalty per second stalled.
    pub rebuffer_mu: f64,
}

impl Default for QoeWeights {
    fn default() -> Self {
        Self {
            smoothness_lambda: 1.0,
            rebuffer_mu: 8.0,
        }
    }
}

/// Model Predictive Control ABR.
///
/// At every chunk boundary the controller predicts future throughput with the
/// harmonic mean of recent observations (optionally discounted by the recent
/// maximum prediction error — RobustMPC), then exhaustively searches quality
/// assignments over a short lookahead horizon, simulating buffer evolution
/// and picking the first decision of the best plan.
///
/// The search walks the lookahead tree depth first. Each plan prefix's
/// buffer, QoE and previous bitrate are extended one step at a time, so
/// every prefix is scored at most once: a decision over `q` rungs and
/// horizon `h` costs at most Σ_{k=1..h} q^k step evaluations (3,905 at the
/// default `h = 5` on a 5-rung ladder). Every complete plan it scores gets
/// the same floating-point operations in the same order as a plan-by-plan
/// rescore, and an exact tie goes to the plan with the smallest index when
/// the plan is read as a base-`q` number with step 0 least significant. A
/// NaN score never wins; if no plan scores above −∞, the answer is rung 0.
///
/// The walk prunes with an exact bound. A step subtracts
/// `λ·|rate − prev|` and `μ·rebuffer` from `qoe + rate`, and when λ ≥ 0
/// and μ ≥ 0 both terms are ≥ 0 or NaN. Rounding is monotone, so no
/// completion of a prefix that scores `qoe` with `d` steps to go can score
/// above `qoe` plus the top rung's bitrate added `d` times, one `f64`
/// addition at a time (a single `qoe + d·max` is not guaranteed to bound
/// it). A prefix is skipped only when that bound is strictly below the
/// best score so far, so a plan that would tie the winner is still scored
/// and the tie rule above still holds. A greedy plan (the best one-step
/// rung at every step) is offered first, so there is a score to prune
/// against. With a negative or NaN weight the bound does not hold, and
/// the search scores every prefix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mpc {
    /// Number of future chunks considered in the lookahead.
    pub horizon: usize,
    /// Number of past chunks in the harmonic-mean throughput predictor.
    pub prediction_window: usize,
    /// QoE weights.
    pub weights: QoeWeights,
    /// If true, discount the throughput prediction by the recent maximum
    /// relative error (RobustMPC).
    pub robust: bool,
}

impl Mpc {
    /// Standard MPC with a 5-chunk horizon.
    pub fn new() -> Self {
        Self {
            horizon: 5,
            prediction_window: 5,
            weights: QoeWeights::default(),
            robust: false,
        }
    }

    /// RobustMPC: same controller with an error-discounted predictor.
    pub fn robust() -> Self {
        Self {
            robust: true,
            ..Self::new()
        }
    }

    /// Overrides the lookahead horizon (must be ≥ 1). A decision scores at
    /// most Σ_{k=1..h} q^k plan prefixes on a `q`-rung ladder: 3,905 at
    /// `h = 5`, `q = 5`, and about `q` times more for each step added. The
    /// QoE bound (see [`Mpc`]) skips most of them when λ, μ ≥ 0; with a
    /// negative or NaN weight every one is scored.
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        assert!(horizon >= 1);
        self.horizon = horizon;
        self
    }

    /// Overrides the QoE weights.
    pub fn with_weights(mut self, weights: QoeWeights) -> Self {
        self.weights = weights;
        self
    }

    fn predicted_throughput(&self, ctx: &AbrContext) -> f64 {
        let base = ctx
            .harmonic_mean_throughput(self.prediction_window)
            .unwrap_or(1.0)
            .max(1e-3);
        if self.robust {
            let err = ctx.recent_prediction_error(self.prediction_window);
            base / (1.0 + err)
        } else {
            base
        }
    }
}

impl Default for Mpc {
    fn default() -> Self {
        Self::new()
    }
}

impl Abr for Mpc {
    fn name(&self) -> &'static str {
        if self.robust {
            "RobustMPC"
        } else {
            "MPC"
        }
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let asset = ctx.asset;
        let num_q = ctx.num_qualities();
        let remaining = asset.num_chunks().saturating_sub(ctx.next_chunk);
        let horizon = self.horizon.min(remaining);
        if num_q == 1 || horizon == 0 {
            return 0;
        }
        let predicted = self.predicted_throughput(ctx);
        let download_s: Vec<f64> = (0..horizon)
            .flat_map(|step| {
                (0..num_q).map(move |q| {
                    asset.size_bytes(ctx.next_chunk + step, q) * 8.0 / 1e6 / predicted
                })
            })
            .collect();
        let bitrates = asset.ladder().bitrates();
        let mut search = Lookahead {
            weights: self.weights,
            chunk_duration_s: asset.chunk_duration_s(),
            buffer_capacity_s: ctx.buffer_capacity_s,
            bitrates: &bitrates,
            download_s: &download_s,
            max_rate: (self.weights.smoothness_lambda >= 0.0 && self.weights.rebuffer_mu >= 0.0)
                .then(|| bitrates.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            plan: vec![0; horizon],
            best_plan: vec![0; horizon],
            best_score: f64::NEG_INFINITY,
        };
        let prev_rate = ctx.last_quality.map(|q| bitrates[q]);
        search.offer_greedy(ctx.buffer_s, prev_rate);
        search.extend(0, ctx.buffer_s, 0.0, prev_rate);
        clamp_quality(search.best_plan[0], num_q)
    }
}

/// One decision's depth-first walk over the lookahead tree.
struct Lookahead<'a> {
    weights: QoeWeights,
    chunk_duration_s: f64,
    buffer_capacity_s: f64,
    /// Nominal bitrate (Mbps) of each rung.
    bitrates: &'a [f64],
    /// Predicted download time (s) of each step's chunk at each rung,
    /// `horizon × rungs`, row-major.
    download_s: &'a [f64],
    /// The top rung's bitrate when the weights make the QoE bound hold
    /// (λ, μ ≥ 0), or `None` to score every prefix.
    max_rate: Option<f64>,
    /// Rungs of the plan being extended.
    plan: Vec<usize>,
    /// The best complete plan so far and its score.
    best_plan: Vec<usize>,
    best_score: f64,
}

impl<'a> Lookahead<'a> {
    /// Offers the greedy plan, which takes the best one-step rung at every
    /// step, so the bound has a score to prune against from the first
    /// prefix on. An exhaustive search has no use for it.
    fn offer_greedy(&mut self, mut buffer: f64, mut prev_rate: Option<f64>) {
        if self.max_rate.is_none() {
            return;
        }
        let mut qoe = 0.0;
        for step in 0..self.plan.len() {
            let q = self
                .best_last_rung(step, buffer, qoe, prev_rate)
                .map_or(0, |(q, _)| q);
            let rate = self.bitrates[q];
            (buffer, qoe) = self.advance(buffer, qoe, prev_rate, self.download_row(step)[q], rate);
            self.plan[step] = q;
            prev_rate = Some(rate);
        }
        self.offer(qoe);
    }

    /// Scores every plan extending `plan[..step]`, whose state after `step`
    /// chunks is (`buffer`, `qoe`, `prev_rate`), except those under a
    /// prefix that [`cannot_win`](Self::cannot_win).
    fn extend(&mut self, step: usize, buffer: f64, qoe: f64, prev_rate: Option<f64>) {
        if step + 1 == self.plan.len() {
            // Only a one-step horizon gets here: deeper searches finish
            // inline below.
            self.finish(step, buffer, qoe, prev_rate);
            return;
        }
        for (q, (&dt, &rate)) in self
            .download_row(step)
            .iter()
            .zip(self.bitrates)
            .enumerate()
        {
            let (buffer, qoe) = self.advance(buffer, qoe, prev_rate, dt, rate);
            if self.cannot_win(qoe, self.plan.len() - step - 1) {
                continue;
            }
            self.plan[step] = q;
            // The last step, where most of the work is, runs inline here
            // rather than in one more call of `extend`.
            if step + 2 == self.plan.len() {
                self.finish(step + 1, buffer, qoe, Some(rate));
            } else {
                self.extend(step + 1, buffer, qoe, Some(rate));
            }
        }
    }

    /// Whether the QoE bound (see [`Mpc`]) puts every plan extending a
    /// prefix that scores `qoe`, with `left` steps to go, strictly below
    /// the best so far. A prefix whose bound only ties the best is kept:
    /// it may hold a plan with a smaller index.
    #[inline(always)]
    fn cannot_win(&self, qoe: f64, left: usize) -> bool {
        let Some(max_rate) = self.max_rate else {
            return false;
        };
        let mut bound = qoe;
        for _ in 0..left {
            bound += max_rate;
        }
        bound < self.best_score
    }

    /// Scores the last step of every plan extending `plan[..step]` and
    /// offers the best of them.
    #[inline(always)]
    fn finish(&mut self, step: usize, buffer: f64, qoe: f64, prev_rate: Option<f64>) {
        if let Some((q, score)) = self.best_last_rung(step, buffer, qoe, prev_rate) {
            self.plan[step] = q;
            self.offer(score);
        }
    }

    /// The best rung for the last step after the prefix `plan[..step]`, and
    /// the plan's score, or `None` if no score beats −∞. These plans differ
    /// only in their last rung, the most significant base-`q` digit, so
    /// among equal scores the first is the one an index-order enumeration
    /// meets first. [`offer_greedy`](Self::offer_greedy) calls it at every
    /// step.
    #[inline]
    fn best_last_rung(
        &self,
        step: usize,
        buffer: f64,
        qoe: f64,
        prev_rate: Option<f64>,
    ) -> Option<(usize, f64)> {
        let mut best = None;
        let mut best_score = f64::NEG_INFINITY;
        for (q, (&dt, &rate)) in self
            .download_row(step)
            .iter()
            .zip(self.bitrates)
            .enumerate()
        {
            let (_, score) = self.advance(buffer, qoe, prev_rate, dt, rate);
            if score > best_score {
                best_score = score;
                best = Some(q);
            }
        }
        best.map(|q| (q, best_score))
    }

    /// Keeps the complete `plan` if it beats the best so far; an exact tie
    /// goes to the smaller base-`q` index, whatever order plans are offered
    /// in (the greedy plan comes first). `best_plan` starts as plan 0,
    /// which no plan precedes, so if nothing beats −∞ (or every score is
    /// NaN) the answer stays rung 0.
    fn offer(&mut self, score: f64) {
        if score > self.best_score
            || (score == self.best_score && self.plan.iter().rev().lt(self.best_plan.iter().rev()))
        {
            self.best_score = score;
            self.best_plan.copy_from_slice(&self.plan);
        }
    }

    /// One step from (`buffer`, `qoe`, `prev_rate`): the chunk downloads in
    /// `dt` while the buffer drains, then the buffer gains one chunk
    /// duration, capped at capacity; the QoE gains the bitrate `rate` and
    /// pays for the bitrate change and any stall. Returns the new buffer
    /// and QoE.
    #[inline(always)]
    fn advance(
        &self,
        buffer: f64,
        qoe: f64,
        prev_rate: Option<f64>,
        dt: f64,
        rate: f64,
    ) -> (f64, f64) {
        let rebuffer = (dt - buffer).max(0.0);
        let buffer = ((buffer - dt).max(0.0) + self.chunk_duration_s).min(self.buffer_capacity_s);
        let mut qoe = qoe + rate;
        if let Some(prev) = prev_rate {
            qoe -= self.weights.smoothness_lambda * (rate - prev).abs();
        }
        qoe -= self.weights.rebuffer_mu * rebuffer;
        (buffer, qoe)
    }

    /// Predicted download times of step `step`'s chunk, one per rung.
    fn download_row(&self, step: usize) -> &'a [f64] {
        let num_q = self.bitrates.len();
        &self.download_s[step * num_q..(step + 1) * num_q]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_choose;
    use proptest::prelude::*;
    use veritas_media::{QualityLadder, VbrParams, VideoAsset};

    fn ctx<'a>(
        asset: &'a VideoAsset,
        tput: &'a [f64],
        buffer_s: f64,
        last_quality: Option<usize>,
    ) -> AbrContext<'a> {
        AbrContext {
            asset,
            next_chunk: 20,
            buffer_s,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: tput,
            download_time_history_s: &[],
            last_quality,
        }
    }

    #[test]
    fn poor_throughput_history_selects_low_quality() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [0.2, 0.25, 0.2, 0.22];
        let q = mpc.choose(&ctx(&asset, &tput, 2.0, Some(0)));
        assert_eq!(q, 0, "0.2 Mbps history must keep MPC at the lowest rung");
    }

    #[test]
    fn rich_throughput_and_full_buffer_selects_high_quality() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [9.0, 9.5, 10.0, 9.0];
        let q = mpc.choose(&ctx(&asset, &tput, 5.0, Some(4)));
        assert!(q >= asset.num_qualities() - 2, "got rung {q}");
    }

    #[test]
    fn quality_is_weakly_monotone_in_predicted_throughput() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let mut prev = 0usize;
        for tput in [0.2, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0] {
            let hist = [tput; 4];
            let q = mpc.choose(&ctx(&asset, &hist, 4.0, Some(prev)));
            assert!(q >= prev || q + 1 >= prev, "tput {tput}: {prev} -> {q}");
            prev = q;
        }
    }

    #[test]
    fn empty_buffer_is_conservative_even_with_good_history() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [6.0, 6.0, 6.0];
        let q_empty = mpc.choose(&ctx(&asset, &tput, 0.0, Some(2)));
        let q_full = mpc.choose(&ctx(&asset, &tput, 5.0, Some(2)));
        assert!(q_empty <= q_full);
    }

    #[test]
    fn robust_variant_is_no_more_aggressive_than_plain_mpc() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let mut robust = Mpc::robust();
        // Volatile history inflates the error estimate.
        let tput = [1.0, 8.0, 1.5, 7.0];
        let q_plain = mpc.choose(&ctx(&asset, &tput, 3.0, Some(2)));
        let q_robust = robust.choose(&ctx(&asset, &tput, 3.0, Some(2)));
        assert!(q_robust <= q_plain);
    }

    #[test]
    fn no_history_still_returns_a_valid_choice() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let q = mpc.choose(&ctx(&asset, &[], 1.0, None));
        assert!(q < asset.num_qualities());
    }

    #[test]
    fn horizon_end_of_video_does_not_panic() {
        let asset = VideoAsset::paper_default(1);
        let mut mpc = Mpc::new();
        let tput = [3.0, 3.0];
        let c = AbrContext {
            asset: &asset,
            next_chunk: asset.num_chunks() - 1,
            buffer_s: 3.0,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: &tput,
            download_time_history_s: &[],
            last_quality: Some(2),
        };
        let q = mpc.choose(&c);
        assert!(q < asset.num_qualities());
    }

    #[test]
    fn smoothness_penalty_discourages_oscillation() {
        let asset = VideoAsset::paper_default(1);
        // With an enormous smoothness penalty the controller should stay at
        // the previous quality when throughput is moderate.
        let mut sticky = Mpc::new().with_weights(QoeWeights {
            smoothness_lambda: 100.0,
            rebuffer_mu: 8.0,
        });
        let tput = [2.5, 2.5, 2.5];
        let q = sticky.choose(&ctx(&asset, &tput, 4.0, Some(2)));
        assert_eq!(q, 2);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Mpc::new().name(), "MPC");
        assert_eq!(Mpc::robust().name(), "RobustMPC");
    }

    /// Sizes without scene complexity or jitter: rungs with equal nominal
    /// bitrates get equal sizes, so plans can tie exactly.
    const EXACT_SIZES: VbrParams = VbrParams {
        complexity_std: 0.0,
        size_jitter_std: 0.0,
    };

    /// Nominal bitrates the generated ladders draw from. There are few, so
    /// duplicated rungs (and exact score ties with them) are common.
    const RUNG_MBPS: [f64; 4] = [0.3, 1.0, 2.5, 6.0];

    /// Smoothness weights the differential test draws from. A negative or
    /// NaN weight turns the QoE bound off; an infinite one keeps it on but
    /// drives scores to −∞ or NaN.
    const LAMBDAS: [f64; 6] = [0.0, 1.0, 100.0, -1.0, f64::NAN, f64::INFINITY];

    /// Rebuffering weights the differential test draws from, likewise.
    const MUS: [f64; 5] = [0.0, 8.0, -1.0, f64::NAN, f64::INFINITY];

    /// The rung the depth-first search picks, after checking that the
    /// enumeration it replaced picks the same one. The enumeration cannot
    /// run at horizon 0 (it indexes an empty plan), where the answer is
    /// rung 0.
    fn choose_checked(mpc: Mpc, ctx: &AbrContext) -> usize {
        let got = { mpc }.choose(ctx);
        let want = if mpc.horizon == 0 {
            0
        } else {
            naive_choose(&mpc, ctx)
        };
        assert_eq!(got, want, "{mpc:?} at chunk {}", ctx.next_chunk);
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5000))]

        #[test]
        fn depth_first_search_picks_the_enumerations_rung(
            (ladder_pick, rungs, exact_sizes, num_chunks, asset_seed) in (
                0usize..4,
                prop::collection::vec(0usize..RUNG_MBPS.len(), 1..=6),
                any::<bool>(),
                1usize..=12,
                0u64..1_000,
            ),
            (horizon, robust, lambda_pick, mu_pick, window) in
                (0usize..=6, any::<bool>(), 0usize..6, 0usize..5, 0usize..=6),
            (capacity_pick, buffer_pick, buffer_frac, chunk_pick, last_pick) in
                (0usize..2, 0usize..3, 0.0f64..1.0, 0usize..1_000, 0usize..8),
            history in prop::collection::vec(
                (0.0f64..1.0, 0.05f64..12.0)
                    .prop_map(|(coin, mbps)| if coin < 0.25 { 0.0 } else { mbps }),
                0..8,
            ),
        ) {
            let ladder = match ladder_pick {
                0 => QualityLadder::paper_default(),
                1 => QualityLadder::paper_higher_qualities(),
                _ => QualityLadder::from_bitrates(
                    &rungs.iter().map(|&r| RUNG_MBPS[r]).collect::<Vec<_>>(),
                ),
            };
            let params = if exact_sizes { EXACT_SIZES } else { VbrParams::default() };
            let asset =
                VideoAsset::generate(ladder, 2.0 * num_chunks as f64, 2.0, params, asset_seed);
            let mpc = Mpc {
                horizon,
                prediction_window: window,
                weights: QoeWeights {
                    smoothness_lambda: LAMBDAS[lambda_pick],
                    rebuffer_mu: MUS[mu_pick],
                },
                robust,
            };
            let capacity = [5.0, 30.0][capacity_pick];
            let ctx = AbrContext {
                asset: &asset,
                next_chunk: chunk_pick % (num_chunks + 1),
                buffer_s: [0.0, capacity, buffer_frac * capacity][buffer_pick],
                buffer_capacity_s: capacity,
                throughput_history_mbps: &history,
                download_time_history_s: &[],
                last_quality: last_pick
                    .checked_sub(1)
                    .map(|q| q % asset.num_qualities()),
            };
            choose_checked(mpc, &ctx);
        }
    }

    #[test]
    fn exact_ties_go_to_the_plan_the_enumeration_meets_first() {
        // Two rungs, two steps, no smoothness penalty: one high chunk fits
        // the buffer but two stall, so (high, low) and (low, high) tie at
        // 1.4 exactly. The enumeration meets (high, low) first — index 1,
        // against 2 for (low, high) — so the answer is the high rung, even
        // though a depth-first walk reaches (low, high) first.
        let asset = VideoAsset::generate(
            QualityLadder::from_bitrates(&[0.4, 1.0]),
            20.0,
            2.0,
            EXACT_SIZES,
            1,
        );
        let mpc = Mpc::new().with_horizon(2).with_weights(QoeWeights {
            smoothness_lambda: 0.0,
            rebuffer_mu: 8.0,
        });
        let c = AbrContext {
            asset: &asset,
            next_chunk: 3,
            buffer_s: 2.3,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: &[0.9; 5],
            download_time_history_s: &[],
            last_quality: Some(0),
        };
        assert_eq!(choose_checked(mpc, &c), 1);
    }

    #[test]
    fn a_prefix_whose_bound_only_ties_the_best_is_still_searched() {
        // A decision from a 5 s-buffer MPC session on the paper ladder
        // (0.1, 0.4, 1.0, 2.5, 4.0 Mbps), after rung 2. The walk meets
        // (2, 3, 4, 4, 4) at 12.5 first. The prefix (3, 3, 3, 4) then
        // scores 8.5, so its bound is 8.5 + 4 = 12.5 exactly, and
        // (3, 3, 3, 4, 4) ties at 12.5 with a smaller index, so it wins.
        // Pruning on `<=` instead of `<` would answer rung 2.
        let asset = VideoAsset::generate(
            QualityLadder::paper_default(),
            80.0,
            2.0,
            VbrParams::default(),
            3,
        );
        let c = AbrContext {
            asset: &asset,
            next_chunk: 6,
            buffer_s: 3.0,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: &[
                2.149096229098269,
                2.7168778413632753,
                2.9700423003040815,
                4.030914721725616,
                3.8912258610284165,
            ],
            download_time_history_s: &[],
            last_quality: Some(2),
        };
        assert_eq!(choose_checked(Mpc::new(), &c), 3);
    }

    #[test]
    fn nan_scores_never_win() {
        let asset = VideoAsset::paper_default(1);
        let top = asset.num_qualities() - 1;
        let ctx = |history: &'static [f64]| AbrContext {
            asset: &asset,
            next_chunk: 40,
            buffer_s: 3.0,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: history,
            download_time_history_s: &[],
            last_quality: Some(2),
        };
        let no_stall_penalty = QoeWeights {
            smoothness_lambda: 1.0,
            rebuffer_mu: 0.0,
        };
        // A huge prediction error leaves RobustMPC a ~1e-308 Mbps forecast:
        // the lowest rung's download time stays finite, the top rung's is
        // infinite, and with μ = 0 every plan using it scores 0 · ∞ = NaN.
        let mpc = Mpc::robust().with_weights(no_stall_penalty);
        let mixed = ctx(&[1e296, 1e-9]);
        let predicted = mpc.predicted_throughput(&mixed);
        assert!((asset.size_bytes(40, 0) * 8.0 / 1e6 / predicted).is_finite());
        assert!((asset.size_bytes(40, top) * 8.0 / 1e6 / predicted).is_infinite());
        assert!(choose_checked(mpc, &mixed) < top);
        // A forecast of exactly 0 makes every download infinite: every plan
        // scores NaN (μ = 0) or −∞ (μ = 8), and nothing beats −∞.
        let stalled = ctx(&[f64::INFINITY, 3.0]);
        assert_eq!(mpc.predicted_throughput(&stalled), 0.0);
        assert_eq!(choose_checked(mpc, &stalled), 0);
        assert_eq!(choose_checked(Mpc::robust(), &stalled), 0);
    }

    #[test]
    fn an_exhausted_video_or_an_empty_horizon_picks_rung_0() {
        let asset = VideoAsset::paper_default(1);
        let tput = [9.0; 5];
        let c = |next_chunk| AbrContext {
            asset: &asset,
            next_chunk,
            buffer_s: 5.0,
            buffer_capacity_s: 5.0,
            throughput_history_mbps: &tput,
            download_time_history_s: &[],
            last_quality: Some(4),
        };
        assert_eq!(choose_checked(Mpc::new(), &c(asset.num_chunks())), 0);
        assert_eq!(choose_checked(Mpc::new(), &c(asset.num_chunks() + 7)), 0);
        let blind = Mpc {
            horizon: 0,
            ..Mpc::new()
        };
        assert_eq!(choose_checked(blind, &c(10)), 0);
        assert_eq!(choose_checked(Mpc::new(), &c(10)), 4);
    }
}
