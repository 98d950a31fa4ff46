//! The MPC lookahead as it was before the depth-first search: all `q^h`
//! plans enumerated as base-`q` counters (step 0 least significant), each
//! rescored from scratch. Kept verbatim as the executable specification
//! [`Mpc`]'s search is checked against — by the differential tests in
//! `mpc.rs` and, through `#[path]`, by the whole-session test in
//! `tests/sessions.rs`. Compiled only for tests.
//!
//! It is written against the crate's public API only, so the predictor is
//! copied here too (it is private in `mpc.rs`; the rewrite left it as it
//! was).

use super::{clamp_quality, AbrContext, Mpc};

/// The original `Mpc::choose`. Panics at `horizon == 0`, where it indexes
/// an empty plan.
pub fn naive_choose(mpc: &Mpc, ctx: &AbrContext) -> usize {
    let num_q = ctx.num_qualities();
    if num_q == 1 {
        return 0;
    }
    let remaining = ctx.asset.num_chunks().saturating_sub(ctx.next_chunk);
    let horizon = mpc.horizon.min(remaining.max(1));
    let predicted = predicted_throughput(mpc, ctx);

    // Exhaustive search over quality assignments for the horizon,
    // enumerated as base-`num_q` counters.
    let mut best_plan_first = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    let total_plans = num_q.pow(horizon as u32);
    let mut plan = vec![0usize; horizon];
    for idx in 0..total_plans {
        let mut rem = idx;
        for slot in plan.iter_mut() {
            *slot = rem % num_q;
            rem /= num_q;
        }
        let score = score_plan(mpc, ctx, &plan, predicted);
        if score > best_score {
            best_score = score;
            best_plan_first = plan[0];
        }
    }
    clamp_quality(best_plan_first, num_q)
}

/// The original `Mpc::predicted_throughput`.
fn predicted_throughput(mpc: &Mpc, ctx: &AbrContext) -> f64 {
    let base = ctx
        .harmonic_mean_throughput(mpc.prediction_window)
        .unwrap_or(1.0)
        .max(1e-3);
    if mpc.robust {
        let err = ctx.recent_prediction_error(mpc.prediction_window);
        base / (1.0 + err)
    } else {
        base
    }
}

/// The original `Mpc::score_plan`: the total QoE of one plan (quality per
/// horizon step). Each chunk takes `size / throughput` to download, during
/// which the buffer drains; on completion it gains one chunk duration,
/// capped at capacity.
fn score_plan(mpc: &Mpc, ctx: &AbrContext, plan: &[usize], predicted_throughput_mbps: f64) -> f64 {
    let asset = ctx.asset;
    let chunk_dur = asset.chunk_duration_s();
    let mut buffer = ctx.buffer_s;
    let mut qoe = 0.0;
    let mut prev_rate = ctx.last_quality.map(|q| asset.ladder().bitrate(q));
    for (step, &q) in plan.iter().enumerate() {
        let chunk = ctx.next_chunk + step;
        if chunk >= asset.num_chunks() {
            break;
        }
        let size = asset.size_bytes(chunk, q);
        let dt = size * 8.0 / 1e6 / predicted_throughput_mbps;
        let rebuffer = (dt - buffer).max(0.0);
        buffer = (buffer - dt).max(0.0) + chunk_dur;
        buffer = buffer.min(ctx.buffer_capacity_s);
        let rate = asset.ladder().bitrate(q);
        qoe += rate;
        if let Some(prev) = prev_rate {
            qoe -= mpc.weights.smoothness_lambda * (rate - prev).abs();
        }
        qoe -= mpc.weights.rebuffer_mu * rebuffer;
        prev_rate = Some(rate);
    }
    qoe
}
