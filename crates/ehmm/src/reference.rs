//! Naive reference implementations of the EHMM kernels, kept verbatim from
//! before the flat-buffer/workspace optimization, plus differential
//! property tests proving the optimized kernels match them.
//!
//! These are compiled only under `#[cfg(test)]`: they are the executable
//! specification the hot path is checked against, not shipped code. Each
//! function mirrors the original implementation exactly — per-step
//! `powers.power(..).clone()`, nested `Vec<Vec<f64>>` buffers, `safe_ln`
//! per transition entry — so any divergence introduced by the banded,
//! log-memoized kernels is caught here.
//!
//! A second reference, [`dense_forward_backward`] and
//! [`dense_sample_path`], keeps the banded smoother and the Algorithm 1
//! sampler as they were while the posterior still stored the dense
//! pairwise tensor ξ. The sampler now rebuilds one ξ column per step from
//! O(N·K) parts; the `dense_xi` tests pin that rebuild to the dense tensor
//! bit for bit.

use rand::Rng;

use crate::dense::StateMatrix;
use crate::matrix::TransitionPowers;
use crate::model::{EhmmSpec, EmissionTable};
use crate::sampler::sample_categorical;
use crate::viterbi::{safe_ln, ViterbiResult};
use crate::workspace::EhmmWorkspace;

/// Posteriors in the pre-optimization nested-`Vec` layout.
pub struct NaivePosteriors {
    pub gamma: Vec<Vec<f64>>,
    pub xi: Vec<Vec<Vec<f64>>>,
    pub log_likelihood: f64,
}

/// The original gap-aware Viterbi decoder (per-step clone + `safe_ln`).
pub fn naive_viterbi(spec: &EhmmSpec, obs: &EmissionTable) -> ViterbiResult {
    assert_eq!(spec.num_states(), obs.num_states());
    let num_states = spec.num_states();
    let num_obs = obs.num_obs();
    let mut powers = TransitionPowers::new(spec.transition().clone());

    let mut delta: Vec<f64> = spec
        .initial()
        .iter()
        .zip(obs.log_row(0))
        .map(|(&p, &e)| safe_ln(p) + e)
        .collect();
    let mut psi: Vec<Vec<usize>> = Vec::with_capacity(num_obs);
    psi.push(vec![0; num_states]);

    for n in 1..num_obs {
        let a = powers.power(obs.gap(n)).clone();
        let emissions = obs.log_row(n);
        let mut next = vec![f64::NEG_INFINITY; num_states];
        let mut back = vec![0usize; num_states];
        for j in 0..num_states {
            let mut best = f64::NEG_INFINITY;
            let mut best_i = 0usize;
            for i in 0..num_states {
                let score = delta[i] + safe_ln(a.get(i, j));
                if score > best {
                    best = score;
                    best_i = i;
                }
            }
            next[j] = best + emissions[j];
            back[j] = best_i;
        }
        delta = next;
        psi.push(back);
    }

    let (mut best_state, best_score) =
        delta
            .iter()
            .enumerate()
            .fold((0usize, f64::NEG_INFINITY), |(bi, bs), (i, &s)| {
                if s > bs {
                    (i, s)
                } else {
                    (bi, bs)
                }
            });
    let mut path = vec![0usize; num_obs];
    path[num_obs - 1] = best_state;
    for n in (1..num_obs).rev() {
        best_state = psi[n][best_state];
        path[n - 1] = best_state;
    }
    ViterbiResult {
        path,
        log_likelihood: best_score,
    }
}

/// The original scaled forward–backward pass (per-step clones, nested
/// buffers).
pub fn naive_forward_backward(spec: &EhmmSpec, obs: &EmissionTable) -> NaivePosteriors {
    assert_eq!(spec.num_states(), obs.num_states());
    let num_states = spec.num_states();
    let num_obs = obs.num_obs();
    let mut powers = TransitionPowers::new(spec.transition().clone());

    let emissions: Vec<Vec<f64>> = (0..num_obs).map(|n| obs.scaled_linear_row(n)).collect();
    let step_matrices: Vec<usize> = (0..num_obs).map(|n| obs.gap(n) as usize).collect();

    let mut alpha = vec![vec![0.0_f64; num_states]; num_obs];
    let mut log_likelihood = 0.0_f64;
    for i in 0..num_states {
        alpha[0][i] = spec.initial()[i] * emissions[0][i];
    }
    log_likelihood += normalize(&mut alpha[0]);
    for n in 1..num_obs {
        let a = powers.power(step_matrices[n] as u32).clone();
        let (prev, rest) = alpha.split_at_mut(n);
        let prev = &prev[n - 1];
        let cur = &mut rest[0];
        for j in 0..num_states {
            let mut acc = 0.0;
            for i in 0..num_states {
                acc += prev[i] * a.get(i, j);
            }
            cur[j] = acc * emissions[n][j];
        }
        log_likelihood += normalize(cur);
    }

    let mut beta = vec![vec![1.0_f64; num_states]; num_obs];
    for n in (0..num_obs - 1).rev() {
        let a = powers.power(step_matrices[n + 1] as u32).clone();
        let mut row = vec![0.0_f64; num_states];
        for i in 0..num_states {
            let mut acc = 0.0;
            for j in 0..num_states {
                acc += a.get(i, j) * emissions[n + 1][j] * beta[n + 1][j];
            }
            row[i] = acc;
        }
        normalize(&mut row);
        beta[n] = row;
    }

    let mut gamma = vec![vec![0.0_f64; num_states]; num_obs];
    for n in 0..num_obs {
        for i in 0..num_states {
            gamma[n][i] = alpha[n][i] * beta[n][i];
        }
        normalize(&mut gamma[n]);
    }

    let mut xi = Vec::with_capacity(num_obs.saturating_sub(1));
    for n in 0..num_obs.saturating_sub(1) {
        let a = powers.power(step_matrices[n + 1] as u32).clone();
        let mut pair = vec![vec![0.0_f64; num_states]; num_states];
        let mut total = 0.0;
        for i in 0..num_states {
            for j in 0..num_states {
                let v = alpha[n][i] * a.get(i, j) * emissions[n + 1][j] * beta[n + 1][j];
                pair[i][j] = v;
                total += v;
            }
        }
        if total > 0.0 {
            for row in &mut pair {
                for v in row.iter_mut() {
                    *v /= total;
                }
            }
        } else {
            let flat = 1.0 / (num_states * num_states) as f64;
            for row in &mut pair {
                for v in row.iter_mut() {
                    *v = flat;
                }
            }
        }
        xi.push(pair);
    }

    NaivePosteriors {
        gamma,
        xi,
        log_likelihood,
    }
}

/// The original path scorer (fresh powers cache, `safe_ln` per step).
pub fn naive_path_log_score(spec: &EhmmSpec, obs: &EmissionTable, path: &[usize]) -> f64 {
    assert_eq!(path.len(), obs.num_obs());
    let mut powers = TransitionPowers::new(spec.transition().clone());
    let mut score = safe_ln(spec.initial()[path[0]]) + obs.log_row(0)[path[0]];
    for n in 1..path.len() {
        let a = powers.power(obs.gap(n));
        score += safe_ln(a.get(path[n - 1], path[n])) + obs.log_row(n)[path[n]];
    }
    score
}

/// The original FFBS sampler (per-step clones, dense weight vectors).
pub fn naive_sample_path_ffbs<R: Rng + ?Sized>(
    spec: &EhmmSpec,
    obs: &EmissionTable,
    rng: &mut R,
) -> Vec<usize> {
    assert_eq!(spec.num_states(), obs.num_states());
    let num_states = spec.num_states();
    let num_obs = obs.num_obs();
    let mut powers = TransitionPowers::new(spec.transition().clone());
    let emissions: Vec<Vec<f64>> = (0..num_obs).map(|n| obs.scaled_linear_row(n)).collect();

    let mut alpha = vec![vec![0.0_f64; num_states]; num_obs];
    for i in 0..num_states {
        alpha[0][i] = spec.initial()[i] * emissions[0][i];
    }
    normalize(&mut alpha[0]);
    for n in 1..num_obs {
        let a = powers.power(obs.gap(n)).clone();
        let (prev, rest) = alpha.split_at_mut(n);
        let prev = &prev[n - 1];
        let cur = &mut rest[0];
        for j in 0..num_states {
            let mut acc = 0.0;
            for i in 0..num_states {
                acc += prev[i] * a.get(i, j);
            }
            cur[j] = acc * emissions[n][j];
        }
        normalize(cur);
    }

    let mut path = vec![0usize; num_obs];
    path[num_obs - 1] = sample_categorical(&alpha[num_obs - 1], rng);
    for n in (0..num_obs - 1).rev() {
        let a = powers.power(obs.gap(n + 1)).clone();
        let next_state = path[n + 1];
        let weights: Vec<f64> = (0..num_states)
            .map(|i| alpha[n][i] * a.get(i, next_state))
            .collect();
        path[n] = sample_categorical(&weights, rng);
    }
    path
}

/// The banded smoother's output while it still stored the dense pairwise
/// tensor: `xi[n]` is one K×K matrix per step, `totals[n]` its normalizer.
pub struct DensePosteriors {
    pub gamma: StateMatrix,
    pub xi: Vec<StateMatrix>,
    pub totals: Vec<f64>,
}

/// The banded, flat-buffer forward–backward pass as it was before ξ was
/// dropped from the posterior: the same forward scatter, backward gather
/// and marginals, then one dense K×K matrix per step.
pub fn dense_forward_backward(ws: &EhmmWorkspace, obs: &EmissionTable) -> DensePosteriors {
    let num_states = ws.spec().num_states();
    let num_obs = obs.num_obs();
    let step_kernels: Vec<_> = (1..num_obs).map(|n| ws.kernel(obs.gap(n))).collect();

    let mut emissions = StateMatrix::zeros(num_obs, num_states);
    for n in 0..num_obs {
        obs.scaled_linear_row_into(n, emissions.row_mut(n));
    }
    let mut alpha = StateMatrix::zeros(num_obs, num_states);
    for (slot, (&p, &e)) in alpha
        .row_mut(0)
        .iter_mut()
        .zip(ws.spec().initial().iter().zip(emissions.row(0)))
    {
        *slot = p * e;
    }
    normalize(alpha.row_mut(0));
    for n in 1..num_obs {
        let kernel = &step_kernels[n - 1];
        let (prev, cur) = alpha.prev_and_current(n);
        for (i, &p) in prev.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let row = kernel.matrix().row(i);
            for j in kernel.band(i, num_states) {
                cur[j] += p * row[j];
            }
        }
        for (c, &e) in cur.iter_mut().zip(emissions.row(n)) {
            *c *= e;
        }
        normalize(cur);
    }

    let mut beta = StateMatrix::filled(num_obs, num_states, 1.0);
    for n in (0..num_obs - 1).rev() {
        let kernel = &step_kernels[n];
        let (cur, next) = beta.current_and_next(n);
        let em_next = emissions.row(n + 1);
        for (i, slot) in cur.iter_mut().enumerate() {
            let row = kernel.matrix().row(i);
            let mut acc = 0.0;
            for j in kernel.band(i, num_states) {
                acc += row[j] * em_next[j] * next[j];
            }
            *slot = acc;
        }
        normalize(cur);
    }

    let mut gamma = StateMatrix::zeros(num_obs, num_states);
    for n in 0..num_obs {
        let row = gamma.row_mut(n);
        for (slot, (&a, &b)) in row.iter_mut().zip(alpha.row(n).iter().zip(beta.row(n))) {
            *slot = a * b;
        }
        normalize(row);
    }

    let mut xi = Vec::with_capacity(num_obs.saturating_sub(1));
    let mut totals = Vec::with_capacity(num_obs.saturating_sub(1));
    for n in 0..num_obs.saturating_sub(1) {
        let kernel = &step_kernels[n];
        let alpha_n = alpha.row(n);
        let em_next = emissions.row(n + 1);
        let beta_next = beta.row(n + 1);
        let mut pair = StateMatrix::zeros(num_states, num_states);
        let mut total = 0.0;
        for (i, &a) in alpha_n.iter().enumerate() {
            let row = kernel.matrix().row(i);
            let out = pair.row_mut(i);
            for j in kernel.band(i, num_states) {
                let v = a * row[j] * em_next[j] * beta_next[j];
                out[j] = v;
                total += v;
            }
        }
        if total > 0.0 {
            for v in pair.as_mut_slice() {
                *v /= total;
            }
        } else {
            let flat = 1.0 / (num_states * num_states) as f64;
            for v in pair.as_mut_slice() {
                *v = flat;
            }
        }
        xi.push(pair);
        totals.push(total);
    }
    DensePosteriors { gamma, xi, totals }
}

/// The Algorithm 1 sampler as it was over the dense tensor: copy column
/// `ξ[n][·][next_state]`, draw from it.
pub fn dense_sample_path<R: Rng + ?Sized>(
    posteriors: &DensePosteriors,
    viterbi: &ViterbiResult,
    rng: &mut R,
) -> Vec<usize> {
    let num_obs = posteriors.gamma.len();
    assert_eq!(viterbi.path.len(), num_obs, "viterbi path length mismatch");
    let num_states = posteriors.gamma.cols();
    let mut path = vec![0usize; num_obs];
    path[num_obs - 1] = viterbi.path[num_obs - 1];
    let mut weights = vec![0.0_f64; num_states];
    for n in (0..num_obs - 1).rev() {
        let next_state = path[n + 1];
        let pair = &posteriors.xi[n];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = pair[i][next_state];
        }
        path[n] = sample_categorical(&weights, rng);
    }
    path
}

fn normalize(v: &mut [f64]) -> f64 {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
        sum.ln()
    } else {
        let flat = 1.0 / v.len() as f64;
        for x in v.iter_mut() {
            *x = flat;
        }
        0.0
    }
}

mod differential {
    use super::*;
    use crate::matrix::TransitionMatrix;
    use crate::{forward_backward, path_log_score, sample_path_ffbs, viterbi};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    /// A random model: either the paper's tridiagonal prior (banded `A^Δ`,
    /// the production shape) or a dense random row-stochastic matrix (full
    /// bandwidth, exercising the band-clamping logic), plus a random
    /// emission table with occasional `-inf` (impossible-state) entries.
    pub(super) fn any_model() -> impl Strategy<Value = (EhmmSpec, EmissionTable)> {
        (
            2usize..=12,
            1usize..=30,
            0.0f64..=1.0,
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(num_states, num_obs, stay, seed, dense)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let transition = if dense {
                    let rows: Vec<Vec<f64>> = (0..num_states)
                        .map(|_| {
                            let raw: Vec<f64> =
                                (0..num_states).map(|_| rng.gen_range(0.01..1.0)).collect();
                            let sum: f64 = raw.iter().sum();
                            raw.iter().map(|v| v / sum).collect()
                        })
                        .collect();
                    TransitionMatrix::from_rows(rows)
                } else {
                    TransitionMatrix::tridiagonal(num_states, stay)
                };
                let spec = EhmmSpec::with_uniform_initial(transition);
                let rows: Vec<Vec<f64>> = (0..num_obs)
                    .map(|_| {
                        (0..num_states)
                            .map(|_| {
                                if rng.gen_range(0.0..1.0) < 0.05 {
                                    f64::NEG_INFINITY
                                } else {
                                    -rng.gen_range(0.0..10.0)
                                }
                            })
                            .collect()
                    })
                    .collect();
                let gaps: Vec<u32> = (0..num_obs)
                    .map(|n| if n == 0 { 0 } else { rng.gen_range(0..8) })
                    .collect();
                (spec, EmissionTable::new(rows, gaps))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        #[test]
        fn optimized_viterbi_is_identical_to_the_reference((spec, obs) in any_model()) {
            let fast = viterbi(&spec, &obs);
            let slow = naive_viterbi(&spec, &obs);
            prop_assert_eq!(&fast.path, &slow.path, "decoded paths diverge");
            let diff = (fast.log_likelihood - slow.log_likelihood).abs();
            prop_assert!(
                diff <= TOL || (fast.log_likelihood.is_infinite()
                    && slow.log_likelihood.is_infinite()),
                "log-likelihoods diverge: {} vs {}", fast.log_likelihood, slow.log_likelihood
            );
        }

        #[test]
        fn optimized_posteriors_match_the_reference((spec, obs) in any_model()) {
            let fast = forward_backward(&spec, &obs);
            let slow = naive_forward_backward(&spec, &obs);
            prop_assert!(
                (fast.log_likelihood - slow.log_likelihood).abs() <= TOL,
                "log-likelihood: {} vs {}", fast.log_likelihood, slow.log_likelihood
            );
            for n in 0..obs.num_obs() {
                for i in 0..spec.num_states() {
                    prop_assert!(
                        (fast.gamma[n][i] - slow.gamma[n][i]).abs() <= TOL,
                        "gamma[{}][{}]: {} vs {}", n, i, fast.gamma[n][i], slow.gamma[n][i]
                    );
                }
            }
            prop_assert_eq!(fast.totals.len(), slow.xi.len());
            let ws = EhmmWorkspace::new(spec.clone());
            for n in 0..fast.totals.len() {
                let pair = ws.pair(&fast, n);
                for i in 0..spec.num_states() {
                    for j in 0..spec.num_states() {
                        prop_assert!(
                            (pair[i][j] - slow.xi[n][i][j]).abs() <= TOL,
                            "xi[{}][{}][{}]: {} vs {}", n, i, j, pair[i][j], slow.xi[n][i][j]
                        );
                    }
                }
            }
        }

        #[test]
        fn optimized_path_scores_match_the_reference(((spec, obs), seed) in (any_model(), any::<u64>())) {
            let mut rng = StdRng::seed_from_u64(seed);
            let path: Vec<usize> = (0..obs.num_obs())
                .map(|_| rng.gen_range(0..spec.num_states()))
                .collect();
            let fast = path_log_score(&spec, &obs, &path);
            let slow = naive_path_log_score(&spec, &obs, &path);
            prop_assert!(
                (fast - slow).abs() <= TOL || (fast.is_infinite() && slow.is_infinite()),
                "path score: {} vs {}", fast, slow
            );
        }

        #[test]
        fn optimized_ffbs_consumes_the_same_rng_stream(((spec, obs), seed) in (any_model(), any::<u64>())) {
            // Identical weights (zeros outside the band are structural) must
            // produce identical draws from identical RNG states.
            let fast = sample_path_ffbs(&spec, &obs, &mut StdRng::seed_from_u64(seed));
            let slow = naive_sample_path_ffbs(&spec, &obs, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn shared_workspace_matches_fresh_workspaces((spec, obs) in any_model()) {
            // Running every kernel through one shared workspace (the engine
            // configuration) gives the same results as the one-shot wrappers.
            let ws = EhmmWorkspace::new(spec.clone());
            let v1 = ws.viterbi(&obs);
            let v2 = viterbi(&spec, &obs);
            prop_assert_eq!(v1.path, v2.path);
            let p1 = ws.forward_backward(&obs);
            let p2 = forward_backward(&spec, &obs);
            prop_assert_eq!(p1, p2);
        }
    }
}

mod dense_xi {
    use super::differential::any_model;
    use super::*;
    use crate::matrix::TransitionMatrix;
    use crate::viterbi;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// The O(N·K) posterior reproduces the dense-ξ smoother bit for
        /// bit: γ, every step's total, every rebuilt ξ column, and every
        /// Algorithm 1 path drawn from the same RNG seed.
        #[test]
        fn column_rebuild_matches_the_dense_tensor(((spec, obs), seed) in (any_model(), any::<u64>())) {
            let ws = EhmmWorkspace::new(spec.clone());
            let fast = ws.forward_backward(&obs);
            let dense = dense_forward_backward(&ws, &obs);
            prop_assert_eq!(bits(fast.gamma.as_slice()), bits(dense.gamma.as_slice()));
            prop_assert_eq!(bits(&fast.totals), bits(&dense.totals));
            for n in 0..dense.xi.len() {
                let pair = ws.pair(&fast, n);
                for j in 0..spec.num_states() {
                    let column = |m: &StateMatrix| -> Vec<u64> {
                        (0..spec.num_states()).map(|i| m[i][j].to_bits()).collect()
                    };
                    prop_assert_eq!(column(&pair), column(&dense.xi[n]), "step {} column {}", n, j);
                }
            }

            let v = viterbi(&spec, &obs);
            let k = 4;
            let paths = ws.sample_paths(&fast, &v, k, &mut StdRng::seed_from_u64(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let reference: Vec<Vec<usize>> =
                (0..k).map(|_| dense_sample_path(&dense, &v, &mut rng)).collect();
            prop_assert_eq!(paths, reference);
        }
    }

    #[test]
    fn degenerate_steps_fall_back_to_the_flat_pair() {
        // A^0 = I pins the state across step 0, but the second observation
        // rules that state out: the step's total is 0, so ξ[0] is the flat
        // 1/K² in both representations.
        let spec = EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(3, 0.7));
        let obs = EmissionTable::new(
            vec![
                vec![0.0, f64::NEG_INFINITY, f64::NEG_INFINITY],
                vec![f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY],
            ],
            vec![0, 0],
        );
        let ws = EhmmWorkspace::new(spec.clone());
        let fast = ws.forward_backward(&obs);
        let dense = dense_forward_backward(&ws, &obs);
        assert_eq!(fast.totals, vec![0.0]);
        let pair = ws.pair(&fast, 0);
        assert!(pair.as_slice().iter().all(|&p| p == 1.0 / 9.0));
        assert_eq!(bits(pair.as_slice()), bits(dense.xi[0].as_slice()));
        let v = viterbi(&spec, &obs);
        for seed in 0..20 {
            assert_eq!(
                ws.sample_path(&fast, &v, &mut StdRng::seed_from_u64(seed)),
                dense_sample_path(&dense, &v, &mut StdRng::seed_from_u64(seed))
            );
        }
    }
}
