//! The Veritas Baum–Welch forward–backward variant (paper Algorithm 2).
//!
//! As with the Viterbi variant, the only structural change from the textbook
//! algorithm is that transitions between consecutive observations use
//! `A^{Δ_n}`. The implementation uses per-step scaling (normalizing the
//! forward and backward vectors) so long sessions do not underflow, and
//! returns the per-observation marginals `γ` plus the O(N·K) inputs the
//! pairwise posteriors `Γ` (called `ξ` in HMM literature) are computed
//! from. The dense `ξ` tensor is (N−1)·K² words, and the capacity sampler
//! reads one column of it per step, so it is never stored:
//! [`EhmmWorkspace::sample_path`] rebuilds each column it reads and
//! [`EhmmWorkspace::pair`] materialises a whole step when a test needs it.
//!
//! The computation itself lives in [`EhmmWorkspace::forward_backward`] —
//! flat buffers, banded matvecs, shared per-gap kernels. This module keeps
//! the public [`Posteriors`] type and the classic free-function entry point.

use crate::dense::{normalize, StateMatrix};
use crate::model::{EhmmSpec, EmissionTable};
use crate::workspace::EhmmWorkspace;

/// Posterior quantities produced by the forward–backward pass.
///
/// Every buffer is O(N·K). The pairwise posterior of step `n` is
///
/// `ξ[n][i][j] = α[n][i] · A^Δ[i][j] · e[n+1][j] · β[n+1][j] / totals[n]`
///
/// with `Δ = gaps[n + 1]`, evaluated in exactly that order inside the
/// kernel band, 0 outside it, and the flat `1/K²` wherever `totals[n]` is
/// not positive. [`EhmmWorkspace::pair`] evaluates it for a whole step.
#[derive(Debug, Clone, PartialEq)]
pub struct Posteriors {
    /// `gamma[n][i] = P(C_{s_n} = i | Y_{1:N}, W, S)`: each row is
    /// `α[n] ⊙ β[n]`, normalized.
    pub gamma: StateMatrix,
    /// Scaled forward variables: row `n` is the normalized filter
    /// `P(C_{s_n} | Y_{1:n})`.
    pub alpha: StateMatrix,
    /// Scaled backward variables, one normalized row per observation.
    pub beta: StateMatrix,
    /// Scaled linear emission rows `e[n][j]` (each row's largest entry is
    /// 1, see [`EmissionTable::scaled_linear_row`]).
    pub emissions: StateMatrix,
    /// `totals[n]`, for `n = 0..N−2`: the normalizer of step `n`'s pairwise
    /// posterior, summed over `i` ascending and then `j` across the kernel
    /// band.
    pub totals: Vec<f64>,
    /// The embedded gap `Δ_n` of every observation, as in
    /// [`EmissionTable::gaps`]; step `n` transports with
    /// `A^{gaps[n + 1]}`.
    pub gaps: Vec<u32>,
    /// Log-likelihood of the observations under the model, up to the
    /// per-observation emission scaling constants (comparable across
    /// candidate hidden-state priors for the same observations).
    pub log_likelihood: f64,
}

impl Posteriors {
    /// Assembles posteriors from the smoother's parts, deriving `γ` from
    /// `α` and `β` — the one place `γ` is computed, so a posterior
    /// restored from its stored parts carries the same `γ` bits as a fresh
    /// forward–backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` and `beta` differ in shape.
    pub fn new(
        alpha: StateMatrix,
        beta: StateMatrix,
        emissions: StateMatrix,
        totals: Vec<f64>,
        gaps: Vec<u32>,
        log_likelihood: f64,
    ) -> Self {
        assert!(
            alpha.len() == beta.len() && alpha.cols() == beta.cols(),
            "alpha and beta must have the same shape"
        );
        let mut gamma = StateMatrix::zeros(alpha.len(), alpha.cols());
        for n in 0..alpha.len() {
            let row = gamma.row_mut(n);
            for (slot, (&a, &b)) in row.iter_mut().zip(alpha.row(n).iter().zip(beta.row(n))) {
                *slot = a * b;
            }
            normalize(row);
        }
        Self {
            gamma,
            alpha,
            beta,
            emissions,
            totals,
            gaps,
            log_likelihood,
        }
    }

    /// Marginally most likely state per observation (differs in general from
    /// the Viterbi path, which is the jointly most likely sequence).
    pub fn marginal_map_path(&self) -> Vec<usize> {
        self.gamma
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite posteriors"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Posterior mean of an arbitrary state-indexed value (e.g. the capacity
    /// grid) at observation `n`.
    pub fn posterior_mean(&self, n: usize, values: &[f64]) -> f64 {
        self.gamma[n].iter().zip(values).map(|(&p, &v)| p * v).sum()
    }
}

/// Runs the scaled forward–backward algorithm with embedded transition gaps.
///
/// Convenience wrapper building a single-use [`EhmmWorkspace`]; callers with
/// many passes over the same spec should create one workspace and call
/// [`EhmmWorkspace::forward_backward`] to share the per-gap kernels.
pub fn forward_backward(spec: &EhmmSpec, obs: &EmissionTable) -> Posteriors {
    EhmmWorkspace::new(spec.clone()).forward_backward(obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{TransitionMatrix, TransitionPowers};

    fn spec3() -> EhmmSpec {
        EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(3, 0.7))
    }

    /// Every step's materialised pairwise posterior `ξ[n]`.
    fn pairs(spec: &EhmmSpec, p: &Posteriors) -> Vec<StateMatrix> {
        let ws = EhmmWorkspace::new(spec.clone());
        (0..p.totals.len()).map(|n| ws.pair(p, n)).collect()
    }

    /// Exact posteriors by brute-force enumeration of every state sequence.
    fn brute_force(spec: &EhmmSpec, obs: &EmissionTable) -> (Vec<Vec<f64>>, Vec<Vec<Vec<f64>>>) {
        let num_states = spec.num_states();
        let num_obs = obs.num_obs();
        let mut powers = TransitionPowers::new(spec.transition().clone());
        let emissions: Vec<Vec<f64>> = (0..num_obs).map(|n| obs.scaled_linear_row(n)).collect();
        let total_paths = num_states.pow(num_obs as u32);
        let mut gamma = vec![vec![0.0; num_states]; num_obs];
        let mut xi = vec![vec![vec![0.0; num_states]; num_states]; num_obs - 1];
        let mut z = 0.0;
        for idx in 0..total_paths {
            let mut rem = idx;
            let mut path = vec![0usize; num_obs];
            for slot in path.iter_mut() {
                *slot = rem % num_states;
                rem /= num_states;
            }
            let mut w = spec.initial()[path[0]] * emissions[0][path[0]];
            for n in 1..num_obs {
                let a = powers.power(obs.gap(n));
                w *= a.get(path[n - 1], path[n]) * emissions[n][path[n]];
            }
            z += w;
            for n in 0..num_obs {
                gamma[n][path[n]] += w;
            }
            for n in 0..num_obs - 1 {
                xi[n][path[n]][path[n + 1]] += w;
            }
        }
        for row in &mut gamma {
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        for pair in &mut xi {
            for row in pair.iter_mut() {
                for v in row.iter_mut() {
                    *v /= z;
                }
            }
        }
        (gamma, xi)
    }

    fn example_obs() -> EmissionTable {
        EmissionTable::new(
            vec![
                vec![-0.2, -1.5, -3.0],
                vec![-1.0, -0.4, -2.0],
                vec![-2.5, -0.9, -0.8],
                vec![-3.0, -1.2, -0.3],
            ],
            vec![0, 1, 3, 2],
        )
    }

    #[test]
    fn marginals_sum_to_one() {
        let p = forward_backward(&spec3(), &example_obs());
        for (n, row) in p.gamma.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "gamma[{n}] sums to {sum}");
            assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        }
        for (n, pair) in pairs(&spec3(), &p).iter().enumerate() {
            let sum: f64 = pair.iter().flatten().sum();
            assert!((sum - 1.0).abs() < 1e-9, "xi[{n}] sums to {sum}");
        }
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let spec = spec3();
        let obs = example_obs();
        let p = forward_backward(&spec, &obs);
        let xi = pairs(&spec, &p);
        let (gamma_bf, xi_bf) = brute_force(&spec, &obs);
        for n in 0..obs.num_obs() {
            for i in 0..3 {
                assert!(
                    (p.gamma[n][i] - gamma_bf[n][i]).abs() < 1e-9,
                    "gamma[{n}][{i}]: {} vs brute force {}",
                    p.gamma[n][i],
                    gamma_bf[n][i]
                );
            }
        }
        for n in 0..obs.num_obs() - 1 {
            for i in 0..3 {
                for j in 0..3 {
                    assert!(
                        (xi[n][i][j] - xi_bf[n][i][j]).abs() < 1e-9,
                        "xi[{n}][{i}][{j}]: {} vs {}",
                        xi[n][i][j],
                        xi_bf[n][i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn pair_marginals_are_consistent_with_gamma() {
        let p = forward_backward(&spec3(), &example_obs());
        let xi = pairs(&spec3(), &p);
        for n in 0..xi.len() {
            for i in 0..3 {
                let row_sum: f64 = xi[n][i].iter().sum();
                assert!(
                    (row_sum - p.gamma[n][i]).abs() < 1e-9,
                    "sum_j xi[{n}][{i}][j] = {row_sum} != gamma[{n}][{i}] = {}",
                    p.gamma[n][i]
                );
            }
            for j in 0..3 {
                let col_sum: f64 = (0..3).map(|i| xi[n][i][j]).sum();
                assert!((col_sum - p.gamma[n + 1][j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn peaked_emissions_pin_the_posterior() {
        let spec = spec3();
        let obs = EmissionTable::new(
            vec![
                vec![-0.1, -12.0, -12.0],
                vec![-12.0, -0.1, -12.0],
                vec![-12.0, -12.0, -0.1],
            ],
            vec![0, 2, 2],
        );
        let p = forward_backward(&spec, &obs);
        assert!(p.gamma[0][0] > 0.98);
        assert!(p.gamma[1][1] > 0.98);
        assert!(p.gamma[2][2] > 0.98);
        assert_eq!(p.marginal_map_path(), vec![0, 1, 2]);
    }

    #[test]
    fn uninformative_emissions_recover_the_prior_chain() {
        // With flat emissions the marginal at the first observation is the
        // initial distribution.
        let spec = spec3();
        let obs = EmissionTable::new(vec![vec![-1.0; 3]; 4], vec![0, 1, 1, 1]);
        let p = forward_backward(&spec, &obs);
        for i in 0..3 {
            assert!((p.gamma[0][i] - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn posterior_mean_interpolates_between_states() {
        let spec = spec3();
        let obs = EmissionTable::new(vec![vec![-0.5, -0.5, -30.0]], vec![0]);
        let p = forward_backward(&spec, &obs);
        let mean = p.posterior_mean(0, &[0.0, 1.0, 2.0]);
        assert!(
            (mean - 0.5).abs() < 1e-6,
            "two equally likely states average to 0.5, got {mean}"
        );
    }

    #[test]
    fn long_sequences_do_not_underflow() {
        let spec = EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(21, 0.9));
        let num_obs = 300;
        let rows: Vec<Vec<f64>> = (0..num_obs)
            .map(|n| {
                let target = (n / 30) % 21;
                (0..21)
                    .map(|i| -0.5 * ((i as f64 - target as f64) / 0.7).powi(2))
                    .collect()
            })
            .collect();
        let gaps = vec![1u32; num_obs];
        let obs = EmissionTable::new(rows, gaps);
        let p = forward_backward(&spec, &obs);
        assert!(p.log_likelihood.is_finite());
        for row in &p.gamma {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn likelihood_prefers_the_better_fitting_prior() {
        // Observations that hop between the extreme states (two grid steps
        // apart, with gaps of 2 so the jump is reachable) should be better
        // explained by a less sticky chain than by an almost-frozen one.
        let volatile_obs = EmissionTable::new(
            vec![
                vec![-0.1, -8.0, -8.0],
                vec![-8.0, -8.0, -0.1],
                vec![-0.1, -8.0, -8.0],
                vec![-8.0, -8.0, -0.1],
            ],
            vec![0, 2, 2, 2],
        );
        let sticky = EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(3, 0.999));
        let mobile = EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(3, 0.4));
        let ll_sticky = forward_backward(&sticky, &volatile_obs).log_likelihood;
        let ll_mobile = forward_backward(&mobile, &volatile_obs).log_likelihood;
        assert!(ll_mobile > ll_sticky);
    }
}
