//! Model specification and observation table for the embedded HMM.

use serde::{Deserialize, Serialize};

use crate::matrix::TransitionMatrix;

/// The hidden-chain specification of the EHMM: the one-step transition
/// matrix over the quantized capacity grid and the initial distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EhmmSpec {
    transition: TransitionMatrix,
    /// Initial distribution over states (linear space, sums to 1).
    initial: Vec<f64>,
}

impl EhmmSpec {
    /// Builds a spec from a transition matrix and an explicit initial
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if the initial distribution has the wrong length, contains
    /// negative or non-finite entries, or does not sum to 1 (±1e-6).
    pub fn new(transition: TransitionMatrix, initial: Vec<f64>) -> Self {
        assert_eq!(
            initial.len(),
            transition.num_states(),
            "initial distribution length must match the state count"
        );
        let mut sum = 0.0;
        for &p in &initial {
            assert!(p.is_finite() && p >= 0.0, "invalid initial probability {p}");
            sum += p;
        }
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "initial distribution sums to {sum}"
        );
        Self {
            transition,
            initial,
        }
    }

    /// A spec with the uniform initial distribution the paper uses.
    pub fn with_uniform_initial(transition: TransitionMatrix) -> Self {
        let n = transition.num_states();
        Self::new(transition, vec![1.0 / n as f64; n])
    }

    /// Whether this spec equals
    /// `EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(num_states,
    /// stay))`, compared in place: nothing is allocated, so a caller can
    /// check a shared workspace's spec on every use.
    pub fn is_uniform_tridiagonal(&self, num_states: usize, stay: f64) -> bool {
        let uniform = 1.0 / num_states as f64;
        self.transition.is_tridiagonal(num_states, stay)
            && self.initial.iter().all(|&p| p == uniform)
    }

    /// Number of hidden states.
    pub fn num_states(&self) -> usize {
        self.transition.num_states()
    }

    /// The one-step transition matrix.
    pub fn transition(&self) -> &TransitionMatrix {
        &self.transition
    }

    /// The initial distribution (linear space).
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }
}

/// Per-observation emission log-densities and embedded transition gaps.
///
/// `log_density[n][i]` is `log P(Y_n | C_{s_n} = state_i, W_{s_n}, S_n)` —
/// computed by the caller from the domain model (the TCP estimator `f` plus
/// Gaussian noise), which is what makes this an *embedded* HMM rather than a
/// generic one. `gaps[n]` is `Δ_n = s_n − s_{n−1}` measured in δ-intervals;
/// `gaps[0]` is ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmissionTable {
    log_density: Vec<Vec<f64>>,
    gaps: Vec<u32>,
}

impl EmissionTable {
    /// Builds a table, validating shapes and finiteness.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, rows are ragged, any density is NaN, or
    /// `gaps` length differs from the number of observations.
    pub fn new(log_density: Vec<Vec<f64>>, gaps: Vec<u32>) -> Self {
        assert!(!log_density.is_empty(), "need at least one observation");
        let k = log_density[0].len();
        assert!(k > 0, "need at least one state");
        for (n, row) in log_density.iter().enumerate() {
            assert_eq!(row.len(), k, "observation {n} has a ragged emission row");
            assert!(
                row.iter().all(|v| !v.is_nan()),
                "observation {n} has NaN emission densities"
            );
        }
        assert_eq!(
            gaps.len(),
            log_density.len(),
            "gaps length must equal the number of observations"
        );
        Self { log_density, gaps }
    }

    /// Number of observations (chunks).
    pub fn num_obs(&self) -> usize {
        self.log_density.len()
    }

    /// Number of hidden states.
    pub fn num_states(&self) -> usize {
        self.log_density[0].len()
    }

    /// Emission log-density row for observation `n`.
    pub fn log_row(&self, n: usize) -> &[f64] {
        &self.log_density[n]
    }

    /// Embedded transition gap `Δ_n` for observation `n` (`n ≥ 1`).
    pub fn gap(&self, n: usize) -> u32 {
        self.gaps[n]
    }

    /// All gaps.
    pub fn gaps(&self) -> &[u32] {
        &self.gaps
    }

    /// Emission probabilities for observation `n` in linear space, rescaled
    /// so the largest entry is 1 (the per-observation constant cancels in
    /// every posterior quantity, and rescaling avoids underflow).
    pub fn scaled_linear_row(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.num_states()];
        self.scaled_linear_row_into(n, &mut out);
        out
    }

    /// Writes [`Self::scaled_linear_row`] for observation `n` into `out`
    /// without allocating — the hot-path variant the inference workspace
    /// uses to fill one flat emission buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the state count.
    pub fn scaled_linear_row_into(&self, n: usize, out: &mut [f64]) {
        let row = self.log_row(n);
        assert_eq!(out.len(), row.len(), "output row has the wrong length");
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            // Every state is impossible; return a flat row so the algorithms
            // degrade to prior-driven inference instead of emitting NaNs.
            out.fill(1.0);
            return;
        }
        for (slot, &v) in out.iter_mut().zip(row) {
            *slot = (v - max).exp();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validates_initial_distribution() {
        let t = TransitionMatrix::tridiagonal(3, 0.8);
        let spec = EhmmSpec::new(t.clone(), vec![0.2, 0.3, 0.5]);
        assert_eq!(spec.num_states(), 3);
        assert_eq!(spec.initial()[2], 0.5);
        let uniform = EhmmSpec::with_uniform_initial(t);
        assert!((uniform.initial().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn spec_rejects_unnormalized_initial() {
        let t = TransitionMatrix::tridiagonal(3, 0.8);
        let _ = EhmmSpec::new(t, vec![0.2, 0.3, 0.1]);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn spec_rejects_wrong_length_initial() {
        let t = TransitionMatrix::tridiagonal(3, 0.8);
        let _ = EhmmSpec::new(t, vec![0.5, 0.5]);
    }

    #[test]
    fn emission_table_shape_checks() {
        let table = EmissionTable::new(vec![vec![-1.0, -2.0], vec![-0.5, -3.0]], vec![0, 2]);
        assert_eq!(table.num_obs(), 2);
        assert_eq!(table.num_states(), 2);
        assert_eq!(table.gap(1), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn emission_table_rejects_ragged_rows() {
        let _ = EmissionTable::new(vec![vec![-1.0, -2.0], vec![-0.5]], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "gaps length")]
    fn emission_table_rejects_wrong_gaps() {
        let _ = EmissionTable::new(vec![vec![-1.0, -2.0]], vec![0, 1]);
    }

    #[test]
    fn scaled_linear_row_peaks_at_one() {
        let table = EmissionTable::new(vec![vec![-10.0, -2.0, -5.0]], vec![0]);
        let row = table.scaled_linear_row(0);
        assert!((row[1] - 1.0).abs() < 1e-12);
        assert!(row[0] < row[2]);
    }

    #[test]
    fn scaled_linear_row_handles_all_impossible_states() {
        let table = EmissionTable::new(vec![vec![f64::NEG_INFINITY, f64::NEG_INFINITY]], vec![0]);
        let row = table.scaled_linear_row(0);
        assert_eq!(row, vec![1.0, 1.0]);
    }
}
