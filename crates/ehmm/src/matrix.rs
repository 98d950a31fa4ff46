//! Row-stochastic transition matrices and their integer powers.

use serde::{Deserialize, Serialize};

/// A row-stochastic transition matrix over a finite state space.
///
/// `A[i][j]` is the probability of moving from state `i` to state `j` in one
/// δ-interval. The Veritas EHMM replaces the constant per-step matrix of a
/// vanilla HMM with `A^Δn`, where `Δn` is the number of δ-intervals between
/// the starts of consecutive chunks, so integer matrix powers are a core
/// operation here (computed by exponentiation-by-squaring and memoized by
/// [`TransitionPowers`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionMatrix {
    n: usize,
    /// Row-major storage, `data[i * n + j]`.
    data: Vec<f64>,
}

impl TransitionMatrix {
    /// Builds a matrix from rows, validating shape and row-stochasticity.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty, non-square, contains negative or
    /// non-finite entries, or a row does not sum to 1 (±1e-6).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        assert!(n > 0, "transition matrix must be non-empty");
        let mut data = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            check_row(i, row);
            data.extend_from_slice(row);
        }
        Self { n, data }
    }

    /// The identity matrix (zero transitions allowed).
    pub fn identity(n: usize) -> Self {
        assert!(n > 0);
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self { n, data }
    }

    /// Uniform transitions: every state is equally likely next.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0);
        Self {
            n,
            data: vec![1.0 / n as f64; n * n],
        }
    }

    /// The tridiagonal prior the paper uses: with probability `stay` the
    /// state is unchanged; otherwise it moves one grid step up or down
    /// (splitting the remainder evenly, with reflection at the boundaries).
    pub fn tridiagonal(n: usize, stay: f64) -> Self {
        assert!(n > 0);
        assert!((0.0..=1.0).contains(&stay));
        let mut data = vec![0.0; n * n];
        for (i, row) in data.chunks_exact_mut(n).enumerate() {
            for (j, p) in row.iter_mut().enumerate() {
                *p = tridiagonal_entry(n, stay, i, j);
            }
            check_row(i, row);
        }
        Self { n, data }
    }

    /// Whether this matrix equals [`TransitionMatrix::tridiagonal`]`(n,
    /// stay)` entry for entry, compared in place without building it.
    pub(crate) fn is_tridiagonal(&self, n: usize, stay: f64) -> bool {
        self.n == n
            && self
                .data
                .chunks_exact(n)
                .enumerate()
                .all(|(i, row)| (0..n).all(|j| row[j] == tridiagonal_entry(n, stay, i, j)))
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Probability of moving from `i` to `j` in one step.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Matrix product `self * other`.
    pub fn multiply(&self, other: &TransitionMatrix) -> TransitionMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let a = self.data[i * n + k];
                if a == 0.0 {
                    continue;
                }
                let other_row = &other.data[k * n..(k + 1) * n];
                let out_row = &mut data[i * n..(i + 1) * n];
                for (j, &b) in other_row.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        TransitionMatrix { n, data }
    }

    /// `self^k` by exponentiation-by-squaring. `k == 0` gives the identity.
    pub fn power(&self, k: u32) -> TransitionMatrix {
        let mut result = TransitionMatrix::identity(self.n);
        let mut base = self.clone();
        let mut exp = k;
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.multiply(&base);
            }
            base = base.multiply(&base);
            exp >>= 1;
        }
        result
    }

    /// Checks that every row still sums to 1 within `tol` (useful after
    /// repeated multiplication).
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        (0..self.n).all(|i| (self.row(i).iter().sum::<f64>() - 1.0).abs() <= tol)
    }
}

/// Asserts that row `i` of a transition matrix holds finite, non-negative
/// probabilities summing to 1 (±1e-6).
/// Entry `(i, j)` of [`TransitionMatrix::tridiagonal`]`(n, stay)`: `stay`
/// on the diagonal, the whole remainder `1 − stay` to the one neighbour of
/// a boundary state, half of it to each neighbour of an inner state; a
/// one-state chain always stays.
fn tridiagonal_entry(n: usize, stay: f64, i: usize, j: usize) -> f64 {
    let move_p = 1.0 - stay;
    if n == 1 {
        1.0
    } else if i == j {
        stay
    } else if i.abs_diff(j) != 1 {
        0.0
    } else if i == 0 || i == n - 1 {
        move_p
    } else {
        move_p / 2.0
    }
}

fn check_row(i: usize, row: &[f64]) {
    let mut sum = 0.0;
    for &p in row {
        assert!(
            p.is_finite() && p >= 0.0,
            "row {i} has invalid probability {p}"
        );
        sum += p;
    }
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "row {i} sums to {sum}, expected 1.0"
    );
}

/// Memo cache of integer powers of a transition matrix.
///
/// Chunk gaps `Δn` repeat heavily within a session (most consecutive chunks
/// are 0 or 1 intervals apart), so caching powers avoids recomputing the
/// same product for every chunk.
#[derive(Debug, Clone)]
pub struct TransitionPowers {
    base: TransitionMatrix,
    cache: std::collections::HashMap<u32, TransitionMatrix>,
}

impl TransitionPowers {
    /// Creates a cache over `base`.
    pub fn new(base: TransitionMatrix) -> Self {
        Self {
            base,
            cache: std::collections::HashMap::new(),
        }
    }

    /// The underlying one-step matrix.
    pub fn base(&self) -> &TransitionMatrix {
        &self.base
    }

    /// `base^k`, computed on first use and cached.
    pub fn power(&mut self, k: u32) -> &TransitionMatrix {
        self.cache.entry(k).or_insert_with(|| self.base.power(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_validates_stochasticity() {
        let m = TransitionMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.1, 0.9]]);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(1, 0), 0.1);
        assert!(m.is_row_stochastic(1e-12));
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn rejects_non_stochastic_rows() {
        let _ = TransitionMatrix::from_rows(vec![vec![0.5, 0.2], vec![0.1, 0.9]]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn rejects_ragged_rows() {
        let _ = TransitionMatrix::from_rows(vec![vec![1.0], vec![0.5, 0.5]]);
    }

    #[test]
    fn identity_and_power_zero() {
        let m = TransitionMatrix::tridiagonal(5, 0.8);
        let p0 = m.power(0);
        assert_eq!(p0, TransitionMatrix::identity(5));
    }

    #[test]
    fn power_one_is_the_matrix_itself() {
        let m = TransitionMatrix::tridiagonal(4, 0.7);
        assert_eq!(m.power(1), m);
    }

    #[test]
    fn power_matches_repeated_multiplication() {
        let m = TransitionMatrix::tridiagonal(6, 0.6);
        let by_squaring = m.power(5);
        let mut by_mult = m.clone();
        for _ in 0..4 {
            by_mult = by_mult.multiply(&m);
        }
        for i in 0..6 {
            for j in 0..6 {
                assert!((by_squaring.get(i, j) - by_mult.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn powers_remain_row_stochastic() {
        let m = TransitionMatrix::tridiagonal(10, 0.85);
        for k in [0u32, 1, 2, 7, 33, 128] {
            assert!(
                m.power(k).is_row_stochastic(1e-9),
                "A^{k} lost stochasticity"
            );
        }
    }

    #[test]
    fn tridiagonal_structure() {
        let m = TransitionMatrix::tridiagonal(5, 0.8);
        assert_eq!(m.get(2, 2), 0.8);
        assert!((m.get(2, 1) - 0.1).abs() < 1e-12);
        assert!((m.get(2, 3) - 0.1).abs() < 1e-12);
        assert_eq!(m.get(2, 4), 0.0);
        // Boundary rows push all movement inward.
        assert!((m.get(0, 1) - 0.2).abs() < 1e-12);
        assert!((m.get(4, 3) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tridiagonal_is_bit_identical_to_its_row_built_form() {
        // The nested-rows construction the flat buffer replaced.
        fn row_built(n: usize, stay: f64) -> TransitionMatrix {
            let move_p = 1.0 - stay;
            let mut rows = vec![vec![0.0; n]; n];
            for (i, row) in rows.iter_mut().enumerate() {
                row[i] = stay;
                if i == 0 {
                    row[1] += move_p;
                } else if i == n - 1 {
                    row[n - 2] += move_p;
                } else {
                    row[i - 1] += move_p / 2.0;
                    row[i + 1] += move_p / 2.0;
                }
            }
            TransitionMatrix::from_rows(rows)
        }
        for n in [2, 3, 5, 21, 41, 63] {
            for stay in [0.0, 1.0 / 3.0, 0.5, 0.8, 0.85, 0.999, 1.0] {
                let flat = TransitionMatrix::tridiagonal(n, stay);
                let rows = row_built(n, stay);
                let bits =
                    |m: &TransitionMatrix| m.data.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&flat), bits(&rows), "n = {n}, stay = {stay}");
            }
        }
    }

    #[test]
    fn tridiagonal_single_state_is_identity() {
        assert_eq!(
            TransitionMatrix::tridiagonal(1, 0.5),
            TransitionMatrix::identity(1)
        );
    }

    #[test]
    fn uniform_rows_are_flat() {
        let m = TransitionMatrix::uniform(4);
        assert!(m.row(2).iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn high_powers_of_tridiagonal_approach_a_flat_distribution() {
        // The tridiagonal chain with reflection is irreducible and aperiodic
        // (stay > 0), so A^k converges to its stationary distribution.
        let m = TransitionMatrix::tridiagonal(5, 0.5);
        let p = m.power(4096);
        for j in 0..5 {
            let col: Vec<f64> = (0..5).map(|i| p.get(i, j)).collect();
            let spread = col.iter().cloned().fold(0.0_f64, f64::max)
                - col.iter().cloned().fold(1.0_f64, f64::min);
            assert!(spread < 1e-6, "column {j} has not mixed: {col:?}");
        }
    }

    proptest::proptest! {
        /// The in-place check accepts exactly the matrix `tridiagonal`
        /// builds: the same state count and stay probability, one of them
        /// changed is refused; so is any other spec's initial
        /// distribution.
        #[test]
        fn the_in_place_tridiagonal_check_matches_the_built_matrix(
            n in 1usize..40,
            stay in 0.0f64..=1.0,
            other in 0.0f64..=1.0,
        ) {
            let built = TransitionMatrix::tridiagonal(n, stay);
            proptest::prop_assert!(built.is_tridiagonal(n, stay));
            proptest::prop_assert!(!built.is_tridiagonal(n + 1, stay));
            if n > 1 {
                proptest::prop_assert!(!built.is_tridiagonal(n - 1, stay));
                proptest::prop_assert_eq!(
                    built.is_tridiagonal(n, other),
                    TransitionMatrix::tridiagonal(n, other) == built
                );
            }
            let spec = crate::EhmmSpec::with_uniform_initial(built.clone());
            proptest::prop_assert!(spec.is_uniform_tridiagonal(n, stay));
            proptest::prop_assert!(!spec.is_uniform_tridiagonal(n + 1, stay));
            if n > 1 {
                let mut initial = vec![0.0; n];
                initial[0] = 1.0;
                let skewed = crate::EhmmSpec::new(built, initial);
                proptest::prop_assert!(!skewed.is_uniform_tridiagonal(n, stay));
            }
        }
    }

    #[test]
    fn powers_cache_returns_consistent_results() {
        let mut cache = TransitionPowers::new(TransitionMatrix::tridiagonal(6, 0.75));
        let direct = cache.base().power(9);
        let cached = cache.power(9).clone();
        assert_eq!(direct, cached);
        // Second lookup hits the cache and must be identical.
        assert_eq!(*cache.power(9), direct);
    }
}
