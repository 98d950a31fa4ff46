//! Flat row-major buffers for the inference hot path.
//!
//! Every per-observation quantity of the EHMM kernels (α, β, γ and the
//! scaled emission rows) used to live in `Vec<Vec<f64>>`: one heap
//! allocation per row and a pointer chase per access. [`StateMatrix`]
//! replaces that with a single contiguous allocation plus a row stride,
//! while still *indexing* like the nested representation (`m[n][i]`), so
//! downstream code — the capacity sampler, tests, callers reading
//! `Posteriors::gamma` — is unchanged. A step's K×K pairwise posterior is
//! only ever materialised as a `StateMatrix` by
//! [`EhmmWorkspace::pair`](crate::EhmmWorkspace::pair), for tests.

use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix of `f64` in one contiguous
/// allocation.
///
/// `m[r]` yields the `r`-th row as a `&[f64]`, so `m[r][c]` reads entry
/// `(r, c)` exactly like the nested-`Vec` layout it replaces. Iteration
/// (`m.iter()`, `for row in &m`) walks rows in order.
#[derive(Debug, Clone, PartialEq)]
pub struct StateMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl StateMatrix {
    /// A `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero (rows must be indexable).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// A `rows × cols` matrix with every entry set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero (rows must be indexable).
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        assert!(cols > 0, "StateMatrix rows must be non-empty");
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps an existing row-major buffer as a `rows × cols` matrix —
    /// the reconstruction path for posteriors restored from a persistent
    /// store, where the flat buffer already exists byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(cols > 0, "StateMatrix rows must be non-empty");
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows * cols"
        );
        Self { rows, cols, data }
    }

    /// Number of rows. Named `len` because a `StateMatrix` stands in for a
    /// `Vec` of rows wherever the kernels used nested `Vec`s.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns (entries per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `r`-th row.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of the `r`-th row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole buffer, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the whole buffer, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Simultaneous borrow of row `n − 1` (shared) and row `n` (mutable) —
    /// the forward-recursion access pattern.
    pub fn prev_and_current(&mut self, n: usize) -> (&[f64], &mut [f64]) {
        assert!(n >= 1 && n < self.rows, "row {n} out of range");
        let (head, tail) = self.data.split_at_mut(n * self.cols);
        (&head[(n - 1) * self.cols..], &mut tail[..self.cols])
    }

    /// Simultaneous borrow of row `n` (mutable) and row `n + 1` (shared) —
    /// the backward-recursion access pattern.
    pub fn current_and_next(&mut self, n: usize) -> (&mut [f64], &[f64]) {
        assert!(n + 1 < self.rows, "rows {n}, {} out of range", n + 1);
        let (head, tail) = self.data.split_at_mut((n + 1) * self.cols);
        (&mut head[n * self.cols..], &tail[..self.cols])
    }

    /// Iterates over rows in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.cols)
    }
}

impl Index<usize> for StateMatrix {
    type Output = [f64];

    fn index(&self, r: usize) -> &[f64] {
        self.row(r)
    }
}

impl IndexMut<usize> for StateMatrix {
    fn index_mut(&mut self, r: usize) -> &mut [f64] {
        self.row_mut(r)
    }
}

impl<'a> IntoIterator for &'a StateMatrix {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Normalizes a vector in place to sum to 1 and returns the log of its
/// pre-normalization sum. A zero (or degenerate) sum leaves a flat
/// distribution and contributes 0 to the log-likelihood.
pub(crate) fn normalize(v: &mut [f64]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_like_nested_vecs() {
        let mut m = StateMatrix::zeros(3, 2);
        m[1][0] = 5.0;
        m[2][1] = 7.0;
        assert_eq!(m[0], [0.0, 0.0]);
        assert_eq!(m[1][0], 5.0);
        assert_eq!(m.row(2), &[0.0, 7.0]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.cols(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn filled_and_iteration() {
        let m = StateMatrix::filled(2, 3, 1.5);
        let rows: Vec<&[f64]> = m.iter().collect();
        assert_eq!(rows, vec![&[1.5, 1.5, 1.5][..], &[1.5, 1.5, 1.5][..]]);
        let by_ref: Vec<&[f64]> = (&m).into_iter().collect();
        assert_eq!(by_ref.len(), 2);
    }

    #[test]
    fn split_borrows_address_adjacent_rows() {
        let mut m = StateMatrix::zeros(4, 2);
        m[0][0] = 1.0;
        {
            let (prev, cur) = m.prev_and_current(1);
            assert_eq!(prev, &[1.0, 0.0]);
            cur[1] = 2.0;
        }
        assert_eq!(m[1], [0.0, 2.0]);
        {
            let (cur, next) = m.current_and_next(0);
            assert_eq!(next, &[0.0, 2.0]);
            cur[0] = 9.0;
        }
        assert_eq!(m[0], [9.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_zero_columns() {
        let _ = StateMatrix::zeros(2, 0);
    }

    #[test]
    fn from_vec_round_trips_the_flat_buffer() {
        let m = StateMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[1], [4.0, 5.0, 6.0]);
        assert_eq!(StateMatrix::from_vec(2, 3, m.as_slice().to_vec()), m);
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn from_vec_rejects_mismatched_lengths() {
        let _ = StateMatrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn normalize_returns_log_mass_and_handles_zero() {
        let mut v = vec![1.0, 3.0];
        let log_sum = normalize(&mut v);
        assert!((log_sum - 4.0_f64.ln()).abs() < 1e-12);
        assert_eq!(v, vec![0.25, 0.75]);
        let mut zero = vec![0.0, 0.0];
        assert_eq!(normalize(&mut zero), 0.0);
        assert_eq!(zero, vec![0.5, 0.5]);
    }
}
