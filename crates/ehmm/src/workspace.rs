//! The shared inference workspace: memoized per-gap transition kernels and
//! the flat-buffer implementations of every EHMM algorithm.
//!
//! Profiling the original kernels showed three systematic costs, none of
//! them intrinsic to the algorithms:
//!
//! 1. **Per-step matrix clones** — every observation step cloned the cached
//!    `A^Δ` (an N×N heap copy) just to satisfy the borrow checker.
//! 2. **Repeated `ln`** — Viterbi re-took the log of every transition entry
//!    at every step, ~N²·K calls of `ln` per decode.
//! 3. **Duplicated power caches** — one abduction built three separate
//!    [`TransitionPowers`](crate::TransitionPowers) caches (Viterbi,
//!    forward–backward, scoring) for the *same* transition matrix.
//!
//! [`EhmmWorkspace`] fixes all three: each embedded gap Δ maps to one
//! immutable [`GapKernel`] holding `A^Δ`, its element-wise natural log, and
//! its bandwidth (a tridiagonal `A` makes `A^Δ` banded with bandwidth Δ, so
//! the matvecs can skip structural zeros). Kernels are built once, stored
//! behind an `Arc`, and handed out by reference count — no clones, no
//! re-derivation, and the cache is `Sync`, so one workspace can serve a
//! whole batch executor: every session inferred under the same model shares
//! the same transition and log-power tables.
//!
//! The public free functions ([`crate::viterbi`], [`crate::forward_backward`],
//! [`crate::path_log_score`], [`crate::sample_path`],
//! [`crate::sample_path_ffbs`]) are thin wrappers that build a private
//! single-use workspace.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::Rng;

use crate::dense::{normalize, StateMatrix};
use crate::forward_backward::Posteriors;
use crate::matrix::TransitionMatrix;
use crate::model::{EhmmSpec, EmissionTable};
use crate::sampler::sample_categorical;
use crate::viterbi::{safe_ln, ViterbiResult};

/// Everything inference needs about one embedded gap Δ, derived once:
/// the linear transition matrix `A^Δ`, its element-wise natural log
/// (`−∞` at structural zeros), and its bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct GapKernel {
    matrix: TransitionMatrix,
    /// Row-major `ln A^Δ[i][j]`; `NEG_INFINITY` where the entry is zero.
    log: Vec<f64>,
    /// Largest `|i − j|` with a non-zero entry. For the paper's tridiagonal
    /// prior this is `min(Δ, N−1)`, which is what lets the kernels skip the
    /// structural zeros of `A^Δ`.
    bandwidth: usize,
}

impl GapKernel {
    fn new(matrix: TransitionMatrix) -> Self {
        let n = matrix.num_states();
        let mut log = vec![f64::NEG_INFINITY; n * n];
        let mut bandwidth = 0usize;
        for i in 0..n {
            for j in 0..n {
                let p = matrix.get(i, j);
                if p > 0.0 {
                    log[i * n + j] = p.ln();
                    bandwidth = bandwidth.max(i.abs_diff(j));
                }
            }
        }
        Self {
            matrix,
            log,
            bandwidth,
        }
    }

    /// The linear-space transition matrix `A^Δ`.
    pub fn matrix(&self) -> &TransitionMatrix {
        &self.matrix
    }

    /// Row `i` of `ln A^Δ` (`−∞` at zeros).
    pub fn log_row(&self, i: usize) -> &[f64] {
        let n = self.matrix.num_states();
        &self.log[i * n..(i + 1) * n]
    }

    /// Largest `|i − j|` with `A^Δ[i][j] > 0`.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Column (or row) indices within the bandwidth of `center`, clamped to
    /// `0..num_states`. Entries outside this range are structurally zero.
    #[inline]
    pub fn band(&self, center: usize, num_states: usize) -> std::ops::Range<usize> {
        center.saturating_sub(self.bandwidth)..num_states.min(center + self.bandwidth + 1)
    }
}

/// A shared, thread-safe inference workspace for one [`EhmmSpec`]: the
/// memoized per-gap [`GapKernel`]s plus the flat-buffer algorithm
/// implementations that consume them.
///
/// Create one per model specification and reuse it for every decode,
/// smoothing pass, path score, and FFBS draw over that model — across
/// threads if desired (`&self` everywhere; the kernel cache is interior).
pub struct EhmmWorkspace {
    spec: EhmmSpec,
    kernels: RwLock<HashMap<u32, Arc<GapKernel>>>,
}

impl fmt::Debug for EhmmWorkspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EhmmWorkspace")
            .field("num_states", &self.spec.num_states())
            .field("cached_gaps", &self.cached_gaps())
            .finish()
    }
}

impl EhmmWorkspace {
    /// A workspace over `spec` with an empty kernel cache.
    pub fn new(spec: EhmmSpec) -> Self {
        Self {
            spec,
            kernels: RwLock::new(HashMap::new()),
        }
    }

    /// The hidden-chain specification this workspace serves.
    pub fn spec(&self) -> &EhmmSpec {
        &self.spec
    }

    /// Number of distinct gaps whose kernels have been materialized.
    pub fn cached_gaps(&self) -> usize {
        self.kernels.read().len()
    }

    /// A snapshot of every materialized kernel as `(gap, A^Δ)` pairs,
    /// sorted by gap — deterministic input for persistence. Only the
    /// linear matrix is exported: the log table and the bandwidth are
    /// derived from it bit-deterministically on [`Self::preload_kernel`],
    /// so they never need to travel.
    pub fn export_kernels(&self) -> Vec<(u32, TransitionMatrix)> {
        let kernels = self.kernels.read();
        let mut out: Vec<(u32, TransitionMatrix)> = kernels
            .iter()
            .map(|(&gap, kernel)| (gap, kernel.matrix().clone()))
            .collect();
        out.sort_unstable_by_key(|&(gap, _)| gap);
        out
    }

    /// Installs a previously exported `A^Δ` for `gap`, skipping the
    /// matrix-power computation [`Self::kernel`] would run. The log table
    /// and bandwidth are re-derived from the matrix (cheap and
    /// deterministic, so a preloaded kernel is indistinguishable from a
    /// computed one). A matrix whose state count does not match the spec
    /// is rejected, and a gap that is already materialized is left
    /// untouched — both sides hold the same deterministic power. Returns
    /// whether the kernel was installed.
    pub fn preload_kernel(&self, gap: u32, matrix: TransitionMatrix) -> bool {
        if matrix.num_states() != self.spec.num_states() {
            return false;
        }
        let mut kernels = self.kernels.write();
        if kernels.contains_key(&gap) {
            return false;
        }
        kernels.insert(gap, Arc::new(GapKernel::new(matrix)));
        true
    }

    /// The kernel for gap Δ — `A^Δ`, `ln A^Δ`, bandwidth — computed on
    /// first use and shared thereafter (chunk gaps repeat heavily within
    /// and across sessions).
    pub fn kernel(&self, gap: u32) -> Arc<GapKernel> {
        if let Some(kernel) = self.kernels.read().get(&gap) {
            return kernel.clone();
        }
        let mut kernels = self.kernels.write();
        kernels
            .entry(gap)
            .or_insert_with(|| Arc::new(GapKernel::new(self.spec.transition().power(gap))))
            .clone()
    }

    /// Resolves the kernel of every step's gap, so the passes below index
    /// an `Arc` slice instead of hitting the shared map per step. Each
    /// distinct gap is looked up once: a session's gaps repeat heavily, so
    /// a pass makes a handful of lookups instead of one per chunk. `gaps`
    /// holds one gap per observation (`gaps[0]` is unused), and
    /// `step_kernels[n - 1]` transports observation `n − 1` to `n`.
    fn step_kernels(&self, gaps: &[u32]) -> Vec<Arc<GapKernel>> {
        // Sorted by gap.
        let mut distinct: Vec<(u32, Arc<GapKernel>)> = Vec::new();
        gaps.iter()
            .skip(1)
            .map(
                |&gap| match distinct.binary_search_by_key(&gap, |&(known, _)| known) {
                    Ok(at) => Arc::clone(&distinct[at].1),
                    Err(at) => {
                        let kernel = self.kernel(gap);
                        distinct.insert(at, (gap, Arc::clone(&kernel)));
                        kernel
                    }
                },
            )
            .collect()
    }

    fn check_states(&self, obs: &EmissionTable) {
        assert_eq!(
            self.spec.num_states(),
            obs.num_states(),
            "spec and emission table disagree on the state count"
        );
    }

    fn check_posterior_states(&self, posteriors: &Posteriors) {
        assert_eq!(
            self.spec.num_states(),
            posteriors.alpha.cols(),
            "spec and posteriors disagree on the state count"
        );
    }

    /// Gap-aware Viterbi decoding (paper Algorithm 3) over precomputed
    /// log-kernels: no per-step `ln`, no matrix clones, banded maximization.
    pub fn viterbi(&self, obs: &EmissionTable) -> ViterbiResult {
        self.check_states(obs);
        let num_states = self.spec.num_states();
        let num_obs = obs.num_obs();
        let step_kernels = self.step_kernels(obs.gaps());

        // delta[i]: best log-score of any path ending in state i at the
        // current observation; psi is the flat backpointer table (row 0
        // unused).
        let mut delta: Vec<f64> = self
            .spec
            .initial()
            .iter()
            .zip(obs.log_row(0))
            .map(|(&p, &e)| safe_ln(p) + e)
            .collect();
        let mut next = vec![0.0_f64; num_states];
        let mut psi = vec![0usize; num_obs * num_states];

        for n in 1..num_obs {
            let kernel = &step_kernels[n - 1];
            let emissions = obs.log_row(n);
            let back = &mut psi[n * num_states..(n + 1) * num_states];
            for (j, (next_j, back_j)) in next.iter_mut().zip(back.iter_mut()).enumerate() {
                let mut best = f64::NEG_INFINITY;
                let mut best_i = 0usize;
                for i in kernel.band(j, num_states) {
                    let score = delta[i] + kernel.log[i * num_states + j];
                    if score > best {
                        best = score;
                        best_i = i;
                    }
                }
                *next_j = best + emissions[j];
                *back_j = best_i;
            }
            std::mem::swap(&mut delta, &mut next);
        }

        // Backtrack from the best final state.
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
            best_state = psi[n * num_states + best_state];
            path[n - 1] = best_state;
        }
        ViterbiResult {
            path,
            log_likelihood: best_score,
        }
    }

    /// The scaled forward filter shared by smoothing and FFBS sampling:
    /// fills the flat emission table and runs the α recursion as a
    /// row-major scatter over each kernel's band — identical floating-point
    /// results to the dense column-gather, at a fraction of the memory
    /// traffic. Returns `(emissions, alpha, log_likelihood)`.
    fn forward_filter(
        &self,
        obs: &EmissionTable,
        step_kernels: &[Arc<GapKernel>],
    ) -> (StateMatrix, StateMatrix, f64) {
        let num_states = self.spec.num_states();
        let num_obs = obs.num_obs();

        // Scaled linear emissions, one flat row per observation.
        let mut emissions = StateMatrix::zeros(num_obs, num_states);
        for n in 0..num_obs {
            obs.scaled_linear_row_into(n, emissions.row_mut(n));
        }

        let mut alpha = StateMatrix::zeros(num_obs, num_states);
        let mut log_likelihood = 0.0_f64;
        for (slot, (&p, &e)) in alpha
            .row_mut(0)
            .iter_mut()
            .zip(self.spec.initial().iter().zip(emissions.row(0)))
        {
            *slot = p * e;
        }
        log_likelihood += normalize(alpha.row_mut(0));
        for n in 1..num_obs {
            let kernel = &step_kernels[n - 1];
            let (prev, cur) = alpha.prev_and_current(n);
            for (i, &p) in prev.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let row = kernel.matrix.row(i);
                for j in kernel.band(i, num_states) {
                    cur[j] += p * row[j];
                }
            }
            for (c, &e) in cur.iter_mut().zip(emissions.row(n)) {
                *c *= e;
            }
            log_likelihood += normalize(cur);
        }
        (emissions, alpha, log_likelihood)
    }

    /// Scaled forward–backward smoothing (paper Algorithm 2) over flat
    /// buffers and banded matvecs.
    pub fn forward_backward(&self, obs: &EmissionTable) -> Posteriors {
        self.check_states(obs);
        let num_states = self.spec.num_states();
        let num_obs = obs.num_obs();
        let step_kernels = self.step_kernels(obs.gaps());
        let (emissions, alpha, log_likelihood) = self.forward_filter(obs, &step_kernels);

        // Backward pass, scaled by per-step normalization.
        let mut beta = StateMatrix::filled(num_obs, num_states, 1.0);
        for n in (0..num_obs - 1).rev() {
            let kernel = &step_kernels[n];
            let (cur, next) = beta.current_and_next(n);
            let em_next = emissions.row(n + 1);
            for (i, slot) in cur.iter_mut().enumerate() {
                let row = kernel.matrix.row(i);
                let mut acc = 0.0;
                for j in kernel.band(i, num_states) {
                    acc += row[j] * em_next[j] * next[j];
                }
                *slot = acc;
            }
            normalize(cur);
        }

        // Pairwise totals: the normalizer of each step's ξ, summed over i
        // ascending and then j across the band. A column rebuilt for the
        // sampler divides by exactly these bits.
        let totals = (0..num_obs - 1)
            .map(|n| {
                let kernel = &step_kernels[n];
                let em_next = emissions.row(n + 1);
                let beta_next = beta.row(n + 1);
                let mut total = 0.0;
                for (i, &a) in alpha.row(n).iter().enumerate() {
                    let row = kernel.matrix.row(i);
                    for j in kernel.band(i, num_states) {
                        total += a * row[j] * em_next[j] * beta_next[j];
                    }
                }
                total
            })
            .collect();

        Posteriors::new(
            alpha,
            beta,
            emissions,
            totals,
            obs.gaps().to_vec(),
            log_likelihood,
        )
    }

    /// Materialises step `n`'s pairwise posterior `ξ[n]` (the paper's
    /// `Γ_{·,·,n}`) as a K×K matrix, through the same column rebuild the
    /// sampler uses. Sampling never needs the whole matrix; this is for
    /// tests and diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `n + 1` is not an observation of `posteriors` or its state
    /// count differs from the spec's.
    pub fn pair(&self, posteriors: &Posteriors, n: usize) -> StateMatrix {
        self.check_posterior_states(posteriors);
        let num_states = self.spec.num_states();
        let kernel = self.kernel(posteriors.gaps[n + 1]);
        let mut pair = StateMatrix::zeros(num_states, num_states);
        let mut column = vec![0.0_f64; num_states];
        for j in 0..num_states {
            pair_column(posteriors, n, &kernel, j, &mut column);
            for (i, &v) in column.iter().enumerate() {
                pair[i][j] = v;
            }
        }
        pair
    }

    /// Samples one hidden-state path with the paper's capacity sampler
    /// (Algorithm 1); see [`crate::sample_path`] for the semantics.
    pub fn sample_path<R: Rng + ?Sized>(
        &self,
        posteriors: &Posteriors,
        viterbi: &ViterbiResult,
        rng: &mut R,
    ) -> Vec<usize> {
        self.sample_paths(posteriors, viterbi, 1, rng)
            .pop()
            .expect("one path was drawn")
    }

    /// Draws `k` independent Algorithm 1 paths, resolving the step kernels
    /// once for all of them. The draws consume `rng` exactly as `k` calls
    /// of [`Self::sample_path`] would.
    ///
    /// # Panics
    ///
    /// Panics if the Viterbi path and the posteriors cover different
    /// observation counts, or the posteriors' state count differs from the
    /// spec's.
    pub fn sample_paths<R: Rng + ?Sized>(
        &self,
        posteriors: &Posteriors,
        viterbi: &ViterbiResult,
        k: usize,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        self.check_posterior_states(posteriors);
        let num_obs = posteriors.gamma.len();
        assert_eq!(viterbi.path.len(), num_obs, "viterbi path length mismatch");
        let step_kernels = self.step_kernels(&posteriors.gaps);
        let mut weights = vec![0.0_f64; self.spec.num_states()];
        (0..k)
            .map(|_| {
                let mut path = vec![0usize; num_obs];
                path[num_obs - 1] = viterbi.path[num_obs - 1];
                for n in (0..num_obs - 1).rev() {
                    // ξ_{n,i} = Γ[n][i][next_state], rebuilt for this
                    // column only.
                    pair_column(posteriors, n, &step_kernels[n], path[n + 1], &mut weights);
                    path[n] = sample_categorical(&weights, rng);
                }
                path
            })
            .collect()
    }

    /// Log-score of an arbitrary state path under the model, read straight
    /// from the memoized log-kernels.
    pub fn path_log_score(&self, obs: &EmissionTable, path: &[usize]) -> f64 {
        self.check_states(obs);
        assert_eq!(path.len(), obs.num_obs());
        let num_states = self.spec.num_states();
        let mut score = safe_ln(self.spec.initial()[path[0]]) + obs.log_row(0)[path[0]];
        for n in 1..path.len() {
            let kernel = self.kernel(obs.gap(n));
            score += kernel.log[path[n - 1] * num_states + path[n]] + obs.log_row(n)[path[n]];
        }
        score
    }

    /// Exact forward-filtering backward-sampling over the shared kernels;
    /// see [`crate::sample_path_ffbs`] for the semantics.
    pub fn sample_path_ffbs<R: Rng + ?Sized>(
        &self,
        obs: &EmissionTable,
        rng: &mut R,
    ) -> Vec<usize> {
        self.check_states(obs);
        let num_states = self.spec.num_states();
        let num_obs = obs.num_obs();
        let step_kernels = self.step_kernels(obs.gaps());
        let (_emissions, alpha, _log_likelihood) = self.forward_filter(obs, &step_kernels);

        // Backward sample. Weights outside the kernel band are structural
        // zeros, so only the band is filled — the categorical draw sees the
        // same full-length weight vector as the dense implementation.
        let mut path = vec![0usize; num_obs];
        path[num_obs - 1] = sample_categorical(alpha.row(num_obs - 1), rng);
        let mut weights = vec![0.0_f64; num_states];
        for n in (0..num_obs - 1).rev() {
            let kernel = &step_kernels[n];
            let next_state = path[n + 1];
            weights.fill(0.0);
            let alpha_n = alpha.row(n);
            for i in kernel.band(next_state, num_states) {
                weights[i] = alpha_n[i] * kernel.matrix.get(i, next_state);
            }
            path[n] = sample_categorical(&weights, rng);
        }
        path
    }
}

/// Column `j` of step `n`'s pairwise posterior, `out[i] = ξ[n][i][j]`,
/// rebuilt from the stored parts with the operations the dense tensor was
/// built with: `α[n][i] · A^Δ[i][j] · e[n+1][j] · β[n+1][j]`, left to
/// right, divided by the step's total inside the band; 0 outside it; and
/// the flat `1/K²` when the total is not positive (a degenerate step).
fn pair_column(posteriors: &Posteriors, n: usize, kernel: &GapKernel, j: usize, out: &mut [f64]) {
    let num_states = out.len();
    let total = posteriors.totals[n];
    if total > 0.0 {
        out.fill(0.0);
        let alpha_n = posteriors.alpha.row(n);
        let em = posteriors.emissions.row(n + 1)[j];
        let beta = posteriors.beta.row(n + 1)[j];
        for i in kernel.band(j, num_states) {
            out[i] = alpha_n[i] * kernel.matrix.row(i)[j] * em * beta / total;
        }
    } else {
        out.fill(1.0 / (num_states * num_states) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::TransitionMatrix;

    fn spec(n: usize, stay: f64) -> EhmmSpec {
        EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(n, stay))
    }

    #[test]
    fn kernels_are_memoized_and_shared() {
        let ws = EhmmWorkspace::new(spec(5, 0.8));
        assert_eq!(ws.cached_gaps(), 0);
        let a = ws.kernel(3);
        let b = ws.kernel(3);
        assert!(Arc::ptr_eq(&a, &b), "same gap must share one kernel");
        assert_eq!(ws.cached_gaps(), 1);
        let _ = ws.kernel(1);
        assert_eq!(ws.cached_gaps(), 2);
    }

    #[test]
    fn kernel_matches_direct_power_and_logs() {
        let ws = EhmmWorkspace::new(spec(6, 0.7));
        let kernel = ws.kernel(4);
        let direct = ws.spec().transition().power(4);
        assert_eq!(kernel.matrix(), &direct);
        for i in 0..6 {
            for j in 0..6 {
                let expected = safe_ln(direct.get(i, j));
                assert_eq!(kernel.log_row(i)[j], expected, "log[{i}][{j}]");
            }
        }
    }

    #[test]
    fn tridiagonal_bandwidth_grows_with_the_gap() {
        let ws = EhmmWorkspace::new(spec(9, 0.8));
        assert_eq!(ws.kernel(0).bandwidth(), 0, "A^0 = I");
        assert_eq!(ws.kernel(1).bandwidth(), 1);
        assert_eq!(ws.kernel(3).bandwidth(), 3);
        assert_eq!(ws.kernel(100).bandwidth(), 8, "bandwidth caps at N-1");
    }

    #[test]
    fn band_covers_exactly_the_nonzero_entries() {
        let ws = EhmmWorkspace::new(spec(7, 0.75));
        for gap in [0u32, 1, 2, 5, 9] {
            let kernel = ws.kernel(gap);
            for i in 0..7 {
                let band = kernel.band(i, 7);
                for j in 0..7 {
                    let p = kernel.matrix().get(i, j);
                    if p > 0.0 {
                        assert!(
                            band.contains(&j),
                            "gap {gap}: nonzero ({i},{j}) outside band"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn identity_like_rows_keep_full_band_semantics() {
        // A dense (uniform) matrix has bandwidth N-1: the band must cover
        // every column for every row.
        let ws = EhmmWorkspace::new(EhmmSpec::with_uniform_initial(TransitionMatrix::uniform(4)));
        let kernel = ws.kernel(1);
        assert_eq!(kernel.bandwidth(), 3);
        assert_eq!(kernel.band(0, 4), 0..4);
        assert_eq!(kernel.band(3, 4), 0..4);
    }

    #[test]
    fn workspace_is_shareable_across_threads() {
        let ws = Arc::new(EhmmWorkspace::new(spec(11, 0.8)));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ws = Arc::clone(&ws);
                scope.spawn(move || {
                    for gap in 0..8u32 {
                        let kernel = ws.kernel(gap);
                        assert!(kernel.matrix().is_row_stochastic(1e-9));
                    }
                });
            }
        });
        assert_eq!(ws.cached_gaps(), 8);
    }

    #[test]
    fn exported_kernels_preload_bit_identically() {
        let ws = EhmmWorkspace::new(spec(7, 0.8));
        for gap in [5u32, 1, 3] {
            let _ = ws.kernel(gap);
        }
        let exported = ws.export_kernels();
        assert_eq!(
            exported.iter().map(|&(g, _)| g).collect::<Vec<_>>(),
            vec![1, 3, 5],
            "export must be gap-sorted"
        );

        let restored = EhmmWorkspace::new(spec(7, 0.8));
        for (gap, matrix) in exported {
            assert!(restored.preload_kernel(gap, matrix));
        }
        assert_eq!(restored.cached_gaps(), 3);
        for gap in [1u32, 3, 5] {
            let a = ws.kernel(gap);
            let b = restored.kernel(gap);
            assert_eq!(a.matrix(), b.matrix(), "gap {gap}: matrices");
            assert_eq!(a.bandwidth(), b.bandwidth(), "gap {gap}: bandwidth");
            for i in 0..7 {
                let (ra, rb) = (a.log_row(i), b.log_row(i));
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ra), bits(rb), "gap {gap}: log row {i}");
            }
        }

        // Mismatched state counts and already-present gaps are refused.
        let other = EhmmWorkspace::new(spec(4, 0.8));
        assert!(!other.preload_kernel(2, ws.kernel(2).matrix().clone()));
        assert!(!restored.preload_kernel(1, ws.kernel(1).matrix().clone()));
    }

    #[test]
    fn debug_formatting_reports_cache_size() {
        let ws = EhmmWorkspace::new(spec(3, 0.5));
        let _ = ws.kernel(2);
        let rendered = format!("{ws:?}");
        assert!(rendered.contains("cached_gaps: 1"), "{rendered}");
    }
}
