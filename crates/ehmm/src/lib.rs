//! Embedded Hidden Markov Model machinery for Veritas.
//!
//! A standard HMM attaches exactly one observation to every hidden state and
//! uses a constant per-step transition matrix. The Veritas EHMM departs from
//! that in two ways (paper §3.2):
//!
//! 1. **Embedded transitions** — hidden states live on a regular δ-interval
//!    grid, but observations (chunk downloads) occur irregularly: a state may
//!    emit zero, one, or several observations. Transitions between
//!    consecutive *observations* therefore use `A^{Δ_n}`, the one-step matrix
//!    raised to the integer gap between chunk-start intervals.
//! 2. **Domain-specific emissions** — the emission density is not a
//!    parametric family fit to data but a physical model (the TCP throughput
//!    estimator `f` plus Gaussian noise), supplied by the caller as a
//!    precomputed [`EmissionTable`].
//!
//! The crate is deliberately generic: nothing here knows about bandwidth or
//! TCP, so the same machinery is reusable for other embedded-observation
//! inference problems. The Veritas-specific wiring lives in the `veritas`
//! crate.
//!
//! Provided algorithms: the gap-aware Viterbi decoder ([`viterbi`], paper
//! Algorithm 3), the scaled forward–backward smoother ([`forward_backward`],
//! paper Algorithm 2), the posterior capacity sampler ([`sample_path`],
//! paper Algorithm 1) plus an exact FFBS alternative
//! ([`sample_path_ffbs`]), and the off-period interpolation
//! ([`interpolate_full_path`]).
//!
//! All inference kernels are implemented over an [`EhmmWorkspace`]: a
//! shareable, thread-safe cache of per-gap transition kernels (`A^Δ`, its
//! element-wise log, and its bandwidth) plus flat row-major buffers
//! ([`StateMatrix`]) for every intermediate. The free functions above are
//! thin single-use wrappers; batch callers should build one workspace per
//! model and reuse it so every decode shares the same memoized kernels.
//!
//! The smoother's output, [`Posteriors`], is O(N·K): γ plus the α, β,
//! scaled emissions, per-step totals and gaps the pairwise posterior ξ is
//! computed from. ξ itself ((N−1)·K² words) is never stored; the sampler
//! rebuilds the one column it reads per step, with the same operations, and
//! [`EhmmWorkspace::pair`] materialises a whole step for tests.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod dense;
mod forward_backward;
mod interpolate;
mod matrix;
mod model;
#[cfg(test)]
mod reference;
mod sampler;
mod viterbi;
mod workspace;

pub use dense::StateMatrix;
pub use forward_backward::{forward_backward, Posteriors};
pub use interpolate::{interpolate_full_path, states_to_values};
pub use matrix::{TransitionMatrix, TransitionPowers};
pub use model::{EhmmSpec, EmissionTable};
pub use sampler::{sample_path, sample_path_ffbs};
pub use viterbi::{path_log_score, viterbi, ViterbiResult};
pub use workspace::{EhmmWorkspace, GapKernel};
