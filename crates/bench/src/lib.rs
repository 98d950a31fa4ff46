//! Experiment harness for reproducing every figure in the Veritas paper.
//!
//! The library half holds reusable workload builders and the per-figure
//! experiment functions; the binaries under `src/bin/` are thin wrappers
//! that run one experiment each and print the series the corresponding
//! paper figure plots. The README's "Reproducing paper figures" section is
//! the figure-to-binary index.
//!
//! Parallelism comes from [`veritas_engine::executor`] (an atomic-cursor
//! worker pool); the counterfactual figure experiments additionally route
//! their work through the [`veritas_engine::Engine`] so that every
//! scenario over a given session shares one cached abduction.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod experiments;
pub mod report;
pub mod workload;

pub use veritas_engine::executor::default_threads;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
