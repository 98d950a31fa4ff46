//! Adaptive bitrate (ABR) algorithms.
//!
//! The paper's counterfactual queries swap one ABR for another on the same
//! (latent) network conditions, so this crate implements the algorithms the
//! evaluation uses — [`Mpc`] (the deployed algorithm, Setting A), [`Bba`] and
//! [`BolaBasic`] (the counterfactual algorithms, Setting B) — plus auxiliary
//! policies used elsewhere in the pipeline: [`ThroughputRule`] as a simple
//! rate-based reference, [`RandomAbr`] to generate the randomized test
//! sequences for interventional evaluation, and [`FixedQuality`] for
//! controlled experiments.
//!
//! All algorithms see the world only through [`AbrContext`]: manifest sizes,
//! buffer state, and download history — never the intrinsic bandwidth. That
//! information asymmetry is what creates the confounding Veritas corrects.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod bba;
mod bola;
mod context;
mod mpc;
#[cfg(test)]
mod reference;
mod simple;

pub use bba::Bba;
pub use bola::BolaBasic;
pub use context::{clamp_quality, AbrContext};
pub use mpc::{Mpc, QoeWeights};
pub use simple::{FixedQuality, RandomAbr, ThroughputRule};

/// An adaptive bitrate algorithm.
///
/// Implementations are driven by the player emulator: at each chunk boundary
/// [`Abr::choose`] is called with the current [`AbrContext`] and must return
/// a rung index into the asset's quality ladder.
pub trait Abr {
    /// Human-readable algorithm name (used in logs and experiment output).
    fn name(&self) -> &str;

    /// Chooses the quality rung for `ctx.next_chunk`.
    fn choose(&mut self, ctx: &AbrContext) -> usize;

    /// Resets any internal state so the same instance can replay another
    /// session deterministically.
    fn reset(&mut self) {}
}

/// Convenience constructor used by experiment configuration: builds a boxed
/// ABR by name. Recognized names: `"mpc"`, `"robust_mpc"`, `"bba"`,
/// `"bola"`, `"throughput"`, `"random:<seed>"`, `"fixed:<rung>"`.
pub fn abr_by_name(name: &str) -> Option<Box<dyn Abr>> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "mpc" => Some(Box::new(Mpc::new())),
        "robust_mpc" | "robustmpc" => Some(Box::new(Mpc::robust())),
        "bba" => Some(Box::new(Bba::new())),
        "bola" | "bola_basic" => Some(Box::new(BolaBasic::new())),
        "throughput" | "rate" => Some(Box::new(ThroughputRule::new())),
        _ => {
            if let Some(seed) = lower.strip_prefix("random:") {
                seed.parse()
                    .ok()
                    .map(|s| Box::new(RandomAbr::new(s)) as Box<dyn Abr>)
            } else if let Some(rung) = lower.strip_prefix("fixed:") {
                rung.parse()
                    .ok()
                    .map(|r| Box::new(FixedQuality(r)) as Box<dyn Abr>)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abr_by_name_builds_known_algorithms() {
        for (name, expected) in [
            ("mpc", "MPC"),
            ("MPC", "MPC"),
            ("robust_mpc", "RobustMPC"),
            ("bba", "BBA"),
            ("bola", "BOLA"),
            ("throughput", "ThroughputRule"),
            ("random:3", "Random"),
            ("fixed:2", "Fixed"),
        ] {
            let abr = abr_by_name(name).unwrap_or_else(|| panic!("{name} not recognized"));
            assert_eq!(abr.name(), expected);
        }
    }

    #[test]
    fn abr_by_name_rejects_unknown() {
        assert!(abr_by_name("pensieve").is_none());
        assert!(abr_by_name("random:notanumber").is_none());
        assert!(abr_by_name("fixed:").is_none());
    }

    fn assert_round_trips<T>(value: T)
    where
        T: serde::Serialize + for<'de> serde::Deserialize<'de> + PartialEq + std::fmt::Debug,
    {
        let json = serde_json::to_string(&value).expect("serializes");
        let back: T = serde_json::from_str(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(back, value, "{json}");
    }

    #[test]
    fn configured_algorithms_round_trip_through_serde_json() {
        assert_round_trips(Mpc::new());
        assert_round_trips(Mpc::robust());
        assert_round_trips(Bba::new());
        assert_round_trips(BolaBasic::new());
        assert_round_trips(BolaBasic::with_thresholds(2.0, 14.0));
    }
}
