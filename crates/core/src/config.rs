//! Veritas configuration.

use serde::{Deserialize, Serialize};

/// Hyper-parameters of the Veritas abduction step.
///
/// The defaults are the paper's evaluation settings (§4.1): GTBW transition
/// interval δ = 5 s, capacity grid step ε = 0.5 Mbps, emission noise
/// σ = 0.5 Mbps, a tridiagonal transition prior, a uniform initial
/// distribution, and K = 5 posterior samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VeritasConfig {
    /// Width of one GTBW interval in seconds (δ).
    pub delta_s: f64,
    /// Capacity quantization step in Mbps (ε).
    pub epsilon_mbps: f64,
    /// Top of the capacity grid in Mbps.
    pub max_capacity_mbps: f64,
    /// Emission noise standard deviation in Mbps (σ).
    pub sigma_mbps: f64,
    /// Probability of staying in the same capacity state across one δ
    /// interval (the tridiagonal prior's diagonal).
    pub stay_probability: f64,
    /// Number of posterior capacity traces to sample (K).
    pub num_samples: usize,
    /// Seed for posterior sampling.
    pub seed: u64,
}

impl VeritasConfig {
    /// Most capacity states a valid grid may have. The paper's grid (ε =
    /// 0.5 Mbps up to 10 Mbps) has 21 and the largest any benchmark uses
    /// has 63 (`forward_backward_largek`); a 256-state transition kernel is
    /// 512 KiB of `f64`s. Without a bound one request's ceiling or ε could
    /// ask for a K × K kernel of terabytes, and the failed allocation
    /// aborts the process.
    pub const MAX_STATES: usize = 256;

    /// Most posterior samples a valid config may draw. The largest count
    /// any test uses is 192; each sample is one full state path and one
    /// QoE replay, so an unbounded count is unbounded memory and time.
    pub const MAX_SAMPLES: usize = 4_096;

    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        Self {
            delta_s: 5.0,
            epsilon_mbps: 0.5,
            max_capacity_mbps: 10.0,
            sigma_mbps: 0.5,
            stay_probability: 0.8,
            num_samples: 5,
            seed: 7,
        }
    }

    /// Overrides the capacity-grid ceiling (e.g. when the workload is known
    /// to contain faster links).
    pub fn with_max_capacity(mut self, max_capacity_mbps: f64) -> Self {
        assert!(max_capacity_mbps > 0.0);
        self.max_capacity_mbps = max_capacity_mbps;
        self
    }

    /// Overrides the number of posterior samples.
    pub fn with_samples(mut self, num_samples: usize) -> Self {
        assert!(num_samples >= 1);
        self.num_samples = num_samples;
        self
    }

    /// Overrides the emission noise.
    pub fn with_sigma(mut self, sigma_mbps: f64) -> Self {
        assert!(sigma_mbps > 0.0);
        self.sigma_mbps = sigma_mbps;
        self
    }

    /// Overrides the stay probability of the tridiagonal prior.
    pub fn with_stay_probability(mut self, stay_probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&stay_probability));
        self.stay_probability = stay_probability;
        self
    }

    /// Overrides the RNG seed used for posterior sampling.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.delta_s.is_finite() && self.delta_s > 0.0) {
            return Err(format!("delta_s must be positive, got {}", self.delta_s));
        }
        if !(self.epsilon_mbps.is_finite() && self.epsilon_mbps > 0.0) {
            return Err(format!(
                "epsilon_mbps must be positive, got {}",
                self.epsilon_mbps
            ));
        }
        if !self.max_capacity_mbps.is_finite() {
            return Err(format!(
                "max_capacity_mbps must be finite, got {}",
                self.max_capacity_mbps
            ));
        }
        if self.max_capacity_mbps < self.epsilon_mbps {
            return Err("max_capacity_mbps must be at least epsilon_mbps".to_string());
        }
        // Counted in f64: `num_states`' `as usize + 1` overflows for a
        // huge ceiling over a tiny ε.
        let states = (self.max_capacity_mbps / self.epsilon_mbps).floor() + 1.0;
        if states > Self::MAX_STATES as f64 {
            return Err(format!(
                "a grid of max_capacity_mbps {} at epsilon_mbps {} has {states} states \
                 (limit {})",
                self.max_capacity_mbps,
                self.epsilon_mbps,
                Self::MAX_STATES
            ));
        }
        if !(self.sigma_mbps.is_finite() && self.sigma_mbps > 0.0) {
            return Err(format!(
                "sigma_mbps must be positive, got {}",
                self.sigma_mbps
            ));
        }
        if !(0.0..=1.0).contains(&self.stay_probability) {
            return Err(format!(
                "stay_probability must be in [0, 1], got {}",
                self.stay_probability
            ));
        }
        if self.num_samples == 0 {
            return Err("num_samples must be at least 1".to_string());
        }
        if self.num_samples > Self::MAX_SAMPLES {
            return Err(format!(
                "num_samples {} exceeds the limit of {}",
                self.num_samples,
                Self::MAX_SAMPLES
            ));
        }
        Ok(())
    }

    /// Number of capacity states implied by ε and the ceiling.
    pub fn num_states(&self) -> usize {
        (self.max_capacity_mbps / self.epsilon_mbps).floor() as usize + 1
    }

    /// The capacity grid (Mbps value of each hidden state) implied by ε and
    /// the ceiling.
    ///
    /// # Panics
    ///
    /// Panics on an invalid grid configuration; call [`Self::validate`]
    /// first when the config is untrusted.
    pub fn capacity_grid(&self) -> Vec<f64> {
        veritas_trace::Quantizer::new(self.epsilon_mbps, self.max_capacity_mbps).values()
    }
}

impl Default for VeritasConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_settings() {
        let c = VeritasConfig::paper_default();
        assert_eq!(c.delta_s, 5.0);
        assert_eq!(c.epsilon_mbps, 0.5);
        assert_eq!(c.sigma_mbps, 0.5);
        assert_eq!(c.num_samples, 5);
        assert_eq!(c.num_states(), 21);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_update_fields() {
        let c = VeritasConfig::paper_default()
            .with_max_capacity(20.0)
            .with_samples(9)
            .with_sigma(1.0)
            .with_stay_probability(0.95)
            .with_seed(99);
        assert_eq!(c.max_capacity_mbps, 20.0);
        assert_eq!(c.num_samples, 9);
        assert_eq!(c.sigma_mbps, 1.0);
        assert_eq!(c.stay_probability, 0.95);
        assert_eq!(c.seed, 99);
        assert_eq!(c.num_states(), 41);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = VeritasConfig::paper_default();
        c.delta_s = 0.0;
        assert!(c.validate().is_err());
        let mut c = VeritasConfig::paper_default();
        c.epsilon_mbps = -1.0;
        assert!(c.validate().is_err());
        let mut c = VeritasConfig::paper_default();
        c.max_capacity_mbps = 0.1;
        assert!(c.validate().is_err());
        let mut c = VeritasConfig::paper_default();
        c.stay_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = VeritasConfig::paper_default();
        c.num_samples = 0;
        assert!(c.validate().is_err());
        // Unbounded grids and sample counts are refused before anything
        // is allocated for them.
        for ceiling in [f64::INFINITY, f64::NAN, 1e6] {
            let mut c = VeritasConfig::paper_default();
            c.max_capacity_mbps = ceiling;
            assert!(c.validate().is_err(), "ceiling {ceiling}");
        }
        let mut c = VeritasConfig::paper_default();
        c.epsilon_mbps = 1e-6;
        assert!(c.validate().is_err());
        let mut c = VeritasConfig::paper_default();
        c.num_samples = VeritasConfig::MAX_SAMPLES + 1;
        assert!(c.validate().unwrap_err().contains("4096"));
        // The bounds themselves pass: 256 states, 4,096 samples.
        let c = VeritasConfig::paper_default()
            .with_max_capacity(127.5)
            .with_samples(VeritasConfig::MAX_SAMPLES);
        assert_eq!(c.num_states(), VeritasConfig::MAX_STATES);
        assert!(c.validate().is_ok());
        let c = c.with_max_capacity(128.0);
        assert_eq!(c.num_states(), VeritasConfig::MAX_STATES + 1);
        assert!(c.validate().unwrap_err().contains("257 states"));
    }
}
