//! Seeded synthetic GTBW trace generators.
//!
//! The paper's evaluation drives its testbed with FCC Measuring Broadband
//! America throughput traces. That corpus is not bundled here; instead these
//! generators synthesize piecewise-constant bandwidth processes with the same
//! ranges and qualitative structure (multi-timescale variation, occasional
//! regime shifts, bounded support). Every generator is deterministic given
//! `(config, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{BandwidthTrace, Quantizer};

/// A source of bandwidth traces.
pub trait TraceGenerator {
    /// Generates a trace of at least `duration_s` seconds using `seed`.
    fn generate(&self, duration_s: f64, seed: u64) -> BandwidthTrace;

    /// Generates `count` traces with consecutive seeds starting at `base_seed`.
    fn generate_batch(&self, duration_s: f64, base_seed: u64, count: usize) -> Vec<BandwidthTrace> {
        (0..count)
            .map(|i| self.generate(duration_s, base_seed.wrapping_add(i as u64)))
            .collect()
    }
}

/// A constant-bandwidth trace (used for controlled experiments such as the
/// paper's Figure 2(c) / Figure 5 payload sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstantTrace {
    /// The constant bandwidth in Mbps.
    pub bandwidth_mbps: f64,
}

impl ConstantTrace {
    /// Creates a constant generator at `bandwidth_mbps`.
    pub fn new(bandwidth_mbps: f64) -> Self {
        assert!(bandwidth_mbps >= 0.0 && bandwidth_mbps.is_finite());
        Self { bandwidth_mbps }
    }
}

impl TraceGenerator for ConstantTrace {
    fn generate(&self, duration_s: f64, _seed: u64) -> BandwidthTrace {
        BandwidthTrace::constant(self.bandwidth_mbps, duration_s)
    }
}

/// A square wave alternating between two bandwidth levels — the bandwidth
/// process assumed by the preliminary workshop paper the authors cite
/// (\[39\] in the paper), kept here as a stress test and ablation workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SquareWave {
    /// Low level in Mbps.
    pub low_mbps: f64,
    /// High level in Mbps.
    pub high_mbps: f64,
    /// Time spent at each level before switching, in seconds.
    pub half_period_s: f64,
    /// Interval width of the generated segments, in seconds.
    pub delta_s: f64,
}

impl SquareWave {
    /// Creates a square-wave generator.
    pub fn new(low_mbps: f64, high_mbps: f64, half_period_s: f64) -> Self {
        assert!(low_mbps >= 0.0 && high_mbps >= low_mbps);
        assert!(half_period_s > 0.0);
        Self {
            low_mbps,
            high_mbps,
            half_period_s,
            delta_s: 5.0,
        }
    }
}

impl TraceGenerator for SquareWave {
    fn generate(&self, duration_s: f64, seed: u64) -> BandwidthTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random phase so different seeds are not identical.
        let phase: f64 = rng.gen_range(0.0..(2.0 * self.half_period_s));
        let n = (duration_s / self.delta_s).ceil().max(1.0) as usize;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * self.delta_s + phase;
                if ((t / self.half_period_s).floor() as i64) % 2 == 0 {
                    self.high_mbps
                } else {
                    self.low_mbps
                }
            })
            .collect();
        BandwidthTrace::from_uniform(self.delta_s, &values).expect("square wave trace is valid")
    }
}

/// A bounded random walk: each δ-interval the bandwidth moves by a
/// zero-mean Gaussian step, reflected at the configured bounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomWalk {
    /// Lower bound in Mbps.
    pub min_mbps: f64,
    /// Upper bound in Mbps.
    pub max_mbps: f64,
    /// Standard deviation of each step in Mbps.
    pub step_std_mbps: f64,
    /// Interval width in seconds.
    pub delta_s: f64,
}

impl RandomWalk {
    /// Creates a bounded random-walk generator over `[min_mbps, max_mbps]`.
    pub fn new(min_mbps: f64, max_mbps: f64, step_std_mbps: f64) -> Self {
        assert!(min_mbps >= 0.0 && max_mbps > min_mbps);
        assert!(step_std_mbps > 0.0);
        Self {
            min_mbps,
            max_mbps,
            step_std_mbps,
            delta_s: 5.0,
        }
    }
}

impl TraceGenerator for RandomWalk {
    fn generate(&self, duration_s: f64, seed: u64) -> BandwidthTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (duration_s / self.delta_s).ceil().max(1.0) as usize;
        let mut current = rng.gen_range(self.min_mbps..=self.max_mbps);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(current);
            let step = gaussian(&mut rng) * self.step_std_mbps;
            current = reflect(current + step, self.min_mbps, self.max_mbps);
        }
        BandwidthTrace::from_uniform(self.delta_s, &values).expect("random walk trace is valid")
    }
}

/// A Markov-modulated process on a quantized capacity grid with a
/// tridiagonal transition structure — exactly the generative model the
/// Veritas EHMM assumes, which makes it the natural well-specified workload
/// for validating inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarkovModulated {
    /// Lower bound in Mbps.
    pub min_mbps: f64,
    /// Upper bound in Mbps.
    pub max_mbps: f64,
    /// Quantization step of the capacity grid in Mbps.
    pub epsilon_mbps: f64,
    /// Probability of staying in the current state at each δ transition.
    pub stay_probability: f64,
    /// Interval width in seconds.
    pub delta_s: f64,
}

impl MarkovModulated {
    /// Creates a Markov-modulated generator over `[min_mbps, max_mbps]`.
    pub fn new(min_mbps: f64, max_mbps: f64, epsilon_mbps: f64, stay_probability: f64) -> Self {
        assert!(min_mbps >= 0.0 && max_mbps > min_mbps);
        assert!(epsilon_mbps > 0.0);
        assert!((0.0..=1.0).contains(&stay_probability));
        Self {
            min_mbps,
            max_mbps,
            epsilon_mbps,
            stay_probability,
            delta_s: 5.0,
        }
    }
}

impl TraceGenerator for MarkovModulated {
    fn generate(&self, duration_s: f64, seed: u64) -> BandwidthTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let quantizer = Quantizer::new(self.epsilon_mbps, self.max_mbps);
        let lo_idx = quantizer.index_of(self.min_mbps);
        let hi_idx = quantizer.num_states() - 1;
        let n = (duration_s / self.delta_s).ceil().max(1.0) as usize;
        let mut idx = rng.gen_range(lo_idx..=hi_idx);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(quantizer.value(idx));
            let roll: f64 = rng.gen();
            if roll >= self.stay_probability {
                // Move up or down one grid step, reflecting at the bounds.
                let up = rng.gen_bool(0.5);
                if up {
                    idx = if idx >= hi_idx {
                        hi_idx.saturating_sub(1).max(lo_idx)
                    } else {
                        idx + 1
                    };
                } else {
                    idx = if idx <= lo_idx {
                        (lo_idx + 1).min(hi_idx)
                    } else {
                        idx - 1
                    };
                }
            }
        }
        BandwidthTrace::from_uniform(self.delta_s, &values).expect("markov trace is valid")
    }
}

/// A regime-switching process: long dwell times in a small number of regimes
/// (e.g. "good WiFi", "congested peak hour"), with within-regime jitter.
/// Captures the slower, user-level variation present in broadband traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeSwitch {
    /// Mean bandwidth of each regime, in Mbps.
    pub regime_means_mbps: Vec<f64>,
    /// Within-regime jitter standard deviation, in Mbps.
    pub jitter_std_mbps: f64,
    /// Mean dwell time in a regime before switching, in seconds.
    pub mean_dwell_s: f64,
    /// Interval width in seconds.
    pub delta_s: f64,
}

impl RegimeSwitch {
    /// Creates a regime-switching generator with the given regime means.
    pub fn new(regime_means_mbps: Vec<f64>, jitter_std_mbps: f64, mean_dwell_s: f64) -> Self {
        assert!(!regime_means_mbps.is_empty());
        assert!(regime_means_mbps.iter().all(|&m| m >= 0.0));
        assert!(jitter_std_mbps >= 0.0);
        assert!(mean_dwell_s > 0.0);
        Self {
            regime_means_mbps,
            jitter_std_mbps,
            mean_dwell_s,
            delta_s: 5.0,
        }
    }
}

impl TraceGenerator for RegimeSwitch {
    fn generate(&self, duration_s: f64, seed: u64) -> BandwidthTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (duration_s / self.delta_s).ceil().max(1.0) as usize;
        let switch_prob = (self.delta_s / self.mean_dwell_s).min(1.0);
        let mut regime = rng.gen_range(0..self.regime_means_mbps.len());
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let mean = self.regime_means_mbps[regime];
            let v = (mean + gaussian(&mut rng) * self.jitter_std_mbps).max(0.0);
            values.push(v);
            if rng.gen::<f64>() < switch_prob && self.regime_means_mbps.len() > 1 {
                let mut next = rng.gen_range(0..self.regime_means_mbps.len());
                while next == regime {
                    next = rng.gen_range(0..self.regime_means_mbps.len());
                }
                regime = next;
            }
        }
        BandwidthTrace::from_uniform(self.delta_s, &values).expect("regime trace is valid")
    }
}

/// An "FCC-like" composite generator: draws a per-trace mean uniformly from
/// `[min_mean, max_mean]` Mbps, then layers slow regime variation and fast
/// jitter around it. This mimics how the paper samples FCC traces whose
/// average GTBW falls in a target range (3–8 Mbps for the counterfactual
/// studies, 0.5–10 Mbps for the interventional study).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FccLike {
    /// Lower bound on the per-trace mean bandwidth, in Mbps.
    pub min_mean_mbps: f64,
    /// Upper bound on the per-trace mean bandwidth, in Mbps.
    pub max_mean_mbps: f64,
    /// Relative amplitude of the slow regime variation (fraction of the mean).
    pub slow_amplitude: f64,
    /// Relative amplitude of the fast jitter (fraction of the mean).
    pub fast_amplitude: f64,
    /// Interval width in seconds.
    pub delta_s: f64,
}

impl FccLike {
    /// Creates an FCC-like generator with per-trace means in
    /// `[min_mean_mbps, max_mean_mbps]`.
    pub fn new(min_mean_mbps: f64, max_mean_mbps: f64) -> Self {
        assert!(min_mean_mbps > 0.0 && max_mean_mbps >= min_mean_mbps);
        Self {
            min_mean_mbps,
            max_mean_mbps,
            slow_amplitude: 0.35,
            fast_amplitude: 0.10,
            delta_s: 5.0,
        }
    }

    /// Overrides the interval width.
    pub fn with_delta(mut self, delta_s: f64) -> Self {
        assert!(delta_s > 0.0);
        self.delta_s = delta_s;
        self
    }
}

impl TraceGenerator for FccLike {
    fn generate(&self, duration_s: f64, seed: u64) -> BandwidthTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mean = rng.gen_range(self.min_mean_mbps..=self.max_mean_mbps);
        let n = (duration_s / self.delta_s).ceil().max(1.0) as usize;
        // Slow component: a smooth random phase/frequency sinusoid plus an
        // occasional level shift; fast component: white Gaussian jitter.
        let slow_period_s: f64 = rng.gen_range(60.0..240.0);
        let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut level_shift = 0.0_f64;
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 * self.delta_s;
            if rng.gen::<f64>() < self.delta_s / 180.0 {
                // Rare sustained shift, as seen in residential broadband.
                level_shift = gaussian(&mut rng) * self.slow_amplitude * mean * 0.5;
            }
            let slow = (std::f64::consts::TAU * t / slow_period_s + phase).sin()
                * self.slow_amplitude
                * mean;
            let fast = gaussian(&mut rng) * self.fast_amplitude * mean;
            values.push((mean + slow + level_shift + fast).max(0.1));
        }
        BandwidthTrace::from_uniform(self.delta_s, &values).expect("fcc-like trace is valid")
    }
}

/// Samples a standard normal variate via the Box–Muller transform.
///
/// Kept local so the workspace does not need `rand_distr`.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

fn reflect(value: f64, lo: f64, hi: f64) -> f64 {
    let mut v = value;
    // At most a couple of reflections are ever needed for sane step sizes,
    // but loop defensively.
    for _ in 0..8 {
        if v < lo {
            v = lo + (lo - v);
        } else if v > hi {
            v = hi - (v - hi);
        } else {
            return v;
        }
    }
    v.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    #[test]
    fn constant_generator_is_flat() {
        let t = ConstantTrace::new(18.0).generate(60.0, 7);
        assert_eq!(t.min(), 18.0);
        assert_eq!(t.max(), 18.0);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g = FccLike::new(3.0, 8.0);
        assert_eq!(g.generate(600.0, 1), g.generate(600.0, 1));
        let w = RandomWalk::new(0.5, 10.0, 0.5);
        assert_eq!(w.generate(600.0, 5), w.generate(600.0, 5));
        let m = MarkovModulated::new(0.5, 10.0, 0.5, 0.8);
        assert_eq!(m.generate(600.0, 9), m.generate(600.0, 9));
    }

    #[test]
    fn different_seeds_differ() {
        let g = FccLike::new(3.0, 8.0);
        assert_ne!(g.generate(600.0, 1), g.generate(600.0, 2));
    }

    #[test]
    fn traces_cover_requested_duration() {
        for seed in 0..5 {
            let t = FccLike::new(3.0, 8.0).generate(600.0, seed);
            assert!(t.duration() >= 600.0);
            let t = RandomWalk::new(0.5, 10.0, 0.7).generate(600.0, seed);
            assert!(t.duration() >= 600.0);
        }
    }

    #[test]
    fn random_walk_respects_bounds() {
        let g = RandomWalk::new(1.0, 6.0, 2.0);
        for seed in 0..10 {
            let t = g.generate(600.0, seed);
            assert!(t.min() >= 1.0 - 1e-9, "min {} below bound", t.min());
            assert!(t.max() <= 6.0 + 1e-9, "max {} above bound", t.max());
        }
    }

    #[test]
    fn markov_modulated_lands_on_grid() {
        let g = MarkovModulated::new(0.5, 10.0, 0.5, 0.8);
        let t = g.generate(600.0, 3);
        for v in t.values() {
            let snapped = (v / 0.5).round() * 0.5;
            assert!((v - snapped).abs() < 1e-9, "value {v} is off-grid");
        }
    }

    #[test]
    fn markov_modulated_respects_bounds() {
        let g = MarkovModulated::new(2.0, 6.0, 0.5, 0.5);
        for seed in 0..10 {
            let t = g.generate(600.0, seed);
            assert!(t.min() >= 2.0 - 1e-9);
            assert!(t.max() <= 6.0 + 1e-9);
        }
    }

    #[test]
    fn fcc_like_mean_falls_in_requested_band() {
        let g = FccLike::new(3.0, 8.0);
        for seed in 0..20 {
            let t = g.generate(600.0, seed);
            let s = TraceStats::of(&t);
            // The realized mean can wander somewhat outside the drawn mean
            // because of the slow component, but must stay in a loose band.
            assert!(
                s.mean_mbps > 1.5 && s.mean_mbps < 10.5,
                "mean {}",
                s.mean_mbps
            );
            assert!(s.min_mbps >= 0.1);
        }
    }

    #[test]
    fn square_wave_has_two_levels() {
        let g = SquareWave::new(1.0, 5.0, 30.0);
        let t = g.generate(600.0, 11);
        for v in t.values() {
            assert!(v == 1.0 || v == 5.0);
        }
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 5.0);
    }

    #[test]
    fn regime_switch_stays_non_negative_and_varies() {
        let g = RegimeSwitch::new(vec![1.0, 4.0, 8.0], 0.3, 60.0);
        let t = g.generate(600.0, 13);
        assert!(t.min() >= 0.0);
        let s = TraceStats::of(&t);
        assert!(s.std_mbps > 0.0);
    }

    #[test]
    fn batch_generation_uses_distinct_seeds() {
        let g = FccLike::new(3.0, 8.0);
        let batch = g.generate_batch(300.0, 100, 4);
        assert_eq!(batch.len(), 4);
        assert_ne!(batch[0], batch[1]);
        assert_ne!(batch[2], batch[3]);
    }

    #[test]
    fn gaussian_has_roughly_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn reflect_keeps_values_in_bounds() {
        assert_eq!(reflect(5.0, 0.0, 10.0), 5.0);
        assert_eq!(reflect(-2.0, 0.0, 10.0), 2.0);
        assert_eq!(reflect(13.0, 0.0, 10.0), 7.0);
        let v = reflect(1e6, 0.0, 10.0);
        assert!((0.0..=10.0).contains(&v));
    }
}
