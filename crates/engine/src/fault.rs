//! Deterministic fault injection: the chaos layer the supervision
//! machinery (retries, self-healing caches, graceful drain) is proved
//! against.
//!
//! A [`FaultPlan`] is a seeded source of *reproducible* failure
//! decisions at a fixed set of instrumented points ([`FaultSite`]):
//! disk-cache reads and writes ([`crate::persist`]), `.vcorp` block
//! decodes ([`crate::store`]), abduction compute (the unit execution
//! path in the runner, both as a typed error and as a worker panic),
//! and service socket I/O ([`crate::service`]). Each site draws an
//! independent sequence of decisions: decision `n` at site `s` is a
//! pure function of `(seed, s, n)`, so two plans built from the same
//! spec make byte-identical decisions regardless of thread scheduling —
//! only *which worker* draws a given sequence number varies.
//!
//! Plans are wired in through [`crate::EngineBuilder::fault_plan`],
//! `veritas run --fault-spec`, and `veritasd --fault-spec`, so CI can
//! chaos-test the real binaries. The core invariant the chaos tests
//! enforce: under any seeded plan with retries enabled, a run over an
//! intact corpus emits records identical (after timing normalization)
//! to the fault-free run.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// An instrumented point where a [`FaultPlan`] may inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A persistent-store read ([`crate::DiskStore::load`]): the entry
    /// reads as missing, degrading to a cache miss.
    DiskRead,
    /// A persistent-store write ([`crate::DiskStore::save`]): the
    /// write-through fails (best-effort, so the query still succeeds).
    DiskWrite,
    /// A `.vcorp` block decode ([`crate::LazyCorpus`]): the session
    /// load fails with a typed corpus error — a retryable unit failure.
    Decode,
    /// Abduction compute: the unit fails with a typed error.
    Compute,
    /// Abduction compute, panic flavor: the worker closure panics —
    /// what panic isolation must turn into a typed record.
    ComputePanic,
    /// Service socket I/O: the connection is cut mid-request; the
    /// daemon must shrug and keep serving other connections.
    Socket,
}

impl FaultSite {
    /// Every site, in spec order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::DiskRead,
        FaultSite::DiskWrite,
        FaultSite::Decode,
        FaultSite::Compute,
        FaultSite::ComputePanic,
        FaultSite::Socket,
    ];

    /// The key this site uses in a fault-spec string.
    pub fn spec_key(self) -> &'static str {
        match self {
            FaultSite::DiskRead => "disk_read",
            FaultSite::DiskWrite => "disk_write",
            FaultSite::Decode => "decode",
            FaultSite::Compute => "compute",
            FaultSite::ComputePanic => "panic",
            FaultSite::Socket => "socket",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::DiskRead => 0,
            FaultSite::DiskWrite => 1,
            FaultSite::Decode => 2,
            FaultSite::Compute => 3,
            FaultSite::ComputePanic => 4,
            FaultSite::Socket => 5,
        }
    }

    /// Domain-separation salt, so two sites never share a decision
    /// stream even under the same seed.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; only distinctness matters.
        [
            0x9E37_79B9_7F4A_7C15,
            0xD1B5_4A32_D192_ED03,
            0x8CB9_2BA7_2F3D_8DD7,
            0xA24B_AED4_963E_E407,
            0x5851_F42D_4C95_7F2D,
            0x2545_F491_4F6C_DD1D,
        ][self.index()]
    }
}

/// SplitMix64 — the one mixing function behind every fault decision.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform value in `[0, 1)` using the top 53 bits.
fn unit_interval(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic jitter hash for retry backoff: a pure function of
/// `(seed, unit, attempt)`, sharing the fault layer's mixer so the whole
/// chaos schedule derives from SplitMix64.
pub(crate) fn jitter_hash(seed: u64, unit: u64, attempt: u64) -> u64 {
    splitmix(seed ^ splitmix(unit) ^ splitmix(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A seeded, deterministic fault-injection plan.
///
/// Each [`FaultSite`] has an independent rate in `[0, 1]` and an atomic
/// decision counter; [`FaultPlan::should_inject`] draws the site's next
/// decision. Decisions are a pure function of `(seed, site, sequence)`,
/// so a plan parsed from the same spec string always injects at the
/// same sequence positions — the property the chaos invariant tests
/// rely on. Counters of injected faults are kept per site
/// ([`FaultPlan::injected`]) so tests and the CLI can assert the plan
/// actually fired.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; 6],
    sequences: [AtomicU64; 6],
    injected: [AtomicU64; 6],
}

impl FaultPlan {
    /// An all-quiet plan under `seed`: every site's rate is zero.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets `site`'s injection rate (clamped into `[0, 1]`).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.rates[site.index()] = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    /// Parses a fault-spec string: comma-separated `key=value` pairs
    /// where `seed` takes a `u64` and every [`FaultSite::spec_key`]
    /// takes a rate in `[0, 1]`, e.g.
    /// `seed=42,compute=0.2,panic=0.05,disk_read=0.2,disk_write=0.1,decode=0.2,socket=0.1`.
    /// Unknown keys, malformed numbers, and out-of-range rates are
    /// errors — a typo must not silently run fault-free.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::new(0);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec: `{part}` is not a key=value pair"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("fault spec: invalid seed `{value}`"))?;
                continue;
            }
            let site = FaultSite::ALL
                .into_iter()
                .find(|site| site.spec_key() == key)
                .ok_or_else(|| {
                    format!(
                        "fault spec: unknown site `{key}` (accepted: seed, disk_read, \
                         disk_write, decode, compute, panic, socket)"
                    )
                })?;
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("fault spec: invalid rate `{value}` for {key}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "fault spec: rate for {key} must be in [0, 1], got {value}"
                ));
            }
            plan.rates[site.index()] = rate;
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `site`'s configured injection rate.
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// Draws `site`'s next decision: `true` means the caller must
    /// inject a failure here. Deterministic in `(seed, site, sequence)`;
    /// sites with a zero rate never consume a sequence number.
    pub fn should_inject(&self, site: FaultSite) -> bool {
        let index = site.index();
        let rate = self.rates[index];
        if rate <= 0.0 {
            return false;
        }
        let sequence = self.sequences[index].fetch_add(1, Ordering::Relaxed);
        let hash = splitmix(self.seed ^ site.salt() ^ splitmix(sequence));
        let inject = rate >= 1.0 || unit_interval(hash) < rate;
        if inject {
            self.injected[index].fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Faults injected across every site so far.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|count| count.load(Ordering::Relaxed))
            .sum()
    }

    /// The canonical spec string this plan round-trips through
    /// [`FaultPlan::parse`]: the seed plus every nonzero rate, in
    /// [`FaultSite::ALL`] order.
    pub fn spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for site in FaultSite::ALL {
            let rate = self.rates[site.index()];
            if rate > 0.0 {
                out.push_str(&format!(",{}={}", site.spec_key(), rate));
            }
        }
        out
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_site_and_sequence() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed)
                .with_rate(FaultSite::Compute, 0.3)
                .with_rate(FaultSite::Decode, 0.3);
            (0..64)
                .map(|i| {
                    plan.should_inject(if i % 2 == 0 {
                        FaultSite::Compute
                    } else {
                        FaultSite::Decode
                    })
                })
                .collect()
        };
        assert_eq!(draw(42), draw(42), "same seed must replay identically");
        assert_ne!(draw(42), draw(43), "different seeds must diverge");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::new(7)
            .with_rate(FaultSite::Compute, 0.5)
            .with_rate(FaultSite::Socket, 0.5);
        let compute: Vec<bool> = (0..128)
            .map(|_| plan.should_inject(FaultSite::Compute))
            .collect();
        let socket: Vec<bool> = (0..128)
            .map(|_| plan.should_inject(FaultSite::Socket))
            .collect();
        assert_ne!(compute, socket, "sites must be domain-separated");
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let plan = FaultPlan::new(1)
            .with_rate(FaultSite::Compute, 1.0)
            .with_rate(FaultSite::Decode, 0.0);
        for _ in 0..64 {
            assert!(plan.should_inject(FaultSite::Compute));
            assert!(!plan.should_inject(FaultSite::Decode));
        }
        assert_eq!(plan.injected(FaultSite::Compute), 64);
        assert_eq!(plan.injected(FaultSite::Decode), 0);
        assert_eq!(plan.total_injected(), 64);
    }

    #[test]
    fn observed_rate_tracks_the_configured_rate() {
        let plan = FaultPlan::new(99).with_rate(FaultSite::DiskRead, 0.2);
        let n = 10_000;
        let hits = (0..n)
            .filter(|_| plan.should_inject(FaultSite::DiskRead))
            .count();
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - 0.2).abs() < 0.02,
            "observed rate {observed} strays too far from 0.2"
        );
    }

    #[test]
    fn spec_round_trips_through_parse() {
        let plan = FaultPlan::parse(
            "seed=42,compute=0.2,panic=0.05,disk_read=0.2,disk_write=0.1,decode=0.2,socket=0.1",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rate(FaultSite::Compute), 0.2);
        assert_eq!(plan.rate(FaultSite::ComputePanic), 0.05);
        let respec = plan.spec();
        let back = FaultPlan::parse(&respec).unwrap();
        assert_eq!(back.spec(), respec);
        // Same seed + rates ⇒ same decisions.
        for site in FaultSite::ALL {
            for _ in 0..32 {
                assert_eq!(plan.should_inject(site), back.should_inject(site));
            }
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "compute",        // no value
            "compute=lots",   // not a number
            "compute=1.5",    // out of range
            "compute=-0.1",   // out of range
            "warp_core=0.5",  // unknown site
            "seed=minus-one", // bad seed
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        // Empty and whitespace-only specs are the all-quiet plan.
        let quiet = FaultPlan::parse("").unwrap();
        assert_eq!(quiet.total_injected(), 0);
        assert!(!quiet.should_inject(FaultSite::Compute));
    }
}
