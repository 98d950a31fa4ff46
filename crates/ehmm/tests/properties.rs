//! Property-based tests of the EHMM machinery: transition-matrix algebra,
//! agreement between the scaled forward–backward smoother and brute-force
//! enumeration on small random models, Viterbi optimality, and sampler
//! support.
//!
//! Determinism: the vendored proptest harness (shims/proptest) derives every
//! case's RNG seed from (module path, test name, case index), and all direct
//! `StdRng` uses below seed from literals, so CI runs are fully reproducible
//! with no persisted shrink state.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use veritas_ehmm::{
    forward_backward, path_log_score, sample_path, sample_path_ffbs, viterbi, EhmmSpec,
    EhmmWorkspace, EmissionTable, TransitionMatrix, TransitionPowers,
};

/// Strategy: a small random model (3–5 states) plus a random emission table
/// (2–5 observations) with gaps in 0..=3.
fn small_model() -> impl Strategy<Value = (EhmmSpec, EmissionTable)> {
    (3usize..=5, 2usize..=5, 0.2f64..0.95, any::<u64>()).prop_map(
        |(num_states, num_obs, stay, seed)| {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let spec =
                EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(num_states, stay));
            let rows: Vec<Vec<f64>> = (0..num_obs)
                .map(|_| (0..num_states).map(|_| -rng.gen_range(0.0..8.0)).collect())
                .collect();
            let gaps: Vec<u32> = (0..num_obs)
                .map(|n| if n == 0 { 0 } else { rng.gen_range(0..4) })
                .collect();
            (spec, EmissionTable::new(rows, gaps))
        },
    )
}

/// Exact posteriors by enumerating every hidden-state sequence.
fn brute_force_gamma(spec: &EhmmSpec, obs: &EmissionTable) -> Vec<Vec<f64>> {
    let num_states = spec.num_states();
    let num_obs = obs.num_obs();
    let mut powers = TransitionPowers::new(spec.transition().clone());
    let emissions: Vec<Vec<f64>> = (0..num_obs).map(|n| obs.scaled_linear_row(n)).collect();
    let mut gamma = vec![vec![0.0; num_states]; num_obs];
    let mut z = 0.0;
    for idx in 0..num_states.pow(num_obs as u32) {
        let mut rem = idx;
        let mut path = vec![0usize; num_obs];
        for slot in path.iter_mut() {
            *slot = rem % num_states;
            rem /= num_states;
        }
        let mut w = spec.initial()[path[0]] * emissions[0][path[0]];
        for n in 1..num_obs {
            let a = powers.power(obs.gap(n));
            w *= a.get(path[n - 1], path[n]) * emissions[n][path[n]];
        }
        z += w;
        for n in 0..num_obs {
            gamma[n][path[n]] += w;
        }
    }
    for row in &mut gamma {
        for v in row.iter_mut() {
            *v /= z;
        }
    }
    gamma
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tridiagonal_powers_stay_stochastic((n, stay, k) in (2usize..30, 0.0f64..=1.0, 0u32..200)) {
        let m = TransitionMatrix::tridiagonal(n, stay);
        prop_assert!(m.is_row_stochastic(1e-9));
        prop_assert!(m.power(k).is_row_stochastic(1e-7));
    }

    #[test]
    fn power_is_multiplicative((n, stay, a, b) in (2usize..10, 0.1f64..0.95, 0u32..12, 0u32..12)) {
        let m = TransitionMatrix::tridiagonal(n, stay);
        let lhs = m.power(a + b);
        let rhs = m.power(a).multiply(&m.power(b));
        for i in 0..n {
            for j in 0..n {
                prop_assert!((lhs.get(i, j) - rhs.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn forward_backward_matches_enumeration((spec, obs) in small_model()) {
        let fb = forward_backward(&spec, &obs);
        let exact = brute_force_gamma(&spec, &obs);
        for n in 0..obs.num_obs() {
            for i in 0..spec.num_states() {
                prop_assert!(
                    (fb.gamma[n][i] - exact[n][i]).abs() < 1e-7,
                    "gamma[{}][{}] = {} vs exact {}", n, i, fb.gamma[n][i], exact[n][i]
                );
            }
        }
    }

    #[test]
    fn viterbi_path_is_optimal_among_enumerated_paths((spec, obs) in small_model()) {
        let num_states = spec.num_states();
        let num_obs = obs.num_obs();
        let result = viterbi(&spec, &obs);
        let best = path_log_score(&spec, &obs, &result.path);
        for idx in 0..num_states.pow(num_obs as u32) {
            let mut rem = idx;
            let mut path = vec![0usize; num_obs];
            for slot in path.iter_mut() {
                *slot = rem % num_states;
                rem /= num_states;
            }
            prop_assert!(path_log_score(&spec, &obs, &path) <= best + 1e-9);
        }
    }

    #[test]
    fn xi_marginalizes_to_gamma((spec, obs) in small_model()) {
        let fb = forward_backward(&spec, &obs);
        let ws = EhmmWorkspace::new(spec.clone());
        for n in 0..fb.totals.len() {
            let pair = ws.pair(&fb, n);
            for i in 0..spec.num_states() {
                let row_sum: f64 = pair[i].iter().sum();
                prop_assert!((row_sum - fb.gamma[n][i]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn samplers_produce_valid_in_range_paths(((spec, obs), seed) in (small_model(), any::<u64>())) {
        let fb = forward_backward(&spec, &obs);
        let vit = viterbi(&spec, &obs);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = sample_path(&spec, &fb, &vit, &mut rng);
        let b = sample_path_ffbs(&spec, &obs, &mut rng);
        prop_assert_eq!(a.len(), obs.num_obs());
        prop_assert_eq!(b.len(), obs.num_obs());
        prop_assert!(a.iter().all(|&s| s < spec.num_states()));
        prop_assert!(b.iter().all(|&s| s < spec.num_states()));
        // Paths through zero-gap steps never change state.
        for n in 1..obs.num_obs() {
            if obs.gap(n) == 0 {
                prop_assert_eq!(a[n], a[n - 1]);
                prop_assert_eq!(b[n], b[n - 1]);
            }
        }
    }
}
