//! Checks a fresh benchmark run against the committed perf gates.
//!
//! ```text
//! bench_compare <gates.json> <fresh.json>
//! ```
//!
//! `<fresh.json>` is what the benches append through
//! `VERITAS_BENCH_JSON`: one `{"id": ..., "median_ns": ..., "samples":
//! [...]}` line per benchmark, a later line winning on a repeated id.
//! `<gates.json>` (the repository's is `BENCH_gates.json`) is a JSON
//! array of gates. Each gate bounds one id's fresh median by `max_ratio`
//! times a base, which is either
//!
//! * `reference_ns`, a committed median, recorded by the change numbered
//!   `reference_in` in CHANGES.md, or
//! * the fresh median of the id named by `below`, from the same run.
//!
//! A gate passes when the fresh median over its base is strictly below
//! `max_ratio`. Each gate also holds the latest committed median of its
//! id, `recorded_ns` (recorded by change `recorded_in`, with the partner's
//! median in `recorded_below_ns` for a `below` gate), and `why`, one line
//! with the reason for the gate and its numbers.
//!
//! The check prints one row per gate (the fresh median, the base, their
//! ratio, the limit, and the headroom: the factor by which the ratio may
//! still grow before the gate fails) and fails when any gate fails or a
//! gated id is missing from the fresh run. It refuses a gates file with an
//! unknown member, a gate with both bases or neither, a ratio or median
//! that is not finite and positive, or a recorded median that fails its
//! own gate.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Deserialize;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [gates, fresh] = args.as_slice() else {
        eprintln!("usage: bench_compare <gates.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    match run(gates, fresh) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(gates_path: &str, fresh_path: &str) -> Result<(), String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let gates = load_gates(&read(gates_path)?).map_err(|e| format!("{gates_path}: {e}"))?;
    let fresh = load_medians(&read(fresh_path)?).map_err(|e| format!("{fresh_path}: {e}"))?;
    let failures = check(&gates, &fresh);
    if failures.is_empty() {
        println!("ok: all {} gates pass", gates.len());
        Ok(())
    } else {
        Err(format!(
            "{} of {} gates failed:\n  {}",
            failures.len(),
            gates.len(),
            failures.join("\n  ")
        ))
    }
}

/// One entry of the gates file.
#[derive(Debug, Deserialize)]
#[serde(deny_unknown_fields)]
struct Gate {
    id: String,
    max_ratio: f64,
    reference_ns: Option<f64>,
    reference_in: Option<u32>,
    below: Option<String>,
    recorded_ns: f64,
    recorded_in: u32,
    recorded_below_ns: Option<f64>,
    why: String,
}

impl Gate {
    /// How rows and errors name the gate: its id, and for a `below` gate
    /// the id it must stay below.
    fn name(&self) -> String {
        match &self.below {
            Some(below) => format!("{} / {below}", self.id),
            None => self.id.clone(),
        }
    }

    /// Checks the gate's own members, including that its recorded median
    /// passes it.
    fn validate(&self) -> Result<(), String> {
        let recorded_base = match (
            &self.below,
            self.reference_ns,
            self.reference_in,
            self.recorded_below_ns,
        ) {
            (None, Some(reference_ns), Some(_), None) => reference_ns,
            (Some(below), None, None, Some(recorded_below_ns)) if *below != self.id => {
                recorded_below_ns
            }
            _ => {
                return Err(
                    "needs either `reference_ns` with `reference_in`, or `below` (another id) \
                     with `recorded_below_ns`"
                        .to_string(),
                )
            }
        };
        for (member, value) in [
            ("max_ratio", self.max_ratio),
            ("recorded_ns", self.recorded_ns),
            ("the base median", recorded_base),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("{member} must be finite and positive, got {value}"));
            }
        }
        if self.why.trim().is_empty() || self.why.contains('\n') {
            return Err("`why` must be one non-empty line".to_string());
        }
        let ratio = self.recorded_ns / recorded_base;
        if ratio < self.max_ratio {
            Ok(())
        } else {
            Err(format!(
                "its recorded median (change {}) fails it: {} over {} is {ratio:.3}x, not \
                 below {:.3}x",
                self.recorded_in,
                format_ns(self.recorded_ns),
                format_ns(recorded_base),
                self.max_ratio
            ))
        }
    }
}

/// Parses a gates file and checks every gate in it.
fn load_gates(text: &str) -> Result<Vec<Gate>, String> {
    let gates: Vec<Gate> =
        serde_json::from_str(text).map_err(|e| format!("invalid gates file: {e}"))?;
    if gates.is_empty() {
        return Err("the gates file holds no gate".to_string());
    }
    for gate in &gates {
        gate.validate()
            .map_err(|e| format!("gate `{}`: {e}", gate.name()))?;
    }
    Ok(gates)
}

/// One line of the `VERITAS_BENCH_JSON` format.
#[derive(Deserialize)]
struct BenchRecord {
    id: String,
    median_ns: f64,
    #[allow(dead_code)]
    samples: Vec<f64>,
}

/// Parses a bench JSONL file into `id -> median_ns`. Later lines win on
/// repeated ids (the file is appended to across runs).
fn load_medians(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut medians = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: BenchRecord = serde_json::from_str(line)
            .map_err(|e| format!("line {}: invalid record: {e}", number + 1))?;
        medians.insert(record.id, record.median_ns);
    }
    if medians.is_empty() {
        return Err("no benchmark records".to_string());
    }
    Ok(medians)
}

/// Judges every gate on the `fresh` medians and prints one row per gate.
/// Returns the failures, each naming its gate.
fn check(gates: &[Gate], fresh: &BTreeMap<String, f64>) -> Vec<String> {
    let width = gates.iter().map(|g| g.name().len()).max().unwrap_or(0);
    println!(
        "{:<width$} {:>12} {:>12} {:>8} {:>8} {:>9}",
        "gate", "fresh", "base", "ratio", "limit", "headroom"
    );
    let mut failures = Vec::new();
    for gate in gates {
        let name = gate.name();
        let median = |id: &str| {
            fresh
                .get(id)
                .copied()
                .filter(|ns| ns.is_finite() && *ns > 0.0)
                .ok_or_else(|| {
                    format!("gate `{name}`: the fresh run has no positive median for `{id}`")
                })
        };
        let measured = median(&gate.id).and_then(|fresh_ns| {
            let base_ns = match &gate.below {
                Some(below) => median(below)?,
                None => gate.reference_ns.expect("a validated gate has a base"),
            };
            Ok((fresh_ns, base_ns))
        });
        let (fresh_ns, base_ns) = match measured {
            Ok(medians) => medians,
            Err(failure) => {
                println!("{name:<width$} {:>12}  << MISSING", "-");
                failures.push(failure);
                continue;
            }
        };
        let ratio = fresh_ns / base_ns;
        let passes = ratio < gate.max_ratio;
        println!(
            "{name:<width$} {:>12} {:>12} {ratio:>7.3}x {:>7.3}x {:>8.2}x{}",
            format_ns(fresh_ns),
            format_ns(base_ns),
            gate.max_ratio,
            gate.max_ratio / ratio,
            if passes { "" } else { "  << FAIL" }
        );
        if !passes {
            failures.push(format!(
                "gate `{name}`: {ratio:.3}x is not below {:.3}x ({} over {})",
                gate.max_ratio,
                format_ns(fresh_ns),
                format_ns(base_ns)
            ));
        }
    }
    failures
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{ns:.1}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference gate on `a` (at most 0.5× of 100 ns) and a pair gate
    /// (`a` below 0.75× of `b`), with the given recorded median of `a`.
    fn gates_json(recorded_a: f64) -> String {
        format!(
            r#"[
              {{"id": "a", "max_ratio": 0.5, "reference_ns": 100, "reference_in": 1,
                "recorded_ns": {recorded_a}, "recorded_in": 2, "why": "a is fast"}},
              {{"id": "a", "max_ratio": 0.75, "below": "b", "recorded_ns": {recorded_a},
                "recorded_below_ns": 80, "recorded_in": 2, "why": "a stays below b"}}
            ]"#
        )
    }

    fn fresh(records: &[(&str, f64)]) -> BTreeMap<String, f64> {
        records
            .iter()
            .map(|&(id, ns)| (id.to_string(), ns))
            .collect()
    }

    /// The single failure of checking `gates` on `records`.
    fn only_failure(gates: &str, records: &[(&str, f64)]) -> String {
        let failures = check(&load_gates(gates).unwrap(), &fresh(records));
        assert_eq!(failures.len(), 1, "{failures:?}");
        failures.into_iter().next().unwrap()
    }

    #[test]
    fn a_passing_run_passes() {
        let gates = load_gates(&gates_json(40.0)).unwrap();
        assert!(check(&gates, &fresh(&[("a", 49.0), ("b", 70.0), ("c", 1.0)])).is_empty());
    }

    #[test]
    fn a_missing_id_fails_its_gates() {
        let failures = check(
            &load_gates(&gates_json(40.0)).unwrap(),
            &fresh(&[("b", 70.0)]),
        );
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures[0].contains("gate `a`") && failures[0].contains("no positive median for `a`")
        );
        assert!(
            failures[1].contains("gate `a / b`")
                && failures[1].contains("no positive median for `a`")
        );
        let failure = only_failure(&gates_json(40.0), &[("a", 10.0)]);
        assert!(failure.contains("gate `a / b`") && failure.contains("no positive median for `b`"));
    }

    #[test]
    fn a_ratio_at_or_over_the_limit_fails() {
        for a in [50.0, 50.5] {
            let failure = only_failure(&gates_json(40.0), &[("a", a), ("b", 1000.0)]);
            assert!(failure.starts_with("gate `a`:"), "{failure}");
            assert!(failure.contains("not below 0.500x"), "{failure}");
        }
    }

    #[test]
    fn a_pair_gate_fails_unless_below_its_partner() {
        for b in [40.0, 30.0, 20.0] {
            let failure = only_failure(&gates_json(40.0), &[("a", 30.0), ("b", b)]);
            assert!(failure.starts_with("gate `a / b`:"), "{failure}");
            assert!(failure.contains("not below 0.750x"), "{failure}");
        }
    }

    #[test]
    fn a_recorded_median_that_fails_its_own_gate_is_refused() {
        // 50 ns is 0.5× of the reference; 60 ns also fails the pair gate,
        // but the first gate is named first.
        for recorded in [50.0, 60.0] {
            let error = load_gates(&gates_json(recorded)).unwrap_err();
            assert!(
                error.starts_with("gate `a`: its recorded median (change 2) fails it"),
                "{error}"
            );
        }
        let pair_only =
            gates_json(45.0).replace("\"recorded_below_ns\": 80", "\"recorded_below_ns\": 60");
        let error = load_gates(&pair_only).unwrap_err();
        assert!(
            error.starts_with("gate `a / b`: its recorded median (change 2) fails it"),
            "{error}"
        );
    }

    #[test]
    fn malformed_gates_are_refused() {
        let gate =
            |members: &str| format!(r#"[{{"id": "a", "recorded_in": 2, "why": "w", {members}}}]"#);
        let reference =
            r#""max_ratio": 0.5, "reference_ns": 100, "reference_in": 1, "recorded_ns": 40"#;
        let pair = r#""max_ratio": 0.5, "below": "b", "recorded_ns": 40, "recorded_below_ns": 100"#;
        assert!(load_gates(&gate(reference)).is_ok());
        assert!(load_gates(&gate(pair)).is_ok());
        let cases = [
            (
                "an unknown member",
                gate(&format!(r#"{reference}, "max_ration": 1"#)),
                "unknown field `max_ration`",
            ),
            (
                "both bases",
                gate(&format!(
                    r#"{reference}, "below": "b", "recorded_below_ns": 100"#
                )),
                "needs either",
            ),
            (
                "neither base",
                gate(r#""max_ratio": 0.5, "recorded_ns": 40"#),
                "needs either",
            ),
            (
                "a reference without its change",
                gate(r#""max_ratio": 0.5, "reference_ns": 100, "recorded_ns": 40"#),
                "needs either",
            ),
            (
                "a pair without the partner's median",
                gate(r#""max_ratio": 0.5, "below": "b", "recorded_ns": 40"#),
                "needs either",
            ),
            (
                "a pair below itself",
                gate(&pair.replace("\"b\"", "\"a\"")),
                "needs either",
            ),
            (
                "a missing member",
                gate(r#""max_ratio": 0.5, "reference_ns": 100, "reference_in": 1"#),
                "missing field `recorded_ns`",
            ),
            (
                "a zero ratio",
                gate(&reference.replace("0.5", "0")),
                "max_ratio must be finite and positive",
            ),
            (
                "a negative ratio",
                gate(&reference.replace("0.5", "-0.5")),
                "max_ratio must be finite and positive",
            ),
            (
                "an infinite ratio",
                gate(&reference.replace("0.5", "1e999")),
                "out of range",
            ),
            (
                "a zero reference",
                gate(&reference.replace("100", "0")),
                "the base median must be finite and positive",
            ),
            (
                "a negative partner median",
                gate(&pair.replace("100", "-100")),
                "the base median must be finite and positive",
            ),
            (
                "a zero recorded median",
                gate(&reference.replace("40", "0")),
                "recorded_ns must be finite and positive",
            ),
            (
                "an empty why",
                gate(reference).replace(r#""why": "w""#, r#""why": " ""#),
                "one non-empty line",
            ),
            (
                "a two-line why",
                gate(reference).replace(r#""why": "w""#, r#""why": "w\nx""#),
                "one non-empty line",
            ),
            ("no gate", "[]".to_string(), "no gate"),
            (
                "not an array",
                gate(reference).trim_matches(['[', ']']).to_string(),
                "invalid gates file",
            ),
        ];
        for (what, text, expected) in cases {
            let error = load_gates(&text).expect_err(what);
            assert!(error.contains(expected), "{what}: {error}");
        }
    }

    #[test]
    fn the_committed_gates_are_consistent() {
        let gates = load_gates(include_str!("../../../../BENCH_gates.json")).unwrap();
        let mut names: Vec<String> = gates.iter().map(Gate::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), gates.len(), "each id and base is gated once");
    }
}
