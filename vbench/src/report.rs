//! What one benchmark run reports, and how it is printed.

use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
    /// Detail lines printed before the result (ledger, layer snapshot).
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("{name} is not finite"));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed correctness check; any one makes the run incorrect.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Prints the detail lines, one `name = value unit` line per metric,
    /// problems to stderr, and the JSON result as the last stdout line.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        for problem in &self.problems {
            eprintln!("vbench: incorrect: {problem}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit `f64` carries (non-finite values,
/// already reported as problems, print as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Renders a flat map as a JSON object (numbers only).
pub fn json_object(entries: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_number(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}
