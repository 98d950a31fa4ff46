//! Folding traced passes into the per-layer metrics.

use std::collections::BTreeMap;

use crate::recompose::{Extra, Ledger};
use crate::report::{json_object, Report};
use crate::trace::{Tracer, UNATTRIBUTED};

/// Every span layer, in the engine's order.
pub const LAYERS: [&str; 16] = [
    "plan",
    "store",
    "cache",
    "persist.load",
    "abduction.kernel_build",
    "abduction.emission",
    "abduction.infer",
    "persist.save",
    "sampler",
    "replay",
    "interventional",
    "runner.answer",
    "runner.serialize",
    UNATTRIBUTED,
    "service.wire",
    "service.engine",
];

/// Layers reported in milliseconds as well as a share: the ones every
/// workload crosses inside its traced passes, so the figure is never a
/// constant zero.
const TIMED_LAYERS: [(&str, &str); 4] = [
    ("store", "store.decode_ms"),
    ("plan", "plan.compile_ms"),
    ("runner.serialize", "runner.serialize_ms"),
    (UNATTRIBUTED, "runner.unattributed_ms"),
];

/// Per-layer self times summed over the traced passes of a run.
#[derive(Default)]
pub struct Split {
    self_ms: BTreeMap<&'static str, f64>,
    wall_ms: f64,
    passes: u64,
}

impl Split {
    pub fn add(&mut self, tracer: &Tracer) {
        let (layers, wall) = tracer.self_times_ms();
        for (layer, ms) in layers {
            *self.self_ms.entry(layer).or_insert(0.0) += ms;
        }
        self.wall_ms += wall;
        self.passes += 1;
    }

    fn per_pass(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0) / self.passes.max(1) as f64
    }

    fn wall_per_pass(&self) -> f64 {
        self.wall_ms / self.passes.max(1) as f64
    }
}

/// Counts and store figures that go with a split, all per pass.
pub struct Counts {
    pub ledger: Ledger,
    pub extra: Extra,
    pub ops: u64,
    pub open_ms: f64,
    pub peak_resident_bytes: u64,
    pub projected_bytes_ratio: f64,
    pub retries: u64,
    pub requests: u64,
    pub shed: u64,
}

/// Adds every per-layer metric to `report`, plus a `snapshot` detail line
/// with the absolute time of every layer.
pub fn emit(report: &mut Report, split: &Split, counts: &Counts, overhead_ratio: f64) {
    let wall = split.wall_per_pass();
    report.metric("store.open_ms", counts.open_ms, "ms");
    for (layer, name) in TIMED_LAYERS {
        report.metric(name, split.per_pass(layer), "ms");
    }
    report.metric("trace.wall_ms", wall, "ms");
    for layer in LAYERS {
        report.metric(
            &format!("{layer}.share"),
            100.0 * split.per_pass(layer) / wall,
            "%",
        );
    }
    let covered: f64 = LAYERS
        .iter()
        .filter(|&&l| l != UNATTRIBUTED)
        .map(|l| split.per_pass(l))
        .sum();
    let accounted = covered + split.per_pass(UNATTRIBUTED);
    report.check((accounted - wall).abs() <= 0.03 * wall, || {
        format!("layer self times sum to {accounted} ms of a {wall} ms traced wall")
    });

    let l = &counts.ledger;
    let lookups = l.memory_hits + l.disk_hits + l.inferences;
    let persisted = l.disk_hits
        + if l.vpost_bytes_written > 0 {
            l.inferences
        } else {
            0
        };
    let persist_bytes = l.vpost_bytes_read + l.vpost_bytes_written;
    let count_metrics: [(&str, f64, &'static str); 22] = [
        ("cache.hits", l.memory_hits as f64, "count"),
        ("cache.misses", l.inferences as f64, "count"),
        ("cache.disk_hits", l.disk_hits as f64, "count"),
        ("cache.kernel_disk_hits", l.kernel_disk_hits as f64, "count"),
        (
            "cache.hit_ratio",
            (l.memory_hits + l.disk_hits) as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        ("store.bytes_decoded", l.bytes_decoded as f64, "bytes"),
        (
            "store.projected_bytes_ratio",
            counts.projected_bytes_ratio,
            "ratio",
        ),
        (
            "store.peak_resident_bytes",
            counts.peak_resident_bytes as f64,
            "bytes",
        ),
        ("persist.bytes_read", l.vpost_bytes_read as f64, "bytes"),
        (
            "persist.bytes_written",
            l.vpost_bytes_written as f64,
            "bytes",
        ),
        (
            "persist.bytes_per_posterior",
            persist_bytes as f64 / persisted.max(1) as f64,
            "bytes",
        ),
        (
            "abduction.chunks_inferred",
            counts.extra.chunks_inferred as f64,
            "count",
        ),
        ("sampler.traces", l.sampled_traces as f64, "count"),
        ("replay.count", l.replays as f64, "count"),
        ("replay.chunks", counts.extra.replay_chunks as f64, "count"),
        ("runner.records", l.records as f64, "count"),
        ("runner.retries", counts.retries as f64, "count"),
        ("service.requests", counts.requests as f64, "count"),
        ("service.shed", counts.shed as f64, "count"),
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
        ("trace.coverage", covered / wall, "ratio"),
        ("trace.ops", counts.ops as f64, "count"),
    ];
    for (name, value, unit) in count_metrics {
        report.metric(name, value, unit);
    }

    let mut snapshot: BTreeMap<String, f64> = LAYERS
        .iter()
        .map(|&layer| (format!("{layer}.self_ms_per_pass"), split.per_pass(layer)))
        .collect();
    snapshot.insert("trace.wall_ms_per_pass".to_string(), wall);
    snapshot.insert("trace.passes".to_string(), split.passes as f64);
    snapshot.insert("trace.ops_per_pass".to_string(), counts.ops as f64);
    report
        .lines
        .push(format!("snapshot {}", json_object(&snapshot)));
}
