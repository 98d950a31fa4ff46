//! In-memory spans around calls into each layer.
//!
//! A span records its layer, start, end and the span that was open when it
//! began. Spans stay in memory and are folded into per-layer self times
//! when the run ends: a span's self time is its duration minus the
//! durations of its children. A disabled tracer records nothing, so the
//! same recomposition code runs traced and untraced.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layer of a root span: time inside it that no child span covers.
pub const UNATTRIBUTED: &str = "runner.unattributed";

struct Span {
    layer: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::end`] in LIFO order.
    pub fn begin(&mut self, layer: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end = self.origin.elapsed();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close in LIFO order");
    }

    /// Records a child of the open span whose duration was measured
    /// elsewhere (another process's reported time), ending now.
    pub fn record(&mut self, layer: &'static str, duration: Duration) {
        if !self.enabled {
            return;
        }
        let end = self.origin.elapsed();
        self.spans.push(Span {
            layer,
            start: end.saturating_sub(duration),
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Per-layer self time in milliseconds, and the summed duration of the
    /// root spans (the traced wall).
    pub fn self_times_ms(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_sum = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_sum[parent] += span.end.saturating_sub(span.start);
            }
        }
        let mut layers = BTreeMap::new();
        let mut wall = Duration::ZERO;
        for (span, children) in self.spans.iter().zip(&child_sum) {
            let duration = span.end.saturating_sub(span.start);
            if span.parent.is_none() {
                wall += duration;
            }
            let own = duration.saturating_sub(*children);
            *layers.entry(span.layer).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        (layers, wall.as_secs_f64() * 1e3)
    }
}
