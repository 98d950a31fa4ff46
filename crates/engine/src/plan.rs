//! The compile stage: turn a [`QuerySet`] into an executable [`QueryPlan`].
//!
//! A plan is a flat, validated list of [`WorkUnit`]s — one per
//! (query, session, config) triple — plus everything the executor needs
//! resolved up front: per-config fingerprints (so the hot path never
//! re-hashes a [`VeritasConfig`]), materialized counterfactual
//! [`Scenario`]s (so a ladder re-encode happens once per distinct spec,
//! not once per unit), and per-query unit counts (so aggregations know
//! when their fold is complete).
//!
//! Two query kinds only exist at this layer:
//!
//! * [`ConfigSweep`] — [`crate::Query::sweep`] expands one query over a
//!   cartesian grid of configuration variants (emission noise, stay
//!   probability, sample counts, grid geometry). Each variant becomes its
//!   own [`PlannedConfig`] with its own precomputed fingerprint, so the
//!   abduction cache and the shared kernel workspaces key correctly per
//!   variant.
//! * [`AggregateSpec`] — [`crate::Query::aggregate`] declares a
//!   trace-level reduction (mean / p50 / p95 / min / max of a per-session
//!   metric) that the run handle folds incrementally from the record
//!   stream; only the per-session scalars are retained, never the full
//!   record set.

use serde::{Deserialize, Deserializer, Serialize};
use veritas::{Scenario, VeritasConfig};
use veritas_player::QoeSummary;

use crate::cache::config_fingerprint;
use crate::corpus::Corpus;
use crate::error::EngineError;
use crate::query::{Query, QueryKind, QuerySet, ScenarioSpec, WireNames};
use crate::runner::materialize_scenario;
use crate::store::{columns, ColumnSet};

/// Upper bound on the variants one sweep may expand to — a guard against
/// accidentally declaring a grid that turns one query into thousands of
/// inference units.
pub const MAX_SWEEP_VARIANTS: usize = 256;

/// A declarative grid of [`VeritasConfig`] variations for a sweep query.
///
/// Each present axis lists the values to sweep; absent axes keep the query
/// set's base configuration. The expansion is the cartesian product of the
/// present axes, in a fixed axis order (σ, stay probability, samples, ε,
/// grid ceiling), and every variant carries a stable human-readable label
/// (e.g. `sigma=0.25,stay=0.9`) echoed in result records.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ConfigSweep {
    /// Emission noise values (σ, Mbps) to sweep.
    pub sigma_mbps: Option<Vec<f64>>,
    /// Transition stay probabilities to sweep.
    pub stay_probability: Option<Vec<f64>>,
    /// Posterior sample counts to sweep (matters for counterfactual
    /// sweeps; abduction-shaped sweeps share one posterior across counts).
    pub num_samples: Option<Vec<usize>>,
    /// Capacity quantization steps (ε, Mbps) to sweep.
    pub epsilon_mbps: Option<Vec<f64>>,
    /// Capacity-grid ceilings (Mbps) to sweep.
    pub max_capacity_mbps: Option<Vec<f64>>,
}

impl ConfigSweep {
    /// An empty sweep (no axes); add axes with the `over_*` builders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sweeps the emission noise σ.
    pub fn over_sigma(mut self, values: Vec<f64>) -> Self {
        self.sigma_mbps = Some(values);
        self
    }

    /// Sweeps the transition stay probability.
    pub fn over_stay_probability(mut self, values: Vec<f64>) -> Self {
        self.stay_probability = Some(values);
        self
    }

    /// Sweeps the posterior sample count.
    pub fn over_samples(mut self, values: Vec<usize>) -> Self {
        self.num_samples = Some(values);
        self
    }

    /// Sweeps the capacity quantization step ε.
    pub fn over_epsilon(mut self, values: Vec<f64>) -> Self {
        self.epsilon_mbps = Some(values);
        self
    }

    /// Sweeps the capacity-grid ceiling.
    pub fn over_max_capacity(mut self, values: Vec<f64>) -> Self {
        self.max_capacity_mbps = Some(values);
        self
    }

    /// Expands the grid over a base configuration, returning
    /// `(label, config)` pairs in deterministic axis-major order.
    pub fn expand(&self, base: &VeritasConfig) -> Vec<(String, VeritasConfig)> {
        let mut variants: Vec<(String, VeritasConfig)> = vec![(String::new(), *base)];
        variants = cross_axis(variants, "sigma", self.sigma_mbps.as_deref(), |c, v| {
            c.sigma_mbps = v
        });
        variants = cross_axis(
            variants,
            "stay",
            self.stay_probability.as_deref(),
            |c, v| c.stay_probability = v,
        );
        variants = cross_axis(variants, "samples", self.num_samples.as_deref(), |c, v| {
            c.num_samples = v
        });
        variants = cross_axis(variants, "epsilon", self.epsilon_mbps.as_deref(), |c, v| {
            c.epsilon_mbps = v
        });
        variants = cross_axis(
            variants,
            "max_capacity",
            self.max_capacity_mbps.as_deref(),
            |c, v| c.max_capacity_mbps = v,
        );
        variants
    }

    /// Number of variants the sweep expands to (product of axis lengths).
    pub fn variant_count(&self) -> usize {
        [
            self.sigma_mbps.as_ref().map(Vec::len),
            self.stay_probability.as_ref().map(Vec::len),
            self.num_samples.as_ref().map(Vec::len),
            self.epsilon_mbps.as_ref().map(Vec::len),
            self.max_capacity_mbps.as_ref().map(Vec::len),
        ]
        .into_iter()
        .flatten()
        .product()
    }

    /// Checks the sweep against a base configuration: at least one axis,
    /// no empty axis, a bounded variant count, and every expanded variant
    /// must be a valid [`VeritasConfig`].
    pub fn validate(&self, base: &VeritasConfig) -> Result<(), String> {
        let axes = [
            ("sigma_mbps", self.sigma_mbps.as_ref().map(Vec::len)),
            (
                "stay_probability",
                self.stay_probability.as_ref().map(Vec::len),
            ),
            ("num_samples", self.num_samples.as_ref().map(Vec::len)),
            ("epsilon_mbps", self.epsilon_mbps.as_ref().map(Vec::len)),
            (
                "max_capacity_mbps",
                self.max_capacity_mbps.as_ref().map(Vec::len),
            ),
        ];
        if axes.iter().all(|(_, len)| len.is_none()) {
            return Err("sweep declares no axes".to_string());
        }
        for (name, len) in axes {
            if len == Some(0) {
                return Err(format!("sweep axis `{name}` is empty"));
            }
        }
        let float_axes = [
            ("sigma_mbps", &self.sigma_mbps),
            ("stay_probability", &self.stay_probability),
            ("epsilon_mbps", &self.epsilon_mbps),
            ("max_capacity_mbps", &self.max_capacity_mbps),
        ];
        for (name, axis) in float_axes {
            if let Some(values) = axis {
                let mut bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                bits.sort_unstable();
                bits.dedup();
                if bits.len() != values.len() {
                    return Err(format!("sweep axis `{name}` repeats a value"));
                }
            }
        }
        if let Some(values) = &self.num_samples {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != values.len() {
                return Err("sweep axis `num_samples` repeats a value".to_string());
            }
        }
        let variants = self.variant_count();
        if variants > MAX_SWEEP_VARIANTS {
            return Err(format!(
                "sweep expands to {variants} variants (limit {MAX_SWEEP_VARIANTS})"
            ));
        }
        for (label, config) in self.expand(base) {
            config
                .validate()
                .map_err(|e| format!("sweep variant `{label}`: {e}"))?;
        }
        Ok(())
    }
}

/// Crosses the variants accumulated so far with one sweep axis; an absent
/// axis leaves the variants (and their labels) untouched.
fn cross_axis<T: Copy + std::fmt::Display>(
    variants: Vec<(String, VeritasConfig)>,
    name: &str,
    values: Option<&[T]>,
    set: impl Fn(&mut VeritasConfig, T),
) -> Vec<(String, VeritasConfig)> {
    let Some(values) = values else {
        return variants;
    };
    let mut next = Vec::with_capacity(variants.len() * values.len());
    for (label, config) in &variants {
        for &value in values {
            let mut config = *config;
            set(&mut config, value);
            let label = if label.is_empty() {
                format!("{name}={value}")
            } else {
                format!("{label},{name}={value}")
            };
            next.push((label, config));
        }
    }
    next
}

/// The per-session scalar an aggregation query reduces.
///
/// `mean_capacity_mbps` comes straight from the abducted posterior (the
/// mean of the Viterbi GTBW trace); the QoE metrics replay the declared
/// scenario over the session's posterior samples and take the per-session
/// median of the metric (the Veritas-median outcome of the paper's §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateMetric {
    /// Mean of the Viterbi GTBW trace in Mbps (bandwidth posterior).
    MeanCapacityMbps,
    /// Mean SSIM of the scenario replay.
    MeanSsim,
    /// Rebuffering (stall) ratio of the scenario replay, in percent.
    RebufferRatioPercent,
    /// Average bitrate of the scenario replay, in Mbps.
    AvgBitrateMbps,
    /// Startup delay of the scenario replay, in seconds.
    StartupDelayS,
}

impl AggregateMetric {
    /// Every metric with its wire name, in declaration order.
    const NAMES: WireNames<AggregateMetric> = WireNames {
        what: "aggregate metric",
        rows: &[
            (AggregateMetric::MeanCapacityMbps, "mean_capacity_mbps"),
            (AggregateMetric::MeanSsim, "mean_ssim"),
            (
                AggregateMetric::RebufferRatioPercent,
                "rebuffer_ratio_percent",
            ),
            (AggregateMetric::AvgBitrateMbps, "avg_bitrate_mbps"),
            (AggregateMetric::StartupDelayS, "startup_delay_s"),
        ],
    };

    /// The wire name of this metric.
    pub fn as_str(&self) -> &'static str {
        Self::NAMES.rows[*self as usize].1
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::NAMES.parse(name)
    }

    /// Whether computing this metric requires replaying a scenario (the
    /// QoE metrics) rather than reading the posterior directly.
    pub fn needs_replay(&self) -> bool {
        !matches!(self, AggregateMetric::MeanCapacityMbps)
    }

    /// Reads this metric out of one replay outcome.
    pub(crate) fn of_qoe(&self, qoe: &QoeSummary) -> f64 {
        match self {
            AggregateMetric::MeanCapacityMbps => {
                unreachable!("capacity metric is read from the posterior, not a replay")
            }
            AggregateMetric::MeanSsim => qoe.mean_ssim,
            AggregateMetric::RebufferRatioPercent => qoe.rebuffer_ratio_percent,
            AggregateMetric::AvgBitrateMbps => qoe.avg_bitrate_mbps,
            AggregateMetric::StartupDelayS => qoe.startup_delay_s,
        }
    }
}

impl Serialize for AggregateMetric {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for AggregateMetric {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_str(&Self::NAMES)
    }
}

/// A declarative trace-level reduction for an aggregation query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AggregateSpec {
    /// The per-session scalar to reduce.
    pub metric: AggregateMetric,
    /// Scenario the QoE metrics replay (an unset scenario replays the
    /// deployed setting); ignored by `mean_capacity_mbps`.
    pub scenario: Option<ScenarioSpec>,
}

impl AggregateSpec {
    /// An aggregation of `metric` under the deployed setting.
    pub fn of(metric: AggregateMetric) -> Self {
        Self {
            metric,
            scenario: None,
        }
    }

    /// Sets the scenario the QoE metrics replay.
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !self.metric.needs_replay() && self.scenario.is_some() {
            return Err(format!(
                "aggregate metric `{}` reads the posterior directly; a scenario is meaningless",
                self.metric.as_str()
            ));
        }
        Ok(())
    }
}

/// The folded result of one aggregation query, carried by its final
/// `session: "*"` record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateSummary {
    /// The reduced metric.
    pub metric: AggregateMetric,
    /// Number of sessions that contributed a value.
    pub sessions: usize,
    /// Mean of the per-session values.
    pub mean: f64,
    /// Median (p50) of the per-session values.
    pub p50: f64,
    /// 95th percentile of the per-session values.
    pub p95: f64,
    /// Minimum per-session value.
    pub min: f64,
    /// Maximum per-session value.
    pub max: f64,
}

impl AggregateSummary {
    /// Reduces a set of per-session values (order irrelevant).
    /// Percentiles come from [`veritas_trace::stats::percentile`] — the
    /// same linear-interpolation helper the figure experiments use.
    ///
    /// # Panics
    ///
    /// Panics on an empty value set; the run handle emits an error record
    /// instead of calling this when no session produced a value.
    pub fn reduce(metric: AggregateMetric, values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot reduce zero values");
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self {
            metric,
            sessions: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: veritas_trace::stats::percentile(&sorted, 50.0),
            p95: veritas_trace::stats::percentile(&sorted, 95.0),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice of integers:
/// the value at 1-based rank `⌈q/100 · len⌉` (`q = 0` yields the
/// minimum). Always an actually observed value — the right convention for
/// latency counters, unlike the linear interpolation
/// [`veritas_trace::stats::percentile`] applies to continuous metrics.
pub(crate) fn percentile_u64(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Multiply before dividing: `q / 100.0` alone rounds up for many
    // integer q (e.g. 0.28000…02), and `ceil` would overshoot the rank by
    // one; `q · len / 100` is exact for integer q.
    let rank = ((q.clamp(0.0, 100.0) * sorted.len() as f64) / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The columns of a session block that abduction itself consumes: the
/// observation series (chunk sizes, start times, observed throughputs)
/// and the TCP snapshot the emission model conditions on. Every query
/// kind abduces, so every kind demands at least these.
const ABDUCTION_COLUMNS: ColumnSet = ColumnSet::of(&[
    columns::SIZE_BYTES,
    columns::START_TIME_S,
    columns::THROUGHPUT_MBPS,
    columns::CWND_SEGMENTS,
    columns::SSTHRESH_SEGMENTS,
    columns::RTO_S,
    columns::SRTT_S,
    columns::MIN_RTT_S,
    columns::LAST_SEND_GAP_S,
]);

/// The per-chunk columns one query's work units read from each selected
/// session log, derived from the query kind and scenario presence alone
/// — never from the corpus or the logs, so demand derivation keeps
/// compilation decode-free.
///
/// * Every kind abduces, so every kind needs [`ABDUCTION_COLUMNS`].
/// * Interventional queries additionally read the logged
///   `download_time_s` of the decision chunk (the actual outcome echoed
///   next to the prediction).
/// * Counterfactual answers — the counterfactual kind itself, and a
///   sweep carrying a scenario — additionally read `end_time_s`: the
///   Baseline estimator interpolates over the logged download windows.
///   Aggregations replay scenarios over posterior-sampled traces only
///   (no Baseline), so they stay at the abduction demand.
///
/// Session-level scalars (durations, chunk count, ABR name) ride in the
/// block header and are always decoded; they are not columns.
fn query_column_demand(query: &Query) -> ColumnSet {
    let demand = ABDUCTION_COLUMNS;
    match query.kind {
        QueryKind::Abduction | QueryKind::Aggregate => demand,
        QueryKind::Interventional => demand.with(columns::DOWNLOAD_TIME_S),
        QueryKind::Counterfactual => demand.with(columns::END_TIME_S),
        QueryKind::Sweep => {
            if query.scenario.is_some() {
                demand.with(columns::END_TIME_S)
            } else {
                demand
            }
        }
    }
}

/// One configuration a plan executes under: the query set's base config
/// (label `None`) or a sweep variant (label `Some`), with its cache
/// fingerprint computed once at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedConfig {
    /// Human-readable variant label (`None` for the base configuration),
    /// echoed as `variant` in result records.
    pub label: Option<String>,
    /// The configuration itself.
    pub config: VeritasConfig,
    /// Precomputed abduction-cache fingerprint of `config`.
    pub fingerprint: u64,
}

/// One executable unit of a plan: run `query` over `session` under
/// `config` (indices into the plan's query list, the corpus, and the
/// plan's config table respectively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Index of the query in the plan's query set.
    pub query: usize,
    /// Index of the session in the corpus the plan was compiled against.
    pub session: usize,
    /// Index into [`QueryPlan::configs`].
    pub config: usize,
}

/// A compiled, validated execution plan: the output of the **compile**
/// stage, the input of [`crate::Engine::submit_shared`].
///
/// Compilation resolves everything that can fail or be shared up front:
/// session selectors (against the corpus the plan is compiled for), sweep
/// expansion into [`PlannedConfig`]s with precomputed fingerprints,
/// scenario materialization (one [`Scenario`] per distinct spec — a
/// ladder change re-encodes the corpus asset exactly once), and per-query
/// unit counts for aggregation bookkeeping. A plan is immutable and may
/// be submitted any number of times, but only over a corpus with the same
/// session count it was compiled against.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    set: QuerySet,
    sessions: usize,
    corpus_fingerprint: u64,
    configs: Vec<PlannedConfig>,
    units: Vec<WorkUnit>,
    scenarios: Vec<Option<Result<Scenario, String>>>,
    unit_counts: Vec<usize>,
    column_demand: Vec<ColumnSet>,
}

impl QueryPlan {
    /// Compiles a query set against a corpus.
    ///
    /// Fails fast on structural problems (empty corpus, invalid set,
    /// out-of-range session selectors). A bad scenario spec (unknown ABR
    /// or ladder name) is *not* a compile error: it is recorded and
    /// replicated as a per-unit error at execution time, so one broken
    /// query cannot abort a batch.
    ///
    /// Compilation only touches corpus *metadata* (session count,
    /// selectors, fingerprints, the deployed setting) — never a session
    /// log — so compiling against a lazy [`crate::LazyCorpus`] decodes
    /// nothing.
    pub fn compile(set: &QuerySet, corpus: &dyn Corpus) -> Result<Self, EngineError> {
        if corpus.is_empty() {
            return Err(EngineError::EmptyCorpus);
        }
        set.validate().map_err(EngineError::Query)?;
        let mut configs = vec![PlannedConfig {
            label: None,
            config: set.config,
            fingerprint: config_fingerprint(&set.config),
        }];
        let mut units = Vec::new();
        let mut scenarios = Vec::with_capacity(set.queries.len());
        let mut unit_counts = Vec::with_capacity(set.queries.len());
        // One materialization per *distinct* spec: a ladder change
        // re-encodes the corpus asset, which must not repeat per query.
        let mut memo: Vec<(ScenarioSpec, Result<Scenario, String>)> = Vec::new();
        let default_spec = ScenarioSpec::default();
        let mut materialize = |spec: &ScenarioSpec| -> Result<Scenario, String> {
            if let Some((_, result)) = memo.iter().find(|(known, _)| known == spec) {
                return result.clone();
            }
            let result = materialize_scenario(corpus, spec);
            memo.push((spec.clone(), result.clone()));
            result
        };
        let mut column_demand = vec![ColumnSet::empty(); corpus.len()];
        for (qi, query) in set.queries.iter().enumerate() {
            let selected = corpus
                .select(&query.sessions)
                .map_err(|e| EngineError::Query(format!("query `{}`: {e}", query.id)))?;
            let demand = query_column_demand(query);
            for &si in &selected {
                column_demand[si] = column_demand[si].union(demand);
            }
            let scenario = match query.kind {
                QueryKind::Counterfactual => Some(materialize(
                    query.scenario.as_ref().unwrap_or(&default_spec),
                )),
                QueryKind::Sweep => query.scenario.as_ref().map(&mut materialize),
                QueryKind::Aggregate => {
                    let spec = query.aggregate.as_ref().expect("validated aggregate query");
                    spec.metric
                        .needs_replay()
                        .then(|| materialize(spec.scenario.as_ref().unwrap_or(&default_spec)))
                }
                QueryKind::Abduction | QueryKind::Interventional => None,
            };
            scenarios.push(scenario);
            let before = units.len();
            if query.kind == QueryKind::Sweep {
                let sweep = query.sweep.as_ref().expect("validated sweep query");
                for (label, config) in sweep.expand(&set.config) {
                    let ci = configs.len();
                    configs.push(PlannedConfig {
                        label: Some(label),
                        fingerprint: config_fingerprint(&config),
                        config,
                    });
                    units.extend(selected.iter().map(|&si| WorkUnit {
                        query: qi,
                        session: si,
                        config: ci,
                    }));
                }
            } else {
                units.extend(selected.iter().map(|&si| WorkUnit {
                    query: qi,
                    session: si,
                    config: 0,
                }));
            }
            unit_counts.push(units.len() - before);
        }
        Ok(Self {
            set: set.clone(),
            sessions: corpus.len(),
            corpus_fingerprint: corpus.content_fingerprint(),
            configs,
            units,
            scenarios,
            unit_counts,
            column_demand,
        })
    }

    /// The query set the plan was compiled from.
    pub fn set(&self) -> &QuerySet {
        &self.set
    }

    /// Session count of the corpus the plan was compiled against; a
    /// submit over a corpus of a different size is rejected.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Content fingerprint of the corpus the plan was compiled against:
    /// the per-session log fingerprints (in session order) folded with
    /// the deployed-setting fingerprint
    /// ([`crate::Corpus::deployed_fingerprint`]).
    /// [`crate::Engine::submit_shared`] rejects a corpus whose content differs —
    /// the plan's scenarios and selectors are resolved against one
    /// specific corpus, and a same-sized impostor (different logs *or* a
    /// different deployed ABR / player / asset) would silently replay the
    /// wrong setting.
    pub fn corpus_fingerprint(&self) -> u64 {
        self.corpus_fingerprint
    }

    /// The configuration table (base config first, then sweep variants in
    /// query order).
    pub fn configs(&self) -> &[PlannedConfig] {
        &self.configs
    }

    /// The flat unit list, in deterministic (query-major, variant-major,
    /// session-minor) order — the batch report's record order.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// The materialized scenario of query `qi` (`None` when the query
    /// kind does not replay; `Some(Err(_))` when the spec was invalid and
    /// every unit of the query will report that error).
    pub(crate) fn scenario_for(&self, qi: usize) -> Option<&Result<Scenario, String>> {
        self.scenarios[qi].as_ref()
    }

    /// Number of work units query `qi` expands to.
    pub fn unit_count(&self, qi: usize) -> usize {
        self.unit_counts[qi]
    }

    /// The per-chunk columns the plan's units read from session
    /// `session`: the union of the columns every query that selected it
    /// reads. Empty for sessions no query selected. The executor passes
    /// this to [`crate::Corpus::log`] so a columnar store decodes only
    /// what the plan will touch.
    pub fn column_demand(&self, session: usize) -> ColumnSet {
        self.column_demand[session]
    }

    /// The union of [`Self::column_demand`] across every session — what a
    /// shard coordinator advertises to remote workers as the plan-wide
    /// column footprint.
    pub fn column_demand_union(&self) -> ColumnSet {
        self.column_demand
            .iter()
            .fold(ColumnSet::empty(), |acc, &d| acc.union(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{SessionCorpus, SyntheticSpec};
    use crate::query::Query;

    fn corpus() -> SessionCorpus {
        SyntheticSpec {
            sessions: 2,
            video_duration_s: 60.0,
            ..SyntheticSpec::default()
        }
        .build()
    }

    #[test]
    fn sweep_expands_the_cartesian_product_with_labels() {
        let sweep = ConfigSweep::new()
            .over_sigma(vec![0.25, 0.5])
            .over_stay_probability(vec![0.7, 0.8, 0.9]);
        assert_eq!(sweep.variant_count(), 6);
        let variants = sweep.expand(&VeritasConfig::paper_default());
        assert_eq!(variants.len(), 6);
        assert_eq!(variants[0].0, "sigma=0.25,stay=0.7");
        assert_eq!(variants[5].0, "sigma=0.5,stay=0.9");
        assert_eq!(variants[3].1.sigma_mbps, 0.5);
        assert_eq!(variants[3].1.stay_probability, 0.7);
        let labels: std::collections::HashSet<_> =
            variants.iter().map(|(label, _)| label.clone()).collect();
        assert_eq!(labels.len(), 6, "labels must be distinct");
        assert!(sweep.validate(&VeritasConfig::paper_default()).is_ok());
    }

    #[test]
    fn sweep_validation_rejects_bad_grids() {
        let base = VeritasConfig::paper_default();
        assert!(ConfigSweep::new()
            .validate(&base)
            .unwrap_err()
            .contains("no axes"));
        assert!(ConfigSweep::new()
            .over_sigma(vec![])
            .validate(&base)
            .unwrap_err()
            .contains("empty"));
        assert!(ConfigSweep::new()
            .over_sigma(vec![-1.0])
            .validate(&base)
            .unwrap_err()
            .contains("sigma"));
        assert!(ConfigSweep::new()
            .over_samples(vec![0])
            .validate(&base)
            .is_err());
        assert!(ConfigSweep::new()
            .over_sigma(vec![0.5, 0.5])
            .validate(&base)
            .unwrap_err()
            .contains("repeats"));
        assert!(ConfigSweep::new()
            .over_samples(vec![2, 2])
            .validate(&base)
            .unwrap_err()
            .contains("repeats"));
        let huge = ConfigSweep::new().over_sigma((0..300).map(|i| 0.1 + i as f64 * 0.01).collect());
        assert!(huge.validate(&base).unwrap_err().contains("limit"));
    }

    #[test]
    fn aggregate_spec_validates_scenario_usage() {
        assert!(AggregateSpec::of(AggregateMetric::MeanSsim)
            .with_scenario(ScenarioSpec::abr("bba"))
            .validate()
            .is_ok());
        assert!(AggregateSpec::of(AggregateMetric::MeanCapacityMbps)
            .validate()
            .is_ok());
        assert!(AggregateSpec::of(AggregateMetric::MeanCapacityMbps)
            .with_scenario(ScenarioSpec::abr("bba"))
            .validate()
            .unwrap_err()
            .contains("meaningless"));
    }

    #[test]
    fn aggregate_metric_wire_names_are_stable() {
        for metric in [
            AggregateMetric::MeanCapacityMbps,
            AggregateMetric::MeanSsim,
            AggregateMetric::RebufferRatioPercent,
            AggregateMetric::AvgBitrateMbps,
            AggregateMetric::StartupDelayS,
        ] {
            assert_eq!(AggregateMetric::parse(metric.as_str()), Some(metric));
        }
        assert_eq!(AggregateMetric::parse("qoe"), None);
    }

    #[test]
    fn aggregate_summary_reduces_exactly() {
        let summary = AggregateSummary::reduce(
            AggregateMetric::MeanCapacityMbps,
            &[4.0, 1.0, 3.0, 2.0, 5.0],
        );
        assert_eq!(summary.sessions, 5);
        assert_eq!(summary.mean, 3.0);
        assert_eq!(summary.p50, 3.0);
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.max, 5.0);
        assert!(summary.p95 > 4.5 && summary.p95 <= 5.0);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        assert_eq!(percentile_u64(&[10, 20, 30], 50.0), 20);
        assert_eq!(percentile_u64(&[10, 20, 30], 100.0), 30);
        assert_eq!(percentile_u64(&[], 50.0), 0);
        // Nearest rank is ⌈q/100 · len⌉, *not* round-half-up linear
        // indexing over len−1: p50 of four values is the 2nd (20), where
        // the old indexing scheme returned the 3rd (30).
        assert_eq!(percentile_u64(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile_u64(&[10, 20, 30, 40], 50.1), 30);
        assert_eq!(percentile_u64(&[10, 20, 30, 40], 0.0), 10);
        assert_eq!(percentile_u64(&[10, 20, 30, 40], 25.0), 10);
        assert_eq!(percentile_u64(&[10, 20, 30, 40], 75.0), 30);
        assert_eq!(percentile_u64(&[10, 20, 30, 40], 95.0), 40);
        assert_eq!(percentile_u64(&[7], 50.0), 7);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(percentile_u64(&[10, 20], -5.0), 10);
        assert_eq!(percentile_u64(&[10, 20], 250.0), 20);
        // Every percentile is an actually observed value.
        let sorted = [3u64, 9, 27, 81, 243];
        for q in 0..=100 {
            assert!(sorted.contains(&percentile_u64(&sorted, f64::from(q))));
        }
        // Float-rounding regression: q/100 alone rounds 0.07 up, so
        // ceil(0.07·100) was 8, not the correct rank 7. The exact rank
        // must hold for every integer (q, len) pair.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&hundred, 7.0), 7);
        for len in 1..=128usize {
            let sorted: Vec<u64> = (1..=len as u64).collect();
            for q in 0..=100u64 {
                let expected = (q as usize * len).div_ceil(100).max(1) as u64;
                assert_eq!(
                    percentile_u64(&sorted, q as f64),
                    expected,
                    "q={q} len={len}"
                );
            }
        }
    }

    #[test]
    fn compile_builds_flat_units_with_precomputed_fingerprints() {
        let corpus = corpus();
        let set = QuerySet::new("t", VeritasConfig::paper_default().with_samples(2))
            .with_query(Query::abduction("ab"))
            .with_query(Query::sweep(
                "sw",
                ConfigSweep::new().over_sigma(vec![0.25, 0.5, 1.0]),
            ))
            .with_query(Query::aggregate(
                "agg",
                AggregateSpec::of(AggregateMetric::MeanCapacityMbps),
            ));
        let plan = QueryPlan::compile(&set, &corpus).unwrap();
        // 2 abduction + 3 variants x 2 sessions + 2 aggregate units.
        assert_eq!(plan.units().len(), 2 + 6 + 2);
        assert_eq!(plan.unit_count(0), 2);
        assert_eq!(plan.unit_count(1), 6);
        assert_eq!(plan.unit_count(2), 2);
        assert_eq!(plan.configs().len(), 4, "base + three sweep variants");
        for planned in plan.configs() {
            assert_eq!(planned.fingerprint, config_fingerprint(&planned.config));
        }
        // Sweep variants with identical posterior-relevant fields share the
        // base fingerprint (σ=0.5 is the paper default).
        assert_eq!(
            plan.configs()[2].fingerprint,
            plan.configs()[0].fingerprint,
            "σ=0.5 variant matches the base posterior fingerprint"
        );
        // Unit order is query-major, variant-major, session-minor.
        let order: Vec<(usize, usize, usize)> = plan
            .units()
            .iter()
            .map(|u| (u.query, u.config, u.session))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn column_demand_tracks_query_kind_and_selection() {
        let corpus = corpus();
        let base = ABDUCTION_COLUMNS;
        let set = QuerySet::new("t", VeritasConfig::paper_default().with_samples(2))
            .with_query(Query::abduction("ab").with_sessions(vec![0]))
            .with_query(Query::interventional("iv").with_sessions(vec![1]));
        let plan = QueryPlan::compile(&set, &corpus).unwrap();
        assert_eq!(plan.column_demand(0), base);
        assert_eq!(plan.column_demand(1), base.with(columns::DOWNLOAD_TIME_S));
        assert_eq!(
            plan.column_demand_union(),
            base.with(columns::DOWNLOAD_TIME_S)
        );

        // Counterfactual answers (including sweeps that carry a scenario)
        // add the download-window column for the Baseline estimator; a
        // scenario-less sweep is abduction-shaped.
        let set = QuerySet::new("t", VeritasConfig::paper_default().with_samples(2))
            .with_query(
                Query::counterfactual("cf", ScenarioSpec::abr("bba")).with_sessions(vec![0]),
            )
            .with_query(
                Query::sweep("sw", ConfigSweep::new().over_sigma(vec![0.25, 0.5]))
                    .with_sessions(vec![1]),
            );
        let plan = QueryPlan::compile(&set, &corpus).unwrap();
        assert_eq!(plan.column_demand(0), base.with(columns::END_TIME_S));
        assert_eq!(plan.column_demand(1), base);

        let set = QuerySet::new("t", VeritasConfig::paper_default().with_samples(2)).with_query(
            Query::sweep("sw", ConfigSweep::new().over_sigma(vec![0.25, 0.5]))
                .with_scenario(ScenarioSpec::abr("bba")),
        );
        let plan = QueryPlan::compile(&set, &corpus).unwrap();
        assert_eq!(plan.column_demand(0), base.with(columns::END_TIME_S));

        // Aggregations replay posterior samples, never the Baseline, so
        // they stay at the abduction demand; unselected sessions stay
        // empty.
        let set = QuerySet::new("t", VeritasConfig::paper_default().with_samples(2)).with_query(
            Query::aggregate("agg", AggregateSpec::of(AggregateMetric::MeanSsim))
                .with_sessions(vec![1]),
        );
        let plan = QueryPlan::compile(&set, &corpus).unwrap();
        assert_eq!(plan.column_demand(0), ColumnSet::empty());
        assert_eq!(plan.column_demand(1), base);
        // Every demand is a strict subset of the full column set — the
        // projection must actually prune something.
        assert!(ColumnSet::all().is_superset_of(base));
        assert!(base.len() < ColumnSet::all().len());
    }

    #[test]
    fn compile_rejects_structural_problems_but_not_bad_scenarios() {
        let corpus = corpus();
        let out_of_range = QuerySet::new("t", VeritasConfig::paper_default())
            .with_query(Query::abduction("a").with_sessions(vec![9]));
        assert!(QueryPlan::compile(&out_of_range, &corpus).is_err());
        let bad_abr = QuerySet::new("t", VeritasConfig::paper_default())
            .with_query(Query::counterfactual("c", ScenarioSpec::abr("pensieve")));
        let plan = QueryPlan::compile(&bad_abr, &corpus).unwrap();
        assert!(matches!(plan.scenario_for(0), Some(Err(_))));
    }
}
