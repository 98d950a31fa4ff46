//! The declarative query spec: what to ask, over which sessions.
//!
//! A [`QuerySet`] is a JSON-serializable batch of causal queries over one
//! corpus: *abduction* queries (infer the latent GTBW posterior),
//! *interventional* queries (predict the download time of a candidate chunk
//! size at a decision point), *counterfactual* queries (replay the
//! session under a changed design), plus the two compound kinds — *sweep*
//! queries (one query expanded over a [`ConfigSweep`] grid of
//! configurations) and *aggregate* queries (an [`AggregateSpec`]
//! trace-level reduction folded over per-session outputs). A query set is
//! compiled into a [`crate::QueryPlan`] and executed with
//! [`crate::Engine::submit_shared`] (or the blocking [`crate::Engine::run`]
//! wrapper), reusing one abduction per (session, config) through the
//! [`crate::AbductionCache`].
//!
//! Serialization note: [`Query`], [`ScenarioSpec`], [`QuerySet`] and the
//! plan-level specs derive `Deserialize` with
//! `#[serde(deny_unknown_fields)]`, so a misspelt member is refused with an
//! error that names it instead of being ignored. Hand-authored query files
//! may omit any optional member or set it to `null`: an `Option` member
//! reads as `None`, and a query set's `name` and `config` default to
//! `"queryset"` and [`VeritasConfig::paper_default`].

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use veritas::VeritasConfig;

use crate::plan::{AggregateSpec, ConfigSweep};

/// The three causal query families of the paper (§3), plus the two
/// engine-level compound kinds that materialize in the plan compiler
/// ([`crate::QueryPlan`]): configuration sweeps and trace-level
/// aggregations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Infer the GTBW posterior for each selected session and report a
    /// reconstruction summary.
    Abduction,
    /// Predict the download time of a candidate chunk size at a decision
    /// point of the session (paper §4.4).
    Interventional,
    /// Replay the session under a changed design — ABR, buffer size, or
    /// quality ladder (paper §4.3).
    Counterfactual,
    /// Expand one query over a grid of [`VeritasConfig`] variations (see
    /// [`ConfigSweep`]); abduction-shaped by default, counterfactual when
    /// the query carries a scenario.
    Sweep,
    /// Fold a trace-level reduction over per-session outputs (see
    /// [`AggregateSpec`]); the reduced summary arrives as a final
    /// `session: "*"` record.
    Aggregate,
}

impl QueryKind {
    /// The wire name of this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryKind::Abduction => "abduction",
            QueryKind::Interventional => "interventional",
            QueryKind::Counterfactual => "counterfactual",
            QueryKind::Sweep => "sweep",
            QueryKind::Aggregate => "aggregate",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "abduction" => Some(QueryKind::Abduction),
            "interventional" => Some(QueryKind::Interventional),
            "counterfactual" => Some(QueryKind::Counterfactual),
            "sweep" => Some(QueryKind::Sweep),
            "aggregate" => Some(QueryKind::Aggregate),
            _ => None,
        }
    }
}

impl Serialize for QueryKind {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for QueryKind {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let name = String::deserialize(deserializer)?;
        QueryKind::parse(&name).ok_or_else(|| {
            de::Error::custom(format!(
                "unknown query kind `{name}` (expected abduction | interventional | \
                 counterfactual | sweep | aggregate)"
            ))
        })
    }
}

/// Declarative intervention parameters for a counterfactual query, applied
/// on top of the corpus's deployed setting. Fields left unset keep the
/// deployed value.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// ABR algorithm to swap in (resolved via [`veritas_abr::abr_by_name`]).
    pub abr: Option<String>,
    /// New playback buffer capacity in seconds.
    pub buffer_capacity_s: Option<f64>,
    /// Named quality ladder to re-encode onto: `"paper_default"` or
    /// `"higher"` (the paper's change-of-qualities ladder).
    pub ladder: Option<String>,
}

impl ScenarioSpec {
    /// A scenario that swaps the ABR algorithm.
    pub fn abr(name: &str) -> Self {
        Self {
            abr: Some(name.to_string()),
            ..Self::default()
        }
    }

    /// A scenario that changes the buffer capacity.
    pub fn buffer(buffer_capacity_s: f64) -> Self {
        Self {
            buffer_capacity_s: Some(buffer_capacity_s),
            ..Self::default()
        }
    }

    /// A scenario that re-encodes onto a named quality ladder.
    pub fn ladder(name: &str) -> Self {
        Self {
            ladder: Some(name.to_string()),
            ..Self::default()
        }
    }
}

/// One causal query over a corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Query {
    /// Caller-chosen identifier, echoed in every result record.
    pub id: String,
    /// Which query family this is.
    pub kind: QueryKind,
    /// Corpus session indices to run over; `None` selects every session.
    pub sessions: Option<Vec<usize>>,
    /// Counterfactual intervention parameters (counterfactual queries only;
    /// an unset scenario replays the deployed setting unchanged).
    pub scenario: Option<ScenarioSpec>,
    /// Interventional decision point: predict chunk `chunk_index` from the
    /// observations before it. `None` predicts the next chunk after the
    /// full log, which shares the full-session abduction with abduction
    /// and counterfactual queries.
    pub chunk_index: Option<usize>,
    /// Interventional candidate chunk size in bytes (`None` uses the
    /// logged size at the decision point).
    pub candidate_size_bytes: Option<f64>,
    /// Override of the configured number of posterior samples.
    pub samples: Option<usize>,
    /// Override of the configured posterior-sampling seed. Sampling is
    /// decoupled from inference, so a seed override still hits the
    /// abduction cache.
    pub seed: Option<u64>,
    /// The configuration grid a sweep query expands over (sweep queries
    /// only).
    pub sweep: Option<ConfigSweep>,
    /// The trace-level reduction an aggregation query folds (aggregate
    /// queries only).
    pub aggregate: Option<AggregateSpec>,
}

impl Query {
    /// A query of `kind` with the given id and every option unset.
    pub fn new(id: &str, kind: QueryKind) -> Self {
        Self {
            id: id.to_string(),
            kind,
            sessions: None,
            scenario: None,
            chunk_index: None,
            candidate_size_bytes: None,
            samples: None,
            seed: None,
            sweep: None,
            aggregate: None,
        }
    }

    /// An abduction query over all sessions.
    pub fn abduction(id: &str) -> Self {
        Self::new(id, QueryKind::Abduction)
    }

    /// An interventional query over all sessions.
    pub fn interventional(id: &str) -> Self {
        Self::new(id, QueryKind::Interventional)
    }

    /// A counterfactual query over all sessions.
    pub fn counterfactual(id: &str, scenario: ScenarioSpec) -> Self {
        Self {
            scenario: Some(scenario),
            ..Self::new(id, QueryKind::Counterfactual)
        }
    }

    /// A configuration-sweep query over all sessions: one abduction per
    /// (config variant, session). Add [`Self::with_scenario`] to replay a
    /// counterfactual under every variant instead.
    pub fn sweep(id: &str, sweep: ConfigSweep) -> Self {
        Self {
            sweep: Some(sweep),
            ..Self::new(id, QueryKind::Sweep)
        }
    }

    /// An aggregation query over all sessions: the per-session metric is
    /// computed for every selected session and reduced into one
    /// [`crate::AggregateSummary`] folded from the result stream.
    pub fn aggregate(id: &str, aggregate: AggregateSpec) -> Self {
        Self {
            aggregate: Some(aggregate),
            ..Self::new(id, QueryKind::Aggregate)
        }
    }

    /// Sets the scenario a counterfactual (or counterfactual sweep) query
    /// replays.
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Restricts the query to specific corpus session indices.
    pub fn with_sessions(mut self, sessions: Vec<usize>) -> Self {
        self.sessions = Some(sessions);
        self
    }

    /// Overrides the number of posterior samples for this query.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }

    /// Overrides the posterior-sampling seed for this query.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the interventional decision point.
    pub fn with_chunk_index(mut self, chunk_index: usize) -> Self {
        self.chunk_index = Some(chunk_index);
        self
    }

    /// Sets the interventional candidate chunk size.
    pub fn with_candidate_size(mut self, candidate_size_bytes: f64) -> Self {
        self.candidate_size_bytes = Some(candidate_size_bytes);
        self
    }
}

/// A named batch of queries sharing one Veritas configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct QuerySet {
    /// Name of the batch, echoed in reports (`"queryset"` when the JSON
    /// omits it).
    #[serde(default = "default_set_name")]
    pub name: String,
    /// The abduction hyper-parameters every query runs under (the paper's
    /// when the JSON omits them).
    #[serde(default = "VeritasConfig::paper_default")]
    pub config: VeritasConfig,
    /// The queries, executed fanned out over (query, session) pairs.
    pub queries: Vec<Query>,
}

impl QuerySet {
    /// An empty query set with the given name and configuration.
    pub fn new(name: &str, config: VeritasConfig) -> Self {
        Self {
            name: name.to_string(),
            config,
            queries: Vec::new(),
        }
    }

    /// Appends a query, builder style.
    pub fn with_query(mut self, query: Query) -> Self {
        self.queries.push(query);
        self
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("query set serialization cannot fail")
    }

    /// Parses a query set from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Checks internal consistency: non-empty, unique ids, per-kind
    /// parameter sanity. Corpus-dependent checks (session indices in
    /// range) happen in [`crate::Engine::run`].
    pub fn validate(&self) -> Result<(), String> {
        if self.queries.is_empty() {
            return Err("query set contains no queries".to_string());
        }
        self.config.validate()?;
        let mut ids: Vec<&str> = self.queries.iter().map(|q| q.id.as_str()).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate query id `{}`", dup[0]));
        }
        for query in &self.queries {
            if query.id.is_empty() {
                return Err("query id must not be empty".to_string());
            }
            if query.samples == Some(0) {
                return Err(format!("query `{}`: samples must be at least 1", query.id));
            }
            if let Some(samples) = query.samples.filter(|&n| n > VeritasConfig::MAX_SAMPLES) {
                return Err(format!(
                    "query `{}`: samples {samples} exceeds the limit of {}",
                    query.id,
                    VeritasConfig::MAX_SAMPLES
                ));
            }
            if query.sessions.as_deref() == Some(&[]) {
                return Err(format!(
                    "query `{}`: session selector is empty (omit it to select every session)",
                    query.id
                ));
            }
            if let Some(size) = query.candidate_size_bytes {
                if !(size.is_finite() && size > 0.0) {
                    return Err(format!(
                        "query `{}`: candidate_size_bytes must be positive, got {size}",
                        query.id
                    ));
                }
            }
            if query.kind == QueryKind::Interventional && query.chunk_index == Some(0) {
                return Err(format!(
                    "query `{}`: chunk_index 0 has no observation history",
                    query.id
                ));
            }
            // Fields on a kind that ignores them are almost certainly a
            // misread of the spec; reject them rather than silently doing
            // the default thing.
            if query.kind == QueryKind::Aggregate && query.scenario.is_some() {
                return Err(format!(
                    "query `{}`: an aggregation's scenario belongs inside its aggregate spec",
                    query.id
                ));
            }
            if !matches!(query.kind, QueryKind::Counterfactual | QueryKind::Sweep)
                && query.scenario.is_some()
            {
                return Err(format!(
                    "query `{}`: scenario is only meaningful for counterfactual or \
                     sweep queries",
                    query.id
                ));
            }
            // samples/seed only matter where posterior sampling happens: a
            // counterfactual replay, a sweep that replays a scenario, or a
            // QoE aggregation. On everything else they would be silently
            // ignored — reject instead.
            let samples_steer_sampling = match query.kind {
                QueryKind::Counterfactual => true,
                QueryKind::Sweep => query.scenario.is_some(),
                QueryKind::Aggregate => query
                    .aggregate
                    .as_ref()
                    .is_some_and(|spec| spec.metric.needs_replay()),
                QueryKind::Abduction | QueryKind::Interventional => false,
            };
            if !samples_steer_sampling && (query.samples.is_some() || query.seed.is_some()) {
                return Err(format!(
                    "query `{}`: samples/seed only steer posterior sampling (counterfactual \
                     queries, sweeps with a scenario, and QoE aggregations)",
                    query.id
                ));
            }
            if query.kind != QueryKind::Interventional
                && (query.chunk_index.is_some() || query.candidate_size_bytes.is_some())
            {
                return Err(format!(
                    "query `{}`: chunk_index/candidate_size_bytes are only meaningful \
                     for interventional queries",
                    query.id
                ));
            }
            match (&query.sweep, query.kind) {
                (Some(sweep), QueryKind::Sweep) => {
                    sweep
                        .validate(&self.config)
                        .map_err(|e| format!("query `{}`: {e}", query.id))?;
                    // A num_samples axis is only observable when each
                    // variant actually samples (a scenario replay) and no
                    // query-level override pins the count — otherwise the
                    // sweep would emit identical results under distinct
                    // `samples=N` labels.
                    if sweep.num_samples.is_some() {
                        if query.samples.is_some() {
                            return Err(format!(
                                "query `{}`: a samples override defeats the sweep's \
                                 num_samples axis",
                                query.id
                            ));
                        }
                        if query.scenario.is_none() {
                            return Err(format!(
                                "query `{}`: a num_samples axis needs a scenario — \
                                 abduction-shaped sweeps never sample",
                                query.id
                            ));
                        }
                    }
                }
                (None, QueryKind::Sweep) => {
                    return Err(format!(
                        "query `{}`: sweep queries require a sweep grid",
                        query.id
                    ))
                }
                (Some(_), _) => {
                    return Err(format!(
                        "query `{}`: a sweep grid is only meaningful for sweep queries",
                        query.id
                    ))
                }
                (None, _) => {}
            }
            match (&query.aggregate, query.kind) {
                (Some(aggregate), QueryKind::Aggregate) => aggregate
                    .validate()
                    .map_err(|e| format!("query `{}`: {e}", query.id))?,
                (None, QueryKind::Aggregate) => {
                    return Err(format!(
                        "query `{}`: aggregate queries require an aggregate spec",
                        query.id
                    ))
                }
                (Some(_), _) => {
                    return Err(format!(
                        "query `{}`: an aggregate spec is only meaningful for aggregate queries",
                        query.id
                    ))
                }
                (None, _) => {}
            }
        }
        Ok(())
    }

    /// The example query set the `veritas example-queries` subcommand
    /// prints: one abduction sweep, one ABR-swap counterfactual, and one
    /// buffer-size counterfactual, all over every corpus session — three
    /// queries that share a single abduction per session through the cache.
    pub fn example() -> Self {
        Self::new("example", VeritasConfig::paper_default().with_samples(3))
            .with_query(Query::abduction("posterior-sweep"))
            .with_query(Query::counterfactual(
                "what-if-bba",
                ScenarioSpec::abr("bba"),
            ))
            .with_query(Query::counterfactual(
                "what-if-30s-buffer",
                ScenarioSpec::buffer(30.0),
            ))
    }

    /// A `queries`-query cache-stress set: a rotation of abduction,
    /// counterfactual, and next-chunk interventional queries, every one
    /// over every session, so that execution performs exactly one
    /// abduction per session and serves every other unit from the cache.
    /// Used by the `engine/queryset_10q4s_cached` criterion benchmark.
    /// Scenarios are replay-light (no MPC lookahead) so the abduction
    /// cost stays a large share of the run.
    pub fn cache_stress(queries: usize) -> Self {
        let scenarios = [
            ScenarioSpec::abr("bba"),
            ScenarioSpec::abr("bola"),
            ScenarioSpec {
                abr: Some("throughput".to_string()),
                buffer_capacity_s: Some(30.0),
                ladder: Some("higher".to_string()),
            },
        ];
        let mut set = Self::new(
            "cache-stress",
            VeritasConfig::paper_default().with_samples(2),
        );
        for i in 0..queries {
            let query = match i % 5 {
                0 => Query::abduction(&format!("q{i}-abduction")),
                1 | 3 => Query::counterfactual(
                    &format!("q{i}-counterfactual"),
                    scenarios[(i / 2) % scenarios.len()].clone(),
                ),
                2 => Query::interventional(&format!("q{i}-interventional")),
                _ => Query::counterfactual(
                    &format!("q{i}-counterfactual-reseeded"),
                    ScenarioSpec::abr("bba"),
                )
                .with_seed(i as u64),
            };
            set = set.with_query(query);
        }
        set
    }
}

/// The name of a query set whose JSON omits one.
fn default_set_name() -> String {
    "queryset".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_set_round_trips_through_json() {
        let set = QuerySet::example();
        assert!(set.validate().is_ok());
        let back = QuerySet::from_json(&set.to_json()).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn omitted_optional_fields_default() {
        let set =
            QuerySet::from_json(r#"{"queries": [{"id": "a", "kind": "abduction"}]}"#).unwrap();
        assert_eq!(set.name, "queryset");
        assert_eq!(set.config, VeritasConfig::paper_default());
        assert_eq!(set.queries[0], Query::abduction("a"));
    }

    #[test]
    fn an_id_with_an_escaped_surrogate_pair_parses() {
        // What Python's default `json.dumps` writes for "café 😀".
        let set = QuerySet::from_json(
            r#"{"queries": [{"id": "caf\u00e9 \ud83d\ude00", "kind": "abduction"}]}"#,
        )
        .unwrap();
        assert_eq!(set.queries[0].id, "café \u{1F600}");
        assert_eq!(QuerySet::from_json(&set.to_json()).unwrap(), set);
    }

    #[test]
    fn the_first_of_a_repeated_config_member_wins() {
        // `VeritasConfig` ignores unknown and repeated members, so a set
        // that names σ twice runs under the first value, as documented.
        let set = QuerySet::from_json(
            r#"{"config": {"delta_s": 5, "epsilon_mbps": 0.5, "max_capacity_mbps": 10,
                "sigma_mbps": 0.5, "stay_probability": 0.8, "num_samples": 5, "seed": 1,
                "sigma_mbps": 0.25},
                "queries": [{"id": "a", "kind": "abduction"}]}"#,
        )
        .unwrap();
        assert_eq!(set.config.sigma_mbps, 0.5);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = QuerySet::from_json(
            r#"{"queries": [{"id": "a", "kind": "abduction", "sesions": [1]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("sesions"), "{err}");
        let err =
            QuerySet::from_json(r#"{"queries": [{"id": "a", "kind": "telepathy"}]}"#).unwrap_err();
        assert!(err.to_string().contains("telepathy"), "{err}");
    }

    #[test]
    fn validation_catches_bad_sets() {
        let dup = QuerySet::new("d", VeritasConfig::paper_default())
            .with_query(Query::abduction("a"))
            .with_query(Query::abduction("a"));
        assert!(dup.validate().unwrap_err().contains("duplicate"));
        let empty = QuerySet::new("e", VeritasConfig::paper_default());
        assert!(empty.validate().is_err());
        let zero_chunk = QuerySet::new("z", VeritasConfig::paper_default())
            .with_query(Query::interventional("i").with_chunk_index(0));
        assert!(zero_chunk.validate().is_err());
        let stray_scenario = QuerySet::new("s", VeritasConfig::paper_default()).with_query(Query {
            scenario: Some(ScenarioSpec::abr("bba")),
            ..Query::abduction("a")
        });
        assert!(stray_scenario.validate().is_err());
        let stray_seed = QuerySet::new("s", VeritasConfig::paper_default())
            .with_query(Query::new("a", QueryKind::Abduction).with_seed(1));
        assert!(stray_seed.validate().unwrap_err().contains("samples/seed"));
        // samples/seed are also rejected where a compound query would
        // silently ignore them: a scenario-less (abduction-shaped) sweep
        // and a posterior-only aggregation never sample.
        let sweep_no_scenario = QuerySet::new("s", VeritasConfig::paper_default()).with_query(
            Query::sweep(
                "sw",
                crate::plan::ConfigSweep::new().over_sigma(vec![0.25, 0.5]),
            )
            .with_samples(3),
        );
        assert!(sweep_no_scenario
            .validate()
            .unwrap_err()
            .contains("samples/seed"));
        let capacity_agg = QuerySet::new("s", VeritasConfig::paper_default()).with_query(
            Query::aggregate(
                "agg",
                crate::plan::AggregateSpec::of(crate::plan::AggregateMetric::MeanCapacityMbps),
            )
            .with_seed(9),
        );
        assert!(capacity_agg
            .validate()
            .unwrap_err()
            .contains("samples/seed"));
        // A num_samples axis must actually be observable: no query-level
        // samples override, and only on a replaying (scenario) sweep.
        let base = crate::plan::ConfigSweep::new().over_samples(vec![1, 2]);
        let overridden = QuerySet::new("s", VeritasConfig::paper_default()).with_query(
            Query::sweep("sw", base.clone())
                .with_scenario(ScenarioSpec::abr("bba"))
                .with_samples(5),
        );
        assert!(overridden.validate().unwrap_err().contains("defeats"));
        let abduction_shaped =
            QuerySet::new("s", VeritasConfig::paper_default()).with_query(Query::sweep("sw", base));
        assert!(abduction_shaped
            .validate()
            .unwrap_err()
            .contains("never sample"));
        let stray_chunk = QuerySet::new("s", VeritasConfig::paper_default())
            .with_query(Query::counterfactual("c", ScenarioSpec::abr("bba")).with_chunk_index(3));
        assert!(stray_chunk
            .validate()
            .unwrap_err()
            .contains("chunk_index/candidate_size_bytes"));
        // Sample counts and grids are bounded: by the query's override and
        // by every sweep variant's config.
        let counterfactual = Query::counterfactual("c", ScenarioSpec::abr("bba"));
        let many_samples = QuerySet::new("s", VeritasConfig::paper_default()).with_query(
            counterfactual
                .clone()
                .with_samples(VeritasConfig::MAX_SAMPLES + 1),
        );
        assert!(many_samples.validate().unwrap_err().contains("4096"));
        let at_the_bound = QuerySet::new("s", VeritasConfig::paper_default())
            .with_query(counterfactual.with_samples(VeritasConfig::MAX_SAMPLES));
        assert!(at_the_bound.validate().is_ok());
        let huge_grid =
            QuerySet::new("s", VeritasConfig::paper_default()).with_query(Query::sweep(
                "sw",
                crate::plan::ConfigSweep {
                    max_capacity_mbps: Some(vec![1e6]),
                    ..crate::plan::ConfigSweep::default()
                },
            ));
        assert!(huge_grid.validate().unwrap_err().contains("states"));
    }

    #[test]
    fn kind_wire_names_are_stable() {
        for kind in [
            QueryKind::Abduction,
            QueryKind::Interventional,
            QueryKind::Counterfactual,
        ] {
            assert_eq!(QueryKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(QueryKind::parse("associational"), None);
    }
}
