//! The benchmark's own walk through the engine's layers.
//!
//! [`Recomposer`] answers a query set the way the engine's executor does —
//! `load_log_projected` → memory tier → `DiskStore::load` → emission rows
//! and `try_infer_prepared` on the per-config workspace →
//! `sample_traces_with_seed` → `Scenario::replay` → record serialisation —
//! but single-threaded, calling each layer's public functions itself, so a
//! span can go around every call. It also counts the work each layer did
//! ([`Ledger`]). Its records must equal the engine's byte for byte (after
//! stripping `elapsed_us` and `cache`), which is how the benchmark proves
//! the split it reports is a split of the engine's real work.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use veritas::{baseline_trace, Abduction, InterventionalPredictor, RangePrediction, Scenario};
use veritas_ehmm::EhmmWorkspace;
use veritas_engine::{
    materialize_scenario, AbductionCache, AggregateSummary, ColumnSet, Corpus, DiskStore,
    LazyCorpus, PersistKey, PlannedConfig, Query, QueryKind, QueryOutput, QueryPlan, QueryRecord,
    QuerySet, RangeSummary, AGGREGATE_SESSION,
};
use veritas_player::SessionLog;

use crate::trace::Tracer;

/// Exact work counts of one pass. Every timed pass of a run must produce
/// the same ledger, and it must equal the one [`expected_ledger`] derives
/// from the plan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub records: u64,
    pub inferences: u64,
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub kernel_disk_hits: u64,
    pub bytes_decoded: u64,
    pub vpost_bytes_read: u64,
    pub vpost_bytes_written: u64,
    pub replays: u64,
    pub sampled_traces: u64,
}

impl Ledger {
    fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("records", self.records),
            ("inferences", self.inferences),
            ("memory_hits", self.memory_hits),
            ("disk_hits", self.disk_hits),
            ("kernel_disk_hits", self.kernel_disk_hits),
            ("bytes_decoded", self.bytes_decoded),
            ("vpost_bytes_read", self.vpost_bytes_read),
            ("vpost_bytes_written", self.vpost_bytes_written),
            ("replays", self.replays),
            ("sampled_traces", self.sampled_traces),
        ]
    }

    pub fn to_json(self) -> String {
        let body: Vec<String> = self
            .fields()
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Field-by-field mismatches against `expected`, empty when equal.
    pub fn mismatches(&self, expected: &Ledger) -> Vec<String> {
        self.fields()
            .iter()
            .zip(expected.fields())
            .filter(|((_, got), (_, want))| got != want)
            .map(|((name, got), (_, want))| format!("{name}: got {got}, expected {want}"))
            .collect()
    }
}

/// Whether a pass starts with an empty posterior store (`Cold`) or one
/// that holds every posterior the plan needs (`Warm`).
pub enum Store {
    Cold,
    Warm {
        /// `A^Δ` kernels in the persisted kernel table.
        kernels: u64,
        /// Summed size of the `.vpost` files.
        vpost_bytes: u64,
    },
    /// No disk tier at all (the daemon's memory-only cache).
    None,
}

/// The ledger a pass over `plan` must produce, derived from the plan alone
/// plus what the pass's store holds. `bytes_decoded` and
/// `vpost_bytes_written` depend on residency and on the posterior codec;
/// callers fill them in from a reference pass.
pub fn expected_ledger(plan: &QueryPlan, store: &Store) -> Ledger {
    let set = plan.set();
    let mut keys = HashSet::new();
    let mut ledger = Ledger {
        records: plan.units().len() as u64,
        ..Ledger::default()
    };
    for unit in plan.units() {
        let query = &set.queries[unit.query];
        let planned = &plan.configs()[unit.config];
        let horizon = match query.kind {
            QueryKind::Interventional => query.chunk_index,
            _ => None,
        };
        keys.insert((unit.session, planned.fingerprint, horizon));
        if replays_scenario(query) {
            let samples = query.samples.unwrap_or(planned.config.num_samples).max(1) as u64;
            ledger.sampled_traces += samples;
            ledger.replays += samples + 1;
        }
    }
    ledger.records += set
        .queries
        .iter()
        .filter(|q| q.kind == QueryKind::Aggregate)
        .count() as u64;
    let distinct = keys.len() as u64;
    ledger.memory_hits = plan.units().len() as u64 - distinct;
    match store {
        Store::Cold | Store::None => ledger.inferences = distinct,
        Store::Warm {
            kernels,
            vpost_bytes,
        } => {
            ledger.disk_hits = distinct;
            ledger.kernel_disk_hits = *kernels;
            ledger.vpost_bytes_read = *vpost_bytes;
        }
    }
    ledger
}

/// Whether a query samples the posterior and replays a scenario.
fn replays_scenario(query: &Query) -> bool {
    match query.kind {
        QueryKind::Counterfactual => true,
        QueryKind::Sweep => query.scenario.is_some(),
        QueryKind::Aggregate => query
            .aggregate
            .as_ref()
            .is_some_and(|a| a.metric.needs_replay()),
        QueryKind::Abduction | QueryKind::Interventional => false,
    }
}

/// Counts the recomposer keeps beyond the ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct Extra {
    pub chunks_inferred: u64,
    pub replay_chunks: u64,
}

/// Normalises an engine record for comparison: timing and cache tier are
/// the only fields allowed to differ between passes.
pub fn normalized(record: &QueryRecord) -> String {
    let mut record = record.clone();
    record.elapsed_us = 0;
    record.cache = None;
    serde_json::to_string(&record).expect("records serialise")
}

pub struct Recomposer<'a> {
    corpus: &'a LazyCorpus,
    memory: HashMap<(usize, u64, usize), Arc<Abduction>>,
    disk: Option<DiskStore>,
    workspaces: AbductionCache,
    seen_configs: HashSet<u64>,
    kernels_saved: HashMap<u64, usize>,
    pub ledger: Ledger,
    pub extra: Extra,
    pub tr: Tracer,
}

impl<'a> Recomposer<'a> {
    /// A recomposer with an empty memory tier over `corpus`, with the
    /// posterior store at `cache_dir` when given.
    pub fn new(corpus: &'a LazyCorpus, cache_dir: Option<&Path>, traced: bool) -> Self {
        let open = |dir: &Path| DiskStore::open(dir).expect("cache dir opens");
        let mut workspaces = AbductionCache::new();
        if let Some(dir) = cache_dir {
            workspaces.attach_disk_store(open(dir));
        }
        Self {
            corpus,
            memory: HashMap::new(),
            disk: cache_dir.map(open),
            workspaces,
            seen_configs: HashSet::new(),
            kernels_saved: HashMap::new(),
            ledger: Ledger::default(),
            extra: Extra::default(),
            tr: Tracer::new(traced),
        }
    }

    /// Answers `set` and returns its normalised records in the engine's
    /// batch order (aggregation folds last).
    pub fn run_set(&mut self, set: &QuerySet) -> Result<Vec<String>, String> {
        let decoded_before = self.corpus.bytes_decoded();
        let span = self.tr.begin("plan");
        let compiled = QueryPlan::compile(set, self.corpus).map_err(|e| e.to_string());
        let scenarios: Result<Vec<Option<Scenario>>, String> = compiled.as_ref().map(|_| {
            set.queries
                .iter()
                .map(|query| {
                    let spec = match query.kind {
                        QueryKind::Counterfactual => {
                            Some(query.scenario.clone().unwrap_or_default())
                        }
                        QueryKind::Sweep => query.scenario.clone(),
                        _ => None,
                    };
                    spec.map(|spec| materialize_scenario(self.corpus, &spec))
                        .transpose()
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        self.tr.end(span);
        let (plan, scenarios) = (compiled?, scenarios?);

        let mut out = Vec::with_capacity(plan.units().len() + 1);
        let mut folds: Vec<Vec<f64>> = vec![Vec::new(); set.queries.len()];
        for unit in plan.units() {
            let query = &set.queries[unit.query];
            let planned = &plan.configs()[unit.config];
            let output =
                self.answer(&plan, query, planned, unit.session, &scenarios[unit.query])?;
            if let Some(value) = output.metric_value {
                folds[unit.query].push(value);
            }
            let span = self.tr.begin("runner.serialize");
            let line = serde_json::to_string(&QueryRecord {
                query_id: query.id.clone(),
                kind: query.kind,
                session: self.corpus.session_id(unit.session).to_string(),
                variant: planned.label.clone(),
                status: "ok".to_string(),
                error: None,
                cache: None,
                elapsed_us: 0,
                output: Some(output),
                attempts: None,
            })
            .expect("records serialise");
            self.tr.end(span);
            out.push(line);
        }
        for (query, values) in set.queries.iter().zip(&folds) {
            let Some(spec) = query.aggregate.as_ref() else {
                continue;
            };
            let span = self.tr.begin("runner.serialize");
            let line = serde_json::to_string(&QueryRecord {
                query_id: query.id.clone(),
                kind: QueryKind::Aggregate,
                session: AGGREGATE_SESSION.to_string(),
                variant: None,
                status: "ok".to_string(),
                error: None,
                cache: None,
                elapsed_us: 0,
                output: Some(QueryOutput {
                    aggregate: Some(AggregateSummary::reduce(spec.metric, values)),
                    ..QueryOutput::default()
                }),
                attempts: None,
            })
            .expect("records serialise");
            self.tr.end(span);
            out.push(line);
        }
        self.ledger.records += out.len() as u64;
        self.ledger.bytes_decoded += self.corpus.bytes_decoded() - decoded_before;
        self.ledger.kernel_disk_hits = self.workspaces.kernel_disk_hits();
        Ok(out)
    }

    fn answer(
        &mut self,
        plan: &QueryPlan,
        query: &Query,
        planned: &PlannedConfig,
        si: usize,
        scenario: &Option<Scenario>,
    ) -> Result<QueryOutput, String> {
        let cols = plan.column_demand(si);
        match (query.kind, scenario) {
            (QueryKind::Counterfactual | QueryKind::Sweep, Some(scenario)) => {
                let log = self.load(si, cols)?;
                let horizon = self.load(si, cols)?.records.len();
                let abduction = self.abduce(si, cols, horizon, planned)?;
                let samples = query.samples.unwrap_or(planned.config.num_samples).max(1);
                let seed = query.seed.unwrap_or(planned.config.seed);
                let span = self.tr.begin("sampler");
                let traces = abduction.sample_traces_with_seed(samples, seed);
                self.tr.end(span);
                self.ledger.sampled_traces += samples as u64;
                let mut outcomes = Vec::with_capacity(samples);
                for trace in &traces {
                    outcomes.push(self.replay(scenario, trace));
                }
                let span = self.tr.begin("runner.answer");
                let observed = baseline_trace(&log, planned.config.delta_s);
                self.tr.end(span);
                let baseline = self.replay(scenario, &observed);
                let span = self.tr.begin("runner.answer");
                let veritas = RangeSummary::of(&RangePrediction { samples: outcomes });
                self.tr.end(span);
                Ok(QueryOutput {
                    veritas: Some(veritas),
                    baseline: Some(baseline),
                    ..QueryOutput::default()
                })
            }
            (QueryKind::Abduction | QueryKind::Sweep, _) => {
                let log = self.load(si, cols)?;
                let abduction = self.abduce(si, cols, log.records.len(), planned)?;
                let span = self.tr.begin("runner.answer");
                let mean = abduction.viterbi_trace().mean();
                self.tr.end(span);
                Ok(QueryOutput {
                    chunks: Some(log.records.len()),
                    mean_capacity_mbps: Some(mean),
                    ..QueryOutput::default()
                })
            }
            (QueryKind::Aggregate, _) => {
                let spec = query.aggregate.as_ref().expect("validated aggregate");
                if spec.metric.needs_replay() {
                    return Err("the recomposition answers only posterior aggregates".to_string());
                }
                let horizon = self.load(si, cols)?.records.len();
                let abduction = self.abduce(si, cols, horizon, planned)?;
                let span = self.tr.begin("runner.answer");
                let mean = abduction.viterbi_trace().mean();
                self.tr.end(span);
                Ok(QueryOutput {
                    metric_value: Some(mean),
                    ..QueryOutput::default()
                })
            }
            (QueryKind::Interventional, _) => {
                let log = self.load(si, cols)?;
                let next = query.chunk_index.unwrap_or(log.records.len());
                if next == 0 || next > log.records.len() {
                    return Err(format!("chunk_index {next} out of range"));
                }
                let abduction = self.abduce(si, cols, next, planned)?;
                let (tcp_info, logged) = if next < log.records.len() {
                    (log.records[next].tcp_info, Some(&log.records[next]))
                } else {
                    (log.records[next - 1].tcp_info, None)
                };
                let size = query
                    .candidate_size_bytes
                    .or(logged.map(|r| r.size_bytes))
                    .unwrap_or(log.records[log.records.len() - 1].size_bytes);
                let span = self.tr.begin("interventional");
                let prediction = InterventionalPredictor::new(planned.config)
                    .predict_from_abduction(&abduction, &log, next, size, &tcp_info);
                self.tr.end(span);
                Ok(QueryOutput {
                    expected_capacity_mbps: Some(prediction.expected_capacity_mbps),
                    predicted_download_time_s: Some(prediction.download_time_s),
                    actual_download_time_s: logged.map(|r| r.download_time_s),
                    ..QueryOutput::default()
                })
            }
            (QueryKind::Counterfactual, None) => unreachable!("counterfactuals carry a scenario"),
        }
    }

    fn load(&mut self, si: usize, cols: ColumnSet) -> Result<Arc<SessionLog>, String> {
        let span = self.tr.begin("store");
        let log = self.corpus.load_log_projected(si, cols);
        self.tr.end(span);
        log.map_err(|e| e.to_string())
    }

    fn replay(
        &mut self,
        scenario: &Scenario,
        trace: &veritas_trace::BandwidthTrace,
    ) -> veritas_player::QoeSummary {
        let span = self.tr.begin("replay");
        let outcome = scenario.replay(trace);
        self.tr.end(span);
        self.ledger.replays += 1;
        self.extra.replay_chunks += outcome.chunks as u64;
        outcome
    }

    /// The per-config workspace; its first use per config is the kernel
    /// build (or, with a warm store, the kernel-table preload).
    fn workspace(&mut self, planned: &PlannedConfig) -> Arc<EhmmWorkspace> {
        if self.seen_configs.contains(&planned.fingerprint) {
            return self.workspaces.workspace_for(&planned.config);
        }
        self.seen_configs.insert(planned.fingerprint);
        let preloaded = self.workspaces.kernel_disk_hits();
        let span = self.tr.begin("abduction.kernel_build");
        let workspace = self.workspaces.workspace_for(&planned.config);
        self.tr.end(span);
        if self.workspaces.kernel_disk_hits() > preloaded {
            self.kernels_saved
                .insert(planned.fingerprint, workspace.cached_gaps());
        }
        workspace
    }

    /// The cache path of the engine's `get_or_infer_keyed`: memory tier,
    /// then the posterior store, then inference with write-through.
    fn abduce(
        &mut self,
        si: usize,
        cols: ColumnSet,
        horizon: usize,
        planned: &PlannedConfig,
    ) -> Result<Arc<Abduction>, String> {
        let log = self.load(si, cols)?;
        let key = (si, planned.fingerprint, horizon);
        let span = self.tr.begin("cache");
        let hit = self.memory.get(&key).cloned();
        self.tr.end(span);
        if let Some(abduction) = hit {
            self.ledger.memory_hits += 1;
            return Ok(abduction);
        }
        let span = self.tr.begin("cache");
        let view: Cow<SessionLog> = if horizon == log.records.len() {
            Cow::Borrowed(&log)
        } else {
            Cow::Owned(SessionLog {
                records: log.records[..horizon].to_vec(),
                ..(*log).clone()
            })
        };
        self.tr.end(span);
        let workspace = self.workspace(planned);
        let persist_key = PersistKey {
            log: self.corpus.log_fingerprint(si),
            config: planned.fingerprint,
            horizon,
        };
        if let Some(disk) = &self.disk {
            let span = self.tr.begin("persist.load");
            let restored = disk.load(&persist_key, &view, &planned.config, workspace.clone());
            self.tr.end(span);
            if let Some(abduction) = restored {
                self.ledger.disk_hits += 1;
                self.ledger.vpost_bytes_read += file_len(&disk.path_for(&persist_key));
                let abduction = Arc::new(abduction);
                self.memory.insert(key, abduction.clone());
                return Ok(abduction);
            }
        }
        self.ledger.inferences += 1;
        let span = self.tr.begin("abduction.emission");
        let capacities = planned.config.capacity_grid();
        let rows = view
            .records
            .iter()
            .map(|r| Abduction::emission_row(r, &capacities, planned.config.sigma_mbps))
            .collect();
        self.tr.end(span);
        let span = self.tr.begin("abduction.infer");
        let inferred =
            Abduction::try_infer_prepared(&view, &planned.config, rows, workspace.clone());
        self.tr.end(span);
        let abduction = Arc::new(inferred.map_err(|e| e.to_string())?);
        self.extra.chunks_inferred += horizon as u64;
        self.memory.insert(key, abduction.clone());
        if let Some(disk) = &self.disk {
            let span = self.tr.begin("persist.save");
            let saved = disk.save(&persist_key, &abduction).is_ok();
            let last = self.kernels_saved.entry(planned.fingerprint).or_insert(0);
            if workspace.cached_gaps() > *last {
                let kernels = workspace.export_kernels();
                if !kernels.is_empty() && disk.save_kernels(planned.fingerprint, &kernels).is_ok() {
                    *last = kernels.len();
                }
            }
            self.tr.end(span);
            if saved {
                self.ledger.vpost_bytes_written += file_len(&disk.path_for(&persist_key));
            }
        }
        Ok(abduction)
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
