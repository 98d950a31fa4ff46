//! Counterfactual experiments: Figures 7, 8, 9, 10, 11, 13 and 14, plus the
//! in-text summary statistics of §4.3.

use veritas::{baseline_trace, Abduction, CounterfactualEngine, Scenario, VeritasConfig};
use veritas_engine::executor::execute_indexed;
use veritas_engine::{Engine, Query, QueryPlan, QueryRecord, QuerySet, ScenarioSpec};
use veritas_media::QualityLadder;
use veritas_player::QoeSummary;
use veritas_trace::stats::trace_mae;

use crate::default_threads;
use crate::report::{f3, f4, median, Table};
use crate::workload::Corpus;

/// Per-trace outcome of one counterfactual query.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// Trace index within the corpus.
    pub trace: usize,
    /// Outcome of replaying the scenario on the true GTBW trace.
    pub oracle: QoeSummary,
    /// Outcome of replaying the scenario on the Baseline reconstruction.
    pub baseline: QoeSummary,
    /// Veritas(Low)/(High) and median for each metric.
    pub veritas_ssim: (f64, f64),
    /// Veritas rebuffering range (percent).
    pub veritas_rebuffer: (f64, f64),
    /// Veritas average-bitrate range (Mbps).
    pub veritas_bitrate: (f64, f64),
    /// Veritas median SSIM across samples.
    pub veritas_median_ssim: f64,
    /// Veritas median rebuffering across samples.
    pub veritas_median_rebuffer: f64,
    /// Veritas median bitrate across samples.
    pub veritas_median_bitrate: f64,
}

/// Runs one counterfactual scenario over every trace of a corpus, in
/// parallel, producing the per-trace comparison the paper's figures plot.
///
/// This is the direct path (one ad-hoc abduction per trace). The figure
/// binaries use [`run_paper_scenario_via_engine`] instead, which routes
/// the same computation through the query engine and its abduction cache;
/// the two produce identical outcomes.
pub fn run_counterfactual(
    corpus: &Corpus,
    scenario: &Scenario,
    config: &VeritasConfig,
) -> Vec<TraceOutcome> {
    let engine = CounterfactualEngine::new(*config);
    execute_indexed(corpus.logs.len(), default_threads(), |i| {
        let log = &corpus.logs[i];
        let truth = &corpus.truths[i];
        let cmp = engine.compare(log, truth, scenario);
        TraceOutcome {
            trace: i,
            oracle: cmp.oracle,
            baseline: cmp.baseline,
            veritas_ssim: cmp.veritas.ssim_range(),
            veritas_rebuffer: cmp.veritas.rebuffer_range(),
            veritas_bitrate: cmp.veritas.bitrate_range(),
            veritas_median_ssim: cmp.veritas.median_of(|q| q.mean_ssim),
            veritas_median_rebuffer: cmp.veritas.median_of(|q| q.rebuffer_ratio_percent),
            veritas_median_bitrate: cmp.veritas.median_of(|q| q.avg_bitrate_mbps),
        }
    })
}

/// Converts one engine counterfactual record back into the tabular
/// [`TraceOutcome`] the figure renderers consume.
fn outcome_from_record(trace: usize, record: &QueryRecord) -> TraceOutcome {
    let output = record
        .output
        .as_ref()
        .unwrap_or_else(|| panic!("engine unit failed: {:?}", record.error));
    let veritas = output.veritas.expect("counterfactual output has ranges");
    TraceOutcome {
        trace,
        oracle: output.oracle.expect("corpus carries ground truth"),
        baseline: output.baseline.expect("counterfactual output has baseline"),
        veritas_ssim: (veritas.ssim_low, veritas.ssim_high),
        veritas_rebuffer: (veritas.rebuffer_low, veritas.rebuffer_high),
        veritas_bitrate: (veritas.bitrate_low, veritas.bitrate_high),
        veritas_median_ssim: veritas.ssim_median,
        veritas_median_rebuffer: veritas.rebuffer_median,
        veritas_median_bitrate: veritas.bitrate_median,
    }
}

/// Runs a batch of paper scenarios through the query engine as one
/// [`QuerySet`] — one counterfactual query per scenario, every query over
/// every trace — so all scenarios share a single cached abduction per
/// session. The set is compiled into a [`QueryPlan`] and submitted for
/// streaming execution (`submit(...).wait()`, the batch shape of the
/// compile → execute → consume pipeline). Returns one outcome vector per
/// scenario, in input order.
pub fn run_paper_scenarios_via_engine(
    corpus: &Corpus,
    kinds: &[PaperScenario],
    config: &VeritasConfig,
) -> Vec<Vec<TraceOutcome>> {
    let engine_corpus = corpus.to_engine();
    let mut set = QuerySet::new("paper-counterfactuals", *config);
    for kind in kinds {
        set = set.with_query(Query::counterfactual(kind.figure(), kind.spec()));
    }
    let plan = QueryPlan::compile(&set, &engine_corpus).expect("paper query set is valid");
    let engine = Engine::builder()
        .threads(default_threads())
        .build()
        .expect("a thread count is a valid engine configuration");
    let report = engine
        .submit_shared(
            std::sync::Arc::new(engine_corpus),
            std::sync::Arc::new(plan),
        )
        .expect("plan matches its corpus")
        .wait();
    kinds
        .iter()
        .map(|kind| {
            report
                .records_for(kind.figure())
                .into_iter()
                .enumerate()
                .map(|(trace, record)| outcome_from_record(trace, record))
                .collect()
        })
        .collect()
}

/// Runs one paper scenario through the query engine (see
/// [`run_paper_scenarios_via_engine`]).
pub fn run_paper_scenario_via_engine(
    corpus: &Corpus,
    kind: PaperScenario,
    config: &VeritasConfig,
) -> Vec<TraceOutcome> {
    run_paper_scenarios_via_engine(corpus, &[kind], config)
        .pop()
        .expect("one scenario in, one outcome vector out")
}

/// Renders outcomes as the per-trace table the prediction figures plot
/// (Figures 9, 10, 11, 13).
pub fn outcomes_table(outcomes: &[TraceOutcome]) -> Table {
    let mut table = Table::new(vec![
        "trace",
        "oracle_ssim",
        "veritas_ssim_low",
        "veritas_ssim_high",
        "baseline_ssim",
        "oracle_rebuf_pct",
        "veritas_rebuf_low",
        "veritas_rebuf_high",
        "baseline_rebuf_pct",
        "oracle_bitrate",
        "veritas_bitrate_low",
        "veritas_bitrate_high",
        "baseline_bitrate",
    ]);
    for o in outcomes {
        table.push_row(vec![
            o.trace.to_string(),
            f4(o.oracle.mean_ssim),
            f4(o.veritas_ssim.0),
            f4(o.veritas_ssim.1),
            f4(o.baseline.mean_ssim),
            f3(o.oracle.rebuffer_ratio_percent),
            f3(o.veritas_rebuffer.0),
            f3(o.veritas_rebuffer.1),
            f3(o.baseline.rebuffer_ratio_percent),
            f3(o.oracle.avg_bitrate_mbps),
            f3(o.veritas_bitrate.0),
            f3(o.veritas_bitrate.1),
            f3(o.baseline.avg_bitrate_mbps),
        ]);
    }
    table
}

/// Aggregate error-vs-oracle summary across traces (used at the bottom of
/// each figure binary and by `summary_stats`).
pub fn summary_table(outcomes: &[TraceOutcome]) -> Table {
    let ssim_err_v: Vec<f64> = outcomes
        .iter()
        .map(|o| (o.veritas_median_ssim - o.oracle.mean_ssim).abs())
        .collect();
    let ssim_err_b: Vec<f64> = outcomes
        .iter()
        .map(|o| (o.baseline.mean_ssim - o.oracle.mean_ssim).abs())
        .collect();
    let reb_err_v: Vec<f64> = outcomes
        .iter()
        .map(|o| (o.veritas_median_rebuffer - o.oracle.rebuffer_ratio_percent).abs())
        .collect();
    let reb_err_b: Vec<f64> = outcomes
        .iter()
        .map(|o| (o.baseline.rebuffer_ratio_percent - o.oracle.rebuffer_ratio_percent).abs())
        .collect();
    let bit_err_v: Vec<f64> = outcomes
        .iter()
        .map(|o| (o.veritas_median_bitrate - o.oracle.avg_bitrate_mbps).abs())
        .collect();
    let bit_err_b: Vec<f64> = outcomes
        .iter()
        .map(|o| (o.baseline.avg_bitrate_mbps - o.oracle.avg_bitrate_mbps).abs())
        .collect();
    let mut table = Table::new(vec![
        "metric",
        "veritas_median_abs_err",
        "baseline_median_abs_err",
    ]);
    table.push_row(vec![
        "mean_ssim".to_string(),
        f4(median(&ssim_err_v)),
        f4(median(&ssim_err_b)),
    ]);
    table.push_row(vec![
        "rebuffer_ratio_pct".to_string(),
        f3(median(&reb_err_v)),
        f3(median(&reb_err_b)),
    ]);
    table.push_row(vec![
        "avg_bitrate_mbps".to_string(),
        f3(median(&bit_err_v)),
        f3(median(&bit_err_b)),
    ]);
    table
}

/// Figure 8: the *true* impact of changing the ABR — Setting A and Setting B
/// both replayed on the ground-truth traces.
pub fn fig8_true_impact(corpus: &Corpus, alternative_abr: &str) -> Table {
    let scenario_b = Scenario::new(alternative_abr, corpus.player, corpus.asset.clone());
    let mut table = Table::new(vec![
        "trace",
        "settingA_ssim",
        "settingB_ssim",
        "settingA_rebuf_pct",
        "settingB_rebuf_pct",
    ]);
    let rows = execute_indexed(corpus.logs.len(), default_threads(), |i| {
        let qoe_a = corpus.logs[i].qoe();
        let horizon = corpus.logs[i].session_duration_s.max(
            corpus.logs[i]
                .records
                .last()
                .map(|r| r.end_time_s)
                .unwrap_or(1.0),
        );
        let qoe_b = scenario_b.replay(&corpus.truths[i].with_duration(horizon));
        (i, qoe_a, qoe_b)
    });
    for (i, a, b) in rows {
        table.push_row(vec![
            i.to_string(),
            f4(a.mean_ssim),
            f4(b.mean_ssim),
            f3(a.rebuffer_ratio_percent),
            f3(b.rebuffer_ratio_percent),
        ]);
    }
    table
}

/// Figure 7: GTBW vs Baseline vs Veritas samples for one example trace,
/// tabulated on a fixed time grid, plus reconstruction MAE per series.
pub fn fig7_example(corpus: &Corpus, trace_index: usize, config: &VeritasConfig) -> (Table, Table) {
    let log = &corpus.logs[trace_index];
    let truth = &corpus.truths[trace_index];
    let abduction = Abduction::infer(log, config);
    let samples = abduction.sample_traces(config.num_samples);
    let baseline = baseline_trace(log, config.delta_s);
    let horizon = log.session_duration_s.min(truth.duration());

    let mut header = vec![
        "time_s".to_string(),
        "gtbw_mbps".to_string(),
        "baseline_mbps".to_string(),
    ];
    for i in 0..samples.len() {
        header.push(format!("veritas_sample_{i}"));
    }
    let mut series = Table::new(header);
    let mut t = config.delta_s / 2.0;
    while t < horizon {
        let mut row = vec![
            format!("{t:.0}"),
            f3(truth.bandwidth_at(t)),
            f3(baseline.bandwidth_at(t)),
        ];
        for s in &samples {
            row.push(f3(s.bandwidth_at(t)));
        }
        series.push_row(row);
        t += config.delta_s;
    }

    let truth_cut = truth.with_duration(horizon);
    let mut errors = Table::new(vec!["series", "mae_mbps"]);
    errors.push_row(vec![
        "baseline".to_string(),
        f3(trace_mae(&truth_cut, &baseline, config.delta_s)),
    ]);
    for (i, s) in samples.iter().enumerate() {
        errors.push_row(vec![
            format!("veritas_sample_{i}"),
            f3(trace_mae(&truth_cut, s, config.delta_s)),
        ]);
    }
    errors.push_row(vec![
        "veritas_viterbi".to_string(),
        f3(trace_mae(
            &truth_cut,
            &abduction.viterbi_trace(),
            config.delta_s,
        )),
    ]);
    (series, errors)
}

/// The standard counterfactual scenarios of §4.3 and the appendix.
pub enum PaperScenario {
    /// Figure 9: change the ABR from MPC to BBA.
    AbrToBba,
    /// Figure 13 (appendix): change the ABR from MPC to BOLA.
    AbrToBola,
    /// Figure 10: raise the buffer from 5 s to 30 s.
    Buffer30s,
    /// Figure 11: offer a higher quality ladder.
    HigherQualities,
}

impl PaperScenario {
    /// Builds the concrete [`Scenario`] for a corpus.
    pub fn scenario(&self, corpus: &Corpus) -> Scenario {
        match self {
            PaperScenario::AbrToBba => Scenario::new("bba", corpus.player, corpus.asset.clone()),
            PaperScenario::AbrToBola => Scenario::new("bola", corpus.player, corpus.asset.clone()),
            PaperScenario::Buffer30s => Scenario::new(
                &corpus.deployed_abr,
                corpus.player.with_buffer_capacity(30.0),
                corpus.asset.clone(),
            ),
            PaperScenario::HigherQualities => Scenario::new(
                &corpus.deployed_abr,
                corpus.player,
                corpus
                    .asset
                    .reencoded(QualityLadder::paper_higher_qualities()),
            ),
        }
    }

    /// The declarative engine spec of this scenario — what
    /// [`Self::scenario`] builds, expressed as intervention parameters on
    /// top of the corpus's deployed setting.
    pub fn spec(&self) -> ScenarioSpec {
        match self {
            PaperScenario::AbrToBba => ScenarioSpec::abr("bba"),
            PaperScenario::AbrToBola => ScenarioSpec::abr("bola"),
            PaperScenario::Buffer30s => ScenarioSpec::buffer(30.0),
            PaperScenario::HigherQualities => ScenarioSpec::ladder("higher"),
        }
    }

    /// The figure this scenario reproduces.
    pub fn figure(&self) -> &'static str {
        match self {
            PaperScenario::AbrToBba => "Figure 9",
            PaperScenario::AbrToBola => "Figure 13",
            PaperScenario::Buffer30s => "Figure 10",
            PaperScenario::HigherQualities => "Figure 11",
        }
    }
}

/// Figure 14: average bitrate comparison for every counterfactual query.
///
/// All four scenarios run as one engine [`QuerySet`], so the corpus is
/// abduced once per trace instead of once per (trace, scenario) — a 4×
/// reduction in inference work for this figure.
pub fn fig14_bitrates(corpus: &Corpus, config: &VeritasConfig) -> Table {
    let kinds = [
        PaperScenario::AbrToBba,
        PaperScenario::AbrToBola,
        PaperScenario::Buffer30s,
        PaperScenario::HigherQualities,
    ];
    let per_scenario = run_paper_scenarios_via_engine(corpus, &kinds, config);
    let mut table = Table::new(vec![
        "query",
        "oracle_bitrate_mbps",
        "veritas_median_bitrate",
        "baseline_bitrate_mbps",
    ]);
    for (scenario_kind, outcomes) in kinds.iter().zip(per_scenario) {
        let oracle: Vec<f64> = outcomes.iter().map(|o| o.oracle.avg_bitrate_mbps).collect();
        let veritas: Vec<f64> = outcomes.iter().map(|o| o.veritas_median_bitrate).collect();
        let baseline: Vec<f64> = outcomes
            .iter()
            .map(|o| o.baseline.avg_bitrate_mbps)
            .collect();
        table.push_row(vec![
            scenario_kind.figure().to_string(),
            f3(median(&oracle)),
            f3(median(&veritas)),
            f3(median(&baseline)),
        ]);
    }
    table
}

/// The in-text §4.3 claim: for the change-of-qualities query, the Baseline
/// predicts a large median rebuffering ratio while Veritas and the oracle
/// predict (near) zero. Returns `(oracle, veritas, baseline)` median
/// rebuffering percentages.
pub fn qualities_rebuffer_medians(corpus: &Corpus, config: &VeritasConfig) -> (f64, f64, f64) {
    let outcomes = run_paper_scenario_via_engine(corpus, PaperScenario::HigherQualities, config);
    let oracle: Vec<f64> = outcomes
        .iter()
        .map(|o| o.oracle.rebuffer_ratio_percent)
        .collect();
    let veritas: Vec<f64> = outcomes.iter().map(|o| o.veritas_median_rebuffer).collect();
    let baseline: Vec<f64> = outcomes
        .iter()
        .map(|o| o.baseline.rebuffer_ratio_percent)
        .collect();
    (median(&oracle), median(&veritas), median(&baseline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CorpusSpec;

    fn tiny_corpus() -> Corpus {
        CorpusSpec {
            traces: 2,
            video_duration_s: 120.0,
            ..CorpusSpec::counterfactual(2)
        }
        .build()
    }

    #[test]
    fn counterfactual_runner_produces_one_outcome_per_trace() {
        let corpus = tiny_corpus();
        let config = VeritasConfig::paper_default().with_samples(2);
        let scenario = PaperScenario::AbrToBba.scenario(&corpus);
        let outcomes = run_counterfactual(&corpus, &scenario, &config);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.veritas_ssim.0 <= o.veritas_ssim.1 + 1e-12);
            assert!(o.oracle.mean_ssim > 0.8);
        }
        let table = outcomes_table(&outcomes);
        assert_eq!(table.len(), 2);
        assert_eq!(summary_table(&outcomes).len(), 3);
    }

    #[test]
    fn engine_path_matches_the_direct_path_exactly() {
        let corpus = tiny_corpus();
        let config = VeritasConfig::paper_default().with_samples(2);
        let kinds = [PaperScenario::AbrToBba, PaperScenario::Buffer30s];
        let via_engine = run_paper_scenarios_via_engine(&corpus, &kinds, &config);
        for (kind, engine_outcomes) in kinds.iter().zip(via_engine) {
            let direct = run_counterfactual(&corpus, &kind.scenario(&corpus), &config);
            assert_eq!(
                engine_outcomes,
                direct,
                "{} must be identical through the engine",
                kind.figure()
            );
        }
    }

    #[test]
    fn fig7_series_covers_the_session() {
        let corpus = tiny_corpus();
        let config = VeritasConfig::paper_default().with_samples(2);
        let (series, errors) = fig7_example(&corpus, 0, &config);
        assert!(series.len() > 10);
        assert_eq!(errors.len(), 2 + 2); // baseline + 2 samples + viterbi
    }

    #[test]
    fn fig8_reports_both_settings() {
        let corpus = tiny_corpus();
        let table = fig8_true_impact(&corpus, "bba");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn paper_scenarios_build() {
        let corpus = tiny_corpus();
        for kind in [
            PaperScenario::AbrToBba,
            PaperScenario::AbrToBola,
            PaperScenario::Buffer30s,
            PaperScenario::HigherQualities,
        ] {
            let s = kind.scenario(&corpus);
            assert!(!s.abr.is_empty());
            assert!(!kind.figure().is_empty());
        }
    }
}
