//! The Veritas abduction step: inverting observed chunk downloads into a
//! posterior over the latent GTBW time series (paper §3.2–§3.3).

use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use veritas_ehmm::{
    interpolate_full_path, states_to_values, EhmmSpec, EhmmWorkspace, EmissionTable, Posteriors,
    TransitionMatrix, ViterbiResult,
};
use veritas_net::{estimate_throughput, gaussian_log_pdf};
use veritas_player::{ChunkRecord, SessionLog};
use veritas_trace::{BandwidthTrace, Quantizer};

use crate::{AbductionError, VeritasConfig};

/// The outcome of running Veritas abduction on one session log: the fitted
/// EHMM posterior, the Viterbi decode, and everything needed to materialize
/// sampled GTBW traces.
///
/// Inference runs through a shared [`EhmmWorkspace`], so one abduction
/// builds the per-gap transition and log-power kernels exactly once (the
/// Viterbi decode, the forward–backward pass, and any later path scoring
/// all reuse them), and batch executors can pass one workspace per
/// configuration to share the kernels across *sessions* too (see
/// [`Self::try_infer_prepared`]).
///
/// Inference decodes the Viterbi path and keeps only what its answers
/// read: the decode, the δ-interval layout, and the source of its emission
/// rows. Forward–backward runs once, on the first call to
/// [`Self::posteriors`], and the source is dropped when it has run.
/// Consumers that read only the Viterbi path (interventional prediction,
/// Viterbi traces) never pay for smoothing. A prefix inference
/// ([`Self::try_infer_prefix`]) keeps a recipe for its rows instead of the
/// rows: the shared predicted-throughput table, the prefix's observed
/// throughputs and σ, from which the first [`Self::posteriors`] call
/// rebuilds the rows Viterbi ran over, bit for bit. A posterior restored by
/// [`Self::from_parts`] never smooths: its stored matrices are parsed, and
/// γ derived, on the first [`Self::posteriors`] call.
#[derive(Debug)]
pub struct Abduction {
    config: VeritasConfig,
    quantizer: Quantizer,
    workspace: Arc<EhmmWorkspace>,
    /// Number of chunk observations conditioned on.
    num_obs: usize,
    /// δ-interval index in which each chunk download starts.
    start_intervals: Vec<usize>,
    /// Total number of δ-intervals spanned by the session.
    total_intervals: usize,
    viterbi: ViterbiResult,
    /// The posteriors, set on first use.
    posteriors: OnceLock<Posteriors>,
    /// What the first [`Self::posteriors`] call builds the posteriors
    /// from; `None` once it has.
    pending: Mutex<Option<Pending>>,
    /// Whether the abduction was restored ([`Self::from_parts`]), so its
    /// posteriors are parsed, never smoothed.
    restored: bool,
}

/// The source of an abduction's posteriors until the first
/// [`Abduction::posteriors`] call builds them.
#[derive(Debug)]
enum Pending {
    /// The emission table a caller handed to inference
    /// ([`Abduction::try_infer_prepared`]): forward–backward runs over it.
    Smooth(EmissionTable),
    /// The recipe of the rows a prefix inference ran over
    /// ([`Abduction::try_infer_prefix`]): they are rebuilt and smoothed.
    Rebuild(EmissionRecipe),
    /// A restored store entry: its parse assembles the posteriors.
    Parse(StoredPosteriors),
}

/// Predicted throughputs `f(c, W_n, S_n)`: one row per chunk record, one
/// column per capacity-grid value ([`Abduction::predicted_throughput_row`]).
/// They depend on neither σ nor the stay probability, so one table of a
/// log serves every horizon and every noise variant over its grid.
pub type ThroughputTable = Vec<Vec<f64>>;

/// What a prefix inference keeps instead of its emission rows: the shared
/// predicted-throughput table (rows past the prefix are never read), the
/// prefix's observed throughputs and σ. [`Self::rows`] derives the rows
/// through [`Abduction::emission_row_from_predicted`], the noise half of
/// [`Abduction::emission_row`], so they are the bits Viterbi ran over.
#[derive(Debug)]
struct EmissionRecipe {
    predicted: Arc<ThroughputTable>,
    observed: Vec<f64>,
    sigma_mbps: f64,
}

impl EmissionRecipe {
    /// One emission row per observed throughput.
    fn rows(&self) -> Vec<Vec<f64>> {
        self.observed
            .iter()
            .zip(self.predicted.iter())
            .map(|(&observed, predicted)| {
                Abduction::emission_row_from_predicted(observed, predicted, self.sigma_mbps)
            })
            .collect()
    }
}

/// A stored posterior, as a persistent store hands it to
/// [`Abduction::from_parts`]: the shape and the gaps that the restore
/// checks against the log at once, and the parse that assembles α, β, the
/// emission rows and the totals, which runs on the first
/// [`Abduction::posteriors`] call.
pub struct StoredPosteriors {
    num_obs: usize,
    num_states: usize,
    gaps: Vec<u32>,
    assemble: Box<dyn FnOnce(Vec<u32>) -> Posteriors + Send>,
}

impl StoredPosteriors {
    /// A stored posterior of `num_obs` observations over `num_states`
    /// states, with the embedded `gaps`.
    ///
    /// `assemble` receives the gaps back and returns the posteriors they
    /// belong to: α, β and the emission rows `num_obs × num_states`,
    /// `num_obs − 1` totals. It runs at most once, on the first
    /// [`Abduction::posteriors`] call, and cannot report an error, so a
    /// store verifies every byte it will parse before building this.
    pub fn new(
        num_obs: usize,
        num_states: usize,
        gaps: Vec<u32>,
        assemble: impl FnOnce(Vec<u32>) -> Posteriors + Send + 'static,
    ) -> Self {
        Self {
            num_obs,
            num_states,
            gaps,
            assemble: Box::new(assemble),
        }
    }

    fn assemble(self) -> Posteriors {
        let (num_obs, num_states) = (self.num_obs, self.num_states);
        let posteriors = (self.assemble)(self.gaps);
        debug_assert!(
            posteriors.alpha.len() == num_obs
                && posteriors.alpha.cols() == num_states
                && posteriors.emissions.len() == num_obs
                && posteriors.emissions.cols() == num_states
                && posteriors.totals.len() + 1 == num_obs,
            "assembled posteriors have the stored shape"
        );
        posteriors
    }
}

impl std::fmt::Debug for StoredPosteriors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredPosteriors")
            .field("num_obs", &self.num_obs)
            .field("num_states", &self.num_states)
            .field("gaps", &self.gaps)
            .finish_non_exhaustive()
    }
}

impl Abduction {
    /// Runs the abduction step on a session log.
    ///
    /// Only the *observed* variables of the log are used: chunk sizes,
    /// download start times, observed throughputs and TCP snapshots. The
    /// ground-truth bandwidth field is never read.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the log has no chunks.
    /// Batch callers that must not abort (e.g. the query engine) should use
    /// [`Self::try_infer`] instead.
    pub fn infer(log: &SessionLog, config: &VeritasConfig) -> Self {
        Self::try_infer(log, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::infer`]: returns a typed
    /// [`AbductionError`] instead of panicking on an invalid configuration,
    /// an empty log, or out-of-order chunk start times. This is the
    /// cache-friendly entry point batch executors build on.
    pub fn try_infer(log: &SessionLog, config: &VeritasConfig) -> Result<Self, AbductionError> {
        config.validate().map_err(AbductionError::InvalidConfig)?;
        if log.records.is_empty() {
            return Err(AbductionError::EmptySession);
        }
        // Emission table: one row per chunk, one column per capacity state,
        // scored by the TCP estimator f with Gaussian noise (paper Eq. 3).
        let capacities = config.capacity_grid();
        let rows = log
            .records
            .iter()
            .map(|record| Self::emission_row(record, &capacities, config.sigma_mbps))
            .collect();
        let workspace = Arc::new(EhmmWorkspace::new(Self::spec_for(config)));
        Self::try_infer_prepared(log, config, rows, workspace)
    }

    /// The hidden-chain specification `config` implies: the paper's
    /// tridiagonal prior over the quantized capacity grid with a uniform
    /// initial distribution.
    ///
    /// # Panics
    ///
    /// Panics on an invalid grid configuration; call
    /// [`VeritasConfig::validate`] first when the config is untrusted.
    pub fn spec_for(config: &VeritasConfig) -> EhmmSpec {
        let quantizer = Quantizer::new(config.epsilon_mbps, config.max_capacity_mbps);
        EhmmSpec::with_uniform_initial(TransitionMatrix::tridiagonal(
            quantizer.num_states(),
            config.stay_probability,
        ))
    }

    /// Panics unless `workspace` was built for [`Self::spec_for`]`(config)`,
    /// which it checks in place, without building that spec.
    fn assert_workspace_fits(workspace: &EhmmWorkspace, quantizer: &Quantizer, stay: f64) {
        assert!(
            workspace
                .spec()
                .is_uniform_tridiagonal(quantizer.num_states(), stay),
            "workspace spec does not match the configuration"
        );
    }

    /// Emission log-density row for one chunk record over the capacity
    /// grid: `log P(Y_n | C = c)` for each grid value `c`, scored by the
    /// TCP estimator `f` with Gaussian noise (paper Eq. 3).
    ///
    /// Exposed so batch executors can build large emission tables in
    /// parallel (one independent row per chunk) and hand them to
    /// [`Self::try_infer_prepared`]. It is the composition of
    /// [`Self::predicted_throughput_row`] and
    /// [`Self::emission_row_from_predicted`], so a row derived from a
    /// stored predicted-throughput row is bit-identical to it.
    pub fn emission_row(record: &ChunkRecord, capacities: &[f64], sigma_mbps: f64) -> Vec<f64> {
        let predicted = Self::predicted_throughput_row(record, capacities);
        Self::emission_row_from_predicted(record.throughput_mbps, &predicted, sigma_mbps)
    }

    /// The estimator half of an emission row: `f(c, W_n, S_n)`, the
    /// throughput the TCP model predicts for this record's chunk size and
    /// TCP state at each grid capacity `c`. It depends on neither σ nor
    /// the stay probability, so one row serves every configuration that
    /// shares the capacity grid.
    pub fn predicted_throughput_row(record: &ChunkRecord, capacities: &[f64]) -> Vec<f64> {
        capacities
            .iter()
            .map(|&c| estimate_throughput(c, &record.tcp_info, record.size_bytes))
            .collect()
    }

    /// The noise half of an emission row: the Gaussian log-density of a
    /// record's observed throughput `observed_mbps` around each predicted
    /// throughput of `predicted` (a [`Self::predicted_throughput_row`] of
    /// that record), with standard deviation `sigma_mbps`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma_mbps > 0`.
    pub fn emission_row_from_predicted(
        observed_mbps: f64,
        predicted: &[f64],
        sigma_mbps: f64,
    ) -> Vec<f64> {
        assert!(sigma_mbps > 0.0);
        predicted
            .iter()
            .map(|&mean| gaussian_log_pdf(observed_mbps, mean, sigma_mbps))
            .collect()
    }

    /// Runs abduction with precomputed emission rows and a caller-supplied
    /// inference workspace.
    ///
    /// This is the batch entry point: the engine derives `rows` from its
    /// per-log predicted-throughput tables and passes one
    /// [`EhmmWorkspace`] per configuration fingerprint, so every session
    /// inferred under the same config shares the same memoized `A^Δ` /
    /// `ln A^Δ` kernels.
    ///
    /// Only the Viterbi decode runs here. The emission table is kept, and
    /// forward–backward runs over it on the first call to
    /// [`Self::posteriors`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not have one row per chunk record or if
    /// `workspace` was built for a different spec than `config` implies —
    /// both are caller bugs, not data errors.
    pub fn try_infer_prepared(
        log: &SessionLog,
        config: &VeritasConfig,
        rows: Vec<Vec<f64>>,
        workspace: Arc<EhmmWorkspace>,
    ) -> Result<Self, AbductionError> {
        config.validate().map_err(AbductionError::InvalidConfig)?;
        Self::infer_records(
            &log.records,
            log.session_duration_s,
            config,
            rows,
            None,
            workspace,
        )
    }

    /// Runs abduction over the first `horizon` records of `log`, read in
    /// place, with emission rows derived from `predicted`: a
    /// predicted-throughput table of `log` over `config`'s capacity grid
    /// with at least `horizon` rows ([`Self::predicted_throughput_row`]).
    /// The result is bit-identical to [`Self::try_infer`] of
    /// `log.prefix(horizon)`.
    ///
    /// Only the Viterbi decode runs here. The abduction keeps `predicted`,
    /// the prefix's observed throughputs and σ rather than the emission
    /// rows; the first [`Self::posteriors`] call rebuilds the rows, bit for
    /// bit, and smooths them. A consumer of the Viterbi path alone never
    /// holds more than the decode and the interval layout.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` exceeds the log's record count, if `predicted`
    /// has fewer than `horizon` rows, or if `workspace` was built for a
    /// different spec than `config` implies — caller bugs, not data
    /// errors.
    pub fn try_infer_prefix(
        log: &SessionLog,
        horizon: usize,
        config: &VeritasConfig,
        predicted: Arc<ThroughputTable>,
        workspace: Arc<EhmmWorkspace>,
    ) -> Result<Self, AbductionError> {
        config.validate().map_err(AbductionError::InvalidConfig)?;
        let records = &log.records[..horizon];
        let recipe = EmissionRecipe {
            predicted,
            observed: records.iter().map(|r| r.throughput_mbps).collect(),
            sigma_mbps: config.sigma_mbps,
        };
        Self::infer_records(
            records,
            log.session_duration_s,
            config,
            recipe.rows(),
            Some(recipe),
            workspace,
        )
    }

    /// The one inference routine behind [`Self::try_infer_prepared`] and
    /// [`Self::try_infer_prefix`], which validate `config` first: lays out
    /// the δ-intervals of `records`, decodes Viterbi over `rows`, and keeps
    /// what the first [`Self::posteriors`] call smooths: `recipe`, the
    /// source of `rows`, when there is one, else the table of `rows`.
    fn infer_records(
        records: &[ChunkRecord],
        session_duration_s: f64,
        config: &VeritasConfig,
        rows: Vec<Vec<f64>>,
        recipe: Option<EmissionRecipe>,
        workspace: Arc<EhmmWorkspace>,
    ) -> Result<Self, AbductionError> {
        if records.is_empty() {
            return Err(AbductionError::EmptySession);
        }
        assert_eq!(
            rows.len(),
            records.len(),
            "need one emission row per chunk record"
        );
        let quantizer = Quantizer::new(config.epsilon_mbps, config.max_capacity_mbps);
        Self::assert_workspace_fits(&workspace, &quantizer, config.stay_probability);
        let (start_intervals, gaps, total_intervals) =
            interval_layout(records, session_duration_s, config)?;
        let emissions = EmissionTable::new(rows, gaps);
        let viterbi = workspace.viterbi(&emissions);
        let pending = match recipe {
            Some(recipe) => Pending::Rebuild(recipe),
            None => Pending::Smooth(emissions),
        };

        Ok(Self {
            config: *config,
            quantizer,
            workspace,
            num_obs: records.len(),
            start_intervals,
            total_intervals,
            viterbi,
            posteriors: OnceLock::new(),
            pending: Mutex::new(Some(pending)),
            restored: false,
        })
    }

    /// Rebuilds an abduction of the first `horizon` records of `log`,
    /// read in place, from a stored posterior — the warm-start path
    /// persistent caches use. No forward–backward or Viterbi pass runs;
    /// only the cheap δ-interval layout is rederived from the records, and
    /// the stored matrices are parsed, and γ derived, on the first
    /// [`Self::posteriors`] call.
    ///
    /// Every check runs here, before the matrices are parsed: a horizon
    /// past the log's end, a Viterbi path whose length or state indices do
    /// not fit, a stored shape other than the horizon by the grid's state
    /// count, or stored gaps that differ from the prefix's δ-interval
    /// layout yield [`AbductionError::InconsistentParts`], so a stale or
    /// truncated store entry can never be served as a plausible-looking
    /// posterior, nor sampled with the wrong `A^Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `workspace` was built for a different spec than `config`
    /// implies — a caller bug, exactly as in [`Self::try_infer_prepared`].
    pub fn from_parts(
        log: &SessionLog,
        horizon: usize,
        config: &VeritasConfig,
        workspace: Arc<EhmmWorkspace>,
        viterbi: ViterbiResult,
        stored: StoredPosteriors,
    ) -> Result<Self, AbductionError> {
        config.validate().map_err(AbductionError::InvalidConfig)?;
        let inconsistent = |reason: String| AbductionError::InconsistentParts(reason);
        let Some(records) = log.records.get(..horizon) else {
            return Err(inconsistent(format!(
                "the stored posterior covers {horizon} chunks, log has {}",
                log.records.len()
            )));
        };
        if records.is_empty() {
            return Err(AbductionError::EmptySession);
        }
        let quantizer = Quantizer::new(config.epsilon_mbps, config.max_capacity_mbps);
        Self::assert_workspace_fits(&workspace, &quantizer, config.stay_probability);
        let num_obs = records.len();
        let num_states = quantizer.num_states();
        if viterbi.path.len() != num_obs {
            return Err(inconsistent(format!(
                "viterbi path covers {} chunks, log has {num_obs}",
                viterbi.path.len()
            )));
        }
        if let Some(&state) = viterbi.path.iter().find(|&&s| s >= num_states) {
            return Err(inconsistent(format!(
                "viterbi state {state} exceeds the {num_states}-state capacity grid"
            )));
        }
        if (stored.num_obs, stored.num_states) != (num_obs, num_states) {
            return Err(inconsistent(format!(
                "stored posteriors are {}x{}, expected {num_obs}x{num_states}",
                stored.num_obs, stored.num_states
            )));
        }
        let (start_intervals, gaps, total_intervals) =
            interval_layout(records, log.session_duration_s, config)?;
        // The sampler transports step n with A^{gaps[n + 1]}: gaps that
        // differ from the log's layout would sample with the wrong kernel.
        if stored.gaps != gaps {
            return Err(inconsistent(
                "stored gaps differ from the log's interval layout".to_string(),
            ));
        }
        Ok(Self {
            config: *config,
            quantizer,
            workspace,
            num_obs,
            start_intervals,
            total_intervals,
            viterbi,
            posteriors: OnceLock::new(),
            pending: Mutex::new(Some(Pending::Parse(stored))),
            restored: true,
        })
    }

    /// The configuration used for this abduction.
    pub fn config(&self) -> &VeritasConfig {
        &self.config
    }

    /// The capacity grid (Mbps values of each hidden state).
    pub fn capacity_grid(&self) -> Vec<f64> {
        self.quantizer.values()
    }

    /// The fitted hidden-chain specification (useful for interventional
    /// queries that need the transition matrix).
    pub fn spec(&self) -> &EhmmSpec {
        self.workspace.spec()
    }

    /// The inference workspace this abduction ran through — exposes the
    /// memoized per-gap transition kernels (`A^Δ`, `ln A^Δ`) to follow-up
    /// queries such as interventional forward prediction.
    pub fn workspace(&self) -> &Arc<EhmmWorkspace> {
        &self.workspace
    }

    /// The smoothed posteriors over chunk capacities.
    ///
    /// The first call builds them once. On a freshly inferred abduction it
    /// runs forward–backward over the emission rows Viterbi ran over — the
    /// kept table of [`Self::try_infer_prepared`], or the rows a prefix
    /// inference's recipe rebuilds bit for bit ([`Self::try_infer_prefix`])
    /// — and then drops that source; on a restored one
    /// ([`Self::from_parts`]) it parses the stored matrices, derives γ and
    /// drops the stored bytes — the same bits the saved posteriors had.
    /// Later calls, and racing calls from other threads (which wait for the
    /// first), return the same posteriors. Sampling, posterior means and
    /// persistence all read through here.
    pub fn posteriors(&self) -> &Posteriors {
        self.posteriors.get_or_init(|| {
            let pending = self
                .pending
                .lock()
                .expect("the pending lock is held only by `take`, which cannot panic")
                .take()
                .expect("an abduction keeps its pending posteriors until they are built");
            match pending {
                Pending::Smooth(emissions) => self.workspace.forward_backward(&emissions),
                Pending::Rebuild(recipe) => {
                    let emissions =
                        EmissionTable::new(recipe.rows(), gaps_between(&self.start_intervals));
                    self.workspace.forward_backward(&emissions)
                }
                Pending::Parse(stored) => stored.assemble(),
            }
        })
    }

    /// Whether the posteriors are available without running
    /// forward–backward: smoothing has run, or the abduction was restored
    /// (its stored matrices are parsed on the first [`Self::posteriors`]
    /// call, which never smooths).
    pub fn is_smoothed(&self) -> bool {
        self.restored || self.posteriors.get().is_some()
    }

    /// The Viterbi decode (path plus its log-likelihood) — exposed whole,
    /// alongside [`Self::posteriors`], so persistence layers can serialize
    /// everything [`Self::from_parts`] needs to restore the abduction.
    pub fn viterbi(&self) -> &ViterbiResult {
        &self.viterbi
    }

    /// Number of chunk observations the posterior conditions on.
    pub fn num_obs(&self) -> usize {
        self.num_obs
    }

    /// The Viterbi (jointly most likely) capacity state per chunk.
    pub fn viterbi_states(&self) -> &[usize] {
        &self.viterbi.path
    }

    /// Per-chunk capacity in Mbps along the Viterbi path.
    pub fn viterbi_chunk_capacities(&self) -> Vec<f64> {
        states_to_values(&self.viterbi.path, &self.capacity_grid())
    }

    /// Per-chunk posterior-mean capacity in Mbps.
    pub fn posterior_mean_chunk_capacities(&self) -> Vec<f64> {
        let grid = self.capacity_grid();
        let posteriors = self.posteriors();
        (0..self.num_obs)
            .map(|n| posteriors.posterior_mean(n, &grid))
            .collect()
    }

    /// δ-interval index of each chunk's download start.
    pub fn start_intervals(&self) -> &[usize] {
        &self.start_intervals
    }

    /// Number of δ-intervals in the reconstructed series.
    pub fn total_intervals(&self) -> usize {
        self.total_intervals
    }

    /// The most likely full GTBW trace (Viterbi path interpolated across
    /// off-periods).
    pub fn viterbi_trace(&self) -> BandwidthTrace {
        self.states_to_trace(&self.viterbi.path)
    }

    /// Samples `k` GTBW traces from the posterior (paper Algorithm 1 plus
    /// off-period interpolation), deterministically derived from the
    /// configured seed.
    pub fn sample_traces(&self, k: usize) -> Vec<BandwidthTrace> {
        self.sample_traces_with_seed(k, self.config.seed)
    }

    /// Samples `k` GTBW traces from the posterior with an explicit seed,
    /// leaving the configured seed untouched. Because sampling is decoupled
    /// from inference, a cached abduction can serve queries that only differ
    /// in their sampling seed without re-running forward–backward.
    pub fn sample_traces_with_seed(&self, k: usize, seed: u64) -> Vec<BandwidthTrace> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.workspace
            .sample_paths(self.posteriors(), &self.viterbi, k, &mut rng)
            .iter()
            .map(|states| self.states_to_trace(states))
            .collect()
    }

    /// Samples the configured number (`K`) of GTBW traces.
    pub fn sample_default_traces(&self) -> Vec<BandwidthTrace> {
        self.sample_traces(self.config.num_samples)
    }

    /// Converts a per-chunk state path into a full-session bandwidth trace.
    fn states_to_trace(&self, chunk_states: &[usize]) -> BandwidthTrace {
        let full_states =
            interpolate_full_path(&self.start_intervals, chunk_states, self.total_intervals);
        let values = states_to_values(&full_states, &self.capacity_grid());
        BandwidthTrace::from_uniform(self.config.delta_s, &values)
            .expect("interpolated capacity trace is valid")
    }
}

/// The δ-interval layout that chunk `records` of a session lasting
/// `session_duration_s` imply under `config`: the interval in which each
/// chunk starts, the non-negative gaps between consecutive starts
/// ([`gaps_between`]), and the total interval count of the session. Shared
/// by fresh inference ([`Abduction::try_infer_prepared`],
/// [`Abduction::try_infer_prefix`]) and warm restoration
/// ([`Abduction::from_parts`]) so the paths can never disagree.
fn interval_layout(
    records: &[ChunkRecord],
    session_duration_s: f64,
    config: &VeritasConfig,
) -> Result<(Vec<usize>, Vec<u32>, usize), AbductionError> {
    let start_intervals: Vec<usize> = records
        .iter()
        .map(|record| (record.start_time_s / config.delta_s).floor() as usize)
        .collect();
    if let Some(chunk) =
        (1..start_intervals.len()).find(|&n| start_intervals[n] < start_intervals[n - 1])
    {
        // A backwards start time would underflow the `usize` subtraction
        // of its gap and produce a garbage gap; reject the log instead.
        return Err(AbductionError::NonMonotonicLog { chunk });
    }
    let gaps = gaps_between(&start_intervals);
    let total_intervals = ((session_duration_s / config.delta_s).ceil() as usize)
        .max(start_intervals.last().copied().unwrap_or(0) + 1)
        .max(1);
    Ok((start_intervals, gaps, total_intervals))
}

/// The gap `Δ_n` between consecutive chunk starts, `0` for the first
/// chunk: the gaps an emission table embeds. `start_intervals` never
/// decrease ([`interval_layout`] checks), so a prefix inference can
/// rebuild its gaps from the layout it keeps.
fn gaps_between(start_intervals: &[usize]) -> Vec<u32> {
    std::iter::once(0)
        .chain(start_intervals.windows(2).map(|w| (w[1] - w[0]) as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use veritas_abr::Mpc;
    use veritas_media::{QualityLadder, VbrParams, VideoAsset};
    use veritas_player::{run_session, PlayerConfig};
    use veritas_trace::generators::{FccLike, TraceGenerator};
    use veritas_trace::stats::trace_mae;

    fn asset() -> VideoAsset {
        VideoAsset::generate(
            QualityLadder::paper_default(),
            240.0,
            2.0,
            VbrParams::default(),
            5,
        )
    }

    fn logged_session(truth: &BandwidthTrace) -> SessionLog {
        let mut abr = Mpc::new();
        run_session(&asset(), &mut abr, truth, &PlayerConfig::paper_default())
    }

    #[test]
    fn abduction_runs_and_produces_consistent_shapes() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 21);
        let log = logged_session(&truth);
        let ab = Abduction::infer(&log, &VeritasConfig::paper_default());
        assert_eq!(ab.viterbi_states().len(), log.records.len());
        assert_eq!(
            ab.posterior_mean_chunk_capacities().len(),
            log.records.len()
        );
        assert_eq!(ab.start_intervals().len(), log.records.len());
        assert!(ab.total_intervals() > *ab.start_intervals().last().unwrap());
        let trace = ab.viterbi_trace();
        assert!(trace.duration() >= log.records.last().unwrap().start_time_s);
    }

    #[test]
    fn recovers_a_constant_capacity_exactly_on_grid() {
        let truth = BandwidthTrace::constant(4.0, 1200.0);
        let log = logged_session(&truth);
        let ab = Abduction::infer(&log, &VeritasConfig::paper_default());
        let est = ab.viterbi_trace();
        // The bulk of the inferred trace should sit at (or next to) 4 Mbps.
        let mae = trace_mae(&truth.with_duration(est.duration()), &est, 5.0);
        assert!(mae < 1.0, "constant 4 Mbps trace recovered with MAE {mae}");
    }

    #[test]
    fn veritas_is_no_worse_than_baseline_on_deployed_mpc_sessions() {
        // On sessions where MPC mostly saturates the link both estimators are
        // decent; averaged over several traces Veritas must remain at least
        // comparable (it pays a small quantization cost but gains whenever
        // chunks fail to saturate the link).
        let gen = FccLike::new(3.0, 8.0);
        let mut mae_veritas = 0.0;
        let mut mae_baseline = 0.0;
        for seed in 30..34u64 {
            let truth = gen.generate(600.0, seed);
            let log = logged_session(&truth);
            let ab = Abduction::infer(&log, &VeritasConfig::paper_default());
            let veritas_trace = ab.viterbi_trace();
            let baseline = crate::baseline::baseline_trace(&log, 5.0);
            let horizon = log.session_duration_s.min(truth.duration());
            let truth_cut = truth.with_duration(horizon);
            mae_veritas += trace_mae(&truth_cut, &veritas_trace, 5.0);
            mae_baseline += trace_mae(&truth_cut, &baseline, 5.0);
        }
        assert!(
            mae_veritas < mae_baseline * 1.15 + 0.1,
            "Veritas MAE {mae_veritas} should stay comparable to Baseline MAE {mae_baseline}"
        );
    }

    #[test]
    fn veritas_recovers_capacity_hidden_by_small_chunks() {
        // The paper's central scenario: the deployed policy keeps picking
        // small chunks, so the observed throughput (and hence Baseline) badly
        // underestimates the true capacity, while Veritas — conditioning on
        // TCP state and chunk size through f — recovers it.
        let truth = BandwidthTrace::constant(6.0, 2400.0);
        let mut abr = veritas_abr::FixedQuality(1); // ~0.4 Mbps chunks
        let log = run_session(&asset(), &mut abr, &truth, &PlayerConfig::paper_default());
        let ab = Abduction::infer(&log, &VeritasConfig::paper_default());
        let veritas_trace = ab.viterbi_trace();
        let baseline = crate::baseline::baseline_trace(&log, 5.0);
        let horizon = log.session_duration_s.min(truth.duration());
        let truth_cut = truth.with_duration(horizon);
        let mae_veritas = trace_mae(&truth_cut, &veritas_trace, 5.0);
        let mae_baseline = trace_mae(&truth_cut, &baseline, 5.0);
        assert!(
            mae_veritas < mae_baseline,
            "Veritas MAE {mae_veritas} must beat Baseline MAE {mae_baseline} when chunks are small"
        );
    }

    #[test]
    fn sampled_traces_are_deterministic_and_on_grid() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 40);
        let log = logged_session(&truth);
        let config = VeritasConfig::paper_default();
        let ab = Abduction::infer(&log, &config);
        let a = ab.sample_traces(3);
        let b = ab.sample_traces(3);
        assert_eq!(
            a, b,
            "sampling must be reproducible from the configured seed"
        );
        for trace in &a {
            for v in trace.values() {
                let snapped = (v / config.epsilon_mbps).round() * config.epsilon_mbps;
                assert!(
                    (v - snapped).abs() < 1e-9,
                    "sampled value {v} is off the ε grid"
                );
                assert!(v <= config.max_capacity_mbps + 1e-9);
            }
        }
        assert_eq!(ab.sample_default_traces().len(), config.num_samples);
    }

    #[test]
    fn samples_bracket_the_viterbi_solution_in_uncertain_regions() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 55);
        let log = logged_session(&truth);
        let ab = Abduction::infer(&log, &VeritasConfig::paper_default().with_samples(5));
        let samples = ab.sample_default_traces();
        // All samples agree with the Viterbi trace on at least some chunks
        // (certain regions) but not everywhere (uncertain regions).
        let viterbi_states = ab.viterbi_states().to_vec();
        let mut total_disagreement = 0usize;
        for trace in &samples {
            let sampled_at_chunks: Vec<f64> = log
                .records
                .iter()
                .map(|r| trace.bandwidth_at(r.start_time_s))
                .collect();
            let viterbi_at_chunks = states_to_values(&viterbi_states, &ab.capacity_grid());
            total_disagreement += sampled_at_chunks
                .iter()
                .zip(&viterbi_at_chunks)
                .filter(|(a, b)| (**a - **b).abs() > 1e-9)
                .count();
        }
        assert!(
            total_disagreement > 0,
            "posterior sampling should explore beyond the single Viterbi path"
        );
    }

    #[test]
    fn abduction_never_reads_ground_truth() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 60);
        let log = logged_session(&truth);
        let stripped = log.without_ground_truth();
        let config = VeritasConfig::paper_default();
        let with_gt = Abduction::infer(&log, &config);
        let without_gt = Abduction::infer(&stripped, &config);
        assert_eq!(with_gt.viterbi_states(), without_gt.viterbi_states());
        assert_eq!(with_gt.sample_traces(2), without_gt.sample_traces(2));
    }

    #[test]
    fn try_infer_returns_typed_errors() {
        let empty = SessionLog {
            abr_name: "MPC".into(),
            buffer_capacity_s: 5.0,
            chunk_duration_s: 2.0,
            records: vec![],
            startup_delay_s: 0.0,
            total_rebuffer_s: 0.0,
            session_duration_s: 0.0,
        };
        assert_eq!(
            Abduction::try_infer(&empty, &VeritasConfig::paper_default()).unwrap_err(),
            crate::AbductionError::EmptySession
        );
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 21);
        let log = logged_session(&truth);
        let mut bad = VeritasConfig::paper_default();
        bad.delta_s = -1.0;
        match Abduction::try_infer(&log, &bad) {
            Err(crate::AbductionError::InvalidConfig(reason)) => {
                assert!(reason.contains("delta_s"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert!(Abduction::try_infer(&log, &VeritasConfig::paper_default()).is_ok());
    }

    #[test]
    fn non_monotonic_logs_are_rejected_with_a_typed_error() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 21);
        let mut log = logged_session(&truth);
        // Shuffle one chunk far backwards in time: its δ-interval precedes
        // its predecessor's, which previously underflowed the gap cast.
        let n = log.records.len() / 2;
        log.records[n].start_time_s = 0.0;
        match Abduction::try_infer(&log, &VeritasConfig::paper_default()) {
            Err(AbductionError::NonMonotonicLog { chunk }) => assert_eq!(chunk, n),
            other => panic!("expected NonMonotonicLog, got {other:?}"),
        }
        // Same-interval starts (gap 0) remain legal.
        let mut same_interval = logged_session(&truth);
        let t = same_interval.records[1].start_time_s;
        same_interval.records[2].start_time_s = t;
        // Force interval equality regardless of δ by reusing the exact time.
        assert!(Abduction::try_infer(&same_interval, &VeritasConfig::paper_default()).is_ok());
    }

    #[test]
    fn prepared_inference_matches_the_direct_path_and_shares_the_workspace() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 33);
        let log = logged_session(&truth);
        let config = VeritasConfig::paper_default();
        let direct = Abduction::infer(&log, &config);

        let capacities = config.capacity_grid();
        let rows: Vec<Vec<f64>> = log
            .records
            .iter()
            .map(|r| Abduction::emission_row(r, &capacities, config.sigma_mbps))
            .collect();
        let workspace = std::sync::Arc::new(veritas_ehmm::EhmmWorkspace::new(Abduction::spec_for(
            &config,
        )));
        let a =
            Abduction::try_infer_prepared(&log, &config, rows.clone(), workspace.clone()).unwrap();
        let b = Abduction::try_infer_prepared(&log, &config, rows, workspace.clone()).unwrap();
        assert_eq!(a.viterbi_states(), direct.viterbi_states());
        assert_eq!(a.posteriors(), direct.posteriors());
        assert_eq!(a.sample_traces(2), direct.sample_traces(2));
        assert!(
            std::sync::Arc::ptr_eq(a.workspace(), b.workspace()),
            "prepared abductions must share the caller's workspace"
        );
        assert!(
            !std::sync::Arc::ptr_eq(a.workspace(), direct.workspace()),
            "the direct path builds its own workspace"
        );
    }

    #[test]
    fn seeded_sampling_matches_configured_seed_and_diverges_otherwise() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 44);
        let log = logged_session(&truth);
        let config = VeritasConfig::paper_default();
        let ab = Abduction::infer(&log, &config);
        assert_eq!(
            ab.sample_traces(3),
            ab.sample_traces_with_seed(3, config.seed)
        );
        assert_ne!(
            ab.sample_traces_with_seed(3, config.seed),
            ab.sample_traces_with_seed(3, config.seed + 1),
            "different seeds should explore different posterior paths"
        );
    }

    /// A stored posterior whose parse hands back `posteriors`, with the
    /// gaps the restore passes it; `parsed` counts the parses.
    fn stored(posteriors: Posteriors, parsed: &Arc<AtomicUsize>) -> StoredPosteriors {
        let (num_obs, num_states) = (posteriors.alpha.len(), posteriors.alpha.cols());
        let parsed = Arc::clone(parsed);
        StoredPosteriors::new(num_obs, num_states, posteriors.gaps.clone(), move |gaps| {
            parsed.fetch_add(1, Ordering::SeqCst);
            Posteriors { gaps, ..posteriors }
        })
    }

    /// A stored posterior that must never be parsed: its restore is
    /// refused first.
    fn unparsed(num_obs: usize, num_states: usize, gaps: Vec<u32>) -> StoredPosteriors {
        StoredPosteriors::new(num_obs, num_states, gaps, |_| {
            panic!("a refused restore parses nothing")
        })
    }

    #[test]
    fn from_parts_restores_an_identical_abduction_without_inference() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 77);
        let log = logged_session(&truth);
        let config = VeritasConfig::paper_default();
        let original = Abduction::infer(&log, &config);
        let parsed = Arc::new(AtomicUsize::new(0));
        let restored = Abduction::from_parts(
            &log,
            log.records.len(),
            &config,
            original.workspace().clone(),
            original.viterbi().clone(),
            stored(original.posteriors().clone(), &parsed),
        )
        .unwrap();
        assert_eq!(restored.viterbi_states(), original.viterbi_states());
        assert_eq!(restored.num_obs(), original.num_obs());
        assert_eq!(restored.start_intervals(), original.start_intervals());
        assert_eq!(restored.total_intervals(), original.total_intervals());
        assert_eq!(restored.viterbi_trace(), original.viterbi_trace());
        assert_eq!(
            parsed.load(Ordering::SeqCst),
            0,
            "Viterbi reads parse nothing"
        );
        assert_eq!(restored.posteriors(), original.posteriors());
        assert_eq!(restored.sample_traces(3), original.sample_traces(3));
        assert_eq!(parsed.load(Ordering::SeqCst), 1, "the parse runs once");
        assert!(
            std::sync::Arc::ptr_eq(restored.workspace(), original.workspace()),
            "restoration must reuse the caller's shared kernel workspace"
        );
    }

    /// Every restore check runs in `from_parts`, before any parse. A
    /// stored part that disagrees with the stored shape (a mis-shaped
    /// matrix, a total too few or too many) cannot reach this layer: the
    /// engine's `.vpost` decoder refuses it, as its test
    /// `a_stored_part_that_does_not_fit_is_refused_at_load` checks.
    #[test]
    fn from_parts_rejects_artifacts_that_do_not_fit_the_log() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 78);
        let log = logged_session(&truth);
        let config = VeritasConfig::paper_default();
        let ab = Abduction::infer(&log, &config);
        let (rows, cols) = (log.records.len(), ab.capacity_grid().len());
        let gaps = ab.posteriors().gaps.clone();
        let restore = |log: &SessionLog, viterbi: ViterbiResult, stored: StoredPosteriors| {
            let horizon = log.records.len();
            Abduction::from_parts(
                log,
                horizon,
                &config,
                ab.workspace().clone(),
                viterbi,
                stored,
            )
        };

        // A truncated log: every stored shape is now one chunk too long.
        let mut shorter = log.clone();
        shorter.records.pop();
        let err = restore(
            &shorter,
            ab.viterbi().clone(),
            unparsed(rows, cols, gaps.clone()),
        )
        .unwrap_err();
        assert!(matches!(err, AbductionError::InconsistentParts(_)), "{err}");

        // An out-of-grid Viterbi state.
        let mut bad_viterbi = ab.viterbi().clone();
        bad_viterbi.path[0] = cols;
        assert!(matches!(
            restore(&log, bad_viterbi, unparsed(rows, cols, gaps.clone())),
            Err(AbductionError::InconsistentParts(_))
        ));

        // A stored shape other than the log's chunks by the grid's states.
        let rejects = |num_obs: usize, num_states: usize, gaps: Vec<u32>| {
            matches!(
                restore(
                    &log,
                    ab.viterbi().clone(),
                    unparsed(num_obs, num_states, gaps)
                ),
                Err(AbductionError::InconsistentParts(_))
            )
        };
        for (r, c) in [(rows - 1, cols), (rows + 1, cols), (rows, cols - 1)] {
            assert!(rejects(r, c, gaps.clone()), "stored shape {r}x{c}");
        }
        // Gaps that do not match the log's interval layout: a changed gap,
        // a shifted one, and one too few.
        let mut changed = gaps.clone();
        changed[1] += 1;
        assert!(rejects(rows, cols, changed));
        let mut shifted = gaps.clone();
        shifted.rotate_left(1);
        assert!(rejects(rows, cols, shifted));
        let mut fewer = gaps.clone();
        fewer.pop();
        assert!(rejects(rows, cols, fewer));
        // The untouched parts still restore.
        let parsed = Arc::new(AtomicUsize::new(0));
        let restored = restore(
            &log,
            ab.viterbi().clone(),
            stored(ab.posteriors().clone(), &parsed),
        )
        .expect("the untouched parts restore");
        assert_eq!(restored.posteriors(), ab.posteriors());
    }

    #[test]
    fn inference_decodes_viterbi_only_and_smooths_once_on_first_use() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 21);
        let log = logged_session(&truth);
        let config = VeritasConfig::paper_default();
        let ab = Abduction::infer(&log, &config);
        assert!(!ab.is_smoothed(), "inference must not run forward-backward");
        // Viterbi-only consumers leave the posterior unsmoothed.
        let _ = ab.viterbi_trace();
        assert!(!ab.is_smoothed());

        let capacities = config.capacity_grid();
        let rows = log
            .records
            .iter()
            .map(|r| Abduction::emission_row(r, &capacities, config.sigma_mbps))
            .collect();
        let (_, gaps, _) = interval_layout(&log.records, log.session_duration_s, &config).unwrap();
        let eager = ab
            .workspace()
            .forward_backward(&EmissionTable::new(rows, gaps));
        assert_eq!(ab.posteriors(), &eager);
        assert!(ab.is_smoothed());
        assert!(
            ab.pending.lock().unwrap().is_none(),
            "the emission table is dropped once smoothing has run"
        );
        assert!(std::ptr::eq(ab.posteriors(), ab.posteriors()));

        // A restored abduction never smooths: its posteriors are available
        // at once, and parsed on the first read.
        let parsed = Arc::new(AtomicUsize::new(0));
        let restored = Abduction::from_parts(
            &log,
            log.records.len(),
            &config,
            ab.workspace().clone(),
            ab.viterbi().clone(),
            stored(eager, &parsed),
        )
        .unwrap();
        assert!(restored.is_smoothed());
        assert!(restored.pending.lock().unwrap().is_some());
        assert_eq!(parsed.load(Ordering::SeqCst), 0);
        assert_eq!(restored.posteriors(), ab.posteriors());
        assert!(restored.is_smoothed());
        assert!(restored.pending.lock().unwrap().is_none());
        assert_eq!(parsed.load(Ordering::SeqCst), 1);
    }

    /// A workspace built for another state count or another stay
    /// probability is a caller bug both constructors refuse, checked in
    /// place.
    #[test]
    fn a_workspace_for_another_spec_panics_in_both_constructors() {
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 21);
        let log = logged_session(&truth);
        let config = VeritasConfig::paper_default();
        let ab = Abduction::infer(&log, &config);
        let capacities = config.capacity_grid();
        let rows: Vec<Vec<f64>> = log
            .records
            .iter()
            .map(|r| Abduction::emission_row(r, &capacities, config.sigma_mbps))
            .collect();
        let mut more_states = config;
        more_states.max_capacity_mbps += config.epsilon_mbps;
        let mut other_stay = config;
        other_stay.stay_probability = 0.5;
        for other in [more_states, other_stay] {
            let workspace = Arc::new(EhmmWorkspace::new(Abduction::spec_for(&other)));
            assert_ne!(workspace.spec(), &Abduction::spec_for(&config));
            let infer = std::panic::catch_unwind(|| {
                Abduction::try_infer_prepared(&log, &config, rows.clone(), workspace.clone())
            });
            let restore = std::panic::catch_unwind(|| {
                Abduction::from_parts(
                    &log,
                    log.records.len(),
                    &config,
                    workspace.clone(),
                    ab.viterbi().clone(),
                    unparsed(rows.len(), capacities.len(), ab.posteriors().gaps.clone()),
                )
            });
            for outcome in [infer.map(|_| ()), restore.map(|_| ())] {
                let message = outcome.expect_err("a mismatched workspace panics");
                let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(message, "workspace spec does not match the configuration");
            }
        }
        // The workspace the config implies is accepted by both.
        let workspace = Arc::new(EhmmWorkspace::new(Abduction::spec_for(&config)));
        assert!(Abduction::try_infer_prepared(&log, &config, rows, workspace).is_ok());
    }

    proptest::proptest! {
        /// A table of predicted-throughput rows, turned into emission rows
        /// through the Gaussian half, reproduces `emission_row` and the
        /// estimator's own `emission_log_density` bit for bit, whatever
        /// the record, grid and σ.
        #[test]
        fn rows_derived_from_a_throughput_table_are_bit_identical(
            records in proptest::collection::vec(
                (
                    (0.0f64..=7.0, 0.0f64..60.0),
                    (1.0f64..300.0, 1.0f64..3000.0),
                    (0.2f64..2.0, 0.005f64..0.4, 1.0f64..2.0),
                    (0u8..3, 0.0f64..1.0, 1.0f64..20.0),
                ),
                1..8,
            ),
            (epsilon, ceiling, sigma) in (0.05f64..1.0, 1.0f64..80.0, 0.01f64..5.0),
            cut in 0.0f64..1.0,
        ) {
            let records: Vec<ChunkRecord> = records
                .into_iter()
                .map(|(size, (cwnd, ssthresh), (rto, min_rtt, srtt_scale), gap)| {
                    let ((size_exp, observed), (gap_kind, below, past)) = (size, gap);
                    let last_send_gap_s = match gap_kind {
                        0 => below * rto,
                        1 => past * rto,
                        _ => f64::INFINITY,
                    };
                    ChunkRecord {
                        index: 0,
                        quality: 0,
                        // 1 B to 10 MB, log-uniform.
                        size_bytes: 10f64.powf(size_exp),
                        ssim: 0.9,
                        wait_before_request_s: 0.0,
                        start_time_s: 0.0,
                        end_time_s: 1.0,
                        download_time_s: 1.0,
                        throughput_mbps: observed,
                        buffer_at_request_s: 0.0,
                        rebuffer_s: 0.0,
                        tcp_info: veritas_net::TcpInfo {
                            cwnd_segments: cwnd,
                            ssthresh_segments: ssthresh,
                            rto_s: rto,
                            srtt_s: min_rtt * srtt_scale,
                            min_rtt_s: min_rtt,
                            last_send_gap_s,
                        },
                        gtbw_at_request_mbps: 0.0,
                    }
                })
                .collect();
            // Ceilings that are and are not multiples of ε.
            let capacities = Quantizer::new(epsilon, epsilon * ceiling).values();
            let table: Vec<Vec<f64>> = records
                .iter()
                .map(|r| Abduction::predicted_throughput_row(r, &capacities))
                .collect();
            let horizon = 1 + (cut * (records.len() - 1) as f64) as usize;
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            for (record, predicted) in records[..horizon].iter().zip(&table) {
                let derived = Abduction::emission_row_from_predicted(record.throughput_mbps, predicted, sigma);
                let direct = Abduction::emission_row(record, &capacities, sigma);
                let density: Vec<f64> = capacities
                    .iter()
                    .map(|&c| {
                        veritas_net::emission_log_density(
                            record.throughput_mbps,
                            c,
                            &record.tcp_info,
                            record.size_bytes,
                            sigma,
                        )
                    })
                    .collect();
                proptest::prop_assert_eq!(bits(&derived), bits(&direct));
                proptest::prop_assert_eq!(bits(&derived), bits(&density));
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty session")]
    fn rejects_empty_logs() {
        let log = SessionLog {
            abr_name: "MPC".into(),
            buffer_capacity_s: 5.0,
            chunk_duration_s: 2.0,
            records: vec![],
            startup_delay_s: 0.0,
            total_rebuffer_s: 0.0,
            session_duration_s: 0.0,
        };
        let _ = Abduction::infer(&log, &VeritasConfig::paper_default());
    }
}
