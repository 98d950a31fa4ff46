//! The abduction cache: one EHMM posterior per (session, config, horizon).
//!
//! Abduction — building the emission table and running Viterbi and
//! forward–backward — is the expensive step of every causal query.
//! Interventional and counterfactual queries over the same session under
//! the same configuration need the *same* posterior, so the engine computes
//! it once and shares it. Entries are keyed by the session id, fingerprints
//! of the posterior-relevant [`VeritasConfig`] fields and of the log's
//! observed variables (so a reused id never aliases a different corpus's
//! session), and the observation horizon (number of chunk records
//! conditioned on; interventional queries at an explicit decision point
//! condition on a prefix).
//!
//! An inferred entry holds its Viterbi decode; forward–backward runs on
//! the entry's first posterior read (see [`Abduction::posteriors`]), so
//! interventional units, which read only the last Viterbi state, never
//! smooth. The costly half of the emission rows, the estimator's predicted
//! throughput `f(c, W_n, S_n)`, depends on neither σ nor the horizon: the
//! cache keeps one such table per (log, capacity grid) and derives every
//! entry's rows from it.
//!
//! Concurrency: the map itself is only locked long enough to find or insert
//! an entry slot; inference runs under the slot's own lock, so two workers
//! asking for the same key never compute it twice, and workers on different
//! keys never wait on each other's inference.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use veritas::{Abduction, AbductionError, VeritasConfig};
use veritas_ehmm::EhmmWorkspace;
use veritas_player::{ChunkRecord, SessionLog};

use crate::persist::{DiskStore, PersistKey};

/// FNV-1a offset basis — the seed of every fingerprint in this module.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Mixes one 64-bit word into an FNV-1a hash, byte by byte. The single
/// implementation behind [`config_fingerprint`], [`log_fingerprint`],
/// [`combine_fingerprints`], and the corpus deployed-setting fingerprint,
/// so the hashing can never diverge between them.
pub(crate) fn fnv_mix(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Mixes one `f64` into a fingerprint by **canonical** bit pattern:
/// `-0.0` hashes as `+0.0` and every NaN payload as the one canonical NaN.
/// Raw `to_bits` would split semantically identical configs/logs into
/// distinct cache keys — a silent in-memory cache split, and a stale
/// identity once fingerprints become durable file names on disk
/// ([`crate::persist`]). Every fingerprint in this crate mixes floats
/// through this function.
pub(crate) fn fnv_mix_f64(hash: &mut u64, value: f64) {
    fnv_mix(hash, canonical_bits(value));
}

/// The bit pattern [`fnv_mix_f64`] mixes for `value`: `+0.0` for either
/// zero, the one canonical NaN for every NaN payload, otherwise the raw
/// bits.
pub(crate) fn canonical_bits(value: f64) -> u64 {
    if value == 0.0 {
        0.0_f64.to_bits()
    } else if value.is_nan() {
        f64::NAN.to_bits()
    } else {
        value.to_bits()
    }
}

/// Fingerprints the configuration fields the abduction posterior depends
/// on: δ, ε, the grid ceiling, σ, and the stay probability. `num_samples`
/// and `seed` are deliberately excluded — they only steer post-hoc
/// posterior *sampling* (see [`Abduction::sample_traces_with_seed`]), so
/// queries that differ only in sampling still share one cache entry.
/// Equal-valued configs always share a fingerprint (zeros and NaNs are
/// canonicalized).
pub fn config_fingerprint(config: &VeritasConfig) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv_mix_f64(&mut hash, config.delta_s);
    fnv_mix_f64(&mut hash, config.epsilon_mbps);
    fnv_mix_f64(&mut hash, config.max_capacity_mbps);
    fnv_mix_f64(&mut hash, config.sigma_mbps);
    fnv_mix_f64(&mut hash, config.stay_probability);
    hash
}

/// Fingerprints a capacity grid, the part of a configuration a
/// predicted-throughput table depends on.
fn grid_fingerprint(capacities: &[f64]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv_mix(&mut hash, capacities.len() as u64);
    for &c in capacities {
        fnv_mix_f64(&mut hash, c);
    }
    hash
}

/// Fingerprints every observed variable of a log that abduction conditions
/// on: the session duration (sizes the δ-interval grid), and each record's
/// start time, size, throughput, and TCP snapshot (the emission's control
/// variables). Mixed into the cache key so that a session id reused by a
/// *different* log — e.g. two synthetic corpora both naming sessions
/// `session-0` — can never alias another corpus's posterior.
pub fn log_fingerprint(log: &SessionLog) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv_mix(&mut hash, log.records.len() as u64);
    fnv_mix_f64(&mut hash, log.session_duration_s);
    for record in &log.records {
        fnv_mix_f64(&mut hash, record.start_time_s);
        fnv_mix_f64(&mut hash, record.size_bytes);
        fnv_mix_f64(&mut hash, record.throughput_mbps);
        fnv_mix_f64(&mut hash, record.tcp_info.cwnd_segments);
        fnv_mix_f64(&mut hash, record.tcp_info.ssthresh_segments);
        fnv_mix_f64(&mut hash, record.tcp_info.rto_s);
        fnv_mix_f64(&mut hash, record.tcp_info.srtt_s);
        fnv_mix_f64(&mut hash, record.tcp_info.min_rtt_s);
        fnv_mix_f64(&mut hash, record.tcp_info.last_send_gap_s);
    }
    hash
}

/// Infers an abduction over the first `horizon` records of `log` with a
/// fresh [`EhmmWorkspace`]. A cache miss runs the same inference through
/// the cache's shared workspace for its config (see
/// [`AbductionCache::workspace_for`]), so sessions inferred under one
/// configuration reuse the same transition/log-power kernels.
///
/// # Panics
///
/// Panics if `horizon` exceeds the log's record count; callers validate
/// query-supplied horizons first (see `Engine::answer_interventional`).
pub fn infer_prefix(
    log: &SessionLog,
    horizon: usize,
    config: &VeritasConfig,
) -> Result<Abduction, AbductionError> {
    infer_prefix_with(
        log,
        horizon,
        config,
        |capacities| Arc::new(predicted_throughputs(&log.records[..horizon], capacities)),
        || Arc::new(EhmmWorkspace::new(Abduction::spec_for(config))),
    )
}

/// [`infer_prefix`] with explicit providers of the predicted-throughput
/// table (at least `horizon` rows over the config's capacity grid) and of
/// the workspace for `config`. Both are only invoked after the config
/// validates and the horizon is checked, so they may build grid- and
/// spec-derived state without re-checking.
fn infer_prefix_with(
    log: &SessionLog,
    horizon: usize,
    config: &VeritasConfig,
    table: impl FnOnce(&[f64]) -> Arc<ThroughputTable>,
    workspace: impl FnOnce() -> Arc<EhmmWorkspace>,
) -> Result<Abduction, AbductionError> {
    config.validate().map_err(AbductionError::InvalidConfig)?;
    let view = prefix_view(log, horizon);
    if view.records.is_empty() {
        return Err(AbductionError::EmptySession);
    }
    let table = table(&config.capacity_grid());
    let rows = view
        .records
        .iter()
        .zip(table.iter())
        .map(|(record, predicted)| {
            Abduction::emission_row_from_predicted(record, predicted, config.sigma_mbps)
        })
        .collect();
    Abduction::try_infer_prepared(&view, config, rows, workspace())
}

/// The first `horizon` records of `log` as a borrowed view when the
/// horizon covers the whole log, or an owned truncated copy otherwise.
/// Shared by fresh inference and the disk warm-start path, so both
/// condition on exactly the same prefix.
///
/// # Panics
///
/// Panics if `horizon` exceeds the log's record count; callers validate
/// query-supplied horizons first (see `Engine::answer_interventional`).
fn prefix_view(log: &SessionLog, horizon: usize) -> std::borrow::Cow<'_, SessionLog> {
    assert!(
        horizon <= log.records.len(),
        "horizon {horizon} exceeds the log's {} records",
        log.records.len()
    );
    if horizon == log.records.len() {
        std::borrow::Cow::Borrowed(log)
    } else {
        std::borrow::Cow::Owned(log.prefix(horizon))
    }
}

/// Predicted throughputs `f(c, W_n, S_n)`: one row per chunk record, one
/// column per capacity-grid value ([`Abduction::predicted_throughput_row`]).
type ThroughputTable = Vec<Vec<f64>>;

/// Builds the predicted-throughput table of `records` over `capacities`,
/// serially: the engine already runs one unit per executor worker.
fn predicted_throughputs(records: &[ChunkRecord], capacities: &[f64]) -> ThroughputTable {
    records
        .iter()
        .map(|r| Abduction::predicted_throughput_row(r, capacities))
        .collect()
}

/// Order-sensitive fold of fingerprints (per-session [`log_fingerprint`]s
/// plus the deployed-setting fingerprint) into one corpus-content
/// fingerprint. A [`crate::QueryPlan`] records it at compile time so a
/// submit over a *different* corpus that happens to have the same session
/// count is rejected instead of replaying wrong scenarios against wrong
/// logs.
pub(crate) fn combine_fingerprints(fps: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for fp in fps {
        fnv_mix(&mut hash, fp);
    }
    hash
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    session: String,
    fingerprint: u64,
    log: u64,
    horizon: usize,
}

type Slot = Arc<Mutex<Option<Arc<Abduction>>>>;

/// A compute-once slot holding one log's predicted-throughput table.
type TableSlot = Arc<Mutex<Option<Arc<ThroughputTable>>>>;

/// Where a cache lookup's posterior came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Served from an in-memory slot — no work at all.
    Memory,
    /// Restored from the persistent store ([`crate::persist::DiskStore`])
    /// — a file read and shape validation, but zero EHMM inference.
    Disk,
    /// Computed by running Viterbi (forward–backward follows on the
    /// entry's first posterior read).
    Inferred,
}

impl CacheSource {
    /// The wire label result records carry (`"hit"`, `"disk"`, `"miss"`).
    pub fn label(self) -> &'static str {
        match self {
            CacheSource::Memory => "hit",
            CacheSource::Disk => "disk",
            CacheSource::Inferred => "miss",
        }
    }
}

/// Counters describing how a cache has been used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from an in-memory posterior.
    pub hits: u64,
    /// Lookups that had to run inference.
    pub misses: u64,
    /// Lookups served by restoring a posterior from the disk store
    /// (counted separately from `hits` so warm starts are observable).
    pub disk_hits: u64,
    /// Posteriors currently held in memory.
    pub entries: u64,
    /// Corrupt disk entries detected, deleted, and (via re-inference +
    /// write-through) rewritten — the disk tier's self-heals.
    pub healed: u64,
    /// `A^Δ` transition kernels restored from a persisted kernel table
    /// (`.vkern`) instead of being recomputed by repeated matrix
    /// squaring — the workspace-level analogue of `disk_hits`.
    pub kernel_disk_hits: u64,
}

/// A concurrent, compute-once cache of [`Abduction`] results.
///
/// Besides the posterior slots, the cache keeps one shared
/// [`EhmmWorkspace`] per configuration fingerprint: every session inferred
/// under the same config reuses the same memoized `A^Δ` / `ln A^Δ`
/// transition kernels, across the whole batch executor. It also keeps one
/// predicted-throughput table (N×K) per (log fingerprint, capacity grid)
/// that some posterior slot was inferred from, built over the whole log on
/// its first inference: every horizon of that log, and every config that
/// differs only in σ or the stay probability, derives its emission rows
/// from the one table through the Gaussian noise model.
///
/// With [`Self::with_disk_store`] the in-memory slots gain a persistent
/// tier: an in-memory miss first tries to restore the posterior from the
/// store (counted as a *disk hit*), and a genuinely inferred posterior is
/// smoothed and written through so the next process warm-starts. Disk
/// problems are silent misses by design ([`DiskStore`]); a *corrupt* entry
/// is additionally deleted so the re-inference + write-through repairs it
/// in place, counted in [`CacheStats::healed`].
#[derive(Debug, Default)]
pub struct AbductionCache {
    slots: Mutex<HashMap<CacheKey, Slot>>,
    workspaces: Mutex<HashMap<u64, Arc<EhmmWorkspace>>>,
    /// Predicted-throughput tables keyed by (log fingerprint, grid
    /// fingerprint).
    tables: Mutex<HashMap<(u64, u64), TableSlot>>,
    /// Kernel count last written through to the store per config
    /// fingerprint, so the kernel table is only rewritten when the
    /// workspace has actually grown new gaps.
    kernel_saves: Mutex<HashMap<u64, usize>>,
    disk: Option<DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    entries: AtomicU64,
    healed: AtomicU64,
    kernel_disk_hits: AtomicU64,
}

impl AbductionCache {
    /// Creates an empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a persistent disk tier: in-memory misses try the store
    /// first, and inferred posteriors are written through to it.
    pub fn with_disk_store(mut self, store: DiskStore) -> Self {
        self.attach_disk_store(store);
        self
    }

    /// [`Self::with_disk_store`] for a cache that already exists —
    /// keeps its posteriors, workspaces, and counters.
    pub fn attach_disk_store(&mut self, store: DiskStore) {
        self.disk = Some(store);
    }

    /// Returns the cached abduction of `session_id`'s log conditioned on
    /// its first `horizon` chunk records (`horizon == log.records.len()`
    /// for the full session, a decision-point prefix for interventional
    /// queries) under `config`, inferring (and caching) it on first use,
    /// plus where it came from.
    ///
    /// The caller supplies the log and config fingerprints: the executor
    /// computes both once per session / per planned config (see
    /// [`crate::QueryPlan::configs`]) instead of re-hashing the full log
    /// on every lookup. They **must** be [`log_fingerprint`]`(log)` and
    /// [`config_fingerprint`]`(config)` or cache entries will alias — in
    /// memory *and* on disk, where the `(log_fp, config_fp, horizon)`
    /// triple is the entry's whole identity.
    ///
    /// Inference failures are returned (and counted as misses) but not
    /// cached, so a transiently bad query does not poison the slot.
    pub fn get_or_infer_keyed(
        &self,
        session_id: &str,
        log: &SessionLog,
        log_fp: u64,
        horizon: usize,
        config: &VeritasConfig,
        config_fp: u64,
    ) -> Result<(Arc<Abduction>, CacheSource), AbductionError> {
        let key = CacheKey {
            session: session_id.to_string(),
            fingerprint: config_fp,
            log: log_fp,
            horizon,
        };
        let fingerprint = key.fingerprint;
        let slot: Slot = {
            let mut slots = self.slots.lock();
            slots.entry(key).or_default().clone()
        };
        let mut guard = slot.lock();
        if let Some(abduction) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((abduction.clone(), CacheSource::Memory));
        }
        let persist_key = PersistKey {
            log: log_fp,
            config: config_fp,
            horizon,
        };
        if let Some(abduction) = self.load_from_disk(&persist_key, log, horizon, config) {
            let abduction = Arc::new(abduction);
            *guard = Some(abduction.clone());
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.entries.fetch_add(1, Ordering::Relaxed);
            return Ok((abduction, CacheSource::Disk));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let abduction = Arc::new(infer_prefix_with(
            log,
            horizon,
            config,
            |capacities| self.throughput_table(log_fp, log, capacities),
            || self.workspace_keyed(fingerprint, config),
        )?);
        *guard = Some(abduction.clone());
        self.entries.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            // Write-through is best-effort: a full or read-only cache
            // directory degrades to memory-only caching, it never fails
            // the query. Saving reads the posteriors, so it smooths the
            // entry first.
            let _ = disk.save(&persist_key, &abduction);
            // Piggyback the kernel table: the inference above may have
            // materialized new gaps worth warm-starting the next process
            // with.
            self.persist_kernels(fingerprint, abduction.workspace());
        }
        Ok((abduction, CacheSource::Inferred))
    }

    /// Attempts a disk restore for one key. Validates the config and
    /// builds the horizon view exactly as inference would, so a restored
    /// posterior is checked against the same log prefix a fresh one would
    /// condition on. Every failure mode is a `None` (miss).
    fn load_from_disk(
        &self,
        key: &PersistKey,
        log: &SessionLog,
        horizon: usize,
        config: &VeritasConfig,
    ) -> Option<Abduction> {
        let disk = self.disk.as_ref()?;
        if config.validate().is_err() || horizon > log.records.len() {
            // Let the inference path produce the typed error.
            return None;
        }
        let view = prefix_view(log, horizon);
        if view.records.is_empty() {
            return None;
        }
        let workspace = self.workspace_keyed(key.config, config);
        match disk.load_classified(key, &view, config, workspace) {
            crate::persist::DiskLoadOutcome::Restored(abduction) => Some(*abduction),
            crate::persist::DiskLoadOutcome::Missing => None,
            crate::persist::DiskLoadOutcome::Healed => {
                // The store deleted a corrupt entry under this key; the
                // miss path below re-infers and writes a fresh one back
                // through the same atomic rename, completing the heal.
                self.healed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The predicted-throughput table of `log` (whose fingerprint is
    /// `log_fp`) over the capacity grid `capacities`: built over the whole
    /// log on first use, then shared by every horizon and every config
    /// with the same grid. Concurrent first uses build it once.
    fn throughput_table(
        &self,
        log_fp: u64,
        log: &SessionLog,
        capacities: &[f64],
    ) -> Arc<ThroughputTable> {
        let slot: TableSlot = {
            let mut tables = self.tables.lock();
            let key = (log_fp, grid_fingerprint(capacities));
            tables.entry(key).or_default().clone()
        };
        let mut table = slot.lock();
        table
            .get_or_insert_with(|| Arc::new(predicted_throughputs(&log.records, capacities)))
            .clone()
    }

    /// The shared inference workspace for `config`, created on first use
    /// and keyed by the config fingerprint. All abductions the cache runs
    /// for this configuration resolve their transition kernels through it.
    ///
    /// # Panics
    ///
    /// Panics on an invalid grid configuration; the inference entry points
    /// validate before calling this.
    pub fn workspace_for(&self, config: &VeritasConfig) -> Arc<EhmmWorkspace> {
        self.workspace_keyed(config_fingerprint(config), config)
    }

    /// [`Self::workspace_for`] under `config`'s known fingerprint. The
    /// model spec is built only when the workspace is created.
    fn workspace_keyed(&self, fingerprint: u64, config: &VeritasConfig) -> Arc<EhmmWorkspace> {
        let mut workspaces = self.workspaces.lock();
        if let Some(workspace) = workspaces.get(&fingerprint) {
            return workspace.clone();
        }
        let workspace = Arc::new(EhmmWorkspace::new(Abduction::spec_for(config)));
        // A fresh workspace warm-starts from the persisted kernel table
        // of its config, skipping the repeated-squaring matrix powers a
        // cold process would otherwise recompute per distinct gap. Like
        // every disk read here, failure is a silent miss.
        if let Some(disk) = &self.disk {
            if let Some(kernels) = disk.load_kernels(fingerprint, workspace.spec().num_states()) {
                let mut restored: u64 = 0;
                for (gap, matrix) in kernels {
                    if workspace.preload_kernel(gap, matrix) {
                        restored += 1;
                    }
                }
                self.kernel_disk_hits.fetch_add(restored, Ordering::Relaxed);
                self.kernel_saves
                    .lock()
                    .insert(fingerprint, workspace.cached_gaps());
            }
        }
        workspaces.insert(fingerprint, workspace.clone());
        workspace
    }

    /// Writes the workspace's kernel table through to the disk store when
    /// it has materialized gaps the store has not seen — called after
    /// each inferred write-through, so a warm restart skips the matrix
    /// powers too, not just the posteriors. Best-effort like every disk
    /// write.
    fn persist_kernels(&self, fingerprint: u64, workspace: &Arc<EhmmWorkspace>) {
        let Some(disk) = &self.disk else { return };
        let mut saved = self.kernel_saves.lock();
        let last = saved.entry(fingerprint).or_insert(0);
        if workspace.cached_gaps() <= *last {
            return;
        }
        let kernels = workspace.export_kernels();
        if kernels.is_empty() {
            return;
        }
        let count = kernels.len();
        if disk.save_kernels(fingerprint, &kernels).is_ok() {
            *last = count;
        }
    }

    /// Lookups served from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran inference so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups served by restoring a posterior from disk so far.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Number of cached posteriors. Maintained as a counter so reading it
    /// never waits on an in-flight inference's slot lock.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Corrupt disk entries this cache has healed (deleted + rewritten)
    /// so far.
    pub fn healed(&self) -> u64 {
        self.healed.load(Ordering::Relaxed)
    }

    /// Transition kernels restored from persisted kernel tables so far.
    pub fn kernel_disk_hits(&self) -> u64 {
        self.kernel_disk_hits.load(Ordering::Relaxed)
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            disk_hits: self.disk_hits(),
            entries: self.entries(),
            healed: self.healed(),
            kernel_disk_hits: self.kernel_disk_hits(),
        }
    }

    /// Drops every cached posterior, every per-config kernel workspace and
    /// every predicted-throughput table, keeping the hit/miss counters
    /// (and any attached disk store — clearing memory does not delete
    /// persisted entries). The workspace table must go too: sweep queries
    /// register up to [`crate::MAX_SWEEP_VARIANTS`] configs, and a
    /// `clear()` that kept their `A^Δ` kernel tables would leak them for
    /// the cache's lifetime; the throughput tables exist only for logs
    /// that have slots.
    ///
    /// Not meant to race in-flight inferences: a posterior stored into an
    /// already-evicted slot survives only with its holder and is not
    /// reflected in [`Self::entries`].
    pub fn clear(&self) {
        self.slots.lock().clear();
        self.workspaces.lock().clear();
        self.tables.lock().clear();
        self.kernel_saves.lock().clear();
        self.entries.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veritas_abr::Mpc;
    use veritas_media::VideoAsset;
    use veritas_player::{run_session, PlayerConfig};
    use veritas_trace::generators::{FccLike, TraceGenerator};

    fn log() -> SessionLog {
        let asset = VideoAsset::paper_default(3);
        let truth = FccLike::new(3.0, 8.0).generate(600.0, 17);
        let mut abr = Mpc::new();
        run_session(&asset, &mut abr, &truth, &PlayerConfig::paper_default())
    }

    /// A lookup of `log`'s first `horizon` records through
    /// [`AbductionCache::get_or_infer_keyed`], with the fingerprints
    /// computed here.
    fn lookup_prefix(
        cache: &AbductionCache,
        session_id: &str,
        log: &SessionLog,
        horizon: usize,
        config: &VeritasConfig,
    ) -> Result<(Arc<Abduction>, CacheSource), AbductionError> {
        let (log_fp, config_fp) = (log_fingerprint(log), config_fingerprint(config));
        cache.get_or_infer_keyed(session_id, log, log_fp, horizon, config, config_fp)
    }

    /// [`lookup_prefix`] of the full session.
    fn lookup(
        cache: &AbductionCache,
        session_id: &str,
        log: &SessionLog,
        config: &VeritasConfig,
    ) -> Result<(Arc<Abduction>, CacheSource), AbductionError> {
        lookup_prefix(cache, session_id, log, log.records.len(), config)
    }

    #[test]
    fn fingerprint_ignores_sampling_fields_only() {
        let base = VeritasConfig::paper_default();
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_samples(9).with_seed(123))
        );
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_sigma(1.0))
        );
        assert_ne!(
            config_fingerprint(&base),
            config_fingerprint(&base.with_stay_probability(0.9))
        );
    }

    #[test]
    fn fingerprints_canonicalize_zeros_and_nans() {
        // `-0.0 == 0.0` but their bit patterns differ; raw `to_bits`
        // hashing split semantically identical configs into distinct
        // (soon durable, on-disk) identities. Same for NaN payloads.
        let base = VeritasConfig::paper_default();
        let mut zero_plus = base;
        let mut zero_minus = base;
        zero_plus.sigma_mbps = 0.0;
        zero_minus.sigma_mbps = -0.0;
        assert_eq!(
            config_fingerprint(&zero_plus),
            config_fingerprint(&zero_minus),
            "-0.0 and +0.0 must share a fingerprint"
        );
        let mut log_plus = log();
        let mut log_minus = log_plus.clone();
        log_plus.records[0].start_time_s = 0.0;
        log_minus.records[0].start_time_s = -0.0;
        assert_eq!(log_fingerprint(&log_plus), log_fingerprint(&log_minus));
        // Different NaN payloads canonicalize to one identity.
        let nan_a = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan_b = f64::from_bits(0xFFF8_DEAD_BEEF_0001);
        assert!(nan_a.is_nan() && nan_b.is_nan());
        let mut log_nan_a = log();
        let mut log_nan_b = log_nan_a.clone();
        log_nan_a.records[0].tcp_info.srtt_s = nan_a;
        log_nan_b.records[0].tcp_info.srtt_s = nan_b;
        assert_eq!(log_fingerprint(&log_nan_a), log_fingerprint(&log_nan_b));
        // Canonicalization must not conflate distinct real values.
        assert_ne!(log_fingerprint(&log_nan_a), log_fingerprint(&log()));
    }

    #[test]
    fn second_lookup_hits_and_shares_the_posterior() {
        let cache = AbductionCache::new();
        let log = log();
        let config = VeritasConfig::paper_default();
        let (first, source1) = lookup(&cache, "s0", &log, &config).unwrap();
        let (second, source2) = lookup(&cache, "s0", &log, &config).unwrap();
        assert_eq!(source1, CacheSource::Inferred);
        assert_eq!(source2, CacheSource::Memory);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                disk_hits: 0,
                entries: 1,
                healed: 0,
                kernel_disk_hits: 0
            }
        );
    }

    #[test]
    fn distinct_sessions_horizons_and_configs_get_distinct_entries() {
        let cache = AbductionCache::new();
        let log = log();
        let config = VeritasConfig::paper_default();
        lookup(&cache, "a", &log, &config).unwrap();
        lookup(&cache, "b", &log, &config).unwrap();
        lookup_prefix(&cache, "a", &log, 10, &config).unwrap();
        lookup(&cache, "a", &log, &config.with_sigma(1.0)).unwrap();
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.entries(), 4);
        cache.clear();
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn clear_drops_the_workspace_table_too() {
        // Regression: `clear()` used to drop posterior slots but leave the
        // per-config `EhmmWorkspace` kernel tables, so sweep-heavy callers
        // (up to MAX_SWEEP_VARIANTS configs per sweep) accumulated tables
        // that survived every clear. The per-log throughput tables go with
        // them.
        let cache = AbductionCache::new();
        let log = log();
        let config = VeritasConfig::paper_default();
        let (before, _) = lookup(&cache, "s", &log, &config).unwrap();
        assert!(Arc::ptr_eq(
            before.workspace(),
            &cache.workspace_for(&config)
        ));
        let table = |cache: &AbductionCache| {
            cache.throughput_table(log_fingerprint(&log), &log, &config.capacity_grid())
        };
        let table_before = table(&cache);
        assert_eq!(cache.tables.lock().len(), 1);
        cache.clear();
        assert!(
            !Arc::ptr_eq(before.workspace(), &cache.workspace_for(&config)),
            "clear() must drop the kernel workspaces, not just the posteriors"
        );
        assert!(
            cache.tables.lock().is_empty(),
            "clear() must drop the throughput tables too"
        );
        assert!(!Arc::ptr_eq(&table_before, &table(&cache)));
    }

    #[test]
    fn horizons_and_noise_variants_share_one_throughput_table() {
        let cache = AbductionCache::new();
        let log = log();
        let config = VeritasConfig::paper_default();
        let n = log.records.len();
        let variants = [
            (n / 3, config),
            (n, config),
            (n / 2, config.with_sigma(1.0)),
            (n / 2, config.with_stay_probability(0.9)),
        ];
        for (horizon, variant) in variants {
            let (cached, source) = lookup_prefix(&cache, "s", &log, horizon, &variant).unwrap();
            assert_eq!(source, CacheSource::Inferred);
            assert!(!cached.is_smoothed(), "a memory-only miss must not smooth");
            // Rows derived from the shared table give the posterior a
            // standalone inference over the prefix gives.
            let direct = Abduction::try_infer(&log.prefix(horizon), &variant).unwrap();
            assert_eq!(cached.viterbi(), direct.viterbi());
            assert_eq!(cached.posteriors(), direct.posteriors());
        }
        assert_eq!(cache.tables.lock().len(), 1, "one table per (log, grid)");
        // A different grid gets its own table.
        let mut coarse = config;
        coarse.epsilon_mbps = 1.0;
        lookup(&cache, "s", &log, &coarse).unwrap();
        assert_eq!(cache.tables.lock().len(), 2);
    }

    #[test]
    fn racing_posterior_reads_smooth_once_and_match_an_eager_pass() {
        let cache = AbductionCache::new();
        let log = log();
        let config = VeritasConfig::paper_default();
        let horizon = log.records.len() / 2;
        let (abduction, _) = lookup_prefix(&cache, "s", &log, horizon, &config).unwrap();
        assert!(!abduction.is_smoothed());

        // The eager reference: forward–backward over the rows the cache
        // derives from its table, through the same workspace.
        let table = cache.throughput_table(log_fingerprint(&log), &log, &config.capacity_grid());
        let rows = log.records[..horizon]
            .iter()
            .zip(table.iter())
            .map(|(r, p)| Abduction::emission_row_from_predicted(r, p, config.sigma_mbps))
            .collect();
        let starts = abduction.start_intervals();
        let gaps = std::iter::once(0)
            .chain(starts.windows(2).map(|w| (w[1] - w[0]) as u32))
            .collect();
        let eager = cache
            .workspace_for(&config)
            .forward_backward(&veritas_ehmm::EmissionTable::new(rows, gaps));

        let bits = |p: &veritas_ehmm::Posteriors| -> Vec<u64> {
            [&p.gamma, &p.alpha, &p.beta, &p.emissions]
                .iter()
                .flat_map(|m| m.as_slice())
                .chain(&p.totals)
                .chain([&p.log_likelihood])
                .map(|v| v.to_bits())
                .collect()
        };
        let barrier = std::sync::Barrier::new(8);
        let seen: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let posteriors = abduction.posteriors();
                        assert_eq!(bits(posteriors), bits(&eager));
                        assert_eq!(posteriors.gaps, eager.gaps);
                        posteriors as *const _ as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "every thread must read the one smoothed posterior"
        );
        assert!(abduction.is_smoothed());
    }

    #[test]
    fn sampling_overrides_share_one_entry() {
        let cache = AbductionCache::new();
        let log = log();
        let base = VeritasConfig::paper_default();
        lookup(&cache, "s", &log, &base).unwrap();
        let (_, source) = lookup(&cache, "s", &log, &base.with_samples(2).with_seed(99)).unwrap();
        assert_eq!(
            source,
            CacheSource::Memory,
            "seed/sample overrides must not force re-inference"
        );
    }

    #[test]
    fn colliding_session_ids_from_different_logs_do_not_alias() {
        // Two corpora can both name a session `session-0`; the log
        // fingerprint in the key must keep their posteriors apart.
        let cache = AbductionCache::new();
        let log_a = log();
        let mut log_b = log_a.clone();
        log_b.records.truncate(log_b.records.len() - 1);
        let config = VeritasConfig::paper_default();
        let (a, source_a) = lookup(&cache, "session-0", &log_a, &config).unwrap();
        let (b, source_b) = lookup(&cache, "session-0", &log_b, &config).unwrap();
        assert_eq!(source_a, CacheSource::Inferred);
        assert_eq!(
            source_b,
            CacheSource::Inferred,
            "a different log must not hit the first log's entry"
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(log_fingerprint(&log_a), log_fingerprint(&log_b));
    }

    #[test]
    #[should_panic(expected = "exceeds the log's")]
    fn out_of_range_horizons_are_rejected() {
        let log = log();
        let _ = infer_prefix(&log, log.records.len() + 1, &VeritasConfig::paper_default());
    }

    #[test]
    fn failures_are_not_cached() {
        let cache = AbductionCache::new();
        let empty = SessionLog {
            records: vec![],
            ..log()
        };
        let config = VeritasConfig::paper_default();
        assert!(lookup(&cache, "e", &empty, &config).is_err());
        assert!(lookup(&cache, "e", &empty, &config).is_err());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn sessions_under_one_config_share_an_inference_workspace() {
        let cache = AbductionCache::new();
        let log_a = log();
        let mut log_b = log_a.clone();
        log_b.records.truncate(log_b.records.len() / 2);
        let config = VeritasConfig::paper_default();
        let (a, _) = lookup(&cache, "a", &log_a, &config).unwrap();
        let (b, _) = lookup(&cache, "b", &log_b, &config).unwrap();
        assert!(
            Arc::ptr_eq(a.workspace(), b.workspace()),
            "same config must resolve to one shared kernel workspace"
        );
        assert!(Arc::ptr_eq(a.workspace(), &cache.workspace_for(&config)));
        // A posterior-relevant config change gets its own workspace; a
        // sampling-only change does not.
        let (c, _) = lookup(&cache, "a", &log_a, &config.with_stay_probability(0.9)).unwrap();
        assert!(!Arc::ptr_eq(a.workspace(), c.workspace()));
        let (d, _) = lookup(&cache, "a", &log_a, &config.with_seed(999).with_samples(2)).unwrap();
        assert!(Arc::ptr_eq(a.workspace(), d.workspace()));
    }

    #[test]
    fn prefix_inference_matches_direct_inference() {
        // The executor-built emission path and the workspace plumbing must
        // not change results relative to plain `Abduction::try_infer`.
        let log = log();
        let config = VeritasConfig::paper_default();
        let via_engine = infer_prefix(&log, log.records.len(), &config).unwrap();
        let direct = veritas::Abduction::try_infer(&log, &config).unwrap();
        assert_eq!(via_engine.viterbi_states(), direct.viterbi_states());
        assert_eq!(via_engine.posteriors(), direct.posteriors());
        let half = log.records.len() / 2;
        let prefix_engine = infer_prefix(&log, half, &config).unwrap();
        let prefix_log = SessionLog {
            records: log.records[..half].to_vec(),
            ..log.clone()
        };
        let prefix_direct = veritas::Abduction::try_infer(&prefix_log, &config).unwrap();
        assert_eq!(
            prefix_engine.viterbi_states(),
            prefix_direct.viterbi_states()
        );
    }

    #[test]
    fn non_monotonic_logs_surface_as_typed_errors_not_panics() {
        let cache = AbductionCache::new();
        let mut bad = log();
        let n = bad.records.len() - 1;
        bad.records[n].start_time_s = 0.0;
        let config = VeritasConfig::paper_default();
        match lookup(&cache, "bad", &bad, &config) {
            Err(AbductionError::NonMonotonicLog { chunk }) => assert_eq!(chunk, n),
            other => panic!("expected NonMonotonicLog, got {other:?}"),
        }
        assert_eq!(cache.entries(), 0, "failures must not be cached");
    }

    proptest::proptest! {
        /// Equal-*valued* configs must share a fingerprint no matter which
        /// bit pattern represents the value: ±0.0 are one identity, every
        /// NaN payload is one identity, and any other value is keyed by
        /// its (unique) bit pattern.
        #[test]
        fn equal_valued_configs_share_a_fingerprint(
            class in 0u8..3,
            bits in proptest::any::<u64>(),
            payload in proptest::any::<u64>(),
            flip in proptest::any::<bool>(),
            field in 0usize..5,
        ) {
            const NAN_EXP: u64 = 0x7FF8_0000_0000_0000;
            const NAN_PAYLOAD: u64 = 0x0007_FFFF_FFFF_FFFF;
            let (value, twin) = match class {
                // The two zeros.
                0 => (0.0, if flip { -0.0 } else { 0.0 }),
                // Two NaNs with arbitrary payloads and signs.
                1 => (
                    f64::from_bits(NAN_EXP | (bits & NAN_PAYLOAD)),
                    f64::from_bits(
                        (u64::from(flip) << 63) | NAN_EXP | (payload & NAN_PAYLOAD),
                    ),
                ),
                // Any value is equal to itself.
                _ => (f64::from_bits(bits), f64::from_bits(bits)),
            };
            let mut a = VeritasConfig::paper_default();
            let mut b = a;
            let set = |c: &mut VeritasConfig, v: f64| match field {
                0 => c.delta_s = v,
                1 => c.epsilon_mbps = v,
                2 => c.max_capacity_mbps = v,
                3 => c.sigma_mbps = v,
                _ => c.stay_probability = v,
            };
            set(&mut a, value);
            set(&mut b, twin);
            proptest::prop_assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
            // The same canonicalization governs log fingerprints.
            let mut log_a = tiny_log();
            let mut log_b = log_a.clone();
            log_a.records[0].throughput_mbps = value;
            log_b.records[0].throughput_mbps = twin;
            proptest::prop_assert_eq!(log_fingerprint(&log_a), log_fingerprint(&log_b));
        }
    }

    /// A minimal hand-built log for fingerprint tests — cheap enough to
    /// construct once per property-test case (no session emulation).
    fn tiny_log() -> SessionLog {
        use veritas_player::ChunkRecord;
        let record = |index: usize, start: f64| ChunkRecord {
            index,
            quality: 1,
            size_bytes: 400_000.0,
            ssim: 0.95,
            wait_before_request_s: 0.0,
            start_time_s: start,
            end_time_s: start + 1.0,
            download_time_s: 1.0,
            throughput_mbps: 3.2,
            buffer_at_request_s: 2.0,
            rebuffer_s: 0.0,
            tcp_info: veritas_net::TcpInfo::fresh(0.08),
            gtbw_at_request_mbps: 4.0,
        };
        SessionLog {
            abr_name: "MPC".to_string(),
            buffer_capacity_s: 5.0,
            chunk_duration_s: 2.0,
            records: vec![record(0, 0.0), record(1, 2.0)],
            startup_delay_s: 1.0,
            total_rebuffer_s: 0.0,
            session_duration_s: 6.0,
        }
    }

    fn temp_store(name: &str) -> DiskStore {
        let dir = std::env::temp_dir().join(format!("veritas_cache_disk_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        DiskStore::open(dir).unwrap()
    }

    #[test]
    fn disk_tier_restores_posteriors_across_cache_instances() {
        let store = temp_store("restore");
        let dir = store.dir().to_path_buf();
        let log = log();
        let config = VeritasConfig::paper_default();

        let cold = AbductionCache::new().with_disk_store(store);
        let (inferred, source) = lookup(&cold, "s", &log, &config).unwrap();
        assert_eq!(source, CacheSource::Inferred);
        assert_eq!(cold.disk_hits(), 0);
        assert!(
            inferred.is_smoothed(),
            "the write-through smooths the entry"
        );

        // A fresh cache (fresh process, in effect) over the same directory
        // restores the posterior without inference.
        let warm = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
        let (restored, source) = lookup(&warm, "s", &log, &config).unwrap();
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(warm.misses(), 0, "the warm lookup must not infer");
        assert_eq!(restored.posteriors(), inferred.posteriors());
        assert_eq!(restored.viterbi_states(), inferred.viterbi_states());
        // Sampling — the consumer of the restored posterior — agrees too.
        assert_eq!(restored.sample_traces(3), inferred.sample_traces(3));
        // Once restored, the entry lives in memory.
        let (_, source) = lookup(&warm, "s", &log, &config).unwrap();
        assert_eq!(source, CacheSource::Memory);
        // The cold run wrote its kernel table through alongside the
        // posterior, so the warm workspace restored kernels from disk too.
        assert!(warm.kernel_disk_hits() > 0);
        assert_eq!(
            warm.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                disk_hits: 1,
                entries: 1,
                healed: 0,
                kernel_disk_hits: warm.kernel_disk_hits()
            }
        );
    }

    #[test]
    fn kernel_tables_restore_across_cache_instances() {
        let store = temp_store("kernels");
        let dir = store.dir().to_path_buf();
        let log = log();
        let config = VeritasConfig::paper_default();
        let vkern = store.kernel_path_for(config_fingerprint(&config));

        let cold = AbductionCache::new().with_disk_store(store);
        lookup(&cold, "s", &log, &config).unwrap();
        let cold_kernels = cold.workspace_for(&config).export_kernels();
        assert!(!cold_kernels.is_empty(), "inference materializes kernels");
        assert!(vkern.exists(), "the kernel table was written through");

        // A fresh cache restores every kernel before running anything, and
        // the restored matrices are bit-identical to the computed ones.
        let warm = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
        let workspace = warm.workspace_for(&config);
        assert_eq!(warm.kernel_disk_hits(), cold_kernels.len() as u64);
        let warm_kernels = workspace.export_kernels();
        assert_eq!(warm_kernels.len(), cold_kernels.len());
        for ((gap, matrix), (back_gap, back_matrix)) in cold_kernels.iter().zip(&warm_kernels) {
            assert_eq!(gap, back_gap);
            assert_eq!(matrix.num_states(), back_matrix.num_states());
            for i in 0..matrix.num_states() {
                let bits = |row: &[f64]| -> Vec<u64> { row.iter().map(|p| p.to_bits()).collect() };
                assert_eq!(bits(matrix.row(i)), bits(back_matrix.row(i)));
            }
        }

        // Inference *through* restored kernels is bit-identical. A log the
        // store has never seen forces the warm cache to actually infer
        // (disk entries are keyed by log fingerprint, not session id); the
        // reference runs in a memory-only cache whose workspace computes
        // every kernel from scratch.
        let mut other = log.clone();
        other.records[1].start_time_s = 4.0;
        other.session_duration_s = 8.0;
        let (warm_abduction, source) = lookup(&warm, "s2", &other, &config).unwrap();
        assert_eq!(source, CacheSource::Inferred);
        let reference = AbductionCache::new();
        let (ref_abduction, _) = lookup(&reference, "s2", &other, &config).unwrap();
        assert_eq!(warm_abduction.posteriors(), ref_abduction.posteriors());
        assert_eq!(
            warm_abduction.sample_traces(4),
            ref_abduction.sample_traces(4)
        );
    }

    #[test]
    fn corrupt_kernel_tables_do_not_poison_the_cache() {
        let store = temp_store("kernels_corrupt");
        let dir = store.dir().to_path_buf();
        let log = log();
        let config = VeritasConfig::paper_default();
        let vkern = store.kernel_path_for(config_fingerprint(&config));

        let cold = AbductionCache::new().with_disk_store(store);
        let (inferred, _) = lookup(&cold, "s", &log, &config).unwrap();
        let mut bytes = std::fs::read(&vkern).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&vkern, &bytes).unwrap();

        // The corrupt table is a silent miss: no kernel restores, the
        // posterior restore still works, and answers are unchanged.
        let warm = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
        let (restored, source) = lookup(&warm, "s", &log, &config).unwrap();
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(warm.kernel_disk_hits(), 0);
        assert_eq!(restored.posteriors(), inferred.posteriors());
        // The load deleted the corrupt file so a later write-through can
        // replace it cleanly.
        assert!(!vkern.exists());
    }

    #[test]
    fn truncated_or_garbage_disk_entries_are_misses() {
        let store = temp_store("corrupt");
        let dir = store.dir().to_path_buf();
        let log = log();
        let config = VeritasConfig::paper_default();
        let cold = AbductionCache::new().with_disk_store(store);
        lookup(&cold, "s", &log, &config).unwrap();

        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|ext| ext == "vpost"))
            .expect("the cold run must have persisted an entry");
        let bytes = std::fs::read(&entry).unwrap();

        for mangle in [
            &bytes[..bytes.len() / 2], // truncated
            b"total garbage".as_slice(),
            &[],
        ] {
            std::fs::write(&entry, mangle).unwrap();
            let warm = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
            let (_, source) = lookup(&warm, "s", &log, &config).unwrap();
            assert_eq!(
                source,
                CacheSource::Inferred,
                "a bad store entry must be a miss, never an error"
            );
            assert_eq!(warm.disk_hits(), 0);
            assert_eq!(warm.healed(), 1, "the corrupt entry must count as healed");
        }

        // The re-inference wrote the entry back; it restores again.
        let healed = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
        let (_, source) = lookup(&healed, "s", &log, &config).unwrap();
        assert_eq!(source, CacheSource::Disk);
    }

    #[test]
    fn disk_entries_do_not_serve_changed_logs_or_configs() {
        let store = temp_store("invalidate");
        let dir = store.dir().to_path_buf();
        let log_a = log();
        let config = VeritasConfig::paper_default();
        let cold = AbductionCache::new().with_disk_store(store);
        lookup(&cold, "s", &log_a, &config).unwrap();

        // A changed log (different fingerprint) and a changed
        // posterior-relevant config both miss naturally.
        let mut log_b = log_a.clone();
        log_b.records[0].throughput_mbps += 0.125;
        let warm = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
        let (_, source) = lookup(&warm, "s", &log_b, &config).unwrap();
        assert_eq!(source, CacheSource::Inferred);
        let (_, source) = lookup(&warm, "s", &log_a, &config.with_sigma(1.0)).unwrap();
        assert_eq!(source, CacheSource::Inferred);
        // The original pair still restores.
        let (_, source) = lookup(&warm, "s", &log_a, &config).unwrap();
        assert_eq!(source, CacheSource::Disk);
    }

    #[test]
    fn concurrent_lookups_infer_exactly_once() {
        let cache = AbductionCache::new();
        let log = log();
        let config = VeritasConfig::paper_default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    lookup(&cache, "shared", &log, &config).unwrap();
                });
            }
        });
        assert_eq!(cache.misses(), 1, "posterior must be computed exactly once");
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn concurrent_lookups_heal_a_corrupt_entry_exactly_once() {
        let store = temp_store("concurrent_heal");
        let dir = store.dir().to_path_buf();
        let log = log();
        let config = VeritasConfig::paper_default();

        // Seed a valid entry, then corrupt it in place.
        let cold = AbductionCache::new().with_disk_store(store);
        let (expected, _) = lookup(&cold, "shared", &log, &config).unwrap();
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|ext| ext == "vpost"))
            .expect("the cold run must have persisted an entry");
        let valid_bytes = std::fs::read(&entry).unwrap();
        let mut corrupt = valid_bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        std::fs::write(&entry, &corrupt).unwrap();

        // N threads race the same corrupted key through one cache: the
        // slot lock serializes the disk probe, so exactly one thread
        // observes the corruption, heals it, and re-infers; the rest are
        // memory hits.
        let cache = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (restored, _) = lookup(&cache, "shared", &log, &config).unwrap();
                    assert_eq!(restored.posteriors(), expected.posteriors());
                });
            }
        });
        assert_eq!(
            cache.healed(),
            1,
            "the corrupt entry must heal exactly once"
        );
        assert_eq!(cache.misses(), 1, "the heal re-infers exactly once");
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.disk_hits(), 0);

        // The rewrite is atomic (write-then-rename): no temp files remain
        // and the healed entry is byte-identical to the original valid
        // one — the key is a content address.
        let mut leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        leftovers.retain(|p| {
            !p.extension()
                .is_some_and(|ext| ext == "vpost" || ext == "vkern")
        });
        assert!(leftovers.is_empty(), "no torn temp files: {leftovers:?}");
        assert_eq!(
            std::fs::read(&entry).unwrap(),
            valid_bytes,
            "the healed entry must be byte-identical to the original"
        );

        // And a fresh cache restores it from disk again.
        let warm = AbductionCache::new().with_disk_store(DiskStore::open(&dir).unwrap());
        let (_, source) = lookup(&warm, "shared", &log, &config).unwrap();
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(warm.healed(), 0);
    }
}
