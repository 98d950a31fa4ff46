//! The persistent abduction store: warm-starting inference across
//! processes.
//!
//! Abduction is the expensive step of every causal query, and everything
//! downstream (interventional and counterfactual replay, aggregation)
//! only *reads* the posterior. Within one process the [`crate::AbductionCache`]
//! already computes each posterior once; this module extends that cache
//! with a **disk tier**, so a second `veritas run` over an unchanged
//! corpus performs zero EHMM inferences.
//!
//! # Key scheme
//!
//! Entries are content-addressed by the
//! `(log_fingerprint, config_fingerprint, horizon)` triple the in-memory
//! cache already computes ([`crate::log_fingerprint`] /
//! [`crate::config_fingerprint`]): the log fingerprint covers every
//! observed variable inference conditions on, the config fingerprint
//! covers every posterior-relevant configuration field, and the horizon is
//! the conditioned-on record prefix. Session *ids* are deliberately not
//! part of the identity — two sessions with byte-identical logs share one
//! stored posterior, and a renamed corpus file warm-starts unchanged.
//! Invalidation is therefore purely structural: any change to the log or
//! the posterior-relevant config changes the fingerprint and naturally
//! misses; no stamp files or TTLs exist.
//!
//! # File format
//!
//! One file per posterior, named `ab-v3-<log>-<config>-<horizon>.vpost`
//! under the store directory. The payload is a fixed little-endian binary
//! layout: magic, format version, the key triple, the Viterbi decode, the
//! smoother's O(N·K) parts (α, β, the scaled emission rows, each step's
//! pairwise total, each observation's gap, the log-likelihood), and a
//! trailing checksum. Floats are stored as raw IEEE-754 bit patterns, and
//! γ is recomputed from α and β with the operations inference uses
//! ([`Posteriors::new`]), so a reloaded posterior is *bit-equal* to the one
//! saved — no text round-trip error. The dense pairwise tensor ξ is not
//! stored: the sampler rebuilds the column it reads from these parts.
//! Kernel tables (`kern-v2-<config>.vkern`) use the same envelope.
//!
//! A load verifies the whole entry before it returns — the checksum, the
//! version and the key, the shapes against the log and the grid, every
//! Viterbi state, and the gaps against the log's δ-interval layout — but
//! parses only the key, the Viterbi path and the gaps. The restored
//! [`Abduction`] keeps the file's bytes and parses α, β, the emission
//! rows and the totals, and derives γ, on its first
//! [`Abduction::posteriors`] read ([`veritas::StoredPosteriors`]), so a
//! consumer of the Viterbi path alone (a scan's abduction and aggregate
//! answers) never pays for them. No float pattern is invalid, so the
//! deferred parse checks nothing a load skips, and it cannot fail.
//!
//! The checksum covers everything after the magic. It runs [`LANES`]
//! independent lanes over the payload's 8-byte little-endian words (word
//! `i` feeds lane `i % LANES`; a trailing partial word is zero-padded), so
//! the lanes' multiply chains overlap instead of serialising. Each step
//! xors the word into its lane, multiplies by an odd constant and
//! xor-shifts: every step is a bijection of the lane, so a change
//! confined to one word changes that lane's final state and, through an
//! equally bijective fold of the lanes and the byte length, the checksum —
//! with certainty, not just with high probability. Folding the length in
//! means zero bytes appended or removed inside the padded last word are
//! caught too; any other length change also fails each decoder's exact
//! length check. The cache fingerprints ([`crate::log_fingerprint`] and
//! friends) stay FNV-1a: they are durable identities, not integrity
//! checks.
//!
//! Older files are never read: `ab-v1-*` (which stored γ and the dense
//! ξ), `ab-v2-*` and `kern-v1-*` (both sealed with a byte-serial FNV-1a)
//! differ in both the file name and the embedded version, so an old store
//! directory simply misses and refills. The old files can be deleted.
//!
//! # Failure philosophy
//!
//! Writes are atomic (write to a temp file in the store directory, then
//! rename), so a crash mid-write can never leave a half-entry under a live
//! key. Loads are corruption-tolerant: a missing, truncated, garbage, or
//! shape-inconsistent file is a **miss**, never an error — the cache
//! simply re-infers and overwrites the entry via the same atomic path; a
//! restored entry's deferred parse reads only bytes the load verified, so
//! a damaged file never surfaces at the first posterior read.
//! [`DiskStore::load_classified`] additionally distinguishes the corrupt
//! case and deletes the bad file, so the re-inference + write-through
//! *heals* the store; the cache tier counts these heals
//! ([`crate::CacheStats::healed`]). A [`crate::FaultPlan`] can be
//! attached ([`DiskStore::with_fault_plan`]) to inject deterministic
//! read/write failures for chaos testing.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use veritas::{Abduction, StoredPosteriors, VeritasConfig};
use veritas_ehmm::{EhmmWorkspace, Posteriors, StateMatrix, TransitionMatrix, ViterbiResult};
use veritas_player::SessionLog;

use crate::fault::{FaultPlan, FaultSite};

/// Version stamp embedded in every stored entry; bump on any layout
/// change so older binaries' files read as misses instead of garbage.
/// Version 2 replaced γ and the dense ξ with the smoother's O(N·K) parts;
/// version 3 replaced the byte-serial FNV-1a checksum with [`checksum`].
pub const FORMAT_VERSION: u64 = 3;

/// Version stamp of persisted kernel tables (`.vkern`); bumped
/// independently of [`FORMAT_VERSION`] — the two layouts evolve
/// separately. Version 2 moved to [`checksum`].
pub const KERNEL_FORMAT_VERSION: u64 = 2;

/// Independent lanes of [`checksum`]: enough for the multiply chains of
/// consecutive words to overlap in the pipeline.
const LANES: usize = 4;

/// Starting states of the [`checksum`] lanes; distinct, so no two lanes
/// compute the same function of their words.
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// Odd multiplier of every [`checksum`] step; odd, so multiplying is a
/// bijection of the 64-bit lane.
const CHECKSUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Leading magic of every store file.
const MAGIC: [u8; 8] = *b"VRTSPOST";

/// Leading magic of every kernel-table file.
const KERNEL_MAGIC: [u8; 8] = *b"VRTSKERN";

/// Sanity ceiling on the kernel count of one stored table (distinct
/// chunk gaps per config; real corpora have at most a few hundred).
const MAX_KERNELS: u64 = 1 << 16;

/// Decode-time sanity ceilings: a corrupted length field must fail fast
/// instead of driving a multi-gigabyte allocation. Real sessions have
/// hundreds of chunks and tens of capacity states.
const MAX_OBS: u64 = 1 << 24;
const MAX_STATES: u64 = 1 << 16;

/// The content-addressed identity of one stored posterior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersistKey {
    /// [`crate::log_fingerprint`] of the session log.
    pub log: u64,
    /// [`crate::config_fingerprint`] of the posterior-relevant config.
    pub config: u64,
    /// Number of chunk records the posterior conditions on.
    pub horizon: usize,
}

/// A directory of persisted abduction posteriors — the disk tier behind
/// [`crate::AbductionCache`].
///
/// The store is safe to share between concurrent processes pointed at the
/// same directory: writes are write-then-rename atomic, loads validate a
/// checksum plus every shape, and both sides of a racing double-write
/// produce identical bytes (the key is a content address).
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    /// Distinguishes concurrent temp files within one process; the file
    /// name also carries the process id for cross-process uniqueness.
    nonce: AtomicU64,
    /// Chaos hook: injects [`FaultSite::DiskRead`] /
    /// [`FaultSite::DiskWrite`] failures when set.
    fault: Option<Arc<FaultPlan>>,
}

/// What [`DiskStore::load_classified`] found for a key — the distinction
/// the self-healing cache tier needs and plain [`DiskStore::load`]
/// collapses.
#[derive(Debug)]
pub enum DiskLoadOutcome {
    /// A complete, checksum-valid entry restored into an [`Abduction`].
    Restored(Box<Abduction>),
    /// No entry on disk (or it was unreadable): an ordinary cold miss.
    Missing,
    /// An entry existed but failed validation (bad magic, checksum, key,
    /// or shapes) and *this caller* deleted it — the first half of a
    /// heal; re-inference plus the write-through completes it. Reported
    /// at most once per corrupt file: racing readers that lose the
    /// unlink see [`DiskLoadOutcome::Missing`].
    Healed,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            nonce: AtomicU64::new(0),
            fault: None,
        })
    }

    /// Attaches a fault plan: reads and writes consult it and fail
    /// deterministically (a read fault degrades to a miss, a write fault
    /// to a skipped write-through).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path an entry for `key` lives at.
    pub fn path_for(&self, key: &PersistKey) -> PathBuf {
        self.dir.join(format!(
            "ab-v{FORMAT_VERSION}-{:016x}-{:016x}-{:x}.vpost",
            key.log, key.config, key.horizon
        ))
    }

    /// Persists one abduction under `key`, atomically: the payload is
    /// written to a temp file in the store directory and renamed into
    /// place, so readers only ever observe complete entries.
    pub fn save(&self, key: &PersistKey, abduction: &Abduction) -> std::io::Result<()> {
        if let Some(fault) = &self.fault {
            if fault.should_inject(FaultSite::DiskWrite) {
                return Err(std::io::Error::other("injected disk write fault"));
            }
        }
        let bytes = encode(key, abduction.viterbi(), abduction.posteriors());
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{:016x}",
            std::process::id(),
            self.nonce.fetch_add(1, Ordering::Relaxed),
            key.log
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            fs::rename(&tmp, self.path_for(key))
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Loads the entry for `key` and restores it into an [`Abduction`]
    /// over the first `key.horizon` records of `log` (the whole log, or
    /// already the horizon-truncated view), read in place, under `config`,
    /// resolving transition kernels through the shared `workspace`.
    ///
    /// Any failure — no file, unreadable file, wrong magic or version, a
    /// checksum or key mismatch, or artifacts whose shapes do not fit the
    /// log, a horizon past its end included — returns `None`: a disk
    /// problem is a cache miss, never an error.
    pub fn load(
        &self,
        key: &PersistKey,
        log: &SessionLog,
        config: &VeritasConfig,
        workspace: Arc<EhmmWorkspace>,
    ) -> Option<Abduction> {
        match self.load_classified(key, log, config, workspace) {
            DiskLoadOutcome::Restored(abduction) => Some(*abduction),
            DiskLoadOutcome::Missing | DiskLoadOutcome::Healed => None,
        }
    }

    /// [`DiskStore::load`], but distinguishing a cold miss from a corrupt
    /// entry — and *removing* the corrupt file so the caller's
    /// re-inference plus write-through heals the store in place.
    ///
    /// The unlink doubles as an atomic claim: when several readers race
    /// on the same corrupt file, exactly one observes
    /// [`DiskLoadOutcome::Healed`]; the rest read the path as missing (or
    /// lose the `remove_file` race) and report an ordinary miss.
    pub fn load_classified(
        &self,
        key: &PersistKey,
        log: &SessionLog,
        config: &VeritasConfig,
        workspace: Arc<EhmmWorkspace>,
    ) -> DiskLoadOutcome {
        if let Some(fault) = &self.fault {
            if fault.should_inject(FaultSite::DiskRead) {
                // A simulated unreadable entry: degrade to a miss, never
                // an error (matching the real unreadable-file path).
                return DiskLoadOutcome::Missing;
            }
        }
        let path = self.path_for(key);
        let Ok(bytes) = fs::read(&path) else {
            return DiskLoadOutcome::Missing;
        };
        let restored = decode(&bytes)
            .filter(|entry| entry.key == *key)
            .and_then(|entry| {
                let matrices = entry.matrices;
                let stored = StoredPosteriors::new(
                    matrices.num_obs,
                    matrices.num_states,
                    entry.gaps,
                    move |gaps| matrices.parse(&bytes, gaps),
                );
                Abduction::from_parts(log, key.horizon, config, workspace, entry.viterbi, stored)
                    .ok()
            });
        match restored {
            Some(abduction) => DiskLoadOutcome::Restored(Box::new(abduction)),
            // The file exists but is garbage (truncated, bit-flipped,
            // foreign, or shape-inconsistent). Delete it; whoever wins
            // the unlink owns the heal.
            None => match fs::remove_file(&path) {
                Ok(()) => DiskLoadOutcome::Healed,
                Err(_) => DiskLoadOutcome::Missing,
            },
        }
    }

    /// The file path the kernel table of config fingerprint `config`
    /// lives at — content-addressed like the posterior entries, so every
    /// process pointed at one directory shares one table per config.
    pub fn kernel_path_for(&self, config: u64) -> PathBuf {
        self.dir
            .join(format!("kern-v{KERNEL_FORMAT_VERSION}-{config:016x}.vkern"))
    }

    /// Persists the materialized `A^Δ` kernel tables of one config's
    /// inference workspace ([`EhmmWorkspace::export_kernels`]),
    /// atomically (temp + rename, like [`DiskStore::save`]). Kernels are
    /// deterministic matrix powers, so racing writers of the same gap
    /// set produce identical bytes; writers with different gap sets
    /// last-write-wins a still-valid table.
    pub fn save_kernels(
        &self,
        config: u64,
        kernels: &[(u32, TransitionMatrix)],
    ) -> std::io::Result<()> {
        if let Some(fault) = &self.fault {
            if fault.should_inject(FaultSite::DiskWrite) {
                return Err(std::io::Error::other("injected disk write fault"));
            }
        }
        let bytes = encode_kernels(config, kernels);
        let tmp = self.dir.join(format!(
            ".tmp-kern-{}-{}-{config:016x}",
            std::process::id(),
            self.nonce.fetch_add(1, Ordering::Relaxed),
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            fs::rename(&tmp, self.kernel_path_for(config))
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Loads the persisted kernel table of config fingerprint `config`,
    /// validating the checksum, the embedded fingerprint, and that every
    /// matrix is `num_states`-square and row-stochastic. Like the
    /// posterior loads, every failure is a miss (`None`), and a corrupt
    /// file is deleted so the next write-through replaces it.
    pub fn load_kernels(
        &self,
        config: u64,
        num_states: usize,
    ) -> Option<Vec<(u32, TransitionMatrix)>> {
        if let Some(fault) = &self.fault {
            if fault.should_inject(FaultSite::DiskRead) {
                return None;
            }
        }
        let path = self.kernel_path_for(config);
        let bytes = fs::read(&path).ok()?;
        let decoded = decode_kernels(&bytes)
            .filter(|&(stored_config, stored_states, _)| {
                stored_config == config && stored_states == num_states
            })
            .map(|(_, _, kernels)| kernels);
        if decoded.is_none() {
            let _ = fs::remove_file(&path);
        }
        decoded
    }
}

/// Append helpers: everything is little-endian, floats as raw bit patterns
/// (the reload is bit-exact by construction). Shared with the corpus
/// store ([`crate::store`]) so the two binary formats can never disagree
/// on encoding primitives.
pub(crate) fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, value: f64) {
    put_u64(buf, value.to_bits());
}

/// Serializes one entry: magic, version, key, Viterbi decode, the
/// posterior's α, β, emission rows, totals, gaps and log-likelihood, and a
/// trailing [`checksum`] over everything after the magic.
fn encode(key: &PersistKey, viterbi: &ViterbiResult, posteriors: &Posteriors) -> Vec<u8> {
    let num_obs = viterbi.path.len();
    let num_states = posteriors.alpha.cols();
    let mut buf = Vec::with_capacity(
        80 + 8 * (2 * num_obs + 3 * posteriors.alpha.as_slice().len() + posteriors.totals.len()),
    );
    buf.extend_from_slice(&MAGIC);
    put_u64(&mut buf, FORMAT_VERSION);
    put_u64(&mut buf, key.log);
    put_u64(&mut buf, key.config);
    put_u64(&mut buf, key.horizon as u64);
    put_u64(&mut buf, num_obs as u64);
    put_u64(&mut buf, num_states as u64);
    for &state in &viterbi.path {
        put_u64(&mut buf, state as u64);
    }
    put_f64(&mut buf, viterbi.log_likelihood);
    for part in [&posteriors.alpha, &posteriors.beta, &posteriors.emissions] {
        for &v in part.as_slice() {
            put_f64(&mut buf, v);
        }
    }
    for &total in &posteriors.totals {
        put_f64(&mut buf, total);
    }
    for &gap in &posteriors.gaps {
        put_u64(&mut buf, u64::from(gap));
    }
    put_f64(&mut buf, posteriors.log_likelihood);
    let sum = checksum(&buf[MAGIC.len()..]);
    put_u64(&mut buf, sum);
    buf
}

/// Serializes one kernel table: magic, version, config fingerprint, the
/// state count, the kernel count, each `(gap, A^Δ)` pair (floats as raw
/// bit patterns), and a trailing [`checksum`] over everything after the
/// magic — the same envelope discipline as the posterior entries.
fn encode_kernels(config: u64, kernels: &[(u32, TransitionMatrix)]) -> Vec<u8> {
    let num_states = kernels.first().map_or(0, |(_, matrix)| matrix.num_states());
    let mut buf = Vec::with_capacity(48 + kernels.len() * (8 + num_states * num_states * 8));
    buf.extend_from_slice(&KERNEL_MAGIC);
    put_u64(&mut buf, KERNEL_FORMAT_VERSION);
    put_u64(&mut buf, config);
    put_u64(&mut buf, num_states as u64);
    put_u64(&mut buf, kernels.len() as u64);
    for (gap, matrix) in kernels {
        assert_eq!(
            matrix.num_states(),
            num_states,
            "one table holds one spec's kernels"
        );
        put_u64(&mut buf, u64::from(*gap));
        for i in 0..num_states {
            for &p in matrix.row(i) {
                put_f64(&mut buf, p);
            }
        }
    }
    let sum = checksum(&buf[KERNEL_MAGIC.len()..]);
    put_u64(&mut buf, sum);
    buf
}

/// A decoded kernel table: the config fingerprint and state count it
/// was written for, plus the gap-sorted kernels themselves.
type KernelTable = (u64, usize, Vec<(u32, TransitionMatrix)>);

/// Parses one kernel table, validating magic, version, checksum, sanity
/// bounds, strictly increasing gaps, and (via the length check) the
/// declared shapes — before any large allocation. Row-stochasticity is
/// checked here too, so [`TransitionMatrix::from_rows`] can never panic
/// on disk garbage. Returns `(config, num_states, kernels)` or `None`.
fn decode_kernels(bytes: &[u8]) -> Option<KernelTable> {
    if bytes.len() < KERNEL_MAGIC.len() + 8 || bytes[..KERNEL_MAGIC.len()] != KERNEL_MAGIC {
        return None;
    }
    let payload = &bytes[KERNEL_MAGIC.len()..bytes.len() - 8];
    let stored_checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if checksum(payload) != stored_checksum {
        return None;
    }
    let mut reader = Reader::new(payload);
    if reader.take_u64()? != KERNEL_FORMAT_VERSION {
        return None;
    }
    let config = reader.take_u64()?;
    let num_states = reader.take_u64()?;
    let count = reader.take_u64()?;
    if num_states == 0 || num_states > MAX_STATES || count == 0 || count > MAX_KERNELS {
        return None;
    }
    let (num_states, count) = (num_states as usize, count as usize);
    let cells = num_states.checked_mul(num_states)?;
    let expected_words = count.checked_mul(cells.checked_add(1)?)?;
    if payload.len() - reader.pos() != expected_words.checked_mul(8)? {
        return None;
    }
    let mut kernels = Vec::with_capacity(count);
    let mut last_gap: Option<u32> = None;
    for _ in 0..count {
        let gap = u32::try_from(reader.take_u64()?).ok()?;
        if last_gap.is_some_and(|last| gap <= last) {
            return None;
        }
        last_gap = Some(gap);
        let mut rows = Vec::with_capacity(num_states);
        for _ in 0..num_states {
            let mut row = Vec::with_capacity(num_states);
            let mut sum = 0.0_f64;
            for _ in 0..num_states {
                let p = reader.take_f64()?;
                if !(p.is_finite() && p >= 0.0) {
                    return None;
                }
                sum += p;
                row.push(p);
            }
            if (sum - 1.0).abs() >= 1e-6 {
                return None;
            }
            rows.push(row);
        }
        kernels.push((gap, TransitionMatrix::from_rows(rows)));
    }
    Some((config, num_states, kernels))
}

/// The integrity checksum of `.vpost` and `.vkern` payloads (see the
/// module doc's "File format"): [`LANES`] lanes over the little-endian
/// 8-byte words, the last word zero-padded, then a fold of the lanes and
/// the byte length. Every step is a bijection of the running state.
fn checksum(bytes: &[u8]) -> u64 {
    /// Xor the word in, multiply by an odd constant, xor-shift: a
    /// bijection of `state` for a fixed word, and of the word for a fixed
    /// `state`.
    fn step(state: u64, word: u64) -> u64 {
        let state = (state ^ word).wrapping_mul(CHECKSUM_MUL);
        state ^ (state >> 29)
    }
    let word = |bytes: &[u8]| {
        let mut padded = [0u8; 8];
        padded[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(padded)
    };
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(bytes));
        }
    }
    for (lane, bytes) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = step(*lane, word(bytes));
    }
    let folded = lanes.into_iter().fold(bytes.len() as u64, step);
    step(folded, 0)
}

/// A bounds-checked little-endian reader; every take returns `None` past
/// the end instead of panicking, so arbitrary garbage decodes to a miss.
/// Shared with the corpus store ([`crate::store`]).
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn take_u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    pub(crate) fn take_f64(&mut self) -> Option<f64> {
        self.take_u64().map(f64::from_bits)
    }

    pub(crate) fn take_bytes(&mut self, count: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(count)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(bytes)
    }

    fn take_f64s(&mut self, count: usize) -> Option<Vec<f64>> {
        let bytes = self.take_bytes(count.checked_mul(8)?)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|word| f64::from_le_bytes(word.try_into().expect("8-byte word")))
                .collect(),
        )
    }
}

/// A stored entry as [`decode`] verifies it: the key, the Viterbi decode,
/// the gaps, and where the unparsed posterior matrices lie.
struct Decoded {
    key: PersistKey,
    viterbi: ViterbiResult,
    gaps: Vec<u32>,
    matrices: Matrices,
}

/// Where a verified entry's posterior matrices lie in its bytes, and the
/// scalars that complete them. α, β, the emission rows and the totals are
/// parsed only by [`Matrices::parse`], on the first posterior read of a
/// restore.
#[derive(Clone, Copy)]
struct Matrices {
    /// Byte offset of α in the entry.
    at: usize,
    num_obs: usize,
    num_states: usize,
    log_likelihood: f64,
}

impl Matrices {
    /// Parses α, β, the emission rows and the totals from `bytes`, the
    /// entry [`decode`] verified, and derives γ with the operations
    /// inference uses ([`Posteriors::new`]), so the posteriors are
    /// bit-equal to the ones saved. `decode` checked every length, so
    /// nothing here can fail.
    fn parse(self, bytes: &[u8], gaps: Vec<u32>) -> Posteriors {
        const VERIFIED: &str = "decode verified the entry's length";
        let cells = self.num_obs * self.num_states;
        let mut reader = Reader::new(&bytes[self.at..]);
        let mut matrix = || {
            let values = reader.take_f64s(cells).expect(VERIFIED);
            StateMatrix::from_vec(self.num_obs, self.num_states, values)
        };
        let (alpha, beta, emissions) = (matrix(), matrix(), matrix());
        let totals = reader.take_f64s(self.num_obs - 1).expect(VERIFIED);
        Posteriors::new(alpha, beta, emissions, totals, gaps, self.log_likelihood)
    }
}

/// Verifies one stored entry: magic, version, checksum, and every declared
/// length against the actual byte count (*before* any large allocation),
/// then parses the key, the Viterbi decode with every state in range, the
/// gaps and the log-likelihood. The posterior matrices are left unparsed
/// ([`Matrices::parse`]): no float pattern is invalid, so parsing them
/// checks nothing. Returns `None` on any inconsistency.
fn decode(bytes: &[u8]) -> Option<Decoded> {
    if bytes.len() < MAGIC.len() + 8 || bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let payload = &bytes[MAGIC.len()..bytes.len() - 8];
    let stored_checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if checksum(payload) != stored_checksum {
        return None;
    }
    let mut reader = Reader::new(payload);
    if reader.take_u64()? != FORMAT_VERSION {
        return None;
    }
    let key = PersistKey {
        log: reader.take_u64()?,
        config: reader.take_u64()?,
        horizon: usize::try_from(reader.take_u64()?).ok()?,
    };
    let num_obs = reader.take_u64()?;
    let num_states = reader.take_u64()?;
    if num_obs == 0 || num_obs > MAX_OBS || num_states == 0 || num_states > MAX_STATES {
        return None;
    }
    let (num_obs, num_states) = (num_obs as usize, num_states as usize);
    // The whole remaining layout is length-determined; verify it against
    // the payload size before allocating anything observation-sized.
    let cells = num_obs.checked_mul(num_states)?;
    let matrix_words = cells.checked_mul(3)?.checked_add(num_obs - 1)?; // α, β, emission rows, totals
    let expected_words = num_obs // viterbi path
        .checked_add(1)? // viterbi log-likelihood
        .checked_add(matrix_words)?
        .checked_add(num_obs)? // gaps
        .checked_add(1)?; // posterior log-likelihood
    if payload.len() - reader.pos() != expected_words.checked_mul(8)? {
        return None;
    }
    let mut path = Vec::with_capacity(num_obs);
    for _ in 0..num_obs {
        let state = reader.take_u64()?;
        if state >= num_states as u64 {
            return None;
        }
        path.push(state as usize);
    }
    let viterbi = ViterbiResult {
        path,
        log_likelihood: reader.take_f64()?,
    };
    let at = MAGIC.len() + reader.pos();
    reader.take_bytes(matrix_words * 8)?;
    let mut gaps = Vec::with_capacity(num_obs);
    for _ in 0..num_obs {
        gaps.push(u32::try_from(reader.take_u64()?).ok()?);
    }
    let matrices = Matrices {
        at,
        num_obs,
        num_states,
        log_likelihood: reader.take_f64()?,
    };
    Some(Decoded {
        key,
        viterbi,
        gaps,
        matrices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds an entry directly from raw numbers (no inference), so the
    /// codec is testable over arbitrary bit patterns. γ is derived from α
    /// and β exactly as a decode derives it.
    fn entry(
        num_obs: usize,
        num_states: usize,
        values: &mut impl FnMut() -> f64,
    ) -> (PersistKey, ViterbiResult, Posteriors) {
        let key = PersistKey {
            log: 0xDEAD_BEEF_0BAD_F00D,
            config: 0x0123_4567_89AB_CDEF,
            horizon: num_obs,
        };
        let viterbi = ViterbiResult {
            path: (0..num_obs).map(|n| n % num_states).collect(),
            log_likelihood: values(),
        };
        let mut matrix = || {
            StateMatrix::from_vec(
                num_obs,
                num_states,
                (0..num_obs * num_states).map(|_| values()).collect(),
            )
        };
        let (alpha, beta, emissions) = (matrix(), matrix(), matrix());
        let totals = (1..num_obs).map(|_| values()).collect();
        let gaps = (0..num_obs).map(|_| values().to_bits() as u32).collect();
        let posteriors = Posteriors::new(alpha, beta, emissions, totals, gaps, values());
        (key, viterbi, posteriors)
    }

    /// [`decode`], then the parse a restore defers to its first posterior
    /// read: everything the entry holds.
    fn decode_all(bytes: &[u8]) -> Option<(PersistKey, ViterbiResult, Posteriors)> {
        let entry = decode(bytes)?;
        let posteriors = entry.matrices.parse(bytes, entry.gaps);
        Some((entry.key, entry.viterbi, posteriors))
    }

    /// xorshift64*: a seeded stream of arbitrary 64-bit words.
    struct Words(u64);

    impl Words {
        fn new(seed: u64) -> Self {
            Self(seed | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// A value in `lo..hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo) as u64) as usize
        }

        /// A value in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Overwrites the 8-byte words of `payload` at indices in
        /// `words` with arbitrary bit patterns, `count` times.
        fn scribble(&mut self, payload: &mut [u8], words: std::ops::Range<usize>, count: usize) {
            for _ in 0..count {
                let at = self.range(words.start, words.end) * 8;
                payload[at..at + 8].copy_from_slice(&self.next().to_le_bytes());
            }
        }
    }

    proptest! {
        /// The codec must round-trip *bit patterns*, not values: NaNs,
        /// negative zero, subnormals, and infinities all come back
        /// byte-identical, and the re-encoded entry is the same byte
        /// stream.
        #[test]
        fn codec_round_trips_arbitrary_bit_patterns(
            seed in any::<u64>(),
            num_obs in 1usize..12,
            num_states in 1usize..6,
        ) {
            // Arbitrary words reinterpreted as f64 bits: NaN payloads,
            // ±0, subnormals, ±inf.
            let mut words = Words::new(seed);
            let mut values = move || f64::from_bits(words.next());
            let (key, viterbi, posteriors) = entry(num_obs, num_states, &mut values);
            let bytes = encode(&key, &viterbi, &posteriors);
            let (back_key, back_viterbi, back_posteriors) =
                decode_all(&bytes).expect("a just-encoded entry must decode");
            prop_assert_eq!(back_key, key);
            prop_assert_eq!(&back_viterbi.path, &viterbi.path);
            prop_assert_eq!(
                back_viterbi.log_likelihood.to_bits(),
                viterbi.log_likelihood.to_bits()
            );
            prop_assert_eq!(
                back_posteriors.log_likelihood.to_bits(),
                posteriors.log_likelihood.to_bits()
            );
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|v| v.to_bits()).collect() };
            for (back, part) in [
                (&back_posteriors.gamma, &posteriors.gamma),
                (&back_posteriors.alpha, &posteriors.alpha),
                (&back_posteriors.beta, &posteriors.beta),
                (&back_posteriors.emissions, &posteriors.emissions),
            ] {
                prop_assert_eq!((back.len(), back.cols()), (part.len(), part.cols()));
                prop_assert_eq!(bits(back.as_slice()), bits(part.as_slice()));
            }
            prop_assert_eq!(bits(&back_posteriors.totals), bits(&posteriors.totals));
            prop_assert_eq!(&back_posteriors.gaps, &posteriors.gaps);
            prop_assert_eq!(
                encode(&key, &back_viterbi, &back_posteriors),
                bytes,
                "re-encoding a decoded entry must be byte-identical"
            );
        }

        /// Any prefix truncation of a valid entry must decode to `None`
        /// (the checksum or a length check catches it) — never panic.
        #[test]
        fn truncated_entries_decode_to_none(
            cut in 0usize..200,
        ) {
            let mut counter = 0.0f64;
            let mut values = move || { counter += 1.5; counter };
            let (key, viterbi, posteriors) = entry(4, 3, &mut values);
            let bytes = encode(&key, &viterbi, &posteriors);
            let cut = cut.min(bytes.len().saturating_sub(1));
            prop_assert!(decode(&bytes[..cut]).is_none());
        }

        /// Flipping any single byte of a valid entry must decode to
        /// `None`: every byte is covered by the checksum (or is the
        /// checksum / magic itself).
        #[test]
        fn corrupted_entries_decode_to_none(position in 0usize..400, flip in 1u8..=255) {
            let mut counter = 0.0f64;
            let mut values = move || { counter += 0.25; counter };
            let (key, viterbi, posteriors) = entry(4, 3, &mut values);
            let mut bytes = encode(&key, &viterbi, &posteriors);
            let position = position % bytes.len();
            bytes[position] ^= flip;
            prop_assert!(decode(&bytes).is_none());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over arbitrary payloads of any length (not only whole words),
        /// changing one word, flipping one bit, and adding or removing
        /// trailing bytes (zeros included) each change the checksum.
        #[test]
        fn checksum_sees_word_bit_and_length_changes(
            (payload, seed) in (prop::collection::vec(any::<u8>(), 0..4096), any::<u64>()),
        ) {
            let sum = checksum(&payload);
            let mut words = Words::new(seed);
            let mut byte = || if words.range(0, 2) == 0 { 0 } else { words.next() as u8 };
            let longer: Vec<u8> = payload
                .iter()
                .copied()
                .chain((0..1 + seed as usize % 16).map(|_| byte()))
                .collect();
            prop_assert_ne!(checksum(&longer), sum, "bytes appended");
            if !payload.is_empty() {
                let cut = words.range(0, payload.len());
                prop_assert_ne!(checksum(&payload[..cut]), sum, "bytes removed");

                let mut flipped = payload.clone();
                let bit = words.range(0, 8 * payload.len());
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_ne!(checksum(&flipped), sum, "bit {} flipped", bit);

                // One word (the last may be partial) given another value.
                let at = 8 * words.range(0, payload.len().div_ceil(8));
                let end = payload.len().min(at + 8);
                let mut changed = payload.clone();
                while changed[at..end] == payload[at..end] {
                    changed[at..end].copy_from_slice(&words.next().to_le_bytes()[..end - at]);
                }
                prop_assert_ne!(checksum(&changed), sum, "word at byte {} changed", at);
            }
        }
    }

    #[test]
    fn checksum_sees_trailing_zero_bytes() {
        let payload = [7u8, 0, 3];
        for len in 0..payload.len() {
            assert_ne!(checksum(&payload[..len]), checksum(&payload[..len + 1]));
        }
        for len in 0..40 {
            let zeros = vec![0u8; len];
            assert_ne!(
                checksum(&zeros),
                checksum(&[zeros.as_slice(), &[0]].concat())
            );
        }
    }

    /// One session, its config and key, and the entry a fresh inference
    /// encodes for it: the raw material the hostile-input cases below
    /// mangle.
    struct Fixture {
        log: SessionLog,
        config: VeritasConfig,
        key: PersistKey,
        entry: Vec<u8>,
    }

    impl Fixture {
        /// One `video_duration_s` session (two-second chunks) under the
        /// paper's config (K = 21 capacity states).
        fn build(video_duration_s: f64) -> Self {
            let corpus = crate::SyntheticSpec {
                sessions: 1,
                video_duration_s,
                seed: 5,
                ..crate::SyntheticSpec::default()
            }
            .build();
            let log = corpus.sessions[0].log.clone();
            let config = VeritasConfig::paper_default();
            let abduction = crate::infer_prefix(&log, log.records.len(), &config).unwrap();
            let key = PersistKey {
                log: crate::log_fingerprint(&log),
                config: crate::config_fingerprint(&config),
                horizon: log.records.len(),
            };
            let entry = encode(&key, abduction.viterbi(), abduction.posteriors());
            Fixture {
                log,
                config,
                key,
                entry,
            }
        }
    }

    /// A short (20-chunk) session, cheap enough for hundreds of cases.
    fn fixture() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| Fixture::build(40.0))
    }

    /// A real serving-size posterior: 120 chunks, K = 21.
    fn fixture_120() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| Fixture::build(240.0))
    }

    /// A file under `magic` whose checksum matches `payload` (everything
    /// from the version word on), so the decoders see past the envelope.
    fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(payload);
        put_u64(&mut bytes, checksum(payload));
        bytes
    }

    fn workspace(config: &VeritasConfig) -> Arc<EhmmWorkspace> {
        Arc::new(EhmmWorkspace::new(Abduction::spec_for(config)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Hostile `.vpost` files with a valid magic, version and
        /// checksum: arbitrary bytes, a real entry with arbitrary words
        /// (header, path, gaps, floats), or one with only its floats
        /// replaced. A load misses or heals, never panics; an entry that
        /// restores samples without panicking.
        #[test]
        fn hostile_posterior_entries_never_panic((mode, seed) in (0u8..3, any::<u64>())) {
            let fx = fixture();
            let mut words = Words::new(seed);
            let mut payload = fx.entry[MAGIC.len()..fx.entry.len() - 8].to_vec();
            let num_words = payload.len() / 8;
            match mode {
                0 => {
                    payload.truncate(8);
                    let len = words.range(0, 2048);
                    payload.extend((0..len).map(|_| words.next() as u8));
                }
                1 => {
                    let count = words.range(1, 8);
                    words.scribble(&mut payload, 1..num_words, count);
                }
                _ => {
                    // The floats: past the 6-word key and shape header
                    // (after the version), the path and its
                    // log-likelihood; before the gaps and the final
                    // log-likelihood.
                    let num_obs = fx.log.records.len();
                    let count = words.range(1, 32);
                    words.scribble(&mut payload, 7 + num_obs + 1..num_words - num_obs - 1, count);
                }
            }
            let dir = std::env::temp_dir().join("veritas_persist_hostile_vpost");
            let store = DiskStore::open(&dir).unwrap();
            let path = store.path_for(&fx.key);
            fs::write(&path, seal(&MAGIC, &payload)).unwrap();
            match store.load_classified(&fx.key, &fx.log, &fx.config, workspace(&fx.config)) {
                DiskLoadOutcome::Restored(abduction) => {
                    let traces = abduction.sample_traces_with_seed(3, seed);
                    prop_assert_eq!(traces.len(), 3);
                }
                DiskLoadOutcome::Healed => prop_assert!(!path.exists(), "a healed entry is deleted"),
                DiskLoadOutcome::Missing => {}
            }
        }

        /// Hostile `.vkern` files with a valid magic, version and
        /// checksum: arbitrary bytes, or a table with the right state count
        /// whose rows are random (occasionally stochastic) and whose words
        /// are then scribbled on. A load is `None` or a table that infers
        /// and samples without panicking.
        #[test]
        fn hostile_kernel_tables_never_panic((mode, seed) in (0u8..2, any::<u64>())) {
            let fx = fixture();
            let num_states = fx.config.capacity_grid().len();
            let mut words = Words::new(seed);
            let mut payload = Vec::new();
            put_u64(&mut payload, KERNEL_FORMAT_VERSION);
            if mode == 0 {
                let len = words.range(0, 2048);
                payload.extend((0..len).map(|_| words.next() as u8));
            } else {
                let count = words.range(1, 4);
                put_u64(&mut payload, fx.key.config);
                put_u64(&mut payload, num_states as u64);
                put_u64(&mut payload, count as u64);
                let mut gap = 0;
                for _ in 0..count {
                    gap += words.range(0, 4) as u64;
                    put_u64(&mut payload, gap);
                    for _ in 0..num_states {
                        let row: Vec<f64> = (0..num_states).map(|_| words.unit()).collect();
                        let sum: f64 = row.iter().sum();
                        for p in row {
                            put_f64(&mut payload, p / sum);
                        }
                    }
                }
                if words.range(0, 2) == 0 {
                    let (num_words, count) = (payload.len() / 8, words.range(1, 4));
                    words.scribble(&mut payload, 1..num_words, count);
                }
            }
            let dir = std::env::temp_dir().join("veritas_persist_hostile_vkern");
            let store = DiskStore::open(&dir).unwrap();
            fs::write(store.kernel_path_for(fx.key.config), seal(&KERNEL_MAGIC, &payload)).unwrap();
            if let Some(kernels) = store.load_kernels(fx.key.config, num_states) {
                let workspace = workspace(&fx.config);
                for (gap, matrix) in kernels {
                    workspace.preload_kernel(gap, matrix);
                }
                let caps = fx.config.capacity_grid();
                let rows = fx
                    .log
                    .records
                    .iter()
                    .map(|r| Abduction::emission_row(r, &caps, fx.config.sigma_mbps))
                    .collect();
                let abduction = Abduction::try_infer_prepared(&fx.log, &fx.config, rows, workspace).unwrap();
                prop_assert_eq!(abduction.sample_traces_with_seed(3, seed).len(), 3);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// A real 120-chunk, K = 21 posterior with any one byte flipped is
        /// rejected. Half the flips land in the α/β bulk.
        #[test]
        fn a_real_posterior_with_any_byte_flipped_is_rejected(
            (position, in_bulk, flip) in (any::<usize>(), any::<bool>(), 1u8..=255),
        ) {
            let fx = fixture_120();
            let num_obs = fx.log.records.len();
            let cells = num_obs * fx.config.capacity_grid().len();
            let position = if in_bulk {
                alpha_offset(num_obs) + position % (16 * cells)
            } else {
                position % fx.entry.len()
            };
            let mut bytes = fx.entry.clone();
            bytes[position] ^= flip;
            prop_assert!(decode(&bytes).is_none(), "flip at byte {}", position);
        }
    }

    /// The file offset of α: past the magic, the version, the 5-word key
    /// and shape header, the Viterbi path and its log-likelihood.
    fn alpha_offset(num_obs: usize) -> usize {
        MAGIC.len() + 8 * (1 + 5 + num_obs + 1)
    }

    #[test]
    fn a_real_posterior_heals_when_its_bulk_is_flipped() {
        let fx = fixture_120();
        let num_obs = fx.log.records.len();
        assert_eq!((num_obs, fx.config.capacity_grid().len()), (120, 21));
        assert_eq!(fx.entry.len(), 63_432);
        let dir = std::env::temp_dir().join("veritas_persist_real_120");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let path = store.path_for(&fx.key);
        let load = || store.load_classified(&fx.key, &fx.log, &fx.config, workspace(&fx.config));
        fs::write(&path, &fx.entry).unwrap();
        assert!(matches!(load(), DiskLoadOutcome::Restored(_)));
        // The last byte of α's first cell, and a byte in the middle of β.
        let cells = num_obs * 21;
        for position in [
            alpha_offset(num_obs) + 7,
            alpha_offset(num_obs) + 12 * cells,
        ] {
            let mut bytes = fx.entry.clone();
            bytes[position] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(load(), DiskLoadOutcome::Healed),
                "flip at byte {position}"
            );
            assert!(!path.exists());
        }
    }

    /// A matrix's shape and its cells as raw bits.
    fn part_bits(part: &StateMatrix) -> (usize, usize, Vec<u64>) {
        let bits = part.as_slice().iter().map(|v| v.to_bits()).collect();
        (part.len(), part.cols(), bits)
    }

    /// A saved posterior restores bit for bit: γ (derived on the first
    /// read), α, β, the emission rows, the totals, the gaps and both
    /// log-likelihoods equal those of the inferred entry, and seeded
    /// samples equal its samples.
    #[test]
    fn a_restored_posterior_is_bit_identical_to_the_saved_one() {
        let fx = fixture_120();
        let config = &fx.config;
        let inferred = crate::infer_prefix(&fx.log, fx.log.records.len(), config).unwrap();
        let dir = std::env::temp_dir().join("veritas_persist_bit_identical");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        store.save(&fx.key, &inferred).unwrap();
        let restored = store
            .load(&fx.key, &fx.log, config, workspace(config))
            .expect("a saved posterior restores");
        assert!(restored.is_smoothed());
        assert_eq!(restored.viterbi(), inferred.viterbi());
        let (back, saved) = (restored.posteriors(), inferred.posteriors());
        for (back, saved) in [
            (&back.gamma, &saved.gamma),
            (&back.alpha, &saved.alpha),
            (&back.beta, &saved.beta),
            (&back.emissions, &saved.emissions),
        ] {
            assert_eq!(part_bits(back), part_bits(saved));
        }
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&back.totals), bits(&saved.totals));
        assert_eq!(back.gaps, saved.gaps);
        assert_eq!(
            back.log_likelihood.to_bits(),
            saved.log_likelihood.to_bits()
        );
        for seed in [0, 7, u64::MAX] {
            assert_eq!(
                restored.sample_traces_with_seed(4, seed),
                inferred.sample_traces_with_seed(4, seed)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// A real 120-chunk posterior damaged anywhere in its matrix
        /// region (α, β, the emission rows, the totals) is refused and
        /// healed at load, whose checksum covers the bytes the first
        /// posterior read would parse. Resealed, the same damage restores,
        /// and the first read then parses it without a panic.
        #[test]
        fn damage_in_the_matrix_region_is_refused_and_healed_at_load(
            (position, flip) in (any::<usize>(), 1u8..=255),
        ) {
            let fx = fixture_120();
            let num_obs = fx.log.records.len();
            let cells = num_obs * fx.config.capacity_grid().len();
            let region = 8 * (3 * cells + num_obs - 1);
            let position = alpha_offset(num_obs) + position % region;
            let mut bytes = fx.entry.clone();
            bytes[position] ^= flip;
            let dir = std::env::temp_dir().join("veritas_persist_matrix_damage");
            let store = DiskStore::open(&dir).unwrap();
            let path = store.path_for(&fx.key);
            let load = || store.load_classified(&fx.key, &fx.log, &fx.config, workspace(&fx.config));
            fs::write(&path, &bytes).unwrap();
            prop_assert!(matches!(load(), DiskLoadOutcome::Healed), "flip at byte {}", position);
            prop_assert!(!path.exists());

            fs::write(&path, seal(&MAGIC, &bytes[MAGIC.len()..bytes.len() - 8])).unwrap();
            match load() {
                DiskLoadOutcome::Restored(abduction) => {
                    let posteriors = abduction.posteriors();
                    prop_assert_eq!(posteriors.gamma.len(), num_obs);
                    prop_assert_eq!(abduction.sample_traces_with_seed(2, 1).len(), 2);
                }
                other => prop_assert!(false, "a resealed entry restores, got {:?}", other),
            }
        }
    }

    /// The cases `from_parts` can no longer see: a stored α, β or emission
    /// matrix of the wrong shape, a total too few or too many, a gap too
    /// few, and (with the right count) a changed gap. Each `.vpost` is
    /// sealed with a valid checksum and refused, and healed, at load. γ is
    /// not stored: a mis-shaped γ writes the very bytes of the original,
    /// and the restore derives the right one.
    #[test]
    fn a_stored_part_that_does_not_fit_is_refused_at_load() {
        let fx = fixture();
        let inferred = crate::infer_prefix(&fx.log, fx.log.records.len(), &fx.config).unwrap();
        let original = inferred.posteriors().clone();
        let (rows, cols) = (original.alpha.len(), original.alpha.cols());
        let dir = std::env::temp_dir().join("veritas_persist_part_shapes");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let path = store.path_for(&fx.key);
        let load = |posteriors: &Posteriors| {
            fs::write(&path, encode(&fx.key, inferred.viterbi(), posteriors)).unwrap();
            store.load_classified(&fx.key, &fx.log, &fx.config, workspace(&fx.config))
        };
        let refused = |name: &str, mutate: &dyn Fn(&mut Posteriors)| {
            let mut posteriors = original.clone();
            mutate(&mut posteriors);
            let outcome = load(&posteriors);
            assert!(
                matches!(outcome, DiskLoadOutcome::Healed),
                "{name}: {outcome:?}"
            );
            assert!(!path.exists(), "{name}");
        };
        let matrix = |r: usize, c: usize| StateMatrix::zeros(r, c);
        for (r, c) in [(rows - 1, cols), (rows + 1, cols), (rows, cols - 1)] {
            refused(&format!("alpha {r}x{c}"), &|p| p.alpha = matrix(r, c));
            refused(&format!("beta {r}x{c}"), &|p| p.beta = matrix(r, c));
            refused(&format!("emissions {r}x{c}"), &|p| {
                p.emissions = matrix(r, c)
            });

            let mut gamma = original.clone();
            gamma.gamma = matrix(r, c);
            assert_eq!(
                encode(&fx.key, inferred.viterbi(), &gamma),
                fx.entry,
                "gamma is not stored"
            );
            match load(&gamma) {
                DiskLoadOutcome::Restored(abduction) => {
                    assert_eq!(abduction.posteriors(), &original, "gamma {r}x{c}")
                }
                other => panic!("gamma {r}x{c}: {other:?}"),
            }
        }
        refused("a total too few", &|p| {
            p.totals.pop();
        });
        refused("a total too many", &|p| p.totals.push(1.0));
        refused("a gap too few", &|p| {
            p.gaps.pop();
        });
        refused("a changed gap", &|p| p.gaps[1] += 1);
    }

    /// The fixture's payload (everything between the magic and the
    /// checksum) relabelled as format version 2.
    fn version_2_payload(fx: &Fixture) -> Vec<u8> {
        let mut payload = fx.entry[MAGIC.len()..fx.entry.len() - 8].to_vec();
        payload[..8].copy_from_slice(&2u64.to_le_bytes());
        payload
    }

    #[test]
    fn a_version_2_entry_resealed_under_the_v3_name_heals() {
        let fx = fixture();
        let dir = std::env::temp_dir().join("veritas_persist_resealed_v2");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let path = store.path_for(&fx.key);
        assert!(path.ends_with(format!(
            "ab-v3-{:016x}-{:016x}-{:x}.vpost",
            fx.key.log, fx.key.config, fx.key.horizon
        )));
        fs::write(&path, seal(&MAGIC, &version_2_payload(fx))).unwrap();
        let outcome = store.load_classified(&fx.key, &fx.log, &fx.config, workspace(&fx.config));
        assert!(matches!(outcome, DiskLoadOutcome::Healed), "{outcome:?}");
        assert!(!path.exists());
    }

    #[test]
    fn version_2_files_are_never_read_or_deleted() {
        // A genuine version-2 file: the byte-serial FNV-1a seal of its
        // (whole-word) payload, under its own name.
        let fx = fixture();
        let payload = version_2_payload(fx);
        let mut fnv = crate::cache::FNV_OFFSET;
        for word in payload.chunks_exact(8) {
            crate::cache::fnv_mix(&mut fnv, u64::from_le_bytes(word.try_into().unwrap()));
        }
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&payload);
        put_u64(&mut bytes, fnv);

        let dir = std::env::temp_dir().join("veritas_persist_old_v2");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let old = dir.join(format!(
            "ab-v2-{:016x}-{:016x}-{:x}.vpost",
            fx.key.log, fx.key.config, fx.key.horizon
        ));
        fs::write(&old, &bytes).unwrap();
        let outcome = store.load_classified(&fx.key, &fx.log, &fx.config, workspace(&fx.config));
        assert!(matches!(outcome, DiskLoadOutcome::Missing), "{outcome:?}");
        assert_eq!(
            fs::read(&old).unwrap(),
            bytes,
            "the old file is left in place"
        );
    }

    #[test]
    fn garbage_and_empty_buffers_are_rejected() {
        assert!(decode(&[]).is_none());
        assert!(decode(b"not a store entry at all").is_none());
        let mut magic_only = MAGIC.to_vec();
        assert!(decode(&magic_only).is_none());
        magic_only.extend_from_slice(&[0u8; 64]);
        assert!(decode(&magic_only).is_none());
    }

    #[test]
    fn oversized_declared_shapes_are_rejected_before_allocating() {
        // A tiny buffer that *claims* billions of observations: decode
        // must bail on the sanity bound / length check, not try to
        // allocate.
        let key = PersistKey {
            log: 1,
            config: 2,
            horizon: 3,
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u64(&mut buf, FORMAT_VERSION);
        put_u64(&mut buf, key.log);
        put_u64(&mut buf, key.config);
        put_u64(&mut buf, key.horizon as u64);
        put_u64(&mut buf, u64::MAX); // num_obs
        put_u64(&mut buf, 4); // num_states
        let sum = checksum(&buf[MAGIC.len()..]);
        put_u64(&mut buf, sum);
        assert!(decode(&buf).is_none());
    }

    /// A small row-stochastic matrix with rows that sum to exactly 1.0 in
    /// floating point, so the codec's stochasticity re-check is exercised
    /// without tolerance games.
    fn stochastic(rows: Vec<Vec<f64>>) -> TransitionMatrix {
        TransitionMatrix::from_rows(rows)
    }

    fn kernel_table() -> Vec<(u32, TransitionMatrix)> {
        vec![
            (
                1,
                stochastic(vec![
                    vec![0.75, 0.25, 0.0],
                    vec![0.5, 0.25, 0.25],
                    vec![0.0, 0.0, 1.0],
                ]),
            ),
            (
                4,
                stochastic(vec![
                    vec![0.125, 0.375, 0.5],
                    vec![1.0, 0.0, 0.0],
                    vec![0.25, 0.25, 0.5],
                ]),
            ),
            (
                9,
                stochastic(vec![
                    vec![0.0, 1.0, 0.0],
                    vec![0.0, 0.0, 1.0],
                    vec![1.0, 0.0, 0.0],
                ]),
            ),
        ]
    }

    fn matrix_bits(matrix: &TransitionMatrix) -> Vec<u64> {
        (0..matrix.num_states())
            .flat_map(|i| matrix.row(i).iter().map(|p| p.to_bits()))
            .collect()
    }

    #[test]
    fn kernel_tables_round_trip_bit_exactly() {
        let dir = std::env::temp_dir().join("veritas_persist_kern_roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let kernels = kernel_table();
        store.save_kernels(0xFEED_FACE, &kernels).unwrap();
        assert!(store.kernel_path_for(0xFEED_FACE).exists());

        let loaded = store
            .load_kernels(0xFEED_FACE, 3)
            .expect("a just-saved table must load");
        assert_eq!(loaded.len(), kernels.len());
        for ((gap, matrix), (back_gap, back_matrix)) in kernels.iter().zip(&loaded) {
            assert_eq!(gap, back_gap);
            assert_eq!(matrix_bits(matrix), matrix_bits(back_matrix));
        }
        // A different config fingerprint is a plain miss (distinct path).
        assert!(store.load_kernels(0xBAAD_CAFE, 3).is_none());
    }

    #[test]
    fn kernel_state_count_mismatch_is_a_healed_miss() {
        let dir = std::env::temp_dir().join("veritas_persist_kern_states");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        store.save_kernels(7, &kernel_table()).unwrap();
        // Asking for a different state count (config/spec skew) misses and
        // deletes the stale table so the next write-through replaces it.
        assert!(store.load_kernels(7, 4).is_none());
        assert!(!store.kernel_path_for(7).exists());
    }

    #[test]
    fn corrupt_kernel_tables_are_misses_and_deleted() {
        let dir = std::env::temp_dir().join("veritas_persist_kern_corrupt");
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        store.save_kernels(11, &kernel_table()).unwrap();
        let path = store.kernel_path_for(11);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte: the checksum (or the stochasticity
        // re-check) must catch it, and the corrupt file must be removed.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_kernels(11, 3).is_none());
        assert!(!path.exists());
    }

    #[test]
    fn kernel_decode_rejects_unordered_gaps_and_bad_rows() {
        // Hand-build tables that pass the checksum but violate semantic
        // invariants: decode must return None, never panic (from_rows
        // would panic on a non-stochastic row).
        let build = |rows_per_kernel: &[(u64, Vec<f64>)], num_states: u64| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&KERNEL_MAGIC);
            put_u64(&mut buf, KERNEL_FORMAT_VERSION);
            put_u64(&mut buf, 5); // config
            put_u64(&mut buf, num_states);
            put_u64(&mut buf, rows_per_kernel.len() as u64);
            for (gap, cells) in rows_per_kernel {
                put_u64(&mut buf, *gap);
                for &p in cells {
                    put_f64(&mut buf, p);
                }
            }
            let sum = checksum(&buf[KERNEL_MAGIC.len()..]);
            put_u64(&mut buf, sum);
            buf
        };
        let identity = vec![1.0, 0.0, 0.0, 1.0];
        // Gaps must be strictly increasing.
        let unordered = build(&[(3, identity.clone()), (3, identity.clone())], 2);
        assert!(decode_kernels(&unordered).is_none());
        // Rows must sum to 1 ...
        let not_stochastic = build(&[(1, vec![0.9, 0.2, 0.5, 0.5])], 2);
        assert!(decode_kernels(&not_stochastic).is_none());
        // ... with finite, non-negative entries.
        let negative = build(&[(1, vec![1.5, -0.5, 0.0, 1.0])], 2);
        assert!(decode_kernels(&negative).is_none());
        let nan = build(&[(1, vec![f64::NAN, 1.0, 0.0, 1.0])], 2);
        assert!(decode_kernels(&nan).is_none());
        // An empty table or an oversized declared count is rejected too.
        let empty = build(&[], 2);
        assert!(decode_kernels(&empty).is_none());
        // The valid counterpart decodes, confirming the builder itself is
        // not what the assertions above are catching.
        let valid = build(&[(3, identity)], 2);
        assert!(decode_kernels(&valid).is_some());
    }
}
