//! [`LazyCorpus`]: a `.vcorp`-backed [`Corpus`] that decodes session
//! logs on demand — only the *columns* a query plan demands — and keeps a
//! bounded resident set in memory.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_player::{PlayerConfig, SessionLog};
use veritas_trace::BandwidthTrace;

use super::{
    block_header_len, decode_block, open_parts, projected_ranges, ColumnSet, CorpusMeta,
    IndexEntry, VcorpError,
};
use crate::corpus::{Corpus, LogRef, ResidencyStats};
use crate::fault::{FaultPlan, FaultSite};

/// Default ceiling on concurrently resident decoded session logs.
pub const DEFAULT_MAX_RESIDENT: usize = 256;

/// Positioned reads over the backing file. On unix every block read is
/// a lock-free `pread` ([`std::os::unix::fs::FileExt::read_exact_at`]),
/// so concurrent work units — and concurrent *shards*, when several
/// worker threads stream blocks from one corpus — never serialize on a
/// seek mutex; elsewhere a mutexed seek-then-read preserves the exact
/// same semantics.
#[derive(Debug)]
struct PositionedFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl PositionedFile {
    fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            Self { file }
        }
        #[cfg(not(unix))]
        {
            Self {
                file: Mutex::new(file),
            }
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = self.file.lock().expect("corpus file lock");
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

/// One resident decoded log: the log, the columns that were actually
/// decoded into it, and its projected in-memory size (reported through
/// [`ResidencyStats`]).
#[derive(Debug)]
struct ResidentEntry {
    log: Arc<SessionLog>,
    columns: ColumnSet,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Resident {
    map: HashMap<usize, ResidentEntry>,
    /// Decode order, for FIFO eviction: every resident session exactly
    /// once (a widening re-decode moves its session to the back).
    order: VecDeque<usize>,
    /// Sum of resident entry sizes.
    bytes: usize,
}

/// A corpus served lazily from a `.vcorp` file.
///
/// [`LazyCorpus::open`] verifies the whole file (checksum + index
/// bounds) but decodes *nothing*: it retains the header and the session
/// index — ids, offsets, and precomputed fingerprints — so open time is
/// independent of corpus size beyond the linear checksum scan, and
/// [`Corpus::log_fingerprint`] / [`Corpus::content_fingerprint`] never
/// touch a session block. Logs are decoded (and digest-verified) on
/// first access per session and cached in a FIFO resident set bounded by
/// [`LazyCorpus::with_max_resident`] sessions, so a streaming run over a
/// corpus larger than RAM holds only a window of it.
///
/// Every block read goes through [`LazyCorpus::load_log_projected`],
/// which decodes only the columns in a [`ColumnSet`]: it issues one
/// positioned read per contiguous selected range (one read of the whole
/// block for a full decode), and the unselected ranges are never read,
/// never digest-checked, and zero-filled in the returned log. A resident
/// log decoded under a narrower set than a later request is *widened*:
/// re-decoded under the union and replaced, so a resident entry always
/// covers every column any holder of it may read.
/// [`LazyCorpus::bytes_decoded`] / [`LazyCorpus::columns_decoded`] count
/// the cumulative decode work, the observable I/O win of projection.
///
/// The deployed setting (asset, player, ABR) is reconstructed from the
/// header exactly as [`crate::SessionCorpus::from_dir`] reconstructs it
/// from the first JSON log, so plans, cache keys, and records are
/// interchangeable between a directory and its ingested `.vcorp`.
#[derive(Debug)]
pub struct LazyCorpus {
    file: PositionedFile,
    meta: CorpusMeta,
    asset: VideoAsset,
    player: PlayerConfig,
    index: Vec<IndexEntry>,
    resident: Mutex<Resident>,
    max_resident: usize,
    peak_resident: AtomicUsize,
    peak_resident_bytes: AtomicUsize,
    bytes_decoded: AtomicU64,
    columns_decoded: AtomicU64,
    /// Chaos hook: injects [`FaultSite::Decode`] failures when set.
    fault: Option<Arc<FaultPlan>>,
}

impl LazyCorpus {
    /// Opens and verifies `path` (magic, version, whole-file checksum,
    /// header and index bounds), retaining only the header and index in
    /// memory.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, VcorpError> {
        let parts = open_parts(path.as_ref())?;
        let asset = VideoAsset::generate(
            QualityLadder::paper_default(),
            parts.meta.video_duration_s,
            parts.meta.chunk_duration_s,
            VbrParams::default(),
            parts.meta.asset_seed,
        );
        let player =
            PlayerConfig::paper_default().with_buffer_capacity(parts.meta.buffer_capacity_s);
        Ok(Self {
            file: PositionedFile::new(parts.file),
            meta: parts.meta,
            asset,
            player,
            index: parts.index,
            resident: Mutex::new(Resident::default()),
            max_resident: DEFAULT_MAX_RESIDENT,
            peak_resident: AtomicUsize::new(0),
            peak_resident_bytes: AtomicUsize::new(0),
            bytes_decoded: AtomicU64::new(0),
            columns_decoded: AtomicU64::new(0),
            fault: None,
        })
    }

    /// Caps the resident decoded-log set at `max` sessions (at least 1;
    /// default [`DEFAULT_MAX_RESIDENT`]).
    pub fn with_max_resident(mut self, max: usize) -> Self {
        self.max_resident = max.max(1);
        self
    }

    /// Attaches a fault plan: block decodes consult it and fail
    /// deterministically with a typed [`VcorpError::Corrupt`], surfacing
    /// as a retryable per-unit error. Resident (already-decoded) logs are
    /// never faulted — an injected decode fault is transient, like the
    /// real I/O glitches it stands in for.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The corpus header (deployed setting).
    pub fn meta(&self) -> &CorpusMeta {
        &self.meta
    }

    /// Number of sessions in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the corpus has no sessions (never true for a successfully
    /// opened file — the codec rejects empty corpora).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// High-water mark of resident projected log bytes — the observable
    /// bound on lazy streaming memory.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative bytes of block data decoded (header + selected column
    /// ranges, summed over every decode including widenings). Under full
    /// decodes this equals the sum of loaded block lengths; under
    /// projection it is the measure of the pruning win.
    pub fn bytes_decoded(&self) -> u64 {
        self.bytes_decoded.load(Ordering::Relaxed)
    }

    /// Cumulative number of per-session columns decoded (≤ 18 per
    /// decode).
    pub fn columns_decoded(&self) -> u64 {
        self.columns_decoded.load(Ordering::Relaxed)
    }

    /// Loads (or returns the resident copy of) session `index`, fully:
    /// every column decoded, digest-verified, and the recomputed log
    /// fingerprint checked against the stored one.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn load_log(&self, index: usize) -> Result<Arc<SessionLog>, VcorpError> {
        self.load_log_projected(index, ColumnSet::all())
    }

    /// Loads session `index` with at least the columns in `cols` decoded
    /// and digest-verified; unselected columns are zero-filled and
    /// *unverified* (their digests are still checked by any later full
    /// decode). A resident copy decoded under a superset is returned
    /// as-is; a narrower resident copy is widened (re-decoded under the
    /// union) and replaced, so every outstanding `Arc` of a session saw
    /// at least the columns it asked for.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn load_log_projected(
        &self,
        index: usize,
        cols: ColumnSet,
    ) -> Result<Arc<SessionLog>, VcorpError> {
        loop {
            // Resident hit — or the widened target a miss must decode.
            let want = {
                let resident = self.resident.lock().expect("resident lock");
                match resident.map.get(&index) {
                    Some(entry) if entry.columns.is_superset_of(cols) => {
                        return Ok(Arc::clone(&entry.log))
                    }
                    Some(entry) => entry.columns.union(cols),
                    None => cols,
                }
            };
            if let Some(fault) = &self.fault {
                if fault.should_inject(FaultSite::Decode) {
                    return Err(VcorpError::Corrupt(format!(
                        "injected block decode fault (session index {index})"
                    )));
                }
            }
            let (log, decoded_bytes) = self.decode_projected(index, want)?;
            let log = Arc::new(log);
            let mut resident = self.resident.lock().expect("resident lock");
            match resident.map.get(&index) {
                // Another thread decoded the same session concurrently
                // with everything we need; keep its copy.
                Some(raced) if raced.columns.is_superset_of(cols) => {
                    return Ok(Arc::clone(&raced.log))
                }
                // It decoded columns we did not: neither copy covers
                // both demands. Retry (rare) — the next pass widens over
                // the union.
                Some(raced) if !want.is_superset_of(raced.columns) => continue,
                _ => {}
            }
            if let Some(old) = resident.map.remove(&index) {
                // The replaced copy gives up its FIFO slot; the widened
                // one re-enters at the back.
                resident.bytes -= old.bytes;
                resident.order.retain(|&i| i != index);
            }
            while resident.map.len() >= self.max_resident {
                let evict = resident
                    .order
                    .pop_front()
                    .expect("order lists every resident session");
                let old = resident
                    .map
                    .remove(&evict)
                    .expect("order lists only resident sessions");
                resident.bytes -= old.bytes;
            }
            resident.map.insert(
                index,
                ResidentEntry {
                    log: Arc::clone(&log),
                    columns: want,
                    bytes: decoded_bytes,
                },
            );
            resident.order.push_back(index);
            resident.bytes += decoded_bytes;
            self.peak_resident
                .fetch_max(resident.map.len(), Ordering::Relaxed);
            self.peak_resident_bytes
                .fetch_max(resident.bytes, Ordering::Relaxed);
            return Ok(log);
        }
    }

    /// Reads and decodes the block of session `index` restricted to
    /// `cols`, returning the log and the number of block bytes actually
    /// decoded (header + selected columns).
    fn decode_projected(
        &self,
        index: usize,
        cols: ColumnSet,
    ) -> Result<(SessionLog, usize), VcorpError> {
        let entry = &self.index[index];
        let block_len = entry.block_len as usize;
        let chunks = entry.chunk_count as usize;
        let header_len = block_header_len(entry).ok_or_else(|| {
            VcorpError::Corrupt(format!(
                "session `{}`: block is shorter than its column region",
                entry.id
            ))
        })?;
        // Only the header and the selected column ranges are read; the
        // rest of the buffer stays zeroed and is never examined by the
        // decode.
        let mut bytes = vec![0u8; block_len];
        for (start, len) in projected_ranges(header_len, chunks, cols) {
            self.file
                .read_exact_at(&mut bytes[start..start + len], entry.offset + start as u64)?;
        }
        let log = decode_block(&bytes, entry, cols)?;
        let decoded_bytes = header_len + cols.len() * chunks * 8;
        self.bytes_decoded
            .fetch_add(decoded_bytes as u64, Ordering::Relaxed);
        self.columns_decoded
            .fetch_add(cols.len() as u64, Ordering::Relaxed);
        Ok((log, decoded_bytes))
    }
}

impl Corpus for LazyCorpus {
    fn len(&self) -> usize {
        self.index.len()
    }

    fn session_id(&self, index: usize) -> &str {
        &self.index[index].id
    }

    fn log(&self, index: usize, columns: ColumnSet) -> Result<LogRef<'_>, String> {
        self.load_log_projected(index, columns)
            .map(LogRef::Shared)
            .map_err(|e| e.to_string())
    }

    fn log_fingerprint(&self, index: usize) -> u64 {
        // Served from the index: no block decode, no float re-hash. The
        // stored value is cross-checked against a recompute whenever the
        // block itself is fully decoded (see `decode_block`).
        self.index[index].log_fingerprint
    }

    fn truth(&self, _index: usize) -> Option<&BandwidthTrace> {
        // Ground truth is never stored: `.vcorp` holds recorded logs,
        // exactly like a JSON session directory.
        None
    }

    fn asset(&self) -> &VideoAsset {
        &self.asset
    }

    fn player(&self) -> &PlayerConfig {
        &self.player
    }

    fn deployed_abr(&self) -> &str {
        &self.meta.deployed_abr
    }

    fn residency(&self) -> Option<ResidencyStats> {
        let (resident_sessions, resident_bytes) = {
            let resident = self.resident.lock().expect("resident lock");
            (resident.map.len(), resident.bytes)
        };
        Some(ResidencyStats {
            resident_sessions,
            resident_bytes,
            peak_resident_sessions: self.peak_resident.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_resident_bytes(),
            bytes_decoded: self.bytes_decoded(),
            columns_decoded: self.columns_decoded(),
        })
    }
}
