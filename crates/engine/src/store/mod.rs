//! The columnar binary corpus store: `.vcorp` files, streaming ingest,
//! and lazy per-session loading.
//!
//! [`crate::SessionCorpus::from_dir`] parses one JSON file per session,
//! eagerly; at operational corpus sizes (10⁵–10⁶ sessions) parse time and
//! resident memory dominate the (cached) inference, and every run
//! re-hashes raw floats to compute cache fingerprints. This module is the
//! storage layer that removes all three costs:
//!
//! * **`.vcorp` format** — one versioned, checksummed binary file per
//!   corpus: a header carrying the deployed setting, one self-contained
//!   **column-major block** per session (every numeric field stored as
//!   raw little-endian IEEE-754 bits, so a reloaded log is *bit-equal*),
//!   and a trailing session index with byte offsets, per-column FNV
//!   digests, and each session's precomputed
//!   [`log_fingerprint`].
//! * **[`LazyCorpus`]** — opens a `.vcorp` by verifying the whole-file
//!   checksum and reading only the header + index; session logs are
//!   decoded on demand per work unit, each selected column verified
//!   against its index digest first, in one pass over the rows that
//!   steps every column's FNV chain in turn (so the chains' multiplies
//!   overlap instead of running column after column). A corpus of at most
//!   [`DEFAULT_MAX_RESIDENT`] sessions keeps every decoded log; a larger
//!   one keeps only its most recent decode, so corpora larger than RAM
//!   stream through a run. Cache fingerprints are served from the index
//!   — no float re-hashing.
//! * **[`ingest_dir`] / [`append_dir`]** — convert a directory of JSON
//!   session logs into a `.vcorp` (or merge newly arrived logs into an
//!   existing one, then compact), behind `veritas ingest`.
//!
//! # File layout (version 1)
//!
//! Every scalar is a little-endian 64-bit word; strings are a length word
//! followed by UTF-8 bytes zero-padded to a word boundary, so the entire
//! file is word-aligned:
//!
//! ```text
//! magic "VRTSCORP" | version u64
//! header: deployed ABR (string), buffer capacity, chunk duration,
//!         video duration (f64s), asset seed (u64)
//! per-session blocks, back to back, each column-major:
//!     ABR name (string), buffer capacity, chunk duration, startup delay,
//!     total rebuffer, session duration (f64s), chunk count n (u64),
//!     then 18 columns of n values each (chunk index, quality, sizes,
//!     SSIMs, timings, TCP snapshot fields, ground-truth bandwidth)
//! index: session count u64, then per session:
//!     id (string), byte offset, block length, chunk count,
//!     log fingerprint, 18 per-column FNV digests (u64s)
//! index offset u64 | whole-file FNV-1a checksum u64
//! ```
//!
//! The trailing checksum covers every byte between the magic and itself,
//! mixed word-at-a-time through the same FNV-1a primitive as the cache
//! fingerprints. Writes go through a temp file in the destination
//! directory and an atomic rename ([`VcorpWriter`]), so a crash
//! mid-ingest never leaves a half-written corpus under the live name.
//!
//! # Versioning & failure philosophy
//!
//! Unlike the posterior cache (where corruption is a *miss*), a corpus is
//! primary data: any truncation, bit flip, digest mismatch, or length
//! inconsistency is a hard typed error ([`VcorpError::Corrupt`]) at open
//! or first decode — never a silently partial corpus. The version word is
//! checked *before* the checksum, so a file written by a newer schema
//! fails with [`VcorpError::UnsupportedVersion`] rather than a misleading
//! corruption report. Bump [`VCORP_VERSION`] on any incompatible layout
//! change.
//!
//! Backward-compatible header extensions ride on higher versions gated
//! by the same word: version 2 ([`VCORP_VERSION_MAX`]) appends an
//! optional `note` string to the header ([`CorpusMeta::note`]). Files
//! without the field are written at version 1, byte-identical to older
//! binaries' output, and version-1 files load bit-exactly forever — the
//! version word, not probing, decides which fields exist.

mod lazy;

pub use lazy::{LazyCorpus, DEFAULT_MAX_RESIDENT};

/// On-disk column indices of a `.vcorp` session block, for building
/// [`ColumnSet`]s by name. The order is the block layout order: chunk
/// index, quality, then the 16 `f64` fields of
/// [`veritas_player::ChunkRecord`] exactly as `F64_COLUMNS` stores them.
pub mod columns {
    /// Chunk index within the session.
    pub const INDEX: usize = 0;
    /// Quality rung the chunk was fetched at.
    pub const QUALITY: usize = 1;
    /// Chunk size in bytes.
    pub const SIZE_BYTES: usize = 2;
    /// Per-chunk SSIM of the fetched encoding.
    pub const SSIM: usize = 3;
    /// Idle wait before the request was issued, in seconds.
    pub const WAIT_BEFORE_REQUEST_S: usize = 4;
    /// Download start time, in seconds.
    pub const START_TIME_S: usize = 5;
    /// Download end time, in seconds.
    pub const END_TIME_S: usize = 6;
    /// Download duration, in seconds.
    pub const DOWNLOAD_TIME_S: usize = 7;
    /// Observed download throughput, in Mbps.
    pub const THROUGHPUT_MBPS: usize = 8;
    /// Player buffer level when the chunk was requested, in seconds.
    pub const BUFFER_AT_REQUEST_S: usize = 9;
    /// Rebuffer time attributed to the chunk, in seconds.
    pub const REBUFFER_S: usize = 10;
    /// TCP congestion window at request time, in segments.
    pub const CWND_SEGMENTS: usize = 11;
    /// TCP slow-start threshold at request time, in segments.
    pub const SSTHRESH_SEGMENTS: usize = 12;
    /// TCP retransmission timeout at request time, in seconds.
    pub const RTO_S: usize = 13;
    /// TCP smoothed RTT at request time, in seconds.
    pub const SRTT_S: usize = 14;
    /// TCP minimum observed RTT at request time, in seconds.
    pub const MIN_RTT_S: usize = 15;
    /// Gap since the previous TCP send at request time, in seconds.
    pub const LAST_SEND_GAP_S: usize = 16;
    /// Ground-truth bandwidth at request time, in Mbps (synthetic logs).
    pub const GTBW_AT_REQUEST_MBPS: usize = 17;
}

/// A set of `.vcorp` block columns, as a bitset over the
/// [`ColumnSet::COUNT`] on-disk columns (named in [`columns`]).
///
/// Compiled query plans derive one per session — the union of every work
/// unit's column demand — and thread it through
/// [`crate::Corpus::log`] down to the storage layer, which
/// decodes (and digest-verifies) only the selected columns; see
/// [`LazyCorpus`]. An empty set still decodes the block header
/// (session-level scalars), just no per-chunk series. Unselected columns
/// come back zero-filled, so a projected log is only valid for consumers
/// whose demand the set covers — which the plan guarantees.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnSet(u32);

impl ColumnSet {
    /// Number of on-disk columns per session block (chunk index, quality,
    /// and the 16 `f64` fields of [`veritas_player::ChunkRecord`]).
    pub const COUNT: usize = NUM_COLUMNS;

    const ALL_BITS: u32 = (1 << Self::COUNT as u32) - 1;

    /// The empty set.
    pub const fn empty() -> Self {
        Self(0)
    }

    /// Every column — a full decode.
    pub const fn all() -> Self {
        Self(Self::ALL_BITS)
    }

    /// The set containing exactly `columns`.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= ColumnSet::COUNT`.
    pub const fn of(columns: &[usize]) -> Self {
        let mut set = Self::empty();
        let mut i = 0;
        while i < columns.len() {
            set = set.with(columns[i]);
            i += 1;
        }
        set
    }

    /// This set plus `column`.
    ///
    /// # Panics
    ///
    /// Panics if `column >= ColumnSet::COUNT`.
    pub const fn with(self, column: usize) -> Self {
        assert!(column < Self::COUNT, "column index out of range");
        Self(self.0 | 1 << column as u32)
    }

    /// Whether `column` is selected (out-of-range indices are not).
    pub const fn contains(self, column: usize) -> bool {
        column < Self::COUNT && self.0 & (1 << column as u32) != 0
    }

    /// Set union.
    pub const fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Whether `other` is entirely contained in this set.
    pub const fn is_superset_of(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether every column is selected.
    pub const fn is_all(self) -> bool {
        self.0 == Self::ALL_BITS
    }

    /// Whether no column is selected.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of selected columns.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The raw bitmask (bit `i` ⇔ column `i`), for wire transport.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Rebuilds a set from [`ColumnSet::bits`]; `None` if `bits` has any
    /// bit beyond the known columns set (a newer or corrupt producer).
    pub const fn from_bits(bits: u32) -> Option<Self> {
        if bits & !Self::ALL_BITS != 0 {
            None
        } else {
            Some(Self(bits))
        }
    }

    /// Human-readable name of on-disk column `column`.
    ///
    /// # Panics
    ///
    /// Panics if `column >= ColumnSet::COUNT`.
    pub fn name(column: usize) -> &'static str {
        match column {
            0 => "index",
            1 => "quality",
            _ => F64_COLUMNS[column - 2].0,
        }
    }
}

impl fmt::Debug for ColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_all() {
            return write!(f, "ColumnSet(all)");
        }
        let mut set = f.debug_set();
        for column in 0..Self::COUNT {
            if self.contains(column) {
                set.entry(&Self::name(column));
            }
        }
        set.finish()
    }
}

use std::collections::HashSet;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use veritas_net::TcpInfo;
use veritas_player::{ChunkRecord, SessionLog};

use crate::cache::{canonical_bits, fnv_mix, log_fingerprint, FNV_OFFSET};
use crate::corpus::{natural_cmp, sorted_json_paths, Corpus, SyntheticSpec};
use crate::error::EngineError;
use crate::persist::{put_f64, put_u64, Reader};

/// Base schema version of the `.vcorp` layout; bump on any incompatible
/// change so newer files fail typed ([`VcorpError::UnsupportedVersion`])
/// in older binaries instead of decoding as garbage.
pub const VCORP_VERSION: u64 = 1;

/// Newest schema version this binary reads. Version 2 appends one
/// optional free-form `note` string to the header
/// ([`CorpusMeta::note`]); everything else is unchanged. Note-less
/// corpora are still written as version 1, byte-for-byte identical to
/// what version-1-only binaries produce, so the extension costs old
/// files nothing and new files without the field stay readable
/// everywhere.
pub const VCORP_VERSION_MAX: u64 = 2;

/// Leading magic of every corpus file.
const MAGIC: [u8; 8] = *b"VRTSCORP";

/// Decode-time sanity ceilings: corrupted length fields must fail fast
/// instead of driving multi-gigabyte allocations.
const MAX_STR: u64 = 1 << 12;
const MAX_SESSIONS: u64 = 1 << 32;
const MAX_CHUNKS: u64 = 1 << 24;

/// Columns per session block: chunk index, quality, and the 16 `f64`
/// fields of [`ChunkRecord`] (incl. the TCP snapshot).
const NUM_COLUMNS: usize = 2 + F64_COLUMNS.len();

/// Smallest possible index entry (empty id): id-length word, offset,
/// block length, chunk count, log fingerprint, and the column digests.
const ENTRY_MIN_WORDS: usize = 5 + NUM_COLUMNS;

/// Extracts one `f64` column value from a chunk record.
type ColumnGetter = fn(&ChunkRecord) -> f64;

/// The `f64` columns of a block, in on-disk order. Decode rebuilds
/// records by the [`columns`] indices, which follow this order (see
/// `decode_block`), so the two must only ever change together — guarded
/// by the round-trip proptest.
const F64_COLUMNS: [(&str, ColumnGetter); 16] = [
    ("size_bytes", |r| r.size_bytes),
    ("ssim", |r| r.ssim),
    ("wait_before_request_s", |r| r.wait_before_request_s),
    ("start_time_s", |r| r.start_time_s),
    ("end_time_s", |r| r.end_time_s),
    ("download_time_s", |r| r.download_time_s),
    ("throughput_mbps", |r| r.throughput_mbps),
    ("buffer_at_request_s", |r| r.buffer_at_request_s),
    ("rebuffer_s", |r| r.rebuffer_s),
    ("cwnd_segments", |r| r.tcp_info.cwnd_segments),
    ("ssthresh_segments", |r| r.tcp_info.ssthresh_segments),
    ("rto_s", |r| r.tcp_info.rto_s),
    ("srtt_s", |r| r.tcp_info.srtt_s),
    ("min_rtt_s", |r| r.tcp_info.min_rtt_s),
    ("last_send_gap_s", |r| r.tcp_info.last_send_gap_s),
    ("gtbw_at_request_mbps", |r| r.gtbw_at_request_mbps),
];

/// Why a `.vcorp` file could not be written, opened, or decoded.
///
/// A corpus is primary data, so — unlike the posterior cache, where any
/// disk problem is a miss — every inconsistency is a hard error. Converts
/// into [`EngineError`] (`Corrupt`/`UnsupportedVersion` →
/// [`EngineError::CorpusFormat`]).
#[derive(Debug)]
pub enum VcorpError {
    /// The file declares a schema version this binary does not speak.
    UnsupportedVersion {
        /// Version word found in the file.
        found: u64,
        /// The version this binary reads and writes ([`VCORP_VERSION`]).
        supported: u64,
    },
    /// The file is structurally inconsistent: bad magic, failed checksum
    /// or column digest, out-of-bounds offsets, truncation, ...
    Corrupt(String),
    /// An underlying filesystem error.
    Io(io::Error),
}

impl fmt::Display for VcorpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcorpError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported corpus format version {found} (this binary reads version {supported})"
            ),
            VcorpError::Corrupt(reason) => write!(f, "corrupt corpus file: {reason}"),
            VcorpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for VcorpError {}

impl From<io::Error> for VcorpError {
    fn from(e: io::Error) -> Self {
        VcorpError::Io(e)
    }
}

/// The deployed-setting header of a `.vcorp` file — everything needed to
/// reconstruct the asset/player/ABR context of
/// [`crate::SessionCorpus::from_dir`] without any session JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusMeta {
    /// Name of the deployed ABR.
    pub deployed_abr: String,
    /// Player buffer capacity in seconds.
    pub buffer_capacity_s: f64,
    /// Chunk duration of the streamed asset in seconds.
    pub chunk_duration_s: f64,
    /// Video duration in seconds (sizes the regenerated asset).
    pub video_duration_s: f64,
    /// Seed of the stand-in generated asset.
    pub asset_seed: u64,
    /// Optional free-form provenance note (version 2 headers). `None`
    /// keeps the file at the base layout ([`VCORP_VERSION`]); `Some`
    /// writes a version-2 header with the note appended.
    pub note: Option<String>,
}

impl CorpusMeta {
    /// Derives the header from a corpus's first session log, exactly as
    /// [`crate::SessionCorpus::from_dir`] derives its deployed setting —
    /// so a `.vcorp` ingested from a directory reconstructs the *same*
    /// asset, player, and deployed fingerprint as loading the directory.
    pub fn for_log(log: &SessionLog) -> Self {
        let spec = SyntheticSpec::default();
        Self {
            deployed_abr: spec.deployed_abr,
            buffer_capacity_s: log.buffer_capacity_s,
            chunk_duration_s: log.chunk_duration_s,
            video_duration_s: log.records.len() as f64 * log.chunk_duration_s,
            asset_seed: spec.seed,
            note: None,
        }
    }
}

/// One session's entry in the trailing index: where its block lives and
/// the integrity/identity digests decode verifies against.
#[derive(Debug, Clone)]
pub(crate) struct IndexEntry {
    pub(crate) id: String,
    pub(crate) offset: u64,
    pub(crate) block_len: u64,
    pub(crate) chunk_count: u64,
    /// The session's [`crate::log_fingerprint`], precomputed at ingest so
    /// runs over a `.vcorp` never re-hash floats to key the cache.
    pub(crate) log_fingerprint: u64,
    pub(crate) column_digests: [u64; NUM_COLUMNS],
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Distinguishes concurrent temp files within one process; names also
/// carry the pid for cross-process uniqueness (same scheme as
/// [`crate::persist::DiskStore`]).
static WRITER_NONCE: AtomicU64 = AtomicU64::new(0);

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
    let pad = (8 - s.len() % 8) % 8;
    buf.extend_from_slice(&[0u8; 8][..pad]);
}

/// Encodes one session block (column-major) and its per-column digests.
fn encode_block(log: &SessionLog) -> (Vec<u8>, [u64; NUM_COLUMNS]) {
    let n = log.records.len();
    let mut buf = Vec::with_capacity(64 + log.abr_name.len() + n * NUM_COLUMNS * 8);
    put_str(&mut buf, &log.abr_name);
    put_f64(&mut buf, log.buffer_capacity_s);
    put_f64(&mut buf, log.chunk_duration_s);
    put_f64(&mut buf, log.startup_delay_s);
    put_f64(&mut buf, log.total_rebuffer_s);
    put_f64(&mut buf, log.session_duration_s);
    put_u64(&mut buf, n as u64);
    let header_len = buf.len();
    for record in &log.records {
        put_u64(&mut buf, record.index as u64);
    }
    for record in &log.records {
        put_u64(&mut buf, record.quality as u64);
    }
    for (_, get) in &F64_COLUMNS {
        for record in &log.records {
            put_f64(&mut buf, get(record));
        }
    }
    let digests = column_digests(&buf[header_len..], n, ColumnSet::all());
    (buf, digests)
}

/// The FNV-1a digest of every column in `cols`, over a block's column
/// region (the [`NUM_COLUMNS`] columns of `chunks` words each, in on-disk
/// order): the integer columns mix their raw words and the `f64` columns
/// their canonical bits, as [`crate::log_fingerprint`] does. One pass over
/// the rows steps every selected column's chain once per row, so the
/// columns' independent multiply chains overlap instead of running one
/// after another. Unselected columns are not read, and their digests stay
/// at the offset basis.
///
/// The one digest definition: the writer seals each block with it and
/// every decode verifies against it.
fn column_digests(region: &[u8], chunks: usize, cols: ColumnSet) -> [u64; NUM_COLUMNS] {
    let mut selected = [0usize; NUM_COLUMNS];
    let mut count = 0;
    for column in (0..NUM_COLUMNS).filter(|&column| cols.contains(column)) {
        selected[count] = column;
        count += 1;
    }
    let mut digests = [FNV_OFFSET; NUM_COLUMNS];
    for row in 0..chunks {
        for &column in &selected[..count] {
            let word = column_word(region, chunks, column, row);
            let word = if column < 2 {
                word
            } else {
                canonical_bits(f64::from_bits(word))
            };
            fnv_mix(&mut digests[column], word);
        }
    }
    digests
}

/// Word `row` of column `column` in a column region of `chunks` rows.
fn column_word(region: &[u8], chunks: usize, column: usize, row: usize) -> u64 {
    let at = (column * chunks + row) * 8;
    u64::from_le_bytes(region[at..at + 8].try_into().expect("8-byte word"))
}

/// Streams sessions into a new `.vcorp` file.
///
/// The file is written to a temp name in the destination directory and
/// renamed into place by [`VcorpWriter::finish`]; dropping an unfinished
/// writer removes the temp file, so the destination only ever holds a
/// complete, checksummed corpus. Sessions are encoded and flushed as they
/// are appended — ingest never holds more than one decoded log.
#[derive(Debug)]
pub struct VcorpWriter {
    out: Option<BufWriter<File>>,
    final_path: PathBuf,
    tmp_path: PathBuf,
    hash: u64,
    pos: u64,
    index: Vec<IndexEntry>,
    ids: HashSet<String>,
}

impl VcorpWriter {
    /// Creates the temp file and writes the magic, version, and header.
    pub fn create(path: impl Into<PathBuf>, meta: &CorpusMeta) -> Result<Self, VcorpError> {
        let final_path = path.into();
        if meta.deployed_abr.len() as u64 > MAX_STR {
            return Err(VcorpError::Corrupt(format!(
                "deployed ABR name exceeds the {MAX_STR}-byte bound"
            )));
        }
        if meta.note.as_ref().is_some_and(|n| n.len() as u64 > MAX_STR) {
            return Err(VcorpError::Corrupt(format!(
                "corpus note exceeds the {MAX_STR}-byte bound"
            )));
        }
        let parent = match final_path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let tmp_path = parent.join(format!(
            ".tmp-vcorp-{}-{}",
            std::process::id(),
            WRITER_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::create(&tmp_path)?;
        let mut writer = Self {
            out: Some(BufWriter::new(file)),
            final_path,
            tmp_path,
            hash: FNV_OFFSET,
            pos: 0,
            index: Vec::new(),
            ids: HashSet::new(),
        };
        writer.write_raw(&MAGIC)?;
        let mut head = Vec::new();
        // A note upgrades the header to version 2; without one the file
        // is written at the base version, byte-identical to what a
        // version-1-only binary would produce.
        put_u64(
            &mut head,
            if meta.note.is_some() {
                VCORP_VERSION_MAX
            } else {
                VCORP_VERSION
            },
        );
        put_str(&mut head, &meta.deployed_abr);
        put_f64(&mut head, meta.buffer_capacity_s);
        put_f64(&mut head, meta.chunk_duration_s);
        put_f64(&mut head, meta.video_duration_s);
        put_u64(&mut head, meta.asset_seed);
        if let Some(note) = &meta.note {
            put_str(&mut head, note);
        }
        writer.write_words(&head)?;
        Ok(writer)
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<(), VcorpError> {
        self.out
            .as_mut()
            .expect("writer is live until finish")
            .write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Writes word-aligned bytes, folding each word into the running
    /// whole-file checksum.
    fn write_words(&mut self, bytes: &[u8]) -> Result<(), VcorpError> {
        debug_assert_eq!(bytes.len() % 8, 0, "vcorp writes are word-aligned");
        for chunk in bytes.chunks_exact(8) {
            fnv_mix(
                &mut self.hash,
                u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
            );
        }
        self.write_raw(bytes)
    }

    /// Appends one session: encodes its column block, records its index
    /// entry (offset, digests, precomputed log fingerprint).
    pub fn append(&mut self, id: &str, log: &SessionLog) -> Result<(), VcorpError> {
        if id.len() as u64 > MAX_STR {
            return Err(VcorpError::Corrupt(format!(
                "session id exceeds the {MAX_STR}-byte bound"
            )));
        }
        if log.records.len() as u64 > MAX_CHUNKS {
            return Err(VcorpError::Corrupt(format!(
                "session `{id}` has more than {MAX_CHUNKS} chunks"
            )));
        }
        if self.index.len() as u64 == MAX_SESSIONS {
            return Err(VcorpError::Corrupt(format!(
                "corpus exceeds {MAX_SESSIONS} sessions"
            )));
        }
        if !self.ids.insert(id.to_string()) {
            return Err(VcorpError::Corrupt(format!("duplicate session id `{id}`")));
        }
        let (block, column_digests) = encode_block(log);
        let entry = IndexEntry {
            id: id.to_string(),
            offset: self.pos,
            block_len: block.len() as u64,
            chunk_count: log.records.len() as u64,
            log_fingerprint: log_fingerprint(log),
            column_digests,
        };
        self.write_words(&block)?;
        self.index.push(entry);
        Ok(())
    }

    /// Sessions appended so far.
    pub fn sessions(&self) -> usize {
        self.index.len()
    }

    /// Writes the index and trailer, syncs, and atomically renames the
    /// temp file into place. Returns the final file size in bytes.
    ///
    /// Refuses to finish an empty corpus — an empty `.vcorp` could never
    /// reconstruct a deployed setting, mirroring
    /// [`EngineError::EmptyCorpus`] for JSON directories.
    pub fn finish(mut self) -> Result<u64, VcorpError> {
        if self.index.is_empty() {
            return Err(VcorpError::Corrupt(
                "refusing to write a corpus with no sessions".to_string(),
            ));
        }
        let index_offset = self.pos;
        let mut tail = Vec::new();
        put_u64(&mut tail, self.index.len() as u64);
        for entry in &self.index {
            put_str(&mut tail, &entry.id);
            put_u64(&mut tail, entry.offset);
            put_u64(&mut tail, entry.block_len);
            put_u64(&mut tail, entry.chunk_count);
            put_u64(&mut tail, entry.log_fingerprint);
            for &digest in &entry.column_digests {
                put_u64(&mut tail, digest);
            }
        }
        put_u64(&mut tail, index_offset);
        self.write_words(&tail)?;
        let checksum = self.hash;
        self.write_raw(&checksum.to_le_bytes())?;
        let len = self.pos;
        let mut out = self.out.take().expect("finish consumes the writer");
        out.flush()?;
        out.get_ref().sync_all()?;
        drop(out);
        fs::rename(&self.tmp_path, &self.final_path)?;
        Ok(len)
    }
}

impl Drop for VcorpWriter {
    fn drop(&mut self) {
        // An unfinished (or failed) writer leaves no debris behind.
        if self.out.take().is_some() {
            let _ = fs::remove_file(&self.tmp_path);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn corrupt(reason: impl Into<String>) -> VcorpError {
    VcorpError::Corrupt(reason.into())
}

fn need_u64(reader: &mut Reader<'_>, what: &str) -> Result<u64, VcorpError> {
    reader
        .take_u64()
        .ok_or_else(|| corrupt(format!("truncated while reading {what}")))
}

fn need_f64(reader: &mut Reader<'_>, what: &str) -> Result<f64, VcorpError> {
    reader
        .take_f64()
        .ok_or_else(|| corrupt(format!("truncated while reading {what}")))
}

fn take_str(reader: &mut Reader<'_>, what: &str) -> Result<String, VcorpError> {
    let len = need_u64(reader, what)?;
    if len > MAX_STR {
        return Err(corrupt(format!(
            "{what} length {len} exceeds the {MAX_STR}-byte bound"
        )));
    }
    let len = len as usize;
    let padded = len.div_ceil(8) * 8;
    let bytes = reader
        .take_bytes(padded)
        .ok_or_else(|| corrupt(format!("truncated while reading {what}")))?;
    if bytes[len..].iter().any(|&b| b != 0) {
        return Err(corrupt(format!("{what} has nonzero padding")));
    }
    String::from_utf8(bytes[..len].to_vec()).map_err(|_| corrupt(format!("{what} is not UTF-8")))
}

/// Decodes one session block restricted to the columns in `cols` and
/// verifies it against its index entry: the chunk count and every
/// selected column's digest, all computed in one interleaved pass
/// ([`column_digests`]) before any record is built; a mismatch names the
/// first bad column in on-disk order. Unselected columns are skipped —
/// not digest-checked — and their record fields zero-filled, so callers
/// may hand in a buffer whose unselected column ranges were never read.
///
/// A full decode (`cols.is_all()`) also checks that the rebuilt log's
/// recomputed [`crate::log_fingerprint`] equals the stored one, so the
/// stored fingerprints the cache trusts are never unchecked. A partial
/// decode skips that check: it hashes fields that may not be decoded,
/// and cache identity comes from the index's stored fingerprint anyway.
fn decode_block(
    bytes: &[u8],
    entry: &IndexEntry,
    cols: ColumnSet,
) -> Result<SessionLog, VcorpError> {
    let fail = |reason: String| corrupt(format!("session `{}`: {reason}", entry.id));
    let mut reader = Reader::new(bytes);
    let abr_name = take_str(&mut reader, "ABR name")?;
    let buffer_capacity_s = need_f64(&mut reader, "buffer capacity")?;
    let chunk_duration_s = need_f64(&mut reader, "chunk duration")?;
    let startup_delay_s = need_f64(&mut reader, "startup delay")?;
    let total_rebuffer_s = need_f64(&mut reader, "total rebuffer")?;
    let session_duration_s = need_f64(&mut reader, "session duration")?;
    let n = need_u64(&mut reader, "chunk count")?;
    if n != entry.chunk_count {
        return Err(fail(format!(
            "block declares {n} chunks but the index says {}",
            entry.chunk_count
        )));
    }
    let n = n as usize;
    let region = &bytes[reader.pos()..];
    if n.checked_mul(NUM_COLUMNS * 8) != Some(region.len()) {
        return Err(fail(format!(
            "block length {} does not match its {n} declared chunks",
            bytes.len()
        )));
    }
    let digests = column_digests(region, n, cols);
    if let Some(column) = (0..NUM_COLUMNS)
        .find(|&column| cols.contains(column) && digests[column] != entry.column_digests[column])
    {
        return Err(fail(format!(
            "column `{}` digest mismatch",
            ColumnSet::name(column)
        )));
    }
    // An unselected column reads as zero, whatever the buffer holds there.
    let masks: [u64; NUM_COLUMNS] =
        std::array::from_fn(|column| if cols.contains(column) { !0 } else { 0 });
    let word = |column: usize, row: usize| column_word(region, n, column, row) & masks[column];
    let float = |column: usize, row: usize| f64::from_bits(word(column, row));
    let int = |column: usize, row: usize| {
        usize::try_from(word(column, row))
            .map_err(|_| fail(format!("column `{}` overflows", ColumnSet::name(column))))
    };
    // Sized up front: collecting through `Result` cannot see the length,
    // so the vector would grow by doubling and keep up to twice the
    // records' memory in every resident log.
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        records.push(ChunkRecord {
            index: int(columns::INDEX, i)?,
            quality: int(columns::QUALITY, i)?,
            size_bytes: float(columns::SIZE_BYTES, i),
            ssim: float(columns::SSIM, i),
            wait_before_request_s: float(columns::WAIT_BEFORE_REQUEST_S, i),
            start_time_s: float(columns::START_TIME_S, i),
            end_time_s: float(columns::END_TIME_S, i),
            download_time_s: float(columns::DOWNLOAD_TIME_S, i),
            throughput_mbps: float(columns::THROUGHPUT_MBPS, i),
            buffer_at_request_s: float(columns::BUFFER_AT_REQUEST_S, i),
            rebuffer_s: float(columns::REBUFFER_S, i),
            tcp_info: TcpInfo {
                cwnd_segments: float(columns::CWND_SEGMENTS, i),
                ssthresh_segments: float(columns::SSTHRESH_SEGMENTS, i),
                rto_s: float(columns::RTO_S, i),
                srtt_s: float(columns::SRTT_S, i),
                min_rtt_s: float(columns::MIN_RTT_S, i),
                last_send_gap_s: float(columns::LAST_SEND_GAP_S, i),
            },
            gtbw_at_request_mbps: float(columns::GTBW_AT_REQUEST_MBPS, i),
        });
    }
    let log = SessionLog {
        abr_name,
        buffer_capacity_s,
        chunk_duration_s,
        records,
        startup_delay_s,
        total_rebuffer_s,
        session_duration_s,
    };
    if cols.is_all() && log_fingerprint(&log) != entry.log_fingerprint {
        return Err(fail(
            "stored log fingerprint does not match the decoded log".to_string(),
        ));
    }
    Ok(log)
}

/// Length in bytes of a session block's header (ABR string, five session
/// scalars, chunk-count word) — everything before the column region. The
/// index pins the chunk count, so this is derivable without touching the
/// block itself; projected reads use it to locate column byte ranges.
pub(crate) fn block_header_len(entry: &IndexEntry) -> Option<usize> {
    let columns = (entry.chunk_count as usize).checked_mul(NUM_COLUMNS * 8)?;
    (entry.block_len as usize).checked_sub(columns)
}

/// The byte ranges of a block a decode under `cols` reads: the header,
/// then each selected column, with adjacent selections coalesced into one
/// contiguous range (the reader issues one `pread` per range, so a full
/// decode is a single read of the whole block). Returns `(start, len)`
/// pairs in ascending order.
pub(crate) fn projected_ranges(
    header_len: usize,
    chunks: usize,
    cols: ColumnSet,
) -> Vec<(usize, usize)> {
    let stride = chunks * 8;
    let mut ranges: Vec<(usize, usize)> = vec![(0, header_len)];
    for column in 0..NUM_COLUMNS {
        if !cols.contains(column) {
            continue;
        }
        let start = header_len + column * stride;
        match ranges.last_mut() {
            Some((last_start, last_len)) if *last_start + *last_len == start => *last_len += stride,
            _ => ranges.push((start, stride)),
        }
    }
    ranges.retain(|&(_, len)| len > 0);
    ranges
}

/// The verified skeleton of an open `.vcorp`: the file handle (positioned
/// arbitrarily), the header, and the parsed session index.
pub(crate) struct VcorpParts {
    pub(crate) file: File,
    pub(crate) meta: CorpusMeta,
    pub(crate) index: Vec<IndexEntry>,
}

/// Opens and fully verifies a `.vcorp` skeleton: magic, version (typed
/// error *before* anything else is trusted), whole-file checksum (a
/// truncated or bit-flipped file is rejected here, never a partial
/// corpus), header, and a bounds-checked index parse. Session blocks are
/// *not* decoded — that happens lazily, re-verified per block.
pub(crate) fn open_parts(path: &Path) -> Result<VcorpParts, VcorpError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len % 8 != 0 {
        return Err(corrupt(format!(
            "file length {len} is not a multiple of the 8-byte word size"
        )));
    }
    // Magic + version + minimal header + count word + index offset + checksum.
    if len < 96 {
        return Err(corrupt(format!("file is too short ({len} bytes)")));
    }
    let mut head = [0u8; 16];
    file.read_exact(&mut head)?;
    if head[..8] != MAGIC {
        return Err(corrupt("bad magic (not a .vcorp corpus)"));
    }
    let version = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
    if !(VCORP_VERSION..=VCORP_VERSION_MAX).contains(&version) {
        return Err(VcorpError::UnsupportedVersion {
            found: version,
            supported: VCORP_VERSION_MAX,
        });
    }
    file.seek(SeekFrom::End(-16))?;
    let mut trailer = [0u8; 16];
    file.read_exact(&mut trailer)?;
    let index_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
    let stored_checksum = u64::from_le_bytes(trailer[8..].try_into().expect("8 bytes"));
    // Whole-file checksum over everything between magic and checksum,
    // streamed in word-aligned chunks: open never trusts an unverified
    // byte, and a truncated/flipped file fails here with one message.
    file.seek(SeekFrom::Start(8))?;
    let mut hash = FNV_OFFSET;
    let mut remaining = len - 16;
    let mut buf = vec![0u8; 64 * 1024];
    while remaining > 0 {
        let take = remaining.min(buf.len() as u64) as usize;
        file.read_exact(&mut buf[..take])?;
        for chunk in buf[..take].chunks_exact(8) {
            fnv_mix(
                &mut hash,
                u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
            );
        }
        remaining -= take as u64;
    }
    if hash != stored_checksum {
        return Err(corrupt(
            "whole-file checksum mismatch (truncated or corrupted corpus)",
        ));
    }
    if index_offset % 8 != 0 || index_offset < 56 || index_offset > len - 24 {
        return Err(corrupt(format!(
            "index offset {index_offset} out of bounds"
        )));
    }
    // Header: bounded by the string ceiling, parsed with the shared
    // bounds-checked reader. Two strings can appear (ABR name always,
    // the version-2 note optionally), so the cap covers both.
    let header_cap = ((index_offset - 16) as usize).min(2 * (8 + MAX_STR as usize) + 32);
    let mut header_bytes = vec![0u8; header_cap];
    file.seek(SeekFrom::Start(16))?;
    file.read_exact(&mut header_bytes)?;
    let mut reader = Reader::new(&header_bytes);
    let deployed_abr = take_str(&mut reader, "deployed ABR name")?;
    let buffer_capacity_s = need_f64(&mut reader, "buffer capacity")?;
    let chunk_duration_s = need_f64(&mut reader, "chunk duration")?;
    let video_duration_s = need_f64(&mut reader, "video duration")?;
    let asset_seed = need_u64(&mut reader, "asset seed")?;
    // The version word gates every extension field: a version-1 file
    // ends its header here, bit-exactly as always, and is never probed
    // for fields it predates.
    let note = if version >= 2 {
        Some(take_str(&mut reader, "corpus note")?)
    } else {
        None
    };
    let header_end = 16 + reader.pos() as u64;
    if header_end > index_offset {
        return Err(corrupt("header overlaps the session index"));
    }
    let meta = CorpusMeta {
        deployed_abr,
        buffer_capacity_s,
        chunk_duration_s,
        video_duration_s,
        asset_seed,
        note,
    };
    // Index region: [index_offset, len - 16).
    let region_len = (len - 16 - index_offset) as usize;
    file.seek(SeekFrom::Start(index_offset))?;
    let mut region = vec![0u8; region_len];
    file.read_exact(&mut region)?;
    let mut reader = Reader::new(&region);
    let count = need_u64(&mut reader, "session count")?;
    if count == 0 {
        return Err(corrupt("corpus contains no sessions"));
    }
    if count > MAX_SESSIONS {
        return Err(corrupt(format!(
            "session count {count} exceeds the {MAX_SESSIONS} bound"
        )));
    }
    match (count as usize).checked_mul(ENTRY_MIN_WORDS * 8) {
        Some(min) if min + 8 <= region_len => {}
        _ => {
            return Err(corrupt(format!(
                "index region is shorter than its {count} declared sessions"
            )))
        }
    }
    let mut index = Vec::with_capacity(count as usize);
    let mut ids = HashSet::with_capacity(count as usize);
    // Blocks are written back to back; enforcing contiguity rules out
    // overlapping or out-of-bounds blocks in one pass.
    let mut prev_end = header_end;
    for _ in 0..count {
        let id = take_str(&mut reader, "session id")?;
        let offset = need_u64(&mut reader, "session offset")?;
        let block_len = need_u64(&mut reader, "session block length")?;
        let chunk_count = need_u64(&mut reader, "session chunk count")?;
        let log_fingerprint = need_u64(&mut reader, "session log fingerprint")?;
        let mut column_digests = [0u64; NUM_COLUMNS];
        for digest in &mut column_digests {
            *digest = need_u64(&mut reader, "column digest")?;
        }
        if chunk_count > MAX_CHUNKS {
            return Err(corrupt(format!(
                "session `{id}` declares {chunk_count} chunks (bound {MAX_CHUNKS})"
            )));
        }
        if offset != prev_end || block_len % 8 != 0 {
            return Err(corrupt(format!(
                "session `{id}` block is not contiguous with its predecessor"
            )));
        }
        let end = offset
            .checked_add(block_len)
            .filter(|&end| end <= index_offset)
            .ok_or_else(|| corrupt(format!("session `{id}` block extends past the index")))?;
        prev_end = end;
        if !ids.insert(id.clone()) {
            return Err(corrupt(format!("duplicate session id `{id}`")));
        }
        index.push(IndexEntry {
            id,
            offset,
            block_len,
            chunk_count,
            log_fingerprint,
            column_digests,
        });
    }
    if prev_end != index_offset {
        return Err(corrupt("gap between the last session block and the index"));
    }
    if !reader.at_end() {
        return Err(corrupt("trailing bytes after the session index"));
    }
    Ok(VcorpParts { file, meta, index })
}

// ---------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------

/// What an ingest did: session counts and the final file size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Sessions in the written corpus.
    pub sessions: usize,
    /// Sessions carried over unchanged from an existing `.vcorp`
    /// (append mode; `0` for a fresh ingest).
    pub carried_over: usize,
    /// Existing sessions superseded by a same-id JSON file (append mode).
    pub replaced: usize,
    /// Size of the written file in bytes.
    pub bytes: u64,
}

fn read_log(path: &Path) -> Result<(String, SessionLog), EngineError> {
    let data = fs::read_to_string(path)?;
    let log = SessionLog::from_json(&data)?;
    let id = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    Ok((id, log))
}

/// Converts a directory of `*.json` session logs into a `.vcorp` at
/// `out`, streaming: one log is resident at a time. Sessions keep the
/// numeric-aware name order of [`crate::SessionCorpus::from_dir`], so the
/// resulting corpus is record- and fingerprint-identical to loading the
/// directory.
pub fn ingest_dir(dir: &Path, out: &Path) -> Result<IngestReport, EngineError> {
    let paths = sorted_json_paths(dir)?;
    if paths.is_empty() {
        return Err(EngineError::EmptyCorpus);
    }
    let (first_id, first_log) = read_log(&paths[0])?;
    let mut writer = VcorpWriter::create(out, &CorpusMeta::for_log(&first_log))?;
    writer.append(&first_id, &first_log)?;
    drop(first_log);
    for path in &paths[1..] {
        let (id, log) = read_log(path)?;
        writer.append(&id, &log)?;
    }
    let bytes = writer.finish()?;
    Ok(IngestReport {
        sessions: paths.len(),
        carried_over: 0,
        replaced: 0,
        bytes,
    })
}

/// Merges newly arrived `*.json` logs from `dir` into the existing
/// `.vcorp` at `out`, then compacts: the merged corpus is rewritten as
/// one contiguous file and atomically renamed over the old one. A JSON
/// file whose stem matches an existing session id *replaces* that
/// session. The merged order is the same numeric-aware id order a fresh
/// ingest of the union would produce, so append-then-open ≡
/// ingest-of-union.
pub fn append_dir(dir: &Path, out: &Path) -> Result<IngestReport, EngineError> {
    let existing = LazyCorpus::open(out)?;
    let new_paths = sorted_json_paths(dir)?;

    enum Source {
        Existing(usize),
        New(PathBuf),
    }
    let mut merged: Vec<(String, Source)> = (0..existing.len())
        .map(|i| (existing.session_id(i).to_string(), Source::Existing(i)))
        .collect();
    let mut replaced = 0usize;
    for path in new_paths {
        let id = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if let Some(slot) = merged
            .iter_mut()
            .find(|(existing_id, _)| *existing_id == id)
        {
            slot.1 = Source::New(path);
            replaced += 1;
        } else {
            merged.push((id, Source::New(path)));
        }
    }
    merged.sort_by(|(a, _), (b, _)| natural_cmp(a, b).then_with(|| a.cmp(b)));
    let carried_over = existing.len() - replaced;

    let load = |source: &Source| -> Result<SessionLog, EngineError> {
        match source {
            Source::Existing(i) => Ok(existing.load_log(*i)?.as_ref().clone()),
            Source::New(path) => Ok(read_log(path)?.1),
        }
    };
    let first_log = load(&merged[0].1)?;
    let mut writer = VcorpWriter::create(out, &CorpusMeta::for_log(&first_log))?;
    writer.append(&merged[0].0, &first_log)?;
    drop(first_log);
    for (id, source) in &merged[1..] {
        writer.append(id, &load(source)?)?;
    }
    let bytes = writer.finish()?;
    Ok(IngestReport {
        sessions: merged.len(),
        carried_over,
        replaced,
        bytes,
    })
}

#[cfg(test)]
mod tests;
