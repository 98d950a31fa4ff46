//! Codec tests: bit-exact round-trips over arbitrary bit patterns,
//! rejection of every truncation and byte flip at open, typed failure on
//! future schema versions, lazy-load bounds, the column-projection byte
//! pin, and cross-source equivalence with [`SessionCorpus::from_dir`].

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use super::*;
use crate::corpus::{Corpus, SessionCorpus};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veritas_store_test_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// xorshift64* over the full u64 space, reinterpreted as f64 bits:
/// covers NaN payloads, ±0, subnormals, ±inf (same generator as the
/// persist codec tests).
fn bit_source(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        f64::from_bits(state.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }
}

/// A source of ordinary finite values, for logs that must survive a JSON
/// round-trip (serde_json cannot carry NaN/inf).
fn finite_source(start: f64) -> impl FnMut() -> f64 {
    let mut counter = start;
    move || {
        counter += 1.25;
        counter
    }
}

fn synth_log(abr_name: &str, chunks: usize, values: &mut impl FnMut() -> f64) -> SessionLog {
    let records = (0..chunks)
        .map(|i| ChunkRecord {
            index: i,
            quality: i % 5,
            size_bytes: values(),
            ssim: values(),
            wait_before_request_s: values(),
            start_time_s: values(),
            end_time_s: values(),
            download_time_s: values(),
            throughput_mbps: values(),
            buffer_at_request_s: values(),
            rebuffer_s: values(),
            tcp_info: TcpInfo {
                cwnd_segments: values(),
                ssthresh_segments: values(),
                rto_s: values(),
                srtt_s: values(),
                min_rtt_s: values(),
                last_send_gap_s: values(),
            },
            gtbw_at_request_mbps: values(),
        })
        .collect();
    SessionLog {
        abr_name: abr_name.to_string(),
        buffer_capacity_s: values(),
        chunk_duration_s: values(),
        records,
        startup_delay_s: values(),
        total_rebuffer_s: values(),
        session_duration_s: values(),
    }
}

/// A header with sane geometry: the asset regenerated at open must be
/// small regardless of what bit patterns the session blocks carry.
fn meta() -> CorpusMeta {
    CorpusMeta {
        deployed_abr: "mpc".to_string(),
        buffer_capacity_s: 25.0,
        chunk_duration_s: 4.0,
        video_duration_s: 40.0,
        asset_seed: 7,
        note: None,
    }
}

/// Every numeric field of a log as raw bits, in a fixed order — the
/// bit-exactness witness. Reuses [`F64_COLUMNS`] so a column added there
/// is automatically compared here.
fn log_bits(log: &SessionLog) -> Vec<u64> {
    let mut bits = vec![
        log.buffer_capacity_s.to_bits(),
        log.chunk_duration_s.to_bits(),
        log.startup_delay_s.to_bits(),
        log.total_rebuffer_s.to_bits(),
        log.session_duration_s.to_bits(),
        log.records.len() as u64,
    ];
    for record in &log.records {
        bits.push(record.index as u64);
        bits.push(record.quality as u64);
        for (_, get) in &F64_COLUMNS {
            bits.push(get(record).to_bits());
        }
    }
    bits
}

/// Writes a small, fixed, valid corpus and returns its bytes.
fn valid_corpus_bytes(dir: &Path) -> Vec<u8> {
    let path = dir.join("valid.vcorp");
    let mut values = finite_source(0.0);
    let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
    for i in 0..3 {
        let log = synth_log("mpc", 4, &mut values);
        writer.append(&format!("s{i}"), &log).expect("append");
    }
    writer.finish().expect("finish");
    fs::read(&path).expect("read corpus back")
}

proptest! {
    /// Arbitrary corpora round-trip *bit patterns*, not values: NaN
    /// payloads, negative zero, subnormals, and infinities all reload
    /// bit-identical through the lazy reader, and the index serves the
    /// same fingerprints a recompute would.
    #[test]
    fn corpora_round_trip_bit_exactly(
        seed in any::<u64>(),
        sessions in 1usize..5,
        chunks in 1usize..10,
    ) {
        let dir = temp_dir("round_trip");
        let path = dir.join("corpus.vcorp");
        let mut values = bit_source(seed);
        let logs: Vec<SessionLog> = (0..sessions)
            .map(|i| synth_log(&format!("abr-{}", "x".repeat(i % 9)), chunks, &mut values))
            .collect();
        let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
        for (i, log) in logs.iter().enumerate() {
            writer.append(&format!("s{i}"), log).expect("append");
        }
        let bytes = writer.finish().expect("finish");
        prop_assert_eq!(fs::metadata(&path).expect("stat").len(), bytes);

        let corpus = LazyCorpus::open(&path).expect("open a just-written corpus");
        prop_assert_eq!(corpus.len(), logs.len());
        prop_assert_eq!(corpus.meta(), &meta());
        for (i, log) in logs.iter().enumerate() {
            prop_assert_eq!(corpus.session_id(i), format!("s{i}").as_str());
            prop_assert_eq!(Corpus::log_fingerprint(&corpus, i), log_fingerprint(log));
            let loaded = corpus.load_log(i).expect("decode a just-written block");
            prop_assert_eq!(&loaded.abr_name, &log.abr_name);
            prop_assert_eq!(log_bits(&loaded), log_bits(log));
        }
    }

    /// Any prefix truncation is rejected at open as [`VcorpError::Corrupt`]
    /// — never a silently partial corpus, and never a misleading
    /// version error (the version word survives any cut past 16 bytes).
    #[test]
    fn truncated_corpora_are_rejected_at_open(cut in 0usize..4096) {
        let dir = temp_dir("truncation");
        let bytes = valid_corpus_bytes(&dir);
        let cut = cut % bytes.len();
        let path = dir.join("truncated.vcorp");
        fs::write(&path, &bytes[..cut]).expect("write truncated file");
        let err = LazyCorpus::open(&path).expect_err("a truncated corpus must not open");
        prop_assert!(
            matches!(err, VcorpError::Corrupt(_)),
            "expected Corrupt, got: {err}"
        );
    }

    /// Flipping any single byte is caught at open: the magic and version
    /// are compared directly, the trailing checksum covers everything in
    /// between, and FNV-1a's odd multiplier makes a one-byte change
    /// always reach the final hash.
    #[test]
    fn corrupted_corpora_are_rejected_at_open(position in 0usize..4096, flip in 1u8..=255) {
        let dir = temp_dir("byte_flip");
        let mut bytes = valid_corpus_bytes(&dir);
        let position = position % bytes.len();
        bytes[position] ^= flip;
        let path = dir.join("flipped.vcorp");
        fs::write(&path, &bytes).expect("write corrupted file");
        let err = LazyCorpus::open(&path).expect_err("a corrupted corpus must not open");
        prop_assert!(
            matches!(
                err,
                VcorpError::Corrupt(_) | VcorpError::UnsupportedVersion { .. }
            ),
            "expected a format error, got: {err}"
        );
    }
}

proptest! {
    /// A projected decode is bit-identical to the source on every
    /// selected column — over arbitrary bit patterns (NaN payloads,
    /// ±inf, −0.0, subnormals) and an arbitrary column mask — while the
    /// unselected columns come back zero-filled, and the header scalars
    /// always decode bit-exactly.
    #[test]
    fn projected_decodes_are_bit_exact_on_selected_columns(
        seed in any::<u64>(),
        mask in 0u32..(1u32 << ColumnSet::COUNT),
        sessions in 1usize..4,
        chunks in 1usize..8,
    ) {
        let dir = temp_dir("projected_bits");
        let path = dir.join("corpus.vcorp");
        let mut values = bit_source(seed);
        let logs: Vec<SessionLog> = (0..sessions)
            .map(|_| synth_log("mpc", chunks, &mut values))
            .collect();
        let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
        for (i, log) in logs.iter().enumerate() {
            writer.append(&format!("s{i}"), log).expect("append");
        }
        writer.finish().expect("finish");

        let cols = ColumnSet::from_bits(mask).expect("mask is in range");
        // A fresh open per mask: nothing resident, so the decode carries
        // exactly `cols` and the zero-fill of the rest is observable.
        let corpus = LazyCorpus::open(&path).expect("open");
        for (i, log) in logs.iter().enumerate() {
            let loaded = corpus
                .load_log_projected(i, cols)
                .expect("projected decode of a valid corpus");
            prop_assert_eq!(&loaded.abr_name, &log.abr_name);
            prop_assert_eq!(
                loaded.buffer_capacity_s.to_bits(),
                log.buffer_capacity_s.to_bits()
            );
            prop_assert_eq!(
                loaded.chunk_duration_s.to_bits(),
                log.chunk_duration_s.to_bits()
            );
            prop_assert_eq!(
                loaded.startup_delay_s.to_bits(),
                log.startup_delay_s.to_bits()
            );
            prop_assert_eq!(
                loaded.total_rebuffer_s.to_bits(),
                log.total_rebuffer_s.to_bits()
            );
            prop_assert_eq!(
                loaded.session_duration_s.to_bits(),
                log.session_duration_s.to_bits()
            );
            prop_assert_eq!(loaded.records.len(), log.records.len());
            // A resident log keeps no spare record slots.
            prop_assert_eq!(loaded.records.capacity(), log.records.len());
            for (got, want) in loaded.records.iter().zip(&log.records) {
                let index = if cols.contains(columns::INDEX) { want.index } else { 0 };
                prop_assert_eq!(got.index, index);
                let quality = if cols.contains(columns::QUALITY) { want.quality } else { 0 };
                prop_assert_eq!(got.quality, quality);
                for (c, (name, get)) in F64_COLUMNS.iter().enumerate() {
                    let expected = if cols.contains(2 + c) {
                        get(want).to_bits()
                    } else {
                        0.0f64.to_bits()
                    };
                    prop_assert_eq!(
                        get(got).to_bits(),
                        expected,
                        "column `{}` under mask {:?}",
                        name,
                        cols
                    );
                }
            }
        }
    }
}

/// Per-column digest semantics, demonstrated with a byte flipped *after*
/// open (open itself verifies a whole-file checksum, so a pre-open flip
/// never reaches the block decoder): projections that skip the damaged
/// column still decode bit-exactly, projections that select it — and
/// full decodes — fail typed.
#[test]
fn post_open_column_flips_fail_only_the_projections_that_read_them() {
    let dir = temp_dir("post_open_flip");
    let path = dir.join("corpus.vcorp");
    let mut values = finite_source(0.0);
    let log = synth_log("mpc", 6, &mut values);
    let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
    writer.append("s0", &log).expect("append");
    writer.finish().expect("finish");

    // Locate the SSIM column's byte range from the verified index.
    let parts = open_parts(&path).expect("open parts");
    let entry = parts.index[0].clone();
    drop(parts);
    let header_len = block_header_len(&entry).expect("header length");
    let stride = entry.chunk_count as usize * 8;
    let ssim_start = entry.offset as usize + header_len + columns::SSIM * stride;

    // Open first — the retained handle reads whatever the file holds at
    // decode time — then flip one low mantissa byte inside SSIM.
    let corpus = LazyCorpus::open(&path).expect("open before corruption");
    let mut bytes = fs::read(&path).expect("read file");
    bytes[ssim_start + 2] ^= 0x01;
    fs::write(&path, &bytes).expect("rewrite corrupted file");

    // A projection that skips SSIM never reads the damaged bytes: it
    // decodes, and its selected columns are still bit-exact.
    let safe = ColumnSet::of(&[columns::SIZE_BYTES, columns::REBUFFER_S]);
    let loaded = corpus
        .load_log_projected(0, safe)
        .expect("projection skipping the damaged column must decode");
    for (got, want) in loaded.records.iter().zip(&log.records) {
        assert_eq!(got.size_bytes.to_bits(), want.size_bytes.to_bits());
        assert_eq!(got.rebuffer_s.to_bits(), want.rebuffer_s.to_bits());
    }

    // Selecting SSIM (here: a widening re-decode of the resident narrow
    // copy) trips its digest.
    let err = corpus
        .load_log_projected(0, ColumnSet::of(&[columns::SSIM]))
        .expect_err("the damaged column's digest must catch the flip");
    assert!(
        matches!(err, VcorpError::Corrupt(_)),
        "expected Corrupt, got: {err}"
    );

    // So does a full decode, which reads every column.
    let err = corpus
        .load_log(0)
        .expect_err("a full decode must catch the flip");
    assert!(
        matches!(err, VcorpError::Corrupt(_)),
        "expected Corrupt, got: {err}"
    );
}

proptest! {
    /// Arbitrary bytes written over a session block *after* open (so the
    /// whole-file checksum never sees them) reach the block decoder as
    /// is: under any column set, full decodes included, the decode either
    /// succeeds or fails typed as [`VcorpError::Corrupt`] — never a panic.
    #[test]
    fn post_open_block_overwrites_decode_or_fail_typed(
        offset in 0usize..4096,
        patch in prop::collection::vec(any::<u8>(), 1..24),
        mask in 0u32..(1u32 << ColumnSet::COUNT),
        full in any::<bool>(),
    ) {
        let dir = temp_dir("post_open_overwrite");
        let path = dir.join("corpus.vcorp");
        let mut values = finite_source(0.0);
        let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
        writer.append("s0", &synth_log("mpc", 5, &mut values)).expect("append");
        writer.finish().expect("finish");
        let entry = open_parts(&path).expect("open parts").index[0].clone();

        let corpus = LazyCorpus::open(&path).expect("open before corruption");
        let mut bytes = fs::read(&path).expect("read file");
        let block_end = (entry.offset + entry.block_len) as usize;
        let start = entry.offset as usize + offset % entry.block_len as usize;
        let end = (start + patch.len()).min(block_end);
        bytes[start..end].copy_from_slice(&patch[..end - start]);
        fs::write(&path, &bytes).expect("rewrite corrupted file");

        let cols = if full {
            ColumnSet::all()
        } else {
            ColumnSet::from_bits(mask).expect("mask is in range")
        };
        match corpus.load_log_projected(0, cols) {
            Ok(_) | Err(VcorpError::Corrupt(_)) => {}
            Err(other) => panic!("expected a decode or Corrupt under {cols:?}, got: {other}"),
        }
    }
}

/// The digests the interleaved pass replaced, kept as the reference: each
/// selected column hashed on its own, word after word, byte by byte
/// ([`fnv_mix`]; the `f64` columns through [`crate::cache::fnv_mix_f64`]).
fn reference_digests(region: &[u8], chunks: usize, cols: ColumnSet) -> [u64; NUM_COLUMNS] {
    let mut digests = [FNV_OFFSET; NUM_COLUMNS];
    for (column, digest) in digests.iter_mut().enumerate() {
        if !cols.contains(column) {
            continue;
        }
        for row in 0..chunks {
            let at = (column * chunks + row) * 8;
            let word = u64::from_le_bytes(region[at..at + 8].try_into().unwrap());
            if column < 2 {
                fnv_mix(digest, word);
            } else {
                crate::cache::fnv_mix_f64(digest, f64::from_bits(word));
            }
        }
    }
    digests
}

/// A word that is often a float with canonical twins: ±0.0, a NaN with an
/// arbitrary sign and payload, or else arbitrary bits.
fn twin_prone_word(next: &mut impl FnMut() -> u64) -> u64 {
    let word = next();
    match word % 5 {
        0 => (-0.0f64).to_bits(),
        1 => 0.0f64.to_bits(),
        2 => f64::NAN.to_bits() | word >> 13 | word << 63,
        _ => next(),
    }
}

/// [`bit_source`]'s stream as raw words.
fn words(seed: u64) -> impl FnMut() -> u64 {
    let mut values = bit_source(seed);
    move || values().to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Over arbitrary column bits (−0.0, +0.0 and NaN payloads included)
    /// and any column set, the interleaved digests equal the byte-serial
    /// reference column by column; unselected columns stay at the offset
    /// basis on both sides.
    #[test]
    fn interleaved_digests_match_the_byte_serial_reference(
        seed in any::<u64>(),
        chunks in 0usize..14,
        mask in 0u32..(1u32 << ColumnSet::COUNT),
    ) {
        let mut next = words(seed);
        let region: Vec<u8> = (0..NUM_COLUMNS * chunks)
            .flat_map(|_| twin_prone_word(&mut next).to_le_bytes())
            .collect();
        let cols = ColumnSet::from_bits(mask).expect("mask is in range");
        prop_assert_eq!(
            column_digests(&region, chunks, cols),
            reference_digests(&region, chunks, cols)
        );
        prop_assert_eq!(
            column_digests(&region, chunks, ColumnSet::all()),
            reference_digests(&region, chunks, ColumnSet::all())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Words of a block's column region overwritten *after* open, often by
    /// a canonical twin of the word there (the other zero, another NaN
    /// payload): under any column set, full decodes included, a decode
    /// succeeds exactly when the byte-serial reference accepts every
    /// selected column, and a refusal names the first column the
    /// reference rejects, in on-disk order.
    #[test]
    fn post_open_column_overwrites_are_judged_as_the_reference_judges_them(
        seed in any::<u64>(),
        mask in 0u32..(1u32 << ColumnSet::COUNT),
        full in any::<bool>(),
    ) {
        let chunks = 6;
        let dir = temp_dir("post_open_reference");
        let path = dir.join("corpus.vcorp");
        let mut next = words(seed);
        let mut floats = || f64::from_bits(twin_prone_word(&mut next));
        let log = synth_log("mpc", chunks, &mut floats);
        let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
        writer.append("s0", &log).expect("append");
        writer.finish().expect("finish");
        let entry = open_parts(&path).expect("open parts").index[0].clone();
        let region_at = entry.offset as usize + block_header_len(&entry).expect("header length");
        let region_len = NUM_COLUMNS * chunks * 8;

        let corpus = LazyCorpus::open(&path).expect("open before corruption");
        let mut bytes = fs::read(&path).expect("read file");
        let region = &mut bytes[region_at..region_at + region_len];
        for _ in 0..1 + next() % 3 {
            let at = 8 * (next() as usize % (NUM_COLUMNS * chunks));
            let old = u64::from_le_bytes(region[at..at + 8].try_into().unwrap());
            let value = f64::from_bits(old);
            let new = if value == 0.0 {
                old ^ 1 << 63
            } else if value.is_nan() {
                f64::NAN.to_bits() | next() >> 13 | next() << 63
            } else {
                twin_prone_word(&mut next)
            };
            region[at..at + 8].copy_from_slice(&new.to_le_bytes());
        }
        let cols = if full {
            ColumnSet::all()
        } else {
            ColumnSet::from_bits(mask).expect("mask is in range")
        };
        let reference = reference_digests(region, chunks, cols);
        let first_bad = (0..NUM_COLUMNS)
            .find(|&column| cols.contains(column) && reference[column] != entry.column_digests[column]);
        fs::write(&path, &bytes).expect("rewrite overwritten file");

        match (corpus.load_log_projected(0, cols), first_bad) {
            (Ok(_), None) => {}
            (Err(VcorpError::Corrupt(reason)), Some(column)) => {
                let expected = format!("column `{}` digest mismatch", ColumnSet::name(column));
                prop_assert!(reason.ends_with(&expected), "{} under {:?}", reason, cols);
            }
            (outcome, first_bad) => prop_assert!(
                false,
                "decode {:?} but the reference's first bad column is {:?} under {:?}",
                outcome.map(|_| ()),
                first_bad,
                cols
            ),
        }
    }
}

/// The whole-log fingerprint check only a full decode runs: a stored
/// fingerprint patched in the index (and the whole-file checksum resealed,
/// so open accepts the file) fails a full decode, while a projection —
/// which never recomputes the fingerprint — still decodes.
#[test]
fn full_decodes_check_the_stored_log_fingerprint() {
    let dir = temp_dir("fingerprint_check");
    let path = dir.join("corpus.vcorp");
    let mut values = finite_source(0.0);
    let log = synth_log("mpc", 4, &mut values);
    let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
    writer.append("s0", &log).expect("append");
    writer.finish().expect("finish");

    // The index starts with the session count; the one entry then holds
    // the id `s0` (length word + one padded word), offset, block length,
    // and chunk count before the fingerprint word.
    let mut bytes = fs::read(&path).expect("read file");
    let len = bytes.len();
    let word = |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let fingerprint_at = word(&bytes, len - 16) as usize + 8 + 16 + 24;
    assert_eq!(word(&bytes, fingerprint_at), log_fingerprint(&log));
    bytes[fingerprint_at] ^= 0x01;
    let mut checksum = FNV_OFFSET;
    for chunk in bytes[8..len - 8].chunks_exact(8) {
        fnv_mix(&mut checksum, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
    fs::write(&path, &bytes).expect("rewrite resealed file");

    let corpus = LazyCorpus::open(&path).expect("a resealed corpus opens");
    let err = corpus
        .load_log(0)
        .expect_err("a full decode must recompute the fingerprint");
    assert!(
        matches!(&err, VcorpError::Corrupt(reason) if reason.contains("stored log fingerprint")),
        "expected the fingerprint error, got: {err}"
    );
    let projected = corpus
        .load_log_projected(0, ColumnSet::of(&[columns::SIZE_BYTES]))
        .expect("a projection does not recompute the fingerprint");
    for (got, want) in projected.records.iter().zip(&log.records) {
        assert_eq!(got.size_bytes.to_bits(), want.size_bytes.to_bits());
    }
}

#[test]
fn future_schema_versions_fail_typed_before_the_checksum() {
    let dir = temp_dir("future_version");
    let mut bytes = valid_corpus_bytes(&dir);
    // Patch only the version word (to one past the newest readable
    // version): the checksum is now also wrong, but the version must be
    // checked first so the error is actionable.
    bytes[8..16].copy_from_slice(&(VCORP_VERSION_MAX + 1).to_le_bytes());
    let path = dir.join("future.vcorp");
    fs::write(&path, &bytes).expect("write future-version file");
    let err = LazyCorpus::open(&path).expect_err("a future-version corpus must not open");
    match err {
        VcorpError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, VCORP_VERSION_MAX + 1);
            assert_eq!(supported, VCORP_VERSION_MAX);
        }
        other => panic!("expected UnsupportedVersion, got: {other}"),
    }
}

/// Writes `sessions` three-chunk `mpc` logs drawn from `values` and
/// returns the corpus path and the logs.
fn write_three_chunk_corpus(
    name: &str,
    sessions: usize,
    values: &mut impl FnMut() -> f64,
) -> (PathBuf, Vec<SessionLog>) {
    let path = temp_dir(name).join("corpus.vcorp");
    let logs: Vec<SessionLog> = (0..sessions).map(|_| synth_log("mpc", 3, values)).collect();
    let mut writer = VcorpWriter::create(&path, &meta()).expect("create writer");
    for (i, log) in logs.iter().enumerate() {
        writer.append(&format!("s{i}"), log).expect("append");
    }
    writer.finish().expect("finish");
    (path, logs)
}

/// Bytes one decode of a three-chunk `mpc` block reads under `cols`: a
/// 64-byte header (ABR name, five `f64`s, chunk count) plus 8 bytes per
/// chunk per selected column.
fn three_chunk_block_bytes(cols: ColumnSet) -> usize {
    64 + cols.len() * 3 * 8
}

/// Over the resident bound only the most recent decode stays resident:
/// re-fetching it decodes nothing, and fetching any other session decodes
/// its projected bytes again.
#[test]
fn lazy_loading_bounds_the_resident_set() {
    let (path, logs) = write_three_chunk_corpus(
        "resident_bound",
        DEFAULT_MAX_RESIDENT + 1,
        &mut bit_source(42),
    );
    let corpus = LazyCorpus::open(&path).expect("open");
    let residency = || corpus.residency().expect("a lazy corpus reports residency");
    assert_eq!(residency().resident_sessions, 0, "open must decode nothing");
    let cols = ColumnSet::of(&[columns::SIZE_BYTES, columns::SSIM]);
    let block = three_chunk_block_bytes(cols);
    // Two passes: the second starts on a session the first evicted.
    for _ in 0..2 {
        for i in 0..corpus.len() {
            let before = corpus.bytes_decoded();
            corpus.load_log_projected(i, cols).expect("load");
            assert_eq!(corpus.bytes_decoded() - before, block as u64);
            corpus.load_log_projected(i, cols).expect("re-fetch");
            assert_eq!(
                corpus.bytes_decoded() - before,
                block as u64,
                "re-fetching the last decode must decode nothing"
            );
            assert_eq!(
                (residency().resident_sessions, residency().resident_bytes),
                (1, block)
            );
        }
    }
    assert_eq!(residency().peak_resident_sessions, 1);
    assert_eq!(residency().peak_resident_bytes, block);
    // An evicted session reloads bit-identically.
    let reloaded = corpus.load_log(0).expect("reload evicted session");
    assert_eq!(log_bits(&reloaded), log_bits(&logs[0]));
}

/// A corpus within the resident bound keeps every decoded session; a
/// widened session replaces its narrow copy in place, and re-fetches
/// decode nothing.
#[test]
fn a_fitting_corpus_keeps_every_session_and_widens_in_place() {
    let (path, _) = write_three_chunk_corpus(
        "resident_fit",
        DEFAULT_MAX_RESIDENT,
        &mut finite_source(0.0),
    );
    let corpus = LazyCorpus::open(&path).expect("open");
    let residency = || corpus.residency().expect("a lazy corpus reports residency");
    let narrow = ColumnSet::of(&[columns::SIZE_BYTES]);
    let (narrow_bytes, full_bytes) = (
        three_chunk_block_bytes(narrow),
        three_chunk_block_bytes(ColumnSet::all()),
    );
    for i in 0..corpus.len() {
        corpus.load_log_projected(i, narrow).expect("load");
    }
    corpus.load_log(1).expect("widen s1");
    assert_eq!(
        corpus.bytes_decoded() as usize,
        DEFAULT_MAX_RESIDENT * narrow_bytes + full_bytes
    );
    assert_eq!(residency().resident_sessions, DEFAULT_MAX_RESIDENT);
    assert_eq!(
        residency().resident_bytes,
        full_bytes + (DEFAULT_MAX_RESIDENT - 1) * narrow_bytes,
        "the wide copy must replace the narrow one"
    );
    let before = corpus.bytes_decoded();
    for i in 0..corpus.len() {
        corpus.load_log_projected(i, narrow).expect("re-fetch");
    }
    corpus.load_log(1).expect("re-fetch the wide copy");
    assert_eq!(
        corpus.bytes_decoded(),
        before,
        "every session stays resident"
    );
    assert_eq!(residency().peak_resident_sessions, DEFAULT_MAX_RESIDENT);
}

/// The column-projection byte pin: a 3-of-18-column pass over a
/// 1,000-session, 120 s corpus decodes at most a quarter of the block
/// bytes a full pass decodes. Each 60-chunk block is a 64-byte header
/// plus 480 bytes per column, so a projected decode is 1,504 bytes and a
/// full one 8,704.
#[test]
fn a_three_column_projection_decodes_at_most_a_quarter_of_the_bytes() {
    let dir = temp_dir("projection_pin");
    let path = dir.join("corpus.vcorp");
    let corpus = SyntheticSpec {
        sessions: 1000,
        video_duration_s: 120.0,
        ..SyntheticSpec::default()
    }
    .build();
    let meta = CorpusMeta::for_log(&corpus.sessions[0].log);
    let mut writer = VcorpWriter::create(&path, &meta).expect("create writer");
    for session in &corpus.sessions {
        writer.append(&session.id, &session.log).expect("append");
    }
    writer.finish().expect("finish");

    let cols = ColumnSet::of(&[columns::SSIM, columns::SIZE_BYTES, columns::REBUFFER_S]);
    let projected = LazyCorpus::open(&path).expect("open");
    let full = LazyCorpus::open(&path).expect("open");
    for index in 0..projected.len() {
        projected
            .load_log_projected(index, cols)
            .expect("projected decode");
        full.load_log(index).expect("full decode");
    }
    let _ = fs::remove_dir_all(&dir);
    assert!(projected.bytes_decoded() * 4 <= full.bytes_decoded());
    assert_eq!(projected.bytes_decoded(), 1_504_000);
    assert_eq!(full.bytes_decoded(), 8_704_000);
}

#[test]
fn empty_corpora_are_refused_at_write_and_leave_no_debris() {
    let dir = temp_dir("empty_refusal");
    let writer = VcorpWriter::create(dir.join("empty.vcorp"), &meta()).expect("create writer");
    let err = writer
        .finish()
        .expect_err("an empty corpus must be refused");
    assert!(matches!(err, VcorpError::Corrupt(_)));
    let leftovers: Vec<_> = fs::read_dir(&dir).expect("read dir").collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

#[test]
fn duplicate_session_ids_are_refused_at_append() {
    let dir = temp_dir("duplicate_id");
    let mut values = finite_source(0.0);
    let log = synth_log("mpc", 2, &mut values);
    let mut writer = VcorpWriter::create(dir.join("dup.vcorp"), &meta()).expect("create writer");
    writer.append("s0", &log).expect("first append");
    let err = writer
        .append("s0", &log)
        .expect_err("a duplicate id must be refused");
    assert!(matches!(err, VcorpError::Corrupt(_)));
}

#[test]
fn ingested_corpus_is_fingerprint_and_record_identical_to_its_directory() {
    let dir = temp_dir("cross_source");
    let json_dir = dir.join("logs");
    fs::create_dir_all(&json_dir).expect("create json dir");
    let mut values = finite_source(0.0);
    for i in 0..3 {
        let log = synth_log("mpc", 4, &mut values);
        fs::write(json_dir.join(format!("session-{i}.json")), log.to_json())
            .expect("write session json");
    }

    let eager = SessionCorpus::from_dir(&json_dir).expect("load directory");
    let out = dir.join("corpus.vcorp");
    let report = ingest_dir(&json_dir, &out).expect("ingest");
    assert_eq!(report.sessions, 3);
    assert_eq!(report.carried_over, 0);
    assert_eq!(report.replaced, 0);
    let lazy = LazyCorpus::open(&out).expect("open ingested corpus");

    // Same identity end to end: deployed setting, per-session log
    // fingerprints, and the whole-corpus content fingerprint — so plans
    // and cache entries are interchangeable between the two sources.
    assert_eq!(lazy.deployed_fingerprint(), eager.deployed_fingerprint());
    assert_eq!(
        Corpus::content_fingerprint(&lazy),
        Corpus::content_fingerprint(&eager)
    );
    assert_eq!(Corpus::len(&lazy), eager.len());
    for i in 0..eager.len() {
        assert_eq!(Corpus::session_id(&lazy, i), eager.sessions[i].id.as_str());
        assert_eq!(
            Corpus::log_fingerprint(&lazy, i),
            Corpus::log_fingerprint(&eager, i)
        );
        let loaded = lazy.load_log(i).expect("decode");
        assert_eq!(log_bits(&loaded), log_bits(&eager.sessions[i].log));
    }
}

#[test]
fn append_merges_replaces_and_keeps_natural_order() {
    let dir = temp_dir("append_merge");
    let out = dir.join("corpus.vcorp");
    let mut values = finite_source(0.0);

    let dir_a = dir.join("a");
    fs::create_dir_all(&dir_a).expect("create dir a");
    let s1 = synth_log("mpc", 3, &mut values);
    let s3 = synth_log("mpc", 3, &mut values);
    fs::write(dir_a.join("s1.json"), s1.to_json()).expect("write s1");
    fs::write(dir_a.join("s3.json"), s3.to_json()).expect("write s3");
    ingest_dir(&dir_a, &out).expect("initial ingest");

    // s2 is new; s3 supersedes the stored session of the same id.
    let dir_b = dir.join("b");
    fs::create_dir_all(&dir_b).expect("create dir b");
    let s2 = synth_log("mpc", 3, &mut values);
    let s3_replacement = synth_log("mpc", 5, &mut values);
    fs::write(dir_b.join("s2.json"), s2.to_json()).expect("write s2");
    fs::write(dir_b.join("s3.json"), s3_replacement.to_json()).expect("write s3 replacement");
    let report = append_dir(&dir_b, &out).expect("append");
    assert_eq!(report.sessions, 3);
    assert_eq!(report.carried_over, 1);
    assert_eq!(report.replaced, 1);

    let merged = LazyCorpus::open(&out).expect("open merged corpus");
    let ids: Vec<&str> = (0..merged.len()).map(|i| merged.session_id(i)).collect();
    assert_eq!(ids, ["s1", "s2", "s3"], "merge keeps natural id order");
    assert_eq!(log_bits(&merged.load_log(0).expect("s1")), log_bits(&s1));
    assert_eq!(log_bits(&merged.load_log(1).expect("s2")), log_bits(&s2));
    assert_eq!(
        log_bits(&merged.load_log(2).expect("s3")),
        log_bits(&s3_replacement),
        "the JSON file must supersede the stored session"
    );
}
