//! `whatif_cold` and `scan_warm`: passes of one query set over a `.vcorp`
//! corpus through the in-process engine, each on a fresh engine.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use veritas::Abduction;
use veritas_engine::{
    AbductionCache, Corpus, Engine, LazyCorpus, QueryPlan, QueryRecord, QuerySet,
    DEFAULT_MAX_RESIDENT,
};

use crate::layers::{self, Counts, Split};
use crate::recompose::{expected_ledger, normalized, Ledger, Recomposer, Store};
use crate::report::{json_object, Report};
use crate::stats::{fnv, median, percentile};
use crate::sys;
use crate::workload::{config, decode_volume, persisted_kernels, vpost_files, Kind, THREADS};
use crate::Run;

/// One engine pass: its records, ledger, wall and CPU seconds.
struct Pass {
    records: Vec<QueryRecord>,
    ledger: Ledger,
    wall_s: f64,
    cpu_s: f64,
}

fn engine_pass(corpus: &Arc<LazyCorpus>, set: &QuerySet, cache: &Path) -> Result<Pass, String> {
    let decoded = corpus.bytes_decoded();
    let before = vpost_files(cache);
    let cpu = sys::self_cpu_s();
    let start = Instant::now();
    let engine = Engine::builder()
        .threads(THREADS)
        .cache_dir(cache)
        .build()
        .map_err(|e| e.to_string())?;
    let shared: Arc<dyn Corpus> = corpus.clone();
    let plan = QueryPlan::compile(set, &*shared).map_err(|e| e.to_string())?;
    let report = engine
        .submit_shared(shared, Arc::new(plan))
        .map_err(|e| e.to_string())?
        .wait();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::self_cpu_s() - cpu;
    let after = vpost_files(cache);
    let summary = &report.summary;
    let ledger = Ledger {
        records: report.records.len() as u64,
        inferences: summary.cache_misses,
        memory_hits: summary.cache_hits,
        disk_hits: summary.disk_hits,
        kernel_disk_hits: engine.cache().kernel_disk_hits(),
        bytes_decoded: corpus.bytes_decoded() - decoded,
        // Restores read every stored entry once when the hit count says so.
        vpost_bytes_read: if summary.disk_hits == before.0 {
            before.1
        } else {
            0
        },
        vpost_bytes_written: after.1 - before.1,
        // The engine does not count these; the traced recomposition does.
        replays: 0,
        sampled_traces: 0,
    };
    Ok(Pass {
        records: report.records,
        ledger,
        wall_s,
        cpu_s,
    })
}

/// Checks one pass's records and returns their normalised hash, adding
/// each session's summed unit time (its op latency) to `latencies_ms`.
fn check_records(
    report: &mut Report,
    pass: &Pass,
    expected: &Ledger,
    latencies_ms: &mut Vec<f64>,
) -> u64 {
    let failed: std::collections::BTreeSet<&str> = pass
        .records
        .iter()
        .filter(|r| !r.is_ok())
        .map(|r| r.session.as_str())
        .collect();
    report.failed += failed.len() as u64;
    let mut per_session: BTreeMap<&str, u64> = BTreeMap::new();
    let mut text = String::new();
    for record in &pass.records {
        if record.session != veritas_engine::AGGREGATE_SESSION {
            *per_session.entry(record.session.as_str()).or_insert(0) += record.elapsed_us;
        }
        text.push_str(&normalized(record));
        text.push('\n');
    }
    latencies_ms.extend(per_session.values().map(|&us| us as f64 / 1e3));
    let mut observed = pass.ledger;
    observed.replays = expected.replays;
    observed.sampled_traces = expected.sampled_traces;
    let mismatches = observed.mismatches(expected);
    report.check(mismatches.is_empty(), || {
        format!("engine pass ledger: {}", mismatches.join("; "))
    });
    fnv(text.as_bytes())
}

/// Restricts every query of `set` to the first `n` sessions.
fn subset(set: &QuerySet, n: usize) -> QuerySet {
    let mut set = set.clone();
    for query in &mut set.queries {
        query.sessions = Some((0..n).collect());
    }
    set
}

pub fn run(kind: Kind, run: &Run, report: &mut Report) -> Result<(), String> {
    let set = kind.query_set();
    let crate::SetUp {
        seconds: setup_s,
        open_ms,
        layout,
        corpus,
        ..
    } = crate::set_up(kind, run, |_| Ok(()), Ok)?;
    let corpus = Arc::new(corpus);

    let plan = QueryPlan::compile(&set, &*corpus).map_err(|e| e.to_string())?;
    let (decoded_once, decoded_full) = decode_volume(&layout.corpus(), &plan)?;
    let store = match kind {
        Kind::ScanWarm => Store::Warm {
            kernels: persisted_kernels(&layout.cache())?,
            vpost_bytes: vpost_files(&layout.cache()).1,
        },
        _ => Store::Cold,
    };
    let mut expected = expected_ledger(&plan, &store);
    // With more sessions than the resident bound, a query-major pass
    // decodes every session once per query; a corpus that fits is decoded
    // once, by the warm-up pass, and stays resident.
    let per_pass_decode = if corpus.len() > DEFAULT_MAX_RESIDENT {
        decoded_once * set.queries.len() as u64
    } else {
        0
    };
    expected.bytes_decoded = per_pass_decode.max(decoded_once);

    // A pass's posterior store: a fresh empty directory per pass (cold),
    // or the one set-up filled (warm).
    let pass_cache = |name: &str| match kind {
        Kind::ScanWarm => layout.cache(),
        _ => run.work.join(name),
    };
    let finish_pass = |name: &str| {
        if kind != Kind::ScanWarm {
            crate::remove_dir(&pass_cache(name));
        }
    };

    // Warm-up pass: discarded from the timings; it fixes the reference
    // records and the codec-dependent ledger entries.
    let warm = engine_pass(&corpus, &set, &pass_cache("warm-up"))?;
    finish_pass("warm-up");
    if kind == Kind::WhatifCold {
        expected.vpost_bytes_written = warm.ledger.vpost_bytes_written;
        report.check(warm.ledger.vpost_bytes_written > 0, || {
            "the cold pass persisted no posteriors".to_string()
        });
    }
    let mut discard = Vec::new();
    let reference = check_records(report, &warm, &expected, &mut discard);
    expected.bytes_decoded = per_pass_decode;
    let reference_lines: Vec<String> = warm.records.iter().map(normalized).collect();

    let sessions = plan.sessions() as u64;
    if !run.trace {
        let mut latencies = Vec::new();
        // Per-pass throughput and CPU, reported as medians over the passes.
        let (mut rates, mut cpu_ms, mut passes) = (Vec::new(), Vec::new(), 0u64);
        let start = Instant::now();
        while passes == 0 || start.elapsed().as_secs_f64() < run.seconds {
            passes += 1;
            let pass = engine_pass(&corpus, &set, &pass_cache("pass"))?;
            finish_pass("pass");
            rates.push(sessions as f64 / pass.wall_s);
            cpu_ms.push(pass.cpu_s * 1e3 / sessions as f64);
            let hash = check_records(report, &pass, &expected, &mut latencies);
            report.check(hash == reference, || {
                format!("pass {passes} records differ from the warm-up pass")
            });
        }
        let ops = passes * sessions;
        report.attempted = ops;
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("ops_per_s", median(&rates), "1/s");
        report.metric("op_p50_ms", median(&latencies), "ms");
        report.metric("cpu_ms_per_op", median(&cpu_ms), "ms");
        report.metric("peak_rss_mb", sys::self_peak_rss_mb(), "MB");
        report.lines.push(format!(
            "samples op_latency={} passes={passes} setups={:?} pass_rates={:?}",
            latencies.len(),
            setup_s,
            rates
        ));
        report.lines.push(format!(
            "op_p99_ms = {} ms (not a gated metric)",
            percentile(&latencies, 0.99)
        ));
        report
            .lines
            .push(format!("ledger per pass {}", expected.to_json()));
        // The engine's answers, recomposed layer by layer for two sessions.
        let small = subset(&set, 2);
        let mut recomposer = Recomposer::new(&corpus, Some(&pass_cache("check")), false);
        let mut lines = recomposer.run_set(&small)?;
        finish_pass("check");
        // A fold over two sessions is not the corpus-wide fold.
        lines.retain(|line| !line.contains("\"session\":\"*\""));
        let ids = ["session-0", "session-1"];
        let want: Vec<&String> = warm
            .records
            .iter()
            .zip(&reference_lines)
            .filter(|(r, _)| ids.contains(&r.session.as_str()))
            .map(|(_, line)| line)
            .collect();
        report.check(lines.iter().collect::<Vec<_>>() == want, || {
            "recomposed records differ from the engine's".to_string()
        });
        return Ok(());
    }

    // Traced run: the traced recomposed passes give the split, and the
    // untraced ones beside them the tracing overhead.
    let mut split = Split::default();
    let (mut plain_s, mut traced_s, mut n) = (0.0, 0.0, 0usize);
    let mut last = None;
    let start = Instant::now();
    // Pass 0 is a discarded warm-up; then untraced and traced alternate,
    // ending on a traced pass.
    while n < 3 || n % 2 == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let traced = n >= 2 && n % 2 == 0;
        let warm_up = n == 0;
        n += 1;
        let cache = pass_cache("recompose");
        let mut recomposer = Recomposer::new(&corpus, Some(&cache), traced);
        let begin = Instant::now();
        let root = recomposer.tr.begin(crate::trace::UNATTRIBUTED);
        let lines = recomposer.run_set(&set)?;
        recomposer.tr.end(root);
        let elapsed = begin.elapsed().as_secs_f64();
        finish_pass("recompose");
        report.check(lines == reference_lines, || {
            format!("recomposed pass {n}: records differ from the engine's")
        });
        let mismatches = recomposer.ledger.mismatches(&expected);
        report.check(mismatches.is_empty(), || {
            format!("recomposed pass {n} ledger: {}", mismatches.join("; "))
        });
        if traced {
            traced_s += elapsed;
            split.add(&recomposer.tr);
            last = Some((recomposer.ledger, recomposer.extra));
        } else if !warm_up {
            plain_s += elapsed;
        }
    }
    let (ledger, extra) = last.expect("at least one traced pass");
    let counts = Counts {
        ledger,
        extra,
        ops: sessions,
        open_ms: median(&open_ms),
        peak_resident_bytes: corpus.peak_resident_bytes() as u64,
        projected_bytes_ratio: decoded_once as f64 / decoded_full as f64,
        retries: 0,
        requests: 0,
        shed: 0,
    };
    // Same number of untraced and traced passes, so the ratio of their
    // summed times is the ratio of throughputs.
    let pairs = ((n - 1) / 2) as f64;
    let overhead = (pairs / traced_s) / (pairs / plain_s);
    layers::emit(report, &split, &counts, overhead);
    report.attempted = ((n as u64 - 1) / 2) * sessions;
    report
        .lines
        .push(format!("ledger per pass {}", ledger.to_json()));
    if kind == Kind::ScanWarm {
        report
            .lines
            .push(restore_vs_infer(&corpus, &layout.cache(), &plan)?);
    }
    Ok(())
}

/// Times restoring each session's posterior from the store against
/// re-inferring it, both single-threaded on one shared workspace — the
/// comparison that says whether the disk tier pays for itself.
fn restore_vs_infer(corpus: &LazyCorpus, cache: &Path, plan: &QueryPlan) -> Result<String, String> {
    let planned = &plan.configs()[0];
    let store = veritas_engine::DiskStore::open(cache).map_err(|e| e.to_string())?;
    let workspace = AbductionCache::new().workspace_for(&config());
    let (mut load_ms, mut infer_ms) = (0.0, 0.0);
    for si in 0..corpus.len() {
        let log = corpus
            .load_log_projected(si, plan.column_demand(si))
            .map_err(|e| e.to_string())?;
        let key = veritas_engine::PersistKey {
            log: corpus.log_fingerprint(si),
            config: planned.fingerprint,
            horizon: log.records.len(),
        };
        let begin = Instant::now();
        let restored = store.load(&key, &log, &planned.config, workspace.clone());
        load_ms += begin.elapsed().as_secs_f64() * 1e3;
        let restored = restored.ok_or("a stored posterior failed to load")?;
        let begin = Instant::now();
        let caps = planned.config.capacity_grid();
        let rows = log
            .records
            .iter()
            .map(|r| Abduction::emission_row(r, &caps, planned.config.sigma_mbps))
            .collect();
        let inferred =
            Abduction::try_infer_prepared(&log, &planned.config, rows, workspace.clone())
                .map_err(|e| e.to_string())?;
        infer_ms += begin.elapsed().as_secs_f64() * 1e3;
        if inferred.viterbi_states() != restored.viterbi_states() {
            return Err("a restored posterior differs from its re-inference".to_string());
        }
    }
    let n = corpus.len() as f64;
    let mut entries = BTreeMap::new();
    entries.insert("restore_ms_per_posterior".to_string(), load_ms / n);
    entries.insert("infer_ms_per_posterior".to_string(), infer_ms / n);
    entries.insert("posteriors".to_string(), n);
    Ok(format!("restore_vs_infer {}", json_object(&entries)))
}
