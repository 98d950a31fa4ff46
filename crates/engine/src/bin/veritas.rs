//! The `veritas` CLI: compile declarative query sets into execution plans
//! and run them through the streaming engine.
//!
//! ```text
//! veritas run <queries.json> [--corpus DIR|FILE.vcorp | --synthetic N]
//!             [--seed S] [--threads N] [--stream] [--out FILE]
//!             [--summary FILE] [--no-cache] [--cache-dir DIR]
//!             [--min-cache-hits N] [--allow-errors] [--fault-spec SPEC]
//!             [--retry N] [--workers N [--shards N]] [--worker-cmd CMD]
//! veritas worker [--addr HOST:PORT] ...              # veritasd under another name
//! veritas ingest <DIR> --out FILE.vcorp [--append]
//! veritas synth --out DIR [--sessions N] [--seed S]
//! veritas bench [--sessions N] [--queries N] [--threads N]
//!               [--cache-dir DIR] [--load-sessions N] [--json FILE]
//! veritas serve [--addr HOST:PORT] ...               # veritasd under another name
//! veritas example-queries
//! veritas validate <report.jsonl>
//! ```
//!
//! `run` compiles a query file into a [`QueryPlan`], executes it over a
//! corpus (a directory of session-log JSON files, a columnar binary
//! `.vcorp` corpus served lazily, or a synthesized one), and writes one
//! JSON line per record plus a summary. `ingest` converts a JSON session
//! directory into a `.vcorp` (`--append` merges new logs into an
//! existing file and compacts it); `synth` writes a synthetic corpus
//! *as* a JSON directory, the raw-material generator for ingest smoke
//! tests. By
//! default records are written in deterministic batch order once the run
//! completes; `--stream` writes each line the moment its unit finishes
//! (completion order). `--cache-dir DIR` attaches the persistent abduction
//! store: posteriors are written through to `DIR` and restored on later
//! runs, so a repeat run over an unchanged corpus performs zero EHMM
//! inferences (the summary's `disk_hits` counts the restorations). The
//! exit code is nonzero when any record carries an error, unless
//! `--allow-errors` is passed, or when the run served fewer than
//! `--min-cache-hits N` units from the in-memory cache. `--fault-spec
//! SPEC` attaches a seeded, deterministic fault-injection plan (see
//! `veritas_engine::FaultPlan::parse`; e.g.
//! `seed=42,compute=0.1,disk_read=0.2`) so CI can chaos-test the real
//! binary, and `--retry N` enables per-unit supervision: failed units
//! are re-run up to N attempts with deterministic exponential backoff,
//! and sessions that exhaust their attempts are quarantined.
//!
//! `--workers N` switches `run` to distributed execution: the corpus is
//! partitioned into shards (`--shards`, default one per worker) and
//! farmed to N locally spawned worker processes (`veritas worker`, or
//! whatever `--worker-cmd` names) by a
//! `veritas_engine::dist::Coordinator`; the merged output is
//! byte-identical (after timing normalization) to the single-process
//! run, `--retry` bounds the coordinator's shard re-dispatches, and
//! `--fault-spec` is forwarded to the workers rather than armed
//! locally. `worker` is the daemon under another name — `veritas worker
//! --addr 127.0.0.1:0 --corpus ...` is exactly `veritasd` with the same
//! flags, which is how spawned pools work without a second binary on
//! `PATH`. The corpus and engine flags `run` shares with the daemon are
//! parsed by `veritas_engine::EngineFlags`.
//!
//! `bench` times the same synthetic query set
//! with and without the abduction cache and reports the speedup — plus,
//! with `--cache-dir`, a disk-warm pass restored entirely from the
//! persistent store. `serve` runs the same engine as the `veritasd`
//! daemon (see `veritas_engine::service`). `example-queries` prints a
//! starter query file. `validate` checks that a report is well-formed
//! JSONL.
//!
//! Exit codes follow `EngineError::exit_code`: 1 for failed work (unit
//! failures, cache-floor shortfall), 2 for bad input (usage, query, or
//! config errors), 3 for environment (I/O) errors, 4 for load shedding.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use veritas::VeritasConfig;
use veritas_engine::{
    append_dir, columns, flags, ingest_dir, service, ColumnSet, Corpus, Engine, EngineError,
    EngineFlags, EngineReport, LazyCorpus, Query, QueryKind, QueryPlan, QueryRecord, QuerySet,
    RetryPolicy, RunSummary, SessionCorpus, SyntheticSpec,
};

/// What a subcommand can fail with: a usage problem (bad flags or
/// arguments — exit 2, like [`EngineError::Config`]) or a typed engine
/// failure, whose [`EngineError::exit_code`] becomes the process exit
/// code.
enum CliError {
    Usage(String),
    Engine(EngineError),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Engine(error) => error.exit_code(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) => write!(f, "{message}"),
            CliError::Engine(error) => write!(f, "{error}"),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl From<EngineError> for CliError {
    fn from(error: EngineError) -> Self {
        CliError::Engine(error)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("serve") => service::run_cli(&args[1..]).map_err(CliError::Engine),
        // The worker alias keeps spawned pools single-binary: the dist
        // coordinator launches `current_exe() worker ...` and gets a full
        // veritasd without needing the daemon binary on PATH.
        Some("worker") => service::run_cli(&args[1..]).map_err(CliError::Engine),
        Some("example-queries") => {
            println!("{}", QuerySet::example().to_json());
            Ok(())
        }
        Some("validate") => cmd_validate(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown subcommand `{other}` (try --help)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("veritas: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}

fn print_usage() {
    println!(
        "veritas — batched causal queries over video streaming traces\n\n\
         USAGE:\n\
         \x20 veritas run <queries.json> [--corpus DIR|FILE.vcorp | --synthetic N]\n\
         \x20                            [--seed S] [--threads N] [--stream]\n\
         \x20                            [--out FILE] [--summary FILE] [--no-cache]\n\
         \x20                            [--cache-dir DIR] [--min-cache-hits N]\n\
         \x20                            [--allow-errors] [--fault-spec SPEC] [--retry N]\n\
         \x20                            [--workers N [--shards N]] [--worker-cmd CMD]\n\
         \x20 veritas ingest <DIR> --out FILE.vcorp [--append]\n\
         \x20 veritas synth --out DIR [--sessions N] [--seed S]\n\
         \x20 veritas bench [--sessions N] [--queries N] [--threads N]\n\
         \x20               [--cache-dir DIR] [--load-sessions N] [--json FILE]\n\
         \x20 veritas serve [FLAGS]    the veritasd daemon; flags: veritas serve --help\n\
         \x20 veritas worker [FLAGS]   the same daemon, as a spawned distributed worker\n\
         \x20 veritas example-queries\n\
         \x20 veritas validate <report.jsonl>"
    );
}

/// One parsed `--flag value` option set: the shared engine flags plus
/// the CLI's own.
struct Options {
    positional: Vec<String>,
    engine: EngineFlags,
    stream: bool,
    out: Option<PathBuf>,
    summary: Option<PathBuf>,
    no_cache: bool,
    min_cache_hits: Option<u64>,
    allow_errors: bool,
    append: bool,
    sessions: usize,
    queries: usize,
    load_sessions: Option<usize>,
    json: Option<PathBuf>,
    retry: Option<u32>,
}

/// Parses `args`, accepting only the flags in `allowed` — a flag another
/// subcommand understands is rejected here, not silently ignored. The
/// engine flags go to [`EngineFlags::accept`].
fn parse_options(args: &[String], allowed: &[&str]) -> Result<Options, CliError> {
    let mut options = Options {
        positional: Vec::new(),
        engine: EngineFlags::default(),
        stream: false,
        out: None,
        summary: None,
        no_cache: false,
        min_cache_hits: None,
        allow_errors: false,
        append: false,
        sessions: 4,
        queries: 10,
        load_sessions: None,
        json: None,
        retry: None,
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg.starts_with("--") && !allowed.contains(&arg.as_str()) {
            return Err(CliError::Usage(format!(
                "unknown flag `{arg}` for this subcommand (accepted: {})",
                if allowed.is_empty() {
                    "none".to_string()
                } else {
                    allowed.join(", ")
                }
            )));
        }
        if options.engine.accept(arg, &mut rest)? {
            continue;
        }
        match arg.as_str() {
            "--stream" => options.stream = true,
            "--out" => options.out = Some(flags::value(arg, &mut rest)?.into()),
            "--summary" => options.summary = Some(flags::value(arg, &mut rest)?.into()),
            "--no-cache" => options.no_cache = true,
            "--min-cache-hits" => options.min_cache_hits = Some(flags::number(arg, &mut rest)?),
            "--allow-errors" => options.allow_errors = true,
            "--append" => options.append = true,
            "--sessions" => options.sessions = flags::number(arg, &mut rest)?,
            "--queries" => options.queries = flags::number(arg, &mut rest)?,
            "--load-sessions" => options.load_sessions = Some(flags::number(arg, &mut rest)?),
            "--json" => options.json = Some(flags::value(arg, &mut rest)?.into()),
            "--retry" => options.retry = Some(flags::number(arg, &mut rest)?),
            positional => options.positional.push(positional.to_string()),
        }
    }
    options.engine.validate()?;
    Ok(options)
}

/// Where `run` writes its JSONL record lines.
fn record_writer(out: &Option<PathBuf>) -> Result<Box<dyn Write>, String> {
    match out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Ok(Box::new(std::io::BufWriter::new(file)))
        }
        None => Ok(Box::new(std::io::stdout().lock())),
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(
        args,
        &[
            "--corpus",
            "--synthetic",
            "--seed",
            "--threads",
            "--shards",
            "--stream",
            "--out",
            "--summary",
            "--no-cache",
            "--cache-dir",
            "--min-cache-hits",
            "--allow-errors",
            "--fault-spec",
            "--retry",
            "--workers",
            "--worker-cmd",
        ],
    )?;
    let [query_path] = options.positional.as_slice() else {
        return Err(CliError::Usage(
            "run expects exactly one <queries.json> argument".to_string(),
        ));
    };
    let json = std::fs::read_to_string(query_path)
        .map_err(|e| format!("cannot read {query_path}: {e}"))?;
    let set = QuerySet::from_json(&json).map_err(|e| format!("cannot parse {query_path}: {e}"))?;
    if options.no_cache && options.min_cache_hits.is_some() {
        return Err(CliError::Usage(
            "--min-cache-hits cannot be satisfied with --no-cache".to_string(),
        ));
    }
    let flags = &options.engine;
    let fault = flags.fault_plan()?;
    let in_process = flags.workers == 0;
    if options.no_cache && !in_process {
        return Err(CliError::Usage(
            "--no-cache cannot be combined with --workers (spawned workers always run a \
             cache; share one across them with --cache-dir)"
                .to_string(),
        ));
    }
    // An in-process run shares one fault plan between the corpus and the
    // engine, so every injection point draws from one seeded decision
    // stream. A distributed run forwards the spec to its workers instead:
    // the coordinator's corpus copy is only partitioned and key-mapped,
    // never decoded.
    let corpus = flags.load_corpus(fault.as_ref().filter(|_| in_process))?;
    let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref())?);
    let retry = options.retry.map(RetryPolicy::with_max_attempts);
    // `--retry` bounds the coordinator's shard re-dispatches, or the
    // in-process engine's unit retries.
    let coordinator = flags.coordinator(retry.unwrap_or_default())?;
    let mut handle = match &coordinator {
        Some(coordinator) => coordinator.submit(corpus, plan)?,
        None => {
            let mut builder = flags.engine_builder(fault.as_ref());
            if options.no_cache {
                builder = builder.no_cache();
            }
            if let Some(policy) = retry {
                builder = builder.retry_policy(policy);
            }
            builder.build()?.submit_shared(corpus, plan)?
        }
    };

    let mut writer = record_writer(&options.out)?;
    let summary = if options.stream {
        // Incremental consumption: each record is written (and flushed)
        // the moment its unit completes, in completion order.
        for record in &mut handle {
            let line = serde_json::to_string(&record).expect("record serialization cannot fail");
            writeln!(writer, "{line}").map_err(|e| format!("cannot write record: {e}"))?;
            writer
                .flush()
                .map_err(|e| format!("cannot flush record: {e}"))?;
        }
        handle.into_summary()
    } else {
        let report = handle.wait();
        write!(writer, "{}", report.to_jsonl())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("cannot write records: {e}"))?;
        report.summary
    };

    if let Some(path) = &options.summary {
        let json =
            serde_json::to_string_pretty(&summary).expect("summary serialization cannot fail");
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    report_summary(&summary);
    if summary.errors > 0 && !options.allow_errors {
        return Err(CliError::Engine(EngineError::UnitFailures {
            failed: summary.errors,
            units: summary.units,
        }));
    }
    // The `--min-cache-hits` floor: a shortfall is the typed
    // `CacheShortfall`, exit 1.
    if let Some(expected) = options.min_cache_hits {
        if summary.cache_hits < expected {
            return Err(CliError::Engine(EngineError::CacheShortfall {
                expected,
                observed: summary.cache_hits,
            }));
        }
    }
    Ok(())
}

/// `veritas ingest <DIR> --out FILE.vcorp [--append]`: convert a JSON
/// session directory into the columnar binary store (or merge new logs
/// into an existing one and compact it).
fn cmd_ingest(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args, &["--out", "--append"])?;
    let [dir] = options.positional.as_slice() else {
        return Err(CliError::Usage(
            "ingest expects exactly one <DIR> argument".to_string(),
        ));
    };
    let Some(out) = &options.out else {
        return Err(CliError::Usage(
            "ingest requires --out FILE.vcorp".to_string(),
        ));
    };
    let dir = Path::new(dir);
    let report = if options.append && out.exists() {
        append_dir(dir, out)?
    } else {
        ingest_dir(dir, out)?
    };
    println!(
        "ingested {} sessions into {} ({} bytes; {} carried over, {} replaced)",
        report.sessions,
        out.display(),
        report.bytes,
        report.carried_over,
        report.replaced
    );
    Ok(())
}

/// `veritas synth --out DIR [--sessions N] [--seed S]`: write a synthetic
/// corpus *as* a JSON session directory — raw material for `ingest` and
/// for smoke tests that need a directory-shaped corpus on disk.
fn cmd_synth(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args, &["--out", "--sessions", "--seed"])?;
    if !options.positional.is_empty() {
        return Err(CliError::Usage(
            "synth takes no positional arguments".to_string(),
        ));
    }
    let Some(out) = &options.out else {
        return Err(CliError::Usage("synth requires --out DIR".to_string()));
    };
    let spec = SyntheticSpec {
        sessions: options.sessions,
        seed: options.engine.synthetic_seed(),
        ..SyntheticSpec::default()
    };
    let corpus = spec.try_build()?;
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for session in &corpus.sessions {
        let path = out.join(format!("{}.json", session.id));
        std::fs::write(&path, session.log.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} synthetic sessions (seed {}) to {}",
        corpus.len(),
        spec.seed,
        out.display()
    );
    Ok(())
}

fn report_summary(s: &RunSummary) {
    eprintln!(
        "queryset={} units={} ok={} errors={} cache_hits={} cache_misses={} disk_hits={} \
         retries={} quarantined={} shard_retries={} threads={} shards={} elapsed_ms={:.1}",
        s.queryset,
        s.units,
        s.ok,
        s.errors,
        s.cache_hits,
        s.cache_misses,
        s.disk_hits,
        s.retries,
        s.quarantined.len(),
        s.shard_retries,
        s.threads,
        s.shards,
        s.elapsed_ms
    );
}

/// Machine-readable summary of one `veritas bench` invocation — written
/// with `--json PATH` so engine-level wall-times land next to the
/// criterion medians (`BENCH_*.json`) and future PRs can track the perf
/// trajectory beyond kernel microbenchmarks.
#[derive(serde::Serialize)]
struct BenchJson {
    sessions: usize,
    queries: usize,
    threads: usize,
    units: usize,
    uncached_ms: f64,
    cached_ms: f64,
    speedup: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Wall time of a run warm-started entirely from `--cache-dir`
    /// (`null` when no cache dir was benchmarked).
    disk_warm_ms: Option<f64>,
    /// Posteriors the disk-warm run restored from the store.
    disk_hits: Option<u64>,
    /// `--load-sessions`: JSON-directory open + first query, ms.
    json_load_ms: Option<f64>,
    /// `--load-sessions`: `.vcorp` open + first query, ms.
    vcorp_open_ms: Option<f64>,
    /// `json_load_ms / vcorp_open_ms`.
    load_speedup: Option<f64>,
    /// Peak concurrently resident decoded logs during a full lazy pass
    /// over the `.vcorp` corpus (bounded at 64 for the benchmark).
    peak_resident_sessions: Option<usize>,
    /// Peak resident decoded-log bytes during the full lazy pass.
    peak_resident_bytes: Option<usize>,
    /// Block bytes decoded by the full (every-column) lazy pass.
    bytes_decoded_full: Option<u64>,
    /// Block bytes decoded by the 3-column projected aggregate pass over
    /// the same corpus.
    bytes_decoded_projected: Option<u64>,
    /// Per-session columns the projected pass decoded.
    columns_decoded_projected: Option<u64>,
    /// `bytes_decoded_projected / bytes_decoded_full` — the I/O fraction
    /// column projection leaves of a full decode (the acceptance pin:
    /// <= 0.25 for a 3-of-18-column aggregate).
    projected_bytes_ratio: Option<f64>,
}

/// Result of the `--load-sessions` corpus-load benchmark.
struct LoadBench {
    json_load_ms: f64,
    vcorp_open_ms: f64,
    speedup: f64,
    peak_resident: usize,
    peak_resident_bytes: usize,
    bytes_decoded_full: u64,
    bytes_decoded_projected: u64,
    columns_decoded_projected: u64,
    projected_bytes_ratio: f64,
}

/// Times "open the corpus and answer one probe query" for a JSON session
/// directory (every log parsed before the first answer) versus its
/// ingested `.vcorp` (index-only open; the probe decodes exactly the one
/// session it touches), then runs a full decode pass with a 64-session
/// resident bound to show lazy streaming keeps memory flat.
fn bench_load(n: usize, seed: u64, threads: usize) -> Result<LoadBench, CliError> {
    let root = std::env::temp_dir().join(format!("veritas_bench_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("sessions");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let spec = SyntheticSpec {
        sessions: n,
        video_duration_s: 120.0,
        seed,
        ..SyntheticSpec::default()
    };
    for session in &spec.try_build()?.sessions {
        let path = dir.join(format!("{}.json", session.id));
        std::fs::write(&path, session.log.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let set = QuerySet::new("load-probe", VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::abduction("probe").with_sessions(vec![0]));
    let probe = |corpus: Arc<dyn Corpus>| -> Result<(), CliError> {
        let engine = Engine::builder().threads(threads).no_cache().build()?;
        let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref())?);
        engine.submit_shared(corpus, plan)?.wait();
        Ok(())
    };

    let started = Instant::now();
    probe(Arc::new(SessionCorpus::from_dir(&dir)?))?;
    let json_load_ms = started.elapsed().as_secs_f64() * 1e3;

    // The one-off conversion is not part of either measured path.
    let vcorp = root.join("corpus.vcorp");
    ingest_dir(&dir, &vcorp)?;

    let started = Instant::now();
    probe(Arc::new(
        LazyCorpus::open(&vcorp).map_err(EngineError::from)?,
    ))?;
    let vcorp_open_ms = started.elapsed().as_secs_f64() * 1e3;

    // Full decode pass under a bounded resident set: every session is
    // decoded once, but at most 64 stay in memory.
    let bounded = LazyCorpus::open(&vcorp)
        .map_err(EngineError::from)?
        .with_max_resident(64);
    for index in 0..bounded.len() {
        bounded.load_log(index).map_err(EngineError::from)?;
    }
    let peak_resident = bounded.peak_resident();
    let peak_resident_bytes = bounded.peak_resident_bytes();
    let bytes_decoded_full = bounded.bytes_decoded();

    // Projected aggregate pass: the same corpus, decoding only the three
    // columns a quality/stall aggregate reads. The byte ratio against the
    // full pass is what column projection saves.
    let projected_cols = ColumnSet::of(&[columns::SSIM, columns::SIZE_BYTES, columns::REBUFFER_S]);
    let projected = LazyCorpus::open(&vcorp)
        .map_err(EngineError::from)?
        .with_max_resident(64);
    let mut aggregate = 0.0_f64;
    for index in 0..projected.len() {
        let log = projected
            .load_log_projected(index, projected_cols)
            .map_err(EngineError::from)?;
        for record in &log.records {
            aggregate += record.ssim + record.size_bytes + record.rebuffer_s;
        }
    }
    std::hint::black_box(aggregate);
    let bytes_decoded_projected = projected.bytes_decoded();
    let columns_decoded_projected = projected.columns_decoded();

    let _ = std::fs::remove_dir_all(&root);
    Ok(LoadBench {
        json_load_ms,
        vcorp_open_ms,
        speedup: json_load_ms / vcorp_open_ms.max(1e-9),
        peak_resident,
        peak_resident_bytes,
        bytes_decoded_full,
        bytes_decoded_projected,
        columns_decoded_projected,
        projected_bytes_ratio: bytes_decoded_projected as f64
            / (bytes_decoded_full as f64).max(1e-9),
    })
}

fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(
        args,
        &[
            "--sessions",
            "--queries",
            "--threads",
            "--seed",
            "--cache-dir",
            "--load-sessions",
            "--json",
        ],
    )?;
    let seed = options.engine.synthetic_seed();
    let spec = SyntheticSpec {
        sessions: options.sessions,
        video_duration_s: 120.0,
        seed,
        ..SyntheticSpec::default()
    };
    eprintln!(
        "benchmarking: {} sessions x {} queries",
        spec.sessions, options.queries
    );
    let corpus: Arc<dyn Corpus> = Arc::new(spec.try_build()?);
    let set = QuerySet::cache_stress(options.queries);
    let threads = options.engine.threads.unwrap_or(1);

    let run = |engine: Engine| -> Result<(EngineReport, f64), CliError> {
        let started = Instant::now();
        let report = engine.run(Arc::clone(&corpus), &set)?;
        Ok((report, started.elapsed().as_secs_f64() * 1e3))
    };
    let cached = || Engine::builder().threads(threads).build();
    // Warm once to stabilize, then time uncached vs cached (fresh cache).
    let _ = run(cached()?)?;
    let (uncached_report, uncached_ms) =
        run(Engine::builder().threads(threads).no_cache().build()?)?;
    let (cached_report, cached_ms) = run(cached()?)?;
    assert_eq!(uncached_report.summary.ok, cached_report.summary.ok);

    println!(
        "uncached: {uncached_ms:.1} ms   cached: {cached_ms:.1} ms   speedup: {:.2}x",
        uncached_ms / cached_ms.max(1e-9)
    );
    println!(
        "cached run: {} misses, {} hits over {} units",
        cached_report.summary.cache_misses,
        cached_report.summary.cache_hits,
        cached_report.summary.units
    );

    // With a cache dir: populate the persistent store, then time a fresh
    // engine whose every posterior is restored from disk — the repeat-run
    // production profile.
    let disk_warm = match &options.engine.cache_dir {
        Some(dir) => {
            let with_store = || Engine::builder().threads(threads).cache_dir(dir).build();
            let _ = run(with_store()?)?;
            let (warm_report, warm_ms) = run(with_store()?)?;
            if warm_report.summary.cache_misses > 0 {
                return Err(CliError::Usage(format!(
                    "disk-warm run still inferred {} posteriors — the store at {} is not \
                     serving them",
                    warm_report.summary.cache_misses,
                    dir.display()
                )));
            }
            println!(
                "disk-warm: {warm_ms:.1} ms   ({} posteriors restored from {}, 0 inferred)",
                warm_report.summary.disk_hits,
                dir.display()
            );
            Some((warm_ms, warm_report.summary.disk_hits))
        }
        None => None,
    };

    // `--load-sessions N`: corpus-load comparison over a freshly
    // synthesized N-session JSON directory and its ingested `.vcorp`.
    let load = match options.load_sessions {
        Some(n) => {
            let load = bench_load(n, seed, threads)?;
            println!(
                "corpus load ({n} sessions): json {:.1} ms   vcorp {:.1} ms   speedup {:.1}x   \
                 peak resident {} ({} bytes)",
                load.json_load_ms,
                load.vcorp_open_ms,
                load.speedup,
                load.peak_resident,
                load.peak_resident_bytes
            );
            println!(
                "projection (3/{} columns): {} of {} block bytes decoded ({:.1}%), \
                 {} columns",
                ColumnSet::COUNT,
                load.bytes_decoded_projected,
                load.bytes_decoded_full,
                load.projected_bytes_ratio * 100.0,
                load.columns_decoded_projected
            );
            Some(load)
        }
        None => None,
    };

    if let Some(path) = &options.json {
        let report = BenchJson {
            sessions: options.sessions,
            queries: options.queries,
            threads,
            units: cached_report.summary.units,
            uncached_ms,
            cached_ms,
            speedup: uncached_ms / cached_ms.max(1e-9),
            cache_hits: cached_report.summary.cache_hits,
            cache_misses: cached_report.summary.cache_misses,
            disk_warm_ms: disk_warm.map(|(ms, _)| ms),
            disk_hits: disk_warm.map(|(_, hits)| hits),
            json_load_ms: load.as_ref().map(|l| l.json_load_ms),
            vcorp_open_ms: load.as_ref().map(|l| l.vcorp_open_ms),
            load_speedup: load.as_ref().map(|l| l.speedup),
            peak_resident_sessions: load.as_ref().map(|l| l.peak_resident),
            peak_resident_bytes: load.as_ref().map(|l| l.peak_resident_bytes),
            bytes_decoded_full: load.as_ref().map(|l| l.bytes_decoded_full),
            bytes_decoded_projected: load.as_ref().map(|l| l.bytes_decoded_projected),
            columns_decoded_projected: load.as_ref().map(|l| l.columns_decoded_projected),
            projected_bytes_ratio: load.as_ref().map(|l| l.projected_bytes_ratio),
        };
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialization: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote bench summary to {}", path.display());
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args, &[])?;
    let [path] = options.positional.as_slice() else {
        return Err(CliError::Usage(
            "validate expects exactly one <report.jsonl> argument".to_string(),
        ));
    };
    let data =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut ok = 0usize;
    let mut errors = 0usize;
    let mut kinds = [0usize; 5];
    for (number, line) in data.lines().enumerate() {
        let record: QueryRecord = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: invalid record: {e}", number + 1))?;
        if record.is_ok() {
            ok += 1;
        } else {
            errors += 1;
        }
        kinds[match record.kind {
            QueryKind::Abduction => 0,
            QueryKind::Interventional => 1,
            QueryKind::Counterfactual => 2,
            QueryKind::Sweep => 3,
            QueryKind::Aggregate => 4,
        }] += 1;
    }
    if ok + errors == 0 {
        return Err(CliError::Usage(format!("{path} contains no records")));
    }
    println!(
        "{path}: {} records ({ok} ok, {errors} error) — {} abduction, {} interventional, \
         {} counterfactual, {} sweep, {} aggregate",
        ok + errors,
        kinds[0],
        kinds[1],
        kinds[2],
        kinds[3],
        kinds[4]
    );
    Ok(())
}
