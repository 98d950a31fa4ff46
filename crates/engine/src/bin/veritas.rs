//! The `veritas` CLI: compile declarative query sets into execution plans
//! and run them through the streaming engine.
//!
//! ```text
//! veritas run <queries.json> [--corpus DIR|FILE.vcorp | --synthetic N]
//!             [--seed S] [--threads N] [--stream] [--out FILE]
//!             [--summary FILE] [--cache-dir DIR] [--min-cache-hits N]
//!             [--allow-errors] [--fault-spec SPEC] [--retry N]
//!             [--workers N [--shards N]] [--worker-cmd CMD]
//! veritas worker [--addr HOST:PORT] ...              # veritasd under another name
//! veritas ingest <DIR> --out FILE.vcorp [--append]
//! veritas synth --out DIR [--sessions N] [--seed S]
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
//! `serve` runs the same engine as the `veritasd` daemon (see
//! `veritas_engine::service`). `example-queries` prints a starter query
//! file. `validate` checks that a report is well-formed JSONL.
//!
//! Exit codes follow `EngineError::exit_code`: 1 for failed work (unit
//! failures, cache-floor shortfall), 2 for bad input (usage, query, or
//! config errors), 3 for environment (I/O) errors, 4 for load shedding.

use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use veritas_engine::{
    append_dir, flags, ingest_dir, service, EngineError, EngineFlags, QueryKind, QueryPlan,
    QueryRecord, QuerySet, RetryPolicy, RunSummary, SyntheticSpec,
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

impl From<EngineError> for CliError {
    fn from(error: EngineError) -> Self {
        CliError::Engine(error)
    }
}

/// A failed file or stream operation: the typed environment error
/// ([`EngineError::Io`], exit 3), its message saying what failed on
/// which path.
fn io_error(what: impl Display, error: std::io::Error) -> CliError {
    CliError::Engine(EngineError::Io(std::io::Error::new(
        error.kind(),
        format!("{what}: {error}"),
    )))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
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
         \x20                            [--out FILE] [--summary FILE]\n\
         \x20                            [--cache-dir DIR] [--min-cache-hits N]\n\
         \x20                            [--allow-errors] [--fault-spec SPEC] [--retry N]\n\
         \x20                            [--workers N [--shards N]] [--worker-cmd CMD]\n\
         \x20 veritas ingest <DIR> --out FILE.vcorp [--append]\n\
         \x20 veritas synth --out DIR [--sessions N] [--seed S]\n\
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
    min_cache_hits: Option<u64>,
    allow_errors: bool,
    append: bool,
    sessions: usize,
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
        min_cache_hits: None,
        allow_errors: false,
        append: false,
        sessions: 4,
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
            "--min-cache-hits" => options.min_cache_hits = Some(flags::number(arg, &mut rest)?),
            "--allow-errors" => options.allow_errors = true,
            "--append" => options.append = true,
            "--sessions" => options.sessions = flags::number(arg, &mut rest)?,
            "--retry" => options.retry = Some(flags::number(arg, &mut rest)?),
            positional => options.positional.push(positional.to_string()),
        }
    }
    options.engine.validate()?;
    Ok(options)
}

/// Where `run` writes its JSONL record lines.
fn record_writer(out: &Option<PathBuf>) -> Result<Box<dyn Write>, CliError> {
    match out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| io_error(format_args!("cannot create {}", path.display()), e))?;
            Ok(Box::new(std::io::BufWriter::new(file)))
        }
        // Buffered here too: records are written piece by piece, and
        // stdout's line buffering would make one `write` per record.
        None => Ok(Box::new(std::io::BufWriter::new(std::io::stdout().lock()))),
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
        .map_err(|e| io_error(format_args!("cannot read {query_path}"), e))?;
    let set = QuerySet::from_json(&json)
        .map_err(|e| CliError::Usage(format!("cannot parse {query_path}: {e}")))?;
    let flags = &options.engine;
    let fault = flags.fault_plan()?;
    let in_process = flags.workers == 0;
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
            record
                .write_line(&mut writer)
                .map_err(|e| io_error("cannot write record", e))?;
            writer
                .flush()
                .map_err(|e| io_error("cannot flush record", e))?;
        }
        handle.into_summary()
    } else {
        let report = handle.wait();
        report
            .write_jsonl(&mut writer)
            .and_then(|()| writer.flush())
            .map_err(|e| io_error("cannot write records", e))?;
        report.summary
    };

    if let Some(path) = &options.summary {
        let json =
            serde_json::to_string_pretty(&summary).expect("summary serialization cannot fail");
        std::fs::write(path, json)
            .map_err(|e| io_error(format_args!("cannot write {}", path.display()), e))?;
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
    std::fs::create_dir_all(out)
        .map_err(|e| io_error(format_args!("cannot create {}", out.display()), e))?;
    for session in &corpus.sessions {
        let path = out.join(format!("{}.json", session.id));
        std::fs::write(&path, session.log.to_json())
            .map_err(|e| io_error(format_args!("cannot write {}", path.display()), e))?;
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

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args, &[])?;
    let [path] = options.positional.as_slice() else {
        return Err(CliError::Usage(
            "validate expects exactly one <report.jsonl> argument".to_string(),
        ));
    };
    let data = std::fs::read_to_string(Path::new(path))
        .map_err(|e| io_error(format_args!("cannot read {path}"), e))?;
    let mut ok = 0usize;
    let mut errors = 0usize;
    let mut kinds = [0usize; 5];
    for (number, line) in data.lines().enumerate() {
        let record: QueryRecord = serde_json::from_str(line)
            .map_err(|e| CliError::Usage(format!("{path}:{}: invalid record: {e}", number + 1)))?;
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
