//! `vbench` — the Veritas end-to-end benchmark.
//!
//! ```text
//! vbench --workload whatif_cold|scan_warm|nextchunk_serve --seed N
//!        --seconds S --trace 0|1 [--veritasd PATH]
//! ```
//!
//! With `--trace 0` a run sets up its inputs five times (reporting the
//! median set-up time), discards a warm-up pass, times passes for
//! `--seconds`, checks every answer and prints the end-to-end metrics.
//! With `--trace 1` it instead drives the engine's layers itself, with a
//! span around each call, and prints the per-layer split. The last stdout
//! line is always the JSON result. See README.md for the workloads.

mod inproc;
mod layers;
mod recompose;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::Report;
use veritas_engine::LazyCorpus;
use workload::{Kind, Layout};

/// Set-ups per run; the reported `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One run's arguments.
pub struct Run {
    seed: u64,
    seconds: f64,
    trace: bool,
    veritasd: Option<PathBuf>,
    /// Scratch directory of this run, removed when it ends.
    work: PathBuf,
}

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    veritasd: Option<PathBuf>,
    setup_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        veritasd: None,
        setup_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--veritasd" => args.veritasd = Some(PathBuf::from(value()?)),
            "--setup-dir" => args.setup_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs the set-up step of `kind` in a child process writing to `layout`.
fn setup_child(kind: Kind, seed: u64, layout: &Layout) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .arg("--setup-dir")
        .arg(&layout.dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("set-up of {} failed: {status}", kind.name()));
    }
    Ok(())
}

/// The outcome of the timed set-up: every repeat's duration and corpus
/// open time, and the last repeat's outputs, which the run goes on with.
struct SetUp<T> {
    seconds: Vec<f64>,
    open_ms: Vec<f64>,
    layout: Layout,
    corpus: LazyCorpus,
    extra: T,
}

/// Sets up `SETUP_REPEATS` times: the set-up child, the corpus open, then
/// `finish` (starting a daemon, say), all timed. Every repeat but the last
/// is torn down with `discard`.
fn set_up<T>(
    kind: Kind,
    run: &Run,
    finish: impl Fn(&Layout) -> Result<T, String>,
    discard: impl Fn(T) -> Result<(), String>,
) -> Result<SetUp<T>, String> {
    let (mut seconds, mut open_ms) = (Vec::new(), Vec::new());
    for i in 0..SETUP_REPEATS {
        let layout = Layout {
            dir: run.work.join(format!("setup-{i}")),
        };
        let start = Instant::now();
        setup_child(kind, run.seed, &layout)?;
        let open = Instant::now();
        let corpus = LazyCorpus::open(layout.corpus()).map_err(|e| e.to_string())?;
        open_ms.push(open.elapsed().as_secs_f64() * 1e3);
        let extra = finish(&layout)?;
        seconds.push(start.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPEATS {
            return Ok(SetUp {
                seconds,
                open_ms,
                layout,
                corpus,
                extra,
            });
        }
        discard(extra)?;
        drop(corpus);
        remove_dir(&layout.dir);
    }
    unreachable!("SETUP_REPEATS is at least 1")
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = args.workload else {
        eprintln!("vbench: --workload is required");
        return ExitCode::from(2);
    };
    if let Some(dir) = args.setup_dir {
        return match workload::setup(kind, args.seed, &Layout { dir }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("vbench: set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", kind.name(), std::process::id()));
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        veritasd: args.veritasd,
        work,
    };
    println!(
        "vbench: workload={} seed={} seconds={} trace={} cpus={}",
        kind.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();
    let outcome = match kind {
        Kind::NextchunkServe => serve::run(&run, &mut report),
        Kind::WhatifCold | Kind::ScanWarm => inproc::run(kind, &run, &mut report),
    };
    remove_dir(&run.work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(()) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vbench: {e}");
            ExitCode::FAILURE
        }
    }
}
