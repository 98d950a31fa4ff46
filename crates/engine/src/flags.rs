//! The engine flags both binaries share, parsed in one place.
//!
//! `veritas run` and `veritasd` (also `veritas serve` / `veritas
//! worker`) accept the same nine flags for the corpus they execute over
//! and the engine that executes it:
//!
//! ```text
//! [--corpus DIR|FILE.vcorp | --synthetic N] [--seed S] [--threads N]
//! [--cache-dir DIR] [--fault-spec SPEC] [--workers N] [--worker-cmd CMD]
//! [--shards N]   (with --workers only)
//! ```
//!
//! Each binary's own parser offers every argument to
//! [`EngineFlags::accept`] first and handles only what it declines. The
//! same type then loads the corpus, configures the engine, and — for
//! `--workers N` — spawns the coordinator, forwarding
//! [`EngineFlags::to_args`] to the workers, which parse it with this
//! very parser.

use std::path::PathBuf;
use std::sync::Arc;

use crate::corpus::{Corpus, SessionCorpus, SyntheticSpec};
use crate::dist::{worker_command, Coordinator, DistConfig};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::runner::{Engine, EngineBuilder, RetryPolicy};
use crate::store::LazyCorpus;

/// Sessions in the synthetic corpus served when no source is named.
const DEFAULT_SYNTHETIC_SESSIONS: usize = 4;

/// Seed of the synthetic corpus when `--seed` is absent.
const DEFAULT_SYNTHETIC_SEED: u64 = 7;

/// The parsed engine flags (see the [module docs](self)). Every field
/// holds exactly what its flag said, so [`EngineFlags::to_args`] can
/// reproduce it; defaults apply when the flags are used.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineFlags {
    /// `--corpus`: a directory of per-session JSON logs, or a `.vcorp`
    /// file (served lazily).
    pub corpus: Option<PathBuf>,
    /// `--synthetic`: sessions of a synthetic corpus (the default source,
    /// with 4 sessions).
    pub synthetic: Option<usize>,
    /// `--seed`: the synthetic corpus seed (default 7).
    pub seed: Option<u64>,
    /// `--threads`: threads per plan, counting the thread that consumes
    /// it (a `veritasd` connection thread, or the CLI's main thread):
    /// each plan spawns `threads − 1` helpers (default: available
    /// parallelism minus one, at least one).
    pub threads: Option<usize>,
    /// `--shards`: the partition width of a `--workers` run (default one
    /// shard per worker).
    pub shards: Option<usize>,
    /// `--cache-dir`: the persistent abduction store.
    pub cache_dir: Option<PathBuf>,
    /// `--fault-spec`: a seeded fault-injection plan (see
    /// [`FaultPlan::parse`]).
    pub fault_spec: Option<String>,
    /// `--workers`: worker processes for distributed execution (`0`:
    /// run in-process).
    pub workers: usize,
    /// `--worker-cmd`: the worker launch command (see
    /// [`worker_command`]).
    pub worker_cmd: Option<String>,
}

/// The value following `flag` on the command line.
pub fn value<'a>(
    flag: &str,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<String, EngineError> {
    rest.next()
        .cloned()
        .ok_or_else(|| EngineError::Config(format!("{flag} requires a value")))
}

/// The numeric value following `flag` on the command line.
pub fn number<'a, T: std::str::FromStr>(
    flag: &str,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<T, EngineError> {
    let text = value(flag, rest)?;
    text.parse()
        .map_err(|_| EngineError::Config(format!("invalid numeric value `{text}` for {flag}")))
}

impl EngineFlags {
    /// Consumes `flag` — and its value, from `rest` — when it is one of
    /// the engine flags; returns `Ok(false)` for any other argument,
    /// leaving it to the caller's parser.
    pub fn accept<'a>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, EngineError> {
        match flag {
            "--corpus" => self.corpus = Some(value(flag, rest)?.into()),
            "--synthetic" => self.synthetic = Some(number(flag, rest)?),
            "--seed" => self.seed = Some(number(flag, rest)?),
            "--threads" => self.threads = Some(number(flag, rest)?),
            "--shards" => self.shards = Some(number(flag, rest)?),
            "--cache-dir" => self.cache_dir = Some(value(flag, rest)?.into()),
            "--fault-spec" => self.fault_spec = Some(value(flag, rest)?),
            "--workers" => self.workers = number(flag, rest)?,
            "--worker-cmd" => self.worker_cmd = Some(value(flag, rest)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rejects flag combinations no run can honor: two corpus sources,
    /// or a shard count without worker processes to partition across.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.corpus.is_some() && self.synthetic.is_some() {
            return Err(EngineError::Config(
                "--corpus and --synthetic are mutually exclusive".to_string(),
            ));
        }
        if self.shards.is_some() && self.workers == 0 {
            return Err(EngineError::Config(
                "--shards sets the partition width of a --workers run; it requires --workers N"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// The synthetic corpus seed (`--seed`, default 7).
    pub fn synthetic_seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SYNTHETIC_SEED)
    }

    /// The flags a worker process needs to serve the same corpus with
    /// the same engine: the corpus source, `--cache-dir`, `--threads`
    /// and `--fault-spec`, each exactly as given.
    pub fn to_args(&self) -> Vec<String> {
        let forwarded = [
            (
                "--corpus",
                self.corpus.as_ref().map(|p| p.display().to_string()),
            ),
            ("--synthetic", self.synthetic.map(|n| n.to_string())),
            ("--seed", self.seed.map(|s| s.to_string())),
            (
                "--cache-dir",
                self.cache_dir.as_ref().map(|p| p.display().to_string()),
            ),
            ("--threads", self.threads.map(|n| n.to_string())),
            ("--fault-spec", self.fault_spec.clone()),
        ];
        forwarded
            .into_iter()
            .filter_map(|(flag, value)| Some([flag.to_string(), value?]))
            .flatten()
            .collect()
    }

    /// Parses `--fault-spec`; a malformed spec is an
    /// [`EngineError::Config`].
    pub fn fault_plan(&self) -> Result<Option<Arc<FaultPlan>>, EngineError> {
        self.fault_spec
            .as_deref()
            .map(|spec| {
                FaultPlan::parse(spec)
                    .map(Arc::new)
                    .map_err(|e| EngineError::Config(format!("invalid --fault-spec `{spec}`: {e}")))
            })
            .transpose()
    }

    /// Loads the corpus: a `--corpus` path ending in `.vcorp` opens the
    /// columnar store lazily (with `fault` arming its block-decode
    /// injection point); any other path is a JSON session directory; no
    /// path synthesizes a corpus.
    pub fn load_corpus(
        &self,
        fault: Option<&Arc<FaultPlan>>,
    ) -> Result<Arc<dyn Corpus>, EngineError> {
        let vcorp = self
            .corpus
            .as_deref()
            .filter(|path| path.extension().is_some_and(|ext| ext == "vcorp"));
        match (vcorp, &self.corpus) {
            (Some(path), _) => {
                let mut corpus = LazyCorpus::open(path)?;
                if let Some(plan) = fault {
                    corpus = corpus.with_fault_plan(Arc::clone(plan));
                }
                Ok(Arc::new(corpus))
            }
            (None, Some(dir)) => Ok(Arc::new(SessionCorpus::from_dir(dir)?)),
            (None, None) => Ok(Arc::new(
                SyntheticSpec {
                    sessions: self.synthetic.unwrap_or(DEFAULT_SYNTHETIC_SESSIONS),
                    seed: self.synthetic_seed(),
                    ..SyntheticSpec::default()
                }
                .try_build()?,
            )),
        }
    }

    /// An [`EngineBuilder`] with `--threads`, `--cache-dir` and the given
    /// fault plan applied; the caller adds its own knobs.
    pub fn engine_builder(&self, fault: Option<&Arc<FaultPlan>>) -> EngineBuilder {
        let mut builder = Engine::builder();
        if let Some(threads) = self.threads {
            builder = builder.threads(threads);
        }
        if let Some(dir) = &self.cache_dir {
            builder = builder.cache_dir(dir);
        }
        if let Some(plan) = fault {
            builder = builder.fault_plan(Arc::clone(plan));
        }
        builder
    }

    /// With `--workers N`, spawns N worker processes (forwarding
    /// [`Self::to_args`]) behind a [`Coordinator`] that partitions into
    /// `--shards` shards and re-dispatches failed shards under `retry`;
    /// `None` without `--workers`.
    pub fn coordinator(&self, retry: RetryPolicy) -> Result<Option<Coordinator>, EngineError> {
        if self.workers == 0 {
            return Ok(None);
        }
        let command = worker_command(self.worker_cmd.as_deref())?;
        let config = DistConfig {
            shards: self.shards.unwrap_or(0),
            retry,
            ..DistConfig::default()
        };
        Coordinator::spawn(self.workers, &command, &self.to_args(), config).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn forwarded_worker_args_round_trip_through_the_worker_parser() {
        for source in [
            &["--corpus", "traces/sessions"][..],
            &["--corpus", "traces/corpus.vcorp"][..],
            &["--synthetic", "3", "--seed", "11"][..],
        ] {
            let mut line = args(source);
            line.extend(args(&[
                "--cache-dir",
                "/tmp/vcache",
                "--threads",
                "2",
                "--fault-spec",
                "seed=7,compute=0.1",
                "--workers",
                "3",
                "--shards",
                "5",
                "--worker-cmd",
                "./veritasd",
            ]));
            let front = ServiceConfig::parse(&line).unwrap().engine;
            assert_eq!(front.threads, Some(2));
            assert_eq!(front.workers, 3);
            // A worker parses the forwarded flags (plus the pool's own)
            // back into the front end's engine flags, minus the ones that
            // only make sense at the front.
            let mut forwarded = front.to_args();
            forwarded.extend(args(&["--addr", "127.0.0.1:0", "--admission", "64"]));
            let worker = ServiceConfig::parse(&forwarded).unwrap().engine;
            assert_eq!(
                worker,
                EngineFlags {
                    shards: None,
                    workers: 0,
                    worker_cmd: None,
                    ..front
                },
                "source {source:?}"
            );
        }
    }
}
