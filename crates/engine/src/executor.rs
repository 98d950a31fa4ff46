//! The executors: a blocking work-stealing pool over an atomic cursor,
//! and a streaming variant that pushes results through a bounded channel.
//!
//! Workers claim job indices from a shared [`AtomicUsize`] with
//! `fetch_add`, so idle workers "steal" whatever work remains the instant
//! they finish — no job queue, no lock, no contention beyond one atomic
//! increment per job. The blocking [`execute_indexed`] collects results
//! per worker and merges them in input order at the end, so the output is
//! deterministic regardless of which worker ran which job. The streaming
//! [`stream`] instead sends each `(index, result)` pair through a bounded
//! [`mpsc::sync_channel`] the moment it completes and detaches its
//! helper workers, so the caller can consume incrementally while
//! execution continues. The consuming thread is one of the stream's
//! workers: its [`Claim`] runs unclaimed jobs on that thread, so a
//! one-thread stream spawns nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Number of worker threads to use by default: the available parallelism
/// minus one, at least one. The count includes the thread that consumes
/// a run (see [`stream`]), so one core stays free for the rest of the
/// process: a daemon's accept loop and other connections, or a client on
/// the same host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

/// Runs `f(0..count)` across up to `threads` workers, returning the results
/// in index order.
///
/// The paper-figure experiments fan out with it; the engine streams its
/// units through [`stream`] instead. Jobs are claimed with a
/// single relaxed `fetch_add` on a shared cursor, so scheduling is
/// lock-free and naturally load-balanced: a worker that lands a cheap job
/// immediately claims the next one.
///
/// # Panics
///
/// Propagates the panic of any job closure after all workers have stopped.
pub fn execute_indexed<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(count.max(1));
    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break;
                        }
                        local.push((index, f(index)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise a job closure's panic with its original payload
                // so the caller sees the real diagnostic, not a generic
                // join failure.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut merged: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    merged.sort_unstable_by_key(|(index, _)| *index);
    merged.into_iter().map(|(_, result)| result).collect()
}

/// Runs `job` over every index in `jobs` on `threads` workers: the
/// calling thread, through the returned [`Stream::claim`], and
/// `threads − 1` detached helpers (none when `threads == 1`), which send
/// each completed `(job index, result)` pair through a bounded channel.
///
/// Every worker claims indices from one atomic cursor over `jobs`, so
/// jobs start in list order and no worker idles while any job remains.
/// The channel holds at most `capacity` undelivered helper results: when
/// the consumer falls behind, helpers block on `send`, bounding memory by
/// `capacity` records instead of the whole result set. The consumer
/// drains both sources: a ready helper result, else [`Claim::run_next`]
/// on its own thread, and a blocking `recv` only once the claim is
/// exhausted (the channel then closes when the last helper exits).
/// Dropping the receiver shuts the helpers down: every subsequent `send`
/// fails and they exit. A panicking helper job poisons nothing — the
/// helper unwinds, its channel handle drops, and the caller observes the
/// panic by joining [`Stream::helpers`]; a panicking claimed job unwinds
/// through the caller.
pub fn stream<R, F>(jobs: Vec<usize>, threads: usize, capacity: usize, job: F) -> Stream<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    let shared = Arc::new(Shared {
        jobs,
        cursor: AtomicUsize::new(0),
        job,
    });
    let (tx, results) = mpsc::sync_channel(capacity.max(1));
    let helpers = (1..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::spawn(move || {
                while let Some(completed) = shared.run_next() {
                    if tx.send(completed).is_err() {
                        return; // receiver gone — the run was abandoned
                    }
                }
            })
        })
        .collect();
    Stream {
        results,
        helpers,
        claim: Claim { shared },
    }
}

/// A started [`stream`], as its consumer holds it.
pub struct Stream<R> {
    /// The helpers' completed `(job index, result)` pairs.
    pub results: mpsc::Receiver<(usize, R)>,
    /// The helpers' join handles, `threads − 1` of them.
    pub helpers: Vec<std::thread::JoinHandle<()>>,
    /// The consuming thread's claim on the helpers' cursor.
    pub claim: Claim<R>,
}

/// What a stream's workers share: the job list, the cursor into it, and
/// the job itself.
struct Shared<F: ?Sized> {
    jobs: Vec<usize>,
    cursor: AtomicUsize,
    job: F,
}

impl<R, F: Fn(usize) -> R + ?Sized> Shared<F> {
    fn run_next(&self) -> Option<(usize, R)> {
        let &index = self.jobs.get(self.cursor.fetch_add(1, Ordering::Relaxed))?;
        Some((index, (self.job)(index)))
    }
}

/// The consuming thread's claim on a [`stream`]'s cursor: the same
/// cursor its helpers claim from.
pub struct Claim<R> {
    shared: Arc<Shared<dyn Fn(usize) -> R + Send + Sync>>,
}

impl<R> Claim<R> {
    /// Claims the next unclaimed job and runs it on the calling thread,
    /// returning `(job index, result)`; `None` once every job has been
    /// claimed (by this claim or a helper).
    pub fn run_next(&self) -> Option<(usize, R)> {
        self.shared.run_next()
    }
}

/// Runs `job` with panic isolation: a panic is caught and rendered as an
/// `Err` carrying the panic payload's message instead of unwinding
/// through the worker.
///
/// This is the supervision primitive the engine wraps every work unit
/// in: one poisoned unit (a bug, or an injected `ComputePanic` fault)
/// becomes a typed per-unit error record, and the worker thread — and
/// with it every other unit on its shard — survives.
pub fn run_isolated<R>(job: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).map_err(|payload| {
        if let Some(message) = payload.downcast_ref::<&str>() {
            (*message).to_string()
        } else if let Some(message) = payload.downcast_ref::<String>() {
            message.clone()
        } else {
            "worker panicked with a non-string payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let out = execute_indexed(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let _ = execute_indexed(64, 8, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn handles_empty_and_single_thread() {
        let empty: Vec<usize> = execute_indexed(0, 4, |i| i);
        assert!(empty.is_empty());
        let words = ["a", "bb", "ccc"];
        let out = execute_indexed(words.len(), 1, |i| words[i].len());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// Drains a stream the way a run's consumer does: a ready helper
    /// result first, else a job on this thread, and a blocking `recv`
    /// only once the claim is exhausted.
    fn drain<R>(stream: &Stream<R>) -> Vec<(usize, R)> {
        let mut received = Vec::new();
        loop {
            let next = match stream.results.try_recv() {
                Ok(pair) => Some(pair),
                Err(_) => stream
                    .claim
                    .run_next()
                    .or_else(|| stream.results.recv().ok()),
            };
            match next {
                Some(pair) => received.push(pair),
                None => return received,
            }
        }
    }

    #[test]
    fn stream_delivers_every_job_exactly_once() {
        for threads in [1, 2, 4] {
            let stream = stream(vec![5, 0, 3, 1, 4, 2], threads, 2, |i| i * 10);
            assert_eq!(stream.helpers.len(), threads - 1);
            let mut received = drain(&stream);
            for handle in stream.helpers {
                handle.join().unwrap();
            }
            received.sort_unstable();
            assert_eq!(
                received,
                (0..6).map(|i| (i, i * 10)).collect::<Vec<_>>(),
                "every job must arrive exactly once ({threads} threads)"
            );
        }
    }

    #[test]
    fn a_one_thread_stream_runs_every_job_on_the_calling_thread() {
        let stream = stream(vec![2, 0, 1], 1, 4, |i| (i, std::thread::current().id()));
        assert!(stream.helpers.is_empty(), "one thread spawns no helper");
        let received = drain(&stream);
        let me = std::thread::current().id();
        assert_eq!(
            received,
            vec![(2, (2, me)), (0, (0, me)), (1, (1, me))],
            "the claim runs jobs in list order on the caller's thread"
        );
    }

    #[test]
    fn stream_workers_stop_when_the_receiver_is_dropped() {
        // 64 jobs, capacity 1: dropping the receiver after one helper
        // result must still let every helper terminate.
        let Stream {
            results, helpers, ..
        } = stream((0..64).collect(), 3, 1, |i| i);
        assert_eq!(helpers.len(), 2);
        let first = results.recv().unwrap();
        assert!(first.0 < 64);
        drop(results);
        for handle in helpers {
            handle.join().unwrap();
        }
    }

    #[test]
    fn run_isolated_catches_panics_and_extracts_the_message() {
        assert_eq!(run_isolated(|| 42), Ok(42));
        let err = run_isolated(|| -> u32 { panic!("static str payload") }).unwrap_err();
        assert_eq!(err, "static str payload");
        let err = run_isolated(|| -> u32 { panic!("formatted {}", "payload") }).unwrap_err();
        assert_eq!(err, "formatted payload");
        let err = run_isolated(|| -> u32 { std::panic::panic_any(7u8) }).unwrap_err();
        assert!(err.contains("non-string payload"));
    }
}
