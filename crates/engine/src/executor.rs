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
//! workers, so the caller can consume incrementally while execution
//! continues.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Number of worker threads to use by default: the available parallelism
/// minus one (leaving a core for the coordinating thread), at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

/// Runs `f(0..count)` across up to `threads` workers, returning the results
/// in index order.
///
/// The paper-figure experiments fan out with it, and
/// `veritas_bench::parallel_map` delegates to it; the engine streams its
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

/// Runs `job` over every index in `jobs` across detached workers,
/// streaming each completed `(job index, result)` pair through a bounded
/// channel.
///
/// The workers share one atomic cursor over `jobs`, so they claim
/// indices in list order and never idle while any job remains. The
/// channel holds at most `capacity` undelivered results: when the
/// consumer falls behind, workers block on `send`, bounding memory by
/// `capacity` records instead of the whole result set. Dropping the
/// receiver shuts the pool down: every subsequent `send` fails and the
/// workers exit. A panicking job poisons nothing — the worker unwinds,
/// its channel handle drops, and the caller observes the panic by joining
/// the returned handles.
pub fn stream<R, F>(
    jobs: Vec<usize>,
    threads: usize,
    capacity: usize,
    job: F,
) -> (mpsc::Receiver<(usize, R)>, Vec<std::thread::JoinHandle<()>>)
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    let shared = Arc::new((jobs, AtomicUsize::new(0), job));
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    let workers = (0..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let (jobs, cursor, job) = &*shared;
                while let Some(&index) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    if tx.send((index, job(index))).is_err() {
                        return; // receiver gone — the run was abandoned
                    }
                }
            })
        })
        .collect();
    (rx, workers)
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

/// Maps `f` over a shared slice with the atomic-cursor worker pool,
/// preserving input order in the output.
pub fn execute<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    execute_indexed(items.len(), threads, |i| f(&items[i]))
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
        let out = execute(&["a", "bb", "ccc"], 1, |s| s.len());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn stream_delivers_every_job_exactly_once() {
        let (rx, workers) = stream(vec![5, 0, 3, 1, 4, 2], 4, 2, |i| i * 10);
        let mut received: Vec<(usize, usize)> = rx.iter().collect();
        for handle in workers {
            handle.join().unwrap();
        }
        received.sort_unstable();
        assert_eq!(
            received,
            (0..6).map(|i| (i, i * 10)).collect::<Vec<_>>(),
            "every job must arrive exactly once"
        );
    }

    #[test]
    fn stream_workers_stop_when_the_receiver_is_dropped() {
        // 64 jobs, capacity 1: dropping the receiver after one result must
        // still let every worker terminate.
        let (rx, workers) = stream((0..64).collect(), 2, 1, |i| i);
        let first = rx.recv().unwrap();
        assert!(first.0 < 64);
        drop(rx);
        for handle in workers {
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
