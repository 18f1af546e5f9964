//! Deterministic batch executor: the workspace's one thread pool.
//!
//! Every parallel fan-out runs through [`Executor::run`]: `n` independent
//! jobs, each a pure function of its index, executed on a fixed pool of
//! scoped workers. The bench binaries fan out paper tables, fault
//! ladders, replication sweeps and model-checker subtrees on it; a
//! simulation itself runs on one event loop. Determinism is structural, not
//! scheduled: job `i` writes its result into slot `i` of a pre-sized
//! output vector, so the returned `Vec` is identical no matter which
//! worker ran which job or in what order. The scheduler only decides
//! *when* a job runs, never *what it computes* (jobs must not share
//! mutable state) or *where its result lands*.
//!
//! Scheduling is one shared atomic cursor: each worker takes the next
//! unstarted index until none is left. Jobs therefore start in index
//! order, which is what lets callers put their longest jobs first. The
//! batches are small (at most a few hundred simulations, or a handful of
//! checker subtrees), so one counter is all the coordination they need.
//!
//! The bench binaries default to one worker per available core
//! ([`Executor::per_core`]); their `--jobs N` flag overrides it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width batch executor; `workers == 1` degenerates to an inline
/// serial loop with zero thread overhead.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
        }
    }

    /// One worker per available core (1 if the core count is unknown).
    pub fn per_core() -> Self {
        Executor::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run jobs `0..n` and return their results in index order.
    ///
    /// `job` must be a pure function of its index (plus shared immutable
    /// captures): the output vector is then independent of worker count and
    /// timing. Panics in a job propagate out of the scope and abort the
    /// batch.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || n <= 1 {
            return (0..n).map(&job).collect();
        }

        // One slot per job. `Mutex<Option<T>>` rather than `OnceLock<T>`
        // so only `T: Send` is demanded of results; each slot is written
        // exactly once, so the lock is never contended.
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // `Relaxed` suffices: the cursor only hands out indices, and the
        // results reach this thread through the slot locks and the
        // scope's join.
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = job(i);
                    *slots[i].lock().expect("no job runs under a slot lock") = Some(out);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no job runs under a slot lock")
                    .expect("the cursor hands out every index below n")
            })
            .collect()
    }

    /// Like [`Executor::run`] for fallible jobs: all jobs run to completion,
    /// then the first error *in input order* (not completion order) is
    /// returned, so error reporting is as deterministic as success.
    pub fn try_run<T, E, F>(&self, n: usize, job: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        self.run(n, job).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_job_exactly_once_in_order() {
        let calls = AtomicUsize::new(0);
        let out = Executor::new(4).run(257, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_any_worker_count() {
        let expect: Vec<u64> = (0..100u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for workers in [1, 2, 3, 7, 16, 200] {
            let got = Executor::new(workers).run(100, |i| (i as u64).wrapping_mul(0x9E37_79B9));
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let ex = Executor::new(8);
        assert_eq!(ex.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(ex.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn skewed_job_durations_still_complete() {
        // Front-loaded long jobs hold the first workers while the others
        // drain the short tail from the cursor.
        let out = Executor::new(4).run(32, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_reports_first_error_in_input_order() {
        // Jobs 3 and 7 both fail; input order must pick 3 regardless of
        // which worker finished first.
        for workers in [1, 4] {
            let got: Result<Vec<usize>, usize> =
                Executor::new(workers)
                    .try_run(10, |i| if i == 3 || i == 7 { Err(i) } else { Ok(i) });
            assert_eq!(got, Err(3), "workers = {workers}");
        }
    }

    #[test]
    fn try_run_ok_keeps_order() {
        let got: Result<Vec<usize>, ()> = Executor::new(3).try_run(20, Ok);
        assert_eq!(got.unwrap(), (0..20).collect::<Vec<_>>());
    }
}
