//! Deterministic work-stealing batch executor.
//!
//! Every parallel fan-out in the bench crate — paper tables, fault ladders,
//! replication sweeps — runs through [`Executor::run`]: `n` independent jobs,
//! each a pure function of its index, executed on a fixed pool of scoped
//! workers. Determinism is structural, not scheduled: job `i` writes its
//! result into slot `i` of a pre-sized output vector, so the returned `Vec`
//! is identical no matter which worker ran which job or in what order. The
//! scheduler only decides *when* a job runs, never *what it computes* (jobs
//! must not share mutable state) or *where its result lands*.
//!
//! Work distribution is range-splitting with tail stealing. The index space
//! `0..n` is pre-split into one contiguous range per worker; an idle worker
//! steals the upper half of the largest remaining range. Stealing halves
//! keeps contention logarithmic in jobs-per-worker (a worker revisits the
//! locks O(log n) times, not O(n)) while preserving the front-to-back sweep
//! order that makes long jobs (which the table registry front-loads) start
//! early.
//!
//! The bench binaries default to one worker per available core
//! ([`Executor::per_core`]); their `--jobs N` flag overrides it.

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
        Executor { workers: workers.max(1) }
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
    /// steal timing. Panics in a job propagate out of the scope and abort
    /// the batch.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.workers == 1 || n == 1 {
            return (0..n).map(&job).collect();
        }

        // One slot per job. `Mutex<Option<T>>` rather than `OnceLock<T>`
        // so only `T: Send` is demanded of results; each slot is written
        // exactly once, so the lock is never contended.
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let workers = self.workers.min(n);

        // Pre-split 0..n into one contiguous [lo, hi) range per worker.
        // Each range sits behind its own mutex; owners pop from the front,
        // thieves carve off the back, so the two ends never contend over
        // the same index.
        let ranges: Vec<Mutex<(usize, usize)>> = (0..workers)
            .map(|w| {
                let lo = n * w / workers;
                let hi = n * (w + 1) / workers;
                Mutex::new((lo, hi))
            })
            .collect();

        std::thread::scope(|scope| {
            for me in 0..workers {
                let job = &job;
                let slots = &slots;
                let ranges = &ranges;
                scope.spawn(move || loop {
                    // Drain our own range front-to-back.
                    let mine = {
                        let mut r = ranges[me].lock().unwrap();
                        if r.0 >= r.1 {
                            None
                        } else {
                            let i = r.0;
                            r.0 += 1;
                            Some(i)
                        }
                    };
                    if let Some(i) = mine {
                        let out = job(i);
                        let prev = slots[i].lock().unwrap().replace(out);
                        debug_assert!(prev.is_none(), "job {i} executed twice");
                        continue;
                    }
                    // Own range empty: steal the upper half of the largest
                    // remaining range. A job mid-steal is briefly invisible
                    // to this scan, so a thief can retire one round early;
                    // that job still runs on the worker that claimed it, so
                    // completeness is unaffected.
                    let mut best = None;
                    let mut best_len = 0;
                    for (v, range) in ranges.iter().enumerate() {
                        if v == me {
                            continue;
                        }
                        let r = range.lock().unwrap();
                        let len = r.1.saturating_sub(r.0);
                        if len > best_len {
                            best_len = len;
                            best = Some(v);
                        }
                    }
                    let Some(victim) = best else { break };
                    let mut v = ranges[victim].lock().unwrap();
                    let len = v.1.saturating_sub(v.0);
                    if len == 0 {
                        continue; // raced with the owner; rescan
                    }
                    let take = len.div_ceil(2);
                    let new_hi = v.1 - take;
                    let stolen = (new_hi, v.1);
                    v.1 = new_hi;
                    drop(v);
                    let mut r = ranges[me].lock().unwrap();
                    debug_assert!(r.0 >= r.1, "stole while holding work");
                    *r = stolen;
                });
            }
        });

        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap()
                    .unwrap_or_else(|| panic!("job {i} never ran"))
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

/// Parse a `--jobs` argument value shared by every bench binary.
pub fn parse_jobs_arg(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs wants an integer >= 1, got {value:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // Front-loaded long jobs force the later workers to steal.
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
                Executor::new(workers).try_run(10, |i| if i == 3 || i == 7 { Err(i) } else { Ok(i) });
            assert_eq!(got, Err(3), "workers = {workers}");
        }
    }

    #[test]
    fn try_run_ok_keeps_order() {
        let got: Result<Vec<usize>, ()> = Executor::new(3).try_run(20, Ok);
        assert_eq!(got.unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn parse_jobs_arg_accepts_positive_rejects_rest() {
        assert_eq!(parse_jobs_arg("8"), Ok(8));
        assert_eq!(parse_jobs_arg(" 2 "), Ok(2));
        assert!(parse_jobs_arg("0").is_err());
        assert!(parse_jobs_arg("-1").is_err());
        assert!(parse_jobs_arg("lots").is_err());
    }
}
