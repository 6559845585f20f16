//! A zero-dependency parallel runner for independent simulation jobs.
//!
//! Simulation sweeps are embarrassingly parallel: each policy run (and
//! each machine of a cluster run) is a self-contained deterministic
//! simulation. This module fans such jobs across OS threads with
//! `std::thread::scope` — no external crates, no work-stealing runtime —
//! while keeping results in **input order**, so any output assembled from
//! the results is byte-identical at any thread count.
//!
//! The thread count comes from the `BENCH_THREADS` environment variable;
//! unset or invalid values fall back to the host's available parallelism.
//! `BENCH_THREADS=1` forces fully sequential execution on the calling
//! thread (handy for timing baselines and debugging). Callers that must
//! not consult the environment (benchmarks, determinism tests) can pin
//! the fan width explicitly with [`par_map_with`].

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker-thread count: `BENCH_THREADS` if set to a positive integer,
/// otherwise the host's available parallelism (1 if unknown).
pub fn bench_threads() -> usize {
    match std::env::var("BENCH_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to [`bench_threads`] worker threads and
/// returns the results **in input order** regardless of scheduling.
///
/// `f` receives `(index, item)`. Items are claimed from a shared counter,
/// so long jobs do not serialize behind short ones. With one thread (or
/// one item) everything runs on the calling thread. A panic in any job
/// (e.g. a simulation deadlock) propagates to the caller with its own
/// payload.
///
/// # Examples
///
/// ```
/// let squares = faas_simcore::par::par_map(vec![1u64, 2, 3], |i, x| x * x + i as u64);
/// assert_eq!(squares, vec![1, 5, 11]);
/// ```
///
/// # Panics
///
/// Re-raises the panic of the lowest-index job that panicked — the panic
/// the serial path would raise — at any fan width.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_with(bench_threads(), items, f)
}

/// [`par_map`] with an explicit worker-thread cap instead of the
/// `BENCH_THREADS` environment variable — for callers that need a pinned,
/// environment-independent fan width (timing benchmarks, determinism
/// tests sweeping thread counts in-process).
///
/// # Panics
///
/// Re-raises the panic of the lowest-index job that panicked, as
/// [`par_map`] does.
pub fn par_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Each job's panic is caught so `thread::scope` cannot replace its
    // payload. Jobs are claimed in index order, so once one panics every
    // lower-index job is already claimed: claiming stops, and the lowest
    // panicked index left at the end is the one the serial path would hit.
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = jobs[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(out) => *slots[i].lock().expect("result slot poisoned") = Some(out),
                    Err(payload) => {
                        failed.store(true, Ordering::Relaxed);
                        let mut first = first_panic.lock().expect("panic slot poisoned");
                        if first.as_ref().is_none_or(|&(j, _)| i < j) {
                            *first = Some((i, payload));
                        }
                    }
                }
            });
        }
    });
    if let Some((_, payload)) = first_panic.into_inner().expect("panic slot poisoned") {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished every claimed job")
        })
        .collect()
}

/// Runs a batch of heterogeneous jobs in parallel, returning their results
/// in input order. Sugar over [`par_map`] for sweeps whose cases are not
/// uniform enough for a single `(index, item)` closure.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index job that panicked.
pub fn run_all<R: Send>(jobs: Vec<Box<dyn FnOnce() -> R + Send + '_>>) -> Vec<R> {
    par_map(jobs, |_, job| job())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fan widths every test pins, so a test means the same thing on
    /// a 1-CPU host as on a many-core one: the serial path and a real fan.
    const WIDTHS: [usize; 2] = [1, 4];

    /// The payload of the panic `f` raises, as a string.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().expect("string payload")).to_owned(),
        }
    }

    #[test]
    fn results_keep_input_order() {
        for width in WIDTHS {
            // Make later items finish first by sleeping less.
            let items: Vec<u64> = (0..16).collect();
            let out = par_map_with(width, items, |i, x| {
                std::thread::sleep(std::time::Duration::from_micros(200 - 10 * x));
                (i, x * 2)
            });
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*doubled, 2 * i as u64);
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        for width in WIDTHS {
            let empty: Vec<u32> = Vec::new();
            assert!(par_map_with(width, empty, |_, x: u32| x).is_empty());
            assert_eq!(
                par_map_with(width, vec![7u32], |i, x| x + i as u32),
                vec![7]
            );
        }
    }

    #[test]
    fn explicit_thread_cap_matches_env_path() {
        let items: Vec<u64> = (0..32).collect();
        let serial = par_map_with(1, items.clone(), |i, x| x * 3 + i as u64);
        let fanned = par_map_with(4, items.clone(), |i, x| x * 3 + i as u64);
        let env = par_map(items, |i, x| x * 3 + i as u64);
        assert_eq!(serial, fanned);
        assert_eq!(serial, env);
    }

    #[test]
    fn run_all_mixes_job_shapes() {
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "first".to_string()),
            Box::new(|| format!("{}", 2 * 21)),
        ];
        assert_eq!(run_all(jobs), vec!["first".to_string(), "42".to_string()]);
    }

    #[test]
    fn thread_count_env_parsing() {
        // Can't mutate the environment safely in parallel tests; just
        // check the fallback is sane.
        assert!(bench_threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        for width in WIDTHS {
            let msg = panic_message(|| {
                par_map_with(width, vec![0u8, 1], |_, x| {
                    if x == 1 {
                        panic!("boom");
                    }
                    x
                });
            });
            assert_eq!(msg, "boom", "width {width}");
        }
    }

    #[test]
    fn lowest_index_panic_wins_at_every_width() {
        // Job 3 panics late and job 6 early: the serial path stops at job
        // 3, so every width must re-raise job 3's payload.
        for width in WIDTHS {
            let msg = panic_message(|| {
                par_map_with(width, (0..8u64).collect(), |i, x| {
                    if i == 3 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("job {i} failed");
                    }
                    if i == 6 {
                        panic!("job {i} failed");
                    }
                    x
                });
            });
            assert_eq!(msg, "job 3 failed", "width {width}");
        }
    }
}
