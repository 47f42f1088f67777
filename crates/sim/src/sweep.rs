//! Parallel experiment helpers.
//!
//! The evaluation suite runs grids of independent simulations
//! (algorithm × workload × cache size × seed), and the `experiments`
//! binary runs whole experiments side by side. Both go through
//! [`par_each_ordered`], which runs jobs on scoped std threads and hands
//! their results over in input order; [`par_grid`] is that form
//! collecting into a `Vec`.
//!
//! **One worker budget per process.** `W` is `RAYON_NUM_THREADS`, if set
//! to a positive integer, and otherwise the machine's available
//! parallelism; it is read at every call. The calling thread is always
//! one worker. Helpers come from a process-wide pool of `W − 1` slots,
//! taken without blocking: a call that finds none free runs its jobs on
//! its calling thread, and takes a slot freed later while jobs remain.
//! A job's own nested calls borrow from the same pool, so grids inside
//! grids never run on more than `W` threads at once. A helper returns
//! its slot when it runs out of jobs, and also when it panics.

// lint:orderings(Relaxed): the cursor only hands out distinct indices and
// the slot count only bounds how many helpers run; neither publishes
// data. Each result reaches the caller through the mutex it is delivered
// under, and each helper's end through its `join`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Helper threads running, over every call in the process.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// The worker budget `W`: `RAYON_NUM_THREADS` if it is a positive
/// integer, else the available parallelism.
fn budget() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One of the pool's `W − 1` helper slots; dropping it (a helper
/// finishing or unwinding) returns it.
struct Slot;

impl Slot {
    /// A free slot of a `workers`-wide budget, if there is one.
    fn take(workers: usize) -> Option<Slot> {
        HELPERS
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n + 1 < workers).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        HELPERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Finished results waiting for every earlier one.
struct InOrder<T, E> {
    /// Index of the next result to hand over.
    next: usize,
    parked: Vec<Option<T>>,
    emit: E,
}

impl<T, E: FnMut(usize, T)> InOrder<T, E> {
    fn deliver(&mut self, i: usize, value: T) {
        self.parked[i] = Some(value);
        while let Some(v) = self.parked.get_mut(self.next).and_then(Option::take) {
            (self.emit)(self.next, v);
            self.next += 1;
        }
    }
}

/// Moves the cursor past the end if its thread unwinds, so the other
/// workers stop taking jobs and the panic reaches the caller sooner.
struct StopOnPanic<'a>(&'a AtomicUsize, usize);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(self.1, Ordering::Relaxed);
        }
    }
}

/// Run `f` over `params` in parallel and hand each result to `emit` in
/// input order, as soon as it and every result before it are done.
///
/// `emit(i, f(&params[i]))` is called exactly once per index, in
/// increasing `i`, by whichever worker completes that prefix, one call
/// at a time. Workers take the next index from one shared cursor; the
/// calling thread is one of them, and helpers come from the process's
/// worker budget (module docs), so neither the results nor their order
/// depend on scheduling or on the thread count. A panic in `f` or `emit`
/// stops the workers from taking new jobs and propagates to the caller.
pub fn par_each_ordered<P, T, F, E>(params: &[P], f: F, emit: E)
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> T + Sync,
    E: FnMut(usize, T) + Send,
{
    run_ordered(budget(), params, f, emit);
}

/// Run `f` over an arbitrary parameter grid in parallel, preserving
/// order: [`par_each_ordered`] collecting into a `Vec`.
pub fn par_grid<P, T, F>(params: &[P], f: F) -> Vec<T>
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> T + Sync,
{
    let mut out = Vec::with_capacity(params.len());
    par_each_ordered(params, f, |_, v| out.push(v));
    out
}

/// [`par_each_ordered`] under a budget of `workers`.
fn run_ordered<P, T, F, E>(workers: usize, params: &[P], f: F, emit: E)
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> T + Sync,
    E: FnMut(usize, T) + Send,
{
    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(InOrder {
        next: 0,
        parked: params.iter().map(|_| None).collect(),
        emit,
    });
    let next = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < params.len()).then_some(i)
    };
    let run = |i: usize| {
        let _stop = StopOnPanic(&cursor, params.len());
        let v = f(&params[i]);
        // Only a panicking `emit` poisons the lock. It leaves the
        // result it was handed taken and `next` unmoved, so later
        // results just park, and the panic reaches the caller.
        done.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .deliver(i, v);
    };
    std::thread::scope(|scope| {
        let mut helpers = Vec::new();
        while let Some(i) = next() {
            // Every job no worker has taken yet could use one more
            // helper; a slot freed since the last job is taken here.
            let untaken = params.len().saturating_sub(cursor.load(Ordering::Relaxed));
            while helpers.len() < untaken {
                let Some(slot) = Slot::take(workers) else {
                    break;
                };
                let (next, run) = (&next, &run);
                helpers.push(scope.spawn(move || {
                    let _slot = slot;
                    while let Some(i) = next() {
                        run(i);
                    }
                }));
            }
            run(i);
        }
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Sample mean and (population) standard deviation; `None` on empty input.
pub fn mean_and_stdev(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    Some((mean, var.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Tests that read the helper count, or need helpers to be free, take
    /// turns: the pool is process-wide.
    fn exclusive() -> MutexGuard<'static, ()> {
        static POOL: Mutex<()> = Mutex::new(());
        POOL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleep in 1 ms steps until `done()` holds, for at most `ms`
    /// milliseconds; whether it came true.
    fn wait_for(ms: u32, done: impl Fn() -> bool) -> bool {
        for _ in 0..ms {
            if done() {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    #[test]
    fn par_grid_preserves_order() {
        let _pool = exclusive();
        let grid: Vec<(u64, u64)> = (0..8).flat_map(|a| (0..8).map(move |b| (a, b))).collect();
        let out = par_grid(&grid, |&(a, b)| a * 10 + b);
        assert_eq!(out[9], 11);
        assert_eq!(
            out,
            grid.iter().map(|&(a, b)| a * 10 + b).collect::<Vec<_>>()
        );
        assert!(par_grid(&[] as &[u32], |&x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell 5")]
    fn a_panicking_cell_panics_the_caller() {
        let _pool = exclusive();
        let cells: Vec<u32> = (0..64).collect();
        par_grid(&cells, |&i| if i == 5 { panic!("cell 5") } else { i });
    }

    /// Grids inside grids share one budget: with `W = 3`, never more than
    /// three leaf jobs run at once, though four outer jobs each start an
    /// eight-job grid; and the budget is used. Every leaf job stays
    /// running until more than `W` run at once, or for 20 ms, so any
    /// thread beyond the budget piles up beside the others.
    #[test]
    fn nested_grids_never_run_more_jobs_than_the_budget() {
        let _pool = exclusive();
        const W: usize = 3;
        let running = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let mut sums = Vec::new();
        run_ordered(
            W,
            &[0u64, 1, 2, 3],
            |&outer| {
                let mut inner = Vec::new();
                run_ordered(
                    W,
                    &[0u64, 1, 2, 3, 4, 5, 6, 7],
                    |&j| {
                        let now = running.fetch_add(1, Ordering::Relaxed) + 1;
                        high_water.fetch_max(now, Ordering::Relaxed);
                        wait_for(20, || running.load(Ordering::Relaxed) > W);
                        running.fetch_sub(1, Ordering::Relaxed);
                        outer * 8 + j
                    },
                    |_, v| inner.push(v),
                );
                inner.iter().sum::<u64>()
            },
            |_, v| sums.push(v),
        );
        assert_eq!(sums, [28, 92, 156, 220]);
        let hwm = high_water.load(Ordering::Relaxed);
        assert!((2..=W).contains(&hwm), "high-water mark {hwm}");
        assert_eq!(HELPERS.load(Ordering::Relaxed), 0);
    }

    /// Job 0 finishes last, yet every result is handed over in input
    /// order; and a result is handed over as soon as its prefix is
    /// complete: in a second grid, job 1 finishes only after result 0
    /// has been handed over.
    #[test]
    fn results_are_handed_over_in_input_order_as_each_prefix_completes() {
        let _pool = exclusive();
        let finished = Mutex::new(Vec::new());
        let mut order = Vec::new();
        run_ordered(
            2,
            &[0usize, 1, 2, 3],
            |&i| {
                let waited = i != 0 || wait_for(5000, || finished.lock().unwrap().len() == 3);
                finished.lock().unwrap().push(i);
                waited
            },
            |i, waited| {
                assert!(waited, "job {i} timed out");
                order.push(i);
            },
        );
        assert_eq!(order, [0, 1, 2, 3]);
        assert_eq!(finished.into_inner().unwrap(), [1, 2, 3, 0]);

        let handed = AtomicUsize::new(0);
        run_ordered(
            2,
            &[0usize, 1],
            |&i| i == 0 || wait_for(5000, || handed.load(Ordering::Relaxed) > 0),
            |i, waited| {
                assert!(waited, "result 0 was held back until job 1 finished");
                assert_eq!(handed.fetch_add(1, Ordering::Relaxed), i);
            },
        );
        assert_eq!(handed.load(Ordering::Relaxed), 2);
    }

    /// A job that panics on a helper: the helper's slot is back in the
    /// pool as soon as it has unwound (while the caller still runs its
    /// own job), no worker takes another job, the panic reaches the
    /// caller, and the next call gets a helper again.
    #[test]
    fn a_panicking_helper_returns_its_slot_and_panics_the_caller() {
        let _pool = exclusive();
        let caller = thread::current().id();
        let helper_started = AtomicUsize::new(0);
        let started = AtomicUsize::new(0);
        let jobs: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ordered(
                2,
                &jobs,
                |&i| {
                    started.fetch_add(1, Ordering::Relaxed);
                    if thread::current().id() != caller {
                        helper_started.fetch_add(1, Ordering::Relaxed);
                        panic!("helper job {i}");
                    }
                    let returned = wait_for(5000, || {
                        helper_started.load(Ordering::Relaxed) > 0
                            && HELPERS.load(Ordering::Relaxed) == 0
                    });
                    assert!(returned, "the unwound helper kept its slot");
                    i
                },
                |_, _| {},
            )
        }));
        let panic = result.expect_err("the helper's panic reaches the caller");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.starts_with("helper job"), "{msg}");
        assert_eq!(
            started.load(Ordering::Relaxed),
            2,
            "jobs taken after the panic"
        );

        let threads: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        run_ordered(
            2,
            &jobs,
            |_| {
                threads.lock().unwrap().push(thread::current().id());
                wait_for(5000, || {
                    threads.lock().unwrap().iter().any(|&t| t != caller)
                });
            },
            |_, _| {},
        );
        let threads = threads.into_inner().unwrap();
        assert!(threads.iter().any(|&t| t != caller), "no helper ran a job");
    }

    #[test]
    fn stats() {
        let (m, s) = mean_and_stdev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_reject_degenerate_input() {
        assert_eq!(mean_and_stdev(&[]), None);
    }
}
