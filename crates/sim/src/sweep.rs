//! Parallel experiment helpers.
//!
//! The evaluation suite runs grids of independent simulations
//! (algorithm × workload × cache size × seed). These helpers run such
//! grids data-parallel on scoped std threads and aggregate the per-seed
//! statistics.

// lint:orderings(Relaxed): the cursor only hands out distinct indices;
// each result travels back to the caller through the worker's `join`,
// which synchronises on its own.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` over an arbitrary parameter grid in parallel, preserving order.
///
/// Workers — the calling thread among them, so its share allocates from
/// the heap it already holds — take the next index from one shared
/// cursor, and the results are merged by input index, so the output
/// never depends on scheduling or on the thread count.
/// `RAYON_NUM_THREADS`, if set to a positive integer, caps the worker
/// count; otherwise it is the machine's available parallelism. A panic in
/// `f` propagates to the caller.
pub fn par_grid<P, T, F>(params: &[P], f: F) -> Vec<T>
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> T + Sync,
{
    let workers = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(params.len());
    if workers <= 1 {
        return params.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(p) = params.get(i) else {
                return local;
            };
            local.push((i, f(p)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(local) => done.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
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

    #[test]
    fn par_grid_preserves_order() {
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
        let cells: Vec<u32> = (0..64).collect();
        par_grid(&cells, |&i| if i == 5 { panic!("cell 5") } else { i });
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
