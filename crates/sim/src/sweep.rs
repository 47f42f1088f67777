//! Parallel experiment helpers.
//!
//! The evaluation suite runs grids of independent simulations
//! (algorithm × workload × cache size × seed). These helpers run such
//! grids data-parallel with rayon and aggregate the per-seed statistics.

use rayon::prelude::*;

/// Run `f` for every seed in `seeds` in parallel, preserving order.
pub fn par_seeds<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    seeds.par_iter().map(|&s| f(s)).collect()
}

/// Run `f` over an arbitrary parameter grid in parallel, preserving order.
pub fn par_grid<P, T, F>(params: &[P], f: F) -> Vec<T>
where
    P: Sync,
    T: Send,
    F: Fn(&P) -> T + Sync,
{
    params.par_iter().map(&f).collect()
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
    fn par_seeds_preserves_order() {
        let seeds: Vec<u64> = (0..64).collect();
        let out = par_seeds(&seeds, |s| s * 2);
        assert_eq!(out, seeds.iter().map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_grid_preserves_order() {
        let grid: Vec<(u64, u64)> = (0..8).flat_map(|a| (0..8).map(move |b| (a, b))).collect();
        let out = par_grid(&grid, |&(a, b)| a * 10 + b);
        assert_eq!(out[9], 11);
        assert_eq!(out.len(), 64);
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
