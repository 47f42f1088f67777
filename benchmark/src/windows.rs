//! Window statistics: how a run's per-request samples become metrics.
//!
//! The sandbox this benchmark runs in bursts and then throttles, and
//! every pipelined run shows a few ~40 ms stalls, so a whole-run mean is
//! bimodal. Each measured phase is therefore cut into equal
//! *request-count* windows and every timing metric is the **median over
//! the windows**: a stall or a burst spoils one window, not the metric.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance check applies to repeated runs; `None` under two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Interquartile range of `values` as a share of their median; 0 when it
/// cannot be computed.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, med, q3)) if med > 0.0 => (q3 - q1) / med,
        _ => 0.0,
    }
}

/// One completed request: when its reply arrived and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Reply arrival, nanoseconds on the run clock.
    pub done_ns: u64,
    /// Latency in nanoseconds (saturated at `u32::MAX`, about 4.3 s).
    pub lat_ns: u32,
}

/// What the measured phase of one run amounts to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSummary {
    /// Windows the samples were cut into.
    pub windows: usize,
    /// Samples per window.
    pub per_window: usize,
    /// Median over windows of completed requests per second.
    pub throughput_rps: f64,
    /// IQR of the per-window throughputs as a share of their median.
    pub throughput_iqr_ratio: f64,
    /// Median over windows of the window's p50 latency, microseconds.
    pub lat_p50_us: f64,
    /// Median over windows of the window's p95 latency, microseconds.
    pub lat_p95_us: f64,
    /// p99 over every measured sample, microseconds.
    pub lat_p99_us: f64,
    /// p99.9 over every measured sample, microseconds.
    pub lat_p999_us: f64,
    /// Largest measured latency, microseconds.
    pub lat_max_us: f64,
}

/// Cut `samples` (all of one measured phase that began at `start_ns`)
/// into `windows` equal request-count windows in completion order and
/// summarise them. A trailing remainder smaller than a window is
/// dropped; fewer samples than windows yields one sample per window.
pub fn summarize(start_ns: u64, samples: &mut [Sample], windows: usize) -> WindowSummary {
    samples.sort_by_key(|s| s.done_ns);
    let windows = windows.clamp(1, samples.len().max(1));
    let per_window = samples.len() / windows;
    if per_window == 0 {
        return WindowSummary::default();
    }
    let mut rates = Vec::with_capacity(windows);
    let mut p50s = Vec::with_capacity(windows);
    let mut p95s = Vec::with_capacity(windows);
    let mut prev_end = start_ns;
    let mut lats: Vec<u32> = Vec::with_capacity(per_window);
    for w in samples.chunks_exact(per_window).take(windows) {
        let end = w[per_window - 1].done_ns;
        let dur_ns = end.saturating_sub(prev_end).max(1);
        prev_end = end;
        rates.push(per_window as f64 * 1e9 / dur_ns as f64);
        lats.clear();
        lats.extend(w.iter().map(|s| s.lat_ns));
        lats.sort_unstable();
        p50s.push(f64::from(quantile_sorted(&lats, 0.50)) / 1e3);
        p95s.push(f64::from(quantile_sorted(&lats, 0.95)) / 1e3);
    }
    let mut all: Vec<u32> = samples[..per_window * windows]
        .iter()
        .map(|s| s.lat_ns)
        .collect();
    all.sort_unstable();
    WindowSummary {
        windows,
        per_window,
        throughput_rps: median(&rates),
        throughput_iqr_ratio: iqr_ratio(&rates),
        lat_p50_us: median(&p50s),
        lat_p95_us: median(&p95s),
        lat_p99_us: f64::from(quantile_sorted(&all, 0.99)) / 1e3,
        lat_p999_us: f64::from(quantile_sorted(&all, 0.999)) / 1e3,
        lat_max_us: f64::from(all.last().copied().unwrap_or(0)) / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.95), 95);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(quantile_sorted(&[7], 0.999), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, med, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (med - 2.0).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((iqr_ratio(&v) - 1.0).abs() < 1e-12);
        assert!(iqr_ratio(&[]).abs() < 1e-12);
    }

    #[test]
    fn medians() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert!(median(&[]).abs() < 1e-12);
    }

    #[test]
    fn window_medians_shrug_off_one_stalled_window() {
        // Four windows of 10 requests, 1 µs apart, latency 100 ns; the
        // third window contains one 40 ms stall.
        let mut samples = Vec::new();
        let mut t = 0u64;
        for i in 0..40u64 {
            t += if i == 25 { 40_000_000 } else { 1_000 };
            samples.push(Sample {
                done_ns: t,
                lat_ns: if i == 25 { 40_000_000 } else { 100 },
            });
        }
        // Out-of-order input (two connections merged) is sorted first.
        samples.swap(0, 39);
        let s = summarize(0, &mut samples, 4);
        assert_eq!((s.windows, s.per_window), (4, 10));
        assert!((s.throughput_rps - 1e9 / 1_000.0).abs() < 1.0);
        assert!((s.lat_p50_us - 0.1).abs() < 1e-9);
        assert!((s.lat_p95_us - 0.1).abs() < 1e-9);
        assert!((s.lat_max_us - 40_000.0).abs() < 1e-6);
        assert!(s.throughput_iqr_ratio > 0.0);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(summarize(0, &mut [], 20), WindowSummary::default());
        let mut one = [Sample {
            done_ns: 5,
            lat_ns: 2,
        }];
        let s = summarize(0, &mut one, 20);
        assert_eq!((s.windows, s.per_window), (1, 1));
    }
}
