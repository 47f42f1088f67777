//! The benchmark's only wall-clock site.
//!
//! A benchmark exists to read the clock, but the repo lint (D2) bans
//! `Instant::now` outside reasoned sites, so every timestamp the
//! harness takes goes through [`Clock`]. Measured times flow only into
//! reported metrics, never into request generation: the inputs of a run
//! are a pure function of `--seed`.

use std::time::{Duration, Instant};

/// A shared epoch: every timestamp is "nanoseconds since this clock
/// started", so due times computed up front and completion times
/// observed later (possibly on another thread) are directly comparable.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// Start a new epoch now.
    pub fn start() -> Clock {
        Clock {
            // lint:allow(D2): the benchmark's single wall-clock capture site; timings only feed reported metrics
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch, saturating at `u64::MAX`.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sleep until `deadline_ns` on this clock (returns at once when the
    /// deadline has passed).
    pub fn sleep_until(&self, deadline_ns: u64) {
        let now = self.now_ns();
        if deadline_ns > now {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

/// Seconds between two [`Clock::now_ns`] readings.
pub fn secs(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_sleep_reaches_its_deadline() {
        let clock = Clock::start();
        let a = clock.now_ns();
        clock.sleep_until(a + 1_000_000);
        let b = clock.now_ns();
        assert!(b >= a + 1_000_000);
        clock.sleep_until(0);
        assert!(secs(a, b) >= 0.001);
    }
}
