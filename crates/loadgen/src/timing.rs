//! The only timing site in the serving stack.
//!
//! Latency measurement is inherently wall-clock, which the repo's lint
//! otherwise bans (determinism rule D2). All `Instant` use is confined to
//! this file — `crates/loadgen/src/timing.rs` is path-allowlisted in
//! `wmlp-lint` — so everything else in `wmlp-serve`/`wmlp-loadgen` stays
//! mechanically clock-free. Measured durations only ever flow into
//! reports (SERVE.json), never into request generation or policy
//! decisions, so load runs stay replayable even though their latencies
//! are not.

use std::time::Instant;

/// A started wall-clock epoch: every timestamp is "nanoseconds since
/// this clock started". One times a wave's wall; another, started once
/// every socket is connected, is the epoch all of the wave's client
/// threads stamp sends and replies against.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// Start a new epoch now.
    pub fn start() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch, saturating at `u64::MAX`.
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let clock = Clock::start();
        let a = clock.now_nanos();
        assert!(clock.now_nanos() >= a);
    }
}
