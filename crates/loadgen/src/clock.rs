//! The load generator's single wall-clock authority.
//!
//! Everything time-related in prep-loadgen funnels through this file: the
//! open-loop engine works in nanoseconds-since-origin (`u64`), never in
//! `Instant`s, so the rest of the crate stays free of timer calls and the
//! workspace lint can pin its `Instant::now` / `thread::sleep` allowance
//! to exactly this file. A load *generator* is the one component whose job
//! is real time — unlike the server, whose latency accounting lives in the
//! simulated-NVM cost model.

use std::time::{Duration, Instant};

/// How far ahead of the target `sleep_until` trusts the OS timer; the
/// remainder is spun. Linux wakes sleeps late by tens of microseconds —
/// oversleeping would turn the open-loop schedule into a closed loop.
const SPIN_SLACK_NS: u64 = 200_000;

/// A monotonic clock with a fixed origin.
pub struct Clock {
    origin: Instant,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// Starts the clock; `now_ns` measures from this call.
    #[expect(
        clippy::disallowed_methods,
        reason = "the load generator is the component that measures real wall-clock latency; this module is the crate's single timer authority"
    )]
    pub fn new() -> Self {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started.
    #[expect(clippy::disallowed_methods, reason = "see `Clock::new`")]
    pub fn now_ns(&self) -> u64 {
        Instant::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Sleeps until `target_ns` on this clock's timeline: OS sleep for the
    /// bulk, spin for the final [`SPIN_SLACK_NS`] so arrivals do not slip.
    /// Returns immediately if the target has passed (the open-loop engine
    /// then sends the overdue request and records the queueing delay).
    pub fn sleep_until(&self, target_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= target_ns {
                return;
            }
            let ahead = target_ns - now;
            if ahead > SPIN_SLACK_NS {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "pacing the offered load is this crate's purpose; only the bulk wait uses the OS timer"
                )]
                std::thread::sleep(Duration::from_nanos(ahead - SPIN_SLACK_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotone() {
        let c = Clock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn sleep_until_reaches_the_target() {
        let c = Clock::new();
        let target = c.now_ns() + 2_000_000;
        c.sleep_until(target);
        assert!(c.now_ns() >= target);
        // A target in the past returns immediately.
        c.sleep_until(0);
    }
}
