//! Polite spin-waiting.
//!
//! The short waits of this workspace — lock acquires, the combiner's
//! hand-offs, the log's gates — go through [`Waiter`]: a short burst of
//! `spin_loop` hints, then `thread::yield_now`, then short sleeps. On a
//! machine with spare cores the fast path is indistinguishable from a raw
//! spin loop; on an oversubscribed machine (the common case for the
//! benchmark harness, which runs up to 96 logical workers) it lets the thread
//! holding the resource actually run. A thread that may stay idle for long
//! parks on a [`crate::WakeSlot`] instead: a server's control thread, a
//! quiescer waiting for the durable watermark, and the persistence thread
//! once its `Waiter` has reached the sleep stage ([`Waiter::is_sleeping`]).

use std::hint;
use std::thread;
use std::time::Duration;

/// Number of `spin_loop` rounds before the waiter starts yielding.
const SPIN_LIMIT: u32 = 6;
/// Number of `yield_now` rounds before the waiter starts sleeping.
const YIELD_LIMIT: u32 = 32;
/// Sleep quantum once the waiter has given up on spinning/yielding.
const SLEEP: Duration = Duration::from_micros(50);

/// An escalating spin-waiter: spin → yield → sleep.
///
/// ```
/// use prep_sync::Waiter;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true); // already set; loop exits immediately
/// let mut w = Waiter::new();
/// while !flag.load(Ordering::Acquire) {
///     w.wait();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Waiter {
    step: u32,
}

impl Waiter {
    /// Creates a fresh waiter in the spinning phase.
    #[inline]
    pub fn new() -> Self {
        Waiter { step: 0 }
    }

    /// Waits one round, escalating from spinning to yielding to sleeping.
    #[inline]
    pub fn wait(&mut self) {
        // Under the model checker, spinning must be visible to the
        // scheduler: every round becomes an instrumented yield (the
        // checker deprioritizes us until a write lands, and diagnoses
        // livelock if none ever does). Plain `spin_loop` hints would be
        // invisible no-ops there, and `thread::sleep` would stall the
        // whole single-token execution.
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            prep_mc::thread::yield_now();
            self.step = self.step.saturating_add(1);
            return;
        }
        if self.step < SPIN_LIMIT {
            for _ in 0..(1 << self.step) {
                hint::spin_loop();
            }
        } else if self.step < SPIN_LIMIT + YIELD_LIMIT {
            thread::yield_now();
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "the Waiter is the one sanctioned sleep: its last rung, after the spin and yield budget"
            )]
            thread::sleep(SLEEP);
        }
        self.step = self.step.saturating_add(1);
    }

    /// Resets the waiter back to the spinning phase.
    ///
    /// Call this after observing progress (the condition changed but the
    /// caller must keep waiting for a different condition).
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Returns true once the waiter has escalated past pure spinning.
    ///
    /// Useful for callers that want to switch strategy (e.g. start helping)
    /// after a bounded amount of optimistic spinning.
    #[inline]
    pub fn is_contended(&self) -> bool {
        self.step >= SPIN_LIMIT
    }

    /// Returns true once the waiter has spun and yielded its whole ladder:
    /// its next [`Waiter::wait`] would sleep.
    ///
    /// For callers with a better last stage than a fixed sleep — the
    /// persistence thread parks on a [`crate::WakeSlot`] from here on.
    #[inline]
    pub fn is_sleeping(&self) -> bool {
        self.step >= SPIN_LIMIT + YIELD_LIMIT
    }
}

/// Spins (politely) until `cond` returns true.
#[inline]
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    let mut w = Waiter::new();
    while !cond() {
        w.wait();
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn waiter_escalates_monotonically() {
        let mut w = Waiter::new();
        assert!(!w.is_contended());
        for _ in 0..SPIN_LIMIT {
            w.wait();
        }
        assert!(w.is_contended());
        for _ in 0..YIELD_LIMIT {
            assert!(!w.is_sleeping());
            w.wait();
        }
        assert!(w.is_sleeping());
        w.reset();
        assert!(!w.is_contended());
        assert!(!w.is_sleeping());
    }

    #[test]
    fn spin_until_observes_cross_thread_store() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            f2.store(true, Ordering::Release);
        });
        spin_until(|| flag.load(Ordering::Acquire));
        h.join().unwrap();
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn waiter_step_saturates() {
        let mut w = Waiter::new();
        // Drive far past every phase boundary; must not overflow.
        for _ in 0..(SPIN_LIMIT + YIELD_LIMIT + 4) {
            w.wait();
        }
        assert!(w.is_contended());
    }
}
