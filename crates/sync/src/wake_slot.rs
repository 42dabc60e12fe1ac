//! A single-owner wake slot: block without polling, wake without losing it.
//!
//! [`Waiter`] is the right tool when the wait is short or the waker is
//! unknown; a thread that may stay idle for seconds (a server's control
//! thread with no admin command queued) pays for it with a timer wake-up every 50 µs and a
//! hand-off latency of whatever remains of the current sleep. A
//! [`WakeSlot`] blocks its owner in [`std::thread::park`] instead, and
//! lets any number of wakers end the block with one `unpark`.
//!
//! ## Protocol
//!
//! ```text
//! owner                                   waker
//! ─────                                   ─────
//! idle.store(true)        (SeqCst)        publish work          (SeqCst)
//! re-check work condition (SeqCst)        if idle.load()        (SeqCst)
//! park until idle == false                   && idle.swap(false): unpark
//! ```
//!
//! Each side stores, then loads what the other side stored — the
//! store-buffering shape. With all four accesses `SeqCst` at least one of
//! the two loads sees the other side's store: either the owner's re-check
//! finds the work (and it does not park), or the waker finds the
//! announcement (and it unparks). Two things are therefore the **caller's**
//! part of the contract: wakers publish the work with a `SeqCst` store or
//! RMW *before* calling [`WakeSlot::wake`], and the `ready` closure reads
//! it with `SeqCst` loads. Weaken either pair to `Release`/`Acquire`, or
//! announce without the re-check, and a wake-up can be lost; `prep-mc`
//! checks the real slot (`crates/mc/tests/props_parker.rs`) and catches
//! both mutations (`known_bad_orderings.rs`).
//!
//! The `idle` flag is *claimed* by the waker's swap, so of several wakers
//! racing for one announcement exactly one pays for the `unpark`, and
//! [`WakeSlot::wake`] reports whether it was this one — which is how a
//! producer wakes *one* of several idle consumers.
//!
//! A slot has one owner at a time. Threads that contend for ownership
//! (two callers quiescing the same store, say) take turns: the second
//! waits through a [`Waiter`] for the first to finish its wait.

use std::thread::Thread;
use std::time::Duration;

use crossbeam_utils::CachePadded;

use crate::cell::{AtomicBool, Ordering};
use crate::{TryLock, Waiter};

/// A single-owner park/unpark slot; see the module docs for the protocol.
///
/// ```
/// use prep_sync::WakeSlot;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// let slot = Arc::new(WakeSlot::new());
/// let work = Arc::new(AtomicBool::new(false));
/// let (s2, w2) = (Arc::clone(&slot), Arc::clone(&work));
/// let waker = std::thread::spawn(move || {
///     w2.store(true, Ordering::SeqCst); // publish, then wake
///     s2.wake();
/// });
/// slot.wait_until(|| work.load(Ordering::SeqCst));
/// waker.join().unwrap();
/// ```
#[derive(Debug)]
pub struct WakeSlot {
    /// True from the owner's announcement until a waker claims it or the
    /// owner withdraws it.
    idle: CachePadded<AtomicBool>,
    /// Held for the length of one blocking wait; serializes owners.
    // shared-line: written twice per blocking wait, by the owner only
    owned: AtomicBool,
    /// Handle of the thread that announced, for the claiming waker.
    owner: TryLock<Option<Thread>>,
}

impl WakeSlot {
    /// Creates a slot with nobody idle.
    pub fn new() -> Self {
        WakeSlot {
            idle: CachePadded::new(AtomicBool::new(false)),
            owned: AtomicBool::new(false),
            owner: TryLock::new(None),
        }
    }

    /// Blocks the calling thread until `ready()` holds. `ready` must read
    /// the work condition with `SeqCst` loads (module docs); it runs at
    /// least once and again after every wake-up.
    pub fn wait_until(&self, ready: impl FnMut() -> bool) {
        self.wait(ready, None);
    }

    /// Like [`WakeSlot::wait_until`], but also returns once `timeout` has
    /// passed in one block, whether or not `ready()` holds — for owners
    /// with a wake source that cannot call [`WakeSlot::wake`] (a signal
    /// handler's flag), and for owners that bound their park on purpose
    /// (the persistence thread's idle park). Under the model checker the
    /// timeout is ignored, so a lost wake-up still shows as a livelock.
    pub fn wait_until_or(&self, ready: impl FnMut() -> bool, timeout: Duration) {
        self.wait(ready, Some(timeout));
    }

    fn wait(&self, mut ready: impl FnMut() -> bool, timeout: Option<Duration>) {
        if ready() {
            return;
        }
        let mut w = Waiter::new();
        // ord: Acquire pairs with the previous owner's Release below; the
        // slot (and its `owner` handle) is ours until we store false.
        while self.owned.swap(true, Ordering::Acquire) {
            w.wait();
        }
        self.bind();
        loop {
            // ord: SeqCst — the owner's half of the store→load pair: this
            // announcement is ordered before the re-check's loads, against
            // the waker's publish → `idle.load`.
            self.idle.store(true, Ordering::SeqCst);
            if ready() {
                break;
            }
            self.block(timeout);
            if timeout.is_some() || ready() {
                break;
            }
        }
        // ord: Relaxed — withdrawing our own announcement publishes
        // nothing; a waker that still claims it reads the latest value in
        // its swap and at worst sends an `unpark` nobody needs.
        self.idle.store(false, Ordering::Relaxed);
        // ord: Release hands the slot to the next owner's Acquire swap.
        self.owned.store(false, Ordering::Release);
    }

    /// Records the calling thread as the one to unpark.
    fn bind(&self) {
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            return; // model threads block in `block`'s yield loop
        }
        let me = std::thread::current();
        let mut owner = self.lock_owner();
        if owner.as_ref().map(Thread::id) != Some(me.id()) {
            *owner = Some(me);
        }
    }

    fn lock_owner(&self) -> crate::TryLockGuard<'_, Option<Thread>> {
        // Two-instruction sections (a clone or a store); never nested.
        let mut w = Waiter::new();
        loop {
            if let Some(g) = self.owner.try_lock() {
                return g;
            }
            w.wait();
        }
    }

    /// Blocks until a waker has claimed the announcement (or `timeout`).
    fn block(&self, timeout: Option<Duration>) {
        // Under the model checker parking is an instrumented yield loop,
        // as in `Waiter::wait`: a lost wake-up is then a livelock the
        // checker reports, not a hung test.
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            // ord: SeqCst keeps the model's view of the flag in the same
            // total order as the protocol's other accesses.
            while self.idle.load(Ordering::SeqCst) {
                prep_mc::thread::yield_now();
            }
            return;
        }
        // `park` may return spuriously, and an `unpark` meant for an
        // earlier announcement (or another slot of this thread) leaves a
        // token behind: the flag, not the return, says we were woken.
        // ord: Acquire pairs with the claiming swap; what the waker
        // published is re-read by `ready` anyway.
        while self.idle.load(Ordering::Acquire) {
            match timeout {
                None => std::thread::park(),
                Some(t) => return std::thread::park_timeout(t),
            }
        }
    }

    /// Wakes the owner if it has announced itself idle. Call *after*
    /// publishing the work with a `SeqCst` store or RMW. Returns true if
    /// this call claimed the announcement (and sent the `unpark`).
    pub fn wake(&self) -> bool {
        // ord: SeqCst — the waker's half of the store→load pair (see the
        // module docs); also the cheap filter that keeps a busy owner's
        // flag line shared.
        if !self.idle.load(Ordering::SeqCst) {
            return false;
        }
        // ord: SeqCst — the claim; one of several racing wakers wins, and
        // it stays in the total order the owner's re-check relies on.
        if !self.idle.swap(false, Ordering::SeqCst) {
            return false;
        }
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            return true;
        }
        let owner = self.lock_owner().clone();
        if let Some(t) = owner {
            t.unpark();
        }
        true
    }
}

impl Default for WakeSlot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    use std::sync::Arc;

    #[test]
    fn ready_condition_returns_without_blocking() {
        let slot = WakeSlot::new();
        slot.wait_until(|| true);
        assert!(!slot.wake(), "nobody announced: nothing to claim");
    }

    #[test]
    fn wake_without_an_idle_owner_is_a_no_op() {
        let slot = WakeSlot::new();
        assert!(!slot.wake());
        assert!(!slot.wake());
    }

    #[test]
    fn timed_wait_returns_without_a_waker() {
        let slot = WakeSlot::new();
        slot.wait_until_or(|| false, Duration::from_millis(1));
        assert!(!slot.wake(), "the announcement is withdrawn on timeout");
    }

    /// Ping-pong through two slots: every hand-off is announce → re-check
    /// → park against publish → wake, 2 × 20 000 times. A lost wake-up
    /// hangs the test.
    #[test]
    fn no_wakeup_is_lost_in_a_ping_pong() {
        const ROUNDS: u64 = 20_000;
        let turn = Arc::new(AtomicU64::new(0));
        let slots = Arc::new([WakeSlot::new(), WakeSlot::new()]);
        let handles: Vec<_> = (0..2u64)
            .map(|me| {
                let turn = Arc::clone(&turn);
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let mine = 2 * round + me;
                        // ord: SeqCst — the work condition of the protocol.
                        slots[me as usize].wait_until(|| turn.load(Ordering::SeqCst) == mine);
                        // ord: SeqCst — publish before wake.
                        turn.store(mine + 1, Ordering::SeqCst);
                        slots[1 - me as usize].wake();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(turn.load(Ordering::SeqCst), 2 * ROUNDS);
    }

    /// One producer, two consumers each on its own slot: waking the first
    /// idle consumer per item loses no item and wakes nobody for nothing.
    #[test]
    fn wake_one_of_several_consumers_drains_every_item() {
        const ITEMS: usize = 5_000;
        let queued = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(AtomicUsize::new(0));
        let slots = Arc::new([WakeSlot::new(), WakeSlot::new()]);
        let consumers: Vec<_> = (0..2)
            .map(|me| {
                let (queued, taken) = (Arc::clone(&queued), Arc::clone(&taken));
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || loop {
                    // ord: SeqCst loads — the work condition.
                    slots[me].wait_until(|| {
                        queued.load(Ordering::SeqCst) > 0 || taken.load(Ordering::SeqCst) == ITEMS
                    });
                    if taken.load(Ordering::SeqCst) == ITEMS {
                        return;
                    }
                    let popped = queued
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok();
                    if popped && taken.fetch_add(1, Ordering::SeqCst) + 1 == ITEMS {
                        // Last item: release the other consumer.
                        slots[1 - me].wake();
                        return;
                    }
                })
            })
            .collect();
        for _ in 0..ITEMS {
            queued.fetch_add(1, Ordering::SeqCst);
            let _ = slots[0].wake() || slots[1].wake();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::SeqCst), ITEMS);
        assert_eq!(queued.load(Ordering::SeqCst), 0);
    }

    /// Two threads that want the same slot take turns instead of
    /// overwriting each other's registration.
    #[test]
    fn contending_owners_are_serialized() {
        let slot = Arc::new(WakeSlot::new());
        let go = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (slot, go) = (Arc::clone(&slot), Arc::clone(&go));
                std::thread::spawn(move || slot.wait_until(|| go.load(Ordering::SeqCst) == 1))
            })
            .collect();
        // Once one of them has announced, the other is queued behind it
        // (or has yet to look). Whichever owns the slot is woken; the
        // other then finds the condition true and returns.
        crate::spin_until(|| slot.idle.load(Ordering::SeqCst));
        go.store(1, Ordering::SeqCst);
        while !waiters.iter().all(|w| w.is_finished()) {
            slot.wake();
            std::thread::yield_now();
        }
        for w in waiters {
            w.join().unwrap();
        }
    }
}
