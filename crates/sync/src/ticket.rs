//! FIFO ticket lock.
//!
//! §4.2 ("Liveness") of the PREP-UC paper: "An adversarial scheduler could
//! schedule threads such that one thread never completes this CAS
//! [reserving log entries]. Replacing the CAS with a fair lock would allow
//! for starvation-free update operations." This is that fair lock: strict
//! FIFO by ticket, so every combiner that requests log space eventually
//! gets it regardless of scheduling.

use crate::cell::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::{held, Waiter};

/// A FIFO ticket lock (no protected data; callers serialize a code region).
#[derive(Debug)]
pub struct TicketLock {
    next: CachePadded<AtomicU64>,
    serving: CachePadded<AtomicU64>,
    /// This instance's level, read only by the held-level check.
    #[cfg(debug_assertions)]
    level: u8,
}

impl Default for TicketLock {
    fn default() -> Self {
        Self::new()
    }
}

impl TicketLock {
    /// Level 0, the outermost: a region lock is taken with no other lock
    /// held (prep-serve's per-connection frame-write lock). The one
    /// instance that nests under another lock gets its own level from
    /// [`TicketLock::with_level`].
    pub const LEVEL: u8 = 0;

    /// Creates an unlocked ticket lock at [`TicketLock::LEVEL`].
    pub fn new() -> Self {
        Self::with_level(Self::LEVEL)
    }

    /// Creates an unlocked ticket lock at `level`, for an instance that
    /// is only ever taken under other locks (see the crate docs on
    /// levels). Release builds ignore `level`.
    pub fn with_level(level: u8) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = level;
        TicketLock {
            next: CachePadded::new(AtomicU64::new(0)),
            serving: CachePadded::new(AtomicU64::new(0)),
            #[cfg(debug_assertions)]
            level,
        }
    }

    #[cfg(debug_assertions)]
    fn level(&self) -> u8 {
        self.level
    }

    #[cfg(not(debug_assertions))]
    fn level(&self) -> u8 {
        Self::LEVEL
    }

    /// Acquires the lock; strictly FIFO among contenders.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> TicketGuard<'_> {
        held::check_blocking(self.level());
        // ord: AcqRel makes ticket draws totally ordered among contenders
        // (each RMW sees the previous one), which is the FIFO guarantee.
        let ticket = self.next.fetch_add(1, Ordering::AcqRel);
        let mut w = Waiter::new();
        // ord: Acquire pairs with the baton-pass AcqRel in Drop, ordering
        // this holder's section after the previous holder's writes.
        while self.serving.load(Ordering::Acquire) != ticket {
            w.wait();
        }
        held::acquired(self, self.level());
        TicketGuard { lock: self }
    }

    /// Attempts to acquire without waiting (succeeds only when nobody holds
    /// or waits).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<TicketGuard<'_>> {
        // ord: Acquire pairs with the baton-pass in Drop; seeing serving == s
        // means the previous section's writes are visible before ours.
        let serving = self.serving.load(Ordering::Acquire);
        if self
            .next
            // ord: success AcqRel keeps the ticket draw in the same total
            // RMW order `lock` relies on; failure Acquire still orders the
            // (discarded) observation for the None path.
            .compare_exchange(serving, serving + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            held::acquired(self, self.level());
            Some(TicketGuard { lock: self })
        } else {
            None
        }
    }
}

/// RAII guard for [`TicketLock`]; passes the baton on drop.
#[derive(Debug)]
pub struct TicketGuard<'a> {
    lock: &'a TicketLock,
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        held::released(self.lock);
        // ord: the baton pass — Release publishes our critical section to
        // the next ticket holder's Acquire spin; Acquire keeps the pass
        // itself ordered after our reads.
        self.lock.serving.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn basic_exclusion_and_baton() {
        let l = TicketLock::new();
        let g = l.lock();
        assert!(l.try_lock().is_none());
        drop(g);
        let g = l.try_lock().expect("free lock");
        drop(g);
    }

    #[test]
    fn fifo_order_is_respected() {
        // Thread k takes its ticket at a controlled time; completions must
        // come out in ticket order.
        const THREADS: usize = 4;
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let started = Arc::new(AtomicUsize::new(0));

        // Hold the lock while all contenders take tickets in a known order.
        let holder = lock.lock();
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let lock = Arc::clone(&lock);
                let order = Arc::clone(&order);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    // Serialize ticket acquisition so ticket number == k.
                    crate::spin_until(|| started.load(Ordering::Acquire) == k);
                    let g = lock.lock_announcing(&started, k);
                    order.lock().unwrap().push(k);
                    drop(g);
                })
            })
            .collect();
        crate::spin_until(|| started.load(Ordering::Acquire) == THREADS);
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3], "FIFO violated");
    }

    impl TicketLock {
        /// Test helper: take a ticket, then announce (so the next thread can
        /// take its ticket in order), then wait.
        fn lock_announcing(&self, started: &AtomicUsize, _k: usize) -> TicketGuard<'_> {
            let ticket = self.next.fetch_add(1, Ordering::AcqRel);
            started.fetch_add(1, Ordering::AcqRel);
            let mut w = Waiter::new();
            while self.serving.load(Ordering::Acquire) != ticket {
                w.wait();
            }
            TicketGuard { lock: self }
        }
    }

    #[test]
    fn counter_under_contention_is_exact() {
        const THREADS: usize = 6;
        const ITERS: usize = 500;

        struct Guarded {
            lock: TicketLock,
            value: std::cell::UnsafeCell<u64>,
        }
        // SAFETY: (test) `value` is only touched while `lock` is held.
        unsafe impl Sync for Guarded {}

        let shared = Arc::new(Guarded {
            lock: TicketLock::new(),
            value: std::cell::UnsafeCell::new(0),
        });
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        let _g = shared.lock.lock();
                        // SAFETY: non-atomic RMW made safe only by the
                        // lock; any exclusion failure shows up as a lost
                        // increment.
                        unsafe {
                            let p = shared.value.get();
                            p.write(p.read() + 1);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all writer threads have been joined.
        assert_eq!(unsafe { *shared.value.get() }, (THREADS * ITERS) as u64);
    }
}
