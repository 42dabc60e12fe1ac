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

use crate::Waiter;

/// A FIFO ticket lock (no protected data; callers serialize a code region).
// lock-level: 0 outermost: a region lock taken with no ranked lock held
// (prep-serve's per-connection frame-write lock); a site that nests it
// under another lock re-ranks it there
#[derive(Debug, Default)]
pub struct TicketLock {
    next: CachePadded<AtomicU64>,
    serving: CachePadded<AtomicU64>,
}

impl TicketLock {
    /// Creates an unlocked ticket lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock; strictly FIFO among contenders.
    pub fn lock(&self) -> TicketGuard<'_> {
        // ord: AcqRel makes ticket draws totally ordered among contenders
        // (each RMW sees the previous one), which is the FIFO guarantee.
        let ticket = self.next.fetch_add(1, Ordering::AcqRel);
        let mut w = Waiter::new();
        // ord: Acquire pairs with the baton-pass AcqRel in Drop, ordering
        // this holder's section after the previous holder's writes.
        while self.serving.load(Ordering::Acquire) != ticket {
            w.wait();
        }
        TicketGuard { lock: self }
    }

    /// Attempts to acquire without waiting (succeeds only when nobody holds
    /// or waits).
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
