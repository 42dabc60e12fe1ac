//! Phase-fair reader-writer lock (starvation-free).
//!
//! §4.2 ("Liveness") of the PREP-UC paper notes that swapping the replica's
//! reader-writer lock for a *starvation-free* one yields starvation-free
//! read-only operations. This module provides that drop-in: Brandenburg &
//! Anderson's ticket-based phase-fair lock (PF-T). Its guarantees:
//!
//! * writers are FIFO-ordered by ticket;
//! * a reader waits for at most **one** writer phase before entering;
//! * readers that arrive during a writer phase all enter together when the
//!   phase ends (reader phases and writer phases alternate under contention).
//!
//! State: `rin`/`rout` count reader entries/exits in the high bits; the low
//! byte of `rin` carries the current writer's presence flag and phase bit.
//! `win`/`wout` are the writer ticket dispenser and serving counter.

use crate::cell::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;

use crate::{held, Waiter};

/// Reader tick increment (low byte reserved for writer flags).
const RINC: usize = 0x100;
/// Mask of the writer-flag byte within `rin`.
const WBITS: usize = 0xff;
/// Writer-present flag.
const PRES: usize = 0x2;
/// Writer phase bit (alternates with the writer ticket).
const PHID: usize = 0x1;

/// A phase-fair (starvation-free) reader-writer lock guarding a `T`.
///
/// ```
/// use prep_sync::PhaseFairRwLock;
/// let lock = PhaseFairRwLock::new(String::from("a"));
/// lock.write().push('b');
/// assert_eq!(&*lock.read(), "ab");
/// ```
#[derive(Debug)]
pub struct PhaseFairRwLock<T> {
    rin: CachePadded<AtomicUsize>,
    rout: CachePadded<AtomicUsize>,
    win: CachePadded<AtomicUsize>,
    wout: CachePadded<AtomicUsize>,
    data: UnsafeCell<T>,
}

// SAFETY: standard RwLock bounds; the protocol below provides exclusion.
unsafe impl<T: Send> Send for PhaseFairRwLock<T> {}
// SAFETY: see `Send` above.
unsafe impl<T: Send + Sync> Sync for PhaseFairRwLock<T> {}

impl<T> PhaseFairRwLock<T> {
    /// Level 3: the starvation-free replica data lock, ranked like
    /// [`crate::DistRwLock::LEVEL`], which it replaces in that mode.
    pub const LEVEL: u8 = 3;

    /// Creates an unlocked lock around `value`.
    pub fn new(value: T) -> Self {
        PhaseFairRwLock {
            rin: CachePadded::new(AtomicUsize::new(0)),
            rout: CachePadded::new(AtomicUsize::new(0)),
            win: CachePadded::new(AtomicUsize::new(0)),
            wout: CachePadded::new(AtomicUsize::new(0)),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock in read mode; waits for at most one writer phase.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> PhaseFairReadGuard<'_, T> {
        held::check_blocking(Self::LEVEL);
        // ord: AcqRel — Release makes our entry visible to the writer's
        // reader snapshot; Acquire orders our reads after the writer whose
        // cleared flag byte we may observe here.
        let w = self.rin.fetch_add(RINC, Ordering::AcqRel) & WBITS;
        if w != 0 {
            // A writer is present: wait until the flag byte changes, i.e. the
            // writer finished (byte cleared) or a *different* writer took
            // over (phase bit flipped — we may then enter, having arrived
            // before it sampled `rin`). Either way: at most one phase.
            let mut waiter = Waiter::new();
            // ord: Acquire pairs with the writer drop's flag clear — once
            // the byte changes, the finished writer's section is visible.
            while self.rin.load(Ordering::Acquire) & WBITS == w {
                waiter.wait();
            }
        }
        held::acquired(self, Self::LEVEL);
        PhaseFairReadGuard { lock: self }
    }

    /// Acquires the lock in write mode; writers are FIFO by ticket.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> PhaseFairWriteGuard<'_, T> {
        held::check_blocking(Self::LEVEL);
        // ord: AcqRel totally orders ticket draws (writer FIFO).
        let ticket = self.win.fetch_add(1, Ordering::AcqRel);
        let mut waiter = Waiter::new();
        // Serialize writers.
        // ord: Acquire pairs with the previous writer's baton pass in Drop.
        while self.wout.load(Ordering::Acquire) != ticket {
            waiter.wait();
        }
        // Publish presence + phase; snapshot readers that arrived before us.
        let flags = PRES | (ticket & PHID);
        // ord: AcqRel — Release publishes the presence flag readers spin on;
        // Acquire orders our snapshot after the entries of readers we must
        // wait out.
        let arrived = self.rin.fetch_add(flags, Ordering::AcqRel) & !WBITS;
        // Wait for those readers to drain (later readers block on the flag
        // byte and never increment rout until they run).
        waiter.reset();
        // ord: Acquire pairs with reader-drop rout bumps — when the counts
        // match, every admitted reader's section happened-before ours.
        while self.rout.load(Ordering::Acquire) != arrived {
            waiter.wait();
        }
        held::acquired(self, Self::LEVEL);
        PhaseFairWriteGuard { lock: self }
    }

    /// Returns a mutable reference to the protected data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// Shared-mode RAII guard for [`PhaseFairRwLock`].
#[derive(Debug)]
pub struct PhaseFairReadGuard<'a, T> {
    lock: &'a PhaseFairRwLock<T>,
}

impl<T> std::ops::Deref for PhaseFairReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: shared guard held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for PhaseFairReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        held::released(self.lock);
        // ord: Release ends the read section for the writer's rout spin;
        // AcqRel (not plain Release) keeps exits totally ordered so the
        // drain count can never be observed out of step.
        self.lock.rout.fetch_add(RINC, Ordering::AcqRel);
    }
}

/// Exclusive-mode RAII guard for [`PhaseFairRwLock`].
#[derive(Debug)]
pub struct PhaseFairWriteGuard<'a, T> {
    lock: &'a PhaseFairRwLock<T>,
}

impl<T> std::ops::Deref for PhaseFairWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: exclusive guard held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for PhaseFairWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive guard held.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for PhaseFairWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        held::released(self.lock);
        // Clear presence/phase flags so waiting readers proceed, then pass
        // the ticket baton to the next writer.
        // ord: Release publishes the write section to readers spinning on
        // the flag byte; Acquire orders the clear after our writes.
        self.lock.rin.fetch_and(!WBITS, Ordering::AcqRel);
        // ord: baton pass to the next writer's wout spin (Release side);
        // AcqRel keeps it after the flag clear above in the RMW order.
        self.lock.wout.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn exclusive_writes_are_not_lost() {
        const THREADS: usize = 8;
        const ITERS: usize = 500;
        let lock = Arc::new(PhaseFairRwLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..ITERS {
                        let mut g = lock.write();
                        *g += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.read(), THREADS * ITERS);
    }

    #[test]
    fn readers_never_see_torn_pairs() {
        let lock = Arc::new(PhaseFairRwLock::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let wl = Arc::clone(&lock);
        let ws = Arc::clone(&stop);
        let writer = thread::spawn(move || {
            let mut i = 0u64;
            while !ws.load(Ordering::Relaxed) {
                let mut g = wl.write();
                g.0 = i;
                g.1 = i;
                i += 1;
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..2000 {
                        let g = lock.read();
                        assert_eq!(g.0, g.1, "torn read through PhaseFairRwLock");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn reader_makes_progress_under_writer_stream() {
        // Starvation-freedom smoke test: with a continuous stream of writers,
        // a reader must still complete a bounded batch of acquisitions.
        let lock = Arc::new(PhaseFairRwLock::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        *lock.write() += 1;
                    }
                })
            })
            .collect();
        // The reader must finish even while writers hammer the lock.
        for _ in 0..500 {
            let _ = *lock.read();
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn reads_and_writes_interleave_correctly() {
        let lock = Arc::new(PhaseFairRwLock::new(Vec::<u32>::new()));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for i in 0..200 {
                        if i % 3 == 0 {
                            lock.write().push(t);
                        } else {
                            let g = lock.read();
                            // Length only ever grows.
                            let a = g.len();
                            let b = g.len();
                            assert!(b >= a);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 threads * ceil(200/3) pushes each.
        assert_eq!(lock.read().len(), 4 * 67);
    }
}
