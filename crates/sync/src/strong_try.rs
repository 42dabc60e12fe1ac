//! Strong try reader-writer lock.
//!
//! The CX universal construction of Correia et al. (the paper's baseline,
//! §2.3) coordinates access to its 2n replicas with a *strong try*
//! reader-writer lock: `try_*` operations never fail spuriously — if a try
//! returns failure, a conflicting acquisition was genuinely present at some
//! instant during the call. This lets CX threads scan the replica array and
//! take the first available replica without ever blocking on a lock that is
//! actually free.
//!
//! Readers count on **read-indicator stripes**: an array of cacheline-padded
//! counters, each thread hashing to one stripe, exactly like the per-thread
//! read indicators of the reference CX implementation. With one stripe
//! (the [`StrongTryRwLock::new`] default) this degenerates to a single
//! shared reader count; [`StrongTryRwLock::with_reader_slots`] spreads
//! read-heavy traffic across `n` lines so CX's read path stops funneling
//! every reader through one cacheline (the same distributed-reader idea as
//! [`crate::DistRwLock`], adapted to strong-try semantics).
//!
//! Precision note, inherited from the read-indicator design: a `try_read`
//! overlapping a concurrent `try_write` *probe* (one that raises the writer
//! flag, finds a reader on some stripe, and backs out) fails as if against
//! a real writer. `try_write` failures remain strictly genuine — they prove
//! a writer held the flag or a reader indicator was raised at that instant.
//! CX retries its read loop regardless, so this costs at most a re-poll.

use crate::cell::{AtomicU64, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;

use crate::{held, Waiter};

const WRITER: u64 = 1 << 63;

/// The stripe a thread's read indications land on: threads are numbered
/// round-robin on first use, then reduced modulo the lock's stripe count.
fn thread_ordinal() -> usize {
    // Under the model checker the ordinal must be deterministic per
    // execution (it picks the stripe, hence the memory-access pattern):
    // use the model-thread index instead of the process-global dispenser.
    #[cfg(prep_mc)]
    if let Some(t) = prep_mc::thread::model_thread_index() {
        return t;
    }
    // Deliberately std, not crate::cell: a process-global id dispenser
    // must not become a model-checked location (its count carries across
    // executions and would make schedules diverge).
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    ORDINAL.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            // ord: unique-id dispenser; atomicity of the RMW is all that
            // matters, nothing else is published with it.
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

/// A strong try reader-writer lock guarding a `T`.
///
/// ```
/// use prep_sync::StrongTryRwLock;
/// let lock = StrongTryRwLock::new(0u32);
/// let w = lock.try_write().expect("free lock: strong try must succeed");
/// assert!(lock.try_read().is_none());
/// drop(w);
/// assert!(lock.try_read().is_some());
/// ```
#[derive(Debug)]
pub struct StrongTryRwLock<T> {
    /// Bit 63: writer holds. Readers only load this word.
    writer: CachePadded<AtomicU64>,
    /// Read-indicator stripes; a reader counts on `stripes[ordinal % n]`.
    stripes: Box<[CachePadded<AtomicU64>]>,
    data: UnsafeCell<T>,
}

// SAFETY: standard RwLock bounds.
unsafe impl<T: Send> Send for StrongTryRwLock<T> {}
unsafe impl<T: Send + Sync> Sync for StrongTryRwLock<T> {}

impl<T> StrongTryRwLock<T> {
    /// Level 3: a CX replica's data lock, ranked with NR's replica locks;
    /// nothing is acquired under it.
    pub const LEVEL: u8 = 3;

    /// Creates an unlocked lock around `value` with a single reader stripe
    /// (the centralized baseline).
    pub fn new(value: T) -> Self {
        Self::with_reader_slots(value, 1)
    }

    /// Creates an unlocked lock around `value` with `slots` read-indicator
    /// stripes (clamped to ≥ 1). Readers hash per-thread across stripes;
    /// writers scan all of them.
    pub fn with_reader_slots(value: T, slots: usize) -> Self {
        StrongTryRwLock {
            writer: CachePadded::new(AtomicU64::new(0)),
            stripes: (0..slots.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            data: UnsafeCell::new(value),
        }
    }

    /// Number of read-indicator stripes.
    pub fn reader_slots(&self) -> usize {
        self.stripes.len()
    }

    /// Readers currently indicated across all stripes (advisory).
    pub fn reader_count(&self) -> u64 {
        // ord: advisory statistic; no decision synchronizes on it.
        self.stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Attempts to acquire in write mode.
    ///
    /// Strong semantics: returns `None` only if, at some instant during the
    /// call, a writer held the lock or a reader indicator was raised.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_write(&self) -> Option<StrongTryWriteGuard<'_, T>> {
        if self
            .writer
            // ord: SeqCst store side of the store-buffering pair (flag-
            // then-scan vs the readers' indicate-then-check); also
            // Acquire-pairs with the previous writer's Release drop.
            // Failure returns None, no ordering needed.
            .compare_exchange(0, WRITER, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // Flag is up: new readers back off. Any indicator still raised is a
        // reader that acquired before our flag — a genuine conflict.
        for s in self.stripes.iter() {
            // ord: SeqCst load side of the SB pair -- must not hoist above
            // the flag CAS, or we could miss a reader whose indicator
            // missed our flag.
            if s.load(Ordering::SeqCst) != 0 {
                // ord: Release backs the flag out without leaking the probe.
                self.writer.fetch_and(!WRITER, Ordering::Release);
                return None;
            }
        }
        held::acquired(self, Self::LEVEL);
        Some(StrongTryWriteGuard { lock: self })
    }

    /// Attempts to acquire in read mode.
    ///
    /// Interference from other readers retries internally (another reader
    /// arriving is not a conflicting mode); only a writer flag — held, or
    /// raised by an in-flight `try_write` probe — causes failure.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_read(&self) -> Option<StrongTryReadGuard<'_, T>> {
        // ord: early-out only -- NOT part of the SB protocol (the
        // indicate + SeqCst recheck below is); Acquire suffices to order
        // us after a finishing writer we observe here.
        if self.writer.load(Ordering::Acquire) != 0 {
            return None;
        }
        let stripe = thread_ordinal() % self.stripes.len();
        // ord: SeqCst store side of the SB pair: indicate-then-check vs
        // the writer's flag-then-scan.
        self.stripes[stripe].fetch_add(1, Ordering::SeqCst);
        // ord: SeqCst load side of the SB pair (see indicate above).
        if self.writer.load(Ordering::SeqCst) != 0 {
            // A writer raised its flag between our two loads; defer to it.
            // ord: Release so the aborted attempt cannot leak past the
            // unindicate.
            self.stripes[stripe].fetch_sub(1, Ordering::Release);
            return None;
        }
        held::acquired(self, Self::LEVEL);
        Some(StrongTryReadGuard { lock: self, stripe })
    }

    /// Acquires in read mode, blocking politely until no writer holds.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> StrongTryReadGuard<'_, T> {
        held::check_blocking(Self::LEVEL);
        let mut w = Waiter::new();
        loop {
            if let Some(g) = self.try_read() {
                return g;
            }
            w.wait();
        }
    }

    /// Acquires in write mode, blocking politely until fully free.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> StrongTryWriteGuard<'_, T> {
        held::check_blocking(Self::LEVEL);
        let mut w = Waiter::new();
        loop {
            if let Some(g) = self.try_write() {
                return g;
            }
            w.wait();
        }
    }

    /// Returns a mutable reference to the protected data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// Shared-mode RAII guard for [`StrongTryRwLock`].
#[derive(Debug)]
pub struct StrongTryReadGuard<'a, T> {
    lock: &'a StrongTryRwLock<T>,
    stripe: usize,
}

impl<T> std::ops::Deref for StrongTryReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: shared guard held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for StrongTryReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        held::released(self.lock);
        // ord: Release publishes the read section to the writer's
        // indicator scan.
        self.lock.stripes[self.stripe].fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive-mode RAII guard for [`StrongTryRwLock`].
#[derive(Debug)]
pub struct StrongTryWriteGuard<'a, T> {
    lock: &'a StrongTryRwLock<T>,
}

impl<T> std::ops::Deref for StrongTryWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: exclusive guard held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for StrongTryWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive guard held.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for StrongTryWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        held::released(self.lock);
        // ord: Release publishes the write section to the next acquirer's
        // Acquire/SeqCst load of the writer word.
        self.lock.writer.fetch_and(!WRITER, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn try_write_fails_against_reader_and_writer() {
        let lock = StrongTryRwLock::new(());
        let r = lock.try_read().unwrap();
        assert!(lock.try_write().is_none());
        drop(r);
        let w = lock.try_write().unwrap();
        assert!(lock.try_write().is_none());
        assert!(lock.try_read().is_none());
        drop(w);
    }

    #[test]
    fn try_read_succeeds_alongside_readers() {
        let lock = StrongTryRwLock::new(());
        let _r1 = lock.try_read().unwrap();
        let _r2 = lock.try_read().unwrap();
        let _r3 = lock.try_read().unwrap();
        assert_eq!(lock.reader_count(), 3);
    }

    #[test]
    fn striped_readers_count_and_drain() {
        let lock = Arc::new(StrongTryRwLock::with_reader_slots((), 4));
        assert_eq!(lock.reader_slots(), 4);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        drop(lock.try_read().expect("no writer present"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.reader_count(), 0);
        // Fully drained: a writer must get in.
        assert!(lock.try_write().is_some());
    }

    #[test]
    fn try_read_retries_through_reader_interference() {
        // Hammer try_read from many threads with no writer present; every
        // attempt must succeed (strong semantics: readers don't conflict).
        const THREADS: usize = 8;
        const ITERS: usize = 2000;
        let lock = Arc::new(StrongTryRwLock::new(()));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..ITERS {
                        let g = lock
                            .try_read()
                            .expect("try_read failed with no writer present");
                        drop(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.reader_count(), 0);
    }

    #[test]
    fn writes_are_mutually_exclusive() {
        const THREADS: usize = 8;
        const ITERS: usize = 500;
        let lock = Arc::new(StrongTryRwLock::with_reader_slots(0usize, 4));
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
    fn striped_readers_exclude_writers_without_tearing() {
        let lock = Arc::new(StrongTryRwLock::with_reader_slots((0u64, 0u64), 4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let wl = Arc::clone(&lock);
        let ws = Arc::clone(&stop);
        let writer = thread::spawn(move || {
            let mut i = 0u64;
            while !ws.load(Ordering::Relaxed) {
                if let Some(mut g) = wl.try_write() {
                    i += 1;
                    g.0 = i;
                    g.1 = i;
                }
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..2000 {
                        let g = lock.read();
                        assert_eq!(g.0, g.1, "torn read through striped StrongTryRwLock");
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
}
