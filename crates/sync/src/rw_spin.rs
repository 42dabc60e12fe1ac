//! Writer-preference reader-writer spin lock.
//!
//! The centralized counterpart of [`crate::DistRwLock`]: every reader counts
//! on one shared word. Used as the per-bucket lock of the SOFT baseline
//! (`prep-soft`), where buckets are many and each is rarely contended.
//!
//! Layout of the 64-bit state word:
//!
//! ```text
//! bit 63        : writer holds the lock
//! bits 32..48   : count of writers waiting to acquire
//! bits  0..32   : count of readers holding the lock
//! ```

use crate::cell::{AtomicU64, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;

use crate::Waiter;

const WRITER: u64 = 1 << 63;
const WAITING_UNIT: u64 = 1 << 32;
const WAITING_MASK: u64 = 0xffff << 32;
const READER_MASK: u64 = (1 << 32) - 1;

/// A writer-preference reader-writer spin lock guarding a `T`.
///
/// ```
/// use prep_sync::RwSpinLock;
/// let lock = RwSpinLock::new(vec![1, 2, 3]);
/// {
///     let r1 = lock.read();
///     let r2 = lock.read(); // readers share
///     assert_eq!(r1.len() + r2.len(), 6);
/// }
/// lock.write().push(4);
/// assert_eq!(lock.read().len(), 4);
/// ```
// lock-level: 2 a leaf data lock, ranked with the replica locks: nothing
// ranked is acquired under it
#[derive(Debug)]
pub struct RwSpinLock<T> {
    state: CachePadded<AtomicU64>,
    data: UnsafeCell<T>,
}

// SAFETY: readers get shared access, the writer exclusive access; standard
// RwLock bounds (T: Send + Sync for Sync because readers on multiple threads
// may alias &T).
unsafe impl<T: Send> Send for RwSpinLock<T> {}
unsafe impl<T: Send + Sync> Sync for RwSpinLock<T> {}

impl<T> RwSpinLock<T> {
    /// Creates an unlocked lock around `value`.
    pub fn new(value: T) -> Self {
        RwSpinLock {
            state: CachePadded::new(AtomicU64::new(0)),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock in read (shared) mode, blocking politely.
    ///
    /// Readers defer to both an active writer and any *waiting* writers
    /// (writer preference).
    pub fn read(&self) -> RwSpinReadGuard<'_, T> {
        let mut w = Waiter::new();
        loop {
            if let Some(g) = self.try_read() {
                return g;
            }
            w.wait();
        }
    }

    /// Attempts to acquire the lock in read mode without blocking.
    #[inline]
    pub fn try_read(&self) -> Option<RwSpinReadGuard<'_, T>> {
        // ord: optimistic snapshot only; the CAS below re-validates it.
        let s = self.state.load(Ordering::Relaxed);
        if s & (WRITER | WAITING_MASK) != 0 {
            return None;
        }
        debug_assert!(s & READER_MASK < READER_MASK, "reader count overflow");
        if self
            .state
            // ord: Acquire pairs with the writer guard's Release drop, so a
            // reader admitted here sees every write of the previous writer;
            // failure is a retried snapshot, Relaxed suffices.
            .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(RwSpinReadGuard { lock: self })
        } else {
            None
        }
    }

    /// Acquires the lock in write (exclusive) mode, blocking politely.
    pub fn write(&self) -> RwSpinWriteGuard<'_, T> {
        // Announce intent so new readers hold off.
        // ord: the waiting count only gates reader admission (an advisory
        // counter); the data-protecting edge is the CAS below.
        self.state.fetch_add(WAITING_UNIT, Ordering::Relaxed);
        let mut w = Waiter::new();
        loop {
            // ord: optimistic snapshot only; the CAS below re-validates it.
            let s = self.state.load(Ordering::Relaxed);
            if s & WRITER == 0 && s & READER_MASK == 0 {
                // Convert one waiting slot into the active-writer bit.
                let target = (s - WAITING_UNIT) | WRITER;
                if self
                    .state
                    // ord: Acquire pairs with reader/writer guard Release
                    // drops — the new writer sees all prior critical
                    // sections; failed CAS just loops.
                    .compare_exchange_weak(s, target, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return RwSpinWriteGuard { lock: self };
                }
            }
            w.wait();
        }
    }

    /// Attempts to acquire the lock in write mode without blocking.
    #[inline]
    pub fn try_write(&self) -> Option<RwSpinWriteGuard<'_, T>> {
        // ord: optimistic snapshot only; the CAS below re-validates it.
        let s = self.state.load(Ordering::Relaxed);
        if s & WRITER != 0 || s & READER_MASK != 0 {
            return None;
        }
        if self
            .state
            // ord: Acquire pairs with guard Release drops (see `write`);
            // failure returns None, no ordering needed.
            .compare_exchange(s, s | WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(RwSpinWriteGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns the number of readers currently holding the lock (advisory).
    pub fn reader_count(&self) -> u64 {
        // ord: advisory statistic; callers make no decisions that need to
        // synchronize with guard hand-off.
        self.state.load(Ordering::Relaxed) & READER_MASK
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

/// Shared-mode RAII guard for [`RwSpinLock`].
#[derive(Debug)]
pub struct RwSpinReadGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> std::ops::Deref for RwSpinReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: shared guard; no writer can be active while readers hold.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwSpinReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // ord: Release ends the read-side critical section; the next
        // writer's Acquire CAS orders its writes after our reads.
        self.lock.state.fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive-mode RAII guard for [`RwSpinLock`].
#[derive(Debug)]
pub struct RwSpinWriteGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> std::ops::Deref for RwSpinWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: exclusive guard.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for RwSpinWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive guard.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwSpinWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // ord: Release publishes the critical section's writes to the next
        // Acquire CAS (reader or writer admission).
        self.lock.state.fetch_and(!WRITER, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn readers_share_writers_exclude() {
        let lock = RwSpinLock::new(5u64);
        let r1 = lock.try_read().unwrap();
        let r2 = lock.try_read().unwrap();
        assert_eq!(lock.reader_count(), 2);
        assert!(lock.try_write().is_none());
        drop((r1, r2));
        let w = lock.try_write().unwrap();
        assert!(lock.try_read().is_none());
        assert!(lock.try_write().is_none());
        drop(w);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        let lock = Arc::new(RwSpinLock::new(0u64));
        let r = lock.read();
        let l2 = Arc::clone(&lock);
        let writer = thread::spawn(move || {
            *l2.write() = 1;
        });
        // Wait until the writer has registered its intent.
        crate::spin_until(|| lock.state.load(Ordering::Relaxed) & WAITING_MASK != 0);
        // Writer preference: a new reader must now fail.
        assert!(lock.try_read().is_none());
        drop(r);
        writer.join().unwrap();
        assert_eq!(*lock.read(), 1);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        const THREADS: usize = 8;
        const ITERS: usize = 500;
        let lock = Arc::new(RwSpinLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..ITERS {
                        let mut g = lock.write();
                        let v = *g;
                        *g = v + 1;
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
    fn readers_observe_consistent_snapshots() {
        // Writer keeps the two halves of a pair equal; readers must never
        // observe them mid-update.
        let lock = Arc::new(RwSpinLock::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
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
                        assert_eq!(g.0, g.1, "torn read through RwSpinLock");
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
