//! The combiner trylock.
//!
//! NR-UC protects each replica with a trylock (the *combiner lock*, §3): a
//! thread that wins the trylock becomes the combiner for its NUMA node; the
//! losers park on their batch slots instead of queueing on the lock. The only
//! operations ever needed are `try_lock` and `unlock` — there is deliberately
//! no blocking `lock`, because blocking on combiner election would defeat
//! flat combining.

use crate::cell::{AtomicBool, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;

use crate::held;

/// A cache-padded test-and-test-and-set trylock guarding a `T`.
///
/// ```
/// use prep_sync::TryLock;
/// let lock = TryLock::new(41);
/// {
///     let mut g = lock.try_lock().expect("uncontended");
///     *g += 1;
/// }
/// assert_eq!(*lock.try_lock().unwrap(), 42);
/// ```
#[derive(Debug)]
pub struct TryLock<T> {
    locked: CachePadded<AtomicBool>,
    data: UnsafeCell<T>,
}

// SAFETY: the lock guarantees exclusive access to `data` while held, so the
// container is Sync whenever T may be sent between threads.
unsafe impl<T: Send> Sync for TryLock<T> {}
unsafe impl<T: Send> Send for TryLock<T> {}

impl<T> TryLock<T> {
    /// Level 1: per-replica combiner election, which NR takes before the
    /// reservation gate (level 2) and the replica's reader-writer lock
    /// (level 3). A `TryLock` is never waited for, so the level only
    /// matters for what is taken while it is held.
    pub const LEVEL: u8 = 1;

    /// Creates an unlocked trylock around `value`.
    pub fn new(value: T) -> Self {
        TryLock {
            locked: CachePadded::new(AtomicBool::new(false)),
            data: UnsafeCell::new(value),
        }
    }

    /// Attempts to acquire the lock; returns a guard on success.
    ///
    /// Uses test-and-test-and-set: a relaxed load filters out the contended
    /// case before attempting the atomic swap, avoiding cache-line
    /// ping-ponging between would-be combiners.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<TryLockGuard<'_, T>> {
        // ord: test-and-test-and-set pre-filter; losing combiners bail, and
        // winners are validated by the CAS below.
        if self.locked.load(Ordering::Relaxed) {
            return None;
        }
        if self
            .locked
            // ord: Acquire pairs with the Release store in Drop — the new
            // combiner sees the previous combiner's batch state; failure
            // means someone else combines, no ordering needed.
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            held::acquired(self, Self::LEVEL);
            Some(TryLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns true if the lock is currently held by some thread.
    ///
    /// Purely advisory: the answer may be stale by the time it is observed.
    #[inline]
    pub fn is_locked(&self) -> bool {
        // ord: advisory by contract (see doc); stale answers are fine.
        self.locked.load(Ordering::Relaxed)
    }

    /// Returns a mutable reference to the protected data.
    ///
    /// Requires `&mut self`, so no locking is necessary.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// RAII guard for [`TryLock`]; releases the lock on drop.
#[derive(Debug)]
pub struct TryLockGuard<'a, T> {
    lock: &'a TryLock<T>,
}

impl<T> std::ops::Deref for TryLockGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard's existence proves exclusive ownership.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for TryLockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard's existence proves exclusive ownership.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for TryLockGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        held::released(self.lock);
        // ord: Release publishes the combiner's writes to the next winner's
        // Acquire CAS.
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn second_try_lock_fails_while_held() {
        let lock = TryLock::new(0u32);
        let g = lock.try_lock().unwrap();
        assert!(lock.try_lock().is_none());
        assert!(lock.is_locked());
        drop(g);
        assert!(!lock.is_locked());
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = TryLock::new(7);
        *lock.get_mut() += 1;
        assert_eq!(lock.into_inner(), 8);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 1000;
        let lock = Arc::new(TryLock::new(0usize));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            handles.push(thread::spawn(move || {
                let mut done = 0;
                let mut w = crate::Waiter::new();
                while done < ITERS {
                    if let Some(mut g) = lock.try_lock() {
                        // Non-atomic RMW inside the critical section: any
                        // mutual-exclusion violation shows up as a lost count.
                        let v = *g;
                        *g = v + 1;
                        done += 1;
                        w.reset();
                    } else {
                        w.wait();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.try_lock().unwrap(), THREADS * ITERS);
    }
}
