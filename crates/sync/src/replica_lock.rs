//! The lock interface NR replicas are guarded by.
//!
//! NR's per-replica reader-writer lock comes in two flavors, selected by
//! the construction's fairness mode:
//!
//! * [`DistRwLock`] — distributed per-reader slots, the NR §3 lock; the
//!   throughput default;
//! * [`PhaseFairRwLock`] — the §4.2 starvation-free variant.
//!
//! [`ReplicaLock`] abstracts over them so the replica can hold a trait
//! object. The interface is closure-based (`with_read`/`with_write` taking
//! `&mut dyn FnMut`) rather than guard-based: guards would need generic
//! associated types, which rules out `dyn` dispatch. Callers that want a
//! return value layer `FnOnce`+`Option` on top (see `prep-nr`'s
//! `Replica::read_with`).
//!
//! Locks without per-reader state accept the [`ReaderId`] and ignore it, so
//! the universal construction plumbs reader identity unconditionally and
//! the lock decides whether it pays off.

use crate::{DistRwLock, PhaseFairRwLock, ReaderId};

/// A readers-writer lock suitable for guarding an NR replica.
// lock-level: 2 replica data locks nest inside the combiner election
// (1); nothing ranked is acquired under them
pub trait ReplicaLock<T>: Send + Sync {
    /// Runs `f` with shared access, acquiring as reader `id`.
    fn with_read(&self, id: ReaderId, f: &mut dyn FnMut(&T));

    /// Runs `f` with exclusive access.
    fn with_write(&self, f: &mut dyn FnMut(&mut T));

    /// Number of dedicated reader slots, `0` for centralized locks (every
    /// [`ReaderId`] is then equivalent to [`ReaderId::Shared`]).
    fn reader_slots(&self) -> usize {
        0
    }

    /// Snapshot of every lock state word (advisory, for tests asserting
    /// that a path made no store to lock state). Empty when the lock does
    /// not expose its words.
    fn state_words(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Runs `f` against the protected data **without acquiring the lock** —
    /// the optimistic read path. Performs no atomic RMW and no store to any
    /// lock state word.
    ///
    /// # Safety
    ///
    /// The shared reference handed to `f` is unsynchronized: a writer may
    /// mutate the data concurrently. The caller must bracket the call with
    /// an external detection protocol (in NR, [`crate::SeqVersion`]
    /// `read_begin`/`validate` around every `with_peek`) and **discard
    /// everything `f` observed** when the bracket reports an overlapping
    /// write. `f` must tolerate reading torn/inconsistent values without
    /// faulting: it must not follow data-dependent pointers it frees or
    /// trust invariants for memory safety (plain reads of possibly-stale
    /// plain data only). This is the standard seqlock contract.
    unsafe fn with_peek(&self, f: &mut dyn FnMut(&T));
}

impl<T: Send + Sync> ReplicaLock<T> for DistRwLock<T> {
    // SAFETY: forwards the trait method's seqlock contract — the caller
    // brackets this call with an external write-detection protocol and
    // discards torn observations.
    unsafe fn with_peek(&self, f: &mut dyn FnMut(&T)) {
        // SAFETY: the caller upholds the seqlock contract documented on the
        // trait method; we only materialize the unsynchronized shared
        // reference it promises to treat as suspect.
        f(unsafe { &*self.data_ptr() });
    }

    fn with_read(&self, id: ReaderId, f: &mut dyn FnMut(&T)) {
        f(&self.read(id));
    }

    fn with_write(&self, f: &mut dyn FnMut(&mut T)) {
        f(&mut self.write());
    }

    fn reader_slots(&self) -> usize {
        DistRwLock::reader_slots(self)
    }

    fn state_words(&self) -> Vec<u64> {
        let mut words = vec![self.writer_word()];
        words.extend((0..=DistRwLock::reader_slots(self)).map(|i| self.reader_line(i)));
        words
    }
}

impl<T: Send + Sync> ReplicaLock<T> for PhaseFairRwLock<T> {
    // SAFETY: forwards the trait method's seqlock contract — the caller
    // brackets this call with an external write-detection protocol and
    // discards torn observations.
    unsafe fn with_peek(&self, f: &mut dyn FnMut(&T)) {
        // SAFETY: the caller upholds the seqlock contract documented on the
        // trait method; we only materialize the unsynchronized shared
        // reference it promises to treat as suspect.
        f(unsafe { &*self.data_ptr() });
    }

    fn with_read(&self, _id: ReaderId, f: &mut dyn FnMut(&T)) {
        f(&self.read());
    }

    fn with_write(&self, f: &mut dyn FnMut(&mut T)) {
        f(&mut self.write());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(lock: &dyn ReplicaLock<u64>) {
        lock.with_write(&mut |v| *v += 5);
        let mut seen = 0;
        lock.with_read(ReaderId::Shared, &mut |v| seen = *v);
        assert_eq!(seen, 5);
        lock.with_read(ReaderId::Slot(0), &mut |v| seen = *v + 1);
        assert_eq!(seen, 6);
        // SAFETY: no concurrent writer exists in this single-threaded
        // exercise, so the peeked value is trivially consistent.
        unsafe { lock.with_peek(&mut |v| seen = *v + 2) };
        assert_eq!(seen, 7);
    }

    #[test]
    fn all_variants_implement_the_trait() {
        let locks: Vec<Box<dyn ReplicaLock<u64>>> = vec![
            Box::new(DistRwLock::new(0u64, 2)),
            Box::new(PhaseFairRwLock::new(0u64)),
        ];
        for lock in &locks {
            exercise(lock.as_ref());
        }
        assert_eq!(locks[0].reader_slots(), 2);
        assert_eq!(locks[1].reader_slots(), 0);
    }
}
