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

/// A readers-writer lock suitable for guarding an NR replica. Every
/// implementation sits at level 3 (see [`DistRwLock::LEVEL`]).
pub trait ReplicaLock<T>: Send + Sync {
    /// Runs `f` with shared access, acquiring as reader `id`.
    #[cfg_attr(debug_assertions, track_caller)]
    fn with_read(&self, id: ReaderId, f: &mut dyn FnMut(&T));

    /// Runs `f` with exclusive access.
    #[cfg_attr(debug_assertions, track_caller)]
    fn with_write(&self, f: &mut dyn FnMut(&mut T));

    /// Number of dedicated reader slots, `0` for centralized locks (every
    /// [`ReaderId`] is then equivalent to [`ReaderId::Shared`]).
    fn reader_slots(&self) -> usize {
        0
    }
}

impl<T: Send + Sync> ReplicaLock<T> for DistRwLock<T> {
    fn with_read(&self, id: ReaderId, f: &mut dyn FnMut(&T)) {
        f(&self.read(id));
    }

    fn with_write(&self, f: &mut dyn FnMut(&mut T)) {
        f(&mut self.write());
    }

    fn reader_slots(&self) -> usize {
        DistRwLock::reader_slots(self)
    }
}

impl<T: Send + Sync> ReplicaLock<T> for PhaseFairRwLock<T> {
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
