//! The held-level check: each thread's record of the locks it holds.
//!
//! Every lock in this crate has a level, a constant on its type
//! (`TicketLock` alone can also take one per instance, see
//! [`crate::TicketLock::with_level`]). A thread that waits for a lock at
//! level `L` must hold nothing at level `L` or above. Two threads that
//! take the same pair of locks therefore take them in the same order, so
//! they cannot block each other forever.
//!
//! Debug builds check this where the lock is taken, the way the Linux
//! kernel's lockdep does: a thread-local list holds one entry per lock
//! the thread holds (its address, its level and the acquire's source
//! location). A blocking acquire (`lock`/`read`/`write`) panics *before
//! it waits* if any held level is ≥ its own, naming the thread and both
//! acquire sites. A `try_*` acquire is not checked, since it fails
//! instead of waiting, but it is recorded on success: a blocking acquire
//! under it can still wait. A guard removes its entry, found by address,
//! before its releasing atomic runs, so a model-checker execution that
//! unwinds out of that atomic leaves no stale entry behind for the next
//! one.
//!
//! Release builds compile every function here to nothing.

#[cfg(debug_assertions)]
pub(crate) use checked::{acquired, check_blocking, released};
#[cfg(not(debug_assertions))]
pub(crate) use unchecked::{acquired, check_blocking, released};

#[cfg(debug_assertions)]
mod checked {
    use std::cell::RefCell;
    use std::panic::Location;

    struct Held {
        addr: usize,
        level: u8,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    fn addr<L: ?Sized>(lock: &L) -> usize {
        lock as *const L as *const () as usize
    }

    /// Panics if the calling thread holds a lock at `level` or above.
    /// Called by every blocking acquire before it first waits.
    #[track_caller]
    pub(crate) fn check_blocking(level: u8) {
        let site = Location::caller();
        // Copy the conflict out first: the panic unwinds through guards
        // whose drops borrow the list again.
        let conflict = HELD
            .try_with(|h| {
                h.borrow()
                    .iter()
                    .rev()
                    .find(|e| e.level >= level)
                    .map(|e| (e.level, e.site))
            })
            .ok()
            .flatten();
        if let Some((held, at)) = conflict {
            let thread = std::thread::current();
            panic!(
                "lock order violation on thread '{}': blocking acquire of a level-{level} \
                 lock at {site} while holding a level-{held} lock acquired at {at}",
                thread.name().unwrap_or("<unnamed>")
            );
        }
    }

    /// Records that the calling thread now holds `lock` at `level`.
    #[track_caller]
    pub(crate) fn acquired<L: ?Sized>(lock: &L, level: u8) {
        let e = Held {
            addr: addr(lock),
            level,
            site: Location::caller(),
        };
        // A lock taken while thread-locals are torn down goes unrecorded.
        let _ = HELD.try_with(|h| h.borrow_mut().push(e));
    }

    /// Drops the calling thread's newest entry for `lock`, wherever it
    /// sits in the list (guards need not drop in reverse order).
    pub(crate) fn released<L: ?Sized>(lock: &L) {
        let a = addr(lock);
        let _ = HELD.try_with(|h| {
            let mut h = h.borrow_mut();
            if let Some(i) = h.iter().rposition(|e| e.addr == a) {
                h.remove(i);
            }
        });
    }

    /// Number of entries the calling thread holds (tests only).
    #[cfg(test)]
    pub(crate) fn held_count() -> usize {
        HELD.with(|h| h.borrow().len())
    }
}

#[cfg(not(debug_assertions))]
mod unchecked {
    #[inline(always)]
    pub(crate) fn check_blocking(_level: u8) {}

    #[inline(always)]
    pub(crate) fn acquired<L: ?Sized>(_lock: &L, _level: u8) {}

    #[inline(always)]
    pub(crate) fn released<L: ?Sized>(_lock: &L) {}
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::checked::held_count;
    use crate::{DistRwLock, PhaseFairRwLock, ReaderId, TicketLock, TryLock};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f`, which must panic, and returns its panic message.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("acquire did not panic");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e.downcast_ref::<&str>().unwrap_or(&"?").to_string(),
        }
    }

    #[test]
    fn an_inversion_panics_naming_both_sites() {
        let replica = DistRwLock::new(0u64, 1);
        let region = TicketLock::new();
        let msg = panic_message(|| {
            let _w = replica.write();
            let _r = region.lock();
        });
        assert!(msg.contains("level-0 lock at"), "{msg}");
        assert!(msg.contains("holding a level-3 lock"), "{msg}");
        assert_eq!(msg.matches(file!()).count(), 2, "{msg}");
        assert_eq!(held_count(), 0, "the unwind released the write guard");
    }

    #[test]
    fn nested_same_level_blocking_acquires_panic() {
        let a = TicketLock::new();
        let b = TicketLock::new();
        let msg = panic_message(|| {
            let _a = a.lock();
            let _b = b.lock();
        });
        assert!(msg.contains("holding a level-0 lock"), "{msg}");
        // The same lock re-read is the writer-preference self-deadlock.
        let lock = DistRwLock::new((), 0);
        panic_message(|| {
            let _r1 = lock.read(ReaderId::Shared);
            let _r2 = lock.read(ReaderId::Shared);
        });
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn a_blocking_acquire_under_a_held_try_lock_is_checked() {
        let election = TryLock::new(());
        let gate = TicketLock::with_level(2);
        let region = TicketLock::new();
        // Above the held level it passes: the reserve gate under the
        // combiner election.
        {
            let _c = election.try_lock().expect("free lock");
            drop(gate.lock());
        }
        let msg = panic_message(|| {
            let _c = election.try_lock().expect("free lock");
            let _r = region.lock();
        });
        assert!(msg.contains("holding a level-1 lock"), "{msg}");
        // A try_* acquire itself is never checked.
        let replica = PhaseFairRwLock::new(());
        let w = replica.write();
        assert!(election.try_lock().is_some());
        assert!(region.try_lock().is_some());
        drop(w);
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn out_of_order_guard_drops_leave_no_stale_entry() {
        let election = TryLock::new(());
        let a = DistRwLock::new((), 2);
        let b = DistRwLock::new((), 2);
        let c = election.try_lock().unwrap();
        let ra = a.try_read(ReaderId::Slot(0)).unwrap();
        let rb = b.try_read(ReaderId::Slot(1)).unwrap();
        assert_eq!(held_count(), 3);
        drop(c);
        drop(ra);
        assert_eq!(held_count(), 1);
        drop(rb);
        assert_eq!(held_count(), 0);
        // Nothing left behind: a blocking acquire at the lowest level passes.
        drop(TicketLock::new().lock());
    }

    #[test]
    fn sequential_same_level_acquires_pass() {
        let a = TicketLock::new();
        let b = TicketLock::new();
        for _ in 0..3 {
            drop(a.lock());
            drop(b.lock());
        }
        let lock = DistRwLock::new(0u64, 1);
        *lock.write() += 1;
        assert_eq!(*lock.read(ReaderId::Slot(0)), 1);
        assert_eq!(held_count(), 0);
    }
}
