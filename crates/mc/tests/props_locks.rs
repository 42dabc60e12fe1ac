//! Model-checked mutual-exclusion properties of the real prep-sync locks.
//!
//! The locks guard plain `UnsafeCell<T>` payloads that the runtime cannot
//! see, so every test threads an external [`PeekCell`] oracle through the
//! critical sections: a broken lock surfaces as a `DataRace` failure on
//! the oracle (non-consenting peek vs. concurrent store) or as a lost
//! update in the final counter value.
#![cfg(prep_mc)]
#![allow(
    unsafe_code,
    clippy::undocumented_unsafe_blocks,
    reason = "every unsafe block is an oracle access inside the model, which reports a race \
              instead of letting it be undefined: the module docs are the one SAFETY argument"
)]

use std::sync::Arc;

use prep_mc::cell::PeekCell;
use prep_mc::{thread, Builder};
use prep_sync::{DistRwLock, ReaderId, TryLock};

/// `TryLock`: two successful `try_lock`s can never overlap. Each holder
/// stores into the oracle without consent — any interleaving where both
/// hold the lock races and fails the check.
#[test]
fn trylock_mutual_exclusion() {
    Builder::new("trylock-exclusion").check(|| {
        let l = Arc::new(TryLock::new(()));
        let oracle = Arc::new(PeekCell::new(0u64));
        let (l2, o2) = (Arc::clone(&l), Arc::clone(&oracle));
        let t = thread::spawn(move || {
            if let Some(_g) = l2.try_lock() {
                unsafe { o2.write(1) };
                let _ = unsafe { o2.read() };
            }
        });
        if let Some(_g) = l.try_lock() {
            unsafe { oracle.write(2) };
            let _ = unsafe { oracle.read() };
        }
        t.join().unwrap();
    });
}

/// `TryLock` as a combiner-election primitive: both threads spin until
/// they win the lock, and each combines exactly one increment. Exclusion
/// plus eventual election means no update is lost: the counter ends at 2.
#[test]
fn trylock_combiner_election_loses_no_updates() {
    Builder::new("trylock-combiner").check(|| {
        let l = Arc::new(TryLock::new(()));
        let counter = Arc::new(PeekCell::new(0u64));
        let bump = |l: &TryLock<()>, c: &PeekCell<u64>| loop {
            if let Some(_g) = l.try_lock() {
                let v = unsafe { c.read() };
                unsafe { c.write(v + 1) };
                return;
            }
            thread::yield_now();
        };
        let (l2, c2) = (Arc::clone(&l), Arc::clone(&counter));
        let t = thread::spawn(move || bump(&l2, &c2));
        bump(&l, &counter);
        t.join().unwrap();
        assert_eq!(unsafe { counter.read() }, 2, "combiner lost an update");
    });
}

/// `DistRwLock`: a slot reader that wins `try_read` excludes the writer
/// (and vice versa), including the PR 7 SeqCst writer-recheck path.
#[test]
fn dist_rw_slot_reader_excludes_writer() {
    Builder::new("dist-rw-exclusion").check(|| {
        let l = Arc::new(DistRwLock::new((), 2));
        let oracle = Arc::new(PeekCell::new(0u64));
        let (l2, o2) = (Arc::clone(&l), Arc::clone(&oracle));
        let w = thread::spawn(move || {
            let _g = l2.write();
            unsafe { o2.write(1) };
            unsafe { o2.write(2) };
        });
        if let Some(_g) = l.try_read(ReaderId::Slot(0)) {
            let x = unsafe { oracle.read() };
            let y = unsafe { oracle.read() };
            assert_eq!(x, y, "slot reader saw a torn write");
            assert_ne!(x, 1, "slot reader overlapped the writer");
        }
        w.join().unwrap();
    });
}

/// `DistRwLock`: same property for the shared overflow line readers.
#[test]
fn dist_rw_shared_reader_excludes_writer() {
    Builder::new("dist-rw-shared").check(|| {
        let l = Arc::new(DistRwLock::new((), 1));
        let oracle = Arc::new(PeekCell::new(0u64));
        let (l2, o2) = (Arc::clone(&l), Arc::clone(&oracle));
        let w = thread::spawn(move || {
            let _g = l2.write();
            unsafe { o2.write(1) };
            unsafe { o2.write(2) };
        });
        if let Some(_g) = l.try_read(ReaderId::Shared) {
            let x = unsafe { oracle.read() };
            let y = unsafe { oracle.read() };
            assert_eq!(x, y, "shared reader saw a torn write");
            assert_ne!(x, 1, "shared reader overlapped the writer");
        }
        w.join().unwrap();
    });
}

/// `DistRwLock::try_write` (CX's replay claim) against a reader of each
/// kind, a slot reader and a shared one: the strong try's flag CAS and
/// its scan of every reader line exclude through the post-mark SeqCst
/// writer recheck.
#[test]
fn dist_rw_try_write_excludes_readers() {
    for (name, id) in [
        ("dist-rw-try-write-slot", ReaderId::Slot(0)),
        ("dist-rw-try-write-shared", ReaderId::Shared),
    ] {
        Builder::new(name).check(move || {
            let l = Arc::new(DistRwLock::new((), 1));
            let oracle = Arc::new(PeekCell::new(0u64));
            let (l2, o2) = (Arc::clone(&l), Arc::clone(&oracle));
            let w = thread::spawn(move || {
                if let Some(_g) = l2.try_write() {
                    unsafe { o2.write(1) };
                    unsafe { o2.write(2) };
                }
            });
            if let Some(_g) = l.try_read(id) {
                let x = unsafe { oracle.read() };
                let y = unsafe { oracle.read() };
                assert_eq!(x, y, "{id:?} reader overlapped try_write");
                assert_ne!(x, 1, "{id:?} reader saw the writer mid-update");
            }
            w.join().unwrap();
        });
    }
}

/// `DistRwLock::try_write`: two writers retrying `try_write` never
/// interleave their read-modify-write on the oracle, so no increment is
/// lost.
#[test]
fn dist_rw_try_writers_exclude_each_other() {
    Builder::new("dist-rw-try-writers").check(|| {
        let l = Arc::new(DistRwLock::new((), 1));
        let counter = Arc::new(PeekCell::new(0u64));
        let bump = |l: &DistRwLock<()>, c: &PeekCell<u64>| loop {
            if let Some(_g) = l.try_write() {
                let v = unsafe { c.read() };
                unsafe { c.write(v + 1) };
                return;
            }
            thread::yield_now();
        };
        let (l2, c2) = (Arc::clone(&l), Arc::clone(&counter));
        let t = thread::spawn(move || bump(&l2, &c2));
        bump(&l, &counter);
        t.join().unwrap();
        assert_eq!(unsafe { counter.read() }, 2, "writer lost an update");
    });
}
