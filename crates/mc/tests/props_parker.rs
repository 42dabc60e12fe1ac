//! Model-checked properties of the real [`prep_sync::WakeSlot`].
//!
//! Runs only under `RUSTFLAGS="--cfg prep_mc"` (see `props_seq_version.rs`).
//! Under the checker the slot's park is an instrumented yield loop on its
//! idle flag, so a lost wake-up is an owner that yields forever: the
//! livelock detector reports it, and a waker that never gets to run is a
//! deadlock. Both detectors are on by default; every check below must
//! come back clean *and* exhaustive.
#![cfg(prep_mc)]

use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use prep_mc::cell::AtomicU64;
use prep_mc::{thread, Builder};
use prep_sync::WakeSlot;

/// Exhaustive, not budget-capped: a clean report that ran out of
/// schedules would prove nothing about the interleaving it never reached.
fn check_exhaustively(name: &'static str, f: impl Fn() + Send + Sync) {
    let report = Builder::new(name).run(f);
    if let Some(fail) = report.failure {
        panic!(
            "{name}: {:?}: {}\nreplay schedule: \"{}\"\n{}",
            fail.kind, fail.message, fail.schedule, fail.trace
        );
    }
    assert!(report.complete, "{name}: schedule budget ran out");
}

/// One owner, two wakers, each publishing one unit of work and then
/// waking: the owner must leave its wait with both units visible, under
/// every interleaving — whichever side's store lands first, at least one
/// of the two loads sees it.
#[test]
fn no_wakeup_is_lost_with_two_wakers() {
    check_exhaustively("wake-slot-two-wakers", || {
        let slot = Arc::new(WakeSlot::new());
        let work = Arc::new(AtomicU64::new(0));
        let wakers: Vec<_> = (0..2)
            .map(|_| {
                let (slot, work) = (Arc::clone(&slot), Arc::clone(&work));
                thread::spawn(move || {
                    // ord: SeqCst — publish before wake (the slot's contract).
                    work.fetch_add(1, SeqCst);
                    slot.wake();
                })
            })
            .collect();
        // ord: SeqCst — the re-check's load (the slot's contract).
        slot.wait_until(|| work.load(SeqCst) == 2);
        assert_eq!(work.load(SeqCst), 2);
        for w in wakers {
            w.join().unwrap();
        }
    });
}

/// Of two wakers racing for one announcement at most one claims it (pays
/// the `unpark`), and a slot nobody is waiting on is never claimed.
#[test]
fn an_announcement_is_claimed_at_most_once() {
    check_exhaustively("wake-slot-single-claim", || {
        let slot = Arc::new(WakeSlot::new());
        let work = Arc::new(AtomicU64::new(0));
        let claims = Arc::new(AtomicU64::new(0));
        let wakers: Vec<_> = (0..2)
            .map(|_| {
                let (slot, work, claims) =
                    (Arc::clone(&slot), Arc::clone(&work), Arc::clone(&claims));
                thread::spawn(move || {
                    work.store(1, SeqCst);
                    if slot.wake() {
                        claims.fetch_add(1, SeqCst);
                    }
                })
            })
            .collect();
        slot.wait_until(|| work.load(SeqCst) == 1);
        for w in wakers {
            w.join().unwrap();
        }
        // The owner announced at most once before finding the work (a
        // second announcement needs a claimed first one and work still
        // missing, which one unit of work rules out).
        assert!(claims.load(SeqCst) <= 1, "one announcement, two claims");
        assert!(!slot.wake(), "the owner left its announcement behind");
    });
}

/// The owner waits twice on the same slot (an executor between two jobs):
/// a claim or a stray token from the first round must not satisfy, or
/// wedge, the second.
#[test]
fn the_slot_is_reusable_across_waits() {
    check_exhaustively("wake-slot-reuse", || {
        let slot = Arc::new(WakeSlot::new());
        let work = Arc::new(AtomicU64::new(0));
        let (s2, w2) = (Arc::clone(&slot), Arc::clone(&work));
        let waker = thread::spawn(move || {
            for unit in 1..=2 {
                w2.store(unit, SeqCst);
                s2.wake();
            }
        });
        slot.wait_until(|| work.load(SeqCst) >= 1);
        slot.wait_until(|| work.load(SeqCst) == 2);
        waker.join().unwrap();
    });
}
