//! Litmus tests for the model checker itself.
//!
//! These run under *plain* `cargo test` (prep-mc's own cells are always
//! instrumented — only the `prep_sync::cell` seam is cfg-gated) and pin
//! the memory model to the classic C11 litmus shapes: store buffering,
//! message passing, coherence, release sequences, fences, race detection,
//! livelock detection, and deterministic replay.

#![allow(
    unsafe_code,
    reason = "the tests drive `PeekCell`'s unsafe accessors, racing ones included"
)]

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;

use prep_mc::cell::{fence, AtomicBool, AtomicU64, PeekCell};
use prep_mc::{thread, Builder, FailureKind};

/// Two threads each fetch_add(1): RMW atomicity means no lost update.
#[test]
fn rmw_atomicity_no_lost_update() {
    Builder::new("rmw-atomicity").check(|| {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            c2.fetch_add(1, Relaxed);
        });
        c.fetch_add(1, Relaxed);
        t.join().unwrap();
        assert_eq!(c.load(Relaxed), 2);
    });
}

/// Store buffering with SeqCst: the (0, 0) outcome is forbidden.
#[test]
fn store_buffering_seqcst_forbids_0_0() {
    Builder::new("sb-seqcst").check(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, SeqCst);
            y2.load(SeqCst)
        });
        y.store(1, SeqCst);
        let a = x.load(SeqCst);
        let b = t.join().unwrap();
        assert!(a == 1 || b == 1, "SeqCst store buffering produced (0, 0)");
    });
}

/// Store buffering with Relaxed: the model *must* find the (0, 0) outcome
/// (each load reading the initial store) — this is what distinguishes a
/// real weak-memory model from naive sequential consistency.
#[test]
fn store_buffering_relaxed_finds_0_0() {
    let r = Builder::new("sb-relaxed").run(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, Relaxed);
            y2.load(Relaxed)
        });
        y.store(1, Relaxed);
        let a = x.load(Relaxed);
        let b = t.join().unwrap();
        assert!(a == 1 || b == 1, "found (0, 0)");
    });
    let fail = r.failure.expect("relaxed SB must reach (0, 0)");
    assert_eq!(fail.kind, FailureKind::Panic);
    assert!(
        fail.trace.contains("load"),
        "trace renders ops: {}",
        fail.trace
    );
}

/// Message passing with Release/Acquire: flag observed ⇒ data visible.
#[test]
fn message_passing_release_acquire_holds() {
    Builder::new("mp-rel-acq").check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Relaxed);
            f2.store(true, Release);
        });
        if flag.load(Acquire) {
            assert_eq!(data.load(Relaxed), 42, "flag set but data stale");
        }
        t.join().unwrap();
    });
}

/// Message passing with Relaxed flag: the model must find the stale-data
/// interleaving (flag visible, data not).
#[test]
fn message_passing_relaxed_finds_stale_data() {
    let r = Builder::new("mp-relaxed").run(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Relaxed);
            f2.store(true, Relaxed);
        });
        if flag.load(Relaxed) {
            assert_eq!(data.load(Relaxed), 42, "stale data behind relaxed flag");
        }
        t.join().unwrap();
    });
    assert!(r.failure.is_some(), "relaxed MP must expose stale data");
}

/// Message passing through fences: Release fence before relaxed store,
/// Acquire fence after relaxed load — must hold like rel/acq.
#[test]
fn message_passing_via_fences_holds() {
    Builder::new("mp-fences").check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(7, Relaxed);
            fence(Release);
            f2.store(true, Relaxed);
        });
        if flag.load(Relaxed) {
            fence(Acquire);
            assert_eq!(data.load(Relaxed), 7, "fence MP violated");
        }
        t.join().unwrap();
    });
}

/// Coherence: once a thread reads the new value of a location, it can
/// never read the old one again (per-location total order).
#[test]
fn coherence_no_backwards_reads() {
    Builder::new("coherence").check(|| {
        let x = Arc::new(AtomicU64::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            x2.store(1, Relaxed);
        });
        let first = x.load(Relaxed);
        let second = x.load(Relaxed);
        assert!(second >= first, "coherence violated: {first} then {second}");
        t.join().unwrap();
    });
}

/// Release sequence: a relaxed RMW continues the release sequence of the
/// release store it reads from, so an acquire load of the RMW's result
/// still synchronizes with the original release store.
#[test]
fn release_sequence_through_rmw() {
    Builder::new("release-seq").check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let (d3, f3) = (Arc::clone(&data), Arc::clone(&flag));
        let producer = thread::spawn(move || {
            d2.store(9, Relaxed);
            f2.store(1, Release);
        });
        let bumper = thread::spawn(move || {
            // Relaxed RMW: continues the release sequence, must not break it.
            let _ = f3.fetch_add(1, Relaxed);
            let _ = d3; // silence unused
        });
        if flag.load(Acquire) == 2 {
            // We read the RMW (which read the release store): synchronized.
            assert_eq!(data.load(Relaxed), 9, "release sequence broken");
        }
        producer.join().unwrap();
        bumper.join().unwrap();
    });
}

/// An unsynchronized plain write racing a plain read is reported as a
/// data race (not an assertion failure).
#[test]
fn peek_race_is_detected() {
    let r = Builder::new("peek-race").run(|| {
        let d = Arc::new(PeekCell::new(0u64));
        let d2 = Arc::clone(&d);
        // SAFETY: inside the model a racing access is reported, not undefined.
        let t = thread::spawn(move || unsafe {
            d2.write(1);
        });
        // SAFETY: inside the model a racing access is reported, not undefined.
        let _ = unsafe { d.read() };
        t.join().unwrap();
    });
    let fail = r.failure.expect("plain-data race must be detected");
    assert_eq!(fail.kind, FailureKind::DataRace);
    assert!(!fail.trace.is_empty());
}

/// `read_racy` consents to the race: no failure, and at least one
/// interleaving observes `racy == true`.
#[test]
fn peek_read_racy_consents() {
    use std::sync::atomic::AtomicBool as StdBool;
    let saw_racy = Arc::new(StdBool::new(false));
    let saw = Arc::clone(&saw_racy);
    let r = Builder::new("peek-read-racy").run(move || {
        let d = Arc::new(PeekCell::new(0u64));
        let d2 = Arc::clone(&d);
        // SAFETY: inside the model a racing access is reported, not undefined.
        let t = thread::spawn(move || unsafe {
            d2.write(1);
        });
        // SAFETY: inside the model a racing access is reported, not undefined.
        let p = unsafe { d.read_racy() };
        if p.racy {
            saw.store(true, Relaxed);
        }
        t.join().unwrap();
    });
    assert!(r.failure.is_none(), "consenting read must not fail");
    assert!(r.complete, "exploration must finish");
    assert!(saw_racy.load(Relaxed), "some interleaving must be racy");
}

/// A guard that is never released: the spinning reader is reported as
/// livelocked (deadlock folds into the same detector).
#[test]
fn stuck_spinner_reported_as_livelock() {
    let r = Builder::new("livelock").max_steps(2_000).run(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            while !f2.load(Acquire) {
                thread::yield_now();
            }
        });
        // Nobody ever sets the flag.
        t.join().unwrap();
    });
    let fail = r.failure.expect("stuck spinner must be reported");
    assert_eq!(fail.kind, FailureKind::Livelock);
}

/// The schedule string from a failure replays the exact same failure.
#[test]
fn replay_reproduces_the_failure() {
    let prop = || {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, Relaxed);
            y2.load(Relaxed)
        });
        y.store(1, Relaxed);
        let a = x.load(Relaxed);
        let b = t.join().unwrap();
        assert!(a == 1 || b == 1, "found (0, 0)");
    };
    let first = Builder::new("replay-find").run(prop);
    let fail = first.failure.expect("must fail");
    let again = Builder::new("replay-again")
        .replay(&fail.schedule)
        .run(prop);
    let refail = again.failure.expect("replay must reproduce the failure");
    assert_eq!(refail.kind, fail.kind);
    assert_eq!(refail.message, fail.message);
    assert_eq!(again.schedules, 1, "replay runs exactly one execution");
}

/// Swap + AcqRel RMW round trip (lock-shaped usage).
#[test]
fn swap_and_cas_model_a_lock() {
    Builder::new("cas-lock").check(|| {
        let locked = Arc::new(AtomicBool::new(false));
        let data = Arc::new(PeekCell::new(0u64));
        let (l2, d2) = (Arc::clone(&locked), Arc::clone(&data));
        let t = thread::spawn(move || {
            while l2.compare_exchange(false, true, Acquire, Relaxed).is_err() {
                thread::yield_now();
            }
            // SAFETY: the CAS lock is held.
            unsafe { d2.write(d2.read() + 1) };
            l2.store(false, Release);
        });
        while locked
            .compare_exchange(false, true, Acquire, Relaxed)
            .is_err()
        {
            thread::yield_now();
        }
        // SAFETY: the CAS lock is held.
        unsafe { data.write(data.read() + 1) };
        locked.store(false, Release);
        t.join().unwrap();
        // Joined both critical sections: no race, both increments visible.
        // SAFETY: both threads are joined.
        assert_eq!(unsafe { data.read() }, 2);
    });
}

/// AcqRel swap publishes like a release store and acquires like a load.
#[test]
fn swap_acqrel_round_trip() {
    Builder::new("swap-acqrel").check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let slot = Arc::new(AtomicU64::new(0));
        let (d2, s2) = (Arc::clone(&data), Arc::clone(&slot));
        let t = thread::spawn(move || {
            d2.store(5, Relaxed);
            s2.swap(1, AcqRel);
        });
        if slot.swap(2, AcqRel) == 1 {
            assert_eq!(data.load(Relaxed), 5, "AcqRel swap failed to publish");
        }
        t.join().unwrap();
    });
}
