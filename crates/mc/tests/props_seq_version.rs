//! Model-checked properties of the real [`prep_sync::SeqVersion`].
//!
//! Runs only under `RUSTFLAGS="--cfg prep_mc"`: prep-sync must be built
//! with its `cell` seam routed through the instrumented runtime, or the
//! primitives' atomics would be invisible to the scheduler.
#![cfg(prep_mc)]

use std::sync::Arc;

use prep_mc::{thread, Builder};
use prep_sync::cell::PeekCell;
use prep_sync::SeqVersion;

/// The seqlock recipe end to end against the real `SeqVersion`, with a
/// value-correlated pair: the writer publishes `(n, n)` under bracket
/// `2(n-1) → 2n`, so a validated reader must see the exact pair matching
/// its snapshot — anything else is a torn read (pair mismatch) or a stale
/// read (pair older than the snapshot's version).
#[test]
fn validated_reads_are_neither_torn_nor_stale() {
    Builder::new("seq-version-correlated").check(|| {
        let sv = Arc::new(SeqVersion::new());
        let a = Arc::new(PeekCell::new(0u64));
        let b = Arc::new(PeekCell::new(0u64));
        let (sv2, a2, b2) = (Arc::clone(&sv), Arc::clone(&a), Arc::clone(&b));
        let writer = thread::spawn(move || {
            sv2.write_begin();
            unsafe {
                a2.write(1);
                b2.write(1);
            }
            sv2.write_end();
        });
        if let Some(snap) = sv.read_begin() {
            let x = unsafe { a.read_racy() }.value;
            let y = unsafe { b.read_racy() }.value;
            if sv.validate(snap) {
                assert_eq!(x, y, "torn read admitted by SeqVersion");
                assert_eq!(
                    x,
                    snap / 2,
                    "stale read: snapshot {snap} must carry pair ({}, {})",
                    snap / 2,
                    snap / 2
                );
            }
        }
        writer.join().unwrap();
    });
}

/// `read_begin` refuses to hand out a snapshot while a write bracket is
/// open (odd version).
#[test]
fn read_begin_refuses_open_write_brackets() {
    Builder::new("seq-version-odd").check(|| {
        let sv = Arc::new(SeqVersion::new());
        let sv2 = Arc::clone(&sv);
        let writer = thread::spawn(move || {
            sv2.write_begin();
            sv2.write_end();
        });
        if let Some(snap) = sv.read_begin() {
            assert_eq!(snap % 2, 0, "read_begin returned an odd snapshot");
        }
        writer.join().unwrap();
    });
}

/// The advisory counter (`current`) never tears and never runs backwards
/// from one thread's perspective.
#[test]
fn version_counter_is_monotonic_per_observer() {
    Builder::new("seq-version-monotone").check(|| {
        let sv = Arc::new(SeqVersion::new());
        let sv2 = Arc::clone(&sv);
        let writer = thread::spawn(move || {
            sv2.write_begin();
            sv2.write_end();
            sv2.write_begin();
            sv2.write_end();
        });
        let v1 = sv.current();
        let v2 = sv.current();
        assert!(v2 >= v1, "version ran backwards: {v1} then {v2}");
        assert!(v2 <= 4, "version overshot two brackets: {v2}");
        writer.join().unwrap();
    });
}
