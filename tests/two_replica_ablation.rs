//! The two-persistent-replica design ablation (§4.1).
//!
//! The paper argues a single persistent replica is unsound: during an
//! update, background cache evictions can write an *inconsistent mixture*
//! of the replica back to NVM, so a crash mid-update recovers garbage.
//! PREP-UC therefore keeps two persistence-only replicas and only ever
//! updates the active one, recovering from the quiescent stable one.
//!
//! The emulator makes this directly observable: the active replica's image
//! is *torn* from its first post-snapshot mutation until the next WBINVD.
//! These tests show (a) a hypothetical one-replica design (i.e. recovering
//! the ACTIVE image) hits torn state under crash injection, while (b) the
//! stable image is never torn — the invariant PREP-UC's recovery relies on.

#![allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prep_seqds::recorder::{Recorder, RecorderOp};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc};

fn cfg(eps: u64) -> PrepConfig {
    PrepConfig::new(DurabilityLevel::Buffered)
        .with_log_size(512)
        .with_epsilon(eps)
        .with_runtime(PmemRuntime::for_crash_tests())
}

#[test]
fn one_persistent_replica_design_would_recover_torn_state() {
    // Hammer updates with a small ε so persist cycles are frequent, and
    // crash repeatedly. The ACTIVE image — the only image a one-replica
    // design would have — must be caught torn at least once.
    const EPS: u64 = 8;
    let asg = Topology::new(2, 2, 1).assign_workers(2);
    let prep = Arc::new(PrepUc::new(Recorder::new(), asg, cfg(EPS)));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..2)
        .map(|w| {
            let prep = Arc::clone(&prep);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let token = prep.register(w);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    prep.execute(&token, RecorderOp::Record(i));
                    i += 1;
                }
            })
        })
        .collect();

    // Crash until the loop has both made 300 crashes and spanned ten flush
    // boundaries of progress. A count alone can finish before the workers
    // start or before the first checkpoint lands (a crash cut is cheap),
    // and then no crash can have caught the active image mid-update.
    let mut saw_torn_active = false;
    let mut stable_always_ok = true;
    let mut crashes = 0u64;
    // The stable tail the latest crash would have recovered (None: torn).
    let mut recovered_tail = None;
    let started = Instant::now();
    let state = |crashes: u64, recovered_tail: Option<u64>| {
        format!(
            "{crashes} crashes, completedTail {}, ε {EPS}, last recovered tail {recovered_tail:?}",
            prep.completed_tail()
        )
    };
    while crashes < 300 || prep.completed_tail() < 10 * EPS {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no progress in 60 s: {}",
            state(crashes, recovered_tail)
        );
        crashes += 1;
        let (_tok, image) = prep.simulate_crash();
        if image.active_torn {
            saw_torn_active = true;
        }
        recovered_tail = image.stable.as_ref().ok().map(|s| s.local_tail);
        if image.stable.is_err() {
            stable_always_ok = false;
        }
        if saw_torn_active && !stable_always_ok {
            break;
        }
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    assert!(
        saw_torn_active,
        "expected at least one crash to catch the active replica mid-update \
         (the hazard motivating the two-replica design); {}",
        state(crashes, recovered_tail)
    );
    assert!(
        stable_always_ok,
        "the STABLE replica image must never be torn — PREP-UC's recovery \
         invariant; {}",
        state(crashes, recovered_tail)
    );
}

#[test]
fn active_image_becomes_consistent_again_after_wbinvd() {
    // Single-threaded deterministic check of the torn lifecycle across a
    // persist cycle: torn while dirty, consistent right after the swap.
    let asg = Topology::new(2, 2, 1).assign_workers(1);
    let prep = PrepUc::new(Recorder::new(), asg, cfg(4));
    let token = prep.register(0);

    // Drive past several flush boundaries.
    for i in 0..64u64 {
        prep.execute(&token, RecorderOp::Record(i));
    }
    // Wait for the persistence thread to finish a cycle (≥ 2 snapshots).
    prep_sync::spin_until(|| prep.runtime().stats().snapshot_count() >= 2);

    let (_tok, image) = prep.simulate_crash();
    // Whatever the interleaving, the stable side must be consistent with a
    // localTail that reached at least the first boundary.
    let snap = image.stable_snapshot();
    assert!(
        snap.local_tail >= 4,
        "stable snapshot should reflect at least one completed cycle, got {}",
        snap.local_tail
    );
    // Its state must be exactly the log prefix of length local_tail.
    let expected: Vec<u64> = (0..snap.local_tail).collect();
    assert_eq!(snap.state.history(), &expected[..]);
}
