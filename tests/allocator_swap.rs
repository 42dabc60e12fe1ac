//! End-to-end allocator-swap test (§5.1).
//!
//! This test binary registers `SwappableAllocator` as the process's global
//! allocator — the configuration the paper's implementation runs in. The
//! persistence thread must transparently route the *sequential object's own
//! allocations* (the `SortedList`'s `Box`ed nodes) into the persistent
//! arena while it replays the log, without the sequential code knowing, and
//! worker threads' allocations must stay on the system allocator.
//!
//! Every test reads the *process-global* arena's counters or free list, and
//! a `PrepUc`'s persistence thread allocates into that arena for as long as
//! the `PrepUc` lives, so the tests in this binary run one at a time.

#![allow(clippy::disallowed_types, reason = "test code is outside the API bans")]

#[global_allocator]
static ALLOC: prep_pmem::alloc::SwappableAllocator = prep_pmem::alloc::SwappableAllocator::new();

use std::sync::{Mutex, MutexGuard};

use prep_pmem::alloc::{global_arena, persistent_allocation_enabled, with_persistent};
use prep_seqds::list::{SetOp, SetResp, SortedList};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc};

fn cfg() -> PrepConfig {
    PrepConfig::new(DurabilityLevel::Buffered)
        .with_log_size(512)
        .with_epsilon(64)
        .with_runtime(PmemRuntime::for_crash_tests())
}

/// One test at a time (see the module docs). Take it first in a test, so it
/// is released last: after every `PrepUc` of the test has been dropped and
/// its persistence thread joined.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn persistence_thread_allocates_sequential_nodes_in_the_arena() {
    let _serial = serial();
    // Touch the arena once so baseline counters exist.
    let _warm = with_persistent(|| Box::new(0u64));
    let (allocs_before, _) = global_arena().op_counts();

    let asg = Topology::new(2, 2, 1).assign_workers(1);
    let prep = PrepUc::new(SortedList::new(), asg, cfg());
    let token = prep.register(0);
    // Enough inserts to cross several flush boundaries, so the persistence
    // thread replays them (allocating one list node each) persistently.
    for k in 0..300u64 {
        assert_eq!(prep.execute(&token, SetOp::Insert(k)), SetResp::Bool(true));
    }
    // Wait until both persistent replicas have caught up past most inserts.
    prep_sync::spin_until(|| {
        let [a, b] = prep.persistent_tails();
        a.min(b) >= 200
    });
    let (allocs_after, _) = global_arena().op_counts();
    let delta = allocs_after - allocs_before;
    assert!(
        delta >= 300,
        "persistence thread should have allocated ≥300 list nodes (two \
         replicas' worth in flight) in the arena; saw {delta}"
    );

    // The worker thread (this thread) is in volatile mode throughout.
    assert!(!persistent_allocation_enabled());
    drop(prep);
}

#[test]
fn worker_allocations_do_not_touch_the_arena() {
    let _serial = serial();
    let _warm = with_persistent(|| Box::new(0u64));
    let (before, _) = global_arena().op_counts();
    // A purely volatile allocation storm on this thread.
    let mut keep = Vec::new();
    for i in 0..1000usize {
        keep.push(vec![i; 8]);
    }
    drop(keep);
    let (after, _) = global_arena().op_counts();
    assert_eq!(
        before, after,
        "volatile-mode allocations leaked into the persistent arena"
    );
}

#[test]
fn cross_mode_drop_routes_by_pointer_range() {
    let _serial = serial();
    // Allocate persistently, drop in volatile mode (what happens when a
    // recovered replica is rebuilt): must not crash or double count.
    let b = with_persistent(|| Box::new([0u8; 256]));
    let p = b.as_ptr();
    assert!(global_arena().contains(p));
    drop(b); // volatile mode here
    let b2 = with_persistent(|| Box::new([0u8; 256]));
    assert_eq!(
        b2.as_ptr(),
        p,
        "freed arena block should be reused by the free list"
    );
}
