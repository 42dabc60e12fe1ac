//! An idle store's persistence thread sleeps: once everything is
//! checkpointed it parks on its wake slot, and only the park's bound
//! (`IDLE_PARK`) wakes it. A trickle of updates does not wake it either
//! until ε/2 of them have gathered for it to apply.
//!
//! A file of its own, and its tests take [`serial`], so this test binary
//! runs one store at a time and the only `prep-persistence` thread in
//! `/proc/self/task` is that store's.
#![cfg(target_os = "linux")]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test code is outside the API bans"
)]

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use prep_seqds::hashmap::{HashMap, MapOp};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc, IDLE_PARK};

/// One test at a time (see the module docs). A test that failed while
/// holding the lock has said what it had to say; the next one proceeds.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `f` of the `/proc/self/task` directory of every `prep-persistence`
/// thread of this process, summed.
fn sum_over_persistence_threads(f: impl Fn(&std::path::Path) -> u64) -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between the listing and the read
        };
        // The kernel keeps the first 15 bytes of a thread's name.
        if comm.trim_end() != &"prep-persistence"[..15] {
            continue;
        }
        total += f(&dir);
    }
    total
}

/// Voluntary context switches of every `prep-persistence` thread of this
/// process: each ended park is one.
fn persistence_voluntary_switches() -> u64 {
    sum_over_persistence_threads(|dir| {
        let status = std::fs::read_to_string(dir.join("status")).expect("task status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .expect("status has voluntary_ctxt_switches")
            .trim()
            .parse::<u64>()
            .expect("a switch count")
    })
}

/// Waits until the `prep-persistence` thread is parked: blocked in a
/// futex wait (its wake slot's `park_timeout`), not spinning or yielding
/// through its ladder.
fn wait_until_persistence_parks() {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let parked = sum_over_persistence_threads(|dir| {
            let wchan = std::fs::read_to_string(dir.join("wchan")).unwrap_or_default();
            u64::from(wchan.contains("futex"))
        });
        if parked == 1 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "the persistence thread never parked"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn an_idle_store_parks_its_persistence_thread() {
    const WINDOW: Duration = Duration::from_millis(100);
    let _serial = serial();
    let prep = PrepUc::new(
        HashMap::new(),
        Topology::small().assign_workers(1),
        PrepConfig::new(DurabilityLevel::Buffered)
            .with_epsilon(64)
            .with_runtime(PmemRuntime::for_crash_tests()),
    );
    let t = prep.register(0);
    for k in 0..100u64 {
        prep.execute(&t, MapOp::Insert { key: k, value: k });
    }
    prep.quiesce_persistence();
    // The thread now runs out its spin/yield ladder and parks for good.
    std::thread::sleep(Duration::from_millis(5));
    let before = persistence_voluntary_switches();
    std::thread::sleep(WINDOW);
    let switches = persistence_voluntary_switches() - before;
    let bound = (WINDOW.as_micros() / IDLE_PARK.as_micros()) as u64 + 10;
    assert!(
        switches <= bound,
        "idle persistence thread switched {switches} times in {WINDOW:?} (bound {bound})"
    );
}

/// Combiners wake the parked persistence thread for batches: on a fresh
/// store, whose first checkpoint is ε away, the parked thread waits for
/// ε/2 updates. Fewer leave the persistent replicas as they are across
/// many `IDLE_PARK`s (a park that times out with no cycle due parks
/// again), and the update that reaches ε/2 wakes it to catch the active
/// replica up.
#[test]
fn a_trickle_of_updates_waits_for_a_batch() {
    const EPSILON: u64 = 64;
    let _serial = serial();
    let prep = PrepUc::new(
        HashMap::new(),
        Topology::small().assign_workers(1),
        PrepConfig::new(DurabilityLevel::Buffered)
            .with_epsilon(EPSILON)
            .with_runtime(PmemRuntime::for_crash_tests()),
    );
    let t = prep.register(0);
    let mut key = 0u64;
    let mut update = |n: u64| {
        for _ in 0..n {
            prep.execute(&t, MapOp::Insert { key, value: key });
            key += 1;
        }
    };
    let active_tail = || prep.persistent_tails()[prep.active_persistent_replica() as usize];
    wait_until_persistence_parks();
    let before = prep.persistent_tails();
    update(EPSILON / 2 - 1);
    std::thread::sleep(IDLE_PARK * 40);
    assert_eq!(
        prep.persistent_tails(),
        before,
        "fewer than ε/2 updates woke the persistence thread, or a timed-out park applied them"
    );
    // The next update reaches the threshold: its combiner wakes the thread.
    update(1);
    let deadline = Instant::now() + Duration::from_secs(1);
    while active_tail() < prep.completed_tail() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert!(
        active_tail() == prep.completed_tail(),
        "the update that reached ε/2 left the active replica behind (tails {:?}, completedTail {})",
        prep.persistent_tails(),
        prep.completed_tail()
    );
}
