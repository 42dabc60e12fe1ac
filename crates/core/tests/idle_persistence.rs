//! An idle store's persistence thread sleeps: once everything is
//! checkpointed it parks on its wake slot, and only the park's bound
//! (`IDLE_PARK`) wakes it.
//!
//! A file of its own, so this test binary runs one store and the only
//! `prep-persistence` thread in `/proc/self/task` is this store's.
#![cfg(target_os = "linux")]

use std::time::Duration;

use prep_seqds::hashmap::{HashMap, MapOp};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc, IDLE_PARK};

/// Voluntary context switches of every `prep-persistence` thread of this
/// process: each ended park is one.
fn persistence_voluntary_switches() -> u64 {
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
        let status = std::fs::read_to_string(dir.join("status")).expect("task status");
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .expect("status has voluntary_ctxt_switches")
            .trim()
            .parse::<u64>()
            .expect("a switch count");
    }
    total
}

#[test]
fn an_idle_store_parks_its_persistence_thread() {
    const WINDOW: Duration = Duration::from_millis(100);
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
