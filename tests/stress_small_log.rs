//! Small-log stress: drive every construction through thousands of log
//! wrap-arounds with maximum reclamation pressure (tiny log, tiny ε), the
//! regime where the emptyBit parity, logMin helping, and flush-boundary
//! backpressure interact hardest. `stress_prep` runs each PREP cell in
//! both fairness modes: in `StarvationFree` the reservation gate (a
//! `TicketLock` at level 2) is held while the gate refuses admission and
//! its combiner catches its own replica up under the replica write lock
//! (level 3), so debug builds check that nesting on every wrap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prep_nr::{FairnessMode, NodeReplicated};
use prep_seqds::hashmap::MapOp;
use prep_seqds::queue::{Queue, QueueOp, QueueResp};
use prep_seqds::rbtree::RbTree;
use prep_seqds::recorder::{Recorder, RecorderOp};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc};

fn stress_prep(level: DurabilityLevel, log: u64, eps: u64, per_thread: u64) {
    for fairness in [FairnessMode::Throughput, FairnessMode::StarvationFree] {
        stress_prep_in(level, fairness, log, eps, per_thread);
    }
}

fn stress_prep_in(
    level: DurabilityLevel,
    fairness: FairnessMode,
    log: u64,
    eps: u64,
    per_thread: u64,
) {
    const WORKERS: usize = 3;
    let asg = Topology::new(2, 2, 1).assign_workers(WORKERS);
    let cfg = PrepConfig::new(level)
        .with_log_size(log)
        .with_epsilon(eps)
        .with_fairness(fairness)
        .with_runtime(PmemRuntime::for_crash_tests());
    let prep = Arc::new(PrepUc::new(Recorder::new(), asg, cfg));
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let prep = Arc::clone(&prep);
            std::thread::spawn(move || {
                let token = prep.register(w);
                for i in 0..per_thread {
                    prep.execute(&token, RecorderOp::Record((w as u64) << 32 | i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = WORKERS as u64 * per_thread;
    assert_eq!(prep.completed_tail(), total, "{fairness:?}");
    prep.with_replica(0, |r| assert_eq!(r.count(), total, "{fairness:?}"));
    assert!(
        prep.inner().log().log_tail() / log >= 2,
        "test must actually wrap the log multiple times ({fairness:?})"
    );
}

#[test]
fn buffered_survives_thousands_of_wraps() {
    // log 32, β=2 per node → minimum admissible; ε=8 forces a persist
    // roughly every quarter lap.
    stress_prep(DurabilityLevel::Buffered, 32, 8, 2_000);
}

#[test]
fn durable_survives_thousands_of_wraps() {
    stress_prep(DurabilityLevel::Durable, 32, 8, 2_000);
}

#[test]
fn buffered_with_minimum_epsilon_makes_progress() {
    // ε = 1: a persist-and-swap round trip for every single update —
    // pathological but legal, and must not deadlock the gate/persistence
    // handshake. Kept small: with the bound-preserving boundary advance
    // (flushBoundary = persistedTail + ε), every operation genuinely waits
    // for a persist cycle, so throughput here is persist-latency-bound by
    // design.
    stress_prep(DurabilityLevel::Buffered, 32, 1, 150);
}

#[test]
fn rbtree_replicas_stay_valid_under_wrap_pressure() {
    const WORKERS: usize = 2;
    let asg = Topology::new(2, 2, 1).assign_workers(WORKERS);
    let cfg = PrepConfig::new(DurabilityLevel::Durable)
        .with_log_size(64)
        .with_epsilon(16)
        .with_runtime(PmemRuntime::for_crash_tests());
    let prep = Arc::new(PrepUc::new(RbTree::new(), asg, cfg));
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let prep = Arc::clone(&prep);
            std::thread::spawn(move || {
                let token = prep.register(w);
                for i in 0..1_500u64 {
                    let key = (i * 7 + w as u64 * 3) % 512;
                    if i % 3 == 0 {
                        prep.execute(&token, MapOp::Remove { key });
                    } else {
                        prep.execute(&token, MapOp::Insert { key, value: i });
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Every replica holds a structurally valid red-black tree and all
    // replicas agree.
    let reference = prep.with_replica(0, |t| {
        t.check_invariants();
        t.len()
    });
    // Crash + recover: the recovered tree is also valid.
    let (token, image) = prep.simulate_crash();
    let asg = Topology::new(2, 2, 1).assign_workers(WORKERS);
    let cfg = PrepConfig::new(DurabilityLevel::Durable)
        .with_log_size(64)
        .with_epsilon(16)
        .with_runtime(PmemRuntime::for_crash_tests());
    drop(prep);
    let recovered = PrepUc::recover(token, image, asg, cfg);
    let rec_len = recovered.with_replica(0, |t| {
        t.check_invariants();
        t.len()
    });
    assert_eq!(rec_len, reference, "durable recovery lost tree entries");
}

/// Enqueue/dequeue pairs from 7 workers on a 2 × 4 topology (4 + 3 workers,
/// β = 4): the shape that lost the `logMin` owner. A reservation that finds
/// the lowMark owned by an earlier one waits; the owner's advance can land
/// the new lowMark inside the waiter, which then owns it (DESIGN.md,
/// liveness correction 4). A hang fails the test at a deadline, naming
/// where each worker is stuck, instead of hanging the suite.
fn queue_pairs_on_two_nodes(log: u64) {
    const WORKERS: usize = 7;
    const PAIRS: u64 = 20_000;
    const DEADLINE: Duration = Duration::from_secs(60);
    let asg = Topology::new(2, 4, 1).assign_workers(WORKERS);
    let nr = Arc::new(NodeReplicated::new(Queue::new(), asg, log));
    // Operations each worker has completed: op `2i` is its i-th enqueue,
    // op `2i + 1` the matching dequeue.
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());
    // Not scoped: a hung worker must not keep the failing test from
    // returning, so the watchdog below joins only finished workers.
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let (nr, done) = (Arc::clone(&nr), Arc::clone(&done));
            std::thread::spawn(move || {
                let token = nr.register(w);
                for i in 0..PAIRS {
                    let v = (w as u64) << 32 | i;
                    assert_eq!(nr.execute(&token, QueueOp::Enqueue(v)), QueueResp::Ok);
                    done[w].store(2 * i + 1, Ordering::Relaxed);
                    // Our own item is still queued, so a dequeue never finds
                    // the queue empty.
                    let got = nr.execute(&token, QueueOp::Dequeue);
                    assert!(matches!(got, QueueResp::Value(Some(_))), "{got:?}");
                    done[w].store(2 * i + 2, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let start = Instant::now();
    while !workers.iter().all(|h| h.is_finished()) {
        if start.elapsed() > DEADLINE {
            let sites: Vec<String> = (0..WORKERS)
                .map(|w| {
                    let n = done[w].load(Ordering::Relaxed);
                    let site = if n == 2 * PAIRS {
                        "finished".to_string()
                    } else if n.is_multiple_of(2) {
                        format!("in execute(Enqueue) #{}", n / 2)
                    } else {
                        format!("in execute(Dequeue) #{}", n / 2)
                    };
                    format!("worker {w} (node {}): {site}", nr.assignment().node_of(w))
                })
                .collect();
            panic!(
                "queue pairs hung after {DEADLINE:?} (log {log}, logMin {}, logTail {}, \
                 completedTail {}):\n  {}",
                nr.log().log_min(),
                nr.log().log_tail(),
                nr.completed_tail(),
                sites.join("\n  ")
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for h in workers {
        h.join().expect("worker panicked");
    }
    assert_eq!(nr.completed_tail(), 2 * PAIRS * WORKERS as u64);
    for node in 0..nr.num_replicas() {
        nr.with_replica(node, |q| assert_eq!(q.len(), 0, "replica {node}"));
    }
}

#[test]
fn queue_pairs_on_two_nodes_finish_with_an_8192_slot_log() {
    queue_pairs_on_two_nodes(8_192);
}

#[test]
fn queue_pairs_on_two_nodes_finish_with_a_minimum_size_log() {
    // 2 · (nodes + 1) · β + 2 for 2 nodes and β = 4.
    queue_pairs_on_two_nodes(26);
}
