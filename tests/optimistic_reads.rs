//! Reads in `FairnessMode::Throughput`, the default mode, end to end.
//!
//! The test names keep the "optimistic" of the lock-free read this mode
//! once used. A caught-up `Throughput` read now takes the reader's own
//! `DistRwLock` slot; a replica behind `completedTail` is caught up first.
//! These tests check that this mode alone:
//!
//! * **Linearizability** — reads racing writers produce linearizable
//!   histories (a read reflects a state at least as new as
//!   `completedTail` at invocation).
//! * **Cross-mode agreement** — `Throughput` and the always-phase-fair
//!   `StarvationFree` mode are semantically interchangeable, and in both a
//!   read issued right after the reader's own update observes it.
//!
//! Torn-read and recovery checks for the same path live in `readpath.rs`.

use std::sync::Arc;

use prep_checker::{check_linearizable, record_concurrent};
use prep_nr::{FairnessMode, NodeReplicated, NoopHooks};
use prep_seqds::hashmap::{HashMap, MapOp};
use prep_seqds::recorder::{Recorder, RecorderOp, RecorderResp};
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Throughput-mode NR produces linearizable histories at 90% reads:
    /// most reads find their replica caught up and read it under their own
    /// reader slot, racing the combiner that applies each batch.
    #[test]
    fn optimistic_nr_read_heavy_histories_linearize(seed in 0u64..1u64 << 32) {
        let asg = Topology::new(2, 2, 1).assign_workers(THREADS);
        let nr = NodeReplicated::with_hooks_and_fairness(
            HashMap::new(),
            asg,
            256,
            NoopHooks,
            FairnessMode::Throughput,
        );
        let tokens: Vec<_> = (0..THREADS).map(|t| nr.register(t)).collect();
        let history = record_concurrent::<HashMap, _, _>(
            THREADS,
            OPS_PER_THREAD,
            read_heavy_ops(seed),
            |t, op| nr.execute(&tokens[t], op),
        );
        prop_assert!(
            check_linearizable(&HashMap::new(), &history),
            "Throughput NR produced a non-linearizable history (seed {seed})"
        );
    }
}

/// The slot-read mode and the always-phase-fair mode agree on final state
/// under an owned-key update discipline, and in both a read issued after
/// the reader's own update completed observes it.
#[test]
fn optimistic_modes_agree_with_lock_modes_on_final_state() {
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
                        match nr.execute(&t, RecorderOp::Count) {
                            RecorderResp::Count(c) => assert!(
                                c > i,
                                "{fairness:?} read missed the reader's own completed updates"
                            ),
                            other => panic!("unexpected response {other:?}"),
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
