//! Crash-equivalence properties for the checkpoint's crash-sim image.
//!
//! The persistent replicas are their own crash image: a checkpoint,
//! whatever its write-back strategy, makes the active replica consistent
//! after its fence, and a crash cut copies the stable replica itself. These
//! properties hold that to the observable a sequential run gives: every
//! crash, at any point, under both strategies and both durability levels,
//! must expose a stable snapshot equal to the sequential replay of the
//! completed-op prefix `[0, localTail)`.

use proptest::prelude::*;

use prep_seqds::hashmap::{HashMap, MapOp};
use prep_seqds::recorder::{assert_prefix, Recorder, RecorderOp};
use prep_seqds::SequentialObject;
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, FlushStrategy, PmemRuntime, PrepConfig, PrepUc};

const STRATEGIES: [FlushStrategy; 2] = [FlushStrategy::Wbinvd, FlushStrategy::DirtyLines];

fn cfg(level: DurabilityLevel, strategy: FlushStrategy, eps: u64, log: u64) -> PrepConfig {
    PrepConfig::new(level)
        .with_log_size(log)
        .with_epsilon(eps)
        .with_flush_strategy(strategy)
        .with_runtime(PmemRuntime::for_crash_tests())
}

/// Keys confined to a small universe so removes hit, buckets collide, and
/// states can be compared exhaustively by lookup.
const KEY_SPACE: u64 = 64;

fn map_eq(a: &HashMap, b: &HashMap) -> bool {
    a.len() == b.len() && (0..KEY_SPACE).all(|k| a.get(k) == b.get(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Recorder, both levels, both strategies: the stable snapshot taken
    /// at an arbitrary crash point must equal the sequential replay of ops
    /// `[0, snapshot.local_tail)`.
    #[test]
    fn stable_snapshot_equals_prefix_replay(
        eps in 1u64..48,
        n in 1u64..300,
        level_durable in any::<bool>(),
    ) {
        let log = 256u64;
        prop_assume!(eps <= log - 2);
        let level = if level_durable {
            DurabilityLevel::Durable
        } else {
            DurabilityLevel::Buffered
        };
        for strategy in STRATEGIES {
            let asg = Topology::small().assign_workers(1);
            let prep = PrepUc::new(
                Recorder::new(), asg, cfg(level, strategy, eps, log));
            let t = prep.register(0);
            for i in 0..n {
                prep.execute(&t, RecorderOp::Record(i));
            }
            let (_tok, image) = prep.simulate_crash();
            let snap = image.stable_snapshot();
            let mut model = Recorder::new();
            for i in 0..snap.local_tail {
                model.apply(&RecorderOp::Record(i));
            }
            prop_assert_eq!(
                snap.state.history(), model.history(),
                "{:?}/{:?}: snapshot at tail {} diverges from prefix replay",
                level, strategy, snap.local_tail
            );
        }
    }

    /// Hashmap with collisions, overwrites, removes and resizes: the
    /// delta-applied image must match prefix replay on a structure whose
    /// dirty tracking has non-trivial cases (bucket headers, tombstones,
    /// `touch_all` on resize).
    #[test]
    fn hashmap_snapshot_equals_prefix_replay(
        eps in 1u64..32,
        ops in proptest::collection::vec((0..KEY_SPACE, any::<u64>(), any::<bool>()), 1..250),
    ) {
        let log = 256u64;
        for strategy in STRATEGIES {
            let asg = Topology::small().assign_workers(1);
            // Tiny bucket count: forces collisions and at least one resize.
            let prep = PrepUc::new(
                HashMap::with_buckets(2),
                asg,
                cfg(DurabilityLevel::Buffered, strategy, eps, log),
            );
            let t = prep.register(0);
            let stream: Vec<MapOp> = ops
                .iter()
                .map(|&(key, value, insert)| if insert {
                    MapOp::Insert { key, value }
                } else {
                    MapOp::Remove { key }
                })
                .collect();
            for op in &stream {
                prep.execute(&t, *op);
            }
            let (_tok, image) = prep.simulate_crash();
            let snap = image.stable_snapshot();
            let mut model = HashMap::with_buckets(2);
            for op in stream.iter().take(snap.local_tail as usize) {
                model.apply(op);
            }
            prop_assert!(
                map_eq(&snap.state, &model),
                "{:?}: image at tail {} diverges from prefix replay",
                strategy, snap.local_tail
            );
        }
    }

    /// Full recovery equivalence across strategies, including multi-epoch
    /// crash → recover → continue cycles: durable recovers everything under
    /// every strategy; buffered recovers a prefix within the loss bound
    /// under every strategy.
    #[test]
    fn recovery_equivalent_across_strategies(
        eps in 1u64..24,
        epochs in 1usize..4,
        per_epoch in 1u64..100,
        level_durable in any::<bool>(),
    ) {
        let log = 256u64;
        let level = if level_durable {
            DurabilityLevel::Durable
        } else {
            DurabilityLevel::Buffered
        };
        for strategy in STRATEGIES {
            let asg = Topology::small().assign_workers(1);
            let mut prep = PrepUc::new(
                Recorder::new(), asg.clone(), cfg(level, strategy, eps, log));
            let mut issued = 0u64;
            let mut base: Vec<u64> = Vec::new();
            for _ in 0..epochs {
                let t = prep.register(0);
                let mut reference = base.clone();
                for _ in 0..per_epoch {
                    prep.execute(&t, RecorderOp::Record(issued));
                    reference.push(issued);
                    issued += 1;
                }
                let (token, image) = prep.simulate_crash();
                drop(prep);
                prep = PrepUc::recover(
                    token, image, asg.clone(), cfg(level, strategy, eps, log));
                let hist = prep.with_replica(0, |r| r.history().to_vec());
                let kept = assert_prefix(&hist, &reference);
                match level {
                    // Durable: zero loss regardless of checkpoint path.
                    DurabilityLevel::Durable => prop_assert_eq!(
                        kept, reference.len(),
                        "{:?}: durable lost ops", strategy
                    ),
                    // Buffered: prefix within ε + β − 1 (β = 1), and never
                    // below what the previous recovery preserved.
                    DurabilityLevel::Buffered => {
                        prop_assert!(kept >= base.len());
                        prop_assert!(
                            (reference.len() - kept) as u64 <= eps,
                            "{:?}: epoch loss {} > bound {}",
                            strategy, reference.len() - kept, eps
                        );
                    }
                }
                base = hist;
            }
        }
    }
}

/// Deterministic end-to-end smoke: a durable `DirtyLines` recovery after
/// heavy churn on a resizing hashmap is byte-for-byte the model state.
#[test]
fn dirty_lines_recovery_after_churn_matches_model() {
    let asg = Topology::small().assign_workers(1);
    let level = DurabilityLevel::Durable;
    let strategy = FlushStrategy::DirtyLines;
    let prep = PrepUc::new(
        HashMap::with_buckets(2),
        asg.clone(),
        cfg(level, strategy, 8, 256),
    );
    let t = prep.register(0);
    let mut model = HashMap::with_buckets(2);
    for i in 0..500u64 {
        let op = match i % 3 {
            0 | 1 => MapOp::Insert {
                key: i % KEY_SPACE,
                value: i,
            },
            _ => MapOp::Remove {
                key: (i + 7) % KEY_SPACE,
            },
        };
        prep.execute(&t, op);
        model.apply(&op);
    }
    let (token, image) = prep.simulate_crash();
    drop(prep);
    let rec = PrepUc::recover(token, image, asg, cfg(level, strategy, 8, 256));
    rec.with_replica(0, |r| {
        assert!(map_eq(r, &model), "durable DirtyLines recovery diverged");
    });
}
