//! Property-based crash testing for the sharded store (`prep-shard`):
//! proptest drives (shard count, ε, durability, crash point) through
//! deterministic workloads with a crash injected mid-stream, and asserts
//! the sharded correctness condition:
//!
//! * every shard recovers a **prefix of its own linearization order**;
//! * total completed-operation loss across shards is at most
//!   **N·(ε + β − 1)** in buffered mode and exactly **0** in durable mode.

#![allow(
    clippy::int_plus_one,
    reason = "keep the paper's ε + β − 1 formulas verbatim"
)]

use proptest::prelude::*;

use prep_seqds::recorder::{assert_prefix, Recorder, RecorderOp};
use prep_shard::ShardedStore;
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig};

fn cfg(level: DurabilityLevel, eps: u64) -> PrepConfig {
    PrepConfig::new(level)
        .with_log_size(256)
        .with_epsilon(eps)
        .with_runtime(PmemRuntime::for_crash_tests())
}

fn route(op: &RecorderOp) -> u64 {
    match *op {
        RecorderOp::Record(id) => id,
        RecorderOp::Count | RecorderOp::Last => 0,
    }
}

/// Issues ids `start..start + n` through the store, appending each to its
/// home shard's reference order.
fn issue(
    store: &ShardedStore<Recorder>,
    token: &prep_shard::ShardToken,
    per_shard: &mut [Vec<u64>],
    start: u64,
    n: u64,
) {
    for id in start..start + n {
        let op = RecorderOp::Record(id);
        per_shard[store.shard_of(&op)].push(id);
        store.execute(token, op);
    }
}

/// Crashes + recovers `store`, asserting the per-shard prefix property and
/// returning (recovered store, total operations lost).
fn crash_recover(
    store: ShardedStore<Recorder>,
    per_shard: &[Vec<u64>],
    level: DurabilityLevel,
    eps: u64,
    asg: &prep_topology::ThreadAssignment,
) -> (ShardedStore<Recorder>, u64) {
    let shards = store.shards();
    let (token, image) = store.simulate_crash();
    drop(store); // the "power failure"
    let rec = ShardedStore::recover(token, image, asg.clone(), cfg(level, eps), route);
    assert_eq!(
        rec.shards(),
        shards,
        "recovery must preserve the shard layout"
    );
    let mut lost = 0u64;
    for (s, issued) in per_shard.iter().enumerate() {
        let hist = rec.shard(s).with_replica(0, |r| r.history().to_vec());
        // The prefix property, per shard, against that shard's own order.
        let kept = assert_prefix(&hist, issued);
        lost += (issued.len() - kept) as u64;
    }
    (rec, lost)
}

/// Both ends of the proptest's shard range on every run, not only when the
/// draw lands there: one shard recovers wholly on the calling thread, four
/// put three on recovery threads. CI runs this file under
/// `--test-threads 1` and pinned to one core as well.
#[test]
fn one_and_four_shards_recover_within_their_bounds() {
    let eps = 8;
    for shards in [1usize, 4] {
        for level in [DurabilityLevel::Buffered, DurabilityLevel::Durable] {
            let asg = Topology::small().assign_workers(1);
            let store =
                ShardedStore::new(Recorder::new(), shards, asg.clone(), cfg(level, eps), route);
            let bound = store.loss_bound();
            let token = store.register(0);
            let mut per_shard = vec![Vec::new(); shards];
            issue(&store, &token, &mut per_shard, 0, 250);
            let (rec, lost) = crash_recover(store, &per_shard, level, eps, &asg);
            assert!(
                lost <= bound,
                "{level:?}, {shards} shards: lost {lost} > bound {bound}"
            );
            assert_eq!(rec.epoch(), 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Buffered: a crash injected mid-workload loses at most N·(ε + β − 1)
    /// completed operations in total, and each shard keeps a prefix.
    #[test]
    fn buffered_sharded_loss_within_combined_bound(
        shards in 1usize..5,
        eps in 1u64..32,
        crash_at in 1u64..300,
    ) {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::new(
            Recorder::new(),
            shards,
            asg.clone(),
            cfg(DurabilityLevel::Buffered, eps),
            route,
        );
        let bound = store.loss_bound();
        prop_assert_eq!(bound, shards as u64 * eps); // β = 1 ⇒ N·(ε + β − 1) = N·ε
        let token = store.register(0);
        let mut per_shard = vec![Vec::new(); shards];
        issue(&store, &token, &mut per_shard, 0, crash_at);
        let (_rec, lost) = crash_recover(
            store, &per_shard, DurabilityLevel::Buffered, eps, &asg);
        prop_assert!(
            lost <= bound,
            "lost {} > combined bound {} ({} shards, eps {})", lost, bound, shards, eps
        );
    }

    /// Durable: no shard loses anything, no matter where the crash lands.
    #[test]
    fn durable_sharded_loses_nothing(
        shards in 1usize..5,
        eps in 1u64..32,
        crash_at in 1u64..300,
    ) {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::new(
            Recorder::new(),
            shards,
            asg.clone(),
            cfg(DurabilityLevel::Durable, eps),
            route,
        );
        prop_assert_eq!(store.loss_bound(), 0);
        let token = store.register(0);
        let mut per_shard = vec![Vec::new(); shards];
        issue(&store, &token, &mut per_shard, 0, crash_at);
        let (rec, lost) = crash_recover(
            store, &per_shard, DurabilityLevel::Durable, eps, &asg);
        prop_assert_eq!(lost, 0, "durable mode must lose nothing");
        // Exact recovery: each shard's history IS its issued order.
        for (s, issued) in per_shard.iter().enumerate() {
            let hist = rec.shard(s).with_replica(0, |r| r.history().to_vec());
            prop_assert_eq!(&hist, issued, "shard {} diverged", s);
        }
    }

    /// Crash → recover → keep serving → crash again: loss accumulates at
    /// most c·N·(ε + β − 1) over c crashes, and the recovered store keeps
    /// routing new operations to the shards that own their keys.
    #[test]
    fn repeated_sharded_crashes_accumulate_bounded_loss(
        shards in 1usize..4,
        eps in 1u64..16,
        crashes in 1usize..4,
        per_epoch in 1u64..100,
    ) {
        let asg = Topology::small().assign_workers(1);
        let mut store = ShardedStore::new(
            Recorder::new(),
            shards,
            asg.clone(),
            cfg(DurabilityLevel::Buffered, eps),
            route,
        );
        let bound_per_crash = store.loss_bound();
        let mut issued = 0u64;
        let mut total_lost = 0u64;
        // After each crash, ops lost in that epoch never reappear, so the
        // per-shard reference becomes the recovered history extended by the
        // next epoch's ids.
        let mut per_shard: Vec<Vec<u64>> =
            (0..shards).map(|s| store.shard(s).with_replica(0, |r| r.history().to_vec())).collect();
        for epoch in 0..crashes {
            let token = store.register(0);
            issue(&store, &token, &mut per_shard, issued, per_epoch);
            issued += per_epoch;
            let (rec, lost) = crash_recover(
                store, &per_shard, DurabilityLevel::Buffered, eps, &asg);
            prop_assert!(lost <= bound_per_crash);
            prop_assert_eq!(rec.epoch(), epoch as u64 + 1, "epoch must count crashes");
            total_lost += lost;
            // Rebase each shard's reference on what actually survived.
            per_shard = (0..shards)
                .map(|s| rec.shard(s).with_replica(0, |r| r.history().to_vec()))
                .collect();
            store = rec;
        }
        prop_assert!(
            total_lost <= crashes as u64 * bound_per_crash,
            "lost {} over {} crashes (bound {})",
            total_lost, crashes, crashes as u64 * bound_per_crash
        );
    }
}
