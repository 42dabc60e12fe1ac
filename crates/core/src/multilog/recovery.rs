//! Crash simulation and recovery for the multi-log construction.
//!
//! The crash image is a **cut vector**: one selector names one
//! [`MlCheckpoint`] holding every lane's state at a tail vector taken at
//! the persistence thread's joint frontier — so the checkpoint includes a
//! cross-log operation in all lanes or in none. Buffered recovery is
//! therefore just "clone the stable checkpoint's lanes".
//!
//! Durable recovery replays each log's persisted entries
//! `[tails[l], completedTails[l])` onto its lane, then runs a
//! **completion pass** for cross-log operations: a multi durable in one
//! log was persisted in *every* log before it was published in any
//! (`MlHookState::persist_batch_published`), so a lane whose
//! `completedTail` stopped short of the multi can still fetch the payload
//! from the image and apply it. Because the gate gives multis the same
//! (ascending id) order in every log, the missing multis are always a
//! suffix of the lane's multi sequence — appending them in id order after
//! the lane's surviving prefix is exactly log order, and the result is
//! all-or-nothing across lanes.

use std::collections::{BTreeMap, BTreeSet};

use prep_nr::MlOp;
use prep_pmem::{CrashToken, ReplicaSnapshot, TornImage};
use prep_seqds::SequentialObject;

use crate::config::{DurabilityLevel, PrepConfig};
use crate::multilog::hooks::MlHookState;
use crate::multilog::{LaneRouter, MlCheckpoint, MultiLogUc};

/// Everything that was durable at the instant of a (simulated) power
/// failure — a consistent cut of the multi-log NVM image.
pub struct MlCrashImage<T: SequentialObject> {
    /// The persisted joint `p_activePReplica` selector.
    pub active: u64,
    /// The two persistent replica *sets*' NVM images (each a full
    /// [`MlCheckpoint`]: every lane + the tail vector). The stable one is
    /// always consistent; the active one may be torn.
    pub replicas: [Result<ReplicaSnapshot<MlCheckpoint<T>>, TornImage>; 2],
    /// Each log's persisted `completedTail` (durable mode; zeros
    /// otherwise).
    pub completed_tails: Vec<u64>,
    /// Each log's persisted entries, `(monotonic index, entry)`, ascending
    /// (durable mode; empty otherwise).
    pub log_entries: Vec<Vec<(u64, MlOp<T::Op>)>>,
}

impl<T: SequentialObject> MlCrashImage<T> {
    /// Index of the stable persistent replica set (the one recovery reads).
    pub fn stable_index(&self) -> usize {
        (1 - self.active) as usize
    }

    /// The stable replica set's snapshot.
    ///
    /// # Panics
    /// Panics if the stable image is torn, which the two-replica protocol
    /// makes impossible (only the active set is ever mutated).
    pub fn stable_snapshot(&self) -> &ReplicaSnapshot<MlCheckpoint<T>> {
        self.replicas[self.stable_index()]
            .as_ref()
            .expect("stable persistent replica set is torn: two-replica invariant violated")
    }
}

impl<T: SequentialObject> MultiLogUc<T> {
    /// Simulates a full-system power failure: captures a consistent cut of
    /// everything persisted — across **all** logs at once — without
    /// disturbing the running instance.
    ///
    /// # Panics
    /// Panics unless the runtime was created with crash simulation enabled.
    pub fn simulate_crash(&self) -> (CrashToken, MlCrashImage<T>) {
        let (token, image) = self.runtime().capture_cut(|| self.crash_image_in_cut());
        (token, image)
    }

    /// Reads this instance's crash image **inside an already-frozen
    /// consistent cut** (cf. `PrepUc::crash_image_in_cut`; the multi-log
    /// cut is a vector, captured whole under one freeze).
    pub fn crash_image_in_cut(&self) -> MlCrashImage<T> {
        let state = self.hook_state();
        let lanes = self.lanes();
        let image = MlCrashImage {
            active: state.p_active_cell.read_image(),
            replicas: [
                self.replica_image(0).read_image(),
                self.replica_image(1).read_image(),
            ],
            completed_tails: (0..lanes)
                .map(|l| state.logs[l].ct_cell.read_image())
                .collect(),
            log_entries: (0..lanes)
                .map(|l| state.logs[l].log_image.persisted_range(0, u64::MAX))
                .collect(),
        };
        // Tell the sanitizer what recovery relies on from this cut: the
        // joint selector, the whole stable set it names, and (durable
        // mode) each log's completedTail cell plus the log bytes recovery
        // replays — per log, bounded by that log's cut tails. Rule 3 then
        // verifies every byte was durable at the cut, per log and at the
        // vector.
        let rt = self.runtime();
        if rt.psan_enabled() {
            const SITE: &str = "MultiLogUc::crash_image_in_cut";
            let cell = std::mem::size_of::<u64>() as u64;
            rt.trace_recovery_read(state.psan.p_active_addr, cell, SITE);
            let stable = image.stable_index();
            if let Ok(snap) = &image.replicas[stable] {
                let region = state.psan.replicas[stable];
                rt.trace_recovery_read(region.base, region.len, SITE);
                if self.config().durability == DurabilityLevel::Durable {
                    let eb = MlHookState::<T::Op>::entry_bytes();
                    for l in 0..lanes {
                        rt.trace_recovery_read(state.psan.ct_addrs[l], cell, SITE);
                        let from = snap.state.tails[l] * eb;
                        let to = image.completed_tails[l] * eb;
                        if to > from {
                            rt.trace_recovery_read(state.psan.log_bases[l] + from, to - from, SITE);
                        }
                    }
                }
            }
        }
        image
    }

    /// The multi-log recovery procedure (module docs): stable cut vector,
    /// then per-log replay of whatever the image persisted plus the
    /// cross-log completion pass, then a fresh construction from the
    /// recovered lane states.
    pub fn recover(
        _crash: CrashToken,
        image: MlCrashImage<T>,
        router: LaneRouter<T>,
        max_workers: usize,
        config: PrepConfig,
    ) -> Self {
        let snap = image.stable_snapshot();
        let logs = snap.state.lanes.len();
        let mut lanes: Vec<T> = snap.state.lanes.iter().map(|s| s.clone_object()).collect();
        // What to replay is a property of the image, not of `config`: a
        // buffered instance persists no tails and no entries, so for its
        // images everything below is a no-op (cf. `PrepUc::recover`).
        // Every persisted multi payload, by gate id — any lane's image
        // can complete any other lane's missing suffix (module docs).
        let mut all_multis: BTreeMap<u64, T::Op> = BTreeMap::new();
        for lane_entries in &image.log_entries {
            for (_, entry) in lane_entries {
                if let MlOp::Multi { id, op } = entry {
                    all_multis.insert(*id, op.clone());
                }
            }
        }
        // Per-log replay of the durable suffix, in log order.
        let mut replayed_ids: BTreeSet<u64> = BTreeSet::new();
        let mut seen: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); logs];
        for l in 0..logs {
            let from = snap.state.tails[l];
            let to = image.completed_tails[l];
            for (idx, entry) in &image.log_entries[l] {
                if *idx < from || *idx >= to {
                    continue;
                }
                match entry {
                    MlOp::Single { op, .. } => {
                        lanes[l].apply(op);
                    }
                    MlOp::Multi { id, op } => {
                        lanes[l].apply(op);
                        seen[l].insert(*id);
                        replayed_ids.insert(*id);
                    }
                }
            }
        }
        // Completion pass: a multi that took effect in any lane takes
        // effect in every lane. Ascending id = log order (module docs).
        for l in 0..logs {
            for (id, op) in &all_multis {
                if replayed_ids.contains(id) && !seen[l].contains(id) {
                    lanes[l].apply(op);
                }
            }
        }
        MultiLogUc::from_lane_states(lanes, router, max_workers, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityLevel;
    use crate::multilog::tests::map_router;
    use prep_pmem::PmemRuntime;
    use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
    use prep_seqds::SequentialObject;

    const LOGS: usize = 3;

    fn cfg(level: DurabilityLevel, eps: u64) -> PrepConfig {
        PrepConfig::new(level)
            .with_log_size(256)
            .with_epsilon(eps)
            .with_runtime(PmemRuntime::for_crash_tests())
    }

    fn lane_histogram(uc: &MultiLogUc<HashMap>, upto: u64) -> Vec<Option<u64>> {
        (0..upto)
            .map(|k| {
                uc.with_lane(
                    map_router().lane_of(&MapOp::Get { key: k }, LOGS).unwrap(),
                    |m| match m.apply_readonly(&MapOp::Get { key: k }) {
                        MapResp::Value(v) => v,
                        other => panic!("unexpected {other:?}"),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn durable_recovers_every_completed_op_in_every_log() {
        let uc = MultiLogUc::new(
            HashMap::new(),
            map_router(),
            LOGS,
            1,
            cfg(DurabilityLevel::Durable, 16),
        );
        let t = uc.register(0);
        for k in 0..80u64 {
            uc.execute(
                &t,
                MapOp::Insert {
                    key: k,
                    value: k * 7,
                },
            );
        }
        let (token, image) = uc.simulate_crash();
        drop(uc);
        let rec = MultiLogUc::recover(
            token,
            image,
            map_router(),
            1,
            cfg(DurabilityLevel::Durable, 16),
        );
        let vals = lane_histogram(&rec, 80);
        for (k, v) in vals.iter().enumerate() {
            assert_eq!(*v, Some(k as u64 * 7), "key {k} lost in durable mode");
        }
    }

    #[test]
    fn buffered_recovers_a_per_log_prefix() {
        let uc = MultiLogUc::new(
            HashMap::new(),
            map_router(),
            LOGS,
            1,
            cfg(DurabilityLevel::Buffered, 8),
        );
        let t = uc.register(0);
        for k in 0..120u64 {
            uc.execute(&t, MapOp::Insert { key: k, value: 1 });
        }
        let (token, image) = uc.simulate_crash();
        drop(uc);
        let rec = MultiLogUc::recover(
            token,
            image,
            map_router(),
            1,
            cfg(DurabilityLevel::Buffered, 8),
        );
        // Each lane survives as a prefix of its own log; combined loss is
        // bounded by L·(ε + β − 1).
        let vals = lane_histogram(&rec, 120);
        let survived = vals.iter().filter(|v| v.is_some()).count();
        let lost = 120 - survived;
        let bound = (LOGS as u64 * (8 + 1 - 1)) as usize;
        assert!(lost <= bound, "lost {lost} > L·(ε+β−1) = {bound}");
    }

    #[test]
    fn cross_log_op_is_atomic_across_the_cut() {
        // A durable-mode Len (cross-log) either folded over every lane or
        // none: recovery's completion pass must never leave a multi applied
        // in a strict subset of lanes. Detect via a Recorder-like trick:
        // apply Len through the engine, then crash at arbitrary points and
        // recover; the recovered per-lane maps must agree with a per-lane
        // prefix + all-or-nothing multis. With HashMap, Len doesn't mutate,
        // so instead use Insert broadcast through the multi path via a
        // router that declares one sentinel key cross-log.
        // Sentinel key u64::MAX is declared cross-log: inserting it
        // broadcasts through the ordered multi path into every lane.
        let mk_router = || {
            LaneRouter::<HashMap>::new(
                |op, lanes| match op.key() {
                    Some(u64::MAX) => None,
                    Some(k) => Some((crate::multilog::mix64(k) % lanes as u64) as usize),
                    None => None,
                },
                |_, mut resps| resps.pop().expect("at least one lane"),
            )
        };
        for n in [1u64, 7, 23, 61] {
            let uc = MultiLogUc::new(
                HashMap::new(),
                mk_router(),
                LOGS,
                1,
                cfg(DurabilityLevel::Durable, 16),
            );
            let t = uc.register(0);
            for i in 0..n {
                uc.execute(&t, MapOp::Insert { key: i, value: i });
                if i % 5 == 4 {
                    // Broadcast write: lands in every lane's map.
                    uc.execute(
                        &t,
                        MapOp::Insert {
                            key: u64::MAX,
                            value: i,
                        },
                    );
                }
            }
            let (token, image) = uc.simulate_crash();
            drop(uc);
            let rec = MultiLogUc::recover(
                token,
                image,
                mk_router(),
                1,
                cfg(DurabilityLevel::Durable, 16),
            );
            // All-or-nothing: every lane agrees on the sentinel's value.
            let sentinel: Vec<Option<u64>> = (0..LOGS)
                .map(|l| {
                    rec.with_lane(l, |m| {
                        match m.apply_readonly(&MapOp::Get { key: u64::MAX }) {
                            MapResp::Value(v) => v,
                            other => panic!("unexpected {other:?}"),
                        }
                    })
                })
                .collect();
            assert!(
                sentinel.windows(2).all(|w| w[0] == w[1]),
                "cross-log op torn across lanes: {sentinel:?} (n = {n})"
            );
        }
    }

    #[test]
    fn repeated_crashes_keep_the_composed_loss_bound() {
        let eps = 8u64;
        let mut uc = MultiLogUc::new(
            HashMap::new(),
            map_router(),
            LOGS,
            1,
            cfg(DurabilityLevel::Buffered, eps),
        );
        let mut next = 0u64;
        const CRASHES: u64 = 4;
        for _ in 0..CRASHES {
            let t = uc.register(0);
            for _ in 0..40 {
                uc.execute(
                    &t,
                    MapOp::Insert {
                        key: next,
                        value: 1,
                    },
                );
                next += 1;
            }
            let (token, image) = uc.simulate_crash();
            drop(uc);
            uc = MultiLogUc::recover(
                token,
                image,
                map_router(),
                1,
                cfg(DurabilityLevel::Buffered, eps),
            );
            let survived = lane_histogram(&uc, next)
                .iter()
                .filter(|v| v.is_some())
                .count() as u64;
            let lost = next - survived;
            assert!(
                lost <= CRASHES * LOGS as u64 * eps,
                "total loss {lost} exceeds c·L·(ε+β−1)"
            );
        }
    }

    #[test]
    fn stable_set_is_never_torn() {
        for n in [1u64, 9, 33, 90] {
            let uc = MultiLogUc::new(
                HashMap::new(),
                map_router(),
                LOGS,
                1,
                cfg(DurabilityLevel::Buffered, 8),
            );
            let t = uc.register(0);
            for k in 0..n {
                uc.execute(&t, MapOp::Insert { key: k, value: k });
            }
            let (_tok, image) = uc.simulate_crash();
            let snap = image.stable_snapshot();
            assert_eq!(snap.state.lanes.len(), LOGS);
            assert_eq!(snap.state.tails.len(), LOGS);
            let applied: u64 = snap.state.tails.iter().sum();
            assert!(applied <= n + 1);
        }
    }
}
