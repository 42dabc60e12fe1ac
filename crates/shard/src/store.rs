//! The sharded store and its cross-shard recovery orchestrator.

use std::collections::BTreeMap;
use std::sync::Arc;

use prep_pmem::{CrashToken, PersistentDirectory, PmemRuntime, PmemStatsSnapshot};
use prep_seqds::SequentialObject;
use prep_topology::ThreadAssignment;
use prep_uc::{CrashImage, PrepConfig, PrepUc, ThreadToken};

use crate::metrics::{ShardMetrics, StoreMetrics};
use crate::router::ShardRouter;

/// Directory root naming the persisted shard count.
const ROOT_SHARDS: &str = "prep-shard/shards";
/// Directory root counting completed recoveries (crash epochs survived).
const ROOT_EPOCH: &str = "prep-shard/epoch";

/// A worker's registration across every shard: one thread token per
/// shard, so the router can dispatch any operation without registering on
/// the fly. Obtain via [`ShardedStore::register`]; tokens are per-thread
/// (flat-combining slots are thread-owned) and must not be shared.
#[derive(Debug)]
pub struct ShardToken {
    worker: usize,
    tokens: Vec<ThreadToken>,
}

impl ShardToken {
    /// The worker index this token was registered for.
    pub fn worker(&self) -> usize {
        self.worker
    }
}

/// Everything durable at the instant of a sharded power failure: one
/// consistent cut spanning the metadata directory and every shard's NVM
/// images. Produced by [`ShardedStore::simulate_crash`]; consumed by
/// [`ShardedStore::recover`].
pub struct ShardedCrashImage<T: SequentialObject> {
    /// The persisted metadata namespace (shard count, recovery epoch,
    /// per-shard roots).
    pub directory: BTreeMap<String, u64>,
    /// Per-shard crash images, indexed by shard.
    pub shards: Vec<CrashImage<T>>,
}

impl<T: SequentialObject> ShardedCrashImage<T> {
    /// The shard count recorded in the persisted directory, if present.
    pub fn persisted_shards(&self) -> Option<u64> {
        self.directory.get(ROOT_SHARDS).copied()
    }

    /// The recovery epoch recorded in the persisted directory (0 for a
    /// store that never crashed).
    pub fn epoch(&self) -> u64 {
        self.directory.get(ROOT_EPOCH).copied().unwrap_or(0)
    }
}

/// A hash-partitioned persistent store: N independent PREP-UC shards
/// behind a key router, with single-cut cross-shard crash recovery.
///
/// See the crate docs for the design; in short, each shard has its own
/// operation log, replica set, flush boundary, and persistence thread,
/// and all shards share one [`PmemRuntime`] so a crash freezes every
/// shard's NVM image in the same consistent cut.
pub struct ShardedStore<T: SequentialObject> {
    shards: Vec<PrepUc<T>>,
    router: ShardRouter<T::Op>,
    assignment: ThreadAssignment,
    directory: Arc<PersistentDirectory>,
    /// `Some` when all shards share one runtime (required for crash
    /// capture); `None` in per-shard-runtime mode (benchmarking).
    shared_runtime: Option<Arc<PmemRuntime>>,
    epoch: u64,
}

impl<T: SequentialObject> ShardedStore<T> {
    /// Builds a store of `shards` partitions, each an independent PREP-UC
    /// over a copy of `obj`, all sharing `config.runtime` (one crash
    /// image). `key_fn` extracts the routing key from an operation.
    ///
    /// # Panics
    /// Panics if `shards` is zero or `config` violates PREP-UC's parameter
    /// constraints for this `assignment`.
    pub fn new(
        obj: T,
        shards: usize,
        assignment: ThreadAssignment,
        config: PrepConfig,
        key_fn: impl Fn(&T::Op) -> u64 + Send + Sync + 'static,
    ) -> Self {
        let router = ShardRouter::new(shards, key_fn);
        let runtime = Arc::clone(&config.runtime);
        let shard_instances = (0..shards)
            .map(|_| PrepUc::new(obj.clone_object(), assignment.clone(), config.clone()))
            .collect();
        Self::assemble(shard_instances, router, assignment, runtime, 0)
    }

    /// Like [`ShardedStore::new`], but gives every shard its **own**
    /// cost-only [`PmemRuntime`] (cloned from `config.runtime`'s latency
    /// model) so persistence counters can be attributed per shard.
    ///
    /// This mode cannot capture crashes — there is no single runtime to
    /// cut — so [`ShardedStore::simulate_crash`] panics; it exists for
    /// benchmarking ([`ShardedStore::stats_per_shard`]).
    pub fn with_per_shard_runtimes(
        obj: T,
        shards: usize,
        assignment: ThreadAssignment,
        config: PrepConfig,
        key_fn: impl Fn(&T::Op) -> u64 + Send + Sync + 'static,
    ) -> Self {
        let router = ShardRouter::new(shards, key_fn);
        let latency = *config.runtime.latency();
        let shard_instances = (0..shards)
            .map(|_| {
                let cfg = config
                    .clone()
                    .with_runtime(PmemRuntime::for_benchmarks(latency));
                PrepUc::new(obj.clone_object(), assignment.clone(), cfg)
            })
            .collect();
        ShardedStore {
            shards: shard_instances,
            router,
            assignment,
            directory: Arc::new(PersistentDirectory::new()),
            shared_runtime: None,
            epoch: 0,
        }
    }

    /// Persists the layout roots and assembles the store.
    fn assemble(
        shard_instances: Vec<PrepUc<T>>,
        router: ShardRouter<T::Op>,
        assignment: ThreadAssignment,
        runtime: Arc<PmemRuntime>,
        epoch: u64,
    ) -> Self {
        let shards = shard_instances.len();
        assert!(shards > 0, "a sharded store needs at least one shard");
        // Persist the metadata roots recovery will validate. One fence
        // after the batch: the roots are written once per store lifetime.
        let directory = Arc::new(PersistentDirectory::new());
        directory.persist_clflush(&runtime, ROOT_SHARDS, shards as u64);
        directory.persist_clflush(&runtime, ROOT_EPOCH, epoch);
        for s in 0..shards {
            let ns = format!("prep-shard/shard/{s}");
            directory.persist_clflush(&runtime, &PersistentDirectory::scope(&ns, "root"), s as u64);
        }
        runtime.sfence();
        ShardedStore {
            shards: shard_instances,
            router,
            assignment,
            directory,
            shared_runtime: Some(runtime),
            epoch,
        }
    }

    /// Registers worker `worker` with every shard, returning its per-shard
    /// token bundle.
    pub fn register(&self, worker: usize) -> ShardToken {
        ShardToken {
            worker,
            tokens: self.shards.iter().map(|uc| uc.register(worker)).collect(),
        }
    }

    /// Executes `op` on the shard its routing key selects, with that
    /// shard's full PREP-UC durability guarantee.
    pub fn execute(&self, token: &ShardToken, op: T::Op) -> T::Resp {
        let s = self.router.shard_of(&op);
        self.execute_on(s, token, op)
    }

    /// Executes `op` on **every** shard (in shard order), returning each
    /// shard's response — the broadcast path for aggregate operations that
    /// have no routing key (`Len`-style). The caller folds the responses;
    /// the broadcast is not atomic across shards.
    pub fn execute_all(&self, token: &ShardToken, op: T::Op) -> Vec<T::Resp> {
        (0..self.shards.len())
            .map(|s| self.execute_on(s, token, op.clone()))
            .collect()
    }

    /// Executes `op` on a specific shard, bypassing the shard router
    /// (diagnostics, tests, and the broadcast path).
    pub fn execute_on(&self, shard: usize, token: &ShardToken, op: T::Op) -> T::Resp {
        self.shards[shard].execute(&token.tokens[shard], op)
    }

    /// The shard `op` routes to.
    pub fn shard_of(&self, op: &T::Op) -> usize {
        self.router.shard_of(op)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's PREP-UC (diagnostics and tests).
    pub fn shard(&self, shard: usize) -> &PrepUc<T> {
        &self.shards[shard]
    }

    /// The router in use.
    pub fn router(&self) -> &ShardRouter<T::Op> {
        &self.router
    }

    /// The thread assignment every shard was built with.
    pub fn assignment(&self) -> &ThreadAssignment {
        &self.assignment
    }

    /// The persisted metadata directory.
    pub fn directory(&self) -> &PersistentDirectory {
        &self.directory
    }

    /// Recovery epoch: how many crash→recover cycles produced this
    /// instance (0 for a fresh store).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Worst-case completed-update loss for a single crash across the
    /// whole store: the sum of every shard's bound — `N·(ε + β − 1)`
    /// buffered, 0 in durable mode.
    pub fn loss_bound(&self) -> u64 {
        self.shards.iter().map(PrepUc::loss_bound).sum()
    }

    /// Per-shard persistence-counter snapshots. Meaningful attribution
    /// requires [`ShardedStore::with_per_shard_runtimes`]; in shared-
    /// runtime mode every entry reads the same global counters.
    pub fn stats_per_shard(&self) -> Vec<PmemStatsSnapshot> {
        self.shards.iter().map(PrepUc::stats).collect()
    }

    /// Every shard's `completedTail`: its total completed updates.
    pub fn completed_tails(&self) -> Vec<u64> {
        self.shards.iter().map(PrepUc::completed_tail).collect()
    }

    /// Read-only operations that missed the zero-contention read fast path,
    /// summed over every shard's replicas (see [`PrepUc::read_slow_paths`]).
    pub fn read_slow_paths(&self) -> u64 {
        self.shards.iter().map(PrepUc::read_slow_paths).sum()
    }

    /// Validated optimistic (lock-free) fast-path reads, summed over every
    /// shard's replicas (see [`PrepUc::read_fast_optimistic`]).
    pub fn read_fast_optimistic(&self) -> u64 {
        self.shards.iter().map(PrepUc::read_fast_optimistic).sum()
    }

    /// Optimistic reads that failed seqlock validation, summed over every
    /// shard's replicas (see [`PrepUc::read_validation_failures`]).
    pub fn read_validation_failures(&self) -> u64 {
        self.shards
            .iter()
            .map(PrepUc::read_validation_failures)
            .sum()
    }

    /// The shared runtime, when the store was built with one.
    pub fn shared_runtime(&self) -> Option<&Arc<PmemRuntime>> {
        self.shared_runtime.as_ref()
    }

    /// Every shard's crash-survivability watermark (see
    /// [`PrepUc::durable_watermark`]).
    pub fn durable_watermarks(&self) -> Vec<u64> {
        self.shards.iter().map(PrepUc::durable_watermark).collect()
    }

    /// Asks every shard's persistence thread to checkpoint now instead of
    /// waiting out its ε window (see [`PrepUc::nudge_checkpoint`]).
    pub fn nudge_checkpoints(&self) {
        for uc in &self.shards {
            uc.nudge_checkpoint();
        }
    }

    /// Blocks until every shard's watermark covers its `completedTail`,
    /// after which a crash loses nothing that had completed before the
    /// call. Intended for drain/shutdown paths; see
    /// [`PrepUc::quiesce_persistence`] for semantics under concurrent
    /// writers.
    pub fn quiesce_persistence(&self) {
        for uc in &self.shards {
            uc.quiesce_persistence();
        }
    }

    /// One consolidated snapshot of every shard's observable state — the
    /// single source for serve's ADMIN verb and `prep-bench`'s per-shard
    /// lanes.
    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            epoch: self.epoch,
            loss_bound: self.loss_bound(),
            shared_counters: self.shared_runtime.is_some(),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, uc)| ShardMetrics {
                    shard: i,
                    completed_tail: uc.completed_tail(),
                    durable_watermark: uc.durable_watermark(),
                    read_slow_paths: uc.read_slow_paths(),
                    read_fast_optimistic: uc.read_fast_optimistic(),
                    read_validation_failures: uc.read_validation_failures(),
                    stats: uc.stats(),
                })
                .collect(),
        }
    }

    /// Simulates a full-system power failure: one consistent cut frozen
    /// across the metadata directory and **all** shards' NVM images
    /// simultaneously. No shard-by-shard skew is possible — this is the
    /// orchestrator's reason to exist.
    ///
    /// # Panics
    /// Panics in per-shard-runtime mode, or if the shared runtime was not
    /// created with crash simulation enabled.
    pub fn simulate_crash(&self) -> (CrashToken, ShardedCrashImage<T>) {
        let runtime = self
            .shared_runtime
            .as_ref()
            .expect("simulate_crash requires a shared runtime (ShardedStore::new)");
        runtime.capture_cut(|| ShardedCrashImage {
            directory: self.directory.snapshot_for_recovery(runtime),
            shards: self.shards.iter().map(PrepUc::crash_image_in_cut).collect(),
        })
    }

    /// The cross-shard recovery procedure: rebuilds every shard from one
    /// [`ShardedCrashImage`].
    ///
    /// 1. Validate the persisted layout: the directory's shard count must
    ///    exist and match the number of captured shard images (a mismatch
    ///    means the image is not a cut of one store — refusing is the
    ///    recovery-safety property).
    /// 2. Recover each shard independently via [`PrepUc::recover`] (§5.1 /
    ///    §5.2 per shard), all sharing `config.runtime` again — in
    ///    parallel, one thread per shard.
    /// 3. Re-persist the metadata roots with the recovery epoch advanced.
    ///
    /// The recovered store routes with `key_fn` over the **persisted**
    /// shard count, so keys keep mapping to the shards that own their
    /// history.
    ///
    /// # Panics
    /// Panics if the image's persisted layout is missing or inconsistent,
    /// or — with [`PrepUc::recover`]'s own message — if a shard's image is
    /// unrecoverable.
    pub fn recover(
        token: CrashToken,
        image: ShardedCrashImage<T>,
        assignment: ThreadAssignment,
        config: PrepConfig,
        key_fn: impl Fn(&T::Op) -> u64 + Send + Sync + 'static,
    ) -> Self {
        let persisted = image
            .persisted_shards()
            .expect("crash image has no persisted shard count: not a prep-shard pool");
        assert_eq!(
            persisted as usize,
            image.shards.len(),
            "persisted shard count {} disagrees with {} captured shard images: \
             refusing to recover an inconsistent layout",
            persisted,
            image.shards.len()
        );
        let epoch = image.epoch() + 1;
        let router = ShardRouter::new(persisted as usize, key_fn);
        // Shards share nothing but the runtime (own image, log, replicas and
        // persistence thread), so they are rebuilt side by side: shard 0 on
        // this thread, the rest on scoped threads. A shard that refuses its
        // image panics with its own message, re-raised here once every
        // other shard has finished.
        let recover_shard =
            &|img: CrashImage<T>| PrepUc::recover(token, img, assignment.clone(), config.clone());
        let recovered = std::thread::scope(|scope| {
            let mut images = image.shards.into_iter();
            let first = images.next();
            let rest: Vec<_> = images
                .enumerate()
                .map(|(i, img)| {
                    std::thread::Builder::new()
                        .name(format!("prep-recover-{}", i + 1))
                        .spawn_scoped(scope, move || recover_shard(img))
                        .expect("failed to spawn a shard recovery thread")
                })
                .collect();
            first
                .map(recover_shard)
                .into_iter()
                .chain(rest.into_iter().map(|shard| {
                    shard
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }))
                .collect()
        });
        let runtime = Arc::clone(&config.runtime);
        Self::assemble(recovered, router, assignment, runtime, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
    use prep_seqds::recorder::{assert_prefix, Recorder, RecorderOp};
    use prep_topology::Topology;
    use prep_uc::DurabilityLevel;

    fn cfg(level: DurabilityLevel) -> PrepConfig {
        PrepConfig::new(level)
            .with_log_size(256)
            .with_epsilon(32)
            .with_runtime(PmemRuntime::for_crash_tests())
    }

    fn map_key(op: &MapOp) -> u64 {
        op.key().unwrap_or(0)
    }

    fn record_key(op: &RecorderOp) -> u64 {
        match *op {
            RecorderOp::Record(id) => id,
            RecorderOp::Count | RecorderOp::Last => 0,
        }
    }

    #[test]
    fn roundtrip_across_shards_and_aggregate_len() {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::new(
            HashMap::new(),
            4,
            asg,
            cfg(DurabilityLevel::Buffered),
            map_key,
        );
        let t = store.register(0);
        for k in 0..100u64 {
            store.execute(
                &t,
                MapOp::Insert {
                    key: k,
                    value: k * 3,
                },
            );
        }
        for k in 0..100u64 {
            assert_eq!(
                store.execute(&t, MapOp::Get { key: k }),
                MapResp::Value(Some(k * 3))
            );
        }
        // Keys actually spread across all four logs. Gets are read-only
        // and bypass the log, so only the 100 inserts appear in the tails.
        let tails = store.completed_tails();
        assert_eq!(tails.iter().sum::<u64>(), 100);
        // The broadcast aggregate sums per-shard lengths.
        let total: usize = store
            .execute_all(&t, MapOp::Len)
            .into_iter()
            .map(|r| match r {
                MapResp::Len(n) => n,
                other => panic!("unexpected {other:?}"),
            })
            .sum();
        assert_eq!(total, 100);
        assert!(
            tails.iter().all(|&t| t > 0),
            "a shard got no traffic: {tails:?}"
        );
    }

    #[test]
    fn concurrent_workers_complete_everything() {
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 200;
        let asg = Topology::small().assign_workers(THREADS);
        let store = Arc::new(ShardedStore::new(
            Recorder::new(),
            2,
            asg,
            cfg(DurabilityLevel::Durable),
            record_key,
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let t = store.register(w);
                    for i in 0..PER_THREAD {
                        store.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            store.completed_tails().iter().sum::<u64>(),
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn combined_loss_bound_is_n_times_per_shard() {
        let asg = Topology::small().assign_workers(3); // β = 2
        let store = ShardedStore::new(
            Recorder::new(),
            4,
            asg,
            cfg(DurabilityLevel::Buffered).with_epsilon(10),
            record_key,
        );
        assert_eq!(store.loss_bound(), 4 * 11); // N·(ε + β − 1)
        let durable = ShardedStore::new(
            Recorder::new(),
            4,
            Topology::small().assign_workers(3),
            cfg(DurabilityLevel::Durable),
            record_key,
        );
        assert_eq!(durable.loss_bound(), 0);
    }

    #[test]
    fn sharded_crash_recovers_per_shard_prefixes_durable_exact() {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::new(
            Recorder::new(),
            3,
            asg.clone(),
            cfg(DurabilityLevel::Durable),
            record_key,
        );
        let t = store.register(0);
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for i in 0..200u64 {
            let s = store.shard_of(&RecorderOp::Record(i));
            store.execute(&t, RecorderOp::Record(i));
            per_shard[s].push(i);
        }
        let (token, image) = store.simulate_crash();
        drop(store);
        let rec =
            ShardedStore::recover(token, image, asg, cfg(DurabilityLevel::Durable), record_key);
        assert_eq!(rec.epoch(), 1);
        assert_eq!(rec.shards(), 3);
        for (s, issued) in per_shard.iter().enumerate() {
            let hist = rec.shard(s).with_replica(0, |r| r.history().to_vec());
            assert_eq!(&hist, issued, "durable shard {s} must lose nothing");
        }
    }

    #[test]
    fn sharded_crash_buffered_loses_within_combined_bound() {
        let eps = 8u64;
        let asg = Topology::small().assign_workers(1);
        let config = cfg(DurabilityLevel::Buffered).with_epsilon(eps);
        let store = ShardedStore::new(Recorder::new(), 4, asg.clone(), config.clone(), record_key);
        let t = store.register(0);
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for i in 0..300u64 {
            let s = store.shard_of(&RecorderOp::Record(i));
            store.execute(&t, RecorderOp::Record(i));
            per_shard[s].push(i);
        }
        let bound = store.loss_bound();
        assert_eq!(bound, 4 * eps); // β = 1 ⇒ per-shard ε + β − 1 = ε
        let (token, image) = store.simulate_crash();
        drop(store);
        let rec = ShardedStore::recover(token, image, asg, config, record_key);
        let mut total_lost = 0u64;
        for (s, issued) in per_shard.iter().enumerate() {
            let hist = rec.shard(s).with_replica(0, |r| r.history().to_vec());
            let kept = assert_prefix(&hist, issued);
            total_lost += (issued.len() - kept) as u64;
        }
        assert!(
            total_lost <= bound,
            "lost {total_lost} > combined bound {bound}"
        );
    }

    #[test]
    fn recovered_store_keeps_serving_with_same_routing() {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::new(
            HashMap::new(),
            2,
            asg.clone(),
            cfg(DurabilityLevel::Durable),
            map_key,
        );
        let t = store.register(0);
        for k in 0..50u64 {
            store.execute(
                &t,
                MapOp::Insert {
                    key: k,
                    value: k + 1,
                },
            );
        }
        let (token, image) = store.simulate_crash();
        drop(store);
        let rec = ShardedStore::recover(token, image, asg, cfg(DurabilityLevel::Durable), map_key);
        let t = rec.register(0);
        for k in 0..50u64 {
            assert_eq!(
                rec.execute(&t, MapOp::Get { key: k }),
                MapResp::Value(Some(k + 1)),
                "key {k} must be found on its original shard after recovery"
            );
        }
        // And the store accepts new writes post-recovery.
        rec.execute(&t, MapOp::Insert { key: 999, value: 1 });
        assert_eq!(
            rec.execute(&t, MapOp::Get { key: 999 }),
            MapResp::Value(Some(1))
        );
    }

    #[test]
    fn directory_roots_are_persisted_and_epoch_advances() {
        let asg = Topology::small().assign_workers(1);
        let config = cfg(DurabilityLevel::Buffered);
        let store = ShardedStore::new(Recorder::new(), 2, asg.clone(), config.clone(), record_key);
        assert_eq!(store.directory().read(ROOT_SHARDS), Some(2));
        assert_eq!(store.directory().read(ROOT_EPOCH), Some(0));
        assert_eq!(store.directory().read("prep-shard/shard/1/root"), Some(1));
        let (token, image) = store.simulate_crash();
        assert_eq!(image.persisted_shards(), Some(2));
        assert_eq!(image.epoch(), 0);
        drop(store);
        let rec = ShardedStore::recover(token, image, asg.clone(), config.clone(), record_key);
        assert_eq!(rec.epoch(), 1);
        assert_eq!(rec.directory().read(ROOT_EPOCH), Some(1));
        // A second crash epoch keeps counting.
        let (token, image) = rec.simulate_crash();
        drop(rec);
        let rec2 = ShardedStore::recover(token, image, asg, config, record_key);
        assert_eq!(rec2.epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "refusing to recover")]
    fn recovery_rejects_inconsistent_shard_layout() {
        let asg = Topology::small().assign_workers(1);
        let config = cfg(DurabilityLevel::Buffered);
        let store = ShardedStore::new(Recorder::new(), 2, asg.clone(), config.clone(), record_key);
        let (token, mut image) = store.simulate_crash();
        drop(store);
        image.shards.pop(); // lose a shard's image
        let _ = ShardedStore::recover(token, image, asg, config, record_key);
    }

    #[test]
    fn parallel_recovery_equals_recovering_each_shard_in_order() {
        for level in [DurabilityLevel::Buffered, DurabilityLevel::Durable] {
            for n in [1usize, 2, 4, 8] {
                let asg = Topology::small().assign_workers(1);
                let config = cfg(level).with_epsilon(8);
                let store =
                    ShardedStore::new(HashMap::new(), n, asg.clone(), config.clone(), map_key);
                let t = store.register(0);
                for k in 0..400u64 {
                    store.execute(
                        &t,
                        MapOp::Insert {
                            key: k,
                            value: k * 7 + n as u64,
                        },
                    );
                    if k % 5 == 4 {
                        store.execute(&t, MapOp::Remove { key: k - 2 });
                    }
                }
                // Both copies of every shard's image come from one cut, so
                // the two recoveries start from identical NVM contents.
                let runtime = store.shared_runtime().expect("shared runtime");
                let (token, (image, in_order)) = runtime.capture_cut(|| {
                    let images = || -> Vec<_> {
                        store
                            .shards
                            .iter()
                            .map(PrepUc::crash_image_in_cut)
                            .collect()
                    };
                    let image = ShardedCrashImage {
                        directory: store.directory.snapshot_for_recovery(runtime),
                        shards: images(),
                    };
                    (image, images())
                });
                drop(store);
                let rec = ShardedStore::recover(token, image, asg.clone(), config.clone(), map_key);
                assert_eq!(rec.shards(), n);
                let contents = |uc: &PrepUc<HashMap>| {
                    uc.with_replica(0, |m| (0..400u64).map(|k| m.get(k)).collect::<Vec<_>>())
                };
                for (s, img) in in_order.into_iter().enumerate() {
                    let alone = PrepUc::recover(token, img, asg.clone(), config.clone());
                    assert_eq!(
                        contents(rec.shard(s)),
                        contents(&alone),
                        "{level:?}, {n} shards: shard {s} differs from its serial recovery"
                    );
                    assert_eq!(rec.shard(s).completed_tail(), alone.completed_tail());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "two-replica invariant violated")]
    fn a_torn_stable_image_on_a_spawned_shard_panics_with_its_own_message() {
        let asg = Topology::small().assign_workers(1);
        let config = cfg(DurabilityLevel::Buffered);
        let store = ShardedStore::new(Recorder::new(), 4, asg.clone(), config.clone(), record_key);
        let (token, mut image) = store.simulate_crash();
        drop(store);
        // Shard 3 recovers on a scoped thread, not on the caller.
        let stable = image.shards[3].stable_index();
        image.shards[3].replicas[stable] = Err(prep_pmem::TornImage);
        let _ = ShardedStore::recover(token, image, asg, config, record_key);
    }

    #[test]
    #[should_panic(expected = "requires a shared runtime")]
    fn per_shard_runtime_mode_cannot_capture_crashes() {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::with_per_shard_runtimes(
            Recorder::new(),
            2,
            asg,
            cfg(DurabilityLevel::Buffered),
            record_key,
        );
        let _ = store.simulate_crash();
    }

    #[test]
    fn metrics_snapshot_and_quiesce_cover_all_shards() {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::new(
            HashMap::new(),
            3,
            asg.clone(),
            cfg(DurabilityLevel::Buffered).with_epsilon(64),
            map_key,
        );
        let before = store.metrics();
        assert_eq!(before.shards.len(), 3);
        assert!(before.shared_counters);
        assert_eq!(before.total_completed(), 0);
        let t = store.register(0);
        for k in 0..60u64 {
            store.execute(&t, MapOp::Insert { key: k, value: k });
        }
        // ε = 64 > per-shard op counts: only a quiesce forces the
        // checkpoints that raise the watermarks to the tails.
        store.quiesce_persistence();
        let m = store.metrics().delta(&before);
        assert_eq!(m.total_completed(), 60);
        for s in &m.shards {
            assert!(s.completed_tail > 0, "shard {} got no traffic", s.shard);
        }
        let now = store.metrics();
        for s in &now.shards {
            assert_eq!(
                s.durable_watermark, s.completed_tail,
                "quiesce left shard {} short",
                s.shard
            );
        }
        // Zero buffered loss after quiesce: the recovered store holds every
        // completed op even though the store ran in buffered mode.
        let (token, image) = store.simulate_crash();
        drop(store);
        let rec = ShardedStore::recover(
            token,
            image,
            asg,
            cfg(DurabilityLevel::Buffered).with_epsilon(64),
            map_key,
        );
        let t = rec.register(0);
        for k in 0..60u64 {
            assert_eq!(
                rec.execute(&t, MapOp::Get { key: k }),
                MapResp::Value(Some(k)),
                "key {k} lost despite a quiesced (clean) shutdown"
            );
        }
    }

    #[test]
    fn per_shard_runtimes_attribute_stats_to_the_loaded_shard() {
        let asg = Topology::small().assign_workers(1);
        let store = ShardedStore::with_per_shard_runtimes(
            Recorder::new(),
            2,
            asg,
            cfg(DurabilityLevel::Durable),
            record_key,
        );
        let t = store.register(0);
        // Drive updates onto exactly one shard via execute_on.
        for i in 0..100u64 {
            store.execute_on(1, &t, RecorderOp::Record(i));
        }
        prep_sync::spin_until(|| store.shard(1).completed_tail() >= 100);
        let stats = store.stats_per_shard();
        assert!(
            stats[1].total_flushes() > 0,
            "loaded shard must show flush traffic: {stats:?}"
        );
        assert!(
            stats[1].total_flushes() > stats[0].total_flushes(),
            "idle shard 0 must not absorb shard 1's counters: {stats:?}"
        );
    }
}
