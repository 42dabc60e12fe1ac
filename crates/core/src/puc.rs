//! The user-facing PREP-UC object.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use prep_nr::{NodeReplicated, ThreadToken};
use prep_pmem::{PmemRuntime, PmemStatsSnapshot, ReplicaImage};
use prep_seqds::SequentialObject;
use prep_topology::ThreadAssignment;

use crate::config::PrepConfig;
use crate::hooks::{HookState, PrepHooks};
use crate::persistence::{spawn_persistence_thread, PReplica, PersistenceTask};

/// The volatile variant used as a baseline in Figure 1: PREP with all
/// persistence removed is exactly NR-UC.
pub type PrepVolatile<T> = NodeReplicated<T>;

/// The inner node-replicated construction with PREP's hooks installed.
pub(crate) type NrInner<T> = NodeReplicated<T, PrepHooks<<T as SequentialObject>::Op>>;

/// A replicated persistent universal construction (PREP-Buffered or
/// PREP-Durable, per [`PrepConfig::durability`]).
///
/// Construction spawns the persistence thread; dropping the `PrepUc` stops
/// and joins it. Worker threads interact through
/// [`PrepUc::register`]/[`PrepUc::execute`] — the paper's
/// `ExecuteConcurrent` interface, identical to NR-UC's (§4.1 "PREP-UC
/// Interface").
pub struct PrepUc<T: SequentialObject> {
    nr: Arc<NrInner<T>>,
    state: Arc<HookState<T::Op>>,
    images: Arc<[ReplicaImage<T>; 2]>,
    config: PrepConfig,
    beta: u64,
    persistence: Option<std::thread::JoinHandle<()>>,
}

impl<T: SequentialObject> PrepUc<T> {
    /// Builds a PREP-UC over `obj`.
    ///
    /// `obj` becomes the initial state of every replica: the N volatile
    /// replicas and both persistence-only replicas (whose NVM images start
    /// consistent at localTail 0, like a freshly initialized persistent
    /// memory file).
    ///
    /// # Panics
    /// Panics if the configuration violates `ε ≤ LOG_SIZE − β − 1` (§5.1)
    /// or the log is too small for the assignment.
    pub fn new(obj: T, assignment: ThreadAssignment, config: PrepConfig) -> Self {
        let beta = assignment.beta() as u64;
        config.validate(beta);

        let state = HookState::new(
            Arc::clone(&config.runtime),
            config.durability,
            config.epsilon,
            config.fence_per_entry,
            config.psan_fault,
        );
        let hooks = PrepHooks {
            state: Arc::clone(&state),
        };
        let nr = Arc::new(NodeReplicated::with_hooks_and_fairness(
            obj.clone_object(),
            assignment,
            config.log_size,
            hooks,
            config.fairness,
        ));
        let images = Arc::new([
            ReplicaImage::new(obj.clone_object()),
            ReplicaImage::new(obj.clone_object()),
        ]);
        let p_replicas = [
            PReplica {
                ds: obj.clone_object(),
                local_tail: 0,
                pending: Vec::new(),
            },
            PReplica {
                ds: obj,
                local_tail: 0,
                pending: Vec::new(),
            },
        ];
        let persistence = spawn_persistence_thread(PersistenceTask {
            nr: Arc::clone(&nr),
            state: Arc::clone(&state),
            images: Arc::clone(&images),
            replicas: p_replicas,
            epsilon: config.epsilon,
            allocator_swap: config.allocator_swap,
            flush_strategy: config.flush_strategy,
        });
        PrepUc {
            nr,
            state,
            images,
            config,
            beta,
            persistence: Some(persistence),
        }
    }

    /// Registers worker `worker`; see [`NodeReplicated::register`].
    pub fn register(&self, worker: usize) -> ThreadToken {
        self.nr.register(worker)
    }

    /// The paper's `ExecuteConcurrent`: runs `op` with (buffered) durable
    /// linearizable semantics and returns its response.
    pub fn execute(&self, token: &ThreadToken, op: T::Op) -> T::Resp {
        self.nr.execute(token, op)
    }

    /// Observes a volatile replica's state, up to date with every completed
    /// update (test/diagnostic API).
    pub fn with_replica<R>(&self, node: usize, f: impl FnOnce(&T) -> R) -> R {
        self.nr.with_replica(node, f)
    }

    /// Current `completedTail`.
    pub fn completed_tail(&self) -> u64 {
        self.nr.completed_tail()
    }

    /// Read-only operations that missed the zero-contention read fast path
    /// (their replica was behind `completedTail` at invocation), summed over
    /// replicas.
    pub fn read_slow_paths(&self) -> u64 {
        self.nr.read_slow_paths()
    }

    /// Validated optimistic (lock-free) fast-path reads — zero atomic RMWs,
    /// zero shared-cacheline stores each — summed over replicas. Nonzero
    /// only under [`prep_nr::FairnessMode::Throughput`].
    pub fn read_fast_optimistic(&self) -> u64 {
        self.nr.read_fast_optimistic()
    }

    /// Optimistic reads that failed seqlock validation (a combiner
    /// overlapped the lock-free read) and fell back toward the slot path,
    /// summed over replicas.
    pub fn read_validation_failures(&self) -> u64 {
        self.nr.read_validation_failures()
    }

    /// The construction's configuration.
    pub fn config(&self) -> &PrepConfig {
        &self.config
    }

    /// β for this instance (threads on the most-loaded node).
    pub fn beta(&self) -> u64 {
        self.beta
    }

    /// Worst-case completed-update loss per crash: `ε + β − 1` buffered,
    /// 0 durable (§5.1 "Worst Case Execution").
    pub fn loss_bound(&self) -> u64 {
        self.config.loss_bound(self.beta)
    }

    /// The persistence runtime (stats, crash capture).
    pub fn runtime(&self) -> &Arc<PmemRuntime> {
        &self.config.runtime
    }

    /// Snapshot of the persistence-operation counters.
    pub fn stats(&self) -> PmemStatsSnapshot {
        self.config.runtime.stats().snapshot()
    }

    /// The underlying node-replicated construction (advanced/diagnostic).
    pub fn inner(&self) -> &Arc<NrInner<T>> {
        &self.nr
    }

    pub(crate) fn hook_state(&self) -> &Arc<HookState<T::Op>> {
        &self.state
    }

    pub(crate) fn replica_image(&self, idx: usize) -> &ReplicaImage<T> {
        &self.images[idx]
    }

    /// Which persistent replica is currently active (0 or 1), volatile view.
    pub fn active_persistent_replica(&self) -> u64 {
        // ord: Acquire pairs with the persistence thread's swap Release —
        // the named checkpoint is durable by the time callers see its id.
        self.state.p_active.load(Ordering::Acquire)
    }

    /// Current flush boundary (diagnostic).
    pub fn flush_boundary(&self) -> u64 {
        // ord: Acquire pairs with the boundary's Release stores; diagnostic
        // readers see a boundary consistent with the checkpoint behind it.
        self.state.flush_boundary.load(Ordering::Acquire)
    }

    /// Largest log index `w` such that every completed operation at index
    /// `< w` survives a crash taken *now*.
    ///
    /// In buffered mode this is the latest *published* checkpoint's tail
    /// (the stable replica at the moment its selector was persisted) —
    /// deliberately not `p_tails`, which track applied-but-unflushed state
    /// on the active replica. In durable mode the persisted `completedTail`
    /// also covers the log suffix, so the watermark is the max of the two.
    /// Service layers release durable acks once this passes an operation's
    /// covering `completedTail` (§2.2 buffered durable linearizability:
    /// this is the construction's sync point).
    pub fn durable_watermark(&self) -> u64 {
        // ord: SeqCst — pairs with the persistence thread's SeqCst fetch_max
        // after the selector persist (watermark w implies the checkpoint
        // covering [0, w) is durable), and is the load a parked watermark
        // waiter re-checks with (`watermark_slot`).
        let ckpt = self.state.durable_tail.load(Ordering::SeqCst);
        match self.config.durability {
            crate::config::DurabilityLevel::Durable => {
                // ord: Acquire pairs with ensure_completed_tail_durable's
                // AcqRel fetch_max — ct durable implies its log prefix is too.
                ckpt.max(self.state.persisted_ct.load(Ordering::Acquire))
            }
            crate::config::DurabilityLevel::Buffered => ckpt,
        }
    }

    /// Asks the persistence thread to checkpoint *now* instead of waiting
    /// for the flush boundary to be reached naturally (up to ε more ops),
    /// and wakes it if it is idling.
    ///
    /// The request names the current `completedTail` and stands until the
    /// published checkpoint covers it, so one call is enough: a nudge that
    /// arrives while a checkpoint is being written is served by the next.
    /// Checkpointing earlier than ε is safe for the reason
    /// `help_persistent_straggler` is: it only tightens the loss bound.
    /// No-op when the watermark already covers `completedTail`. Durable-ack
    /// release points call this once per op they hold back, so a lightly
    /// loaded server does not hold durable responses for a full ε window.
    pub fn nudge_checkpoint(&self) {
        let ct = self.completed_tail();
        if self.durable_watermark() >= ct {
            return;
        }
        self.state
            .sync_request
            // ord: AcqRel — Release so the persistence thread's Acquire load
            // of the request sees the completions that motivated it; Acquire
            // orders racing requests (fetch_max keeps only the furthest).
            .fetch_max(ct, Ordering::AcqRel);
        // The unpark token outlives a race with the thread's own decision
        // to park, and the park has a 50 µs timeout besides.
        if let Some(h) = &self.persistence {
            h.thread().unpark();
        }
    }

    /// The slot a thread parks on to wait for [`PrepUc::durable_watermark`]
    /// to advance: the persistence thread calls its `wake` after every
    /// published checkpoint, so
    /// `watermark_slot().wait_until(|| durable_watermark() >= cover || …)`
    /// blocks without polling. A caller that adds a condition of its own
    /// to the closure (a server's crash flag) wakes the slot itself when
    /// that condition changes. One waiter at a time; contenders take turns
    /// (see [`prep_sync::WakeSlot`]).
    pub fn watermark_slot(&self) -> &prep_sync::WakeSlot {
        &self.state.watermark_waiter
    }

    /// Blocks until every operation completed *before this call* is crash
    /// survivable (`durable_watermark() >= completedTail`), asking the
    /// persistence thread for the checkpoint and parking until it lands.
    ///
    /// Intended for drain/shutdown paths after workers have stopped
    /// submitting; with concurrent writers it chases a moving tail and
    /// returns as soon as it observes a watermark covering some recent
    /// `completedTail` read.
    pub fn quiesce_persistence(&self) {
        let ct = self.completed_tail();
        self.nudge_checkpoint();
        self.watermark_slot()
            .wait_until(|| self.durable_watermark() >= ct);
    }

    /// The persistent replicas' localTails (volatile mirror).
    pub fn persistent_tails(&self) -> [u64; 2] {
        [
            // ord: Acquire pairs with the persistence thread's tail Release
            // stores; tail t implies entries below t were applied.
            self.state.p_tails[0].load(Ordering::Acquire),
            // ord: see above.
            self.state.p_tails[1].load(Ordering::Acquire),
        ]
    }
}

impl<T: SequentialObject> Drop for PrepUc<T> {
    fn drop(&mut self) {
        // ord: Release pairs with the persistence thread's stop Acquire —
        // everything this instance wrote is visible to its final pass.
        self.state.stop.store(true, Ordering::Release);
        if let Some(h) = self.persistence.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityLevel;
    use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
    use prep_seqds::recorder::{Recorder, RecorderOp};
    use prep_topology::Topology;

    fn cfg(level: DurabilityLevel) -> PrepConfig {
        PrepConfig::new(level)
            .with_log_size(256)
            .with_epsilon(32)
            .with_runtime(PmemRuntime::for_crash_tests())
    }

    #[test]
    fn single_threaded_buffered_map_roundtrip() {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(HashMap::new(), asg, cfg(DurabilityLevel::Buffered));
        let t = prep.register(0);
        for k in 0..50u64 {
            prep.execute(
                &t,
                MapOp::Insert {
                    key: k,
                    value: k * 3,
                },
            );
        }
        for k in 0..50u64 {
            assert_eq!(
                prep.execute(&t, MapOp::Get { key: k }),
                MapResp::Value(Some(k * 3))
            );
        }
        assert_eq!(prep.execute(&t, MapOp::Len), MapResp::Len(50));
    }

    #[test]
    fn multi_threaded_durable_updates_complete() {
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 200;
        let asg = Topology::small().assign_workers(THREADS);
        let prep = Arc::new(PrepUc::new(
            Recorder::new(),
            asg,
            cfg(DurabilityLevel::Durable),
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let prep = Arc::clone(&prep);
                std::thread::spawn(move || {
                    let t = prep.register(w);
                    for i in 0..PER_THREAD {
                        prep.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(prep.completed_tail(), THREADS as u64 * PER_THREAD);
        prep.with_replica(0, |r| {
            assert_eq!(r.count(), THREADS as u64 * PER_THREAD);
        });
        // Durable mode flushed log entries and the completed tail. Both
        // persist phases flush per spanned cacheline (emptyBit flushes are
        // coalesced per distinct line), so the floor is the packed log
        // footprint in lines, not one flush per entry.
        let s = prep.stats();
        let entry_bytes = std::mem::size_of::<RecorderOp>() as u64 + 1;
        let min_lines = THREADS as u64 * PER_THREAD * entry_bytes / 64;
        assert!(
            s.clflushopt >= min_lines,
            "entry flushes: {} < {min_lines}",
            s.clflushopt
        );
        assert!(s.clflush > 0, "completedTail flushes");
        assert!(s.sfence > 0);
    }

    #[test]
    fn loss_bound_reports_config_values() {
        let asg = Topology::small().assign_workers(3); // β = 2 (2 cores/node)
        let prep = PrepUc::new(
            Recorder::new(),
            asg,
            cfg(DurabilityLevel::Buffered).with_epsilon(10),
        );
        assert_eq!(prep.beta(), 2);
        assert_eq!(prep.loss_bound(), 11); // ε + β − 1
    }

    #[test]
    fn drop_stops_persistence_thread_quickly() {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(Recorder::new(), asg, cfg(DurabilityLevel::Buffered));
        let t0 = std::time::Instant::now();
        drop(prep);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "persistence thread failed to stop"
        );
    }

    #[test]
    fn quiesce_covers_all_completed_ops_buffered() {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(
            HashMap::new(),
            asg,
            cfg(DurabilityLevel::Buffered).with_epsilon(64),
        );
        let t = prep.register(0);
        // Fewer ops than ε: without a nudge the persistence thread would
        // never checkpoint (boundary = 64 is unreachable at tail 10).
        for k in 0..10u64 {
            prep.execute(&t, MapOp::Insert { key: k, value: k });
        }
        assert_eq!(prep.completed_tail(), 10);
        prep.quiesce_persistence();
        assert!(
            prep.durable_watermark() >= 10,
            "watermark {} must cover completedTail 10",
            prep.durable_watermark()
        );
    }

    #[test]
    fn durable_mode_watermark_tracks_completed_tail() {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(HashMap::new(), asg, cfg(DurabilityLevel::Durable));
        let t = prep.register(0);
        for k in 0..20u64 {
            prep.execute(&t, MapOp::Insert { key: k, value: k });
        }
        // Durable mode persists completedTail before execute returns, so
        // the watermark needs no quiesce to cover it.
        assert!(prep.durable_watermark() >= 20);
    }

    #[test]
    fn watermark_never_exceeds_completed_tail() {
        let asg = Topology::small().assign_workers(2);
        let prep = Arc::new(PrepUc::new(
            Recorder::new(),
            asg,
            cfg(DurabilityLevel::Buffered).with_epsilon(4),
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let prep = Arc::clone(&prep);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let t = prep.register(0);
                for i in 0..400u64 {
                    prep.execute(&t, RecorderOp::Record(i));
                }
                stop.store(true, Ordering::Release);
            })
        };
        // Under a racing writer the watermark must stay a *lower* bound on
        // durability: it may lag completedTail but never pass it.
        while !stop.load(Ordering::Acquire) {
            let wm = prep.durable_watermark();
            let ct = prep.completed_tail();
            assert!(wm <= ct, "watermark {wm} overtook completedTail {ct}");
        }
        writer.join().unwrap();
        prep.quiesce_persistence();
        assert!(prep.durable_watermark() >= 400);
    }

    #[test]
    fn log_wrap_with_persistence_backpressure() {
        // Tiny log + tiny ε: the gate and the persistence thread interact
        // constantly; everything must still complete.
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 300;
        let asg = Topology::small().assign_workers(THREADS);
        let prep = Arc::new(PrepUc::new(
            Recorder::new(),
            asg,
            PrepConfig::new(DurabilityLevel::Buffered)
                .with_log_size(64)
                .with_epsilon(8)
                .with_runtime(PmemRuntime::for_crash_tests()),
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let prep = Arc::clone(&prep);
                std::thread::spawn(move || {
                    let t = prep.register(w);
                    for i in 0..PER_THREAD {
                        prep.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(prep.completed_tail(), THREADS as u64 * PER_THREAD);
        assert!(
            prep.runtime().stats().snapshot_count() > 5,
            "tiny ε must force many persist cycles"
        );
    }
}
