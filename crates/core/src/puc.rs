//! The user-facing PREP-UC object.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use prep_nr::{NodeReplicated, ThreadToken};
use prep_pmem::{PersistentReplica, PmemRuntime, PmemStatsSnapshot};
use prep_seqds::SequentialObject;
use prep_sync::TryLock;
use prep_topology::ThreadAssignment;

use crate::config::PrepConfig;
use crate::hooks::{HookState, PrepHooks};
use crate::persistence::{spawn_persistence_thread, PersistenceTask};

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
    /// The two persistence-only replicas, each its own crash image.
    replicas: Arc<[PersistentReplica<T>; 2]>,
    /// The persistence cycle's state, shared by the persistence thread and
    /// every checkpoint request (through `HookState::try_cycle`, which holds
    /// it weakly): whoever holds it runs the cycle.
    task: Arc<TryLock<PersistenceTask<T>>>,
    config: PrepConfig,
    beta: u64,
    persistence: Option<std::thread::JoinHandle<()>>,
}

impl<T: SequentialObject> PrepUc<T> {
    /// Builds a PREP-UC over `obj`.
    ///
    /// `obj` becomes the initial state of every replica: the N volatile
    /// replicas and both persistence-only replicas (which start consistent
    /// at localTail 0, like a freshly initialized persistent memory file).
    /// That is `N + 1` deep copies of `obj`; the last replica takes `obj`
    /// itself.
    ///
    /// # Panics
    /// Panics if the configuration violates `ε ≤ LOG_SIZE − β − 1` (§5.1)
    /// or the log is too small for the assignment.
    pub fn new(obj: T, assignment: ThreadAssignment, config: PrepConfig) -> Self {
        let mut prep = Self::without_persistence_thread(obj, assignment, config);
        prep.persistence = Some(spawn_persistence_thread(
            Arc::clone(&prep.task),
            Arc::clone(&prep.state),
            Arc::clone(&prep.nr),
        ));
        prep
    }

    /// [`PrepUc::new`] without the persistence thread: only a checkpoint
    /// request (a nudger, a combiner refused at the gate, a logMin scan
    /// stuck on a persistent replica) runs the persistence cycle.
    pub(crate) fn without_persistence_thread(
        obj: T,
        assignment: ThreadAssignment,
        config: PrepConfig,
    ) -> Self {
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
        let replicas = Arc::new([
            PersistentReplica::new(obj.clone_object()),
            PersistentReplica::new(obj),
        ]);
        let task = Arc::new(TryLock::new(PersistenceTask::new(
            Arc::clone(&nr),
            Arc::clone(&state),
            Arc::clone(&replicas),
            config.flush_strategy,
        )));
        let weak = Arc::downgrade(&task);
        let fresh = state.try_cycle.set(Box::new(move || {
            let Some(task) = weak.upgrade() else {
                return false;
            };
            let Some(mut held) = task.try_lock() else {
                return false;
            };
            held.cycle();
            true
        }));
        assert!(fresh.is_ok(), "a fresh hook state has no cycle yet");
        PrepUc {
            nr,
            state,
            replicas,
            task,
            config,
            beta,
            persistence: None,
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

    /// Read-only operations that found their replica caught up and read it
    /// under their own reader slot, summed over replicas.
    pub fn read_fast_paths(&self) -> u64 {
        self.nr.read_fast_paths()
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

    /// Persistent replica `idx`, which is its own NVM image.
    pub(crate) fn replica_image(&self, idx: usize) -> &PersistentReplica<T> {
        &self.replicas[idx]
    }

    /// Which persistent replica is currently active (0 or 1), volatile view.
    pub fn active_persistent_replica(&self) -> u64 {
        // ord: Acquire pairs with the persistence thread's swap Release —
        // the named checkpoint is durable by the time callers see its id.
        self.state.p_active.load(Ordering::Acquire)
    }

    /// Current flush boundary, ε past the published checkpoint
    /// (diagnostic).
    pub fn flush_boundary(&self) -> u64 {
        self.state.flush_boundary()
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
        // covering [0, w) is durable), and is the load a waiter re-checks
        // with after announcing itself (`quiesce_persistence`, a checkpoint
        // listener's owner).
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

    /// Checkpoints *now* every operation completed before this call,
    /// instead of waiting for the flush boundary to be reached naturally
    /// (up to ε more ops).
    ///
    /// The request names the current `completedTail` and stands until the
    /// published checkpoint covers it. If the persistence cycle is free,
    /// the calling thread runs it itself — apply up to `completedTail`,
    /// write and fence the checkpoint, swap `p_activePReplica`, publish
    /// the watermark, call the checkpoint listener — and returns with
    /// [`PrepUc::durable_watermark`] covering that tail, with no thread
    /// woken. If the cycle is busy (the persistence thread, or another
    /// caller, is running it), it wakes the persistence thread and returns
    /// at once: the request is met by the running cycle or the next.
    /// Checkpointing earlier than ε is safe: it only tightens the loss
    /// bound. No-op when the watermark already covers `completedTail`.
    /// Durable-ack release points call this once per service round on each
    /// shard they hold acks for, so a lightly loaded server does not hold
    /// durable responses for a full ε window.
    pub fn nudge_checkpoint(&self) {
        let ct = self.completed_tail();
        if self.durable_watermark() >= ct {
            return;
        }
        self.state.request_checkpoint(ct);
    }

    /// Installs `listener`, which is called right after the `SeqCst`
    /// publish that moves [`PrepUc::durable_watermark`], so a service
    /// layer holding durable acks can wake the thread that holds them.
    /// That thread announces itself with a `SeqCst` store and then
    /// re-reads the watermark; the listener loads the announcement (the
    /// store→load pair of [`prep_sync::WakeSlot`]). The listener runs
    /// mid-checkpoint on the thread that wrote the checkpoint — the
    /// persistence thread, a caller of [`PrepUc::nudge_checkpoint`], or a
    /// worker whose update the gate refused at the flush boundary or whose
    /// logMin scan found a persistent straggler — so it must not block.
    ///
    /// # Panics
    /// Panics if a listener is already installed.
    pub fn set_checkpoint_listener(&self, listener: impl Fn() + Send + Sync + 'static) {
        let fresh = self.state.checkpoint_listener.set(Box::new(listener));
        assert!(fresh.is_ok(), "a checkpoint listener is installed once");
    }

    /// Blocks until every operation completed *before this call* is crash
    /// survivable (`durable_watermark() >= completedTail`): nudges the
    /// checkpoint ([`PrepUc::nudge_checkpoint`]) and, if the cycle was
    /// busy, parks until the checkpoint lands.
    ///
    /// Intended for drain/shutdown paths after workers have stopped
    /// submitting; with concurrent writers it chases a moving tail and
    /// returns as soon as it observes a watermark covering some recent
    /// `completedTail` read. Concurrent callers take turns on one slot.
    pub fn quiesce_persistence(&self) {
        let ct = self.completed_tail();
        self.nudge_checkpoint();
        self.state
            .quiesce_wake
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
        // ord: SeqCst — Release pairs with the persistence thread's stop
        // Acquire (everything this instance wrote is visible to its final
        // pass); SeqCst because a parked thread re-checks it after the
        // wake below (the WakeSlot pair).
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.persist_wake.wake();
        if let Some(h) = self.persistence.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]
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
        let (tx, rx) = std::sync::mpsc::channel();
        prep.set_checkpoint_listener(move || {
            let _ = tx.send(());
        });
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
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("the checkpoint also called the listener");
    }

    /// With nobody else running the persistence cycle, `nudge_checkpoint`
    /// writes the checkpoint on the calling thread: it returns with the
    /// watermark covering every completed op, and the listener has run on
    /// that thread. There is no persistence thread, so nothing but the
    /// nudge can checkpoint (ε = 64 is not reached by 10 ops).
    #[test]
    fn nudge_checkpoint_covers_completed_ops_before_it_returns() {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::without_persistence_thread(
            HashMap::new(),
            asg,
            cfg(DurabilityLevel::Buffered).with_epsilon(64),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        prep.set_checkpoint_listener(move || {
            let _ = tx.send(std::thread::current().id());
        });
        let t = prep.register(0);
        for k in 0..10u64 {
            prep.execute(&t, MapOp::Insert { key: k, value: k });
        }
        assert_eq!(prep.durable_watermark(), 0);
        prep.nudge_checkpoint();
        assert!(
            prep.durable_watermark() >= prep.completed_tail(),
            "watermark {} must cover completedTail {} when the nudge returns",
            prep.durable_watermark(),
            prep.completed_tail()
        );
        assert_eq!(rx.try_recv(), Ok(std::thread::current().id()));
        // The checkpoint is a real one: a crash now loses nothing.
        let (token, image) = prep.simulate_crash();
        let recovered = PrepUc::recover(
            token,
            image,
            Topology::small().assign_workers(1),
            cfg(DurabilityLevel::Buffered),
        );
        let t = recovered.register(0);
        assert_eq!(recovered.execute(&t, MapOp::Len), MapResp::Len(10));
    }

    /// Runs `updates` updates from one worker on a store with no
    /// persistence thread, so only the worker's own checkpoint requests
    /// reopen the gate and advance `logMin`. A watchdog fails the test,
    /// naming where the worker stopped, rather than letting a stall hang
    /// it.
    fn one_worker_without_persistence_thread(
        config: PrepConfig,
        updates: u64,
    ) -> Arc<PrepUc<Recorder>> {
        let asg = Topology::small().assign_workers(1);
        let prep = Arc::new(PrepUc::without_persistence_thread(
            Recorder::new(),
            asg,
            config,
        ));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = {
            let prep = Arc::clone(&prep);
            std::thread::spawn(move || {
                let t = prep.register(0);
                for i in 0..updates {
                    prep.execute(&t, RecorderOp::Record(i));
                }
                let _ = tx.send(());
            })
        };
        if rx.recv_timeout(std::time::Duration::from_secs(10)).is_err() {
            panic!(
                "the worker stalled after {} of {updates} updates (log {}, ε {}, flush \
                 boundary {}, watermark {}, persistent tails {:?}, logMin {})",
                prep.completed_tail(),
                prep.config().log_size,
                prep.config().epsilon,
                prep.flush_boundary(),
                prep.durable_watermark(),
                prep.persistent_tails(),
                prep.inner().log().log_min()
            );
        }
        worker.join().expect("the worker finishes");
        prep
    }

    /// A combiner refused at the flush boundary asks for a checkpoint, and
    /// runs the cycle itself. With no persistence thread, that is the only
    /// way the gate reopens: a single worker's 10·ε updates complete only
    /// if each refusal checkpoints on the worker. In durable mode the
    /// watermark covers every op without a checkpoint, and the request
    /// must still be made.
    #[test]
    fn a_refused_reservation_checkpoints_on_the_combiner() {
        const EPS: u64 = 4;
        const UPDATES: u64 = 10 * EPS;
        for level in [DurabilityLevel::Buffered, DurabilityLevel::Durable] {
            let config = || {
                PrepConfig::new(level)
                    .with_log_size(16)
                    .with_epsilon(EPS)
                    .with_runtime(PmemRuntime::for_crash_tests())
            };
            let prep = one_worker_without_persistence_thread(config(), UPDATES);
            let published = prep.hook_state().durable_tail.load(Ordering::Acquire);
            assert!(
                published >= 9 * EPS,
                "{level:?}: checkpoint {published} passed fewer than 9 boundaries of ε = {EPS}"
            );
            assert!(prep.runtime().stats().snapshot_count() >= 9);
            let (token, image) = prep.simulate_crash();
            let recovered =
                PrepUc::recover(token, image, Topology::small().assign_workers(1), config());
            let hist = recovered.with_replica(0, |r| r.history().to_vec());
            let completed: Vec<u64> = (0..UPDATES).collect();
            let kept = prep_seqds::recorder::assert_prefix(&hist, &completed);
            let lost = UPDATES - kept as u64;
            let bound = prep.loss_bound();
            assert!(lost <= bound, "{level:?}: lost {lost} > bound {bound}");
        }
    }

    /// A logMin scan whose straggler is a persistent replica asks for a
    /// checkpoint, which runs on the scanning worker when the cycle is
    /// free: it applies the active persistent replica, and swaps the stable
    /// one into the active role. With no persistence thread nothing else
    /// moves them, so the log wraps only if that help runs. Each (log, ε)
    /// puts the first checkpoint at the end of the log's first lap.
    #[test]
    fn a_persistent_log_min_straggler_is_helped_on_the_combiner() {
        for (log_size, eps) in [(16, 14), (16, 12), (32, 30), (64, 60)] {
            let config = PrepConfig::new(DurabilityLevel::Buffered)
                .with_log_size(log_size)
                .with_epsilon(eps)
                .with_runtime(PmemRuntime::for_crash_tests());
            let prep = one_worker_without_persistence_thread(config, 10 * eps);
            assert_eq!(prep.completed_tail(), 10 * eps);
        }
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
