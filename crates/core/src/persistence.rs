//! The persistence cycle (Algorithm 2: `UpdatePersistentReplicas`) and
//! the thread that runs it in the background.
//!
//! One [`PersistenceTask`] drives both persistence-only replicas. Each
//! cycle replays newly completed log entries onto the **active** replica
//! (through the thread-local allocator swap, so the sequential object's
//! allocations land in the persistent arena, §5.1). When the flush boundary
//! is reached, or a checkpoint request stands, it writes the active replica
//! back (WBINVD, or one CLFLUSHOPT per dirty line) + SFENCE, swaps the
//! active/stable roles by persisting `p_activePReplica`, and publishes the
//! checkpoint's tail, which also raises the flush boundary to that tail
//! + ε.
//!
//! The task sits behind one [`TryLock`], and there is one cycle function,
//! [`PersistenceTask::cycle`], run by whichever thread holds it: the
//! dedicated persistence thread, or a thread that asked for a checkpoint
//! through `HookState::request_checkpoint` and found the task free — a
//! nudger that wants its durable ack now, a combiner whose reservation the
//! gate refused at the flush boundary (Algorithm 4), or a logMin scan whose
//! straggler is a persistent replica (Algorithm 3). That thread writes the
//! checkpoint itself and returns with the watermark covering its request,
//! so none of them waits for the persistence thread to be scheduled. One
//! that finds the task busy leaves its request standing and wakes the
//! persistence thread instead.
//!
//! Each persistent replica is its own crash image
//! ([`prep_pmem::PersistentReplica`]): the stable one is never mutated until
//! a checkpoint makes it active again, so what it holds is its last
//! checkpoint, and a crash cut copies it. The cycle holds the active
//! replica's lock while it applies ops and writes the replica back, and
//! lets go before it persists the selector that names the replica stable
//! (the lock rule is in DESIGN.md § "Key design decisions", under crash
//! testing via consistent cuts).
//! With crash simulation on, the first mutation after a checkpoint marks
//! the replica torn and the checkpoint's `sfence` clears it; each op is
//! applied once per persistent replica, whatever the write-back.
//!
//! When a cycle finds nothing to do the persistence thread spins, then
//! yields, through a [`Waiter`], looking for work without holding the
//! task (so a checkpoint request finds it free). Once that ladder is spent
//! it stores its wake threshold `HookState::wake_at` — halfway from the
//! active replica's applied tail to the flush boundary (ε/2 right after a
//! checkpoint), at most `MAX_WAKE_BATCH` entries on — and parks on
//! `HookState::persist_wake` for at most [`IDLE_PARK`] at a time. A
//! combiner wakes it only once `completedTail` reaches the threshold, so
//! background apply runs in batches; a checkpoint request that found the
//! task busy and `Drop`'s stop wake it at once. A park that times out with
//! no cycle due parks again, without taking the task or re-running the
//! ladder. The loss bound does not rest on any of these wake-ups: the gate
//! enforces it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use prep_pmem::PersistentReplica;
use prep_seqds::SequentialObject;
use prep_sync::{TryLock, Waiter};

use prep_pmem::psan::PublishTag;

use crate::config::{DurabilityLevel, FlushStrategy, PsanFault};
use crate::hooks::HookState;
use crate::puc::NrInner;

/// Longest one idle park of the persistence thread lasts, so an idle store
/// wakes it at most once per `IDLE_PARK`. The wake-ups listed in the
/// module docs end a park early, so the bound is not what brings work to
/// the thread; it is how often an idle thread re-checks on its own whether
/// a cycle is due.
/// EXPERIMENTS.md § "The persistence thread's idle park" has the sweep it
/// was picked from: a longer bound saves more idle CPU on the wire
/// workloads, but on the 2-vCPU guest it was measured on, parks longer
/// than ≈ 200 µs made the persistence CPU of `crash_recover`'s short
/// update bursts 20–30 % dearer (the vCPU had gone idle meanwhile).
pub const IDLE_PARK: Duration = Duration::from_micros(125);

/// Most entries a combiner lets gather before it wakes the parked
/// persistence thread to apply them. It bounds what a nudge has to apply
/// on the nudging thread, and keeps a store whose ε is large (the library
/// default is 10 000) applying a short burst of updates to its active
/// replica, as a store with a small ε does.
const MAX_WAKE_BATCH: u64 = 64;

/// Everything a persistence cycle needs. It lives behind a [`TryLock`]
/// shared by the persistence thread and `HookState::request_checkpoint`.
pub(crate) struct PersistenceTask<T: SequentialObject> {
    nr: Arc<NrInner<T>>,
    state: Arc<HookState<T::Op>>,
    /// The two persistence-only replicas (§5.1: "the persistent replicas
    /// are only accessed by the persistence thread"; here, by whichever
    /// thread holds the task, and by a crash cut copying the stable one).
    replicas: Arc<[PersistentReplica<T>; 2]>,
    flush_strategy: FlushStrategy,
}

impl<T: SequentialObject> PersistenceTask<T> {
    pub(crate) fn new(
        nr: Arc<NrInner<T>>,
        state: Arc<HookState<T::Op>>,
        replicas: Arc<[PersistentReplica<T>; 2]>,
        flush_strategy: FlushStrategy,
    ) -> Self {
        // Precise dirty tracking is enabled only on the persistence
        // replicas (the volatile NR replicas keep the zero-cost fallback),
        // and only when the flush strategy will consume it.
        if flush_strategy == FlushStrategy::DirtyLines {
            for rep in replicas.iter() {
                rep.lock().object_mut().clear_dirty();
            }
        }
        PersistenceTask {
            nr,
            state,
            replicas,
            flush_strategy,
        }
    }

    /// The applied tail of the active replica, and the `completedTail` at
    /// which a combiner should wake the parked persistence thread to apply
    /// more: halfway from that tail to the flush boundary (ε/2 right after
    /// a checkpoint), at most [`MAX_WAKE_BATCH`] entries on, at least one.
    /// Halving the distance leaves a closed gate, or a nudge, next to
    /// nothing to apply before its checkpoint.
    fn wake_threshold(&self) -> (u64, u64) {
        // ord: Relaxed — only the task's holder stores the selector and the
        // tails, and the task lock orders the holders.
        let active = self.state.p_active.load(Ordering::Relaxed) as usize;
        // ord: Relaxed — see above.
        let local_tail = self.state.p_tails[active].load(Ordering::Relaxed);
        let boundary = self.state.flush_boundary();
        let step = (boundary.saturating_sub(local_tail) / 2).clamp(1, MAX_WAKE_BATCH);
        (local_tail, local_tail + step)
    }

    /// One cycle of Algorithm 2: apply the active replica up to
    /// `completedTail`, and checkpoint it if it has reached the flush
    /// boundary or a standing `sync_request` asks for it. Returns whether
    /// the cycle did anything. A request at or below the `completedTail`
    /// read here is covered by the time the cycle returns.
    pub(crate) fn cycle(&mut self) -> bool {
        let rt = Arc::clone(&self.state.rt);
        let op_bytes = std::mem::size_of::<T::Op>() as u64;
        let dirty_lines = self.flush_strategy == FlushStrategy::DirtyLines;
        // ord: Relaxed — see `wake_threshold`.
        let active = self.state.p_active.load(Ordering::Relaxed) as usize;
        // The standing request is read before `completedTail`: `want` is a
        // `completedTail` its requester read before the `fetch_max` this
        // load synchronizes with, so the tail read next is at least `want`,
        // and this cycle meets the request whoever runs it.
        // ord: Acquire pairs with request_checkpoint's SeqCst fetch_max.
        let want = self.state.sync_request.load(Ordering::Acquire);
        let tail = self.nr.completed_tail();
        let mut rep = self.replicas[active].lock();

        let mut progressed = false;
        let from = rep.local_tail();
        if tail > from {
            // The first mutation after a checkpoint leaves the active
            // replica torn until the next one (§4.1's background-flush
            // hazard); `advance` marks it before applying.
            let log = self.nr.log();
            rep.advance(&rt, tail, |ds| {
                log.for_each_op(from, tail, |_, op| {
                    // Stores to the NVM-resident replica are slower than
                    // DRAM stores; charge them.
                    rt.nvm_write(op_bytes);
                    prep_pmem::alloc::with_persistent(|| {
                        ds.apply(op);
                    });
                });
            });
            // ord: Release publishes the replica state just applied to
            // the logMin scan's (min_persistent_tail) Acquire readers.
            self.state.p_tails[active].store(tail, Ordering::Release);
            progressed = true;
        }

        // Flush trigger (Algorithm 2): the boundary is ε past the
        // published checkpoint.
        let boundary = self.state.flush_boundary();
        // Second trigger (the §2.2 sync point, and the help for a closed
        // gate or a persistent logMin straggler): somebody asked for the
        // prefix below `want` to be made crash-survivable now, and the
        // published checkpoint does not cover it yet. This replica has
        // applied it (see `want` above). Persisting early only tightens
        // the loss bound.
        let local_tail = rep.local_tail();
        debug_assert!(want <= local_tail, "the request was read first");
        // ord: Relaxed — only the task's holder writes the watermark, and
        // the task lock orders the holders.
        let requested = self.state.durable_tail.load(Ordering::Relaxed) < want;
        if boundary <= local_tail || requested {
            // Write the active replica back to NVM, making it durable
            // and consistent: WBINVD (paper default), or — the
            // incremental path — one CLFLUSHOPT per distinct line
            // dirtied since this replica's last checkpoint (the whole
            // range, §6's alternative, for an untracked object).
            const SITE: &str = "PersistenceTask::checkpoint";
            let region = self.state.psan.replicas[active];
            let flushed_bytes = match self.flush_strategy {
                FlushStrategy::Wbinvd => {
                    let full_bytes = rep.object().approx_bytes();
                    rt.trace_store(region.base, full_bytes, SITE);
                    rt.wbinvd(full_bytes);
                    full_bytes
                }
                FlushStrategy::DirtyLines => {
                    let dirty = rep.object().dirty_bytes_since_checkpoint();
                    if dirty > 0 {
                        // With the sanitizer on and precise lines
                        // available, give each flushed line its exact
                        // address in the replica's logical space; the
                        // cost and stats are identical to the batched
                        // range flush (one CLFLUSHOPT per line).
                        let lines = if rt.psan_enabled() {
                            rep.object().dirty_lines_since_checkpoint()
                        } else {
                            None
                        };
                        match lines {
                            Some(lines) => {
                                for off in lines {
                                    // The structures' logical layouts are
                                    // sparse (offsets up to 2^64); folded
                                    // into this replica's region, a line
                                    // can alias a line of its own replica
                                    // but never take an address in the
                                    // other's — where a cut between this
                                    // flush and the fence would read as a
                                    // torn *stable* replica.
                                    let addr = region.base + off % region.len;
                                    let traced = rt.trace_store(addr, 64, SITE);
                                    rt.clflushopt_at(addr, SITE, &traced);
                                }
                            }
                            None => {
                                let traced = rt.trace_store(region.base, dirty, SITE);
                                rt.flush_range(region.base, dirty, SITE, &traced);
                            }
                        }
                    }
                    dirty
                }
            };
            if self.state.psan_fault != Some(PsanFault::SkipCheckpointFence) {
                rt.sfence();
            }
            rt.count_checkpoint(flushed_bytes);
            // The fenced write-back made the replica consistent in NVM at
            // its localTail.
            rep.checkpointed(&rt, flushed_bytes);
            if dirty_lines {
                rep.object_mut().clear_dirty();
            }
            // Let go of the replica before the selector names it stable: a
            // crash cut takes the stable replica's lock inside the cut, so
            // a holder entering a persist effect for it would deadlock.
            drop(rep);
            // Swap active/stable; persist the selector (CLFLUSH, §5.1)
            // BEFORE the watermark publish raises the boundary: the
            // boundary admits new completions against the *new* stable
            // checkpoint, so the selector naming that checkpoint must be
            // durable first (a crash in between would otherwise recover the
            // old stable replica against a window sized for the new one).
            let new_active = 1 - active as u64;
            // ord: Release publishes the checkpoint written above before
            // the selector that names it becomes visible.
            self.state.p_active.store(new_active, Ordering::Release);
            // Store + CLFLUSH as one atomic persist. The selector is a
            // *publish*: once durable, recovery trusts the checkpoint
            // it names, so every byte of the just-checkpointed replica
            // must already be durable.
            rt.publish_clflush(
                self.state.psan.p_active_addr,
                std::mem::size_of::<u64>() as u64,
                &[(region.base, region.len)],
                PublishTag::CheckpointMarker,
                "PersistenceTask::swap",
            );
            self.state.p_active_cell.record(&rt, new_active);
            // The checkpoint just published covers [0, local_tail): any
            // crash from here on recovers at least this prefix. This is
            // the watermark durable-ack release points wait on, and the
            // flush boundary becomes exactly ε past it: completed entries
            // (≤ boundary − 1 + β) never outrun the stable checkpoint by
            // more than ε + β − 1. (The paper's `flushBoundary += ε` is
            // equivalent on its trigger, where localTail ≥ boundary; an
            // early checkpoint, at a request, lands below the boundary,
            // where `+= ε` would widen the window beyond ε.)
            self.state
                .durable_tail
                // ord: SeqCst — publishes the checkpoint behind the
                // watermark to durable_watermark()'s readers and to the
                // gate's Acquire, and is the store of the waiters'
                // store→load pair: a waiter that announced itself before
                // this lands is seen by the quiescer's slot or the listener
                // below, one that announces after sees the new watermark in
                // its re-check. (Only the task's holder writes it;
                // fetch_max is how it stays monotone.)
                .fetch_max(local_tail, Ordering::SeqCst);
            self.state.quiesce_wake.wake();
            if let Some(listener) = self.state.checkpoint_listener.get() {
                listener();
            }
            // Entries below both persistent tails can never be needed by
            // recovery again; let the durable log image reclaim them.
            if self.state.durability == DurabilityLevel::Durable {
                // ord: Relaxed — see `wake_threshold`.
                let [a, b] = &self.state.p_tails;
                let min_tail = a.load(Ordering::Relaxed).min(b.load(Ordering::Relaxed));
                self.state.log_image.retain_from(&rt, min_tail);
            }
            progressed = true;
        }

        progressed
    }
}

/// The persistence thread's body: run cycles until `state.stop`, parking
/// when there is nothing to do.
fn run<T: SequentialObject>(
    task: &TryLock<PersistenceTask<T>>,
    state: &HookState<T::Op>,
    nr: &NrInner<T>,
) {
    let mut w = Waiter::new();
    loop {
        // ord: Acquire pairs with shutdown's stop Release so the final
        // state we leave behind covers everything shut-down code wrote.
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        // A requesting thread holds the task for one cycle: wait it out.
        let Some(mut t) = task.try_lock() else {
            w.wait();
            continue;
        };
        if t.cycle() {
            w.reset();
            continue;
        }
        let (local_tail, wake_at) = t.wake_threshold();
        drop(t);
        if !w.is_sleeping() {
            // The ladder: look for any entry to apply, or a checkpoint
            // request, without holding the task, so that a request
            // meanwhile finds it free and runs its own cycle.
            while !w.is_sleeping() && !has_work(state, nr, local_tail + 1) {
                w.wait();
            }
        } else {
            // ord: SeqCst — the first store of the park's store→load pair
            // with `ensure_completed_tail_durable`: a combiner whose
            // completedTail CAS the re-check below misses reads this
            // threshold (or a later one), and wakes us if it is reached.
            state.wake_at.store(wake_at, Ordering::SeqCst);
            // A park that times out with no cycle due parks again: below
            // `wake_at` the active replica is left behind on purpose.
            let due = || has_work(state, nr, wake_at);
            while !due() {
                state.persist_wake.wait_until_or(due, IDLE_PARK);
            }
        }
    }
}

/// The park's ready check: would a cycle be due? Background apply is due
/// once `completedTail` reaches `wake_at`; a checkpoint is due at once when
/// a `sync_request` stands; and `stop` ends the thread. (The flush boundary
/// needs no clause: the boundary only rises, and a cycle that found the
/// active replica short of it parks with `wake_at` at or below it.) Every
/// word it reads is published with a `SeqCst` store or RMW before its
/// writer calls `persist_wake.wake()`, and is read here with a `SeqCst`
/// load, as [`prep_sync::WakeSlot`] requires.
fn has_work<T: SequentialObject>(st: &HookState<T::Op>, nr: &NrInner<T>, wake_at: u64) -> bool {
    use std::sync::atomic::Ordering::SeqCst;

    // ord: SeqCst — against Drop's stop store.
    st.stop.load(SeqCst)
        || nr.log().completed_tail_seqcst() >= wake_at
        // ord: SeqCst — against request_checkpoint's fetch_max, and
        // against the watermark publish of a requester's cycle.
        || st.sync_request.load(SeqCst) > st.durable_tail.load(SeqCst)
}

/// Spawns the persistence thread over the shared `task`. Returns its join
/// handle; it exits when the hook state's `stop` is raised.
pub(crate) fn spawn_persistence_thread<T: SequentialObject>(
    task: Arc<TryLock<PersistenceTask<T>>>,
    state: Arc<HookState<T::Op>>,
    nr: Arc<NrInner<T>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("prep-persistence".into())
        .spawn(move || run(&task, &state, &nr))
        .expect("failed to spawn persistence thread")
}

#[cfg(test)]
mod tests {
    use crate::config::{DurabilityLevel, FlushStrategy, PrepConfig};
    use crate::puc::PrepUc;
    use prep_seqds::recorder::{Recorder, RecorderOp};
    use prep_seqds::SequentialObject;
    use prep_topology::Topology;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn crash_cfg(level: DurabilityLevel, eps: u64) -> PrepConfig {
        PrepConfig::new(level)
            .with_log_size(256)
            .with_epsilon(eps)
            .with_runtime(prep_pmem::PmemRuntime::for_crash_tests())
    }

    #[test]
    fn persistence_thread_tracks_completed_tail() {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(
            Recorder::new(),
            asg,
            crash_cfg(DurabilityLevel::Buffered, 8),
        );
        let t = prep.register(0);
        for i in 0..20u64 {
            prep.execute(&t, RecorderOp::Record(i));
        }
        // The active replica must eventually reach completedTail = 20.
        prep_sync::spin_until(|| {
            let s = prep.hook_state();
            s.p_tails[0]
                .load(Ordering::Acquire)
                .max(s.p_tails[1].load(Ordering::Acquire))
                >= 20
        });
    }

    #[test]
    fn flush_boundary_advances_and_roles_swap() {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(
            Recorder::new(),
            asg,
            crash_cfg(DurabilityLevel::Buffered, 4),
        );
        let t = prep.register(0);
        for i in 0..40u64 {
            prep.execute(&t, RecorderOp::Record(i));
        }
        let rt = prep.runtime();
        // ε = 4 and 40 completed updates → several persist cycles.
        prep_sync::spin_until(|| rt.stats().snapshot_count() >= 3);
        assert!(rt.stats().wbinvd_count() >= 3);
        // p_activePReplica was persisted at least once per swap.
        let active_img = prep.hook_state().p_active_cell.read_image();
        assert!(active_img <= 1);
        // The stable replica image is a consistent (non-torn) prefix.
        let stable = (1 - prep.hook_state().p_active.load(Ordering::Acquire)) as usize;
        let snap = prep
            .replica_image(stable)
            .read_image()
            .expect("stable image torn");
        assert!(snap.local_tail >= 4);
    }

    /// `wbinvd` takes no `Traced` (its signature is the frozen benchmark's),
    /// so the compiler does not check that a WBINVD checkpoint traces the
    /// replica it writes back; this does. Without that store psan sees no
    /// dirty replica bytes, and a dropped write-back would pass it.
    #[test]
    fn a_wbinvd_checkpoint_traces_the_replica_it_writes_back() {
        use prep_pmem::psan::EventKind;
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(
            Recorder::new(),
            asg,
            crash_cfg(DurabilityLevel::Buffered, 4).with_flush_strategy(FlushStrategy::Wbinvd),
        );
        let rt = prep.runtime();
        rt.psan_enable();
        let t = prep.register(0);
        for i in 0..8u64 {
            prep.execute(&t, RecorderOp::Record(i));
        }
        prep.quiesce_persistence();
        let replicas = prep.hook_state().psan.replicas;
        let events = rt.psan_events();
        let wbinvd = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Wbinvd))
            .expect("a checkpoint ran");
        assert!(
            events[..wbinvd].iter().any(|e| matches!(
                e.kind,
                EventKind::Store { addr, .. } if replicas.iter().any(|r| r.base == addr)
            )),
            "the WBINVD checkpoint wrote back a replica psan never saw a store to"
        );
    }

    /// Deep copies made so far of untagged [`Counted`] objects.
    static CLONES: AtomicUsize = AtomicUsize::new(0);

    /// Ops below this are counted one by one in a [`Tally`].
    const TALLIED_OPS: usize = 64;

    /// The copies of one tagged [`Counted`] object, and the `apply` calls of
    /// each op on any of them.
    struct Tally {
        clones: AtomicUsize,
        applies: [AtomicUsize; TALLIED_OPS],
    }

    /// One tally per test that runs beside `checkpoints_never_clone_the_replica`,
    /// so that no test counts another's copies.
    static TALLIES: [Tally; 2] = [const {
        Tally {
            clones: AtomicUsize::new(0),
            applies: [const { AtomicUsize::new(0) }; TALLIED_OPS],
        }
    }; 2];

    /// First element of a tagged [`Counted`]: no op of these tests reaches it.
    const TAG: u64 = 1 << 48;

    /// An append-only log whose every deep copy is counted: in [`CLONES`],
    /// or in its [`Tally`] if it is tagged, which also counts its applies.
    #[derive(Debug)]
    struct Counted(Vec<u64>);

    impl Counted {
        /// An empty log counted in `TALLIES[k]`.
        fn tagged(k: usize) -> Self {
            Counted(vec![TAG + k as u64])
        }

        fn tally(&self) -> Option<&'static Tally> {
            match self.0.first() {
                Some(&tag) if tag >= TAG => Some(&TALLIES[(tag - TAG) as usize]),
                _ => None,
            }
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            match self.tally() {
                Some(tally) => tally.clones.fetch_add(1, Ordering::Relaxed),
                None => CLONES.fetch_add(1, Ordering::Relaxed),
            };
            Counted(self.0.clone())
        }
    }

    impl SequentialObject for Counted {
        type Op = u64;
        type Resp = ();

        fn apply(&mut self, op: &u64) {
            if let Some(tally) = self.tally() {
                tally.applies[*op as usize].fetch_add(1, Ordering::Relaxed);
            }
            self.0.push(*op);
        }

        fn apply_readonly(&self, op: &u64) {
            panic!("Counted has no read-only ops ({op})");
        }

        fn is_read_only(_: &u64) -> bool {
            false
        }

        fn approx_bytes(&self) -> u64 {
            8 * self.0.len() as u64
        }
    }

    #[test]
    fn checkpoints_never_clone_the_replica() {
        const CHECKPOINTS: u64 = 8;
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(
            Counted(Vec::new()),
            asg,
            crash_cfg(DurabilityLevel::Buffered, 4).with_flush_strategy(FlushStrategy::Wbinvd),
        );
        let built = CLONES.load(Ordering::Relaxed);
        let t = prep.register(0);
        for i in 0..4 * CHECKPOINTS {
            prep.execute(&t, i);
        }
        let rt = prep.runtime();
        prep_sync::spin_until(|| rt.stats().snapshot_count() >= CHECKPOINTS);
        assert_eq!(
            CLONES.load(Ordering::Relaxed),
            built,
            "a checkpoint deep-cloned the replica"
        );
        // The image the checkpoints built by replay is the ops' prefix.
        let stable = (1 - prep.hook_state().p_active.load(Ordering::Acquire)) as usize;
        let snap = prep.replica_image(stable).read_image().expect("torn");
        let want: Vec<u64> = (0..snap.local_tail).collect();
        assert_eq!(snap.state.0, want);
        // A crash cut copies the stable image, the one recovery reads, and
        // only records whether the active one is torn.
        let before = CLONES.load(Ordering::Relaxed);
        let _ = prep.simulate_crash();
        assert_eq!(
            CLONES.load(Ordering::Relaxed) - before,
            1,
            "a crash cut copied more than the stable image"
        );
    }

    /// With crash simulation on, a checkpoint writes the active replica
    /// back and applies nothing: each op reaches each persistent replica
    /// once, and no copy of the replica replays it. There is no persistence
    /// thread, so every apply runs on this thread (the gate's refusals run
    /// the cycle) and the counts are final when the loop ends.
    #[test]
    fn each_op_is_applied_once_per_persistent_replica() {
        const OPS: u64 = 48;
        let tally = &TALLIES[0];
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::without_persistence_thread(
            Counted::tagged(0),
            asg,
            crash_cfg(DurabilityLevel::Buffered, 4).with_flush_strategy(FlushStrategy::Wbinvd),
        );
        let t = prep.register(0);
        for i in 0..OPS {
            prep.execute(&t, i);
        }
        let checkpoints = prep.runtime().stats().snapshot_count();
        assert!(checkpoints >= 8, "only {checkpoints} checkpoints");
        // Bring every volatile replica up to completedTail.
        let nodes = prep.inner().num_replicas();
        for node in 0..nodes {
            prep.with_replica(node, |_| ());
        }
        let [a, b] = prep.persistent_tails();
        for op in 0..OPS {
            let persistent = usize::from(op < a) + usize::from(op < b);
            assert_eq!(
                tally.applies[op as usize].load(Ordering::Relaxed),
                nodes + persistent,
                "op {op}: {nodes} volatile replicas and {persistent} persistent ones \
                 (tails {a}, {b}) applied it, each once"
            );
        }
    }

    /// `PrepUc::new` and `PrepUc::recover` copy the object once per volatile
    /// replica and once for a persistent replica; the other persistent
    /// replica takes the object itself.
    #[test]
    fn construction_and_recovery_copy_the_object_nodes_plus_one_times() {
        let tally = &TALLIES[1];
        let copies = || tally.clones.load(Ordering::Relaxed);
        let asg = Topology::small().assign_workers(1);
        let cfg = || crash_cfg(DurabilityLevel::Buffered, 4);
        let before = copies();
        let prep = PrepUc::new(Counted::tagged(1), asg.clone(), cfg());
        let nodes = prep.inner().num_replicas();
        assert_eq!(copies() - before, nodes + 1, "PrepUc::new");
        let (token, image) = prep.simulate_crash();
        drop(prep);
        let before = copies();
        let _recovered = PrepUc::recover(token, image, asg, cfg());
        assert_eq!(copies() - before, nodes + 1, "PrepUc::recover");
    }
}
