//! The persistence thread (Algorithm 2: `UpdatePersistentReplicas`).
//!
//! A single dedicated thread owns both persistence-only replicas. In each
//! cycle it replays newly completed log entries onto the **active** replica
//! (through the thread-local allocator swap, so the sequential object's
//! allocations land in the persistent arena, §5.1). When the flush boundary
//! is reached it writes the active replica back (WBINVD, or one CLFLUSHOPT
//! per dirty line) + SFENCE, advances the boundary by ε, and swaps the
//! active/stable roles by persisting `p_activePReplica`.
//!
//! With crash simulation on, the checkpoint's NVM image is updated one way
//! whatever the write-back: the ops applied since the replica's last
//! checkpoint are replayed onto its stored image
//! (`ReplicaImage::apply_delta`). By the `SequentialObject` determinism
//! contract that is the state the write-back made durable.

use std::sync::Arc;

use prep_pmem::ReplicaImage;
use prep_seqds::SequentialObject;
use prep_sync::Waiter;

use prep_pmem::psan::PublishTag;

use crate::config::{DurabilityLevel, FlushStrategy, PsanFault};
use crate::hooks::HookState;
use crate::puc::NrInner;

/// A persistence-only replica (the paper's `PReplica`): just the object and
/// its localTail — no locks, no batch, no response array (§5.1: "the
/// persistent replicas are only accessed by the persistence thread").
pub(crate) struct PReplica<T: SequentialObject> {
    pub(crate) ds: T,
    pub(crate) local_tail: u64,
    /// Ops applied since this replica's last checkpoint, buffered for the
    /// crash-sim image update (only when crash simulation is on). Buffered
    /// at apply time because log slots below the persistent tails may be
    /// recycled (logMin, §5.1) before the checkpoint runs — the log cannot
    /// be re-read for the delta.
    pub(crate) pending: Vec<T::Op>,
}

/// Everything the persistence thread needs, moved into it at spawn.
pub(crate) struct PersistenceTask<T: SequentialObject> {
    pub(crate) nr: Arc<NrInner<T>>,
    pub(crate) state: Arc<HookState<T::Op>>,
    pub(crate) images: Arc<[ReplicaImage<T>; 2]>,
    pub(crate) replicas: [PReplica<T>; 2],
    pub(crate) epsilon: u64,
    pub(crate) flush_strategy: FlushStrategy,
}

impl<T: SequentialObject> PersistenceTask<T> {
    /// The thread body: loop until `state.stop`.
    pub(crate) fn run(mut self) {
        use std::sync::atomic::Ordering;

        let rt = Arc::clone(&self.state.rt);
        let op_bytes = std::mem::size_of::<T::Op>() as u64;
        let mut w = Waiter::new();
        let dirty_lines = self.flush_strategy == FlushStrategy::DirtyLines;
        // Precise dirty tracking is enabled only on the persistence
        // replicas (the volatile NR replicas keep the zero-cost fallback),
        // and only when the flush strategy will consume it.
        if dirty_lines {
            for rep in &mut self.replicas {
                rep.ds.clear_dirty();
            }
        }
        let buffer_delta = rt.crash_sim_enabled();

        loop {
            // ord: Acquire pairs with shutdown's stop Release so the final
            // state we leave behind covers everything shut-down code wrote.
            if self.state.stop.load(Ordering::Acquire) {
                return;
            }
            // ord: Acquire pairs with our own swap Release (and recovery's
            // initial store) — mostly self-reads, but helpers read it too.
            let active = self.state.p_active.load(Ordering::Acquire) as usize;
            let tail = self.nr.completed_tail();
            let rep = &mut self.replicas[active];

            let mut progressed = false;
            if tail > rep.local_tail {
                // First mutation after a snapshot leaves the active
                // replica's NVM image torn until the next WBINVD (§4.1's
                // background-flush hazard).
                self.images[active].mark_torn(&rt);
                let ds = &mut rep.ds;
                let pending = &mut rep.pending;
                let region_base = self.state.psan.replicas[active].base;
                self.nr.log().for_each_op(rep.local_tail, tail, |_, op| {
                    // Stores to the NVM-resident replica are slower than
                    // DRAM stores; charge them.
                    rt.nvm_write(region_base, op_bytes);
                    if buffer_delta {
                        pending.push(op.clone());
                    }
                    prep_pmem::alloc::with_persistent(|| {
                        ds.apply(op);
                    });
                });
                rep.local_tail = tail;
                // ord: Release publishes the replica state just applied to
                // persistent_tails()'s Acquire readers.
                self.state.p_tails[active].store(tail, Ordering::Release);
                progressed = true;
            }

            // Flush trigger (Algorithm 2): checked even when no new entries
            // arrived this cycle — a helping combiner may have *lowered* the
            // boundary below our already-applied tail, and the gate then
            // depends on us persisting and swapping.
            //
            // Second trigger (deadlock backstop): if the reservation gate is
            // closed (boundary ≤ logTail) and we have applied everything
            // completed so far, completedTail may be unable to reach the
            // boundary at all (blocked combiners hold unfinished entries).
            // Persist-and-swap now: each swap raises the boundary by ≥ ε,
            // so the gate provably reopens, and persisting early only
            // tightens the ε + β − 1 loss bound.
            // ord: Acquire pairs with help_persistent_straggler's Release —
            // a lowered boundary arrives with the state that motivated it.
            let boundary = self.state.flush_boundary.load(Ordering::Acquire);
            let gate_closed = boundary <= self.nr.log().log_tail();
            // The backstop only fires when the resulting boundary
            // (persistedTail + ε) would actually rise — otherwise a cycle
            // with an in-flight operation would re-persist the same state
            // every loop iteration.
            let backstop =
                gate_closed && rep.local_tail == tail && rep.local_tail + self.epsilon > boundary;
            // Third trigger (the §2.2 sync point): somebody asked for the
            // prefix below `want` to be made crash-survivable now
            // (`nudge_checkpoint`), the published checkpoint does not cover
            // it yet, and this replica has applied it. A request ahead of
            // `local_tail` is met by the next cycle (`want` is a past
            // `completedTail`, so that cycle has entries to apply).
            // Persisting early only tightens the loss bound, as above.
            // ord: Acquire pairs with nudge_checkpoint's AcqRel fetch_max.
            let want = self.state.sync_request.load(Ordering::Acquire);
            // ord: Relaxed — this thread is the watermark's only writer.
            let published = self.state.durable_tail.load(Ordering::Relaxed);
            let requested = published < want && want <= rep.local_tail;
            if boundary <= rep.local_tail || backstop || requested {
                // Write the active replica back to NVM, making it durable
                // and consistent: WBINVD (paper default), or — the
                // incremental path — one CLFLUSHOPT per distinct line
                // dirtied since this replica's last checkpoint (the whole
                // range, §6's alternative, for an untracked object).
                const SITE: &str = "PersistenceTask::checkpoint";
                let region = self.state.psan.replicas[active];
                let flushed_bytes = match self.flush_strategy {
                    FlushStrategy::Wbinvd => {
                        let full_bytes = rep.ds.approx_bytes();
                        rt.trace_store(region.base, full_bytes, SITE);
                        rt.wbinvd(full_bytes);
                        full_bytes
                    }
                    FlushStrategy::DirtyLines => {
                        let dirty = rep.ds.dirty_bytes_since_checkpoint();
                        if dirty > 0 {
                            // With the sanitizer on and precise lines
                            // available, give each flushed line its exact
                            // address in the replica's logical space; the
                            // cost and stats are identical to the batched
                            // range flush (one CLFLUSHOPT per line).
                            let lines = if rt.psan_enabled() {
                                rep.ds.dirty_lines_since_checkpoint()
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
                                        rt.trace_store(addr, 64, SITE);
                                        rt.clflushopt_at(addr, SITE);
                                    }
                                }
                                None => {
                                    rt.trace_store(region.base, dirty, SITE);
                                    rt.flush_range(region.base, dirty, SITE);
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
                if buffer_delta {
                    // Replay exactly the ops this replica applied since its
                    // last checkpoint onto the stored image: no deep clone,
                    // and an unchanged replica checkpoints for free.
                    let pending = &rep.pending;
                    self.images[active].apply_delta(&rt, rep.local_tail, flushed_bytes, |img| {
                        for op in pending {
                            img.apply(op);
                        }
                    });
                    rep.pending.clear();
                }
                if dirty_lines {
                    rep.ds.clear_dirty();
                }
                // Swap active/stable; persist the selector (CLFLUSH, §5.1)
                // BEFORE raising the boundary: the boundary admits new
                // completions against the *new* stable checkpoint, so the
                // selector naming that checkpoint must be durable first (a
                // crash in between would otherwise recover the old stable
                // replica against a window sized for the new one).
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
                // the watermark durable-ack release points wait on.
                self.state
                    .durable_tail
                    // ord: SeqCst — publishes the checkpoint behind the
                    // watermark to durable_watermark()'s readers, and is the
                    // store of the wake slots' store→load pair: a waiter
                    // that announced itself before this lands is seen by the
                    // wakes below, one that announces after sees the new
                    // watermark in its re-check. (Only this thread writes
                    // it; fetch_max is how it stays monotone.)
                    .fetch_max(rep.local_tail, Ordering::SeqCst);
                self.state.wake_watermark_waiters();
                // Advance the boundary to exactly ε past what was just
                // persisted. This is the invariant the ε + β − 1 loss bound
                // rests on: `flushBoundary ≤ stableTail + ε` at all times,
                // so completed entries (≤ boundary − 1 + β) never outrun the
                // stable checkpoint by more than ε + β − 1. (The paper's
                // `flushBoundary += ε` is equivalent on its trigger, where
                // localTail ≥ boundary always; our early-persist backstop
                // can fire below the boundary, where `+= ε` would widen the
                // window beyond ε.)
                let new_boundary = rep.local_tail + self.epsilon;
                self.state
                    .flush_boundary
                    // ord: Release — reserve_admitted's Acquire must see the
                    // durable checkpoint this boundary is sized against.
                    .store(new_boundary, Ordering::Release);
                // Entries below both persistent tails can never be needed by
                // recovery again; let the durable log image reclaim them.
                if self.state.durability == DurabilityLevel::Durable {
                    let min_tail = self.replicas[0].local_tail.min(self.replicas[1].local_tail);
                    self.state.log_image.retain_from(&rt, min_tail);
                }
                progressed = true;
            }

            if progressed {
                w.reset();
            } else {
                // Idle: `Waiter`'s spin → yield → 50 µs cadence, except that
                // `nudge_checkpoint` can cut the 50 µs short.
                w.wait_unparkable();
            }
        }
    }
}

/// Spawns the persistence thread. Returns its join handle; it exits when
/// `state.stop` is raised.
pub(crate) fn spawn_persistence_thread<T: SequentialObject>(
    task: PersistenceTask<T>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("prep-persistence".into())
        .spawn(move || task.run())
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

    /// Deep copies of [`Counted`] made so far.
    static CLONES: AtomicUsize = AtomicUsize::new(0);

    /// An append-only log whose every deep copy is counted.
    #[derive(Debug)]
    struct Counted(Vec<u64>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Counted(self.0.clone())
        }
    }

    impl SequentialObject for Counted {
        type Op = u64;
        type Resp = ();

        fn apply(&mut self, op: &u64) {
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
    }
}
