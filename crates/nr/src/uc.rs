//! The node-replication universal construction.

use prep_sync::cell::{AtomicBool, Ordering};

use crossbeam_utils::CachePadded;

use prep_seqds::SequentialObject;
use prep_sync::{ReaderId, TicketLock, Waiter};
use prep_topology::ThreadAssignment;

use crate::hooks::{NoopHooks, NrHooks};
use crate::log::Log;
use crate::replica::{Replica, SLOT_DONE, SLOT_EMPTY, SLOT_PENDING};
use crate::FairnessMode;

/// A registered worker's identity: its NUMA node (→ replica) and its slot in
/// that node's flat-combining batch.
///
/// Deliberately neither `Clone` nor `Copy`: a token is the exclusive
/// capability to use one batch slot, and two threads sharing a token would
/// race on it. Obtained from [`NodeReplicated::register`].
#[derive(Debug)]
pub struct ThreadToken {
    worker: usize,
    node: usize,
    slot: usize,
    /// Dedicated reader slot in the replica's distributed reader-writer
    /// lock. Allocated at registration; exclusive to this token, so a
    /// read-only fast path touches no cacheline shared with another reader.
    rslot: usize,
}

impl ThreadToken {
    /// The worker index this token was registered for.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The NUMA node (replica index) this worker operates on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// This worker's dedicated reader slot in its replica's lock.
    pub fn reader_slot(&self) -> usize {
        self.rslot
    }
}

/// NR-UC: a concurrent object built from a sequential one by node
/// replication (paper §3). With the default [`NoopHooks`] this is the
/// volatile construction (the paper's PREP-V); `prep-uc` instantiates it
/// with persistence hooks.
///
/// ```
/// use prep_nr::NodeReplicated;
/// use prep_seqds::recorder::{Recorder, RecorderOp, RecorderResp};
/// use prep_topology::Topology;
///
/// let asg = Topology::small().assign_workers(2);
/// let nr = NodeReplicated::new(Recorder::new(), asg, 64);
/// let t0 = nr.register(0);
/// assert_eq!(
///     nr.execute(&t0, RecorderOp::Record(7)),
///     RecorderResp::RecordedAt(0)
/// );
/// assert_eq!(nr.execute(&t0, RecorderOp::Count), RecorderResp::Count(1));
/// ```
pub struct NodeReplicated<T: SequentialObject, H: NrHooks<T::Op> = NoopHooks> {
    log: Log<T::Op>,
    replicas: Box<[Replica<T>]>,
    assignment: ThreadAssignment,
    beta: u64,
    hooks: H,
    /// One-shot registration flags, one per worker. Padded: workers
    /// register concurrently at startup, and an unpadded `[AtomicBool]`
    /// puts ~64 flags on one line — every registration RMW then stalls
    /// every other core's registration (misses measured 10-20x higher in
    /// `registration_land_rush`; see tests/registration_padding.rs).
    registered: Box<[CachePadded<AtomicBool>]>,
    /// FIFO reservation lock, present in [`FairnessMode::StarvationFree`].
    fair_reserve: Option<TicketLock>,
    /// The fairness mode this instance was built with; routes the read path
    /// (lock-free with a locked fallback, or always locked).
    fairness: FairnessMode,
}

impl<T: SequentialObject> NodeReplicated<T, NoopHooks> {
    /// Builds the volatile construction (PREP-V): `obj` is replicated once
    /// per populated NUMA node of `assignment`, coordinated through a log of
    /// `log_size` entries.
    pub fn new(obj: T, assignment: ThreadAssignment, log_size: u64) -> Self {
        Self::with_hooks(obj, assignment, log_size, NoopHooks)
    }
}

impl<T: SequentialObject, H: NrHooks<T::Op>> NodeReplicated<T, H> {
    /// Builds the construction with explicit persistence hooks (default
    /// [`FairnessMode::Throughput`]).
    pub fn with_hooks(obj: T, assignment: ThreadAssignment, log_size: u64, hooks: H) -> Self {
        Self::with_hooks_and_fairness(obj, assignment, log_size, hooks, FairnessMode::default())
    }

    /// Builds the construction with explicit persistence hooks and liveness
    /// mode.
    ///
    /// # Panics
    /// Panics if `log_size` is too small for deadlock-free reclamation: the
    /// ring must comfortably hold every node's in-flight batch, so we
    /// require `log_size >= 2 * (nodes + 1) * β + 2` (see
    /// `update_or_wait_on_log_min`).
    pub fn with_hooks_and_fairness(
        obj: T,
        assignment: ThreadAssignment,
        log_size: u64,
        hooks: H,
        fairness: FairnessMode,
    ) -> Self {
        let nodes = assignment.populated_nodes();
        let beta = assignment.beta() as u64;
        let min_log = 2 * (nodes as u64 + 1) * beta + 2;
        assert!(
            log_size >= min_log,
            "log_size {log_size} too small: need at least {min_log} for \
             {nodes} nodes with batch size {beta}"
        );
        // One copy per node: `obj` itself is the last one (an assignment
        // has at least one worker, so at least one populated node).
        let mut copies: Vec<T> = (1..nodes).map(|_| obj.clone_object()).collect();
        copies.push(obj);
        let replicas: Box<[Replica<T>]> = copies
            .into_iter()
            .map(|copy| Replica::new(copy, beta as usize, fairness))
            .collect();
        let registered = (0..assignment.workers())
            .map(|_| CachePadded::new(AtomicBool::new(false)))
            .collect();
        NodeReplicated {
            log: Log::new(log_size),
            replicas,
            assignment,
            beta,
            hooks,
            registered,
            fair_reserve: match fairness {
                FairnessMode::StarvationFree => Some(TicketLock::new()),
                FairnessMode::Throughput => None,
            },
            fairness,
        }
    }

    /// Registers worker `worker` (an index into the assignment), returning
    /// its token. Each worker may register exactly once.
    ///
    /// # Panics
    /// Panics on out-of-range or duplicate registration.
    pub fn register(&self, worker: usize) -> ThreadToken {
        assert!(
            worker < self.assignment.workers(),
            "worker {worker} out of range ({} workers)",
            self.assignment.workers()
        );
        // ord: AcqRel so duplicate registrations race deterministically
        // (exactly one swap sees false) and the winner's token derivation
        // is ordered after the flag for any observer of the panic path.
        let was = self.registered[worker].swap(true, Ordering::AcqRel);
        assert!(!was, "worker {worker} registered twice");
        // The batch-slot index is dense per node (0..β), so it doubles as
        // the worker's dedicated reader slot in the replica lock, which was
        // sized with β slots.
        let slot = self.assignment.slot_of(worker);
        ThreadToken {
            worker,
            node: self.assignment.node_of(worker),
            slot,
            rslot: slot,
        }
    }

    /// The paper's `ExecuteConcurrent`: runs `op` against the object with
    /// linearizable semantics and returns its response.
    pub fn execute(&self, token: &ThreadToken, op: T::Op) -> T::Resp {
        if T::is_read_only(&op) {
            self.execute_readonly(token, op)
        } else {
            self.execute_update(token, op)
        }
    }

    fn execute_update(&self, token: &ThreadToken, op: T::Op) -> T::Resp {
        let replica = &self.replicas[token.node];
        let slot = &replica.slots[token.slot];
        // ord: debug sanity read of our own slot; no synchronization.
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_EMPTY);
        // Publish the operation in our batch slot.
        // SAFETY: we own the slot while it is EMPTY.
        unsafe { *slot.op.get() = Some(op) };
        // ord: Release publishes the op write above to the combiner's
        // Acquire scan.
        slot.state.store(SLOT_PENDING, Ordering::Release);

        let mut w = Waiter::new();
        loop {
            // ord: Acquire pairs with the combiner's DONE Release; the resp
            // write is visible before we take it.
            if slot.state.load(Ordering::Acquire) == SLOT_DONE {
                // SAFETY: DONE (acquire) synchronizes with the combiner's
                // resp write; the slot is ours again.
                let resp = unsafe { (*slot.resp.get()).take() }.expect("combiner left no resp");
                // ord: Release returns the slot: our resp take is ordered
                // before the next PENDING publisher's Acquire.
                slot.state.store(SLOT_EMPTY, Ordering::Release);
                return resp;
            }
            if let Some(_guard) = replica.combiner.try_lock() {
                // We are the combiner for this node.
                self.combine(token.node);
                // Our own PENDING slot was part of the batch (or a previous
                // combiner already completed it); re-check DONE.
                continue;
            }
            w.wait();
        }
    }

    /// The combiner: collects this node's pending batch, appends it to the
    /// log, brings the local replica up to date, and delivers responses.
    ///
    /// Caller must hold `replicas[node]`'s combiner lock.
    fn combine(&self, node: usize) {
        let replica = &self.replicas[node];

        // 1. Collect the batch.
        let mut slot_ids: Vec<usize> = Vec::with_capacity(replica.slots.len());
        let mut ops: Vec<T::Op> = Vec::with_capacity(replica.slots.len());
        for (i, s) in replica.slots.iter().enumerate() {
            // ord: Acquire pairs with the owner's PENDING Release; the op
            // write is visible before the combiner takes it.
            if s.state.load(Ordering::Acquire) == SLOT_PENDING {
                // SAFETY: PENDING (acquire) synchronizes with the owner's op
                // write; the combiner takes ownership of the op.
                let op = unsafe { (*s.op.get()).take() }.expect("PENDING slot without op");
                slot_ids.push(i);
                ops.push(op);
            }
        }
        if ops.is_empty() {
            return;
        }
        let n = ops.len() as u64;

        // 2. Reserve log entries (gated by the flush boundary, and running
        //    the logMin reclamation protocol).
        let start = self.reserve(n, node);
        let end = start + n;

        // 3. Write payloads; persist them (durable); persist the published
        //    state (durable); only then publish. §4.1 "Operation Log". Ops
        //    are *moved* into the log — the log is the single home of the
        //    batch from here on; step 4 applies it from the log slots, and
        //    the durable hook reads back the entries it needs via `op_at`.
        //
        //    The durable publish persistence MUST precede the volatile
        //    publish: the moment an emptyBit is set, any combiner on any
        //    node can apply the entry and CAS `completedTail` past it —
        //    and then durably publish that completedTail, covering an
        //    entry whose emptyBit this thread has flushed but not yet
        //    fenced (a crash there loses a covered entry). Publishing last
        //    closes the window; the ordering sanitizer caught the original
        //    race live (rule 2, tail-before-entry).
        for (k, op) in ops.into_iter().enumerate() {
            // SAFETY: we reserved [start, end); the logMin protocol ran in
            // `reserve`, so these slots are reusable.
            unsafe { self.log.write_payload(start + k as u64, op) };
        }
        self.hooks.persist_batch_payload(start..end);
        self.hooks
            // SAFETY: (closure) we own [start, end) and wrote every payload
            // above, so reading our own still-unpublished entries is race-free.
            .persist_batch_published(start..end, &|idx| unsafe { self.log.read_own_payload(idx) });
        for k in 0..n {
            // SAFETY: payload written above.
            unsafe { self.log.publish(start + k) };
        }

        // 4. Bring the local replica up to date through `end`, recording
        //    responses for our own batch (applied from the log slots).
        replica.write_with(|ds| {
            // ord: Acquire pairs with local_tail Release stores: entries
            // below `from` were applied before we resume from there.
            let from = replica.local_tail.load(Ordering::Acquire);
            debug_assert!(
                from <= start,
                "replica applied our batch before we combined it"
            );
            // Foreign entries first (responses belong to other nodes).
            self.log.for_each_op(from, start, |_, op| {
                ds.apply(op);
            });
            // Our batch, capturing responses.
            self.log.for_each_op(start, end, |idx, op| {
                let resp = ds.apply(op);
                let s = &replica.slots[slot_ids[(idx - start) as usize]];
                // SAFETY: between PENDING and DONE the combiner owns the
                // slot's resp field.
                unsafe { *s.resp.get() = Some(resp) };
            });
            // ord: Release publishes the replica state just applied;
            // readers gate on local_tail >= completedTail snapshot.
            replica.local_tail.store(end, Ordering::Release);
        });

        // 5. Advance completedTail; make it durable before releasing any
        //    response (durable mode).
        self.log.advance_completed_tail(end);
        self.hooks.ensure_completed_tail_durable(end);

        // 6. Release responses.
        for &slot_i in &slot_ids {
            replica.slots[slot_i]
                .state
                // ord: Release publishes the resp write to the owner's
                // Acquire poll.
                .store(SLOT_DONE, Ordering::Release);
        }
    }

    /// Algorithm 4: reserve `n` entries, blocking at the flush boundary.
    fn reserve(&self, n: u64, node: usize) -> u64 {
        // Starvation-free mode serializes reservations through a FIFO
        // ticket lock (§4.2: "Replacing the CAS with a fair lock would
        // allow for starvation-free update operations"). The ticket only
        // covers the gate + CAS; logMin maintenance happens after release
        // so waiting on a straggler replica cannot block other reservers.
        // lock-level: 2 the reservation gate is only ever taken by a
        // combiner that already holds its replica's combiner lock (level
        // 1), so combiner -> reserve-gate is the one global order; its
        // TicketLock type otherwise defaults to level 0 (nothing held)
        let fair_guard = self.fair_reserve.as_ref().map(|l| l.lock());
        let mut w = Waiter::new();
        let tail = loop {
            let tail = self.log.log_tail();
            // Gate: PREP refuses admission while the persistence thread has
            // not yet persisted up to the flush boundary. While waiting we
            // hold our replica's combiner lock, so we must keep servicing
            // updateReplicaNow requests — a logMin updater may need *our*
            // replica to advance before the boundary can move.
            if !self.hooks.reserve_admitted(tail) {
                // ord: Acquire/Release handshake on updateReplicaNow — see
                // advance_log_min's straggler help protocol.
                if self.replicas[node].update_now.load(Ordering::Acquire) {
                    self.update_replica_to(node, self.log.completed_tail());
                    self.replicas[node]
                        .update_now
                        // ord: Release acknowledges the help request with
                        // the catch-up visible.
                        .store(false, Ordering::Release);
                }
                w.wait();
                continue;
            }
            if self.log.try_reserve(tail, n) {
                break tail;
            }
            debug_assert!(fair_guard.is_none(), "ticketed CAS cannot lose");
            w.wait();
        };
        drop(fair_guard);
        self.update_or_wait_on_log_min(tail, tail + n, node);
        tail
    }

    /// Algorithm 3: make sure `[tail, new_tail)` is safe to write, advancing
    /// `logMin` if our reservation crossed the lowMark, or waiting (and
    /// helping our own replica) otherwise.
    fn update_or_wait_on_log_min(&self, tail: u64, new_tail: u64, node: usize) {
        let beta = self.beta;
        let low_mark = self.log.log_min().saturating_sub(beta);
        if new_tail <= low_mark {
            return;
        }
        if tail <= low_mark {
            // Our reservation contains the lowMark entry: we advance logMin.
            self.advance_log_min(new_tail, node);
        } else {
            // Someone earlier owns the lowMark; wait for logMin to advance,
            // helping our own replica if asked to (Algorithm 3, else-branch).
            let mut w = Waiter::new();
            while self.log.log_min().saturating_sub(beta) < new_tail {
                // ord: Acquire/Release handshake on updateReplicaNow — see
                // advance_log_min's straggler help protocol.
                if self.replicas[node].update_now.load(Ordering::Acquire) {
                    self.update_replica_to(node, self.log.completed_tail());
                    self.replicas[node]
                        .update_now
                        // ord: Release acknowledges the help request with
                        // the catch-up visible.
                        .store(false, Ordering::Release);
                }
                w.wait();
            }
        }
    }

    fn advance_log_min(&self, new_tail: u64, node: usize) {
        let size = self.log.size();
        let mut outer = Waiter::new();
        loop {
            let log_min = self.log.log_min();
            if log_min.saturating_sub(self.beta) >= new_tail {
                return;
            }
            let low_mark = log_min.saturating_sub(self.beta);
            // Scan every localTail: volatile replicas then persistent ones.
            let mut lowest = u64::MAX;
            let mut who = 0usize;
            for (i, r) in self.replicas.iter().enumerate() {
                let lt = r.local_tail();
                if lt < lowest {
                    lowest = lt;
                    who = i;
                }
            }
            let ptails = self.hooks.persistent_tails();
            for (j, &lt) in ptails.iter().enumerate() {
                if lt < lowest {
                    lowest = lt;
                    who = self.replicas.len() + j;
                }
            }

            if lowest + size - 1 == log_min {
                // The straggler hasn't moved since logMin was last advanced:
                // help it (Algorithm 3).
                if who >= self.replicas.len() {
                    // A persistence-only replica: ask PREP to persist-and-
                    // swap early by lowering the flush boundary.
                    self.hooks
                        .help_persistent_straggler(who - self.replicas.len(), low_mark);
                    outer.wait();
                } else if who == node {
                    // Our own replica is the straggler; we hold its combiner
                    // lock, so update it directly. completedTail never
                    // covers our still-unwritten reservation, so this cannot
                    // consume our own pending batch.
                    self.update_replica_to(node, self.log.completed_tail());
                    outer.wait();
                } else {
                    // Another node's replica: raise its updateReplicaNow
                    // flag and wait; if its threads are idle, help remotely
                    // under its combiner lock (safe: holding the combiner
                    // lock proves no combine is in flight there, and we only
                    // apply published entries up to completedTail).
                    let straggler = &self.replicas[who];
                    // ord: Release so the straggler's Acquire load of the
                    // flag also sees the log state that made helping
                    // necessary.
                    straggler.update_now.store(true, Ordering::Release);
                    let baseline = lowest;
                    let mut w = Waiter::new();
                    while straggler.local_tail() == baseline && self.log.completed_tail() > baseline
                    {
                        if w.is_contended() {
                            if let Some(_guard) = straggler.combiner.try_lock() {
                                self.update_replica_to(who, self.log.completed_tail());
                            }
                        }
                        w.wait();
                    }
                    // ord: Release clears the request after the straggler
                    // moved (or was helped remotely).
                    straggler.update_now.store(false, Ordering::Release);
                }
                continue;
            }

            self.log.set_log_min(lowest + size - 1);
            // Loop: recompute — one advance may not cover new_tail.
        }
    }

    /// Applies published log entries `[localTail, to)` to `node`'s replica.
    ///
    /// Caller must hold the replica's combiner lock.
    fn update_replica_to(&self, node: usize, to: u64) {
        let replica = &self.replicas[node];
        // Already there: skip the lock and the version bump a no-op write
        // bracket would cost optimistic readers.
        if replica.local_tail() >= to {
            return;
        }
        replica.write_with(|ds| {
            // ord: Acquire pairs with local_tail Release stores (resume
            // point covers all prior applications).
            let from = replica.local_tail.load(Ordering::Acquire);
            if from >= to {
                return;
            }
            self.log.for_each_op(from, to, |_, op| {
                ds.apply(op);
            });
            // ord: Release publishes the applied state with the new tail.
            replica.local_tail.store(to, Ordering::Release);
        });
    }

    fn execute_readonly(&self, token: &ThreadToken, op: T::Op) -> T::Resp {
        let replica = &self.replicas[token.node];
        // Snapshot completedTail at invocation: the response must reflect at
        // least every operation completed before this read began (§3).
        let ct = self.log.completed_tail();
        // Fast path: the replica has already applied everything this read
        // must observe. (The `local_tail` Acquire load also guarantees the
        // version word below is at least the bracket that published that
        // tail — see DESIGN.md "Why optimistic reads are safe".)
        if replica.local_tail() >= ct {
            return self.read_caught_up(replica, token.rslot, &op);
        }
        // Slow path: the replica is behind. This path writes shared state
        // anyway (combiner lock, log application), so one more counter bump
        // costs nothing and makes the fast-path hit rate bench-visible.
        // ord: statistics counter; read only by tests/benches after join.
        replica.read_slow.fetch_add(1, Ordering::Relaxed);
        let mut w = Waiter::new();
        loop {
            if replica.local_tail() >= ct {
                // The replica just advanced, so a combiner is at work on it:
                // a lock-free read would likely fail validation. Lock.
                return replica.read_with(ReaderId::Slot(token.rslot), |ds| ds.apply_readonly(&op));
            }
            // Become the combiner and catch the replica up, or wait for the
            // current combiner.
            if let Some(_guard) = replica.combiner.try_lock() {
                self.update_replica_to(token.node, self.log.completed_tail());
                // ord: Release — we just serviced any pending help request
                // as a side effect of catching up.
                replica.update_now.store(false, Ordering::Release);
                continue;
            }
            w.wait();
        }
    }

    /// Serves a read-only op against a caught-up replica.
    ///
    /// [`FairnessMode::Throughput`] runs the read lock-free under the seqlock
    /// bracket — zero RMWs, zero stores to *any* shared cacheline — and on
    /// validation failure falls back to this token's dedicated reader slot,
    /// which stores to no cacheline shared with another reader.
    /// [`FairnessMode::StarvationFree`] always takes the phase-fair lock.
    fn read_caught_up(&self, replica: &Replica<T>, rslot: usize, op: &T::Op) -> T::Resp {
        if self.fairness == FairnessMode::Throughput {
            if let Some(resp) = replica.read_optimistic(|ds| ds.apply_readonly(op)) {
                replica.count_fast_optimistic(rslot);
                return resp;
            }
        }
        replica.read_with(ReaderId::Slot(rslot), |ds| ds.apply_readonly(op))
    }

    /// Current `completedTail` (used by the persistence thread and tests).
    pub fn completed_tail(&self) -> u64 {
        self.log.completed_tail()
    }

    /// The shared log (the persistence thread replays from it; recovery
    /// reads it).
    pub fn log(&self) -> &Log<T::Op> {
        &self.log
    }

    /// The persistence hooks.
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// The worker→node assignment this instance was built with.
    pub fn assignment(&self) -> &ThreadAssignment {
        &self.assignment
    }

    /// Byte address of worker `w`'s registration flag. Test-only probe:
    /// `tests/registration_padding.rs` pins the flags to distinct cache
    /// lines so concurrent registration does not false-share.
    #[doc(hidden)]
    pub fn registration_flag_addr(&self, worker: usize) -> usize {
        &*self.registered[worker] as *const AtomicBool as usize
    }

    /// Number of volatile replicas (= populated NUMA nodes).
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Batch capacity β.
    pub fn beta(&self) -> u64 {
        self.beta
    }

    /// Total read-only operations that missed the zero-contention fast path
    /// (their replica was behind `completedTail`), summed over replicas.
    pub fn read_slow_paths(&self) -> u64 {
        self.replicas
            .iter()
            // ord: statistics counter (see read_slow bump).
            .map(|r| r.read_slow.load(Ordering::Relaxed))
            .sum()
    }

    /// Total validated optimistic (lock-free) fast-path reads, summed over
    /// replicas.
    pub fn read_fast_optimistic(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.fast_optimistic_total())
            .sum()
    }

    /// Total optimistic reads that failed seqlock validation (a combiner
    /// overlapped the lock-free read), summed over replicas.
    pub fn read_validation_failures(&self) -> u64 {
        self.replicas
            .iter()
            // ord: statistics counter (see the failure-path bump).
            .map(|r| r.read_validation_failures.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of `node`'s replica-lock state words. Test-only probe for
    /// asserting the optimistic fast path stores to no lock word.
    #[doc(hidden)]
    pub fn replica_lock_state_words(&self, node: usize) -> Vec<u64> {
        self.replicas[node].rw.state_words()
    }

    /// Raw seqlock version of `node`'s replica. Test-only probe: reads must
    /// leave it unchanged.
    #[doc(hidden)]
    pub fn replica_version(&self, node: usize) -> u64 {
        self.replicas[node].version.current()
    }

    /// Runs `f` against `node`'s replica under its read lock, after
    /// bringing it up to date with `completedTail` — i.e. observes a state
    /// reflecting every completed update. Test/diagnostic API; callers have
    /// no registered identity, so the lock is taken as [`ReaderId::Shared`]
    /// (the counting overflow line).
    pub fn with_replica<R>(&self, node: usize, f: impl FnOnce(&T) -> R) -> R {
        let replica = &self.replicas[node];
        let ct = self.log.completed_tail();
        let mut f = Some(f);
        let mut w = Waiter::new();
        loop {
            if replica.local_tail() >= ct {
                return replica.read_with(ReaderId::Shared, f.take().expect("runs f once"));
            }
            if let Some(_guard) = replica.combiner.try_lock() {
                self.update_replica_to(node, self.log.completed_tail());
                continue;
            }
            w.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_seqds::recorder::{Recorder, RecorderOp, RecorderResp};
    use prep_topology::Topology;
    use std::sync::Arc;

    fn small_nr(workers: usize, log: u64) -> (Arc<NodeReplicated<Recorder>>, usize) {
        // 2 nodes × 4 cores × 1 smt → up to 7 workers across 2 nodes.
        let topo = Topology::new(2, 4, 1);
        let asg = topo.assign_workers(workers);
        let nodes = asg.populated_nodes();
        (
            Arc::new(NodeReplicated::new(Recorder::new(), asg, log)),
            nodes,
        )
    }

    #[test]
    fn single_thread_updates_and_reads() {
        let (nr, _) = small_nr(1, 64);
        let t = nr.register(0);
        for i in 0..10u64 {
            assert_eq!(
                nr.execute(&t, RecorderOp::Record(i)),
                RecorderResp::RecordedAt(i)
            );
        }
        assert_eq!(nr.execute(&t, RecorderOp::Count), RecorderResp::Count(10));
        assert_eq!(
            nr.execute(&t, RecorderOp::Last),
            RecorderResp::Last(Some(9))
        );
    }

    #[test]
    fn caught_up_reads_take_the_fast_path() {
        // Single thread: after each update completes, the local replica is
        // at completedTail, so every read must hit the zero-contention fast
        // path and the slow-path counter must stay at zero.
        let (nr, _) = small_nr(1, 64);
        let t = nr.register(0);
        assert_eq!(t.reader_slot(), 0);
        for i in 0..50u64 {
            nr.execute(&t, RecorderOp::Record(i));
            nr.execute(&t, RecorderOp::Count);
            nr.execute(&t, RecorderOp::Last);
        }
        assert_eq!(nr.read_slow_paths(), 0, "caught-up read took the slow path");
    }

    /// The tentpole invariant, end to end: a caught-up `Throughput` read
    /// performs zero atomic RMWs and zero stores to any shared
    /// cacheline — every lock state word and the version word are
    /// bit-identical across any number of reads, all of which take the
    /// optimistic fast path.
    #[test]
    fn optimistic_read_makes_no_shared_stores() {
        let topo = Topology::new(2, 4, 1);
        let asg = topo.assign_workers(1);
        let nr = NodeReplicated::with_hooks_and_fairness(
            Recorder::new(),
            asg,
            64,
            crate::NoopHooks,
            FairnessMode::Throughput,
        );
        let t = nr.register(0);
        for i in 0..10u64 {
            nr.execute(&t, RecorderOp::Record(i));
        }

        let words_before = nr.replica_lock_state_words(0);
        let version_before = nr.replica_version(0);
        assert_eq!(version_before % 2, 0, "replica stable between batches");
        const READS: u64 = 1000;
        for _ in 0..READS {
            assert_eq!(nr.execute(&t, RecorderOp::Count), RecorderResp::Count(10));
        }
        assert_eq!(
            nr.replica_lock_state_words(0),
            words_before,
            "an optimistic read stored to a lock state word"
        );
        assert_eq!(
            nr.replica_version(0),
            version_before,
            "an optimistic read bumped the version"
        );
        assert_eq!(nr.read_fast_optimistic(), READS, "reads left the fast path");
        assert_eq!(nr.read_validation_failures(), 0);
        assert_eq!(nr.read_slow_paths(), 0);
    }

    /// Writes between reads do not push later reads onto the lock: once the
    /// combiner's bracket has closed, the very next read is lock-free again.
    #[test]
    fn throughput_mode_skips_slot_rmw_in_write_free_window() {
        let (nr, _) = small_nr(1, 64);
        let t = nr.register(0);
        nr.execute(&t, RecorderOp::Record(1));
        for _ in 0..100u64 {
            nr.execute(&t, RecorderOp::Count);
        }
        assert_eq!(nr.read_fast_optimistic(), 100);
        nr.execute(&t, RecorderOp::Record(2));
        nr.execute(&t, RecorderOp::Count);
        assert_eq!(
            nr.read_fast_optimistic(),
            101,
            "read after a write left the lock-free path"
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_rejected() {
        let (nr, _) = small_nr(2, 64);
        let _a = nr.register(0);
        let _b = nr.register(0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_log_rejected() {
        let topo = Topology::new(2, 4, 1);
        let asg = topo.assign_workers(7);
        let _ = NodeReplicated::new(Recorder::new(), asg, 8);
    }

    #[test]
    fn concurrent_updates_all_recorded_in_log_order() {
        const THREADS: usize = 6; // spans both nodes
        const PER_THREAD: u64 = 300;
        let (nr, nodes) = small_nr(THREADS, 256);
        assert_eq!(nodes, 2);

        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let nr = Arc::clone(&nr);
                std::thread::spawn(move || {
                    let t = nr.register(w);
                    for i in 0..PER_THREAD {
                        let id = (w as u64) << 32 | i;
                        nr.execute(&t, RecorderOp::Record(id));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Every replica, once caught up, holds the same history containing
        // each id exactly once, with per-thread FIFO order.
        let reference = nr.with_replica(0, |r| r.history().to_vec());
        assert_eq!(reference.len(), THREADS * PER_THREAD as usize);
        for node in 0..nodes {
            let h = nr.with_replica(node, |r| r.history().to_vec());
            assert_eq!(h, reference, "replica {node} diverged");
        }
        let mut seen = std::collections::HashSet::new();
        let mut per_thread_next = [0u64; THREADS];
        for id in &reference {
            assert!(seen.insert(*id), "duplicate id {id:#x}");
            let w = (id >> 32) as usize;
            let seq = id & 0xffff_ffff;
            assert_eq!(
                seq, per_thread_next[w],
                "per-thread FIFO order violated for worker {w}"
            );
            per_thread_next[w] += 1;
        }
    }

    #[test]
    fn log_wraps_many_times_without_corruption() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 500;
        // Smallest admissible log for 2 nodes / β=4: 2*3*4+2 = 26 → use 32.
        let (nr, _) = small_nr(THREADS, 32);
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let nr = Arc::clone(&nr);
                std::thread::spawn(move || {
                    let t = nr.register(w);
                    for i in 0..PER_THREAD {
                        nr.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS as u64 * PER_THREAD;
        assert!(nr.log().log_tail() >= total, "all ops logged");
        let h = nr.with_replica(0, |r| r.history().to_vec());
        assert_eq!(h.len() as u64, total);
    }

    #[test]
    fn reads_observe_previously_completed_updates() {
        const THREADS: usize = 4;
        let (nr, _) = small_nr(THREADS, 128);
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let nr = Arc::clone(&nr);
                std::thread::spawn(move || {
                    let t = nr.register(w);
                    let mut mine = 0u64;
                    for i in 0..200u64 {
                        nr.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                        mine += 1;
                        // A read after my i-th completed update must observe
                        // at least i+1 updates (mine alone).
                        match nr.execute(&t, RecorderOp::Count) {
                            RecorderResp::Count(c) => {
                                assert!(c >= mine, "read missed completed updates")
                            }
                            other => panic!("unexpected resp {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn starvation_free_mode_preserves_correctness() {
        // The §4.2 liveness variant (ticketed reservations + phase-fair
        // replica locks) must produce identical semantics.
        const THREADS: usize = 5;
        const PER_THREAD: u64 = 300;
        let topo = Topology::new(2, 4, 1);
        let asg = topo.assign_workers(THREADS);
        let nr = Arc::new(NodeReplicated::with_hooks_and_fairness(
            Recorder::new(),
            asg,
            128,
            crate::NoopHooks,
            FairnessMode::StarvationFree,
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let nr = Arc::clone(&nr);
                std::thread::spawn(move || {
                    let t = nr.register(w);
                    for i in 0..PER_THREAD {
                        nr.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                        if i % 16 == 0 {
                            nr.execute(&t, RecorderOp::Count);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let hist = nr.with_replica(0, |r| r.history().to_vec());
        assert_eq!(hist.len() as u64, THREADS as u64 * PER_THREAD);
        let mut next = [0u64; THREADS];
        for id in &hist {
            let w = (id >> 32) as usize;
            assert_eq!(id & 0xffff_ffff, next[w], "FIFO violated under fairness");
            next[w] += 1;
        }
    }

    #[test]
    fn uneven_finishers_do_not_deadlock_reclamation() {
        // Node 1's single worker finishes early; node 0 keeps wrapping the
        // small log and must reclaim space via helping (remote update of the
        // idle replica), not deadlock.
        let topo = Topology::new(2, 4, 1);
        let asg = topo.assign_workers(5); // node0: 4 workers, node1: 1
        let nr = Arc::new(NodeReplicated::new(Recorder::new(), asg, 32));

        let early = {
            let nr = Arc::clone(&nr);
            std::thread::spawn(move || {
                let t = nr.register(4); // the node-1 worker
                for i in 0..5u64 {
                    nr.execute(&t, RecorderOp::Record(0xdead << 16 | i));
                }
                // ...then goes idle forever.
            })
        };
        early.join().unwrap();

        let handles: Vec<_> = (0..4)
            .map(|w| {
                let nr = Arc::clone(&nr);
                std::thread::spawn(move || {
                    let t = nr.register(w);
                    for i in 0..400u64 {
                        nr.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let h = nr.with_replica(0, |r| r.history().to_vec());
        assert_eq!(h.len(), 5 + 4 * 400);
    }
}
