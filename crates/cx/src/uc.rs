//! The CX universal construction proper.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use prep_pmem::PmemRuntime;
use prep_seqds::SequentialObject;
use prep_sync::{SeqVersion, StrongTryRwLock, Waiter};

use crate::queue::OpQueue;

/// Configuration for [`CxUc`].
#[derive(Debug, Clone)]
pub struct CxConfig {
    /// Number of replicas. The original uses `2n` for wait-freedom with `n`
    /// threads; [`CxConfig::for_threads`] sets that.
    pub replicas: usize,
    /// `Some(runtime)` → CX-PUC: persist the queue entry at enqueue and
    /// flush the **whole replica** (one async flush per live cache line +
    /// fence) after every update session. `None` → volatile CX-UC.
    pub persistence: Option<Arc<PmemRuntime>>,
    /// Read-indicator stripes per replica lock, matching the reference CX's
    /// per-thread read indicators: readers of the same replica land on
    /// distinct cachelines instead of funneling through one counter.
    /// [`CxConfig::volatile`]/[`CxConfig::persistent`] set one per thread.
    pub reader_slots: usize,
}

impl CxConfig {
    /// Volatile CX-UC with the canonical 2n replicas.
    pub fn volatile(threads: usize) -> Self {
        CxConfig {
            replicas: 2 * threads.max(1),
            persistence: None,
            reader_slots: threads.max(1),
        }
    }

    /// CX-PUC with the canonical 2n replicas.
    pub fn persistent(threads: usize, rt: Arc<PmemRuntime>) -> Self {
        CxConfig {
            replicas: 2 * threads.max(1),
            persistence: Some(rt),
            reader_slots: threads.max(1),
        }
    }

    /// Overrides the replica count (builder style).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(2);
        self
    }

    /// Overrides the read-indicator stripe count (builder style).
    pub fn with_reader_slots(mut self, slots: usize) -> Self {
        self.reader_slots = slots.max(1);
        self
    }
}

struct CxReplica<T: SequentialObject> {
    /// The object plus how many queue positions it has applied. Both live
    /// under the strong try lock.
    state: StrongTryRwLock<ReplicaState<T>>,
    /// Logical NVM address range this replica occupies (sanitizer identity;
    /// allocated only when persistence is on).
    psan_region: Option<prep_pmem::psan::Region>,
    /// Seqlock version bracketing every replay session, so optimistic
    /// readers detect an overlapping writer and discard their reads.
    version: SeqVersion,
}

struct ReplicaState<T> {
    ds: T,
    applied: u64,
}

/// CX-UC / CX-PUC (see crate docs).
pub struct CxUc<T: SequentialObject> {
    queue: OpQueue<T::Op, T::Resp>,
    replicas: Box<[CxReplica<T>]>,
    latest: CachePadded<AtomicU64>,
    persistence: Option<Arc<PmemRuntime>>,
    /// Round-robin hint so threads scatter across replicas.
    next_hint: CachePadded<AtomicU64>,
    /// Validated optimistic fast-path reads. CX's read interface carries no
    /// registered identity, so (unlike NR's per-slot counters) this is one
    /// shared RMW per optimistic read — still strictly cheaper than the two
    /// stripe RMWs (mark + unmark) the locked path pays.
    read_fast_optimistic: CachePadded<AtomicU64>,
    /// Optimistic reads that failed seqlock validation.
    read_validation_failures: CachePadded<AtomicU64>,
    _marker: UnsafeCell<()>,
}

// SAFETY: interior state is behind locks/atomics; the UnsafeCell marker
// carries no data.
unsafe impl<T: SequentialObject> Sync for CxUc<T> {}
unsafe impl<T: SequentialObject> Send for CxUc<T> {}

impl<T: SequentialObject> CxUc<T> {
    /// Builds the construction: `config.replicas` copies of `obj`.
    pub fn new(obj: T, config: CxConfig) -> Self {
        assert!(config.replicas >= 2, "CX needs at least two replicas");
        let replicas: Box<[CxReplica<T>]> = (0..config.replicas)
            .map(|_| CxReplica {
                state: StrongTryRwLock::with_reader_slots(
                    ReplicaState {
                        ds: obj.clone_object(),
                        applied: 0,
                    },
                    config.reader_slots,
                ),
                psan_region: config
                    .persistence
                    .as_ref()
                    .map(|rt| rt.psan_region("cxReplica", 1 << 40)),
                version: SeqVersion::new(),
            })
            .collect();
        CxUc {
            queue: OpQueue::new(),
            replicas,
            latest: CachePadded::new(AtomicU64::new(0)),
            persistence: config.persistence,
            next_hint: CachePadded::new(AtomicU64::new(0)),
            read_fast_optimistic: CachePadded::new(AtomicU64::new(0)),
            read_validation_failures: CachePadded::new(AtomicU64::new(0)),
            _marker: UnsafeCell::new(()),
        }
    }

    /// Number of replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Executes `op` with linearizable (CX-PUC: durable) semantics.
    pub fn execute(&self, op: T::Op) -> T::Resp {
        if T::is_read_only(&op) {
            self.execute_readonly(op)
        } else {
            self.execute_update(op)
        }
    }

    fn execute_update(&self, op: T::Op) -> T::Resp {
        // 1. Linearize: append to the global queue. CX-PUC persists the
        //    entry (one line flush + fence) before proceeding.
        let pos = self.queue.enqueue(op);
        if let Some(rt) = &self.persistence {
            rt.clflushopt();
            rt.sfence();
        }

        // 2. Apply: claim some replica in write mode and replay the queue
        //    through our position. Another thread may beat us to it (its
        //    replay covers our op), in which case our response shows up
        //    without us holding any lock.
        let mut w = Waiter::new();
        // ord: round-robin scan-start hint; only RMW atomicity matters.
        let start = self.next_hint.fetch_add(1, Ordering::Relaxed) as usize;
        loop {
            if self.queue.resp_ready(pos) {
                return self.queue.take_resp(pos);
            }
            for k in 0..self.replicas.len() {
                let i = (start + k) % self.replicas.len();
                let Some(mut guard) = self.replicas[i].state.try_write() else {
                    continue;
                };
                if guard.applied > pos {
                    // Already past us: someone else computed our response.
                    drop(guard);
                    break;
                }
                // Bracket the replay with the replica's seqlock version so
                // optimistic readers discard anything they saw mid-replay.
                self.replicas[i].version.write_begin();
                self.replay_through(&mut guard, pos);
                self.replicas[i].version.write_end();
                // 3. CX-PUC: persist the *entire* replica before the ops it
                //    just absorbed may complete.
                if let Some(rt) = &self.persistence {
                    const SITE: &str = "CxUc::execute_update";
                    let bytes = guard.ds.approx_bytes();
                    let region = self.replicas[i].psan_region.expect("region set with rt");
                    // Replay mutated the replica (a zero-op replay still
                    // rewrites `applied`), so record the store before the
                    // whole-replica flush.
                    rt.trace_store(region.base, bytes.max(1), SITE);
                    rt.flush_range(region.base, bytes, SITE);
                    rt.sfence();
                }
                let applied = guard.applied;
                drop(guard);
                // 4. Publish as most-up-to-date (CAS-max by applied count).
                self.publish_latest(i as u64, applied);
                break;
            }
            if self.queue.resp_ready(pos) {
                return self.queue.take_resp(pos);
            }
            w.wait();
        }
    }

    /// Replays queue positions `[state.applied, pos]` onto the replica,
    /// publishing each position's response if unclaimed.
    fn replay_through(&self, state: &mut ReplicaState<T>, pos: u64) {
        while state.applied <= pos {
            let p = state.applied;
            let op = self.queue.op_at(p);
            let resp = state.ds.apply(&op);
            if self.queue.try_claim_resp(p) {
                self.queue.publish_resp(p, resp);
            }
            state.applied += 1;
        }
    }

    fn publish_latest(&self, replica: u64, applied: u64) {
        // latest packs (applied count, replica id) so CAS-max keeps the
        // most-advanced replica: high 48 bits = applied, low 16 = replica.
        debug_assert!(replica < (1 << 16));
        let packed = (applied << 16) | replica;
        // ord: optimistic snapshot; the CAS below revalidates it.
        let mut cur = self.latest.load(Ordering::Relaxed);
        while packed > cur {
            // ord: AcqRel on success — Release publishes the replica state
            // replayed under the write lock before readers route to it;
            // Relaxed on failure, the retry only feeds the next attempt.
            match self.latest.compare_exchange_weak(
                cur,
                packed,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    fn execute_readonly(&self, op: T::Op) -> T::Resp {
        let mut w = Waiter::new();
        // The response must reflect every operation completed before this
        // invocation; all of those are covered by `latest` at snapshot time.
        // ord: Acquire pairs with publish_latest's Release — the floor
        // covers every operation completed before this invocation.
        let floor = self.latest.load(Ordering::Acquire) >> 16;
        loop {
            // ord: Acquire — the routed-to replica's replayed state is
            // visible (with the lock's own ordering as a second fence).
            let packed = self.latest.load(Ordering::Acquire);
            let replica = (packed & 0xffff) as usize;
            if let Some(resp) = self.read_optimistic(replica, floor, &op) {
                return resp;
            }
            if let Some(guard) = self.replicas[replica].state.try_read() {
                if guard.applied >= floor {
                    return guard.ds.apply_readonly(&op);
                }
            }
            w.wait();
        }
    }

    /// Seqlock-validated lock-free read against replica `i`: accepted only
    /// if the replica covered `floor` and no replay session overlapped.
    /// `None` falls back to the strong-try read lock (bounded: the caller
    /// tries the lock in the same loop iteration).
    fn read_optimistic(&self, i: usize, floor: u64, op: &T::Op) -> Option<T::Resp> {
        let replica = &self.replicas[i];
        let snap = replica.version.read_begin()?;
        let mut out = None;
        // SAFETY: seqlock bracket — `snap` was even and `validate` below
        // rejects the result if any replay session overlapped these
        // unsynchronized reads; a torn `applied`/`ds` is discarded
        // unobserved (see DESIGN.md "Why optimistic reads are safe").
        unsafe {
            replica.state.peek(|state| {
                if state.applied >= floor {
                    out = Some(state.ds.apply_readonly(op));
                }
            });
        }
        if !replica.version.validate(snap) {
            self.read_validation_failures
                // ord: failure-path statistic; this path falls back to a
                // real lock acquisition anyway.
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if out.is_some() {
            // ord: statistics counter (see field docs for why CX pays an
            // RMW here where NR does not).
            self.read_fast_optimistic.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Validated optimistic fast-path reads (diagnostic).
    pub fn read_fast_optimistic(&self) -> u64 {
        // ord: statistics counter.
        self.read_fast_optimistic.load(Ordering::Relaxed)
    }

    /// Optimistic reads that failed seqlock validation (diagnostic).
    pub fn read_validation_failures(&self) -> u64 {
        // ord: statistics counter.
        self.read_validation_failures.load(Ordering::Relaxed)
    }

    /// Observes the most-up-to-date replica (test/diagnostic API).
    pub fn with_latest<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let mut w = Waiter::new();
        loop {
            // ord: Acquire pairs with publish_latest's Release (see
            // execute_readonly).
            let packed = self.latest.load(Ordering::Acquire);
            let replica = (packed & 0xffff) as usize;
            if let Some(guard) = self.replicas[replica].state.try_read() {
                return f(&guard.ds);
            }
            w.wait();
        }
    }

    /// Total update operations enqueued (diagnostic).
    pub fn updates_enqueued(&self) -> u64 {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_pmem::LatencyModel;
    use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
    use prep_seqds::recorder::{Recorder, RecorderOp};

    #[test]
    fn single_thread_update_and_read() {
        let cx = CxUc::new(HashMap::new(), CxConfig::volatile(1));
        assert_eq!(cx.num_replicas(), 2);
        assert_eq!(
            cx.execute(MapOp::Insert { key: 3, value: 30 }),
            MapResp::Value(None)
        );
        assert_eq!(
            cx.execute(MapOp::Insert { key: 3, value: 33 }),
            MapResp::Value(Some(30))
        );
        assert_eq!(cx.execute(MapOp::Get { key: 3 }), MapResp::Value(Some(33)));
    }

    #[test]
    fn concurrent_updates_linearize_through_the_queue() {
        const THREADS: usize = 4;
        const PER: u64 = 300;
        let cx = Arc::new(CxUc::new(Recorder::new(), CxConfig::volatile(THREADS)));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cx = Arc::clone(&cx);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        cx.execute(RecorderOp::Record((t as u64) << 32 | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cx.updates_enqueued(), THREADS as u64 * PER);
        cx.with_latest(|r| {
            // The latest replica may lag behind the queue only by ops still
            // in flight; after joins, at least every *completed* op is
            // there. All ops completed → full history, per-thread FIFO.
            assert_eq!(r.count(), THREADS as u64 * PER);
            let mut next = [0u64; THREADS];
            for id in r.history() {
                let t = (id >> 32) as usize;
                assert_eq!(id & 0xffff_ffff, next[t]);
                next[t] += 1;
            }
        });
    }

    #[test]
    fn reads_see_completed_updates() {
        let cx = Arc::new(CxUc::new(Recorder::new(), CxConfig::volatile(2)));
        let cx2 = Arc::clone(&cx);
        let writer = std::thread::spawn(move || {
            for i in 0..200u64 {
                cx2.execute(RecorderOp::Record(i));
            }
        });
        writer.join().unwrap();
        match cx.execute(RecorderOp::Count) {
            prep_seqds::recorder::RecorderResp::Count(c) => assert_eq!(c, 200),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn persistent_mode_charges_whole_replica_flushes() {
        let rt = PmemRuntime::for_benchmarks(LatencyModel::off());
        let cx = CxUc::new(HashMap::new(), CxConfig::persistent(1, Arc::clone(&rt)));
        for k in 0..50u64 {
            cx.execute(MapOp::Insert { key: k, value: k });
        }
        let s = rt.stats().snapshot();
        // Per update: ≥1 flush for the queue entry + many for the replica.
        assert!(s.clflushopt > 100, "whole-replica flushes missing: {s:?}");
        assert!(s.sfence >= 100, "two fences per update expected: {s:?}");
    }

    #[test]
    fn optimistic_reads_served_and_counted() {
        let cx = CxUc::new(HashMap::new(), CxConfig::volatile(2));
        for k in 0..20u64 {
            cx.execute(MapOp::Insert {
                key: k,
                value: k * 10,
            });
        }
        for k in 0..20u64 {
            assert_eq!(
                cx.execute(MapOp::Get { key: k }),
                MapResp::Value(Some(k * 10))
            );
        }
        assert_eq!(
            cx.read_fast_optimistic(),
            20,
            "quiescent reads must all take the optimistic path"
        );
        assert_eq!(cx.read_validation_failures(), 0);
    }

    #[test]
    fn optimistic_reads_race_writers_consistently() {
        const THREADS: usize = 3;
        const PER: u64 = 400;
        let cx = Arc::new(CxUc::new(Recorder::new(), CxConfig::volatile(THREADS + 1)));
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let cx = Arc::clone(&cx);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        cx.execute(RecorderOp::Record((t as u64) << 32 | i));
                    }
                })
            })
            .collect();
        // Reader races the writers: counts must be monotone (a validated
        // optimistic read observing a torn replay would break this).
        let mut last = 0u64;
        for _ in 0..2000 {
            match cx.execute(RecorderOp::Count) {
                prep_seqds::recorder::RecorderResp::Count(c) => {
                    assert!(c >= last, "count went backwards: {c} < {last}");
                    last = c;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        for h in writers {
            h.join().unwrap();
        }
        match cx.execute(RecorderOp::Count) {
            prep_seqds::recorder::RecorderResp::Count(c) => {
                assert_eq!(c, THREADS as u64 * PER)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replica_count_override() {
        let cx = CxUc::new(Recorder::new(), CxConfig::volatile(8).with_replicas(3));
        assert_eq!(cx.num_replicas(), 3);
        cx.execute(RecorderOp::Record(1));
        cx.with_latest(|r| assert_eq!(r.count(), 1));
    }
}
