//! The CX universal construction proper.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use prep_pmem::PmemRuntime;
use prep_seqds::SequentialObject;
use prep_sync::{DistRwLock, ReaderId, Waiter};

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
    /// Reader slots per replica lock, matching the reference CX's
    /// per-thread read indicators: a reader counts on slot
    /// `thread_ordinal() % reader_slots`, so readers of the same replica
    /// land on distinct cachelines instead of funneling through one
    /// counter. [`CxConfig::volatile`]/[`CxConfig::persistent`] set one per
    /// thread.
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
}

/// This thread's ordinal: threads are numbered round-robin on first use.
/// A reader counts on its replica lock's slot `ordinal % slots`.
fn thread_ordinal() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    ORDINAL.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            // ord: unique-id dispenser; atomicity of the RMW is all that
            // matters, nothing else is published with it.
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

struct CxReplica<T: SequentialObject> {
    /// The object plus how many queue positions it has applied. Both live
    /// under the replica lock: a writer claims it with the strong
    /// `try_write`, readers stripe over its `reader_slots` slots.
    state: DistRwLock<ReplicaState<T>>,
    /// Logical NVM address range this replica occupies (sanitizer identity;
    /// allocated only when persistence is on).
    psan_region: Option<prep_pmem::psan::Region>,
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
}

impl<T: SequentialObject> CxUc<T> {
    /// Builds the construction: `config.replicas` copies of `obj`.
    pub fn new(obj: T, config: CxConfig) -> Self {
        assert!(config.replicas >= 2, "CX needs at least two replicas");
        let replicas: Box<[CxReplica<T>]> = (0..config.replicas)
            .map(|_| CxReplica {
                state: DistRwLock::new(
                    ReplicaState {
                        ds: obj.clone_object(),
                        applied: 0,
                    },
                    config.reader_slots.max(1),
                ),
                psan_region: config
                    .persistence
                    .as_ref()
                    .map(|rt| rt.psan_region("cxReplica", 1 << 40)),
            })
            .collect();
        CxUc {
            queue: OpQueue::new(),
            replicas,
            latest: CachePadded::new(AtomicU64::new(0)),
            persistence: config.persistence,
            next_hint: CachePadded::new(AtomicU64::new(0)),
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
            if self.completed(pos) {
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
                self.replay_through(&mut guard, pos);
                // 3. CX-PUC: persist the *entire* replica before the ops it
                //    just absorbed may complete.
                if let Some(rt) = &self.persistence {
                    const SITE: &str = "CxUc::execute_update";
                    let bytes = guard.ds.approx_bytes();
                    let region = self.replicas[i].psan_region.expect("region set with rt");
                    // Replay mutated the replica (a zero-op replay still
                    // rewrites `applied`), so record the store before the
                    // whole-replica flush.
                    let traced = rt.trace_store(region.base, bytes.max(1), SITE);
                    rt.flush_range(region.base, bytes, SITE, &traced);
                    rt.sfence();
                }
                let applied = guard.applied;
                drop(guard);
                // 4. Publish as most-up-to-date (CAS-max by applied count).
                self.publish_latest(i as u64, applied);
                break;
            }
            if self.completed(pos) {
                return self.queue.take_resp(pos);
            }
            w.wait();
        }
    }

    /// True once `pos`'s response is published *and* the replica reads are
    /// routed to has applied it (CX's completion rule). The replayer
    /// publishes responses before it persists the replica and swings
    /// `latest`; returning on the response alone would let this thread's
    /// next read miss its own update.
    fn completed(&self, pos: u64) -> bool {
        // ord: Acquire pairs with publish_latest's Release.
        self.queue.resp_ready(pos) && self.latest.load(Ordering::Acquire) >> 16 > pos
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
        // The response must reflect every operation completed before this
        // invocation; all of those are covered by `latest` at snapshot time.
        // ord: Acquire pairs with publish_latest's Release — the floor
        // covers every operation completed before this invocation.
        let floor = self.latest.load(Ordering::Acquire) >> 16;
        self.read_latest(floor, |ds| ds.apply_readonly(&op))
    }

    /// Runs `f` under the read lock of the most-up-to-date replica, once
    /// that replica has applied at least `floor` queue positions.
    fn read_latest<R>(&self, floor: u64, f: impl FnOnce(&T) -> R) -> R {
        let mut w = Waiter::new();
        loop {
            // ord: Acquire — the routed-to replica's replayed state is
            // visible (with the lock's own ordering as a second fence).
            let packed = self.latest.load(Ordering::Acquire);
            let state = &self.replicas[(packed & 0xffff) as usize].state;
            let slot = ReaderId::Slot(thread_ordinal() % state.reader_slots());
            if let Some(guard) = state.try_read(slot) {
                if guard.applied >= floor {
                    return f(&guard.ds);
                }
            }
            w.wait();
        }
    }

    /// Observes the most-up-to-date replica (test/diagnostic API).
    pub fn with_latest<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.read_latest(0, f)
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
    fn reads_race_writers_consistently() {
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
        // Reader races the writers: counts must be monotone (a read that
        // observed a replica mid-replay would break this).
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

    /// An update completes only once the replica reads are routed to has
    /// applied it. A thread that replays another thread's operation
    /// publishes that operation's response before it persists the replica
    /// and swings `latest`; the slow fence widens that gap, so an owner
    /// that returned on the response alone would read the old `latest`.
    #[test]
    fn a_completed_update_is_visible_to_its_owners_next_read() {
        const THREADS: u64 = 2;
        let rt = PmemRuntime::for_benchmarks(LatencyModel {
            sfence_ns: 200_000,
            ..LatencyModel::off()
        });
        let cx = Arc::new(CxUc::new(
            HashMap::new(),
            CxConfig::persistent(THREADS as usize, rt),
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|key| {
                let cx = Arc::clone(&cx);
                std::thread::spawn(move || {
                    for value in 0..200u64 {
                        cx.execute(MapOp::Insert { key, value });
                        assert_eq!(
                            cx.execute(MapOp::Get { key }),
                            MapResp::Value(Some(value)),
                            "thread {key}'s read missed its own completed write"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
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
