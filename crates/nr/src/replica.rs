//! Per-node replicas and flat-combining batch slots.

use prep_sync::cell::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;
use prep_sync::{DistRwLock, PhaseFairRwLock, ReaderId, ReplicaLock, TryLock};

use crate::FairnessMode;

/// Slot states for the flat-combining protocol.
pub(crate) const SLOT_EMPTY: u8 = 0;
pub(crate) const SLOT_PENDING: u8 = 1;
pub(crate) const SLOT_DONE: u8 = 2;

/// One thread's slot in its node's flat-combining batch.
///
/// Ownership protocol:
/// * the owning worker writes `op` while the slot is `EMPTY`, then stores
///   `PENDING` (release);
/// * the combiner reads `op` after loading `PENDING` (acquire), writes
///   `resp`, then stores `DONE` (release);
/// * the owner takes `resp` after loading `DONE` (acquire) and stores
///   `EMPTY` (release), completing the cycle.
pub(crate) struct BatchSlot<O, R> {
    /// A hand-off flag, not a guard: it has no level and the held-level
    /// check does not see it. An owner waiting for `DONE` holds no lock,
    /// so that wait cannot close a cycle.
    pub(crate) state: CachePadded<AtomicU8>,
    pub(crate) op: UnsafeCell<Option<O>>,
    pub(crate) resp: UnsafeCell<Option<R>>,
}

// SAFETY: `op`/`resp` are handed off between exactly two parties with
// release/acquire ordering on `state` per the protocol above.
unsafe impl<O: Send, R: Send> Send for BatchSlot<O, R> {}
// SAFETY: see `Send` above.
unsafe impl<O: Send, R: Send> Sync for BatchSlot<O, R> {}

impl<O, R> BatchSlot<O, R> {
    fn new() -> Self {
        BatchSlot {
            state: CachePadded::new(AtomicU8::new(SLOT_EMPTY)),
            op: UnsafeCell::new(None),
            resp: UnsafeCell::new(None),
        }
    }
}

/// The combiner's batch buffers, owned under the combiner lock and reused
/// round after round: once they have grown to β entries, a combine round
/// allocates nothing.
pub(crate) struct CombineBuf<O> {
    /// The batch slot each collected op came from, in batch order.
    pub(crate) slot_ids: Vec<usize>,
    /// The collected ops; `combine` moves them into the log with `drain`.
    pub(crate) ops: Vec<O>,
}

/// A volatile replica: the sequential object plus its coordination state.
pub(crate) struct Replica<T: prep_seqds::SequentialObject> {
    /// The combiner lock (paper: a trylock; winning it makes a thread the
    /// combiner for this node), guarding the combiner's batch buffers.
    pub(crate) combiner: TryLock<CombineBuf<T::Op>>,
    /// Reader-writer lock protecting the sequential object. Which lock is
    /// behind the trait object is [`FairnessMode`]'s choice: the NR §3
    /// distributed lock (one padded reader slot per worker on this node) by
    /// default, the phase-fair lock for §4.2's starvation-free variant.
    pub(crate) rw: Box<dyn ReplicaLock<T>>,
    /// First log index not yet applied to this replica.
    pub(crate) local_tail: CachePadded<AtomicU64>,
    /// Flat-combining batch: one slot per worker on this node.
    pub(crate) slots: Box<[BatchSlot<T::Op, T::Resp>]>,
    /// `updateReplicaNow` flag (Algorithm 3): set by a combiner blocked on
    /// logMin to ask this replica's threads to bring it up to date.
    pub(crate) update_now: CachePadded<AtomicBool>,
    /// Read-only operations that missed the zero-contention fast path (the
    /// replica was behind `completedTail` at snapshot time). Bumped only on
    /// the slow path, which already writes shared state.
    pub(crate) read_slow: CachePadded<AtomicU64>,
    /// Caught-up reads per reader slot (indexed like the lock's reader
    /// slots). Each line is written only by the slot's owning worker — see
    /// [`Replica::count_read_fast`] — and read by others only for advisory
    /// aggregation.
    pub(crate) read_fast: Box<[CachePadded<AtomicU64>]>,
}

impl<T: prep_seqds::SequentialObject> Replica<T> {
    pub(crate) fn new(ds: T, beta: usize, fairness: FairnessMode) -> Self {
        let rw: Box<dyn ReplicaLock<T>> = match fairness {
            FairnessMode::Throughput => Box::new(DistRwLock::new(ds, beta)),
            FairnessMode::StarvationFree => Box::new(PhaseFairRwLock::new(ds)),
        };
        Replica {
            combiner: TryLock::new(CombineBuf {
                slot_ids: Vec::with_capacity(beta),
                ops: Vec::with_capacity(beta),
            }),
            rw,
            local_tail: CachePadded::new(AtomicU64::new(0)),
            slots: (0..beta).map(|_| BatchSlot::new()).collect(),
            update_now: CachePadded::new(AtomicBool::new(false)),
            read_slow: CachePadded::new(AtomicU64::new(0)),
            read_fast: (0..beta)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    pub(crate) fn local_tail(&self) -> u64 {
        // ord: Acquire pairs with the combiner's Release store — observing
        // tail t implies the replica state reflects every entry below t.
        self.local_tail.load(Ordering::Acquire)
    }

    /// Runs `f` with shared access to the sequential object, acquiring the
    /// replica lock as reader `id`. (`FnOnce`-over-`FnMut` adapter for the
    /// dyn-compatible [`ReplicaLock`] interface.)
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn read_with<R>(&self, id: ReaderId, f: impl FnOnce(&T) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.rw.with_read(id, &mut |ds| {
            out = Some((f.take().expect("with_read runs f once"))(ds));
        });
        out.expect("with_read ran f")
    }

    /// Runs `f` with exclusive access to the sequential object.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn write_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.rw.with_write(&mut |ds| {
            out = Some((f.take().expect("with_write runs f once"))(ds));
        });
        out.expect("with_write ran f")
    }

    /// Counts one caught-up read by the owner of reader slot `rslot`: a
    /// plain load + store on the owner's private line — no `fetch_add`, and
    /// no store to a line another reader writes.
    #[inline]
    pub(crate) fn count_read_fast(&self, rslot: usize) {
        let counter = &self.read_fast[rslot];
        // ord: single-writer statistics on the owner's private line; remote
        // aggregation (metrics) tolerates staleness.
        let v = counter.load(Ordering::Relaxed) + 1;
        // ord: single-writer statistics store (see the load above).
        counter.store(v, Ordering::Relaxed);
    }

    /// Caught-up reads served by this replica.
    pub(crate) fn read_fast_total(&self) -> u64 {
        self.read_fast
            .iter()
            // ord: advisory aggregation of single-writer counters.
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_seqds::recorder::Recorder;

    /// Layout pin: adjacent caught-up-read counters are at least a cache
    /// line apart, so each worker's count stays on its own line.
    #[test]
    fn read_fast_counters_never_share_a_cache_line() {
        let r: Replica<Recorder> = Replica::new(Recorder::new(), 2, FairnessMode::Throughput);
        let gap = r.read_fast[1..].as_ptr() as usize - r.read_fast.as_ptr() as usize;
        assert!(gap >= 64, "adjacent counters are {gap} bytes apart");
    }

    #[test]
    fn replica_initial_state() {
        let r: Replica<Recorder> = Replica::new(Recorder::new(), 4, FairnessMode::Throughput);
        assert_eq!(r.local_tail(), 0);
        assert_eq!(r.slots.len(), 4);
        assert!(!r.update_now.load(Ordering::Relaxed));
        assert!(!r.combiner.is_locked());
        assert_eq!(r.read_slow.load(Ordering::Relaxed), 0);
        for s in r.slots.iter() {
            assert_eq!(s.state.load(Ordering::Relaxed), SLOT_EMPTY);
        }
    }

    #[test]
    fn fairness_selects_reader_slot_layout() {
        let dist: Replica<Recorder> = Replica::new(Recorder::new(), 4, FairnessMode::Throughput);
        assert_eq!(dist.rw.reader_slots(), 4);
        let fair: Replica<Recorder> =
            Replica::new(Recorder::new(), 4, FairnessMode::StarvationFree);
        assert_eq!(fair.rw.reader_slots(), 0);
    }

    #[test]
    fn read_with_and_write_with_round_trip() {
        use prep_seqds::recorder::{RecorderOp, RecorderResp};
        use prep_seqds::SequentialObject;
        let r: Replica<Recorder> = Replica::new(Recorder::new(), 2, FairnessMode::Throughput);
        let resp = r.write_with(|ds| ds.apply(&RecorderOp::Record(7)));
        assert_eq!(resp, RecorderResp::RecordedAt(0));
        let seen = r.read_with(ReaderId::Slot(1), |ds| ds.apply_readonly(&RecorderOp::Last));
        assert_eq!(seen, RecorderResp::Last(Some(7)));
        let shared = r.read_with(ReaderId::Shared, |ds| ds.apply_readonly(&RecorderOp::Count));
        assert_eq!(shared, RecorderResp::Count(1));
    }
}
