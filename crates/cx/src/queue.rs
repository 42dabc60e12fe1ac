//! The global operation queue: CX's linearization backbone.
//!
//! An unbounded, append-only sequence of update operations. Position is
//! identity: the i-th enqueued operation is the i-th operation in the
//! linearization order, and every replica independently replays positions
//! `[applied, …)` to catch up.
//!
//! Storage is segmented: a fixed directory of lazily allocated segments, so
//! enqueue is wait-free (fetch-add + slot publish) and readers never take a
//! lock. Entries are never reclaimed during a run (replicas at arbitrary
//! positions may still need them) — matching the original's memory
//! behaviour.
//!
//! Each slot also carries the operation's **response**: the first applier to
//! win the slot's claim CAS computes and publishes the response; appliers on
//! other replicas still apply the operation (their replica needs the state
//! change) but discard their identical response — the sequential object is
//! deterministic, so all appliers compute the same one.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};

use crossbeam_utils::CachePadded;
use prep_sync::Waiter;

const SEG_SHIFT: u32 = 12;
/// Slots per segment.
const SEG_SIZE: u64 = 1 << SEG_SHIFT; // 4096
/// Maximum segments (× SEG_SIZE slots total).
const MAX_SEGS: usize = 1 << 14; // 16384 → 64M ops

const RESP_EMPTY: u8 = 0;
const RESP_CLAIMED: u8 = 1;
const RESP_READY: u8 = 2;

struct Slot<O, R> {
    // shared-line: one slot = one operation; the enqueuer/claimer pair that
    // touches these bytes also hands off `op`/`resp` on the same line, so
    // the line transfer is the protocol, not false sharing.
    ready: AtomicU8, // 0 = empty, 1 = op published
    // shared-line: same handoff line as `ready` (see above).
    resp_state: AtomicU8,
    op: UnsafeCell<Option<O>>,
    resp: UnsafeCell<Option<R>>,
}

// SAFETY: `op` is written once by the enqueuer before `ready` is released;
// `resp` is written once by the claim-CAS winner before `resp_state` is
// released to READY.
unsafe impl<O: Send, R: Send> Send for Slot<O, R> {}
// SAFETY: as for `Send`; concurrent claimers may clone `op` through `&Slot`,
// hence `O: Sync`.
unsafe impl<O: Send + Sync, R: Send> Sync for Slot<O, R> {}

struct Segment<O, R> {
    slots: Box<[Slot<O, R>]>,
}

impl<O, R> Segment<O, R> {
    fn new() -> Box<Self> {
        Box::new(Segment {
            slots: (0..SEG_SIZE)
                .map(|_| Slot {
                    ready: AtomicU8::new(0),
                    resp_state: AtomicU8::new(RESP_EMPTY),
                    op: UnsafeCell::new(None),
                    resp: UnsafeCell::new(None),
                })
                .collect(),
        })
    }
}

/// The unbounded append-only operation queue.
pub struct OpQueue<O, R> {
    // shared-line: written once per segment allocation (every SEG_SIZE
    // ops), read-mostly thereafter; the hot word `tail` below is padded.
    segs: Box<[AtomicPtr<Segment<O, R>>]>,
    tail: CachePadded<AtomicU64>,
}

impl<O: Clone, R> OpQueue<O, R> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let segs: Box<[AtomicPtr<Segment<O, R>>]> = (0..MAX_SEGS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        OpQueue {
            segs,
            tail: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of operations enqueued so far.
    pub fn len(&self) -> u64 {
        // ord: Acquire pairs with enqueue's AcqRel fetch_add release side —
        // a combiner reading len n may consume positions below n.
        self.tail.load(Ordering::Acquire)
    }

    /// True if no operation has been enqueued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn seg(&self, pos: u64) -> &Segment<O, R> {
        let si = (pos >> SEG_SHIFT) as usize;
        assert!(
            si < MAX_SEGS,
            "CX operation queue exhausted ({MAX_SEGS} segments)"
        );
        // ord: Acquire pairs with the installing CAS's Release — the
        // segment's slots are initialized before we dereference.
        let p = self.segs[si].load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: once installed, a segment is never freed until drop.
            return unsafe { &*p };
        }
        // Allocate and race to install.
        let fresh = Box::into_raw(Segment::new());
        // ord: AcqRel on success — Release publishes the fresh segment's
        // initialization, Acquire orders us after a concurrent installer;
        // Acquire on failure so the winner's segment is safe to deref.
        match self.segs[si].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: we installed it.
            Ok(_) => unsafe { &*fresh },
            Err(winner) => {
                // SAFETY: fresh was never shared.
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: winner is a valid installed segment.
                unsafe { &*winner }
            }
        }
    }

    fn slot(&self, pos: u64) -> &Slot<O, R> {
        &self.seg(pos).slots[(pos & (SEG_SIZE - 1)) as usize]
    }

    /// Appends `op`; returns its position (= linearization index).
    pub fn enqueue(&self, op: O) -> u64 {
        // ord: AcqRel — the release side publishes the position to len()
        // readers; acquire orders us after prior enqueuers so position
        // ownership is a total order.
        let pos = self.tail.fetch_add(1, Ordering::AcqRel);
        let slot = self.slot(pos);
        // SAFETY: position ownership from fetch_add; ready not yet set.
        unsafe { *slot.op.get() = Some(op) };
        // ord: Release publishes the op write above to op_at's Acquire.
        slot.ready.store(1, Ordering::Release);
        pos
    }

    /// Reads the operation at `pos`, spinning until its enqueuer published
    /// it.
    pub fn op_at(&self, pos: u64) -> O {
        let slot = self.slot(pos);
        let mut w = Waiter::new();
        // ord: Acquire pairs with enqueue's ready Release; the op write is
        // visible before we clone it.
        while slot.ready.load(Ordering::Acquire) == 0 {
            w.wait();
        }
        // SAFETY: ready (acquire) synchronizes with the enqueuer's write.
        unsafe {
            (*slot.op.get())
                .as_ref()
                .expect("ready slot without op")
                .clone()
        }
    }

    /// Attempts to claim the right to publish `pos`'s response. The single
    /// winner must follow up with [`OpQueue::publish_resp`].
    pub fn try_claim_resp(&self, pos: u64) -> bool {
        self.slot(pos)
            .resp_state
            // ord: AcqRel — Release marks the claim before the winner's
            // resp write; Acquire (both outcomes) orders claimants so the
            // loser does not touch the slot.
            .compare_exchange(
                RESP_EMPTY,
                RESP_CLAIMED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Publishes the response for `pos` (claim winner only).
    pub fn publish_resp(&self, pos: u64, resp: R) {
        let slot = self.slot(pos);
        // ord: debug sanity read of our own claimed slot.
        debug_assert_eq!(slot.resp_state.load(Ordering::Relaxed), RESP_CLAIMED);
        // SAFETY: exclusive via the claim CAS.
        unsafe { *slot.resp.get() = Some(resp) };
        // ord: Release publishes the resp write to resp_ready's Acquire.
        slot.resp_state.store(RESP_READY, Ordering::Release);
    }

    /// True once `pos`'s response is published.
    pub fn resp_ready(&self, pos: u64) -> bool {
        // ord: Acquire pairs with publish_resp's Release; once READY the
        // response value is visible to take_resp.
        self.slot(pos).resp_state.load(Ordering::Acquire) == RESP_READY
    }

    /// Takes the response of `pos` (its enqueuer only, once, after
    /// [`OpQueue::resp_ready`]).
    pub fn take_resp(&self, pos: u64) -> R {
        let slot = self.slot(pos);
        debug_assert!(self.resp_ready(pos));
        // SAFETY: READY (acquire) synchronizes with the publisher; only the
        // enqueuer takes.
        unsafe { (*slot.resp.get()).take().expect("response taken twice") }
    }
}

impl<O: Clone, R> Default for OpQueue<O, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O, R> Drop for OpQueue<O, R> {
    fn drop(&mut self) {
        for s in self.segs.iter() {
            // ord: &mut self in drop — no concurrent installers remain.
            let p = s.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: exclusive in drop; segments were Box-allocated.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn enqueue_assigns_dense_positions() {
        let q: OpQueue<u64, u64> = OpQueue::new();
        assert!(q.is_empty());
        for i in 0..100u64 {
            assert_eq!(q.enqueue(i * 2), i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100u64 {
            assert_eq!(q.op_at(i), i * 2);
        }
    }

    #[test]
    fn response_claim_has_single_winner() {
        let q: OpQueue<u64, u64> = OpQueue::new();
        let pos = q.enqueue(5);
        assert!(q.try_claim_resp(pos));
        assert!(!q.try_claim_resp(pos));
        assert!(!q.resp_ready(pos));
        q.publish_resp(pos, 55);
        assert!(q.resp_ready(pos));
        assert_eq!(q.take_resp(pos), 55);
    }

    #[test]
    fn crosses_segment_boundaries() {
        let q: OpQueue<u64, ()> = OpQueue::new();
        let n = SEG_SIZE * 2 + 10;
        for i in 0..n {
            q.enqueue(i);
        }
        assert_eq!(q.op_at(SEG_SIZE - 1), SEG_SIZE - 1);
        assert_eq!(q.op_at(SEG_SIZE), SEG_SIZE);
        assert_eq!(q.op_at(n - 1), n - 1);
    }

    #[test]
    fn concurrent_enqueues_get_unique_positions_and_ops_survive() {
        const THREADS: u64 = 4;
        const PER: u64 = 2000;
        let q: Arc<OpQueue<u64, ()>> = Arc::new(OpQueue::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut pos = Vec::new();
                    for i in 0..PER {
                        pos.push((q.enqueue(t << 32 | i), t << 32 | i));
                    }
                    pos
                })
            })
            .collect();
        let mut all: Vec<(u64, u64)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        for (i, (pos, val)) in all.iter().enumerate() {
            assert_eq!(*pos, i as u64, "positions must be dense");
            assert_eq!(q.op_at(*pos), *val, "op readable at its position");
        }
    }

    #[test]
    fn concurrent_claims_yield_exactly_one_winner_per_position() {
        let q: Arc<OpQueue<u64, u64>> = Arc::new(OpQueue::new());
        for i in 0..500u64 {
            q.enqueue(i);
        }
        let winners: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut won = 0u64;
                    for pos in 0..500u64 {
                        if q.try_claim_resp(pos) {
                            q.publish_resp(pos, pos);
                            won += 1;
                        }
                    }
                    won
                })
            })
            .collect();
        let total: u64 = winners.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 500, "every position claimed exactly once");
    }
}
