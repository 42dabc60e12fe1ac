//! Workload generators matching the paper's micro-benchmarks (§6).
//!
//! * **Map workloads**: keys drawn uniformly from a range; a read
//!   percentage r means r% `Get`, with the remaining updates split evenly
//!   between `Insert` and `Remove`. Structures are prefilled to 50% of the
//!   key range ("In each test we prefill the data structure to 50%
//!   capacity").
//! * **Pair workloads** (Figures 1c, 4, 5): 100% updates, each worker
//!   alternating an add (enqueue/push) with a remove (dequeue/pop), which
//!   keeps the structure size roughly stationary.

use std::sync::Arc;

use prep_loadgen::KeySampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use prep_seqds::hashmap::{HashMap, MapOp};
use prep_seqds::pqueue::{PqOp, PriorityQueue};
use prep_seqds::queue::{Queue, QueueOp};
use prep_seqds::rbtree::RbTree;
use prep_seqds::stack::{Stack, StackOp};

/// A per-worker stream of map operations.
pub struct MapOpGen {
    rng: SmallRng,
    read_pct: u32,
    key_range: u64,
}

impl MapOpGen {
    /// Creates a generator for worker `worker` (distinct seed per worker so
    /// streams are independent but reproducible).
    pub fn new(read_pct: u32, key_range: u64, worker: usize) -> Self {
        assert!(read_pct <= 100);
        MapOpGen {
            rng: SmallRng::seed_from_u64(0x5EED_0000 + worker as u64),
            read_pct,
            key_range,
        }
    }

    /// Next operation.
    pub fn next_op(&mut self) -> MapOp {
        let roll = self.rng.gen_range(0..100);
        let key = self.rng.gen_range(0..self.key_range);
        if roll < self.read_pct {
            MapOp::Get { key }
        } else if roll % 2 == 0 {
            MapOp::Insert {
                key,
                value: key ^ 0xABCD,
            }
        } else {
            MapOp::Remove { key }
        }
    }
}

/// Per-worker update-only stream over skewed keys: alternating insert and
/// remove on keys drawn from a shared [`KeySampler`] — `prep-loadgen`'s
/// sampler, the one the serve figure and the repo benchmark draw from.
///
/// The paper's own workloads are uniform (§6: "keys were accessed according
/// to a uniform distribution"); this stream is an *extension* used by the
/// checkpoint figure's Zipfian cell, motivated by the paper's discussion of
/// NAP (§2.3), which targets Zipfian access patterns on NUMA machines.
pub struct ZipfUpdateGen {
    keys: Arc<KeySampler>,
    rng: SmallRng,
    insert_next: bool,
}

impl ZipfUpdateGen {
    /// Creates the stream for worker `worker` over the shared `keys`.
    pub fn new(keys: Arc<KeySampler>, worker: usize) -> Self {
        ZipfUpdateGen {
            keys,
            rng: SmallRng::seed_from_u64(0x21F0_5EED ^ worker as u64),
            insert_next: true,
        }
    }

    /// Next operation (alternates insert/remove).
    pub fn next_op(&mut self) -> MapOp {
        let key = self.keys.sample(&mut self.rng);
        self.insert_next = !self.insert_next;
        if !self.insert_next {
            MapOp::Insert {
                key,
                value: key ^ 0xABCD,
            }
        } else {
            MapOp::Remove { key }
        }
    }
}

/// Prefills a hashmap to 50% of `key_range` (even keys), as the paper does.
pub fn prefilled_hashmap(key_range: u64) -> HashMap {
    let mut m = HashMap::with_buckets((key_range / 2) as usize);
    for k in (0..key_range).step_by(2) {
        m.insert(k, k ^ 0xABCD);
    }
    m
}

/// Prefills a red-black tree to 50% of `key_range` (even keys).
pub fn prefilled_rbtree(key_range: u64) -> RbTree {
    let mut t = RbTree::new();
    for k in (0..key_range).step_by(2) {
        t.insert(k, k ^ 0xABCD);
    }
    t
}

/// Per-worker enqueue/dequeue pair stream for the FIFO queue (Figure 1c).
pub struct QueuePairGen {
    rng: SmallRng,
    enqueue_next: bool,
}

impl QueuePairGen {
    /// Creates the generator for worker `worker`.
    pub fn new(worker: usize) -> Self {
        QueuePairGen {
            rng: SmallRng::seed_from_u64(0xF1F0_0000 + worker as u64),
            enqueue_next: true,
        }
    }

    /// Next operation (alternates enqueue/dequeue).
    pub fn next_op(&mut self) -> QueueOp {
        self.enqueue_next = !self.enqueue_next;
        if !self.enqueue_next {
            QueueOp::Enqueue(self.rng.gen())
        } else {
            QueueOp::Dequeue
        }
    }
}

/// Prefills a FIFO queue with `items` elements.
pub fn prefilled_queue(items: u64) -> Queue {
    let mut q = Queue::new();
    for i in 0..items {
        q.enqueue(i);
    }
    q
}

/// Per-worker enqueue/dequeue pair stream for the priority queue (Fig. 4).
pub struct PqPairGen {
    rng: SmallRng,
    enqueue_next: bool,
}

impl PqPairGen {
    /// Creates the generator for worker `worker`.
    pub fn new(worker: usize) -> Self {
        PqPairGen {
            rng: SmallRng::seed_from_u64(0x9900_0000 + worker as u64),
            enqueue_next: true,
        }
    }

    /// Next operation (alternates enqueue/dequeue).
    pub fn next_op(&mut self) -> PqOp {
        self.enqueue_next = !self.enqueue_next;
        if !self.enqueue_next {
            PqOp::Enqueue(self.rng.gen())
        } else {
            PqOp::Dequeue
        }
    }
}

/// Prefills a priority queue with `items` random elements.
pub fn prefilled_pqueue(items: u64) -> PriorityQueue {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut pq = PriorityQueue::new();
    for _ in 0..items {
        pq.enqueue(rng.gen());
    }
    pq
}

/// Per-worker push/pop pair stream for the stack (Figure 5).
pub struct StackPairGen {
    rng: SmallRng,
    push_next: bool,
}

impl StackPairGen {
    /// Creates the generator for worker `worker`.
    pub fn new(worker: usize) -> Self {
        StackPairGen {
            rng: SmallRng::seed_from_u64(0x57AC_0000 + worker as u64),
            push_next: true,
        }
    }

    /// Next operation (alternates push/pop).
    pub fn next_op(&mut self) -> StackOp {
        self.push_next = !self.push_next;
        if !self.push_next {
            StackOp::Push(self.rng.gen())
        } else {
            StackOp::Pop
        }
    }
}

/// Prefills a stack with `items` elements.
pub fn prefilled_stack(items: u64) -> Stack {
    let mut s = Stack::new();
    for i in 0..items {
        s.push(i);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_loadgen::KeyMix;

    #[test]
    fn map_gen_respects_read_percentage_roughly() {
        let mut g = MapOpGen::new(90, 1000, 0);
        let mut reads = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if matches!(g.next_op(), MapOp::Get { .. }) {
                reads += 1;
            }
        }
        let pct = reads as f64 / N as f64;
        assert!((0.85..0.95).contains(&pct), "read fraction {pct}");
    }

    #[test]
    fn map_gen_zero_and_hundred_percent() {
        let mut g = MapOpGen::new(0, 100, 1);
        assert!((0..100).all(|_| !matches!(g.next_op(), MapOp::Get { .. })));
        let mut g = MapOpGen::new(100, 100, 2);
        assert!((0..100).all(|_| matches!(g.next_op(), MapOp::Get { .. })));
    }

    #[test]
    fn prefill_is_half_capacity() {
        let m = prefilled_hashmap(1000);
        assert_eq!(m.len(), 500);
        let t = prefilled_rbtree(1000);
        assert_eq!(t.len(), 500);
        t.check_invariants();
    }

    #[test]
    fn pair_generators_alternate() {
        let mut g = QueuePairGen::new(0);
        assert!(matches!(g.next_op(), QueueOp::Enqueue(_)));
        assert!(matches!(g.next_op(), QueueOp::Dequeue));
        assert!(matches!(g.next_op(), QueueOp::Enqueue(_)));
        let mut g = StackPairGen::new(0);
        assert!(matches!(g.next_op(), StackOp::Push(_)));
        assert!(matches!(g.next_op(), StackOp::Pop));
        let mut g = PqPairGen::new(0);
        assert!(matches!(g.next_op(), PqOp::Enqueue(_)));
        assert!(matches!(g.next_op(), PqOp::Dequeue));
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let keys = Arc::new(KeySampler::new(KeyMix::Zipfian { theta: 0.99 }, 1_000));
        let mut g = ZipfUpdateGen::new(keys, 0);
        let mut counts = vec![0u64; 1_000];
        const N: u64 = 50_000;
        for i in 0..N {
            let key = match g.next_op() {
                MapOp::Insert { key, .. } if i % 2 == 0 => key,
                MapOp::Remove { key } if i % 2 == 1 => key,
                other => panic!("op {i} breaks the insert/remove alternation: {other:?}"),
            };
            assert!(key < 1_000);
            counts[key as usize] += 1;
        }
        // With theta = 0.99, the hottest key draws a large share (~1/zetan
        // ≈ 13% for n=1000) and vastly more than a middling key.
        assert!(
            counts[0] as f64 > 0.05 * N as f64,
            "hot key share too small: {}",
            counts[0]
        );
        assert!(counts[0] > 50 * counts[500].max(1));
    }

    #[test]
    fn workers_get_distinct_streams() {
        let mut a = MapOpGen::new(50, 1 << 20, 0);
        let mut b = MapOpGen::new(50, 1 << 20, 1);
        let sa: Vec<MapOp> = (0..50).map(|_| a.next_op()).collect();
        let sb: Vec<MapOp> = (0..50).map(|_| b.next_op()).collect();
        assert_ne!(sa, sb);
    }
}
