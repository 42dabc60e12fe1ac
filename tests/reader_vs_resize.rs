//! Readers racing reallocation, on every `seqds` type.
//!
//! Two reader threads hammer read-only operations through a default
//! `NodeReplicated` while a writer on the same replica makes the object
//! reallocate: hashmap inserts and removes across resize thresholds, node
//! churn for the list, red-black tree and priority queue, wrap-around and
//! regrowth for the queue and the stack. Every round starts from a fresh
//! object, so growth — and with it reallocation — happens again.
//!
//! A read that ran against the replica while the combiner mutated it would
//! walk a freed or half-written buffer here; under a real reader lock none
//! can. Every read is also checked against what the writer could have
//! produced: a map value is the one written for its key, a container value
//! carries the writer's tag on a step already started, a FIFO front never
//! moves back, and a length never exceeds the steps started.

#![allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use prep_nr::NodeReplicated;
use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
use prep_seqds::list::{SetOp, SetResp, SortedList};
use prep_seqds::pqueue::{PqOp, PqResp, PriorityQueue};
use prep_seqds::queue::{Queue, QueueOp, QueueResp};
use prep_seqds::rbtree::RbTree;
use prep_seqds::stack::{Stack, StackOp, StackResp};
use prep_seqds::SequentialObject;
use prep_topology::Topology;

/// Wall-clock budget per type; rounds repeat until it is spent.
const BUDGET: Duration = Duration::from_millis(1_000);
const READERS: usize = 2;
/// High bits every value the writer stores carries.
const TAG: u64 = 0x5eed << 48;

fn tagged(step: u64) -> u64 {
    TAG | step
}

/// An odd multiplier permutes `0..keys` (a power of two), scattering
/// writes and reads over buckets, list positions and tree paths.
fn scatter(i: u64, keys: u64) -> u64 {
    i.wrapping_mul(0x9e37) % keys
}

/// What a read returned, with the types' response enums folded together.
enum Seen {
    Value(Option<u64>),
    Len(usize),
    Member,
}

/// One type's race: a fresh object per round, the writer's `step`-th
/// update, a reader's `i`-th read (every fourth asks for the length), and
/// the check on a value read `i` returned (given the writer steps started
/// before it returned and the reader's own state across the round).
struct Race<T: SequentialObject> {
    make: fn() -> T,
    steps: u64,
    write: fn(u64) -> T::Op,
    read: fn(u64) -> T::Op,
    seen: fn(T::Resp) -> Seen,
    value: fn(u64, u64, u64, &mut u64),
}

impl<T: SequentialObject> Race<T> {
    fn run(&self) {
        let start = Instant::now();
        loop {
            self.round();
            if start.elapsed() >= BUDGET {
                return;
            }
        }
    }

    fn round(&self) {
        let asg = Topology::new(1, 4, 1).assign_workers(1 + READERS);
        let nr = NodeReplicated::new((self.make)(), asg, 1_024);
        let issued = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for r in 0..READERS {
                let (nr, issued, stop) = (&nr, &issued, &stop);
                s.spawn(move || {
                    let token = nr.register(1 + r);
                    let mut memo = 0;
                    let mut i = r as u64;
                    while !stop.load(Ordering::Relaxed) {
                        let seen = (self.seen)(nr.execute(&token, (self.read)(i)));
                        let issued = issued.load(Ordering::SeqCst);
                        match seen {
                            Seen::Value(Some(v)) => (self.value)(i, v, issued, &mut memo),
                            Seen::Len(n) => assert!(n as u64 <= issued, "len {n} > {issued}"),
                            Seen::Value(None) | Seen::Member => {}
                        }
                        i += READERS as u64;
                    }
                });
            }
            let token = nr.register(0);
            for step in 0..self.steps {
                issued.store(step + 1, Ordering::SeqCst);
                nr.execute(&token, (self.write)(step));
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}

/// Keys a map round inserts, then removes; 16 initial hashmap buckets
/// double eight times on the way up.
const MAP_KEYS: u64 = 4_096;

fn map_race<T: SequentialObject<Op = MapOp, Resp = MapResp>>(make: fn() -> T) -> Race<T> {
    Race {
        make,
        steps: 2 * MAP_KEYS,
        write: |step| match scatter(step, MAP_KEYS) {
            key if step < MAP_KEYS => MapOp::Insert {
                key,
                value: tagged(key),
            },
            key => MapOp::Remove { key },
        },
        read: |i| match i % 4 {
            0 => MapOp::Len,
            _ => MapOp::Get {
                key: scatter(i, MAP_KEYS),
            },
        },
        seen: |resp| match resp {
            MapResp::Value(v) => Seen::Value(v),
            MapResp::Len(n) => Seen::Len(n),
            MapResp::Bool(_) => Seen::Member,
        },
        value: |i, v, _, _| assert_eq!(v, tagged(scatter(i, MAP_KEYS)), "get read {v:#x}"),
    }
}

#[test]
fn hashmap_reads_survive_resizes() {
    map_race(HashMap::new).run();
}

#[test]
fn rbtree_reads_survive_node_churn() {
    map_race(RbTree::new).run();
}

/// Keys a list round inserts, then removes (a sorted list pays O(n) per
/// insert, so fewer than the maps).
const LIST_KEYS: u64 = 256;

#[test]
fn list_reads_survive_node_churn() {
    Race {
        make: SortedList::new,
        steps: 2 * LIST_KEYS,
        write: |step| match scatter(step, LIST_KEYS) {
            key if step < LIST_KEYS => SetOp::Insert(key),
            key => SetOp::Remove(key),
        },
        read: |i| match i % 4 {
            0 => SetOp::Len,
            _ => SetOp::Contains(scatter(i, LIST_KEYS)),
        },
        seen: |resp| match resp {
            SetResp::Len(n) => Seen::Len(n),
            SetResp::Bool(_) => Seen::Member,
        },
        value: |_, _, _, _| unreachable!("a set read returns no value"),
    }
    .run();
}

/// Container rounds: three inserts then two removals, repeated, so the
/// container grows by one per five steps while its ends keep moving.
const CONTAINER_STEPS: u64 = 5_000;

/// The step that stored container value `v`; it must carry the writer's
/// tag and be a step already started.
fn step_of(v: u64, issued: u64) -> u64 {
    let step = v ^ TAG;
    assert!(
        step < issued,
        "read {v:#x}: no writer step below {issued} stored it"
    );
    step
}

#[test]
fn queue_reads_survive_wraparound() {
    Race {
        make: Queue::new,
        steps: CONTAINER_STEPS,
        write: |step| match step % 5 {
            0..=2 => QueueOp::Enqueue(tagged(step)),
            _ => QueueOp::Dequeue,
        },
        read: |i| match i % 4 {
            0 => QueueOp::Len,
            _ => QueueOp::Front,
        },
        seen: |resp| match resp {
            QueueResp::Value(v) => Seen::Value(v),
            QueueResp::Len(n) => Seen::Len(n),
            QueueResp::Ok => panic!("a read returned Ok"),
        },
        value: |_, v, issued, front| {
            let step = step_of(v, issued);
            assert!(step >= *front, "front moved back: {step} after {front}");
            *front = step;
        },
    }
    .run();
}

#[test]
fn stack_reads_survive_regrowth() {
    Race {
        make: Stack::new,
        steps: CONTAINER_STEPS,
        write: |step| match step % 5 {
            0..=2 => StackOp::Push(tagged(step)),
            _ => StackOp::Pop,
        },
        read: |i| match i % 4 {
            0 => StackOp::Len,
            _ => StackOp::Top,
        },
        seen: |resp| match resp {
            StackResp::Value(v) => Seen::Value(v),
            StackResp::Len(n) => Seen::Len(n),
            StackResp::Ok => panic!("a read returned Ok"),
        },
        value: |_, v, issued, _| {
            step_of(v, issued);
        },
    }
    .run();
}

#[test]
fn pqueue_reads_survive_node_churn() {
    Race {
        make: PriorityQueue::new,
        steps: CONTAINER_STEPS,
        write: |step| match step % 5 {
            0..=2 => PqOp::Enqueue(tagged(step)),
            _ => PqOp::Dequeue,
        },
        read: |i| match i % 4 {
            0 => PqOp::Len,
            _ => PqOp::Peek,
        },
        seen: |resp| match resp {
            PqResp::Value(v) => Seen::Value(v),
            PqResp::Len(n) => Seen::Len(n),
            PqResp::Ok => panic!("a read returned Ok"),
        },
        value: |_, v, issued, _| {
            step_of(v, issued);
        },
    }
    .run();
}
