//! Per-location store histories — the memory-model half of the checker.
//!
//! Each atomic (or peeked) memory location keeps the full list of stores
//! made to it during the current execution. Modification order is the
//! order stores executed; value nondeterminism lives entirely on the load
//! side: a load may read any store that coherence, happens-before, and the
//! SeqCst rules leave visible, and the scheduler branches on that choice.

use crate::clock::{VClock, MAX_THREADS};

/// How many *consecutive* stale (non-latest) reads one thread may take from
/// one location before the checker forces it to read the latest store.
///
/// Without this bound a spinning reader could be handed the same stale value
/// forever — a livelock that no real coherence protocol exhibits (MESI
/// propagates invalidations in finite time). Three consecutive stale reads
/// is enough to expose every reordering our two/three-thread properties care
/// about while keeping executions finite.
pub const STALE_BOUND: u32 = 3;

/// What kind of cell a location models. Atomics never data-race; peeked
/// plain data participates in happens-before race detection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocKind {
    /// An `Atomic*` cell routed through the instrumented seam.
    Atomic,
    /// A `PeekCell<T>` — plain data read under a seqlock-style bracket.
    Peek,
}

/// One store in a location's modification order.
#[derive(Clone, Debug)]
pub struct Store {
    /// The stored value (masked to the cell's width; unused for peek cells,
    /// whose typed values live in the cell itself, indexed by store index).
    pub value: u64,
    /// Thread that made the store.
    pub writer: usize,
    /// The writer's own clock component at the store (post-tick): `s`
    /// happens-before thread `t` iff `t.clock[s.writer] >= s.writer_seq`.
    pub writer_seq: u64,
    /// The clock an acquire-side reader of this store synchronizes with
    /// (release clock, including release-fence and release-sequence
    /// contributions).
    pub release: VClock,
}

/// A modeled memory location.
#[derive(Debug)]
pub struct Location {
    /// Display name for traces (`mc::label` or first-access site).
    pub name: String,
    /// Modification order. Index 0 is the initial value, modeled as a store
    /// that happens-before everything (`writer_seq` 0).
    pub stores: Vec<Store>,
    /// Per-thread coherence floor from past reads: a thread may never read
    /// an older store than one it (or its hb-predecessors) already read.
    pub read_floor: [usize; MAX_THREADS],
    /// Per-thread coherence floor from own writes.
    pub write_floor: [usize; MAX_THREADS],
    /// Index of the latest `SeqCst` store, if any.
    pub last_sc: Option<usize>,
    /// Consecutive stale-read counters (see [`STALE_BOUND`]).
    pub stale: [u32; MAX_THREADS],
    /// Latest non-consenting plain read per thread (reader's own clock
    /// component at the read) — the write side checks races against these.
    pub read_marks: [Option<u64>; MAX_THREADS],
}

impl Location {
    /// Creates a location whose initial value is visible to (and ordered
    /// before) every thread.
    pub fn new(name: String, initial: u64) -> Self {
        Location {
            name,
            stores: vec![Store {
                value: initial,
                writer: 0,
                writer_seq: 0,
                release: VClock::ZERO,
            }],
            read_floor: [0; MAX_THREADS],
            write_floor: [0; MAX_THREADS],
            last_sc: None,
            stale: [0; MAX_THREADS],
            read_marks: [None; MAX_THREADS],
        }
    }

    /// Index of the newest store that happens-before `clock`, plus whether
    /// any store does *not* (i.e. the location has a write concurrent with
    /// the observer — the read side of race detection).
    ///
    /// Visibility: a store is hidden iff a *newer* store happens-before the
    /// reader, so the visible suffix is exactly `hb_floor..`.
    pub fn hb_scan(&self, clock: &VClock) -> (usize, bool) {
        let mut floor = 0;
        let mut concurrent = false;
        for (i, s) in self.stores.iter().enumerate() {
            if clock.get(s.writer) >= s.writer_seq {
                floor = i;
            } else {
                concurrent = true;
            }
        }
        (floor, concurrent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_store_is_visible_to_everyone() {
        let l = Location::new("x".into(), 7);
        let (floor, concurrent) = l.hb_scan(&VClock::ZERO);
        assert_eq!(floor, 0);
        assert!(!concurrent);
        assert_eq!(l.stores[0].value, 7);
    }

    #[test]
    fn hb_scan_floor_and_concurrency() {
        let mut l = Location::new("x".into(), 0);
        // Thread 1's store at seq 4, thread 2's at seq 9.
        l.stores.push(Store {
            value: 1,
            writer: 1,
            writer_seq: 4,
            release: VClock::ZERO,
        });
        l.stores.push(Store {
            value: 2,
            writer: 2,
            writer_seq: 9,
            release: VClock::ZERO,
        });
        let mut c = VClock::ZERO;
        c.set(1, 4); // saw thread 1's store, not thread 2's
        let (floor, concurrent) = l.hb_scan(&c);
        assert_eq!(floor, 1);
        assert!(concurrent);
        c.set(2, 9);
        let (floor, concurrent) = l.hb_scan(&c);
        assert_eq!(floor, 2);
        assert!(!concurrent);
    }
}
