//! A linearizability checker for small concurrent histories.
//!
//! Universal constructions promise linearizability (and PREP-UC's
//! durability conditions are defined on top of it, §2.1), so this crate
//! provides the machinery to *check* it directly rather than only relying
//! on invariant-style tests:
//!
//! * [`HistoryRecorder`] timestamps operation invocations and responses
//!   with a global logical clock while worker threads run against a
//!   construction;
//! * [`check_linearizable`] decides, by Wing–Gong-style backtracking
//!   search, whether a recorded history has *any* linearization: a total
//!   order of the operations that (a) respects real time — if op A's
//!   response preceded op B's invocation, A orders before B — and (b)
//!   makes every recorded response equal what the sequential model returns.
//!
//! The search is exponential in the worst case, so it is meant for focused
//! histories (≤ ~20 operations with small concurrent windows) — the
//! integration tests record many such windows rather than one huge history.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "the linearizability checker is off the replicated path the std lock ban covers"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prep_seqds::SequentialObject;

/// One completed operation in a concurrent history.
#[derive(Debug, Clone)]
pub struct Event<O, R> {
    /// Thread that issued the operation.
    pub thread: usize,
    /// The operation.
    pub op: O,
    /// The response the implementation returned.
    pub resp: R,
    /// Logical timestamp at invocation.
    pub invoke: u64,
    /// Logical timestamp at response (always > `invoke`).
    pub response: u64,
}

/// Records a concurrent history with a global logical clock.
///
/// ```
/// use prep_checker::HistoryRecorder;
/// use prep_seqds::stack::{Stack, StackOp, StackResp};
/// use prep_seqds::SequentialObject;
///
/// let rec = HistoryRecorder::new();
/// let mut s = Stack::new();
/// let t = rec.invoke();
/// let resp = s.apply(&StackOp::Push(1));
/// rec.complete(0, StackOp::Push(1), resp, t);
/// let history = rec.into_history();
/// assert_eq!(history.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct HistoryRecorder<O, R> {
    clock: AtomicU64,
    events: Mutex<Vec<Event<O, R>>>,
}

impl<O, R> HistoryRecorder<O, R> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        HistoryRecorder {
            clock: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Stamps an invocation; call immediately before executing the op.
    pub fn invoke(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel)
    }

    /// Records a completed operation; call immediately after the response
    /// arrives, passing the invocation stamp.
    pub fn complete(&self, thread: usize, op: O, resp: R, invoke: u64) {
        let response = self.clock.fetch_add(1, Ordering::AcqRel);
        self.events.lock().expect("recorder poisoned").push(Event {
            thread,
            op,
            resp,
            invoke,
            response,
        });
    }

    /// Consumes the recorder, returning the history sorted by invocation.
    pub fn into_history(self) -> Vec<Event<O, R>> {
        let mut ev = self.events.into_inner().expect("recorder poisoned");
        ev.sort_by_key(|e| e.invoke);
        ev
    }
}

/// Decides whether `history` is linearizable with respect to the
/// sequential `initial` object.
///
/// # Panics
/// Panics if the history holds more than 63 events (use smaller windows).
pub fn check_linearizable<T>(initial: &T, history: &[Event<T::Op, T::Resp>]) -> bool
where
    T: SequentialObject,
    T::Resp: PartialEq,
{
    assert!(
        history.len() <= 63,
        "history too large for the bitmask search"
    );
    let all: u64 = if history.is_empty() {
        return true;
    } else {
        (1u64 << history.len()) - 1
    };
    dfs(initial, history, 0, all)
}

fn dfs<T>(model: &T, history: &[Event<T::Op, T::Resp>], chosen: u64, all: u64) -> bool
where
    T: SequentialObject,
    T::Resp: PartialEq,
{
    if chosen == all {
        return true;
    }
    for (i, e) in history.iter().enumerate() {
        if chosen & (1 << i) != 0 {
            continue;
        }
        // e may be linearized next iff no *unchosen* f completed before e
        // was invoked (real-time order).
        let minimal = history
            .iter()
            .enumerate()
            .all(|(j, f)| j == i || chosen & (1 << j) != 0 || f.response > e.invoke);
        if !minimal {
            continue;
        }
        let mut next = model.clone_object();
        let got = next.apply(&e.op);
        if got == e.resp && dfs(&next, history, chosen | (1 << i), all) {
            return true;
        }
    }
    false
}

/// Records per-shard concurrent histories stamped by **one** shared
/// logical clock.
///
/// A sharded store (e.g. `prep-shard`) linearizes each shard
/// independently — there is no cross-shard ordering to check — but the
/// histories must still be *recorded* against a single clock: if every
/// shard ran its own clock, an operation's timestamps would be
/// meaningless relative to another shard's, and any later cross-shard
/// analysis (or merging windows for debugging) would be impossible. This
/// recorder therefore shares one `AtomicU64` across all shards and keeps
/// one event list per shard; [`into_histories`](Self::into_histories)
/// yields them separately so each can go through
/// [`check_linearizable`] against its own shard's sequential model.
#[derive(Debug)]
pub struct ShardedHistoryRecorder<O, R> {
    clock: AtomicU64,
    shards: Vec<Mutex<Vec<Event<O, R>>>>,
}

impl<O, R> ShardedHistoryRecorder<O, R> {
    /// Creates a recorder for `shards` independent histories.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded recorder needs at least one shard");
        ShardedHistoryRecorder {
            clock: AtomicU64::new(0),
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of shards recorded.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Stamps an invocation on the shared clock; call immediately before
    /// executing the op (on whichever shard it routes to).
    pub fn invoke(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel)
    }

    /// Records a completed operation on `shard`'s history; call
    /// immediately after the response arrives, passing the invocation
    /// stamp from [`invoke`](Self::invoke).
    pub fn complete(&self, shard: usize, thread: usize, op: O, resp: R, invoke: u64) {
        let response = self.clock.fetch_add(1, Ordering::AcqRel);
        self.shards[shard]
            .lock()
            .expect("recorder poisoned")
            .push(Event {
                thread,
                op,
                resp,
                invoke,
                response,
            });
    }

    /// Consumes the recorder, returning one history per shard, each sorted
    /// by invocation stamp (stamps are globally unique across shards).
    pub fn into_histories(self) -> Vec<Vec<Event<O, R>>> {
        self.shards
            .into_iter()
            .map(|m| {
                let mut ev = m.into_inner().expect("recorder poisoned");
                ev.sort_by_key(|e| e.invoke);
                ev
            })
            .collect()
    }
}

/// Checks every shard's history independently against its own copy of the
/// sequential model: the correctness condition of a sharded store (each
/// shard linearizable; no cross-shard order promised). Returns the index
/// of the first non-linearizable shard, or `Ok(())`.
///
/// # Panics
/// Panics if any shard's history exceeds the 63-event search limit.
pub fn check_sharded_linearizable<T>(
    initial: &T,
    histories: &[Vec<Event<T::Op, T::Resp>>],
) -> Result<(), usize>
where
    T: SequentialObject,
    T::Resp: PartialEq,
{
    for (shard, history) in histories.iter().enumerate() {
        if !check_linearizable(initial, history) {
            return Err(shard);
        }
    }
    Ok(())
}

/// A convenience wrapper: runs `threads` closures that execute operations
/// through `execute` while recording, then returns the history.
///
/// `gen(thread, i)` produces the i-th operation of `thread`; `execute`
/// runs it against the system under test.
pub fn record_concurrent<T, E, G>(
    threads: usize,
    ops_per_thread: usize,
    gen: G,
    execute: E,
) -> Vec<Event<T::Op, T::Resp>>
where
    T: SequentialObject,
    E: Fn(usize, T::Op) -> T::Resp + Sync,
    G: Fn(usize, usize) -> T::Op + Sync,
{
    let rec = HistoryRecorder::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let rec = &rec;
            let gen = &gen;
            let execute = &execute;
            s.spawn(move || {
                for i in 0..ops_per_thread {
                    let op = gen(t, i);
                    let stamp = rec.invoke();
                    let resp = execute(t, op.clone());
                    rec.complete(t, op, resp, stamp);
                }
            });
        }
    });
    rec.into_history()
}

/// Replays a runtime's persistence-ordering trace through `prep-psan`'s
/// rule engine (see that crate: publish ordering, completedTail,
/// recovery reads, redundant flushes).
///
/// Returns `Err` with the full human-readable report — store → flush →
/// fence event chains and call sites — if any rule is violated. A runtime
/// whose tracer was never enabled has an empty trace and trivially passes;
/// call [`prep_pmem::PmemRuntime::psan_enable`] (or set `PREP_PSAN`)
/// before the execution under test.
pub fn check_persistence_ordering(rt: &prep_pmem::PmemRuntime) -> Result<(), String> {
    let violations = rt.psan_check();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(prep_pmem::psan::format_violations(&violations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_seqds::stack::{Stack, StackOp, StackResp};

    fn ev(
        thread: usize,
        op: StackOp,
        resp: StackResp,
        invoke: u64,
        response: u64,
    ) -> Event<StackOp, StackResp> {
        Event {
            thread,
            op,
            resp,
            invoke,
            response,
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_linearizable(&Stack::new(), &[]));
    }

    #[test]
    fn sequential_history_checks_out() {
        let h = vec![
            ev(0, StackOp::Push(1), StackResp::Ok, 0, 1),
            ev(0, StackOp::Pop, StackResp::Value(Some(1)), 2, 3),
            ev(0, StackOp::Pop, StackResp::Value(None), 4, 5),
        ];
        assert!(check_linearizable(&Stack::new(), &h));
    }

    #[test]
    fn wrong_sequential_response_is_rejected() {
        let h = vec![
            ev(0, StackOp::Push(1), StackResp::Ok, 0, 1),
            // Pop claims 2 was on top — impossible.
            ev(0, StackOp::Pop, StackResp::Value(Some(2)), 2, 3),
        ];
        assert!(!check_linearizable(&Stack::new(), &h));
    }

    #[test]
    fn concurrent_ops_may_reorder() {
        // Two overlapping pushes, then sequential pops seeing 2 before 1:
        // linearizable by ordering Push(1) before Push(2).
        let h = vec![
            ev(0, StackOp::Push(1), StackResp::Ok, 0, 3),
            ev(1, StackOp::Push(2), StackResp::Ok, 1, 2),
            ev(0, StackOp::Pop, StackResp::Value(Some(2)), 4, 5),
            ev(0, StackOp::Pop, StackResp::Value(Some(1)), 6, 7),
        ];
        assert!(check_linearizable(&Stack::new(), &h));
        // And the opposite pop order is also fine (Push(2) first).
        let h2 = vec![
            ev(0, StackOp::Push(1), StackResp::Ok, 0, 3),
            ev(1, StackOp::Push(2), StackResp::Ok, 1, 2),
            ev(0, StackOp::Pop, StackResp::Value(Some(1)), 4, 5),
            ev(0, StackOp::Pop, StackResp::Value(Some(2)), 6, 7),
        ];
        assert!(check_linearizable(&Stack::new(), &h2));
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Push(1) completes strictly before Push(2) begins; pops then claim
        // 1 was pushed after 2 — NOT linearizable.
        let h = vec![
            ev(0, StackOp::Push(1), StackResp::Ok, 0, 1),
            ev(1, StackOp::Push(2), StackResp::Ok, 2, 3),
            ev(0, StackOp::Pop, StackResp::Value(Some(1)), 4, 5),
            ev(0, StackOp::Pop, StackResp::Value(Some(2)), 6, 7),
        ];
        assert!(!check_linearizable(&Stack::new(), &h));
    }

    #[test]
    fn stale_read_is_rejected() {
        // Top runs entirely after Push(7) completed but claims empty.
        let h = vec![
            ev(0, StackOp::Push(7), StackResp::Ok, 0, 1),
            ev(1, StackOp::Top, StackResp::Value(None), 2, 3),
        ];
        assert!(!check_linearizable(&Stack::new(), &h));
    }

    #[test]
    fn deep_sequential_history_completes_quickly() {
        // A long strictly-sequential history has exactly one candidate at
        // every step; the search must be linear, not exponential.
        let mut model = {
            use prep_seqds::SequentialObject;
            let mut s = Stack::new();
            let mut h = Vec::new();
            for i in 0..40u64 {
                let op = if i % 2 == 0 {
                    StackOp::Push(i)
                } else {
                    StackOp::Pop
                };
                let resp = s.apply(&op);
                h.push(ev(0, op, resp, 2 * i, 2 * i + 1));
            }
            h
        };
        assert!(check_linearizable(&Stack::new(), &model));
        // Corrupt the last response: must be rejected.
        model.last_mut().unwrap().resp = StackResp::Value(Some(4242));
        assert!(!check_linearizable(&Stack::new(), &model));
    }

    #[test]
    fn sharded_recorder_shares_one_clock() {
        let rec: ShardedHistoryRecorder<StackOp, StackResp> = ShardedHistoryRecorder::new(2);
        // Interleave ops across shards; stamps must be globally unique and
        // monotone in issue order.
        let t0 = rec.invoke();
        rec.complete(0, 0, StackOp::Push(1), StackResp::Ok, t0);
        let t1 = rec.invoke();
        rec.complete(1, 0, StackOp::Push(2), StackResp::Ok, t1);
        let t2 = rec.invoke();
        rec.complete(0, 0, StackOp::Pop, StackResp::Value(Some(1)), t2);
        let hs = rec.into_histories();
        assert_eq!(hs[0].len(), 2);
        assert_eq!(hs[1].len(), 1);
        // Shard 1's events are stamped between shard 0's: one clock.
        assert!(hs[0][0].response < hs[1][0].invoke);
        assert!(hs[1][0].response < hs[0][1].invoke);
        let mut all: Vec<u64> = hs
            .iter()
            .flatten()
            .flat_map(|e| [e.invoke, e.response])
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6, "stamps must be globally unique");
        assert_eq!(check_sharded_linearizable(&Stack::new(), &hs), Ok(()));
    }

    #[test]
    fn sharded_check_pinpoints_the_bad_shard() {
        let rec: ShardedHistoryRecorder<StackOp, StackResp> = ShardedHistoryRecorder::new(3);
        let t = rec.invoke();
        rec.complete(0, 0, StackOp::Push(1), StackResp::Ok, t);
        // Shard 1 claims a pop of a value never pushed there (it was pushed
        // on shard 0) — per-shard checking must reject shard 1 even though
        // a merged history could explain it.
        let t = rec.invoke();
        rec.complete(1, 0, StackOp::Pop, StackResp::Value(Some(1)), t);
        let hs = rec.into_histories();
        assert_eq!(check_sharded_linearizable(&Stack::new(), &hs), Err(1));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_recorder_rejected() {
        let _ = ShardedHistoryRecorder::<StackOp, StackResp>::new(0);
    }

    #[test]
    fn recorder_produces_wellformed_history() {
        let rec: HistoryRecorder<StackOp, StackResp> = HistoryRecorder::new();
        let mut s = Stack::new();
        for v in [1u64, 2] {
            let t = rec.invoke();
            let r = {
                use prep_seqds::SequentialObject;
                s.apply(&StackOp::Push(v))
            };
            rec.complete(0, StackOp::Push(v), r, t);
        }
        let h = rec.into_history();
        assert_eq!(h.len(), 2);
        assert!(h[0].invoke < h[0].response);
        assert!(h[0].invoke < h[1].invoke);
        assert!(check_linearizable(&Stack::new(), &h));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use prep_seqds::stack::{Stack, StackOp};
    use prep_seqds::SequentialObject;
    use proptest::prelude::*;

    proptest! {
        /// Any history generated by actually executing ops sequentially is
        /// linearizable (soundness: the checker accepts real executions).
        #[test]
        fn real_sequential_executions_always_accepted(
            ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..20)
        ) {
            let mut s = Stack::new();
            let mut t = 0u64;
            let mut history = Vec::new();
            for (kind, v) in ops {
                let op = match kind {
                    0 => StackOp::Push(v),
                    1 => StackOp::Pop,
                    _ => StackOp::Top,
                };
                let resp = s.apply(&op);
                history.push(Event { thread: 0, op, resp, invoke: t, response: t + 1 });
                t += 2;
            }
            prop_assert!(check_linearizable(&Stack::new(), &history));
        }

        /// Shuffled *timestamps* (making everything concurrent) can only
        /// make acceptance easier: a sequentially-valid history stays
        /// linearizable when all its ops are made mutually concurrent.
        #[test]
        fn relaxing_real_time_order_preserves_acceptance(
            ops in proptest::collection::vec((0u8..2, any::<u64>()), 1..8)
        ) {
            let mut s = Stack::new();
            let mut history = Vec::new();
            for (i, (kind, v)) in ops.into_iter().enumerate() {
                let op = if kind == 0 { StackOp::Push(v) } else { StackOp::Pop };
                let resp = s.apply(&op);
                // All ops share one giant concurrent window.
                history.push(Event {
                    thread: i,
                    op,
                    resp,
                    invoke: 0,
                    response: 1_000,
                });
            }
            prop_assert!(check_linearizable(&Stack::new(), &history));
        }
    }
}
