//! Persistence hook points.
//!
//! PREP-UC is "NR-UC plus persistence" (§4.1): the control flow of
//! reservation, combining, and log reclamation is unchanged, but persistence
//! actions are inserted at five specific points. [`NrHooks`] names those
//! points; the volatile construction uses [`NoopHooks`] (zero-cost —
//! everything inlines away), and `prep-uc` provides buffered and durable
//! implementations.

use std::ops::Range;

use crate::log::Log;

/// Hook points the universal construction invokes around the shared log.
///
/// All methods have no-op defaults; implementations override the subset
/// their durability level needs.
pub trait NrHooks<O>: Send + Sync + 'static {
    /// Called by `ReserveLogEntries` before each CAS attempt, with the
    /// observed `logTail`: may this reservation proceed? The PREP
    /// implementations answer `false` while the tail has reached the
    /// flush boundary (Algorithm 4): no new entries may be reserved until
    /// the active persistent replica has been persisted, which is what
    /// bounds post-crash loss to `ε + β − 1`.
    ///
    /// A pure check. On a refusal the caller asks for the checkpoint that
    /// reopens the gate ([`NrHooks::checkpoint_now`]) and checks again; it
    /// does not block here: it is a combiner holding its replica's
    /// combiner lock, and while it waits it must stay responsive to
    /// `updateReplicaNow` helping requests (a blocked-combiner gate was
    /// observed to deadlock log-space reclamation — see DESIGN.md).
    fn reserve_admitted(&self, _tail: u64) -> bool {
        true
    }

    /// Called after the combiner wrote the batch payloads into entries
    /// `range` but **before** any emptyBit is set. PREP-Durable flushes
    /// every touched entry asynchronously and issues one fence (§4.1: "a
    /// single fence is executed" per batch). The payloads live in the log;
    /// the hook flushes by address, so it never needs the ops themselves.
    fn persist_batch_payload(&self, _range: Range<u64>) {}

    /// Called after the payloads of `range` are durable but **before** the
    /// combiner sets any emptyBit. PREP-Durable persists the batch's
    /// published state here (flush the emptyBit image lines, fence, mirror
    /// the entries into the crash image); only then does the combiner
    /// publish. The order is load-bearing: a volatile emptyBit lets any
    /// combiner advance `completedTail` past the entry and durably publish
    /// that tail — if this entry's durable image were still unfenced, a
    /// crash would lose a covered entry (sanitizer rule 2). `op_at` reads
    /// entry `idx ∈ range` back from the combiner's own (still
    /// unpublished) slots — implementations that mirror ops into a crash
    /// image clone on demand; the rest clone nothing, which is the point:
    /// the combiner moves each op into the log exactly once instead of
    /// keeping a second vector alive for the hooks.
    fn persist_batch_published(&self, _range: Range<u64>, _op_at: &dyn Fn(u64) -> O) {}

    /// Called before a completed update's response is released to its
    /// invoking thread, with the `completedTail` value that covers it.
    /// PREP-Durable ensures a persisted `completedTail >= ct` here (the
    /// flush-or-observe-persisted protocol of §5.2); without this, a thread
    /// whose CAS lost to a larger advance could return before the covering
    /// tail is durable.
    fn ensure_completed_tail_durable(&self, _ct: u64) {}

    /// The lower of the persistence-only replicas' localTails, consulted
    /// by the logMin scan (§5.1: worker threads "need to know about the
    /// localTails of the two persistent replicas in order to correctly
    /// reuse log entries"). `u64::MAX` for volatile NR, which has none.
    fn min_persistent_tail(&self) -> u64 {
        u64::MAX
    }

    /// Asks for every entry of `log` below its `completedTail` to be
    /// applied to the persistent replicas and checkpointed now, and runs
    /// the persistence cycle (which replays `log`) on the calling thread if
    /// nobody else is running it. Called by a combiner refused at the gate
    /// (a checkpoint raises the flush boundary) and by the logMin scan when
    /// its straggler is a persistent replica (the cycle applies the active
    /// one, and a checkpoint swaps the stable one into the active role,
    /// Algorithm 3).
    /// Bounded: it must not wait, and must take no blocking lock — the
    /// caller holds its combiner lock, and in `StarvationFree` mode may
    /// hold the reservation gate.
    fn checkpoint_now(&self, _log: &Log<O>) {}
}

/// The volatile instantiation: every hook is a no-op. `NodeReplicated`
/// with `NoopHooks` is NR-UC exactly — the paper's PREP-V baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHooks;

impl<O> NrHooks<O> for NoopHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_hooks_do_nothing_observable() {
        let h = NoopHooks;
        assert!(NrHooks::<u64>::reserve_admitted(&h, 5));
        NrHooks::<u64>::persist_batch_payload(&h, 0..3);
        NrHooks::<u64>::persist_batch_published(&h, 0..3, &|i| i + 1);
        NrHooks::<u64>::ensure_completed_tail_durable(&h, 3);
        assert_eq!(NrHooks::<u64>::min_persistent_tail(&h), u64::MAX);
        NrHooks::<u64>::checkpoint_now(&h, &Log::new(4));
    }
}
