//! NR-UC: the Node Replication universal construction (Calciu et al.,
//! ASPLOS 2017), as described in §3 of the PREP-UC paper.
//!
//! Node replication keeps one replica of the sequential object per NUMA
//! node. Threads on a node coordinate through **flat combining**: each
//! thread publishes its update in a per-thread batch slot; one thread — the
//! *combiner*, elected by winning the replica's trylock — appends the whole
//! batch to a **shared circular log** and applies pending log entries to the
//! local replica. Across nodes, the log is the only communication channel:
//! its order *is* the linearization order of update operations.
//!
//! Read-only operations never touch the log; once the replica has caught up
//! to `completedTail` they read it — lock-free under a seqlock bracket, or
//! under the replica's reader-writer lock (see [`FairnessMode`]).
//!
//! Three monotonically increasing indexes (paper Table 1):
//!
//! | index | scope | meaning |
//! |---|---|---|
//! | `localTail` | per replica | first log index not yet applied locally |
//! | `completedTail` | global | first log index not yet applied to any replica |
//! | `logTail` | global | first unreserved log index |
//!
//! This crate hosts the machinery PREP-UC reuses (PREP-UC *is* NR-UC plus
//! persistence, §4.1). The persistence-specific actions — gating
//! reservations at the flush boundary, persisting batches and the completed
//! tail, involving the persistent replicas in log-space reclamation — enter
//! through the [`NrHooks`] trait, which the volatile construction
//! instantiates with [`NoopHooks`] (the paper's **PREP-V**).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod global_lock;
mod hooks;
pub mod log;
mod replica;
mod uc;

pub use global_lock::GlobalLockUc;
pub use hooks::{NoopHooks, NrHooks};
pub use log::Log;
pub use uc::{NodeReplicated, ThreadToken};

/// Default log capacity (entries) used by the paper's evaluation (§6: "we
/// utilize a log size of 1 million for all experiments").
pub const DEFAULT_LOG_SIZE: u64 = 1 << 20;

/// Liveness trade-off (§4.2 "Liveness").
///
/// The paper's implementation is deadlock-free but allows starvation in two
/// places: an adversarial scheduler can make one combiner's log-reservation
/// CAS lose forever, and a stream of write-mode combiners can starve
/// readers. The paper names the two changes that buy starvation-freedom —
/// a fair lock around reservations and a starvation-free reader-writer
/// lock per replica — and this enum selects them. Each variant has exactly
/// one read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessMode {
    /// The default: CAS reservations + NR §3's distributed
    /// writer-preference reader-writer lock per replica (one
    /// cacheline-padded slot per registered reader). A caught-up read runs
    /// lock-free against the replica and validates with the
    /// [`prep_sync::SeqVersion`] bracket (zero atomic RMWs, zero stores to
    /// shared cachelines); when a combiner overlaps, it falls back to the
    /// reader's own lock slot. Writers never wait on lock-free readers.
    /// Fastest; starvation possible under adversarial scheduling.
    #[default]
    Throughput,
    /// Starvation-free updates and reads: FIFO ticket lock around log
    /// reservations, phase-fair reader-writer lock per replica. Every read
    /// takes the lock, so its wait is bounded by the lock's phase order and
    /// never depends on winning a race against a combiner.
    StarvationFree,
}
