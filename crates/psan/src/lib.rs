//! Persistence-ordering sanitizer for the PREP-UC reproduction.
//!
//! PREP-UC's correctness rests on a precise discipline of *which stores
//! reach NVM before which others*: log-entry payloads before their
//! emptyBits, every entry at or below `completedTail` before
//! `completedTail` itself, every replica line before the checkpoint marker
//! `p_activePReplica` (§4.1, §5.2). The cost-model runtime in `prep-pmem`
//! only *counts* `clflushopt`/`sfence` calls — it cannot tell a correctly
//! ordered persist sequence from a missing-fence bug, and such ordering
//! bugs routinely survive end-to-end crash tests because the crash has to
//! land in a narrow window (NVTraverse, Montage — see PAPERS.md).
//!
//! This crate closes that gap with a *dynamic* sanitizer:
//!
//! * a [`Tracer`] collects a globally ordered [`Event`] stream — stores to
//!   logical NVM address ranges, line flushes (sync `CLFLUSH` / async
//!   `CLFLUSHOPT`), `SFENCE`s (which drain only the *issuing thread's*
//!   outstanding async flushes, as on x86), `WBINVD`, checkpoint epochs,
//!   crash cuts, and recovery reads;
//! * [`check_trace`] replays the stream against declarative ordering rules
//!   and reports each failure as a [`Violation`] carrying the full
//!   store→flush→fence event chain and the responsible call sites;
//! * when a rule fires, the checker runs a deterministic **crash-window
//!   search** ([`crash_window`]): a forward walk over crash instants
//!   (event indices) for the window in which a power failure converts the
//!   ordering violation into an observable recovery divergence — the
//!   publish is durable but its dependency is not.
//!
//! The rules (see [`ViolationKind`] for the failure taxonomy):
//!
//! 1. **Publish ordering.** At the instant a *publish* store is issued
//!    (an emptyBit, `completedTail`, `p_activePReplica`), every byte it
//!    publishes must already be durable — flushed *and* fenced. Issuing
//!    the publish earlier is a bug even if a later fence covers both: with
//!    write-back caching, a dirty publish line can reach NVM spontaneously
//!    at any moment after the store.
//! 2. **Tail-before-entry** is the same rule specialized to
//!    `completedTail`, whose dependency is every log byte below it.
//! 3. **Recovery reads.** Recovery may only read addresses whose latest
//!    write was durable at the crash cut.
//! 4. **Redundant-flush lint.** No line is flushed twice within one
//!    checkpoint epoch without an intervening store to it.
//!
//! Addresses are *logical*: producers allocate disjoint [`Region`]s from
//! the tracer's bump allocator and derive stable addresses inside them
//! (e.g. the monotonic log index × entry bytes), so recycled physical
//! slots never alias. The crate has no dependencies and traces nothing
//! until [`Tracer::enable`] — the disabled hot path is one atomic load.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
mod trace;

pub use check::{check_trace, crash_window, format_violations, Violation, ViolationKind};
pub use trace::{Event, EventKind, PublishTag, Region, Tracer, CACHE_LINE};

/// True when the `PREP_PSAN` environment variable asks for the sanitizer
/// (set and neither empty nor `"0"`). `prep-pmem` consults this at runtime
/// construction so the whole test suite can run under the sanitizer
/// without code changes (`PREP_PSAN=1 cargo test`).
pub fn env_enabled() -> bool {
    std::env::var_os("PREP_PSAN").is_some_and(|v| !v.is_empty() && v != "0")
}
