//! Persistence-semantics emulator for the PREP-UC reproduction.
//!
//! The paper runs on a machine with Intel Optane DC persistent memory and
//! persists data with `CLFLUSH`/`CLFLUSHOPT` + `SFENCE` and (for whole
//! replicas) the privileged `WBINVD` instruction. This crate replaces that
//! hardware with an emulator that models the two things the algorithms
//! actually depend on (see DESIGN.md "Hardware substitutions"):
//!
//! 1. **What survives a crash.** A [`PmemRuntime`] owns a *crash store*: the
//!    set of values that have genuinely reached "NVM": two image kinds,
//!    [`PersistentCell`] and [`LogImage`], kept beside the variables they
//!    mirror, plus the persistent replicas ([`PersistentReplica`]), whose
//!    objects live in NVM and are their own image. Persist operations
//!    ([`PersistentCell::record`], [`LogImage::persist_entry`], a
//!    checkpoint's [`ReplicaGuard::checkpointed`]) update it; a simulated
//!    power failure is a *consistent cut* of the store captured via
//!    [`PmemRuntime::capture_cut`], from which recovery code rebuilds the
//!    object. The active persistent replica is marked **torn** between its
//!    first post-checkpoint mutation and the next checkpoint — modelling
//!    the paper's background-flush hazard (§4.1): recovering a torn replica
//!    is a detectable bug.
//!
//! 2. **What persistence costs.** Every flush/fence/WBINVD spins for a
//!    configurable latency ([`LatencyModel`]) and bumps counters
//!    ([`PmemStats`]), so benchmark *shapes* (flush-bound vs compute-bound,
//!    the ε trade-off, CX's whole-replica flushes) reproduce without NVM.
//!
//! The crate also implements the paper's persistent-allocation story (§5.1):
//! a free-list [`arena::PArena`] with a fixed base address, and
//! [`alloc::SwappableAllocator`] — a `GlobalAlloc` wrapper with a
//! *thread-local* flag that redirects a thread's allocations to the
//! persistent arena without modifying sequential data-structure code.

#![warn(missing_docs)]
#![allow(
    unsafe_code,
    reason = "the persistent arena and its allocator hand out raw memory from the emulated NVM region"
)]
#![allow(
    clippy::disallowed_types,
    reason = "the NVM emulation (crash image, arena, cut lock) is off the replicated path the std lock ban covers"
)]

pub mod alloc;
pub mod arena;
mod image;
mod latency;
mod runtime;
mod stats;

pub use image::{
    LogImage, PersistentCell, PersistentReplica, ReplicaGuard, ReplicaSnapshot, TornImage,
};
pub use latency::LatencyModel;
pub use runtime::{CrashToken, PmemRuntime, Traced};
pub use stats::{PmemStats, PmemStatsSnapshot};

/// The persistence-ordering sanitizer layered under this runtime (event
/// model, rule engine, crash-point bisection). Re-exported so sanitizer
/// consumers need not depend on `prep-psan` directly.
pub use prep_psan as psan;
