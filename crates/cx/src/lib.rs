//! CX-UC and CX-PUC: the baseline universal construction of Correia et al.
//! (EuroSys 2020), which the PREP-UC paper compares against (§2.3, §6).
//!
//! CX keeps **2n replicas** of the sequential object (n = max threads).
//! Updates are appended to a global operation queue — the linearization
//! order — and the appending thread then claims *some* replica with a strong
//! try writer lock, replays queue entries until its own operation is
//! applied, and publishes that replica as the most up-to-date via `latest`.
//! Read-only operations take the `latest` replica's lock in read mode.
//!
//! **CX-PUC** adds durability the expensive way the PREP paper describes:
//! every replica lives in persistent memory, the queue entry is persisted at
//! enqueue, and *the entire replica* is flushed after each update session
//! ("the entire replica must be persisted after applying a single update
//! operation which is very expensive", §2.3). That whole-replica flush —
//! modelled here by charging one `CLFLUSHOPT` per live cache line of the
//! structure plus a fence — is what makes CX-PUC flat in Figures 2/4/5.
//!
//! Scope note (DESIGN.md): this reimplementation is a *cost-faithful
//! performance baseline*. It reproduces CX's algorithmic costs and its
//! linearizable concurrent behaviour; it does not reimplement CX-PUC's
//! crash-recovery machinery (the reproduction's recovery experiments all
//! target PREP-UC). The original CX is wait-free through replica abundance
//! and helping; ours is blocking on replica scarcity, which only matters
//! under adversarial schedules that the benchmarks do not produce.

#![warn(missing_docs)]
#![allow(
    unsafe_code,
    reason = "the wait-free queue links heap-allocated slots through raw pointers and fills them through `UnsafeCell`s"
)]

mod queue;
mod uc;

pub use queue::OpQueue;
pub use uc::{CxConfig, CxUc};
