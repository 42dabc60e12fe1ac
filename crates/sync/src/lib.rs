//! Synchronization primitives for the PREP-UC reproduction.
//!
//! Node replication (NR-UC) and PREP-UC are built from a small number of
//! locking primitives that the paper names explicitly (§3, §4.1):
//!
//! * a **trylock** protecting each replica, used for combiner election
//!   ([`TryLock`]);
//! * a **distributed reader-writer lock** per replica, claimed in write mode
//!   by the combiner and in read mode by read-only operations — one
//!   cacheline-padded slot per registered reader, so read acquisition makes
//!   no store to any line shared with another reader ([`DistRwLock`]; NR §3
//!   calls for exactly this "writer-preference variant of the distributed
//!   reader-writer lock");
//! * a **centralized writer-preference reader-writer lock**, the per-bucket
//!   lock of the SOFT baseline ([`RwSpinLock`]);
//! * a **starvation-free reader-writer lock**, the drop-in the paper suggests
//!   for starvation-free read-only operations (§4.2 "Liveness")
//!   ([`PhaseFairRwLock`]);
//! * the [`ReplicaLock`] trait abstracting over the distributed and the
//!   starvation-free lock, so the replica holds whichever one the fairness
//!   mode selects;
//! * a **strong try reader-writer lock**, required by the CX-UC/CX-PUC
//!   baselines of Correia et al. ([`StrongTryRwLock`]);
//! * a **seqlock-style version cell** bracketing combiner writes so
//!   read-only operations can run lock-free and validate afterwards —
//!   zero RMWs, zero shared-line stores per read ([`SeqVersion`]);
//! * a **single-owner wake slot** for the hand-offs where a thread may
//!   stay idle for long — a server's executors, the durability drainer,
//!   whoever waits on the durable watermark: the owner parks, wakers
//!   unpark, and a store→load pair on each side rules out the lost
//!   wake-up ([`WakeSlot`]).
//!
//! All locks here are spin locks in the tradition of the originals, but every
//! wait loop goes through [`Waiter`], which spins briefly and then yields to
//! the OS scheduler. This matters on oversubscribed machines (many more
//! threads than cores): a pure spin loop would live-lock the benchmark
//! harness, while `Waiter` keeps the fast path identical to a spin lock when
//! a core is available.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cell;

mod dist_rw;
mod phase_fair;
mod replica_lock;
mod rw_spin;
mod seq_version;
mod strong_try;
mod ticket;
mod trylock;
mod waiter;
mod wake_slot;

pub use dist_rw::{DistReadGuard, DistRwLock, DistWriteGuard, ReaderId};
pub use phase_fair::{PhaseFairReadGuard, PhaseFairRwLock, PhaseFairWriteGuard};
pub use replica_lock::ReplicaLock;
pub use rw_spin::{RwSpinLock, RwSpinReadGuard, RwSpinWriteGuard};
pub use seq_version::SeqVersion;
pub use strong_try::{StrongTryReadGuard, StrongTryRwLock, StrongTryWriteGuard};
pub use ticket::{TicketGuard, TicketLock};
pub use trylock::{TryLock, TryLockGuard};
pub use waiter::{spin_until, Waiter};
pub use wake_slot::WakeSlot;

pub use crossbeam_utils::CachePadded;
