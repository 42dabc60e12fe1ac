//! # PREP-UC: A Practical Replicated Persistent Universal Construction
//!
//! Reproduction of Coccimiglio, Brown & Ravi (SPAA 2022). Given a sequential
//! object (anything implementing [`prep_seqds::SequentialObject`]), PREP-UC
//! produces a concurrent, NUMA-aware, **recoverable** object — without
//! modifying, instrumenting, or even seeing the sequential code.
//!
//! ## Architecture (paper §4)
//!
//! PREP-UC is node replication (NR-UC, `prep-nr`) plus persistence:
//!
//! * the **shared operation log** doubles as a redo log: its order is the
//!   linearization order, and (durable mode) it is flushed to NVM batch by
//!   batch;
//! * two **persistence-only replicas** live in NVM. A dedicated
//!   *persistence thread* replays the log onto the **active** one; the
//!   **stable** one is quiescent and consistent in NVM. When the log
//!   approaches the flush boundary the active replica is written back with
//!   WBINVD, the roles swap (persisted `p_activePReplica` flag), and the
//!   flush boundary advances by **ε**;
//! * reservations on the log are **gated** at the flush boundary
//!   (Algorithm 4), which is what bounds post-crash loss.
//!
//! ## The two durability levels
//!
//! | | persists | loses on crash (completed ops) |
//! |---|---|---|
//! | [`DurabilityLevel::Buffered`] | 2 replicas + `p_activePReplica` | ≤ `ε + β − 1` |
//! | [`DurabilityLevel::Durable`] | the above + log entries + `completedTail` | 0 |
//!
//! (Durable mode can still lose operations that were *pending* — invoked but
//! not completed — at the crash: at most one per worker thread.)
//!
//! ## Quick start
//!
//! ```
//! use prep_uc::{DurabilityLevel, PrepConfig, PrepUc};
//! use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
//! use prep_topology::Topology;
//!
//! let asg = Topology::small().assign_workers(2);
//! let prep = PrepUc::new(
//!     HashMap::new(),
//!     asg,
//!     PrepConfig::new(DurabilityLevel::Buffered).with_log_size(256).with_epsilon(64),
//! );
//! let token = prep.register(0);
//! prep.execute(&token, MapOp::Insert { key: 1, value: 10 });
//! assert_eq!(
//!     prep.execute(&token, MapOp::Get { key: 1 }),
//!     MapResp::Value(Some(10))
//! );
//! ```
//!
//! Crash simulation and recovery are first-class (this reproduction's NVM is
//! an emulator — see `prep-pmem` and DESIGN.md): [`PrepUc::simulate_crash`]
//! captures a consistent cut of everything persisted, and
//! [`PrepUc::recover`] rebuilds the object from it exactly as §5.1/§5.2
//! prescribe.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod hooks;
mod persistence;
mod puc;
mod recovery;

pub use config::{DurabilityLevel, FlushStrategy, PrepConfig, PsanFault};
pub use hooks::PrepHooks;
pub use puc::{PrepUc, PrepVolatile};
pub use recovery::CrashImage;

pub use prep_nr::{FairnessMode, ThreadToken};
pub use prep_pmem::{LatencyModel, PmemRuntime};
