//! NUMA topology model and thread placement for the PREP-UC reproduction.
//!
//! NR-UC and PREP-UC are NUMA-aware: there is one replica per NUMA node, and
//! flat-combining batches are sized by the number of worker threads on a node
//! (the paper's β). The original evaluation binds threads to physical
//! processors on a 2-socket, 24-core/48-thread Xeon machine, filling node 0's
//! cores first, then node 0's hyperthreads, then node 1 (paper §6).
//!
//! Real hardware pinning is neither possible nor meaningful on the
//! reproduction machine (a single-core VM — see DESIGN.md "Hardware
//! substitutions"), so this crate models the placement *logically*: given a
//! topology and a worker count, it answers the questions the algorithms
//! actually depend on:
//!
//! * which NUMA node (→ which replica) does worker `i` belong to?
//! * what is worker `i`'s slot in its node's flat-combining batch?
//! * what is β, the per-node batch capacity?
//! * which CPU is reserved for the persistence thread?
//!
//! ```
//! use prep_topology::Topology;
//! let topo = Topology::paper_machine(); // 2 nodes × 24 cores × 2 SMT
//! assert_eq!(topo.logical_cpus(), 96);
//! let asg = topo.assign_workers(50);
//! assert_eq!(asg.node_of(0), 0);   // first 48 workers fill node 0
//! assert_eq!(asg.node_of(49), 1);  // then node 1
//! ```

#![warn(missing_docs)]

mod assignment;
mod model;

pub use assignment::{ThreadAssignment, WorkerPlacement};
pub use model::{CpuId, Topology};
