//! # prep-shard: a sharded persistent store over PREP-UC
//!
//! One PREP-UC instance serializes every update through a single shared
//! log and a single persistence thread. That is the right construction for
//! one object, but it caps system throughput at one log's combining rate —
//! and many applications (key-value stores above all) are *already
//! partitionable*. Node-replication systems scale past one log by running
//! several of them over disjoint partitions (NrOS's CNR); buffered-durable
//! system layers (Montage) show that a persistent *store* abstraction is
//! what turns a persistent-object primitive into something applications
//! use directly. `prep-shard` combines both ideas on top of this
//! workspace's PREP-UC:
//!
//! * [`ShardedStore`] runs **N independent `PrepUc<T>` instances** — each
//!   with its own operation log, replica set, flush boundary, and
//!   persistence thread — so update throughput scales with the number of
//!   logs instead of being capped by one;
//! * a **key → shard router** ([`router`]) dispatches every operation by
//!   a caller-supplied key function, and [`ShardToken`] carries one
//!   registered NR thread token *per shard* so any worker can hit any
//!   shard without re-registration;
//! * a **cross-shard recovery orchestrator**: all shards (and the store's
//!   two persistent roots, its shard count and recovery epoch) share one
//!   [`prep_pmem::PmemRuntime`], so
//!   [`ShardedStore::simulate_crash`] freezes a **single consistent cut**
//!   across every shard's NVM images at once, and
//!   [`ShardedStore::recover`] rebuilds all N shards from that one cut —
//!   validating the persisted shard layout and bumping a persisted
//!   recovery epoch.
//!
//! ## Correctness condition
//!
//! Each shard independently guarantees PREP-UC's durability condition, and
//! the cut is taken across all shards at one instant, so after a crash:
//!
//! * every shard recovers a **prefix of its own linearization order**;
//! * total completed-operation loss is at most **N·(ε + β − 1)** in
//!   buffered mode ([`ShardedStore::loss_bound`]) and **0** in durable
//!   mode.
//!
//! There is no cross-shard ordering guarantee beyond the cut itself —
//! exactly the per-partition contract CNR gives for partitioned structures
//! (operations spanning two shards would need a cross-log commit protocol,
//! which partitionable workloads by definition do not). A 1-shard store is
//! one log, hence one total order: every operation on it is atomic.
//!
//! ## Quick start
//!
//! ```
//! use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
//! use prep_shard::ShardedStore;
//! use prep_topology::Topology;
//! use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig};
//!
//! let asg = Topology::small().assign_workers(2);
//! let cfg = PrepConfig::new(DurabilityLevel::Durable)
//!     .with_log_size(256)
//!     .with_epsilon(32)
//!     .with_runtime(PmemRuntime::for_crash_tests());
//! // 4 shards, routed by the map key; Len has no key so it broadcasts.
//! let store = ShardedStore::new(HashMap::new(), 4, asg, cfg, |op: &MapOp| match *op {
//!     MapOp::Insert { key, .. }
//!     | MapOp::Remove { key }
//!     | MapOp::Get { key }
//!     | MapOp::Contains { key } => key,
//!     MapOp::Len => 0,
//! });
//! let t = store.register(0);
//! store.execute(&t, MapOp::Insert { key: 7, value: 70 });
//! assert_eq!(store.execute(&t, MapOp::Get { key: 7 }), MapResp::Value(Some(70)));
//! // Aggregate over every shard:
//! let total: usize = store
//!     .execute_all(&t, MapOp::Len)
//!     .into_iter()
//!     .map(|r| match r { MapResp::Len(n) => n, _ => unreachable!() })
//!     .sum();
//! assert_eq!(total, 1);
//! ```

#![warn(missing_docs)]

mod metrics;
pub mod router;
mod store;

pub use metrics::{ShardMetrics, StoreMetrics};
pub use router::{mix64, shard_index, ShardRouter};
pub use store::{ShardToken, ShardedCrashImage, ShardedStore};
