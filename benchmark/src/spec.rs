//! The five workloads, as data: which store each runs against and what
//! traffic it gets. Everything else in the benchmark is driven from here.

use prep_loadgen::keys::{KeyMix, KeySampler};
use prep_seqds::hashmap::{HashMap, MapOp};
use prep_serve::{AckLevel, ServeConfig};
use prep_shard::ShardedStore;
use prep_topology::{ThreadAssignment, Topology};
use prep_uc::{DurabilityLevel, FairnessMode, LatencyModel, PmemRuntime, PrepConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Threads that drive a store directly (engine and crash workloads, and the
/// recovery cycles of every workload). The host has two CPUs.
pub const WORKERS: usize = 2;

pub type Store = ShardedStore<HashMap>;

/// The store a workload runs against.
#[derive(Debug, Clone)]
pub struct StoreSpec {
    pub shards: usize,
    /// Registered NR workers (sizes β).
    pub workers: usize,
    pub durability: DurabilityLevel,
    pub epsilon: u64,
    pub log_size: u64,
    pub latency: LatencyModel,
    pub fairness: FairnessMode,
    /// Keys `0..keys` are present before the timed window.
    pub keys: u64,
}

impl StoreSpec {
    /// The store `Server::start(cfg)` builds (`ServeConfig::prep_config` and
    /// the assignment in `Server::start` are private; this mirrors them).
    fn of_server(cfg: &ServeConfig, keys: u64) -> StoreSpec {
        StoreSpec {
            shards: cfg.shards,
            workers: cfg.shards * cfg.executors_per_shard,
            durability: cfg.durability,
            epsilon: cfg.epsilon,
            log_size: cfg.log_size,
            latency: cfg.latency,
            fairness: cfg.fairness,
            keys,
        }
    }

    /// The library's defaults (log 2^20, eps 10 000, Optane model).
    fn library_default(
        durability: DurabilityLevel,
        fairness: FairnessMode,
        keys: u64,
    ) -> StoreSpec {
        let d = PrepConfig::new(durability);
        StoreSpec {
            shards: 2,
            workers: WORKERS,
            durability,
            epsilon: d.epsilon,
            log_size: d.log_size,
            latency: LatencyModel::optane(),
            fairness,
            keys,
        }
    }

    /// One core more than workers: the topology reserves a CPU for the
    /// persistence thread (as `Server::start` does).
    pub fn assignment(&self) -> ThreadAssignment {
        Topology::new(1, self.workers + 1, 1).assign_workers(self.workers)
    }

    /// A fresh configuration on a fresh runtime.
    pub fn prep_config(&self, durability: DurabilityLevel, crash_sim: bool) -> PrepConfig {
        PrepConfig::new(durability)
            .with_log_size(self.log_size)
            .with_epsilon(self.epsilon)
            .with_runtime(PmemRuntime::new(self.latency, crash_sim))
            .with_fairness(self.fairness)
    }

    pub fn build(&self, crash_sim: bool) -> Store {
        Store::new(
            HashMap::new(),
            self.shards,
            self.assignment(),
            self.prep_config(self.durability, crash_sim),
            route_key,
        )
    }
}

/// The key of worker `w`'s share nearest to `key`: workers own the keys
/// congruent to their index, so each knows the exact state of what it
/// writes.
pub fn owned(key: u64, w: usize) -> u64 {
    key - key % WORKERS as u64 + w as u64
}

/// Routing key of the map ops (`Len` is never issued here).
pub fn route_key(op: &MapOp) -> u64 {
    op.key().unwrap_or(0)
}

/// The value stored under `key` by its `seq`-th write: any value read back
/// names the key it belongs to and the write that produced it.
pub fn value_of(key: u64, seq: u64) -> u64 {
    (key << 32) | seq
}

pub fn seq_of(value: u64) -> u64 {
    value & 0xFFFF_FFFF
}

pub fn key_of(value: u64) -> u64 {
    value >> 32
}

/// What a workload sends.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Open loop over one TCP connection at `rate` requests per second.
    Wire {
        rate: u64,
        get_share: f64,
        ack: AckLevel,
    },
    /// Closed loop, [`WORKERS`] threads calling `ShardedStore::execute`.
    Engine { get_share: f64 },
    /// Update bursts cut by crashes; durability alternates per cycle.
    Crash { updates_per_worker: u64 },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub store: StoreSpec,
    pub mix: KeyMix,
    pub traffic: Traffic,
    /// Server configuration (wire workloads only).
    pub serve: Option<ServeConfig>,
}

const ZIPF: KeyMix = KeyMix::Zipfian { theta: 0.99 };

/// The workload table. BENCHMARK.json and README.md give the reason for
/// each; sizes are chosen so that three set-ups, the timed window and the
/// two rounds of recovery cycles fit the driver's per-run budget on two CPUs.
pub fn workloads() -> Vec<Workload> {
    // The server's defaults but for the depth of the shard queues: this
    // host has holes of 20-170 ms in which one or both CPUs stand still
    // (one run in four), and 4 000 req/s piling up behind a hole overflows
    // the default 128 and is shed as `RETRY`. The workloads run at a few
    // percent of capacity, where the queues hold 0-2 requests; they are not
    // about backpressure.
    let mixed = ServeConfig {
        queue_depth: 8_192,
        ..ServeConfig::default()
    };
    let durable = ServeConfig {
        latency: LatencyModel::optane(),
        ..mixed.clone()
    };
    vec![
        Workload {
            name: "wire_mixed",
            store: StoreSpec::of_server(&mixed, 16_384),
            mix: ZIPF,
            traffic: Traffic::Wire {
                rate: 4_000,
                get_share: 0.5,
                ack: AckLevel::Buffered,
            },
            serve: Some(mixed),
        },
        Workload {
            name: "wire_durable",
            store: StoreSpec::of_server(&durable, 16_384),
            mix: KeyMix::Uniform,
            traffic: Traffic::Wire {
                rate: 4_000,
                get_share: 0.0,
                ack: AckLevel::Durable,
            },
            serve: Some(durable),
        },
        Workload {
            name: "engine_update",
            store: StoreSpec::library_default(
                DurabilityLevel::Durable,
                FairnessMode::default(),
                262_144,
            ),
            mix: KeyMix::Uniform,
            traffic: Traffic::Engine { get_share: 0.0 },
            serve: None,
        },
        Workload {
            name: "engine_read",
            // The read path the server ships, read at run time so a later
            // change of the enum or the default cannot break the benchmark.
            store: StoreSpec::library_default(
                DurabilityLevel::Buffered,
                ServeConfig::default().fairness,
                65_536,
            ),
            mix: ZIPF,
            traffic: Traffic::Engine { get_share: 0.99 },
            serve: None,
        },
        Workload {
            name: "crash_recover",
            store: StoreSpec {
                shards: 2,
                workers: WORKERS,
                durability: DurabilityLevel::Buffered,
                epsilon: 64,
                log_size: 4096,
                latency: LatencyModel::off(),
                fairness: FairnessMode::default(),
                keys: 8_192,
            },
            mix: KeyMix::Uniform,
            traffic: Traffic::Crash {
                updates_per_worker: 500,
            },
            serve: None,
        },
    ]
}

/// A seeded stream of keys with the workload's popularity curve.
pub struct KeyStream {
    sampler: KeySampler,
    rng: SmallRng,
}

impl KeyStream {
    /// `lane` separates the streams one seed feeds (warm-up, window, each
    /// worker).
    pub fn new(w: &Workload, seed: u64, lane: u64) -> KeyStream {
        KeyStream {
            sampler: KeySampler::new(w.mix, w.store.keys),
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane),
        }
    }

    pub fn key(&mut self) -> u64 {
        self.sampler.sample(&mut self.rng)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }
}
