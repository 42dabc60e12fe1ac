//! Adapters that run one measurement cell against each system under test.

use std::sync::Arc;
use std::time::Duration;

use prep_cx::{CxConfig, CxUc};
use prep_nr::{FairnessMode, GlobalLockUc, NodeReplicated, NoopHooks};
use prep_pmem::{PmemRuntime, PmemStatsSnapshot};
use prep_seqds::SequentialObject;
use prep_soft::SoftHashMap;
use prep_topology::Topology;
use prep_uc::{PrepConfig, PrepUc};

use prep_shard::ShardedStore;

use crate::report::Phase;
use crate::runner::{measure, Measurement};
use crate::workload::MapOpGen;

/// Read-path counters captured from the construction after a cell's
/// window (zero for targets that do not expose them).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadPathCounters {
    /// Validated optimistic lock-free reads (zero RMWs, zero shared
    /// stores each).
    pub fast_optimistic: u64,
    /// Optimistic reads that failed seqlock validation and fell back to
    /// the locked path.
    pub validation_failures: u64,
    /// Locked reads that missed the zero-contention fast path.
    pub slow_paths: u64,
}

/// A measurement plus the persistence-counter delta it generated.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// Throughput measurement.
    pub m: Measurement,
    /// Persistence ops performed during the window (zero for volatile
    /// targets).
    pub stats: PmemStatsSnapshot,
    /// Read-path counters (populated by [`run_nr_fair`]; zero elsewhere).
    pub reads: ReadPathCounters,
}

impl CellResult {
    fn volatile(m: Measurement) -> Self {
        CellResult {
            m,
            stats: PmemStatsSnapshot::default(),
            reads: ReadPathCounters::default(),
        }
    }

    /// Flush instructions per completed operation.
    pub fn flushes_per_op(&self) -> f64 {
        if self.m.total_ops == 0 {
            0.0
        } else {
            self.stats.total_flushes() as f64 / self.m.total_ops as f64
        }
    }

    /// Fences per completed operation.
    pub fn fences_per_op(&self) -> f64 {
        if self.m.total_ops == 0 {
            0.0
        } else {
            self.stats.sfence as f64 / self.m.total_ops as f64
        }
    }
}

/// A per-worker operation stream: an owned closure yielding operations.
pub type OpStream<O> = Box<dyn FnMut() -> O + Send>;

/// Runs one cell against PREP-UC (buffered or durable per `cfg`).
pub fn run_prep<T, G>(
    obj: T,
    cfg: PrepConfig,
    topo: Topology,
    threads: usize,
    secs: f64,
    gen: G,
) -> CellResult
where
    T: SequentialObject,
    G: Fn(usize) -> OpStream<T::Op> + Sync,
{
    let rt = Arc::clone(&cfg.runtime);
    let asg = topo.assign_workers(threads);
    let prep = PrepUc::new(obj, asg, cfg);
    let phase = Phase::start(&rt);
    let prep_ref = &prep;
    let m = measure(threads, Duration::from_secs_f64(secs), move |w| {
        let token = prep_ref.register(w);
        let mut ops = gen(w);
        Box::new(move || {
            prep_ref.execute(&token, ops());
        })
    });
    let stats = phase.finish();
    let reads = ReadPathCounters {
        fast_optimistic: prep.read_fast_optimistic(),
        validation_failures: prep.read_validation_failures(),
        slow_paths: prep.read_slow_paths(),
    };
    drop(prep);
    CellResult { m, stats, reads }
}

/// Runs one cell against volatile NR-UC (the paper's PREP-V).
pub fn run_nr<T, G>(
    obj: T,
    topo: Topology,
    log_size: u64,
    threads: usize,
    secs: f64,
    gen: G,
) -> CellResult
where
    T: SequentialObject,
    G: Fn(usize) -> OpStream<T::Op> + Sync,
{
    let asg = topo.assign_workers(threads);
    let nr = NodeReplicated::new(obj, asg, log_size);
    let nr_ref = &nr;
    let m = measure(threads, Duration::from_secs_f64(secs), move |w| {
        let token = nr_ref.register(w);
        let mut ops = gen(w);
        Box::new(move || {
            nr_ref.execute(&token, ops());
        })
    });
    CellResult::volatile(m)
}

/// Runs one cell against volatile NR with an explicit [`FairnessMode`] —
/// the readscale figure's knob — and captures the read-path counters.
pub fn run_nr_fair<T, G>(
    obj: T,
    topo: Topology,
    log_size: u64,
    fairness: FairnessMode,
    threads: usize,
    secs: f64,
    gen: G,
) -> CellResult
where
    T: SequentialObject,
    G: Fn(usize) -> OpStream<T::Op> + Sync,
{
    let asg = topo.assign_workers(threads);
    let nr = NodeReplicated::with_hooks_and_fairness(obj, asg, log_size, NoopHooks, fairness);
    let nr_ref = &nr;
    let m = measure(threads, Duration::from_secs_f64(secs), move |w| {
        let token = nr_ref.register(w);
        let mut ops = gen(w);
        Box::new(move || {
            nr_ref.execute(&token, ops());
        })
    });
    let reads = ReadPathCounters {
        fast_optimistic: nr.read_fast_optimistic(),
        validation_failures: nr.read_validation_failures(),
        slow_paths: nr.read_slow_paths(),
    };
    let mut cell = CellResult::volatile(m);
    cell.reads = reads;
    cell
}

/// Runs one cell against the global-lock baseline.
pub fn run_gl<T, G>(obj: T, threads: usize, secs: f64, gen: G) -> CellResult
where
    T: SequentialObject,
    G: Fn(usize) -> OpStream<T::Op> + Sync,
{
    let gl = GlobalLockUc::new(obj);
    let m = measure(threads, Duration::from_secs_f64(secs), |w| {
        let mut ops = gen(w);
        let gl = &gl;
        Box::new(move || {
            gl.execute(ops());
        })
    });
    CellResult::volatile(m)
}

/// Runs one cell against CX-UC / CX-PUC.
pub fn run_cx<T, G>(obj: T, cfg: CxConfig, threads: usize, secs: f64, gen: G) -> CellResult
where
    T: SequentialObject,
    G: Fn(usize) -> OpStream<T::Op> + Sync,
{
    let phase = cfg.persistence.as_ref().map(Phase::start);
    let cx = CxUc::new(obj, cfg);
    let m = measure(threads, Duration::from_secs_f64(secs), |w| {
        let mut ops = gen(w);
        let cx = &cx;
        Box::new(move || {
            cx.execute(ops());
        })
    });
    let stats = phase.map(|p| p.finish()).unwrap_or_default();
    let reads = ReadPathCounters {
        fast_optimistic: cx.read_fast_optimistic(),
        validation_failures: cx.read_validation_failures(),
        slow_paths: 0,
    };
    CellResult { m, stats, reads }
}

/// Runs one cell against the SOFT hashtable (Figure 6).
pub fn run_soft(
    buckets: usize,
    key_range: u64,
    read_pct: u32,
    rt: Arc<PmemRuntime>,
    threads: usize,
    secs: f64,
) -> CellResult {
    let soft = SoftHashMap::new(buckets, Arc::clone(&rt));
    for k in (0..key_range).step_by(2) {
        soft.insert(k, k ^ 0xABCD);
    }
    let phase = Phase::start(&rt);
    let m = measure(threads, Duration::from_secs_f64(secs), |w| {
        let mut gen = MapOpGen::new(read_pct, key_range, w);
        let soft = &soft;
        Box::new(move || {
            use prep_seqds::hashmap::MapOp;
            match gen.next_op() {
                MapOp::Get { key } | MapOp::Contains { key } => {
                    soft.contains(key);
                }
                MapOp::Insert { key, value } => {
                    soft.insert(key, value);
                }
                MapOp::Remove { key } => {
                    soft.remove(key);
                }
                MapOp::Len => {
                    soft.len();
                }
            }
        })
    });
    let stats = phase.finish();
    CellResult {
        m,
        stats,
        reads: ReadPathCounters::default(),
    }
}

/// One shard's share of a sharded measurement cell.
#[derive(Debug, Clone, Copy)]
pub struct ShardLane {
    /// Update operations this shard's log completed during the window.
    pub updates: u64,
    /// Persistence ops this shard's own runtime performed during the
    /// window.
    pub stats: PmemStatsSnapshot,
}

impl ShardLane {
    /// Flush instructions per completed update on this shard.
    pub fn flushes_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.stats.total_flushes() as f64 / self.updates as f64
        }
    }

    /// Fences per completed update on this shard.
    pub fn fences_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.stats.sfence as f64 / self.updates as f64
        }
    }
}

/// A sharded measurement: whole-store throughput plus one accounting lane
/// per shard.
#[derive(Debug, Clone)]
pub struct ShardCell {
    /// Throughput measurement (all shards together).
    pub m: Measurement,
    /// Per-shard update counts and persistence deltas.
    pub shards: Vec<ShardLane>,
}

impl ShardCell {
    /// Updates completed across all shards.
    pub fn total_updates(&self) -> u64 {
        self.shards.iter().map(|l| l.updates).sum()
    }

    /// Store-wide flushes per update.
    pub fn flushes_per_update(&self) -> f64 {
        let updates = self.total_updates();
        if updates == 0 {
            0.0
        } else {
            let flushes: u64 = self.shards.iter().map(|l| l.stats.total_flushes()).sum();
            flushes as f64 / updates as f64
        }
    }

    /// Store-wide fences per update.
    pub fn fences_per_update(&self) -> f64 {
        let updates = self.total_updates();
        if updates == 0 {
            0.0
        } else {
            let fences: u64 = self.shards.iter().map(|l| l.stats.sfence).sum();
            fences as f64 / updates as f64
        }
    }
}

/// Runs one cell against a sharded PREP-UC store
/// (`prep_shard::ShardedStore`) in per-shard-runtime mode, so each shard's
/// flush/fence traffic is attributed to its own counters (one
/// [`Phase`] per shard).
#[allow(clippy::too_many_arguments)] // one knob per sweep dimension, like the other adapters
pub fn run_sharded<T, G>(
    obj: T,
    shards: usize,
    cfg: PrepConfig,
    topo: Topology,
    threads: usize,
    secs: f64,
    gen: G,
    key_fn: impl Fn(&T::Op) -> u64 + Send + Sync + 'static,
) -> ShardCell
where
    T: SequentialObject,
    G: Fn(usize) -> OpStream<T::Op> + Sync,
{
    let asg = topo.assign_workers(threads);
    let store = ShardedStore::with_per_shard_runtimes(obj, shards, asg, cfg, key_fn);
    // One StoreMetrics snapshot replaces the former per-shard Phase + tail
    // bookkeeping; the same struct backs prep-serve's ADMIN STATS verb.
    let before = store.metrics();
    let store_ref = &store;
    let m = measure(threads, Duration::from_secs_f64(secs), move |w| {
        let token = store_ref.register(w);
        let mut ops = gen(w);
        Box::new(move || {
            store_ref.execute(&token, ops());
        })
    });
    let delta = store.metrics().delta(&before);
    let lanes = delta
        .shards
        .iter()
        .map(|s| ShardLane {
            updates: s.completed_tail,
            stats: s.stats,
        })
        .collect();
    ShardCell { m, shards: lanes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{prefilled_hashmap, MapOpGen};
    use prep_pmem::LatencyModel;
    use prep_uc::DurabilityLevel;

    fn quick_topo() -> Topology {
        Topology::new(2, 4, 1)
    }

    fn map_gen(
        read_pct: u32,
        keys: u64,
    ) -> impl Fn(usize) -> OpStream<prep_seqds::hashmap::MapOp> + Sync {
        move |w| {
            let mut g = MapOpGen::new(read_pct, keys, w);
            Box::new(move || g.next_op())
        }
    }

    #[test]
    fn prep_cell_produces_throughput_and_stats() {
        let cfg = prep_uc::PrepConfig::new(DurabilityLevel::Durable)
            .with_log_size(4096)
            .with_epsilon(256)
            .with_runtime(PmemRuntime::for_benchmarks(LatencyModel::off()));
        let cell = run_prep(
            prefilled_hashmap(1024),
            cfg,
            quick_topo(),
            2,
            0.05,
            map_gen(50, 1024),
        );
        assert!(cell.m.total_ops > 0);
        assert!(cell.stats.total_flushes() > 0, "durable must flush");
        assert!(cell.flushes_per_op() > 0.0);
    }

    #[test]
    fn nr_and_gl_cells_are_volatile() {
        let cell = run_nr(
            prefilled_hashmap(512),
            quick_topo(),
            4096,
            2,
            0.05,
            map_gen(90, 512),
        );
        assert!(cell.m.total_ops > 0);
        assert_eq!(cell.stats.total_flushes(), 0);
        let cell = run_gl(prefilled_hashmap(512), 2, 0.05, map_gen(90, 512));
        assert!(cell.m.total_ops > 0);
    }

    #[test]
    fn cx_persistent_cell_flushes_heavily() {
        let rt = PmemRuntime::for_benchmarks(LatencyModel::off());
        let cell = run_cx(
            prefilled_hashmap(512),
            CxConfig::persistent(2, rt),
            2,
            0.05,
            map_gen(0, 512),
        );
        assert!(cell.m.total_ops > 0);
        assert!(
            cell.flushes_per_op() > 1.0,
            "CX-PUC flushes whole replicas: {:?}",
            cell.stats
        );
    }

    #[test]
    fn sharded_cell_attributes_work_to_lanes() {
        let cfg = prep_uc::PrepConfig::new(DurabilityLevel::Durable)
            .with_log_size(4096)
            .with_epsilon(256)
            .with_runtime(PmemRuntime::for_benchmarks(LatencyModel::off()));
        let cell = run_sharded(
            prefilled_hashmap(1024),
            2,
            cfg,
            quick_topo(),
            2,
            0.05,
            map_gen(50, 1024),
            |op| op.key().unwrap_or(0),
        );
        assert!(cell.m.total_ops > 0);
        assert_eq!(cell.shards.len(), 2);
        assert!(cell.total_updates() > 0);
        assert!(
            cell.shards.iter().all(|l| l.updates > 0),
            "uniform keys must load both shards: {:?}",
            cell.shards
        );
        assert!(cell.flushes_per_update() > 0.0, "durable must flush");
        assert!(
            cell.shards.iter().all(|l| l.stats.total_flushes() > 0),
            "each shard's own runtime must see its flushes"
        );
    }

    #[test]
    fn soft_cell_flushes_at_most_once_per_op() {
        let rt = PmemRuntime::for_benchmarks(LatencyModel::off());
        let cell = run_soft(64, 512, 0, rt, 2, 0.05);
        assert!(cell.m.total_ops > 0);
        assert!(
            cell.flushes_per_op() <= 1.01,
            "SOFT flushes one line per successful update: {}",
            cell.flushes_per_op()
        );
    }
}
