//! One driver per paper figure (see DESIGN.md's per-experiment index).

pub mod ablation;
pub mod checkpoint;
pub mod extension;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod psan;
pub mod readscale;
pub mod serve;
pub mod shard;

use std::sync::Arc;

use prep_pmem::{LatencyModel, PmemRuntime};
use prep_seqds::hashmap::MapOp;
use prep_seqds::pqueue::PqOp;
use prep_seqds::queue::QueueOp;
use prep_seqds::stack::StackOp;
use prep_topology::Topology;

use crate::targets::OpStream;
use crate::workload::{MapOpGen, PqPairGen, QueuePairGen, StackPairGen};
use crate::RunOpts;

/// Topology for a run: the paper machine at full scale; a 2-node, 4-core
/// model at quick scale so small thread counts still span two NUMA nodes.
pub fn topology(opts: &RunOpts) -> Topology {
    if opts.full {
        Topology::paper_machine()
    } else {
        Topology::new(2, 4, 1)
    }
}

/// The host a recording was made on, as a JSON object: core count, CPU
/// model and kernel release (empty strings where `/proc` does not say).
pub(crate) fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"kernel\": \"{}\"}}",
        cpu_model.trim(),
        kernel.trim()
    )
}

/// Thread counts clamped to the topology's worker capacity.
pub fn thread_sweep(opts: &RunOpts) -> Vec<usize> {
    let max = topology(opts).max_workers();
    let mut out: Vec<usize> = opts
        .threads
        .iter()
        .copied()
        .map(|t| t.clamp(1, max))
        .collect();
    out.dedup();
    out
}

/// Persistence cost model for a run (full: Optane-calibrated; quick: the
/// same model scaled down so sub-second trials still complete whole persist
/// cycles).
pub fn latency(opts: &RunOpts) -> LatencyModel {
    if opts.full {
        LatencyModel::optane()
    } else {
        LatencyModel::optane_scaled(8)
    }
}

/// A fresh cost-only runtime for one measurement cell.
pub fn bench_runtime(opts: &RunOpts) -> Arc<PmemRuntime> {
    PmemRuntime::for_benchmarks(latency(opts))
}

/// Uniform-key map op stream factory.
pub fn map_stream(read_pct: u32, key_range: u64) -> impl Fn(usize) -> OpStream<MapOp> + Sync {
    move |w| {
        let mut g = MapOpGen::new(read_pct, key_range, w);
        Box::new(move || g.next_op())
    }
}

/// Enqueue/dequeue pair stream factory (FIFO queue).
pub fn queue_pairs() -> impl Fn(usize) -> OpStream<QueueOp> + Sync {
    |w| {
        let mut g = QueuePairGen::new(w);
        Box::new(move || g.next_op())
    }
}

/// Enqueue/dequeue pair stream factory (priority queue).
pub fn pq_pairs() -> impl Fn(usize) -> OpStream<PqOp> + Sync {
    |w| {
        let mut g = PqPairGen::new(w);
        Box::new(move || g.next_op())
    }
}

/// Push/pop pair stream factory (stack).
pub fn stack_pairs() -> impl Fn(usize) -> OpStream<StackOp> + Sync {
    |w| {
        let mut g = StackPairGen::new(w);
        Box::new(move || g.next_op())
    }
}
