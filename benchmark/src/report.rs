//! What a workload run hands back, the samples the main thread takes at
//! slice boundaries, and the store-counter metrics every workload shares.

use prep_shard::StoreMetrics;

use crate::host::{self, now_ns, Task};
use crate::spec::Store;
use crate::stats::{ratio, Metric};
use crate::trace::{self, Span};

#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the timed window, and those that failed: shed,
    /// errored, unanswered, wrong, or breaking the durability contract.
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed as `# ...` lines before the result.
    pub notes: Vec<String>,
    /// Reasons the run does not count although no operation failed.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// Writes the traced run's spans out and notes where.
    pub fn save_trace(&mut self, workload: &str, spans: &[Span]) {
        match trace::write_jsonl(workload, spans) {
            Ok(path) => self
                .notes
                .push(format!("trace: {} spans in {path}", spans.len())),
            Err(e) => self.invalid.push(format!("cannot write the trace: {e}")),
        }
    }
}

/// The process as the main thread sees it at one instant.
pub struct Boundary {
    pub t_ns: u64,
    pub tasks: Vec<Task>,
}

impl Boundary {
    pub fn take() -> Boundary {
        Boundary {
            t_ns: now_ns(),
            tasks: host::tasks(),
        }
    }

    /// CPU (ns) and switches of the system under test since `earlier`.
    pub fn sut_since(&self, earlier: &Boundary) -> (u64, u64) {
        let (c1, s1) = host::system_under_test(&self.tasks);
        let (c0, s0) = host::system_under_test(&earlier.tasks);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }

    /// CPU (ns) of the threads named `prefix*` since `earlier`, as a share
    /// of one core over the interval.
    pub fn share_since(&self, earlier: &Boundary, prefix: &str) -> f64 {
        let c1 = host::group(&self.tasks, &[prefix]).0;
        let c0 = host::group(&earlier.tasks, &[prefix]).0;
        ratio(
            c1.saturating_sub(c0) as f64,
            (self.t_ns - earlier.t_ns) as f64,
        )
    }

    /// CPU of every thread of the process since `earlier`, as a share of
    /// the whole machine.
    pub fn util_since(&self, earlier: &Boundary) -> f64 {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.share_since(earlier, "") / nproc as f64
    }
}

/// The per-layer metrics read off the store's own counters over an
/// interval: persistence work per completed update and how reads were
/// served. `reads` is the number of read-only operations issued.
pub fn store_counter_metrics(
    before: &StoreMetrics,
    after: &StoreMetrics,
    reads: u64,
) -> Vec<Metric> {
    let d = after.delta(before);
    let updates = d.total_completed() as f64;
    let p = d.total_stats();
    let reads = reads as f64;
    vec![
        Metric::point(
            "pmem.flush_per_update",
            "n",
            ratio(p.total_flushes() as f64, updates),
        ),
        Metric::point(
            "pmem.sfence_per_update",
            "n",
            ratio(p.sfence as f64, updates),
        ),
        Metric::point(
            "pmem.wbinvd_per_kupdate",
            "n",
            ratio(p.wbinvd as f64 * 1e3, updates),
        ),
        Metric::point(
            "pmem.ckpt_bytes_per_update",
            "B",
            ratio(p.checkpoint_bytes as f64, updates),
        ),
        Metric::point(
            "pmem.bytes_persisted_per_update",
            "B",
            ratio(p.bytes_persisted as f64, updates),
        ),
        Metric::point(
            "nr.read_fast_share",
            "ratio",
            ratio(d.total_read_fast_optimistic() as f64, reads),
        ),
        Metric::point(
            "nr.read_validation_fail_share",
            "ratio",
            ratio(d.total_read_validation_failures() as f64, reads),
        ),
        Metric::point(
            "nr.read_slow_share",
            "ratio",
            ratio(d.total_read_slow_paths() as f64, reads),
        ),
    ]
}

/// Completed updates not yet crash-survivable, summed over shards.
pub fn persist_lag(store: &Store) -> u64 {
    store
        .completed_tails()
        .iter()
        .zip(store.durable_watermarks())
        .map(|(tail, mark)| tail.saturating_sub(mark))
        .sum()
}
