//! Tabular output for the figure drivers, and the [`Phase`] accounting
//! helper every measurement window uses.

use std::sync::Arc;

use prep_pmem::{PmemRuntime, PmemStatsSnapshot};

use crate::targets::CellResult;

/// The HDR-style log-bucketed histogram the serve figure reports
/// percentiles from — re-exported so figure drivers and external callers
/// aggregate latency through one type (it merges, so per-connection
/// histograms fold into a run-wide one).
pub use prep_loadgen::LatencyHistogram;

/// Persistence accounting for one measurement phase: snapshots a runtime's
/// counters at construction and yields the per-field delta on demand via
/// [`PmemStatsSnapshot::delta`]. Replaces the hand-rolled
/// `before`/`delta_since` pairs at every adapter call site — and per-shard
/// accounting is just one `Phase` per shard runtime.
#[derive(Debug)]
pub struct Phase {
    runtime: Arc<PmemRuntime>,
    start: PmemStatsSnapshot,
}

impl Phase {
    /// Starts accounting against `runtime` now.
    pub fn start(runtime: &Arc<PmemRuntime>) -> Self {
        Phase {
            runtime: Arc::clone(runtime),
            start: runtime.stats().snapshot(),
        }
    }

    /// The persistence work done since [`Phase::start`] (non-consuming, so
    /// a driver can sample mid-phase and at the end).
    pub fn finish(&self) -> PmemStatsSnapshot {
        self.runtime.stats().snapshot().delta(&self.start)
    }
}

/// Prints a figure's title banner.
pub fn banner(fig: &str, description: &str) {
    println!();
    println!("== {fig}: {description}");
    println!(
        "{:<22} {:<14} {:>7} {:>14} {:>12} {:>10} {:>10} {:>8}",
        "panel", "series", "threads", "ops/sec", "total_ops", "flush/op", "fence/op", "wbinvd"
    );
}

/// Prints one measurement row.
pub fn row(panel: &str, series: &str, cell: &CellResult) {
    println!(
        "{:<22} {:<14} {:>7} {:>14.0} {:>12} {:>10.3} {:>10.3} {:>8}",
        panel,
        series,
        cell.m.threads,
        cell.m.ops_per_sec(),
        cell.m.total_ops,
        cell.flushes_per_op(),
        cell.fences_per_op(),
        cell.stats.wbinvd,
    );
}

/// Prints the checkpoint figure's title banner (write-back traffic
/// columns).
pub fn checkpoint_banner(fig: &str, description: &str) {
    println!();
    println!("== {fig}: {description}");
    println!(
        "{:<16} {:<12} {:<10} {:>7} {:>12} {:>8} {:>14} {:>11} {:>9}",
        "panel",
        "series",
        "skew",
        "threads",
        "ops/sec",
        "ckpts",
        "ckpt_bytes/op",
        "lines/ckpt",
        "flush/op"
    );
}

/// Prints one checkpoint-sweep measurement row.
pub fn checkpoint_row(panel: &str, series: &str, skew: &str, cell: &CellResult) {
    let bytes_per_op = if cell.m.total_ops == 0 {
        0.0
    } else {
        cell.stats.checkpoint_bytes as f64 / cell.m.total_ops as f64
    };
    let lines_per_ckpt = if cell.stats.checkpoints == 0 {
        0.0
    } else {
        cell.stats.checkpoint_lines as f64 / cell.stats.checkpoints as f64
    };
    println!(
        "{:<16} {:<12} {:<10} {:>7} {:>12.0} {:>8} {:>14.1} {:>11.1} {:>9.3}",
        panel,
        series,
        skew,
        cell.m.threads,
        cell.m.ops_per_sec(),
        cell.stats.checkpoints,
        bytes_per_op,
        lines_per_ckpt,
        cell.flushes_per_op(),
    );
}

/// Prints the shard-sweep figure's title banner (per-shard columns).
pub fn shard_banner(fig: &str, description: &str) {
    println!();
    println!("== {fig}: {description}");
    println!(
        "{:<14} {:<10} {:>7} {:>6} {:>14} {:>12} {:>10} {:>10}",
        "panel", "series", "threads", "shard", "ops/sec", "updates", "flush/op", "fence/op"
    );
}

/// Prints a shard sweep's whole-store summary row.
pub fn shard_summary_row(
    panel: &str,
    series: &str,
    threads: usize,
    ops_per_sec: f64,
    total_updates: u64,
    flushes_per_update: f64,
    fences_per_update: f64,
) {
    println!(
        "{:<14} {:<10} {:>7} {:>6} {:>14.0} {:>12} {:>10.3} {:>10.3}",
        panel,
        series,
        threads,
        "all",
        ops_per_sec,
        total_updates,
        flushes_per_update,
        fences_per_update,
    );
}

/// Prints one shard's accounting row within a sweep cell.
pub fn shard_lane_row(
    panel: &str,
    series: &str,
    shard: usize,
    updates: u64,
    flushes_per_update: f64,
    fences_per_update: f64,
) {
    println!(
        "{:<14} {:<10} {:>7} {:>6} {:>14} {:>12} {:>10.3} {:>10.3}",
        panel, series, "", shard, "", updates, flushes_per_update, fences_per_update,
    );
}

/// Formats ops/sec compactly for summaries (e.g. "1.25M").
pub fn human_rate(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2}M", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}k", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rate_picks_suffixes() {
        assert_eq!(human_rate(12.0), "12");
        assert_eq!(human_rate(1_500.0), "1.5k");
        assert_eq!(human_rate(2_500_000.0), "2.50M");
    }
}
