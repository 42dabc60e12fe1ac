//! Benchmark harness for the PREP-UC reproduction.
//!
//! Everything needed to regenerate the paper's evaluation (§6): workload
//! generators matching the paper's micro-benchmarks ([`workload`]), a
//! thread-sweep measurement runner ([`runner`]), target adapters for every
//! system under test ([`targets`]), and one driver per paper figure
//! ([`figures`]).
//!
//! The CLI binary (`cargo run -p prep-bench --release -- <figN|all>`)
//! prints, for each figure, the same series the paper plots — throughput in
//! operations per second against worker-thread count — plus the persistence
//! counters that explain the shape (flushes/op, fences/op, WBINVDs).
//!
//! Two scales:
//! * **quick** (default): small structures, short trials, few threads —
//!   finishes in minutes on a laptop and preserves every qualitative
//!   relationship (who wins, crossovers).
//! * **`--full`**: the paper's parameters (1M keys, 1M-entry log, 10 s
//!   trials, thread sweep to 95). Budget hours, and note the reproduction
//!   machine is CPU-oversubscribed (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "the figure drivers time and pace runs from outside the latency model and the `Waiter`"
)]

pub mod figures;
pub mod report;
pub mod runner;
pub mod targets;
pub mod workload;

/// Options shared by all figure drivers.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Paper-scale parameters instead of quick-scale.
    pub full: bool,
    /// Worker-thread counts to sweep.
    pub threads: Vec<usize>,
    /// Seconds per measurement cell.
    pub seconds: f64,
    /// Optional data-structure filter for Figure 2 (`hashmap` / `rbtree`).
    pub ds_filter: Option<String>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            full: false,
            threads: vec![1, 2, 4, 8],
            seconds: 0.3,
            ds_filter: None,
        }
    }
}

impl RunOpts {
    /// Paper-scale options.
    pub fn full() -> Self {
        RunOpts {
            full: true,
            threads: vec![1, 8, 16, 24, 36, 48, 60, 72, 84, 95],
            seconds: 10.0,
            ds_filter: None,
        }
    }

    /// Key range for map figures.
    pub fn key_range(&self) -> u64 {
        if self.full {
            1_000_000
        } else {
            16_384
        }
    }

    /// Shared-log capacity.
    pub fn log_size(&self) -> u64 {
        if self.full {
            1 << 20
        } else {
            8_192
        }
    }

    /// The paper's "small" and "large" ε for this scale (100 and 10000 at
    /// paper scale — 10000 is 1% of the log, quick scale keeps that ratio).
    pub fn epsilons(&self) -> (u64, u64) {
        if self.full {
            (100, 10_000)
        } else {
            (16, 1_024)
        }
    }
}
