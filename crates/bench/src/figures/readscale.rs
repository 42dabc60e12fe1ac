//! Read-path scaling figure (repo extension, anchored to the paper's §4.2
//! liveness pair and this repo's seqlock-validated read path).
//!
//! The paper's headline workloads are 90%-read (Fig. 1a/1b, Fig. 2,
//! Fig. 6), so the replica read path is the throughput-critical section.
//! This figure sweeps threads × read ratio {10, 50, 90, 100}% × the two
//! [`FairnessMode`]s on the prefilled hashmap under volatile NR (no latency
//! model — the read path is the only variable). A caught-up `Throughput`
//! reader touches *no* shared line: two loads of the replica seqlock
//! version bracket the read, and validation failure falls back to the
//! reader's own `DistRwLock` slot. A `StarvationFree` reader always takes
//! the phase-fair lock.
//!
//! Every cell is run [`REPEATS`] times (repeats outermost, so slow host
//! drift spreads over all cells instead of biasing one) and reported as
//! median, min, max and inter-quartile spread. The counter columns make the
//! path taken visible: `opt` counts validated lock-free reads, `vfail`
//! seqlock validation failures, `slow` reads that found their replica
//! behind `completedTail`.
//!
//! Also records the sweep, with a host fingerprint, as
//! `BENCH_readscale.json` in the working directory.

use prep_nr::FairnessMode;

use crate::figures::{host_fingerprint, map_stream, thread_sweep, topology};
use crate::report;
use crate::targets::{run_nr_fair, CellResult};
use crate::workload::prefilled_hashmap;
use crate::RunOpts;

const MODES: [(FairnessMode, &str); 2] = [
    (FairnessMode::Throughput, "Throughput"),
    (FairnessMode::StarvationFree, "StarvationFree"),
];

const READ_PCTS: [u32; 4] = [10, 50, 90, 100];

/// Runs per cell; odd, so the median is a run that happened.
const REPEATS: usize = 5;

/// One (read ratio, threads, mode) cell: its runs sorted by throughput.
struct Cell {
    read_pct: u32,
    threads: usize,
    fairness: FairnessMode,
    mode: &'static str,
    runs: Vec<CellResult>,
}

impl Cell {
    fn ops(&self, i: usize) -> f64 {
        self.runs[i].m.ops_per_sec()
    }

    fn median(&self) -> &CellResult {
        &self.runs[self.runs.len() / 2]
    }

    fn median_ops(&self) -> f64 {
        self.median().m.ops_per_sec()
    }

    /// Distance between the quartiles of the runs.
    fn iqr(&self) -> f64 {
        let n = self.runs.len();
        self.ops(n - 1 - n / 4) - self.ops(n / 4)
    }
}

/// Runs the read-scaling sweep.
pub fn run(opts: &RunOpts) {
    let topo = topology(opts);
    let keys = opts.key_range(); // 1M keys at full scale (paper hashmap)
    report::banner(
        "Readscale",
        "read-path scaling: threads x read ratio x fairness mode \
         (volatile NR, hashmap, latency model off; median run of each cell)",
    );

    let mut cells: Vec<Cell> = Vec::new();
    for read_pct in READ_PCTS {
        for threads in thread_sweep(opts) {
            for (fairness, mode) in MODES {
                cells.push(Cell {
                    read_pct,
                    threads,
                    fairness,
                    mode,
                    runs: Vec::with_capacity(REPEATS),
                });
            }
        }
    }
    for _ in 0..REPEATS {
        for cell in &mut cells {
            cell.runs.push(run_nr_fair(
                prefilled_hashmap(keys),
                topo,
                opts.log_size(),
                cell.fairness,
                cell.threads,
                opts.seconds,
                &map_stream(cell.read_pct, keys),
            ));
        }
    }
    for cell in &mut cells {
        cell.runs
            .sort_by(|a, b| a.m.ops_per_sec().total_cmp(&b.m.ops_per_sec()));
    }

    for c in &cells {
        let med = c.median();
        report::row(&format!("hashmap-{}r", c.read_pct), c.mode, med);
        println!(
            "      min={:.0} max={:.0} iqr={:.0}  opt={} vfail={} slow={}",
            c.ops(0),
            c.ops(REPEATS - 1),
            c.iqr(),
            med.reads.fast_optimistic,
            med.reads.validation_failures,
            med.reads.slow_paths
        );
    }

    print_winner_summary(&cells);
    write_json(opts, &cells);
}

/// Prints, per (read ratio, threads) panel, the mode with the highest
/// median and whether its lead over the runner-up exceeds both cells'
/// inter-quartile spread.
fn print_winner_summary(cells: &[Cell]) {
    println!();
    println!("-- best mode per panel (median ops/sec over {REPEATS} runs)");
    for panel in cells.chunks(MODES.len()) {
        let mut ranked: Vec<&Cell> = panel.iter().collect();
        ranked.sort_by(|a, b| b.median_ops().total_cmp(&a.median_ops()));
        let (best, second) = (ranked[0], ranked[1]);
        let verdict = if best.median_ops() - second.median_ops() > best.iqr().max(second.iqr()) {
            "beyond spread"
        } else {
            "within spread"
        };
        println!(
            "{:>3}% reads  {:>3} threads  {:<16} {:>6.3}x over {:<16} ({verdict})",
            best.read_pct,
            best.threads,
            best.mode,
            best.median_ops() / second.median_ops(),
            second.mode,
        );
    }
}

/// Hand-rolled JSON dump (no serde in the dependency closure): one object
/// per cell, flat fields plus the sorted per-run throughputs.
fn write_json(opts: &RunOpts, cells: &[Cell]) {
    let mut out = String::from("{\n  \"bench\": \"readscale\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seconds_per_cell\": {},\n  \"repeats\": {REPEATS},\n  \
         \"latency_model\": \"off\",\n  \
         \"host\": {},\n  \
         \"cells\": [\n",
        if opts.full { "full" } else { "quick" },
        opts.seconds,
        host_fingerprint(),
    ));
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let med = c.median();
        let runs: Vec<String> = (0..c.runs.len())
            .map(|i| format!("{:.0}", c.ops(i)))
            .collect();
        out.push_str(&format!(
            "    {{\"read_pct\": {}, \"mode\": \"{}\", \"threads\": {}, \
             \"ops_per_sec_median\": {:.0}, \"ops_per_sec_min\": {:.0}, \
             \"ops_per_sec_max\": {:.0}, \"ops_per_sec_iqr\": {:.0}, \
             \"ops_per_sec_runs\": [{}], \
             \"read_fast_optimistic\": {}, \"read_validation_failures\": {}, \
             \"read_slow_paths\": {}}}{}\n",
            c.read_pct,
            c.mode,
            c.threads,
            c.median_ops(),
            c.ops(0),
            c.ops(REPEATS - 1),
            c.iqr(),
            runs.join(", "),
            med.reads.fast_optimistic,
            med.reads.validation_failures,
            med.reads.slow_paths,
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    let path = "BENCH_readscale.json";
    match std::fs::write(path, out) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
