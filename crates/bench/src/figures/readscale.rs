//! Read-path scaling figure (repo extension, anchored to the paper's §4.2
//! liveness pair).
//!
//! The paper's headline workloads are 90%-read (Fig. 1a/1b, Fig. 2,
//! Fig. 6), so the replica read path is the throughput-critical section.
//! This figure sweeps threads × read ratio {10, 50, 90, 100}% × the two
//! [`FairnessMode`]s on the prefilled hashmap under volatile NR (no latency
//! model — the read path is the only variable). A caught-up `Throughput`
//! reader takes its own `DistRwLock` slot, storing to no line another
//! reader writes; a `StarvationFree` reader takes the phase-fair lock.
//!
//! Beside the sweep, three raw cells time one uncontended read
//! acquire + release with no NR around it: a `DistRwLock` reader through
//! its own slot and through the shared overflow slot, and a
//! `PhaseFairRwLock` reader — the per-read lock cost the two modes pay.
//!
//! Every cell is run [`REPEATS`] times (repeats outermost, so slow host
//! drift spreads over all cells instead of biasing one) and reported as
//! median, min, max and inter-quartile spread. The counter columns make the
//! path taken visible: `fast` counts reads that found their replica
//! caught up, `slow` reads that found it behind `completedTail`.
//!
//! Also records the sweep and the raw cells, with a host fingerprint, as
//! `BENCH_readscale.json` in the working directory.

use std::hint::black_box;
use std::time::Duration;

use prep_nr::FairnessMode;
use prep_sync::{DistRwLock, PhaseFairRwLock, ReaderId};

use crate::figures::{host_fingerprint, map_stream, thread_sweep, topology};
use crate::report;
use crate::runner::measure;
use crate::targets::{run_nr, CellResult};
use crate::workload::prefilled_hashmap;
use crate::RunOpts;

const MODES: [(FairnessMode, &str); 2] = [
    (FairnessMode::Throughput, "Throughput"),
    (FairnessMode::StarvationFree, "StarvationFree"),
];

const READ_PCTS: [u32; 4] = [10, 50, 90, 100];

/// Runs per cell; odd, so the median is a run that happened.
const REPEATS: usize = 5;

/// Read acquires per timed op of a raw cell, so the runner's per-op closure
/// call and stop-flag load are spread over many acquires.
const ACQUIRES_PER_OP: u64 = 100;

/// Mean cost of one read acquire + release by `read`, on one thread for
/// `secs` seconds.
fn ns_per_acquire(secs: f64, read: impl Fn() -> u64 + Sync) -> f64 {
    let m = measure(1, Duration::from_secs_f64(secs), |_| {
        let read = &read;
        Box::new(move || {
            let mut acc = 0u64;
            for _ in 0..ACQUIRES_PER_OP {
                acc = acc.wrapping_add(read());
            }
            black_box(acc);
        })
    });
    m.elapsed.as_nanos() as f64 / (m.total_ops * ACQUIRES_PER_OP).max(1) as f64
}

fn dist_slot_ns(secs: f64) -> f64 {
    let lock = DistRwLock::new(0u64, 4);
    ns_per_acquire(secs, || *lock.read(ReaderId::Slot(0)))
}

fn dist_shared_ns(secs: f64) -> f64 {
    let lock = DistRwLock::new(0u64, 4);
    ns_per_acquire(secs, || *lock.read(ReaderId::Shared))
}

fn phase_fair_ns(secs: f64) -> f64 {
    let lock = PhaseFairRwLock::new(0u64);
    ns_per_acquire(secs, || *lock.read())
}

/// One raw read-acquire cell: its timed loop (seconds to run → ns per
/// acquire) and its runs' ns per acquire, sorted.
struct RawCell {
    lock: &'static str,
    time: fn(f64) -> f64,
    ns: Vec<f64>,
}

impl RawCell {
    fn new(lock: &'static str, time: fn(f64) -> f64) -> Self {
        RawCell {
            lock,
            time,
            ns: Vec::with_capacity(REPEATS),
        }
    }

    fn median(&self) -> f64 {
        self.ns[self.ns.len() / 2]
    }

    /// Distance between the quartiles of the runs.
    fn iqr(&self) -> f64 {
        let n = self.ns.len();
        self.ns[n - 1 - n / 4] - self.ns[n / 4]
    }
}

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
    let mut raw = [
        RawCell::new("DistRwLock-slot", dist_slot_ns),
        RawCell::new("DistRwLock-shared", dist_shared_ns),
        RawCell::new("PhaseFairRwLock", phase_fair_ns),
    ];
    for _ in 0..REPEATS {
        for cell in &mut cells {
            cell.runs.push(run_nr(
                prefilled_hashmap(keys),
                topo,
                opts.log_size(),
                cell.fairness,
                cell.threads,
                opts.seconds,
                &map_stream(cell.read_pct, keys),
            ));
        }
        for cell in &mut raw {
            cell.ns.push((cell.time)(opts.seconds));
        }
    }
    for cell in &mut cells {
        cell.runs
            .sort_by(|a, b| a.m.ops_per_sec().total_cmp(&b.m.ops_per_sec()));
    }
    for cell in &mut raw {
        cell.ns.sort_by(f64::total_cmp);
    }

    for c in &cells {
        let med = c.median();
        report::row(&format!("hashmap-{}r", c.read_pct), c.mode, med);
        println!(
            "      min={:.0} max={:.0} iqr={:.0}  fast={} slow={}",
            c.ops(0),
            c.ops(REPEATS - 1),
            c.iqr(),
            med.reads.fast_paths,
            med.reads.slow_paths
        );
    }

    println!();
    println!("-- raw read acquire + release, one thread (ns per acquire over {REPEATS} runs)");
    for c in &raw {
        println!(
            "{:<18} median={:.2} min={:.2} max={:.2} iqr={:.2}",
            c.lock,
            c.median(),
            c.ns[0],
            c.ns[REPEATS - 1],
            c.iqr()
        );
    }

    print_winner_summary(&cells);
    write_json(opts, &cells, &raw);
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
/// per cell, flat fields plus the sorted per-run throughputs, then one per
/// raw read-acquire cell with its sorted per-run costs.
fn write_json(opts: &RunOpts, cells: &[Cell], raw: &[RawCell]) {
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
             \"read_fast_paths\": {}, \"read_slow_paths\": {}}}{}\n",
            c.read_pct,
            c.mode,
            c.threads,
            c.median_ops(),
            c.ops(0),
            c.ops(REPEATS - 1),
            c.iqr(),
            runs.join(", "),
            med.reads.fast_paths,
            med.reads.slow_paths,
            sep
        ));
    }
    out.push_str("  ],\n  \"raw_read_acquire\": [\n");
    for (i, c) in raw.iter().enumerate() {
        let sep = if i + 1 == raw.len() { "" } else { "," };
        let runs: Vec<String> = c.ns.iter().map(|ns| format!("{ns:.2}")).collect();
        out.push_str(&format!(
            "    {{\"lock\": \"{}\", \"ns_per_acquire_median\": {:.2}, \
             \"ns_per_acquire_min\": {:.2}, \"ns_per_acquire_max\": {:.2}, \
             \"ns_per_acquire_iqr\": {:.2}, \"ns_per_acquire_runs\": [{}]}}{}\n",
            c.lock,
            c.median(),
            c.ns[0],
            c.ns[REPEATS - 1],
            c.iqr(),
            runs.join(", "),
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
