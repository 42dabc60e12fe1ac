//! Write-scaling figure (repo extension): `prep-shard` hashmap throughput
//! as the store is partitioned over 1, 2 and 4 independent PREP-UC shards.
//!
//! One PREP-UC serializes every update through one log and one combiner, so
//! write throughput is flat in the thread count; each shard adds a log, a
//! combiner and a persistence thread. The sweep is shards {1, 2, 4} ×
//! threads × write ratio {50, 100} % × {buffered, durable}; `shards=1` is
//! plain PREP-UC behind the router, the baseline every other column is read
//! against. Each shard runs its own cost-only runtime, so the per-shard rows
//! (taken from the cell's median run) show how evenly the router spreads
//! update and flush/fence work.
//!
//! Every cell is run [`REPEATS`] times (repeats outermost, so slow host
//! drift spreads over all cells instead of biasing one) and reported as
//! median, min and max. Also records the sweep — every run, with a host
//! fingerprint — as `BENCH_shard.json` in the working directory.

use prep_uc::{DurabilityLevel, PrepConfig};

use crate::figures::{bench_runtime, host_fingerprint, map_stream, thread_sweep, topology};
use crate::report;
use crate::targets::{run_sharded, ShardCell};
use crate::workload::prefilled_hashmap;
use crate::RunOpts;

const SHARDS: [usize; 3] = [1, 2, 4];
const WRITE_PCTS: [u32; 2] = [50, 100];
const LEVELS: [(DurabilityLevel, &str); 2] = [
    (DurabilityLevel::Buffered, "buffered"),
    (DurabilityLevel::Durable, "durable"),
];

/// Runs per cell; odd, so the median is a run that happened.
const REPEATS: usize = 5;

/// One (durability, write ratio, threads, shards) cell: its runs sorted by
/// throughput.
struct Cell {
    level: DurabilityLevel,
    durability: &'static str,
    write_pct: u32,
    threads: usize,
    shards: usize,
    runs: Vec<ShardCell>,
}

impl Cell {
    fn ops(&self, i: usize) -> f64 {
        self.runs[i].m.ops_per_sec()
    }

    fn median(&self) -> &ShardCell {
        &self.runs[self.runs.len() / 2]
    }
}

/// Runs the shard-count write-scaling sweep.
pub fn run(opts: &RunOpts) {
    let topo = topology(opts);
    let keys = opts.key_range();
    let (_, eps) = opts.epsilons();
    report::shard_banner(
        "Shard",
        "write scaling past one combiner: shards x threads x write ratio x durability \
         (sharded PREP hashmap; median run of each cell)",
    );

    let mut cells: Vec<Cell> = Vec::new();
    for (level, durability) in LEVELS {
        for write_pct in WRITE_PCTS {
            for threads in thread_sweep(opts) {
                for shards in SHARDS {
                    cells.push(Cell {
                        level,
                        durability,
                        write_pct,
                        threads,
                        shards,
                        runs: Vec::with_capacity(REPEATS),
                    });
                }
            }
        }
    }
    for _ in 0..REPEATS {
        for cell in &mut cells {
            let cfg = PrepConfig::new(cell.level)
                .with_log_size(opts.log_size())
                .with_epsilon(eps)
                .with_runtime(bench_runtime(opts));
            cell.runs.push(run_sharded(
                prefilled_hashmap(keys),
                cell.shards,
                cfg,
                topo,
                cell.threads,
                opts.seconds,
                &map_stream(100 - cell.write_pct, keys),
                |op| op.key().unwrap_or(0),
            ));
        }
    }
    for cell in &mut cells {
        cell.runs
            .sort_by(|a, b| a.m.ops_per_sec().total_cmp(&b.m.ops_per_sec()));
    }

    for c in &cells {
        let med = c.median();
        let panel = format!("{}w-{}", c.write_pct, c.durability);
        let series = format!("shards={}", c.shards);
        report::shard_summary_row(
            &panel,
            &series,
            c.threads,
            med.m.ops_per_sec(),
            med.total_updates(),
            med.flushes_per_update(),
            med.fences_per_update(),
        );
        println!("      min={:.0} max={:.0}", c.ops(0), c.ops(REPEATS - 1));
        for (s, lane) in med.shards.iter().enumerate() {
            report::shard_lane_row(
                &panel,
                &series,
                s,
                lane.updates,
                lane.flushes_per_update(),
                lane.fences_per_update(),
            );
        }
    }

    print_ratio_summary(&cells);
    write_json(opts, &cells);
}

/// Prints, per (durability, write ratio, threads) panel, each shard count's
/// median throughput over the one-shard median — the figure's headline.
fn print_ratio_summary(cells: &[Cell]) {
    println!();
    println!("-- median throughput vs shards=1 ({REPEATS} runs per cell)");
    for panel in cells.chunks(SHARDS.len()) {
        let base = panel[0].median().m.ops_per_sec();
        let ratios: Vec<String> = panel[1..]
            .iter()
            .map(|c| {
                format!(
                    "{} shards {:>5.2}x",
                    c.shards,
                    c.median().m.ops_per_sec() / base
                )
            })
            .collect();
        println!(
            "{:<8} {:>3}% writes  {:>3} threads  {}",
            panel[0].durability,
            panel[0].write_pct,
            panel[0].threads,
            ratios.join("  ")
        );
    }
}

/// Hand-rolled JSON dump (no serde in the dependency closure): one object
/// per cell, flat fields plus the sorted per-run throughputs.
fn write_json(opts: &RunOpts, cells: &[Cell]) {
    let mut out = String::from("{\n  \"bench\": \"shard\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seconds_per_cell\": {},\n  \"repeats\": {REPEATS},\n  \
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
            "    {{\"durability\": \"{}\", \"write_pct\": {}, \"threads\": {}, \"shards\": {}, \
             \"ops_per_sec_median\": {:.0}, \"ops_per_sec_min\": {:.0}, \
             \"ops_per_sec_max\": {:.0}, \"ops_per_sec_runs\": [{}], \
             \"flushes_per_update\": {:.3}, \"fences_per_update\": {:.3}}}{}\n",
            c.durability,
            c.write_pct,
            c.threads,
            c.shards,
            med.m.ops_per_sec(),
            c.ops(0),
            c.ops(REPEATS - 1),
            runs.join(", "),
            med.flushes_per_update(),
            med.fences_per_update(),
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    let path = "BENCH_shard.json";
    match std::fs::write(path, out) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
