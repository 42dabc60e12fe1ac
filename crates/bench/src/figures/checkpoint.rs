//! Incremental-checkpoint figure (repo extension, anchored to the paper's
//! §6 WBINVD-vs-range-flush discussion).
//!
//! Sweeps structure size × write skew × flush strategy on the hashmap and
//! reports **checkpoint traffic**: bytes and cachelines written back per
//! completed operation. The claim under test: with `DirtyLines` the
//! checkpoint cost scales with the *write set* accrued between flush
//! boundaries, not with the structure — so a 100k-key map whose updates
//! touch 1% of the keyspace should checkpoint ≥ 10× fewer bytes per op
//! than `Wbinvd`, and a Zipfian workload (hot lines dedup within an
//! interval) should beat uniform at equal update rates.
//!
//! Also records the sweep as `BENCH_checkpoint.json` in the working
//! directory — the perf-trajectory baseline future sessions diff against.

use std::sync::Arc;

use prep_loadgen::{KeyMix, KeySampler};
use prep_seqds::hashmap::MapOp;
use prep_uc::{DurabilityLevel, FlushStrategy, PrepConfig};

use crate::figures::{bench_runtime, host_fingerprint, map_stream, thread_sweep, topology};
use crate::report;
use crate::targets::{run_prep, CellResult, OpStream};
use crate::workload::{prefilled_hashmap, ZipfUpdateGen};
use crate::RunOpts;

/// Zipfian (θ = 0.99) update-only stream: alternating insert/remove on
/// skew-sampled keys, so a few hot cachelines absorb most writes. One
/// sampler (its CDF is O(keys)) serves every worker.
fn zipf_updates(keys: u64) -> impl Fn(usize) -> OpStream<MapOp> + Sync {
    let sampler = Arc::new(KeySampler::new(KeyMix::Zipfian { theta: 0.99 }, keys));
    move |w| {
        let mut g = ZipfUpdateGen::new(Arc::clone(&sampler), w);
        Box::new(move || g.next_op())
    }
}

/// One measured cell of the sweep, kept for the JSON dump.
struct Record {
    keys: u64,
    skew: &'static str,
    strategy: &'static str,
    threads: usize,
    cell: CellResult,
}

/// Checkpoint bytes written back per completed operation.
fn ckpt_bytes_per_op(cell: &CellResult) -> f64 {
    if cell.m.total_ops == 0 {
        0.0
    } else {
        cell.stats.checkpoint_bytes as f64 / cell.m.total_ops as f64
    }
}

/// Cachelines written back per checkpoint.
fn lines_per_ckpt(cell: &CellResult) -> f64 {
    if cell.stats.checkpoints == 0 {
        0.0
    } else {
        cell.stats.checkpoint_lines as f64 / cell.stats.checkpoints as f64
    }
}

/// Runs the checkpoint-traffic sweep.
pub fn run(opts: &RunOpts) {
    let topo = topology(opts);
    let threads = *thread_sweep(opts).last().unwrap();
    // Small ε: frequent checkpoints keep each interval's write set small —
    // exactly the regime where incremental flushing should dominate.
    let (eps_small, _) = opts.epsilons();
    let sizes: &[u64] = if opts.full {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[10_000, 100_000]
    };

    report::checkpoint_banner(
        "Checkpoint",
        "incremental checkpointing: write-back traffic per op, \
         structure size x write skew x flush strategy (hashmap, 100% updates)",
    );

    let mut records: Vec<Record> = Vec::new();
    for &keys in sizes {
        let ws = (keys / 100).max(64); // 1% working set
        for (skew, gen) in [
            ("uniform", map_stream(0, keys)),
            ("ws-1pct", map_stream(0, ws)),
        ] {
            for (strategy, sname) in STRATEGIES {
                let cell = run_cell(opts, topo, threads, eps_small, keys, strategy, &gen);
                report::checkpoint_row(&format!("hashmap-{keys}"), sname, skew, &cell);
                records.push(Record {
                    keys,
                    skew,
                    strategy: sname,
                    threads,
                    cell,
                });
            }
        }
        // Zipfian needs its own generator type; same cell shape.
        let gen = zipf_updates(keys);
        for (strategy, sname) in STRATEGIES {
            let cell = run_cell(opts, topo, threads, eps_small, keys, strategy, &gen);
            report::checkpoint_row(&format!("hashmap-{keys}"), sname, "zipf-0.99", &cell);
            records.push(Record {
                keys,
                skew: "zipf-0.99",
                strategy: sname,
                threads,
                cell,
            });
        }
    }

    print_reduction_summary(&records);
    write_json(opts, &records);
}

const STRATEGIES: [(FlushStrategy, &str); 2] = [
    (FlushStrategy::Wbinvd, "WBINVD"),
    (FlushStrategy::DirtyLines, "DirtyLines"),
];

fn run_cell(
    opts: &RunOpts,
    topo: prep_topology::Topology,
    threads: usize,
    epsilon: u64,
    keys: u64,
    strategy: FlushStrategy,
    gen: &(impl Fn(usize) -> OpStream<MapOp> + Sync),
) -> CellResult {
    let cfg = PrepConfig::new(DurabilityLevel::Buffered)
        .with_log_size(opts.log_size())
        .with_epsilon(epsilon)
        .with_flush_strategy(strategy)
        .with_runtime(bench_runtime(opts));
    run_prep(
        prefilled_hashmap(keys),
        cfg,
        topo,
        threads,
        opts.seconds,
        gen,
    )
}

/// Prints, per (size, skew) panel, how many × fewer checkpoint bytes/op
/// `DirtyLines` writes than `Wbinvd` — the figure's headline number.
fn print_reduction_summary(records: &[Record]) {
    println!();
    println!("-- DirtyLines reduction vs WBINVD (checkpoint bytes/op)");
    let mut panels: Vec<(u64, &'static str)> = records.iter().map(|r| (r.keys, r.skew)).collect();
    panels.dedup();
    for (keys, skew) in panels {
        let per = |strategy: &str| {
            records
                .iter()
                .find(|r| r.keys == keys && r.skew == skew && r.strategy == strategy)
                .map(|r| ckpt_bytes_per_op(&r.cell))
        };
        if let (Some(wb), Some(dl)) = (per("WBINVD"), per("DirtyLines")) {
            let ratio = if dl > 0.0 { wb / dl } else { f64::INFINITY };
            println!("hashmap-{keys:<9} {skew:<10} {ratio:>8.1}x");
        }
    }
}

/// Hand-rolled JSON dump (no serde in the dependency closure): one object
/// per cell, flat fields only.
fn write_json(opts: &RunOpts, records: &[Record]) {
    let mut out = String::from("{\n  \"bench\": \"checkpoint\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seconds_per_cell\": {},\n  \"host\": {},\n  \"cells\": [\n",
        if opts.full { "full" } else { "quick" },
        opts.seconds,
        host_fingerprint(),
    ));
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"keys\": {}, \"skew\": \"{}\", \"strategy\": \"{}\", \
             \"threads\": {}, \"total_ops\": {}, \"ops_per_sec\": {:.0}, \
             \"checkpoints\": {}, \"checkpoint_bytes\": {}, \
             \"checkpoint_lines\": {}, \"ckpt_bytes_per_op\": {:.2}, \
             \"lines_per_ckpt\": {:.2}, \"flushes_per_op\": {:.4}}}{}\n",
            r.keys,
            r.skew,
            r.strategy,
            r.threads,
            r.cell.m.total_ops,
            r.cell.m.ops_per_sec(),
            r.cell.stats.checkpoints,
            r.cell.stats.checkpoint_bytes,
            r.cell.stats.checkpoint_lines,
            ckpt_bytes_per_op(&r.cell),
            lines_per_ckpt(&r.cell),
            r.cell.flushes_per_op(),
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    let path = "BENCH_checkpoint.json";
    match std::fs::write(path, out) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
