//! Figure 1: throughput of **volatile** UCs — PREP-V (node replication with
//! persistence removed) vs a global-lock UC.
//!
//! (a) resizable hashmap, 90% read-only, 1M keys;
//! (b) red-black tree, 90% read-only, 1M keys;
//! (c) FIFO queue, 100% updates, enqueue/dequeue pairs.

use prep_nr::FairnessMode;

use crate::figures::{map_stream, queue_pairs, thread_sweep, topology};
use crate::report;
use crate::targets::{run_gl, run_nr};
use crate::workload::{prefilled_hashmap, prefilled_queue, prefilled_rbtree};
use crate::RunOpts;

/// Runs the Figure 1 sweep.
pub fn run(opts: &RunOpts) {
    let topo = topology(opts);
    let keys = opts.key_range();
    let log = opts.log_size();
    report::banner(
        "Figure 1",
        "volatile UCs: PREP-V (node replication) vs Global Lock",
    );

    for &threads in &thread_sweep(opts) {
        // (a) hashmap, 90% read.
        let cell = run_nr(
            prefilled_hashmap(keys),
            topo,
            log,
            FairnessMode::Throughput,
            threads,
            opts.seconds,
            map_stream(90, keys),
        );
        report::row("a:hashmap-90r", "PREP-V", &cell);
        let cell = run_gl(
            prefilled_hashmap(keys),
            threads,
            opts.seconds,
            map_stream(90, keys),
        );
        report::row("a:hashmap-90r", "GL", &cell);

        // (b) red-black tree, 90% read.
        let cell = run_nr(
            prefilled_rbtree(keys),
            topo,
            log,
            FairnessMode::Throughput,
            threads,
            opts.seconds,
            map_stream(90, keys),
        );
        report::row("b:rbtree-90r", "PREP-V", &cell);
        let cell = run_gl(
            prefilled_rbtree(keys),
            threads,
            opts.seconds,
            map_stream(90, keys),
        );
        report::row("b:rbtree-90r", "GL", &cell);

        // (c) FIFO queue, 100% update pairs.
        let items = keys / 2;
        let cell = run_nr(
            prefilled_queue(items),
            topo,
            log,
            FairnessMode::Throughput,
            threads,
            opts.seconds,
            queue_pairs(),
        );
        report::row("c:queue-pairs", "PREP-V", &cell);
        let cell = run_gl(prefilled_queue(items), threads, opts.seconds, queue_pairs());
        report::row("c:queue-pairs", "GL", &cell);
    }
}
