//! Ablations for the design choices DESIGN.md calls out.
//!
//! 1. **WBINVD vs per-line flush** (§6 "Stack"): flushing the replica
//!    line by line (`DirtyLines`, a subset of its lines) should win for a
//!    tiny stack; WBINVD's cost does not depend on the structure.
//! 2. **Per-batch vs per-entry fencing** in the durable log (§4.1): the
//!    single-fence-per-batch scheme should beat fence-per-entry on
//!    update-heavy workloads.
//! 3. **ε backpressure**: the flush-boundary gate trades throughput for the
//!    `ε + β − 1` loss bound; measured via the Figure 3 ε sweep
//!    (`fig3::run`); the correctness side lives in the crash test suite.
//!
//! (The fourth DESIGN.md ablation — one persistent replica instead of two —
//! is a *correctness* ablation: see `tests/crash_recovery.rs`,
//! `one_persistent_replica_design_would_recover_torn_state`.)

use prep_uc::{DurabilityLevel, FlushStrategy, PrepConfig};

use crate::figures::{bench_runtime, map_stream, stack_pairs, topology};
use crate::report;
use crate::targets::run_prep;
use crate::workload::{prefilled_hashmap, prefilled_stack};
use crate::RunOpts;

/// Runs the ablation benches.
pub fn run(opts: &RunOpts) {
    let topo = topology(opts);
    let threads = *crate::figures::thread_sweep(opts).last().unwrap();
    let (_, eps_large) = opts.epsilons();
    let keys = opts.key_range();

    report::banner("Ablation A", "replica write-back: WBINVD vs per-line flush");
    for (strategy, name) in [
        (FlushStrategy::Wbinvd, "WBINVD"),
        (FlushStrategy::DirtyLines, "DirtyLines"),
    ] {
        // Tiny structure: a 500-item stack.
        let cfg = PrepConfig::new(DurabilityLevel::Buffered)
            .with_log_size(opts.log_size())
            .with_epsilon(eps_large)
            .with_flush_strategy(strategy)
            .with_runtime(bench_runtime(opts));
        let cell = run_prep(
            prefilled_stack(500),
            cfg,
            topo,
            threads,
            opts.seconds,
            stack_pairs(),
        );
        report::row("tiny:stack-500", name, &cell);

        // Large structure: the full-size hashmap, update-heavy.
        let cfg = PrepConfig::new(DurabilityLevel::Buffered)
            .with_log_size(opts.log_size())
            .with_epsilon(eps_large)
            .with_flush_strategy(strategy)
            .with_runtime(bench_runtime(opts));
        let cell = run_prep(
            prefilled_hashmap(keys),
            cfg,
            topo,
            threads,
            opts.seconds,
            map_stream(0, keys),
        );
        report::row("large:hashmap-0r", name, &cell);
    }

    report::banner(
        "Ablation C",
        "liveness mode: throughput (CAS + writer-pref locks) vs starvation-free \
         (ticket lock + phase-fair locks), §4.2",
    );
    for (fairness, name) in [
        (prep_uc::FairnessMode::Throughput, "throughput"),
        (prep_uc::FairnessMode::StarvationFree, "starvation-free"),
    ] {
        let cfg = PrepConfig::new(DurabilityLevel::Buffered)
            .with_log_size(opts.log_size())
            .with_epsilon(eps_large)
            .with_fairness(fairness)
            .with_runtime(bench_runtime(opts));
        let cell = run_prep(
            prefilled_hashmap(keys),
            cfg,
            topo,
            threads,
            opts.seconds,
            map_stream(50, keys),
        );
        report::row("hashmap-50r", name, &cell);
    }

    report::banner(
        "Ablation B",
        "durable log fencing: one fence per batch vs per entry",
    );
    for (per_entry, name) in [(false, "per-batch"), (true, "per-entry")] {
        let mut cfg = PrepConfig::new(DurabilityLevel::Durable)
            .with_log_size(opts.log_size())
            .with_epsilon(eps_large)
            .with_runtime(bench_runtime(opts));
        if per_entry {
            cfg = cfg.with_fence_per_entry();
        }
        let cell = run_prep(
            prefilled_hashmap(keys),
            cfg,
            topo,
            threads,
            opts.seconds,
            map_stream(0, keys),
        );
        report::row("hashmap-0r", name, &cell);
    }
}
