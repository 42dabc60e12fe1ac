//! End-to-end persistence-ordering sanitizer runs (`prep-psan`).
//!
//! Two directions:
//!
//! * **Clean paths stay clean** — every durability level × flush strategy,
//!   a durable two-node run crashed under load, and the sharded store's
//!   cross-shard crash run a full workload + crash + recovery under the
//!   tracer and must produce *zero* violations. This is the sanitizer's
//!   false-positive budget: the instrumented persist paths implement
//!   exactly the ordering the paper's durability argument needs, and the
//!   rule engine must agree.
//!
//! * **Seeded bugs are caught** — [`PsanFault`] drops a single `SFENCE`
//!   from a real persist path (log payload batch / checkpoint), and the
//!   sanitizer must flag the resulting publish of not-yet-durable data as
//!   `missing-fence`. These are the regression tests for the ordering the
//!   clean runs silently rely on.

#![allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]

use std::sync::Arc;

use prep_checker::check_persistence_ordering;
use prep_pmem::psan::{EventKind, ViolationKind};
use prep_pmem::PmemRuntime;
use prep_seqds::hashmap::{HashMap, MapOp};
use prep_seqds::recorder::{Recorder, RecorderOp};
use prep_shard::ShardedStore;
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, FlushStrategy, PrepConfig, PrepUc, PsanFault};

fn traced_runtime() -> Arc<PmemRuntime> {
    let rt = PmemRuntime::for_crash_tests();
    rt.psan_enable();
    rt
}

fn cfg(rt: &Arc<PmemRuntime>, level: DurabilityLevel, strategy: FlushStrategy) -> PrepConfig {
    PrepConfig::new(level)
        .with_log_size(256)
        .with_epsilon(16)
        .with_flush_strategy(strategy)
        .with_runtime(Arc::clone(rt))
}

/// Runs a single-worker workload, crashes, recovers, works some more, and
/// returns the runtime for rule checking.
fn run_crash_recover(level: DurabilityLevel, strategy: FlushStrategy) -> Arc<PmemRuntime> {
    let rt = traced_runtime();
    let asg = Topology::small().assign_workers(1);
    let prep = PrepUc::new(Recorder::new(), asg.clone(), cfg(&rt, level, strategy));
    let t = prep.register(0);
    for i in 0..100u64 {
        prep.execute(&t, RecorderOp::Record(i));
    }
    let (token, image) = prep.simulate_crash();
    drop(prep); // the "power failure"
    let recovered = PrepUc::recover(token, image, asg, cfg(&rt, level, strategy));
    let t = recovered.register(0);
    for i in 100..150u64 {
        recovered.execute(&t, RecorderOp::Record(i));
    }
    drop(recovered);
    rt
}

#[test]
fn clean_paths_produce_zero_violations_across_the_strategy_matrix() {
    for level in [DurabilityLevel::Buffered, DurabilityLevel::Durable] {
        for strategy in [FlushStrategy::Wbinvd, FlushStrategy::DirtyLines] {
            let rt = run_crash_recover(level, strategy);
            assert!(
                rt.psan_event_count() > 0,
                "{level:?}/{strategy:?}: tracer recorded nothing"
            );
            if let Err(report) = check_persistence_ordering(&rt) {
                panic!("{level:?}/{strategy:?} flagged a clean path:\n{report}");
            }
        }
    }
}

/// `DirtyLines` over a hashmap that resizes between checkpoints: a resize
/// saturates the dirty tracker, so that checkpoint has no precise line set
/// and flushes the replica's whole range. That path must be traced and
/// clean too, through a crash and a recovery.
#[test]
fn saturated_dirty_tracker_flushes_the_whole_range_cleanly() {
    let rt = traced_runtime();
    let asg = Topology::small().assign_workers(1);
    let config = || cfg(&rt, DurabilityLevel::Buffered, FlushStrategy::DirtyLines);
    let prep = PrepUc::new(HashMap::with_buckets(2), asg.clone(), config());
    let t = prep.register(0);
    // 2 → 256 buckets: seven resizes, ε = 16 apart at most.
    for key in 0..200u64 {
        prep.execute(&t, MapOp::Insert { key, value: key });
    }
    let (token, image) = prep.simulate_crash();
    drop(prep);
    let recovered = PrepUc::recover(token, image, asg, config());
    let t = recovered.register(0);
    for key in 0..50u64 {
        recovered.execute(&t, MapOp::Remove { key });
    }
    drop(recovered);
    let whole_range = rt.psan_events().iter().any(|e| {
        e.site == "PrepHooks::checkpoint" && matches!(e.kind, EventKind::FlushRange { .. })
    });
    assert!(whole_range, "no checkpoint flushed a whole range");
    if let Err(report) = check_persistence_ordering(&rt) {
        panic!("saturated DirtyLines run flagged:\n{report}");
    }
}

/// Durable, two nodes, three workers, crash under load: combiners on both
/// nodes cover each other's log entries with `completedTail`, the
/// interleaving a single worker never produces. An entry that becomes
/// visible before its emptyBit is fenced (the volatile publish running
/// ahead of `persist_batch_published`) is reported here as
/// `tail-before-entry`.
#[test]
fn two_node_durable_crash_under_load_stays_clean() {
    const WORKERS: usize = 3;
    let rt = traced_runtime();
    let asg = Topology::new(2, 2, 1).assign_workers(WORKERS);
    let config = || cfg(&rt, DurabilityLevel::Durable, FlushStrategy::DirtyLines);
    let prep = Arc::new(PrepUc::new(Recorder::new(), asg.clone(), config()));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let prep = Arc::clone(&prep);
            std::thread::spawn(move || {
                let t = prep.register(w);
                for i in 0..3_000u64 {
                    prep.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (token, image) = prep.simulate_crash();
    for h in workers {
        h.join().unwrap();
    }
    drop(prep);
    drop(PrepUc::recover(token, image, asg, config()));
    if let Err(report) = check_persistence_ordering(&rt) {
        panic!("two-node durable run flagged:\n{report}");
    }
}

#[test]
fn sharded_crash_and_recovery_stay_clean() {
    let rt = traced_runtime();
    let asg = Topology::small().assign_workers(2);
    let level = DurabilityLevel::Durable;
    let route = |op: &RecorderOp| match *op {
        RecorderOp::Record(id) => id,
        _ => 0,
    };
    let store = ShardedStore::new(
        Recorder::new(),
        3,
        asg.clone(),
        cfg(&rt, level, FlushStrategy::Wbinvd),
        route,
    );
    let token = store.register(0);
    for id in 0..90u64 {
        store.execute(&token, RecorderOp::Record(id));
    }
    let (crash, image) = store.simulate_crash();
    drop(store);
    let recovered = ShardedStore::recover(
        crash,
        image,
        asg,
        cfg(&rt, level, FlushStrategy::Wbinvd),
        route,
    );
    let token = recovered.register(0);
    for id in 90..120u64 {
        recovered.execute(&token, RecorderOp::Record(id));
    }
    drop(recovered);
    assert!(rt.psan_event_count() > 0, "tracer recorded nothing");
    if let Err(report) = check_persistence_ordering(&rt) {
        panic!("sharded crash/recovery flagged:\n{report}");
    }
}

/// Asserts the trace contains at least one violation of `kind` and that
/// every violation is of that kind (a dropped fence must not cascade into
/// unrelated reports).
fn assert_only_kind(rt: &PmemRuntime, kind: ViolationKind, what: &str) {
    let violations = rt.psan_check();
    assert!(
        violations.iter().any(|v| v.kind == kind),
        "{what}: expected a {kind} violation, got:\n{}",
        prep_pmem::psan::format_violations(&violations)
    );
    for v in &violations {
        assert_eq!(
            v.kind,
            kind,
            "{what}: unexpected extra violation kind:\n{}",
            prep_pmem::psan::format_violations(&violations)
        );
    }
}

#[test]
fn dropping_the_log_payload_fence_is_detected() {
    let rt = traced_runtime();
    let asg = Topology::small().assign_workers(1);
    let config = cfg(&rt, DurabilityLevel::Durable, FlushStrategy::Wbinvd)
        .with_psan_fault(PsanFault::SkipLogPayloadFence);
    let prep = PrepUc::new(Recorder::new(), asg, config);
    let t = prep.register(0);
    for i in 0..100u64 {
        prep.execute(&t, RecorderOp::Record(i));
    }
    drop(prep);
    // The emptyBit publishes entries whose payload flushes were never
    // fenced: rule 1 must flag the publish.
    assert_only_kind(&rt, ViolationKind::MissingFence, "SkipLogPayloadFence");
}

#[test]
fn dropping_the_checkpoint_fence_is_detected() {
    let rt = traced_runtime();
    let asg = Topology::small().assign_workers(1);
    // Tiny log + tiny ε force many checkpoints (cf. the backpressure
    // test), so the faulty swap definitely executes.
    let config = PrepConfig::new(DurabilityLevel::Buffered)
        .with_log_size(64)
        .with_epsilon(8)
        .with_flush_strategy(FlushStrategy::DirtyLines)
        .with_runtime(Arc::clone(&rt))
        .with_psan_fault(PsanFault::SkipCheckpointFence);
    let prep = PrepUc::new(Recorder::new(), asg, config);
    let t = prep.register(0);
    for i in 0..200u64 {
        prep.execute(&t, RecorderOp::Record(i));
    }
    drop(prep);
    // `p_activePReplica` swings to a replica whose flushes were never
    // fenced: the checkpoint-marker publish must be flagged.
    assert_only_kind(&rt, ViolationKind::MissingFence, "SkipCheckpointFence");
}
