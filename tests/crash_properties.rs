//! Property-based crash testing: proptest drives (ε, log size, op count,
//! crash schedule) through single-threaded deterministic executions where
//! the exact durability conditions can be asserted with equality, not just
//! bounds.

#![allow(
    clippy::int_plus_one,
    reason = "keep the paper's ε + β − 1 formulas verbatim"
)]

use proptest::prelude::*;

use prep_seqds::recorder::{assert_prefix, Recorder, RecorderOp};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc};

fn cfg(level: DurabilityLevel, eps: u64, log: u64) -> PrepConfig {
    PrepConfig::new(level)
        .with_log_size(log)
        .with_epsilon(eps)
        .with_runtime(PmemRuntime::for_crash_tests())
}

/// Executes `n` updates, crashes, recovers; returns (completed, recovered).
fn run_once(level: DurabilityLevel, eps: u64, log: u64, n: u64) -> (u64, Vec<u64>) {
    let asg = Topology::small().assign_workers(1);
    let prep = PrepUc::new(Recorder::new(), asg.clone(), cfg(level, eps, log));
    let t = prep.register(0);
    for i in 0..n {
        prep.execute(&t, RecorderOp::Record(i));
    }
    let (token, image) = prep.simulate_crash();
    drop(prep);
    let rec = PrepUc::recover(token, image, asg, cfg(level, eps, log));
    let hist = rec.with_replica(0, |r| r.history().to_vec());
    (n, hist)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Durable linearizability, exactly: every completed op recovered, in
    /// order, for arbitrary (ε, log, n) within the legal parameter space.
    #[test]
    fn durable_recovers_exactly_completed(
        eps in 1u64..64,
        log_pow in 6u32..9,           // log sizes 64..256
        n in 1u64..400,
    ) {
        let log = 1u64 << log_pow;
        prop_assume!(eps <= log - 1 - 1); // ε ≤ LOG_SIZE − β − 1 (β = 1)
        let (completed, recovered) = run_once(DurabilityLevel::Durable, eps, log, n);
        let expect: Vec<u64> = (0..completed).collect();
        prop_assert_eq!(recovered, expect);
    }

    /// Buffered durable linearizability: the recovered history is a prefix
    /// and the ε + β − 1 bound holds, for arbitrary legal parameters.
    #[test]
    fn buffered_prefix_and_loss_bound(
        eps in 1u64..64,
        log_pow in 6u32..9,
        n in 1u64..400,
    ) {
        let log = 1u64 << log_pow;
        prop_assume!(eps <= log - 1 - 1);
        let (completed, recovered) = run_once(DurabilityLevel::Buffered, eps, log, n);
        let reference: Vec<u64> = (0..completed).collect();
        let kept = assert_prefix(&recovered, &reference) as u64;
        let beta = 1;
        prop_assert!(
            completed - kept <= eps + beta - 1,
            "lost {} with eps {} (bound {})", completed - kept, eps, eps + beta - 1
        );
    }

    /// Crash → recover → continue → crash again: the multi-crash bound
    /// c(ε + β − 1) from §5.1, and monotone history growth across lives.
    #[test]
    fn multi_crash_accumulated_loss(
        eps in 1u64..32,
        epochs in 1usize..5,
        per_epoch in 1u64..120,
    ) {
        let log = 256u64;
        prop_assume!(eps <= log - 2);
        let asg = Topology::small().assign_workers(1);
        let mut prep = PrepUc::new(
            Recorder::new(), asg.clone(), cfg(DurabilityLevel::Buffered, eps, log));
        let mut issued = 0u64;
        // Operations lost at crash k never reappear (§5.1: "the log returns
        // to empty after a crash"), so the valid reference after each crash
        // is *the previous recovery's history* extended by this epoch's
        // ids — a concatenation of per-epoch prefixes, not a prefix of
        // everything ever issued.
        let mut base: Vec<u64> = Vec::new();
        for _ in 0..epochs {
            let t = prep.register(0);
            let mut reference = base.clone();
            for _ in 0..per_epoch {
                prep.execute(&t, RecorderOp::Record(issued));
                reference.push(issued);
                issued += 1;
            }
            let (token, image) = prep.simulate_crash();
            drop(prep);
            prep = PrepUc::recover(
                token, image, asg.clone(), cfg(DurabilityLevel::Buffered, eps, log));
            let hist = prep.with_replica(0, |r| r.history().to_vec());
            let kept = assert_prefix(&hist, &reference);
            // Recovery never loses what an earlier recovery preserved…
            prop_assert!(kept >= base.len());
            // …and each crash loses at most ε + β − 1 of this epoch's ops.
            prop_assert!(
                (reference.len() - kept) as u64 <= eps, // ε + β − 1, β = 1
                "epoch loss {} with eps {}", reference.len() - kept, eps
            );
            base = hist;
        }
        let total_lost = issued - base.len() as u64;
        prop_assert!(
            total_lost <= epochs as u64 * eps, // c(ε + β − 1), β = 1
            "lost {} over {} crashes with eps {}", total_lost, epochs, eps
        );
    }
}

#[test]
fn read_only_operations_never_flush_or_fence() {
    // ONLL-inspired sanity check the paper implies for PREP: read-only
    // operations take no persistence actions in either mode (all flush
    // traffic comes from updates and the persistence thread).
    for level in [DurabilityLevel::Buffered, DurabilityLevel::Durable] {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(Recorder::new(), asg, cfg(level, 1_000, 4_096));
        let t = prep.register(0);
        // A couple of updates so reads have something to see, then let the
        // persistence thread go quiescent.
        for i in 0..5u64 {
            prep.execute(&t, RecorderOp::Record(i));
        }
        prep_sync::spin_until(|| {
            prep.persistent_tails()[prep.active_persistent_replica() as usize] >= 5
        });
        let before = prep.stats();
        for _ in 0..1_000 {
            prep.execute(&t, RecorderOp::Count);
            prep.execute(&t, RecorderOp::Last);
        }
        let delta = prep.stats().delta_since(&before);
        assert_eq!(delta.total_flushes(), 0, "{level:?}: reads flushed");
        assert_eq!(delta.sfence, 0, "{level:?}: reads fenced");
        assert_eq!(delta.wbinvd, 0, "{level:?}: reads triggered WBINVD");
    }
}
