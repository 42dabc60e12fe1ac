//! Randomized crash-point injection under concurrency.
//!
//! The central correctness claims of the paper (§4.2, §5.1, §5.2), checked
//! end to end with workers running *while* the power fails:
//!
//! * **Prefix property** (buffered durable linearizability): the recovered
//!   state reflects a prefix of the linearization order.
//! * **Completeness** (durable linearizability): every operation whose
//!   response was delivered before the crash instant survives recovery.
//! * **Loss bound** (PREP-Buffered): at most `ε + β − 1` completed updates
//!   are lost per crash.
//!
//! The sequential object is the `Recorder`, whose state *is* the applied
//! operation sequence, so these properties are direct assertions on
//! vectors. The "linearization order" ground truth is read from a volatile
//! replica after the workers stop — the log order is fixed once written, so
//! the pre-crash instance's final history extends the crash-time history.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use prep_seqds::recorder::{assert_prefix, Recorder, RecorderOp};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc};

const WORKERS: usize = 3;

fn cfg(level: DurabilityLevel, eps: u64, log: u64) -> PrepConfig {
    PrepConfig::new(level)
        .with_log_size(log)
        .with_epsilon(eps)
        .with_runtime(PmemRuntime::for_crash_tests())
}

struct CrashOutcome {
    /// Per-worker number of updates observed complete at the crash cut.
    observed_at_cut: Vec<u64>,
    /// Full linearized history of the pre-crash instance (after stopping).
    full_history: Vec<u64>,
    /// History recovered from the crash image.
    recovered: Vec<u64>,
    beta: u64,
}

/// Runs a concurrent workload at `level`, crashes after `run_ms`, recovers
/// into an instance configured with `recover_level`, and returns everything
/// the properties need.
fn crash_run(
    level: DurabilityLevel,
    recover_level: DurabilityLevel,
    eps: u64,
    log: u64,
    run_ms: u64,
) -> CrashOutcome {
    let asg = Topology::new(2, 2, 1).assign_workers(WORKERS);
    let prep = Arc::new(PrepUc::new(
        Recorder::new(),
        asg.clone(),
        cfg(level, eps, log),
    ));
    let beta = prep.beta();
    let stop = Arc::new(AtomicBool::new(false));
    let completed: Arc<Vec<AtomicU64>> =
        Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let prep = Arc::clone(&prep);
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let token = prep.register(w);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    prep.execute(&token, RecorderOp::Record((w as u64) << 32 | i));
                    // Release-publish completion *after* the response is in
                    // hand; the crash cut reads these with the cut lock
                    // held, giving a sound lower bound on completed ops.
                    completed[w].fetch_add(1, Ordering::Release);
                    i += 1;
                }
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(run_ms));
    // Capture the NVM image and the worker completion counters under the
    // same consistent cut. Reading the counters here bounds
    // completed-before-cut from below (an op may complete just before the
    // cut without its increment being visible yet — the safe direction).
    let (token, (image, observed_at_cut)) = prep.simulate_crash_with(|| {
        completed
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect::<Vec<u64>>()
    });
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let full_history = prep.with_replica(0, |r| r.history().to_vec());
    drop(prep);

    let recovered_uc = PrepUc::recover(token, image, asg, cfg(recover_level, eps, log));
    let recovered = recovered_uc.with_replica(0, |r| r.history().to_vec());

    CrashOutcome {
        observed_at_cut,
        full_history,
        recovered,
        beta,
    }
}

#[test]
fn buffered_recovery_is_a_prefix_with_bounded_loss() {
    for (run_ms, eps) in [(20u64, 8u64), (50, 32), (80, 8)] {
        let out = crash_run(
            DurabilityLevel::Buffered,
            DurabilityLevel::Buffered,
            eps,
            256,
            run_ms,
        );
        let kept = assert_prefix(&out.recovered, &out.full_history);
        let observed: u64 = out.observed_at_cut.iter().sum();
        let bound = eps + out.beta - 1;
        assert!(
            observed.saturating_sub(kept as u64) <= bound,
            "buffered loss: observed-completed {observed}, recovered {kept}, bound {bound}"
        );
    }
}

#[test]
fn durable_recovery_keeps_every_completed_operation() {
    // What a durable image guarantees does not depend on the durability
    // level the recovered instance will run at.
    for (run_ms, recover_level) in [
        (20u64, DurabilityLevel::Durable),
        (50, DurabilityLevel::Durable),
        (80, DurabilityLevel::Durable),
        (50, DurabilityLevel::Buffered),
    ] {
        let out = crash_run(DurabilityLevel::Durable, recover_level, 32, 256, run_ms);
        let kept = assert_prefix(&out.recovered, &out.full_history);
        // Every op observed complete at the cut must be in the recovered
        // prefix — per worker, the first observed[w] ops of that worker.
        for (w, &obs) in out.observed_at_cut.iter().enumerate() {
            let in_recovered = out
                .recovered
                .iter()
                .filter(|id| (*id >> 32) as usize == w)
                .count() as u64;
            assert!(
                in_recovered >= obs,
                "durable (recovered as {recover_level:?}): worker {w} had {obs} \
                 completed ops at crash but only {in_recovered} recovered \
                 (prefix length {kept})"
            );
        }
    }
}

#[test]
fn recovered_instance_accepts_new_operations_and_stays_consistent() {
    let out = crash_run(
        DurabilityLevel::Durable,
        DurabilityLevel::Durable,
        16,
        256,
        30,
    );
    // Start a second life from the recovered history and crash it again:
    // c crashes lose at most c(ε + β − 1), and durable loses none.
    let asg = Topology::new(2, 2, 1).assign_workers(1);
    let prep = PrepUc::new(
        Recorder::new(),
        asg.clone(),
        cfg(DurabilityLevel::Durable, 16, 256),
    );
    let t = prep.register(0);
    for i in 0..40u64 {
        prep.execute(&t, RecorderOp::Record(0xEE00_0000 + i));
    }
    let (token, image) = prep.simulate_crash();
    drop(prep);
    let again = PrepUc::recover(token, image, asg, cfg(DurabilityLevel::Durable, 16, 256));
    let hist = again.with_replica(0, |r| r.history().to_vec());
    assert_eq!(
        hist.len(),
        40,
        "second-generation durable recovery lost ops"
    );
    // And the first outcome's recovered data is untouched by any of this.
    assert_prefix(&out.recovered, &out.full_history);
}

#[test]
fn crash_image_identifies_consistent_stable_replica_under_load() {
    // Capture many crash images while workers hammer the object; the
    // stable replica must be readable (never torn) every single time.
    let asg = Topology::new(2, 2, 1).assign_workers(2);
    let prep = Arc::new(PrepUc::new(
        Recorder::new(),
        asg,
        cfg(DurabilityLevel::Buffered, 8, 256),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..2)
        .map(|w| {
            let prep = Arc::clone(&prep);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let token = prep.register(w);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    prep.execute(&token, RecorderOp::Record(i));
                    i += 1;
                }
            })
        })
        .collect();
    for _ in 0..50 {
        let (_tok, image) = prep.simulate_crash();
        let snap = image.stable_snapshot(); // panics if torn
        assert!(snap.local_tail <= prep.completed_tail());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}
