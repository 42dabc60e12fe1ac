//! Crash simulation and the recovery procedures (§5.1, §5.2).

use prep_pmem::{CrashToken, ReplicaSnapshot, TornImage};
use prep_seqds::SequentialObject;
use prep_topology::ThreadAssignment;

use crate::config::{DurabilityLevel, PrepConfig};
use crate::puc::PrepUc;

/// Everything that was durable at the instant of a (simulated) power
/// failure — a consistent cut of the NVM image.
pub struct CrashImage<T: SequentialObject> {
    /// The persisted `p_activePReplica` selector: which replica was being
    /// updated when the crash hit. The *other* one is the stable replica
    /// recovery starts from.
    pub active: u64,
    /// The two persistent replicas' NVM images. The stable one is always
    /// consistent ([`Ok`]); the active one may be [`TornImage`].
    pub replicas: [Result<ReplicaSnapshot<T>, TornImage>; 2],
    /// Persisted `completedTail` (meaningful in durable mode; 0 otherwise).
    pub completed_tail: u64,
    /// Persisted log entries, `(monotonic index, operation)`, ascending
    /// (durable mode; empty otherwise).
    pub log_entries: Vec<(u64, T::Op)>,
}

impl<T: SequentialObject> CrashImage<T> {
    /// Index of the stable persistent replica (the one recovery reads).
    pub fn stable_index(&self) -> usize {
        (1 - self.active) as usize
    }

    /// The stable replica's snapshot.
    ///
    /// # Panics
    /// Panics if the stable image is torn — which PREP-UC's protocol makes
    /// impossible (only the active replica is ever mutated); a panic here
    /// means the two-replica invariant was violated.
    pub fn stable_snapshot(&self) -> &ReplicaSnapshot<T> {
        self.replicas[self.stable_index()]
            .as_ref()
            .expect(TORN_STABLE)
    }
}

/// Panic message for a torn stable replica (see
/// [`CrashImage::stable_snapshot`]).
const TORN_STABLE: &str = "stable persistent replica image is torn: two-replica invariant violated";

impl<T: SequentialObject> PrepUc<T> {
    /// Simulates a full-system power failure: captures a consistent cut of
    /// everything persisted, without disturbing the running instance.
    ///
    /// The returned [`CrashImage`] is what NVM would contain; pass it to
    /// [`PrepUc::recover`] to rebuild the object. (Tests typically drop the
    /// original instance to complete the "crash".)
    ///
    /// # Panics
    /// Panics unless the runtime was created with crash simulation enabled
    /// (`PmemRuntime::for_crash_tests()`).
    pub fn simulate_crash(&self) -> (CrashToken, CrashImage<T>) {
        let (token, (image, ())) = self.simulate_crash_with(|| ());
        (token, image)
    }

    /// Like [`PrepUc::simulate_crash`], but also runs `extra` inside the
    /// same consistent cut — test instrumentation for observing volatile
    /// state (e.g. per-worker completion counters) coherently with the
    /// captured NVM image.
    pub fn simulate_crash_with<R>(
        &self,
        extra: impl FnOnce() -> R,
    ) -> (CrashToken, (CrashImage<T>, R)) {
        self.runtime()
            .capture_cut(|| (self.crash_image_in_cut(), extra()))
    }

    /// Reads this instance's crash image **inside an already-frozen
    /// consistent cut** — the entry point recovery orchestrators use to
    /// capture several constructions sharing one [`prep_pmem::PmemRuntime`]
    /// in a *single* power failure (e.g. `prep-shard`'s cross-shard crash):
    /// the orchestrator calls [`prep_pmem::PmemRuntime::capture_cut`] once
    /// and invokes this on every instance from within the capture closure.
    ///
    /// Callers that want a single-instance crash should use
    /// [`PrepUc::simulate_crash`] instead, which takes the cut itself.
    /// Calling this *outside* a frozen cut yields an image that is not a
    /// consistent cut of the persist order.
    pub fn crash_image_in_cut(&self) -> CrashImage<T> {
        let state = self.hook_state();
        let image = CrashImage {
            active: state.p_active_cell.read_image(),
            replicas: [
                self.replica_image(0).read_image(),
                self.replica_image(1).read_image(),
            ],
            completed_tail: state.ct_cell.read_image(),
            log_entries: state.log_image.persisted_range(0, u64::MAX),
        };
        // Tell the sanitizer what recovery relies on from this cut: the
        // selector, the stable replica it names, and (durable mode) the
        // completedTail cell plus the log entries recovery will replay
        // onto the stable snapshot. Rule 3 then verifies all of it was
        // durable at the cut.
        let rt = self.runtime();
        if rt.psan_enabled() {
            const SITE: &str = "PrepUc::crash_image_in_cut";
            let cell = std::mem::size_of::<u64>() as u64;
            rt.trace_recovery_read(state.psan.p_active_addr, cell, SITE);
            let stable = image.stable_index();
            if let Ok(snap) = &image.replicas[stable] {
                let region = state.psan.replicas[stable];
                rt.trace_recovery_read(region.base, region.len, SITE);
                if self.config().durability == DurabilityLevel::Durable {
                    rt.trace_recovery_read(state.psan.ct_addr, cell, SITE);
                    let eb = std::mem::size_of::<T::Op>() as u64 + 1;
                    let from = snap.local_tail * eb;
                    let to = image.completed_tail * eb;
                    if to > from {
                        rt.trace_recovery_read(state.psan.log_base + from, to - from, SITE);
                    }
                }
            }
        }
        image
    }

    /// The recovery procedure (§5.1 buffered, §5.2 durable): rebuilds a
    /// fresh PREP-UC from a crash image.
    ///
    /// 1. Identify the stable persistent replica via `p_activePReplica`.
    /// 2. Start from its snapshot.
    /// 3. Replay the persisted, non-empty log entries in
    ///    `[stable.localTail, completedTail)` onto it (a durable instance's
    ///    image has them; a buffered instance's has none).
    /// 4. Instantiate every replica (N volatile + 2 persistent) as copies of
    ///    the result; reset the log, all tails, and the flush boundary; the
    ///    new instance's NVM images start from the recovered state.
    pub fn recover(
        _crash: CrashToken,
        image: CrashImage<T>,
        assignment: ThreadAssignment,
        config: PrepConfig,
    ) -> Self {
        // The image is consumed here, so the stable snapshot is moved out of
        // it, not deep-copied: recovery starts *from* that object.
        let stable = image.stable_index();
        let ReplicaSnapshot {
            state: mut obj,
            local_tail: from,
        } = image
            .replicas
            .into_iter()
            .nth(stable)
            .expect("stable index is 0 or 1")
            .expect(TORN_STABLE);
        // What to replay is a property of the image, not of the config the
        // new instance will run under: a buffered instance persists neither
        // `completedTail` nor log entries, so this loop is empty for its
        // images, and a durable image recovers fully under any config.
        let to = image.completed_tail;
        for (idx, op) in &image.log_entries {
            if *idx >= from && *idx < to {
                obj.apply(op);
            }
        }
        PrepUc::new(obj, assignment, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_pmem::PmemRuntime;
    use prep_seqds::recorder::{assert_prefix, Recorder, RecorderOp, RecorderResp};
    use prep_topology::Topology;

    fn cfg(level: DurabilityLevel, eps: u64) -> PrepConfig {
        PrepConfig::new(level)
            .with_log_size(256)
            .with_epsilon(eps)
            .with_runtime(PmemRuntime::for_crash_tests())
    }

    /// Runs `n` updates single-threaded, crashes, recovers, and returns
    /// (completed-before-crash history, recovered history).
    fn run_crash_recover(level: DurabilityLevel, eps: u64, n: u64) -> (Vec<u64>, Vec<u64>) {
        let asg = Topology::small().assign_workers(1);
        let prep = PrepUc::new(Recorder::new(), asg.clone(), cfg(level, eps));
        let t = prep.register(0);
        let mut completed = Vec::new();
        for i in 0..n {
            prep.execute(&t, RecorderOp::Record(i));
            completed.push(i);
        }
        let (token, image) = prep.simulate_crash();
        drop(prep); // the "power failure"
        let recovered = PrepUc::recover(token, image, asg, cfg(level, eps));
        let t = recovered.register(0);
        let count = match recovered.execute(&t, RecorderOp::Count) {
            RecorderResp::Count(c) => c,
            other => panic!("unexpected {other:?}"),
        };
        let hist = recovered.with_replica(0, |r| r.history().to_vec());
        assert_eq!(hist.len() as u64, count);
        (completed, hist)
    }

    #[test]
    fn durable_recovers_every_completed_operation() {
        let (completed, recovered) = run_crash_recover(DurabilityLevel::Durable, 16, 100);
        assert_eq!(recovered, completed, "durable linearizability: no loss");
    }

    #[test]
    #[allow(clippy::int_plus_one)] // paper formula ε + β − 1
    fn buffered_recovers_a_prefix_within_the_loss_bound() {
        let eps = 16;
        let (completed, recovered) = run_crash_recover(DurabilityLevel::Buffered, eps, 100);
        let len = assert_prefix(&recovered, &completed);
        let beta = 1; // single worker
        let lost = completed.len() - len;
        assert!(
            lost as u64 <= eps + beta - 1,
            "lost {lost} > bound {}",
            eps + beta - 1
        );
    }

    #[test]
    fn crash_before_any_persist_recovers_empty_buffered() {
        // Fewer updates than ε: nothing persisted yet; buffered recovery
        // yields the initial (empty) object — a legal prefix.
        let (completed, recovered) = run_crash_recover(DurabilityLevel::Buffered, 64, 10);
        assert_eq!(completed.len(), 10);
        assert!(recovered.len() <= 10);
        assert_prefix(&recovered, &completed);
    }

    #[test]
    fn crash_before_any_persist_recovers_all_durable() {
        // Even with no WBINVD yet, the durable log replays everything.
        let (completed, recovered) = run_crash_recover(DurabilityLevel::Durable, 64, 10);
        assert_eq!(recovered, completed);
    }

    #[test]
    fn repeated_crashes_accumulate_bounded_loss() {
        // c crash events lose at most c(ε + β − 1) completed ops (§5.1).
        let eps = 8u64;
        let asg = Topology::small().assign_workers(1);
        let mut prep = PrepUc::new(
            Recorder::new(),
            asg.clone(),
            cfg(DurabilityLevel::Buffered, eps),
        );
        let mut completed: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        const CRASHES: u64 = 4;
        for _ in 0..CRASHES {
            let t = prep.register(0);
            for _ in 0..30 {
                prep.execute(&t, RecorderOp::Record(next_id));
                completed.push(next_id);
                next_id += 1;
            }
            let (token, image) = prep.simulate_crash();
            drop(prep);
            prep = PrepUc::recover(
                token,
                image,
                asg.clone(),
                cfg(DurabilityLevel::Buffered, eps),
            );
            // The recovered history must be missing only a suffix of each
            // inter-crash epoch; globally, ids are recorded in order with
            // gaps only at crash points. Verify it is a subsequence of
            // `completed` and bounded loss overall.
            let hist = prep.with_replica(0, |r| r.history().to_vec());
            let lost_total = completed.len() - hist.len();
            assert!(
                (lost_total as u64) <= CRASHES * (eps + 1 - 1),
                "total loss {lost_total} exceeds c(ε+β−1)"
            );
        }
    }

    #[test]
    fn stable_replica_is_never_torn_across_random_crash_points() {
        // Crash at many different points; the stable image must always be
        // readable (two-replica invariant), even while the active one is
        // being updated.
        let asg = Topology::small().assign_workers(1);
        for n in [1u64, 5, 9, 17, 33, 64, 100] {
            let prep = PrepUc::new(
                Recorder::new(),
                asg.clone(),
                cfg(DurabilityLevel::Buffered, 8),
            );
            let t = prep.register(0);
            for i in 0..n {
                prep.execute(&t, RecorderOp::Record(i));
            }
            let (_tok, image) = prep.simulate_crash();
            let stable = image.stable_snapshot();
            assert!(stable.local_tail <= n);
        }
    }
}
