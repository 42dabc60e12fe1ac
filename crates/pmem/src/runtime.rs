//! The central persistence runtime: cost charging + consistent-cut capture.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use prep_psan::{EventKind, PublishTag, Region, Tracer, Violation};

use crate::latency::{charge_ns, LatencyModel};
use crate::stats::PmemStats;

thread_local! {
    /// Outstanding asynchronous flushes issued by this thread since its last
    /// SFENCE. The fence drains them (and is charged per pending flush).
    static PENDING_FLUSHES: Cell<u64> = const { Cell::new(0) };
}

/// Proof that a crash was simulated; carries a monotonically increasing
/// crash id. Recovery constructors take a `CrashToken` so that "recover"
/// paths cannot be invoked without an actual (simulated) crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashToken {
    /// 1-based index of this crash within the runtime's lifetime.
    pub crash_id: u64,
}

/// Proof that the stores an addressed flush persists were traced for the
/// persistence-ordering sanitizer. Only [`PmemRuntime::trace_store`] and
/// [`PmemRuntime::trace_publish`] make one, and
/// [`PmemRuntime::flush_range`] and [`PmemRuntime::clflushopt_at`] take
/// one, so a flush whose stores psan cannot see does not compile. It is
/// zero-sized: threading it through costs nothing at run time.
#[derive(Debug)]
pub struct Traced(());

/// The persistence-semantics emulator shared by one universal construction
/// instance (and everything it persists).
///
/// Two independent switches:
/// * the [`LatencyModel`] decides what persistence *costs* (benchmarks use
///   an Optane-calibrated model; correctness tests switch it off);
/// * `crash_sim` decides whether persist operations also maintain the crash
///   store (tests on) or are cost-only (benchmarks off — maintaining the
///   store takes a global read lock per persist, which would distort
///   measured scaling).
#[derive(Debug)]
pub struct PmemRuntime {
    latency: LatencyModel,
    stats: PmemStats,
    crash_sim: bool,
    /// Readers: every persist effect. Writer: crash capture. Holding the
    /// write lock freezes the crash store, making the captured image a
    /// consistent cut of the persist order.
    cut_lock: RwLock<()>,
    // shared-line: bumped once per simulated crash (a test-only, stop-the-
    // world event); never touched on the persist hot path.
    crashes: AtomicU64,
    /// Persistence-ordering sanitizer trace (see `prep-psan`). Disabled by
    /// default: the whole tracing surface then costs one relaxed atomic
    /// load per persist call.
    tracer: Tracer,
    /// When set (via `PREP_PSAN`), every captured crash cut and every
    /// recovery replays the trace through the rule engine and panics on
    /// violations, so the existing crash/proptest suite doubles as a
    /// sanitizer corpus.
    psan_panic: bool,
}

impl PmemRuntime {
    /// Creates a runtime with the given cost model and crash-sim switch.
    pub fn new(latency: LatencyModel, crash_sim: bool) -> Arc<Self> {
        // Calibrate the charge_ns timer-overhead deduction now, off the hot
        // path, so the first flush doesn't pay for the measurement.
        let _ = crate::latency::timer_overhead_ns();
        let tracer = Tracer::new();
        let psan_panic = prep_psan::env_enabled();
        if psan_panic {
            tracer.enable();
        }
        Arc::new(PmemRuntime {
            latency,
            stats: PmemStats::new(),
            crash_sim,
            cut_lock: RwLock::new(()),
            crashes: AtomicU64::new(0),
            tracer,
            psan_panic,
        })
    }

    /// Cost-only runtime for benchmarks (no crash store).
    pub fn for_benchmarks(latency: LatencyModel) -> Arc<Self> {
        Self::new(latency, false)
    }

    /// Zero-cost runtime with crash simulation, for correctness tests.
    pub fn for_crash_tests() -> Arc<Self> {
        Self::new(LatencyModel::off(), true)
    }

    /// The cost model in effect.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Persistence-operation counters.
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// Whether the crash store is being maintained.
    pub fn crash_sim_enabled(&self) -> bool {
        self.crash_sim
    }

    /// Emulates a synchronous `CLFLUSH` of one cache line.
    #[inline]
    pub fn clflush(&self) {
        charge_ns(self.latency.clflush_ns);
        self.stats.count_clflush();
    }

    /// Emulates an asynchronous `CLFLUSHOPT`/`CLWB` of one cache line.
    /// Durability is only guaranteed after the next [`PmemRuntime::sfence`].
    #[inline]
    pub fn clflushopt(&self) {
        charge_ns(self.latency.clflushopt_ns);
        self.stats.count_clflushopt();
        PENDING_FLUSHES.with(|p| p.set(p.get() + 1));
    }

    /// Emulates an `SFENCE`: drains this thread's outstanding asynchronous
    /// flushes, charging per pending line.
    #[inline]
    pub fn sfence(&self) {
        let pending = PENDING_FLUSHES.with(|p| p.replace(0));
        charge_ns(self.latency.sfence_ns + pending * self.latency.sfence_per_pending_ns);
        self.stats.count_sfence();
        self.tracer.record(EventKind::Fence, "PmemRuntime::sfence");
    }

    /// Emulates `WBINVD` over `dirty_bytes` of modelled dirty footprint
    /// (write back and invalidate the executing processor's entire cache).
    #[inline]
    pub fn wbinvd(&self, dirty_bytes: u64) {
        charge_ns(self.latency.wbinvd_cost_ns(dirty_bytes));
        self.stats.count_wbinvd();
        self.tracer.record(EventKind::Wbinvd, "PmemRuntime::wbinvd");
    }

    /// Emulates flushing the `bytes`-long address range starting at the
    /// logical NVM address `addr` with asynchronous line flushes (the
    /// CX-PUC whole-replica persist, and PREP's range-flush alternative to
    /// WBINVD from §6). Counts one `CLFLUSHOPT` per line; the cost is
    /// charged in one batch. Durability still requires a following
    /// [`PmemRuntime::sfence`]. `addr` comes from a
    /// [`PmemRuntime::psan_region`] allocation and gives the flush real
    /// identity for the ordering sanitizer; `_traced` is the proof that
    /// the stores it persists were traced.
    #[inline]
    pub fn flush_range(&self, addr: u64, bytes: u64, site: &'static str, _traced: &Traced) {
        let lines = bytes.div_ceil(64).max(1);
        charge_ns(lines * self.latency.clflushopt_ns);
        self.stats.count_clflushopt_n(lines);
        PENDING_FLUSHES.with(|p| p.set(p.get() + lines));
        self.tracer
            .record(EventKind::FlushRange { addr, len: bytes }, site);
    }

    /// Records checkpoint accounting: one replica checkpoint that wrote
    /// back `bytes` of replica state (whole replica under WBINVD, only the
    /// dirty set under dirty-line flushing). Pure
    /// bookkeeping — the flush cost itself is charged by the caller through
    /// [`PmemRuntime::wbinvd`] / [`PmemRuntime::flush_range`].
    #[inline]
    pub fn count_checkpoint(&self, bytes: u64) {
        self.stats.count_checkpoint(bytes);
        self.tracer
            .record(EventKind::Epoch, "PmemRuntime::count_checkpoint");
    }

    /// Charges the extra write latency for `bytes` of stores to NVM (used
    /// when the persistence thread replays operations onto a persistent
    /// replica). Cost-only: replica stores are traced for the sanitizer at
    /// checkpoint granularity (the dirty set the checkpoint flushes), not
    /// per replayed operation — per-op store events would claim lines
    /// dirty that the checkpoint's precise dirty-line trace re-states
    /// anyway.
    #[inline]
    pub fn nvm_write(&self, bytes: u64) {
        if self.latency.nvm_write_ns == 0 {
            return;
        }
        let lines = bytes.div_ceil(64).max(1);
        charge_ns(lines * self.latency.nvm_write_ns);
    }

    /// Number of asynchronous flushes this thread has issued since its last
    /// fence (test/diagnostic hook).
    pub fn pending_flushes() -> u64 {
        PENDING_FLUSHES.with(|p| p.get())
    }

    // --- persistence-ordering sanitizer surface (see `prep-psan`) -------

    /// Emulates an asynchronous `CLFLUSHOPT` of the line containing the
    /// logical NVM address `addr`. Identical cost and stats to
    /// [`PmemRuntime::clflushopt`]; additionally gives the flush address
    /// identity for the sanitizer. `_traced` is the proof that the stores
    /// it persists were traced.
    #[inline]
    pub fn clflushopt_at(&self, addr: u64, site: &'static str, _traced: &Traced) {
        charge_ns(self.latency.clflushopt_ns);
        self.stats.count_clflushopt();
        PENDING_FLUSHES.with(|p| p.set(p.get() + 1));
        self.tracer
            .record(EventKind::FlushLine { addr, sync: false }, site);
    }

    /// A *publish* store of `len` bytes at `addr` plus its synchronous
    /// `CLFLUSH`, as one atomic persist: once durable it makes the `deps`
    /// byte ranges reachable by recovery, so the sanitizer requires every
    /// dep byte to be durable *before* this call. Identical cost and stats
    /// to one [`PmemRuntime::clflush`].
    #[inline]
    pub fn publish_clflush(
        &self,
        addr: u64,
        len: u64,
        deps: &[(u64, u64)],
        tag: PublishTag,
        site: &'static str,
    ) {
        charge_ns(self.latency.clflush_ns);
        self.stats.count_clflush();
        if self.tracer.enabled() {
            self.tracer.record(
                EventKind::Publish {
                    addr,
                    len,
                    deps: deps.to_vec(),
                    tag,
                    durable: true,
                },
                site,
            );
        }
    }

    /// Records a plain store to `[addr, addr+len)` (no cost — volatile
    /// store timing is not modelled; this only informs the sanitizer that
    /// the bytes are dirty until flushed and fenced). The returned
    /// [`Traced`] is what the flush that persists the store takes.
    #[inline]
    pub fn trace_store(&self, addr: u64, len: u64, site: &'static str) -> Traced {
        self.tracer.record(
            EventKind::Store {
                addr,
                len,
                durable: false,
            },
            site,
        );
        Traced(())
    }

    /// Records a publish store (e.g. a log entry's emptyBit) whose
    /// durability is still governed by a later flush + fence. The `deps`
    /// byte ranges must already be durable when the store is issued. The
    /// returned [`Traced`] is what the flush that persists it takes.
    #[inline]
    pub fn trace_publish(
        &self,
        addr: u64,
        len: u64,
        deps: &[(u64, u64)],
        tag: PublishTag,
        site: &'static str,
    ) -> Traced {
        if self.tracer.enabled() {
            self.tracer.record(
                EventKind::Publish {
                    addr,
                    len,
                    deps: deps.to_vec(),
                    tag,
                    durable: false,
                },
                site,
            );
        }
        Traced(())
    }

    /// Records that recovery (for the most recent captured cut) reads
    /// `[addr, addr+len)`. The sanitizer checks the bytes were durable at
    /// that cut.
    #[inline]
    pub fn trace_recovery_read(&self, addr: u64, len: u64, site: &'static str) {
        if self.tracer.enabled() {
            let cut = self.tracer.last_cut();
            self.tracer
                .record(EventKind::RecoveryRead { addr, len, cut }, site);
        }
    }

    /// Allocates a disjoint logical NVM address region for sanitizer
    /// identity (valid whether or not tracing is enabled, so construction
    /// paths can allocate unconditionally).
    pub fn psan_region(&self, label: &'static str, len: u64) -> Region {
        self.tracer.alloc_region(label, len)
    }

    /// Switches the sanitizer tracer on for this runtime (idempotent; also
    /// done at construction when `PREP_PSAN` is set, in which case crash
    /// cuts and recoveries additionally panic on violations).
    pub fn psan_enable(&self) {
        self.tracer.enable();
    }

    /// Whether the sanitizer tracer is recording.
    pub fn psan_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Replays the trace through the rule engine and returns violations.
    pub fn psan_check(&self) -> Vec<Violation> {
        self.tracer.check()
    }

    /// The raw event trace (diagnostics and overhead reporting).
    pub fn psan_events(&self) -> Vec<prep_psan::Event> {
        self.tracer.events()
    }

    /// Number of traced events so far.
    pub fn psan_event_count(&self) -> usize {
        self.tracer.len()
    }

    /// Panics with a full report if the trace violates any ordering rule.
    pub fn psan_assert_clean(&self) {
        let violations = self.tracer.check();
        assert!(
            violations.is_empty(),
            "{}",
            prep_psan::format_violations(&violations)
        );
    }

    /// Enforcement hook for crash/recovery paths: when running under
    /// `PREP_PSAN`, checks the trace and panics on violations; otherwise a
    /// no-op (programmatic [`PmemRuntime::psan_enable`] users inspect
    /// [`PmemRuntime::psan_check`] themselves).
    pub fn psan_enforce(&self) {
        if self.psan_panic && self.tracer.enabled() {
            let violations = self.tracer.check();
            if !violations.is_empty() {
                panic!("{}", prep_psan::format_violations(&violations));
            }
        }
    }

    /// Enters a persist effect: returns a guard that must be held while
    /// mutating the crash store. Returns `None` when crash simulation is
    /// off (the caller then skips the store update entirely).
    #[inline]
    pub(crate) fn persist_effect(&self) -> Option<RwLockReadGuard<'_, ()>> {
        if self.crash_sim {
            Some(self.cut_lock.read().expect("cut lock poisoned"))
        } else {
            None
        }
    }

    /// Simulates a full-system power failure: blocks until all in-flight
    /// persist effects complete, freezes the crash store, runs `capture`
    /// (which should clone whatever persisted images recovery will need),
    /// and returns the closure's result together with a [`CrashToken`].
    ///
    /// # Panics
    /// Panics if called when crash simulation is disabled.
    pub fn capture_cut<R>(&self, capture: impl FnOnce() -> R) -> (CrashToken, R) {
        assert!(
            self.crash_sim,
            "capture_cut requires a crash-sim runtime (PmemRuntime::for_crash_tests)"
        );
        // ord: crash-id dispenser; the cut itself is ordered by cut_lock,
        // the counter only names it.
        let id = self.crashes.fetch_add(1, Ordering::Relaxed) + 1;
        let out = {
            let _w = self.cut_lock.write().expect("cut lock poisoned");
            // Recorded under the write lock: every persist effect ordered
            // before the cut is already in the trace, everything after
            // comes later — the trace sees the same consistent cut the
            // crash store does.
            self.tracer
                .record(EventKind::CrashCut { id }, "PmemRuntime::capture_cut");
            capture()
        };
        self.psan_enforce();
        (CrashToken { crash_id: id }, out)
    }

    /// Total simulated crashes so far.
    pub fn crash_count(&self) -> u64 {
        // ord: advisory statistic.
        self.crashes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn flush_and_fence_update_stats_and_pending() {
        let rt = PmemRuntime::for_crash_tests();
        assert_eq!(PmemRuntime::pending_flushes(), 0);
        rt.clflushopt();
        rt.clflushopt();
        assert_eq!(PmemRuntime::pending_flushes(), 2);
        rt.sfence();
        assert_eq!(PmemRuntime::pending_flushes(), 0);
        rt.clflush();
        let s = rt.stats().snapshot();
        assert_eq!(s.clflushopt, 2);
        assert_eq!(s.sfence, 1);
        assert_eq!(s.clflush, 1);
    }

    #[test]
    fn pending_flushes_are_per_thread() {
        let rt = PmemRuntime::for_crash_tests();
        rt.clflushopt();
        let rt2 = Arc::clone(&rt);
        thread::spawn(move || {
            assert_eq!(PmemRuntime::pending_flushes(), 0);
            rt2.clflushopt();
            assert_eq!(PmemRuntime::pending_flushes(), 1);
        })
        .join()
        .unwrap();
        assert_eq!(PmemRuntime::pending_flushes(), 1);
        rt.sfence();
    }

    #[test]
    fn capture_cut_excludes_concurrent_persist_effects() {
        let rt = PmemRuntime::for_crash_tests();
        let inside = Arc::new(AtomicBool::new(false));

        // A thread holding a persist-effect guard delays the capture.
        let rt2 = Arc::clone(&rt);
        let inside2 = Arc::clone(&inside);
        let holder = thread::spawn(move || {
            let g = rt2.persist_effect().expect("crash sim on");
            inside2.store(true, Ordering::Release);
            thread::sleep(std::time::Duration::from_millis(20));
            drop(g);
        });
        prep_sync::spin_until(|| inside.load(Ordering::Acquire));
        let t0 = std::time::Instant::now();
        let (token, ()) = rt.capture_cut(|| ());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        assert_eq!(token.crash_id, 1);
        holder.join().unwrap();
        let (token2, ()) = rt.capture_cut(|| ());
        assert_eq!(token2.crash_id, 2);
        assert_eq!(rt.crash_count(), 2);
    }

    #[test]
    #[should_panic(expected = "requires a crash-sim runtime")]
    fn capture_cut_panics_without_crash_sim() {
        let rt = PmemRuntime::for_benchmarks(LatencyModel::off());
        rt.capture_cut(|| ());
    }

    #[test]
    fn bench_runtime_skips_persist_effect_guard() {
        let rt = PmemRuntime::for_benchmarks(LatencyModel::off());
        assert!(rt.persist_effect().is_none());
        assert!(!rt.crash_sim_enabled());
    }
}
