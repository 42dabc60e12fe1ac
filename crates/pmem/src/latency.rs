//! The persistence cost model.
//!
//! Costs are expressed in nanoseconds and applied by busy-waiting, because
//! the real instructions stall the issuing core (a `thread::sleep` would
//! under-charge by descheduling). Defaults are calibrated to published Intel
//! Optane DCPMM measurements (Izraelevitz et al. 2019, "Basic Performance
//! Measurements of the Intel Optane DC Persistent Memory Module"):
//! `CLWB`/`CLFLUSHOPT` of a dirty line ~tens of ns issue cost with the drain
//! paid at the fence; a full flush+fence round trip to the DIMM on the order
//! of 100–300 ns; `WBINVD` several hundred microseconds on a large cache.

use std::time::{Duration, Instant};

/// Nanosecond costs for each persistence primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Synchronous `CLFLUSH` of one line (includes its implicit ordering).
    pub clflush_ns: u64,
    /// Asynchronous `CLFLUSHOPT`/`CLWB` issue cost for one line.
    pub clflushopt_ns: u64,
    /// `SFENCE` drain cost, charged per outstanding asynchronous flush.
    pub sfence_per_pending_ns: u64,
    /// `SFENCE` base cost.
    pub sfence_ns: u64,
    /// `WBINVD` base cost (kernel-module round trip + cache walk).
    pub wbinvd_base_ns: u64,
    /// `WBINVD` additional cost per KiB of modelled dirty footprint.
    pub wbinvd_per_kib_ns: u64,
    /// Extra write latency per cache line for stores that target NVM
    /// (charged when the persistence thread updates a persistent replica).
    pub nvm_write_ns: u64,
}

impl LatencyModel {
    /// Optane-calibrated defaults (see module docs).
    pub fn optane() -> Self {
        LatencyModel {
            clflush_ns: 250,
            clflushopt_ns: 40,
            sfence_per_pending_ns: 60,
            sfence_ns: 30,
            wbinvd_base_ns: 500_000,
            wbinvd_per_kib_ns: 15,
            nvm_write_ns: 90,
        }
    }

    /// Zero-cost model: persistence semantics are still tracked, but no time
    /// is charged. Used by correctness tests so crash-injection suites run
    /// fast.
    pub fn off() -> Self {
        LatencyModel {
            clflush_ns: 0,
            clflushopt_ns: 0,
            sfence_per_pending_ns: 0,
            sfence_ns: 0,
            wbinvd_base_ns: 0,
            wbinvd_per_kib_ns: 0,
            nvm_write_ns: 0,
        }
    }

    /// A scaled-down Optane model for quick benchmark smoke runs.
    pub fn optane_scaled(divisor: u64) -> Self {
        let d = divisor.max(1);
        let o = Self::optane();
        LatencyModel {
            clflush_ns: o.clflush_ns / d,
            clflushopt_ns: o.clflushopt_ns / d,
            sfence_per_pending_ns: o.sfence_per_pending_ns / d,
            sfence_ns: o.sfence_ns / d,
            wbinvd_base_ns: o.wbinvd_base_ns / d,
            wbinvd_per_kib_ns: o.wbinvd_per_kib_ns / d,
            nvm_write_ns: o.nvm_write_ns / d,
        }
    }

    /// Cost of a WBINVD over `dirty_bytes` of modelled dirty cache footprint.
    pub fn wbinvd_cost_ns(&self, dirty_bytes: u64) -> u64 {
        self.wbinvd_base_ns + self.wbinvd_per_kib_ns * (dirty_bytes / 1024)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::optane()
    }
}

/// Measured cost of one `Instant::now()` + `elapsed()` pair, calibrated
/// once per process (minimum over several batches, so scheduler noise can
/// only *under*-estimate — deducting too little is safe, deducting too much
/// would make charges vanish).
///
/// Why it matters: the spin loop in [`charge_ns`] pays this timer cost on
/// top of the requested wait, which for a 40 ns `clflushopt` charge used to
/// mean billing 2–3× the modelled latency. [`charge_ns`] deducts it.
pub(crate) fn timer_overhead_ns() -> u64 {
    use std::sync::OnceLock;
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        const BATCH: u32 = 256;
        let mut best = u64::MAX;
        for _ in 0..8 {
            #[expect(
                clippy::disallowed_methods,
                reason = "the latency model is the one place that reads the wall clock"
            )]
            let start = Instant::now();
            for _ in 0..BATCH {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the latency model is the one place that reads the wall clock"
                )]
                let t = Instant::now();
                std::hint::black_box(t.elapsed());
            }
            let total = start.elapsed().as_nanos() as u64;
            best = best.min(total / BATCH as u64);
        }
        best
    })
}

/// Busy-waits for `ns` nanoseconds (no-op for 0).
///
/// Busy-waiting (not sleeping) matches how flush/fence instructions occupy
/// the issuing core. For waits above ~100 µs we fall back to a sleep so a
/// heavily charged operation (WBINVD) does not monopolize an oversubscribed
/// machine.
///
/// The calibrated timer overhead ([`timer_overhead_ns`]) is deducted from
/// the spin target: the `Instant::now()`/`elapsed()` pair is itself part of
/// the stall the caller experiences, and for small charges (a 40 ns
/// `clflushopt`) paying it *on top* overbilled by whole multiples. Charges
/// at or below the overhead return immediately — the call dispatch already
/// cost that much.
#[inline]
pub(crate) fn charge_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    if ns > 100_000 {
        #[expect(
            clippy::disallowed_methods,
            reason = "a charge this long models a stall, not a spin: yield the core"
        )]
        std::thread::sleep(Duration::from_nanos(ns));
        return;
    }
    let spin = ns.saturating_sub(timer_overhead_ns());
    if spin == 0 {
        return;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the latency model is the one place that reads the wall clock"
    )]
    let start = Instant::now();
    let target = Duration::from_nanos(spin);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]
mod tests {
    use super::*;

    #[test]
    fn off_model_is_all_zero() {
        let m = LatencyModel::off();
        assert_eq!(m.clflush_ns, 0);
        assert_eq!(m.wbinvd_cost_ns(1 << 30), 0);
    }

    #[test]
    fn wbinvd_cost_scales_with_footprint() {
        let m = LatencyModel::optane();
        let small = m.wbinvd_cost_ns(4 * 1024);
        let large = m.wbinvd_cost_ns(4 * 1024 * 1024);
        assert!(large > small);
        assert_eq!(small, m.wbinvd_base_ns + 4 * m.wbinvd_per_kib_ns);
    }

    #[test]
    fn scaled_model_divides_costs() {
        let m = LatencyModel::optane_scaled(10);
        assert_eq!(m.clflush_ns, LatencyModel::optane().clflush_ns / 10);
        // Divisor 0 is clamped to 1 rather than dividing by zero.
        let id = LatencyModel::optane_scaled(0);
        assert_eq!(id, LatencyModel::optane());
    }

    #[test]
    fn charge_ns_zero_returns_immediately() {
        let t = Instant::now();
        charge_ns(0);
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn charge_ns_waits_at_least_requested() {
        let t = Instant::now();
        charge_ns(200_000); // sleep path
        assert!(t.elapsed() >= Duration::from_micros(200));
        let t = Instant::now();
        // Spin path. The spin target deducts the calibrated timer overhead
        // (≲ 1 µs), so the externally observed wait is ns − overhead, not ≥ ns.
        charge_ns(20_000);
        assert!(t.elapsed() >= Duration::from_micros(19));
    }

    #[test]
    fn small_charges_do_not_overbill_by_the_timer_overhead() {
        // Regression bound for the charge_ns overcharge fix: charging the
        // Optane clflushopt cost N times must cost ≈ N × the charge, not
        // N × (charge + timer overhead). We bound the mean per-call cost by
        // charge + overhead + slack — before the fix it measured
        // ≥ charge + 2×overhead on hosts with slow clock reads.
        let overhead = timer_overhead_ns();
        let charge = LatencyModel::optane().clflushopt_ns; // 40 ns
        const N: u32 = 10_000;
        let start = Instant::now();
        for _ in 0..N {
            charge_ns(charge);
        }
        let mean = start.elapsed().as_nanos() as u64 / N as u64;
        // Generous slack for CI noise; the point is the bound scales with
        // ONE timer overhead, not two.
        let bound = charge + overhead + overhead / 2 + 60;
        assert!(
            mean <= bound,
            "mean per-call cost {mean} ns exceeds bound {bound} ns \
             (charge {charge} ns, calibrated timer overhead {overhead} ns)"
        );
    }

    #[test]
    fn timer_overhead_is_calibrated_and_sane() {
        let o = timer_overhead_ns();
        assert_eq!(o, timer_overhead_ns(), "calibration must be cached");
        assert!(o < 100_000, "implausible timer overhead: {o} ns");
    }
}
