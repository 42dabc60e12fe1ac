//! Persistence-operation counters.
//!
//! Every emulated flush/fence/WBINVD bumps a counter here. The benchmark
//! harness reports these next to throughput so the *why* behind each figure
//! (e.g. CX-PUC's whole-replica flush volume vs PREP's batched log flushes)
//! is visible, and the crash tests use them as progress probes (e.g. "crash
//! after the third WBINVD").
//!
//! Counters are **striped per thread**: each thread is assigned (round-robin
//! on first count) one of [`STRIPES`] cacheline-padded cells and only ever
//! `fetch_add`s its own cell; [`PmemStats::snapshot`] sums the stripes.
//! Without this, every flush in the durable hot path contends on one shared
//! cacheline per counter — skewing exactly the scaling measurements the
//! stats exist to explain. The stripes are monotone, so a summed snapshot
//! is a valid observation of the totals at some instant between the first
//! and last stripe read.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Number of counter stripes; threads map onto them round-robin (mod).
const STRIPES: usize = 16;

/// One stripe's worth of counters.
// shared-line: plain (unpadded) atomics inside on purpose — the stripe as
// a whole is CachePadded and a thread owns its entire stripe, so fields
// sharing a line is free, not false sharing.
#[derive(Debug, Default)]
struct StripeCells {
    clflush: AtomicU64,
    clflushopt: AtomicU64,
    sfence: AtomicU64,
    wbinvd: AtomicU64,
    bytes_persisted: AtomicU64,
    snapshots: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    checkpoint_lines: AtomicU64,
}

/// The stripe index this thread's counts land on.
fn my_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    STRIPE.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            // ord: round-robin dispenser; only RMW atomicity matters.
            v = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            c.set(v);
        }
        v
    })
}

/// Atomic counters for persistence operations (thread-striped).
#[derive(Debug)]
pub struct PmemStats {
    stripes: Box<[CachePadded<StripeCells>]>,
}

impl Default for PmemStats {
    fn default() -> Self {
        PmemStats {
            stripes: (0..STRIPES).map(|_| CachePadded::default()).collect(),
        }
    }
}

/// A point-in-time copy of [`PmemStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmemStatsSnapshot {
    /// Synchronous CLFLUSH count.
    pub clflush: u64,
    /// Asynchronous CLFLUSHOPT/CLWB count.
    pub clflushopt: u64,
    /// SFENCE count.
    pub sfence: u64,
    /// WBINVD count.
    pub wbinvd: u64,
    /// Total bytes made persistent (cells + log entries + snapshots).
    pub bytes_persisted: u64,
    /// Replica snapshots installed (== successful persist cycles).
    pub snapshots: u64,
    /// Replica checkpoint flushes (one per persist cycle, any strategy).
    pub checkpoints: u64,
    /// Bytes written back by replica checkpoints: the whole replica under
    /// `Wbinvd`, only the dirty set under `DirtyLines`.
    pub checkpoint_bytes: u64,
    /// Cachelines written back by replica checkpoints (`⌈bytes / 64⌉` per
    /// checkpoint).
    pub checkpoint_lines: u64,
}

impl PmemStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn mine(&self) -> &StripeCells {
        &self.stripes[my_stripe()]
    }

    #[inline]
    fn sum(&self, field: impl Fn(&StripeCells) -> &AtomicU64) -> u64 {
        self.stripes
            .iter()
            // ord: monotone counters — a relaxed sum is a valid observation
            // at some instant between the first and last stripe read (see
            // module docs); nothing synchronizes on it.
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    pub(crate) fn count_clflush(&self) {
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        self.mine().clflush.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_clflushopt(&self) {
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        self.mine().clflushopt.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_clflushopt_n(&self, n: u64) {
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        self.mine().clflushopt.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_sfence(&self) {
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        self.mine().sfence.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_wbinvd(&self) {
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        self.mine().wbinvd.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_bytes(&self, n: u64) {
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        self.mine().bytes_persisted.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_snapshot(&self) {
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        self.mine().snapshots.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_checkpoint(&self, bytes: u64) {
        let mine = self.mine();
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        mine.checkpoints.fetch_add(1, Ordering::Relaxed);
        // ord: per-thread striped statistic; summed relaxed (see `sum`).
        mine.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
        mine.checkpoint_lines
            // ord: per-thread striped statistic; summed relaxed (see `sum`).
            .fetch_add(bytes.div_ceil(64), Ordering::Relaxed);
    }

    /// Number of WBINVDs so far (cheap accessor for progress probes).
    pub fn wbinvd_count(&self) -> u64 {
        self.sum(|s| &s.wbinvd)
    }

    /// Number of replica snapshots installed so far.
    pub fn snapshot_count(&self) -> u64 {
        self.sum(|s| &s.snapshots)
    }

    /// Takes a consistent-enough copy of all counters (relaxed reads; the
    /// counters are monotone so any interleaving is a valid observation).
    pub fn snapshot(&self) -> PmemStatsSnapshot {
        PmemStatsSnapshot {
            clflush: self.sum(|s| &s.clflush),
            clflushopt: self.sum(|s| &s.clflushopt),
            sfence: self.sum(|s| &s.sfence),
            wbinvd: self.sum(|s| &s.wbinvd),
            bytes_persisted: self.sum(|s| &s.bytes_persisted),
            snapshots: self.sum(|s| &s.snapshots),
            checkpoints: self.sum(|s| &s.checkpoints),
            checkpoint_bytes: self.sum(|s| &s.checkpoint_bytes),
            checkpoint_lines: self.sum(|s| &s.checkpoint_lines),
        }
    }
}

impl PmemStatsSnapshot {
    /// Per-field difference `self - earlier` (saturating): the persistence
    /// work done between two snapshots. This is the building block for all
    /// per-phase and per-shard accounting (see `prep-bench`'s
    /// `report::Phase`).
    pub fn delta(&self, earlier: &PmemStatsSnapshot) -> PmemStatsSnapshot {
        PmemStatsSnapshot {
            clflush: self.clflush.saturating_sub(earlier.clflush),
            clflushopt: self.clflushopt.saturating_sub(earlier.clflushopt),
            sfence: self.sfence.saturating_sub(earlier.sfence),
            wbinvd: self.wbinvd.saturating_sub(earlier.wbinvd),
            bytes_persisted: self.bytes_persisted.saturating_sub(earlier.bytes_persisted),
            snapshots: self.snapshots.saturating_sub(earlier.snapshots),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            checkpoint_bytes: self
                .checkpoint_bytes
                .saturating_sub(earlier.checkpoint_bytes),
            checkpoint_lines: self
                .checkpoint_lines
                .saturating_sub(earlier.checkpoint_lines),
        }
    }

    /// Alias for [`PmemStatsSnapshot::delta`] (the historical name).
    pub fn delta_since(&self, earlier: &PmemStatsSnapshot) -> PmemStatsSnapshot {
        self.delta(earlier)
    }

    /// Total explicit flush instructions (sync + async).
    pub fn total_flushes(&self) -> u64 {
        self.clflush + self.clflushopt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layout pin: adjacent counter stripes are at least a cache line
    /// apart, so threads counting on different stripes do not false-share.
    #[test]
    fn stripes_never_share_a_cache_line() {
        let s = PmemStats::new();
        let gap = s.stripes[1..].as_ptr() as usize - s.stripes.as_ptr() as usize;
        assert!(gap >= 64, "adjacent stripes are {gap} bytes apart");
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = PmemStats::new();
        s.count_clflush();
        s.count_clflushopt();
        s.count_clflushopt();
        s.count_sfence();
        s.count_wbinvd();
        s.count_bytes(128);
        s.count_snapshot();
        s.count_checkpoint(100); // 100 bytes → 2 lines
        let snap = s.snapshot();
        assert_eq!(snap.clflush, 1);
        assert_eq!(snap.clflushopt, 2);
        assert_eq!(snap.sfence, 1);
        assert_eq!(snap.wbinvd, 1);
        assert_eq!(snap.bytes_persisted, 128);
        assert_eq!(snap.snapshots, 1);
        assert_eq!(snap.checkpoints, 1);
        assert_eq!(snap.checkpoint_bytes, 100);
        assert_eq!(snap.checkpoint_lines, 2);
        assert_eq!(snap.total_flushes(), 3);
    }

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let s = PmemStats::new();
        s.count_sfence();
        let a = s.snapshot();
        s.count_sfence();
        s.count_clflush();
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.sfence, 1);
        assert_eq!(d.clflush, 1);
        assert_eq!(d.wbinvd, 0);
    }

    #[test]
    fn concurrent_counting_is_not_lossy() {
        use std::sync::Arc;
        let s = Arc::new(PmemStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.count_clflushopt();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().clflushopt, 4000);
    }

    #[test]
    fn counts_from_many_threads_spread_over_stripes_and_still_sum() {
        use std::sync::Arc;
        // More threads than stripes: assignment wraps; totals must be exact
        // regardless of which stripes absorbed which threads.
        let s = Arc::new(PmemStats::new());
        let handles: Vec<_> = (0..(STRIPES + 3))
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..(100 + i) {
                        s.count_bytes(3);
                        s.count_sfence();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected: u64 = (0..(STRIPES as u64 + 3)).map(|i| 100 + i).sum();
        let snap = s.snapshot();
        assert_eq!(snap.sfence, expected);
        assert_eq!(snap.bytes_persisted, 3 * expected);
        // A single thread's counts land on exactly one stripe.
        let occupied = s
            .stripes
            .iter()
            .filter(|st| st.sfence.load(Ordering::Relaxed) > 0)
            .count();
        assert!(occupied > 1, "thread counts failed to spread over stripes");
    }
}
