//! One snapshot type for everything a sharded store can report.
//!
//! Before this module existed, every consumer of per-shard observability —
//! the benchmark harness's per-shard lanes, diagnostics in tests — hand-rolled
//! the same plumbing: call [`crate::ShardedStore::completed_tails`], zip it
//! with [`crate::ShardedStore::stats_per_shard`], subtract baselines field by
//! field. [`StoreMetrics`] is that plumbing done once: a point-in-time
//! snapshot of every shard's progress counters plus the store-level
//! constants, with [`StoreMetrics::delta`] for interval accounting. The
//! serve layer's ADMIN verb serializes exactly this struct onto the wire,
//! and `prep-bench` builds its per-shard report lanes from it.

use prep_pmem::PmemStatsSnapshot;

/// A point-in-time view of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// The shard's `completedTail`: total completed updates.
    pub completed_tail: u64,
    /// Crash-survivability watermark: completed updates at index below this
    /// survive a crash taken at snapshot time (see
    /// [`prep_uc::PrepUc::durable_watermark`]).
    pub durable_watermark: u64,
    /// Read-only ops that missed the zero-contention read fast path.
    pub read_slow_paths: u64,
    /// Validated optimistic (lock-free) fast-path reads: zero atomic RMWs,
    /// zero shared-cacheline stores each.
    pub read_fast_optimistic: u64,
    /// Optimistic reads that failed seqlock validation (a combiner
    /// overlapped) and fell back to the locked path.
    pub read_validation_failures: u64,
    /// Persistence-operation counters. Per-shard attribution is only
    /// meaningful in per-shard-runtime mode; with a shared runtime every
    /// shard reads the same global counters (see
    /// [`StoreMetrics::shared_counters`]).
    pub stats: PmemStatsSnapshot,
}

impl ShardMetrics {
    /// Counter-wise difference `self − earlier` (tails and watermarks are
    /// monotone, so the difference is the interval's progress).
    pub fn delta(&self, earlier: &ShardMetrics) -> ShardMetrics {
        ShardMetrics {
            shard: self.shard,
            completed_tail: self.completed_tail.saturating_sub(earlier.completed_tail),
            durable_watermark: self
                .durable_watermark
                .saturating_sub(earlier.durable_watermark),
            read_slow_paths: self.read_slow_paths.saturating_sub(earlier.read_slow_paths),
            read_fast_optimistic: self
                .read_fast_optimistic
                .saturating_sub(earlier.read_fast_optimistic),
            read_validation_failures: self
                .read_validation_failures
                .saturating_sub(earlier.read_validation_failures),
            stats: self.stats.delta(&earlier.stats),
        }
    }
}

/// A point-in-time view of a whole [`crate::ShardedStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Recovery epoch of the store the snapshot was taken from.
    pub epoch: u64,
    /// Store-wide worst-case completed-update loss per crash.
    pub loss_bound: u64,
    /// True when all shards share one runtime: per-shard `stats` then all
    /// read the same global counters, and summing them would overcount.
    pub shared_counters: bool,
    /// Per-shard views, indexed by shard.
    pub shards: Vec<ShardMetrics>,
}

impl StoreMetrics {
    /// Counter-wise difference `self − earlier`, shard by shard.
    ///
    /// # Panics
    /// Panics if the two snapshots have different shard counts (snapshots
    /// of different stores).
    pub fn delta(&self, earlier: &StoreMetrics) -> StoreMetrics {
        assert_eq!(
            self.shards.len(),
            earlier.shards.len(),
            "delta between snapshots of different stores"
        );
        StoreMetrics {
            epoch: self.epoch,
            loss_bound: self.loss_bound,
            shared_counters: self.shared_counters,
            shards: self
                .shards
                .iter()
                .zip(&earlier.shards)
                .map(|(now, then)| now.delta(then))
                .collect(),
        }
    }

    /// Total completed updates across shards.
    pub fn total_completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed_tail).sum()
    }

    /// Total read-fast-path misses across shards.
    pub fn total_read_slow_paths(&self) -> u64 {
        self.shards.iter().map(|s| s.read_slow_paths).sum()
    }

    /// Total validated optimistic fast-path reads across shards.
    pub fn total_read_fast_optimistic(&self) -> u64 {
        self.shards.iter().map(|s| s.read_fast_optimistic).sum()
    }

    /// Total optimistic validation failures across shards.
    pub fn total_read_validation_failures(&self) -> u64 {
        self.shards.iter().map(|s| s.read_validation_failures).sum()
    }

    /// Store-wide persistence counters: the shared counters read once when
    /// all shards share a runtime, the per-shard sum otherwise.
    pub fn total_stats(&self) -> PmemStatsSnapshot {
        if self.shared_counters {
            self.shards.first().map(|s| s.stats).unwrap_or_default()
        } else {
            let mut acc = PmemStatsSnapshot::default();
            // Summation via delta against the zero snapshot is not provided
            // upstream; accumulate field-by-field through the public fields.
            for s in &self.shards {
                acc.clflush += s.stats.clflush;
                acc.clflushopt += s.stats.clflushopt;
                acc.sfence += s.stats.sfence;
                acc.wbinvd += s.stats.wbinvd;
                acc.bytes_persisted += s.stats.bytes_persisted;
                acc.snapshots += s.stats.snapshots;
                acc.checkpoints += s.stats.checkpoints;
                acc.checkpoint_bytes += s.stats.checkpoint_bytes;
                acc.checkpoint_lines += s.stats.checkpoint_lines;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(i: usize, ct: u64, wm: u64, slow: u64, clflush: u64) -> ShardMetrics {
        ShardMetrics {
            shard: i,
            completed_tail: ct,
            durable_watermark: wm,
            read_slow_paths: slow,
            read_fast_optimistic: slow * 10,
            read_validation_failures: slow / 2,
            stats: PmemStatsSnapshot {
                clflush,
                ..Default::default()
            },
        }
    }

    #[test]
    fn delta_subtracts_per_shard_counters() {
        let t0 = StoreMetrics {
            epoch: 0,
            loss_bound: 16,
            shared_counters: false,
            shards: vec![shard(0, 10, 5, 1, 100), shard(1, 20, 20, 0, 50)],
        };
        let t1 = StoreMetrics {
            epoch: 0,
            loss_bound: 16,
            shared_counters: false,
            shards: vec![shard(0, 25, 20, 4, 130), shard(1, 21, 21, 2, 55)],
        };
        let d = t1.delta(&t0);
        assert_eq!(d.shards[0].completed_tail, 15);
        assert_eq!(d.shards[0].durable_watermark, 15);
        assert_eq!(d.shards[0].stats.clflush, 30);
        assert_eq!(d.shards[1].completed_tail, 1);
        assert_eq!(d.total_completed(), 16);
        assert_eq!(d.total_read_slow_paths(), 5);
        assert_eq!(d.total_read_fast_optimistic(), 50);
        assert_eq!(d.total_read_validation_failures(), 3);
        assert_eq!(d.total_stats().clflush, 35);
    }

    #[test]
    fn shared_counters_are_not_summed() {
        let m = StoreMetrics {
            epoch: 2,
            loss_bound: 0,
            shared_counters: true,
            shards: vec![shard(0, 1, 1, 0, 40), shard(1, 1, 1, 0, 40)],
        };
        // Both shards observed the same global counter; reporting 80 would
        // double-count.
        assert_eq!(m.total_stats().clflush, 40);
    }

    #[test]
    #[should_panic(expected = "different stores")]
    fn delta_rejects_mismatched_shard_counts() {
        let a = StoreMetrics {
            epoch: 0,
            loss_bound: 0,
            shared_counters: true,
            shards: vec![shard(0, 1, 1, 0, 0)],
        };
        let b = StoreMetrics {
            epoch: 0,
            loss_bound: 0,
            shared_counters: true,
            shards: Vec::new(),
        };
        let _ = a.delta(&b);
    }
}
