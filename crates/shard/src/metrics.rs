//! One snapshot type for everything a sharded store can report.
//!
//! [`StoreMetrics`] is a point-in-time snapshot of every shard's progress
//! counters (tail, watermark, read paths), the store-wide persistence
//! counters and the store-level constants, with [`StoreMetrics::delta`]
//! for interval accounting. All shards share one [`prep_pmem::PmemRuntime`]
//! (one crash cut), so the persistence counters exist once per store, not
//! once per shard. The serve layer's ADMIN verb serializes exactly this
//! struct onto the wire, and `prep-bench` builds its per-shard update
//! counts from it.

use prep_pmem::PmemStatsSnapshot;

/// A point-in-time view of one shard's progress.
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
    /// Read-only ops that found their replica caught up and read it under
    /// their own reader slot.
    pub read_fast_paths: u64,
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
            read_fast_paths: self.read_fast_paths.saturating_sub(earlier.read_fast_paths),
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
    /// Persistence-operation counters of the store's one runtime.
    pub stats: PmemStatsSnapshot,
    /// Per-shard progress, indexed by shard.
    pub shards: Vec<ShardMetrics>,
}

impl StoreMetrics {
    /// Counter-wise difference `self − earlier`: the store-wide counters
    /// and every shard's progress.
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
            stats: self.stats.delta(&earlier.stats),
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

    /// Total caught-up (reader-slot) reads across shards. Named for the
    /// lock-free read path it used to count; kept under this name because
    /// `benchmark/src/report.rs` (frozen) calls it.
    pub fn total_read_fast_optimistic(&self) -> u64 {
        self.shards.iter().map(|s| s.read_fast_paths).sum()
    }

    /// Always 0: no read path validates any more. Kept because
    /// `benchmark/src/report.rs` (frozen) calls it.
    pub fn total_read_validation_failures(&self) -> u64 {
        0
    }

    /// Store-wide persistence counters ([`StoreMetrics::stats`]). Kept
    /// beside the field because `benchmark/` (frozen) calls it.
    pub fn total_stats(&self) -> PmemStatsSnapshot {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(i: usize, ct: u64, wm: u64, slow: u64) -> ShardMetrics {
        ShardMetrics {
            shard: i,
            completed_tail: ct,
            durable_watermark: wm,
            read_slow_paths: slow,
            read_fast_paths: slow * 10,
        }
    }

    fn store(clflush: u64, shards: Vec<ShardMetrics>) -> StoreMetrics {
        StoreMetrics {
            epoch: 0,
            loss_bound: 16,
            stats: PmemStatsSnapshot {
                clflush,
                ..Default::default()
            },
            shards,
        }
    }

    #[test]
    fn delta_subtracts_per_shard_counters() {
        let t0 = store(150, vec![shard(0, 10, 5, 1), shard(1, 20, 20, 0)]);
        let t1 = store(185, vec![shard(0, 25, 20, 4), shard(1, 21, 21, 2)]);
        let d = t1.delta(&t0);
        assert_eq!(d.shards[0].completed_tail, 15);
        assert_eq!(d.shards[0].durable_watermark, 15);
        assert_eq!(d.shards[1].completed_tail, 1);
        assert_eq!(d.total_completed(), 16);
        assert_eq!(d.total_read_slow_paths(), 5);
        assert_eq!(d.total_read_fast_optimistic(), 50);
        assert_eq!(d.total_read_validation_failures(), 0);
        // The store-wide counters are subtracted once, not per shard.
        assert_eq!(d.stats.clflush, 35);
        assert_eq!(d.total_stats(), d.stats);
    }

    #[test]
    #[should_panic(expected = "different stores")]
    fn delta_rejects_mismatched_shard_counts() {
        let a = store(0, vec![shard(0, 1, 1, 0)]);
        let b = store(0, Vec::new());
        let _ = a.delta(&b);
    }
}
