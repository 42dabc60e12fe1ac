//! The key → shard router.
//!
//! Routing must be (a) deterministic — the same operation must reach the
//! same shard before and after a crash, or recovery would splice histories
//! from different logs — and (b) well-mixed, so adjacent keys (the common
//! pattern in ingest workloads) spread across shards instead of hammering
//! one log.

use std::sync::Arc;

/// SplitMix64: a full-avalanche mix, so dense keys spread over shards.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The shard a key belongs to, out of `shards`.
///
/// # Panics
/// Panics if `shards` is zero.
#[inline]
pub fn shard_index(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard_index with zero shards");
    (mix64(key) % shards as u64) as usize
}

/// A reusable router: a key-extraction function plus the shard count.
///
/// The key function is the *only* application-specific part of sharding:
/// it names the partition an operation touches (a map op's key, a queue
/// id, a tenant id). Operations that touch no single partition (aggregates
/// like `Len`, scans) are the caller's to broadcast via
/// [`crate::ShardedStore::execute_all`].
pub struct ShardRouter<O> {
    key_fn: Arc<dyn Fn(&O) -> u64 + Send + Sync>,
    shards: usize,
}

impl<O> Clone for ShardRouter<O> {
    fn clone(&self) -> Self {
        ShardRouter {
            key_fn: Arc::clone(&self.key_fn),
            shards: self.shards,
        }
    }
}

impl<O> std::fmt::Debug for ShardRouter<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards)
            .finish()
    }
}

impl<O> ShardRouter<O> {
    /// Builds a router over `shards` partitions.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, key_fn: impl Fn(&O) -> u64 + Send + Sync + 'static) -> Self {
        assert!(shards > 0, "a sharded store needs at least one shard");
        ShardRouter {
            key_fn: Arc::new(key_fn),
            shards,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The routing key of `op`.
    pub fn key_of(&self, op: &O) -> u64 {
        (self.key_fn)(op)
    }

    /// The shard `op` routes to.
    pub fn shard_of(&self, op: &O) -> usize {
        shard_index(self.key_of(op), self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let r: ShardRouter<u64> = ShardRouter::new(4, |&k| k);
        for k in 0..1_000u64 {
            let shard = r.shard_of(&k);
            assert!(shard < 4);
            assert_eq!(shard, r.shard_of(&k), "same key, same shard");
            assert_eq!(shard, shard_index(k, 4));
        }
    }

    #[test]
    fn sequential_keys_spread_across_shards() {
        // Ingest workloads use dense keys; the mix must spread them. With
        // 4 shards and 4096 consecutive keys, every shard should get
        // within 25% of its fair share.
        let r: ShardRouter<u64> = ShardRouter::new(4, |&k| k);
        let mut counts = [0usize; 4];
        for k in 0..4096u64 {
            counts[r.shard_of(&k)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (768..=1280).contains(&c),
                "shard {s} got {c} of 4096 keys (want ~1024)"
            );
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r: ShardRouter<u64> = ShardRouter::new(1, |&k| k);
        for k in [0u64, 1, u64::MAX] {
            assert_eq!(r.shard_of(&k), 0);
        }
    }

    #[test]
    fn mix64_is_bijective_on_a_sample() {
        use std::collections::HashSet;
        let outputs: HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outputs.len(), 10_000, "mix64 collided on distinct inputs");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::<u64>::new(0, |&k| k);
    }
}
