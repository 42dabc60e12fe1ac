//! A SOFT-style hand-crafted persistent hashtable.
//!
//! The PREP-UC paper frames its performance against the hashtable of Zuriel
//! et al. (OOPSLA 2019), built from **S**ets with an **O**ptimal
//! **F**lushing **T**echnique (§6 "PREP-UC versus Hand-Crafted Hashtable").
//! SOFT's essential properties, which this reimplementation preserves:
//!
//! * a **fixed** number of buckets, each a persistent linked list (the
//!   table is *not* resizable — hence the SOFT-1kB / SOFT-10kB variants in
//!   Figure 6);
//! * every key is held twice: a volatile copy used by all traversals and a
//!   persistent node (key, value, validity metadata) that is the *only*
//!   thing flushed;
//! * an **update persists exactly the modified words**: one cache line flush
//!   plus one fence per insert/remove — this is precisely what a black-box
//!   PUC cannot do, and why SOFT wins Figure 6;
//! * **read-only operations perform no flushes or fences at all**.
//!
//! Deviation (documented in DESIGN.md): the original is lock-free; here each
//! bucket is protected by a reader-writer spin lock. Figure 6's comparison
//! is about flush counts and NVM traffic, which are reproduced exactly;
//! lock-freedom affects progress guarantees, not the flush economics.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "a related-work baseline, off the replicated path the std lock ban covers"
)]

use std::collections::HashMap as StdHashMap;
use std::sync::{Arc, Mutex};

use prep_pmem::PmemRuntime;
use prep_sync::RwSpinLock;

/// One bucket: a chain of (key, value) pairs under a reader-writer lock.
type Bucket = RwSpinLock<Vec<(u64, u64)>>;

/// A persistent, fixed-bucket concurrent hash set with values (a map with
/// SOFT set semantics: `insert` fails on a present key).
pub struct SoftHashMap {
    buckets: Box<[Bucket]>,
    rt: Arc<PmemRuntime>,
    /// The NVM image: what a crash would preserve (maintained only when the
    /// runtime has crash simulation enabled).
    image: Mutex<StdHashMap<u64, u64>>,
}

impl SoftHashMap {
    /// Creates a table with `buckets` fixed buckets (SOFT-1kB → 1000,
    /// SOFT-10kB → 10000).
    ///
    /// # Panics
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize, rt: Arc<PmemRuntime>) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        SoftHashMap {
            buckets: (0..buckets).map(|_| RwSpinLock::new(Vec::new())).collect(),
            rt,
            image: Mutex::new(StdHashMap::new()),
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.buckets.len() as u64) as usize
    }

    /// Persist exactly the modified persistent node: one line, one fence —
    /// SOFT's "optimal flushing".
    fn persist_update(&self, key: u64, value: Option<u64>) {
        self.rt.clflushopt();
        self.rt.sfence();
        if self.rt.crash_sim_enabled() {
            let mut img = self.image.lock().expect("image poisoned");
            match value {
                Some(v) => {
                    img.insert(key, v);
                }
                None => {
                    img.remove(&key);
                }
            }
        }
    }

    /// Inserts `key → value`; returns false (no flush!) if already present.
    pub fn insert(&self, key: u64, value: u64) -> bool {
        let b = self.bucket_of(key);
        let mut chain = self.buckets[b].write();
        if chain.iter().any(|&(k, _)| k == key) {
            return false;
        }
        chain.push((key, value));
        // The persistent node (key, value, validity) is written and flushed
        // while the bucket is still locked, so the NVM image never reflects
        // an order that contradicts the linearization order.
        self.persist_update(key, Some(value));
        true
    }

    /// Removes `key`; returns false (no flush) if absent.
    pub fn remove(&self, key: u64) -> bool {
        let b = self.bucket_of(key);
        let mut chain = self.buckets[b].write();
        let Some(pos) = chain.iter().position(|&(k, _)| k == key) else {
            return false;
        };
        chain.swap_remove(pos);
        self.persist_update(key, None);
        true
    }

    /// Membership test: traverses the volatile copy only; **no flush, no
    /// fence**.
    pub fn contains(&self, key: u64) -> bool {
        let b = self.bucket_of(key);
        self.buckets[b].read().iter().any(|&(k, _)| k == key)
    }

    /// Looks up `key` (flush-free, like `contains`).
    pub fn get(&self, key: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        self.buckets[b]
            .read()
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Entry count (O(buckets); diagnostic).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.read().len()).sum()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What recovery would rebuild from the persistent nodes: the exact
    /// set of (key, value) pairs whose persist completed before the crash.
    /// Requires a crash-sim runtime.
    pub fn recover_contents(&self) -> StdHashMap<u64, u64> {
        assert!(
            self.rt.crash_sim_enabled(),
            "recovery image is only maintained under crash simulation"
        );
        self.image.lock().expect("image poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_pmem::LatencyModel;

    fn rt_sim() -> Arc<PmemRuntime> {
        PmemRuntime::for_crash_tests()
    }

    #[test]
    fn set_semantics_insert_remove_contains() {
        let m = SoftHashMap::new(8, rt_sim());
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11), "duplicate insert must fail");
        assert!(m.contains(1));
        assert_eq!(m.get(1), Some(10));
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert!(!m.contains(1));
        assert!(m.is_empty());
    }

    #[test]
    fn updates_flush_exactly_one_line_and_one_fence() {
        let rt = rt_sim();
        let m = SoftHashMap::new(8, Arc::clone(&rt));
        m.insert(5, 50);
        let s = rt.stats().snapshot();
        assert_eq!(s.clflushopt, 1);
        assert_eq!(s.sfence, 1);
        m.remove(5);
        let s = rt.stats().snapshot();
        assert_eq!(s.clflushopt, 2);
        assert_eq!(s.sfence, 2);
    }

    #[test]
    fn failed_updates_and_reads_never_flush() {
        let rt = rt_sim();
        let m = SoftHashMap::new(8, Arc::clone(&rt));
        m.insert(5, 50);
        let base = rt.stats().snapshot();
        assert!(!m.insert(5, 51));
        assert!(!m.remove(99));
        assert!(m.contains(5));
        assert_eq!(m.get(5), Some(50));
        let s = rt.stats().snapshot();
        assert_eq!(s.total_flushes(), base.total_flushes());
        assert_eq!(s.sfence, base.sfence);
    }

    #[test]
    fn recovery_image_tracks_completed_updates() {
        let m = SoftHashMap::new(16, rt_sim());
        for k in 0..50u64 {
            m.insert(k, k * 2);
        }
        for k in 0..25u64 {
            m.remove(k);
        }
        let rec = m.recover_contents();
        assert_eq!(rec.len(), 25);
        for k in 25..50u64 {
            assert_eq!(rec.get(&k), Some(&(k * 2)));
        }
    }

    #[test]
    fn concurrent_inserts_are_exact_once() {
        const THREADS: u64 = 4;
        let m = Arc::new(SoftHashMap::new(64, rt_sim()));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut wins = 0usize;
                    for k in 0..500u64 {
                        if m.insert(k, k) {
                            wins += 1;
                        }
                    }
                    wins
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 500, "each key inserted by exactly one thread");
        assert_eq!(m.len(), 500);
        assert_eq!(m.recover_contents().len(), 500);
    }

    #[test]
    fn bench_runtime_skips_image_maintenance() {
        let rt = PmemRuntime::for_benchmarks(LatencyModel::off());
        let m = SoftHashMap::new(8, rt);
        m.insert(1, 1);
        // recover_contents panics without crash sim:
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.recover_contents()));
        assert!(r.is_err());
    }
}
