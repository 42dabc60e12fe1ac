//! Crash-store images: what recovery can read after a simulated power
//! failure.
//!
//! PREP-UC persists three things (§4.1). Two of them get an image here,
//! kept beside the volatile state they mirror:
//!
//! * [`PersistentCell`] — a single NVM variable such as `p_activePReplica`
//!   or (durable mode) `d_completedTail`;
//! * [`LogImage`] — the persisted subset of the shared operation log
//!   (durable mode only).
//!
//! The third, a persistent replica, needs no image beside it: the object
//! lives in NVM, so [`PersistentReplica`] is its own image. It carries the
//! paper's background-flush hazard: from the first mutation after a
//! checkpoint until the next, the replica is **torn**, and recovery code
//! that reads a torn replica gets an error. This is what makes the paper's
//! two-replica design testable: the *stable* replica is never mutated, so
//! it is never torn, and what it holds is its last checkpoint.
//!
//! All image mutators, and the replica's torn flag, take the runtime's
//! persist-effect guard, so a crash captured with
//! [`crate::PmemRuntime::capture_cut`] observes a consistent cut. When
//! crash simulation is off every such update is a no-op (cost is charged
//! by the caller through the runtime's flush/fence methods regardless).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::runtime::PmemRuntime;

/// A single persistent variable's NVM image.
#[derive(Debug)]
pub struct PersistentCell<T: Clone> {
    image: Mutex<T>,
}

impl<T: Clone> PersistentCell<T> {
    /// Creates the cell with `initial` already persistent (the paper starts
    /// from a freshly created, initialized persistent memory file).
    pub fn new(initial: T) -> Self {
        PersistentCell {
            image: Mutex::new(initial),
        }
    }

    /// Records `value` as persistent. The caller is responsible for charging
    /// the corresponding flush cost (e.g. [`PmemRuntime::clflush`]).
    pub fn record(&self, rt: &PmemRuntime, value: T) {
        let Some(_guard) = rt.persist_effect() else {
            return;
        };
        rt.stats().count_bytes(std::mem::size_of::<T>() as u64);
        *self.image.lock().expect("cell poisoned") = value;
    }

    /// Convenience: `CLFLUSH` + record, the paper's pattern for
    /// `completedTail` and `p_activePReplica`.
    pub fn persist_clflush(&self, rt: &PmemRuntime, value: T) {
        rt.clflush();
        self.record(rt, value);
    }

    /// Reads the persisted image (what recovery would see).
    pub fn read_image(&self) -> T {
        self.image.lock().expect("cell poisoned").clone()
    }
}

impl PersistentCell<u64> {
    /// Records `value` only if it exceeds the current image — the right
    /// primitive for monotone indexes like `completedTail`, where concurrent
    /// flushers must never let an older value overwrite a newer one (§5.2's
    /// flush-reduction protocol has several threads flushing different
    /// observed values).
    pub fn record_max(&self, rt: &PmemRuntime, value: u64) {
        let Some(_guard) = rt.persist_effect() else {
            return;
        };
        rt.stats().count_bytes(std::mem::size_of::<u64>() as u64);
        let mut img = self.image.lock().expect("cell poisoned");
        if value > *img {
            *img = value;
        }
    }
}

/// The persisted subset of the shared operation log (PREP-Durable only).
///
/// Keyed by the *monotonic* log index, not the physical slot, so wrapped
/// entries never collide; [`LogImage::retain_from`] discards indexes below
/// the recovery horizon when slots are reused.
#[derive(Debug)]
pub struct LogImage<O: Clone> {
    entries: Mutex<BTreeMap<u64, O>>,
}

impl<O: Clone> Default for LogImage<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: Clone> LogImage<O> {
    /// Creates an empty (all-entries-empty) log image.
    pub fn new() -> Self {
        LogImage {
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records log entry `index` (monotonic) as persistent with operation
    /// `op`. Caller charges flush costs.
    pub fn persist_entry(&self, rt: &PmemRuntime, index: u64, op: O) {
        let Some(_guard) = rt.persist_effect() else {
            return;
        };
        rt.stats().count_bytes(std::mem::size_of::<O>() as u64);
        self.entries
            .lock()
            .expect("log image poisoned")
            .insert(index, op);
    }

    /// Drops persisted entries below `min_index` (their slots are being
    /// reused; recovery will never need them because both persistent
    /// replicas are already past them).
    pub fn retain_from(&self, rt: &PmemRuntime, min_index: u64) {
        let Some(_guard) = rt.persist_effect() else {
            return;
        };
        let mut map = self.entries.lock().expect("log image poisoned");
        *map = map.split_off(&min_index);
    }

    /// Clears the image (recovery resets the log to empty, §5.1).
    pub fn clear(&self, rt: &PmemRuntime) {
        let Some(_guard) = rt.persist_effect() else {
            return;
        };
        self.entries.lock().expect("log image poisoned").clear();
    }

    /// Copies the persisted entries in `[from, to)`, in index order, with
    /// holes (never-persisted entries) skipped — exactly what the paper's
    /// recovery does when it "applies all operations in the log
    /// corresponding to non-empty log entries" (§5.2).
    pub fn persisted_range(&self, from: u64, to: u64) -> Vec<(u64, O)> {
        let map = self.entries.lock().expect("log image poisoned");
        map.range(from..to).map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Number of persisted entries currently in the image.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("log image poisoned").len()
    }

    /// True if no entry is persisted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Error: the replica image was torn at the crash (a mutation happened
/// after the last consistent snapshot, so background cache evictions may
/// have written inconsistent state to NVM). PREP-UC's recovery never reads
/// a torn image; a design with a single persistent replica would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornImage;

impl std::fmt::Display for TornImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica NVM image is torn (mutated since last snapshot)")
    }
}

impl std::error::Error for TornImage {}

/// A persistent replica's recovered state: the sequential object plus the
/// log position it reflects.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot<T: Clone> {
    /// Deep copy of the sequential object at snapshot time.
    pub state: T,
    /// The replica's `localTail` at snapshot time: the first log index NOT
    /// reflected in `state`.
    pub local_tail: u64,
}

#[derive(Debug)]
struct Live<T> {
    object: T,
    local_tail: u64,
}

/// A persistence-only replica (the paper's `PReplica`): the sequential
/// object, its `localTail`, and whether its NVM image is torn. The object
/// lives in NVM, so it is its own crash image: a cut reads the replica
/// itself.
///
/// The object and its `localTail` sit behind one lock, taken by the thread
/// running the persistence cycle to apply ops and write the replica back,
/// and by a crash cut to copy the stable replica. The torn flag is written
/// only under that lock and inside a persist effect, so a cut, which
/// excludes persist effects, reads it without the lock: the cut never
/// waits for the active replica, whose holder may itself be waiting to
/// enter a persist effect.
#[derive(Debug)]
pub struct PersistentReplica<T: Clone> {
    live: Mutex<Live<T>>,
    // shared-line: written only by the lock's holder, and only with crash
    // simulation on; the one other reader is a crash cut.
    torn: AtomicBool,
}

impl<T: Clone> PersistentReplica<T> {
    /// Creates the replica over `object`, persisted and consistent at
    /// localTail 0: a freshly initialized persistent memory file.
    pub fn new(object: T) -> Self {
        PersistentReplica {
            live: Mutex::new(Live {
                object,
                local_tail: 0,
            }),
            torn: AtomicBool::new(false),
        }
    }

    /// Locks the replica for the persistence cycle.
    pub fn lock(&self) -> ReplicaGuard<'_, T> {
        ReplicaGuard {
            live: self.live.lock().expect("persistent replica poisoned"),
            torn: &self.torn,
        }
    }

    /// Reads the replica as recovery would: a copy of the object and its
    /// localTail. [`TornImage`] means recovering it would hand back
    /// possibly-inconsistent state. PREP-UC never does this (it recovers
    /// the *stable* replica, and a crash cut reads only that one).
    pub fn read_image(&self) -> Result<ReplicaSnapshot<T>, TornImage> {
        let live = self.live.lock().expect("persistent replica poisoned");
        if self.is_torn() {
            Err(TornImage)
        } else {
            Ok(ReplicaSnapshot {
                state: live.object.clone(),
                local_tail: live.local_tail,
            })
        }
    }

    /// True if the replica's image is currently torn. A crash cut records
    /// this, not the contents, for the active replica: the
    /// one-persistent-replica ablation test shows that a design without
    /// the stable replica would have recovered a torn image.
    pub fn is_torn(&self) -> bool {
        // ord: Relaxed — written only inside a persist effect, and a cut
        // reads it under the cut lock, which orders it after every effect.
        self.torn.load(Ordering::Relaxed)
    }
}

/// A locked [`PersistentReplica`].
#[derive(Debug)]
pub struct ReplicaGuard<'a, T: Clone> {
    live: MutexGuard<'a, Live<T>>,
    torn: &'a AtomicBool,
}

impl<T: Clone> ReplicaGuard<'_, T> {
    /// The replica's `localTail`: the first log index not applied to it.
    pub fn local_tail(&self) -> u64 {
        self.live.local_tail
    }

    /// The object, for reads that size or locate its write-back.
    pub fn object(&self) -> &T {
        &self.live.object
    }

    /// The object, for bookkeeping that leaves its logical state alone
    /// (resetting its dirty-line tracker). Ops go through
    /// [`ReplicaGuard::advance`].
    pub fn object_mut(&mut self) -> &mut T {
        &mut self.live.object
    }

    /// Applies ops to the replica with `mutate`, which brings it to
    /// `local_tail`. The image is marked torn first: from the first
    /// mutation after a checkpoint until the next, background cache
    /// evictions may write an inconsistent mixture of the replica back to
    /// NVM (§4.1).
    pub fn advance(&mut self, rt: &PmemRuntime, local_tail: u64, mutate: impl FnOnce(&mut T)) {
        if let Some(_guard) = rt.persist_effect() {
            // ord: Relaxed — see `PersistentReplica::is_torn`.
            self.torn.store(true, Ordering::Relaxed);
        }
        mutate(&mut self.live.object);
        self.live.local_tail = local_tail;
    }

    /// The effect of a checkpoint's write-back + SFENCE over this replica:
    /// the image becomes consistent at its `localTail`. `flushed_bytes` is
    /// the modelled write-back volume (the whole structure under WBINVD,
    /// the dirty set under dirty-line flushing); the caller charges the
    /// corresponding flush cost.
    pub fn checkpointed(&self, rt: &PmemRuntime, flushed_bytes: u64) {
        let Some(_guard) = rt.persist_effect() else {
            return;
        };
        rt.stats().count_bytes(flushed_bytes);
        rt.stats().count_snapshot();
        // ord: Relaxed — see `PersistentReplica::is_torn`.
        self.torn.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmemRuntime;

    #[test]
    fn cell_records_only_with_crash_sim() {
        let sim = PmemRuntime::for_crash_tests();
        let bench = PmemRuntime::for_benchmarks(crate::LatencyModel::off());
        let cell = PersistentCell::new(0u64);
        cell.persist_clflush(&bench, 7);
        assert_eq!(
            cell.read_image(),
            0,
            "bench runtime must not touch the image"
        );
        cell.persist_clflush(&sim, 7);
        assert_eq!(cell.read_image(), 7);
        assert_eq!(sim.stats().snapshot().clflush, 1);
    }

    #[test]
    fn log_image_range_skips_holes_and_respects_bounds() {
        let rt = PmemRuntime::for_crash_tests();
        let img = LogImage::new();
        img.persist_entry(&rt, 3, "c");
        img.persist_entry(&rt, 1, "a");
        img.persist_entry(&rt, 6, "f");
        let got = img.persisted_range(1, 6);
        assert_eq!(got, vec![(1, "a"), (3, "c")]);
        assert_eq!(img.len(), 3);
    }

    #[test]
    fn log_image_retain_and_clear() {
        let rt = PmemRuntime::for_crash_tests();
        let img = LogImage::new();
        for i in 0..10u64 {
            img.persist_entry(&rt, i, i);
        }
        img.retain_from(&rt, 7);
        assert_eq!(img.persisted_range(0, 100), vec![(7, 7), (8, 8), (9, 9)]);
        img.clear(&rt);
        assert!(img.is_empty());
    }

    #[test]
    fn replica_image_torn_lifecycle() {
        let rt = PmemRuntime::for_crash_tests();
        let rep = PersistentReplica::new(vec![0u32; 3]);
        // Fresh replica is consistent at localTail 0.
        let snap = rep.read_image().unwrap();
        assert_eq!((snap.state, snap.local_tail), (vec![0, 0, 0], 0));
        // Mutation in progress → torn → unreadable.
        rep.lock().advance(&rt, 3, |v| {
            v[1] = 7;
            v[2] = 9;
            v[1] = 8;
        });
        assert!(rep.is_torn());
        assert!(rep.read_image().is_err());
        // The checkpoint makes it consistent again, at the state the ops
        // reached and the tail they brought it to.
        rep.lock().checkpointed(&rt, 8);
        let snap = rep.read_image().unwrap();
        assert_eq!((snap.state, snap.local_tail), (vec![0, 8, 9], 3));
        assert!(!rep.is_torn());
        assert_eq!(rt.stats().snapshot_count(), 1);
        assert_eq!(rt.stats().snapshot().bytes_persisted, 8);
        // A checkpoint with no op since the last one: still readable.
        rep.lock().checkpointed(&rt, 0);
        assert_eq!(rep.read_image().unwrap().state, vec![0, 8, 9]);
        assert_eq!(rt.stats().snapshot_count(), 2);
    }

    #[test]
    fn torn_marking_is_skipped_without_crash_sim() {
        let rt = PmemRuntime::for_benchmarks(crate::LatencyModel::off());
        let rep = PersistentReplica::new(0u8);
        rep.lock().advance(&rt, 1, |v| *v = 1);
        assert!(!rep.is_torn());
        rep.lock().checkpointed(&rt, 8);
        assert_eq!(
            rt.stats().snapshot_count(),
            0,
            "bench runtime counts no snapshot"
        );
        // The ops still reach the object; only the crash-store effects are
        // skipped.
        let snap = rep.read_image().unwrap();
        assert_eq!((snap.state, snap.local_tail), (1, 1));
    }

    #[test]
    fn record_max_is_monotone_under_out_of_order_writers() {
        let rt = PmemRuntime::for_crash_tests();
        let cell = PersistentCell::new(0u64);
        cell.record_max(&rt, 10);
        cell.record_max(&rt, 7); // late flusher with a stale value
        assert_eq!(cell.read_image(), 10);
        cell.record_max(&rt, 12);
        assert_eq!(cell.read_image(), 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::PmemRuntime;
    use proptest::prelude::*;

    proptest! {
        /// LogImage behaves as a map keyed by monotonic index: a random
        /// interleaving of persists, retains and clears matches a BTreeMap
        /// model.
        #[test]
        fn log_image_matches_model(
            ops in proptest::collection::vec((0u8..4, 0u64..64), 1..120)
        ) {
            let rt = PmemRuntime::for_crash_tests();
            let img: LogImage<u64> = LogImage::new();
            let mut model = std::collections::BTreeMap::new();
            for (kind, x) in ops {
                match kind {
                    0 | 1 => {
                        img.persist_entry(&rt, x, x * 2);
                        model.insert(x, x * 2);
                    }
                    2 => {
                        img.retain_from(&rt, x);
                        model = model.split_off(&x);
                    }
                    _ => {
                        let got = img.persisted_range(0, x);
                        let expect: Vec<(u64, u64)> =
                            model.range(0..x).map(|(k, v)| (*k, *v)).collect();
                        prop_assert_eq!(got, expect);
                    }
                }
                prop_assert_eq!(img.len(), model.len());
            }
        }

        /// record_max over any write sequence ends at the running maximum.
        #[test]
        fn record_max_ends_at_maximum(values in proptest::collection::vec(any::<u64>(), 1..50)) {
            let rt = PmemRuntime::for_crash_tests();
            let cell = PersistentCell::new(0u64);
            for &v in &values {
                cell.record_max(&rt, v);
            }
            let expect = values.iter().copied().max().unwrap();
            prop_assert_eq!(cell.read_image(), expect);
        }
    }
}
