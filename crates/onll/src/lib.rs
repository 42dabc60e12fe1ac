//! An ONLL-style persistent universal construction.
//!
//! ONLL — *Order Now, Linearize Later* (Cohen, Guerraoui & Zablotchi,
//! SPAA 2018) — is the other PUC the PREP-UC paper discusses (§2.3). Its
//! essential design points, reproduced here:
//!
//! * a **volatile** shared structure fixes the linearization order of
//!   update operations ("the global queue represents the state of the
//!   underlying object in the form of the linearization order of all
//!   update operations that have ever been applied");
//! * each thread owns a **persistent log**; before an update completes, the
//!   thread appends `(linearization index, operation)` to its own log and
//!   persists it — one line flush + one fence per update, with no
//!   cross-thread persistence contention (durable linearizability);
//! * **read-only operations perform no flush or fence** — ONLL's signature
//!   property;
//! * recovery **merges the per-thread logs by linearization index and
//!   replays the entire history** onto a fresh object.
//!
//! That last point is exactly what PREP-UC's introduction pushes against:
//! without a checkpoint, the log grows without bound and recovery time is
//! proportional to the object's *lifetime*, not its size (§4.1: "unless we
//! allow for an infinite log — and, correspondingly, accept that we will
//! need to invoke unboundedly many operations to recover after a crash — it
//! is not sufficient to persist only the log"). The integration benches
//! measure that trade-off directly: ONLL's per-op persistence is cheaper
//! than PREP-Durable's, and its recovery is asymptotically worse.
//!
//! Scope note (as with `prep-cx`, documented in DESIGN.md): the original is
//! lock-free; this reimplementation serializes application through a lock
//! while preserving ONLL's persistence schedule (what is flushed, when, by
//! whom), which is what the comparison measures.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "a related-work baseline, off the replicated path the std lock ban covers"
)]

use std::sync::{Arc, Mutex};

use prep_pmem::{CrashToken, LogImage, PmemRuntime};
use prep_seqds::SequentialObject;

/// An ONLL-style durable linearizable universal construction.
pub struct OnllUc<T: SequentialObject> {
    rt: Arc<PmemRuntime>,
    /// The volatile object plus the linearization counter, updated together.
    inner: Mutex<Inner<T>>,
    /// Per-thread persistent logs (crash-store images). Indexed by the
    /// thread id passed to [`OnllUc::execute`].
    plogs: Box<[LogImage<T::Op>]>,
}

struct Inner<T> {
    ds: T,
    /// Number of updates linearized so far (the next linearization index).
    order: u64,
}

impl<T: SequentialObject> OnllUc<T> {
    /// Builds the construction for up to `threads` worker threads over
    /// `obj`.
    ///
    /// Note: unlike PREP, the initial object state is **not** checkpointed —
    /// ONLL's recovery replays history onto the *initial* object, so `obj`
    /// must be the empty/initial state (its constructor is re-run by
    /// [`OnllUc::recover_object`] conceptually; here the caller passes it
    /// again).
    pub fn new(obj: T, threads: usize, rt: Arc<PmemRuntime>) -> Self {
        assert!(threads > 0, "need at least one thread");
        OnllUc {
            rt,
            inner: Mutex::new(Inner { ds: obj, order: 0 }),
            plogs: (0..threads).map(|_| LogImage::new()).collect(),
        }
    }

    /// Maximum registered threads.
    pub fn threads(&self) -> usize {
        self.plogs.len()
    }

    /// Executes `op` on behalf of `thread` with durable linearizable
    /// semantics.
    ///
    /// # Panics
    /// Panics if `thread >= self.threads()`.
    pub fn execute(&self, thread: usize, op: T::Op) -> T::Resp {
        if T::is_read_only(&op) {
            // ONLL's signature: reads take no persistence actions at all.
            let inner = self.inner.lock().expect("onll poisoned");
            return inner.ds.apply_readonly(&op);
        }
        // "Order now": linearize and apply.
        let (resp, index) = {
            let mut inner = self.inner.lock().expect("onll poisoned");
            let index = inner.order;
            inner.order += 1;
            (inner.ds.apply(&op), index)
        };
        // "Linearize later" (persist before completing): append
        // (index, op) to this thread's own persistent log — one line
        // flush + one fence, uncontended.
        self.plogs[thread].persist_entry(&self.rt, index, op);
        self.rt.clflushopt();
        self.rt.sfence();
        resp
    }

    /// Number of updates linearized so far (diagnostic; also the length of
    /// the history recovery would replay).
    pub fn history_len(&self) -> u64 {
        self.inner.lock().expect("onll poisoned").order
    }

    /// Observes the volatile object (test/diagnostic API).
    pub fn with_object<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let inner = self.inner.lock().expect("onll poisoned");
        f(&inner.ds)
    }

    /// Simulates a power failure: captures the per-thread persistent logs
    /// under a consistent cut.
    ///
    /// # Panics
    /// Panics unless the runtime has crash simulation enabled.
    pub fn simulate_crash(&self) -> (CrashToken, OnllCrashImage<T>) {
        self.rt.capture_cut(|| OnllCrashImage {
            logs: self
                .plogs
                .iter()
                .map(|l| l.persisted_range(0, u64::MAX))
                .collect(),
        })
    }

    /// ONLL's recovery: merge every thread's persisted `(index, op)` pairs
    /// by index and replay **the whole history** onto the initial object.
    ///
    /// Holes end the replay: an operation whose predecessor never persisted
    /// cannot be applied (the recovered state must be a *prefix* of the
    /// linearization order). Durable linearizability still holds because an
    /// update only completes after its own entry — and, by induction on the
    /// lock order, every predecessor's entry — is persistent. Returns the
    /// recovered object and the number of operations replayed.
    pub fn recover(_crash: CrashToken, image: &OnllCrashImage<T>, mut initial: T) -> (T, u64) {
        let mut merged: std::collections::BTreeMap<u64, &T::Op> = std::collections::BTreeMap::new();
        for log in &image.logs {
            for (idx, op) in log {
                merged.insert(*idx, op);
            }
        }
        let mut next = 0u64;
        for (idx, op) in merged {
            if idx != next {
                break; // hole: an in-flight op's entry never persisted
            }
            initial.apply(op);
            next += 1;
        }
        (initial, next)
    }
}

/// What ONLL's NVM holds at a crash: every thread's persisted log.
pub struct OnllCrashImage<T: SequentialObject> {
    /// Per-thread `(linearization index, operation)` pairs, ascending.
    pub logs: Vec<Vec<(u64, T::Op)>>,
}

impl<T: SequentialObject> OnllCrashImage<T> {
    /// Total persisted entries across all threads (= recovery replay work).
    pub fn total_entries(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
    use prep_seqds::recorder::{Recorder, RecorderOp};

    fn rt() -> Arc<PmemRuntime> {
        PmemRuntime::for_crash_tests()
    }

    #[test]
    fn updates_and_reads_roundtrip() {
        let uc = OnllUc::new(HashMap::new(), 2, rt());
        assert_eq!(
            uc.execute(0, MapOp::Insert { key: 1, value: 10 }),
            MapResp::Value(None)
        );
        assert_eq!(
            uc.execute(1, MapOp::Get { key: 1 }),
            MapResp::Value(Some(10))
        );
        assert_eq!(uc.history_len(), 1);
    }

    #[test]
    fn reads_never_flush_updates_flush_once() {
        let r = rt();
        let uc = OnllUc::new(HashMap::new(), 1, Arc::clone(&r));
        uc.execute(0, MapOp::Insert { key: 1, value: 1 });
        let s = r.stats().snapshot();
        assert_eq!(s.clflushopt, 1, "one line flush per update");
        assert_eq!(s.sfence, 1, "one fence per update");
        for _ in 0..100 {
            uc.execute(0, MapOp::Get { key: 1 });
        }
        let s2 = r.stats().snapshot();
        assert_eq!(s2.total_flushes(), s.total_flushes(), "reads flushed");
        assert_eq!(s2.sfence, s.sfence, "reads fenced");
    }

    #[test]
    fn recovery_replays_the_full_merged_history() {
        let uc = OnllUc::new(Recorder::new(), 3, rt());
        // Interleave updates from three threads.
        for i in 0..90u64 {
            uc.execute((i % 3) as usize, RecorderOp::Record(i));
        }
        let (token, image) = uc.simulate_crash();
        assert_eq!(image.total_entries(), 90);
        let (recovered, replayed) = OnllUc::recover(token, &image, Recorder::new());
        assert_eq!(replayed, 90);
        // The recovered history equals the linearization order, which (by
        // the lock) is exactly issue order here.
        let expect: Vec<u64> = (0..90).collect();
        assert_eq!(recovered.history(), &expect[..]);
    }

    #[test]
    fn concurrent_updates_recover_completely() {
        let uc = Arc::new(OnllUc::new(Recorder::new(), 4, rt()));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let uc = Arc::clone(&uc);
                s.spawn(move || {
                    for i in 0..200u64 {
                        uc.execute(t, RecorderOp::Record((t as u64) << 32 | i));
                    }
                });
            }
        });
        let (token, image) = uc.simulate_crash();
        let (recovered, replayed) = OnllUc::recover(token, &image, Recorder::new());
        // All 800 updates completed before the crash → all recovered
        // (durable linearizability), in linearization order with
        // per-thread FIFO.
        assert_eq!(replayed, 800);
        let mut next = [0u64; 4];
        for id in recovered.history() {
            let t = (id >> 32) as usize;
            assert_eq!(id & 0xffff_ffff, next[t]);
            next[t] += 1;
        }
    }

    #[test]
    fn recovery_work_grows_with_lifetime_not_size() {
        // The motivation for PREP's bounded log: a map with a *constant*
        // live size accumulates unbounded replay work under ONLL.
        let uc = OnllUc::new(HashMap::new(), 1, rt());
        for round in 0..50u64 {
            uc.execute(
                0,
                MapOp::Insert {
                    key: 7,
                    value: round,
                },
            );
            uc.execute(0, MapOp::Remove { key: 7 });
        }
        let (_token, image) = uc.simulate_crash();
        assert_eq!(
            image.total_entries(),
            100,
            "replay work = lifetime ops, though the map holds ≤1 entry"
        );
    }
}
