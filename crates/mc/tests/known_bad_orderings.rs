//! Seeded-mutation corpus: hand-written miniatures of the prep-sync
//! protocols, each in a correct form and a deliberately broken form that
//! reproduces a historical ordering bug class. The checker must pass
//! every clean variant and catch every mutant with a replayable
//! counterexample — this is the regression net that keeps prep-mc honest
//! (mirroring the known-bad-traces corpora shipped with sanitizers).
//!
//! These drive `prep_mc::cell` directly, so the file runs in both normal
//! and `--cfg prep_mc` builds.

#![allow(
    unsafe_code,
    reason = "the tests drive `PeekCell`'s unsafe accessors, racing ones included"
)]

use std::sync::atomic::Ordering::{self, AcqRel, Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;

use prep_mc::cell::{fence, AtomicU64, PeekCell};
use prep_mc::{thread, Builder, Failure, FailureKind};

/// Runs `f` under the checker and returns the counterexample, asserting
/// one exists and is replayable (replaying the recorded schedule
/// reproduces the same failure kind in exactly one execution).
fn expect_caught<F>(name: &'static str, f: F) -> Failure
where
    F: Fn() + Send + Sync + 'static,
{
    let report = Builder::new(name).run(&f);
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("mutant `{name}` escaped the checker"));
    assert!(
        !failure.trace.is_empty(),
        "mutant `{name}` caught without a counterexample trace"
    );
    let replay = Builder::new(name).replay(&failure.schedule).run(&f);
    assert_eq!(replay.schedules, 1, "replay of `{name}` must run once");
    let replayed = replay
        .failure
        .unwrap_or_else(|| panic!("replaying `{name}` did not reproduce the failure"));
    assert_eq!(replayed.kind, failure.kind, "replay diverged for `{name}`");
    failure
}

/// Runs `f` under the checker and asserts the exploration is exhaustive
/// and clean.
fn expect_clean<F>(name: &'static str, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let report = Builder::new(name).run(&f);
    if let Some(failure) = report.failure {
        panic!(
            "clean variant `{name}` failed: {:?}: {}\n{}",
            failure.kind, failure.message, failure.trace
        );
    }
    assert!(report.complete, "clean variant `{name}` ran out of budget");
}

// ---------------------------------------------------------------------------
// Miniature seqlock, parameterized over the two orderings the corpus
// mutates: the `read_begin` load and the `validate` re-load.
// ---------------------------------------------------------------------------

struct MiniSeq {
    version: AtomicU64,
    a: PeekCell<u64>,
    b: PeekCell<u64>,
}

impl MiniSeq {
    fn new() -> Self {
        MiniSeq {
            version: AtomicU64::new(0),
            a: PeekCell::new(0),
            b: PeekCell::new(0),
        }
    }

    fn write_pair(&self, v: u64) {
        let s = self.version.load(Relaxed);
        self.version.store(s + 1, Relaxed);
        fence(Release);
        // SAFETY: single writer in these scenarios; readers consent.
        unsafe {
            self.a.write(v);
            self.b.write(v);
        }
        self.version.store(s + 2, Release);
    }

    /// Reader with configurable orderings. The correct recipe is
    /// `begin_acquire = true` (Acquire snapshot load) and
    /// `validate_fence = true` (Acquire fence before the re-load).
    fn read_pair(&self, begin_acquire: bool, validate_fence: bool) -> Option<(u64, u64, u64)> {
        let ord = if begin_acquire { Acquire } else { Relaxed };
        let snap = self.version.load(ord);
        if !snap.is_multiple_of(2) {
            return None;
        }
        // SAFETY: consenting peeks; validation rejects racy snapshots.
        let x = unsafe { self.a.read_racy() }.value;
        // SAFETY: as above.
        let y = unsafe { self.b.read_racy() }.value;
        if validate_fence {
            fence(Acquire);
        }
        if self.version.load(Relaxed) == snap {
            Some((snap, x, y))
        } else {
            None
        }
    }
}

fn seqlock_scenario(begin_acquire: bool, validate_fence: bool) {
    let s = Arc::new(MiniSeq::new());
    let s2 = Arc::clone(&s);
    let w = thread::spawn(move || s2.write_pair(1));
    if let Some((snap, x, y)) = s.read_pair(begin_acquire, validate_fence) {
        assert_eq!(x, y, "validated read is torn");
        assert_eq!(x, snap / 2, "validated read is stale for its snapshot");
    }
    w.join().unwrap();
}

/// Baseline: the correct recipe passes exhaustively.
#[test]
fn seqlock_clean_recipe_passes() {
    expect_clean("seqlock-clean", || seqlock_scenario(true, true));
}

/// Mutant 1 (the seqlock's `validate`): dropping the Acquire fence before the
/// version re-load lets the re-load be ordered before the data reads — a
/// torn or stale pair validates.
#[test]
fn seqlock_validate_without_fence_is_caught() {
    let f = expect_caught("seqlock-no-validate-fence", || {
        seqlock_scenario(true, false)
    });
    assert_eq!(
        f.kind,
        FailureKind::Panic,
        "expected the pair assert: {f:?}"
    );
}

/// Mutant 2 (the seqlock's `read_begin`): a Relaxed snapshot load does not
/// synchronize with the writer's Release publish, so the data reads can
/// see values older than the snapshot claims.
#[test]
fn seqlock_relaxed_read_begin_is_caught() {
    let f = expect_caught("seqlock-relaxed-begin", || seqlock_scenario(false, true));
    assert_eq!(
        f.kind,
        FailureKind::Panic,
        "expected the pair assert: {f:?}"
    );
}

// ---------------------------------------------------------------------------
// Miniature DistRwLock: writer flag + per-reader mark, the PR 6/7 shape.
// ---------------------------------------------------------------------------

struct MiniDistRw {
    writer: AtomicU64,
    reader: AtomicU64,
    data: PeekCell<u64>,
}

impl MiniDistRw {
    fn new() -> Self {
        MiniDistRw {
            writer: AtomicU64::new(0),
            reader: AtomicU64::new(0),
            data: PeekCell::new(0),
        }
    }

    /// Writer: publish the flag, then scan the reader line. The correct
    /// publish is SeqCst (it must totally order against the reader's
    /// mark/recheck — this is a store-buffering shape, Release is NOT
    /// enough).
    fn write(&self, publish: std::sync::atomic::Ordering) -> bool {
        self.writer.store(1, publish);
        if self.reader.load(SeqCst) == 0 {
            // No reader marked: the critical section is ours.
            // SAFETY: the reader mark was re-checked; a racing access is reported by the model.
            unsafe { self.data.write(1) };
            self.writer.store(0, Release);
            true
        } else {
            self.writer.store(0, Release);
            false
        }
    }

    /// Reader: mark, then recheck the writer flag (SeqCst on both sides
    /// in the correct protocol; `recheck = false` skips the recheck, as a
    /// `DistRwLock::try_read` without its post-mark writer load would).
    fn try_read(&self, recheck: bool) -> bool {
        self.reader.fetch_add(1, SeqCst);
        if recheck && self.writer.load(SeqCst) != 0 {
            self.reader.fetch_sub(1, Release);
            return false;
        }
        // Non-consenting peek: overlapping the writer is a data race.
        // SAFETY: inside the model a racing access is reported, not undefined.
        let _ = unsafe { self.data.read() };
        self.reader.fetch_sub(1, Release);
        true
    }
}

fn dist_rw_scenario(publish: std::sync::atomic::Ordering, recheck: bool) {
    let l = Arc::new(MiniDistRw::new());
    let l2 = Arc::clone(&l);
    let w = thread::spawn(move || {
        l2.write(publish);
    });
    l.try_read(recheck);
    w.join().unwrap();
}

/// Baseline: SeqCst publish + SeqCst recheck exclude exhaustively.
#[test]
fn dist_rw_clean_protocol_passes() {
    expect_clean("dist-rw-clean", || dist_rw_scenario(SeqCst, true));
}

/// Mutant 3 (DistRwLock): publishing the writer flag with Relaxed breaks
/// the store-buffering pairing — writer-scan and reader-recheck can both
/// miss each other and both sides enter, which the peek oracle reports as
/// a data race.
#[test]
fn dist_rw_relaxed_writer_publish_is_caught() {
    let f = expect_caught("dist-rw-relaxed-publish", || {
        dist_rw_scenario(Relaxed, true)
    });
    assert_eq!(f.kind, FailureKind::DataRace, "expected overlap: {f:?}");
}

/// Mutant 4 (DistRwLock::try_read): removing the post-mark SeqCst
/// writer recheck lets a reader that marked after the writer's scan sail
/// into the critical section.
#[test]
fn dist_rw_missing_recheck_is_caught() {
    let f = expect_caught("dist-rw-no-recheck", || dist_rw_scenario(SeqCst, false));
    assert_eq!(f.kind, FailureKind::DataRace, "expected overlap: {f:?}");
}

// ---------------------------------------------------------------------------
// Miniature WakeSlot: the owner's announce → re-check → park against the
// waker's publish → look → claim (crates/sync/src/wake_slot.rs). Parking
// is a yield loop on the idle flag, as the real slot's is under the
// checker, so a lost wake-up is an owner that yields forever: a livelock.
// ---------------------------------------------------------------------------

struct MiniSlot {
    idle: AtomicU64,
    work: AtomicU64,
}

impl MiniSlot {
    fn new() -> Self {
        MiniSlot {
            idle: AtomicU64::new(0),
            work: AtomicU64::new(0),
        }
    }

    /// Owner. The correct protocol stores and loads with SeqCst and
    /// re-checks the work after announcing; `recheck = false` parks on
    /// the strength of the look taken *before* the announcement.
    fn wait(&self, store: Ordering, load: Ordering, recheck: bool) {
        while self.work.load(load) == 0 {
            self.idle.store(1, store);
            if recheck && self.work.load(load) != 0 {
                self.idle.store(0, Relaxed);
                return;
            }
            while self.idle.load(load) != 0 {
                thread::yield_now();
            }
        }
    }

    /// Waker: publish, then look for an idle owner and claim it.
    fn wake(&self, store: Ordering, load: Ordering) {
        self.work.store(1, store);
        if self.idle.load(load) != 0 {
            self.idle.swap(0, store);
        }
    }
}

fn wake_slot_scenario(store: Ordering, load: Ordering, recheck: bool) {
    let s = Arc::new(MiniSlot::new());
    let s2 = Arc::clone(&s);
    let waker = thread::spawn(move || s2.wake(store, load));
    s.wait(store, load, recheck);
    waker.join().unwrap();
}

/// Baseline: SeqCst pairs plus the re-check lose no wake-up.
#[test]
fn wake_slot_clean_protocol_passes() {
    expect_clean("wake-slot-clean", || {
        wake_slot_scenario(SeqCst, SeqCst, true)
    });
}

/// Mutant 5 (WakeSlot::wait): announcing idle without re-checking the
/// work. The waker publishes and finds nobody idle between the owner's
/// look and its announcement; the owner then parks on work that is
/// already there, and nobody is left to wake it.
#[test]
fn wake_slot_announce_without_recheck_is_caught() {
    let f = expect_caught("wake-slot-no-recheck", || {
        wake_slot_scenario(SeqCst, SeqCst, false)
    });
    assert_eq!(
        f.kind,
        FailureKind::Livelock,
        "expected a parked owner: {f:?}"
    );
}

/// Mutant 6 (WakeSlot): Release stores and Acquire loads in place of the
/// SeqCst store→load pairs. This is the store-buffering shape — each side
/// stores, then loads what the other stored — and without the total order
/// both loads may miss: the re-check sees no work, the waker sees no idle
/// owner, and the owner parks for good.
#[test]
fn wake_slot_release_acquire_pair_is_caught() {
    let f = expect_caught("wake-slot-release-acquire", || {
        wake_slot_scenario(Release, Acquire, true)
    });
    assert_eq!(
        f.kind,
        FailureKind::Livelock,
        "expected a parked owner: {f:?}"
    );
}

// ---------------------------------------------------------------------------
// Miniature persistence park: the persistence thread parks on its wake
// slot until `completedTail` passes what it applied; a combiner advances
// `completedTail` by CAS and then wakes it (crates/nr/src/log.rs's
// `advance_completed_tail`, crates/core/src/hooks.rs's
// `ensure_completed_tail_durable`). The owner side is `MiniSlot::wait`
// with `work` standing for `completedTail`.
// ---------------------------------------------------------------------------

fn persist_park_scenario(advance: Ordering, wake: bool) {
    let s = Arc::new(MiniSlot::new());
    let s2 = Arc::clone(&s);
    let combiner = thread::spawn(move || {
        let _ = s2.work.compare_exchange(0, 1, advance, Relaxed);
        if wake && s2.idle.load(SeqCst) != 0 {
            s2.idle.swap(0, SeqCst);
        }
    });
    s.wait(SeqCst, SeqCst, true);
    combiner.join().unwrap();
}

/// Baseline: a SeqCst `completedTail` CAS followed by the wake loses no
/// wake-up.
#[test]
fn persist_park_clean_protocol_passes() {
    expect_clean("persist-park-clean", || persist_park_scenario(SeqCst, true));
}

/// Mutant 7 (`advance_completed_tail`): the CAS back to `AcqRel`. The
/// combiner's CAS and the thread's announcement are the two stores of a
/// store-buffering pair, and only `SeqCst` on both puts them in one total
/// order: with `AcqRel` the thread's `SeqCst` re-check may still read the
/// old `completedTail` while the combiner's look finds nobody idle.
#[test]
fn persist_park_acqrel_completed_tail_is_caught() {
    let f = expect_caught("persist-park-acqrel-ct", || {
        persist_park_scenario(AcqRel, true)
    });
    assert_eq!(
        f.kind,
        FailureKind::Livelock,
        "expected a parked persistence thread: {f:?}"
    );
}

/// Mutant 8 (`ensure_completed_tail_durable`): the wake dropped. Nothing
/// else ends the park (the model has no timeout), so the thread sleeps
/// through the entries it should apply.
#[test]
fn persist_park_without_the_wake_is_caught() {
    let f = expect_caught("persist-park-no-wake", || {
        persist_park_scenario(SeqCst, false)
    });
    assert_eq!(
        f.kind,
        FailureKind::Livelock,
        "expected a parked persistence thread: {f:?}"
    );
}

// ---------------------------------------------------------------------------
// Miniature checkpoint listener: a `prep-serve` conn thread holding a
// durable ack announces itself and re-checks the watermark before it blocks
// in `poll`; the persistence thread publishes the checkpoint, then its
// listener claims the announcement and wakes the thread
// (`Worker::settle`, `listen_for_checkpoints`). The owner side is
// `MiniSlot::wait` with `work` standing for the watermark.
// ---------------------------------------------------------------------------

fn checkpoint_listener_scenario(announce: Ordering, listen: bool) {
    let s = Arc::new(MiniSlot::new());
    let s2 = Arc::clone(&s);
    let persistence = thread::spawn(move || {
        s2.work.fetch_add(1, SeqCst);
        if listen && s2.idle.load(SeqCst) != 0 {
            s2.idle.swap(0, SeqCst);
        }
    });
    s.wait(announce, SeqCst, true);
    persistence.join().unwrap();
}

/// Baseline: a `SeqCst` announce and the listener call lose no wake-up.
#[test]
fn checkpoint_listener_clean_protocol_passes() {
    expect_clean("checkpoint-listener-clean", || {
        checkpoint_listener_scenario(SeqCst, true)
    });
}

/// Mutant 9 (`Worker::settle`): a `Relaxed` announce leaves the total
/// order the publish and both loads are in, so the re-check may miss the
/// checkpoint while the listener misses the announcement.
#[test]
fn checkpoint_listener_relaxed_announce_is_caught() {
    let f = expect_caught("checkpoint-listener-relaxed-announce", || {
        checkpoint_listener_scenario(Relaxed, true)
    });
    assert_eq!(
        f.kind,
        FailureKind::Livelock,
        "expected a blocked conn thread: {f:?}"
    );
}

/// Mutant 10 (`PrepHooks::cycle`): the listener call after the
/// `durable_tail` publish dropped; nothing else wakes the conn thread.
#[test]
fn checkpoint_listener_without_the_call_is_caught() {
    let f = expect_caught("checkpoint-listener-no-call", || {
        checkpoint_listener_scenario(SeqCst, false)
    });
    assert_eq!(
        f.kind,
        FailureKind::Livelock,
        "expected a blocked conn thread: {f:?}"
    );
}

// ---------------------------------------------------------------------------
// Miniature batched wake: before it parks, the persistence thread stores
// its wake threshold `wake_at` (the applied tail plus max(1, ε/2)); a
// combiner advances `completedTail` by CAS and wakes it only once the
// threshold is reached (crates/core/src/persistence.rs's `run`,
// crates/core/src/hooks.rs's `ensure_completed_tail_durable`). The owner
// side is `MiniSlot::wait` with `work` standing for `completedTail`, and
// `wake_at` starts at `u64::MAX` ("never parked"), as `PrepHooks` keeps it.
// ---------------------------------------------------------------------------

fn batched_wake_scenario(threshold: Ordering) {
    let s = Arc::new(MiniSlot::new());
    let wake_at = Arc::new(AtomicU64::new(u64::MAX));
    let (s2, w2) = (Arc::clone(&s), Arc::clone(&wake_at));
    let combiner = thread::spawn(move || {
        let _ = s2.work.compare_exchange(0, 1, SeqCst, Relaxed);
        if 1 >= w2.load(SeqCst) && s2.idle.load(SeqCst) != 0 {
            s2.idle.swap(0, SeqCst);
        }
    });
    // Applied tail 0, threshold 0 + 1.
    wake_at.store(1, threshold);
    s.wait(SeqCst, SeqCst, true);
    combiner.join().unwrap();
}

/// Baseline: a `SeqCst` threshold store before the announcement loses no
/// wake-up.
#[test]
fn batched_wake_clean_protocol_passes() {
    expect_clean("batched-wake-clean", || batched_wake_scenario(SeqCst));
}

/// Mutant 11 (`persistence::run`): the `wake_at` store `Relaxed`. It is
/// the first store of the park's store→load pair with the combiner's
/// threshold load; out of the `SeqCst` total order, the combiner may read
/// the old threshold (`u64::MAX`) after its CAS while the thread's re-check
/// reads the old `completedTail`, and nobody wakes the parked thread.
#[test]
fn batched_wake_relaxed_threshold_is_caught() {
    let f = expect_caught("batched-wake-relaxed-threshold", || {
        batched_wake_scenario(Relaxed)
    });
    assert_eq!(
        f.kind,
        FailureKind::Livelock,
        "expected a parked persistence thread: {f:?}"
    );
}
