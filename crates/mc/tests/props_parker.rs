//! Model-checked properties of the real [`prep_sync::WakeSlot`], and of
//! the park protocols built beside it: the persistence thread's idle park
//! (with its batch threshold and a nudger that runs the cycle itself) and
//! the checkpoint listener that wakes a `prep-serve` conn thread.
//!
//! Runs only under `RUSTFLAGS="--cfg prep_mc"` (see `props_seq_version.rs`).
//! Under the checker the slot's park is an instrumented yield loop on its
//! idle flag, so a lost wake-up is an owner that yields forever: the
//! livelock detector reports it, and a waker that never gets to run is a
//! deadlock. Both detectors are on by default; every check below must
//! come back clean *and* exhaustive.
#![cfg(prep_mc)]

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;
use std::time::Duration;

use prep_mc::cell::AtomicU64;
use prep_mc::{thread, Builder};
use prep_sync::{TryLock, WakeSlot};

/// Exhaustive, not budget-capped: a clean report that ran out of
/// schedules would prove nothing about the interleaving it never reached.
fn check_exhaustively(name: &'static str, f: impl Fn() + Send + Sync) {
    let report = Builder::new(name).run(f);
    if let Some(fail) = report.failure {
        panic!(
            "{name}: {:?}: {}\nreplay schedule: \"{}\"\n{}",
            fail.kind, fail.message, fail.schedule, fail.trace
        );
    }
    assert!(report.complete, "{name}: schedule budget ran out");
}

/// One owner, two wakers, each publishing one unit of work and then
/// waking: the owner must leave its wait with both units visible, under
/// every interleaving — whichever side's store lands first, at least one
/// of the two loads sees it.
#[test]
fn no_wakeup_is_lost_with_two_wakers() {
    check_exhaustively("wake-slot-two-wakers", || {
        let slot = Arc::new(WakeSlot::new());
        let work = Arc::new(AtomicU64::new(0));
        let wakers: Vec<_> = (0..2)
            .map(|_| {
                let (slot, work) = (Arc::clone(&slot), Arc::clone(&work));
                thread::spawn(move || {
                    // ord: SeqCst — publish before wake (the slot's contract).
                    work.fetch_add(1, SeqCst);
                    slot.wake();
                })
            })
            .collect();
        // ord: SeqCst — the re-check's load (the slot's contract).
        slot.wait_until(|| work.load(SeqCst) == 2);
        assert_eq!(work.load(SeqCst), 2);
        for w in wakers {
            w.join().unwrap();
        }
    });
}

/// Of two wakers racing for one announcement at most one claims it (pays
/// the `unpark`), and a slot nobody is waiting on is never claimed.
#[test]
fn an_announcement_is_claimed_at_most_once() {
    check_exhaustively("wake-slot-single-claim", || {
        let slot = Arc::new(WakeSlot::new());
        let work = Arc::new(AtomicU64::new(0));
        let claims = Arc::new(AtomicU64::new(0));
        let wakers: Vec<_> = (0..2)
            .map(|_| {
                let (slot, work, claims) =
                    (Arc::clone(&slot), Arc::clone(&work), Arc::clone(&claims));
                thread::spawn(move || {
                    work.store(1, SeqCst);
                    if slot.wake() {
                        claims.fetch_add(1, SeqCst);
                    }
                })
            })
            .collect();
        slot.wait_until(|| work.load(SeqCst) == 1);
        for w in wakers {
            w.join().unwrap();
        }
        // The owner announced at most once before finding the work (a
        // second announcement needs a claimed first one and work still
        // missing, which one unit of work rules out).
        assert!(claims.load(SeqCst) <= 1, "one announcement, two claims");
        assert!(!slot.wake(), "the owner left its announcement behind");
    });
}

/// The owner waits twice on the same slot (a control thread between two
/// commands): a claim or a stray token from the first round must not
/// satisfy, or wedge, the second.
#[test]
fn the_slot_is_reusable_across_waits() {
    check_exhaustively("wake-slot-reuse", || {
        let slot = Arc::new(WakeSlot::new());
        let work = Arc::new(AtomicU64::new(0));
        let (s2, w2) = (Arc::clone(&slot), Arc::clone(&work));
        let waker = thread::spawn(move || {
            for unit in 1..=2 {
                w2.store(unit, SeqCst);
                s2.wake();
            }
        });
        slot.wait_until(|| work.load(SeqCst) >= 1);
        slot.wait_until(|| work.load(SeqCst) == 2);
        waker.join().unwrap();
    });
}

/// The persistence thread's words, as `crates/core` keeps them: the log's
/// `completedTail`, `nudge_checkpoint`'s standing request, the published
/// checkpoint's tail (the durable watermark), the applied tail the park
/// last saw and its wake threshold, and the stop flag, plus its park slot
/// and the watermark waiter's. The active replica's applied tail sits
/// behind a [`TryLock`] shared by the persistence thread and a nudger; in
/// `crates/core` that lock is `PrepHooks::cycle_lock`, which guards no data
/// and orders the cycle's runs over a replica with its own lock.
struct Persist {
    park: WakeSlot,
    watermark: WakeSlot,
    task: TryLock<u64>,
    completed_tail: AtomicU64,
    sync_request: AtomicU64,
    durable: AtomicU64,
    applied: AtomicU64,
    wake_at: AtomicU64,
    stop: AtomicU64,
}

/// max(1, ε/2) for ε = 4: the batch a combiner lets gather before it
/// wakes the parked thread.
const HALF: u64 = 2;

/// `fetch_max` by CAS (the checker's cells have no `fetch_max`).
fn fetch_max(cell: &AtomicU64, v: u64) {
    // ord: SeqCst — the publish half of the park's store→load pair.
    let mut cur = cell.load(SeqCst);
    while cur < v {
        // ord: SeqCst — as above; failure just re-reads.
        match cell.compare_exchange(cur, v, SeqCst, SeqCst) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

impl Persist {
    /// `PrepHooks::cycle`, cut down to what the park protocol reads: read
    /// the standing request, then apply up to `completedTail`, and
    /// checkpoint when a request is not yet covered. Runs under the cycle's
    /// lock (`task`), whoever holds it.
    fn cycle(&self, local: &mut u64) -> bool {
        // ord: Acquire pairs with the nudger's request; read first, so the
        // tail read next covers it.
        let want = self.sync_request.load(Acquire);
        // ord: Acquire pairs with the combiner's advance.
        let tail = self.completed_tail.load(Acquire);
        let mut progressed = false;
        if tail > *local {
            *local = tail;
            // ord: Release publishes the applied replica state.
            self.applied.store(tail, Release);
            progressed = true;
        }
        // ord: Relaxed — the task lock orders the watermark's writers.
        if self.durable.load(Relaxed) < want {
            fetch_max(&self.durable, *local);
            self.watermark.wake();
            progressed = true;
        }
        progressed
    }

    /// `persistence::run`: cycles under the task lock, and once one finds
    /// nothing to do, the threshold store and the park with the `has_work`
    /// re-check, re-parked until a cycle is due. A task held by a nudger
    /// is waited out. The spin/yield ladder in front of the park is left
    /// out: it only delays the park.
    fn run(&self) {
        loop {
            // ord: Acquire pairs with Drop's stop store.
            if self.stop.load(Acquire) != 0 {
                return;
            }
            let Some(mut local) = self.task.try_lock() else {
                thread::yield_now();
                continue;
            };
            if self.cycle(&mut local) {
                continue;
            }
            let seen = *local;
            drop(local);
            let wake_at = seen + HALF;
            // ord: SeqCst — the threshold, before the announcement.
            self.wake_at.store(wake_at, SeqCst);
            // ord: SeqCst loads — the ready check's half of the WakeSlot
            // pair.
            let due = || {
                self.stop.load(SeqCst) != 0
                    || self.completed_tail.load(SeqCst) >= wake_at
                    || self.sync_request.load(SeqCst) > self.durable.load(SeqCst)
            };
            while !due() {
                // The bound is ignored under the checker: a lost wake-up is
                // a park that never ends, which the livelock detector sees.
                self.park.wait_until_or(due, Duration::from_micros(300));
            }
        }
    }
}

/// The persistence thread's idle park (`crates/core/src/persistence.rs`):
/// threshold store → announce → `SeqCst` re-check of `completedTail`
/// against the threshold, `sync_request` and `stop`, raced against a
/// combiner's two `completedTail` advances, each followed by the wake
/// that `ensure_completed_tail_durable` sends once the threshold is
/// reached, and against a nudger (`nudge_checkpoint`): it publishes its
/// request, then either takes the task by `try_lock` and checkpoints
/// itself, returning with the watermark covering its tail, or wakes the
/// thread and waits for the checkpoint, as `quiesce_persistence` does.
/// The nudger must get its checkpoint, the active replica must end within
/// `HALF` of `completedTail` (a thread parked past its threshold would
/// leave it further behind), and `stop` must end the thread.
#[test]
fn the_persistence_park_loses_no_wakeup() {
    check_exhaustively("persistence-park", || {
        let p = Arc::new(Persist {
            park: WakeSlot::new(),
            watermark: WakeSlot::new(),
            task: TryLock::new(0),
            completed_tail: AtomicU64::new(0),
            sync_request: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            wake_at: AtomicU64::new(u64::MAX),
            stop: AtomicU64::new(0),
        });
        let persistence = {
            let p = Arc::clone(&p);
            thread::spawn(move || p.run())
        };
        let combiner = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                // One combine round of `HALF` entries. ord: SeqCst —
                // `advance_completed_tail`'s CAS, then
                // `ensure_completed_tail_durable`'s threshold load and wake.
                let _ = p.completed_tail.compare_exchange(0, HALF, SeqCst, Relaxed);
                if HALF >= p.wake_at.load(SeqCst) {
                    p.park.wake();
                }
            })
        };
        // This thread nudges (`nudge_checkpoint`).
        // ord: SeqCst — the nudge names the current completedTail.
        let want = p.completed_tail.load(SeqCst);
        // ord: SeqCst — the watermark check of the nudge's early return.
        if p.durable.load(SeqCst) < want {
            fetch_max(&p.sync_request, want);
            if let Some(mut local) = p.task.try_lock() {
                p.cycle(&mut local);
                drop(local);
                // ord: SeqCst — the watermark a durable ack reads.
                assert!(
                    p.durable.load(SeqCst) >= want,
                    "the nudger's own checkpoint must cover its tail"
                );
            } else {
                p.park.wake();
                // ord: SeqCst — the watermark slot's ready check.
                p.watermark.wait_until(|| p.durable.load(SeqCst) >= want);
            }
        }
        combiner.join().unwrap();
        // ord: SeqCst/Acquire — a yield loop, so a parked thread that
        // missed the combiner's wake is a livelock.
        while p.completed_tail.load(SeqCst) >= p.applied.load(Acquire) + HALF {
            thread::yield_now();
        }
        // ord: SeqCst — Drop's stop, then its wake.
        p.stop.store(1, SeqCst);
        p.park.wake();
        persistence.join().unwrap();
    });
}

/// The checkpoint listener (`prep-serve`'s `Worker::settle` and
/// `listen_for_checkpoints`): a conn thread holding acks covered by 1 and 2
/// announces itself, re-checks the watermark and blocks in `poll` on its
/// eventfd (a counter it yields on); the persistence thread publishes each
/// checkpoint, then claims the announcement and writes the eventfd. The
/// thread must see both checkpoints, the second after the first claim.
#[test]
fn the_checkpoint_listener_loses_no_wakeup() {
    check_exhaustively("checkpoint-listener", || {
        // The watermark, the announcement and the eventfd's counter.
        let cells = Arc::new([0, 0, 0].map(AtomicU64::new));
        let persistence = {
            let cells = Arc::clone(&cells);
            thread::spawn(move || {
                let [durable, waiting, efd] = &*cells;
                for tail in 1..=2 {
                    fetch_max(durable, tail);
                    // ord: SeqCst — the listener's load of the pair, its
                    // claim, and the kernel's counter update.
                    if waiting.load(SeqCst) != 0 && waiting.swap(0, SeqCst) != 0 {
                        efd.fetch_add(1, SeqCst);
                    }
                }
            })
        };
        let [durable, waiting, efd] = &*cells;
        for cover in 1..=2 {
            loop {
                // ord: SeqCst — the announce, then the watermark re-check.
                waiting.store(1, SeqCst);
                if durable.load(SeqCst) >= cover {
                    break;
                }
                // ord: SeqCst — `poll`'s readiness check, then the drain.
                while efd.load(SeqCst) == 0 {
                    thread::yield_now();
                }
                efd.swap(0, SeqCst);
            }
        }
        persistence.join().unwrap();
    });
}
