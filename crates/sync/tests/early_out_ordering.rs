//! Regression stress tests for the reader fast-path "early-out" load.
//!
//! Both distributed rwlocks open `try_read` with a load of the writer word
//! that merely *declines early* when a writer is visible. That load used to
//! be SeqCst, which dragged a full fence into every read acquisition; it is
//! now Acquire, because it is not part of the store-buffering (SB) pair —
//! mutual exclusion rests entirely on the mark-then-recheck that follows
//! (reader marks its slot SeqCst, then re-checks the writer word SeqCst,
//! mirroring the writer's flag-then-scan). Weakening the early-out can
//! therefore change *when* a reader bails, never *whether* exclusion holds.
//!
//! These tests hammer exactly the interleaving the SB pair protects: writers
//! flipping the word while readers race through the fast path, with every
//! successful guard checking the exclusion invariant. Honest caveat: on
//! x86, Acquire and SeqCst loads compile to the same instruction, so this
//! cannot falsify the *ordering* argument on this host — it pins the
//! protocol-level invariant (no reader/writer overlap, no lost wakeups) that
//! any future weakening beyond Acquire, or a botched recheck, would break
//! even on TSO hardware.

#![allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use prep_sync::{DistRwLock, ReaderId, StrongTryRwLock};

const WRITERS: usize = 2;
const READERS: usize = 4;
const WRITES_EACH: u64 = 2_000;

/// Shared exclusion monitor: readers/writers bump it while inside the
/// critical section; any reader-while-writer overlap is caught immediately.
#[derive(Default)]
struct Monitor {
    readers_in: AtomicU64,
    writer_in: AtomicBool,
    reads: AtomicU64,
}

impl Monitor {
    fn enter_read(&self) {
        self.readers_in.fetch_add(1, Ordering::SeqCst);
        assert!(
            !self.writer_in.load(Ordering::SeqCst),
            "reader admitted while a writer holds the lock"
        );
    }
    fn exit_read(&self) {
        self.readers_in.fetch_sub(1, Ordering::SeqCst);
        self.reads.fetch_add(1, Ordering::Relaxed);
    }
    fn enter_write(&self) {
        assert!(
            !self.writer_in.swap(true, Ordering::SeqCst),
            "two writers inside the critical section"
        );
        assert_eq!(
            self.readers_in.load(Ordering::SeqCst),
            0,
            "writer admitted while readers hold the lock"
        );
    }
    fn exit_write(&self) {
        self.writer_in.store(false, Ordering::SeqCst);
    }
}

/// Stops the readers once the writers are done and returns how many reads
/// got through. On two CPUs the writers can finish all their sections
/// before a reader thread is first scheduled, so the readers get ten
/// seconds to land one read on the now writer-free lock: what the caller
/// asserts is that the fast path admits readers at all, not that the
/// scheduler interleaved them with the writers.
fn stop_readers(
    mon: &Monitor,
    stop: &AtomicBool,
    readers: Vec<std::thread::JoinHandle<u64>>,
) -> u64 {
    for _ in 0..10_000 {
        if mon.reads.load(Ordering::Relaxed) > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    readers.into_iter().map(|r| r.join().unwrap()).sum()
}

#[test]
fn dist_rw_early_out_never_admits_reader_under_writer() {
    let lock = Arc::new(DistRwLock::new(0u64, READERS));
    let mon = Arc::new(Monitor::default());
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let (lock, mon) = (Arc::clone(&lock), Arc::clone(&mon));
            std::thread::spawn(move || {
                for _ in 0..WRITES_EACH {
                    let mut g = lock.write();
                    mon.enter_write();
                    *g += 1;
                    mon.exit_write();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|slot| {
            let (lock, mon, stop) = (Arc::clone(&lock), Arc::clone(&mon), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut seen = 0u64;
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Some(g) = lock.try_read(ReaderId::Slot(slot)) {
                        mon.enter_read();
                        assert!(*g >= last, "writer count went backwards");
                        last = *g;
                        seen += 1;
                        mon.exit_read();
                    }
                }
                seen
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    let total_reads = stop_readers(&mon, &stop, readers);
    // Liveness half of the regression: an early-out that declines too
    // eagerly (e.g. reading a stale always-set writer word) would show up
    // as readers starving outright between write bursts.
    assert!(
        total_reads > 0,
        "readers never got through the fast path at all"
    );
    assert_eq!(*lock.write(), (WRITERS as u64) * WRITES_EACH);
}

#[test]
fn strong_try_early_out_never_admits_reader_under_writer() {
    let lock = Arc::new(StrongTryRwLock::with_reader_slots(0u64, READERS));
    let mon = Arc::new(Monitor::default());
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let (lock, mon) = (Arc::clone(&lock), Arc::clone(&mon));
            std::thread::spawn(move || {
                for _ in 0..WRITES_EACH {
                    let mut g = lock.write();
                    mon.enter_write();
                    *g += 1;
                    mon.exit_write();
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (lock, mon, stop) = (Arc::clone(&lock), Arc::clone(&mon), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Some(g) = lock.try_read() {
                        mon.enter_read();
                        let _ = *g;
                        seen += 1;
                        mon.exit_read();
                    }
                }
                seen
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    let total_reads = stop_readers(&mon, &stop, readers);
    assert!(
        total_reads > 0,
        "readers never got through the fast path at all"
    );
    assert_eq!(*lock.write(), (WRITERS as u64) * WRITES_EACH);
}
