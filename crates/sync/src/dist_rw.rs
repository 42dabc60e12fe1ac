//! Distributed readers-writer lock.
//!
//! This is the reader-writer lock NR actually describes (Calciu et al.,
//! ASPLOS 2017, §3): "a writer-preference variant of the distributed
//! reader-writer lock" with one reader indicator *per registered reader*,
//! each on its own cacheline. A reader acquires by writing **its own line**
//! and re-checking the writer flag — it never stores to a cacheline any
//! other reader touches, so read acquisition scales with no coherence
//! traffic between readers. The writer pays instead: it raises the writer
//! flag and then scans every reader line until all are free.
//!
//! Built with zero dedicated slots it is a centralized writer-preference
//! lock: every reader counts on the one shared line with a
//! `fetch_add`/`fetch_sub` pair, a bottleneck at 90%+ reads (the paper's
//! headline workloads) but the right shape for a lock that is rarely
//! contended, such as the SOFT baseline's per-bucket lock.
//!
//! Reader identity is a [`ReaderId`]:
//!
//! * [`ReaderId::Slot`]`(i)` — a reader counting on dedicated slot `i`.
//!   Marks are counting RMWs, so several threads may share a slot and stay
//!   correct (the CX baseline stripes its readers over the slots by thread
//!   ordinal). A slot only stays contention-free when one thread owns it,
//!   as in NR, where the `ThreadToken` allocated at registration is that
//!   exclusive capability.
//! * [`ReaderId::Shared`] — an unregistered reader (diagnostics, the
//!   persistence thread's `with_replica` accesses, tests). All shared
//!   readers count on one overflow line; correct, but not contention-free.
//!
//! [`DistRwLock::try_write`] is a *strong* try, as the CX universal
//! construction of Correia et al. (the paper's baseline, §2.3) needs to
//! scan its replicas and take the first free one: it fails only if a
//! writer held or waited for the lock, or a reader indicator was raised, at
//! some instant during the call — never spuriously on a free lock.
//! Precision note, inherited from the reader-indicator design: a
//! `try_read` that overlaps a `try_write` *probe* (one that raises the
//! writer flag, finds a reader on some line, and backs out) fails as if
//! against a real writer. `try_write` failures stay genuine; CX retries its
//! read loop regardless, so a probe costs a reader at most a re-poll.
//!
//! Memory-ordering note: reader acquire (mark own slot, then load the writer
//! word) and writer acquire (set the writer flag, then load every slot) form
//! a classic store-buffering pattern, so both sides use `SeqCst` for the
//! store→load pair. Either the reader's load sees the writer flag (reader
//! backs out) or the writer's scan sees the reader's mark (writer waits) —
//! mutual exclusion follows from the total order on `SeqCst` accesses.

use crate::cell::{AtomicU64, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;

use crate::{held, Waiter};

const WRITER: u64 = 1 << 63;
const WAITING_MASK: u64 = WRITER - 1;

/// Identity of a reader for slot-distributed locks ([`DistRwLock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderId {
    /// A reader counting on dedicated slot `i`: contention-free when one
    /// thread owns the slot, still correct when several share it.
    Slot(usize),
    /// An unregistered reader; counts on the shared overflow line.
    Shared,
}

/// A distributed writer-preference readers-writer lock guarding a `T`.
///
/// Built with a fixed number of dedicated reader slots (one cacheline
/// each) plus one shared overflow line for [`ReaderId::Shared`] readers.
///
/// ```
/// use prep_sync::{DistRwLock, ReaderId};
/// let lock = DistRwLock::new(vec![1, 2, 3], 4);
/// {
///     let r0 = lock.read(ReaderId::Slot(0));
///     let r1 = lock.try_read(ReaderId::Slot(1)).expect("readers share");
///     assert_eq!(r0.len() + r1.len(), 6);
/// }
/// lock.write().push(4);
/// assert_eq!(lock.read(ReaderId::Shared).len(), 4);
/// let w = lock.try_write().expect("free lock: a strong try succeeds");
/// assert!(lock.try_read(ReaderId::Slot(0)).is_none());
/// drop(w);
/// ```
pub struct DistRwLock<T> {
    /// Bit 63: a writer holds the lock. Low bits: writers waiting to
    /// acquire (readers defer to both — writer preference). Readers only
    /// *load* this word; in a read-only phase its cacheline stays Shared in
    /// every reader's cache.
    writer: CachePadded<AtomicU64>,
    /// One line per dedicated reader slot, plus the shared overflow line at
    /// index `len - 1`. Nonzero = that slot's reader(s) hold the lock.
    /// Written only by the slot's owner; the writer merely scans.
    readers: Box<[CachePadded<AtomicU64>]>,
    data: UnsafeCell<T>,
}

// SAFETY: standard RwLock bounds — readers alias &T across threads, the
// writer gets exclusive &mut T, handoff ordered by the SeqCst protocol
// described in the module docs.
unsafe impl<T: Send> Send for DistRwLock<T> {}
// SAFETY: see `Send` above.
unsafe impl<T: Send + Sync> Sync for DistRwLock<T> {}

impl<T> DistRwLock<T> {
    /// Level 3, the innermost: NR's replica data lock, taken under the
    /// combiner election (level 1) and the reservation gate (level 2);
    /// nothing is acquired under it. Every NR read takes it in read mode
    /// with nothing held: a read that must catch its replica up first
    /// releases the election before it reads. CX's replica locks and
    /// SOFT's bucket locks are this type at the same level.
    pub const LEVEL: u8 = 3;

    /// Creates an unlocked lock around `value` with `slots` dedicated
    /// reader slots (plus the shared overflow line).
    pub fn new(value: T, slots: usize) -> Self {
        DistRwLock {
            writer: CachePadded::new(AtomicU64::new(0)),
            readers: (0..slots + 1)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            data: UnsafeCell::new(value),
        }
    }

    /// Number of dedicated reader slots.
    pub fn reader_slots(&self) -> usize {
        self.readers.len() - 1
    }

    #[inline]
    fn slot(&self, id: ReaderId) -> &AtomicU64 {
        match id {
            ReaderId::Slot(i) => {
                debug_assert!(i < self.readers.len() - 1, "reader slot {i} out of range");
                &self.readers[i]
            }
            ReaderId::Shared => &self.readers[self.readers.len() - 1],
        }
    }

    /// Acquires the lock in read (shared) mode as `id`, blocking politely.
    ///
    /// For a dedicated slot this is the zero-contention path: one
    /// store + load on the reader's own line, one *load* of the writer
    /// word — no store to any cacheline shared with another reader.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self, id: ReaderId) -> DistReadGuard<'_, T> {
        held::check_blocking(Self::LEVEL);
        let mut w = Waiter::new();
        loop {
            if let Some(g) = self.try_read(id) {
                return g;
            }
            w.wait();
        }
    }

    /// Attempts to acquire the lock in read mode without blocking.
    ///
    /// Fails while a writer holds *or waits for* the lock (writer
    /// preference: the NR combiner works on behalf of every thread on its
    /// node, so readers must not starve it).
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_read(&self, id: ReaderId) -> Option<DistReadGuard<'_, T>> {
        // ord: early-out only -- this load is NOT part of the SB protocol
        // (the mark + SeqCst recheck below is); Acquire is enough to see a
        // finishing writer's section before we skip the mark.
        if self.writer.load(Ordering::Acquire) != 0 {
            return None;
        }
        let slot = self.slot(id);
        // Mark our line. fetch_add (not store) so a line several readers
        // share (the overflow line, or a slot CX stripes its threads over)
        // counts them all; for an owned slot it is an uncontended 0 → 1
        // transition on a line only we write.
        // ord: SeqCst store side of the store-buffering pair: mark-then-
        // check here vs flag-then-scan in `write`. With anything weaker,
        // both sides can read the other's old value and admit a reader
        // alongside an active writer.
        slot.fetch_add(1, Ordering::SeqCst);
        // Recheck: did a writer acquire between our first load and the
        // mark? (Waiting writers that have not acquired will scan and see
        // our mark — see module docs.)
        // ord: SeqCst load side of the SB pair (see mark above).
        if self.writer.load(Ordering::SeqCst) & WRITER != 0 {
            // ord: Release so the aborted attempt cannot leak past the
            // unmark; pairs with the writer's drain scan.
            slot.fetch_sub(1, Ordering::Release);
            return None;
        }
        held::acquired(self, Self::LEVEL);
        Some(DistReadGuard { lock: self, id })
    }

    /// Acquires the lock in write (exclusive) mode, blocking politely:
    /// announce intent (so new readers hold off), win the writer flag, then
    /// scan every reader line until all are free.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> DistWriteGuard<'_, T> {
        held::check_blocking(Self::LEVEL);
        // ord: advisory waiting mark; the flag CAS below is the
        // synchronizing edge.
        self.writer.fetch_add(1, Ordering::Relaxed);
        let mut w = Waiter::new();
        loop {
            // ord: optimistic snapshot; the CAS re-validates.
            let s = self.writer.load(Ordering::Relaxed);
            if s & WRITER == 0 {
                debug_assert!(s & WAITING_MASK > 0, "lost our waiting mark");
                // Convert our waiting mark into the active-writer bit.
                if self
                    .writer
                    // ord: SeqCst store side of the SB pair (flag-then-scan
                    // vs the readers' mark-then-check); also Acquire-pairs
                    // with the previous writer's Release drop. Failure just
                    // loops.
                    .compare_exchange_weak(s, (s - 1) | WRITER, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    break;
                }
            }
            w.wait();
        }
        // Drain: wait for every reader line (dedicated + shared) to clear.
        // Readers that marked before our flag are visible here (SeqCst);
        // readers that marked after will see the flag and back out.
        for slot in self.readers.iter() {
            let mut w = Waiter::new();
            // ord: SeqCst load side of the SB pair -- must not be reordered
            // before the flag CAS, or a concurrent reader's mark could be
            // missed while it misses our flag; also Acquire-pairs with
            // reader unmark Releases so drained sections are visible.
            while slot.load(Ordering::SeqCst) != 0 {
                w.wait();
            }
        }
        held::acquired(self, Self::LEVEL);
        DistWriteGuard { lock: self }
    }

    /// Attempts to acquire the lock in write mode without blocking.
    ///
    /// Strong semantics: returns `None` only if, at some instant during
    /// the call, a writer held or waited for the lock or a reader indicator
    /// (a dedicated slot or the shared line) was raised.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_write(&self) -> Option<DistWriteGuard<'_, T>> {
        if self
            .writer
            // ord: SeqCst store side of the store-buffering pair (flag-
            // then-scan vs the readers' mark-then-check); also
            // Acquire-pairs with the previous writer's Release drop.
            // Failure returns None, no ordering needed.
            .compare_exchange(0, WRITER, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // Flag is up: new readers back off. Any line still marked is a
        // reader that acquired before our flag — a genuine conflict.
        for slot in self.readers.iter() {
            // ord: SeqCst load side of the SB pair -- must not hoist above
            // the flag CAS, or we could miss a reader whose mark missed our
            // flag.
            if slot.load(Ordering::SeqCst) != 0 {
                // ord: Release backs the flag out without leaking the probe.
                self.writer.fetch_and(!WRITER, Ordering::Release);
                return None;
            }
        }
        held::acquired(self, Self::LEVEL);
        Some(DistWriteGuard { lock: self })
    }

    /// Number of writers currently waiting or holding (advisory, for
    /// tests).
    pub fn writer_word(&self) -> u64 {
        // ord: advisory, for tests.
        self.writer.load(Ordering::Relaxed)
    }

    /// Raw value of reader line `i` — dedicated slots `0..reader_slots()`,
    /// then the shared overflow line (advisory, for tests instrumenting
    /// which state words a path touches).
    pub fn reader_line(&self, i: usize) -> u64 {
        // ord: advisory, for tests.
        self.readers[i].load(Ordering::Relaxed)
    }

    /// Returns a mutable reference to the protected data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// Shared-mode RAII guard for [`DistRwLock`].
pub struct DistReadGuard<'a, T> {
    lock: &'a DistRwLock<T>,
    id: ReaderId,
}

impl<T> std::ops::Deref for DistReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: shared guard held; no writer can be active.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for DistReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        held::released(self.lock);
        // ord: Release publishes the read section to the writer's drain
        // scan.
        self.lock.slot(self.id).fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive-mode RAII guard for [`DistRwLock`].
pub struct DistWriteGuard<'a, T> {
    lock: &'a DistRwLock<T>,
}

impl<T> std::ops::Deref for DistWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: exclusive guard.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for DistWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive guard.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for DistWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        held::released(self.lock);
        // ord: Release publishes the write section to the next acquirer's
        // Acquire/SeqCst load of the writer word.
        self.lock.writer.fetch_and(!WRITER, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spin_until;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    /// Layout pin: adjacent reader slots (the shared overflow slot too)
    /// are at least a cache line apart, so a reader's store to its own
    /// slot never invalidates another reader's line.
    #[test]
    fn reader_slots_never_share_a_cache_line() {
        let lock = DistRwLock::new(0u64, 2);
        let gap = lock.readers[1..].as_ptr() as usize - lock.readers.as_ptr() as usize;
        assert!(gap >= 64, "adjacent reader slots are {gap} bytes apart");
    }

    #[test]
    fn readers_share_writer_excludes() {
        let lock = DistRwLock::new(7u64, 2);
        let r0 = lock.try_read(ReaderId::Slot(0)).unwrap();
        let r1 = lock.try_read(ReaderId::Slot(1)).unwrap();
        let rs = lock.try_read(ReaderId::Shared).unwrap();
        assert_eq!(*r0 + *r1 + *rs, 21);
        drop((r0, r1, rs));
        let mut w = lock.write();
        *w = 8;
        assert!(lock.try_read(ReaderId::Slot(0)).is_none());
        drop(w);
        assert_eq!(*lock.read(ReaderId::Slot(0)), 8);
    }

    #[test]
    fn shared_line_counts_multiple_readers() {
        let lock = DistRwLock::new((), 2);
        let a = lock.try_read(ReaderId::Shared).unwrap();
        let b = lock.try_read(ReaderId::Shared).unwrap();
        assert_eq!(lock.reader_line(2), 2);
        drop(a);
        assert_eq!(lock.reader_line(2), 1);
        drop(b);
        assert_eq!(lock.reader_line(2), 0);
    }

    /// The tentpole invariant: a dedicated-slot read acquire + release
    /// stores to **no state word shared with another reader** — only its
    /// own line changes; the writer word and every other reader line are
    /// bit-identical throughout.
    #[test]
    fn slot_read_stores_only_to_its_own_line() {
        let lock = DistRwLock::new(0u64, 4);
        // Another reader holds slot 1 and the shared line — their words
        // must not change while slot 2 acquires and releases.
        let _other = lock.try_read(ReaderId::Slot(1)).unwrap();
        let _shared = lock.try_read(ReaderId::Shared).unwrap();
        let before: Vec<u64> = (0..5).map(|i| lock.reader_line(i)).collect();
        let writer_before = lock.writer_word();

        // On its own thread: this one already holds two reads, and a
        // blocking read under them is the self-deadlock the held-level
        // check rejects.
        thread::scope(|s| {
            s.spawn(|| {
                let g = lock.read(ReaderId::Slot(2));
                assert_eq!(lock.reader_line(2), before[2] + 1, "own line marked");
                for i in [0usize, 1, 3, 4] {
                    assert_eq!(lock.reader_line(i), before[i], "foreign line {i} written");
                }
                assert_eq!(lock.writer_word(), writer_before, "writer word written");
                drop(g);
            });
        });
        for (i, &b) in before.iter().enumerate() {
            assert_eq!(lock.reader_line(i), b, "line {i} not restored");
        }
        assert_eq!(lock.writer_word(), writer_before);
    }

    /// Interleaving: writer announces intent while a reader holds; new
    /// readers (dedicated and shared) must defer until the writer is done
    /// (writer preference), and the writer must not enter while the old
    /// reader holds (mutual exclusion).
    #[test]
    fn writer_preference_blocks_new_readers() {
        let lock = Arc::new(DistRwLock::new(0u64, 2));
        let r = lock.read(ReaderId::Slot(0));
        let l2 = Arc::clone(&lock);
        let writer = thread::spawn(move || {
            *l2.write() = 1;
        });
        // Step the interleaving to "writer waiting": intent announced, not
        // yet acquired (the reader still holds).
        spin_until(|| lock.writer_word() != 0);
        assert!(lock.try_read(ReaderId::Slot(1)).is_none(), "slot reader");
        assert!(lock.try_read(ReaderId::Shared).is_none(), "shared reader");
        assert_eq!(*r, 0, "writer entered while a reader held");
        drop(r);
        writer.join().unwrap();
        assert_eq!(*lock.read(ReaderId::Slot(0)), 1);
    }

    /// Interleaving: the writer flag is up and the writer is draining; a
    /// reader that races its slot-mark against the flag must back out, and
    /// the writer must observe the backout (no lost wakeup: the drain scan
    /// terminates).
    #[test]
    fn racing_reader_backs_out_and_writer_drains() {
        let lock = Arc::new(DistRwLock::new(0u64, 2));
        let stop = Arc::new(AtomicBool::new(false));
        let churning = Arc::new(AtomicBool::new(false));
        let l2 = Arc::clone(&lock);
        let s2 = Arc::clone(&stop);
        let c2 = Arc::clone(&churning);
        // Reader thread hammers acquire/release on its own slot.
        let reader = thread::spawn(move || {
            let mut reads = 0u64;
            while !s2.load(Ordering::Relaxed) {
                let g = l2.read(ReaderId::Slot(0));
                reads += 1;
                drop(g);
                c2.store(true, Ordering::Relaxed);
            }
            reads
        });
        // Handshake: the 200 acquisitions below take well under a thread
        // start-up, so without this the writer finishes before the reader
        // has run at all and nothing races.
        spin_until(|| churning.load(Ordering::Relaxed));
        // Writer thread repeatedly acquires through the churning reader —
        // every acquisition must complete (drain terminates) and be
        // exclusive.
        for i in 0..200u64 {
            let mut g = lock.write();
            assert_eq!(*g, i, "writer saw a torn or lost update");
            *g = i + 1;
        }
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().unwrap();
        assert!(reads > 0, "reader never got through");
        assert_eq!(*lock.read(ReaderId::Shared), 200);
    }

    /// Mutual exclusion under full churn: writers keep a two-word invariant
    /// that any reader overlapping a writer would see torn.
    #[test]
    fn no_torn_reads_under_churn() {
        const WRITERS: usize = 2;
        const READERS: usize = 3;
        let lock = Arc::new(DistRwLock::new((0u64, 0u64), READERS));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let mut g = lock.write();
                        let v = g.0 + 1;
                        g.0 = v;
                        g.1 = v;
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|i| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..2000 {
                        let g = lock.read(ReaderId::Slot(i));
                        assert_eq!(g.0, g.1, "torn read through DistRwLock");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    /// No lost wakeups in either direction: alternating phases where a
    /// writer waits on readers and readers wait on the writer, many times.
    #[test]
    fn alternating_phases_never_hang() {
        let lock = Arc::new(DistRwLock::new(0u64, 1));
        let l2 = Arc::clone(&lock);
        let t = thread::spawn(move || {
            for _ in 0..500 {
                let g = l2.read(ReaderId::Slot(0));
                let v = *g;
                drop(g);
                let mut w = l2.write();
                assert!(*w >= v);
                *w += 1;
            }
        });
        for _ in 0..500 {
            let g = lock.read(ReaderId::Shared);
            let v = *g;
            drop(g);
            let mut w = lock.write();
            assert!(*w >= v);
            *w += 1;
        }
        t.join().unwrap();
        let Ok(lock) = Arc::try_unwrap(lock) else {
            panic!("all clones joined");
        };
        assert_eq!(lock.into_inner(), 1000);
    }

    #[test]
    fn try_write_fails_against_reader_and_writer() {
        let lock = DistRwLock::new((), 1);
        for id in [ReaderId::Slot(0), ReaderId::Shared] {
            let r = lock.try_read(id).unwrap();
            assert!(lock.try_write().is_none(), "{id:?} reader");
            drop(r);
        }
        let w = lock.try_write().unwrap();
        assert!(lock.try_write().is_none());
        assert!(lock.try_read(ReaderId::Slot(0)).is_none());
        assert!(lock.try_read(ReaderId::Shared).is_none());
        drop(w);
        assert_eq!(lock.writer_word(), 0, "a failed try_write left its flag up");
    }

    /// Readers never conflict with readers, even when more threads than
    /// slots share them: with no writer present every `try_read` succeeds,
    /// and once all are done every line has drained and a writer gets in.
    #[test]
    fn try_read_retries_through_reader_interference() {
        const THREADS: usize = 8;
        const SLOTS: usize = 3;
        let lock = Arc::new(DistRwLock::new((), SLOTS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    let id = if t == THREADS - 1 {
                        ReaderId::Shared
                    } else {
                        ReaderId::Slot(t % SLOTS)
                    };
                    for _ in 0..2000 {
                        let g = lock
                            .try_read(id)
                            .expect("try_read failed with no writer present");
                        drop(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..=SLOTS {
            assert_eq!(lock.reader_line(i), 0, "line {i} not drained");
        }
        assert!(lock.try_write().is_some());
    }

    /// Readers striped over shared slots (CX's use) against a `try_write`
    /// writer keeping a two-word invariant.
    #[test]
    fn striped_readers_exclude_writers_without_tearing() {
        const SLOTS: usize = 2;
        let lock = Arc::new(DistRwLock::new((0u64, 0u64), SLOTS));
        let stop = Arc::new(AtomicBool::new(false));
        let wl = Arc::clone(&lock);
        let ws = Arc::clone(&stop);
        let writer = thread::spawn(move || {
            let mut i = 0u64;
            while !ws.load(Ordering::Relaxed) {
                if let Some(mut g) = wl.try_write() {
                    i += 1;
                    g.0 = i;
                    g.1 = i;
                }
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..2000 {
                        let g = lock.read(ReaderId::Slot(t % SLOTS));
                        assert_eq!(g.0, g.1, "torn read through a shared slot");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// Writers exclude each other whichever way they acquire: `try_write`
    /// retry loops (CX's replay claim) alongside blocking `write`s, whose
    /// waiting mark makes a concurrent `try_write` fail.
    #[test]
    fn writes_are_mutually_exclusive() {
        const THREADS: usize = 8;
        const ITERS: usize = 500;
        let lock = Arc::new(DistRwLock::new(0usize, 4));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    for _ in 0..ITERS {
                        let mut g = if t % 2 == 0 {
                            let mut w = Waiter::new();
                            loop {
                                match lock.try_write() {
                                    Some(g) => break g,
                                    None => w.wait(),
                                }
                            }
                        } else {
                            lock.write()
                        };
                        let v = *g;
                        *g = v + 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.read(ReaderId::Shared), THREADS * ITERS);
    }

    #[test]
    fn guards_are_raii_exact() {
        let lock = DistRwLock::new((), 1);
        {
            let _g = lock.read(ReaderId::Slot(0));
            assert_eq!(lock.reader_line(0), 1);
        }
        assert_eq!(lock.reader_line(0), 0);
        {
            let _w = lock.write();
            assert_eq!(lock.writer_word(), WRITER);
        }
        assert_eq!(lock.writer_word(), 0);
    }
}
