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
//! Compare [`crate::RwSpinLock`], which funnels every reader through one
//! shared `fetch_add`/`fetch_sub` cacheline — a bottleneck at 90%+ reads
//! (the paper's headline workloads).
//!
//! Reader identity is a [`ReaderId`]:
//!
//! * [`ReaderId::Slot`]`(i)` — a registered reader that owns dedicated slot
//!   `i`. At most one thread may use a given slot at a time (in NR, the
//!   `ThreadToken` allocated at registration is that exclusive capability).
//! * [`ReaderId::Shared`] — an unregistered reader (diagnostics, the
//!   persistence thread's `with_replica` accesses, tests). All shared
//!   readers count on one overflow line; correct, but not contention-free.
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

use crate::Waiter;

const WRITER: u64 = 1 << 63;
const WAITING_MASK: u64 = WRITER - 1;

/// Identity of a reader for slot-distributed locks ([`DistRwLock`]).
///
/// Locks without per-reader state ([`crate::PhaseFairRwLock`]) accept and
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderId {
    /// A registered reader with exclusive use of dedicated slot `i`.
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
///     let r1 = lock.read(ReaderId::Slot(1)); // readers share
///     assert_eq!(r0.len() + r1.len(), 6);
/// }
/// lock.write().push(4);
/// assert_eq!(lock.read(ReaderId::Shared).len(), 4);
/// ```
// lock-level: 2 a ReplicaLock implementation — see the trait's level
pub struct DistRwLock<T> {
    /// Bit 63: a writer holds the lock. Low bits: writers waiting to
    /// acquire (readers defer to both — writer preference, as in
    /// [`crate::RwSpinLock`]). Readers only *load* this word; in a read-only
    /// phase its cacheline stays Shared in every reader's cache.
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
unsafe impl<T: Send + Sync> Sync for DistRwLock<T> {}

impl<T> DistRwLock<T> {
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
    pub fn read(&self, id: ReaderId) -> DistReadGuard<'_, T> {
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
    pub fn try_read(&self, id: ReaderId) -> Option<DistReadGuard<'_, T>> {
        // ord: early-out only -- this load is NOT part of the SB protocol
        // (the mark + SeqCst recheck below is); Acquire is enough to see a
        // finishing writer's section before we skip the mark.
        if self.writer.load(Ordering::Acquire) != 0 {
            return None;
        }
        let slot = self.slot(id);
        // Mark our own line. fetch_add (not store) so the shared overflow
        // line counts its multiple concurrent readers; for a dedicated slot
        // it is an uncontended 0 → 1 transition on a line only we write.
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
        Some(DistReadGuard { lock: self, id })
    }

    /// Acquires the lock in write (exclusive) mode, blocking politely:
    /// announce intent (so new readers hold off), win the writer flag, then
    /// scan every reader line until all are free.
    pub fn write(&self) -> DistWriteGuard<'_, T> {
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
        DistWriteGuard { lock: self }
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

    /// Raw pointer to the protected data, for the optimistic (seqlock)
    /// read path. Dereferencing it without holding the lock is only sound
    /// under the [`crate::ReplicaLock::with_peek`] contract.
    pub(crate) fn data_ptr(&self) -> *const T {
        self.data.get()
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
        let _other = lock.read(ReaderId::Slot(1));
        let _shared = lock.read(ReaderId::Shared);
        let before: Vec<u64> = (0..5).map(|i| lock.reader_line(i)).collect();
        let writer_before = lock.writer_word();

        let g = lock.read(ReaderId::Slot(2));
        assert_eq!(lock.reader_line(2), before[2] + 1, "own line marked");
        for i in [0usize, 1, 3, 4] {
            assert_eq!(lock.reader_line(i), before[i], "foreign line {i} written");
        }
        assert_eq!(lock.writer_word(), writer_before, "writer word written");
        drop(g);
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
