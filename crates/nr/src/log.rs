//! The shared circular operation log.
//!
//! Entries are addressed by **monotonic** u64 indexes; the physical slot is
//! `index % size` and `lap = index / size`. Each entry carries the paper's
//! *emptyBit*: a flag whose full/empty meaning flips every lap, so slots can
//! be reused without clearing (§3: "Each time the log wraps around the
//! parity of the emptyBit's meaning flips"). An entry at index `i` is full
//! iff `empty_bit == (lap(i) is even)` — on lap 0, `true` means full; on lap
//! 1, `false` means full; and so on.
//!
//! Safety protocol (upheld by the universal construction, not the log):
//!
//! * an index is **written** only by the combiner that reserved it (a
//!   successful `reserve` grants exclusive write access to the range);
//! * an index is **read** only after `is_full(index)` has been observed;
//! * a slot is **reused** (written in lap L+1) only after every replica's
//!   localTail has passed the lap-L index — guaranteed by the `logMin`
//!   protocol in the universal construction.

use prep_sync::cell::{AtomicBool, AtomicU64, Ordering};
use std::alloc::{handle_alloc_error, GlobalAlloc, Layout, System};
use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ops::Deref;

use crossbeam_utils::CachePadded;
use prep_sync::Waiter;

/// One log slot: the emptyBit plus space for an operation.
///
/// Slots are stored cacheline-padded (§5.1: combiners on different nodes
/// write disjoint reserved ranges while appliers poll emptyBits; without
/// padding, a write to slot `i` invalidates the line holding neighboring
/// slots on every other core polling them — false sharing that grows with
/// thread count).
struct Entry<O> {
    // shared-line: the container is padded as a whole (`Slot<O>` below) —
    // the emptyBit intentionally shares its line with its own payload, and
    // with nothing else.
    empty_bit: AtomicBool,
    op: UnsafeCell<MaybeUninit<O>>,
}

// SAFETY: cross-thread access to `op` is ordered by `empty_bit`
// (release-store on write, acquire-load before read) under the protocol in
// the module docs.
unsafe impl<O: Send> Send for Entry<O> {}
unsafe impl<O: Send> Sync for Entry<O> {}

/// A log slot as stored: one [`Entry`] padded to its own cachelines.
type Slot<O> = CachePadded<Entry<O>>;

/// The slot array: `len` [`Slot`]s in memory that starts out all-zero and is
/// only faulted in by the slots a run actually touches.
///
/// An empty log is nothing but zero bytes (emptyBit `false`, payload
/// uninitialized), so the array comes zeroed straight from the OS instead of
/// being written slot by slot: building a log — every construction, every
/// recovery — costs the same for 2²⁰ slots as for 2⁸, and a log's resident
/// memory is the slots written so far, not its capacity.
struct Slab<O> {
    /// The allocation as `System` returned it; only `Drop` uses it.
    raw: *mut u8,
    /// The first slot: `raw` rounded up to `Slot<O>`'s alignment.
    slots: *mut Slot<O>,
    len: usize,
}

// SAFETY: `Slab` owns its allocation exclusively (the raw pointers never
// leave the type) and hands out only `&[Slot<O>]`, so it is `Send`/`Sync`
// exactly when a `Box<[Slot<O>]>` would be — when `Entry<O>` is, above.
unsafe impl<O: Send> Send for Slab<O> {}
unsafe impl<O: Send> Sync for Slab<O> {}

impl<O> Slab<O> {
    /// The allocation behind `len` slots: the slots plus one alignment of
    /// slack to round the base up by. It asks for byte alignment on purpose.
    /// `System.alloc_zeroed` is `calloc` — fresh zero pages from the kernel,
    /// none touched — only while the requested alignment is one `malloc`
    /// already guarantees; any larger request becomes an aligned `malloc`
    /// plus a `memset` that faults in every page, which is the cost this
    /// type exists to avoid.
    fn layout(len: usize) -> Layout {
        len.checked_mul(size_of::<Slot<O>>())
            .and_then(|bytes| bytes.checked_add(align_of::<Slot<O>>()))
            .and_then(|bytes| Layout::from_size_align(bytes, 1).ok())
            .expect("log size overflows the address space")
    }

    fn new(len: usize) -> Self {
        let layout = Self::layout(len);
        // SAFETY: `layout` is never zero-sized (it includes the slack).
        // `System` is named directly rather than reached through the
        // registered global allocator: a `GlobalAlloc` wrapper that does not
        // override `alloc_zeroed` inherits the default `alloc` + `memset`.
        let raw = unsafe { System.alloc_zeroed(layout) };
        if raw.is_null() {
            handle_alloc_error(layout);
        }
        let pad = (raw as usize).wrapping_neg() % align_of::<Slot<O>>();
        // SAFETY: `pad < align_of::<Slot<O>>()`, the slack `layout` added,
        // so `raw + pad` and the `len` slots after it lie inside the
        // allocation.
        let slots = unsafe { raw.add(pad) }.cast::<Slot<O>>();
        #[cfg(prep_mc)]
        for i in 0..len {
            // The model checker's instrumented `AtomicBool` promises no
            // layout, so zero bytes are not known to be a valid one: build
            // each slot by value (its logs have a handful of slots).
            // SAFETY: slot `i` is in bounds and aligned (see above), and
            // nothing reads it before this write.
            unsafe {
                slots.add(i).write(CachePadded::new(Entry {
                    empty_bit: AtomicBool::new(false),
                    op: UnsafeCell::new(MaybeUninit::uninit()),
                }))
            };
        }
        Slab { raw, slots, len }
    }
}

impl<O> Deref for Slab<O> {
    type Target = [Slot<O>];

    fn deref(&self) -> &[Slot<O>] {
        // SAFETY: `slots` is aligned and points at `len` slots inside the
        // allocation this `Slab` owns until `Drop`. Every one of them is a
        // valid `Slot<O>`: all-zero bytes are `empty_bit == false` (std's
        // `AtomicBool` is a `u8`, 0 = `false`), `MaybeUninit<O>` accepts
        // any bytes, and `UnsafeCell`/`CachePadded` add only padding — and
        // the `prep_mc` build wrote each slot by value in `new`. Shared
        // access is sound because all mutation goes through the atomic or
        // the `UnsafeCell`.
        unsafe { std::slice::from_raw_parts(self.slots, self.len) }
    }
}

impl<O> Drop for Slab<O> {
    fn drop(&mut self) {
        // A `Slot<O>` has no drop glue (the payload is `MaybeUninit`; `Log`'s
        // own `Drop` releases the initialized ones first), so freeing the
        // memory is all there is to do.
        // SAFETY: `raw` came from `System.alloc_zeroed(Self::layout(len))`
        // in `new`, `layout` is a pure function of `len`, and `&mut self`
        // in `drop` means no slot reference is left.
        unsafe { System.dealloc(self.raw, Self::layout(self.len)) };
    }
}

/// The shared circular operation log.
pub struct Log<O> {
    entries: Slab<O>,
    size: u64,
    log_tail: CachePadded<AtomicU64>,
    completed_tail: CachePadded<AtomicU64>,
    log_min: CachePadded<AtomicU64>,
}

impl<O: Clone> Log<O> {
    /// Creates a log with `size` slots, in time and resident memory
    /// independent of `size` (see [`Slab`]).
    ///
    /// # Panics
    /// Panics if `size < 2`.
    pub fn new(size: u64) -> Self {
        assert!(size >= 2, "log must have at least two slots");
        let slots = usize::try_from(size).expect("log size overflows the address space");
        Log {
            entries: Slab::new(slots),
            size,
            log_tail: CachePadded::new(AtomicU64::new(0)),
            completed_tail: CachePadded::new(AtomicU64::new(0)),
            // Paper: logMin = LOG_SIZE - 1 initially.
            log_min: CachePadded::new(AtomicU64::new(size - 1)),
        }
    }

    /// Number of slots.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The emptyBit value that means "full" for `index`'s lap.
    #[inline]
    fn full_flag(&self, index: u64) -> bool {
        (index / self.size).is_multiple_of(2)
    }

    #[inline]
    fn entry(&self, index: u64) -> &Entry<O> {
        &self.entries[(index % self.size) as usize]
    }

    /// Current `logTail` (first unreserved index).
    #[inline]
    pub fn log_tail(&self) -> u64 {
        // ord: Acquire pairs with the reservation CAS so a combiner that
        // sees tail t also sees the reservations before t.
        self.log_tail.load(Ordering::Acquire)
    }

    /// Current `completedTail`.
    #[inline]
    pub fn completed_tail(&self) -> u64 {
        // ord: Acquire pairs with advance_completed_tail's AcqRel CAS:
        // seeing `t` means entries below `t` were published first.
        self.completed_tail.load(Ordering::Acquire)
    }

    /// Current `logMin`.
    #[inline]
    pub fn log_min(&self) -> u64 {
        // ord: Acquire pairs with set_log_min's Release: a combiner that
        // sees the new lowMark also sees the slow replica's progress that
        // justified it (safe slot reuse).
        self.log_min.load(Ordering::Acquire)
    }

    /// Publishes a new `logMin` (only the thread that reserved the lowMark
    /// entry does this, see `uc::NodeReplicated::update_or_wait_on_log_min`).
    #[inline]
    pub(crate) fn set_log_min(&self, v: u64) {
        // ord: Release publishes the scan that computed the new lowMark
        // (see log_min's Acquire).
        self.log_min.store(v, Ordering::Release);
    }

    /// Attempts to reserve `n` entries starting at `expected_tail` via CAS.
    /// On success the caller owns indexes `[expected_tail,
    /// expected_tail + n)` for writing.
    #[inline]
    pub(crate) fn try_reserve(&self, expected_tail: u64, n: u64) -> bool {
        self.log_tail
            // ord: AcqRel — Release publishes our view of logMin checks to
            // later reservers; Acquire orders our writes into the reserved
            // slots after earlier reservations. Failure re-reads the tail
            // (Acquire) for the caller's retry.
            .compare_exchange(
                expected_tail,
                expected_tail + n,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// True once `index` holds a fully written operation for its current
    /// lap.
    #[inline]
    pub fn is_full(&self, index: u64) -> bool {
        // ord: Acquire pairs with publish's Release — a full emptyBit makes
        // the payload write visible before any read of the slot.
        self.entry(index).empty_bit.load(Ordering::Acquire) == self.full_flag(index)
    }

    /// Writes the operation payload of `index` **without** publishing it
    /// (the emptyBit is untouched). Split from [`Log::publish`] so the
    /// durable implementation can flush payloads, fence, and only then set
    /// emptyBits (§4.1 "Operation Log").
    ///
    /// # Safety
    /// The caller must own `index` via a successful reservation, the slot
    /// must be reusable (logMin protocol), and `write_payload`/`publish`
    /// must be called exactly once each per owned index.
    pub(crate) unsafe fn write_payload(&self, index: u64, op: O) {
        let e = self.entry(index);
        // SAFETY: the caller's reservation makes this thread the only one
        // touching the slot, so the `&mut` is unique. On lap 0 the slot is
        // uninitialized and is only written. On any later lap it still holds
        // the previous lap's payload (every index below `size` was written
        // before the tail could wrap, and nothing else drops payloads while
        // the log lives), so that value is dropped exactly once here before
        // the overwrite; `Drop for Log` drops whatever each slot holds last.
        unsafe {
            let slot = &mut *e.op.get();
            if self.lap_written(index) {
                slot.assume_init_drop();
            }
            slot.write(op);
        }
    }

    /// True if the slot for `index` currently holds an initialized value
    /// from a previous lap (i.e. `index >= size` means the slot was written
    /// on every earlier lap by the reuse protocol).
    #[inline]
    fn lap_written(&self, index: u64) -> bool {
        index >= self.size
    }

    /// Publishes `index`: flips the emptyBit to this lap's "full" value.
    ///
    /// # Safety
    /// Same contract as [`Log::write_payload`], which must have been called
    /// for `index` first.
    pub(crate) unsafe fn publish(&self, index: u64) {
        self.entry(index)
            .empty_bit
            // ord: Release publishes the payload written by write_payload;
            // pairs with is_full's Acquire.
            .store(self.full_flag(index), Ordering::Release);
    }

    /// Clones the operation at `index`, spinning until it is published.
    ///
    /// # Safety
    /// `index` must be protected from reuse (the caller's replica localTail
    /// has not passed it, so the logMin protocol pins it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) unsafe fn wait_and_read(&self, index: u64) -> O {
        let mut w = Waiter::new();
        while !self.is_full(index) {
            w.wait();
        }
        // SAFETY: is_full (acquire) synchronizes with publish (release); the
        // payload is initialized and pinned per caller contract.
        unsafe { (*self.entry(index).op.get()).assume_init_ref().clone() }
    }

    /// Clones the (possibly still unpublished) payload at `index`.
    ///
    /// # Safety
    /// The caller must own `index` via a reservation and have already
    /// called [`Log::write_payload`] for it. Unlike [`Log::wait_and_read`]
    /// this does not wait for the emptyBit, so it is only sound for the
    /// reserving combiner reading its own batch back.
    pub(crate) unsafe fn read_own_payload(&self, index: u64) -> O {
        // SAFETY: the owner wrote the payload on this same thread; no other
        // thread writes an owned slot.
        unsafe { (*self.entry(index).op.get()).assume_init_ref().clone() }
    }

    /// Advances `completedTail` to at least `to` via CAS-max. Returns `true`
    /// if this call performed an advance.
    pub(crate) fn advance_completed_tail(&self, to: u64) -> bool {
        // ord: optimistic snapshot; the CAS below re-validates.
        let mut cur = self.completed_tail.load(Ordering::Relaxed);
        while cur < to {
            // ord: AcqRel — Release so a reader that observes the new
            // completedTail (Acquire in completed_tail) sees the published
            // entries below it; failure just reloads the counter.
            match self.completed_tail.compare_exchange_weak(
                cur,
                to,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
        false
    }

    /// Iterates the published operations in `[from, to)` in log order,
    /// spinning on any not-yet-published entry.
    ///
    /// Used by appliers (combiners, the persistence thread, recovery): the
    /// indexes must be pinned against reuse by the caller's localTail.
    pub fn for_each_op(&self, from: u64, to: u64, mut f: impl FnMut(u64, &O)) {
        for idx in from..to {
            let mut w = Waiter::new();
            while !self.is_full(idx) {
                w.wait();
            }
            // SAFETY: published + pinned per caller contract (same as
            // `wait_and_read`).
            let op = unsafe { (*self.entry(idx).op.get()).assume_init_ref() };
            f(idx, op);
        }
    }
}

/// Model-checking seam: re-exposes the crate-private reservation protocol
/// so the `prep-mc` property tests (crates/mc/tests) can drive the log
/// op-by-op under the exhaustive scheduler. Compiled only under
/// `RUSTFLAGS="--cfg prep_mc"`; normal builds carry no extra surface.
#[cfg(prep_mc)]
impl<O: Clone> Log<O> {
    /// Seam for [`Log::try_reserve`].
    pub fn mc_try_reserve(&self, expected_tail: u64, n: u64) -> bool {
        self.try_reserve(expected_tail, n)
    }

    /// Seam for [`Log::write_payload`].
    ///
    /// # Safety
    /// Same contract as [`Log::write_payload`].
    pub unsafe fn mc_write_payload(&self, index: u64, op: O) {
        // SAFETY: forwarded contract.
        unsafe { self.write_payload(index, op) }
    }

    /// Seam for [`Log::publish`].
    ///
    /// # Safety
    /// Same contract as [`Log::publish`].
    pub unsafe fn mc_publish(&self, index: u64) {
        // SAFETY: forwarded contract.
        unsafe { self.publish(index) }
    }

    /// Seam for [`Log::advance_completed_tail`].
    pub fn mc_advance_completed_tail(&self, to: u64) -> bool {
        self.advance_completed_tail(to)
    }
}

impl<O> Drop for Log<O> {
    fn drop(&mut self) {
        // Drop every slot that holds an initialized value. Slot s has been
        // written iff some index with `index % size == s` was published;
        // given the sequential reservation protocol that is exactly the
        // slots below the high-water mark `log_tail`.
        let tail = *self.log_tail.get_mut();
        let written = tail.min(self.size);
        for s in 0..written {
            // SAFETY: slot was written at least once and never dropped.
            unsafe { (*self.entries[s as usize].op.get()).assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reserve helper for tests (the UC drives this in production).
    fn reserve<O: Clone>(log: &Log<O>, n: u64) -> u64 {
        loop {
            let t = log.log_tail();
            if log.try_reserve(t, n) {
                return t;
            }
        }
    }

    #[test]
    fn entries_are_cacheline_padded() {
        // Two adjacent slots must never share a cacheline (§5.1 false
        // sharing): the padded slot is at least a line wide and
        // line-aligned.
        let slot = size_of::<Slot<u64>>();
        let align = align_of::<Slot<u64>>();
        assert!(slot >= 64, "padded slot smaller than a cacheline: {slot}");
        assert!(align >= 64, "padded slot under-aligned: {align}");
        assert!(slot.is_multiple_of(align));
        // The slab aligns its base by hand; sizes on both sides of malloc's
        // mmap threshold, where the raw pointer's own alignment differs.
        for len in [2usize, 3, 1 << 8, 1 << 16] {
            let slab: Slab<u64> = Slab::new(len);
            assert_eq!(slab.len(), len);
            let base = slab.as_ptr() as usize;
            assert_eq!(base % align, 0, "slab base under-aligned at len {len}");
            let last = &slab[len - 1] as *const Slot<u64> as usize;
            assert_eq!(last - base, (len - 1) * slot);
            assert!(last + slot <= slab.raw as usize + Slab::<u64>::layout(len).size());
        }
    }

    /// Resident set size of this process in KiB.
    #[cfg(all(target_os = "linux", not(prep_mc)))]
    fn vm_rss_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    #[cfg(all(target_os = "linux", not(prep_mc)))]
    fn default_sized_log_is_not_resident_until_written() {
        // 2^20 slots are 128 MiB of address space; building the log must
        // not touch them. Other tests of this binary allocate concurrently,
        // so take the best of a few attempts — an eagerly written log fails
        // every one of them by a factor of 30.
        let grew = (0..3)
            .map(|_| {
                let before = vm_rss_kib();
                let log: Log<u64> = Log::new(1 << 20);
                let after = vm_rss_kib();
                assert_eq!(log.size(), 1 << 20);
                after.saturating_sub(before)
            })
            .min()
            .unwrap();
        assert!(
            grew < 4 * 1024,
            "Log::new(1 << 20) made {grew} KiB resident"
        );
    }

    #[test]
    fn zeroed_slots_read_empty_on_every_lap_until_published() {
        let size = 1u64 << 20;
        let log: Log<u64> = Log::new(size);
        // Untouched (all-zero) slots: empty on lap 0, first and last alike.
        for i in [0, 1, size / 2, size - 1] {
            assert!(!log.is_full(i), "zeroed slot {i} reads full on lap 0");
        }
        let s = reserve(&log, 1);
        assert_eq!(s, 0);
        unsafe {
            log.write_payload(0, 7);
            log.publish(0);
        }
        assert!(log.is_full(0));
        assert_eq!(unsafe { log.wait_and_read(0) }, 7);
        // The lap-0 publish must not make the slot read full on lap 1.
        assert!(!log.is_full(size), "lap-1 view of a lap-0 entry reads full");
        assert!(!log.is_full(1), "neighbour of a published slot reads full");
    }

    #[test]
    fn first_and_last_slot_round_trip_and_drop_once() {
        use std::sync::Arc;
        // Every payload is a clone of one Arc, so its strong count is the
        // number of payloads alive: a leak leaves it high, a double free
        // underflows it.
        let payload = Arc::new("op".to_string());
        let size = 1u64 << 10;
        let log: Log<Arc<String>> = Log::new(size);
        let s = reserve(&log, size);
        assert_eq!(s, 0);
        for i in 0..size {
            unsafe {
                log.write_payload(i, Arc::clone(&payload));
                log.publish(i);
            }
        }
        assert_eq!(Arc::strong_count(&payload), 1 + size as usize);
        for i in [0, size - 1] {
            assert!(log.is_full(i));
            let read = unsafe { log.wait_and_read(i) };
            assert!(Arc::ptr_eq(&read, &payload));
        }
        // Lap 1 over the first slot drops the lap-0 payload it replaces.
        let s = reserve(&log, 1);
        assert_eq!(s, size);
        unsafe {
            log.write_payload(size, Arc::clone(&payload));
            log.publish(size);
        }
        assert_eq!(Arc::strong_count(&payload), 1 + size as usize);
        drop(log);
        assert_eq!(Arc::strong_count(&payload), 1, "log leaked payloads");
    }

    #[test]
    fn indexes_start_at_paper_initial_values() {
        let log: Log<u64> = Log::new(8);
        assert_eq!(log.log_tail(), 0);
        assert_eq!(log.completed_tail(), 0);
        assert_eq!(log.log_min(), 7); // LOG_SIZE - 1
        assert_eq!(log.size(), 8);
    }

    #[test]
    fn log_indexes_table1_semantics() {
        // Table 1: logTail = last log entry (first unreserved); completedTail
        // trails it; both monotone.
        let log: Log<u64> = Log::new(8);
        let start = reserve(&log, 3);
        assert_eq!(start, 0);
        assert_eq!(log.log_tail(), 3);
        assert!(log.advance_completed_tail(3));
        assert_eq!(log.completed_tail(), 3);
        // CAS-max: advancing backwards is a no-op.
        assert!(!log.advance_completed_tail(2));
        assert_eq!(log.completed_tail(), 3);
        assert!(!log.advance_completed_tail(3));
    }

    #[test]
    fn publish_makes_entries_readable() {
        let log: Log<String> = Log::new(4);
        let i = reserve(&log, 2);
        assert!(!log.is_full(i));
        unsafe {
            log.write_payload(i, "a".to_string());
            log.write_payload(i + 1, "b".to_string());
        }
        // Payload written but not published: still empty.
        assert!(!log.is_full(i));
        unsafe {
            log.publish(i);
            log.publish(i + 1);
        }
        assert!(log.is_full(i));
        assert_eq!(unsafe { log.wait_and_read(i) }, "a");
        assert_eq!(unsafe { log.wait_and_read(i + 1) }, "b");
    }

    #[test]
    fn empty_bit_parity_flips_per_lap() {
        let log: Log<u64> = Log::new(4);
        // Lap 0: write all four entries.
        let s = reserve(&log, 4);
        for i in s..s + 4 {
            unsafe {
                log.write_payload(i, i);
                log.publish(i);
            }
        }
        for i in 0..4 {
            assert!(log.is_full(i));
        }
        // Lap 1 indexes map to the same slots but read as EMPTY until
        // rewritten — the parity flip at work.
        for i in 4..8u64 {
            assert!(!log.is_full(i), "lap-1 index {i} must read empty");
        }
        // Rewrite slot 0 on lap 1.
        let s = reserve(&log, 1);
        assert_eq!(s, 4);
        unsafe {
            log.write_payload(4, 44);
            log.publish(4);
        }
        assert!(log.is_full(4));
        assert_eq!(unsafe { log.wait_and_read(4) }, 44);
        // Lap-2 view of the same slot is empty again.
        assert!(!log.is_full(8));
    }

    #[test]
    fn for_each_op_yields_in_order() {
        let log: Log<u64> = Log::new(16);
        let s = reserve(&log, 5);
        for i in s..s + 5 {
            unsafe {
                log.write_payload(i, i * 10);
                log.publish(i);
            }
        }
        let mut seen = Vec::new();
        log.for_each_op(1, 4, |idx, op| seen.push((idx, *op)));
        assert_eq!(seen, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn wait_and_read_blocks_until_published() {
        use std::sync::Arc;
        let log: Arc<Log<u64>> = Arc::new(Log::new(4));
        let s = reserve(&*log, 1);
        let l2 = Arc::clone(&log);
        let reader = std::thread::spawn(move || unsafe { l2.wait_and_read(s) });
        std::thread::sleep(std::time::Duration::from_millis(10));
        unsafe {
            log.write_payload(s, 99);
            log.publish(s);
        }
        assert_eq!(reader.join().unwrap(), 99);
    }

    #[test]
    fn concurrent_reservations_are_disjoint() {
        use std::sync::Arc;
        let log: Arc<Log<u64>> = Arc::new(Log::new(1 << 16));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..200 {
                        let s = reserve(&*log, 3);
                        mine.push(s);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // 800 reservations of 3 entries: starts must be exactly 0,3,6,...
        for (i, s) in all.iter().enumerate() {
            assert_eq!(*s, (i as u64) * 3);
        }
        assert_eq!(log.log_tail(), 2400);
    }

    #[test]
    fn drop_releases_published_entries_without_leak_or_double_free() {
        // Use Strings so Miri/asan-style issues would surface as UB or
        // leaks under normal test runs with a crash.
        let log: Log<String> = Log::new(4);
        let s = reserve(&log, 3);
        for i in s..s + 3 {
            unsafe {
                log.write_payload(i, format!("x{i}"));
                log.publish(i);
            }
        }
        drop(log); // must drop exactly 3 strings
    }

    #[test]
    fn reserve_write_read_model_trace() {
        // Model-based single-threaded trace: interleave reservations,
        // publications and reads arbitrarily; every published index must
        // read back its own value and only become full after publication.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let log: Log<u64> = Log::new(8);
        let mut reserved: Vec<u64> = Vec::new(); // written but unpublished
        let mut published: std::collections::BTreeSet<u64> = Default::default();
        let mut applied = 0u64; // simulated single replica tail
        for _ in 0..2000 {
            match rng.gen_range(0..3) {
                0 => {
                    // Reserve+write one entry if the ring has room
                    // (single-replica logMin analogue: tail - applied < size).
                    let tail = log.log_tail();
                    if tail - applied < log.size() - 1 && log.try_reserve(tail, 1) {
                        unsafe { log.write_payload(tail, tail * 3) };
                        assert!(!log.is_full(tail), "unpublished entry reads full");
                        reserved.push(tail);
                    }
                }
                1 => {
                    if let Some(idx) = reserved.pop() {
                        unsafe { log.publish(idx) };
                        published.insert(idx);
                    }
                }
                _ => {
                    // Apply the contiguous published prefix, in order.
                    while published.remove(&applied) {
                        assert!(log.is_full(applied));
                        assert_eq!(unsafe { log.wait_and_read(applied) }, applied * 3);
                        applied += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn overwrite_on_next_lap_drops_previous_value() {
        let log: Log<String> = Log::new(2);
        for lap in 0..3u64 {
            for slot in 0..2u64 {
                let i = lap * 2 + slot;
                let s = reserve(&log, 1);
                assert_eq!(s, i);
                unsafe {
                    log.write_payload(i, format!("v{i}"));
                    log.publish(i);
                }
            }
        }
        assert_eq!(unsafe { log.wait_and_read(4) }, "v4");
        assert_eq!(unsafe { log.wait_and_read(5) }, "v5");
    }
}
