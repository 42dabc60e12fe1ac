//! A free-list persistent-memory arena.
//!
//! Models the persistent allocator PREP-UC requires (§5.1): the paper uses
//! the simple free-list allocator of Correia et al. (and libvmmalloc for the
//! SOFT comparison) over a persistent memory file that is always mapped at
//! the same virtual address. The two guarantees a PUC needs from it are:
//!
//! 1. allocator operations never corrupt allocated objects on a crash, and
//! 2. allocated objects keep their virtual address across a crash.
//!
//! [`PArena`] provides both within the emulator: the backing region is
//! allocated once and never moves (fixed base), and allocation metadata is
//! updated under a lock, atomically from the crash model's point of view.
//!
//! Layout: segregated power-of-two size classes with intrusive LIFO free
//! lists (a freed block's first word is the next-free offset) and a bump
//! pointer for never-before-used space. Every live block carries a 16-byte
//! header `[block_offset, class]` immediately before the user pointer, so
//! deallocation is O(1) for any alignment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest block class in bytes (must hold the intrusive next pointer and
/// a header).
const MIN_CLASS: usize = 32;
/// Number of size classes: 32 B .. 32 B << (NCLASS-1) (= 64 GiB ceiling).
const NCLASS: usize = 32;
/// Per-block header: `[block_offset: usize][class: usize]` just before the
/// user pointer.
const HEADER: usize = 16;
/// Null sentinel for intrusive free lists (offset 0 is never a block).
const NIL: usize = 0;

fn class_for(total: usize) -> Option<usize> {
    let size = total.next_power_of_two().max(MIN_CLASS);
    let idx = size.trailing_zeros() as usize - MIN_CLASS.trailing_zeros() as usize;
    if idx < NCLASS {
        Some(idx)
    } else {
        None
    }
}

fn class_size(class: usize) -> usize {
    MIN_CLASS << class
}

#[derive(Debug)]
struct Inner {
    /// Next never-used offset (starts past a reserved guard block so offset
    /// 0 can be the free-list null).
    bump: usize,
    /// Head offset of each class's intrusive free list.
    free: [usize; NCLASS],
}

/// A fixed-base persistent memory arena with a free-list allocator.
#[derive(Debug)]
pub struct PArena {
    base: *mut u8,
    size: usize,
    inner: Mutex<Inner>,
    // shared-line: advisory op counters, bumped at most once per alloc or
    // dealloc — both of which already serialize on `inner`; the mutex, not
    // the counter line, is the transfer bottleneck.
    allocs: AtomicU64,
    // shared-line: see `allocs`.
    deallocs: AtomicU64,
}

// SAFETY: all access to the raw region is mediated by the inner mutex (for
// metadata) and by ownership of returned blocks (for payloads).
unsafe impl Send for PArena {}
// SAFETY: see `Send` above.
unsafe impl Sync for PArena {}

impl PArena {
    /// Creates an arena of `size` bytes. The base address is fixed for the
    /// arena's lifetime (the "always mapped at the same virtual address"
    /// requirement).
    ///
    /// # Panics
    /// Panics if `size` is smaller than 4 KiB or the backing allocation
    /// fails.
    pub fn new(size: usize) -> Self {
        assert!(size >= 4096, "arena too small to be useful");
        let layout = Layout::from_size_align(size, 4096).expect("arena layout");
        // SAFETY: layout has nonzero size. Allocated through `System`
        // directly so this works even when PArena backs the process's
        // global allocator (no recursion). Deliberately NOT alloc_zeroed:
        // with 4 KiB alignment the system allocator cannot use calloc and
        // would memset the whole (possibly multi-GiB) region eagerly;
        // uninitialized memory is fine because every arena word (headers,
        // free-list links, payloads) is written before it is read.
        let base = unsafe { System.alloc(layout) };
        assert!(!base.is_null(), "failed to reserve arena backing memory");
        PArena {
            base,
            size,
            inner: Mutex::new(Inner {
                bump: MIN_CLASS, // reserve [0, MIN_CLASS) so 0 is never a block
                free: [NIL; NCLASS],
            }),
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
        }
    }

    /// The fixed base address.
    pub fn base(&self) -> usize {
        self.base as usize
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.size
    }

    /// Bytes handed out by the bump pointer so far (upper bound on live
    /// bytes; freed blocks are reused, not returned to the bump region).
    pub fn high_water(&self) -> usize {
        self.inner.lock().expect("arena poisoned").bump
    }

    /// (allocations, deallocations) served so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            // ord: advisory statistics; no decision synchronizes on them.
            self.allocs.load(Ordering::Relaxed),
            // ord: advisory statistics; no decision synchronizes on them.
            self.deallocs.load(Ordering::Relaxed),
        )
    }

    /// True if `ptr` points into this arena (used to route deallocation when
    /// the arena backs a [`crate::alloc::SwappableAllocator`]).
    #[inline]
    pub fn contains(&self, ptr: *const u8) -> bool {
        let p = ptr as usize;
        let b = self.base as usize;
        p >= b && p < b + self.size
    }

    /// Allocates per `layout`. Returns null when the request cannot be
    /// satisfied (class too large or arena exhausted) — callers may fall
    /// back to the system allocator.
    pub fn alloc(&self, layout: Layout) -> *mut u8 {
        let align = layout.align().max(16);
        let pad = align.saturating_sub(16);
        let total = HEADER + layout.size().max(1) + pad;
        let Some(class) = class_for(total) else {
            return std::ptr::null_mut();
        };
        let csize = class_size(class);

        let block_off = {
            let mut inner = self.inner.lock().expect("arena poisoned");
            if inner.free[class] != NIL {
                let off = inner.free[class];
                // SAFETY: `off` was a block start we handed out before; its
                // first word holds the next-free offset.
                inner.free[class] = unsafe { self.read_word(off) };
                off
            } else {
                // Bump region is 16-aligned by construction (all classes are
                // multiples of 32).
                let off = inner.bump;
                if off.checked_add(csize).is_none_or(|end| end > self.size) {
                    return std::ptr::null_mut();
                }
                inner.bump = off + csize;
                off
            }
        };

        let block = self.base as usize + block_off;
        let user = (block + HEADER + align - 1) & !(align - 1);
        debug_assert!(user + layout.size() <= block + csize);
        debug_assert!(user - HEADER >= block);
        // SAFETY: header slot [user-16, user) lies inside our block.
        unsafe {
            let hdr = (user - HEADER) as *mut usize;
            hdr.write(block_off);
            hdr.add(1).write(class);
        }
        // ord: advisory statistic (see op_counts).
        self.allocs.fetch_add(1, Ordering::Relaxed);
        user as *mut u8
    }

    /// Deallocates a pointer previously returned by [`PArena::alloc`].
    ///
    /// # Safety
    /// `ptr` must have been returned by this arena's `alloc` and not freed
    /// since.
    pub unsafe fn dealloc(&self, ptr: *mut u8) {
        debug_assert!(self.contains(ptr));
        // SAFETY: caller contract — header written by alloc is intact.
        let (block_off, class) = unsafe {
            let hdr = (ptr as usize - HEADER) as *const usize;
            (hdr.read(), hdr.add(1).read())
        };
        debug_assert!(class < NCLASS, "corrupt allocation header");
        let mut inner = self.inner.lock().expect("arena poisoned");
        let head = inner.free[class];
        // SAFETY: the block is ours again; reuse its first word as the link.
        unsafe { self.write_word(block_off, head) };
        inner.free[class] = block_off;
        drop(inner);
        // ord: advisory statistic (see op_counts).
        self.deallocs.fetch_add(1, Ordering::Relaxed);
    }

    /// # Safety
    /// `off` must be a valid word-aligned offset inside the arena.
    unsafe fn read_word(&self, off: usize) -> usize {
        // SAFETY: caller contract.
        unsafe { ((self.base as usize + off) as *const usize).read() }
    }

    /// # Safety
    /// `off` must be a valid word-aligned offset inside the arena, and the
    /// word must not be concurrently accessed (we hold the inner lock or own
    /// the block).
    unsafe fn write_word(&self, off: usize, val: usize) {
        // SAFETY: caller contract.
        unsafe { ((self.base as usize + off) as *mut usize).write(val) }
    }
}

impl Drop for PArena {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.size, 4096).expect("arena layout");
        // SAFETY: allocated with the same layout through System in `new`.
        unsafe { System.dealloc(self.base, layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    #[test]
    fn class_mapping_is_monotone_and_bounded() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(32), Some(0));
        assert_eq!(class_for(33), Some(1));
        assert_eq!(class_for(64), Some(1));
        assert_eq!(class_for(65), Some(2));
        assert!(class_for(usize::MAX / 2).is_none());
        assert_eq!(class_size(0), 32);
        assert_eq!(class_size(3), 256);
    }

    #[test]
    fn alloc_respects_alignment() {
        let arena = PArena::new(1 << 20);
        for align in [1usize, 8, 16, 64, 256, 4096] {
            let p = arena.alloc(layout(24, align));
            assert!(!p.is_null());
            assert_eq!(p as usize % align.max(16), 0, "align {align}");
            assert!(arena.contains(p));
        }
    }

    #[test]
    fn freed_blocks_are_reused_within_class() {
        let arena = PArena::new(1 << 20);
        let p1 = arena.alloc(layout(100, 8));
        let hw1 = arena.high_water();
        // SAFETY: `p1` came from this arena and is freed once.
        unsafe { arena.dealloc(p1) };
        let p2 = arena.alloc(layout(100, 8));
        assert_eq!(p1, p2, "LIFO free list must hand back the same block");
        assert_eq!(arena.high_water(), hw1, "reuse must not bump");
        assert_eq!(arena.op_counts(), (2, 1));
    }

    #[test]
    fn live_allocations_do_not_overlap() {
        let arena = PArena::new(1 << 20);
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for i in 0..200usize {
            let size = (i % 97) + 1;
            let p = arena.alloc(layout(size, 8)) as usize;
            assert_ne!(p, 0);
            for &(q, qs) in &spans {
                assert!(p + size <= q || q + qs <= p, "overlap");
            }
            spans.push((p, size));
        }
    }

    #[test]
    fn writes_survive_and_pointers_are_stable() {
        let arena = PArena::new(1 << 20);
        let p = arena.alloc(layout(64, 8));
        // SAFETY: `p` is a live 64-byte block of this arena.
        unsafe {
            std::ptr::write_bytes(p, 0xAB, 64);
        }
        let base_before = arena.base();
        // Allocate a bunch more; base and contents must be untouched.
        for _ in 0..100 {
            let _ = arena.alloc(layout(128, 8));
        }
        assert_eq!(arena.base(), base_before);
        for i in 0..64 {
            // SAFETY: `p` is a live 64-byte block of this arena.
            assert_eq!(unsafe { *p.add(i) }, 0xAB);
        }
    }

    #[test]
    fn exhaustion_returns_null_not_panic() {
        let arena = PArena::new(4096);
        let mut got_null = false;
        for _ in 0..1000 {
            if arena.alloc(layout(512, 8)).is_null() {
                got_null = true;
                break;
            }
        }
        assert!(got_null, "a 4 KiB arena must exhaust");
    }

    #[test]
    fn oversized_request_returns_null() {
        let arena = PArena::new(1 << 16);
        assert!(arena.alloc(layout(1 << 20, 8)).is_null());
    }

    #[test]
    fn concurrent_alloc_dealloc_is_consistent() {
        use std::sync::Arc;
        let arena = Arc::new(PArena::new(8 << 20));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..500usize {
                        let p = arena.alloc(layout(16 + (i % 64), 8));
                        assert!(!p.is_null());
                        // Tag the block with our thread id and check it later:
                        // catches blocks handed to two threads at once.
                        // SAFETY: `p` is a live block of at least 16 bytes, owned by this thread.
                        unsafe { (p as *mut usize).write(t * 1_000_000 + i) };
                        mine.push((p, t * 1_000_000 + i));
                        if i % 3 == 0 {
                            let (q, tag) = mine.swap_remove(i % mine.len());
                            // SAFETY: `q` is a live block this thread wrote above.
                            assert_eq!(unsafe { (q as *const usize).read() }, tag);
                            // SAFETY: `q` came from this arena and is freed once.
                            unsafe { arena.dealloc(q) };
                        }
                    }
                    for (q, tag) in mine {
                        // SAFETY: `q` is a live block this thread wrote above.
                        assert_eq!(unsafe { (q as *const usize).read() }, tag);
                        // SAFETY: `q` came from this arena and is freed once.
                        unsafe { arena.dealloc(q) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (a, d) = arena.op_counts();
        assert_eq!(a, d, "every allocation freed exactly once");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random alloc/free traces: no returned block overlaps a live one,
        /// alignment always honored.
        #[test]
        fn random_traces_preserve_disjointness(
            ops in proptest::collection::vec((1usize..512, 0u8..4, any::<bool>()), 1..200)
        ) {
            let arena = PArena::new(4 << 20);
            let mut live: Vec<(usize, usize)> = Vec::new();
            for (size, align_pow, free_one) in ops {
                let align = 8usize << align_pow;
                let p = arena.alloc(Layout::from_size_align(size, align).unwrap()) as usize;
                prop_assert!(p != 0);
                prop_assert_eq!(p % align.max(16), 0);
                for &(q, qs) in &live {
                    prop_assert!(p + size <= q || q + qs <= p);
                }
                live.push((p, size));
                if free_one && live.len() > 1 {
                    let (q, _) = live.swap_remove(0);
                    // SAFETY: `q` came from this arena and is freed once.
                    unsafe { arena.dealloc(q as *mut u8) };
                }
            }
        }
    }
}
