//! The paper's thread-local allocator swap (§5.1).
//!
//! A PUC cannot hand the sequential implementation a persistent allocator
//! (that would require modifying sequential code), and cannot override the
//! system allocator globally (that would put *everything* in NVM). PREP-UC's
//! answer: wrap the standard allocation entry points in a dispatcher
//! controlled by a **thread-local flag**. The persistence thread sets the
//! flag before calling into the sequential object (so the object's internal
//! `Box`/`Vec` allocations land in the persistent arena) and clears it when
//! control returns; worker threads never set it.
//!
//! [`SwappableAllocator`] is that dispatcher as a Rust `GlobalAlloc`.
//! Binaries that want the full-fidelity behaviour register it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: prep_pmem::alloc::SwappableAllocator =
//!     prep_pmem::alloc::SwappableAllocator::new();
//! ```
//!
//! Deallocation routes by **pointer range**, not by the flag: an object
//! allocated persistently can safely be dropped by a thread in volatile
//! mode (and vice versa), which is exactly what happens when a recovered
//! replica is later rebuilt.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use crate::arena::PArena;

thread_local! {
    static USE_PMEM: Cell<bool> = const { Cell::new(false) };
}

/// Default arena capacity when `PREP_ARENA_BYTES` is unset: 1 GiB (virtual;
/// pages are only touched on use).
const DEFAULT_ARENA_BYTES: usize = 1 << 30;

static GLOBAL_ARENA: OnceLock<PArena> = OnceLock::new();

/// Returns the process-wide persistent arena, creating it on first use.
///
/// Size comes from the `PREP_ARENA_BYTES` environment variable if set.
pub fn global_arena() -> &'static PArena {
    GLOBAL_ARENA.get_or_init(|| {
        // Initialization allocates (env lookup, the arena's bookkeeping);
        // force those onto the system allocator to avoid re-entering the
        // persistent path mid-initialization.
        let _volatile = VolatileGuard::new();
        let size = std::env::var("PREP_ARENA_BYTES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_ARENA_BYTES);
        PArena::new(size)
    })
}

/// True if this thread's allocations currently route to the persistent
/// arena.
#[inline]
pub fn persistent_allocation_enabled() -> bool {
    USE_PMEM.with(|c| c.get())
}

/// RAII guard: routes this thread's allocations to the persistent arena
/// until dropped (restores the previous state, so guards nest).
#[derive(Debug)]
pub struct PersistGuard {
    prev: bool,
}

impl PersistGuard {
    /// Enables persistent allocation for the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let prev = USE_PMEM.with(|c| c.replace(true));
        PersistGuard { prev }
    }
}

impl Drop for PersistGuard {
    fn drop(&mut self) {
        USE_PMEM.with(|c| c.set(self.prev));
    }
}

/// RAII guard forcing *volatile* allocation (used internally during arena
/// initialization; also handy in tests).
#[derive(Debug)]
pub struct VolatileGuard {
    prev: bool,
}

impl VolatileGuard {
    /// Disables persistent allocation for the current thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let prev = USE_PMEM.with(|c| c.replace(false));
        VolatileGuard { prev }
    }
}

impl Drop for VolatileGuard {
    fn drop(&mut self) {
        USE_PMEM.with(|c| c.set(self.prev));
    }
}

/// Runs `f` with persistent allocation enabled on this thread.
///
/// This is the call the persistence thread wraps around every method it
/// invokes on the sequential object.
pub fn with_persistent<R>(f: impl FnOnce() -> R) -> R {
    let _g = PersistGuard::new();
    f()
}

/// A `GlobalAlloc` that dispatches between the system allocator and the
/// persistent arena based on the calling thread's flag.
#[derive(Debug, Default)]
pub struct SwappableAllocator;

impl SwappableAllocator {
    /// Const constructor for use in `#[global_allocator]` statics.
    pub const fn new() -> Self {
        SwappableAllocator
    }
}

// SAFETY: dispatches to System or PArena, both of which uphold GlobalAlloc's
// contract; routing of dealloc by pointer range guarantees each pointer is
// returned to the allocator that produced it.
unsafe impl GlobalAlloc for SwappableAllocator {
    // SAFETY: caller upholds GlobalAlloc's alloc contract (nonzero layout).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if persistent_allocation_enabled() {
            let p = global_arena().alloc(layout);
            if !p.is_null() {
                return p;
            }
            // Arena exhausted: degrade to volatile rather than aborting the
            // process. (Persistence fidelity for this object is lost; the
            // emulator's crash tests size their arenas to avoid this.)
        }
        // SAFETY: forwarding the caller's contract to System.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's alloc contract (nonzero layout).
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if persistent_allocation_enabled() {
            let p = global_arena().alloc(layout);
            if !p.is_null() {
                // Arena blocks are recycled through the free lists (and the
                // backing region starts uninitialized), so zero explicitly.
                // SAFETY: the arena returned a block of at least
                // `layout.size()` bytes that nothing else references yet.
                unsafe { std::ptr::write_bytes(p, 0, layout.size()) };
                return p;
            }
            // Arena exhausted: degrade to volatile, as `alloc` does.
        }
        // The default `alloc_zeroed` is `alloc` + `memset`; System's is
        // `calloc`, which hands large requests fresh zero pages untouched.
        // SAFETY: forwarding the caller's contract to System.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller passes a pointer this allocator returned, with its
    // original layout; the range check below routes it home.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if let Some(arena) = GLOBAL_ARENA.get() {
            if arena.contains(ptr) {
                // SAFETY: range check proves this pointer came from the arena.
                unsafe { arena.dealloc(ptr) };
                return;
            }
        }
        // SAFETY: not an arena pointer, so it came from System.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller passes a live allocation and its layout per the
    // GlobalAlloc realloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_layout =
            Layout::from_size_align(new_size, layout.align()).expect("invalid realloc layout");
        // SAFETY: alloc with a valid layout.
        let new_ptr = unsafe { self.alloc(new_layout) };
        if !new_ptr.is_null() {
            let copy = layout.size().min(new_size);
            // SAFETY: both regions are at least `copy` bytes and disjoint.
            unsafe {
                std::ptr::copy_nonoverlapping(ptr, new_ptr, copy);
                self.dealloc(ptr, layout);
            }
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_restore() {
        assert!(!persistent_allocation_enabled());
        {
            let _a = PersistGuard::new();
            assert!(persistent_allocation_enabled());
            {
                let _b = VolatileGuard::new();
                assert!(!persistent_allocation_enabled());
                {
                    let _c = PersistGuard::new();
                    assert!(persistent_allocation_enabled());
                }
                assert!(!persistent_allocation_enabled());
            }
            assert!(persistent_allocation_enabled());
        }
        assert!(!persistent_allocation_enabled());
    }

    #[test]
    fn with_persistent_scopes_the_flag() {
        let inside = with_persistent(persistent_allocation_enabled);
        assert!(inside);
        assert!(!persistent_allocation_enabled());
    }

    #[test]
    fn flag_is_thread_local() {
        let _g = PersistGuard::new();
        std::thread::spawn(|| {
            assert!(
                !persistent_allocation_enabled(),
                "flag must not leak across threads"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn dispatcher_routes_by_flag_and_range() {
        // Exercise the dispatcher directly (not registered as the global
        // allocator in unit tests; integration tests register it).
        let a = SwappableAllocator::new();
        let layout = Layout::from_size_align(64, 8).unwrap();

        let vol = unsafe { a.alloc(layout) };
        assert!(!vol.is_null());
        assert!(
            GLOBAL_ARENA.get().is_none_or(|ar| !ar.contains(vol)),
            "volatile alloc must not land in the arena"
        );

        let per = with_persistent(|| unsafe { a.alloc(layout) });
        assert!(!per.is_null());
        assert!(global_arena().contains(per));

        // Cross-mode deallocation: free the persistent pointer while in
        // volatile mode and vice versa.
        unsafe {
            a.dealloc(per, layout);
            with_persistent(|| a.dealloc(vol, layout));
        }
    }

    #[test]
    fn alloc_zeroed_is_zero_in_both_modes_and_frees_by_range() {
        let a = SwappableAllocator::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        let all_zero = |p: *mut u8| (0..256).all(|i| unsafe { *p.add(i) } == 0);

        // Persistent: dirty a block, free it, and take it again zeroed (the
        // arena's LIFO free list hands the same block back, but other tests
        // of this binary share the arena, so that is not asserted).
        let dirty = with_persistent(|| unsafe { a.alloc(layout) });
        assert!(global_arena().contains(dirty));
        unsafe {
            std::ptr::write_bytes(dirty, 0xA5, 256);
            a.dealloc(dirty, layout);
        }
        let per = with_persistent(|| unsafe { a.alloc_zeroed(layout) });
        assert!(!per.is_null());
        assert!(global_arena().contains(per));
        assert!(all_zero(per), "recycled arena block not zeroed");

        // Volatile: zeroed, and not from the arena.
        let vol = unsafe { a.alloc_zeroed(layout) };
        assert!(!vol.is_null());
        assert!(!global_arena().contains(vol));
        assert!(all_zero(vol));

        // Each goes home by pointer range, whatever the freeing thread's mode.
        let (_, frees_before) = global_arena().op_counts();
        unsafe {
            a.dealloc(per, layout);
            with_persistent(|| a.dealloc(vol, layout));
        }
        let (_, frees_after) = global_arena().op_counts();
        assert!(frees_after > frees_before, "arena block not returned");
    }

    #[test]
    fn realloc_preserves_contents_across_modes() {
        let a = SwappableAllocator::new();
        let layout = Layout::from_size_align(32, 8).unwrap();
        let p = with_persistent(|| unsafe { a.alloc(layout) });
        unsafe {
            std::ptr::write_bytes(p, 0x5A, 32);
            // Grow while volatile: new block comes from System, contents move.
            let q = a.realloc(p, layout, 128);
            assert!(!q.is_null());
            for i in 0..32 {
                assert_eq!(*q.add(i), 0x5A);
            }
            a.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
    }
}
