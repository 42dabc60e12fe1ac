//! The instrumentation seam: atomics, fences, and peekable plain data.
//!
//! Every primitive in this crate (and the `prep-nr` log built on it) does
//! its shared-memory traffic through this module instead of naming
//! `std::sync::atomic` directly. In a normal build the module is nothing
//! but re-exports — the types *are* `std`'s types, verified by the
//! compile-time assertions below, so the seam is zero-cost by
//! construction. Under `RUSTFLAGS="--cfg prep_mc"` the same names resolve
//! to `prep-mc`'s instrumented cells, and every load, store, RMW, and
//! fence becomes a scheduling + value-choice point for the model checker
//! (see `crates/mc` and the "What prep-mc proves" section of DESIGN.md).
//!
//! [`PeekCell`] is the plain-data counterpart: a bare `UnsafeCell` in
//! normal builds, a happens-before race-detected location under the
//! checker. Seqlock-style readers use [`PeekCell::read_racy`] and must
//! discard the value unless their validation bracket proves no write
//! overlapped.

#[cfg(prep_mc)]
pub use prep_mc::cell::{
    compiler_fence, fence, label, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, PeekCell, Peeked,
};

pub use std::sync::atomic::Ordering;

#[cfg(not(prep_mc))]
pub use std::sync::atomic::{compiler_fence, fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

#[cfg(not(prep_mc))]
mod plain {
    use std::cell::UnsafeCell;

    /// A peeked-read result from [`PeekCell::read_racy`].
    #[derive(Clone, Copy, Debug)]
    pub struct Peeked<T> {
        /// The value read; possibly stale or torn-equivalent when a write
        /// overlapped — callers must validate before trusting it.
        pub value: T,
        /// Whether a concurrent write was detected. Plain builds cannot
        /// detect this; always `false` here (the checker build can).
        pub racy: bool,
    }

    /// Plain shared data behind the instrumentation seam.
    ///
    /// In this (normal) build it is a transparent `UnsafeCell<T>`: reads
    /// and writes compile to ordinary memory accesses and the `unsafe`
    /// contracts carry the synchronization obligations, exactly as if the
    /// caller had used `UnsafeCell` directly. The checker build swaps in
    /// an instrumented cell that *detects* contract violations instead.
    #[derive(Debug)]
    #[repr(transparent)]
    pub struct PeekCell<T> {
        v: UnsafeCell<T>,
    }

    // SAFETY: the cell adds no synchronization; callers order all access
    // (that is the `unsafe` contract on read/write), so sharing the cell
    // is as sound as sharing the UnsafeCell it wraps.
    unsafe impl<T: Send> Send for PeekCell<T> {}
    unsafe impl<T: Send> Sync for PeekCell<T> {}

    impl<T: Copy> PeekCell<T> {
        /// Creates a cell holding `v`.
        pub const fn new(v: T) -> Self {
            PeekCell {
                v: UnsafeCell::new(v),
            }
        }

        /// Reads the value.
        ///
        /// # Safety
        /// No thread may write the cell concurrently.
        #[inline]
        pub unsafe fn read(&self) -> T {
            // SAFETY: caller guarantees no concurrent writer.
            unsafe { *self.v.get() }
        }

        /// Reads the value, consenting to concurrent writes (seqlock-style
        /// optimistic read). The caller must discard `value` unless its
        /// validation protocol proves no write overlapped.
        ///
        /// # Safety
        /// `T: Copy` keeps the read free of drop hazards; the surrounding
        /// validation protocol carries the data-race obligation.
        #[inline]
        pub unsafe fn read_racy(&self) -> Peeked<T> {
            Peeked {
                // SAFETY: per the contract above.
                value: unsafe { *self.v.get() },
                racy: false,
            }
        }

        /// Writes the value.
        ///
        /// # Safety
        /// No other thread may read (except via `read_racy`) or write the
        /// cell concurrently.
        #[inline]
        pub unsafe fn write(&self, val: T) {
            // SAFETY: caller guarantees exclusivity per the contract above.
            unsafe { *self.v.get() = val }
        }

        /// Returns a mutable reference to the value.
        #[inline]
        pub fn get_mut(&mut self) -> &mut T {
            self.v.get_mut()
        }
    }

    /// Names a cell in model-checker traces. A no-op in normal builds.
    #[inline]
    pub fn label<T>(_cell: &T, _name: &'static str) {}
}

#[cfg(not(prep_mc))]
pub use plain::{label, PeekCell, Peeked};

// Zero-cost guard: in normal builds the atomic seam types must *be*
// `std::sync::atomic`'s types — not wrappers, not lookalikes. An identity
// closure only coerces to `fn(A) -> B` when `A` and `B` unify, so each
// line fails to compile if the alias ever drifts. (PeekCell is checked by
// layout instead: it is repr(transparent) over UnsafeCell.)
#[cfg(not(prep_mc))]
const _: () = {
    const _A: fn(std::sync::atomic::AtomicBool) -> AtomicBool = |x| x;
    const _B: fn(std::sync::atomic::AtomicU8) -> AtomicU8 = |x| x;
    const _C: fn(std::sync::atomic::AtomicU64) -> AtomicU64 = |x| x;
    const _D: fn(std::sync::atomic::AtomicUsize) -> AtomicUsize = |x| x;
    const _F: fn(std::sync::atomic::Ordering) = std::sync::atomic::fence;
    const _G: fn(std::sync::atomic::Ordering) = fence;
    assert!(
        std::mem::size_of::<PeekCell<u64>>() == std::mem::size_of::<u64>(),
        "PeekCell must stay layout-transparent"
    );
};
