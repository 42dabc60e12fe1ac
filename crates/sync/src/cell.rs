//! The instrumentation seam: atomics and fences.
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
//! Plain data has no seam: a lock's payload is a bare `UnsafeCell` the
//! checker cannot see, so the model-checker tests thread their own
//! race-checked oracle (`prep_mc::cell::PeekCell`) through each critical
//! section.

#[cfg(prep_mc)]
pub use prep_mc::cell::{compiler_fence, fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

pub use std::sync::atomic::Ordering;

#[cfg(not(prep_mc))]
pub use std::sync::atomic::{compiler_fence, fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

// Zero-cost guard: in normal builds the atomic seam types must *be*
// `std::sync::atomic`'s types — not wrappers, not lookalikes. An identity
// closure only coerces to `fn(A) -> B` when `A` and `B` unify, so each
// line fails to compile if the alias ever drifts.
#[cfg(not(prep_mc))]
const _: () = {
    const _A: fn(std::sync::atomic::AtomicBool) -> AtomicBool = |x| x;
    const _B: fn(std::sync::atomic::AtomicU8) -> AtomicU8 = |x| x;
    const _C: fn(std::sync::atomic::AtomicU64) -> AtomicU64 = |x| x;
    const _D: fn(std::sync::atomic::AtomicUsize) -> AtomicUsize = |x| x;
    const _F: fn(std::sync::atomic::Ordering) = std::sync::atomic::fence;
    const _G: fn(std::sync::atomic::Ordering) = fence;
};
