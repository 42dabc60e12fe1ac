//! Instrumented atomic cells, fences, and peekable plain data.
//!
//! These are drop-in shaped like `std::sync::atomic`: outside a model
//! execution every operation passes straight through to a real `std`
//! atomic backing the cell, so the same binary can run instrumented tests
//! and ordinary code. Inside an execution ([`crate::engine::current_tid`]
//! is bound) operations route through the engine, which branches on
//! schedules and on which store each load reads.
//!
//! Address identity: the engine keys locations by cell address, and the
//! registry resets per execution. Create cells *inside* the checked
//! closure (or in `Arc`s made there) so one model location never aliases
//! another across executions.

use std::cell::UnsafeCell;
use std::panic::Location;
use std::sync::atomic::Ordering;

use crate::engine::{current_tid, engine};

macro_rules! instrumented_atomic {
    ($name:ident, $std:ident, $prim:ty, $to:expr, $from:expr) => {
        /// Instrumented counterpart of the same-named `std::sync::atomic`
        /// type (see the module docs for the routing rules).
        #[derive(Debug)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a cell holding `v`.
            pub const fn new(v: $prim) -> Self {
                Self {
                    inner: std::sync::atomic::$std::new(v),
                }
            }

            fn addr(&self) -> usize {
                self as *const _ as usize
            }

            fn initial(&self) -> u64 {
                // Outside the model this is the live value; at first model
                // access it seeds the location's initial store. The cell
                // is only mutated through the engine during an execution,
                // so the backing still holds the pre-execution value.
                ($to)(self.inner.load(Ordering::Relaxed))
            }

            /// Atomic load.
            #[track_caller]
            pub fn load(&self, ord: Ordering) -> $prim {
                match current_tid() {
                    None => self.inner.load(ord),
                    Some(tid) => ($from)(engine().atomic_load(
                        tid,
                        self.addr(),
                        self.initial(),
                        ord,
                        Location::caller(),
                    )),
                }
            }

            /// Atomic store.
            #[track_caller]
            pub fn store(&self, v: $prim, ord: Ordering) {
                match current_tid() {
                    None => self.inner.store(v, ord),
                    Some(tid) => engine().atomic_store(
                        tid,
                        self.addr(),
                        self.initial(),
                        ($to)(v),
                        ord,
                        Location::caller(),
                    ),
                }
            }

            /// Atomic swap.
            #[track_caller]
            pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                match current_tid() {
                    None => self.inner.swap(v, ord),
                    Some(tid) => {
                        let (old, _) = engine().atomic_rmw(
                            tid,
                            self.addr(),
                            self.initial(),
                            &|_| ($to)(v),
                            None,
                            ord,
                            Ordering::Relaxed,
                            Location::caller(),
                        );
                        ($from)(old)
                    }
                }
            }

            /// Atomic compare-exchange.
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match current_tid() {
                    None => self.inner.compare_exchange(current, new, success, failure),
                    Some(tid) => {
                        let (old, ok) = engine().atomic_rmw(
                            tid,
                            self.addr(),
                            self.initial(),
                            &|_| ($to)(new),
                            Some(($to)(current)),
                            success,
                            failure,
                            Location::caller(),
                        );
                        if ok {
                            Ok(($from)(old))
                        } else {
                            Err(($from)(old))
                        }
                    }
                }
            }

            /// Atomic compare-exchange, weak form. The model does not
            /// inject spurious failures (every modeled failure corresponds
            /// to a real value mismatch) — callers must already loop, and
            /// spurious failure adds no states a retry loop can distinguish.
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match current_tid() {
                    None => self
                        .inner
                        .compare_exchange_weak(current, new, success, failure),
                    Some(_) => self.compare_exchange(current, new, success, failure),
                }
            }

            /// Returns a mutable reference to the value. `&mut self` proves
            /// exclusivity, so the model value (if any) is synced into the
            /// backing cell first.
            pub fn get_mut(&mut self) -> &mut $prim {
                self.sync_backing();
                self.inner.get_mut()
            }

            /// Consumes the cell, returning the value.
            pub fn into_inner(self) -> $prim {
                self.sync_backing();
                self.inner.into_inner()
            }

            fn sync_backing(&self) {
                if current_tid().is_some() {
                    if let Some(v) = engine().latest_value(self.addr()) {
                        self.inner.store(($from)(v), Ordering::Relaxed);
                    }
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(Default::default())
            }
        }
    };
}

macro_rules! instrumented_fetch {
    ($name:ident, $prim:ty, $to:expr, $from:expr) => {
        impl $name {
            /// Atomic wrapping add; returns the previous value.
            #[track_caller]
            pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, &|old| ($to)(($from)(old).wrapping_add(v)))
            }

            /// Atomic wrapping subtract; returns the previous value.
            #[track_caller]
            pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, &|old| ($to)(($from)(old).wrapping_sub(v)))
            }

            /// Atomic bitwise and; returns the previous value.
            #[track_caller]
            pub fn fetch_and(&self, v: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, &|old| ($to)(($from)(old) & v))
            }

            /// Atomic bitwise or; returns the previous value.
            #[track_caller]
            pub fn fetch_or(&self, v: $prim, ord: Ordering) -> $prim {
                self.rmw(ord, &|old| ($to)(($from)(old) | v))
            }

            #[track_caller]
            fn rmw(&self, ord: Ordering, f: &dyn Fn(u64) -> u64) -> $prim {
                match current_tid() {
                    None => {
                        // Passthrough via a CAS loop on the backing cell:
                        // only reached outside executions, where this cell
                        // is an ordinary atomic.
                        let mut old = self.inner.load(Ordering::Relaxed);
                        loop {
                            let new = ($from)(f(($to)(old)));
                            match self
                                .inner
                                .compare_exchange_weak(old, new, ord, Ordering::Relaxed)
                            {
                                Ok(prev) => return prev,
                                Err(seen) => old = seen,
                            }
                        }
                    }
                    Some(tid) => {
                        let (old, _) = engine().atomic_rmw(
                            tid,
                            self.addr(),
                            self.initial(),
                            f,
                            None,
                            ord,
                            Ordering::Relaxed,
                            Location::caller(),
                        );
                        ($from)(old)
                    }
                }
            }
        }
    };
}

instrumented_atomic!(AtomicU64, AtomicU64, u64, |v: u64| v, |v: u64| v);
instrumented_atomic!(
    AtomicUsize,
    AtomicUsize,
    usize,
    |v: usize| v as u64,
    |v: u64| v as usize
);
instrumented_atomic!(AtomicU8, AtomicU8, u8, |v: u8| v as u64, |v: u64| v as u8);
instrumented_atomic!(
    AtomicBool,
    AtomicBool,
    bool,
    |v: bool| v as u64,
    |v: u64| v != 0
);

instrumented_fetch!(AtomicU64, u64, |v: u64| v, |v: u64| v);
instrumented_fetch!(AtomicUsize, usize, |v: usize| v as u64, |v: u64| v as usize);
instrumented_fetch!(AtomicU8, u8, |v: u8| v as u64, |v: u64| v as u8);

impl AtomicBool {
    /// Atomic bitwise and; returns the previous value.
    #[track_caller]
    pub fn fetch_and(&self, v: bool, ord: Ordering) -> bool {
        match current_tid() {
            None => self.inner.fetch_and(v, ord),
            Some(tid) => {
                let (old, _) = engine().atomic_rmw(
                    tid,
                    self.addr(),
                    self.initial(),
                    &|old| ((old != 0) && v) as u64,
                    None,
                    ord,
                    Ordering::Relaxed,
                    Location::caller(),
                );
                old != 0
            }
        }
    }

    /// Atomic bitwise or; returns the previous value.
    #[track_caller]
    pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
        match current_tid() {
            None => self.inner.fetch_or(v, ord),
            Some(tid) => {
                let (old, _) = engine().atomic_rmw(
                    tid,
                    self.addr(),
                    self.initial(),
                    &|old| ((old != 0) || v) as u64,
                    None,
                    ord,
                    Ordering::Relaxed,
                    Location::caller(),
                );
                old != 0
            }
        }
    }
}

/// Memory fence. Inside the model, acquire fences promote the
/// synchronization carried by earlier relaxed loads and release fences
/// cover later relaxed stores, per the C11 fence rules.
#[track_caller]
pub fn fence(ord: Ordering) {
    match current_tid() {
        None => std::sync::atomic::fence(ord),
        Some(tid) => engine().fence(tid, ord, Location::caller()),
    }
}

/// Compiler fence: no inter-thread semantics, so the model treats it as a
/// no-op (it constrains only same-thread compiler reordering, which a
/// sequential interpreter trivially respects).
pub fn compiler_fence(ord: Ordering) {
    if current_tid().is_none() {
        std::sync::atomic::compiler_fence(ord);
    }
}

/// A peeked-read result from [`PeekCell::read_racy`].
#[derive(Clone, Copy, Debug)]
pub struct Peeked<T> {
    /// The value read (possibly from a stale or torn-equivalent store when
    /// `racy` is true — callers must validate before use).
    pub value: T,
    /// Whether a concurrent (unordered) write existed at the read.
    pub racy: bool,
}

/// Plain (non-atomic) data with model-checked race detection.
///
/// Outside the model this is a bare `UnsafeCell` — the `unsafe` contracts
/// on [`read`](PeekCell::read) and [`write`](PeekCell::write) are the real
/// synchronization obligations. Inside the model the same calls become
/// *checked*: an unordered write racing a `read`/`write` is reported as a
/// [`crate::FailureKind::DataRace`] with a full trace, and a
/// [`read_racy`](PeekCell::read_racy) may observe stale values (the
/// seqlock "torn read" the validate step must reject).
#[derive(Debug)]
pub struct PeekCell<T> {
    init: UnsafeCell<T>,
    /// Values written during the current execution, indexed by engine
    /// store index minus one (index 0 is `init`).
    vals: UnsafeCell<Vec<T>>,
}

// SAFETY: like UnsafeCell-wrapping lock internals, the cell itself does
// no synchronization; the engine (or the caller's real synchronization,
// outside the model) orders all access.
unsafe impl<T: Send> Send for PeekCell<T> {}
// SAFETY: shared access is mediated by the engine's peek protocol (or by
// the caller's protocol outside the model); see Send above.
unsafe impl<T: Send> Sync for PeekCell<T> {}

impl<T: Copy> PeekCell<T> {
    /// Creates a cell holding `v`.
    pub const fn new(v: T) -> Self {
        PeekCell {
            init: UnsafeCell::new(v),
            vals: UnsafeCell::new(Vec::new()),
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    fn value_at(&self, idx: usize) -> T {
        // SAFETY: the engine holds no references into us; we run while
        // holding the scheduler token, so no other model thread touches
        // `vals`, and `idx` came from a store this cell recorded.
        unsafe {
            if idx == 0 {
                *self.init.get()
            } else {
                (&*self.vals.get())[idx - 1]
            }
        }
    }

    /// Reads the value.
    ///
    /// # Safety
    /// No thread may write the cell concurrently. Inside the model a
    /// violation is detected and reported rather than being undefined.
    #[track_caller]
    pub unsafe fn read(&self) -> T {
        match current_tid() {
            // SAFETY: forwarded caller contract (no concurrent writer).
            None => unsafe { *self.init.get() },
            Some(tid) => {
                let (idx, _) = engine().peek_read(tid, self.addr(), false, Location::caller());
                self.value_at(idx)
            }
        }
    }

    /// Reads the value, consenting to races: the result may be stale or
    /// inconsistent and `racy` says whether a concurrent write existed.
    /// For seqlock-style readers that validate before using the value.
    ///
    /// # Safety
    /// The caller must discard `value` unless its own validation protocol
    /// (e.g. a seqlock's version re-check) proves no write overlapped. Outside the model this is a plain read
    /// of shared data — `T: Copy` keeps that free of drop hazards, and the
    /// surrounding protocol carries the UB obligation.
    #[track_caller]
    pub unsafe fn read_racy(&self) -> Peeked<T> {
        match current_tid() {
            None => Peeked {
                // SAFETY: forwarded caller contract (validate-or-discard).
                value: unsafe { *self.init.get() },
                racy: false,
            },
            Some(tid) => {
                let (idx, racy) = engine().peek_read(tid, self.addr(), true, Location::caller());
                Peeked {
                    value: self.value_at(idx),
                    racy,
                }
            }
        }
    }

    /// Writes the value.
    ///
    /// # Safety
    /// No other thread may read or write the cell concurrently. Inside
    /// the model a violation is detected and reported.
    #[track_caller]
    pub unsafe fn write(&self, v: T) {
        match current_tid() {
            // SAFETY: forwarded caller contract (exclusive access).
            None => unsafe { *self.init.get() = v },
            Some(tid) => {
                let idx = engine().peek_write(tid, self.addr(), Location::caller());
                // Store indices restart at 1 each execution; drop leftovers
                // from a previous execution so index i+1 is always vals[i].
                // SAFETY: token-holding model thread; no other thread (and
                // no engine reference) touches `vals` concurrently.
                unsafe {
                    let vals = &mut *self.vals.get();
                    vals.truncate(idx - 1);
                    vals.push(v);
                }
            }
        }
    }

    /// Returns a mutable reference to the value (exclusive by `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        if current_tid().is_some() {
            if let Some(idx) = engine().latest_peek_index(self.addr()) {
                if idx > 0 {
                    let v = self.value_at(idx);
                    *self.init.get_mut() = v;
                }
            }
        }
        self.init.get_mut()
    }
}

/// Names a cell for counterexample traces (otherwise locations are named
/// by their first-access source line). Callable before or after first
/// access; a no-op outside the model.
pub fn label<T>(cell: &T, name: &'static str) {
    if current_tid().is_some() {
        engine().label(cell as *const _ as usize, name);
    }
}
