//! Seqlock-style version cell.
//!
//! **No engine path uses this type.** NR and CX once ran read-only
//! operations against a replica with no lock held and used this cell to
//! detect an overlapping writer afterwards. Validation can discard a torn
//! *result*, but it cannot stop the read from dereferencing a torn pointer
//! first, and every `seqds` object chases pointers (`Vec` buckets, `Box`
//! nodes), so that read path was deleted; a caught-up read now takes its
//! own slot of the replica's reader-writer lock (DESIGN.md § "The read
//! path"). The cell survives, with its unit and model-checker tests,
//! because the repo benchmark's `sync.seqversion_read_ns` probe
//! (`benchmark/src/layers.rs`) compiles against it.
//!
//! A single monotonically increasing 64-bit version:
//!
//! * **even** — the protected data is stable (no write in progress);
//! * **odd**  — a writer is mid-write; any concurrent read is suspect.
//!
//! A writer that is already exclusive brackets every mutation with
//! [`write_begin`](SeqVersion::write_begin) /
//! [`write_end`](SeqVersion::write_end). A reader snapshots the version
//! with [`read_begin`](SeqVersion::read_begin), reads, then calls
//! [`validate`](SeqVersion::validate): an unchanged version means no writer
//! overlapped the read. The reader side performs only loads.
//!
//! Memory-ordering recipe (Boehm, "Can seqlocks get along with programming
//! language memory models?", MSPC 2012 — the same shape crossbeam's
//! `SeqLock` uses):
//!
//! ```text
//! writer                              reader
//! ------                              ------
//! store v+1 (Relaxed)   [odd]         v1 = load (Acquire)
//! fence(Release)                      if v1 odd: bail
//! ... mutate data ...                 ... read data ...
//! store v+2 (Release)   [even]        fence(Acquire)
//!                                     v2 = load (Relaxed)
//!                                     valid ⇔ v1 == v2
//! ```
//!
//! The `Release` fence keeps the odd store visible before any
//! mutation; the even store's `Release` keeps every mutation visible before
//! the version returns to even; the reader's `Acquire` fence keeps its
//! data reads from sinking below the re-validation load. Either the
//! reader's `v2` sees a bump (read discarded) or both loads bracket a
//! quiescent period (read valid).

use crate::cell::{fence, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// A seqlock-style version word.
///
/// Writers must already be mutually exclusive; the cell only publishes
/// *whether* a write overlapped a read, it does not arbitrate between
/// writers.
///
/// ```
/// use prep_sync::SeqVersion;
/// let v = SeqVersion::new();
/// let snap = v.read_begin().expect("stable");
/// // ... read the protected data ...
/// assert!(v.validate(snap)); // no writer ran: the read is consistent
///
/// v.write_begin();
/// assert!(v.read_begin().is_none()); // mid-write: readers bail immediately
/// v.write_end();
/// assert!(!v.validate(snap)); // a write completed: old snapshots invalid
/// ```
#[derive(Debug)]
pub struct SeqVersion {
    /// Even = stable, odd = write in progress. Padded: this word is loaded
    /// by every reader and must not false-share with anything a writer
    /// scribbles on.
    version: CachePadded<AtomicU64>,
}

impl SeqVersion {
    /// Creates a cell at version 0 (stable).
    pub const fn new() -> Self {
        SeqVersion {
            version: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Marks a write in progress (even → odd). Caller must hold exclusive
    /// access to the protected data for the whole `write_begin`/`write_end`
    /// bracket.
    #[inline]
    pub fn write_begin(&self) {
        // ord: Relaxed store + Release fence, the writer-begin half of the
        // seqlock recipe (module docs): the fence keeps this odd store
        // visible before any subsequent mutation, so a reader that
        // overlaps a mutation cannot still observe the old even version.
        // The store itself is single-writer (callers are exclusive).
        let v = self.version.load(Ordering::Relaxed);
        debug_assert_eq!(v & 1, 0, "write_begin while already writing");
        // ord: Relaxed store is sound because the following Release fence
        // orders it before every subsequent mutation (single writer).
        self.version.store(v + 1, Ordering::Relaxed);
        // ord: Release fence orders the odd store above before every
        // mutation that follows in the bracket; pairs with the
        // reader-side Acquire (read_begin's load / validate's fence).
        fence(Ordering::Release);
    }

    /// Marks the write complete (odd → even), publishing the mutation.
    #[inline]
    pub fn write_end(&self) {
        // ord: Release store, the canonical publish: every mutation
        // in the bracket happens-before the version's return to even, so a
        // reader whose validate observes this even value also observes the
        // fully-applied data.
        let v = self.version.load(Ordering::Relaxed);
        debug_assert_eq!(v & 1, 1, "write_end without write_begin");
        // ord: Release publishes every mutation in the bracket before the
        // version returns to even (pairs with read_begin's Acquire).
        self.version.store(v + 1, Ordering::Release);
    }

    /// Reader side, step 1: snapshot the version. Returns `None` if a write
    /// is in progress (odd) — the caller should retry or fall back.
    #[inline]
    pub fn read_begin(&self) -> Option<u64> {
        // ord: Acquire pairs with write_end's Release store: a reader that
        // sees version v even also sees every mutation published by the
        // write that produced v, and its subsequent data loads cannot
        // float above this load.
        let v = self.version.load(Ordering::Acquire);
        if v & 1 == 0 {
            Some(v)
        } else {
            None
        }
    }

    /// Reader side, step 2: after reading the protected data, returns true
    /// iff no write overlapped since [`read_begin`](Self::read_begin)
    /// returned `snapshot` — i.e. the read was a consistent snapshot and
    /// may be used.
    #[inline]
    #[must_use = "a read that fails validation must be discarded"]
    pub fn validate(&self, snapshot: u64) -> bool {
        // ord: Acquire fence + Relaxed load, the reader-end half of the
        // seqlock recipe (module docs): the fence keeps the caller's data
        // loads from sinking below this re-validation load, so version
        // equality really does bracket the data reads.
        fence(Ordering::Acquire);
        // ord: Relaxed load is sound because the preceding Acquire fence
        // orders it after the caller's bracketed data reads.
        self.version.load(Ordering::Relaxed) == snapshot
    }

    /// Current raw version (advisory: tests).
    #[inline]
    pub fn current(&self) -> u64 {
        // ord: advisory snapshot; readers of the protected data use
        // read_begin/validate instead.
        self.version.load(Ordering::Relaxed)
    }
}

impl Default for SeqVersion {
    fn default() -> Self {
        SeqVersion::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn protocol_steps() {
        let v = SeqVersion::new();
        assert_eq!(v.current(), 0);
        let s = v.read_begin().unwrap();
        assert!(v.validate(s));

        v.write_begin();
        assert_eq!(v.current(), 1);
        assert!(v.read_begin().is_none(), "odd version must stall readers");
        assert!(!v.validate(s), "overlapping write must invalidate");
        v.write_end();
        assert_eq!(v.current(), 2);

        assert!(!v.validate(s), "completed write must invalidate old snaps");
        let s2 = v.read_begin().unwrap();
        assert!(v.validate(s2));
    }

    /// The reader side is pure loads: the version word is bit-identical
    /// after any number of read_begin/validate calls.
    #[test]
    fn reads_never_store() {
        let v = SeqVersion::new();
        v.write_begin();
        v.write_end();
        let before = v.current();
        for _ in 0..1000 {
            let s = v.read_begin().unwrap();
            assert!(v.validate(s));
        }
        assert_eq!(v.current(), before, "a read mutated the version word");
    }

    /// Torn-read detection under churn: a writer keeps a two-word invariant
    /// inside the bracket; readers accept a snapshot only when validation
    /// passes, and every accepted snapshot must be consistent.
    #[test]
    fn validation_rejects_torn_reads() {
        let v = Arc::new(SeqVersion::new());
        let data = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let stop = Arc::new(AtomicBool::new(false));

        let writer = {
            let (v, data, stop) = (Arc::clone(&v), Arc::clone(&data), Arc::clone(&stop));
            thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    n += 1;
                    v.write_begin();
                    // ord: test payload; the SeqVersion bracket provides the
                    // publish edges under test.
                    data.0.store(n, Ordering::Relaxed);
                    data.1.store(n, Ordering::Relaxed);
                    v.write_end();
                }
            })
        };

        // On one CPU the writer can sit descheduled mid-bracket (version
        // odd) for a whole scheduling quantum; yield instead of burning
        // the loop on `None`, and run until enough reads validated.
        let mut accepted = 0u64;
        let mut attempts = 0u64;
        while accepted < 1_000 && attempts < 5_000_000 {
            attempts += 1;
            if let Some(s) = v.read_begin() {
                // ord: test payload reads; bracketed by read_begin/validate.
                let a = data.0.load(Ordering::Relaxed);
                let b = data.1.load(Ordering::Relaxed);
                if v.validate(s) {
                    accepted += 1;
                    assert_eq!(a, b, "validated read observed a torn pair");
                }
            } else {
                thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(accepted > 0, "no read ever validated");
    }
}
