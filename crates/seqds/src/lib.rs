//! Sequential data structures for the PREP-UC reproduction.
//!
//! A universal construction takes a **sequential** object and produces a
//! concurrent (and, for PREP-UC, persistent) one. The paper's interface is
//! `ExecuteConcurrent(op, args, is_read_only)`; the Rust equivalent is the
//! [`SequentialObject`] trait, whose associated `Op` type plays the role of
//! the paper's function-pointer-plus-arguments log entry (§5.2 explains why
//! the C++ implementation stores raw function pointers and dispatches
//! through a per-object `Execute` switch; a Rust enum *is* that switch, and
//! unlike `std::function` it remains valid after recovery).
//!
//! Everything here is single-threaded code with no synchronization — that is
//! the whole point: the universal constructions in `prep-nr` / `prep-uc` /
//! `prep-cx` turn these into concurrent persistent objects without touching
//! their code.
//!
//! The structures mirror the paper's evaluation (§6): a resizable
//! chained [`hashmap::HashMap`], a [`rbtree::RbTree`] red-black tree, a
//! [`pqueue::PriorityQueue`], a [`stack::Stack`], a FIFO [`queue::Queue`]
//! (Figure 1c), and a sorted [`list::SortedList`] set. The
//! [`recorder::Recorder`] is test instrumentation: its state is the exact
//! sequence of update operations applied, which makes linearization-prefix
//! properties directly checkable after a simulated crash.

#![warn(missing_docs)]

pub mod hashmap;
pub mod list;
pub mod pqueue;
pub mod queue;
pub mod rbtree;
pub mod recorder;
pub mod stack;

/// A sequential object that a universal construction can replicate.
///
/// Implementations must behave deterministically: `apply` on equal states
/// with equal operations must produce equal results and equal successor
/// states. The universal constructions rely on this to keep replicas
/// identical (every replica applies the same log prefix).
pub trait SequentialObject: Clone + Send + Sync + 'static {
    /// An update or read-only operation, including its arguments. This is
    /// what gets written to the shared log, so it must be plain shareable
    /// data (and survives recovery by construction).
    type Op: Clone + Send + Sync + std::fmt::Debug + 'static;
    /// The response returned to the invoking thread.
    type Resp: Send + std::fmt::Debug + 'static;

    /// Applies `op`, mutating the object and returning the response.
    fn apply(&mut self, op: &Self::Op) -> Self::Resp;

    /// Applies a **read-only** `op` through a shared reference.
    ///
    /// NR executes read-only operations under the replica's reader-writer
    /// lock in *read* mode (§3), so they need shared access. Implementations
    /// must return exactly what [`SequentialObject::apply`] would.
    ///
    /// # Panics
    /// Implementations panic if `op` is not read-only
    /// (`is_read_only(op) == false`); the universal constructions never call
    /// this with an update.
    fn apply_readonly(&self, op: &Self::Op) -> Self::Resp;

    /// True if `op` never mutates the object. Read-only operations bypass
    /// the log (they execute against an up-to-date replica under a read
    /// lock). This is the paper's "optional Boolean argument" on
    /// `ExecuteConcurrent`.
    fn is_read_only(op: &Self::Op) -> bool;

    /// Deep copy, used to instantiate replicas (at construction and during
    /// recovery, §5.1: "we instantiate all N volatile replicas as copies of
    /// the stable persistent replica"). Defaults to `Clone`.
    fn clone_object(&self) -> Self
    where
        Self: Sized,
    {
        self.clone()
    }

    /// Rough current size in bytes, used by the persistence cost model
    /// (WBINVD footprint, CX's whole-replica flush).
    fn approx_bytes(&self) -> u64;

    /// Bytes whose cachelines have been dirtied by updates since the last
    /// [`SequentialObject::clear_dirty`] — what an incremental checkpoint
    /// has to flush instead of the whole structure.
    ///
    /// The default is the conservative fallback: the entire structure
    /// ([`SequentialObject::approx_bytes`]), which makes
    /// `FlushStrategy::DirtyLines` flush the object's whole address range
    /// when it has no precise tracking. Implementations with precise
    /// tracking (all of `prep-seqds`, via [`DirtyTracker`]) return
    /// `64 × |distinct dirty lines|`.
    fn dirty_bytes_since_checkpoint(&self) -> u64 {
        self.approx_bytes()
    }

    /// Resets dirty tracking after a checkpoint flush; from this point the
    /// object accrues a fresh dirty set. Default: no-op (paired with the
    /// whole-structure fallback above).
    fn clear_dirty(&mut self) {}

    /// The distinct dirty cacheline start offsets (in the structure's
    /// logical address space, sorted) accrued since the last
    /// [`SequentialObject::clear_dirty`] — the exact line set an
    /// incremental checkpoint flushes, used by the persistence-ordering
    /// sanitizer to give those flushes address identity. `None` when
    /// precise tracking is unavailable (default, or a saturated
    /// [`DirtyTracker`]): the caller falls back to a whole-structure range
    /// flush, consistent with [`dirty_bytes_since_checkpoint`].
    ///
    /// [`dirty_bytes_since_checkpoint`]: SequentialObject::dirty_bytes_since_checkpoint
    fn dirty_lines_since_checkpoint(&self) -> Option<Vec<u64>> {
        None
    }
}

/// Models a cacheline in bytes — the unit `clflush`/`clflushopt` operate on.
pub const CACHE_LINE: u64 = 64;

/// Tracks the set of **distinct dirty cachelines** of a sequential object
/// between checkpoints, over a *logical* address space the structure
/// defines for itself (e.g. the hashmap maps bucket `b`, slot `s` to a
/// stable offset; the red-black tree maps arena node `i` to `i × 32`).
///
/// Tracking is off until the first [`DirtyTracker::reset`] — the universal
/// construction's persistence thread enables it only on the persistent
/// replicas it checkpoints, so the N volatile NR replicas (which apply every
/// op on the combiner hot path) pay one branch per touch and nothing more.
///
/// While off, [`DirtyTracker::dirty_bytes`] returns the caller-supplied
/// whole-structure fallback, matching the `SequentialObject` default.
#[derive(Debug, Clone, Default)]
pub struct DirtyTracker {
    lines: Option<std::collections::HashSet<u64>>,
    /// Set when a mutation moved the whole structure (e.g. a hashmap
    /// resize or arena reallocation): everything is dirty until `reset`.
    saturated: bool,
}

impl DirtyTracker {
    /// A tracker in the off (fallback) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once [`DirtyTracker::reset`] has switched precise tracking on.
    pub fn is_tracking(&self) -> bool {
        self.lines.is_some()
    }

    /// Marks the lines spanned by `len` bytes at logical offset `offset`.
    #[inline]
    pub fn touch(&mut self, offset: u64, len: u64) {
        if let Some(lines) = &mut self.lines {
            if self.saturated || len == 0 {
                return;
            }
            let first = offset / CACHE_LINE;
            let last = offset.saturating_add(len - 1) / CACHE_LINE;
            for line in first..=last {
                lines.insert(line);
            }
        }
    }

    /// Marks the entire structure dirty (wholesale moves: resize, arena
    /// growth). Cleared by the next [`DirtyTracker::reset`].
    #[inline]
    pub fn touch_all(&mut self) {
        if self.lines.is_some() {
            self.saturated = true;
        }
    }

    /// Bytes to flush for an incremental checkpoint: `64 × |dirty lines|`
    /// when tracking, or `whole_structure` when off or saturated.
    pub fn dirty_bytes(&self, whole_structure: u64) -> u64 {
        match &self.lines {
            Some(lines) if !self.saturated => (lines.len() as u64) * CACHE_LINE,
            _ => whole_structure,
        }
    }

    /// The distinct dirty cacheline start offsets, sorted — `None` while
    /// off or saturated (callers fall back to a whole-structure flush,
    /// mirroring [`DirtyTracker::dirty_bytes`]).
    pub fn lines(&self) -> Option<Vec<u64>> {
        match &self.lines {
            Some(lines) if !self.saturated => {
                let mut out: Vec<u64> = lines.iter().map(|l| l * CACHE_LINE).collect();
                out.sort_unstable();
                Some(out)
            }
            _ => None,
        }
    }

    /// Clears the dirty set and enables precise tracking.
    pub fn reset(&mut self) {
        self.saturated = false;
        match &mut self.lines {
            Some(lines) => lines.clear(),
            None => self.lines = Some(std::collections::HashSet::new()),
        }
    }
}

#[cfg(test)]
mod dirty_tracker_tests {
    use super::*;

    #[test]
    fn off_by_default_falls_back_to_whole_structure() {
        let mut t = DirtyTracker::new();
        assert!(!t.is_tracking());
        t.touch(0, 1024); // ignored while off
        assert_eq!(t.dirty_bytes(9999), 9999);
    }

    #[test]
    fn tracks_distinct_lines_after_reset() {
        let mut t = DirtyTracker::new();
        t.reset();
        assert!(t.is_tracking());
        assert_eq!(t.dirty_bytes(9999), 0);
        t.touch(0, 8); // line 0
        t.touch(8, 8); // line 0 again — no new line
        t.touch(63, 2); // straddles lines 0 and 1
        assert_eq!(t.dirty_bytes(9999), 2 * CACHE_LINE);
        t.reset();
        assert_eq!(t.dirty_bytes(9999), 0);
    }

    #[test]
    fn saturation_reports_whole_structure_until_reset() {
        let mut t = DirtyTracker::new();
        t.reset();
        t.touch(0, 8);
        t.touch_all();
        assert_eq!(t.dirty_bytes(4096), 4096);
        t.reset();
        t.touch(128, 8);
        assert_eq!(t.dirty_bytes(4096), CACHE_LINE);
    }

    #[test]
    fn zero_length_touch_is_ignored() {
        let mut t = DirtyTracker::new();
        t.reset();
        t.touch(100, 0);
        assert_eq!(t.dirty_bytes(4096), 0);
    }
}
