//! The traced run's recorder: spans kept in memory and written as JSON
//! lines when the workload ends, and the allocation counter behind
//! `proc.allocs_per_op`.
//!
//! Spans are recorded by the benchmark's own threads around their calls
//! into each layer; nothing under `crates/` is instrumented. Spans of one
//! request share its `id`; `parent` names the span that caused this one.
//! A span's self time is its duration minus its children's.

use std::alloc::{GlobalAlloc, Layout};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use prep_pmem::alloc::SwappableAllocator;

/// Most spans one trace file holds (about 100 bytes each).
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Writes `spans` to `<package>/out/trace-<workload>.jsonl`, one object
/// per line, and returns the path.
pub fn write_jsonl(workload: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir)?;
    let path = format!("{dir}/trace-{workload}.jsonl");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans.iter().take(MAX_SPANS) {
        writeln!(
            out,
            "{{\"span\":\"{}\",\"parent\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.parent, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}

/// The process allocator: `prep_pmem`'s swappable allocator — without it
/// the persistence thread's allocator swap (paper section 5.1) is a no-op
/// and the persist path is cheaper than in the shipped binaries — plus a
/// counter that only runs while a traced slice is being measured.
pub struct CountingAllocator(SwappableAllocator);

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

impl CountingAllocator {
    pub const fn new() -> Self {
        CountingAllocator(SwappableAllocator::new())
    }
}

/// Turns allocation counting on or off.
pub fn count_allocs(on: bool) {
    // ord: a statistic; no data is published through the flag.
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    // ord: a statistic.
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every call forwards to `SwappableAllocator`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's contract is passed through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ord: statistics only (both).
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarding the caller's contract.
        unsafe { self.0.alloc(layout) }
    }

    // SAFETY: the caller's contract is passed through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `self.0.alloc` or `realloc` with `layout`.
        unsafe { self.0.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's contract is passed through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ord: statistics only (both).
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarding the caller's contract.
        unsafe { self.0.realloc(ptr, layout, new_size) }
    }
}
