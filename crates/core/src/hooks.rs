//! PREP's implementation of the NR persistence hook points.
//!
//! [`HookState`] is the shared persistence state: the published checkpoint's
//! tail (the flush boundary is that plus ε), the persistent replicas'
//! localTails (mirrored as atomics for the logMin scan), the active-replica
//! selector, and the NVM images of the UC-managed persistent variables (log
//! entries, `completedTail`, `p_activePReplica`). It is shared between the
//! worker-side hooks and whichever thread runs the persistence cycle.
//!
//! One function forces an early checkpoint,
//! [`HookState::request_checkpoint`], and it has three callers: a combiner
//! refused at the gate (a checkpoint raises the boundary), the logMin scan
//! when its straggler is a persistent replica (Algorithm 3's help), and
//! `PrepUc::nudge_checkpoint` (the §2.2 sync point). Each posts a standing
//! request and runs the cycle itself if it is free.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam_utils::CachePadded;
use prep_nr::NrHooks;
use prep_pmem::psan::{PublishTag, Region};
use prep_pmem::{LogImage, PersistentCell, PmemRuntime, Traced};
use prep_sync::WakeSlot;

use crate::config::{DurabilityLevel, PsanFault};

/// Logical NVM addresses of everything this construction persists, used by
/// the persistence-ordering sanitizer (`prep-psan`) to give stores and
/// flushes identity. Allocated unconditionally at construction (regions
/// are just address-space reservations); traced only when the runtime's
/// tracer is enabled.
///
/// Log addressing is by **monotonic log index**, never by recycled
/// physical slot: entry `idx` occupies bytes `[idx·eb, (idx+1)·eb)` with
/// its emptyBit last, where `eb = size_of::<O>() + 1` matches the packed
/// layout `span_lines` charges for. Recycling a slot (logMin) gets a fresh
/// logical address, so laps never alias.
pub(crate) struct PsanLayout {
    /// Base of the log's logical address space.
    pub(crate) log_base: u64,
    /// `d_completedTail`'s cell.
    pub(crate) ct_addr: u64,
    /// `p_activePReplica`'s cell.
    pub(crate) p_active_addr: u64,
    /// One region per persistent replica (the structure's logical dirty
    /// address space maps 1:1 into it).
    pub(crate) replicas: [Region; 2],
}

impl PsanLayout {
    fn new(rt: &PmemRuntime) -> Self {
        PsanLayout {
            log_base: rt.psan_region("log", 1 << 40).base,
            ct_addr: rt.psan_region("completedTail", 8).base,
            p_active_addr: rt.psan_region("pActivePReplica", 8).base,
            replicas: [
                rt.psan_region("pReplica0", 1 << 40),
                rt.psan_region("pReplica1", 1 << 40),
            ],
        }
    }
}

/// Shared persistence state (see module docs).
pub(crate) struct HookState<O: Clone> {
    pub(crate) rt: Arc<PmemRuntime>,
    pub(crate) durability: DurabilityLevel,
    pub(crate) fence_per_entry: bool,
    /// Sanitizer address layout for the UC-managed persistent variables.
    pub(crate) psan: PsanLayout,
    /// Seeded ordering bug for sanitizer-validation tests (always `None`
    /// outside those tests).
    pub(crate) psan_fault: Option<PsanFault>,
    /// ε: how far past the published checkpoint the gate admits
    /// reservations.
    pub(crate) epsilon: u64,
    /// Volatile mirror of the persistent replicas' localTails, read by the
    /// logMin scan.
    pub(crate) p_tails: [CachePadded<AtomicU64>; 2],
    /// Volatile mirror of which persistent replica is active (0 or 1).
    pub(crate) p_active: CachePadded<AtomicU64>,
    /// Largest completedTail known to be durable (durable mode).
    pub(crate) persisted_ct: CachePadded<AtomicU64>,
    /// Largest localTail covered by a *published* checkpoint (the stable
    /// replica's tail at the moment its selector became durable). Unlike
    /// `p_tails` — which track *applied* state and can run ahead of any
    /// checkpoint on the active replica — this only advances after the
    /// swap, so it is a crash-survivability watermark in both modes.
    /// The flush boundary (Algorithm 2/4) is `durable_tail + ε`
    /// ([`HookState::flush_boundary`]), so `flushBoundary ≤ stableTail + ε`,
    /// the invariant the ε + β − 1 loss bound rests on, holds by
    /// definition.
    pub(crate) durable_tail: CachePadded<AtomicU64>,
    /// Largest `completedTail` somebody has asked to have checkpointed now
    /// rather than at the flush boundary ([`HookState::request_checkpoint`]).
    /// The request stands until `durable_tail` reaches it, so one that
    /// lands while a checkpoint is in flight is served by the next one.
    pub(crate) sync_request: CachePadded<AtomicU64>,
    /// Where the idle persistence thread parks. Three events wake it, each
    /// after a `SeqCst` publish of the word its ready check reads: a
    /// combiner's `completedTail` advance that reaches `wake_at`, a
    /// checkpoint request that found the task busy (when it is free, the
    /// requesting thread runs the cycle itself), and `Drop`'s stop.
    pub(crate) persist_wake: WakeSlot,
    /// The `completedTail` at which a combiner wakes the parked
    /// persistence thread for background apply: halfway from the active
    /// replica's applied tail to the flush boundary, at most a small batch
    /// on, stored (`SeqCst`) before each park. `u64::MAX` until the first
    /// park.
    pub(crate) wake_at: CachePadded<AtomicU64>,
    /// Where `quiesce_persistence` parks until `durable_tail` covers it.
    /// The persistence thread wakes it after every published checkpoint.
    pub(crate) quiesce_wake: WakeSlot,
    /// Called after every published checkpoint, by the thread that wrote
    /// it (`PrepUc::set_checkpoint_listener`).
    pub(crate) checkpoint_listener: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Runs one persistence cycle on the calling thread if the task is
    /// free, and says whether it did. `PrepUc` installs it at construction,
    /// over a `Weak` of its `PersistenceTask` (which holds this state, so a
    /// strong reference would be a cycle).
    pub(crate) try_cycle: OnceLock<Box<dyn Fn() -> bool + Send + Sync>>,
    /// Shutdown flag for the persistence thread and the reserve gate.
    pub(crate) stop: AtomicBool,
    /// NVM image of `d_completedTail` (durable mode).
    pub(crate) ct_cell: PersistentCell<u64>,
    /// NVM image of `p_activePReplica`.
    pub(crate) p_active_cell: PersistentCell<u64>,
    /// NVM image of the persisted log entries (durable mode).
    pub(crate) log_image: LogImage<O>,
}

impl<O: Clone> HookState<O> {
    pub(crate) fn new(
        rt: Arc<PmemRuntime>,
        durability: DurabilityLevel,
        epsilon: u64,
        fence_per_entry: bool,
        psan_fault: Option<PsanFault>,
    ) -> Arc<Self> {
        let psan = PsanLayout::new(&rt);
        Arc::new(HookState {
            rt,
            durability,
            fence_per_entry,
            psan,
            psan_fault,
            epsilon,
            p_tails: [
                CachePadded::new(AtomicU64::new(0)),
                CachePadded::new(AtomicU64::new(0)),
            ],
            p_active: CachePadded::new(AtomicU64::new(0)),
            persisted_ct: CachePadded::new(AtomicU64::new(0)),
            durable_tail: CachePadded::new(AtomicU64::new(0)),
            sync_request: CachePadded::new(AtomicU64::new(0)),
            persist_wake: WakeSlot::new(),
            wake_at: CachePadded::new(AtomicU64::new(u64::MAX)),
            quiesce_wake: WakeSlot::new(),
            checkpoint_listener: OnceLock::new(),
            try_cycle: OnceLock::new(),
            stop: AtomicBool::new(false),
            ct_cell: PersistentCell::new(0),
            p_active_cell: PersistentCell::new(0),
            log_image: LogImage::new(),
        })
    }

    /// The flush boundary: ε past the published checkpoint. The gate
    /// admits reservations that start below it.
    pub(crate) fn flush_boundary(&self) -> u64 {
        // ord: Acquire pairs with the cycle's SeqCst watermark publish,
        // which follows the selector's CLFLUSH: admitting tail t implies the
        // checkpoint that justified boundary > t is durable.
        self.durable_tail.load(Ordering::Acquire) + self.epsilon
    }

    /// Asks for every entry below `ct` to be checkpointed now, and runs the
    /// persistence cycle on the calling thread if nobody else is running
    /// it; otherwise wakes the persistence thread, which finds the request
    /// standing. The thread that wants a checkpoint (a nudger, a combiner
    /// refused at the gate, a logMin scan stuck on a persistent replica)
    /// writes it itself rather than wait to be scheduled after the
    /// persistence thread. Checkpointing before the boundary is reached
    /// only tightens the loss bound. The cycle also applies the active
    /// replica up to `completedTail`, which is the help a logMin scan
    /// needs when the active replica is its straggler.
    pub(crate) fn request_checkpoint(&self, ct: u64) {
        self.sync_request
            // ord: SeqCst — Release so the cycle's Acquire load of the
            // request sees the completions that motivated it; Acquire
            // orders racing requests (fetch_max keeps only the furthest);
            // SeqCst because it is the publish half of the WakeSlot pair the
            // wake below completes.
            .fetch_max(ct, Ordering::SeqCst);
        if !self.try_cycle.get().is_some_and(|cycle| cycle()) {
            self.persist_wake.wake();
        }
    }

    /// PREP-Durable's half of `ensure_completed_tail_durable`: make a
    /// `completedTail ≥ ct` durable before the response is released.
    fn persist_completed_tail(&self, ct: u64) {
        // §5.2 flush-reduction protocol: skip the flush if some thread
        // already persisted a covering value; otherwise flush and publish
        // the new durable watermark. `record_max` keeps the NVM image
        // monotone under races between flushers of different values.
        // ord: Acquire pairs with the AcqRel fetch_max below — a covering
        // value implies the covering publish_clflush happened-before us.
        if self.persisted_ct.load(Ordering::Acquire) >= ct {
            return;
        }
        // Store + CLFLUSH as one atomic persist: `completedTail` publishes
        // every log byte below it, and a separate store/flush pair would
        // make a crash cut falling between the two look like a stale value
        // the sanitizer cannot tell from a real race.
        self.rt.publish_clflush(
            self.psan.ct_addr,
            std::mem::size_of::<u64>() as u64,
            &[(self.psan.log_base, ct * Self::entry_bytes())],
            PublishTag::CompletedTail,
            "PrepHooks::ensure_completed_tail_durable",
        );
        self.ct_cell.record_max(&self.rt, ct);
        // ord: AcqRel — the release side publishes our flush to the skip
        // check above; acquire keeps competing maxima ordered.
        self.persisted_ct.fetch_max(ct, Ordering::AcqRel);
    }

    /// Bytes one log entry occupies in the packed NVM log layout (payload +
    /// emptyBit), for flush accounting.
    #[inline]
    fn entry_bytes() -> u64 {
        std::mem::size_of::<O>() as u64 + 1
    }

    /// Distinct cachelines spanned by entries `[from, to)` of the packed
    /// NVM log. Adjacent small entries share lines, so flushing a batch
    /// costs one `CLFLUSHOPT` per *spanned* line — not one per entry.
    /// ([`HookState::flush_entry_span`] issues exactly this many flushes;
    /// tests assert the arithmetic directly.)
    #[cfg_attr(
        not(test),
        allow(
            dead_code,
            reason = "the unit tests assert the flush arithmetic through it"
        )
    )]
    #[inline]
    fn span_lines(from: u64, to: u64) -> u64 {
        let eb = Self::entry_bytes();
        ((to * eb).div_ceil(64) - (from * eb) / 64).max(1)
    }

    /// Logical NVM address of entry `idx`'s first payload byte.
    #[inline]
    fn payload_addr(&self, idx: u64) -> u64 {
        self.psan.log_base + idx * Self::entry_bytes()
    }

    /// Logical NVM address of entry `idx`'s emptyBit (its last byte).
    #[inline]
    fn empty_bit_addr(&self, idx: u64) -> u64 {
        self.psan.log_base + (idx + 1) * Self::entry_bytes() - 1
    }

    /// Asynchronously flushes each distinct cacheline spanned by entries
    /// `[from, to)` — exactly [`HookState::span_lines`] many `CLFLUSHOPT`s
    /// (the log region base is line-aligned), each carrying its line
    /// address for the sanitizer. `traced` is the caller's trace of the
    /// stores the span holds.
    fn flush_entry_span(&self, from: u64, to: u64, site: &'static str, traced: &Traced) {
        let eb = Self::entry_bytes();
        let first = (self.psan.log_base + from * eb) / 64;
        let last = (self.psan.log_base + to * eb).div_ceil(64).max(first + 1);
        for line in first..last {
            self.rt.clflushopt_at(line * 64, site, traced);
        }
    }
}

/// The [`NrHooks`] implementation PREP plugs into `NodeReplicated`.
pub struct PrepHooks<O: Clone + Send + 'static> {
    pub(crate) state: Arc<HookState<O>>,
}

impl<O: Clone + Send + Sync + 'static> NrHooks<O> for PrepHooks<O> {
    fn reserve_admitted(&self, tail: u64) -> bool {
        // Algorithm 4: refuse while the reservation would pass the flush
        // boundary. Strictly (`tail >= boundary`, not `>`), which is what
        // makes the ε + β − 1 loss bound tight: reservation starts stay
        // ≤ boundary − 1, so at most (boundary − 1) + β entries ever exist
        // beyond the published checkpoint (= boundary − ε).
        //
        // On shutdown the persistence thread no longer advances the
        // boundary; admit rather than hang (loss bounds are only claimed
        // for non-shut-down instances).
        tail < self.state.flush_boundary()
            // ord: Acquire pairs with shutdown's stop Release: once seen,
            // the final persist pass has already been ordered before it.
            || self.state.stop.load(Ordering::Acquire)
    }

    fn checkpoint_now(&self, completed_tail: u64) {
        // Not `durable_watermark()`: in durable mode the persisted
        // `completedTail` covers everything, and a request skipped on its
        // strength would never raise the boundary.
        self.state.request_checkpoint(completed_tail);
    }

    fn persist_batch_payload(&self, range: Range<u64>) {
        if self.state.durability != DurabilityLevel::Durable {
            return;
        }
        if range.is_empty() {
            return;
        }
        // §4.1: write all payloads, asynchronously flush each touched line,
        // then a single fence for the whole batch — one CLFLUSHOPT per
        // *distinct line the batch spans*, since adjacent small entries
        // share lines. (The fence-per-entry ablation quantifies what the
        // batching saves; an intervening fence re-dirties shared boundary
        // lines, so there each entry flushes its own span.)
        const SITE: &str = "PrepHooks::persist_batch_payload";
        let st = &self.state;
        let eb = HookState::<O>::entry_bytes();
        let skip_fence = st.psan_fault == Some(PsanFault::SkipLogPayloadFence);
        if st.fence_per_entry {
            for idx in range {
                let traced = st.rt.trace_store(st.payload_addr(idx), eb - 1, SITE);
                st.flush_entry_span(idx, idx + 1, SITE, &traced);
                if !skip_fence {
                    st.rt.sfence();
                }
            }
        } else {
            let traced = st.rt.trace_store(
                st.payload_addr(range.start),
                (range.end - range.start) * eb,
                SITE,
            );
            st.flush_entry_span(range.start, range.end, SITE, &traced);
            if !skip_fence {
                st.rt.sfence();
            }
        }
    }

    fn persist_batch_published(&self, range: Range<u64>, op_at: &dyn Fn(u64) -> O) {
        if self.state.durability != DurabilityLevel::Durable {
            return;
        }
        // Flush the emptyBit image lines and fence again; only after this
        // fence are the entries recoverable, so this is where they enter
        // the crash-store image. The combiner's volatile publish loop runs
        // *after* this hook returns (on this same thread): an entry must
        // not become visible to other combiners — who can cover it with a
        // durably-published completedTail — until its image is fenced.
        const SITE: &str = "PrepHooks::persist_batch_published";
        let st = &self.state;
        let eb = HookState::<O>::entry_bytes();
        // Publish each emptyBit, and flush each *distinct* emptyBit line
        // once, after the last emptyBit on it. Flushing per entry (as this
        // used to) re-flushes a line for every further emptyBit on it with
        // no intervening store — the sanitizer's redundant-flush lint
        // flagged exactly that, and for small ops it is ~7× the flushes.
        for idx in range.clone() {
            let addr = st.empty_bit_addr(idx);
            let traced = st.rt.trace_publish(
                addr,
                1,
                &[(st.payload_addr(idx), eb - 1)],
                PublishTag::LogEntry,
                SITE,
            );
            let line = addr / 64;
            if idx + 1 == range.end || st.empty_bit_addr(idx + 1) / 64 != line {
                st.rt.clflushopt_at(line * 64, SITE, &traced);
            }
        }
        st.rt.sfence();
        // The crash image needs the op values themselves: read each entry
        // back from the published log (the only clone of an op the durable
        // path performs — the combiner no longer keeps a batch vector).
        for idx in range {
            st.log_image.persist_entry(&st.rt, idx, op_at(idx));
        }
    }

    fn ensure_completed_tail_durable(&self, ct: u64) {
        if self.state.durability == DurabilityLevel::Durable {
            self.state.persist_completed_tail(ct);
        }
        // The combiner's completedTail CAS (SeqCst) came first. Wake a
        // parked persistence thread only once a batch of entries has
        // gathered for it to apply: a checkpoint that is due wakes it
        // through its own source (a checkpoint request), so this wake is
        // never what the loss bound or an ack waits for.
        // ord: SeqCst — the load of the store→load pair with the parking
        // thread's `wake_at` store and its re-read of completedTail.
        if ct >= self.state.wake_at.load(Ordering::SeqCst) {
            self.state.persist_wake.wake();
        }
    }

    fn min_persistent_tail(&self) -> u64 {
        // ord: Acquire pairs with the cycle's tail Release stores; a tail t
        // implies the replica covers [0, t).
        let first = self.state.p_tails[0].load(Ordering::Acquire);
        // ord: see above.
        first.min(self.state.p_tails[1].load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(durability: DurabilityLevel) -> PrepHooks<u64> {
        PrepHooks {
            state: HookState::new(PmemRuntime::for_crash_tests(), durability, 16, false, None),
        }
    }

    #[test]
    fn fence_per_entry_ablation_fences_each_entry() {
        let h = PrepHooks::<u64> {
            state: HookState::new(
                PmemRuntime::for_crash_tests(),
                DurabilityLevel::Durable,
                16,
                true,
                None,
            ),
        };
        h.persist_batch_payload(0..4);
        assert_eq!(h.state.rt.stats().snapshot().sfence, 4);
    }

    #[test]
    fn gate_admits_below_boundary_refuses_at_it() {
        let h = mk(DurabilityLevel::Buffered); // ε = boundary = 16
        assert!(h.reserve_admitted(15));
        assert!(!h.reserve_admitted(16), "tail at the boundary must wait");
        assert!(!h.reserve_admitted(17));
        // A checkpoint published at 16 raises the boundary to 16 + ε.
        h.state.durable_tail.store(16, Ordering::Release);
        assert!(h.reserve_admitted(31));
        assert!(!h.reserve_admitted(32));
    }

    #[test]
    fn gate_admits_everything_after_stop() {
        let h = mk(DurabilityLevel::Buffered);
        h.state.stop.store(true, Ordering::Release);
        assert!(h.reserve_admitted(1_000_000)); // must not wedge shutdown
    }

    #[test]
    fn buffered_skips_all_log_persistence() {
        let h = mk(DurabilityLevel::Buffered);
        h.persist_batch_payload(0..4);
        h.persist_batch_published(0..4, &|i| i + 1);
        h.ensure_completed_tail_durable(4);
        let s = h.state.rt.stats().snapshot();
        assert_eq!(s.total_flushes(), 0);
        assert_eq!(s.sfence, 0);
        assert!(h.state.log_image.is_empty());
        assert_eq!(h.state.ct_cell.read_image(), 0);
    }

    #[test]
    fn durable_persists_batch_with_one_fence_per_phase() {
        let h = mk(DurabilityLevel::Durable);
        h.persist_batch_payload(0..4);
        let s = h.state.rt.stats().snapshot();
        // Four 9-byte entries (u64 payload + emptyBit) span bytes [0, 36):
        // one cacheline, so one coalesced async flush.
        assert_eq!(s.clflushopt, 1, "one async flush per spanned line");
        assert_eq!(s.sfence, 1, "a single fence per batch (§4.1)");
        assert!(
            h.state.log_image.is_empty(),
            "payload-only persistence must not make entries recoverable"
        );
        h.persist_batch_published(0..4, &|i| i + 1);
        let s = h.state.rt.stats().snapshot();
        assert_eq!(s.sfence, 2);
        assert_eq!(h.state.log_image.len(), 4);
        assert_eq!(
            h.state.log_image.persisted_range(0, 4),
            vec![(0, 1), (1, 2), (2, 3), (3, 4)]
        );
    }

    #[test]
    fn payload_flushes_coalesce_by_spanned_lines() {
        // Entries are 9 bytes; lines hold 64. A batch of 16 entries spans
        // 144 bytes; start offset matters for the line count.
        assert_eq!(HookState::<u64>::span_lines(0, 16), 3); // [0, 144)
        assert_eq!(HookState::<u64>::span_lines(7, 8), 2); // [63, 72) straddles
        assert_eq!(HookState::<u64>::span_lines(6, 8), 2); // [54, 72)
        let h = mk(DurabilityLevel::Durable);
        h.persist_batch_payload(6..8);
        let s = h.state.rt.stats().snapshot();
        assert_eq!(s.clflushopt, 2);
        assert_eq!(s.sfence, 1);
    }

    #[test]
    fn completed_tail_flushes_are_deduplicated() {
        let h = mk(DurabilityLevel::Durable);
        h.ensure_completed_tail_durable(10);
        h.ensure_completed_tail_durable(10);
        h.ensure_completed_tail_durable(7); // already covered
        let s = h.state.rt.stats().snapshot();
        assert_eq!(s.clflush, 1, "covered values must not re-flush");
        assert_eq!(h.state.ct_cell.read_image(), 10);
        h.ensure_completed_tail_durable(20);
        assert_eq!(h.state.ct_cell.read_image(), 20);
        assert_eq!(h.state.rt.stats().snapshot().clflush, 2);
    }

    #[test]
    fn min_persistent_tail_is_the_lower_mirror() {
        let h = mk(DurabilityLevel::Buffered);
        h.state.p_tails[0].store(9, Ordering::Release);
        h.state.p_tails[1].store(3, Ordering::Release);
        assert_eq!(h.min_persistent_tail(), 3);
    }
}
