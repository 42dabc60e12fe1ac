//! PREP's implementation of the NR persistence hook points.
//!
//! [`HookState`] is the shared persistence state: the flush boundary, the
//! persistent replicas' localTails (mirrored as atomics for the logMin
//! scan), the active-replica selector, and the NVM images of the UC-managed
//! persistent variables (log entries, `completedTail`, `p_activePReplica`).
//! It is shared between the worker-side hooks and the persistence thread.

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
    /// Monotone-except-for-helping flush boundary (Algorithm 2/4).
    pub(crate) flush_boundary: CachePadded<AtomicU64>,
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
    pub(crate) durable_tail: CachePadded<AtomicU64>,
    /// Largest `completedTail` somebody has asked to have checkpointed now
    /// rather than at the flush boundary (`PrepUc::nudge_checkpoint`). The
    /// request stands until `durable_tail` reaches it, so a nudge that
    /// lands while a checkpoint is in flight is served by the next one.
    pub(crate) sync_request: CachePadded<AtomicU64>,
    /// Where the idle persistence thread parks. Five events wake it, each
    /// after a `SeqCst` publish of the word its ready check reads: a
    /// combiner's `completedTail` advance that reaches `wake_at`, a
    /// `nudge_checkpoint` request that found the task busy, a reservation
    /// refused at the gate, a straggler helper lowering the boundary, and
    /// `Drop`'s stop.
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
            flush_boundary: CachePadded::new(AtomicU64::new(epsilon)),
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
            stop: AtomicBool::new(false),
            ct_cell: PersistentCell::new(0),
            p_active_cell: PersistentCell::new(0),
            log_image: LogImage::new(),
        })
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
        // beyond the last persisted localTail (≥ boundary − ε).
        //
        // On shutdown the persistence thread no longer advances the
        // boundary; admit rather than hang (loss bounds are only claimed
        // for non-shut-down instances).
        // ord: Acquire pairs with the persistence thread's boundary
        // Release — admitting tail t implies we saw the replica/image state
        // that justified boundary > t.
        let admitted = tail < self.state.flush_boundary.load(Ordering::Acquire)
            // ord: Acquire pairs with shutdown's stop Release: once seen,
            // the final persist pass has already been ordered before it.
            || self.state.stop.load(Ordering::Acquire);
        if !admitted {
            // The gate is closed, and the persistence thread may be what
            // reopens it (its backstop trigger). The tail we were refused
            // at was published by a SeqCst reservation CAS, so this wake
            // keeps the WakeSlot contract.
            self.state.persist_wake.wake();
        }
        admitted
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
        // through its own source (the gate, a nudge, a helper), so this
        // wake is never what the loss bound or an ack waits for.
        // ord: SeqCst — the load of the store→load pair with the parking
        // thread's `wake_at` store and its re-read of completedTail.
        if ct >= self.state.wake_at.load(Ordering::SeqCst) {
            self.state.persist_wake.wake();
        }
    }

    fn persistent_tails(&self) -> Vec<u64> {
        vec![
            // ord: Acquire pairs with the persistence thread's tail Release
            // stores; a tail t implies the replica image covers [0, t).
            self.state.p_tails[0].load(Ordering::Acquire),
            // ord: see above.
            self.state.p_tails[1].load(Ordering::Acquire),
        ]
    }

    fn help_persistent_straggler(&self, idx: usize, low_mark: u64) {
        // Algorithm 3: only the *stable* replica can be a stuck straggler
        // (the active one is being driven forward by the persistence
        // thread). Lower the flush boundary to force an early
        // persist-and-swap so the stable replica becomes active.
        //
        // Deadlock subtlety the paper's pseudocode glosses over: the
        // persist trigger is `flushBoundary <= activeReplica.localTail`,
        // and the active tail cannot pass completedTail — which is *frozen*
        // here (reserves are gated at the boundary and the blocked
        // combiners hold unfinished log entries). Lowering only to
        // `lowMark − 1` can therefore still leave the boundary unreachable.
        // We lower to the active replica's current tail as well, which the
        // persistence thread can always reach; persisting earlier than ε
        // only tightens the loss bound.
        // ord: Acquire pairs with the persistence thread's swap Release so
        // the tail we read below belongs to the replica we think is active.
        let active = self.state.p_active.load(Ordering::Acquire) as usize;
        // ord: Acquire — only lower a boundary we have actually observed.
        if active != idx && self.state.flush_boundary.load(Ordering::Acquire) >= low_mark {
            // ord: Acquire pairs with the tail's Release store.
            let active_tail = self.state.p_tails[active].load(Ordering::Acquire);
            let target = low_mark.saturating_sub(1).min(active_tail).max(1);
            // ord: SeqCst — Release so the persistence thread's Acquire of
            // the new boundary also sees why it was lowered, SeqCst because
            // it is the publish half of the WakeSlot pair: the parked
            // thread's re-check loads the boundary after announcing itself.
            self.state.flush_boundary.store(target, Ordering::SeqCst);
            self.state.persist_wake.wake();
        }
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
        h.state.flush_boundary.store(32, Ordering::Release);
        assert!(h.reserve_admitted(16));
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
    fn straggler_help_lowers_boundary_only_for_stable_replica() {
        let h = mk(DurabilityLevel::Buffered);
        h.state.flush_boundary.store(100, Ordering::Release);
        // The active replica (0) has applied up to 80.
        h.state.p_tails[0].store(80, Ordering::Release);
        // active = 0 → helping replica 0 (the active one) is a no-op.
        h.help_persistent_straggler(0, 50);
        assert_eq!(h.state.flush_boundary.load(Ordering::Relaxed), 100);
        // Helping replica 1 (stable) lowers the boundary to
        // min(lowMark − 1, active tail): here lowMark − 1 = 49 binds.
        h.help_persistent_straggler(1, 50);
        assert_eq!(h.state.flush_boundary.load(Ordering::Relaxed), 49);
        // Already below lowMark → no further lowering.
        h.help_persistent_straggler(1, 60);
        assert_eq!(h.state.flush_boundary.load(Ordering::Relaxed), 49);
        // When the active replica's tail is below lowMark − 1, the tail
        // binds instead — the persistence thread must be able to reach the
        // boundary (deadlock backstop).
        h.state.flush_boundary.store(100, Ordering::Release);
        h.state.p_tails[0].store(20, Ordering::Release);
        h.help_persistent_straggler(1, 50);
        assert_eq!(h.state.flush_boundary.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn persistent_tails_mirror_atomics() {
        let h = mk(DurabilityLevel::Buffered);
        h.state.p_tails[0].store(3, Ordering::Release);
        h.state.p_tails[1].store(9, Ordering::Release);
        assert_eq!(h.persistent_tails(), vec![3, 9]);
    }
}
