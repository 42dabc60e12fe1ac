//! PREP's implementation of the NR persistence hook points.
//!
//! [`PrepHooks`] is PREP's whole persistence side, owned by value by the
//! `NodeReplicated` it hooks: the published checkpoint's tail (the flush
//! boundary is that plus ε), the persistent replicas' localTails (mirrored
//! as atomics for the logMin scan), the active-replica selector, the NVM
//! images of the UC-managed persistent variables (log entries,
//! `completedTail`, `p_activePReplica`), the two persistent replicas
//! themselves, and the lock whoever runs the persistence cycle holds.
//!
//! One function forces an early checkpoint,
//! [`PrepHooks::request_checkpoint`], and it has three callers: a combiner
//! refused at the gate (a checkpoint raises the boundary), the logMin scan
//! when its straggler is a persistent replica (Algorithm 3's help), and
//! `PrepUc::nudge_checkpoint` (the §2.2 sync point). Each posts a standing
//! request and runs the cycle itself if it is free.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam_utils::CachePadded;
use prep_nr::{Log, NrHooks};
use prep_pmem::psan::{PublishTag, Region};
use prep_pmem::{LogImage, PersistentCell, PersistentReplica, PmemRuntime, Traced};
use prep_seqds::SequentialObject;
use prep_sync::{TryLock, WakeSlot};

use crate::config::{DurabilityLevel, FlushStrategy, PrepConfig, PsanFault};

/// Logical NVM addresses of everything this construction persists, used by
/// the persistence-ordering sanitizer (`prep-psan`) to give stores and
/// flushes identity. Allocated unconditionally at construction (regions
/// are just address-space reservations); traced only when the runtime's
/// tracer is enabled.
///
/// Log addressing is by **monotonic log index**, never by recycled
/// physical slot: entry `idx` occupies bytes `[idx·eb, (idx+1)·eb)` with
/// its emptyBit last, where `eb = size_of::<T::Op>() + 1` matches the
/// packed layout the flush accounting charges for. Recycling a slot
/// (logMin) gets a fresh logical address, so laps never alias.
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

/// The [`NrHooks`] implementation PREP plugs into `NodeReplicated`, and
/// the owner of all of PREP's persistence state (see module docs).
pub struct PrepHooks<T: SequentialObject> {
    pub(crate) rt: Arc<PmemRuntime>,
    pub(crate) durability: DurabilityLevel,
    pub(crate) fence_per_entry: bool,
    /// How a checkpoint writes the active replica back.
    pub(crate) flush_strategy: FlushStrategy,
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
    /// ([`PrepHooks::flush_boundary`]), so `flushBoundary ≤ stableTail + ε`,
    /// the invariant the ε + β − 1 loss bound rests on, holds by
    /// definition.
    pub(crate) durable_tail: CachePadded<AtomicU64>,
    /// Largest `completedTail` somebody has asked to have checkpointed now
    /// rather than at the flush boundary ([`PrepHooks::request_checkpoint`]).
    /// The request stands until `durable_tail` reaches it, so one that
    /// lands while a checkpoint is in flight is served by the next one.
    pub(crate) sync_request: CachePadded<AtomicU64>,
    /// Where the idle persistence thread parks. Three events wake it, each
    /// after a `SeqCst` publish of the word its ready check reads: a
    /// combiner's `completedTail` advance that reaches `wake_at`, a
    /// checkpoint request that found the cycle busy (when it is free, the
    /// requesting thread runs the cycle itself), and `Drop`'s stop.
    pub(crate) persist_wake: WakeSlot,
    /// The `completedTail` at which a combiner wakes the parked
    /// persistence thread for background apply: halfway from the active
    /// replica's applied tail to the flush boundary, at most a small batch
    /// on, stored (`SeqCst`) before each park. `u64::MAX` until the first
    /// park.
    pub(crate) wake_at: CachePadded<AtomicU64>,
    /// Where `quiesce_persistence` parks until `durable_tail` covers it.
    /// The cycle wakes it after every published checkpoint.
    pub(crate) quiesce_wake: WakeSlot,
    /// Called after every published checkpoint, by the thread that wrote
    /// it (`PrepUc::set_checkpoint_listener`).
    pub(crate) checkpoint_listener: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Held by whichever thread runs the persistence cycle: the persistence
    /// thread, or a checkpoint requester that found it free. It guards no
    /// data; it orders the cycle's runs, which are the only writers of the
    /// selector, the persistent tails and the watermark.
    pub(crate) cycle_lock: TryLock<()>,
    /// Shutdown flag for the persistence thread and the reserve gate.
    // shared-line: written once, at shutdown; the gate reads it only after
    // a refusal, the persistence thread once per loop.
    pub(crate) stop: AtomicBool,
    /// NVM image of `d_completedTail` (durable mode).
    pub(crate) ct_cell: PersistentCell<u64>,
    /// NVM image of `p_activePReplica`.
    pub(crate) p_active_cell: PersistentCell<u64>,
    /// NVM image of the persisted log entries (durable mode).
    pub(crate) log_image: LogImage<T::Op>,
    /// The two persistence-only replicas, each its own crash image (§5.1:
    /// "the persistent replicas are only accessed by the persistence
    /// thread"; here, by whichever thread holds `cycle_lock`, and by a
    /// crash cut copying the stable one). Padded: the cycle writes their
    /// locks and objects, and the words beside them (ε, the durability
    /// level) are read by every combiner.
    pub(crate) replicas: CachePadded<[PersistentReplica<T>; 2]>,
}

impl<T: SequentialObject> PrepHooks<T> {
    /// The persistence state of a fresh construction whose persistent
    /// replicas start as `obj` (one copy and `obj` itself), consistent at
    /// localTail 0.
    pub(crate) fn new(config: &PrepConfig, obj: T) -> Self {
        let rt = Arc::clone(&config.runtime);
        let psan = PsanLayout::new(&rt);
        let replicas = CachePadded::new([
            PersistentReplica::new(obj.clone_object()),
            PersistentReplica::new(obj),
        ]);
        // Precise dirty tracking is enabled only on the persistence
        // replicas (the volatile NR replicas keep the zero-cost fallback),
        // and only when the flush strategy will consume it.
        if config.flush_strategy == FlushStrategy::DirtyLines {
            for rep in replicas.iter() {
                rep.lock().object_mut().clear_dirty();
            }
        }
        PrepHooks {
            rt,
            durability: config.durability,
            fence_per_entry: config.fence_per_entry,
            flush_strategy: config.flush_strategy,
            psan,
            psan_fault: config.psan_fault,
            epsilon: config.epsilon,
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
            cycle_lock: TryLock::new(()),
            stop: AtomicBool::new(false),
            ct_cell: PersistentCell::new(0),
            p_active_cell: PersistentCell::new(0),
            log_image: LogImage::new(),
            replicas,
        }
    }

    /// The flush boundary: ε past the published checkpoint. The gate
    /// admits reservations that start below it.
    pub(crate) fn flush_boundary(&self) -> u64 {
        // ord: Acquire pairs with the cycle's SeqCst watermark publish,
        // which follows the selector's CLFLUSH: admitting tail t implies the
        // checkpoint that justified boundary > t is durable.
        self.durable_tail.load(Ordering::Acquire) + self.epsilon
    }

    /// Asks for every entry of `log` below `ct` to be checkpointed now, and
    /// runs the persistence cycle on the calling thread if nobody else is
    /// running it; otherwise wakes the persistence thread, which finds the
    /// request standing. The thread that wants a checkpoint (a nudger, a
    /// combiner refused at the gate, a logMin scan stuck on a persistent
    /// replica) writes it itself rather than wait to be scheduled after the
    /// persistence thread. Checkpointing before the boundary is reached
    /// only tightens the loss bound. The cycle also applies the active
    /// replica up to `completedTail`, which is the help a logMin scan
    /// needs when the active replica is its straggler.
    pub(crate) fn request_checkpoint(&self, log: &Log<T::Op>, ct: u64) {
        self.sync_request
            // ord: SeqCst — Release so the cycle's Acquire load of the
            // request sees the completions that motivated it; Acquire
            // orders racing requests (fetch_max keeps only the furthest);
            // SeqCst because it is the publish half of the WakeSlot pair the
            // wake below completes.
            .fetch_max(ct, Ordering::SeqCst);
        if let Some(held) = self.cycle_lock.try_lock() {
            self.cycle(&held, log);
        } else {
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
        std::mem::size_of::<T::Op>() as u64 + 1
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
    /// `[from, to)` of the packed NVM log — one `CLFLUSHOPT` per *spanned*
    /// line, not one per entry, since adjacent small entries share lines
    /// (the log region base is line-aligned) — each carrying its line
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

impl<T: SequentialObject> NrHooks<T::Op> for PrepHooks<T> {
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
        tail < self.flush_boundary()
            // ord: Acquire pairs with shutdown's stop Release: once seen,
            // the final persist pass has already been ordered before it.
            || self.stop.load(Ordering::Acquire)
    }

    fn checkpoint_now(&self, log: &Log<T::Op>) {
        // Not `durable_watermark()`: in durable mode the persisted
        // `completedTail` covers everything, and a request skipped on its
        // strength would never raise the boundary.
        self.request_checkpoint(log, log.completed_tail());
    }

    fn persist_batch_payload(&self, range: Range<u64>) {
        if self.durability != DurabilityLevel::Durable {
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
        let eb = Self::entry_bytes();
        let skip_fence = self.psan_fault == Some(PsanFault::SkipLogPayloadFence);
        if self.fence_per_entry {
            for idx in range {
                let traced = self.rt.trace_store(self.payload_addr(idx), eb - 1, SITE);
                self.flush_entry_span(idx, idx + 1, SITE, &traced);
                if !skip_fence {
                    self.rt.sfence();
                }
            }
        } else {
            let traced = self.rt.trace_store(
                self.payload_addr(range.start),
                (range.end - range.start) * eb,
                SITE,
            );
            self.flush_entry_span(range.start, range.end, SITE, &traced);
            if !skip_fence {
                self.rt.sfence();
            }
        }
    }

    fn persist_batch_published(&self, range: Range<u64>, op_at: &dyn Fn(u64) -> T::Op) {
        if self.durability != DurabilityLevel::Durable {
            return;
        }
        // Flush the emptyBit image lines and fence again; only after this
        // fence are the entries recoverable, so this is where they enter
        // the crash-store image. The combiner's volatile publish loop runs
        // *after* this hook returns (on this same thread): an entry must
        // not become visible to other combiners — who can cover it with a
        // durably-published completedTail — until its image is fenced.
        const SITE: &str = "PrepHooks::persist_batch_published";
        let eb = Self::entry_bytes();
        // Publish each emptyBit, and flush each *distinct* emptyBit line
        // once, after the last emptyBit on it. Flushing per entry (as this
        // used to) re-flushes a line for every further emptyBit on it with
        // no intervening store — the sanitizer's redundant-flush lint
        // flagged exactly that, and for small ops it is ~7× the flushes.
        for idx in range.clone() {
            let addr = self.empty_bit_addr(idx);
            let traced = self.rt.trace_publish(
                addr,
                1,
                &[(self.payload_addr(idx), eb - 1)],
                PublishTag::LogEntry,
                SITE,
            );
            let line = addr / 64;
            if idx + 1 == range.end || self.empty_bit_addr(idx + 1) / 64 != line {
                self.rt.clflushopt_at(line * 64, SITE, &traced);
            }
        }
        self.rt.sfence();
        // The crash image needs the op values themselves: read each entry
        // back from the published log (the only clone of an op the durable
        // path performs — the combiner no longer keeps a batch vector).
        for idx in range {
            self.log_image.persist_entry(&self.rt, idx, op_at(idx));
        }
    }

    fn ensure_completed_tail_durable(&self, ct: u64) {
        if self.durability == DurabilityLevel::Durable {
            self.persist_completed_tail(ct);
        }
        // The combiner's completedTail CAS (SeqCst) came first. Wake a
        // parked persistence thread only once a batch of entries has
        // gathered for it to apply: a checkpoint that is due wakes it
        // through its own source (a checkpoint request), so this wake is
        // never what the loss bound or an ack waits for.
        // ord: SeqCst — the load of the store→load pair with the parking
        // thread's `wake_at` store and its re-read of completedTail.
        if ct >= self.wake_at.load(Ordering::SeqCst) {
            self.persist_wake.wake();
        }
    }

    fn min_persistent_tail(&self) -> u64 {
        // ord: Acquire pairs with the cycle's tail Release stores; a tail t
        // implies the replica covers [0, t).
        let first = self.p_tails[0].load(Ordering::Acquire);
        // ord: see above.
        first.min(self.p_tails[1].load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sequential object whose ops are bare `u64`s, so a packed log
    /// entry is 9 bytes (payload + emptyBit).
    #[derive(Clone)]
    struct Words;

    impl SequentialObject for Words {
        type Op = u64;
        type Resp = ();

        fn apply(&mut self, _: &u64) {}

        fn apply_readonly(&self, _: &u64) {}

        fn is_read_only(_: &u64) -> bool {
            false
        }

        fn approx_bytes(&self) -> u64 {
            0
        }
    }

    fn mk_with(config: PrepConfig) -> PrepHooks<Words> {
        PrepHooks::new(
            &config
                .with_epsilon(16)
                .with_runtime(PmemRuntime::for_crash_tests()),
            Words,
        )
    }

    fn mk(durability: DurabilityLevel) -> PrepHooks<Words> {
        mk_with(PrepConfig::new(durability))
    }

    /// Distinct cachelines spanned by entries `[from, to)` of the packed
    /// NVM log, `entry_bytes` each: the flush count the payload hook's
    /// coalescing must reach.
    fn span_lines(entry_bytes: u64, from: u64, to: u64) -> u64 {
        ((to * entry_bytes).div_ceil(64) - (from * entry_bytes) / 64).max(1)
    }

    #[test]
    fn fence_per_entry_ablation_fences_each_entry() {
        let h = mk_with(PrepConfig::new(DurabilityLevel::Durable).with_fence_per_entry());
        h.persist_batch_payload(0..4);
        assert_eq!(h.rt.stats().snapshot().sfence, 4);
    }

    #[test]
    fn gate_admits_below_boundary_refuses_at_it() {
        let h = mk(DurabilityLevel::Buffered); // ε = boundary = 16
        assert!(h.reserve_admitted(15));
        assert!(!h.reserve_admitted(16), "tail at the boundary must wait");
        assert!(!h.reserve_admitted(17));
        // A checkpoint published at 16 raises the boundary to 16 + ε.
        h.durable_tail.store(16, Ordering::Release);
        assert!(h.reserve_admitted(31));
        assert!(!h.reserve_admitted(32));
    }

    #[test]
    fn gate_admits_everything_after_stop() {
        let h = mk(DurabilityLevel::Buffered);
        h.stop.store(true, Ordering::Release);
        assert!(h.reserve_admitted(1_000_000)); // must not wedge shutdown
    }

    #[test]
    fn buffered_skips_all_log_persistence() {
        let h = mk(DurabilityLevel::Buffered);
        h.persist_batch_payload(0..4);
        h.persist_batch_published(0..4, &|i| i + 1);
        h.ensure_completed_tail_durable(4);
        let s = h.rt.stats().snapshot();
        assert_eq!(s.total_flushes(), 0);
        assert_eq!(s.sfence, 0);
        assert!(h.log_image.is_empty());
        assert_eq!(h.ct_cell.read_image(), 0);
    }

    #[test]
    fn durable_persists_batch_with_one_fence_per_phase() {
        let h = mk(DurabilityLevel::Durable);
        h.persist_batch_payload(0..4);
        let s = h.rt.stats().snapshot();
        // Four 9-byte entries (u64 payload + emptyBit) span bytes [0, 36):
        // one cacheline, so one coalesced async flush.
        assert_eq!(s.clflushopt, 1, "one async flush per spanned line");
        assert_eq!(s.sfence, 1, "a single fence per batch (§4.1)");
        assert!(
            h.log_image.is_empty(),
            "payload-only persistence must not make entries recoverable"
        );
        h.persist_batch_published(0..4, &|i| i + 1);
        let s = h.rt.stats().snapshot();
        assert_eq!(s.sfence, 2);
        assert_eq!(h.log_image.len(), 4);
        assert_eq!(
            h.log_image.persisted_range(0, 4),
            vec![(0, 1), (1, 2), (2, 3), (3, 4)]
        );
    }

    #[test]
    fn payload_flushes_coalesce_by_spanned_lines() {
        // Entries are 9 bytes; lines hold 64. A batch of 16 entries spans
        // 144 bytes; start offset matters for the line count.
        let eb = PrepHooks::<Words>::entry_bytes();
        assert_eq!(eb, 9);
        assert_eq!(span_lines(eb, 0, 16), 3); // [0, 144)
        assert_eq!(span_lines(eb, 7, 8), 2); // [63, 72) straddles
        assert_eq!(span_lines(eb, 6, 8), 2); // [54, 72)
        let h = mk(DurabilityLevel::Durable);
        h.persist_batch_payload(6..8);
        let s = h.rt.stats().snapshot();
        assert_eq!(s.clflushopt, 2);
        assert_eq!(s.sfence, 1);
    }

    #[test]
    fn completed_tail_flushes_are_deduplicated() {
        let h = mk(DurabilityLevel::Durable);
        h.ensure_completed_tail_durable(10);
        h.ensure_completed_tail_durable(10);
        h.ensure_completed_tail_durable(7); // already covered
        let s = h.rt.stats().snapshot();
        assert_eq!(s.clflush, 1, "covered values must not re-flush");
        assert_eq!(h.ct_cell.read_image(), 10);
        h.ensure_completed_tail_durable(20);
        assert_eq!(h.ct_cell.read_image(), 20);
        assert_eq!(h.rt.stats().snapshot().clflush, 2);
    }

    #[test]
    fn min_persistent_tail_is_the_lower_mirror() {
        let h = mk(DurabilityLevel::Buffered);
        h.p_tails[0].store(9, Ordering::Release);
        h.p_tails[1].store(3, Ordering::Release);
        assert_eq!(h.min_persistent_tail(), 3);
    }
}
