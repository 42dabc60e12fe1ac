//! PREP-UC configuration.

use std::sync::Arc;

use prep_pmem::{LatencyModel, PmemRuntime};

/// Which correctness condition the construction guarantees (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityLevel {
    /// Buffered durable linearizability (PREP-Buffered): after a crash the
    /// object reflects a *prefix* of the completed operations, missing at
    /// most `ε + β − 1` of them. The log and `completedTail` stay volatile.
    Buffered,
    /// Durable linearizability (PREP-Durable): every completed operation
    /// survives a crash. Additionally persists log entries (flush + fence
    /// per batch) and the `completedTail` index.
    Durable,
}

/// How the persistence thread writes the active replica back to NVM at a
/// flush boundary (§6, "Stack": "In practice if the data structure is very
/// small [one] could flush the entire address space of a replica rather than
/// using WBINVD").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStrategy {
    /// `WBINVD` + `SFENCE`: cost independent of the structure (paper
    /// default) — wins for large structures.
    Wbinvd,
    /// Flush the replica's address range line by line + `SFENCE`: cost
    /// proportional to the structure — wins for tiny structures. The
    /// ablation benches measure the crossover.
    RangeFlush,
    /// Incremental checkpointing: one `CLFLUSHOPT` per **distinct dirty
    /// line** accrued since the last checkpoint
    /// ([`prep_seqds::SequentialObject::dirty_bytes_since_checkpoint`]) +
    /// one `SFENCE` — cost proportional to the checkpoint interval's write
    /// set, not the structure. Falls back to `RangeFlush` behavior for
    /// objects without precise dirty tracking. The crash-sim image is
    /// updated by replaying the interval's ops onto the stored snapshot
    /// (`ReplicaImage::apply_delta`) instead of deep-cloning the replica.
    DirtyLines,
}

/// Deliberately seeded persistence-ordering bugs, used to validate that
/// the `prep-psan` sanitizer catches dropped fences in the real persist
/// paths (regression tests only — never set in production configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsanFault {
    /// Durable mode: skip the `SFENCE` after the batch's payload flushes,
    /// so emptyBits publish entries whose payloads are not yet durable.
    SkipLogPayloadFence,
    /// Skip the `SFENCE` after a checkpoint's replica flushes, so the
    /// `p_activePReplica` swap publishes an unfenced replica.
    SkipCheckpointFence,
}

/// Construction parameters for [`crate::PrepUc`].
#[derive(Debug, Clone)]
pub struct PrepConfig {
    /// Durability level.
    pub durability: DurabilityLevel,
    /// Flush-boundary step ε: the active persistent replica is written back
    /// (WBINVD) every ε log entries. Smaller ε → tighter loss bound and more
    /// frequent (expensive) write-backs; the paper sweeps this in Figure 3.
    pub epsilon: u64,
    /// Shared-log capacity in entries (paper §6 uses 1M).
    pub log_size: u64,
    /// The persistence cost model / crash-store runtime. Defaults to a
    /// cost-only Optane-calibrated runtime; tests inject
    /// `PmemRuntime::for_crash_tests()`.
    pub runtime: Arc<PmemRuntime>,
    /// Route the persistence thread's sequential-object calls through the
    /// thread-local allocator swap (`prep_pmem::alloc::with_persistent`),
    /// §5.1. On by default; a no-op unless the binary registers
    /// `SwappableAllocator` as its global allocator.
    pub allocator_swap: bool,
    /// How replica write-backs are performed (ablation; paper default
    /// WBINVD).
    pub flush_strategy: FlushStrategy,
    /// Durable mode ablation: fence after **every** log entry instead of
    /// once per batch. The paper's single-fence-per-batch scheme (§4.1) is
    /// the default; per-entry fencing quantifies what batching saves.
    pub fence_per_entry: bool,
    /// Liveness mode (§4.2): throughput-first (the default; lock-free
    /// validated reads) or starvation-free (fair reservation lock +
    /// phase-fair replica locks, every read locked).
    pub fairness: prep_nr::FairnessMode,
    /// Deliberately seeded ordering bug for sanitizer-validation tests
    /// (`None` in every real configuration).
    pub psan_fault: Option<PsanFault>,
}

impl PrepConfig {
    /// Defaults matching the paper's evaluation: log of 2²⁰ entries,
    /// ε = 10000 (1% of the log), Optane cost model.
    pub fn new(durability: DurabilityLevel) -> Self {
        PrepConfig {
            durability,
            epsilon: 10_000,
            log_size: prep_nr::DEFAULT_LOG_SIZE,
            runtime: PmemRuntime::for_benchmarks(LatencyModel::optane()),
            allocator_swap: true,
            flush_strategy: FlushStrategy::Wbinvd,
            fence_per_entry: false,
            fairness: prep_nr::FairnessMode::default(),
            psan_fault: None,
        }
    }

    /// Seeds a deliberate ordering bug for sanitizer-validation tests
    /// (builder style).
    pub fn with_psan_fault(mut self, fault: PsanFault) -> Self {
        self.psan_fault = Some(fault);
        self
    }

    /// Selects the liveness mode (builder style).
    pub fn with_fairness(mut self, fairness: prep_nr::FairnessMode) -> Self {
        self.fairness = fairness;
        self
    }

    /// Sets the replica write-back strategy (builder style).
    pub fn with_flush_strategy(mut self, strategy: FlushStrategy) -> Self {
        self.flush_strategy = strategy;
        self
    }

    /// Enables per-entry fencing in durable mode (builder style; ablation).
    pub fn with_fence_per_entry(mut self) -> Self {
        self.fence_per_entry = true;
        self
    }

    /// Sets ε (builder style).
    pub fn with_epsilon(mut self, epsilon: u64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the log capacity (builder style).
    pub fn with_log_size(mut self, log_size: u64) -> Self {
        self.log_size = log_size;
        self
    }

    /// Sets the persistence runtime (builder style).
    pub fn with_runtime(mut self, runtime: Arc<PmemRuntime>) -> Self {
        self.runtime = runtime;
        self
    }

    /// Disables the allocator swap (builder style).
    pub fn without_allocator_swap(mut self) -> Self {
        self.allocator_swap = false;
        self
    }

    /// Validates the configuration against `beta` (threads per node).
    ///
    /// # Panics
    /// Panics if ε violates the paper's constraint
    /// `ε ≤ LOG_SIZE − β − 1` (§5.1) or is zero.
    #[allow(clippy::int_plus_one)] // keep the paper's ε ≤ LOG_SIZE − β − 1 verbatim
    pub fn validate(&self, beta: u64) {
        assert!(self.epsilon > 0, "epsilon must be positive");
        assert!(
            self.epsilon <= self.log_size - beta - 1,
            "epsilon {} violates the constraint epsilon <= LOG_SIZE - beta - 1 \
             ({} - {} - 1 = {})",
            self.epsilon,
            self.log_size,
            beta,
            self.log_size - beta - 1
        );
    }

    /// The worst-case number of **completed** update operations a single
    /// crash can lose under this configuration (§5.1): `ε + β − 1` for
    /// buffered, `0` for durable.
    pub fn loss_bound(&self, beta: u64) -> u64 {
        match self.durability {
            DurabilityLevel::Buffered => self.epsilon + beta - 1,
            DurabilityLevel::Durable => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_evaluation() {
        let c = PrepConfig::new(DurabilityLevel::Buffered);
        assert_eq!(c.log_size, 1 << 20);
        assert_eq!(c.epsilon, 10_000);
        assert!(c.allocator_swap);
    }

    #[test]
    fn builder_methods_apply() {
        let c = PrepConfig::new(DurabilityLevel::Durable)
            .with_epsilon(5)
            .with_log_size(64)
            .without_allocator_swap();
        assert_eq!(c.epsilon, 5);
        assert_eq!(c.log_size, 64);
        assert!(!c.allocator_swap);
        assert_eq!(c.durability, DurabilityLevel::Durable);
    }

    #[test]
    fn loss_bounds_per_level() {
        let beta = 8;
        assert_eq!(
            PrepConfig::new(DurabilityLevel::Buffered)
                .with_epsilon(100)
                .loss_bound(beta),
            107
        );
        assert_eq!(
            PrepConfig::new(DurabilityLevel::Durable).loss_bound(beta),
            0
        );
    }

    #[test]
    #[should_panic(expected = "violates the constraint")]
    fn epsilon_constraint_enforced() {
        PrepConfig::new(DurabilityLevel::Buffered)
            .with_log_size(64)
            .with_epsilon(60)
            .validate(8); // 60 > 64 - 8 - 1 = 55
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_rejected() {
        PrepConfig::new(DurabilityLevel::Buffered)
            .with_epsilon(0)
            .validate(1);
    }
}
