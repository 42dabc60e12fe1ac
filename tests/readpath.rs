//! Read-path correctness under both fairness modes: linearizability of NR
//! at read-heavy ratios (the fast path must not let a reader observe a
//! state older than `completedTail` at invocation), no torn reads,
//! recovered reads that see exactly the recovered prefix, plus cross-mode
//! agreement (the two modes must be semantically interchangeable).

#![allow(
    clippy::disallowed_methods,
    reason = "test code is outside the API bans"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use prep_checker::{check_linearizable, record_concurrent};
use prep_nr::{FairnessMode, NodeReplicated, NoopHooks};
use prep_seqds::hashmap::{HashMap, MapOp};
use prep_seqds::recorder::{assert_prefix, Recorder, RecorderOp, RecorderResp};
use prep_seqds::SequentialObject;
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, PmemRuntime, PrepConfig, PrepUc};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 5; // 15-op windows: cheap exhaustive search

/// ~90% reads over a tiny key space (collisions on purpose, so reads
/// actually discriminate between candidate linearizations).
fn read_heavy_ops(seed: u64) -> impl Fn(usize, usize) -> MapOp + Sync {
    move |t, i| {
        let mut rng = SmallRng::seed_from_u64(seed ^ ((t as u64) << 8) ^ i as u64);
        let key = rng.gen_range(0..4u64);
        if rng.gen_range(0..10) == 0 {
            MapOp::Insert {
                key,
                value: rng.gen_range(0..100),
            }
        } else {
            MapOp::Get { key }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NR produces linearizable histories at 90% reads under either mode —
    /// `Throughput` (caught-up reads under the reader's `DistRwLock` slot)
    /// and `StarvationFree` (ticketed reservations, every read under the
    /// phase-fair lock) — across randomized windows and registration orders.
    #[test]
    fn dist_lock_nr_read_heavy_histories_linearize(seed in 0u64..1u64 << 32) {
        for fairness in [FairnessMode::Throughput, FairnessMode::StarvationFree] {
            let asg = Topology::new(2, 2, 1).assign_workers(THREADS);
            let nr =
                NodeReplicated::with_hooks_and_fairness(HashMap::new(), asg, 256, NoopHooks, fairness);
            let tokens: Vec<_> = (0..THREADS).map(|t| nr.register(t)).collect();
            let history = record_concurrent::<HashMap, _, _>(
                THREADS,
                OPS_PER_THREAD,
                read_heavy_ops(seed),
                |t, op| nr.execute(&tokens[t], op),
            );
            prop_assert!(
                check_linearizable(&HashMap::new(), &history),
                "{fairness:?} NR produced a non-linearizable history \
                 (seed {seed}): {history:#?}"
            );
        }
    }
}

/// Both fairness modes agree on final state under an owned-key update
/// discipline with interleaved reads, and in both a read issued after the
/// reader's own update completed observes it.
#[test]
fn fairness_modes_agree_on_final_state() {
    const WORKERS: usize = 4;
    const PER_WORKER: u64 = 250;
    let mut final_histories = Vec::new();
    for fairness in [FairnessMode::Throughput, FairnessMode::StarvationFree] {
        let asg = Topology::new(2, 4, 1).assign_workers(WORKERS);
        let nr = Arc::new(NodeReplicated::with_hooks_and_fairness(
            Recorder::new(),
            asg,
            128,
            NoopHooks,
            fairness,
        ));
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let nr = Arc::clone(&nr);
                std::thread::spawn(move || {
                    let t = nr.register(w);
                    for i in 0..PER_WORKER {
                        nr.execute(&t, RecorderOp::Record((w as u64) << 32 | i));
                        match nr.execute(&t, RecorderOp::Count) {
                            RecorderResp::Count(c) => assert!(
                                c > i,
                                "{fairness:?} read missed the reader's own completed updates"
                            ),
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut hist = nr.with_replica(0, |r| r.history().to_vec());
        assert_eq!(
            hist.len() as u64,
            WORKERS as u64 * PER_WORKER,
            "{fairness:?} lost updates"
        );
        // Interleavings differ run to run; the invariant is the multiset of
        // applied updates plus per-worker FIFO order (checked via sort key).
        let mut next = [0u64; WORKERS];
        for id in &hist {
            let w = (id >> 32) as usize;
            assert_eq!(id & 0xffff_ffff, next[w], "{fairness:?} broke FIFO");
            next[w] += 1;
        }
        hist.sort_unstable();
        final_histories.push(hist);
    }
    assert_eq!(final_histories[0], final_histories[1]);
}

/// The fast path is actually taken: a single-threaded reader whose replica
/// is always caught up must never bump the slow-path counter, while a
/// reader racing a log the replica hasn't applied yet must.
#[test]
fn slow_path_counter_is_a_faithful_fast_path_probe() {
    let asg = Topology::new(2, 4, 1).assign_workers(1);
    let nr = NodeReplicated::new(Recorder::new(), asg, 64);
    let t = nr.register(0);
    for i in 0..100 {
        nr.execute(&t, RecorderOp::Record(i));
        nr.execute(&t, RecorderOp::Count);
    }
    assert_eq!(
        nr.read_slow_paths(),
        0,
        "single-threaded reads must always hit the fast path"
    );
}

/// A sequential object built to make torn reads visible: `WORDS` words
/// that are always all equal between operations. A writer walks the array
/// one word at a time, so a read overlapping the write *would* observe a
/// mix of old and new values.
#[derive(Clone)]
struct TornDetector {
    words: [u64; TornDetector::WORDS],
}

impl TornDetector {
    const WORDS: usize = 48;

    fn new() -> Self {
        TornDetector {
            words: [0; Self::WORDS],
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum TornOp {
    /// Update: set every word to `v`, one word at a time.
    SetAll(u64),
    /// Read-only: return (min, max) across the words — equal iff untorn.
    ReadAll,
}

impl SequentialObject for TornDetector {
    type Op = TornOp;
    type Resp = (u64, u64);

    fn apply(&mut self, op: &TornOp) -> (u64, u64) {
        match *op {
            TornOp::SetAll(v) => {
                for w in self.words.iter_mut() {
                    *w = v;
                }
                (v, v)
            }
            TornOp::ReadAll => self.apply_readonly(op),
        }
    }

    fn apply_readonly(&self, op: &TornOp) -> (u64, u64) {
        match *op {
            TornOp::ReadAll => {
                let min = *self.words.iter().min().unwrap();
                let max = *self.words.iter().max().unwrap();
                (min, max)
            }
            TornOp::SetAll(_) => panic!("SetAll is not read-only"),
        }
    }

    fn is_read_only(op: &TornOp) -> bool {
        matches!(op, TornOp::ReadAll)
    }

    fn approx_bytes(&self) -> u64 {
        (Self::WORDS * 8) as u64
    }
}

/// Readers hammer the caught-up slot path while a writer rewrites the
/// whole array; every returned snapshot must be internally consistent —
/// the direct test that a reader slot excludes the combiner.
#[test]
fn slot_reads_are_never_torn() {
    const READERS: usize = 3;
    let asg = Topology::new(2, 4, 1).assign_workers(READERS + 1);
    let nr = Arc::new(NodeReplicated::with_hooks_and_fairness(
        TornDetector::new(),
        asg,
        128,
        NoopHooks,
        FairnessMode::Throughput,
    ));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let nr = Arc::clone(&nr);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let t = nr.register(0);
            let mut v = 1u64;
            while !stop.load(Ordering::Relaxed) {
                nr.execute(&t, TornOp::SetAll(v));
                v += 1;
            }
            v
        })
    };
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let nr = Arc::clone(&nr);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let t = nr.register(1 + r);
                let mut reads = 0u64;
                let mut last_seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (min, max) = nr.execute(&t, TornOp::ReadAll);
                    assert_eq!(min, max, "torn read through the reader slot");
                    // Values a single reader observes are monotone
                    // (the writer only counts up).
                    assert!(min >= last_seen, "read went backwards");
                    last_seen = min;
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let total_reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_reads > 0, "readers made no progress");
    assert!(nr.read_fast_paths() > 0, "no read took the caught-up path");
}

/// Crash/recovery: caught-up reads on the recovered instance observe
/// exactly the recovered prefix — never state from after the crash cut —
/// and they actually take the caught-up slot path (counter probe).
#[test]
fn recovered_slot_reads_see_exactly_the_recovered_prefix() {
    const WORKERS: usize = 2;
    let cfg = || {
        PrepConfig::new(DurabilityLevel::Buffered)
            .with_log_size(256)
            .with_epsilon(8)
            .with_fairness(FairnessMode::Throughput)
            .with_runtime(PmemRuntime::for_crash_tests())
    };
    let asg = Topology::new(2, 2, 1).assign_workers(WORKERS);
    let prep = Arc::new(PrepUc::new(Recorder::new(), asg.clone(), cfg()));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let prep = Arc::clone(&prep);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let token = prep.register(w);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    prep.execute(&token, RecorderOp::Record((w as u64) << 32 | i));
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (crash_token, (image, ())) = prep.simulate_crash_with(|| ());
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Ground truth: the pre-crash instance's full history extends whatever
    // the image captured.
    let full_history = prep.with_replica(0, |r| r.history().to_vec());
    drop(prep);

    let recovered = PrepUc::recover(crash_token, image, asg, cfg());
    let recovered_history = recovered.with_replica(0, |r| r.history().to_vec());
    assert_prefix(&recovered_history, &full_history);

    // Reads on the recovered instance: every read must see exactly the
    // recovered prefix (no lost or phantom post-cut ops).
    let token = recovered.register(0);
    for _ in 0..200 {
        match recovered.execute(&token, RecorderOp::Count) {
            RecorderResp::Count(n) => assert_eq!(
                n,
                recovered_history.len() as u64,
                "read observed state differing from the recovered prefix"
            ),
            other => panic!("unexpected response {other:?}"),
        }
    }
    match recovered.execute(&token, RecorderOp::Last) {
        RecorderResp::Last(last) => assert_eq!(last, recovered_history.last().copied()),
        other => panic!("unexpected response {other:?}"),
    }
    assert!(
        recovered.read_fast_paths() > 0,
        "recovered reads never took the caught-up path"
    );
}
