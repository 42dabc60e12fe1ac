//! Engine workloads: [`WORKERS`] closed-loop threads calling
//! `ShardedStore::execute`, no wire.
//!
//! Each worker updates only keys it owns, so it knows their exact state:
//! every update's returned previous value is checked against it, and every
//! 64th operation is a read of an owned key that must return it (the one
//! after it is timed). Reads of
//! arbitrary keys must return a value written under that key.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use prep_seqds::hashmap::{MapOp, MapResp};
use prep_shard::ShardToken;
use prep_sync::CachePadded;

use crate::host::{now_ns, sleep_until};
use crate::report::{persist_lag, store_counter_metrics, Boundary, Outcome};
use crate::spec::{key_of, owned, value_of, KeyStream, Store, Traffic, Workload, WORKERS};
use crate::stats::{
    median, percentile, percentile_of, ratio, traced_slice, Metric, SLICES, UNTRACED_SLICES,
};
use crate::trace::{self, Span};

/// Every this-many-th operation is a verified read; the one after it is
/// timed.
const SAMPLE_EVERY: u64 = 64;
/// Operations each worker runs before the timed window (part of set-up).
const WARMUP_OPS: u64 = 50_000;
/// A key's slot in a worker's shadow when the key is absent.
const ABSENT: u64 = u64::MAX;

struct Shared<'a> {
    w: &'a Workload,
    store: &'a Store,
    get_share: f64,
    seed: u64,
    /// Set-up checkpoints: prefilled, warmed up, persistence caught up.
    barrier: Barrier,
    slice: AtomicUsize,
    stop: AtomicBool,
    done: [CachePadded<AtomicU64>; WORKERS],
    traced: bool,
}

#[derive(Default)]
struct WorkerLog {
    /// Sampled call times per slice, ns.
    samples: [Vec<u64>; SLICES],
    spans: Vec<Span>,
    reads: u64,
    failed: u64,
}

fn worker(sh: &Shared, i: usize, token: &ShardToken) -> WorkerLog {
    let keys = sh.w.store.keys;
    let mut shadow: Vec<u64> = (i as u64..keys)
        .step_by(WORKERS)
        .map(|key| value_of(key, 0))
        .collect();
    for key in (i as u64..keys).step_by(WORKERS) {
        let value = value_of(key, 0);
        sh.store.execute(token, MapOp::Insert { key, value });
    }
    sh.barrier.wait();

    let mut stream = KeyStream::new(sh.w, sh.seed, i as u64);
    let mut log = WorkerLog::default();
    let mut n = 0u64;
    let mut warm = true;
    loop {
        if warm && n == WARMUP_OPS {
            warm = false;
            sh.barrier.wait(); // warmed up
            sh.barrier.wait(); // persistence caught up: the window starts
        }
        // ord: a stop flag; the join publishes everything else.
        if !warm && sh.stop.load(Ordering::Relaxed) {
            break;
        }
        n += 1;
        if n.is_multiple_of(SAMPLE_EVERY) {
            let key = owned(stream.key(), i);
            let expect = match shadow[key as usize / WORKERS] {
                ABSENT => None,
                v => Some(v),
            };
            log.reads += u64::from(!warm);
            if sh.store.execute(token, MapOp::Get { key }) != MapResp::Value(expect) {
                log.failed += 1;
            }
        } else {
            let t = (n % SAMPLE_EVERY == 1).then(now_ns);
            if stream.chance(sh.get_share) {
                let key = stream.key();
                log.reads += u64::from(!warm);
                match sh.store.execute(token, MapOp::Get { key }) {
                    MapResp::Value(None) => {}
                    MapResp::Value(Some(v)) if key_of(v) == key => {}
                    _ => log.failed += 1,
                }
            } else {
                let key = owned(stream.key(), i);
                let slot = &mut shadow[key as usize / WORKERS];
                let prev = match *slot {
                    ABSENT => None,
                    v => Some(v),
                };
                let (op, next) = if stream.chance(0.5) {
                    let value = value_of(key, n & 0xFFFF_FFFF);
                    (MapOp::Insert { key, value }, value)
                } else {
                    (MapOp::Remove { key }, ABSENT)
                };
                if sh.store.execute(token, op) != MapResp::Value(prev) {
                    log.failed += 1;
                }
                *slot = next;
            }
            if let (Some(start), false) = (t, warm) {
                let end = now_ns();
                // ord: the slice index is a label, not a publication.
                let slice = sh.slice.load(Ordering::Relaxed).min(SLICES - 1);
                log.samples[slice].push(end - start);
                if traced_slice(sh.traced, slice) {
                    log.spans.push(Span {
                        name: "shard.execute",
                        parent: "",
                        id: n * WORKERS as u64 + i as u64,
                        start_ns: start,
                        end_ns: end,
                    });
                }
            }
        }
        if !warm {
            // ord: a progress counter read at slice boundaries.
            sh.done[i].store(n - WARMUP_OPS, Ordering::Relaxed);
        }
    }
    log
}

/// What the main thread saw at a slice boundary.
struct Cut {
    at: Boundary,
    ops: u64,
    allocs: u64,
    metrics: prep_shard::StoreMetrics,
}

fn cut(sh: &Shared) -> Cut {
    // ord: progress counters; slice attribution tolerates a few ops of skew.
    let ops = sh.done.iter().map(|d| d.load(Ordering::Relaxed)).sum();
    Cut {
        at: Boundary::take(),
        ops,
        allocs: trace::allocs(),
        metrics: sh.store.metrics(),
    }
}

/// One instance of the workload: build, prefill, warm up and — unless
/// `seconds` is zero — the timed window. Returns the set-up time and the
/// window's results.
struct Instance {
    setup_s: f64,
    new_ms: f64,
    cuts: Vec<Cut>,
    lags: Vec<u64>,
    logs: Vec<WorkerLog>,
    quiesce_ms: f64,
}

fn instance(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Instance {
    let Traffic::Engine { get_share } = w.traffic else {
        unreachable!("engine runner on a non-engine workload")
    };
    let t_setup = now_ns();
    let store = w.store.build(false);
    let new_ms = (now_ns() - t_setup) as f64 / 1e6;
    let tokens: Vec<ShardToken> = (0..WORKERS).map(|i| store.register(i)).collect();
    let sh = Shared {
        w,
        store: &store,
        get_share,
        seed,
        barrier: Barrier::new(WORKERS + 1),
        slice: AtomicUsize::new(0),
        stop: AtomicBool::new(seconds == 0),
        done: Default::default(),
        traced,
    };
    let mut inst = Instance {
        setup_s: 0.0,
        new_ms,
        cuts: Vec::new(),
        lags: Vec::new(),
        logs: Vec::new(),
        quiesce_ms: 0.0,
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = tokens
            .iter()
            .enumerate()
            .map(|(i, token)| {
                let sh = &sh;
                std::thread::Builder::new()
                    .name(format!("bench-worker-{i}"))
                    .spawn_scoped(s, move || worker(sh, i, token))
                    .expect("spawn worker")
            })
            .collect();
        sh.barrier.wait(); // prefilled
        sh.barrier.wait(); // warmed up
                           // The persistence threads are still replaying the prefill; a store
                           // is not set up until they have caught up.
        store.quiesce_persistence();
        sh.barrier.wait(); // the window starts here
        inst.setup_s = (now_ns() - t_setup) as f64 / 1e9;
        if seconds > 0 {
            let slice_ns = seconds * 1_000_000_000 / SLICES as u64;
            inst.cuts.push(cut(&sh));
            for slice in 0..SLICES {
                let end = inst.cuts[0].at.t_ns + (slice as u64 + 1) * slice_ns;
                trace::count_allocs(traced_slice(traced, slice));
                if traced_slice(traced, slice) {
                    // The traced run also watches how far persistence
                    // trails completion.
                    while now_ns() + 10_000_000 < end {
                        inst.lags.push(persist_lag(&store));
                        sleep_until(now_ns() + 10_000_000);
                    }
                }
                sleep_until(end);
                inst.cuts.push(cut(&sh));
                // ord: a label for the workers' samples.
                sh.slice.store(slice + 1, Ordering::Relaxed);
            }
            trace::count_allocs(false);
            // ord: a stop flag.
            sh.stop.store(true, Ordering::Relaxed);
        }
        inst.logs = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
    });
    if seconds > 0 {
        let t = now_ns();
        store.quiesce_persistence();
        inst.quiesce_ms = (now_ns() - t) as f64 / 1e6;
    }
    inst
}

/// Runs the workload: three set-ups (the last one carries the window).
pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool, setups: usize) -> Outcome {
    let mut setup_s: Vec<f64> = (1..setups)
        .map(|_| instance(w, seed, 0, false).setup_s)
        .collect();
    let mut inst = instance(w, seed, seconds, traced);
    setup_s.push(inst.setup_s);

    let mut out = Outcome::default();
    let mut ops_per_s = Vec::new();
    let mut cpu_ms_per_kop = Vec::new();
    let mut p50 = Vec::new();
    for slice in 0..SLICES {
        let (a, b) = (&inst.cuts[slice], &inst.cuts[slice + 1]);
        let ops = (b.ops - a.ops) as f64;
        let (cpu_ns, _) = b.at.sut_since(&a.at);
        ops_per_s.push(ops * 1e9 / (b.at.t_ns - a.at.t_ns) as f64);
        cpu_ms_per_kop.push(ratio(cpu_ns as f64 / 1e6, ops / 1e3));
        let mut samples: Vec<u64> = inst
            .logs
            .iter()
            .flat_map(|l| l.samples[slice].iter().copied())
            .collect();
        samples.sort_unstable();
        p50.push(percentile(&samples, 0.5) as f64 / 1e3);
    }
    out.attempted = inst.cuts[SLICES].ops - inst.cuts[0].ops;
    out.failed = inst.logs.iter().map(|l| l.failed).sum();
    out.end_to_end = vec![
        Metric::of_slices("setup_s", "s", &setup_s),
        Metric::of_slices("lat_p50_us", "us", &p50),
        Metric::of_slices("cpu_ms_per_kop", "ms", &cpu_ms_per_kop),
        Metric::of_slices("ops_per_s", "ops/s", &ops_per_s),
    ];

    if traced {
        let (on0, on1) = (&inst.cuts[UNTRACED_SLICES], &inst.cuts[SLICES]);
        let ops = (on1.ops - on0.ops) as f64;
        // The mix is stationary, so the traced slices' reads are their
        // share of the window's.
        let reads: u64 = inst.logs.iter().map(|l| l.reads).sum();
        let reads_on = ops * ratio(reads as f64, out.attempted as f64);
        let mut samples: Vec<u64> = (UNTRACED_SLICES..SLICES)
            .flat_map(|s| {
                inst.logs
                    .iter()
                    .flat_map(move |l| l.samples[s].iter().copied())
            })
            .collect();
        samples.sort_unstable();
        let (_, switches) = on1.at.sut_since(&on0.at);
        out.per_layer = store_counter_metrics(&on0.metrics, &on1.metrics, reads_on as u64);
        out.per_layer.extend([
            Metric::point("shard.op_p50_ns", "ns", percentile(&samples, 0.5) as f64),
            Metric::point("shard.op_p99_ns", "ns", percentile(&samples, 0.99) as f64),
            Metric::point("core.new_ms", "ms", inst.new_ms),
            Metric::point("core.quiesce_ms", "ms", inst.quiesce_ms),
            Metric::point(
                "core.persist_lag_p50_ops",
                "ops",
                percentile_of(&mut inst.lags, 0.5) as f64,
            ),
            Metric::point(
                "core.cpu_share.persist",
                "ratio",
                on1.at.share_since(&on0.at, "prep-persistenc"),
            ),
            Metric::point("proc.ctx_switches_per_op", "n", ratio(switches as f64, ops)),
            Metric::point(
                "proc.allocs_per_op",
                "n",
                ratio((on1.allocs - on0.allocs) as f64, ops),
            ),
            Metric::point("proc.cpu_util", "ratio", on1.at.util_since(&on0.at)),
            Metric::point(
                "trace_overhead_pct",
                "%",
                100.0
                    * (median(&ops_per_s[..UNTRACED_SLICES])
                        / median(&ops_per_s[UNTRACED_SLICES..])
                        - 1.0),
            ),
        ]);
        let spans: Vec<Span> = inst
            .logs
            .iter()
            .flat_map(|l| l.spans.iter().copied())
            .collect();
        out.save_trace(w.name, &spans);
    }
    out
}
