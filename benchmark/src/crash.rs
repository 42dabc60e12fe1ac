//! Crash → recover cycles against a crash-simulating twin of a workload's
//! store. `crash_recover` is this and nothing else; every other workload
//! runs such cycles on its own store shape before and after its body, so
//! `recover_ms` says what a restart of *that* store costs.
//!
//! One cycle: [`WORKERS`] threads each apply a burst of versioned updates
//! to keys they own, all calls return (every update is acked), the power is
//! cut, the store is dropped and recovered, and every key is read back:
//! the recovered version must be one that was written, never newer than
//! the last ack; a durable cycle loses nothing, a buffered cycle at most
//! `loss_bound()` updates.

use prep_seqds::hashmap::{MapOp, MapResp};
use prep_shard::ShardToken;
use prep_uc::DurabilityLevel;

use crate::host::{self, now_ns};
use crate::report::Outcome;
use crate::spec::{
    key_of, owned, route_key, seq_of, value_of, KeyStream, Store, Traffic, Workload, WORKERS,
};
use crate::stats::{better_decile, percentile_of, ratio, Better, Metric};
use crate::trace::{self, Span};

/// Every this-many-th update of a burst is timed.
const SAMPLE_EVERY: u64 = 16;

#[derive(Debug, Default)]
pub struct CrashReport {
    /// Per kept cycle: `recover` call + `register` + first verified `Get`.
    pub recover_ms: Vec<f64>,
    pub capture_ms: Vec<f64>,
    pub recover_call_ms: Vec<f64>,
    pub first_read_us: Vec<f64>,
    /// Acked updates missing after each buffered cycle's crash.
    pub lost_buffered: Vec<f64>,
    pub loss_bound: u64,
    /// Burst phase, per kept cycle.
    pub ops_per_s: Vec<f64>,
    pub cpu_ms_per_kop: Vec<f64>,
    /// Median update latency of each kept durable cycle.
    pub lat_p50_us: Vec<f64>,
    pub switches_per_op: Vec<f64>,
    /// Updates acked over all kept cycles, and contract violations among
    /// them (wrong previous value, unwritten or too-new recovered version,
    /// loss beyond the bound).
    pub acked: u64,
    pub violations: u64,
    /// Building and prefilling the (latest) twin, seconds.
    pub build_s: f64,
    /// Cycles run so far, kept or not: numbers the key streams and spans.
    cycles_run: u64,
    /// Allocations per update in the bursts that counted them.
    pub allocs_per_op: Vec<f64>,
    /// Burst throughput with and without the traced run's counting.
    pub traced_ops_per_s: Vec<f64>,
    pub untraced_ops_per_s: Vec<f64>,
    /// One span per phase of every kept cycle; `id` is the cycle.
    pub spans: Vec<Span>,
}

impl CrashReport {
    /// The recovery path's per-layer metrics.
    pub fn per_layer(&self) -> Vec<Metric> {
        vec![
            Metric::of_cycles("core.capture_ms", "ms", &self.capture_ms, Better::Lower),
            Metric::of_cycles(
                "core.recover_call_ms",
                "ms",
                &self.recover_call_ms,
                Better::Lower,
            ),
            Metric::of_cycles(
                "core.first_read_us",
                "us",
                &self.first_read_us,
                Better::Lower,
            ),
            Metric::of_slices("core.lost_ops_per_crash", "ops", &self.lost_buffered),
            Metric::point("core.loss_bound_ops", "ops", self.loss_bound as f64),
            Metric::point(
                "pmem.crashsim_update_us",
                "us",
                ratio(1e6, better_decile(&self.ops_per_s, Better::Higher)),
            ),
        ]
    }
}

/// When to stop cycling: once `min_kept` cycles are kept and the clock has
/// passed `deadline_ns`. A twin's cycle 0 (cold recovery path) is never
/// kept.
struct Until {
    min_kept: usize,
    deadline_ns: u64,
}

/// `seqs[w][k / WORKERS]`: last acked version of worker `w`'s key `k`.
type Seqs = Vec<Vec<u64>>;

fn register_all(store: &Store) -> Vec<ShardToken> {
    (0..WORKERS).map(|w| store.register(w)).collect()
}

/// Builds the crash-simulating store and writes version 0 of every key,
/// durably: the baseline all cycles start from. Also returns the seconds
/// this took.
fn build_twin(w: &Workload) -> (Store, Vec<ShardToken>, Seqs, f64) {
    assert_eq!(w.store.keys % WORKERS as u64, 0, "workers own equal shares");
    let t = now_ns();
    let store = w.store.build(true);
    let tokens = register_all(&store);
    let per_worker = w.store.keys as usize / WORKERS;
    std::thread::scope(|s| {
        for (i, token) in tokens.iter().enumerate() {
            let store = &store;
            let keys = w.store.keys;
            s.spawn(move || {
                for key in (i as u64..keys).step_by(WORKERS) {
                    store.execute(
                        token,
                        MapOp::Insert {
                            key,
                            value: value_of(key, 0),
                        },
                    );
                }
            });
        }
    });
    store.quiesce_persistence();
    let build_s = (now_ns() - t) as f64 / 1e9;
    (store, tokens, vec![vec![0; per_worker]; WORKERS], build_s)
}

struct Burst {
    wall_ns: u64,
    cpu_ns: u64,
    switches: u64,
    samples: Vec<u64>,
    violations: u64,
}

/// The update phase of one cycle.
fn burst(
    w: &Workload,
    store: &Store,
    tokens: &[ShardToken],
    seqs: &mut Seqs,
    lane: u64,
    updates: u64,
) -> Burst {
    let before = host::system_under_test(&host::tasks());
    let t0 = now_ns();
    let per_thread: Vec<(Vec<u64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = seqs
            .iter_mut()
            .enumerate()
            .map(|(i, seqs)| {
                let token = &tokens[i];
                let mut keys = KeyStream::new(w, lane, i as u64);
                std::thread::Builder::new()
                    .name(format!("bench-worker-{i}"))
                    .spawn_scoped(s, move || {
                        let mut samples = Vec::with_capacity((updates / SAMPLE_EVERY) as usize + 1);
                        let mut violations = 0;
                        for n in 0..updates {
                            let key = owned(keys.key(), i);
                            let seq = &mut seqs[key as usize / WORKERS];
                            let op = MapOp::Insert {
                                key,
                                value: value_of(key, *seq + 1),
                            };
                            let t = n.is_multiple_of(SAMPLE_EVERY).then(now_ns);
                            let resp = store.execute(token, op);
                            if let Some(t) = t {
                                samples.push(now_ns() - t);
                            }
                            if resp != MapResp::Value(Some(value_of(key, *seq))) {
                                violations += 1;
                            }
                            *seq += 1;
                        }
                        (samples, violations)
                    })
                    .expect("spawn worker")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall_ns = now_ns() - t0;
    let after = host::system_under_test(&host::tasks());
    let mut samples = Vec::new();
    let mut violations = 0;
    for (s, v) in per_thread {
        samples.extend(s);
        violations += v;
    }
    Burst {
        wall_ns,
        cpu_ns: after.0 - before.0,
        switches: after.1 - before.1,
        samples,
        violations,
    }
}

/// Reads every key back after a recovery and folds the recovered versions
/// into `seqs`. Returns (updates lost, violations).
fn verify(keys: u64, store: &Store, token: &ShardToken, seqs: &mut [Vec<u64>]) -> (u64, u64) {
    let (mut lost, mut violations) = (0, 0);
    for key in 0..keys {
        let acked = &mut seqs[key as usize % WORKERS][key as usize / WORKERS];
        match store.execute(token, MapOp::Get { key }) {
            MapResp::Value(Some(v)) if key_of(v) == key && seq_of(v) <= *acked => {
                lost += *acked - seq_of(v);
                *acked = seq_of(v);
            }
            _ => violations += 1,
        }
    }
    (lost, violations)
}

/// One power failure and recovery.
struct Restart {
    /// Instants: cut begins, cut captured, store dropped, `recover`
    /// returned, first `Get` answered.
    t: [u64; 5],
    lost: u64,
    violations: u64,
}

impl Restart {
    fn capture_ns(&self) -> u64 {
        self.t[1] - self.t[0]
    }
    fn recover_call_ns(&self) -> u64 {
        self.t[3] - self.t[2]
    }
    fn first_read_ns(&self) -> u64 {
        self.t[4] - self.t[3]
    }
}

/// Cuts the power on `store`, drops it, recovers it at `level`, reads key 0
/// and then every key. Returns the recovered store and its tokens.
fn restart(
    w: &Workload,
    level: DurabilityLevel,
    store: Store,
    tokens: Vec<ShardToken>,
    seqs: &mut Seqs,
) -> (Store, Vec<ShardToken>, Restart) {
    let t0 = now_ns();
    let (crash, image) = store.simulate_crash();
    let t1 = now_ns();
    // The power failure. Untimed: a restarted process has nothing to tear
    // down.
    drop(tokens);
    drop(store);
    let t2 = now_ns();
    let store = Store::recover(
        crash,
        image,
        w.store.assignment(),
        w.store.prep_config(level, true),
        route_key,
    );
    let t3 = now_ns();
    let tokens = register_all(&store);
    let first = store.execute(&tokens[0], MapOp::Get { key: 0 });
    let t4 = now_ns();
    let first_ok =
        matches!(first, MapResp::Value(Some(v)) if key_of(v) == 0 && seq_of(v) <= seqs[0][0]);
    let (lost, violations) = verify(w.store.keys, &store, &tokens[0], seqs);
    let timing = Restart {
        t: [t0, t1, t2, t3, t4],
        lost,
        violations: violations + u64::from(!first_ok),
    };
    (store, tokens, timing)
}

/// Builds a twin of `w`'s store, runs crash → recover cycles on it and adds
/// them to `r`. A store is recovered at the level it crashed at (a durable
/// image recovered as buffered would skip the log replay). With `alternate` (the crash
/// workload) the level then flips through a clean restart — quiesce, cut,
/// recover at the other level — which must lose nothing.
/// `traced` counts allocations in every other pair of bursts, so the run
/// can price that counting.
fn cycles(
    w: &Workload,
    seed: u64,
    updates: u64,
    alternate: bool,
    until: Until,
    traced: bool,
    r: &mut CrashReport,
) {
    let (mut store, mut tokens, mut seqs);
    (store, tokens, seqs, r.build_s) = build_twin(w);
    let mut level = w.store.durability;
    let mut cycle = 0u64;
    loop {
        if cycle.saturating_sub(1) as usize >= until.min_kept && now_ns() >= until.deadline_ns {
            break;
        }
        let lane = seed.wrapping_mul(1 << 20) + r.cycles_run;
        let counting = traced && (cycle / 2) % 2 == 1;
        trace::count_allocs(counting);
        let allocs = trace::allocs();
        let burst_at = now_ns();
        let b = burst(w, &store, &tokens, &mut seqs, lane, updates);
        trace::count_allocs(false);
        let allocs = trace::allocs() - allocs;
        let bound = store.loss_bound();
        let rs;
        (store, tokens, rs) = restart(w, level, store, tokens, &mut seqs);
        r.violations += b.violations + rs.violations + u64::from(rs.lost > bound);

        // Cycle 0 pays for cold code and first-touch memory.
        if cycle > 0 {
            let total = updates * WORKERS as u64;
            let mut samples = b.samples;
            r.recover_ms.push((rs.t[4] - rs.t[2]) as f64 / 1e6);
            r.capture_ms.push(rs.capture_ns() as f64 / 1e6);
            r.recover_call_ms.push(rs.recover_call_ns() as f64 / 1e6);
            r.first_read_us.push(rs.first_read_ns() as f64 / 1e3);
            if level == DurabilityLevel::Buffered {
                r.lost_buffered.push(rs.lost as f64);
                r.loss_bound = bound;
            }
            let ops_per_s = total as f64 * 1e9 / b.wall_ns as f64;
            r.ops_per_s.push(ops_per_s);
            if counting {
                r.allocs_per_op.push(allocs as f64 / total as f64);
                r.traced_ops_per_s.push(ops_per_s);
            } else {
                r.untraced_ops_per_s.push(ops_per_s);
            }
            for (name, parent, start_ns, end_ns) in [
                ("cycle", "", burst_at, rs.t[4]),
                ("shard.burst", "cycle", burst_at, burst_at + b.wall_ns),
                ("core.capture", "cycle", rs.t[0], rs.t[1]),
                ("core.recover_call", "cycle", rs.t[2], rs.t[3]),
                ("core.first_read", "cycle", rs.t[3], rs.t[4]),
            ] {
                r.spans.push(Span {
                    name,
                    parent,
                    id: r.cycles_run,
                    start_ns,
                    end_ns,
                });
            }
            r.cpu_ms_per_kop
                .push(b.cpu_ns as f64 / 1e6 / (total as f64 / 1e3));
            r.switches_per_op.push(b.switches as f64 / total as f64);
            // A durable update takes twice a buffered one: mixed, the
            // cycle medians have two modes and no stable middle.
            if level == DurabilityLevel::Durable {
                r.lat_p50_us
                    .push(percentile_of(&mut samples, 0.5) as f64 / 1e3);
            }
            r.acked += total;
        }
        if alternate {
            level = match level {
                DurabilityLevel::Buffered => DurabilityLevel::Durable,
                DurabilityLevel::Durable => DurabilityLevel::Buffered,
            };
            store.quiesce_persistence();
            let clean;
            (store, tokens, clean) = restart(w, level, store, tokens, &mut seqs);
            r.violations += clean.violations + clean.lost;
        }
        cycle += 1;
        r.cycles_run += 1;
    }
}

/// One round of recovery cycles of a non-crash workload lasts this long and
/// keeps at least this many cycles (a cycle of the 262 144-key durable twin
/// takes 0.2 s, one of a 16 384-key serve twin 0.02 s).
const SIDE_NS: u64 = 1_500_000_000;
const SIDE_MIN_CYCLES: usize = 5;
/// Updates per worker in one of its bursts: more than any serve store's
/// loss bound, and short, because here only the recoveries are timed.
const SIDE_UPDATES: u64 = 500;
/// Fewest cycles the crash workload keeps, whatever `--seconds` says.
const CRASH_MIN_CYCLES: usize = 6;

/// One round of the recovery cycles every non-crash workload runs before
/// and after its body (two rounds far apart: a slow stretch of the host
/// that swallows one leaves the other), on a twin of its store at the
/// store's own durability level. Adds the cycles to `r`.
pub fn side_cycles(w: &Workload, seed: u64, r: &mut CrashReport) {
    let until = Until {
        min_kept: SIDE_MIN_CYCLES,
        deadline_ns: now_ns() + SIDE_NS,
    };
    cycles(w, seed, SIDE_UPDATES, false, until, false, r);
}

/// The crash workload: cycles for the whole window, the level flipping
/// every cycle. Returns the end-to-end metrics but `recover_ms`, which the
/// caller takes from the report as it does for every workload.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    setups: usize,
) -> (Outcome, CrashReport) {
    let Traffic::Crash { updates_per_worker } = w.traffic else {
        unreachable!("crash runner on a non-crash workload")
    };
    // A build of this small store takes 35 ms, of which thread starts and
    // fresh pages are a noisy half: three times the usual number of builds.
    let mut setup_s: Vec<f64> = (1..setups * 3).map(|_| build_twin(w).3).collect();
    let until = Until {
        min_kept: CRASH_MIN_CYCLES,
        deadline_ns: now_ns() + seconds * 1_000_000_000,
    };
    let mut r = CrashReport::default();
    cycles(w, seed, updates_per_worker, true, until, traced, &mut r);
    setup_s.push(r.build_s);
    let mut out = Outcome {
        end_to_end: vec![
            Metric::of_slices("setup_s", "s", &setup_s),
            Metric::of_cycles("lat_p50_us", "us", &r.lat_p50_us, Better::Lower),
            Metric::of_cycles("cpu_ms_per_kop", "ms", &r.cpu_ms_per_kop, Better::Lower),
            Metric::of_cycles("ops_per_s", "ops/s", &r.ops_per_s, Better::Higher),
        ],
        ..Outcome::default()
    };
    if traced {
        let p50_ns: Vec<f64> = r.lat_p50_us.iter().map(|us| us * 1e3).collect();
        out.per_layer = vec![
            Metric::of_cycles("shard.op_p50_ns", "ns", &p50_ns, Better::Lower),
            Metric::of_slices("proc.ctx_switches_per_op", "n", &r.switches_per_op),
            Metric::of_slices("proc.allocs_per_op", "n", &r.allocs_per_op),
            Metric::point(
                "trace_overhead_pct",
                "%",
                100.0
                    * (ratio(
                        better_decile(&r.untraced_ops_per_s, Better::Higher),
                        better_decile(&r.traced_ops_per_s, Better::Higher),
                    ) - 1.0),
            ),
        ];
        out.save_trace(w.name, &r.spans);
    }
    (out, r)
}
