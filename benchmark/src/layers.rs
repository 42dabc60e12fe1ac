//! The layer ladder and the single-layer probes of the traced run.
//!
//! The ladder replays the first [`LADDER_OPS`] keys of the workload's own
//! stream, single-threaded, through each layer's public entry point on the
//! way down to the sequential map: `seqds` (the map itself), `nr` (volatile
//! node replication), `core` (`PrepUc`, the workload's persistence
//! settings) and `shard` (`ShardedStore`). Each rung's ns/op minus the rung
//! below is that layer's own cost, so `seqds <= nr <= core` must hold.
//! `core <= shard` holds only while persistence keeps up: a `ShardedStore`
//! has one persistence thread per shard where a lone `PrepUc` has one, so
//! when the writer is gated on persistence the sharded rung is *faster*.
//! That inversion is reported, not failed.

use prep_nr::NodeReplicated;
use prep_pmem::{LatencyModel, PmemRuntime};
use prep_seqds::hashmap::{HashMap, MapOp};
use prep_seqds::SequentialObject;
use prep_sync::{SeqVersion, Waiter};
use prep_uc::PrepUc;

use crate::host::now_ns;
use crate::spec::{value_of, KeyStream, Workload};
use crate::stats::{median, Metric};

/// Operations replayed per rung. At the durable engine's 2.5 us per update
/// this keeps the ladder near two seconds.
const LADDER_OPS: usize = 100_000;
/// A rung may undercut the one below by this much before the ordering
/// counts as broken (the two are timed seconds apart on a shared host).
const ORDER_TOLERANCE: f64 = 0.10;

/// Times `puts` then `gets` through `exec`, returning ns per (put, get).
fn rung(keys: &[u64], all_keys: u64, mut exec: impl FnMut(MapOp)) -> (f64, f64) {
    for key in 0..all_keys {
        exec(MapOp::Insert {
            key,
            value: value_of(key, 0),
        });
    }
    let t0 = now_ns();
    for (n, &key) in keys.iter().enumerate() {
        exec(MapOp::Insert {
            key,
            value: value_of(key, n as u64 + 1),
        });
    }
    let t1 = now_ns();
    for &key in keys {
        exec(MapOp::Get { key });
    }
    let t2 = now_ns();
    let n = keys.len() as f64;
    ((t1 - t0) as f64 / n, (t2 - t1) as f64 / n)
}

/// What the ladder found besides its numbers.
#[derive(Default)]
pub struct LadderOrder {
    /// `seqds <= nr <= core` does not hold: the run does not count.
    pub broken: Option<String>,
    /// `core > shard`: persistence-bound (see the module docs).
    pub note: Option<String>,
}

/// Runs the ladder.
pub fn ladder(w: &Workload, seed: u64) -> (Vec<Metric>, LadderOrder) {
    let mut stream = KeyStream::new(w, seed, 0);
    let keys: Vec<u64> = (0..LADDER_OPS).map(|_| stream.key()).collect();
    let n_keys = w.store.keys;
    let asg = w.store.assignment();

    let mut map = HashMap::new();
    let seqds = rung(&keys, n_keys, |op| {
        std::hint::black_box(if HashMap::is_read_only(&op) {
            map.apply_readonly(&op)
        } else {
            map.apply(&op)
        });
    });
    let nr = {
        let nr = NodeReplicated::new(HashMap::new(), asg.clone(), w.store.log_size);
        let token = nr.register(0);
        rung(&keys, n_keys, |op| {
            std::hint::black_box(nr.execute(&token, op));
        })
    };
    let core = {
        let uc = PrepUc::new(
            HashMap::new(),
            asg,
            w.store.prep_config(w.store.durability, false),
        );
        let token = uc.register(0);
        rung(&keys, n_keys, |op| {
            std::hint::black_box(uc.execute(&token, op));
        })
    };
    let store = w.store.build(false);
    let token = store.register(0);
    let shard = rung(&keys, n_keys, |op| {
        std::hint::black_box(store.execute(&token, op));
    });
    let t = now_ns();
    for &key in &keys {
        std::hint::black_box(store.shard_of(&MapOp::Get { key }));
    }
    let route_ns = (now_ns() - t) as f64 / keys.len() as f64;

    let rungs = [
        ("seqds", seqds),
        ("nr", nr),
        ("core", core),
        ("shard", shard),
    ];
    let mut out_of_order = rungs.windows(2).filter_map(|p| {
        let ((lo_name, lo), (hi_name, hi)) = (p[0], p[1]);
        (lo.0 > hi.0 * (1.0 + ORDER_TOLERANCE)).then(|| {
            (
                hi_name,
                format!(
                    "{lo_name}.put_ns = {:.0} > {hi_name}.put_ns = {:.0}",
                    lo.0, hi.0
                ),
            )
        })
    });
    let order = match out_of_order.next() {
        None => LadderOrder::default(),
        Some(("shard", what)) => LadderOrder {
            broken: None,
            note: Some(format!("ladder: {what}: shards persist in parallel")),
        },
        Some((_, what)) => LadderOrder {
            broken: Some(format!("layer ladder out of order: {what}")),
            note: None,
        },
    };
    let metrics = vec![
        Metric::point("seqds.put_ns", "ns", seqds.0),
        Metric::point("seqds.get_ns", "ns", seqds.1),
        Metric::point("nr.put_ns", "ns", nr.0),
        Metric::point("nr.get_ns", "ns", nr.1),
        Metric::point("core.put_ns", "ns", core.0),
        Metric::point("core.get_ns", "ns", core.1),
        Metric::point("shard.put_ns", "ns", shard.0),
        Metric::point("shard.get_ns", "ns", shard.1),
        Metric::point("shard.route_ns", "ns", route_ns),
    ];
    (metrics, order)
}

/// `sync` and `pmem` on their own: what one escalated `Waiter::wait` costs
/// (every idle server thread sits in one), and whether the Optane cost
/// model still charges what it says.
pub fn micro_probes() -> Vec<Metric> {
    // A fresh waiter spins, then yields, then sleeps; the first call that
    // takes most of its 50 us quantum is the first sleep.
    let mut escalate = Vec::new();
    let mut sleeps = Vec::new();
    for _ in 0..15 {
        let mut w = Waiter::new();
        let start = now_ns();
        for _ in 0..1_000 {
            let t = now_ns();
            w.wait();
            let took = now_ns() - t;
            if took >= 45_000 {
                escalate.push((t - start) as f64 / 1e3);
                sleeps.push(took as f64 / 1e3);
                break;
            }
        }
        for _ in 0..4 {
            let t = now_ns();
            w.wait();
            sleeps.push((now_ns() - t) as f64 / 1e3);
        }
    }

    let version = SeqVersion::new();
    const READS: u64 = 1_000_000;
    let t = now_ns();
    let mut valid = 0u64;
    for _ in 0..READS {
        if let Some(snap) = std::hint::black_box(&version).read_begin() {
            valid += u64::from(version.validate(snap));
        }
    }
    let seqversion_ns = (now_ns() - t) as f64 / READS as f64;
    assert_eq!(valid, READS, "no writer ran");

    let rt = PmemRuntime::new(LatencyModel::optane(), false);
    const CALLS: u64 = 2_000;
    let t0 = now_ns();
    for _ in 0..CALLS {
        rt.clflush();
    }
    let t1 = now_ns();
    for _ in 0..CALLS {
        rt.sfence();
    }
    let t2 = now_ns();
    for _ in 0..10 {
        rt.wbinvd(0);
    }
    let t3 = now_ns();
    vec![
        Metric::point("sync.waiter_escalate_us", "us", median(&escalate)),
        Metric::point("sync.waiter_sleep_wake_us", "us", median(&sleeps)),
        Metric::point("sync.seqversion_read_ns", "ns", seqversion_ns),
        Metric::point("pmem.clflush_ns", "ns", (t1 - t0) as f64 / CALLS as f64),
        Metric::point("pmem.sfence_ns", "ns", (t2 - t1) as f64 / CALLS as f64),
        Metric::point("pmem.wbinvd_us", "us", (t3 - t2) as f64 / 10.0 / 1e3),
    ]
}
