//! Read-path microbench: single-reader op cost under each fairness mode,
//! plus the raw lock acquire/release cost. Complements the
//! `prep-bench -- readscale` figure (which sweeps threads) with a stable
//! criterion baseline for the uncontended fast path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use prep_bench::workload::{prefilled_hashmap, MapOpGen};
use prep_nr::{FairnessMode, NodeReplicated, NoopHooks};
use prep_sync::{DistRwLock, PhaseFairRwLock, ReaderId};
use prep_topology::Topology;

const KEYS: u64 = 8_192;
const BATCH: u64 = 100;

fn nr_reads(c: &mut Criterion, fairness: FairnessMode, name: &str) {
    let mut g = c.benchmark_group("readscale/hashmap-100r");
    g.throughput(Throughput::Elements(BATCH));
    g.sample_size(20);
    g.bench_function(name, |b| {
        let asg = Topology::new(2, 4, 1).assign_workers(1);
        let nr = NodeReplicated::with_hooks_and_fairness(
            prefilled_hashmap(KEYS),
            asg,
            8_192,
            NoopHooks,
            fairness,
        );
        let token = nr.register(0);
        let mut gen = MapOpGen::new(100, KEYS, 0);
        b.iter(|| {
            for _ in 0..BATCH {
                nr.execute(&token, gen.next_op());
            }
        });
    });
    g.finish();
}

fn bench_nr_read_path(c: &mut Criterion) {
    nr_reads(c, FairnessMode::Throughput, "NR-Throughput");
    nr_reads(c, FairnessMode::StarvationFree, "NR-StarvationFree");
}

fn bench_raw_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("readscale/raw-read-acquire");
    g.throughput(Throughput::Elements(BATCH));
    g.sample_size(20);

    g.bench_function("DistRwLock-slot", |b| {
        let lock = DistRwLock::new(0u64, 4);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                acc = acc.wrapping_add(*lock.read(ReaderId::Slot(0)));
            }
            acc
        });
    });

    g.bench_function("DistRwLock-shared", |b| {
        let lock = DistRwLock::new(0u64, 4);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                acc = acc.wrapping_add(*lock.read(ReaderId::Shared));
            }
            acc
        });
    });

    g.bench_function("PhaseFairRwLock", |b| {
        let lock = PhaseFairRwLock::new(0u64);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                acc = acc.wrapping_add(*lock.read());
            }
            acc
        });
    });

    g.finish();
}

criterion_group!(benches, bench_nr_read_path, bench_raw_locks);
criterion_main!(benches);
