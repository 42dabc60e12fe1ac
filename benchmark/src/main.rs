//! The repo benchmark. See README.md for the workloads, the metrics and
//! how to read a trace; BENCHMARK.json for the contract the driver checks.
//!
//! ```text
//! prep-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The exit code is nonzero if any output check failed.

mod crash;
mod engine;
mod host;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod wire;

use report::Outcome;
use spec::{Traffic, Workload};
use stats::{Better, Metric};

#[global_allocator]
static ALLOC: trace::CountingAllocator = trace::CountingAllocator::new();

/// Every end-to-end metric, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("cpu_ms_per_kop", "ms"),
    ("ops_per_s", "ops/s"),
    ("recover_ms", "ms"),
];

/// Every per-layer metric, in print order. A traced run prints all of
/// them; a layer that is not on the workload's path reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.send_late_p99_us", "us"),
    ("client.lat_p90_us", "us"),
    ("client.lat_p99_us", "us"),
    ("client.lat_p999_us", "us"),
    ("client.lat_max_us", "us"),
    ("client.lat_get_p50_us", "us"),
    ("client.lat_put_p50_us", "us"),
    ("client.encode_ns", "ns"),
    ("client.write_ns", "ns"),
    ("client.decode_ns", "ns"),
    ("client.cpu_share", "ratio"),
    ("proto.encode_request_ns", "ns"),
    ("proto.decode_request_ns", "ns"),
    ("proto.encode_response_ns", "ns"),
    ("proto.decode_response_ns", "ns"),
    ("proto.bytes_per_request", "B"),
    ("proto.bytes_per_response", "B"),
    ("server.rtt_hot_p50_us", "us"),
    ("server.residence_p50_us", "us"),
    ("server.sat_ops_per_s", "ops/s"),
    ("server.idle_cpu_share", "ratio"),
    ("server.cpu_share.accept", "ratio"),
    ("server.cpu_share.conn", "ratio"),
    ("server.cpu_share.exec", "ratio"),
    ("server.cpu_share.dur", "ratio"),
    ("server.cpu_share.control", "ratio"),
    ("server.threads", "n"),
    ("server.start_ms", "ms"),
    ("server.shutdown_ms", "ms"),
    ("server.retry_share", "ratio"),
    ("server.persist_lag_p50_ops", "ops"),
    ("server.ckpt_per_kput", "n"),
    ("server.durable_gap_p50_us", "us"),
    ("shard.get_ns", "ns"),
    ("shard.put_ns", "ns"),
    ("shard.route_ns", "ns"),
    ("shard.op_p50_ns", "ns"),
    ("shard.op_p99_ns", "ns"),
    ("core.get_ns", "ns"),
    ("core.put_ns", "ns"),
    ("core.new_ms", "ms"),
    ("core.quiesce_ms", "ms"),
    ("core.persist_lag_p50_ops", "ops"),
    ("core.cpu_share.persist", "ratio"),
    ("core.capture_ms", "ms"),
    ("core.recover_call_ms", "ms"),
    ("core.first_read_us", "us"),
    ("core.lost_ops_per_crash", "ops"),
    ("core.loss_bound_ops", "ops"),
    ("nr.get_ns", "ns"),
    ("nr.put_ns", "ns"),
    ("nr.read_fast_share", "ratio"),
    ("nr.read_validation_fail_share", "ratio"),
    ("nr.read_slow_share", "ratio"),
    ("sync.waiter_sleep_wake_us", "us"),
    ("sync.waiter_escalate_us", "us"),
    ("sync.seqversion_read_ns", "ns"),
    ("seqds.get_ns", "ns"),
    ("seqds.put_ns", "ns"),
    ("pmem.flush_per_update", "n"),
    ("pmem.sfence_per_update", "n"),
    ("pmem.wbinvd_per_kupdate", "n"),
    ("pmem.ckpt_bytes_per_update", "B"),
    ("pmem.bytes_persisted_per_update", "B"),
    ("pmem.clflush_ns", "ns"),
    ("pmem.sfence_ns", "ns"),
    ("pmem.wbinvd_us", "us"),
    ("pmem.crashsim_update_us", "us"),
    ("proc.ctx_switches_per_op", "n"),
    ("proc.allocs_per_op", "n"),
    ("proc.rss_peak_mb", "MB"),
    ("proc.cpu_util", "ratio"),
    ("trace_overhead_pct", "%"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: prep-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]\n\
         workloads: {}\n\
         without --workload every workload runs in turn; --smoke is a quick check \
         (1 s slices, one set-up) whose numbers compare with nothing",
        spec::workloads().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        traced: false,
        setups: 3,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.traced = value().parse::<u8>().unwrap_or_else(|_| usage()) != 0,
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if args.smoke {
        args.seconds = stats::SLICES as u64;
        args.setups = 1;
    }
    if args.seconds == 0 {
        usage();
    }
    args
}

/// Runs one workload: its body between two rounds of recovery cycles (the
/// crash workload is its own), and — traced — the layer ladder and the
/// single-layer probes.
fn run(w: &Workload, args: &Args) -> std::io::Result<Outcome> {
    let (seed, seconds, traced, setups) = (args.seed, args.seconds, args.traced, args.setups);
    let (mut out, crash) = if let Traffic::Crash { .. } = w.traffic {
        crash::run(w, seed, seconds, traced, setups)
    } else {
        let mut crash = crash::CrashReport::default();
        crash::side_cycles(w, seed, &mut crash);
        let out = match w.traffic {
            Traffic::Wire { .. } => wire::run(w, seed, seconds, traced, setups)?,
            _ => engine::run(w, seed, seconds, traced, setups),
        };
        crash::side_cycles(w, seed, &mut crash);
        (out, crash)
    };
    out.attempted += crash.acked;
    out.failed += crash.violations;
    out.end_to_end.push(Metric::of_cycles(
        "recover_ms",
        "ms",
        &crash.recover_ms,
        Better::Lower,
    ));
    if args.traced {
        out.per_layer.extend(crash.per_layer());
        let (ladder, order) = layers::ladder(w, args.seed);
        out.per_layer.extend(ladder);
        out.invalid.extend(order.broken);
        out.notes.extend(order.note);
        out.per_layer.extend(layers::micro_probes());
        out.per_layer
            .push(Metric::point("proc.rss_peak_mb", "MB", host::rss_peak_mb()));
    }
    Ok(out)
}

/// `{"value": v, "unit": "u"}` entries for `names`, taking 0 for a metric
/// the run did not produce.
fn metrics_json(names: &[(&str, &str)], have: &[Metric]) -> String {
    let entries: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = have
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn print(w: &Workload, args: &Args, out: &Outcome) {
    let (names, have) = if args.traced {
        (PER_LAYER, &out.per_layer)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    println!(
        "# workload={} seed={} seconds={} trace={}{}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        if args.smoke {
            " SMOKE: numbers compare with nothing"
        } else {
            ""
        }
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in have {
        debug_assert!(
            names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "{} [{}] is not in the metric list",
            m.name,
            m.unit
        );
        match m.spread {
            Some((min, max)) => println!(
                "# {:<34} {:>14.4} {:<6} (min {min:.4}, max {max:.4})",
                m.name, m.value, m.unit
            ),
            None => println!("# {:<34} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
    for why in &out.invalid {
        println!("# INVALID: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_json(names, have)
    );
}

fn main() {
    let args = parse_args();
    let all = spec::workloads();
    let chosen: Vec<&Workload> = match &args.workload {
        None => all.iter().collect(),
        Some(name) => match all.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => usage(),
        },
    };
    println!("# host: {}", host::fingerprint());
    let mut ok = true;
    for w in chosen {
        match run(w, &args) {
            Ok(out) => {
                print(w, &args, &out);
                ok &= out.correct();
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                ok = false;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json and this file must list the same names.
    #[test]
    fn manifest_lists_every_metric_and_workload() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let workloads = spec::workloads();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(workloads.iter().map(|w| w.name));
        let mut count = 0;
        for name in names {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
            count += 1;
        }
        assert_eq!(
            manifest.matches("\"name\": ").count(),
            count,
            "BENCHMARK.json names something this file does not"
        );
    }
}
