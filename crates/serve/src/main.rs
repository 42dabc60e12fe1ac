//! `prep-serve` binary: bind a KV server over a sharded PREP-UC store.
//!
//! ```text
//! prep-serve [--addr 127.0.0.1:7070] [--shards 2] [--executors 2]
//!            [--queue-depth 128] [--durability buffered|durable] [--epsilon 64]
//!            [--log-size 4096] [--latency off|optane|optane/N]
//!            [--fairness throughput|fair]
//!            [--crash-sim]
//! ```
//!
//! `--executors N` is the number of connection threads, each of which runs
//! the requests it reads on every shard (NR's β); `--queue-depth N` is how
//! many durable acks one of them may hold while their checkpoints are
//! written before it answers the next durable request `RETRY`.
//!
//! The server runs until `ADMIN SHUTDOWN` arrives on the wire or the
//! process receives SIGTERM/SIGINT; either way it answers every request in
//! flight, releases every pending durable ack, forces a final checkpoint,
//! and exits 0.

use prep_serve::server::{ServeConfig, Server};
use prep_serve::signals;
use prep_uc::{DurabilityLevel, FairnessMode, LatencyModel};

fn usage() -> ! {
    eprintln!(
        "usage: prep-serve [--addr A] [--shards N] [--executors N] [--queue-depth N]\n\
         \x20                 [--durability buffered|durable]\n\
         \x20                 [--epsilon N] [--log-size N] [--latency off|optane|optane/N]\n\
         \x20                 [--fairness throughput|fair]\n\
         \x20                 [--crash-sim]"
    );
    std::process::exit(2);
}

fn parse_latency(s: &str) -> LatencyModel {
    match s {
        "off" => LatencyModel::off(),
        "optane" => LatencyModel::optane(),
        _ => match s.strip_prefix("optane/") {
            Some(d) => LatencyModel::optane_scaled(d.parse().unwrap_or_else(|_| usage())),
            None => usage(),
        },
    }
}

fn main() {
    let mut addr = String::from("127.0.0.1:7070");
    let mut cfg = ServeConfig {
        watch_signals: true,
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--addr" => addr = val(&mut args),
            "--shards" => cfg.shards = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--executors" => {
                cfg.executors_per_shard = val(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--queue-depth" => cfg.queue_depth = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--durability" => {
                cfg.durability = match val(&mut args).as_str() {
                    "buffered" => DurabilityLevel::Buffered,
                    "durable" => DurabilityLevel::Durable,
                    _ => usage(),
                }
            }
            "--epsilon" => cfg.epsilon = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--log-size" => cfg.log_size = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--latency" => cfg.latency = parse_latency(&val(&mut args)),
            "--fairness" => {
                cfg.fairness = match val(&mut args).as_str() {
                    "throughput" => FairnessMode::Throughput,
                    "fair" => FairnessMode::StarvationFree,
                    _ => usage(),
                }
            }
            "--crash-sim" => cfg.crash_sim = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    signals::install();
    let server = match Server::start(cfg.clone(), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("prep-serve: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "prep-serve listening on {} ({} shards, {} conn threads, {:?}, eps={}, crash_sim={})",
        server.local_addr(),
        cfg.shards,
        cfg.executors_per_shard,
        cfg.durability,
        cfg.epsilon,
        cfg.crash_sim
    );
    let report = server.join();
    println!(
        "prep-serve: clean shutdown — {} conns, {} requests ({} shed), {} durable acks, {} crashes; tails {:?}",
        report.connections,
        report.requests,
        report.retries,
        report.durable_acks,
        report.crashes,
        report.completed_tails
    );
}
