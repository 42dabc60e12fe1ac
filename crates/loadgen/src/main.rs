//! `prep-loadgen` binary: shoot an open-loop workload at a prep-serve
//! instance and print the latency distribution.
//!
//! ```text
//! prep-loadgen --addr 127.0.0.1:7070 --rate 5000 --duration-ms 2000
//!              [--conns 2] [--keys 10000] [--mix uniform|zipf:0.99]
//!              [--gets 0.5] [--ack buffered|durable] [--seed 42]
//!              [--preload 1000] [--warmup-ms 200] [--crash-at-ms N]
//!              [--arrival fixed|poisson|bursty:ON,OFF] [--shutdown]
//! ```

use prep_loadgen::arrivals::Arrival;
use prep_loadgen::keys::KeyMix;
use prep_loadgen::run::{run, RunConfig};
use prep_serve::proto::AckLevel;

fn usage() -> ! {
    eprintln!(
        "usage: prep-loadgen [--addr A] [--rate R] [--duration-ms N] [--warmup-ms N]\n\
         \x20                   [--conns N] [--keys N] [--mix uniform|zipf:THETA]\n\
         \x20                   [--gets F] [--ack buffered|durable] [--seed N]\n\
         \x20                   [--preload N] [--crash-at-ms N]\n\
         \x20                   [--arrival fixed|poisson|bursty:ON,OFF] [--shutdown]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = RunConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--addr" => cfg.addr = val(&mut args),
            "--rate" => cfg.rate = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--duration-ms" => cfg.duration_ms = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--warmup-ms" => cfg.warmup_ms = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--conns" => cfg.conns = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--keys" => cfg.keys = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--mix" => {
                cfg.mix = match val(&mut args).as_str() {
                    "uniform" => KeyMix::Uniform,
                    other => match other.strip_prefix("zipf:") {
                        Some(t) => KeyMix::Zipfian {
                            theta: t.parse().unwrap_or_else(|_| usage()),
                        },
                        None => usage(),
                    },
                }
            }
            "--gets" => cfg.get_fraction = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--ack" => {
                cfg.ack = match val(&mut args).as_str() {
                    "buffered" => AckLevel::Buffered,
                    "durable" => AckLevel::Durable,
                    _ => usage(),
                }
            }
            "--seed" => cfg.seed = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--preload" => cfg.preload = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--crash-at-ms" => {
                cfg.crash_at_ms = Some(val(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--arrival" => cfg.arrival = Arrival::parse(&val(&mut args)).unwrap_or_else(|| usage()),
            "--shutdown" => cfg.shutdown = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prep-loadgen: {e}");
            std::process::exit(1);
        }
    };
    let us = |ns: u64| ns as f64 / 1_000.0;
    println!(
        "offered {:.0}/s achieved {:.0}/s | sent {} completed {} shed {} errors {} lost {}",
        cfg.rate,
        report.achieved_rate(),
        report.sent,
        report.completed,
        report.shed,
        report.errors,
        report.lost
    );
    println!(
        "latency us: p50 {:.1} p90 {:.1} p99 {:.1} p999 {:.1} max {:.1} (n={})",
        us(report.hist.percentile(0.50)),
        us(report.hist.percentile(0.90)),
        us(report.hist.percentile(0.99)),
        us(report.hist.percentile(0.999)),
        us(report.hist.max()),
        report.hist.count()
    );
    if report.update_hist.count() > 0 {
        println!(
            "updates us: p50 {:.1} p99 {:.1} p999 {:.1} (n={}, ack={:?})",
            us(report.update_hist.percentile(0.50)),
            us(report.update_hist.percentile(0.99)),
            us(report.update_hist.percentile(0.999)),
            report.update_hist.count(),
            cfg.ack
        );
    }
    if report.get_hist.count() > 0 {
        println!(
            "gets us: p50 {:.1} p99 {:.1} p999 {:.1} (n={})",
            us(report.get_hist.percentile(0.50)),
            us(report.get_hist.percentile(0.99)),
            us(report.get_hist.percentile(0.999)),
            report.get_hist.count()
        );
    }
    if let Some(probe) = report.crash {
        match probe.ttfr_ns() {
            Some(ttfr) => println!("crash: time-to-first-response {:.1} us", us(ttfr)),
            None => println!("crash: injected but no post-crash response observed"),
        }
    }
    if report.lost > 0 {
        std::process::exit(1);
    }
}
