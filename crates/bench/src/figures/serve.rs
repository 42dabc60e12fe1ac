//! Network-service tail-latency figure (repo extension over `prep-serve`).
//!
//! Every other figure drives the store through in-process function calls —
//! closed-loop by construction. This one measures what a *client* sees: an
//! in-process `prep-serve` instance is shot with `prep-loadgen`'s
//! open-loop engine (fixed arrival schedule, latency from scheduled send
//! time, so queueing delay is charged, not hidden), sweeping offered load
//! × ack level {buffered, durable} over a buffered-durability store. The
//! headline columns are p50/p99/p999: buffered acks return at apply time,
//! durable acks wait for the covering checkpoint, and the gap between the
//! two distributions is the price of crash-survivability per request.
//!
//! A final crash cell injects `ADMIN CRASH` mid-run and reports the
//! client-observed recovery time-to-first-response.
//!
//! Every cell is run [`REPEATS`] times against a fresh server (repeats
//! outermost, so slow host drift spreads over all cells instead of biasing
//! one) and reported as the median run by p50, with the p50's min, max and
//! inter-quartile spread over the runs. Each run is also listed on its
//! own: achieved rate, shed count, p50/p99 of all requests, and p50/p99 of
//! GETs and of PUTs apart, since a durable PUT waits for its checkpoint
//! and a GET does not.
//!
//! Caveat: server, load generator, and persistence threads all share this
//! machine — the tails include scheduler noise, and loopback TCP is the
//! transport, not a NIC (see EXPERIMENTS.md § serve).
//!
//! Records `BENCH_serve.json` in the working directory, with the host
//! fingerprint — the perf-trajectory baseline future sessions diff against.

use prep_loadgen::keys::KeyMix;
use prep_loadgen::run::{run as loadgen_run, RunConfig, RunReport};
use prep_loadgen::LatencyHistogram;
use prep_serve::proto::AckLevel;
use prep_serve::server::{ServeConfig, Server};

use crate::figures::host_fingerprint;
use crate::RunOpts;

/// Runs per cell; odd, so the median is a run that happened.
const REPEATS: usize = 5;

/// One (offered rate, ack level) cell: its runs sorted by p50.
struct Record {
    rate: f64,
    level: AckLevel,
    ack: &'static str,
    runs: Vec<RunReport>,
}

impl Record {
    fn p50_us(&self, i: usize) -> f64 {
        self.runs[i].hist.percentile(0.50) as f64 / US
    }

    fn median(&self) -> &RunReport {
        &self.runs[self.runs.len() / 2]
    }

    /// Distance between the quartiles of the runs' p50s.
    fn p50_iqr_us(&self) -> f64 {
        let n = self.runs.len();
        self.p50_us(n - 1 - n / 4) - self.p50_us(n / 4)
    }
}

fn server_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        executors_per_shard: 2,
        queue_depth: 256,
        epsilon: 64,
        log_size: 4096,
        crash_sim: false,
        ..ServeConfig::default()
    }
}

fn load_config(addr: String, rate: f64, ack: AckLevel, duration_ms: u64) -> RunConfig {
    RunConfig {
        addr,
        conns: 2,
        rate,
        duration_ms,
        warmup_ms: (duration_ms / 5).min(500),
        keys: 16_384,
        mix: KeyMix::Zipfian { theta: 0.99 },
        get_fraction: 0.5,
        ack,
        seed: 42,
        preload: 4_096,
        arrival: prep_loadgen::Arrival::Fixed,
        crash_at_ms: None,
        shutdown: false,
    }
}

const US: f64 = 1_000.0;

/// One run's line under its cell: achieved/s, shed, all/GET/PUT p50 and p99.
fn run_row(r: &RunReport) {
    let us = |h: &LatencyHistogram, q: f64| h.percentile(q) as f64 / US;
    println!(
        "      run: achieved={:.0} shed={} p50={:.1} p99={:.1} get p50={:.1} p99={:.1} \
         put p50={:.1} p99={:.1} us",
        r.achieved_rate(),
        r.shed,
        us(&r.hist, 0.50),
        us(&r.hist, 0.99),
        us(&r.get_hist, 0.50),
        us(&r.get_hist, 0.99),
        us(&r.update_hist, 0.50),
        us(&r.update_hist, 0.99),
    );
}

fn row(rate: f64, ack: &str, r: &RunReport) {
    println!(
        "{:>10.0} {:<9} {:>10.0} {:>8} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
        rate,
        ack,
        r.achieved_rate(),
        r.completed,
        r.shed,
        r.hist.percentile(0.50) as f64 / US,
        r.hist.percentile(0.99) as f64 / US,
        r.hist.percentile(0.999) as f64 / US,
        r.hist.max() as f64 / US,
    );
}

/// Runs the serve tail-latency sweep plus the crash-under-load cell.
pub fn run(opts: &RunOpts) {
    let rates: &[f64] = if opts.full {
        &[5_000.0, 20_000.0, 50_000.0]
    } else {
        &[2_000.0, 8_000.0]
    };
    let duration_ms = ((opts.seconds * 1_000.0) as u64).max(400);

    println!();
    println!(
        "== Serve: open-loop tail latency over prep-serve \
         (offered load x ack level, buffered store, zipfian 50% GET)"
    );
    println!(
        "{:>10} {:<9} {:>10} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "offered/s", "ack", "achieved", "done", "shed", "p50us", "p99us", "p999us", "maxus"
    );

    let mut records = Vec::new();
    for &rate in rates {
        for (level, ack) in [
            (AckLevel::Buffered, "buffered"),
            (AckLevel::Durable, "durable"),
        ] {
            records.push(Record {
                rate,
                level,
                ack,
                runs: Vec::with_capacity(REPEATS),
            });
        }
    }
    for _ in 0..REPEATS {
        for r in &mut records {
            let server = Server::start(server_config(), "127.0.0.1:0").expect("start server");
            let cfg = load_config(
                server.local_addr().to_string(),
                r.rate,
                r.level,
                duration_ms,
            );
            r.runs.push(loadgen_run(&cfg).expect("loadgen run"));
            server.shutdown();
        }
    }
    for r in &mut records {
        r.runs.sort_by_key(|run| run.hist.percentile(0.50));
        row(r.rate, r.ack, r.median());
        println!(
            "      p50 over {REPEATS} runs: min={:.1} max={:.1} iqr={:.1} us",
            r.p50_us(0),
            r.p50_us(REPEATS - 1),
            r.p50_iqr_us()
        );
        r.runs.iter().for_each(run_row);
    }

    // Crash-under-load: durable acks against a crash-sim store, with the
    // recovery outage landing mid-window.
    let crash_rate = rates[0];
    let mut crash_runs: Vec<(RunReport, u64)> = (0..REPEATS)
        .map(|_| {
            let server = Server::start(
                ServeConfig {
                    crash_sim: true,
                    ..server_config()
                },
                "127.0.0.1:0",
            )
            .expect("start crash server");
            let mut cfg = load_config(
                server.local_addr().to_string(),
                crash_rate,
                AckLevel::Durable,
                duration_ms.max(800),
            );
            cfg.crash_at_ms = Some(cfg.duration_ms / 3);
            let report = loadgen_run(&cfg).expect("crash run");
            let crashes = server.shutdown().crashes;
            assert_eq!(crashes, 1, "the injected crash must have happened");
            let ttfr_ns = report
                .crash
                .as_ref()
                .and_then(|p| p.ttfr_ns())
                .expect("no post-crash response observed");
            (report, ttfr_ns)
        })
        .collect();
    crash_runs.sort_by_key(|&(_, ttfr_ns)| ttfr_ns);
    let ttfr_us: Vec<f64> = crash_runs.iter().map(|(_, ns)| *ns as f64 / US).collect();
    let crash_median = &crash_runs[REPEATS / 2].0;
    println!();
    println!(
        "-- crash under load at {crash_rate:.0}/s: recovery time-to-first-response {:.1} us \
         (min {:.1}, max {:.1} over {REPEATS} runs; {} requests shed during the median run's outage)",
        ttfr_us[REPEATS / 2],
        ttfr_us[0],
        ttfr_us[REPEATS - 1],
        crash_median.shed
    );

    write_json(opts, &records, crash_median, &ttfr_us);
}

/// Hand-rolled JSON dump (no serde in the dependency closure), matching
/// the other BENCH_*.json baselines: flat fields, one object per cell.
fn write_json(opts: &RunOpts, records: &[Record], crash: &RunReport, ttfr_us: &[f64]) {
    let mut out = String::from("{\n  \"bench\": \"serve\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seconds_per_cell\": {},\n  \"repeats\": {REPEATS},\n  \
         \"latency_model\": \"off\",\n  \"host\": {},\n  \"cells\": [\n",
        if opts.full { "full" } else { "quick" },
        opts.seconds,
        host_fingerprint(),
    ));
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let med = r.median();
        let p50s: Vec<String> = (0..r.runs.len())
            .map(|i| format!("{:.1}", r.p50_us(i)))
            .collect();
        // Per run, in the same order as `p50_us_runs`.
        let per_run = |f: &dyn Fn(&RunReport) -> String| -> String {
            let v: Vec<String> = r.runs.iter().map(f).collect();
            v.join(", ")
        };
        let p99 = |h: &LatencyHistogram| format!("{:.1}", h.percentile(0.99) as f64 / US);
        out.push_str(&format!(
            "    {{\"offered_rate\": {:.0}, \"ack\": \"{}\", \"achieved_rate\": {:.0}, \
             \"completed\": {}, \"shed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"p999_us\": {:.1}, \"p50_us_min\": {:.1}, \"p50_us_max\": {:.1}, \
             \"p50_us_iqr\": {:.1}, \"p50_us_runs\": [{}], \"p99_us_runs\": [{}], \
             \"get_p99_us_runs\": [{}], \"put_p99_us_runs\": [{}], \
             \"achieved_rate_runs\": [{}], \"shed_runs\": [{}]}}{}\n",
            r.rate,
            r.ack,
            med.achieved_rate(),
            med.completed,
            med.shed,
            med.hist.percentile(0.50) as f64 / US,
            med.hist.percentile(0.99) as f64 / US,
            med.hist.percentile(0.999) as f64 / US,
            r.p50_us(0),
            r.p50_us(r.runs.len() - 1),
            r.p50_iqr_us(),
            p50s.join(", "),
            per_run(&|run| p99(&run.hist)),
            per_run(&|run| p99(&run.get_hist)),
            per_run(&|run| p99(&run.update_hist)),
            per_run(&|run| format!("{:.0}", run.achieved_rate())),
            per_run(&|run| run.shed.to_string()),
            sep
        ));
    }
    out.push_str("  ],\n");
    let ttfr_runs: Vec<String> = ttfr_us.iter().map(|t| format!("{t:.1}")).collect();
    out.push_str(&format!(
        "  \"crash\": {{\"ttfr_us\": {:.1}, \"ttfr_us_min\": {:.1}, \"ttfr_us_max\": {:.1}, \
         \"ttfr_us_runs\": [{}], \"shed\": {}, \"completed\": {}}}\n",
        ttfr_us[ttfr_us.len() / 2],
        ttfr_us[0],
        ttfr_us[ttfr_us.len() - 1],
        ttfr_runs.join(", "),
        crash.shed,
        crash.completed
    ));
    out.push_str("}\n");
    let path = "BENCH_serve.json";
    match std::fs::write(path, out) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
