//! The open-loop engine.
//!
//! Closed-loop clients (send, wait, send) let a slow server set the pace,
//! hiding queueing delay — the coordinated-omission trap. This engine is
//! **open-loop**: every connection derives an *arrival schedule* from
//! the offered rate before the run starts (see [`crate::arrivals`] for the
//! fixed-lattice, Poisson, and bursty processes), sends each request at its
//! scheduled instant whether or not earlier responses have returned, and
//! measures latency **from the scheduled send time**. A request the
//! generator itself sent late (because the previous send blocked) is
//! charged that lateness, exactly as a real client arriving then would
//! experience it.
//!
//! Under the default fixed lattice, connection `i` of `c` owns arrivals
//! `i, i+c, i+2c, …` of the global schedule (interval `1/rate`), so the
//! aggregate offered load is `rate`
//! regardless of the connection count. Each connection is two threads: the
//! sender walks the schedule, and a receiver blocks in an **untimed**
//! `read` and timestamps every response as it lands. (Pacing the receive
//! side with `set_read_timeout` does not work: the kernel rounds
//! `SO_RCVTIMEO` up to scheduler ticks — asked for 10 µs, it blocks 8 ms at
//! HZ = 250 — which delays the next send by up to a tick and, latency
//! being counted from the schedule, adds a uniform 0–8 ms to every
//! request.) `RETRY` responses count as shed load (the backpressure
//! contract), not latency samples.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::Duration;

use prep_serve::proto::{self, AckLevel, AdminCmd, Request, Response};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::arrivals::{Arrival, ArrivalGen};
use crate::clock::Clock;
use crate::hist::LatencyHistogram;
use crate::keys::{KeyMix, KeySampler};

/// Request id carried by the crash-injection admin frame.
const CRASH_ID: u64 = u64::MAX;
/// Request id carried by the end-of-run shutdown frame.
const SHUTDOWN_ID: u64 = u64::MAX - 1;
/// How long after the send window the engine waits for stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// One load-generation run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Client connections; the offered rate is split across them.
    pub conns: usize,
    /// Aggregate offered load, requests/second.
    pub rate: f64,
    /// Measured window length.
    pub duration_ms: u64,
    /// Schedule prefix whose completions are not recorded.
    pub warmup_ms: u64,
    /// Dense key space `[0, keys)`.
    pub keys: u64,
    /// Key popularity curve.
    pub mix: KeyMix,
    /// Fraction of requests that are GETs (the rest are PUTs).
    pub get_fraction: f64,
    /// Ack level requested on updates.
    pub ack: AckLevel,
    /// RNG seed (per-connection streams derive from it).
    pub seed: u64,
    /// Keys preloaded (PUT) before the timed window.
    pub preload: u64,
    /// Arrival process shaping the schedule (fixed lattice, Poisson,
    /// bursty on/off); all preserve the aggregate offered rate.
    pub arrival: Arrival,
    /// Inject `ADMIN CRASH` this far into the measured window.
    pub crash_at_ms: Option<u64>,
    /// Send `ADMIN SHUTDOWN` after the run and wait for the ack.
    pub shutdown: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            addr: String::from("127.0.0.1:7070"),
            conns: 2,
            rate: 5_000.0,
            duration_ms: 2_000,
            warmup_ms: 200,
            keys: 10_000,
            mix: KeyMix::Uniform,
            get_fraction: 0.5,
            ack: AckLevel::Buffered,
            seed: 42,
            preload: 1_000,
            arrival: Arrival::Fixed,
            crash_at_ms: None,
            shutdown: false,
        }
    }
}

/// Crash-injection observations (present when `crash_at_ms` was set).
#[derive(Debug, Clone, Copy)]
pub struct CrashProbe {
    /// When the `ADMIN CRASH` frame was sent (ns on the run clock).
    pub requested_ns: u64,
    /// Server's crash ack (recovery finished), ns on the run clock.
    pub acked_ns: Option<u64>,
    /// First completed *data* request that was scheduled after the crash
    /// request — the client-observed time-to-first-response across the
    /// outage. (A response to a request already in flight when the crash
    /// was sent says nothing about the outage.)
    pub first_data_ns: Option<u64>,
}

impl CrashProbe {
    /// Recovery time-to-first-response in nanoseconds, if observed.
    pub fn ttfr_ns(&self) -> Option<u64> {
        self.first_data_ns
            .map(|t| t.saturating_sub(self.requested_ns))
    }
}

/// Aggregated results of one run.
pub struct RunReport {
    /// Requests sent inside the measured window.
    pub sent: u64,
    /// Measured-window requests that completed successfully.
    pub completed: u64,
    /// Requests shed by server backpressure (`RETRY`).
    pub shed: u64,
    /// Error responses (e.g. sent into a draining server).
    pub errors: u64,
    /// Requests never answered before the drain grace expired.
    pub lost: u64,
    /// Latency of every completed request (from scheduled send time).
    pub hist: LatencyHistogram,
    /// Latency of completed updates only (the ack-level contrast).
    pub update_hist: LatencyHistogram,
    /// Latency of completed GETs only.
    pub get_hist: LatencyHistogram,
    /// Wall-clock length of the measured window actually achieved.
    pub elapsed_ns: u64,
    /// Crash-injection observations, when requested.
    pub crash: Option<CrashProbe>,
}

impl RunReport {
    /// Completed requests per second over the measured window.
    pub fn achieved_rate(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e9 / self.elapsed_ns as f64
    }
}

struct PendingOp {
    sched_ns: u64,
    update: bool,
    warmup: bool,
}

/// What a connection's sender tells its receiver — always before the bytes
/// reach the socket, so a response never arrives ahead of its request.
enum Sent {
    Op { id: u64, op: PendingOp },
    Crash { requested_ns: u64 },
}

/// One connection's results. The sender counts `sent`; everything else is
/// the receiver's.
struct ConnOutcome {
    sent: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    lost: u64,
    hist: LatencyHistogram,
    update_hist: LatencyHistogram,
    get_hist: LatencyHistogram,
    crash: Option<CrashProbe>,
}

/// Runs the workload and blocks until every connection drains.
pub fn run(cfg: &RunConfig) -> std::io::Result<RunReport> {
    assert!(cfg.conns > 0, "need at least one connection");
    assert!(cfg.rate > 0.0, "rate must be positive");
    if cfg.preload > 0 {
        preload(cfg)?;
    }
    let clock = std::sync::Arc::new(Clock::new());
    // Arrivals start slightly in the future so every thread is connected
    // before arrival 0 — lateness at the very front would otherwise be
    // charged to the server.
    let start_ns = clock.now_ns() + 50_000_000;
    let outcomes: Vec<std::io::Result<ConnOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|i| {
                let clock = std::sync::Arc::clone(&clock);
                scope.spawn(move || conn_worker(cfg, i, &clock, start_ns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut report = RunReport {
        sent: 0,
        completed: 0,
        shed: 0,
        errors: 0,
        lost: 0,
        hist: LatencyHistogram::new(),
        update_hist: LatencyHistogram::new(),
        get_hist: LatencyHistogram::new(),
        elapsed_ns: cfg.duration_ms.saturating_sub(cfg.warmup_ms) * 1_000_000,
        crash: None,
    };
    for outcome in outcomes {
        let o = outcome?;
        report.sent += o.sent;
        report.completed += o.completed;
        report.shed += o.shed;
        report.errors += o.errors;
        report.lost += o.lost;
        report.hist.merge(&o.hist);
        report.update_hist.merge(&o.update_hist);
        report.get_hist.merge(&o.get_hist);
        if o.crash.is_some() {
            report.crash = o.crash;
        }
    }
    if cfg.shutdown {
        shutdown_server(cfg)?;
    }
    Ok(report)
}

/// Populates keys `[0, preload)` over one blocking connection, pipelined
/// in chunks so the preload phase is not itself closed-loop-slow.
fn preload(cfg: &RunConfig) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
    let mut buf = Vec::new();
    let mut rbuf = Vec::new();
    let mut tmp = [0u8; 4096];
    const CHUNK: u64 = 128;
    let mut key = 0u64;
    while key < cfg.preload {
        buf.clear();
        let end = (key + CHUNK).min(cfg.preload);
        for k in key..end {
            proto::encode_request(
                &Request::Put {
                    id: k,
                    ack: AckLevel::Buffered,
                    key: k,
                    value: rng.gen(),
                },
                &mut buf,
            );
        }
        stream.write_all(&buf)?;
        let mut acked = 0;
        while acked < end - key {
            while let Some((resp, used)) = proto::decode_response(&rbuf).expect("preload decode") {
                rbuf.drain(..used);
                match resp {
                    Response::Done { .. } => acked += 1,
                    Response::Retry { id } => {
                        // Shed during preload: replay that key immediately.
                        let mut again = Vec::new();
                        proto::encode_request(
                            &Request::Put {
                                id,
                                ack: AckLevel::Buffered,
                                key: id,
                                value: rng.gen(),
                            },
                            &mut again,
                        );
                        stream.write_all(&again)?;
                    }
                    other => panic!("unexpected preload response {other:?}"),
                }
            }
            if acked < end - key {
                let n = stream.read(&mut tmp)?;
                assert!(n > 0, "server closed during preload");
                rbuf.extend_from_slice(&tmp[..n]);
            }
        }
        key = end;
    }
    Ok(())
}

/// Sends `ADMIN SHUTDOWN` and waits for the ack.
fn shutdown_server(cfg: &RunConfig) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut buf = Vec::new();
    proto::encode_request(
        &Request::Admin {
            id: SHUTDOWN_ID,
            cmd: AdminCmd::Shutdown,
        },
        &mut buf,
    );
    stream.write_all(&buf)?;
    let mut rbuf = Vec::new();
    let mut tmp = [0u8; 256];
    loop {
        if let Some((resp, used)) = proto::decode_response(&rbuf).expect("shutdown decode") {
            rbuf.drain(..used);
            assert_eq!(resp, Response::Done { id: SHUTDOWN_ID });
            return Ok(());
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Ok(());
        }
        rbuf.extend_from_slice(&tmp[..n]);
    }
}

/// One connection: this thread sends on schedule, a scoped receiver thread
/// reads and accounts the responses.
fn conn_worker(
    cfg: &RunConfig,
    index: usize,
    clock: &Clock,
    start_ns: u64,
) -> std::io::Result<ConnOutcome> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let rx_stream = stream.try_clone()?;
    let (announce, announced) = mpsc::channel();
    // Responses accounted so far, against the frames this thread has sent.
    let answered = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(rx_stream, announced, clock, &answered));
        let sent = send_schedule(cfg, index, clock, start_ns, &mut stream, &announce);
        // Stragglers get a bounded grace period; then the socket is shut
        // down, which is also what ends the receiver's untimed read.
        if let Ok(frames) = &sent {
            let deadline = clock.now_ns() + DRAIN_GRACE.as_nanos() as u64;
            // ord: a progress counter; the join below synchronizes.
            while answered.load(Ordering::Relaxed) < frames.total && clock.now_ns() < deadline {
                clock.sleep_until(clock.now_ns() + 1_000_000);
            }
        }
        let _ = stream.shutdown(Shutdown::Both);
        drop(announce);
        let mut o = receiver.join().expect("receiver panicked");
        o.sent = sent?.measured;
        Ok(o)
    })
}

/// How many frames one connection's sender wrote.
struct Frames {
    /// Every frame, warm-up and crash injection included.
    total: u64,
    /// Requests inside the measured window.
    measured: u64,
}

/// Walks this connection's share of the arrival schedule, announcing each
/// frame to the receiver before writing it.
fn send_schedule(
    cfg: &RunConfig,
    index: usize,
    clock: &Clock,
    start_ns: u64,
    stream: &mut TcpStream,
    announce: &mpsc::Sender<Sent>,
) -> std::io::Result<Frames> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(index as u64 * 0x517c_c1b7));
    let sampler = KeySampler::new(cfg.mix, cfg.keys);
    let mut arrivals = ArrivalGen::new(
        cfg.arrival,
        cfg.rate,
        cfg.conns,
        index,
        cfg.seed.wrapping_add(index as u64 * 0x2545_f491),
    );

    let end_ns = start_ns + cfg.duration_ms * 1_000_000;
    let warmup_end_ns = start_ns + cfg.warmup_ms * 1_000_000;
    // Crash injection rides connection 0's schedule.
    let mut crash_ns = cfg
        .crash_at_ms
        .filter(|_| index == 0)
        .map(|ms| start_ns + cfg.warmup_ms.saturating_add(ms) * 1_000_000);

    let mut frames = Frames {
        total: 0,
        measured: 0,
    };
    let mut buf = Vec::with_capacity(32);
    let mut k = 0u64; // this connection's arrival counter (also request id)
    loop {
        // Next arrival of this connection's share of the schedule.
        let sched_ns = start_ns + arrivals.next_offset_ns();
        if sched_ns >= end_ns {
            return Ok(frames);
        }
        if let Some(c_ns) = crash_ns.filter(|&c_ns| sched_ns >= c_ns) {
            crash_ns = None;
            buf.clear();
            proto::encode_request(
                &Request::Admin {
                    id: CRASH_ID,
                    cmd: AdminCmd::Crash,
                },
                &mut buf,
            );
            clock.sleep_until(c_ns);
            let _ = announce.send(Sent::Crash {
                requested_ns: clock.now_ns(),
            });
            stream.write_all(&buf)?;
            frames.total += 1;
        }
        clock.sleep_until(sched_ns);

        let warmup = sched_ns < warmup_end_ns;
        let req = if rng.gen_bool(cfg.get_fraction) {
            Request::Get {
                id: k,
                key: sampler.sample(&mut rng),
            }
        } else {
            Request::Put {
                id: k,
                ack: cfg.ack,
                key: sampler.sample(&mut rng),
                value: rng.gen(),
            }
        };
        buf.clear();
        proto::encode_request(&req, &mut buf);
        let _ = announce.send(Sent::Op {
            id: k,
            op: PendingOp {
                sched_ns,
                update: matches!(req, Request::Put { .. }),
                warmup,
            },
        });
        stream.write_all(&buf)?;
        frames.total += 1;
        if !warmup {
            frames.measured += 1;
        }
        k += 1;
    }
}

/// The receiving half of one connection: blocks in `read` (no timeout) and
/// accounts every response the moment it is decoded, until the sender
/// shuts the socket down.
fn receive(
    mut stream: TcpStream,
    announced: Receiver<Sent>,
    clock: &Clock,
    answered: &AtomicU64,
) -> ConnOutcome {
    let mut o = ConnOutcome {
        sent: 0,
        completed: 0,
        shed: 0,
        errors: 0,
        lost: 0,
        hist: LatencyHistogram::new(),
        update_hist: LatencyHistogram::new(),
        get_hist: LatencyHistogram::new(),
        crash: None,
    };
    let mut pending: HashMap<u64, PendingOp> = HashMap::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 8192];
    loop {
        let mut used = 0;
        while let Some((resp, n)) = proto::decode_response(&rbuf[used..]).expect("response decode")
        {
            used += n;
            let now_ns = clock.now_ns();
            // Whatever this answers was announced before it was sent.
            note_sent(&announced, &mut pending, &mut o);
            account(resp, now_ns, &mut pending, &mut o);
            // ord: a progress counter (see `conn_worker`).
            answered.fetch_add(1, Ordering::Relaxed);
        }
        rbuf.drain(..used);
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => rbuf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    note_sent(&announced, &mut pending, &mut o);
    o.lost = pending.values().filter(|p| !p.warmup).count() as u64;
    o
}

/// Moves what the sender has announced so far into the receiver's books.
fn note_sent(
    announced: &Receiver<Sent>,
    pending: &mut HashMap<u64, PendingOp>,
    o: &mut ConnOutcome,
) {
    loop {
        match announced.try_recv() {
            Ok(Sent::Op { id, op }) => {
                pending.insert(id, op);
            }
            Ok(Sent::Crash { requested_ns }) => {
                o.crash = Some(CrashProbe {
                    requested_ns,
                    acked_ns: None,
                    first_data_ns: None,
                });
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => return,
        }
    }
}

/// Accounts one response against the pending table.
fn account(
    resp: Response,
    now_ns: u64,
    pending: &mut HashMap<u64, PendingOp>,
    o: &mut ConnOutcome,
) {
    let id = resp.id();
    if id == CRASH_ID {
        if let (Response::Done { .. }, Some(probe)) = (&resp, o.crash.as_mut()) {
            probe.acked_ns = Some(now_ns);
        }
        return;
    }
    let Some(op) = pending.remove(&id) else {
        return;
    };
    match resp {
        Response::Value { .. } | Response::Done { .. } | Response::Pairs { .. } => {
            if let Some(probe) = o.crash.as_mut() {
                if probe.first_data_ns.is_none() && op.sched_ns >= probe.requested_ns {
                    probe.first_data_ns = Some(now_ns);
                }
            }
            if op.warmup {
                return;
            }
            o.completed += 1;
            let latency = now_ns.saturating_sub(op.sched_ns);
            o.hist.record(latency);
            if op.update {
                o.update_hist.record(latency);
            } else {
                o.get_hist.record(latency);
            }
        }
        Response::Retry { .. } => {
            if !op.warmup {
                o.shed += 1;
            }
        }
        Response::Err { .. } => {
            if !op.warmup {
                o.errors += 1;
            }
        }
        Response::Stats { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_serve::server::{ServeConfig, Server};

    fn server() -> Server {
        Server::start(
            ServeConfig {
                shards: 2,
                executors_per_shard: 2,
                epsilon: 16,
                log_size: 1024,
                crash_sim: true,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("start server")
    }

    #[test]
    fn open_loop_run_completes_and_measures() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            rate: 4_000.0,
            duration_ms: 400,
            warmup_ms: 100,
            keys: 512,
            preload: 128,
            get_fraction: 0.5,
            ..RunConfig::default()
        };
        let report = run(&cfg).expect("run");
        assert!(report.sent > 0);
        assert!(report.completed > 0, "no requests completed");
        assert_eq!(report.lost, 0, "responses went missing");
        assert!(report.hist.count() == report.completed);
        assert!(report.hist.percentile(0.5) > 0);
        assert!(report.achieved_rate() > 0.0);
        // Every completion is a GET or an update.
        assert_eq!(
            report.get_hist.count() + report.update_hist.count(),
            report.hist.count()
        );
        server.shutdown();
    }

    #[test]
    fn poisson_and_bursty_arrivals_drive_a_run() {
        let server = server();
        for arrival in [
            Arrival::Poisson,
            Arrival::Bursty {
                on_ms: 20,
                off_ms: 60,
            },
        ] {
            let cfg = RunConfig {
                addr: server.local_addr().to_string(),
                conns: 2,
                rate: 4_000.0,
                duration_ms: 400,
                warmup_ms: 50,
                keys: 256,
                preload: 64,
                arrival,
                ..RunConfig::default()
            };
            let report = run(&cfg).expect("run");
            assert!(report.completed > 0, "{arrival:?}: nothing completed");
            assert_eq!(report.lost, 0, "{arrival:?}: responses went missing");
            // The non-lattice processes still target the aggregate rate:
            // within a factor of two on this short window.
            let achieved = report.achieved_rate();
            assert!(
                achieved > cfg.rate * 0.3,
                "{arrival:?}: achieved only {achieved}/s of {}/s",
                cfg.rate
            );
        }
        server.shutdown();
    }

    #[test]
    fn durable_acks_flow_end_to_end() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            rate: 2_000.0,
            duration_ms: 300,
            warmup_ms: 50,
            keys: 256,
            preload: 0,
            get_fraction: 0.0,
            ack: AckLevel::Durable,
            ..RunConfig::default()
        };
        let report = run(&cfg).expect("run");
        assert!(report.completed > 0);
        assert_eq!(report.lost, 0);
        let r = server.shutdown();
        assert!(r.durable_acks > 0, "server released no durable acks");
    }

    #[test]
    fn crash_under_load_reports_ttfr() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            rate: 3_000.0,
            duration_ms: 600,
            warmup_ms: 50,
            keys: 256,
            preload: 64,
            crash_at_ms: Some(200),
            ..RunConfig::default()
        };
        let report = run(&cfg).expect("run");
        let probe = report.crash.expect("crash probe");
        assert!(probe.acked_ns.is_some(), "crash never acked");
        let ttfr = probe.ttfr_ns().expect("no post-crash response");
        assert!(ttfr > 0);
        assert_eq!(server.crash_count(), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_flag_stops_the_server() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            rate: 1_000.0,
            duration_ms: 200,
            warmup_ms: 0,
            preload: 0,
            shutdown: true,
            ..RunConfig::default()
        };
        run(&cfg).expect("run");
        // The server reached STOPPED because of the wire shutdown.
        let report = server.join();
        assert_eq!(report.completed_tails, report.durable_watermarks);
    }
}
