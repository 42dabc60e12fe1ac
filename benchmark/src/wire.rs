//! Wire workloads: an in-process `prep_serve::Server` on loopback, driven
//! over **one** TCP connection by the benchmark's own generator.
//!
//! The generator is two threads: a sender that walks a fixed schedule
//! (sleep, then at most [`SPIN_NS`] of spinning) and a receiver blocked in
//! an untimed `read`. Nothing here sets a socket timeout: on this kernel a
//! 10 us `SO_RCVTIMEO` blocks for 8 ms, which is where the "4 ms p50" in
//! `BENCH_serve.json` comes from (see README.md). Latency runs from each
//! request's *scheduled* instant; how late the sender really was is
//! recorded per request, and a run in which a tenth of the requests were
//! more than [`MAX_LATE_US`] late says so.
//!
//! Checks: every frame gets exactly one response, none of them `RETRY` or
//! `ERR`; a value names its key and the write that produced it, and a GET
//! must return a write that was sent before the GET's response arrived and
//! not one that a later, already acknowledged write had replaced before
//! the GET was sent.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prep_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use prep_serve::{AckLevel, Server, ShutdownReport};

use crate::host::{now_ns, sleep_until};
use crate::report::{persist_lag, store_counter_metrics, Boundary, Outcome};
use crate::spec::{key_of, seq_of, value_of, KeyStream, Store, Traffic, Workload};
use crate::stats::{
    median, percentile, percentile_of, ratio, traced_slice, Metric, SLICES, UNTRACED_SLICES,
};
use crate::trace::{self, Span};

/// The sender sleeps until this close to a deadline and spins the rest.
const SPIN_NS: u64 = 100_000;
/// Lateness (send instant - scheduled instant) above which the generator,
/// not the server, shaped a request's latency. A run whose median slice is
/// this late at the 90th percentile is marked suspect; at the 99th it
/// carries a warning.
const MAX_LATE_US: f64 = 150.0;
/// Closed-loop requests of the workload's own mix before the window (part
/// of set-up).
const WARMUP_REQUESTS: u64 = 2_000;
/// Requests kept in flight by the preload and the warm-up. With 64 the
/// server locks into a fast or a slow batching mode for a whole preload
/// (0.19 s or 0.6 s for the same 16 384 PUTs); with 8 it does not.
const SETUP_WINDOW: usize = 8;
/// Open-loop lead-in that is sent but not measured, seconds.
const SETTLE_S: f64 = 0.5;
/// How long the receiver may trail the last send before the missing
/// responses count as unanswered.
const DRAIN_NS: u64 = 2_000_000_000;

fn io_err(msg: &str) -> std::io::Error {
    std::io::Error::other(msg.to_string())
}

/// A blocking connection for the closed-loop phases.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Conn {
    fn connect(server: &Server) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            wbuf: Vec::with_capacity(64),
        })
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.wbuf.clear();
        encode_request(req, &mut self.wbuf);
        self.stream.write_all(&self.wbuf)
    }

    fn recv(&mut self) -> std::io::Result<Response> {
        let mut tmp = [0u8; 4096];
        loop {
            match decode_response(&self.rbuf) {
                Ok(Some((resp, used))) => {
                    self.rbuf.drain(..used);
                    return Ok(resp);
                }
                Ok(None) => {}
                Err(e) => return Err(io_err(&format!("bad response frame: {e}"))),
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(io_err("server closed the connection")),
                Ok(n) => self.rbuf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Keeps `window` requests in flight until `next` runs dry and every
    /// response is in; `on` sees each response and its round-trip time.
    fn closed_loop(
        &mut self,
        window: usize,
        mut next: impl FnMut() -> Option<Request>,
        mut on: impl FnMut(&Response, u64),
    ) -> std::io::Result<()> {
        let mut inflight: Vec<(u64, u64)> = Vec::with_capacity(window);
        let mut dry = false;
        loop {
            while !dry && inflight.len() < window {
                match next() {
                    Some(req) => {
                        inflight.push((req.id(), now_ns()));
                        self.send(&req)?;
                    }
                    None => dry = true,
                }
            }
            if inflight.is_empty() {
                return Ok(());
            }
            let resp = self.recv()?;
            let now = now_ns();
            let at = inflight
                .iter()
                .position(|&(id, _)| id == resp.id())
                .ok_or_else(|| io_err("response to a request that was not sent"))?;
            on(&resp, now - inflight.swap_remove(at).1);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verb {
    Get,
    Put(AckLevel),
}

/// One scheduled request. A PUT writes `value_of(key, seq)`.
#[derive(Debug, Clone, Copy)]
struct Planned {
    verb: Verb,
    key: u64,
    seq: u64,
}

impl Planned {
    fn request(&self, id: u64) -> Request {
        match self.verb {
            Verb::Get => Request::Get { id, key: self.key },
            Verb::Put(ack) => Request::Put {
                id,
                ack,
                key: self.key,
                value: value_of(self.key, self.seq),
            },
        }
    }
}

/// The workload's request stream: keys and verbs from the seed, versions
/// counted per key.
struct OpStream {
    keys: KeyStream,
    get_share: f64,
    ack: AckLevel,
    /// Last version written (or scheduled to be written) per key.
    seqs: Vec<u64>,
}

impl OpStream {
    fn next(&mut self) -> Planned {
        let get = self.keys.chance(self.get_share);
        let key = self.keys.key();
        if get {
            return Planned {
                verb: Verb::Get,
                key,
                seq: 0,
            };
        }
        self.seqs[key as usize] += 1;
        Planned {
            verb: Verb::Put(self.ack),
            key,
            seq: self.seqs[key as usize],
        }
    }
}

/// A started, preloaded and warmed-up server with its connection.
struct Instance {
    server: Server,
    conn: Conn,
    ops: OpStream,
    start_ms: f64,
    setup_s: f64,
}

fn expect_ok(resp: &Response, failed: &mut u64) {
    if !matches!(resp, Response::Done { .. } | Response::Value { .. }) {
        *failed += 1;
    }
}

fn setup(w: &Workload, seed: u64) -> std::io::Result<Instance> {
    let Traffic::Wire { get_share, ack, .. } = w.traffic else {
        unreachable!("wire runner on a non-wire workload")
    };
    let t0 = now_ns();
    let cfg = w.serve.clone().expect("wire workloads carry a ServeConfig");
    let server = Server::start(cfg, "127.0.0.1:0")?;
    let start_ms = (now_ns() - t0) as f64 / 1e6;
    let mut conn = Conn::connect(&server)?;
    let mut failed = 0;

    let mut key = 0;
    conn.closed_loop(
        SETUP_WINDOW,
        || {
            (key < w.store.keys).then(|| {
                key += 1;
                Request::Put {
                    id: key,
                    ack: AckLevel::Buffered,
                    key: key - 1,
                    value: value_of(key - 1, 0),
                }
            })
        },
        |resp, _| expect_ok(resp, &mut failed),
    )?;

    let mut ops = OpStream {
        keys: KeyStream::new(w, seed, 0),
        get_share,
        ack,
        seqs: vec![0; w.store.keys as usize],
    };
    let mut sent = 0;
    conn.closed_loop(
        SETUP_WINDOW,
        || {
            (sent < WARMUP_REQUESTS).then(|| {
                sent += 1;
                ops.next().request(sent)
            })
        },
        |resp, _| expect_ok(resp, &mut failed),
    )?;
    if failed > 0 {
        return Err(io_err("the server refused requests during set-up"));
    }
    Ok(Instance {
        server,
        conn,
        ops,
        start_ms,
        setup_s: (now_ns() - t0) as f64 / 1e9,
    })
}

fn teardown(inst: Instance) -> (ShutdownReport, f64) {
    drop(inst.conn);
    let t = now_ns();
    let report = inst.server.shutdown();
    (report, (now_ns() - t) as f64 / 1e6)
}

/// Waits for `target`: the OS timer for the bulk, a spin for the rest.
fn pace(target: u64) {
    loop {
        let now = now_ns();
        if now >= target {
            return;
        }
        if target - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(target - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Per-request instants the sender records. `encoded` and `written` stay 0
/// unless the request is traced.
struct SendLog {
    start: Vec<u64>,
    encoded: Vec<u64>,
    written: Vec<u64>,
}

/// What the generator threads share with the main thread.
#[derive(Default)]
struct Progress {
    /// Responses the receiver has matched to a request.
    answered: AtomicUsize,
    /// Set once the last slice boundary has been sampled: until then the
    /// generator threads stay alive, so `/proc` still shows their CPU time.
    release: AtomicBool,
}

impl Progress {
    fn linger(&self) {
        // ord: a flag; the join publishes the logs.
        while !self.release.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn sender(
    stream: &TcpStream,
    plan: &[Planned],
    t0: u64,
    period: u64,
    trace_from: usize,
    progress: &Progress,
) -> SendLog {
    let mut log = SendLog {
        start: Vec::with_capacity(plan.len()),
        encoded: vec![0; plan.len()],
        written: vec![0; plan.len()],
    };
    let mut frame = Vec::with_capacity(64);
    let mut s = stream;
    for (i, p) in plan.iter().enumerate() {
        pace(t0 + i as u64 * period);
        log.start.push(now_ns());
        frame.clear();
        encode_request(&p.request(i as u64), &mut frame);
        if i >= trace_from {
            log.encoded[i] = now_ns();
        }
        if s.write_all(&frame).is_err() {
            break; // the receiver will report everything from here as unanswered
        }
        if i >= trace_from {
            log.written[i] = now_ns();
        }
    }
    progress.linger();
    log
}

/// What came back, indexed by request id.
struct RecvLog {
    /// When the response was decoded; 0 = never.
    done: Vec<u64>,
    /// When its bytes were in hand (traced requests only).
    read_at: Vec<u64>,
    /// The decoded response, reduced to what the checks need.
    reply: Vec<Reply>,
    /// Responses with an id that was never sent or was already answered.
    strays: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Reply {
    None,
    Done,
    Value(Option<u64>),
    Refused,
}

fn receiver(stream: &TcpStream, n: usize, trace_from: usize, progress: &Progress) -> RecvLog {
    let mut log = RecvLog {
        done: vec![0; n],
        read_at: vec![0; n],
        reply: vec![Reply::None; n],
        strays: 0,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut tmp = [0u8; 16 * 1024];
    let mut s = stream;
    let mut got = 0;
    'read: while got < n {
        let k = match s.read(&mut tmp) {
            Ok(0) => break,
            Ok(k) => k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let mut in_hand = now_ns();
        buf.extend_from_slice(&tmp[..k]);
        let mut pos = 0;
        loop {
            let (resp, used) = match decode_response(&buf[pos..]) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => break 'read,
            };
            pos += used;
            let t = now_ns();
            let id = resp.id() as usize;
            if id >= n || log.reply[id] != Reply::None {
                log.strays += 1;
                continue;
            }
            got += 1;
            log.done[id] = t;
            if id >= trace_from {
                log.read_at[id] = in_hand;
            }
            in_hand = t;
            log.reply[id] = match resp {
                Response::Done { .. } => Reply::Done,
                Response::Value { value, .. } => Reply::Value(value),
                _ => Reply::Refused,
            };
        }
        buf.drain(..pos);
        // ord: a progress counter the main thread polls while draining.
        progress.answered.store(got, Ordering::Relaxed);
    }
    progress.linger();
    log
}

/// Counts GETs whose value no linearization of the per-key writes allows,
/// and responses of the wrong kind. `sent[i]` is when request `i` was handed
/// to the socket; every request of the plan was sent.
fn wrong_values(plan: &[Planned], base: &[u64], sent: &[u64], recv: &RecvLog) -> u64 {
    // Window writes per key in send order: the write at position `p` of key
    // `k` carries version `base[k] + 1 + p`.
    let mut puts: Vec<Vec<u32>> = vec![Vec::new(); base.len()];
    for (i, p) in plan.iter().enumerate() {
        if p.verb != Verb::Get {
            puts[p.key as usize].push(i as u32);
        }
    }
    let acked = |i: usize| match recv.reply[i] {
        Reply::Done => recv.done[i],
        _ => u64::MAX,
    };
    let mut wrong = 0;
    for (g, p) in plan.iter().enumerate() {
        let reply = recv.reply[g];
        if reply == Reply::None || reply == Reply::Refused {
            continue; // already counted as unanswered or refused
        }
        match (p.verb, reply) {
            (Verb::Put(_), Reply::Done) => continue,
            (Verb::Get, Reply::Value(Some(v))) if key_of(v) == p.key => {
                let writes = &puts[p.key as usize];
                // Position 0 is the base itself, acknowledged before t0;
                // position p > 0 is the window's p-th write of the key.
                let pos = match seq_of(v).checked_sub(base[p.key as usize]) {
                    Some(pos) if pos as usize <= writes.len() => pos as usize,
                    _ => {
                        wrong += 1; // older than the base, or never written
                        continue;
                    }
                };
                let (v_sent, v_acked) = match pos {
                    0 => (0, 0),
                    _ => {
                        let i = writes[pos - 1] as usize;
                        (sent[i], acked(i))
                    }
                };
                let from_the_future = v_sent > recv.done[g];
                let replaced = writes[pos..].iter().any(|&i| {
                    let i = i as usize;
                    sent[i] > v_acked && acked(i) < sent[g]
                });
                if from_the_future || replaced {
                    wrong += 1;
                }
            }
            _ => wrong += 1,
        }
    }
    wrong
}

/// The `proto` layer alone: its four public functions over the workload's
/// own frames.
fn proto_metrics(plan: &[Planned]) -> Vec<Metric> {
    let sample = &plan[..plan.len().min(20_000)];
    let n = sample.len() as f64;
    let requests: Vec<Request> = sample
        .iter()
        .enumerate()
        .map(|(i, p)| p.request(i as u64))
        .collect();
    let responses: Vec<Response> = sample
        .iter()
        .enumerate()
        .map(|(i, p)| match p.verb {
            Verb::Get => Response::Value {
                id: i as u64,
                value: Some(value_of(p.key, p.seq)),
            },
            Verb::Put(_) => Response::Done { id: i as u64 },
        })
        .collect();
    let mut req_bytes = Vec::new();
    let mut resp_bytes = Vec::new();
    let t0 = now_ns();
    for r in &requests {
        encode_request(std::hint::black_box(r), &mut req_bytes);
    }
    let t1 = now_ns();
    for r in &responses {
        encode_response(std::hint::black_box(r), &mut resp_bytes);
    }
    let t2 = now_ns();
    let mut pos = 0;
    while let Ok(Some((r, used))) = decode_request(&req_bytes[pos..]) {
        std::hint::black_box(r);
        pos += used;
    }
    let t3 = now_ns();
    let mut pos = 0;
    while let Ok(Some((r, used))) = decode_response(&resp_bytes[pos..]) {
        std::hint::black_box(r);
        pos += used;
    }
    let t4 = now_ns();
    vec![
        Metric::point("proto.encode_request_ns", "ns", (t1 - t0) as f64 / n),
        Metric::point("proto.encode_response_ns", "ns", (t2 - t1) as f64 / n),
        Metric::point("proto.decode_request_ns", "ns", (t3 - t2) as f64 / n),
        Metric::point("proto.decode_response_ns", "ns", (t4 - t3) as f64 / n),
        Metric::point("proto.bytes_per_request", "B", req_bytes.len() as f64 / n),
        Metric::point("proto.bytes_per_response", "B", resp_bytes.len() as f64 / n),
    ]
}

/// The `server` layer probed closed-loop after the window: the stack's
/// floor (one request in flight, no thread asleep), its capacity (32 in
/// flight), and what it burns with nothing to do.
fn server_probes(inst: &mut Instance, failed: &mut u64) -> std::io::Result<Vec<Metric>> {
    let mut id = 0u64;
    let mut rtts = Vec::new();
    let until = now_ns() + 1_000_000_000;
    let ops = &mut inst.ops;
    inst.conn.closed_loop(
        1,
        || {
            (now_ns() < until).then(|| {
                id += 1;
                ops.next().request(id)
            })
        },
        |resp, rtt| {
            expect_ok(resp, failed);
            rtts.push(rtt);
        },
    )?;
    let t0 = now_ns();
    let until = t0 + 1_500_000_000;
    let mut answered = 0u64;
    inst.conn.closed_loop(
        32,
        || {
            (now_ns() < until).then(|| {
                id += 1;
                ops.next().request(id)
            })
        },
        |resp, _| {
            expect_ok(resp, failed);
            answered += 1;
        },
    )?;
    let sat = answered as f64 * 1e9 / (now_ns() - t0) as f64;

    // Nothing is in flight now: every server thread is in its idle wait.
    let a = Boundary::take();
    std::thread::sleep(Duration::from_millis(500));
    let idle_share = Boundary::take().share_since(&a, "serve-");
    Ok(vec![
        Metric::point(
            "server.rtt_hot_p50_us",
            "us",
            percentile_of(&mut rtts, 0.5) as f64 / 1e3,
        ),
        Metric::point("server.sat_ops_per_s", "ops/s", sat),
        Metric::point("server.idle_cpu_share", "ratio", idle_share),
    ])
}

/// Median of `end - start` over the traced requests, ns.
fn span_median(starts: &[u64], ends: &[u64], from: usize) -> f64 {
    let mut d: Vec<u64> = (from..starts.len().min(ends.len()))
        .filter(|&i| starts[i] > 0 && ends[i] >= starts[i])
        .map(|i| ends[i] - starts[i])
        .collect();
    percentile_of(&mut d, 0.5) as f64
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    setups: usize,
) -> std::io::Result<Outcome> {
    let Traffic::Wire { rate, .. } = w.traffic else {
        unreachable!("wire runner on a non-wire workload")
    };
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut shutdown_ms = Vec::new();
    for _ in 1..setups {
        let inst = setup(w, seed)?;
        setup_s.push(inst.setup_s);
        shutdown_ms.push(teardown(inst).1);
    }
    let mut inst = setup(w, seed)?;
    setup_s.push(inst.setup_s);

    // The schedule: a lead-in that is sent but not measured, then SLICES
    // equal slices.
    let period = 1_000_000_000 / rate;
    let per_slice = (seconds * rate) as usize / SLICES;
    let settle = (SETTLE_S * rate as f64) as usize;
    let measured = per_slice * SLICES;
    let slice_of = |i: usize| (i - settle) / per_slice;
    let first_traced = if traced {
        settle + UNTRACED_SLICES * per_slice
    } else {
        usize::MAX
    };
    let base = inst.ops.seqs.clone(); // every warm-up write is acknowledged
    let mut plan: Vec<Planned> = (0..settle + measured).map(|_| inst.ops.next()).collect();
    if traced && inst.ops.ack == AckLevel::Durable {
        // Every 16th traced write asks for a buffered ack instead: the gap
        // to its neighbours is what the durability drainer adds.
        for p in plan[first_traced..].iter_mut().step_by(16) {
            p.verb = Verb::Put(AckLevel::Buffered);
        }
    }
    // Versions written in the lead-in are part of the checked history, so
    // the checker sees the whole plan.

    let store: Arc<Store> = inst.server.store_handle();
    let stream = inst.conn.stream.try_clone()?;
    let t0 = now_ns() + 2_000_000;
    let mut cuts: Vec<(Boundary, prep_shard::StoreMetrics, u64)> = Vec::new();
    let mut lags = Vec::new();
    let progress = Progress::default();
    let (send_log, recv_log) = std::thread::scope(|s| {
        let recv = std::thread::Builder::new()
            .name("bench-recv".into())
            .spawn_scoped(s, || receiver(&stream, plan.len(), first_traced, &progress))
            .expect("spawn receiver");
        let send = std::thread::Builder::new()
            .name("bench-send".into())
            .spawn_scoped(s, || {
                sender(&stream, &plan, t0, period, first_traced, &progress)
            })
            .expect("spawn sender");
        for slice in 0..=SLICES {
            let end = t0 + (settle + slice * per_slice) as u64 * period;
            if slice > 0 && traced_slice(traced, slice - 1) {
                while now_ns() + 100_000_000 < end {
                    lags.push(persist_lag(&store));
                    sleep_until(now_ns() + 100_000_000);
                }
            }
            sleep_until(end);
            cuts.push((Boundary::take(), store.metrics(), trace::allocs()));
            trace::count_allocs(slice < SLICES && traced_slice(traced, slice));
        }
        // ord: a flag (see `Progress::linger`).
        progress.release.store(true, Ordering::Relaxed);
        let send_log = send.join().expect("sender panicked");
        let deadline = now_ns() + DRAIN_NS;
        // ord: a progress counter.
        while progress.answered.load(Ordering::Relaxed) < plan.len() && now_ns() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ord: a progress counter.
        if progress.answered.load(Ordering::Relaxed) < plan.len() {
            // Unblocks the untimed read; what is missing stays unanswered.
            let _ = stream.shutdown(Shutdown::Both);
        }
        (send_log, recv.join().expect("receiver panicked"))
    });
    drop(store);

    // Per request: late = start - scheduled; latency = done - scheduled.
    if send_log.start.len() < plan.len() {
        return Err(io_err("the connection broke under the sender"));
    }
    let sched = |i: usize| t0 + i as u64 * period;
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
    let mut late: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
    let mut refused = 0u64;
    let mut unanswered = 0u64;
    for i in settle..plan.len() {
        match recv_log.reply[i] {
            Reply::None => unanswered += 1,
            Reply::Refused => refused += 1,
            _ => lat[slice_of(i)].push(recv_log.done[i] - sched(i)),
        }
        late[slice_of(i)].push(send_log.start[i].saturating_sub(sched(i)));
    }
    let wrong = wrong_values(&plan, &base, &send_log.start, &recv_log);
    out.attempted = measured as u64;
    out.failed = refused + unanswered + wrong + recv_log.strays;
    if out.failed > 0 {
        out.notes.push(format!(
            "failed: {refused} refused, {unanswered} unanswered, {wrong} wrong, {} stray",
            recv_log.strays
        ));
    }
    // Like every metric, the generator's lateness is judged by its median
    // slice: a stall spoils one slice, not the run. Latency is counted from
    // the schedule, so a late send shows in it; a late 1 % cannot move the
    // median, a late 10 % means the generator shaped the numbers.
    let mut late_of = |q: f64| -> Vec<f64> {
        late.iter_mut()
            .map(|l| percentile_of(l, q) as f64 / 1e3)
            .collect()
    };
    let (late_p90_us, late_p99_us) = (late_of(0.9), late_of(0.99));
    let late_p99 = Metric::of_slices("client.send_late_p99_us", "us", &late_p99_us);
    out.notes.push(format!(
        "generator: lateness per slice p90 {late_p90_us:.1?} us, p99 {late_p99_us:.1?} us"
    ));
    // Neither fails the run: no output was wrong, and the reader of ten
    // runs discards an outlier more safely than this program can.
    if median(&late_p90_us) > MAX_LATE_US {
        out.notes.push(format!(
            "TIMING SUSPECT: a tenth of the median slice's requests were sent more than \
             {MAX_LATE_US} us late ({:.1} us): the generator shaped these latencies",
            median(&late_p90_us)
        ));
    } else if late_p99.value > MAX_LATE_US {
        out.notes.push(format!(
            "WARNING: client.send_late_p99_us = {:.1} > {MAX_LATE_US}: the tail is the host's, not the server's",
            late_p99.value
        ));
    }

    let mut p50 = Vec::new();
    let mut cpu_ms_per_kop = Vec::new();
    let mut ops_per_s = Vec::new();
    for slice in 0..SLICES {
        lat[slice].sort_unstable();
        p50.push(percentile(&lat[slice], 0.5) as f64 / 1e3);
        let answered = lat[slice].len() as f64;
        let (cpu_ns, _) = cuts[slice + 1].0.sut_since(&cuts[slice].0);
        cpu_ms_per_kop.push(ratio(cpu_ns as f64 / 1e6, answered / 1e3));
        // From the slice's first scheduled send to its last response.
        let first = settle + slice * per_slice;
        let last_done = (first..first + per_slice)
            .map(|i| recv_log.done[i])
            .max()
            .unwrap_or(0);
        ops_per_s.push(ratio(
            answered * 1e9,
            last_done.saturating_sub(sched(first)) as f64,
        ));
    }
    out.end_to_end = vec![
        Metric::of_slices("lat_p50_us", "us", &p50),
        Metric::of_slices("cpu_ms_per_kop", "ms", &cpu_ms_per_kop),
        Metric::of_slices("ops_per_s", "ops/s", &ops_per_s),
    ];

    if traced {
        let from = first_traced;
        let (on0, on1) = (&cuts[UNTRACED_SLICES], &cuts[SLICES]);
        let n_on = (plan.len() - from) as f64;
        let gets = plan[from..].iter().filter(|p| p.verb == Verb::Get).count() as u64;
        let traced_lat = |pick: &dyn Fn(&Planned) -> bool| -> Vec<u64> {
            let mut v: Vec<u64> = (from..plan.len())
                .filter(|&i| pick(&plan[i]) && recv_log.done[i] > 0)
                .map(|i| recv_log.done[i] - sched(i))
                .collect();
            v.sort_unstable();
            v
        };
        let all = traced_lat(&|_| true);
        let get = traced_lat(&|p| p.verb == Verb::Get);
        let put = traced_lat(&|p| p.verb != Verb::Get);
        let buffered = traced_lat(&|p| p.verb == Verb::Put(AckLevel::Buffered));
        let durable = traced_lat(&|p| p.verb == Verb::Put(AckLevel::Durable));
        let gap = if durable.is_empty() || buffered.is_empty() {
            0.0
        } else {
            (percentile(&durable, 0.5) as f64 - percentile(&buffered, 0.5) as f64) / 1e3
        };
        let us = |v: &[u64], q: f64| percentile(v, q) as f64 / 1e3;
        let d = on1.1.delta(&on0.1);
        let (_, switches) = on1.0.sut_since(&on0.0);
        let threads = on1
            .0
            .tasks
            .iter()
            .filter(|t| t.name.starts_with("serve-") || t.name.starts_with("prep-persistenc"))
            .count();
        let mut lags = lags;
        out.per_layer = store_counter_metrics(&on0.1, &on1.1, gets);
        out.per_layer.extend(proto_metrics(&plan));
        out.per_layer.extend([
            late_p99,
            Metric::point("client.lat_p90_us", "us", us(&all, 0.9)),
            Metric::point("client.lat_p99_us", "us", us(&all, 0.99)),
            Metric::point("client.lat_p999_us", "us", us(&all, 0.999)),
            Metric::point("client.lat_max_us", "us", us(&all, 1.0)),
            Metric::point("client.lat_get_p50_us", "us", us(&get, 0.5)),
            Metric::point("client.lat_put_p50_us", "us", us(&put, 0.5)),
            Metric::point(
                "client.encode_ns",
                "ns",
                span_median(&send_log.start, &send_log.encoded, from),
            ),
            Metric::point(
                "client.write_ns",
                "ns",
                span_median(&send_log.encoded, &send_log.written, from),
            ),
            Metric::point(
                "client.decode_ns",
                "ns",
                span_median(&recv_log.read_at, &recv_log.done, from),
            ),
            Metric::point(
                "client.cpu_share",
                "ratio",
                on1.0.share_since(&on0.0, "bench-send") + on1.0.share_since(&on0.0, "bench-recv"),
            ),
            Metric::point(
                "server.residence_p50_us",
                "us",
                span_median(&send_log.written, &recv_log.read_at, from) / 1e3,
            ),
            Metric::point(
                "server.cpu_share.accept",
                "ratio",
                on1.0.share_since(&on0.0, "serve-accept"),
            ),
            Metric::point(
                "server.cpu_share.conn",
                "ratio",
                on1.0.share_since(&on0.0, "serve-conn"),
            ),
            Metric::point(
                "server.cpu_share.exec",
                "ratio",
                on1.0.share_since(&on0.0, "serve-exec"),
            ),
            Metric::point(
                "server.cpu_share.dur",
                "ratio",
                on1.0.share_since(&on0.0, "serve-dur"),
            ),
            Metric::point(
                "server.cpu_share.control",
                "ratio",
                on1.0.share_since(&on0.0, "serve-control"),
            ),
            Metric::point(
                "core.cpu_share.persist",
                "ratio",
                on1.0.share_since(&on0.0, "prep-persistenc"),
            ),
            Metric::point("server.threads", "n", threads as f64),
            Metric::point("server.start_ms", "ms", inst.start_ms),
            Metric::point("server.durable_gap_p50_us", "us", gap),
            Metric::point(
                "server.ckpt_per_kput",
                "n",
                ratio(
                    d.total_stats().checkpoints as f64 * 1e3,
                    d.total_completed() as f64,
                ),
            ),
            Metric::point(
                "proc.ctx_switches_per_op",
                "n",
                ratio(switches as f64, n_on),
            ),
            Metric::point(
                "proc.allocs_per_op",
                "n",
                ratio((on1.2 - on0.2) as f64, n_on),
            ),
            Metric::point("proc.cpu_util", "ratio", on1.0.util_since(&on0.0)),
            Metric::point(
                "trace_overhead_pct",
                "%",
                100.0 * (median(&p50[UNTRACED_SLICES..]) / median(&p50[..UNTRACED_SLICES]) - 1.0),
            ),
        ]);
        let lag_p50 = percentile_of(&mut lags, 0.5) as f64;
        out.per_layer
            .push(Metric::point("server.persist_lag_p50_ops", "ops", lag_p50));
        out.per_layer
            .push(Metric::point("core.persist_lag_p50_ops", "ops", lag_p50));
        out.per_layer
            .extend(server_probes(&mut inst, &mut out.failed)?);

        let mut spans = Vec::new();
        for i in from..plan.len() {
            if recv_log.done[i] == 0 || i >= send_log.start.len() {
                continue;
            }
            let id = i as u64;
            let mut push = |name, parent, start_ns, end_ns| {
                spans.push(Span {
                    name,
                    parent,
                    id,
                    start_ns,
                    end_ns,
                })
            };
            push("request", "", sched(i), recv_log.done[i]);
            push(
                "client.late",
                "request",
                sched(i),
                send_log.start[i].max(sched(i)),
            );
            push(
                "client.encode",
                "request",
                send_log.start[i],
                send_log.encoded[i],
            );
            push(
                "client.write",
                "request",
                send_log.encoded[i],
                send_log.written[i],
            );
            push(
                "server.residence",
                "request",
                send_log.written[i],
                recv_log.read_at[i],
            );
            push(
                "client.decode",
                "request",
                recv_log.read_at[i],
                recv_log.done[i],
            );
        }
        out.save_trace(w.name, &spans);
    }

    let start_ms = inst.start_ms;
    let (report, last_shutdown_ms) = teardown(inst);
    shutdown_ms.push(last_shutdown_ms);
    out.end_to_end
        .insert(0, Metric::of_slices("setup_s", "s", &setup_s));
    if traced {
        out.per_layer.extend([
            Metric::of_slices("server.shutdown_ms", "ms", &shutdown_ms),
            Metric::point(
                "server.retry_share",
                "ratio",
                ratio(report.retries as f64, report.requests as f64),
            ),
        ]);
    }
    out.notes.push(format!(
        "server: start {start_ms:.2} ms, shutdown {last_shutdown_ms:.2} ms, {} requests, {} retries",
        report.requests, report.retries
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key 0 with base version 5: PUT v6 (request 0), PUT v7 (request 1),
    /// then a GET (request 2) whose answer and timing the cases vary.
    fn check(sent: [u64; 3], done: [u64; 3], got: Option<u64>) -> u64 {
        let put = |seq| Planned {
            verb: Verb::Put(AckLevel::Buffered),
            key: 0,
            seq,
        };
        let get = Planned {
            verb: Verb::Get,
            key: 0,
            seq: 0,
        };
        let recv = RecvLog {
            done: done.to_vec(),
            read_at: vec![0; 3],
            reply: vec![Reply::Done, Reply::Done, Reply::Value(got)],
            strays: 0,
        };
        wrong_values(&[put(6), put(7), get], &[5], &sent, &recv)
    }

    #[test]
    fn reads_are_checked_against_the_write_history() {
        let v = |seq| Some(value_of(0, seq));
        // Writes one after the other, both acknowledged before the GET.
        let (sent, done) = ([10, 30, 50], [20, 40, 60]);
        assert_eq!(check(sent, done, v(7)), 0, "the last write");
        assert_eq!(check(sent, done, v(6)), 1, "replaced by v7 before the GET");
        assert_eq!(check(sent, done, v(5)), 1, "the base, replaced twice");
        assert_eq!(check(sent, done, v(8)), 1, "never written");
        assert_eq!(check(sent, done, v(4)), 1, "older than the base");
        assert_eq!(check(sent, done, None), 1, "a preloaded key is present");
        assert_eq!(
            check(sent, done, Some(value_of(1, 7))),
            1,
            "another key's value"
        );
        // The two writes overlap: either may apply last.
        let (sent, done) = ([10, 15, 50], [30, 40, 60]);
        assert_eq!(check(sent, done, v(6)), 0);
        assert_eq!(check(sent, done, v(7)), 0);
        // The GET overlaps v7: it may see v6 or v7, but not v7 before v7 is sent.
        let (sent, done) = ([10, 45, 40], [20, 70, 60]);
        assert_eq!(check(sent, done, v(6)), 0);
        assert_eq!(check(sent, done, v(7)), 0);
        let (sent, done) = ([10, 65, 40], [20, 70, 60]);
        assert_eq!(check(sent, done, v(7)), 1, "from the future");
    }
}
