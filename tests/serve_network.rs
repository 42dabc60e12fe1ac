//! Wire-level durability tests for `prep-serve`: the paper's buffered /
//! durable ack contract, observed from the *client* side of a TCP socket.
//!
//! Properties stated over what a real client saw:
//!
//! * **Graceful shutdown loses nothing.** Every op buffered-acked before a
//!   clean `ADMIN SHUTDOWN` survives a post-shutdown crash cut — the drain
//!   path's final forced checkpoint turns "applied" into "persistent" for
//!   the entire completed prefix.
//!
//! * **Crash under load honors the ack levels.** With `ADMIN CRASH` landing
//!   mid-workload: durable-acked ops are *never* lost; buffered-acked loss
//!   stays within the store-wide `N·(ε + β − 1)` bound; and per shard the
//!   survivors are closed under the wire-level happens-before order (an op
//!   acked before a survivor was even sent cannot itself be missing),
//!   checked through `prep-checker`'s sharded history recorder fed from
//!   the client threads.
//!
//! * **The default server reads lock-free.** `ServeConfig::default()` serves
//!   a GET-only burst entirely on the validated lock-free path, visible in
//!   `ADMIN STATS`.
//!
//! * **Blocked is not stuck.** The server's threads block in `poll` and on
//!   wake slots instead of polling, so: an idle server's threads are not
//!   scheduled at all; a crash, a wire shutdown and an in-process shutdown
//!   each get through to a server whose every thread is blocked —
//!   including a crash that finds a durable ack parked on the watermark,
//!   which is still answered (`RETRY`), once; and a durable PUT sent to an
//!   idle server is acked with no other traffic to kick the pipeline.
//!
//! The liveness tests read this process's thread table, so every test in
//! this file takes [`serial`]: no other test's server is in the table, and
//! none competes for the two CPUs while one of them measures.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use prep_checker::ShardedHistoryRecorder;
use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
use prep_serve::proto::{decode_response, encode_request, AckLevel, AdminCmd, Request, Response};
use prep_serve::server::{ServeConfig, Server, Store};
use prep_shard::{shard_index, ShardedStore};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, LatencyModel, PmemRuntime, PrepConfig};

const SHARDS: usize = 2;
const EXECUTORS: usize = 2;

/// One test at a time (see the module docs). A test that failed while
/// holding the lock has said what it had to say; the next one proceeds.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn server() -> Server {
    server_with(LatencyModel::off())
}

fn server_with(latency: LatencyModel) -> Server {
    Server::start(
        ServeConfig {
            shards: SHARDS,
            executors_per_shard: EXECUTORS,
            conn_threads: 2,
            queue_depth: 64,
            durability: DurabilityLevel::Buffered,
            epsilon: 16,
            log_size: 1024,
            latency,
            crash_sim: true,
            watch_signals: false,
            fairness: prep_uc::FairnessMode::default(),
        },
        "127.0.0.1:0",
    )
    .expect("start server")
}

/// Blocking one-request-at-a-time client.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        self.send(req);
        self.recv()
    }

    fn send(&mut self, req: &Request) {
        let mut out = Vec::with_capacity(32);
        encode_request(req, &mut out);
        self.stream.write_all(&out).expect("send");
    }

    /// The next response frame. Fails instead of hanging when the server
    /// has lost the request: no response is more than seconds away.
    fn recv(&mut self) -> Response {
        self.stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let mut tmp = [0u8; 4096];
        loop {
            if let Some((resp, used)) = decode_response(&self.buf).expect("decode") {
                self.buf.drain(..used);
                return resp;
            }
            let n = self
                .stream
                .read(&mut tmp)
                .expect("no response from the server");
            assert!(n > 0, "server closed connection");
            self.buf.extend_from_slice(&tmp[..n]);
        }
    }

    /// PUTs until the server stops shedding; returns the ack response.
    fn put_retrying(&mut self, id: u64, ack: AckLevel, key: u64, value: u64) -> Response {
        loop {
            match self.roundtrip(&Request::Put {
                id,
                ack,
                key,
                value,
            }) {
                Response::Retry { .. } => std::thread::yield_now(),
                resp => return resp,
            }
        }
    }
}

/// Reads the whole key set out of a (recovered or live) store.
fn present_keys(store: &ShardedStore<HashMap>, keys: impl Iterator<Item = u64>) -> HashSet<u64> {
    let token = store.register(0);
    keys.filter(|&k| {
        matches!(
            store.execute(&token, MapOp::Get { key: k }),
            MapResp::Value(Some(_))
        )
    })
    .collect()
}

#[test]
fn graceful_shutdown_loses_no_buffered_ops() {
    let _serial = serial();
    let server = server();
    let addr = server.local_addr();

    // Concurrent writers, buffered acks only, unique keys per thread.
    const WRITERS: u64 = 3;
    const OPS: u64 = 200;
    let acked: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut acked = Vec::new();
                    for i in 0..OPS {
                        let key = t * 1_000_000 + i;
                        if matches!(
                            c.put_retrying(i, AckLevel::Buffered, key, key + 7),
                            Response::Done { .. }
                        ) {
                            acked.push(key);
                        }
                    }
                    acked
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer panicked"))
            .collect()
    });
    assert_eq!(acked.len() as u64, WRITERS * OPS, "every put must ack");

    // Clean wire shutdown, then prove the acks are on NVM: capture a crash
    // cut from the quiesced store and recover from it.
    let mut c = Client::connect(addr);
    assert!(matches!(
        c.roundtrip(&Request::Admin {
            id: 9,
            cmd: AdminCmd::Shutdown,
        }),
        Response::Done { .. }
    ));
    let report = server.join();
    assert_eq!(
        report.completed_tails, report.durable_watermarks,
        "drain must quiesce every shard"
    );
    let store = Arc::try_unwrap(report.store)
        .unwrap_or_else(|_| panic!("post-join store handle must be unique"));
    let (token, image) = store.simulate_crash();
    drop(store);
    let workers = SHARDS * EXECUTORS;
    let recovered: ShardedStore<HashMap> = ShardedStore::recover(
        token,
        image,
        Topology::new(1, workers + 1, 1).assign_workers(workers),
        PrepConfig::new(DurabilityLevel::Buffered)
            .with_log_size(1024)
            .with_epsilon(16)
            .with_runtime(PmemRuntime::for_crash_tests()),
        |op: &MapOp| op.key().unwrap_or(0),
    );
    let survived = present_keys(&recovered, acked.iter().copied());
    assert_eq!(
        survived.len(),
        acked.len(),
        "clean shutdown lost {} buffered-acked ops",
        acked.len() - survived.len()
    );
}

/// One client thread's view of its own acked ops.
struct AckedOp {
    key: u64,
    durable: bool,
    /// Recorder event index is recovered by (shard, invoke) later; the
    /// stamps live in the recorder.
    shard: usize,
}

#[test]
fn crash_under_load_honors_ack_levels() {
    let _serial = serial();
    let server = server();
    let addr = server.local_addr();
    let loss_bound = server.store_handle().loss_bound();

    const CLIENTS: u64 = 4;
    let stop = AtomicBool::new(false);
    let crashed = AtomicBool::new(false);
    // Recorder stamp taken immediately before ADMIN CRASH is sent: events
    // with `response < crash_stamp` completed strictly before the outage.
    let crash_stamp = std::sync::atomic::AtomicU64::new(u64::MAX);
    // Wire-fed sharded history: clients stamp invoke before the frame is
    // sent and complete after the ack frame arrives.
    let recorder: ShardedHistoryRecorder<MapOp, ()> = ShardedHistoryRecorder::new(SHARDS);

    let acked: Vec<AckedOp> = std::thread::scope(|scope| {
        let stop = &stop;
        let crashed = &crashed;
        let crash_stamp = &crash_stamp;
        let recorder = &recorder;
        let workers: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut acked: Vec<AckedOp> = Vec::new();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let key = (t + 1) * 1_000_000 + i;
                        let durable = i.is_multiple_of(2);
                        let ack = if durable {
                            AckLevel::Durable
                        } else {
                            AckLevel::Buffered
                        };
                        let shard = shard_index(key, SHARDS);
                        let op = MapOp::Insert { key, value: key };
                        let stamp = recorder.invoke();
                        match c.roundtrip(&Request::Put {
                            id: i,
                            ack,
                            key,
                            value: key,
                        }) {
                            Response::Done { .. } => {
                                recorder.complete(shard, t as usize, op, (), stamp);
                                acked.push(AckedOp {
                                    key,
                                    durable,
                                    shard,
                                });
                            }
                            Response::Retry { .. } => std::thread::yield_now(),
                            other => panic!("unexpected response {other:?}"),
                        }
                        i += 1;
                    }
                    acked
                })
            })
            .collect();

        // Controller: let load build, crash mid-stream, let load continue
        // briefly on the recovered store, then stop the writers.
        let controller = scope.spawn(move || {
            let mut c = Client::connect(addr);
            // Wait until real traffic is flowing.
            loop {
                if let Response::Stats { stats, .. } = c.roundtrip(&Request::Admin {
                    id: 1,
                    cmd: AdminCmd::Stats,
                }) {
                    let total: u64 = stats.shards.iter().map(|s| s.completed_tail).sum();
                    if total > 300 {
                        break;
                    }
                }
                std::thread::yield_now();
            }
            crash_stamp.store(recorder.invoke(), Ordering::Release);
            assert!(matches!(
                c.roundtrip(&Request::Admin {
                    id: 2,
                    cmd: AdminCmd::Crash,
                }),
                Response::Done { .. }
            ));
            crashed.store(true, Ordering::Release);
            // A little post-recovery load proves the store still serves.
            for i in 0..50u64 {
                let _ = c.put_retrying(1_000 + i, AckLevel::Buffered, 9_000_000 + i, i);
            }
            stop.store(true, Ordering::Release);
        });

        let acked: Vec<AckedOp> = workers
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect();
        controller.join().expect("controller panicked");
        acked
    });
    assert!(crashed.load(Ordering::Acquire), "crash never happened");
    assert_eq!(server.crash_count(), 1);

    // Read back every acked key over the wire: any absent acked key was
    // lost in the crash (post-crash state is all applied and live).
    let mut reader = Client::connect(addr);
    let survived: HashSet<u64> = acked
        .iter()
        .map(|a| a.key)
        .filter(|&k| {
            matches!(
                reader.roundtrip(&Request::Get { id: k, key: k }),
                Response::Value { value: Some(_), .. }
            )
        })
        .collect();
    server.shutdown();

    let lost: Vec<&AckedOp> = acked
        .iter()
        .filter(|a| !survived.contains(&a.key))
        .collect();
    // 1) Durable acks are never lost.
    let durable_lost: Vec<u64> = lost.iter().filter(|a| a.durable).map(|a| a.key).collect();
    assert!(
        durable_lost.is_empty(),
        "durable-acked ops lost across crash: {durable_lost:?}"
    );
    // 2) Buffered loss stays within the store-wide bound.
    assert!(
        (lost.len() as u64) <= loss_bound,
        "lost {} buffered-acked ops, bound is {loss_bound}",
        lost.len()
    );
    // 3) Per-shard prefix closure over the wire-level happens-before
    //    order: if op A was acked before op B was even sent and both
    //    completed before the crash, then B surviving implies A survived
    //    (loss is a log suffix). Equivalently, on each shard every
    //    *pre-crash* survivor's invoke stamp precedes every lost op's
    //    response stamp. Ops completed after the crash request replay on
    //    the recovered log and say nothing about the old log's suffix.
    let cut = crash_stamp.load(Ordering::Acquire);
    let lost_keys: HashSet<u64> = lost.iter().map(|a| a.key).collect();
    let histories = recorder.into_histories();
    assert_eq!(histories.len(), SHARDS);
    for (shard, history) in histories.iter().enumerate() {
        let max_survivor_invoke = history
            .iter()
            .filter(|e| {
                e.response < cut
                    && e.op
                        .key()
                        .is_some_and(|k| survived.contains(&k) && !lost_keys.contains(&k))
            })
            .map(|e| e.invoke)
            .max();
        let min_lost_response = history
            .iter()
            .filter(|e| e.op.key().is_some_and(|k| lost_keys.contains(&k)))
            .map(|e| e.response)
            .min();
        if let (Some(survivor), Some(lost_resp)) = (max_survivor_invoke, min_lost_response) {
            assert!(
                survivor < lost_resp,
                "shard {shard}: op acked at stamp {lost_resp} lost while a later \
                 survivor was invoked at {survivor} — survivors are not a log prefix"
            );
        }
    }
    // Sanity: the workload actually exercised both ack levels and shards.
    assert!(acked.iter().any(|a| a.durable) && acked.iter().any(|a| !a.durable));
    assert!(acked.iter().any(|a| a.shard == 0) && acked.iter().any(|a| a.shard == 1));
}

/// The epoch a recovered store reports over the wire matches the number of
/// crashes, and a `Store` type alias round-trips through the public API.
#[test]
fn recovered_epoch_is_visible_on_the_wire() {
    let _serial = serial();
    let server = server();
    let addr = server.local_addr();
    let mut c = Client::connect(addr);
    for round in 1..=2u64 {
        c.put_retrying(round, AckLevel::Durable, round, round);
        assert!(matches!(
            c.roundtrip(&Request::Admin {
                id: 10 + round,
                cmd: AdminCmd::Crash,
            }),
            Response::Done { .. }
        ));
        match c.roundtrip(&Request::Admin {
            id: 20 + round,
            cmd: AdminCmd::Stats,
        }) {
            Response::Stats { stats, .. } => assert_eq!(stats.epoch, round),
            other => panic!("unexpected {other:?}"),
        }
    }
    let store: Arc<Store> = server.store_handle();
    assert_eq!(store.epoch(), 2);
    server.shutdown();
}

/// A default-config server serves caught-up GETs on the lock-free path: the
/// STATS counters show every read of a GET-only burst validated, none slow.
#[test]
fn default_config_serves_gets_lock_free() {
    let _serial = serial();
    let server = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let mut c = Client::connect(server.local_addr());
    const KEYS: u64 = 16;
    for k in 0..KEYS {
        c.put_retrying(k, AckLevel::Buffered, k, k + 1);
    }
    const GETS: u64 = 400;
    for i in 0..GETS {
        let key = i % KEYS;
        loop {
            match c.roundtrip(&Request::Get { id: i, key }) {
                Response::Value { value, .. } => {
                    assert_eq!(value, Some(key + 1));
                    break;
                }
                Response::Retry { .. } => std::thread::yield_now(),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    match c.roundtrip(&Request::Admin {
        id: GETS,
        cmd: AdminCmd::Stats,
    }) {
        Response::Stats { stats, .. } => {
            let fast: u64 = stats.shards.iter().map(|s| s.read_fast_optimistic).sum();
            let slow: u64 = stats.shards.iter().map(|s| s.read_slow_paths).sum();
            // No writer runs during the burst, so nothing can fail validation.
            assert_eq!(fast, GETS, "a GET left the lock-free path");
            assert_eq!(slow, 0, "a GET found its replica behind");
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

/// Scheduler timeslices received so far by this process's `serve-*`
/// threads, summed: a blocked thread receives none.
fn serve_timeslices() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("thread table") {
        let dir = task.expect("thread entry").path();
        // A thread may exit between the listing and the reads.
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !name.starts_with("serve-") {
            continue;
        }
        if let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) {
            // run ns, wait ns, timeslices
            total += stat
                .split_whitespace()
                .nth(2)
                .and_then(|n| n.parse::<u64>().ok())
                .expect("schedstat has three fields");
        }
    }
    total
}

/// Returns once none of the server's threads has been scheduled for 20 ms:
/// each of them is blocked, in `poll` or on a wake slot.
fn wait_until_blocked() {
    let mut before = serve_timeslices();
    for _ in 0..500 {
        std::thread::sleep(Duration::from_millis(20));
        let now = serve_timeslices();
        if now == before {
            return;
        }
        before = now;
    }
    panic!("the server's threads never came to rest");
}

/// `Server::join` with a deadline: a lost wake-up on the way to `Stopped`
/// fails the test instead of hanging it.
fn join_in_time(server: Server) -> prep_serve::ShutdownReport {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("the server did not stop: a thread missed the transition")
}

/// `Server::shutdown`, with the same deadline.
fn shutdown_in_time(server: Server) -> prep_serve::ShutdownReport {
    server.request_shutdown();
    join_in_time(server)
}

#[test]
fn idle_server_threads_are_not_scheduled() {
    let _serial = serial();
    let server = server();
    // A connection that has been used: the conn thread owns a socket.
    let mut c = Client::connect(server.local_addr());
    assert!(matches!(
        c.put_retrying(1, AckLevel::Durable, 1, 1),
        Response::Done { .. }
    ));
    wait_until_blocked();
    let before = serve_timeslices();
    std::thread::sleep(Duration::from_millis(200));
    let slices = serve_timeslices() - before;
    // Sleep-polling every thread at 50 us came to about 20 000 here.
    assert!(
        slices < 100,
        "an idle server's threads were scheduled {slices} times in 200 ms"
    );
    shutdown_in_time(server);
}

#[test]
fn durable_put_on_an_idle_server_is_acked() {
    let _serial = serial();
    let server = server();
    let mut c = Client::connect(server.local_addr());
    // Nothing but this one request ever reaches the server: every hand-off
    // from the socket to the watermark has to be a wake-up of its own.
    wait_until_blocked();
    assert_eq!(
        c.roundtrip(&Request::Put {
            id: 7,
            ack: AckLevel::Durable,
            key: 7,
            value: 70,
        }),
        Response::Done { id: 7 }
    );
    // And again from rest, now that every thread has parked once.
    wait_until_blocked();
    assert_eq!(
        c.roundtrip(&Request::Delete {
            id: 8,
            ack: AckLevel::Durable,
            key: 7,
        }),
        Response::Done { id: 8 }
    );
    shutdown_in_time(server);
}

#[test]
fn crash_and_shutdown_reach_a_server_at_rest() {
    let _serial = serial();
    // ADMIN CRASH: every worker has to notice, park for the cut, and come
    // back on the recovered store.
    let server = server();
    let mut c = Client::connect(server.local_addr());
    c.put_retrying(1, AckLevel::Durable, 1, 10);
    wait_until_blocked();
    assert_eq!(
        c.roundtrip(&Request::Admin {
            id: 2,
            cmd: AdminCmd::Crash,
        }),
        Response::Done { id: 2 }
    );
    assert_eq!(
        c.roundtrip(&Request::Get { id: 3, key: 1 }),
        Response::Value {
            id: 3,
            value: Some(10)
        },
        "a durable-acked key must survive, and the recovered store must serve"
    );
    // ADMIN SHUTDOWN, again from rest (the workers parked on the new
    // generation's slots).
    wait_until_blocked();
    assert_eq!(
        c.roundtrip(&Request::Admin {
            id: 4,
            cmd: AdminCmd::Shutdown,
        }),
        Response::Done { id: 4 }
    );
    let report = join_in_time(server);
    assert_eq!(report.crashes, 1);
    assert_eq!(report.completed_tails, report.durable_watermarks);

    // `Server::request_shutdown`: no socket involved at all.
    let server = self::server();
    wait_until_blocked();
    shutdown_in_time(server);
}

#[test]
fn crash_interrupts_a_durable_ack_parked_on_the_watermark() {
    let _serial = serial();
    // A checkpoint's fence takes 0.6 s: long enough for the drainer to be
    // found parked on the watermark, waiting for it, even if the host
    // stalls for a tenth of a second on the way.
    let server = server_with(LatencyModel {
        sfence_ns: 600_000_000,
        ..LatencyModel::off()
    });
    let mut c = Client::connect(server.local_addr());
    c.send(&Request::Put {
        id: 1,
        ack: AckLevel::Durable,
        key: 1,
        value: 1,
    });
    // The op is applied, its ack is queued, the persistence thread sleeps
    // in the fence, and the drainer — like every other server thread —
    // is blocked.
    wait_until_blocked();
    let store = server.store_handle();
    assert_eq!(store.completed_tails().iter().sum::<u64>(), 1);
    assert_eq!(store.durable_watermarks().iter().sum::<u64>(), 0);
    drop(store); // recovery needs the old store to itself
    c.send(&Request::Admin {
        id: 2,
        cmd: AdminCmd::Crash,
    });
    // The op may or may not survive the cut, so its ack is downgraded —
    // and it comes first: acks are settled before the cut is taken.
    assert_eq!(c.recv(), Response::Retry { id: 1 });
    assert_eq!(c.recv(), Response::Done { id: 2 });
    // One response per frame: the next frame on the wire answers the next
    // request.
    match c.roundtrip(&Request::Get { id: 3, key: 1 }) {
        Response::Value { id: 3, .. } => {}
        other => panic!("a stray frame followed the crash: {other:?}"),
    }
    let report = shutdown_in_time(server);
    assert_eq!(report.crashes, 1);
    assert_eq!(
        report.durable_acks, 0,
        "the interrupted ack was never released"
    );
}
