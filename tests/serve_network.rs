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
//! * **The default server reads caught-up replicas.** `ServeConfig::default()`
//!   serves a GET-only burst entirely on the caught-up reader-slot path,
//!   visible in `ADMIN STATS`.
//!
//! * **Blocked is not stuck.** The server's threads block in `poll` and in
//!   a channel receive instead of polling, so: an idle server's threads are
//!   not scheduled at all; a crash, a wire shutdown and an in-process
//!   shutdown each get through to a server whose every thread is blocked —
//!   including a crash that finds a conn thread holding a durable ack for
//!   the watermark, which is still answered (`RETRY`), once; a conn thread
//!   holds two durable acks on one shard in `poll`, not polling, while a
//!   GET to that shard is still answered; a held ack does not delay the
//!   other sockets of its conn thread; and a durable PUT sent to an idle
//!   server is acked with no other traffic to kick it along.
//!
//! The liveness tests read this process's thread table, so every test in
//! this file takes [`serial`]: no other test's server is in the table, and
//! none competes for the two CPUs while one of them measures.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test code is outside the API bans"
)]

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
const CONN_THREADS: usize = 2;

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
    Server::start(config(latency), "127.0.0.1:0").expect("start server")
}

fn config(latency: LatencyModel) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        executors_per_shard: CONN_THREADS,
        queue_depth: 64,
        epsilon: 16,
        log_size: 1024,
        latency,
        crash_sim: true,
        ..ServeConfig::default()
    }
}

/// A checkpoint whose fence takes 2 s: a durable ack waits that long.
fn slow_fence() -> LatencyModel {
    LatencyModel {
        sfence_ns: 2_000_000_000,
        ..LatencyModel::off()
    }
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
    let workers = CONN_THREADS;
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

/// A default-config server serves GETs on the caught-up path: the STATS
/// counters show every read of a GET-only burst found its replica caught up
/// and took its own reader slot, none slow.
#[test]
fn default_config_serves_gets_on_the_caught_up_path() {
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
            let fast: u64 = stats.shards.iter().map(|s| s.read_fast_paths).sum();
            let slow: u64 = stats.shards.iter().map(|s| s.read_slow_paths).sum();
            assert_eq!(fast, GETS, "a GET left the caught-up path");
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
/// each of them is blocked, in `poll` or in a channel receive.
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
    // from the socket to the watermark and back has to be a wake-up of its
    // own.
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
    // ADMIN CRASH: every conn thread has to notice, give its lease up for
    // the cut, and come back on the recovered store.
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
    // ADMIN SHUTDOWN, again from rest (the conn threads blocked in `poll`
    // with leases on the recovered store).
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
    // A checkpoint's fence takes 0.6 s: long enough for the conn thread
    // that holds the ack to be found blocked in `poll`, waiting for it,
    // even if the host stalls for a tenth of a second on the way.
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
    // The op is applied, the persistence thread sleeps in the fence, and
    // the conn thread holding the ack — like every other server thread —
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
    assert_eq!(report.retries, 1, "the downgraded ack is a RETRY frame");
}

#[test]
fn concurrent_durable_acks_on_one_shard_park() {
    let _serial = serial();
    let server = server_with(slow_fence());
    let shard = shard_index(1, SHARDS);
    let other = (2..)
        .find(|&k| shard_index(k, SHARDS) == shard)
        .expect("a second key on the shard");
    // One connection, so one conn thread runs both PUTs and holds both acks.
    let mut c = Client::connect(server.local_addr());
    // One at a time: the conn thread holds the first ack and goes back to
    // `poll`, where the second PUT finds it.
    for (id, key) in [(1, 1), (2, other)] {
        c.send(&Request::Put {
            id,
            ack: AckLevel::Durable,
            key,
            value: id,
        });
        wait_until_blocked();
    }
    // Both acks wait on the same watermark, and their thread is blocked: one
    // that polled for the checkpoint would keep being scheduled until the
    // fence ended and the acks went out.
    let store = server.store_handle();
    assert_eq!(store.shard(shard).completed_tail(), 2);
    assert_eq!(store.shard(shard).durable_watermark(), 0);
    // Holding acks does not close the shard: a GET is answered before the
    // checkpoint they wait for has landed.
    assert_eq!(
        c.roundtrip(&Request::Get { id: 3, key: 1 }),
        Response::Value {
            id: 3,
            value: Some(1)
        }
    );
    assert_eq!(store.shard(shard).durable_watermark(), 0);
    drop(store); // recovery needs the old store to itself
    c.send(&Request::Admin {
        id: 4,
        cmd: AdminCmd::Crash,
    });
    let mut retried: Vec<u64> = (0..2)
        .map(|_| match c.recv() {
            Response::Retry { id } => id,
            other => panic!("an interrupted durable ack was answered {other:?}"),
        })
        .collect();
    retried.sort_unstable();
    assert_eq!(retried, [1, 2]);
    assert_eq!(c.recv(), Response::Done { id: 4 });
    match c.roundtrip(&Request::Get { id: 5, key: 1 }) {
        Response::Value { id: 5, .. } => {}
        other => panic!("a stray frame followed the crash: {other:?}"),
    }
    let report = shutdown_in_time(server);
    assert_eq!(report.durable_acks, 0);
    assert_eq!(report.retries, 2);
}

#[test]
fn a_held_ack_does_not_delay_its_conn_threads_other_sockets() {
    let _serial = serial();
    // One conn thread: both connections below are served by it.
    let server = Server::start(
        ServeConfig {
            executors_per_shard: 1,
            ..config(slow_fence())
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let mut a = Client::connect(server.local_addr());
    let mut b = Client::connect(server.local_addr());
    a.send(&Request::Put {
        id: 1,
        ack: AckLevel::Durable,
        key: 1,
        value: 10,
    });
    // The conn thread holds A's ack and is back in `poll`, not polling the
    // watermark.
    wait_until_blocked();
    let store = server.store_handle();
    let shard = shard_index(1, SHARDS);
    assert_eq!(store.shard(shard).completed_tail(), 1);
    assert_eq!(store.shard(shard).durable_watermark(), 0);
    // B is answered while A's checkpoint is still being written.
    assert_eq!(
        b.roundtrip(&Request::Get { id: 2, key: 1 }),
        Response::Value {
            id: 2,
            value: Some(10)
        }
    );
    assert_eq!(store.shard(shard).durable_watermark(), 0);
    wait_until_blocked();
    drop(store);
    // And A's ack goes out once the checkpoint lands.
    assert_eq!(a.recv(), Response::Done { id: 1 });
    let report = shutdown_in_time(server);
    assert_eq!((report.durable_acks, report.retries), (1, 0));
}
