//! The thread-per-core TCP server over [`prep_shard::ShardedStore`].
//!
//! ## Run to completion
//!
//! ```text
//! acceptor ─▶ conn thread c ─ decode ─▶ store.execute ─▶ response
//!                 ▲        (NR worker c on every shard)
//!                 │                  │ durable ack on a buffered store: the
//!                 │                  ▼ round's checkpoint nudged, by c itself
//!                 │                    if the shard's cycle is free (ack out)
//!                 │                  │ cycle busy: ack held by c
//!                 │                  ▼
//!                 └─ eventfd ◀─ checkpoint listener ◀─ the cycle's holder
//! ```
//!
//! Every connection thread is a registered NR worker on every shard — `c`
//! on each, for β = [`ServeConfig::executors_per_shard`] threads — and
//! runs each frame to completion as soon as it has decoded it: `execute`,
//! then the response, on the thread that read the request, with no queue
//! and no hand-off in between. That is the paper's shape: the thread that
//! owns an operation calls `ExecuteConcurrent` on it itself. When the
//! requests of several conn threads land on one shard at once, NR's flat
//! combiner folds them into **one combine round** (one log reservation,
//! one batch persist in durable mode), so up to β requests share a round.
//!
//! Backpressure is explicit and bounded: a conn thread holds at most
//! [`ServeConfig::queue_depth`] durable acks, and one more durable request
//! is answered `RETRY` without being applied. Nothing else queues: a
//! request runs when it is read, so a client that sends faster than the
//! server executes fills its own socket buffer, not the server's memory.
//!
//! ## Hand-offs: who blocks where, and who wakes whom
//!
//! No thread polls. A thread with nothing to do blocks — the ones that own
//! sockets in one `poll(2)` over them plus a [`Waker`] ([`crate::poll`], an
//! `eventfd`), the control thread on its command channel — and whoever
//! gives it work ends the block, so a request crosses the server in
//! wake-ups, not in sleep quanta. An idle server's only wake-ups are its
//! stores' persistence threads looking for work once per
//! [`prep_uc::IDLE_PARK`].
//!
//! | thread | blocks in | woken by |
//! |---|---|---|
//! | acceptor | `poll`: listener + waker | a connecting client; every lifecycle transition |
//! | conn thread | `poll`: its sockets + waker | request bytes; the acceptor (new connection); a shard's checkpoint listener, when whoever holds the shard's persistence cycle (its persistence thread, or a conn thread's nudge) publishes a checkpoint on a shard where this thread announced a held ack; every transition |
//! | control | its command channel | an admin frame, [`Server::request_shutdown`] |
//!
//! A held ack's hand-off is a store→load pair, as [`prep_sync::WakeSlot`]
//! documents: the conn thread stores its announcement (`ConnWake::waiting`)
//! and then re-reads [`prep_uc::PrepUc::durable_watermark`]; the thread
//! that writes the checkpoint publishes it (its `SeqCst` `fetch_max`) and
//! then the shard's checkpoint listener
//! ([`prep_uc::PrepUc::set_checkpoint_listener`]) loads the announcement,
//! claims it and writes the eventfd — all four `SeqCst`, so one of the two
//! loads sees the other side. The lifecycle `state` is stored in one place,
//! `Inner::set_state`, which then wakes every waker; a thread woken for
//! nothing re-checks and blocks again. [`Server::join`] joins the threads,
//! which exit on the transition to stopped. A control thread that watches
//! the process signal flag ([`ServeConfig::watch_signals`]) bounds its
//! block by 50 ms: a signal handler may store to an atomic but not wake.
//!
//! What is left to [`Waiter`] is what is rare and short: a contended
//! lock, a full socket buffer in `ConnIo::send`, the acceptor's back-off
//! when `accept` fails for lack of descriptors, and the control thread's
//! barriers in crash and drain (every conn thread off its store lease).
//!
//! ## Ack release points
//!
//! Every ack is written by the conn thread that ran the op. A *buffered*
//! ack goes out as soon as `execute` returns (the op is applied,
//! volatile). For a *durable* ack the conn thread reads the
//! `completedTail` that covers the op and keeps the ack until the shard's
//! crash-survivability watermark ([`prep_uc::PrepUc::durable_watermark`])
//! passes that tail, i.e. until a checkpoint covering it has reached NVM.
//! The natural checkpoint is up to ε ops away, so once the service round's
//! requests have all run, the thread asks each shard it holds acks on for
//! one now ([`prep_uc::PrepUc::nudge_checkpoint`]), once, so a round's
//! pipelined durable updates share it. If the shard's persistence cycle is
//! free the nudge runs it on the conn thread, and the acks go out before
//! the thread returns to `poll`: on an idle shard a durable ack costs no
//! wake-up at all. If the cycle is busy, the thread holds the acks, goes
//! back to `poll` and serves its other sockets, so GETs do not queue
//! behind checkpoints; the checkpoint listener wakes it when one lands, and
//! one checkpoint releases every held ack it covers. That path costs two
//! wake-ups, conn → persistence → conn. (On a durable-mode store `execute`
//! has already waited out the persist, and the ack goes out at once.)
//!
//! ## Crash and shutdown choreography
//!
//! A conn thread executes only under a *lease* — the current store handle
//! and its registration on it — taken in `Running`; the control thread's
//! barriers wait until every conn thread has given its lease up
//! (`Inner::parked`).
//!
//! `ADMIN CRASH` (crash-sim servers): the control thread moves the server
//! to `Crashing`. A conn thread that sees it answers new requests `RETRY`,
//! **downgrades every ack it holds to `RETRY`** (the op may or may not
//! survive the cut, so it must not be acked `Done`; but unlike a real
//! power failure the TCP connection survives the simulated one, so silence
//! would wedge clients — `RETRY` claims nothing and keeps the
//! one-response-per-frame invariant), and drops its lease. Only then is
//! the cut captured, so every ack that reached a client precedes the cut:
//! durable-acked ops are always in the recovered image, and buffered-acked
//! loss stays within the store's `N·(ε + β − 1)` bound. The store is
//! rebuilt via [`prep_shard::ShardedStore::recover`] on a fresh runtime and
//! the server returns to `Running`, which is the only way a conn thread
//! leases again — so always the new store. Taking a lease leaves the
//! parked count and then re-reads the state, both `SeqCst`, against the
//! control thread's `Crashing` store and parked-count load: either the
//! barrier sees the thread and waits for it, or the thread sees `Crashing`
//! and parks again, so no thread leases the old store past the barrier.
//!
//! `ADMIN SHUTDOWN` / SIGTERM: `Draining` — conn threads answer new work
//! with an error, release every held ack as its checkpoint lands, and then
//! drop their leases. Once no conn thread is inside a service round and no
//! ack is held, the store is quiesced
//! ([`prep_shard::ShardedStore::quiesce_persistence`], the final forced
//! checkpoint), and only then does the server stop: a clean shutdown loses
//! **zero** buffered ops, versus up to the bound on a crash.

use std::cell::RefCell;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
use prep_shard::{ShardToken, ShardedStore};
use prep_sync::{spin_until, TicketLock, TryLock, TryLockGuard, Waiter};
use prep_topology::{ThreadAssignment, Topology};
use prep_uc::{
    DurabilityLevel, FairnessMode, FlushStrategy, LatencyModel, PmemRuntime, PrepConfig,
};

use crate::poll::{self, PollFd, Waker};
use crate::proto::{self, err_code, AckLevel, AdminCmd, Request, Response, WireShard, WireStats};
use crate::signals;

/// The store type this server fronts.
pub type Store = ShardedStore<HashMap>;

/// Routing key for the KV map ops (`Len` has no key; serve never emits it).
fn route_key(op: &MapOp) -> u64 {
    op.key().unwrap_or(0)
}

/// Server lifecycle states (stored in `Inner::state`).
const RUNNING: u8 = 0;
const CRASHING: u8 = 1;
const DRAINING: u8 = 2;
const STOPPED: u8 = 3;

/// How long a control thread that watches the signal flag blocks at most.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of store shards (independent PREP-UC logs).
    pub shards: usize,
    /// Connection threads, each a registered NR worker on *every* shard —
    /// the β of flat combining: up to this many requests to one shard enter
    /// its combine round together. (Each conn thread executes what it reads;
    /// there are no per-shard executor threads.)
    pub executors_per_shard: usize,
    /// Durable acks one conn thread may hold while their checkpoints are
    /// written; one more durable request is answered `RETRY` unapplied.
    pub queue_depth: usize,
    /// Store durability mode. In `Durable` mode every ack is implicitly
    /// durable (execute returns only after the covering persist).
    pub durability: DurabilityLevel,
    /// Checkpoint cadence ε (buffered mode's loss window).
    pub epsilon: u64,
    /// Per-shard operation-log capacity.
    pub log_size: u64,
    /// Simulated NVM latency model.
    pub latency: LatencyModel,
    /// Liveness mode (§4.2). The default, [`FairnessMode::Throughput`],
    /// serves caught-up GETs under the reader's own lock slot.
    pub fairness: FairnessMode,
    /// Enable crash simulation (`ADMIN CRASH`); costs image upkeep.
    pub crash_sim: bool,
    /// Poll the process signal flag ([`signals::shutdown_requested`]) from
    /// the control thread. Binaries set this; in-process tests leave it
    /// off so one test's signal cannot drain another test's server.
    pub watch_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            executors_per_shard: 2,
            queue_depth: 128,
            durability: DurabilityLevel::Buffered,
            epsilon: 64,
            log_size: 4096,
            latency: LatencyModel::off(),
            fairness: FairnessMode::default(),
            crash_sim: false,
            watch_signals: false,
        }
    }
}

impl ServeConfig {
    /// Conn threads, which are the store's registered workers.
    fn workers(&self) -> usize {
        self.executors_per_shard
    }

    /// A fresh [`PrepConfig`] (fresh runtime) for construction or recovery.
    ///
    /// The server's checkpoints are on the ack path — a durable ack waits
    /// for the one its conn thread asked for — so they are incremental
    /// ([`FlushStrategy::DirtyLines`]: a checkpoint for one ack flushes the
    /// lines that op dirtied, where the paper's whole-cache `WBINVD` costs
    /// half a millisecond however little changed); the library default
    /// stays what it is.
    fn prep_config(&self) -> PrepConfig {
        PrepConfig::new(self.durability)
            .with_log_size(self.log_size)
            .with_epsilon(self.epsilon)
            .with_runtime(PmemRuntime::new(self.latency, self.crash_sim))
            .with_fairness(self.fairness)
            .with_flush_strategy(FlushStrategy::DirtyLines)
    }
}

/// Spawns one of the server's threads, fail-stop: if it panics, the
/// process prints the panic and aborts. The server cannot run without any
/// of its threads — a lost conn thread leaves its clients unanswered and
/// the crash and drain barriers waiting for it — so a client waiting on
/// such a server would hang instead of seeing the failure.
fn spawn_fail_stop(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) else {
                return;
            };
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            // To the stderr handle, not through `eprintln!`: a test
            // harness captures the macro's output, and the abort drops it.
            let _ = writeln!(
                std::io::stderr(),
                "server thread '{name}' panicked: {msg}; aborting"
            );
            std::process::abort();
        })
        .expect("spawn server thread")
}

/// Spin-acquires a `TryLock` (none of these sections block or do IO,
/// except `ConnIo::send` which has its own ticket lock). The held-level
/// check sees this as the `try_lock` it spins on: recorded, never checked.
#[cfg_attr(debug_assertions, track_caller)]
fn locked<T>(l: &TryLock<T>) -> TryLockGuard<'_, T> {
    let mut w = Waiter::new();
    loop {
        if let Some(g) = l.try_lock() {
            return g;
        }
        w.wait();
    }
}

thread_local! {
    /// The calling thread's response-encoding buffer, reused across
    /// [`ConnIo::respond`] calls so a response allocates nothing.
    static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// One connection's shared write half: its conn thread and the control
/// thread (admin answers) write complete frames under the per-connection
/// ticket lock, so frames never interleave on the wire.
struct ConnIo {
    stream: TcpStream,
    wlock: TicketLock,
}

impl ConnIo {
    /// Writes one already-encoded frame; short writes and `WouldBlock`
    /// (the stream is non-blocking) are retried under the lock. Errors are
    /// swallowed — a dead connection is detected and reaped by its reader.
    fn send(&self, frame: &[u8]) {
        let _g = self.wlock.lock();
        let mut s = &self.stream;
        let mut off = 0;
        let mut w = Waiter::new();
        while off < frame.len() {
            match s.write(&frame[off..]) {
                Ok(0) => return,
                Ok(n) => {
                    off += n;
                    w.reset();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => w.wait(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Encode-and-send convenience.
    fn respond(&self, resp: &Response) {
        FRAME.with(|frame| {
            let mut frame = frame.borrow_mut();
            frame.clear();
            proto::encode_response(resp, &mut frame);
            self.send(&frame);
        });
    }
}

/// What other threads share with one conn thread: the sockets the
/// acceptor hands it, what ends its `poll`, and on which shards it waits
/// for a checkpoint (read by every shard's checkpoint listener).
struct ConnWake {
    inbox: TryLock<Vec<TcpStream>>,
    waker: Waker,
    /// `waiting[s]`: the thread may hold an ack on shard `s` that the
    /// watermark did not cover at its last look. Stored by the thread
    /// before it looks; claimed (swapped back) by the listener that wakes
    /// it.
    waiting: Box<[AtomicBool]>,
}

/// Has each checkpoint published on a shard — by its persistence thread,
/// or by a conn thread whose nudge ran the cycle — wake the conn threads
/// that announced a held ack on that shard.
fn listen_for_checkpoints(store: &Store, conns: &Arc<[ConnWake]>) {
    for s in 0..store.shards() {
        let conns = Arc::clone(conns);
        store.shard(s).set_checkpoint_listener(move || {
            for c in conns.iter() {
                // ord: SeqCst — the load of the store→load pair whose store
                // is the checkpoint's watermark publish; the swap claims
                // the announcement, so one announcement costs one wake.
                if c.waiting[s].load(Ordering::SeqCst) && c.waiting[s].swap(false, Ordering::SeqCst)
                {
                    c.waker.wake();
                }
            }
        });
    }
}

/// Monotone service counters.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    retries: AtomicU64,
    durable_acks: AtomicU64,
    crashes: AtomicU64,
}

/// One queued admin command: the verb, the request id to echo, and the
/// connection to answer on (`None` for process-internal requests, e.g.
/// the signal-driven shutdown).
type ControlMsg = (AdminCmd, u64, Option<Arc<ConnIo>>);

/// Shared server state.
struct Inner {
    cfg: ServeConfig,
    assignment: ThreadAssignment,
    /// Lifecycle state (RUNNING/CRASHING/DRAINING/STOPPED); stored only by
    /// [`Inner::set_state`].
    state: AtomicU8,
    /// The current store. `None` only transiently inside crash recovery.
    store: TryLock<Option<Arc<Store>>>,
    /// Admin commands routed to the control thread. One sent after the
    /// server stopped has nobody to answer it, and is dropped.
    control: Sender<ControlMsg>,
    /// Ends the acceptor's `poll`.
    accept_waker: Waker,
    /// One entry per conn thread, shared with every checkpoint listener.
    conn_wake: Arc<[ConnWake]>,
    /// Conn threads holding no store lease (the crash and drain barrier).
    /// Every access is `SeqCst`: see the module docs' crash choreography.
    parked: AtomicUsize,
    counters: Counters,
}

impl Inner {
    #[inline]
    fn state(&self) -> u8 {
        // ord: SeqCst — observing a transition implies the decision that
        // caused it (as Acquire would), and it is the load every parked
        // thread, and a conn thread taking a lease, re-checks with.
        self.state.load(Ordering::SeqCst)
    }

    /// Moves the lifecycle on and wakes every thread that may be blocked:
    /// each of them has `state` in the condition it re-checks.
    fn set_state(&self, state: u8) {
        // ord: SeqCst — publishes everything decided before the transition
        // (as Release would), and is the store of the store→load pair with
        // `Worker::lease`'s parked count.
        self.state.store(state, Ordering::SeqCst);
        self.accept_waker.wake();
        for c in self.conn_wake.iter() {
            c.waker.wake();
        }
    }

    /// Clones the current store handle, waiting out a crash swap.
    fn store_arc(&self) -> Arc<Store> {
        let mut w = Waiter::new();
        loop {
            if let Some(s) = locked(&self.store).as_ref() {
                return Arc::clone(s);
            }
            w.wait();
        }
    }

    /// Answers request `id` with `RETRY`; every one is counted here.
    fn retry(&self, io: &ConnIo, id: u64) {
        // ord: monotone counter (Relaxed).
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        io.respond(&Response::Retry { id });
    }

    /// Answers update `id` `Done`; every durable ack is counted here.
    fn done(&self, io: &ConnIo, id: u64, ack: AckLevel) {
        io.respond(&Response::Done { id });
        if ack == AckLevel::Durable {
            // ord: monotone counter (Relaxed).
            self.counters.durable_acks.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Everything [`Server::join`] reports after the server stopped.
pub struct ShutdownReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests parsed (including admin and shed requests).
    pub requests: u64,
    /// `RETRY` frames sent: requests shed by backpressure or the crash
    /// window, and durable acks a crash interrupted.
    pub retries: u64,
    /// `Done` frames sent to requests that asked for a durable ack.
    pub durable_acks: u64,
    /// Crash-recovery cycles survived.
    pub crashes: u64,
    /// Final per-shard `completedTail`s.
    pub completed_tails: Vec<u64>,
    /// Final per-shard crash-survivability watermarks. After a clean
    /// shutdown these equal `completed_tails` — the zero-loss property.
    pub durable_watermarks: Vec<u64>,
    /// The quiesced store, for post-shutdown inspection (tests capture a
    /// cut from it to prove zero loss).
    pub store: Arc<Store>,
}

/// A running KV server; see the module docs for the architecture.
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and starts every thread.
    pub fn start(cfg: ServeConfig, bind: &str) -> std::io::Result<Server> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.workers() > 0, "need at least one conn thread");
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let workers = cfg.workers();
        // One extra core: the topology reserves a CPU for the persistence
        // thread, so `workers` registered workers need `workers + 1` cores.
        let assignment = Topology::new(1, workers + 1, 1).assign_workers(workers);
        let store = Store::new(
            HashMap::new(),
            cfg.shards,
            assignment.clone(),
            cfg.prep_config(),
            route_key,
        );
        let conn_wake = (0..workers)
            .map(|_| {
                Ok(ConnWake {
                    inbox: TryLock::new(Vec::new()),
                    waker: Waker::new()?,
                    waiting: (0..cfg.shards).map(|_| AtomicBool::new(false)).collect(),
                })
            })
            .collect::<std::io::Result<Arc<[ConnWake]>>>()?;
        listen_for_checkpoints(&store, &conn_wake);
        let (control, inbox) = mpsc::channel();
        let inner = Arc::new(Inner {
            assignment,
            state: AtomicU8::new(RUNNING),
            store: TryLock::new(Some(Arc::new(store))),
            control,
            accept_waker: Waker::new()?,
            conn_wake,
            // Leases are taken on a conn thread's first round.
            parked: AtomicUsize::new(workers),
            counters: Counters::default(),
            cfg,
        });

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(spawn_fail_stop("serve-accept".into(), move || {
                acceptor_loop(inner, listener)
            }));
        }
        for c in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(spawn_fail_stop(format!("serve-conn-{c}"), move || {
                conn_loop(inner, c)
            }));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(spawn_fail_stop("serve-control".into(), move || {
                control_loop(inner, inbox)
            }));
        }
        Ok(Server {
            inner,
            threads,
            addr,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the control thread to drain and stop (same path as
    /// `ADMIN SHUTDOWN` and SIGTERM). Returns immediately.
    pub fn request_shutdown(&self) {
        let _ = self.inner.control.send((AdminCmd::Shutdown, 0, None));
    }

    /// Crash-recovery cycles performed so far.
    pub fn crash_count(&self) -> u64 {
        // ord: monotone counter; Relaxed suffices for a diagnostic read.
        self.inner.counters.crashes.load(Ordering::Relaxed)
    }

    /// A handle to the current store (diagnostics/tests).
    ///
    /// Do **not** hold this across an `ADMIN CRASH`: recovery waits for
    /// exclusive ownership of the old store before rebuilding.
    pub fn store_handle(&self) -> Arc<Store> {
        self.inner.store_arc()
    }

    /// Blocks until the server has stopped (via [`Server::request_shutdown`],
    /// `ADMIN SHUTDOWN`, or a watched signal) — every thread exits on the
    /// transition to stopped, so this joins them — and reports.
    pub fn join(self) -> ShutdownReport {
        for t in self.threads {
            let _ = t.join();
        }
        let store = self.inner.store_arc();
        let c = &self.inner.counters;
        ShutdownReport {
            // ord: all threads joined; these are final values (Relaxed).
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed), // ord: post-join
            retries: c.retries.load(Ordering::Relaxed),   // ord: post-join
            durable_acks: c.durable_acks.load(Ordering::Relaxed), // ord: post-join
            crashes: c.crashes.load(Ordering::Relaxed),   // ord: post-join
            completed_tails: store.completed_tails(),
            durable_watermarks: store.durable_watermarks(),
            store,
        }
    }

    /// [`Server::request_shutdown`] + [`Server::join`].
    pub fn shutdown(self) -> ShutdownReport {
        self.request_shutdown();
        self.join()
    }
}

/// Accept loop: hands sockets to connection threads round-robin.
fn acceptor_loop(inner: Arc<Inner>, listener: TcpListener) {
    let mut next = 0usize;
    let mut backoff = Waiter::new();
    let mut fds = [
        PollFd::readable(listener.as_raw_fd()),
        PollFd::readable(inner.accept_waker.fd()),
    ];
    loop {
        poll::wait(&mut fds);
        if fds[1].is_ready() {
            inner.accept_waker.drain();
        }
        if inner.state() == STOPPED {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    // ord: monotone counter (Relaxed).
                    inner.counters.connections.fetch_add(1, Ordering::Relaxed);
                    let target = next % inner.cfg.workers();
                    locked(&inner.conn_wake[target].inbox).push(stream);
                    inner.conn_wake[target].waker.wake();
                    next = next.wrapping_add(1);
                    backoff.reset();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Out of descriptors, say: the pending connection keeps the
                // listener readable, so `poll` would return at once — back
                // off here instead of spinning through it.
                Err(_) => {
                    backoff.wait();
                    break;
                }
            }
        }
    }
}

/// One connection's reader-side state.
struct ConnState {
    io: Arc<ConnIo>,
    rbuf: Vec<u8>,
}

/// A conn thread's registration on one store generation.
struct Lease {
    store: Arc<Store>,
    token: ShardToken,
}

/// A durable ack a conn thread owes: the shard its op ran on, the
/// `completedTail` that covers the op, and the request to answer.
struct HeldAck {
    shard: usize,
    cover: u64,
    id: u64,
    io: Arc<ConnIo>,
}

/// A conn thread in its role as NR worker `index` on every shard.
struct Worker {
    index: usize,
    lease: Option<Lease>,
    /// At most `queue_depth` acks.
    held: Vec<HeldAck>,
}

impl Worker {
    /// Takes a lease on the current store; returns the state to serve this
    /// round with, which is `RUNNING` exactly when the lease was taken.
    fn lease(&mut self, inner: &Inner) -> u8 {
        // ord: SeqCst — the store of this thread's store→load pair with
        // do_crash's `Crashing` store → parked load: either the barrier
        // sees this thread unparked and waits for it, or the re-read below
        // sees `Crashing` and the thread parks again untouched.
        inner.parked.fetch_sub(1, Ordering::SeqCst);
        let st = inner.state();
        if st != RUNNING {
            // ord: SeqCst, as above.
            inner.parked.fetch_add(1, Ordering::SeqCst);
            return st;
        }
        let store = inner.store_arc();
        let token = store.register(self.index);
        self.lease = Some(Lease { store, token });
        st
    }

    /// Gives the lease up for a crash or the drain: every held ack is
    /// answered `RETRY` first (the drain gets here with none held).
    fn park(&mut self, inner: &Inner) {
        // These ops may or may not survive the cut, so they must not be
        // acked `Done`; silence would wedge the clients, whose connections
        // outlive the simulated power failure.
        for ack in self.held.drain(..) {
            inner.retry(&ack.io, ack.id);
        }
        self.lease = None;
        // ord: SeqCst — publishes the responses written and the dropped
        // store handle to the barrier's load, and pairs with `lease`.
        inner.parked.fetch_add(1, Ordering::SeqCst);
    }

    /// Runs one decoded request to completion and answers it — except a
    /// durable update on a buffered store, whose ack is held until the
    /// checkpoint that covers it lands.
    fn serve(&mut self, inner: &Inner, st: u8, req: Request, io: &Arc<ConnIo>) {
        // ord: monotone counter (Relaxed).
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        let id = req.id();
        let (op, ack) = match req {
            Request::Admin { cmd, .. } => {
                let _ = inner.control.send((cmd, id, Some(Arc::clone(io))));
                return;
            }
            // The crash window looks like transient overload from outside:
            // clients retry and succeed after recovery.
            _ if st == CRASHING => return inner.retry(io, id),
            _ if st != RUNNING => {
                return io.respond(&Response::Err {
                    id,
                    code: err_code::SHUTTING_DOWN,
                });
            }
            Request::Get { key, .. } => {
                let value = self.get(key);
                return io.respond(&Response::Value { id, value });
            }
            Request::Scan { start, count, .. } => {
                let pairs = (start..start.saturating_add(count as u64))
                    .filter_map(|key| Some((key, self.get(key)?)))
                    .collect();
                return io.respond(&Response::Pairs { id, pairs });
            }
            Request::Put {
                ack, key, value, ..
            } => (MapOp::Insert { key, value }, ack),
            Request::Delete { ack, key, .. } => (MapOp::Remove { key }, ack),
        };
        let hold = ack == AckLevel::Durable && inner.cfg.durability == DurabilityLevel::Buffered;
        if hold && self.held.len() >= inner.cfg.queue_depth {
            return inner.retry(io, id);
        }
        let Lease { store, token } = self.lease.as_ref().expect("a running round holds a lease");
        let shard = store.shard_of(&op);
        store.execute_on(shard, token, op);
        if !hold {
            return inner.done(io, id, ack);
        }
        // The op completed on this shard, so the shard's current
        // completedTail covers its log index. `settle` asks for the
        // checkpoint once the round's requests have all run.
        self.held.push(HeldAck {
            shard,
            cover: store.shard(shard).completed_tail(),
            id,
            io: Arc::clone(io),
        });
    }

    fn get(&self, key: u64) -> Option<u64> {
        let Lease { store, token } = self.lease.as_ref().expect("a running round holds a lease");
        match store.execute(token, MapOp::Get { key }) {
            MapResp::Value(v) => v,
            _ => None,
        }
    }

    /// After a service round, before `poll`: asks each shard it holds acks
    /// on for the checkpoint that covers them, once, so the round's
    /// pipelined durable updates share it; then announces each ack still
    /// held on its shard and releases it if the watermark covers it.
    /// Draining, the thread gives its lease up once it holds none.
    fn settle(&mut self, inner: &Inner, st: u8) {
        let Some(Lease { store, .. }) = &self.lease else {
            return;
        };
        // The natural checkpoint is up to ε ops away. If the shard's
        // persistence cycle is free, the nudge writes the checkpoint on
        // this thread and the acks go out below with no wake-up at all.
        for s in 0..store.shards() {
            if self.held.iter().any(|a| a.shard == s) {
                store.shard(s).nudge_checkpoint();
            }
        }
        let waiting = &inner.conn_wake[self.index].waiting;
        self.held.retain(|a| {
            let shard = store.shard(a.shard);
            // Covered already (often by this thread's own checkpoint
            // above): release without announcing.
            let mut covered = shard.durable_watermark() >= a.cover;
            if !covered {
                // ord: SeqCst — the announce, the store of the pair with
                // the listener's load; the watermark re-read is the load,
                // after which `poll` may block. A flag left set because
                // the re-read found the ack covered costs one spurious
                // wake-up at most.
                waiting[a.shard].store(true, Ordering::SeqCst);
                covered = shard.durable_watermark() >= a.cover;
            }
            if covered {
                inner.done(&a.io, a.id, AckLevel::Durable);
            }
            !covered
        });
        if st == DRAINING && self.held.is_empty() {
            self.park(inner);
        }
    }
}

/// Connection thread: owns a set of connections, reads frames and runs
/// each to completion as NR worker `index`.
fn conn_loop(inner: Arc<Inner>, index: usize) {
    let waker = &inner.conn_wake[index].waker;
    let mut me = Worker {
        index,
        lease: None,
        held: Vec::new(),
    };
    let mut conns: Vec<ConnState> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        fds.clear();
        fds.push(PollFd::readable(waker.fd()));
        fds.extend(
            conns
                .iter()
                .map(|c| PollFd::readable(c.io.stream.as_raw_fd())),
        );
        poll::wait(&mut fds);
        if fds[0].is_ready() {
            waker.drain();
        }
        let mut st = inner.state();
        match st {
            STOPPED => {
                for c in &conns {
                    let _ = c.io.stream.shutdown(NetShutdown::Both);
                }
                return;
            }
            RUNNING if me.lease.is_none() => st = me.lease(&inner),
            CRASHING if me.lease.is_some() => me.park(&inner),
            _ => {}
        }
        let mut ready = fds[1..].iter().map(PollFd::is_ready);
        conns.retain_mut(|conn| {
            !ready.next().expect("one poll entry per connection")
                || service_conn(&inner, &mut me, st, conn)
        });
        me.settle(&inner, st);
        for stream in locked(&inner.conn_wake[index].inbox).drain(..) {
            conns.push(ConnState {
                io: Arc::new(ConnIo {
                    stream,
                    wlock: TicketLock::new(),
                }),
                rbuf: Vec::new(),
            });
        }
    }
}

/// Reads what a readable connection has and serves every complete frame.
/// One `read` per readiness report: `poll` is level-triggered, so whatever
/// a full buffer leaves behind is reported again. Returns false when the
/// connection should be dropped.
fn service_conn(inner: &Inner, me: &mut Worker, st: u8, conn: &mut ConnState) -> bool {
    let mut tmp = [0u8; 4096];
    match (&conn.io.stream).read(&mut tmp) {
        Ok(0) => return false,
        Ok(n) => conn.rbuf.extend_from_slice(&tmp[..n]),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
            return true
        }
        Err(_) => return false,
    }
    // Decode with a cursor and compact once: draining per frame would move
    // the rest of a pipelined burst once per frame.
    let mut used = 0;
    loop {
        match proto::decode_request(&conn.rbuf[used..]) {
            Ok(None) => break,
            Ok(Some((req, n))) => {
                used += n;
                me.serve(inner, st, req, &conn.io);
            }
            // Protocol error: this peer is speaking garbage; drop it.
            Err(_) => return false,
        }
    }
    conn.rbuf.drain(..used);
    true
}

/// Control thread: admin commands, crash recovery, drain/shutdown.
fn control_loop(inner: Arc<Inner>, inbox: Receiver<ControlMsg>) {
    loop {
        if inner.cfg.watch_signals && signals::shutdown_requested() && inner.state() == RUNNING {
            do_shutdown(&inner, None);
        }
        let msg = match inbox.try_recv() {
            Ok(msg) => msg,
            Err(_) if inner.state() == STOPPED => return,
            // The signal handler can raise a flag but not wake us.
            Err(_) if inner.cfg.watch_signals => match inbox.recv_timeout(SIGNAL_POLL) {
                Ok(msg) => msg,
                Err(_) => continue,
            },
            Err(_) => inbox.recv().expect("the server holds a sender"),
        };
        match msg {
            (AdminCmd::Stats, id, io) => {
                let stats = wire_stats(&inner.store_arc());
                if let Some(io) = io {
                    io.respond(&Response::Stats { id, stats });
                }
            }
            (AdminCmd::Crash, id, io) => do_crash(&inner, id, io),
            (AdminCmd::Shutdown, id, io) => do_shutdown(&inner, io.map(|io| (id, io))),
        }
    }
}

/// Converts a [`prep_shard::StoreMetrics`] snapshot to its wire form.
fn wire_stats(store: &Arc<Store>) -> WireStats {
    let m = store.metrics();
    WireStats {
        epoch: m.epoch,
        loss_bound: m.loss_bound,
        clflush: m.stats.clflush,
        clflushopt: m.stats.clflushopt,
        sfence: m.stats.sfence,
        checkpoints: m.stats.checkpoints,
        shards: m
            .shards
            .iter()
            .map(|s| WireShard {
                completed_tail: s.completed_tail,
                durable_watermark: s.durable_watermark,
                read_slow_paths: s.read_slow_paths,
                read_fast_paths: s.read_fast_paths,
            })
            .collect(),
    }
}

/// Waits until every conn thread has given its lease up (`Worker::park`).
fn wait_all_parked(inner: &Inner) {
    let target = inner.cfg.workers();
    // ord: SeqCst — the load of the pair with `Worker::lease`'s decrement
    // (the transition's `SeqCst` store precedes it); once the count is
    // full, every conn thread has answered or downgraded what it held,
    // dropped its store handle, and can write no further ack.
    spin_until(|| inner.parked.load(Ordering::SeqCst) == target);
}

/// Simulated power failure + recovery (see module docs for the ordering
/// argument: all acks precede the cut because all conn threads park first).
fn do_crash(inner: &Arc<Inner>, id: u64, io: Option<Arc<ConnIo>>) {
    if !inner.cfg.crash_sim {
        if let Some(io) = io {
            io.respond(&Response::Err {
                id,
                code: err_code::NO_CRASH_SIM,
            });
        }
        return;
    }
    inner.set_state(CRASHING);
    wait_all_parked(inner);

    let old = locked(&inner.store)
        .take()
        .expect("store present outside crash recovery");
    let (token, image) = old.simulate_crash();
    // Recovery needs exclusive ownership: PrepUc::drop joins the old
    // persistence threads so nothing writes to the old runtime after the
    // cut. Conn threads have parked (handles dropped); transient holders
    // (stats) are bounded.
    let mut old = old;
    let mut w = Waiter::new();
    let store = loop {
        match Arc::try_unwrap(old) {
            Ok(s) => break s,
            Err(again) => {
                old = again;
                w.wait();
            }
        }
    };
    drop(store);
    let recovered = Store::recover(
        token,
        image,
        inner.assignment.clone(),
        inner.cfg.prep_config(),
        route_key,
    );
    listen_for_checkpoints(&recovered, &inner.conn_wake);
    *locked(&inner.store) = Some(Arc::new(recovered));
    // ord: monotone counter (Relaxed).
    inner.counters.crashes.fetch_add(1, Ordering::Relaxed);
    // The new store is in place before any conn thread can see `Running`
    // again and lease it.
    inner.set_state(RUNNING);
    if let Some(io) = io {
        io.respond(&Response::Done { id });
    }
}

/// Drain-and-stop: answer every request and durable ack in flight, force
/// the final checkpoints, then stop. Zero buffered-op loss.
fn do_shutdown(inner: &Arc<Inner>, reply: Option<(u64, Arc<ConnIo>)>) {
    if inner.state() != RUNNING {
        if let Some((id, io)) = reply {
            io.respond(&Response::Done { id });
        }
        return;
    }
    // Conn threads start refusing new work, and give their leases up once
    // every ack they hold is released.
    inner.set_state(DRAINING);
    wait_all_parked(inner);
    // The final forced checkpoint: after this, watermark == completedTail
    // on every shard, so a post-shutdown crash loses nothing.
    let store = inner.store_arc();
    store.quiesce_persistence();
    if let Some((id, io)) = reply {
        io.respond(&Response::Done { id });
    }
    // Every thread exits on its next look at the state.
    inner.set_state(STOPPED);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request};

    /// Minimal blocking test client.
    struct TestClient {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    impl TestClient {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            TestClient {
                stream,
                buf: Vec::new(),
            }
        }

        fn send(&mut self, req: &Request) {
            self.send_all(std::slice::from_ref(req));
        }

        /// Sends `reqs` in one write, so the server reads them together.
        fn send_all(&mut self, reqs: &[Request]) {
            let mut out = Vec::new();
            for req in reqs {
                encode_request(req, &mut out);
            }
            self.stream.write_all(&out).expect("send");
        }

        fn recv(&mut self) -> Response {
            let mut tmp = [0u8; 4096];
            loop {
                if let Some((resp, used)) = decode_response(&self.buf).expect("decode") {
                    self.buf.drain(..used);
                    return resp;
                }
                let n = self.stream.read(&mut tmp).expect("recv");
                assert!(n > 0, "server closed connection mid-response");
                self.buf.extend_from_slice(&tmp[..n]);
            }
        }

        fn roundtrip(&mut self, req: &Request) -> Response {
            self.send(req);
            self.recv()
        }
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_depth: 32,
            epsilon: 16,
            log_size: 512,
            crash_sim: true,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn get_put_delete_scan_roundtrip() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        assert_eq!(
            c.roundtrip(&Request::Get { id: 1, key: 7 }),
            Response::Value { id: 1, value: None }
        );
        assert_eq!(
            c.roundtrip(&Request::Put {
                id: 2,
                ack: AckLevel::Buffered,
                key: 7,
                value: 70
            }),
            Response::Done { id: 2 }
        );
        assert_eq!(
            c.roundtrip(&Request::Get { id: 3, key: 7 }),
            Response::Value {
                id: 3,
                value: Some(70)
            }
        );
        // Durable ack: must also come back (and survive; see crash tests).
        assert_eq!(
            c.roundtrip(&Request::Put {
                id: 4,
                ack: AckLevel::Durable,
                key: 8,
                value: 80
            }),
            Response::Done { id: 4 }
        );
        for k in 10..20u64 {
            c.roundtrip(&Request::Put {
                id: 100 + k,
                ack: AckLevel::Buffered,
                key: k,
                value: k * 2,
            });
        }
        match c.roundtrip(&Request::Scan {
            id: 5,
            start: 10,
            count: 10,
        }) {
            Response::Pairs { id: 5, pairs } => {
                assert_eq!(pairs.len(), 10);
                assert!(pairs.iter().all(|&(k, v)| v == k * 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            c.roundtrip(&Request::Delete {
                id: 6,
                ack: AckLevel::Durable,
                key: 7
            }),
            Response::Done { id: 6 }
        );
        assert_eq!(
            c.roundtrip(&Request::Get { id: 7, key: 7 }),
            Response::Value { id: 7, value: None }
        );
        let report = server.shutdown();
        assert!(report.requests >= 16);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn admin_stats_reflects_store_metrics() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        for k in 0..30u64 {
            c.roundtrip(&Request::Put {
                id: k,
                ack: AckLevel::Buffered,
                key: k,
                value: k,
            });
        }
        match c.roundtrip(&Request::Admin {
            id: 999,
            cmd: AdminCmd::Stats,
        }) {
            Response::Stats { id: 999, stats } => {
                assert_eq!(stats.epoch, 0);
                assert_eq!(stats.shards.len(), 2);
                let total: u64 = stats.shards.iter().map(|s| s.completed_tail).sum();
                assert_eq!(total, 30);
                assert!(stats.loss_bound > 0, "buffered store has a loss bound");
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn admin_stats_reports_store_wide_counters_once() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let store = server.store_handle();
        assert_eq!(store.shards(), 2);
        let mut c = TestClient::connect(server.local_addr());
        for k in 0..20u64 {
            assert_eq!(
                c.roundtrip(&Request::Put {
                    id: k,
                    ack: AckLevel::Durable,
                    key: k,
                    value: k,
                }),
                Response::Done { id: k }
            );
        }
        // With every op checkpointed, the persistence threads go quiet and
        // the counters hold still between the STATS frame and the snapshot.
        store.quiesce_persistence();
        let Response::Stats { stats, .. } = c.roundtrip(&Request::Admin {
            id: 999,
            cmd: AdminCmd::Stats,
        }) else {
            panic!("STATS expected");
        };
        let want = store.metrics().total_stats();
        assert!(want.checkpoints > 0, "durable acks need checkpoints");
        assert_eq!(
            (
                stats.checkpoints,
                stats.clflush,
                stats.clflushopt,
                stats.sfence
            ),
            (want.checkpoints, want.clflush, want.clflushopt, want.sfence),
            "STATS must carry the store-wide counters once"
        );
        drop(store);
        server.shutdown();
    }

    #[test]
    fn admin_crash_recovers_and_keeps_serving() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        // Durable-acked writes must survive the crash.
        for k in 0..10u64 {
            c.roundtrip(&Request::Put {
                id: k,
                ack: AckLevel::Durable,
                key: k,
                value: k + 1,
            });
        }
        assert_eq!(
            c.roundtrip(&Request::Admin {
                id: 77,
                cmd: AdminCmd::Crash,
            }),
            Response::Done { id: 77 }
        );
        assert_eq!(server.crash_count(), 1);
        for k in 0..10u64 {
            assert_eq!(
                c.roundtrip(&Request::Get {
                    id: 200 + k,
                    key: k
                }),
                Response::Value {
                    id: 200 + k,
                    value: Some(k + 1)
                },
                "durable-acked key {k} lost across crash"
            );
        }
        // Epoch advanced on the wire too.
        match c.roundtrip(&Request::Admin {
            id: 78,
            cmd: AdminCmd::Stats,
        }) {
            Response::Stats { stats, .. } => assert_eq!(stats.epoch, 1),
            other => panic!("unexpected {other:?}"),
        }
        // And the recovered store accepts new writes.
        assert_eq!(
            c.roundtrip(&Request::Put {
                id: 300,
                ack: AckLevel::Durable,
                key: 500,
                value: 1
            }),
            Response::Done { id: 300 }
        );
        server.shutdown();
    }

    #[test]
    fn durable_store_counts_its_durable_acks() {
        // A durable-mode store acks straight after `execute`, without the
        // watermark wait: those acks count as durable all the same.
        let cfg = ServeConfig {
            durability: DurabilityLevel::Durable,
            ..quick_cfg()
        };
        let server = Server::start(cfg, "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        for k in 0..10u64 {
            assert_eq!(
                c.roundtrip(&Request::Put {
                    id: k,
                    ack: AckLevel::Durable,
                    key: k,
                    value: k,
                }),
                Response::Done { id: k }
            );
        }
        let report = server.shutdown();
        assert_eq!(report.durable_acks, 10);
    }

    #[test]
    fn crash_without_sim_reports_error() {
        let cfg = ServeConfig {
            crash_sim: false,
            ..quick_cfg()
        };
        let server = Server::start(cfg, "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        assert_eq!(
            c.roundtrip(&Request::Admin {
                id: 1,
                cmd: AdminCmd::Crash,
            }),
            Response::Err {
                id: 1,
                code: err_code::NO_CRASH_SIM
            }
        );
        server.shutdown();
    }

    #[test]
    fn wire_shutdown_stops_the_server() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        c.roundtrip(&Request::Put {
            id: 1,
            ack: AckLevel::Buffered,
            key: 1,
            value: 1,
        });
        assert_eq!(
            c.roundtrip(&Request::Admin {
                id: 2,
                cmd: AdminCmd::Shutdown,
            }),
            Response::Done { id: 2 }
        );
        let report = server.join();
        assert_eq!(report.completed_tails, report.durable_watermarks);
    }

    #[test]
    fn full_queue_sheds_with_retry() {
        // The queue is a conn thread's held durable acks. A checkpoint's
        // fence takes 2 s, so the first durable PUT is still held when the
        // second arrives, and a cap of one sheds the second unapplied. Both
        // frames go out in one write: were PUT 2 read after PUT 1's service
        // round, the conn thread would have checkpointed PUT 1 itself
        // first, and nothing would be held when PUT 2 came.
        let cfg = ServeConfig {
            shards: 1,
            executors_per_shard: 1,
            queue_depth: 1,
            latency: LatencyModel {
                sfence_ns: 2_000_000_000,
                ..LatencyModel::off()
            },
            crash_sim: true,
            ..quick_cfg()
        };
        let server = Server::start(cfg.clone(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        let put = |id| Request::Put {
            id,
            ack: AckLevel::Durable,
            key: id,
            value: id,
        };
        c.send_all(&[put(1), put(2)]);
        assert_eq!(c.recv(), Response::Retry { id: 2 });
        assert_eq!(c.recv(), Response::Done { id: 1 });
        let report = server.shutdown();
        assert_eq!((report.retries, report.durable_acks), (1, 1));
        // The shed PUT was never applied: it is not in the quiesced store.
        let store = Arc::try_unwrap(report.store)
            .unwrap_or_else(|_| panic!("post-join store handle must be unique"));
        let (token, image) = store.simulate_crash();
        drop(store);
        let recovered = Store::recover(
            token,
            image,
            Topology::new(1, 2, 1).assign_workers(1),
            PrepConfig::new(DurabilityLevel::Buffered)
                .with_log_size(cfg.log_size)
                .with_epsilon(cfg.epsilon)
                .with_runtime(PmemRuntime::new(LatencyModel::off(), true)),
            route_key,
        );
        let t = recovered.register(0);
        let get = |key| recovered.execute(&t, MapOp::Get { key });
        assert_eq!(get(1), MapResp::Value(Some(1)));
        assert_eq!(get(2), MapResp::Value(None));
    }
}
