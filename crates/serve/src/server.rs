//! The thread-per-core TCP server over [`prep_shard::ShardedStore`].
//!
//! ## Request pipeline: aligning arrivals with combiner batches
//!
//! ```text
//! acceptor ─▶ conn threads ─▶ per-shard submission queue ─▶ β executors ─▶ NR combiner
//!                 │                (bounded, RETRY)             │  (a durable ack is held
//!                 │                                             │   until the watermark
//!                 │                                             │   covers its op)
//!                 └◀──────────────── responses ◀────────────────┘
//! ```
//!
//! Connection threads never touch the store: they parse frames and push
//! jobs into the target shard's **bounded submission queue**. Each shard
//! owns β executor threads (β = [`ServeConfig::executors_per_shard`]), all
//! registered NR workers of that shard; when a burst of requests lands on
//! one shard, up to β of them are in `execute` simultaneously, and NR's
//! flat combiner folds those β concurrent ops into **one combine round**
//! (one log reservation, one batch persist in durable mode). The queue is
//! what aligns open-loop arrivals — which know nothing of batches — with
//! combiner batch boundaries: arrivals coalesce in the queue while the
//! previous round runs, instead of each arrival paying a full round alone.
//!
//! When a queue is full the connection thread answers with a `RETRY` frame
//! immediately — explicit backpressure, never unbounded buffering, so an
//! overloaded shard sheds load at the wire instead of growing latency
//! without bound.
//!
//! ## Hand-offs: who blocks where, and who wakes whom
//!
//! No thread polls. A thread with nothing to do blocks — the ones that own
//! sockets in one `poll(2)` over them plus a [`Waker`] ([`crate::poll`]),
//! the others parked on a [`WakeSlot`] of their own — and whoever gives it
//! work ends the block, so a request crosses the server in wake-ups, not
//! in sleep quanta, and an idle server uses no CPU.
//!
//! | thread | blocks in | woken by |
//! |---|---|---|
//! | acceptor | `poll`: listener + waker | a connecting client; every lifecycle transition |
//! | conn thread | `poll`: its sockets + waker | request bytes; the acceptor (new connection); every transition |
//! | executor | its slot, while the shard queue is empty and it holds no durable ack; its own watermark slot on the shard ([`prep_uc::PrepUc::wait_watermark`]), while the queue is empty and the oldest ack it holds is not covered | the conn thread's push — it wakes **one** idle executor per job, so a lone request costs one wake-up and a burst spreads over β, and only if none is idle the shard's watermark waiters; the persistence thread, after each published checkpoint; every transition (both slots) |
//! | control | its slot, while no admin command is queued | `dispatch` (admin frame), [`Server::request_shutdown`] |
//! | [`Server::join`] | its slot | the transition to stopped |
//!
//! Every slot hand-off is the store→load pair [`WakeSlot`] documents: the
//! waker publishes the work with a `SeqCst` RMW or store (a queue's length
//! mirror, the watermark, `state`) and then looks for an idle owner; the
//! owner announces itself idle and then re-checks the same variables with
//! `SeqCst` loads. The lifecycle `state` is stored in one place,
//! `Inner::set_state`, which then wakes every slot and waker there is —
//! transitions are rare, and a thread woken for nothing re-checks and
//! blocks again. A control thread that watches the process signal flag
//! ([`ServeConfig::watch_signals`]) bounds its block by 50 ms instead: a
//! signal handler may store to an atomic but not `unpark`.
//!
//! What is left to [`Waiter`] is what is rare and short: a contended
//! queue lock, a full socket buffer in `ConnIo::send`, the acceptor's
//! back-off when `accept` fails for lack of descriptors, and the control
//! thread's barriers in crash and drain (every executor parked; queues
//! empty).
//!
//! ## Ack release points
//!
//! Every ack is written by the executor that ran the op. A *buffered* ack
//! goes out as soon as `execute` returns (the op is applied, volatile). For
//! a *durable* ack the executor reads the `completedTail` that covers the
//! op, asks for the covering checkpoint now
//! ([`prep_uc::PrepUc::nudge_checkpoint`]: the natural one is up to ε ops
//! away), and holds the ack until the shard's crash-survivability
//! watermark ([`prep_uc::PrepUc::durable_watermark`]) passes that tail —
//! i.e. until the checkpoint has actually reached NVM. The persist wait
//! belongs to the op: no other thread takes the ack over, so a durable ack
//! costs the wake-ups conn → executor → persistence → executor. Holding
//! acks does not stop an executor: it keeps taking queued jobs, releases
//! the held acks each checkpoint covers as it goes, and parks on its own
//! watermark slot only once the queue is empty. A job that arrives while
//! every executor of the shard is so parked wakes them (no idle executor
//! took it), so GETs do not queue behind checkpoints, and one checkpoint
//! releases every ack it covers, however many that is — β bounds combine
//! rounds, not acks in flight. (On a durable-mode store `execute` has
//! already waited out the persist, and the ack goes out at once.) The
//! store checkpoints incrementally
//! ([`prep_uc::FlushStrategy::DirtyLines`]): a checkpoint taken for one
//! ack flushes the few lines that op dirtied, where the paper's whole-cache
//! `WBINVD` costs the same half millisecond however little changed.
//!
//! ## Crash and shutdown choreography
//!
//! `ADMIN CRASH` (crash-sim servers): the control thread moves the server
//! to `Crashing`; connection threads answer `RETRY`, and executors park —
//! an executor holding durable acks first **downgrades each to `RETRY`**
//! (the op may or may not survive the cut, so it must not be
//! acked `Done`; but unlike a real power failure the TCP connection
//! survives the simulated one, so silence would wedge clients — `RETRY`
//! claims nothing and keeps the one-response-per-frame invariant).
//! Only after every executor has parked is the cut captured, so every ack
//! that reached a client precedes the cut: durable-acked ops are always in
//! the recovered image, and buffered-acked loss stays within the store's
//! `N·(ε + β − 1)` bound. The store is rebuilt via
//! [`prep_shard::ShardedStore::recover`] on a fresh runtime, the
//! generation counter bumps, and workers re-register on the new store.
//!
//! `ADMIN SHUTDOWN` / SIGTERM: `Draining` — connection threads reject new
//! work, executors empty the queues and release every durable ack they
//! hold, the store is quiesced
//! ([`prep_shard::ShardedStore::quiesce_persistence`], the final forced
//! checkpoint), and only then does the server stop: a clean shutdown
//! loses **zero** buffered ops, versus up to the bound on a crash.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
use prep_shard::{shard_index, ShardToken, ShardedStore};
use prep_sync::{spin_until, TicketLock, TryLock, TryLockGuard, Waiter, WakeSlot};
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
    /// Executor threads per shard — the β of the combiner-batch alignment:
    /// up to this many queued ops enter one combine round together.
    pub executors_per_shard: usize,
    /// Connection-handling threads (the "cores" of thread-per-core).
    pub conn_threads: usize,
    /// Per-shard submission-queue bound; a full queue answers `RETRY`.
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
            conn_threads: 2,
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
    /// Total executor workers (the store's registered worker count).
    fn workers(&self) -> usize {
        self.shards * self.executors_per_shard
    }

    /// A fresh [`PrepConfig`] (fresh runtime) for construction or recovery.
    ///
    /// The server's checkpoints are on the ack path — a durable ack waits
    /// for the one its executor asked for — so they are incremental; the
    /// library default (`WBINVD`, the paper's) stays what it is.
    fn prep_config(&self) -> PrepConfig {
        PrepConfig::new(self.durability)
            .with_log_size(self.log_size)
            .with_epsilon(self.epsilon)
            .with_runtime(PmemRuntime::new(self.latency, self.crash_sim))
            .with_fairness(self.fairness)
            .with_flush_strategy(FlushStrategy::DirtyLines)
    }
}

/// Spin-acquires a `TryLock` (none of these sections block or do IO,
/// except `ConnIo::send` which has its own ticket lock).
fn locked<T>(l: &TryLock<T>) -> TryLockGuard<'_, T> {
    let mut w = Waiter::new();
    loop {
        if let Some(g) = l.try_lock() {
            return g;
        }
        w.wait();
    }
}

/// A spin-locked FIFO with a length mirror. The mirror is what a parked
/// consumer re-checks and what a producer publishes before it looks for an
/// idle consumer, so every access to it is `SeqCst` (see [`WakeSlot`]).
struct Mailbox<T> {
    queue: TryLock<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            queue: TryLock::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        // ord: SeqCst — the load of a consumer's announce → re-check pair
        // (elsewhere a stale reading only sheds or skips one early).
        self.len.load(Ordering::SeqCst)
    }

    /// Appends `item` unless `bound` items are queued already.
    fn push(&self, item: T, bound: usize) -> Result<(), T> {
        // Lock-free full check first; rechecked under the lock.
        if self.len() >= bound {
            return Err(item);
        }
        let mut q = locked(&self.queue);
        if q.len() >= bound {
            return Err(item);
        }
        q.push_back(item);
        // ord: SeqCst — publishes the item before the producer's look at
        // the consumer's idle flag (the store of its store→load pair), and
        // keeps the mirror exact under concurrent push/pop.
        self.len.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        if self.len() == 0 {
            return None;
        }
        let item = locked(&self.queue).pop_front();
        if item.is_some() {
            // ord: SeqCst, symmetric with `push`.
            self.len.fetch_sub(1, Ordering::SeqCst);
        }
        item
    }
}

thread_local! {
    /// The calling thread's response-encoding buffer, reused across
    /// [`ConnIo::respond`] calls so a response allocates nothing.
    static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// One connection's shared write half: its conn thread, executors, and
/// the control thread all write complete frames under the per-connection
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

/// What an executor does with a parsed data request.
enum JobKind {
    Get { key: u64 },
    Put { key: u64, value: u64 },
    Delete { key: u64 },
    Scan { start: u64, count: u32 },
}

/// A queued unit of work for one shard's executors.
struct Job {
    id: u64,
    ack: AckLevel,
    kind: JobKind,
    conn: Arc<ConnIo>,
}

/// One shard's request pipeline.
struct Pipeline {
    /// Bounded submission queue (the combiner-batch coalescing point).
    queue: Mailbox<Job>,
    /// Where each of the shard's executors parks while `queue` is empty.
    exec_wake: Vec<WakeSlot>,
    /// Executors currently at work, from before the pop until every ack
    /// they hold is on the wire (drain barrier).
    busy: AtomicUsize,
}

impl Pipeline {
    fn new(executors: usize) -> Self {
        Pipeline {
            queue: Mailbox::new(),
            exec_wake: (0..executors).map(|_| WakeSlot::new()).collect(),
            busy: AtomicUsize::new(0),
        }
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
    /// Bumped on every crash-recovery; workers re-register when it moves.
    generation: AtomicU64,
    /// The current store. `None` only transiently inside crash recovery.
    store: TryLock<Option<Arc<Store>>>,
    pipelines: Vec<Pipeline>,
    /// Admin commands routed to the control thread, and where it parks.
    control: Mailbox<ControlMsg>,
    control_wake: WakeSlot,
    /// Where [`Server::join`] parks until the server has stopped.
    join_wake: WakeSlot,
    /// Ends the acceptor's `poll`.
    accept_waker: Waker,
    /// Per-connection-thread inbox of freshly accepted sockets, and what
    /// ends that thread's `poll`.
    conn_inbox: Vec<TryLock<Vec<TcpStream>>>,
    conn_wakers: Vec<Waker>,
    /// Executors currently parked for a crash.
    parked: AtomicUsize,
    counters: Counters,
}

impl Inner {
    #[inline]
    fn state(&self) -> u8 {
        // ord: SeqCst — observing a transition implies the decision that
        // caused it (as Acquire would), and it is the load every parked
        // thread re-checks with after announcing itself idle.
        self.state.load(Ordering::SeqCst)
    }

    /// Moves the lifecycle on and wakes every thread that may be blocked:
    /// each of them has `state` in the condition it re-checks.
    fn set_state(&self, state: u8) {
        // ord: SeqCst — publishes everything decided before the transition
        // (as Release would), and is the store of the store→load pair with
        // every slot's idle flag below.
        self.state.store(state, Ordering::SeqCst);
        for pl in &self.pipelines {
            for slot in &pl.exec_wake {
                slot.wake();
            }
        }
        // An executor holding durable acks may be parked on its shard's
        // watermark.
        let store = locked(&self.store).clone();
        if let Some(store) = store {
            for shard in 0..self.cfg.shards {
                store.shard(shard).wake_watermark_waiters();
            }
        }
        self.join_wake.wake();
        self.accept_waker.wake();
        for waker in &self.conn_wakers {
            waker.wake();
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

    /// Queues an admin command for the control thread.
    fn submit_control(&self, msg: ControlMsg) {
        let queued = self.control.push(msg, usize::MAX);
        debug_assert!(queued.is_ok(), "the control queue is unbounded");
        self.control_wake.wake();
    }

    /// Answers request `id` with `RETRY`; every one is counted here.
    fn retry(&self, io: &ConnIo, id: u64) {
        // ord: monotone counter (Relaxed).
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        io.respond(&Response::Retry { id });
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
        assert!(cfg.executors_per_shard > 0, "need at least one executor");
        assert!(cfg.conn_threads > 0, "need at least one conn thread");
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let workers = cfg.workers();
        // One extra core: the topology reserves a CPU for the persistence
        // thread, so `workers` registered workers need `workers + 1` cores.
        let assignment = Topology::new(1, workers + 1, 1).assign_workers(workers);
        let store = Arc::new(Store::new(
            HashMap::new(),
            cfg.shards,
            assignment.clone(),
            cfg.prep_config(),
            route_key,
        ));
        let inner = Arc::new(Inner {
            assignment,
            state: AtomicU8::new(RUNNING),
            generation: AtomicU64::new(0),
            store: TryLock::new(Some(store)),
            pipelines: (0..cfg.shards)
                .map(|_| Pipeline::new(cfg.executors_per_shard))
                .collect(),
            control: Mailbox::new(),
            control_wake: WakeSlot::new(),
            join_wake: WakeSlot::new(),
            accept_waker: Waker::new()?,
            conn_inbox: (0..cfg.conn_threads)
                .map(|_| TryLock::new(Vec::new()))
                .collect(),
            conn_wakers: (0..cfg.conn_threads)
                .map(|_| Waker::new())
                .collect::<std::io::Result<_>>()?,
            parked: AtomicUsize::new(0),
            counters: Counters::default(),
            cfg,
        });

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || acceptor_loop(inner, listener))
                    .expect("spawn acceptor"),
            );
        }
        for c in 0..inner.cfg.conn_threads {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-conn-{c}"))
                    .spawn(move || conn_loop(inner, c))
                    .expect("spawn conn thread"),
            );
        }
        for s in 0..inner.cfg.shards {
            for e in 0..inner.cfg.executors_per_shard {
                let inner = Arc::clone(&inner);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("serve-exec-{s}-{e}"))
                        .spawn(move || executor_loop(inner, s, e))
                        .expect("spawn executor"),
                );
            }
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-control".into())
                    .spawn(move || control_loop(inner))
                    .expect("spawn control"),
            );
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
        self.inner.submit_control((AdminCmd::Shutdown, 0, None));
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
    /// `ADMIN SHUTDOWN`, or a watched signal), then joins every thread and
    /// reports.
    pub fn join(self) -> ShutdownReport {
        self.inner
            .join_wake
            .wait_until(|| self.inner.state() == STOPPED);
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
                    let target = next % inner.cfg.conn_threads;
                    locked(&inner.conn_inbox[target]).push(stream);
                    inner.conn_wakers[target].wake();
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

/// Connection thread: owns a set of connections, reads frames, dispatches.
fn conn_loop(inner: Arc<Inner>, index: usize) {
    let waker = &inner.conn_wakers[index];
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
        let st = inner.state();
        if st == STOPPED {
            for c in &conns {
                let _ = c.io.stream.shutdown(NetShutdown::Both);
            }
            return;
        }
        let mut ready = fds[1..].iter().map(PollFd::is_ready);
        conns.retain_mut(|conn| {
            !ready.next().expect("one poll entry per connection") || service_conn(&inner, st, conn)
        });
        for stream in locked(&inner.conn_inbox[index]).drain(..) {
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

/// Reads what a readable connection has and dispatches every complete
/// frame. One `read` per readiness report: `poll` is level-triggered, so
/// whatever a full buffer leaves behind is reported again. Returns false
/// when the connection should be dropped.
fn service_conn(inner: &Arc<Inner>, st: u8, conn: &mut ConnState) -> bool {
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
                dispatch(inner, st, req, &conn.io);
            }
            // Protocol error: this peer is speaking garbage; drop it.
            Err(_) => return false,
        }
    }
    conn.rbuf.drain(..used);
    true
}

/// Routes one parsed request: admin → control queue, data → shard queue.
fn dispatch(inner: &Arc<Inner>, st: u8, req: Request, io: &Arc<ConnIo>) {
    // ord: monotone counter (Relaxed).
    inner.counters.requests.fetch_add(1, Ordering::Relaxed);
    let id = req.id();
    let (shard, job) = match req {
        Request::Admin { id, cmd } => {
            inner.submit_control((cmd, id, Some(Arc::clone(io))));
            return;
        }
        Request::Get { id, key } => (
            shard_index(key, inner.cfg.shards),
            Job {
                id,
                ack: AckLevel::Buffered,
                kind: JobKind::Get { key },
                conn: Arc::clone(io),
            },
        ),
        Request::Put {
            id,
            ack,
            key,
            value,
        } => (
            shard_index(key, inner.cfg.shards),
            Job {
                id,
                ack,
                kind: JobKind::Put { key, value },
                conn: Arc::clone(io),
            },
        ),
        Request::Delete { id, ack, key } => (
            shard_index(key, inner.cfg.shards),
            Job {
                id,
                ack,
                kind: JobKind::Delete { key },
                conn: Arc::clone(io),
            },
        ),
        Request::Scan { id, start, count } => (
            shard_index(start, inner.cfg.shards),
            Job {
                id,
                ack: AckLevel::Buffered,
                kind: JobKind::Scan { start, count },
                conn: Arc::clone(io),
            },
        ),
    };
    match st {
        RUNNING => {}
        // The crash window looks like transient overload from outside:
        // clients retry and succeed after recovery.
        CRASHING => {
            inner.retry(io, id);
            return;
        }
        _ => {
            io.respond(&Response::Err {
                id,
                code: err_code::SHUTTING_DOWN,
            });
            return;
        }
    }
    let pl = &inner.pipelines[shard];
    if pl.queue.push(job, inner.cfg.queue_depth).is_err() {
        inner.retry(io, id);
        return;
    }
    // One job, one wake-up: the first idle executor takes it. If none is
    // idle, each of them looks at the queue again before it parks, and one
    // that waits on a checkpoint with acks held is woken to take the job
    // meanwhile.
    if !pl.exec_wake.iter().any(WakeSlot::wake) {
        if let Some(store) = locked(&inner.store).as_ref() {
            store.shard(shard).wake_watermark_waiters();
        }
    }
}

/// Why an executor left its per-generation loop.
enum After {
    Exit,
    Park,
}

/// Executor thread: registered NR worker `executor` of `shard`, popping the
/// submission queue. β of these per shard is the combiner-batch alignment.
fn executor_loop(inner: Arc<Inner>, shard: usize, executor: usize) {
    let worker = shard * inner.cfg.executors_per_shard + executor;
    let slot = &inner.pipelines[shard].exec_wake[executor];
    loop {
        // ord: Acquire pairs with the control thread's generation bump
        // Release after recovery installs the new store.
        let gen = inner.generation.load(Ordering::Acquire);
        let store = inner.store_arc();
        let token = store.register(worker);
        let after = executor_generation(&inner, &store, &token, shard, slot);
        drop(token);
        drop(store);
        match after {
            After::Exit => return,
            After::Park => {
                if !park(&inner, gen, slot) {
                    return;
                }
            }
        }
    }
}

/// Parks on `slot` until recovery publishes a new generation. Returns
/// false when the server stopped instead.
fn park(inner: &Arc<Inner>, gen: u64, slot: &WakeSlot) -> bool {
    // ord: AcqRel — the Release half publishes this executor's dropped
    // store handle to the control thread's parked-count Acquire spin.
    inner.parked.fetch_add(1, Ordering::AcqRel);
    let mut resume = false;
    slot.wait_until(|| match inner.state() {
        STOPPED => true,
        // ord: Acquire pairs with recovery's generation-bump Release.
        RUNNING if inner.generation.load(Ordering::Acquire) != gen => {
            resume = true;
            true
        }
        _ => false,
    });
    // ord: AcqRel, symmetric with the increment above.
    inner.parked.fetch_sub(1, Ordering::AcqRel);
    resume
}

/// Durable acks one executor owes, oldest first, each with the
/// `completedTail` that covers its op. Covers only grow, so the acks a
/// checkpoint covers are a prefix.
type Held = VecDeque<(u64, Job)>;

/// Executes jobs for one store generation.
fn executor_generation(
    inner: &Arc<Inner>,
    store: &Arc<Store>,
    token: &ShardToken,
    shard: usize,
    slot: &WakeSlot,
) -> After {
    let pl = &inner.pipelines[shard];
    let sh = store.shard(shard);
    let mut held = Held::new();
    loop {
        match inner.state() {
            CRASHING => return After::Park,
            STOPPED => return After::Exit,
            // RUNNING pops and executes; DRAINING keeps popping until the
            // queue is empty (the control thread waits on len+busy before
            // quiescing), then idles until STOPPED.
            _ => {}
        }
        // busy is raised *before* the pop and lowered once every ack this
        // executor owes is on the wire, so `len == 0 && busy == 0` is a
        // true drain barrier (no job or ack can be in flight unobserved).
        // ord: AcqRel pairs with the control thread's drain-barrier
        // Acquire reads.
        pl.busy.fetch_add(1, Ordering::AcqRel);
        loop {
            if let Some(job) = pl.queue.pop() {
                if let Some(job) = execute_job(inner, store, token, job) {
                    // The op completed on this shard, so the shard's current
                    // completedTail covers its log index. The natural
                    // checkpoint is up to ε ops away: ask for one now.
                    held.push_back((sh.completed_tail(), job));
                    sh.nudge_checkpoint();
                }
            } else if let Some(&(cover, _)) = held.front() {
                // Nothing queued: wait for the checkpoint, or for a job to
                // take meanwhile.
                sh.wait_watermark(token.on(shard), || {
                    sh.durable_watermark() >= cover
                        || pl.queue.len() > 0
                        || inner.state() == CRASHING
                });
            } else {
                break;
            }
            if inner.state() == CRASHING {
                // These ops may or may not survive the cut, so they must
                // not be acked `Done`; silence would wedge the clients,
                // whose connections outlive the simulated power failure.
                for (_, job) in held.drain(..) {
                    inner.retry(&job.conn, job.id);
                }
                break;
            }
            if !held.is_empty() {
                let watermark = sh.durable_watermark();
                let covered = held.iter().take_while(|(c, _)| *c <= watermark).count();
                for (_, job) in held.drain(..covered) {
                    ack_done(inner, &job);
                }
            }
        }
        // ord: AcqRel, symmetric with the raise above.
        pl.busy.fetch_sub(1, Ordering::AcqRel);
        slot.wait_until(|| pl.queue.len() > 0 || matches!(inner.state(), CRASHING | STOPPED));
    }
}

/// Runs one job on the store and answers it, except a durable update on a
/// buffered store: that one is handed back, for the executor to hold until
/// the checkpoint that covers it lands. (On a durable-mode store `execute`
/// has already waited out the persist.)
fn execute_job(inner: &Inner, store: &Store, token: &ShardToken, job: Job) -> Option<Job> {
    let op = match job.kind {
        JobKind::Get { key } => {
            let value = match store.execute(token, MapOp::Get { key }) {
                MapResp::Value(v) => v,
                _ => None,
            };
            job.conn.respond(&Response::Value { id: job.id, value });
            return None;
        }
        JobKind::Scan { start, count } => {
            let mut pairs = Vec::new();
            for key in start..start.saturating_add(count as u64) {
                if let MapResp::Value(Some(v)) = store.execute(token, MapOp::Get { key }) {
                    pairs.push((key, v));
                }
            }
            job.conn.respond(&Response::Pairs { id: job.id, pairs });
            return None;
        }
        JobKind::Put { key, value } => MapOp::Insert { key, value },
        JobKind::Delete { key } => MapOp::Remove { key },
    };
    store.execute(token, op);
    if job.ack == AckLevel::Durable && inner.cfg.durability == DurabilityLevel::Buffered {
        return Some(job);
    }
    ack_done(inner, &job);
    None
}

/// Answers an update `Done`; every durable ack is counted here.
fn ack_done(inner: &Inner, job: &Job) {
    job.conn.respond(&Response::Done { id: job.id });
    if job.ack == AckLevel::Durable {
        // ord: monotone counter (Relaxed).
        inner.counters.durable_acks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Control thread: admin commands, crash recovery, drain/shutdown.
fn control_loop(inner: Arc<Inner>) {
    loop {
        if inner.cfg.watch_signals && signals::shutdown_requested() && inner.state() == RUNNING {
            do_shutdown(&inner, None);
        }
        match inner.control.pop() {
            Some((AdminCmd::Stats, id, io)) => {
                let stats = wire_stats(&inner.store_arc());
                if let Some(io) = io {
                    io.respond(&Response::Stats { id, stats });
                }
            }
            Some((AdminCmd::Crash, id, io)) => do_crash(&inner, id, io),
            Some((AdminCmd::Shutdown, id, io)) => do_shutdown(&inner, io.map(|io| (id, io))),
            None => {
                if inner.state() == STOPPED {
                    return;
                }
                let queued = || inner.control.len() > 0;
                if inner.cfg.watch_signals {
                    // The signal handler can raise a flag but not wake us.
                    inner.control_wake.wait_until_or(queued, SIGNAL_POLL);
                } else {
                    inner.control_wake.wait_until(queued);
                }
            }
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

/// Simulated power failure + recovery (see module docs for the ordering
/// argument: all acks precede the cut because all workers park first).
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
    let target = inner.cfg.workers();
    // ord: Acquire pairs with park()'s AcqRel — once the count reaches the
    // target, every executor has answered the job it held, dropped its
    // store handle, and can write no further ack.
    spin_until(|| inner.parked.load(Ordering::Acquire) == target);

    let old = locked(&inner.store)
        .take()
        .expect("store present outside crash recovery");
    let (token, image) = old.simulate_crash();
    // Recovery needs exclusive ownership: PrepUc::drop joins the old
    // persistence threads so nothing writes to the old runtime after the
    // cut. Executors have parked (handles dropped); transient holders
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
    *locked(&inner.store) = Some(Arc::new(recovered));
    // ord: monotone counter (Relaxed).
    inner.counters.crashes.fetch_add(1, Ordering::Relaxed);
    // ord: Release publishes the new store before workers' generation
    // Acquire lets them re-register.
    inner.generation.fetch_add(1, Ordering::AcqRel);
    inner.set_state(RUNNING);
    if let Some(io) = io {
        io.respond(&Response::Done { id });
    }
}

/// Drain-and-stop: empty every queue and answer every job, durable acks
/// included, force the final checkpoints, then stop. Zero buffered-op loss.
fn do_shutdown(inner: &Arc<Inner>, reply: Option<(u64, Arc<ConnIo>)>) {
    if inner.state() != RUNNING {
        if let Some((id, io)) = reply {
            io.respond(&Response::Done { id });
        }
        return;
    }
    // Conn threads start shedding new work.
    inner.set_state(DRAINING);
    for pl in &inner.pipelines {
        // ord: Acquire pairs with the executors' AcqRel updates; both zero
        // with no new pushes possible means the queue is truly drained and
        // every accepted job answered.
        spin_until(|| pl.queue.len() == 0 && pl.busy.load(Ordering::Acquire) == 0);
    }
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
            let mut out = Vec::new();
            encode_request(req, &mut out);
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
            executors_per_shard: 2,
            conn_threads: 1,
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
        // One executor, depth-1 queues: park the executors with a slow
        // first op? Ops are fast, so instead flood a pipeline faster than
        // one waiter check by writing many frames in one syscall.
        let cfg = ServeConfig {
            shards: 1,
            executors_per_shard: 1,
            queue_depth: 1,
            crash_sim: false,
            ..quick_cfg()
        };
        let server = Server::start(cfg, "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        let mut out = Vec::new();
        const N: u64 = 400;
        for i in 0..N {
            encode_request(
                &Request::Put {
                    id: i,
                    ack: AckLevel::Buffered,
                    key: i,
                    value: i,
                },
                &mut out,
            );
        }
        c.stream.write_all(&out).unwrap();
        let mut done = 0u64;
        let mut retries = 0u64;
        for _ in 0..N {
            match c.recv() {
                Response::Done { .. } => done += 1,
                Response::Retry { .. } => retries += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(done + retries, N);
        assert!(done > 0, "some requests must get through");
        let report = server.shutdown();
        // The server-side retry counter matches what the wire saw.
        assert_eq!(report.retries, retries);
    }
}
