//! The execution engine: cooperative deterministic scheduling + the
//! C11-flavored memory model.
//!
//! Model threads are real OS threads, but exactly one runs at a time: a
//! token (the `token` field) names the thread allowed to make progress,
//! and everyone else parks on a condvar. Every instrumented operation
//! follows the same protocol:
//!
//! 1. **announce** — publish the pending op (location + read/write class)
//!    so the scheduler and the sleep-set pruner can reason about it;
//! 2. **schedule** — pick the next thread to run among all announced
//!    threads (a DFS choice point, bounded by the preemption budget and
//!    pruned by sleep sets), handing the token over if it isn't us;
//! 3. **perform** — once we hold the token again, apply the op to the
//!    store-history memory model (possibly branching again on which store
//!    a load reads).
//!
//! Because every non-token thread is parked *inside* step 2 of its own
//! next op, the scheduler always knows every thread's pending operation —
//! which is what makes sleep-set pruning and deadlock/livelock reporting
//! possible.
//!
//! Teardown discipline: engine-detected failures unwind the detecting
//! thread *while holding the state mutex* (the guard is released by the
//! unwind itself); every `lock()` is therefore poison-tolerant.

use std::collections::HashMap;
use std::panic::Location as SrcLoc;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

use crate::clock::{VClock, MAX_THREADS};
use crate::loc::{LocKind, Location, Store, STALE_BOUND};
use crate::sched::Schedule;
use crate::trace::{render, Ev, EvKind, NO_LOC};

/// Consecutive write-free steps (with at least one spin-yield in the
/// window) before the checker reports a livelock/deadlock.
const LIVELOCK_WINDOW: u64 = 64;

/// Sentinel panic payload used to unwind model threads when an execution
/// aborts (failure found elsewhere, or sleep-set prune). Raised via
/// `resume_unwind` so the panic hook stays silent.
pub(crate) struct AbortToken;

/// Why an execution failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// A test assertion (or any user panic) fired.
    Panic,
    /// A data race on peeked plain data.
    DataRace,
    /// No thread can make progress (spin livelock or join deadlock).
    Livelock,
    /// The execution exceeded the per-schedule step budget.
    StepLimit,
    /// The execution did not replay deterministically.
    Divergence,
    /// Model capacity exceeded (too many threads).
    Capacity,
}

/// A failing schedule, fully rendered.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable description (panic message, race site, …).
    pub message: String,
    /// Op-by-op rendering of the failing execution.
    pub trace: String,
    /// DFS schedule encoding; feed to [`crate::Builder::replay`].
    pub schedule: String,
}

/// Thread run states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// May be scheduled normally.
    Runnable,
    /// Spin-waiting (announced a yield, or spinning on a join): scheduled
    /// only when no runnable thread exists, until a write wakes it.
    Yielded,
    /// Done; never scheduled again.
    Finished,
}

/// An announced (pending) operation, as much as scheduling needs to know.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pend {
    /// Location the op touches, if any.
    loc: Option<u32>,
    /// Whether the op writes that location.
    writes: bool,
    /// Dependent with everything (spawn/join/start/finish).
    strong: bool,
    /// A scheduling yield (dependent with writes: they wake it).
    yields: bool,
}

impl Pend {
    fn read(loc: u32) -> Pend {
        Pend {
            loc: Some(loc),
            writes: false,
            strong: false,
            yields: false,
        }
    }
    fn write(loc: u32) -> Pend {
        Pend {
            loc: Some(loc),
            writes: true,
            strong: false,
            yields: false,
        }
    }
    fn local() -> Pend {
        Pend {
            loc: None,
            writes: false,
            strong: false,
            yields: false,
        }
    }
    fn strong() -> Pend {
        Pend {
            loc: None,
            writes: false,
            strong: true,
            yields: false,
        }
    }
    fn yielding() -> Pend {
        // Yields are dependent with *everything* (strong): a spin loop is a
        // cycle in the state space, and letting other threads sleep through
        // it re-creates the classic sleep-set "ignoring problem" — the
        // sleeping thread holds the only real progress, the spinner loops
        // alone, and the livelock detector fires a false positive.
        Pend {
            loc: None,
            writes: false,
            strong: true,
            yields: true,
        }
    }
}

/// Two pending ops are dependent iff reordering them could change the
/// execution (sleep sets may only keep *independent* ops asleep).
fn dependent(a: &Pend, b: &Pend) -> bool {
    if a.strong || b.strong {
        return true;
    }
    // Writes wake yielded spinners, so they do not commute with yields.
    if (a.yields && b.writes) || (b.yields && a.writes) {
        return true;
    }
    match (a.loc, b.loc) {
        (Some(x), Some(y)) => x == y && (a.writes || b.writes),
        _ => false,
    }
}

#[derive(Debug)]
struct Thr {
    status: Status,
    pending: Option<Pend>,
    clock: VClock,
    /// Relaxed-load acquisitions not yet ordered (merged by acquire fences).
    acq_pending: VClock,
    /// Clock snapshot at the latest release fence (future relaxed stores
    /// release at least this).
    rel_fence: VClock,
}

impl Thr {
    fn new(clock: VClock) -> Thr {
        Thr {
            status: Status::Runnable,
            pending: None,
            clock,
            acq_pending: VClock::ZERO,
            rel_fence: VClock::ZERO,
        }
    }
}

/// Per-execution (and per-check) mutable state, all under one mutex.
pub(crate) struct Exec {
    /// Thread currently allowed to run.
    token: usize,
    threads: Vec<Thr>,
    locs: Vec<Location>,
    by_addr: HashMap<usize, u32>,
    labels: HashMap<usize, &'static str>,
    /// DFS state (persists across executions of one check).
    pub(crate) sched: Schedule,
    /// Preemptions spent in this execution.
    preemptions: u32,
    /// Sleep set (bitmask over tids): provably redundant branches.
    sleep: u32,
    step: u64,
    last_write_step: u64,
    yield_seen_since_write: bool,
    /// Last spinner run by the fair rotation (see `schedule_next`).
    spin_rr: usize,
    trace: Vec<Ev>,
    failure: Option<Failure>,
    /// Execution is being torn down (failure or prune): all threads unwind.
    abort: bool,
    /// Aborted for redundancy (sleep-set prune), not failure.
    pruned: bool,
    /// All threads finished.
    complete: bool,
    live: usize,
    os_handles: Vec<std::thread::JoinHandle<()>>,
    // Budgets (copied from the Builder each run).
    max_preemptions: u32,
    max_steps: u64,
}

impl Exec {
    fn new() -> Exec {
        Exec {
            token: 0,
            threads: Vec::new(),
            locs: Vec::new(),
            by_addr: HashMap::new(),
            labels: HashMap::new(),
            sched: Schedule::default(),
            preemptions: 0,
            sleep: 0,
            step: 0,
            last_write_step: 0,
            yield_seen_since_write: false,
            spin_rr: 0,
            trace: Vec::new(),
            failure: None,
            abort: false,
            pruned: false,
            complete: false,
            live: 0,
            os_handles: Vec::new(),
            max_preemptions: 2,
            max_steps: 20_000,
        }
    }

    fn loc_names(&self) -> Vec<String> {
        self.locs.iter().map(|l| l.name.clone()).collect()
    }

    /// A write landed: reset the livelock window and wake spinners.
    fn note_write(&mut self) {
        self.last_write_step = self.step;
        self.yield_seen_since_write = false;
        for t in &mut self.threads {
            if t.status == Status::Yielded {
                t.status = Status::Runnable;
            }
        }
    }
}

pub(crate) struct Engine {
    mu: Mutex<Exec>,
    cv: Condvar,
}

static ENGINE: OnceLock<Engine> = OnceLock::new();

/// The process-wide engine (checks are serialized by `crate::CHECK_LOCK`).
pub(crate) fn engine() -> &'static Engine {
    ENGINE.get_or_init(|| Engine {
        mu: Mutex::new(Exec::new()),
        cv: Condvar::new(),
    })
}

thread_local! {
    static CUR_TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The current model-thread id, if this OS thread is participating in an
/// execution. Drives the instrumented-vs-passthrough routing in the cells.
/// A thread unwinding out of an execution (a failed assertion, or the
/// engine tearing the execution down) is no longer participating: the
/// guards it drops on the way out touch the backing cells directly, where
/// re-entering the engine would panic again inside the unwind and abort
/// the process before the counterexample is printed.
pub fn current_tid() -> Option<usize> {
    if std::thread::panicking() {
        return None;
    }
    CUR_TID.with(|c| c.get())
}

pub(crate) fn set_current_tid(t: Option<usize>) {
    CUR_TID.with(|c| c.set(t));
}

impl Engine {
    pub(crate) fn lock(&self) -> MutexGuard<'_, Exec> {
        // Poison-tolerant by design: failure teardown unwinds while the
        // guard is held (see module docs).
        self.mu.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ----- execution lifecycle (driver side) ---------------------------

    /// Resets per-execution state; the DFS schedule survives.
    pub(crate) fn begin_execution(&self, max_preemptions: u32, max_steps: u64) {
        let mut g = self.lock();
        debug_assert!(g.os_handles.is_empty(), "previous execution not joined");
        g.token = 0;
        g.threads.clear();
        g.threads.push(Thr::new(VClock::ZERO));
        g.locs.clear();
        g.by_addr.clear();
        g.labels.clear();
        g.sched.rewind();
        g.preemptions = 0;
        g.sleep = 0;
        g.step = 0;
        g.last_write_step = 0;
        g.yield_seen_since_write = false;
        g.spin_rr = 0;
        g.trace.clear();
        g.abort = false;
        g.pruned = false;
        g.complete = false;
        g.live = 1;
        g.max_preemptions = max_preemptions;
        g.max_steps = max_steps;
    }

    /// Installs or clears a replay-only schedule.
    pub(crate) fn set_schedule(&self, sched: Schedule) {
        self.lock().sched = sched;
    }

    /// Advances the DFS to the next unexplored schedule.
    pub(crate) fn advance_schedule(&self) -> bool {
        self.lock().sched.advance()
    }

    /// Waits for every model thread to finish, then reaps the OS threads.
    /// Returns (pruned, failure-if-any).
    pub(crate) fn wait_all_done(&self) -> (bool, Option<Failure>) {
        let mut g = self.lock();
        while !g.complete {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let handles = std::mem::take(&mut g.os_handles);
        let pruned = g.pruned;
        let failure = g.failure.take();
        drop(g);
        for h in handles {
            let _ = h.join();
        }
        (pruned, failure)
    }

    /// Records a user panic (assertion failure) as this execution's
    /// failure, unless the panic is the abort sentinel.
    pub(crate) fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        if payload.is::<AbortToken>() {
            return;
        }
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        let mut g = self.lock();
        if g.failure.is_none() {
            let names = g.loc_names();
            g.failure = Some(Failure {
                kind: FailureKind::Panic,
                message: msg,
                trace: render(&g.trace, &names),
                schedule: g.sched.encode(),
            });
        }
        g.abort = true;
        self.cv.notify_all();
    }

    /// Marks `tid` finished without scheduling (teardown paths). Safe to
    /// call more than once.
    pub(crate) fn force_finish(&self, tid: usize) {
        let mut g = self.lock();
        if g.threads.len() > tid && g.threads[tid].status != Status::Finished {
            g.threads[tid].status = Status::Finished;
            g.threads[tid].pending = None;
            g.live -= 1;
            if g.live == 0 {
                g.complete = true;
            }
        }
        self.cv.notify_all();
    }

    // ----- failure / teardown helpers ----------------------------------

    /// Records an engine-detected failure and unwinds the calling thread.
    /// The caller's guard is released by the unwind (module docs).
    fn fail_in(&self, g: &mut Exec, kind: FailureKind, message: String) -> ! {
        if g.failure.is_none() {
            let names = g.loc_names();
            g.failure = Some(Failure {
                kind,
                message,
                trace: render(&g.trace, &names),
                schedule: g.sched.encode(),
            });
        }
        g.abort = true;
        self.cv.notify_all();
        std::panic::resume_unwind(Box::new(AbortToken));
    }

    /// Abandons a provably redundant execution (sleep-set prune).
    fn prune_in(&self, g: &mut Exec) -> ! {
        g.pruned = true;
        g.abort = true;
        self.cv.notify_all();
        std::panic::resume_unwind(Box::new(AbortToken));
    }

    fn check_abort(&self, g: &Exec) {
        if g.abort {
            std::panic::resume_unwind(Box::new(AbortToken));
        }
    }

    fn choose(&self, g: &mut Exec, n: usize) -> usize {
        match g.sched.choose(n) {
            Ok(i) => i,
            Err(recorded) => self.fail_in(
                g,
                FailureKind::Divergence,
                format!(
                    "nondeterministic execution: a replayed choice point had arity \
                     {n} but {recorded} was recorded (is the closure reading time, \
                     randomness, or state carried across executions?)"
                ),
            ),
        }
    }

    // ----- the announce / schedule / perform protocol ------------------

    /// Parks until this thread holds the token; unwinds on abort.
    fn wait_token<'a>(&'a self, mut g: MutexGuard<'a, Exec>, tid: usize) -> MutexGuard<'a, Exec> {
        while g.token != tid && !g.abort {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        self.check_abort(&g);
        g
    }

    /// The scheduling choice point: picks which announced thread performs
    /// its pending op next, handing the token over when it isn't `me`.
    fn schedule_next(&self, g: &mut Exec, me: usize) {
        let nthreads = g.threads.len();
        let eligible: Vec<usize> = (0..nthreads)
            .filter(|&t| g.threads[t].pending.is_some() && g.threads[t].status != Status::Finished)
            .collect();
        if eligible.is_empty() {
            return; // all done; completion is handled at finish sites
        }
        let nosleep: Vec<usize> = eligible
            .iter()
            .copied()
            .filter(|&t| g.sleep & (1 << t) == 0)
            .collect();
        if nosleep.is_empty() {
            // Every enabled transition is in the sleep set: this execution
            // is a reordering of one already explored.
            self.prune_in(g);
        }
        let runnable: Vec<usize> = nosleep
            .iter()
            .copied()
            .filter(|&t| g.threads[t].status == Status::Runnable)
            .collect();
        let runnable_empty = runnable.is_empty();
        let pool = if runnable_empty { nosleep } else { runnable };
        let me_continues = pool.contains(&me) && g.threads[me].status == Status::Runnable;
        let (chosen, explored) = if runnable_empty && pool.len() > 1 {
            // Pure spin phase: every candidate is a Yielded spinner. Branching
            // the DFS here starves spinners (a schedule that keeps picking the
            // same yielder forever looks like a livelock that isn't real), and
            // the orderings don't matter anyway until somebody writes — so run
            // the spinners round-robin with no choice point, loom-style. A
            // write wakes everyone and returns control to the DFS.
            let next = pool
                .iter()
                .copied()
                .find(|&t| t > g.spin_rr)
                .unwrap_or(pool[0]);
            g.spin_rr = next;
            (next, Vec::new())
        } else {
            let mut cands = if me_continues && g.preemptions >= g.max_preemptions {
                vec![me]
            } else {
                pool
            };
            // Deterministic order: continuing the current thread is branch 0.
            cands.sort_unstable();
            if let Some(p) = cands.iter().position(|&t| t == me) {
                cands.remove(p);
                cands.insert(0, me);
            }
            let idx = self.choose(g, cands.len());
            let chosen = cands[idx];
            cands.truncate(idx);
            (chosen, cands)
        };
        if chosen != me && me_continues {
            g.preemptions += 1;
        }
        // Sleep-set update: alternatives already fully explored at this
        // node stay asleep as long as the op we now run commutes with
        // their pending op (running them later reaches the same states).
        let chosen_pend = g.threads[chosen].pending.expect("candidate has pending");
        let mut ns: u32 = 0;
        for t in 0..nthreads {
            let was_asleep = g.sleep & (1 << t) != 0;
            let newly_explored = explored.contains(&t);
            if t != chosen && (was_asleep || newly_explored) {
                if let Some(p) = g.threads[t].pending {
                    if !dependent(&p, &chosen_pend) {
                        ns |= 1 << t;
                    }
                }
            }
        }
        g.sleep = ns;
        if chosen != me {
            g.token = chosen;
            self.cv.notify_all();
        }
    }

    /// Runs one full op: announce `pend`, schedule, park if preempted,
    /// then perform `perform` while holding the token.
    fn op<R>(&self, tid: usize, pend: Pend, park: bool, perform: impl FnOnce(&mut Exec) -> R) -> R {
        let mut g = self.lock();
        self.check_abort(&g);
        debug_assert_eq!(g.token, tid, "op from a thread not holding the token");
        g.threads[tid].pending = Some(pend);
        if park {
            g.threads[tid].status = Status::Yielded;
        }
        self.schedule_next(&mut g, tid);
        if g.token != tid {
            g = self.wait_token(g, tid);
        }
        g.threads[tid].status = Status::Runnable;
        let r = perform(&mut g);
        g.threads[tid].pending = None;
        g.step += 1;
        if g.step > g.max_steps {
            let max = g.max_steps;
            self.fail_in(
                &mut g,
                FailureKind::StepLimit,
                format!(
                    "execution exceeded {max} steps (unbounded loop without \
                     instrumented progress?)"
                ),
            );
        }
        // Livelock: a window of write-free steps containing spin-yields
        // means no thread can make progress (stale reads are bounded, so
        // spinners have already seen the final values).
        if g.yield_seen_since_write && g.step - g.last_write_step > LIVELOCK_WINDOW {
            let stuck: Vec<String> = (0..g.threads.len())
                .filter(|&t| g.threads[t].status != Status::Finished)
                .map(|t| format!("t{t}"))
                .collect();
            let msg = format!(
                "no progress: threads [{}] spin without any write becoming \
                 visible (deadlock or livelock)",
                stuck.join(", ")
            );
            self.fail_in(&mut g, FailureKind::Livelock, msg);
        }
        r
    }

    // ----- location registry -------------------------------------------

    fn register(
        &self,
        g: &mut Exec,
        addr: usize,
        kind: LocKind,
        initial: u64,
        caller: &'static SrcLoc<'static>,
    ) -> u32 {
        if let Some(&i) = g.by_addr.get(&addr) {
            return i;
        }
        let i = g.locs.len() as u32;
        let name = match g.labels.remove(&addr) {
            Some(l) => l.to_string(),
            None => {
                let file = caller.file();
                let base = file.rsplit('/').next().unwrap_or(file);
                format!(
                    "{}#{}@{}:{}",
                    if kind == LocKind::Atomic { "a" } else { "p" },
                    i,
                    base,
                    caller.line()
                )
            }
        };
        g.locs.push(Location::new(name, initial));
        g.by_addr.insert(addr, i);
        i
    }

    /// Names a location for traces (before or after first access).
    pub(crate) fn label(&self, addr: usize, name: &'static str) {
        let mut g = self.lock();
        if let Some(&i) = g.by_addr.get(&addr) {
            g.locs[i as usize].name = name.to_string();
        } else {
            g.labels.insert(addr, name);
        }
    }

    /// The latest modeled value of a registered atomic (used by `get_mut`
    /// style escape hatches to sync the backing cell).
    pub(crate) fn latest_value(&self, addr: usize) -> Option<u64> {
        let g = self.lock();
        let &i = g.by_addr.get(&addr)?;
        g.locs[i as usize].stores.last().map(|s| s.value)
    }

    /// Index of the latest store to a registered peek cell (`PeekCell::
    /// get_mut` syncs its typed value from it).
    pub(crate) fn latest_peek_index(&self, addr: usize) -> Option<usize> {
        let g = self.lock();
        let &i = g.by_addr.get(&addr)?;
        Some(g.locs[i as usize].stores.len() - 1)
    }

    // ----- memory-model primitives (called while holding the token) ----

    /// Load value choice + happens-before effects. Returns (store index,
    /// value, concurrent-write-existed).
    fn do_load(&self, g: &mut Exec, tid: usize, li: u32, ord: Ordering) -> (usize, u64, bool) {
        g.threads[tid].clock.tick(tid);
        let clock = g.threads[tid].clock;
        let l = &g.locs[li as usize];
        let (hb_floor, concurrent) = l.hb_scan(&clock);
        let mut floor = hb_floor.max(l.read_floor[tid]).max(l.write_floor[tid]);
        if matches!(ord, Ordering::SeqCst) {
            if let Some(k) = l.last_sc {
                floor = floor.max(k);
            }
        }
        let newest = l.stores.len() - 1;
        if l.stale[tid] >= STALE_BOUND {
            floor = newest;
        }
        let n = newest - floor + 1;
        let c = self.choose(g, n);
        let idx = newest - c;
        let l = &mut g.locs[li as usize];
        l.stale[tid] = if idx == newest { 0 } else { l.stale[tid] + 1 };
        l.read_floor[tid] = l.read_floor[tid].max(idx);
        let value = l.stores[idx].value;
        let release = l.stores[idx].release;
        let thr = &mut g.threads[tid];
        match ord {
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst => thr.clock.join(&release),
            _ => thr.acq_pending.join(&release),
        }
        (idx, value, concurrent)
    }

    /// Appends a store; `rmw_prev_release` carries the release sequence
    /// through read-modify-writes.
    fn do_store(
        &self,
        g: &mut Exec,
        tid: usize,
        li: u32,
        value: u64,
        ord: Ordering,
        rmw_prev_release: Option<VClock>,
    ) -> usize {
        let seq = g.threads[tid].clock.tick(tid);
        let thr = &g.threads[tid];
        let mut release = match ord {
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => thr.clock,
            _ => thr.rel_fence,
        };
        if let Some(prev) = rmw_prev_release {
            release.join(&prev);
        }
        let sc = matches!(ord, Ordering::SeqCst);
        let l = &mut g.locs[li as usize];
        let idx = l.stores.len();
        l.stores.push(Store {
            value,
            writer: tid,
            writer_seq: seq,
            release,
        });
        l.read_floor[tid] = idx;
        l.write_floor[tid] = idx;
        if sc {
            l.last_sc = Some(idx);
        }
        g.note_write();
        idx
    }

    #[allow(clippy::too_many_arguments)]
    fn push_ev(
        &self,
        g: &mut Exec,
        tid: usize,
        kind: EvKind,
        loc: u32,
        ord: Option<Ordering>,
        a: u64,
        b: u64,
        racy: bool,
        caller: &'static SrcLoc<'static>,
    ) {
        let step = g.step;
        g.trace.push(Ev {
            step,
            tid,
            kind,
            loc,
            ord,
            a,
            b,
            racy,
            caller,
        });
    }

    // ----- public op surface (used by cell.rs / thread.rs / lib.rs) ----

    /// Atomic load.
    pub(crate) fn atomic_load(
        &self,
        tid: usize,
        addr: usize,
        initial: u64,
        ord: Ordering,
        caller: &'static SrcLoc<'static>,
    ) -> u64 {
        let li = {
            let mut g = self.lock();
            self.check_abort(&g);
            self.register(&mut g, addr, LocKind::Atomic, initial, caller)
        };
        self.op(tid, Pend::read(li), false, |g| {
            let (_, v, _) = self.do_load(g, tid, li, ord);
            self.push_ev(g, tid, EvKind::Load, li, Some(ord), v, 0, false, caller);
            v
        })
    }

    /// Atomic store.
    pub(crate) fn atomic_store(
        &self,
        tid: usize,
        addr: usize,
        initial: u64,
        value: u64,
        ord: Ordering,
        caller: &'static SrcLoc<'static>,
    ) {
        let li = {
            let mut g = self.lock();
            self.check_abort(&g);
            self.register(&mut g, addr, LocKind::Atomic, initial, caller)
        };
        self.op(tid, Pend::write(li), false, |g| {
            self.do_store(g, tid, li, value, ord, None);
            self.push_ev(
                g,
                tid,
                EvKind::Store,
                li,
                Some(ord),
                value,
                0,
                false,
                caller,
            );
        })
    }

    /// Atomic read-modify-write. `f` maps old value → new value; when
    /// `expected` is `Some(x)` this is a compare-exchange that only writes
    /// if the current value equals `x` (failure loads with `fail_ord`).
    /// Returns `(old, success)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_rmw(
        &self,
        tid: usize,
        addr: usize,
        initial: u64,
        f: &dyn Fn(u64) -> u64,
        expected: Option<u64>,
        ord: Ordering,
        fail_ord: Ordering,
        caller: &'static SrcLoc<'static>,
    ) -> (u64, bool) {
        let li = {
            let mut g = self.lock();
            self.check_abort(&g);
            self.register(&mut g, addr, LocKind::Atomic, initial, caller)
        };
        self.op(tid, Pend::write(li), false, |g| {
            // An RMW always reads the latest store in modification order
            // (atomicity). A failed CAS is modeled as a load of the latest
            // value — see DESIGN.md for why that approximation is sound
            // for the protocols here.
            let newest = g.locs[li as usize].stores.len() - 1;
            let old = g.locs[li as usize].stores[newest].value;
            let prev_release = g.locs[li as usize].stores[newest].release;
            if let Some(exp) = expected {
                if old != exp {
                    g.threads[tid].clock.tick(tid);
                    let l = &mut g.locs[li as usize];
                    l.read_floor[tid] = newest;
                    l.stale[tid] = 0;
                    let thr = &mut g.threads[tid];
                    match fail_ord {
                        Ordering::Acquire | Ordering::SeqCst => thr.clock.join(&prev_release),
                        _ => thr.acq_pending.join(&prev_release),
                    }
                    self.push_ev(
                        g,
                        tid,
                        EvKind::CasFail,
                        li,
                        Some(fail_ord),
                        old,
                        0,
                        false,
                        caller,
                    );
                    return (old, false);
                }
            }
            // Acquire side of the successful RMW.
            {
                let thr = &mut g.threads[tid];
                match ord {
                    Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst => {
                        thr.clock.join(&prev_release)
                    }
                    _ => thr.acq_pending.join(&prev_release),
                }
            }
            let new = f(old);
            self.do_store(g, tid, li, new, ord, Some(prev_release));
            self.push_ev(g, tid, EvKind::Rmw, li, Some(ord), old, new, false, caller);
            (old, true)
        })
    }

    /// Memory fence.
    pub(crate) fn fence(&self, tid: usize, ord: Ordering, caller: &'static SrcLoc<'static>) {
        self.op(tid, Pend::local(), false, |g| {
            let thr = &mut g.threads[tid];
            match ord {
                Ordering::Acquire => {
                    let p = thr.acq_pending;
                    thr.clock.join(&p);
                }
                Ordering::Release => thr.rel_fence = thr.clock,
                // AcqRel and SeqCst fences do both (SC-fence total-order
                // semantics are not modeled; nothing in the workspace
                // relies on them — see DESIGN.md).
                _ => {
                    let p = thr.acq_pending;
                    thr.clock.join(&p);
                    thr.rel_fence = thr.clock;
                }
            }
            self.push_ev(
                g,
                tid,
                EvKind::Fence,
                NO_LOC,
                Some(ord),
                0,
                0,
                false,
                caller,
            );
        })
    }

    /// Plain (peeked) read. `consent = true` (`read_racy`) reports the race
    /// back to the caller; `consent = false` (`read`) makes any race fatal.
    /// Returns (store index, racy).
    pub(crate) fn peek_read(
        &self,
        tid: usize,
        addr: usize,
        consent: bool,
        caller: &'static SrcLoc<'static>,
    ) -> (usize, bool) {
        let li = {
            let mut g = self.lock();
            self.check_abort(&g);
            self.register(&mut g, addr, LocKind::Peek, 0, caller)
        };
        self.op(tid, Pend::read(li), false, |g| {
            // Plain reads behave like relaxed atomic loads (value choice +
            // pending acquisition) plus race accounting.
            let (idx, _, racy) = self.do_load(g, tid, li, Ordering::Relaxed);
            self.push_ev(
                g,
                tid,
                EvKind::PeekRead,
                li,
                None,
                idx as u64,
                0,
                racy,
                caller,
            );
            if !consent {
                if racy {
                    let name = g.locs[li as usize].name.clone();
                    let msg = format!(
                        "data race: t{tid} read {name} at {}:{} while a concurrent \
                         (unordered) write exists",
                        caller.file(),
                        caller.line()
                    );
                    self.fail_in(g, FailureKind::DataRace, msg);
                }
                let seq = g.threads[tid].clock.get(tid);
                let l = &mut g.locs[li as usize];
                l.read_marks[tid] = Some(seq.max(l.read_marks[tid].unwrap_or(0)));
            }
            (idx, racy)
        })
    }

    /// Plain (peeked) write. Any unordered prior read or write is a fatal
    /// race. Returns the store index (the cell stores the typed value).
    pub(crate) fn peek_write(
        &self,
        tid: usize,
        addr: usize,
        caller: &'static SrcLoc<'static>,
    ) -> usize {
        let li = {
            let mut g = self.lock();
            self.check_abort(&g);
            self.register(&mut g, addr, LocKind::Peek, 0, caller)
        };
        self.op(tid, Pend::write(li), false, |g| {
            g.threads[tid].clock.tick(tid);
            let clock = g.threads[tid].clock;
            let l = &g.locs[li as usize];
            let (_, concurrent_store) = l.hb_scan(&clock);
            let mut racing_reader = None;
            for t in 0..MAX_THREADS {
                if t != tid {
                    if let Some(k) = l.read_marks[t] {
                        if clock.get(t) < k {
                            racing_reader = Some(t);
                        }
                    }
                }
            }
            if concurrent_store || racing_reader.is_some() {
                let name = l.name.clone();
                let what = match racing_reader {
                    Some(t) => format!("a concurrent read by t{t}"),
                    None => "a concurrent write".to_string(),
                };
                let msg = format!(
                    "data race: t{tid} wrote {name} at {}:{} racing {what}",
                    caller.file(),
                    caller.line()
                );
                self.fail_in(g, FailureKind::DataRace, msg);
            }
            let idx = self.do_store(g, tid, li, 0, Ordering::Relaxed, None);
            self.push_ev(
                g,
                tid,
                EvKind::PeekWrite,
                li,
                None,
                idx as u64,
                0,
                false,
                caller,
            );
            idx
        })
    }

    /// Cooperative yield (spin backoff): deprioritized until a write lands.
    pub(crate) fn yield_op(&self, tid: usize, caller: &'static SrcLoc<'static>) {
        self.op(tid, Pend::yielding(), true, |g| {
            g.yield_seen_since_write = true;
            self.push_ev(g, tid, EvKind::Yield, NO_LOC, None, 0, 0, false, caller);
        })
    }

    /// Spawns a model thread running `body` on a fresh OS thread; returns
    /// its tid. `body` runs with the child tid already bound.
    pub(crate) fn spawn(
        &self,
        tid: usize,
        body: Box<dyn FnOnce() + Send>,
        caller: &'static SrcLoc<'static>,
    ) -> usize {
        self.op(tid, Pend::strong(), false, |g| {
            let child = g.threads.len();
            if child >= MAX_THREADS {
                self.fail_in(
                    g,
                    FailureKind::Capacity,
                    format!("spawn would exceed MAX_THREADS ({MAX_THREADS})"),
                );
            }
            g.threads[tid].clock.tick(tid);
            let mut thr = Thr::new(g.threads[tid].clock);
            // The child is immediately schedulable at its start op.
            thr.pending = Some(Pend::strong());
            g.threads.push(thr);
            g.live += 1;
            g.note_write();
            self.push_ev(
                g,
                tid,
                EvKind::Spawn,
                NO_LOC,
                None,
                child as u64,
                0,
                false,
                caller,
            );
            let handle = std::thread::Builder::new()
                .name(format!("prep-mc-t{child}"))
                .spawn(move || {
                    set_current_tid(Some(child));
                    body();
                    set_current_tid(None);
                })
                .expect("spawn model thread");
            g.os_handles.push(handle);
            child
        })
    }

    /// First op of a spawned thread: waits to be scheduled for the first
    /// time. (Its `pending` was announced by the parent inside `spawn`.)
    pub(crate) fn start_op(&self, tid: usize, caller: &'static SrcLoc<'static>) {
        let g = self.lock();
        self.check_abort(&g);
        let mut g = self.wait_token(g, tid);
        g.threads[tid].status = Status::Runnable;
        self.push_ev(
            &mut g,
            tid,
            EvKind::Start,
            NO_LOC,
            None,
            0,
            0,
            false,
            caller,
        );
        g.threads[tid].pending = None;
        g.step += 1;
        g.note_write();
    }

    /// One join attempt: true when `target` has finished (merging its
    /// final clock — join synchronizes-with thread end). Callers loop.
    pub(crate) fn join_try(
        &self,
        tid: usize,
        target: usize,
        caller: &'static SrcLoc<'static>,
    ) -> bool {
        // Park-flavored when the target is still running: the switch away
        // from us is forced, not a preemption. (No other thread can run
        // between this check and the announce — we hold the token.)
        let parked = {
            let g = self.lock();
            self.check_abort(&g);
            g.threads[target].status != Status::Finished
        };
        self.op(tid, Pend::strong(), parked, |g| {
            if g.threads[target].status == Status::Finished {
                let tclock = g.threads[target].clock;
                g.threads[tid].clock.join(&tclock);
                g.note_write();
                self.push_ev(
                    g,
                    tid,
                    EvKind::Join,
                    NO_LOC,
                    None,
                    target as u64,
                    0,
                    false,
                    caller,
                );
                true
            } else {
                g.yield_seen_since_write = true;
                self.push_ev(g, tid, EvKind::Yield, NO_LOC, None, 0, 0, false, caller);
                false
            }
        })
    }

    /// Final op of any model thread (including the main closure).
    pub(crate) fn finish_op(&self, tid: usize, caller: &'static SrcLoc<'static>) {
        let mut g = self.lock();
        self.check_abort(&g);
        debug_assert_eq!(g.token, tid);
        g.threads[tid].pending = Some(Pend::strong());
        self.schedule_next(&mut g, tid);
        if g.token != tid {
            g = self.wait_token(g, tid);
        }
        self.push_ev(
            &mut g,
            tid,
            EvKind::Finish,
            NO_LOC,
            None,
            0,
            0,
            false,
            caller,
        );
        g.threads[tid].status = Status::Finished;
        g.threads[tid].pending = None;
        g.live -= 1;
        g.step += 1;
        g.note_write();
        if g.live == 0 {
            g.complete = true;
            self.cv.notify_all();
        } else {
            // Forced handoff: we are no longer eligible.
            self.schedule_next(&mut g, tid);
        }
    }
}
