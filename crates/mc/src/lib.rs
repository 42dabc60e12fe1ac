//! prep-mc: a dependency-free, loom-style model checker for the PREP-UC
//! workspace's synchronization primitives.
//!
//! A check takes a closure over instrumented cells ([`cell`]) and threads
//! ([`thread`]) and runs it under **every** schedule a bounded exhaustive
//! search can reach: the scheduler branches at each instrumented operation
//! (which thread runs next, bounded by a preemption budget and pruned by
//! sleep sets) and at each load (which store it reads, per a C11-flavored
//! memory model with per-location store histories and vector clocks — so
//! `Relaxed` loads really can return stale values, and
//! `Acquire`/`Release`/`SeqCst`/fences actually differ).
//!
//! On a failing schedule — assertion panic, data race on peeked plain
//! data, livelock/deadlock, or step-budget blowout — the checker reports
//! an op-by-op trace plus a compact schedule string that
//! [`Builder::replay`] re-executes deterministically.
//!
//! ```
//! use prep_mc::{cell::AtomicU64, thread, Builder};
//! use std::sync::atomic::Ordering;
//! use std::sync::Arc;
//!
//! Builder::new("counter").check(|| {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = thread::spawn(move || {
//!         c2.fetch_add(1, Ordering::Relaxed);
//!     });
//!     c.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     assert_eq!(c.load(Ordering::Relaxed), 2);
//! });
//! ```
//!
//! What this checker deliberately is *not* — and the reductions it takes
//! (preemption bound, stale-read bound, no spurious CAS failure, no
//! SC-fence total order) — is documented in `DESIGN.md` under "What
//! prep-mc proves (and what it doesn't)".

#![warn(missing_docs)]
#![allow(
    unsafe_code,
    reason = "the model checker's cells share values between modelled threads through `UnsafeCell`s the engine orders"
)]
#![allow(
    clippy::disallowed_types,
    reason = "the model checker schedules its threads with std locks, off the replicated path the ban covers"
)]

mod clock;
mod engine;
mod loc;
mod sched;
mod trace;

pub mod cell;
pub mod thread;

pub use cell::label;
pub use engine::{Failure, FailureKind};

use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::Mutex;

use engine::{engine, set_current_tid};
use sched::Schedule;

/// Serializes checks process-wide: the engine is a singleton, and `cargo
/// test`'s default parallelism must not interleave two explorations.
static CHECK_LOCK: Mutex<()> = Mutex::new(());

/// Default schedule budget when neither the builder nor the
/// `PREP_MC_MAX_SCHEDULES` environment variable says otherwise.
const DEFAULT_MAX_SCHEDULES: u64 = 200_000;

/// What an exploration did.
#[derive(Debug)]
pub struct Report {
    /// Executions run (including sleep-set-pruned ones).
    pub schedules: u64,
    /// Executions abandoned as provably redundant (sleep sets).
    pub pruned: u64,
    /// True when the whole bounded schedule tree was explored (false when
    /// the schedule budget ran out first, or a failure stopped the search).
    pub complete: bool,
    /// The first failing schedule found, if any.
    pub failure: Option<Failure>,
}

/// Configures and runs one model-checking exploration.
#[derive(Clone, Debug)]
pub struct Builder {
    name: &'static str,
    max_preemptions: u32,
    max_schedules: u64,
    max_steps: u64,
    replay: Option<String>,
}

impl Builder {
    /// A builder with the default bounds (2 preemptions, 20k steps per
    /// execution, schedule budget from `PREP_MC_MAX_SCHEDULES` or 200k).
    pub fn new(name: &'static str) -> Builder {
        let max_schedules = std::env::var("PREP_MC_MAX_SCHEDULES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_MAX_SCHEDULES);
        Builder {
            name,
            max_preemptions: 2,
            max_schedules,
            max_steps: 20_000,
            replay: None,
        }
    }

    /// Caps forced context switches per execution (CHESS-style bounding:
    /// most real concurrency bugs need very few preemptions).
    pub fn max_preemptions(mut self, n: u32) -> Builder {
        self.max_preemptions = n;
        self
    }

    /// Caps the number of schedules explored.
    pub fn max_schedules(mut self, n: u64) -> Builder {
        self.max_schedules = n;
        self
    }

    /// Caps instrumented steps per execution.
    pub fn max_steps(mut self, n: u64) -> Builder {
        self.max_steps = n;
        self
    }

    /// Replays exactly one execution from a [`Failure::schedule`] string
    /// instead of exploring.
    pub fn replay(mut self, schedule: &str) -> Builder {
        self.replay = Some(schedule.to_string());
        self
    }

    /// Explores the closure and returns what happened. The closure runs
    /// once per schedule; create all cells and threads inside it.
    pub fn run<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync,
    {
        let _serial = CHECK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let e = engine();
        match &self.replay {
            Some(s) => e.set_schedule(Schedule::decode(s)),
            None => e.set_schedule(Schedule::default()),
        }
        let here = Location::caller();
        let mut schedules = 0u64;
        let mut pruned_count = 0u64;
        loop {
            e.begin_execution(self.max_preemptions, self.max_steps);
            set_current_tid(Some(0));
            let outcome = catch_unwind(AssertUnwindSafe(&f));
            match outcome {
                Ok(()) => {
                    // The main closure's final op; un-joined model threads
                    // keep running to completion after it.
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| e.finish_op(0, here))) {
                        e.record_panic(&*p);
                        e.force_finish(0);
                    }
                }
                Err(p) => {
                    e.record_panic(&*p);
                    e.force_finish(0);
                }
            }
            set_current_tid(None);
            let (pruned, failure) = e.wait_all_done();
            schedules += 1;
            if pruned {
                pruned_count += 1;
            }
            if failure.is_some() {
                return Report {
                    schedules,
                    pruned: pruned_count,
                    complete: false,
                    failure,
                };
            }
            if self.replay.is_some() {
                return Report {
                    schedules,
                    pruned: pruned_count,
                    complete: true,
                    failure: None,
                };
            }
            if schedules >= self.max_schedules {
                return Report {
                    schedules,
                    pruned: pruned_count,
                    complete: false,
                    failure: None,
                };
            }
            if !e.advance_schedule() {
                return Report {
                    schedules,
                    pruned: pruned_count,
                    complete: true,
                    failure: None,
                };
            }
        }
    }

    /// Explores the closure and panics with a rendered counterexample on
    /// the first failing schedule. An incomplete (budget-capped) clean
    /// exploration passes — the bound is part of the claim being checked.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync,
    {
        let r = self.run(f);
        if let Some(fail) = r.failure {
            panic!(
                "prep-mc check '{}' failed after {} schedule(s)\n\
                 kind: {:?}\n\
                 {}\n\
                 replay schedule: \"{}\"\n\
                 trace:\n{}",
                self.name, r.schedules, fail.kind, fail.message, fail.schedule, fail.trace
            );
        }
    }
}
