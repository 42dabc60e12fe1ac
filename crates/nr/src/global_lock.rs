//! The simplest universal construction: one copy of the sequential object
//! behind a global lock (the paper's "GL" baseline in Figure 1).

#![expect(
    clippy::disallowed_types,
    reason = "the Mutex-UC baseline is the one place a blocking std lock belongs"
)]

use std::sync::Mutex;

use prep_seqds::SequentialObject;

/// A global-lock universal construction: every operation — update or read —
/// serializes through one mutex around a single copy of the object.
///
/// ```
/// use prep_nr::GlobalLockUc;
/// use prep_seqds::stack::{Stack, StackOp, StackResp};
///
/// let uc = GlobalLockUc::new(Stack::new());
/// assert_eq!(uc.execute(StackOp::Push(3)), StackResp::Ok);
/// assert_eq!(uc.execute(StackOp::Pop), StackResp::Value(Some(3)));
/// ```
pub struct GlobalLockUc<T: SequentialObject> {
    inner: Mutex<T>,
}

impl<T: SequentialObject> GlobalLockUc<T> {
    /// Wraps `obj` behind a global lock.
    pub fn new(obj: T) -> Self {
        GlobalLockUc {
            inner: Mutex::new(obj),
        }
    }

    /// Runs `op` with linearizable semantics (trivially: total order by the
    /// lock).
    pub fn execute(&self, op: T::Op) -> T::Resp {
        let mut guard = self.inner.lock().expect("global lock poisoned");
        guard.apply(&op)
    }

    /// Observes the object under the lock (test/diagnostic API, symmetric
    /// with `NodeReplicated::with_replica`).
    pub fn with_object<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let guard = self.inner.lock().expect("global lock poisoned");
        f(&guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_seqds::recorder::{Recorder, RecorderOp, RecorderResp};
    use std::sync::Arc;

    #[test]
    fn serializes_updates_and_reads() {
        let uc = GlobalLockUc::new(Recorder::new());
        for i in 0..5u64 {
            assert_eq!(
                uc.execute(RecorderOp::Record(i)),
                RecorderResp::RecordedAt(i)
            );
        }
        assert_eq!(uc.execute(RecorderOp::Count), RecorderResp::Count(5));
    }

    #[test]
    fn concurrent_operations_are_linearizable() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 500;
        let uc = Arc::new(GlobalLockUc::new(Recorder::new()));
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let uc = Arc::clone(&uc);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        uc.execute(RecorderOp::Record((w as u64) << 32 | i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        uc.with_object(|r| {
            assert_eq!(r.count(), THREADS as u64 * PER_THREAD);
            // Per-thread FIFO.
            let mut next = [0u64; THREADS];
            for id in r.history() {
                let w = (id >> 32) as usize;
                assert_eq!(id & 0xffff_ffff, next[w]);
                next[w] += 1;
            }
        });
    }
}
