//! Blocking on sockets: `poll(2)` and an `eventfd(2)` waker.
//!
//! The acceptor and the connection threads own file descriptors, so the
//! thing they block in has to be the kernel's: one level-triggered `poll`
//! over their sockets plus a [`Waker`], which is how every other thread (a
//! lifecycle transition, the acceptor handing over a new connection, a
//! store's persistence thread publishing the checkpoint a held durable ack
//! waits for) ends the block. The workspace vendors no `libc`, so —
//! exactly as [`crate::signals`] binds `signal` — this module binds the two
//! C symbols it needs; they are already linked through std.

use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};

/// There is data to read (or a pending connection, or EOF).
const POLLIN: i16 = 0x001;

/// `struct pollfd`, identical on every Linux ABI.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry that waits for `fd` to become readable.
    pub(crate) fn readable(fd: RawFd) -> Self {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this entry:
    /// readable, hung up or in error — each of which the owner finds out
    /// by reading.
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    /// `poll(2)`. `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    /// `eventfd(2)`.
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Blocks until at least one entry of `fds` is ready. Returns early (with
/// nothing marked ready) when a signal interrupts the call; any other
/// failure of `poll` is a bug in this module's arguments.
pub(crate) fn wait(fds: &mut [PollFd]) {
    for f in fds.iter_mut() {
        f.revents = 0;
    }
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and its length is passed as
    // `nfds`; `poll` writes only the `revents` of those entries. A
    // negative timeout blocks indefinitely.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, -1) };
    if n < 0 {
        let err = std::io::Error::last_os_error();
        assert!(
            err.kind() == ErrorKind::Interrupted,
            "poll(2) over {} descriptors failed: {err}",
            fds.len()
        );
    }
}

/// `EFD_NONBLOCK | EFD_CLOEXEC` (x86-64 and AArch64 Linux values).
const EFD_FLAGS: i32 = 0o4000 | 0o2000000;

/// Ends another thread's [`wait`]: an `eventfd`, one descriptor whose
/// 8-byte counter every wake adds to and a drain resets, in that thread's
/// poll set. It is level-triggered like the sockets beside it: readable
/// while the counter is not zero.
#[derive(Debug)]
pub(crate) struct Waker {
    fd: File,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Waker> {
        // SAFETY: `eventfd` takes no pointers; it returns a new descriptor
        // or -1.
        let fd = unsafe { eventfd(0, EFD_FLAGS) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `eventfd`, so it is open and
        // nothing else owns it.
        let fd = unsafe { File::from_raw_fd(fd) };
        Ok(Waker { fd })
    }

    /// Makes the descriptor readable. The write fails only with 2⁶⁴ − 2
    /// wake-ups pending, which is as good as one more.
    pub(crate) fn wake(&self) {
        let _ = (&self.fd).write(&1u64.to_ne_bytes());
    }

    /// The descriptor the woken thread polls.
    pub(crate) fn fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Consumes pending wake-ups (one read resets the counter). Call
    /// *before* looking at the state the wakers changed, so a wake-up sent
    /// after the look is not lost.
    pub(crate) fn drain(&self) {
        let mut count = [0u8; 8];
        let _ = (&self.fd).read(&mut count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_ends_a_wait_and_drains() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::readable(waker.fd())];
        std::thread::scope(|s| {
            s.spawn(|| waker.wake());
            wait(&mut fds);
        });
        assert!(fds[0].is_ready());
        waker.drain();
        // Level-triggered: pending wake-ups keep the descriptor ready, and
        // a drained one is quiet until the next wake.
        waker.wake();
        waker.wake();
        wait(&mut fds);
        assert!(fds[0].is_ready());
        waker.drain();
        waker.wake();
        wait(&mut fds);
        assert!(fds[0].is_ready());
    }
}
