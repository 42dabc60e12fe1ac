//! Blocking on sockets: `poll(2)` and a socket-pair waker.
//!
//! The acceptor and the connection threads own file descriptors, so the
//! thing they block in has to be the kernel's: one level-triggered `poll`
//! over their sockets plus the read end of a [`Waker`], whose write end is
//! how every other thread (a lifecycle transition, the acceptor handing
//! over a new connection) ends the block. The workspace vendors no `libc`,
//! so — exactly as [`crate::signals`] binds `signal` — this module binds
//! the one C symbol it needs; it is already linked through std.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

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

/// Ends another thread's [`wait`]: a non-blocking socket pair whose read
/// end sits in that thread's poll set.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the read end readable. A full socket buffer means thousands
    /// of wake-ups are already pending, which is as good as one more.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// The descriptor the woken thread polls.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes pending wake-ups. Call *before* looking at the state the
    /// wakers changed, so a wake-up sent after the look is not lost.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
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
