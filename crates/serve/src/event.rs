//! What other threads and signals use to reach the serving event loop:
//! a [`Waker`] that interrupts its readiness wait, and the `SIGHUP` flag
//! that asks for a live corpus reload.
//!
//! The readiness wait itself is [`gittables_sys::PollSet`] — `poll(2)`,
//! the same on every unix — and everything here is `std` on top of it.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};

use gittables_sys::{raise_flag_on, Signal};

/// Cross-thread wake-up for a [`gittables_sys::PollSet`] wait: a
/// non-blocking socket pair whose read end sits in the set.
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// Creates the socket pair.
    ///
    /// # Errors
    /// The raw `socketpair`/`fcntl` error (e.g. fd limits).
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The descriptor to push into the waiting thread's set; it turns
    /// readable on [`Waker::wake`] and stays so until [`Waker::drain`].
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Interrupts a concurrent (or the next) wait.
    pub fn wake(&self) {
        // A full socket buffer (`WouldBlock`) means wake-ups are already
        // pending, which is all this call promises.
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes pending wake-ups so the level-triggered fd goes quiet.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

// ------------------------------------------------------------------ SIGHUP

/// Set by the `SIGHUP` handler; polled (and cleared) by the server's
/// reload watcher.
static HUP_PENDING: AtomicBool = AtomicBool::new(false);

/// Installs the `SIGHUP` → reload-flag handler (idempotent).
pub fn install_sighup_handler() {
    raise_flag_on(Signal::Hup, &HUP_PENDING);
}

/// Consumes a pending `SIGHUP`, reporting whether one had arrived since
/// the last call.
#[must_use]
pub fn take_sighup() -> bool {
    HUP_PENDING.swap(false, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_sys::PollSet;
    use std::time::Duration;

    #[test]
    fn waker_interrupts_wait_and_drains_quiet() {
        let waker = Waker::new().unwrap();
        let mut set = PollSet::new();
        let slot = set.push(waker.fd());
        waker.wake();
        let mut ready = Vec::new();
        set.wait(Duration::from_millis(500), &mut ready).unwrap();
        assert_eq!(ready, vec![slot]);
        waker.drain();
        ready.clear();
        set.wait(Duration::from_millis(10), &mut ready).unwrap();
        assert!(ready.is_empty());
    }
}
