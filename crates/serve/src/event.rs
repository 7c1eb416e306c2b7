//! What reaches the server's workers from outside their readiness waits:
//! the shutdown [`Waker`], and the `SIGHUP` flag that asks for a live
//! corpus reload.
//!
//! The readiness wait itself is [`gittables_sys::PollSet`] — `poll(2)`,
//! the same on every unix — and everything here is `std` on top of it.

use std::io::{self, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};

use gittables_sys::{raise_flag_on, Signal};

/// A one-way wake-up for every [`gittables_sys::PollSet`] wait that
/// holds it: a non-blocking socket pair whose read end sits in each set.
/// Nothing reads it, so once woken it stays readable and every wait
/// returns at once — the server's shutdown signal to all its workers.
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

    /// The descriptor to push into a waiting thread's set; it turns
    /// readable on [`Waker::wake`] and stays so.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Interrupts every concurrent and later wait on [`Waker::fd`].
    pub fn wake(&self) {
        // A full socket buffer (`WouldBlock`) means a wake-up is already
        // pending, which is all this call promises.
        let _ = (&self.tx).write(&[1]);
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
    fn one_wake_reaches_every_wait_and_stays() {
        let waker = Waker::new().unwrap();
        let mut sets = [PollSet::new(), PollSet::new()];
        for set in &mut sets {
            set.push(waker.fd());
        }
        let mut ready = Vec::new();
        sets[0].wait(Duration::from_millis(10), &mut ready).unwrap();
        assert!(ready.is_empty(), "quiet before the wake");
        waker.wake();
        // Every set, again and again: nothing consumes the wake-up.
        for _ in 0..3 {
            for set in &mut sets {
                ready.clear();
                set.wait(Duration::from_millis(500), &mut ready).unwrap();
                assert_eq!(ready, vec![0]);
            }
        }
    }
}
