//! Signals in, signals out: the one handler every caught signal runs, and
//! the self-`SIGKILL` crash failpoints simulate.

use std::ffi::c_int;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

extern "C" {
    fn signal(signum: c_int, handler: usize) -> usize;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const SIGKILL: c_int = 9;

/// The signals the workspace catches. Their numbers are the same on every
/// unix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// `SIGHUP` — the server's live-reload request.
    Hup,
    /// `SIGINT` — interactive stop of the crawl daemon.
    Int,
    /// `SIGTERM` — supervised stop of the crawl daemon.
    Term,
}

impl Signal {
    fn number(self) -> c_int {
        match self {
            Signal::Hup => 1,
            Signal::Int => 2,
            Signal::Term => 15,
        }
    }
}

/// The flag each signal raises, indexed by signal number; null until
/// [`raise_flag_on`] names one.
static FLAGS: [AtomicPtr<AtomicBool>; 16] = [const { AtomicPtr::new(std::ptr::null_mut()) }; 16];

/// The handler: one atomic load and one atomic store, both
/// async-signal-safe, nothing else.
extern "C" fn raise_flag(signum: c_int) {
    let Some(slot) = usize::try_from(signum).ok().and_then(|n| FLAGS.get(n)) else {
        return;
    };
    // SAFETY: a non-null pointer in `FLAGS` was stored by `raise_flag_on`
    // from a `&'static AtomicBool`, so it is aligned and valid for ever.
    if let Some(flag) = unsafe { slot.load(Ordering::Acquire).as_ref() } {
        flag.store(true, Ordering::Relaxed);
    }
}

/// From now on `signal` sets `flag` instead of taking its default action.
/// The handler does nothing else, so whoever owns the flag polls it.
/// Several signals may share one flag; calling again re-points the signal
/// (idempotent for the same flag).
pub fn raise_flag_on(signal_to_catch: Signal, flag: &'static AtomicBool) {
    // Publish the flag before the handler can run for it.
    FLAGS[signal_to_catch.number() as usize]
        .store(std::ptr::from_ref(flag).cast_mut(), Ordering::Release);
    // SAFETY: `raise_flag` has the handler ABI and is async-signal-safe
    // (see there); the signal number is one of three valid, catchable
    // ones, so `signal` cannot fail, and it touches no memory of ours.
    unsafe {
        signal(
            signal_to_catch.number(),
            raise_flag as extern "C" fn(c_int) as usize,
        );
    }
}

/// Ends the process the way a crash does: `SIGKILL` to itself — no
/// unwinding, no destructors, no flush, nothing a handler can catch.
pub fn kill_self() -> ! {
    if let Ok(pid) = c_int::try_from(std::process::id()) {
        // SAFETY: `kill` reads its two integer arguments and nothing
        // else; the target is this very process.
        unsafe {
            kill(pid, SIGKILL);
        }
    }
    // Not reached once the signal is delivered; if it could not be sent,
    // abort still ends the process without unwinding.
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Sends `signal` to this process. A process-directed signal may be
    /// handled on any thread, so the flag is awaited, not assumed.
    fn send_and_await(signal_to_send: Signal, flag: &AtomicBool) {
        let pid = c_int::try_from(std::process::id()).unwrap();
        // SAFETY: integer arguments only; the handler for this signal was
        // installed by the caller, so the process survives it.
        assert_eq!(unsafe { kill(pid, signal_to_send.number()) }, 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !flag.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "{signal_to_send:?} never raised");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The only test in this crate that touches signal dispositions
    /// (they are process-wide, and tests share the process).
    #[test]
    fn a_signal_raises_exactly_its_flag_and_two_may_share_one() {
        static RELOAD: AtomicBool = AtomicBool::new(false);
        static STOP: AtomicBool = AtomicBool::new(false);
        raise_flag_on(Signal::Hup, &RELOAD);
        raise_flag_on(Signal::Int, &STOP);
        raise_flag_on(Signal::Term, &STOP);
        assert!(!RELOAD.load(Ordering::Relaxed) && !STOP.load(Ordering::Relaxed));

        send_and_await(Signal::Hup, &RELOAD);
        assert!(!STOP.load(Ordering::Relaxed), "SIGHUP raised the stop flag");
        // Consumed like the server's reload watcher does; nothing re-raises it.
        assert!(RELOAD.swap(false, Ordering::Relaxed));
        assert!(!RELOAD.swap(false, Ordering::Relaxed));

        for stop_signal in [Signal::Int, Signal::Term] {
            send_and_await(stop_signal, &STOP);
            assert!(STOP.swap(false, Ordering::Relaxed));
        }
        assert!(
            !RELOAD.load(Ordering::Relaxed),
            "a stop signal raised reload"
        );
    }
}
