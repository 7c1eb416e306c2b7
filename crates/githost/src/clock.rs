//! Time sources and stop-aware sleeping for pool scheduling.
//!
//! Two concerns live here:
//!
//! * [`sleep_until_stop`] — a sleep the daemon's stop flag can cut short.
//!   Every sleep in this crate is `std::thread::sleep`, which on unix
//!   resumes after `EINTR` until the whole duration has elapsed. That
//!   guarantee is relied on, not re-implemented: the crawl daemon
//!   installs `SIGTERM`/`SIGINT` handlers, and backoff delays that
//!   quietly shrank under signal load would make retry schedules
//!   load-dependent (`tests/eintr_sleep.rs` pins it under a signal storm).
//! * [`PoolClock`] — the time source [`crate::HostPool`] schedules
//!   against. In `Wall` mode it is monotonic real time; in `Virtual`
//!   mode it is a logical millisecond counter advanced explicitly, so
//!   every breaker cooldown, token refill, and routing decision is a
//!   pure function of the operation sequence — never of the machine's
//!   actual speed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sleeps up to `duration` in short slices, waking early when `stop`
/// becomes true. Returns `true` when the full duration elapsed, `false`
/// when the stop flag cut it short. Each slice is a whole
/// `std::thread::sleep`, so signal storms delay neither the wakeup check
/// nor the total duration.
pub fn sleep_until_stop(duration: Duration, stop: &AtomicBool) -> bool {
    const SLICE: Duration = Duration::from_millis(20);
    let mut remaining = duration;
    while remaining > Duration::ZERO {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let slice = remaining.min(SLICE);
        std::thread::sleep(slice);
        remaining -= slice;
    }
    !stop.load(Ordering::Relaxed)
}

/// The time source a [`crate::HostPool`] schedules against, in
/// milliseconds since an arbitrary epoch.
#[derive(Debug)]
pub enum PoolClock {
    /// Monotonic real time; waiting sleeps the calling thread.
    Wall {
        /// Epoch the millisecond readings count from.
        start: Instant,
    },
    /// A logical counter advanced explicitly; waiting jumps the counter.
    /// Scheduling state driven by this clock is a pure function of the
    /// operation sequence, independent of machine speed.
    Virtual {
        /// Current logical time in milliseconds.
        now_ms: AtomicU64,
    },
}

impl PoolClock {
    /// A real-time clock starting now.
    #[must_use]
    pub fn wall() -> Self {
        PoolClock::Wall {
            start: Instant::now(),
        }
    }

    /// A logical clock starting at zero.
    #[must_use]
    pub fn virtual_clock() -> Self {
        PoolClock::Virtual {
            now_ms: AtomicU64::new(0),
        }
    }

    /// Current reading in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        match self {
            PoolClock::Wall { start } => u64::try_from(start.elapsed().as_millis()).unwrap_or(0),
            PoolClock::Virtual { now_ms } => now_ms.load(Ordering::Relaxed),
        }
    }

    /// Advances the clock to at least `target_ms`: sleeps in `Wall` mode,
    /// jumps the counter in `Virtual` mode. A target in the past is a
    /// no-op.
    pub fn advance_to(&self, target_ms: u64) {
        match self {
            PoolClock::Wall { .. } => {
                let now = self.now_ms();
                if target_ms > now {
                    std::thread::sleep(Duration::from_millis(target_ms - now));
                }
            }
            PoolClock::Virtual { now_ms } => {
                now_ms.fetch_max(target_ms, Ordering::Relaxed);
            }
        }
    }

    /// Advances the clock by `delta_ms` from its current reading.
    pub fn advance_by(&self, delta_ms: u64) {
        match self {
            PoolClock::Wall { .. } => std::thread::sleep(Duration::from_millis(delta_ms)),
            PoolClock::Virtual { now_ms } => {
                now_ms.fetch_add(delta_ms, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_advance_elapses_whole_duration() {
        let start = Instant::now();
        PoolClock::wall().advance_by(30);
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn sleep_until_stop_wakes_early() {
        let stop = AtomicBool::new(false);
        assert!(sleep_until_stop(Duration::from_millis(5), &stop));
        stop.store(true, Ordering::Relaxed);
        let start = Instant::now();
        assert!(!sleep_until_stop(Duration::from_secs(10), &stop));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn virtual_clock_jumps_and_never_rewinds() {
        let clock = PoolClock::virtual_clock();
        assert_eq!(clock.now_ms(), 0);
        clock.advance_to(40);
        assert_eq!(clock.now_ms(), 40);
        clock.advance_to(10);
        assert_eq!(clock.now_ms(), 40, "advance_to never rewinds");
        clock.advance_by(5);
        assert_eq!(clock.now_ms(), 45);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let clock = PoolClock::wall();
        let a = clock.now_ms();
        std::thread::sleep(Duration::from_millis(5));
        assert!(clock.now_ms() >= a);
    }
}
