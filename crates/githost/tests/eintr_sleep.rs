//! Regression test: backoff/daemon sleeps must survive signal storms.
//!
//! Once the crawl daemon installs `SIGTERM`/`SIGINT` handlers, a sleep
//! that returned on `EINTR` would be cut short by every signal — a
//! retry loop whose delays silently shrink under signal load would make
//! backoff schedules load-dependent. The workspace relies on
//! `std::thread::sleep` resuming with the remainder until the whole
//! duration has elapsed; the first storm pins that guarantee, the second
//! pins [`sleep_until_stop`] built on it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gittables_githost::sleep_until_stop;

mod sys {
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
        /// `pthread_t` is an `unsigned long` or a pointer: one word.
        pub fn pthread_self() -> usize;
        pub fn pthread_kill(thread: usize, sig: i32) -> i32;
    }
}

/// 14 on every unix (`SIGALRM` is not), and nothing here arms an alarm.
const SIGALRM: i32 = 14;

extern "C" fn noop(_signum: i32) {}

/// Peppers the calling thread with SIGALRM from a helper thread while it
/// sleeps; every signal interrupts the in-progress `nanosleep`, so the
/// full duration only elapses if the sleep resumes with the remainder.
#[test]
fn std_sleep_survives_a_signal_storm() {
    unsafe { sys::signal(SIGALRM, noop as *const () as usize) };
    let target = unsafe { sys::pthread_self() };
    let done = Arc::new(AtomicBool::new(false));
    let storm = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                unsafe { sys::pthread_kill(target, SIGALRM) };
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let start = Instant::now();
    std::thread::sleep(Duration::from_millis(150));
    let elapsed = start.elapsed();
    done.store(true, Ordering::Relaxed);
    storm.join().unwrap();
    assert!(
        elapsed >= Duration::from_millis(150),
        "sleep returned after {elapsed:?}, before the full 150ms"
    );
}

/// The stop-aware variant also holds its duration under signals (when
/// not stopped) and still wakes promptly when stopped.
#[test]
fn sleep_until_stop_survives_signals_and_stops() {
    unsafe { sys::signal(SIGALRM, noop as *const () as usize) };
    let target = unsafe { sys::pthread_self() };
    let done = Arc::new(AtomicBool::new(false));
    let storm = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                unsafe { sys::pthread_kill(target, SIGALRM) };
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    assert!(sleep_until_stop(Duration::from_millis(100), &stop));
    assert!(start.elapsed() >= Duration::from_millis(100));
    done.store(true, Ordering::Relaxed);
    storm.join().unwrap();

    stop.store(true, Ordering::Relaxed);
    let start = Instant::now();
    assert!(!sleep_until_stop(Duration::from_secs(30), &stop));
    assert!(start.elapsed() < Duration::from_secs(5));
}
