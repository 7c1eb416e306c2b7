//! The reference loop: a fixed piece of work, none of it the
//! repository's, whose CPU time says how fast the machine is right now.
//!
//! The sandbox's one CPU is a third faster or slower from one second
//! and one minute to the next (README, *Known noise*): the other
//! hardware thread of its core and the caches belong to whoever the
//! host runs there. Nothing inside a run averages that out, and nothing
//! the program does causes it. So every reading is taken between two
//! runs of this loop and divided by how much slower than nominal the
//! loop ran (`run::Gauge`): what is reported is the time the work would
//! have taken on a machine that runs the reference loop in its nominal
//! time. Ten minutes of readings of every kind, taken both ways, spread
//! a third to a fifth as much this way (README, *What a timing is*).
//!
//! The loop has four parts, because the run has that many kinds of
//! work: dependent loads and arithmetic over a table the size of the
//! second level cache (parsing, annotation, ranking); small writes and
//! reads on a socket (the kernel's share of everything); round trips to
//! another thread through a socket (a request changing hands between
//! client, event loop and worker on the one CPU); and threads started
//! and joined (the connections of a pass, the router's fan-out). Each
//! part's CPU time is divided by its own nominal time. The machine's
//! slow spells do not slow the four alike, nor the run's phases: a
//! closed-loop pass follows the two thread parts closest, everything
//! else the mean of all four (`Slowness`).

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;

use crate::proc::process_cpu_ns;

/// CPU milliseconds each part took, as medians over ten minutes on the
/// machine the benchmark was defined on. Frozen: they only set the
/// scale, but a change to them rescales every timing.
const NOMINAL_MS: [f64; 4] = [3.5, 1.2, 2.4, 1.7];

const TABLE_WORDS: usize = 1 << 16;
const TABLE_STEPS: usize = 400_000;
const SOCKET_TRIPS: usize = 1500;
const SOCKET_BYTES: usize = 256;
const THREAD_TRIPS: usize = 600;
const THREAD_BYTES: usize = 64;
const SPAWNS: usize = 80;

/// How many times its nominal CPU time each part of the loop took: 1.0
/// on the machine at its usual speed, more when the machine is slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowness {
    pub table: f64,
    pub socket: f64,
    pub thread: f64,
    pub spawn: f64,
}

impl Slowness {
    /// What a closed-loop pass is scaled by. Over ten minutes a
    /// workload, the medians of 20 s windows of quarter passes spread
    /// 4 % (range 10 %) scaled by this, 5–6 % (range 12–15 %) scaled by
    /// `overall`, 11–19 % (range 34–50 %) unscaled.
    pub fn serving(&self) -> f64 {
        (self.thread + self.spawn) / 2.0
    }

    /// What every other timing is scaled by.
    pub fn overall(&self) -> f64 {
        (self.table + self.socket + self.thread + self.spawn) / 4.0
    }

    /// The mean of two runs of the loop, part by part.
    pub fn mean(a: Slowness, b: Slowness) -> Slowness {
        Slowness {
            table: (a.table + b.table) / 2.0,
            socket: (a.socket + b.socket) / 2.0,
            thread: (a.thread + b.thread) / 2.0,
            spawn: (a.spawn + b.spawn) / 2.0,
        }
    }
}

pub struct RefLoop {
    table: Vec<u64>,
    state: u64,
    near: UnixStream,
    far: UnixStream,
    ping: UnixStream,
    echo: Option<JoinHandle<()>>,
}

impl RefLoop {
    /// Starts the thread the third part talks to. It sleeps in `read`
    /// between runs of the loop.
    pub fn start() -> io::Result<RefLoop> {
        let (near, far) = UnixStream::pair()?;
        let (ping, mut pong) = UnixStream::pair()?;
        let echo = std::thread::Builder::new()
            .name("refloop-echo".to_string())
            .spawn(move || {
                let mut buf = [0u8; THREAD_BYTES];
                // A message starting with 0 (or the other end closing)
                // ends the thread.
                while pong.read_exact(&mut buf).is_ok() && buf[0] != 0 {
                    if pong.write_all(&buf).is_err() {
                        break;
                    }
                }
            })?;
        Ok(RefLoop {
            table: vec![1; TABLE_WORDS],
            state: 88_172_645_463_325_252,
            near,
            far,
            ping,
            echo: Some(echo),
        })
    }

    fn table_part(&mut self) {
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (self.state, 0u64);
        for _ in 0..TABLE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x ^ acc) as usize & mask;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ x;
        }
        self.state = std::hint::black_box(x | 1);
    }

    fn socket_part(&mut self) -> io::Result<()> {
        let mut buf = [7u8; SOCKET_BYTES];
        for _ in 0..SOCKET_TRIPS {
            self.near.write_all(&buf)?;
            self.far.read_exact(&mut buf)?;
        }
        Ok(())
    }

    fn thread_part(&mut self) -> io::Result<()> {
        let mut buf = [1u8; THREAD_BYTES];
        for _ in 0..THREAD_TRIPS {
            self.ping.write_all(&buf)?;
            self.ping.read_exact(&mut buf)?;
        }
        Ok(())
    }

    fn spawn_part(&self) {
        for _ in 0..SPAWNS {
            std::thread::scope(|s| {
                s.spawn(|| std::hint::black_box(1u64));
            });
        }
    }

    /// Runs the loop once (9 ms).
    pub fn slowness(&mut self) -> Slowness {
        let mut marks = [process_cpu_ns(); 5];
        self.table_part();
        marks[1] = process_cpu_ns();
        let sockets = self.socket_part();
        marks[2] = process_cpu_ns();
        let threads = self.thread_part();
        marks[3] = process_cpu_ns();
        self.spawn_part();
        marks[4] = process_cpu_ns();
        // The sockets are this process's own: they fail only if the echo
        // thread died, which is a bug in this file.
        sockets.and(threads).expect("reference loop sockets");
        let ratio = |part: usize| (marks[part + 1] - marks[part]) as f64 / 1e6 / NOMINAL_MS[part];
        Slowness {
            table: ratio(0),
            socket: ratio(1),
            thread: ratio(2),
            spawn: ratio(3),
        }
    }
}

impl Drop for RefLoop {
    fn drop(&mut self) {
        let _ = self.ping.write_all(&[0u8; THREAD_BYTES]);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_repeats_and_its_thread_ends_with_it() {
        let mut r = RefLoop::start().unwrap();
        let first = r.slowness();
        let second = r.slowness();
        // Whatever the machine, the same work twice is within an order
        // of magnitude of itself and of the nominal times.
        for s in [first, second] {
            for blend in [s.serving(), s.overall()] {
                assert!(
                    blend.is_finite() && blend > 0.02 && blend < 50.0,
                    "slowness {s:?}"
                );
            }
        }
        let mean = Slowness::mean(first, second);
        assert!((mean.spawn * 2.0 - first.spawn - second.spawn).abs() < 1e-9);
        drop(r); // joins the echo thread; hangs if it does not end
    }
}
