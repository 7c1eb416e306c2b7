//! The serve half of a workload: the server booted the way `gittables
//! serve` boots it, the load generator (closed and open loops over two
//! keep-alive connections), and the byte-identity check of every body.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gittables_core::apps::{SchemaCompletion, SearchHit};
use gittables_corpus::TypeCount;
use gittables_serve::{
    HttpClient, ReloadSpec, Router, Server, ServerConfig, ServerHandle, ShardSet, TableSummary,
    TypeTablesResponse,
};

use crate::build::SERVE_THREADS;
use crate::inputs::{Ask, Rng, Target, Zipf};
use crate::proc::{self, Spent, Stopwatch};
use crate::stats::Reading;
use crate::workloads::{Traffic, Workload, HOT_POOL, SEARCH_POOL};

/// Load-generator connections, one thread each.
pub const CONNECTIONS: usize = SERVE_THREADS;
/// How long past its window's end an open loop keeps sending what was
/// due inside it. Far longer than any stall seen (0.2 s), so only a
/// server that cannot keep up with the rate fails requests this way.
const GIVE_UP: Duration = Duration::from_secs(2);
/// Length of the precomputed Zipf draw sequence the hot traffic cycles:
/// one closed-loop pass (`LoadGen::pass`), a third of a second.
const HOT_DRAWS: usize = 1 << 14;

/// A typed in-process answer, before serialization.
pub enum Answer {
    Search(Vec<SearchHit>),
    Complete(Vec<SchemaCompletion>),
    Types(Vec<TypeCount>),
    TypeTables(TypeTablesResponse),
    Table(TableSummary),
}

/// Asks the router what the server would ask it for this target.
pub fn ask(router: &Router, ask: &Ask) -> Result<Answer, String> {
    let missing = || format!("{ask:?} has no answer in this corpus");
    Ok(match ask {
        Ask::Search { query, k } => {
            Answer::Search(router.search(query, *k).map_err(|e| e.to_string())?)
        }
        Ask::Complete { prefix, k } => {
            let prefix: Vec<&str> = prefix.iter().map(String::as_str).collect();
            Answer::Complete(router.complete(&prefix, *k).map_err(|e| e.to_string())?)
        }
        Ask::Types => Answer::Types(router.type_counts().map_err(|e| e.to_string())?),
        Ask::TypeTables { label } => Answer::TypeTables(
            router
                .type_tables(label)
                .map_err(|e| e.to_string())?
                .ok_or_else(missing)?,
        ),
        Ask::Table { id } => Answer::Table(
            router
                .try_table_summary(*id)
                .map_err(|e| e.to_string())?
                .ok_or_else(missing)?,
        ),
    })
}

impl Answer {
    /// The body the server sends for this answer.
    pub fn to_json(&self) -> Result<String, String> {
        match self {
            Answer::Search(v) => serde_json::to_string(v),
            Answer::Complete(v) => serde_json::to_string(v),
            Answer::Types(v) => serde_json::to_string(v),
            Answer::TypeTables(v) => serde_json::to_string(v),
            Answer::Table(v) => serde_json::to_string(v),
        }
        .map_err(|e| e.to_string())
    }
}

/// The targets a workload requests, their expected bodies, and the
/// order they are requested in (indices into `targets`, cycled).
pub struct Plan {
    pub targets: Vec<Target>,
    pub expected: Vec<String>,
    pub order: Vec<u32>,
}

/// Builds the workload's traffic from the corpus vocabulary and the
/// seed, and answers every distinct target in-process.
pub fn plan(w: &Workload, seed: u64, words: &[String], router: &Router) -> Result<Plan, String> {
    let mut rng = Rng::new(seed ^ 0x7261_6666_6963); // "raffic"
    let (targets, order) = match w.traffic {
        Traffic::Search => {
            let targets = crate::inputs::search_pool(words, SEARCH_POOL, &mut rng);
            let order = (0..targets.len() as u32).collect();
            (targets, order)
        }
        Traffic::Hot => {
            let labels: Vec<String> = router
                .type_counts()
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|c| c.label)
                .collect();
            let targets =
                crate::inputs::hot_pool(words, &labels, router.num_tables(), HOT_POOL, &mut rng);
            let zipf = Zipf::new(targets.len(), 1.0);
            let order = (0..HOT_DRAWS)
                .map(|_| zipf.sample(&mut rng) as u32)
                .collect();
            (targets, order)
        }
    };
    let expected = targets
        .iter()
        .map(|t| ask(router, &t.ask)?.to_json())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Plan {
        targets,
        expected,
        order,
    })
}

/// Boots the store at `dir` as `gittables serve --shards N` does, with
/// `/reload` enabled. `cached: false` turns the response cache off, for
/// the traced run's comparison of a round trip with the engine call it
/// contains.
pub fn start_server(dir: &Path, shards: usize, cached: bool) -> Result<ServerHandle, String> {
    let set = ShardSet::load(dir, shards).map_err(|e| format!("ShardSet::load: {e}"))?;
    if set.num_shards() != shards {
        return Err(format!(
            "store split into {} shards, not {shards}",
            set.num_shards()
        ));
    }
    let defaults = ServerConfig::default();
    Server::start_set(
        set,
        "127.0.0.1:0",
        ServerConfig {
            threads: SERVE_THREADS,
            cache_capacity: if cached { defaults.cache_capacity } else { 0 },
            reload: Some(ReloadSpec {
                dir: dir.to_path_buf(),
                shards,
            }),
            ..defaults
        },
    )
    .map_err(|e| format!("bind server: {e}"))
}

/// Nanosecond clock the loops run against; tests substitute a fake.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until(&self, ns: u64);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// What one connection measured in one phase.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LoopLog {
    /// µs from each open-loop request's due time to its verified
    /// response.
    pub latency_us: Vec<f64>,
    /// µs each open-loop request was sent after it was due.
    pub late_us: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
}

impl LoopLog {
    pub fn merge(mut logs: Vec<LoopLog>) -> LoopLog {
        let mut out = logs.pop().unwrap_or_default();
        for l in logs {
            out.latency_us.extend(l.latency_us);
            out.late_us.extend(l.late_us);
            out.attempted += l.attempted;
            out.failed += l.failed;
        }
        out
    }
}

/// One connection's share of an open loop: request `k` is due at
/// `start_ns + k * interval_ns` whether or not earlier ones have been
/// answered. A request whose turn comes late (the connection was still
/// busy) is sent at once and timed from its *due* time, so a stall is
/// charged to every request it delayed. Requests due before `end_ns`
/// are all sent, unless the connection is still behind `GIVE_UP` after
/// the window's end: the rest then count as failed.
pub fn open_loop<C: Clock>(
    clock: &C,
    start_ns: u64,
    interval_ns: u64,
    end_ns: u64,
    mut send: impl FnMut(u64) -> bool,
) -> LoopLog {
    let mut log = LoopLog::default();
    let give_up_ns = end_ns + GIVE_UP.as_nanos() as u64;
    for k in 0.. {
        let due = start_ns + k * interval_ns;
        if due >= end_ns {
            break;
        }
        log.attempted += 1;
        clock.sleep_until(due);
        let sent = clock.now_ns();
        if sent > give_up_ns {
            log.failed += 1;
            continue;
        }
        let ok = send(k);
        let done = clock.now_ns();
        log.late_us.push((sent - due) as f64 / 1e3);
        if ok {
            log.latency_us.push((done - due) as f64 / 1e3);
        } else {
            log.failed += 1;
        }
    }
    log
}

/// One connection's share of a closed-loop pass over positions
/// `0..total`: it takes the next position from `next`, shared with the
/// other connections, when its previous request has been answered.
pub fn closed_pass(next: &AtomicU64, total: u64, mut send: impl FnMut(u64) -> bool) -> LoopLog {
    let mut log = LoopLog::default();
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= total {
            break;
        }
        log.attempted += 1;
        if !send(k) {
            log.failed += 1;
        }
    }
    log
}

/// Sends plan requests over keep-alive connections and checks every
/// body against the in-process answer.
pub struct LoadGen<'a> {
    addr: SocketAddr,
    plan: &'a Plan,
    /// Position in `plan.order` the next phase starts from, so phases
    /// continue the cycle instead of replaying its head.
    cursor: u64,
    first_divergence: Mutex<Option<String>>,
}

impl<'a> LoadGen<'a> {
    pub fn new(addr: SocketAddr, plan: &'a Plan) -> LoadGen<'a> {
        LoadGen {
            addr,
            plan,
            cursor: 0,
            first_divergence: Mutex::new(None),
        }
    }

    /// Requests target `idx`; true when it answered 200 with exactly the
    /// expected bytes. A wrong body is remembered as a divergence.
    fn request(&self, client: &mut HttpClient, idx: usize) -> bool {
        let target = &self.plan.targets[idx];
        match client.get(&target.url) {
            Ok((200, body)) if body == self.plan.expected[idx] => true,
            Ok((200, body)) => {
                self.first_divergence
                    .lock()
                    .expect("divergence lock")
                    .get_or_insert_with(|| {
                        format!(
                            "{} served {} bytes that differ from the in-process answer",
                            target.url,
                            body.len()
                        )
                    });
                false
            }
            _ => false,
        }
    }

    /// Gate: fails when any body served so far differed.
    pub fn check(&self) -> Result<(), String> {
        match self
            .first_divergence
            .lock()
            .expect("divergence lock")
            .clone()
        {
            Some(d) => Err(d),
            None => Ok(()),
        }
    }

    /// Requests every distinct target once, in pool order, split across
    /// the connections; every one must match.
    pub fn verify_all(&self) -> Result<usize, String> {
        let n = self.plan.targets.len();
        let log = self.on_connections(CONNECTIONS, |gen, client, c| {
            let mut log = LoopLog::default();
            for idx in (c..n).step_by(CONNECTIONS) {
                log.attempted += 1;
                log.failed += usize::from(!gen.request(client, idx));
            }
            log
        });
        self.check()?;
        if log.failed > 0 {
            return Err(format!("{} of {n} targets did not answer 200", log.failed));
        }
        Ok(n)
    }

    fn target_at(&self, position: u64) -> usize {
        self.plan.order[(position % self.plan.order.len() as u64) as usize] as usize
    }

    /// Runs `body` on each of `connections` threads with its own client
    /// and connection index, merging the logs.
    fn on_connections(
        &self,
        connections: usize,
        body: impl Fn(&LoadGen<'_>, &mut HttpClient, usize) -> LoopLog + Sync,
    ) -> LoopLog {
        let this = self;
        let logs: Vec<LoopLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    let body = &body;
                    s.spawn(move || match HttpClient::connect(this.addr) {
                        Ok(mut client) => body(this, &mut client, c),
                        Err(_) => LoopLog {
                            attempted: 1,
                            failed: 1,
                            ..LoopLog::default()
                        },
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load connection"))
                .collect()
        });
        LoopLog::merge(logs)
    }

    /// Requests in one closed-loop pass: `plan.order` once through, so
    /// every pass asks the server the same questions.
    pub fn pass_len(&self) -> u64 {
        self.plan.order.len() as u64
    }

    /// A stretch of a closed-loop pass: the next `requests` positions of
    /// `plan.order`, shared between all connections. Returns the log
    /// and what it cost until the last answer.
    pub fn closed(&mut self, requests: u64) -> (LoopLog, Spent) {
        let watch = Stopwatch::start();
        let next = AtomicU64::new(0);
        let base = self.cursor;
        let log = self.on_connections(CONNECTIONS, |gen, client, _| {
            closed_pass(&next, requests, |k| {
                gen.request(client, gen.target_at(base + k))
            })
        });
        self.cursor += requests;
        (log, watch.stop())
    }

    /// Open loop at `rate` requests/s in total, spread evenly over
    /// `connections` interleaved schedules, for `window`.
    pub fn open(&mut self, rate: f64, connections: usize, window: Duration) -> LoopLog {
        let clock = WallClock::new();
        let end_ns = window.as_nanos() as u64;
        let gap_ns = (1e9 / rate) as u64;
        let base = self.cursor;
        let log = self.on_connections(connections, |gen, client, c| {
            open_loop(
                &clock,
                c as u64 * gap_ns,
                gap_ns * connections as u64,
                end_ns,
                |k| {
                    gen.request(
                        client,
                        gen.target_at(base + k * connections as u64 + c as u64),
                    )
                },
            )
        });
        self.cursor += log.attempted as u64;
        log
    }
}

/// Pause before each `POST /reload`, so the reader is reading when the
/// first is posted and between one reload and the next.
const RELOAD_GAP: Duration = Duration::from_millis(20);

pub struct Reloads {
    /// Round trip of each successful `POST /reload` with the share of
    /// CPU time stolen during it.
    pub reload_ms: Vec<Reading>,
    pub failed: usize,
    pub reads: LoopLog,
}

/// One connection reads open-loop at `rate` for `window` while this
/// thread posts `/reload` again and again (at least once). Every read
/// is still checked against the in-process answer, so a reload that
/// served a stale or torn snapshot shows as a divergence.
pub fn reloads_under_reads(
    gen: &mut LoadGen<'_>,
    rate: f64,
    window: Duration,
) -> Result<Reloads, String> {
    let addr = gen.addr;
    let mut reload_ms = Vec::new();
    let mut failed = 0;
    let reads = std::thread::scope(|s| {
        let started = Instant::now();
        let reader = s.spawn(|| gen.open(rate, 1, window));
        let mut admin = HttpClient::connect(addr).map_err(|e| format!("admin connect: {e}"))?;
        loop {
            std::thread::sleep(RELOAD_GAP);
            let ((answer, value), stolen) = proc::stolen_during(|| {
                let t = Instant::now();
                let answer = admin.post("/reload");
                (answer, t.elapsed().as_secs_f64() * 1e3)
            });
            match answer {
                Ok((200, body)) if body.contains("\"drained\":true") => {
                    reload_ms.push(Reading {
                        value,
                        raw: value,
                        stolen,
                    });
                }
                _ => failed += 1,
            }
            if started.elapsed() + RELOAD_GAP * 2 >= window {
                break;
            }
        }
        Ok::<_, String>(reader.join().expect("reader"))
    })?;
    gen.check()?;
    Ok(Reloads {
        reload_ms,
        failed,
        reads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on or advanced by a request.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delays() {
        let clock = FakeClock(Cell::new(0));
        // Due every 1 ms at 0, 1, 2, 3, 4 ms. Request 1 takes 2.5 ms, the
        // others 0.2 ms: 2 and 3 find the connection busy.
        let service_ns = [200_000, 2_500_000, 200_000, 200_000, 200_000];
        let log = open_loop(&clock, 0, 1_000_000, 5_000_000, |k| {
            clock.0.set(clock.0.get() + service_ns[k as usize]);
            true
        });
        assert_eq!((log.attempted, log.failed), (5, 0));
        // 1: 1.0 → 3.5.  2: due 2.0, sent 3.5, done 3.7.  3: due 3.0,
        // sent 3.7, done 3.9.  4: due 4.0, on time.
        assert_eq!(log.latency_us, vec![200.0, 2500.0, 1700.0, 900.0, 200.0]);
        assert_eq!(log.late_us, vec![0.0, 0.0, 1500.0, 700.0, 0.0]);
    }

    #[test]
    fn open_loop_counts_failures_and_gives_up_when_far_behind() {
        let clock = FakeClock(Cell::new(0));
        let log = open_loop(&clock, 0, 1_000_000, 3_000_000, |k| {
            clock.0.set(clock.0.get() + 100_000);
            k != 1
        });
        assert_eq!((log.attempted, log.failed, log.latency_us.len()), (3, 1, 2));

        // The first request blocks beyond the give-up time: the others
        // are never sent and count as failed.
        let clock = FakeClock(Cell::new(0));
        let log = open_loop(&clock, 0, 1_000_000, 3_000_000, |_| {
            clock
                .0
                .set(clock.0.get() + 9_000_000 + GIVE_UP.as_nanos() as u64);
            true
        });
        assert_eq!((log.attempted, log.failed), (3, 2));
        assert_eq!(log.latency_us, vec![9000.0 + GIVE_UP.as_micros() as f64]);
    }

    #[test]
    fn interleaved_schedules_cover_the_rate() {
        // Two connections at 1000/s in total: each every 2 ms, offset 1 ms.
        let due = |c: u64| {
            let clock = FakeClock(Cell::new(0));
            let mut sent = Vec::new();
            open_loop(&clock, c * 1_000_000, 2_000_000, 6_000_000, |_| {
                sent.push(clock.now_ns());
                true
            });
            sent
        };
        assert_eq!(due(0), vec![0, 2_000_000, 4_000_000]);
        assert_eq!(due(1), vec![1_000_000, 3_000_000, 5_000_000]);
    }

    #[test]
    fn closed_pass_shares_the_positions_between_connections() {
        let next = AtomicU64::new(0);
        let mut seen = Vec::new();
        // The first connection answers three requests, failing one...
        let first = closed_pass(&next, 3, |k| {
            seen.push(k);
            k != 1
        });
        assert_eq!((first.attempted, first.failed), (3, 1));
        // ...and nothing is left for the second.
        let second = closed_pass(&next, 3, |k| {
            seen.push(k);
            true
        });
        assert_eq!(second, LoopLog::default());
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
