//! The untraced run of one workload: set-up, an unmeasured first pass
//! that every gate is checked on, then the measured rounds and the
//! end-to-end metrics.

use std::time::{Duration, Instant};

use gittables_core::Pipeline;
use gittables_serve::{CacheStats, Router, ShardSet};

use crate::build::{self, Inputs, Reference, SetupTimes, TempRoot};
use crate::hostview::HostCounters;
use crate::proc::{self, Cpus, Spent, Usage};
use crate::refloop::{RefLoop, Slowness};
use crate::report::{Fingerprint, Metrics, RunResult};
use crate::serve::{self, LoadGen, LoopLog, CONNECTIONS};
use crate::stats::{self, Reading};
use crate::workloads::{Traffic, Workload, END_TO_END};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

// What one round measures. The sandbox's speed wanders by a third over
// seconds and minutes, and the hypervisor takes the CPU away for tens
// to hundreds of milliseconds several times a minute (see the README).
// So every timing is the process's CPU time, taken between two runs of
// the reference loop and put at reference speed (`Gauge`); every phase
// is run briefly in each of many rounds, the closed-loop passes between
// the other phases; each reading is kept with the share of CPU time
// stolen while it was taken; and a metric is the median of its
// undisturbed readings (`stats::quiet`). A round takes 3–5 s.
/// Stretches a closed-loop pass is sent in, each between two runs of
/// the reference loop: the machine's speed changes inside a third of a
/// second too.
const PASS_STRETCHES: u64 = 4;
/// `load_store` repetitions, one reading each.
const LOADS: usize = 4;
/// Readings of `QueryEngine::load` + first query, each the median of
/// `BOOTS_PER_READING` repetitions (one takes 4 ms, less than a tick).
const BOOT_READINGS: usize = 3;
const BOOTS_PER_READING: usize = 6;
/// `POST /reload`s are sent back to back inside this window of
/// open-loop reads.
pub const RELOAD_WINDOW: Duration = Duration::from_millis(500);
/// While an episode lasts (README, *Known noise*) a run pauses instead
/// of measuring: a round whose build was disturbed is given up and
/// retried after `PAUSE`, until that has cost `PATIENCE` in all.
const PATIENCE: Duration = Duration::from_secs(6);
const PAUSE: Duration = Duration::from_secs(1);

/// Takes readings at reference speed: every timed stretch runs between
/// two runs of the reference loop (`refloop`), and its CPU time is
/// divided by how slow the machine was beside it.
pub struct Gauge(RefLoop);

impl Gauge {
    pub fn start() -> Result<Gauge, String> {
        RefLoop::start()
            .map(Gauge)
            .map_err(|e| format!("reference loop: {e}"))
    }

    /// Runs `f` and returns what it returned, the mean slowness of the
    /// reference loop just before and just after it, and the share of
    /// CPU time stolen meanwhile.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, Slowness, f64) {
        let before = self.0.slowness();
        let (out, stolen) = proc::stolen_during(f);
        let after = self.0.slowness();
        (out, Slowness::mean(before, after), stolen)
    }

    /// A reading of seconds: CPU seconds at reference speed, with the
    /// wall seconds beside them.
    pub fn seconds(
        &mut self,
        f: impl FnOnce() -> Result<Spent, String>,
    ) -> Result<Reading, String> {
        let (spent, slowness, stolen) = self.around(f);
        let spent = spent?;
        Ok(Reading {
            value: spent.cpu_s / slowness.overall(),
            raw: spent.wall_s,
            stolen,
        })
    }
}

/// Sets up `SETUPS` times, keeping the last; each earlier set-up is
/// dropped before the next so they do not add up in memory. The
/// readings are of the whole set-up.
pub fn setup_repeatedly(
    w: &Workload,
    seed: u64,
    gauge: &mut Gauge,
) -> (Inputs, Vec<SetupTimes>, Vec<Reading>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut readings = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let ((i, t), slowness, stolen) = gauge.around(|| build::setup(w, seed));
        readings.push(Reading {
            value: t.total.cpu_s / slowness.overall(),
            raw: t.total.wall_s,
            stolen,
        });
        times.push(t);
        inputs = Some(i);
    }
    (inputs.expect("SETUPS > 0"), times, readings)
}

pub fn fingerprint(
    seed: u64,
    seconds: f64,
    cpus: Cpus,
    inputs: &Inputs,
    reference: &Reference,
) -> Fingerprint {
    Fingerprint {
        nproc: cpus.online,
        cpu: cpus.pinned,
        commit: proc::commit(),
        kernel: proc::kernel(),
        seed,
        seconds,
        repositories: inputs.host.repo_count(),
        files: reference.files,
        input_bytes: reference.input_bytes,
        kept_tables: reference.corpus.len(),
        annotations: reference.annotations,
    }
}

/// The query the boot measurement answers first.
pub fn first_query(words: &[String]) -> String {
    format!("{} and {}", words[0], words[words.len() / 2])
}

/// Share of the response-cache lookups between two snapshots that hit.
pub fn hit_ratio(before: &CacheStats, after: &CacheStats) -> f64 {
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    (after.hits - before.hits) as f64 / lookups.max(1) as f64
}

/// Every reading of each metric that is read per round.
#[derive(Default)]
struct Rounds {
    build_s: Vec<Reading>,
    load_s: Vec<Reading>,
    boot_ms: Vec<Reading>,
    rps: Vec<Reading>,
    reload_ms: Vec<Reading>,
    attempted: usize,
    failed: usize,
    /// Seconds spent on given-up rounds and the pauses after them.
    waited_s: f64,
}

impl Rounds {
    fn count(&mut self, log: &LoopLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
    }

    /// One closed-loop pass: a reading of `serve_rps`, verified
    /// responses per CPU second at reference speed.
    fn pass(&mut self, gen: &mut LoadGen<'_>, gauge: &mut Gauge) {
        let stretch = gen.pass_len() / PASS_STRETCHES;
        let (mut answered, mut ref_s, mut wall_s, mut stolen_s) = (0, 0.0, 0.0, 0.0);
        for _ in 0..PASS_STRETCHES {
            let ((log, spent), slowness, stolen) = gauge.around(|| gen.closed(stretch));
            answered += log.attempted - log.failed;
            ref_s += spent.cpu_s / slowness.serving();
            wall_s += spent.wall_s;
            stolen_s += stolen * spent.wall_s;
            self.count(&log);
        }
        self.rps.push(Reading {
            value: answered as f64 / ref_s,
            raw: answered as f64 / wall_s,
            stolen: stolen_s / wall_s,
        });
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, cpus: Cpus) -> Result<RunResult, String> {
    let usage_start = Usage::now();
    let stolen_start = proc::steal_ticks();
    let tmp = TempRoot::create().map_err(|e| format!("temp directory: {e}"))?;
    let mut m = Metrics::default();

    let mut gauge = Gauge::start()?;
    let (inputs, _, setups) = setup_repeatedly(w, seed, &mut gauge);
    m.quiet_median("setup_s", &setups);

    // The unmeasured first pass: one build, whose peak memory is the
    // build's (nothing of the serve half exists yet), then every gate.
    let counters = HostCounters::default();
    // A new pipeline per repetition, built outside the timed part, so
    // its annotation cache starts cold as for `gittables build`.
    let new_pipeline = || Pipeline::new(inputs.pipeline.config.clone());
    let build = |n: usize, pipeline: &Pipeline| {
        let dir = tmp.join(&format!("build-{n}"));
        build::build_once(w, seed, &inputs, pipeline, &dir, &counters)
    };
    let first = build(0, &new_pipeline())?;
    m.value("build_peak_rss_mb", proc::peak_rss_mb());
    let reference = build::reference(&inputs);
    build::check_build(&reference, &first.run)?;
    build::load_once(&reference, &first.dir)?;
    m.value(
        "store_bytes_per_input_byte",
        proc::dir_bytes(&first.dir) as f64 / reference.input_bytes as f64,
    );
    let serve_dir = tmp.join("serve-store");
    build::serve_store(&first.run.corpus, &serve_dir)?;
    std::fs::remove_dir_all(&first.dir).ok();
    drop(first);
    let words = crate::inputs::vocabulary(&reference.corpus);
    let query = first_query(&words);
    build::boot_once(&reference, &serve_dir, &query)?;

    // Every distinct target is answered in-process, then by the server,
    // before anything is timed.
    let plan = {
        let set = ShardSet::load(&serve_dir, w.shards).map_err(|e| e.to_string())?;
        serve::plan(w, seed, &words, &Router::new(set))?
    };
    let server = serve::start_server(&serve_dir, w.shards, true)?;
    let outcome = (|| -> Result<Rounds, String> {
        let mut r = Rounds::default();
        let mut gen = LoadGen::new(server.addr(), &plan);
        r.attempted += 3 + gen.verify_all()?;
        let cache_before = server.metrics_snapshot().cache;
        let (warm, _) = gen.closed(gen.pass_len());
        r.count(&warm);
        // Judged before the first reload empties the cache.
        let ratio = hit_ratio(&cache_before, &server.metrics_snapshot().cache);
        match w.traffic {
            Traffic::Search if ratio >= 0.01 => {
                return Err(format!(
                    "the response cache hit {ratio:.3} of cache-busting traffic"
                ));
            }
            Traffic::Hot if ratio < 0.95 => {
                return Err(format!(
                    "the response cache hit only {ratio:.3} of the hot set"
                ));
            }
            _ => {}
        }

        // `--seconds` of measuring; a given-up round is not measuring.
        let mut measured = Duration::ZERO;
        let mut round = 0;
        while measured.as_secs_f64() < seconds {
            round += 1;
            let round_started = Instant::now();
            let pipeline = new_pipeline();
            let (built, slowness, stolen) = gauge.around(|| build(round, &pipeline));
            let built = built?;
            drop(pipeline);
            build::check_build(&reference, &built.run)?;
            r.attempted += 1;
            let build_s = Reading {
                value: built.spent.cpu_s / slowness.overall(),
                raw: built.spent.wall_s,
                stolen,
            };
            if !build_s.is_quiet() && r.waited_s < PATIENCE.as_secs_f64() {
                std::fs::remove_dir_all(&built.dir).ok();
                std::thread::sleep(PAUSE);
                r.waited_s += round_started.elapsed().as_secs_f64();
                continue;
            }
            r.build_s.push(build_s);
            r.pass(&mut gen, &mut gauge);
            for _ in 0..LOADS {
                r.load_s
                    .push(gauge.seconds(|| build::load_once(&reference, &built.dir))?);
            }
            std::fs::remove_dir_all(&built.dir).ok();
            drop(built);
            r.pass(&mut gen, &mut gauge);
            for _ in 0..BOOT_READINGS {
                let (boots, slowness, stolen) = gauge.around(|| {
                    (0..BOOTS_PER_READING)
                        .map(|_| build::boot_once(&reference, &serve_dir, &query))
                        .collect::<Result<Vec<Spent>, String>>()
                });
                let boots = boots?;
                let ms = |of: fn(&Spent) -> f64| -> f64 {
                    stats::median(&boots.iter().map(of).collect::<Vec<f64>>()) * 1e3
                };
                r.boot_ms.push(Reading {
                    value: ms(|s| s.cpu_s) / slowness.overall(),
                    raw: ms(|s| s.wall_s),
                    stolen,
                });
            }
            r.attempted += LOADS + BOOT_READINGS * BOOTS_PER_READING;
            r.pass(&mut gen, &mut gauge);

            // A reload's round trip is wall time (its caller waits while
            // the old snapshot drains), put at reference speed like the
            // rest; each keeps its own stolen share.
            let (reloads, slowness, _) = gauge.around(|| {
                serve::reloads_under_reads(&mut gen, w.rate_mid / CONNECTIONS as f64, RELOAD_WINDOW)
            });
            let reloads = reloads?;
            r.count(&reloads.reads);
            r.attempted += reloads.reload_ms.len() + reloads.failed;
            r.failed += reloads.failed;
            r.reload_ms
                .extend(reloads.reload_ms.iter().map(|ms| Reading {
                    value: ms.value / slowness.overall(),
                    ..*ms
                }));
            if w.traffic == Traffic::Hot {
                // The reloads emptied the response cache: answer the hot
                // set once more, which also re-checks every body against
                // the new snapshot.
                r.attempted += gen.verify_all()?;
            }
            measured += round_started.elapsed();
        }
        gen.check()?;
        Ok(r)
    })();
    server.shutdown();
    let r = outcome?;

    // `amount` per second, from readings of the seconds it took.
    let per_s = |amount: f64, seconds: &[Reading]| -> Vec<Reading> {
        seconds
            .iter()
            .map(|r| Reading {
                value: amount / r.value,
                raw: amount / r.raw,
                ..*r
            })
            .collect()
    };
    let tables = reference.corpus.len() as f64;
    m.quiet_median("build_tables_per_s", &per_s(tables, &r.build_s));
    m.quiet_median("load_tables_per_s", &per_s(tables, &r.load_s));
    m.quiet_median("boot_first_query_ms", &r.boot_ms);
    m.quiet_median("serve_rps", &r.rps);
    m.quiet_median("reload_ms", &r.reload_ms);

    let usage = Usage::now().since(usage_start);
    Ok(RunResult {
        workload: w.name.to_string(),
        traced: false,
        fingerprint: fingerprint(seed, seconds, cpus, &inputs, &reference),
        attempted: r.attempted,
        failed: r.failed,
        noisy: usage.sys_share() > 0.30,
        stolen_s: (proc::steal_ticks() - stolen_start) as f64 / 100.0,
        waited_s: r.waited_s,
        metrics: m.finish(END_TO_END)?,
    })
}
