//! The repository's benchmark. One run takes one workload through the
//! whole life of a corpus — crawl and build into a store, read the
//! store back, boot the query engine, serve it under load, reload it —
//! checks every output against an in-process reference, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced replay (`--trace 1`). See README.md beside this package.

mod build;
mod compare;
mod hostview;
mod inputs;
mod proc;
mod refloop;
mod report;
mod run;
mod serve;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::WORKLOADS;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
  benchmark --compare <baseline> <candidate>    (result files or directories of them)
  benchmark --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
    List,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut run = Args {
        workload: String::new(),
        seed: 42,
        seconds: 18.0,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |n: usize| {
            args.get(i + n)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--list" => return Ok(Command::List),
            "--compare" => {
                return Ok(Command::Compare(value(1)?.into(), value(2)?.into()));
            }
            "--workload" => run.workload = value(1)?.clone(),
            "--seed" => run.seed = value(1)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value(1)?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                run.trace = match value(1)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => run.out = Some(value(1)?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if run.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(run.seconds >= 1.0 && run.seconds <= 60.0) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    Ok(Command::Run(run))
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {}", w.name);
    }
    for (title, defs) in [
        ("end-to-end metrics (--trace 0):", workloads::END_TO_END),
        ("per-layer metrics (--trace 1):", workloads::PER_LAYER),
    ] {
        println!("{title}");
        for d in defs {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
            println!(
                "  {:<34} {:<6} {} is better{bound}",
                d.name,
                d.unit,
                d.better.as_str()
            );
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a build with debug assertions; use --release".to_string());
    }
    let w = workloads::workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}`; one of {}",
            args.workload,
            names.join(", ")
        )
    })?;
    // Before any other thread exists: they inherit the one CPU, and
    // rayon sizes its pool from this variable.
    let cpus = proc::pin_to_one_cpu();
    if cpus.pinned.is_none() {
        eprintln!("benchmark: could not confine the run to one CPU; expect unsteady numbers");
    }
    std::env::set_var("RAYON_NUM_THREADS", build::BUILD_THREADS.to_string());
    let (result, spans) = if args.trace {
        let (result, spans) = trace::run(w, args.seed, args.seconds, cpus)?;
        (result, Some(spans))
    } else {
        (run::run(w, args.seed, args.seconds, cpus)?, None)
    };
    // Nothing is written before this point: a failed gate leaves no file.
    if let Some(out) = &args.out {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let name = format!(
            "result-{}-seed{}-trace{}.json",
            w.name,
            args.seed,
            u8::from(args.trace)
        );
        let body = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        std::fs::write(out.join(name), body).map_err(|e| e.to_string())?;
        if let Some(spans) = spans {
            std::fs::write(out.join(format!("trace-{}.json", w.name)), spans)
                .map_err(|e| e.to_string())?;
        }
    }
    eprint!("{}", result.table());
    println!("{}", result.line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::List) => {
            list();
            Ok(())
        }
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Ok(Command::Run(args)) => run(&args),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
