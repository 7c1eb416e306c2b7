//! The `expt` binary from the outside: exit codes, the index on bad input,
//! and the whole registry in one process.

use std::process::{Command, Output};

use gittables_bench::experiments::REGISTRY;

fn expt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(args)
        .output()
        .expect("spawn expt")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = expt(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    for e in REGISTRY {
        assert!(stderr.contains(e.name), "{args:?}: index lacks {}", e.name);
    }
}

#[test]
fn bad_command_lines_exit_2_with_the_index() {
    assert_usage_error(&[], "no experiment named");
    assert_usage_error(&["table9"], "unknown experiment \"table9\"");
    assert_usage_error(&["table1", "--topics", "x"], "--topics needs a number");
    assert_usage_error(&["table1", "--repos"], "--repos needs a value");
    assert_usage_error(&["table1", "table2"], "unexpected argument \"table2\"");
}

#[test]
fn all_prints_every_experiment_in_registry_order() {
    let out = expt(&["all", "--topics", "2", "--repos", "3"]);
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let separators: Vec<&str> = stdout
        .lines()
        .filter_map(|l| {
            l.strip_prefix("############ ")?
                .strip_suffix(" ############")
        })
        .collect();
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(separators, names);
    let headers = stdout
        .lines()
        .filter(|l| l.starts_with("== ") && l.ends_with(" =="))
        .count();
    assert!(headers >= names.len(), "{headers} table headers");
    assert!(stdout.ends_with("\nall 23 experiments completed\n"));
}
