//! End-to-end tests of the `gittables` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gittables"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gt_cli_{}_{name}", std::process::id()))
}

#[test]
fn build_stats_search_complete_roundtrip() {
    let corpus = temp_path("corpus.json");
    let out = bin()
        .args([
            "build",
            "--out",
            corpus.to_str().unwrap(),
            "--topics",
            "2",
            "--repos",
            "5",
            "--seed",
            "3",
        ])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stats = bin()
        .args(["stats", "--corpus", corpus.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("avg rows"), "{text}");
    assert!(text.contains("Semantic"), "{text}");

    let search = bin()
        .args([
            "search",
            "--corpus",
            corpus.to_str().unwrap(),
            "--query",
            "things with ids and values",
            "--k",
            "3",
        ])
        .output()
        .expect("run search");
    assert!(search.status.success());
    assert!(!search.stdout.is_empty());

    let complete = bin()
        .args([
            "complete",
            "--corpus",
            corpus.to_str().unwrap(),
            "--prefix",
            "id,name",
            "--k",
            "3",
        ])
        .output()
        .expect("run complete");
    assert!(complete.status.success());

    std::fs::remove_file(&corpus).ok();
}

#[test]
fn annotate_csv_file() {
    let csv = temp_path("in.csv");
    std::fs::write(
        &csv,
        "id,species,price\n1,Homo sapiens,2.5\n2,Mus musculus,3.5\n",
    )
    .unwrap();
    let out = bin()
        .args(["annotate", "--csv", csv.to_str().unwrap()])
        .output()
        .expect("run annotate");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("species"), "{text}");
    std::fs::remove_file(&csv).ok();
}

#[test]
fn mixed_csv_and_sql_corpus_saves_and_loads_identically() {
    // build --sql 0.5 → save → two loads: byte-identical, and the corpus
    // really holds tables from SQL dumps beside tables from CSV files.
    let corpus = temp_path("mixed_corpus.json");
    let store = temp_path("mixed_store");
    let loads = [temp_path("mixed_load1.json"), temp_path("mixed_load2.json")];
    std::fs::remove_dir_all(&store).ok();
    let (corpus_arg, store_arg) = (corpus.to_str().unwrap(), store.to_str().unwrap());
    let run = |cmd: &mut Command| {
        let out = cmd.output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{cmd:?}: {stderr}");
    };
    run(bin()
        .args(["build", "--out", corpus_arg])
        .args(["--topics", "3", "--repos", "8"])
        .args(["--seed", "7", "--sql", "0.5"]));
    run(bin()
        .args(["save", "--corpus", corpus_arg])
        .args(["--out", store_arg, "--shard", "64"]));
    for load in &loads {
        run(bin()
            .args(["load", "--store", store_arg, "--out"])
            .arg(load));
    }
    let [first, second] = loads
        .each_ref()
        .map(|l| std::fs::read(l).expect("read load"));
    assert!(first == second, "two loads of one store differ");
    let loaded: gittables_corpus::Corpus = serde_json::from_slice(&first).expect("parse load");
    let paths: Vec<&str> = loaded
        .tables
        .iter()
        .map(|t| t.table.provenance().path.as_str())
        .collect();
    assert!(paths.iter().any(|p| p.ends_with(".sql")), "no SQL tables");
    assert!(paths.iter().any(|p| p.ends_with(".csv")), "no CSV tables");
    for file in [&corpus, &loads[0], &loads[1]] {
        std::fs::remove_file(file).ok();
    }
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn store_format_round_trip_loads_identically() {
    // The carry-over of a store into this build's format: save → load →
    // save that JSON into a second store → load. Both loads are one
    // file, byte for byte, and both stores are colv1.
    let corpus = temp_path("format_corpus.json");
    let stores = [temp_path("format_store"), temp_path("format_store_again")];
    let loads = [
        temp_path("format_load.json"),
        temp_path("format_load_again.json"),
    ];
    let run = |cmd: &mut Command| {
        let out = cmd.output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{cmd:?}: {stderr}");
    };
    run(bin()
        .args(["build", "--out", corpus.to_str().unwrap()])
        .args(["--topics", "3", "--repos", "8", "--seed", "5"]));
    let mut input = corpus.clone();
    for (store, load) in stores.iter().zip(&loads) {
        std::fs::remove_dir_all(store).ok();
        run(bin()
            .args(["save", "--corpus"])
            .arg(&input)
            .arg("--out")
            .arg(store)
            .args(["--shard", "64"]));
        run(bin()
            .args(["load", "--store"])
            .arg(store)
            .arg("--out")
            .arg(load));
        let manifest = std::fs::read_to_string(store.join("manifest.json")).expect("manifest");
        assert!(manifest.contains("\"format\":\"colv1\""), "{manifest}");
        input = load.clone();
    }
    let [first, again] = loads
        .each_ref()
        .map(|l| std::fs::read(l).expect("read load"));
    assert!(first == again, "the carried-over store loads differently");
    assert!(
        first == std::fs::read(&corpus).expect("built"),
        "the store loads differently from `build`"
    );
    std::fs::remove_file(&corpus).ok();
    for (store, load) in stores.iter().zip(&loads) {
        std::fs::remove_dir_all(store).ok();
        std::fs::remove_file(load).ok();
    }
}

#[test]
fn capped_crawl_passes_build_the_corpus_incrementally() {
    // The interrupted-build workflow: one-pass crawls capped at two new
    // shards each until a pass writes none, one more pass with no cap,
    // then `load` — the same bytes as `build` of the same seed.
    let corpus = temp_path("incremental_corpus.json");
    let store = temp_path("incremental_store");
    let loaded = temp_path("incremental_loaded.json");
    std::fs::remove_dir_all(&store).ok();
    let sized = ["--topics", "2", "--repos", "4", "--seed", "7"];
    let run = |cmd: &mut Command| {
        let out = cmd.output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{cmd:?}: {stderr}");
        stderr
    };
    let crawl = |cap: &[&str]| {
        run(bin()
            .arg("crawl")
            .arg(&store)
            .args(sized)
            .args(["--passes", "1", "--replicas", "1", "--interval-ms", "0"])
            .args(cap))
    };
    run(bin().args(["build", "--out"]).arg(&corpus).args(sized));
    let mut capped = 0;
    while !crawl(&["--max-shards", "2"]).contains("+0 shards") {
        capped += 1;
        assert!(capped < 100, "capped passes never ran out of shards");
    }
    assert!(capped > 1, "the cap split the build over {capped} pass(es)");
    crawl(&[]);
    run(bin()
        .args(["load", "--store"])
        .arg(&store)
        .arg("--out")
        .arg(&loaded));
    assert!(
        std::fs::read(&loaded).expect("loaded") == std::fs::read(&corpus).expect("built"),
        "the incrementally crawled store loads differently from `build`"
    );
    std::fs::remove_file(&corpus).ok();
    std::fs::remove_file(&loaded).ok();
    std::fs::remove_dir_all(&store).ok();
}

/// `build` then `save`: a small colv1 store under a per-test path.
fn built_store(tag: &str, seed: &str) -> PathBuf {
    let corpus = temp_path(&format!("{tag}_corpus.json"));
    let store = temp_path(&format!("{tag}_store"));
    std::fs::remove_dir_all(&store).ok();
    let out = bin()
        .args(["build", "--out", corpus.to_str().unwrap()])
        .args(["--topics", "2", "--repos", "5", "--seed", seed])
        .output()
        .expect("run build");
    assert!(out.status.success());
    let out = bin()
        .args(["save", "--corpus", corpus.to_str().unwrap()])
        .args(["--out", store.to_str().unwrap(), "--shard", "16"])
        .output()
        .expect("run save");
    assert!(out.status.success());
    std::fs::remove_file(&corpus).ok();
    store
}

/// Starts `gittables serve` over `store` as `shards` shards on an
/// ephemeral port and waits for the `serving on http://ADDR` banner it
/// prints once ready.
fn serve(store: &std::path::Path, shards: usize) -> (std::process::Child, std::net::SocketAddr) {
    let mut child = bin()
        .args(["serve", store.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0", "--threads", "2"])
        .args(["--shards", &shards.to_string()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    {
        use std::io::BufRead;
        let stdout = child.stdout.as_mut().expect("piped stdout");
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read serve banner");
    }
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected banner `{line}`"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

fn get_ok(addr: std::net::SocketAddr, target: &str) -> String {
    let (status, body) = gittables_serve::get(addr, target).expect(target);
    assert_eq!(status, 200, "{target}: {body}");
    body
}

/// `/shutdown`, then the process must drain and exit 0.
fn shut_down(mut child: std::process::Child, addr: std::net::SocketAddr) {
    get_ok(addr, "/shutdown");
    let exit = child.wait().expect("serve exit");
    assert!(exit.success(), "serve exited with {exit:?}");
}

#[test]
fn serve_subcommand_roundtrip() {
    // build → save → serve on an ephemeral port → query → /shutdown →
    // clean exit: the CI smoke test, self-contained.
    let store = built_store("serve", "9");
    let (child, addr) = serve(&store, 1);

    let body = get_ok(addr, "/health");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let body = get_ok(addr, "/search?q=values+and+ids&k=3");
    assert!(body.starts_with('['), "{body}");
    let body = get_ok(addr, "/metrics");
    assert!(body.contains("\"store_format\":\"colv1\""), "{body}");

    shut_down(child, addr);
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn sidecar_boot_then_fallback_serves_identical_bytes() {
    // index → serve boots off the sidecar; delete it → the next boot
    // writes the same file from the store and serves byte-identical
    // answers, and the boot after that finds it fresh. A store the boot
    // cannot write is refused, naming `gittables index`.
    let store = built_store("sidecar", "5");
    let out = bin()
        .args(["index", store.to_str().unwrap()])
        .output()
        .expect("run index");
    assert!(out.status.success());
    let sidecar = store.join("index.gtsc");
    let indexed = std::fs::read(&sidecar).expect("the one sidecar file");
    let targets = [
        "/search?q=status+and+sales+amount&k=3",
        "/tables/0",
        "/types",
    ];

    let (child, addr) = serve(&store, 1);
    let metrics = get_ok(addr, "/metrics");
    assert!(metrics.contains("\"boot_path\":\"sidecar\""), "{metrics}");
    assert!(metrics.contains("\"fallback_reason\":null"), "{metrics}");
    let from_sidecar = targets.map(|t| get_ok(addr, t));
    shut_down(child, addr);

    std::fs::remove_file(&sidecar).expect("the one sidecar file");
    let out = bin()
        .args(["serve", store.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .env("GITTABLES_FAILPOINTS", "store::manifest_write=err")
        .output()
        .expect("run serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("`gittables index "), "{stderr}");
    assert!(!sidecar.exists(), "a failed write leaves no sidecar");

    for reason in ["\"no_sidecar\"", "null"] {
        let (child, addr) = serve(&store, 1);
        let metrics = get_ok(addr, "/metrics");
        assert!(metrics.contains("\"boot_path\":\"sidecar\""), "{metrics}");
        let want = format!("\"fallback_reason\":{reason}");
        assert!(metrics.contains(&want), "{metrics}");
        let from_rewritten = targets.map(|t| get_ok(addr, t));
        shut_down(child, addr);
        assert_eq!(from_sidecar, from_rewritten);
        assert!(std::fs::read(&sidecar).unwrap() == indexed, "{reason}");
    }
    std::fs::remove_dir_all(&store).ok();
}

/// `fanouts` of `/metrics`: scattered requests on the serving snapshot,
/// restarted at 0 by every reload.
fn fanouts(addr: std::net::SocketAddr) -> u64 {
    let body = get_ok(addr, "/metrics");
    let snap: gittables_serve::MetricsSnapshot = serde_json::from_str(&body).expect(&body);
    snap.fanouts
}

#[test]
fn sharded_serve_reloads_under_load_and_on_sighup() {
    // The real binary, 1 shard beside 2 over one indexed store: bytes
    // equal before and after a `POST /reload` that lands mid-hammer,
    // and `SIGHUP` is a reload too.
    mod sys {
        extern "C" {
            pub fn kill(pid: i32, sig: i32) -> i32;
        }
    }
    const SIGHUP: i32 = 1;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let store = built_store("sharded", "5");
    let out = bin()
        .args(["index", store.to_str().unwrap()])
        .output()
        .expect("run index");
    assert!(out.status.success());
    let targets = [
        "/search?q=status+and+sales+amount&k=5",
        "/search?q=species&k=20",
        "/tables/0",
        "/tables/7",
        "/types",
        "/complete?prefix=id&k=4",
    ];
    let (one, one_addr) = serve(&store, 1);
    let (two, two_addr) = serve(&store, 2);
    let same_bytes = || {
        for target in targets {
            assert_eq!(
                get_ok(one_addr, target),
                get_ok(two_addr, target),
                "bytes diverged for {target}"
            );
        }
    };
    same_bytes();

    // `POST /reload` once the hammer is under way; every one of its 200
    // requests must still be answered 200.
    let sent = Arc::new(AtomicUsize::new(0));
    let hammer = {
        let sent = sent.clone();
        std::thread::spawn(move || {
            (0..200)
                .filter(|_| {
                    sent.fetch_add(1, Ordering::SeqCst);
                    !matches!(
                        gittables_serve::get(two_addr, "/search?q=status&k=3"),
                        Ok((200, _))
                    )
                })
                .count()
        })
    };
    while sent.load(Ordering::SeqCst) < 20 {
        std::thread::yield_now();
    }
    let mut control = gittables_serve::HttpClient::connect(two_addr).expect("connect");
    let (status, body) = control.post("/reload").expect("reload");
    assert_eq!(status, 200, "{body}");
    let ack: gittables_serve::ReloadResponse = serde_json::from_str(&body).expect(&body);
    assert_eq!(
        (ack.status.as_str(), ack.generation, ack.shards),
        ("reloaded", 1, 2)
    );
    assert_eq!(hammer.join().expect("hammer"), 0, "failed requests");
    same_bytes();

    // SIGHUP: observed as `fanouts` restarting at 0 (a new snapshot),
    // then as the next `POST /reload` being generation 3.
    get_ok(two_addr, "/search?q=sighup+probe&k=1");
    assert!(fanouts(two_addr) > 0);
    let pid = i32::try_from(two.id()).expect("pid");
    assert_eq!(unsafe { sys::kill(pid, SIGHUP) }, 0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while fanouts(two_addr) > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "SIGHUP never reloaded"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let (status, body) = control.post("/reload").expect("reload after SIGHUP");
    assert_eq!(status, 200, "{body}");
    let ack: gittables_serve::ReloadResponse = serde_json::from_str(&body).expect(&body);
    assert_eq!(ack.generation, 3, "{body}");
    same_bytes();

    shut_down(one, one_addr);
    shut_down(two, two_addr);
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn unparsable_numbers_exit_2_and_write_nothing() {
    // A numeric flag that is present must hold a number, and every flag
    // must be one the command reads: the command never runs on a default
    // in place of what was typed.
    let store = temp_path("badnum_store");
    let corpus = temp_path("badnum_corpus.json");
    let (store_arg, corpus_arg) = (store.to_str().unwrap(), corpus.to_str().unwrap());
    let cases: [(&[&str], &str); 8] = [
        (
            &["serve", store_arg, "--shards", "two"],
            "invalid --shards value: two",
        ),
        (
            &["crawl", store_arg, "--passes", "1O"],
            "invalid --passes value: 1O",
        ),
        (
            &["build", "--out", corpus_arg, "--topics", "x"],
            "invalid --topics value: x",
        ),
        (
            &["search", "--corpus", corpus_arg, "--query", "q", "--k"],
            "--k needs a value",
        ),
        // A flag is never a value: this once wrote a store named `--shard`.
        (
            &["save", "--corpus", corpus_arg, "--out", "--shard", "4"],
            "--out needs a value",
        ),
        // A flag the command does not read is refused before it runs: a
        // script passing `--format jsonl` never silently gets a colv1
        // store, and a misspelt flag never runs on the default.
        (
            &[
                "save", "--corpus", corpus_arg, "--out", store_arg, "--format", "jsonl",
            ],
            "save does not read --format",
        ),
        (
            &["crawl", store_arg, "--pases", "1", "--replicas", "1"],
            "crawl does not read --pases",
        ),
        (&["migrate", store_arg, "--to", "jsonl"], "usage: gittables"),
    ];
    for (args, message) in cases {
        let out = bin().args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: gittables"), "{args:?}: {stderr}");
        assert!(
            !store.exists() && !corpus.exists(),
            "{args:?} wrote something"
        );
    }
}

#[test]
fn usage_on_unknown_command() {
    let out = bin().arg("nonsense").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_required_option_fails_cleanly() {
    let out = bin().args(["stats"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--corpus"));
}
