//! Scale-out correctness battery: a corpus served by N shard-local
//! engines behind the scatter-gather [`Router`] must answer every
//! endpoint **byte-identically** to the single whole-corpus engine —
//! for random corpora and every shard count (proptest), and at the HTTP
//! level between two running servers. Live `/reload` under concurrent
//! load must drop or corrupt zero responses.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use gittables_annotate::Annotation;
use gittables_corpus::{save_store, AnnotatedTable, Corpus};
use gittables_serve::{
    build_sidecars, get, HttpClient, QueryEngine, ReloadResponse, ReloadSpec, Router, Server,
    ServerConfig, ShardSet,
};
use gittables_table::{Provenance, Table};
use proptest::prelude::*;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gt_shard_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Cell vocabulary stressing encoding paths, duplicate schemas (for the
/// completion dedup), and shared type labels across shard boundaries.
const NASTY: &[&str] = &[
    "plain",
    "",
    "nan",
    "has,comma",
    "café ☕ 表",
    "two\nlines",
    "123",
    "true",
];

#[derive(Debug, Clone)]
struct Spec {
    tables: Vec<(usize, usize)>,
    salt: u64,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (1usize..9, 1usize..4, 0usize..5, 0u64..u64::MAX).prop_map(|(n, cols, rows, salt)| Spec {
        tables: (0..n)
            .map(|i| (1 + (cols + i) % 4, (rows + 3 * i) % 5))
            .collect(),
        salt,
    })
}

fn build_corpus(spec: &Spec) -> Corpus {
    let mut corpus = Corpus::new(format!("shard-{}", spec.salt % 997));
    for (ti, &(cols, rows)) in spec.tables.iter().enumerate() {
        // Every third table repeats the schema of table 0: duplicate
        // schemas land in different shards, which only a corpus-global
        // completion index dedups like the single engine does.
        let schema_tag = if ti % 3 == 0 { 0 } else { ti };
        let header: Vec<String> = (0..cols).map(|c| format!("col{c}_{schema_tag}")).collect();
        let row_data: Vec<Vec<String>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let k = spec
                            .salt
                            .wrapping_mul(31)
                            .wrapping_add((ti * 131 + r * 17 + c) as u64);
                        NASTY[(k % NASTY.len() as u64) as usize].to_string()
                    })
                    .collect()
            })
            .collect();
        let prov = Provenance::new(format!("owner/repo{}", ti % 3), format!("data/t{ti}.csv"))
            .with_topic(NASTY[(spec.salt as usize + ti) % NASTY.len()]);
        let table = Table::from_string_rows(format!("t{ti}"), &header, row_data)
            .unwrap()
            .with_provenance(prov);
        let mut at = AnnotatedTable::new(table);
        for (si, (method, ontology)) in Corpus::annotation_configs().into_iter().enumerate() {
            let slot = at.annotations_mut(method, ontology);
            slot.num_columns = cols;
            for c in 0..cols {
                if (spec.salt as usize + ti + si + c).is_multiple_of(2) {
                    slot.annotations.push(Annotation {
                        column: c,
                        type_id: ((spec.salt as u32).wrapping_add(c as u32)) % 1000,
                        // A small label pool so the same label spans
                        // multiple shards and /types must sum counts.
                        label: format!("type {}", (ti + c) % 3),
                        ontology,
                        method,
                        similarity: ((spec.salt % 1000) as f32).mul_add(1e-3, 1e-4 * c as f32),
                    });
                }
            }
        }
        corpus.push(at);
    }
    corpus
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// Serializes every endpoint answer of a router, in deterministic order.
fn router_bytes(router: &Router) -> Vec<String> {
    let mut out = vec![json(&router.health())];
    for (q, k) in [
        ("status and sales amount", 3),
        ("col0", 1),
        ("café ☕ 表", 20),
        ("", 2),
        ("col1 col2", 0),
    ] {
        out.push(json(&router.search(q, k).unwrap()));
    }
    for prefix in [vec!["col0_0"], vec!["col0_1", "col1_1"], vec!["nope"]] {
        for k in [0, 2, 20] {
            out.push(json(&router.complete(&prefix, k).unwrap()));
        }
    }
    out.push(json(&router.type_counts().unwrap()));
    for tc in router.type_counts().unwrap() {
        out.push(json(&router.type_tables(&tc.label).unwrap()));
    }
    out.push(json(&router.type_tables("zzz_not_a_type").unwrap()));
    for id in 0..router.num_tables() + 2 {
        out.push(json(&router.try_table_summary(id).unwrap()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random corpora: every shard count answers every endpoint
    /// byte-identically to the single whole-corpus engine, on a store
    /// indexed beforehand and on one whose first boot writes its sidecar.
    #[test]
    fn any_shard_count_matches_single_engine(
        spec in spec_strategy(),
        shards in 2usize..6,
        with_sidecars in any::<bool>(),
    ) {
        let corpus = build_corpus(&spec);
        let dir = tmp("prop");
        save_store(&corpus, &dir, 2).unwrap();
        if with_sidecars {
            build_sidecars(&dir).unwrap();
        }

        let single = Router::new(ShardSet::load(&dir, 1).unwrap());
        prop_assert_eq!(single.num_shards(), 1);
        let reason = (!with_sidecars).then(|| "no_sidecar".to_string());
        prop_assert_eq!(&single.shard_set().build_stats().fallback_reason, &reason);
        let sharded = Router::new(ShardSet::load(&dir, shards).unwrap());
        prop_assert_eq!(&sharded.shard_set().build_stats().boot_path, "sidecar");
        prop_assert_eq!(&sharded.shard_set().build_stats().fallback_reason, &None);

        let want = router_bytes(&single);
        let got = router_bytes(&sharded);
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g, w,
                "endpoint {} differs at {} shards (sidecars: {})",
                i, shards, with_sidecars
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sharded_server_http_bytes_equal_single_shard_server() {
    // Two live servers over the same store — one engine vs three shard
    // engines — must emit byte-identical HTTP bodies for every target.
    let corpus = build_corpus(&Spec {
        tables: vec![(3, 4), (2, 2), (4, 1), (1, 3), (2, 3), (3, 0), (1, 1)],
        salt: 20260808,
    });
    let dir = tmp("http");
    save_store(&corpus, &dir, 2).unwrap();
    build_sidecars(&dir).unwrap();

    let one = Server::start_set(
        ShardSet::load(&dir, 1).unwrap(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let set = ShardSet::load(&dir, 3).unwrap();
    assert_eq!(set.num_shards(), 3);
    let three = Server::start_set(set, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut targets = vec![
        "/health".to_string(),
        "/search?q=col0&k=5".to_string(),
        "/search?q=caf%C3%A9&k=20".to_string(),
        "/complete?prefix=col0_0&k=10".to_string(),
        "/complete?prefix=nope&k=3".to_string(),
        "/types".to_string(),
        "/types/type%200/tables".to_string(),
        "/types/zzz_nope/tables".to_string(),
        "/tables/notanid".to_string(),
    ];
    for id in 0..corpus.len() + 2 {
        targets.push(format!("/tables/{id}"));
    }
    for target in &targets {
        let (s1, b1) = get(one.addr(), target).expect("single-shard request");
        let (s3, b3) = get(three.addr(), target).expect("sharded request");
        assert_eq!(s1, s3, "{target}");
        assert_eq!(b1, b3, "HTTP bytes diverged for {target}");
    }
    // The edges of the bounded top-k selection: keep nothing, keep
    // everything (`usize::MAX` must not overflow a `k - 1` or a capacity).
    for target in [
        "/search?q=col0&k=0",
        "/search?q=col0&k=18446744073709551615",
        "/complete?prefix=col0_0&k=0",
        "/complete?prefix=col0_0&k=18446744073709551615",
    ] {
        let (s1, b1) = get(one.addr(), target).expect("single-shard request");
        let (s3, b3) = get(three.addr(), target).expect("sharded request");
        assert_eq!((s1, s3), (200, 200), "{target}: {b1} / {b3}");
        assert_eq!(b1, b3, "HTTP bytes diverged for {target}");
        assert_eq!(b1 == "[]", target.ends_with("k=0"), "{target}: {b1}");
    }
    // Keep-everything ranks every table, as the in-process 1-shard engine.
    let every = QueryEngine::load(&dir).unwrap().search("col0", usize::MAX);
    assert_eq!(every.len(), corpus.len());
    let (_, body) = get(three.addr(), "/search?q=col0&k=18446744073709551615").unwrap();
    assert_eq!(body, json(&every));

    one.shutdown();
    three.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Structural (not timed) guard on the N-shard boot: every shard count
/// takes the sidecar path, and the completion index is one corpus-global
/// `Arc` shared by all engines — nothing is rebuilt or re-embedded per
/// shard.
#[test]
fn every_shard_count_boots_from_sidecars_sharing_one_completion_index() {
    let corpus = build_corpus(&Spec {
        tables: vec![
            (3, 4),
            (2, 2),
            (4, 1),
            (1, 3),
            (2, 3),
            (3, 0),
            (1, 1),
            (2, 1),
        ],
        salt: 7,
    });
    let dir = tmp("structure");
    save_store(&corpus, &dir, 2).unwrap();
    build_sidecars(&dir).unwrap();
    for shards in [1, 2, 4] {
        let set = ShardSet::load(&dir, shards).unwrap();
        assert_eq!(set.num_shards(), shards);
        assert_eq!(set.build_stats().boot_path, "sidecar", "{shards} shards");
        assert_eq!(set.build_stats().fallback_reason, None);
        let shared = set.engines()[0].completion();
        for engine in set.engines() {
            assert_eq!(engine.build_stats().boot_path, "sidecar");
            assert!(
                Arc::ptr_eq(engine.completion(), shared),
                "{shards} shards: an engine holds its own completion index"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_swaps_snapshots_under_load_without_dropping_responses() {
    // Serve corpus A, hammer it from concurrent clients, rewrite the
    // store to corpus B mid-load, POST /reload: every response ever
    // received must be a complete, byte-exact answer from exactly one
    // of the two snapshots — no failures, no hybrids.
    let spec_a = Spec {
        tables: vec![(2, 3), (3, 1), (1, 4), (2, 2)],
        salt: 11,
    };
    let spec_b = Spec {
        tables: vec![(3, 2), (1, 1), (2, 5), (3, 3), (1, 2)],
        salt: 22,
    };
    let corpus_a = build_corpus(&spec_a);
    let dir = tmp("reload");
    save_store(&corpus_a, &dir, 2).unwrap();

    let target = "/search?q=col0&k=4";
    let body_a = json(
        &Router::new(ShardSet::load(&dir, 2).unwrap())
            .search("col0", 4)
            .unwrap(),
    );

    let handle = Server::start_set(
        ShardSet::load(&dir, 2).unwrap(),
        "127.0.0.1:0",
        ServerConfig {
            threads: 3,
            // No response cache: every request exercises the snapshot
            // it pinned, making a half-swapped answer detectable.
            cache_capacity: 0,
            reload: Some(ReloadSpec {
                dir: dir.clone(),
                shards: 2,
            }),
        },
    )
    .unwrap();
    let addr = handle.addr();
    assert_eq!(handle.num_shards(), 2);

    // Corpus B only exists after this point; compute its expected bytes
    // from an independent load.
    std::fs::remove_dir_all(&dir).unwrap();
    let corpus_b = build_corpus(&spec_b);
    save_store(&corpus_b, &dir, 3).unwrap();
    let body_b = json(
        &Router::new(ShardSet::load(&dir, 2).unwrap())
            .search("col0", 4)
            .unwrap(),
    );
    assert_ne!(body_a, body_b, "snapshots must be distinguishable");

    let stop = Arc::new(AtomicBool::new(false));
    let saw_b = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicUsize::new(0));
    let mut hammers = Vec::new();
    for _ in 0..4 {
        let (stop, saw_b, total) = (stop.clone(), saw_b.clone(), total.clone());
        let (body_a, body_b) = (body_a.clone(), body_b.clone());
        hammers.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            while !stop.load(Ordering::SeqCst) {
                // Zero tolerance: under reload (unlike shutdown) every
                // single request must succeed with a full answer.
                let (status, body) = client.get(target).expect("request during reload");
                assert_eq!(status, 200);
                total.fetch_add(1, Ordering::SeqCst);
                if body == body_b {
                    saw_b.store(true, Ordering::SeqCst);
                } else {
                    assert_eq!(body, body_a, "response from neither snapshot");
                }
            }
        }));
    }

    // Let the hammer settle on snapshot A, then swap under load.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut admin = HttpClient::connect(addr).expect("admin connect");
    let (status, body) = admin.post("/reload").expect("reload");
    assert_eq!(status, 200, "{body}");
    let ack: ReloadResponse = serde_json::from_str(&body).expect("reload JSON");
    assert_eq!(ack.status, "reloaded");
    assert_eq!(ack.generation, 1);
    assert_eq!(ack.shards, 2);
    assert_eq!(ack.tables, corpus_b.len());

    // Post-reload traffic must be answered from snapshot B.
    std::thread::sleep(std::time::Duration::from_millis(150));
    stop.store(true, Ordering::SeqCst);
    for h in hammers {
        h.join().expect("hammer thread");
    }
    assert!(saw_b.load(Ordering::SeqCst), "swap never became visible");
    assert!(total.load(Ordering::SeqCst) > 0, "hammer never ran");
    let (_, body) = get(addr, target).expect("post-reload request");
    assert_eq!(body, body_b);
    assert_eq!(handle.generation(), 1);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_method_and_availability_errors() {
    let corpus = build_corpus(&Spec {
        tables: vec![(2, 2), (1, 1)],
        salt: 33,
    });
    let dir = tmp("reload_err");
    save_store(&corpus, &dir, 8).unwrap();

    // Without a ReloadSpec the endpoint is a 409, not a 404: the route
    // exists, this deployment just cannot reload.
    let fixed = Server::start_set(
        ShardSet::load(&dir, 1).unwrap(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut c = HttpClient::connect(fixed.addr()).unwrap();
    let (status, _) = c.post("/reload").expect("post");
    assert_eq!(status, 409);
    fixed.shutdown();

    // With a spec: GET is a 405 (reload mutates state), POST works.
    let live = Server::start_set(
        ShardSet::load(&dir, 2).unwrap(),
        "127.0.0.1:0",
        ServerConfig {
            reload: Some(ReloadSpec {
                dir: dir.clone(),
                shards: 2,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (status, _) = get(live.addr(), "/reload").expect("get");
    assert_eq!(status, 405);
    let mut c = HttpClient::connect(live.addr()).unwrap();
    let (status, body) = c.post("/reload").expect("post");
    assert_eq!(status, 200, "{body}");

    // A reload pointing at a now-broken store keeps the old snapshot.
    std::fs::remove_dir_all(&dir).unwrap();
    let (status, _) = c.post("/reload").expect("post after store loss");
    assert_eq!(status, 500);
    let (status, _) = get(live.addr(), "/health").expect("health");
    assert_eq!(status, 200, "old snapshot must keep serving");

    live.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_engine_start_still_serves() {
    // `Server::start` (the pre-scale-out API) must behave exactly as a
    // 1-shard start_set: existing callers see no change.
    let corpus = build_corpus(&Spec {
        tables: vec![(2, 2), (3, 1)],
        salt: 44,
    });
    let dir = tmp("compat");
    save_store(&corpus, &dir, 4).unwrap();
    let engine = Arc::new(QueryEngine::load(&dir).unwrap());
    let expected = json(&engine.search("col0", 3));
    let handle = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    assert_eq!(handle.num_shards(), 1);
    let (status, body) = get(handle.addr(), "/search?q=col0&k=3").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, expected);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a digest over the ranked answers of three fixed `/search` and
/// three fixed `/complete` queries against the pipeline corpus of
/// `PipelineConfig::sized(42, 3, 6)`: `(table_index, score bits)` per
/// search hit, `(attributes, distance bits)` per completion. The
/// constants were computed on commit ce1d5a7 — before the word-vector
/// memo and the row-blocked scoring kernel — so the in-binary oracles
/// (N-shard == 1-shard, blocked == per-row) are backed by one that spans
/// that change.
#[test]
fn search_and_complete_bits_equal_the_digest_pinned_at_the_parent_commit() {
    use gittables_core::{Pipeline, PipelineConfig};
    use gittables_githost::GitHost;

    const ANSWERS_AT_PARENT: usize = 53;
    const DIGEST_AT_PARENT: u64 = 0xe638_c132_e573_79de;

    let pipeline = Pipeline::new(PipelineConfig::sized(42, 3, 6));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);
    let dir = tmp("golden");
    save_store(&corpus, &dir, 16).unwrap();

    let digest_of = |router: &Router| {
        let mut bytes = Vec::new();
        let mut answers = 0usize;
        for (q, k) in [
            ("status and sales amount per product", 10),
            ("order date", 5),
            ("species habitat", 20),
        ] {
            for hit in router.search(q, k).unwrap() {
                bytes.extend_from_slice(&(hit.table_index as u64).to_le_bytes());
                bytes.extend_from_slice(&hit.score.to_bits().to_le_bytes());
                answers += 1;
            }
        }
        for (prefix, k) in [
            (vec!["order id", "order date"], 5),
            (vec!["id"], 10),
            (vec!["name", "price", "status"], 3),
        ] {
            for c in router.complete(&prefix, k).unwrap() {
                for a in c.schema.iter() {
                    bytes.extend_from_slice(a.as_bytes());
                    bytes.push(0);
                }
                bytes.extend_from_slice(&c.prefix_distance.to_bits().to_le_bytes());
                answers += 1;
            }
        }
        (answers, gittables_embed::fnv1a(&bytes))
    };

    for shards in [1, 2] {
        let (answers, digest) = digest_of(&Router::new(ShardSet::load(&dir, shards).unwrap()));
        assert_eq!(
            (answers, digest),
            (ANSWERS_AT_PARENT, DIGEST_AT_PARENT),
            "{shards} shard(s): ranked bits moved: {answers} answers, digest {digest:#018x}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
