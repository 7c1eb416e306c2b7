//! The scatter-gather [`Router`]: one query surface over a
//! [`ShardSet`], answer-for-answer identical to a whole-corpus
//! [`QueryEngine`].
//!
//! Fan-out queries (`/search`, `/types`, `/types/{label}/tables`) run on
//! every shard engine, one after another in shard order, on the thread
//! that took the request, and the per-shard answers are merged. The
//! router owns no threads: a request never changes threads, and
//! whatever the shards have in common is computed once — a `/search`
//! query is embedded once and the vector shared by every shard's
//! ranking, and every shard scores its own run of the one packed copy of
//! the search rows the snapshot made at boot (`rows × dim × 4` bytes per
//! snapshot, not per shard; see `gittables_core::apps::search`).
//! `/tables/{id}` routes to the owning shard by the stable-id
//! directory. `/complete` does not fan out: the completion index is
//! corpus-global and shared by every engine, so one engine's answer *is*
//! the whole-corpus answer.
//!
//! The trade: on an idle multi-core machine one request to an
//! N-shard snapshot takes the *sum* of its shards' engine time, not the
//! maximum. In exchange no shard costs a thread handoff, and no shard
//! has a thread of its own that every concurrent request's work on that
//! shard must pass through: under load the server's `--threads` workers
//! share all shards' work between them.
//!
//! The merges reproduce the single-engine rankings exactly:
//!
//! * **search** — each shard ranks to `(entry, score)` pairs sorted by
//!   (score desc, entry order); entry order across shards is (shard,
//!   local order) because ids ascend within and across shards. Taking
//!   the head with the strictly greatest score (ties and non-comparables
//!   fall to the lowest shard) replays the whole-corpus order. A
//!   shard-local top-k suffices globally: any entry ahead of a survivor
//!   locally is ahead of it globally too. Only the `k` pairs the merge
//!   keeps become [`SearchHit`]s. A hit's schema is a shared reference
//!   to the owning shard's list, so what merging first still saves is
//!   the other (N−1)·k hits' reference counts and the per-shard hit
//!   vectors, not a copy of their attributes.
//! * **types** — counts sum per label (shard ranges are disjoint, so
//!   distinct-table counts add); posting lists concatenate in shard
//!   order, which is global scan order.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gittables_core::apps::{SchemaCompletion, SearchHit};
use gittables_corpus::{StoreError, TableId, TypeCount};
use gittables_embed::MemoStats;

use crate::engine::{
    EngineBuildStats, HealthResponse, QueryEngine, TableSummary, TypeTablesResponse,
};
use crate::shardset::ShardSet;

/// A [`ShardSet`] plus the precomputed whole-corpus facts (`/health`)
/// that would otherwise cost a fan-out per liveness probe. One router is
/// one immutable corpus snapshot; reload swaps the whole router.
pub struct Router {
    set: ShardSet,
    health: HealthResponse,
    fanouts: AtomicU64,
}

impl Router {
    /// Wraps a shard set, precomputing the merged `/health` answer.
    #[must_use]
    pub fn new(set: ShardSet) -> Self {
        let corpus = set
            .engines()
            .first()
            .map(|e| e.health().corpus)
            .unwrap_or_default();
        // Distinct labels across shards; a label's postings may span
        // several shard ranges, so this dedups rather than sums.
        let types = set
            .engines()
            .iter()
            .flat_map(|e| e.type_index().labels())
            .collect::<HashSet<_>>()
            .len();
        let health = HealthResponse {
            status: "ok".to_string(),
            corpus,
            tables: set.num_tables(),
            types,
        };
        Router {
            set,
            health,
            fanouts: AtomicU64::new(0),
        }
    }

    /// The underlying shard set.
    #[must_use]
    pub fn shard_set(&self) -> &ShardSet {
        &self.set
    }

    /// Number of shard-local engines behind this router.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.set.num_shards()
    }

    /// Total tables served.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.set.num_tables()
    }

    /// The set-level cold-start breakdown (served under `/metrics`).
    #[must_use]
    pub fn build_stats(&self) -> &EngineBuildStats {
        self.set.build_stats()
    }

    /// Word-vector memo counters of the snapshot's query embedders: shard
    /// 0 embeds every `/search` query and every engine shares the one
    /// completion index, so shard 0's engine holds them all.
    #[must_use]
    pub fn word_memo_stats(&self) -> MemoStats {
        self.set.engines()[0].word_memo_stats()
    }

    /// Requests this snapshot has scattered to every shard (served under
    /// `/metrics`). Counted from construction, so — like `build_stats` —
    /// a reload resets it; always 0 on a 1-shard set, which never
    /// scatters.
    #[must_use]
    pub fn fanouts(&self) -> u64 {
        self.fanouts.load(Ordering::Relaxed)
    }

    /// Runs `f` on every shard engine in shard order, on the calling
    /// thread, and returns the answers in that order.
    ///
    /// Every per-shard call is panic-isolated ([`isolated`]), so a
    /// crashing shard neither unwinds into the server nor keeps the
    /// shards after it from running: once every shard has run, the
    /// lowest panicking one is reported as a typed [`ShardPanic`].
    fn fan_out<T>(
        &self,
        injected: Option<usize>,
        f: impl Fn(&QueryEngine) -> T,
    ) -> Result<Vec<T>, ShardPanic> {
        let engines = self.set.engines();
        if engines.len() > 1 {
            self.fanouts.fetch_add(1, Ordering::Relaxed);
        }
        let answers: Vec<Result<T, ShardPanic>> = engines
            .iter()
            .enumerate()
            .map(|(shard, e)| isolated(shard, injected, || f(e)))
            .collect();
        answers.into_iter().collect()
    }

    /// `/search`: embed the query once, rank it on all shards as
    /// `(entry, score)` pairs, merge by (score desc, lowest shard) —
    /// bit-identical to the whole-corpus ranking — and only then
    /// materialize the `k` winners, each sharing its shard's schema.
    ///
    /// # Errors
    /// [`ShardPanic`] when a shard's query panicked.
    pub fn search(&self, query: &str, k: usize) -> Result<Vec<SearchHit>, ShardPanic> {
        let injected = injected_panic_shard();
        let engines = self.set.engines();
        // Every engine of a snapshot embeds alike; shard 0 does it for all.
        let embedded = isolated(0, injected, || engines[0].embed_query(query))?;
        let per = self.fan_out(injected, |e| e.search_index().rank(&embedded, k))?;
        Ok(merge_by(per, k, |a, b| {
            a.1.partial_cmp(&b.1) == Some(std::cmp::Ordering::Greater)
        })
        .into_iter()
        .map(|(shard, (entry, score))| engines[shard].search_index().hit(entry, score))
        .collect())
    }

    /// `/complete`: one panic-isolated call on shard 0 — every engine
    /// shares the corpus-global completion index, so there is nothing to
    /// scatter or merge.
    ///
    /// # Errors
    /// [`ShardPanic`] when the call panicked.
    pub fn complete(&self, prefix: &[&str], k: usize) -> Result<Vec<SchemaCompletion>, ShardPanic> {
        let engine = &self.set.engines()[0];
        isolated(0, injected_panic_shard(), || engine.complete(prefix, k))
    }

    /// `/types`: per-label counts summed across shards, in label order.
    ///
    /// # Errors
    /// [`ShardPanic`] when a shard's query panicked.
    pub fn type_counts(&self) -> Result<Vec<TypeCount>, ShardPanic> {
        let mut acc: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for counts in self.fan_out(injected_panic_shard(), QueryEngine::type_counts)? {
            for c in counts {
                let e = acc.entry(c.label).or_insert((0, 0));
                e.0 += c.postings;
                e.1 += c.tables;
            }
        }
        Ok(acc
            .into_iter()
            .map(|(label, (postings, tables))| TypeCount {
                label,
                postings,
                tables,
            })
            .collect())
    }

    /// `/types/{label}/tables`: concatenates the shards' posting lists
    /// and table lists in shard order (= ascending id order). `Ok(None)`
    /// when no shard indexes the label.
    ///
    /// # Errors
    /// [`ShardPanic`] when a shard's query panicked.
    pub fn type_tables(&self, label: &str) -> Result<Option<TypeTablesResponse>, ShardPanic> {
        let per = self.fan_out(injected_panic_shard(), |e| e.type_tables(label))?;
        let mut found = false;
        let mut tables = Vec::new();
        let mut postings = Vec::new();
        for r in per.into_iter().flatten() {
            found = true;
            tables.extend(r.tables);
            postings.extend(r.postings);
        }
        Ok(found.then(|| TypeTablesResponse {
            label: label.to_string(),
            tables,
            postings,
        }))
    }

    /// `/tables/{id}`: routes to the owning shard via the stable-id
    /// directory; `Ok(None)` when no shard owns the id.
    ///
    /// # Errors
    /// Propagates the owning engine's store errors (corrupt lazy block).
    pub fn try_table_summary(&self, id: TableId) -> Result<Option<TableSummary>, StoreError> {
        match self.set.directory().owner_of(id) {
            None => Ok(None),
            Some(g) => self.set.engines()[g].try_table_summary(id),
        }
    }

    /// `/health`: precomputed at construction (corpus-level facts never
    /// change within a snapshot).
    #[must_use]
    pub fn health(&self) -> HealthResponse {
        self.health.clone()
    }

    /// The single engine of a 1-shard router (tests and the bench use
    /// this to compare against the unsharded path).
    #[must_use]
    pub fn engines(&self) -> &[Arc<QueryEngine>] {
        self.set.engines()
    }
}

/// A shard's query panicked during a scatter-gather fan-out. The
/// router reports this as a typed error — surfaced by the HTTP layer as
/// a 500 and counted in `/metrics` (`shard_errors`) — instead of letting
/// the panic unwind through the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPanic {
    /// Index of the panicking shard (lowest, when several panicked).
    pub shard: usize,
}

impl std::fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} query panicked", self.shard)
    }
}

impl std::error::Error for ShardPanic {}

/// The env hook `GITTABLES_PANIC_SHARD=<idx>`: injects a panic into
/// that shard's calls, for exercising the failure path end to end.
fn injected_panic_shard() -> Option<usize> {
    std::env::var("GITTABLES_PANIC_SHARD")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Runs one shard's call, turning a panic into a typed [`ShardPanic`].
fn isolated<T>(
    shard: usize,
    injected: Option<usize>,
    f: impl FnOnce() -> T,
) -> Result<T, ShardPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert!(
            Some(shard) != injected,
            "injected shard panic (GITTABLES_PANIC_SHARD={shard})"
        );
        f()
    }))
    .map_err(|_| ShardPanic { shard })
}

/// K-way merge of per-shard lists, each already sorted by the same
/// order `better` induces: repeatedly take the head that is strictly
/// `better` than every lower-shard head (ties fall to the lowest
/// shard, replaying the whole-corpus stable sort's entry order). Each
/// item comes out beside the shard it came from.
fn merge_by<T>(per: Vec<Vec<T>>, k: usize, better: impl Fn(&T, &T) -> bool) -> Vec<(usize, T)> {
    let mut queues: Vec<VecDeque<T>> = per.into_iter().map(Into::into).collect();
    let mut out = Vec::with_capacity(k.min(64));
    while out.len() < k {
        let mut best: Option<usize> = None;
        for g in 0..queues.len() {
            let Some(head) = queues[g].front() else {
                continue;
            };
            best = Some(match best {
                None => g,
                Some(b) => {
                    let b_head = queues[b].front().expect("best queue non-empty");
                    if better(head, b_head) {
                        g
                    } else {
                        b
                    }
                }
            });
        }
        let Some(g) = best else { break };
        out.push((g, queues[g].pop_front().expect("picked head exists")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_corpus::{AnnotatedTable, Corpus};
    use gittables_table::Table;

    /// A corpus with duplicate schemas placed so shard splits separate
    /// them — only a corpus-global completion index dedups them right.
    fn corpus() -> Corpus {
        let mut c = Corpus::new("router-test");
        let schemas: Vec<Vec<&str>> = vec![
            vec!["order_id", "status", "total_price"],
            vec!["species", "habitat", "diet"],
            vec!["order_id", "status", "total_price"], // dup of 0
            vec!["city", "country", "population"],
            vec!["species", "habitat", "diet"], // dup of 1
            vec!["player", "team", "score"],
            vec!["city", "country", "population"], // dup of 3
        ];
        for (i, attrs) in schemas.iter().enumerate() {
            let row: Vec<&str> = attrs.iter().map(|_| "v").collect();
            let t = Table::from_rows(format!("t{i}"), attrs, &[row]).unwrap();
            let mut at = AnnotatedTable::new(t);
            at.syntactic_dbpedia.annotations = vec![gittables_annotate::Annotation {
                column: 0,
                type_id: 0,
                label: if i % 2 == 0 { "identifier" } else { "name" }.into(),
                ontology: gittables_ontology::OntologyKind::DBpedia,
                method: gittables_annotate::Method::Syntactic,
                similarity: 1.0,
            }];
            c.push(at);
        }
        c
    }

    /// Every endpoint answer must match the whole-corpus engine exactly,
    /// for every shard count.
    #[test]
    fn sharded_answers_match_single_engine() {
        let c = corpus();
        let reference = QueryEngine::from_corpus(c.clone());
        for n in 1..=7 {
            let router = Router::new(ShardSet::from_corpus(&c, n));
            for k in [0, 1, 3, 7, 20] {
                for q in ["order status", "species", "population of cities", ""] {
                    assert_eq!(
                        router.search(q, k).unwrap(),
                        reference.search(q, k),
                        "search n={n} k={k} q={q:?}"
                    );
                }
                for prefix in [
                    &["order_id"][..],
                    &["species", "habitat"][..],
                    &["city"][..],
                ] {
                    assert_eq!(
                        router.complete(prefix, k).unwrap(),
                        reference.complete(prefix, k),
                        "complete n={n} k={k} prefix={prefix:?}"
                    );
                }
            }
            assert_eq!(
                router.type_counts().unwrap(),
                reference.type_counts(),
                "types n={n}"
            );
            for label in ["identifier", "name", "nope"] {
                assert_eq!(
                    router.type_tables(label).unwrap(),
                    reference.type_tables(label),
                    "type_tables n={n} {label}"
                );
            }
            for id in 0..8 {
                assert_eq!(
                    router.try_table_summary(id).unwrap(),
                    reference.try_table_summary(id).unwrap(),
                    "table n={n} id={id}"
                );
            }
            assert_eq!(router.health(), reference.health(), "health n={n}");
        }
    }

    /// Fan-outs running at once on one 4-shard router stay independent:
    /// 8 threads × 200 mixed calls, every answer the single engine's.
    #[test]
    fn concurrent_fan_outs_match_the_single_engine() {
        let c = corpus();
        let reference = QueryEngine::from_corpus(c.clone());
        let router = Router::new(ShardSet::from_corpus(&c, 4));
        assert_eq!(router.num_shards(), 4);
        let queries = ["order status", "species", "population of cities", "player"];
        let labels = ["identifier", "name", "nope"];
        std::thread::scope(|s| {
            for t in 0..8 {
                let (router, reference) = (&router, &reference);
                s.spawn(move || {
                    for i in 0..200 {
                        // Distinct (query, k) per thread and step, so an
                        // answer meant for another call cannot pass.
                        match (t + i) % 3 {
                            0 => {
                                let (q, k) = (queries[(t + i / 3) % 4], 1 + (t + i) % 7);
                                assert_eq!(router.search(q, k).unwrap(), reference.search(q, k));
                            }
                            1 => assert_eq!(router.type_counts().unwrap(), reference.type_counts()),
                            _ => {
                                let label = labels[(t + i / 3) % 3];
                                assert_eq!(
                                    router.type_tables(label).unwrap(),
                                    reference.type_tables(label)
                                );
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(router.fanouts(), 8 * 200, "every call scattered once");
    }

    #[test]
    fn one_shard_router_counts_no_fan_outs() {
        let router = Router::new(ShardSet::from_corpus(&corpus(), 1));
        router.search("order status", 3).unwrap();
        router.type_counts().unwrap();
        router.type_tables("name").unwrap();
        assert_eq!(router.fanouts(), 0);
    }

    /// A panic on one shard neither stops the shards after it nor hides
    /// a lower one: shard 1 (injected) and shard 2 (its own call) panic,
    /// shards 0, 2 and 3 all run, and the error names shard 1.
    #[test]
    fn a_shard_panic_names_the_lowest_shard_after_every_shard_ran() {
        let router = Router::new(ShardSet::from_corpus(&corpus(), 4));
        let second = Arc::clone(&router.engines()[2]);
        let calls = AtomicU64::new(0);
        let answer = router.fan_out(Some(1), |e| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(!std::ptr::eq(e, &*second), "shard 2 fails on its own");
        });
        assert_eq!(answer, Err(ShardPanic { shard: 1 }));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(router.fanouts(), 1);
    }

    /// A routed hit is the owning shard's schema, shared: its attribute
    /// list is the one that shard's search index holds.
    #[test]
    fn sharded_hits_share_the_owning_shard_schemas() {
        let router = Router::new(ShardSet::from_corpus(&corpus(), 2));
        let hits = router.search("order status", usize::MAX).unwrap();
        assert_eq!(hits.len(), router.num_tables());
        for hit in &hits {
            let owner = router.shard_set().directory().owner_of(hit.table_index);
            let index = router.engines()[owner.expect("owned id")].search_index();
            let entry = index
                .entry_ids()
                .iter()
                .position(|&id| id == hit.table_index);
            let schema = &index.entry_schemas()[entry.expect("entry of its owner")];
            assert_eq!(
                hit.schema.attributes().as_ptr(),
                schema.attributes().as_ptr()
            );
        }
    }

    #[test]
    fn merge_prefers_lowest_shard_on_ties() {
        let merged = merge_by(
            vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 2.0)]],
            3,
            |a, b| a.1 > b.1,
        );
        assert_eq!(merged, vec![(2, (2, 2.0)), (0, (0, 1.0)), (1, (1, 1.0))]);
    }

    #[test]
    fn merge_handles_nan_like_the_stable_sort() {
        // NaN never compares Greater, so it stays in shard order — the
        // same place the single engine's `unwrap_or(Equal)` leaves it.
        let merged = merge_by(
            vec![vec![(0, f64::NAN)], vec![(1, 5.0)]],
            2,
            |a: &(i32, f64), b: &(i32, f64)| {
                a.1.partial_cmp(&b.1) == Some(std::cmp::Ordering::Greater)
            },
        );
        assert_eq!(merged[0].1 .0, 0);
        assert_eq!(merged[1].1 .0, 1);
    }
}
