//! The scatter-gather [`Router`]: one query surface over a
//! [`ShardSet`], answer-for-answer identical to a whole-corpus
//! [`QueryEngine`].
//!
//! Fan-out queries (`/search`, `/types`, `/types/{label}/tables`) run on
//! every shard engine — shard 0 on the calling thread, each further
//! shard on its own persistent worker thread, started with the router
//! and joined when it drops — and the per-shard answers are merged. A
//! request costs one channel round trip per extra shard, never a thread
//! spawn, and whatever the shards have in common is computed once: a
//! `/search` query is embedded on the calling thread and the vector
//! shared by every shard's ranking. `/tables/{id}` routes to the owning
//! shard by the stable-id directory. `/complete` does not fan out: the
//! completion index is corpus-global and shared by every engine, so one
//! engine's answer *is* the whole-corpus answer. The merges reproduce
//! the single-engine rankings exactly:
//!
//! * **search** — per-shard lists are sorted by (score desc, entry
//!   order); entry order across shards is (shard, local order) because
//!   ids ascend within and across shards. Taking the head with the
//!   strictly greatest score (ties and non-comparables fall to the
//!   lowest shard) replays the whole-corpus order. A shard-local top-k
//!   suffices globally: any entry ahead of a survivor locally is ahead
//!   of it globally too.
//! * **types** — counts sum per label (shard ranges are disjoint, so
//!   distinct-table counts add); posting lists concatenate in shard
//!   order, which is global scan order.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use gittables_core::apps::{MemoStats, SchemaCompletion, SearchHit};
use gittables_corpus::{StoreError, TableId, TypeCount};

use crate::engine::{
    EngineBuildStats, HealthResponse, QueryEngine, TableSummary, TypeTablesResponse,
};
use crate::shardset::ShardSet;

/// A [`ShardSet`] plus the precomputed whole-corpus facts (`/health`)
/// that would otherwise cost a fan-out per liveness probe, and the
/// worker threads its fan-outs run on. One router is one immutable corpus
/// snapshot; reload swaps the whole router, and dropping the old one
/// joins its workers — once the drop returns, nothing references the old
/// snapshot's engines.
pub struct Router {
    /// The query thread of shard `i + 1`; empty for a 1-shard set.
    workers: Vec<ShardWorker>,
    set: ShardSet,
    health: HealthResponse,
    fanouts: AtomicU64,
    fanout_wait_ns: AtomicU64,
}

/// What scatter-gather has cost on one snapshot, served under `/metrics`.
/// Counted from the snapshot's construction, so — like `engine` — a
/// reload resets it. Both stay 0 on a 1-shard set, which never scatters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FanoutStats {
    /// Requests scattered to every shard.
    pub fanouts: u64,
    /// Total time (µs) callers spent blocked on the other shards'
    /// replies after finishing shard 0 themselves.
    pub fanout_wait_us: u64,
}

/// Shard worker threads are named this plus their shard index.
pub const WORKER_THREAD_PREFIX: &str = "gt-shard-";

/// A unit of work posted to a shard worker: runs against the worker's
/// engine and sends its own reply.
type Job = Box<dyn FnOnce(&QueryEngine) + Send>;

/// The persistent query thread of one shard beyond the first. It owns
/// its engine and runs posted jobs in order until the channel closes.
struct ShardWorker {
    /// `None` only while dropping: closing the channel stops the thread.
    jobs: Option<mpsc::Sender<Job>>,
    thread: Option<JoinHandle<()>>,
}

impl ShardWorker {
    fn start(shard: usize, engine: Arc<QueryEngine>) -> Self {
        let (jobs, inbox) = mpsc::channel::<Job>();
        let thread = std::thread::Builder::new()
            .name(format!("{WORKER_THREAD_PREFIX}{shard}"))
            .spawn(move || {
                for job in inbox {
                    job(&engine);
                }
            })
            .expect("spawn shard worker thread");
        ShardWorker {
            jobs: Some(jobs),
            thread: Some(thread),
        }
    }

    /// Queues `job`. A worker that is gone drops it unrun, which the
    /// caller sees as that shard's reply never arriving.
    fn post(&self, job: Job) {
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(job);
        }
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Router {
    /// Wraps a shard set, precomputing the merged `/health` answer and
    /// starting one worker thread per shard beyond the first.
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
        let workers = set
            .engines()
            .iter()
            .enumerate()
            .skip(1)
            .map(|(shard, e)| ShardWorker::start(shard, Arc::clone(e)))
            .collect();
        Router {
            workers,
            set,
            health,
            fanouts: AtomicU64::new(0),
            fanout_wait_ns: AtomicU64::new(0),
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

    /// What scatter-gather has cost on this snapshot so far.
    #[must_use]
    pub fn fanout_stats(&self) -> FanoutStats {
        FanoutStats {
            fanouts: self.fanouts.load(Ordering::Relaxed),
            fanout_wait_us: self.fanout_wait_ns.load(Ordering::Relaxed) / 1_000,
        }
    }

    /// Runs `f` on every shard engine: posts one job to each worker,
    /// runs shard 0 on the calling thread, then collects the replies.
    /// Results come back in shard order. Each fan-out has its own reply
    /// channel, so concurrent callers never see each other's answers.
    ///
    /// Every per-shard call is panic-isolated *inside* its job
    /// ([`isolated`]), so a crashing shard neither unwinds into the
    /// server nor costs the worker its thread: the first panicking shard
    /// (lowest index) is reported as a typed [`ShardPanic`] once every
    /// shard has answered. A worker that is gone all the same reads as
    /// its shard having panicked — never as a hung request.
    fn fan_out<T, F>(&self, injected: Option<usize>, f: F) -> Result<Vec<T>, ShardPanic>
    where
        T: Send + 'static,
        F: Fn(&QueryEngine) -> T + Send + Sync + 'static,
    {
        let first = &self.set.engines()[0];
        if self.workers.is_empty() {
            return Ok(vec![isolated(0, injected, || f(first))?]);
        }
        let f = Arc::new(f);
        let (reply, replies) = mpsc::channel();
        for (i, worker) in self.workers.iter().enumerate() {
            let (shard, f, reply) = (i + 1, Arc::clone(&f), reply.clone());
            worker.post(Box::new(move |e| {
                let _ = reply.send((shard, isolated(shard, injected, || f(e))));
            }));
        }
        drop(reply);
        let mut answers: Vec<Option<Result<T, ShardPanic>>> = Vec::new();
        answers.resize_with(self.workers.len() + 1, || None);
        answers[0] = Some(isolated(0, injected, || f(first)));
        let waiting = Instant::now();
        // One reply per worker; `recv` fails early only when every job
        // still outstanding was dropped unrun.
        for _ in &self.workers {
            let Ok((shard, answer)) = replies.recv() else {
                break;
            };
            answers[shard] = Some(answer);
        }
        self.fanouts.fetch_add(1, Ordering::Relaxed);
        self.fanout_wait_ns
            .fetch_add(waiting.elapsed().as_nanos() as u64, Ordering::Relaxed);
        answers
            .into_iter()
            .enumerate()
            .map(|(shard, answer)| answer.unwrap_or(Err(ShardPanic { shard })))
            .collect()
    }

    /// `/search`: embed the query once, rank it on all shards, merge by
    /// (score desc, lowest shard) — bit-identical to the whole-corpus
    /// ranking.
    ///
    /// # Errors
    /// [`ShardPanic`] when a shard's query panicked.
    pub fn search(&self, query: &str, k: usize) -> Result<Vec<SearchHit>, ShardPanic> {
        let injected = injected_panic_shard();
        let first = &self.set.engines()[0];
        // Every engine of a snapshot embeds alike; shard 0 does it for all.
        let embedded = isolated(0, injected, || first.embed_query(query))?;
        let per = self.fan_out(injected, move |e| e.search_embedded(&embedded, k))?;
        Ok(merge_by(per, k, |a, b| {
            a.score.partial_cmp(&b.score) == Some(std::cmp::Ordering::Greater)
        }))
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
        let wanted = label.to_string();
        let per = self.fan_out(injected_panic_shard(), move |e| e.type_tables(&wanted))?;
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
        write!(f, "shard {} query thread panicked", self.shard)
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
/// shard, replaying the whole-corpus stable sort's entry order).
fn merge_by<T>(per: Vec<Vec<T>>, k: usize, better: impl Fn(&T, &T) -> bool) -> Vec<T> {
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
        out.push(queues[g].pop_front().expect("picked head exists"));
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

    /// Concurrent fan-outs share the workers but never each other's
    /// replies: 8 threads × 200 mixed calls on one 4-shard router, every
    /// answer the single engine's.
    #[test]
    fn concurrent_fan_outs_never_cross_replies() {
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
                        // Distinct (query, k) per thread and step, so a
                        // reply delivered to the wrong caller cannot pass.
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
        let stats = router.fanout_stats();
        assert_eq!(stats.fanouts, 8 * 200, "every call scattered once");
    }

    #[test]
    fn one_shard_router_has_no_workers_and_counts_no_fan_outs() {
        let router = Router::new(ShardSet::from_corpus(&corpus(), 1));
        assert!(router.workers.is_empty());
        router.search("order status", 3).unwrap();
        router.type_counts().unwrap();
        assert_eq!(router.fanout_stats(), FanoutStats::default());
    }

    #[test]
    fn dropping_the_router_joins_its_workers() {
        let router = Router::new(ShardSet::from_corpus(&corpus(), 3));
        // Each worker holds the only other reference to its engine.
        let engines: Vec<Arc<QueryEngine>> = router.engines().to_vec();
        assert_eq!(router.workers.len(), 2);
        assert_eq!(Arc::strong_count(&engines[1]), 3, "set + worker + ours");
        router.search("species", 2).unwrap();
        drop(router);
        for e in &engines {
            assert_eq!(Arc::strong_count(e), 1, "a worker outlived its router");
        }
    }

    #[test]
    fn merge_prefers_lowest_shard_on_ties() {
        let merged = merge_by(
            vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 2.0)]],
            3,
            |a, b| a.1 > b.1,
        );
        assert_eq!(merged, vec![(2, 2.0), (0, 1.0), (1, 1.0)]);
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
        assert_eq!(merged[0].0, 0);
        assert_eq!(merged[1].0, 1);
    }
}
