//! Everything a run feeds the program, derived from `--seed`: the topic
//! recipe, the synthetic repositories, and the HTTP target pools.

use std::collections::BTreeSet;

use gittables_corpus::Corpus;
use gittables_githost::{RepoFile, Repository};
use gittables_synth::repo::{RepoConfig, RepoGenerator};
use gittables_synth::schema::Domain;
use gittables_synth::wordnet::{self, Topic};

/// The corpus recipe. The synth defaults draw a repository's size from
/// a heavy tail, forks at 12 % and "database snapshot" series (paper
/// §4.1) at 2 % with 30–120 files; at 160 repositories the bytes fetched
/// then move 13–15 % between seeds (quartile distance over twenty) and
/// every rate moves with them. The benchmark keeps the synth content
/// but fixes the totals: per topic, `REPOS_PER_TOPIC` repositories chosen
/// from `CANDIDATES_PER_TOPIC` so that the ones a crawl fetches hold
/// `TOPIC_BYTES` and the forks (indexed by the host, never fetched)
/// `FORK_BYTES`, plus `SNAPSHOT_REPOS` series of `SNAPSHOT_FILES` files
/// of `SNAPSHOT_BYTES`. Every byte of content still comes from the seed.
pub const TOPICS: usize = 8;
pub const REPOS_PER_TOPIC: usize = 20;
pub const FORKS_PER_TOPIC: usize = 2;
pub const CANDIDATES_PER_TOPIC: usize = 32;
pub const TOPIC_BYTES: usize = 1_000_000;
pub const FORK_BYTES: usize = 100_000;
pub const SNAPSHOT_REPOS: usize = 4;
pub const SNAPSHOT_FILES: usize = 60;
pub const SNAPSHOT_BYTES: std::ops::Range<usize> = 448 * 1024..576 * 1024;
/// A selection stops improving once its total is this close to the
/// budget, as a share of it.
const BUDGET_TOLERANCE: f64 = 0.02;

/// SplitMix64: the benchmark's own generator, so traffic does not
/// change when the repository's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                total += 1.0 / (r as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty Zipf");
        let u = rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// `n` topics taken round-robin across the content domains, so every
/// domain (people tables for the PII pass, business tables, …) is
/// present however small `n` is.
pub fn mixed_topics(n: usize) -> Vec<Topic> {
    let all = wordnet::topics();
    let by_domain: Vec<Vec<&Topic>> = Domain::ALL
        .iter()
        .map(|d| all.iter().filter(|t| t.domain == *d).collect())
        .collect();
    let mut out = Vec::with_capacity(n);
    let mut round = 0;
    while out.len() < n && by_domain.iter().any(|d| round < d.len()) {
        for dom in &by_domain {
            if out.len() < n && round < dom.len() {
                out.push(dom[round].clone());
            }
        }
        round += 1;
    }
    out
}

/// Chooses `count` of the `available` candidates (indices into
/// `sizes`) whose sizes add up to `budget`: the first `count`, then the
/// single exchange of a chosen for an unchosen candidate that brings
/// the total closest, repeated until the total is within
/// `BUDGET_TOLERANCE` or no exchange improves it. The first candidates
/// keep the generator's own size distribution; the exchanges only trim
/// what the heavy tail adds or lacks.
pub fn select_to_budget(
    sizes: &[usize],
    available: &[usize],
    count: usize,
    budget: usize,
) -> Vec<usize> {
    assert!(available.len() >= count, "too few candidates");
    let mut chosen = available[..count].to_vec();
    let mut spare = available[count..].to_vec();
    let off = |total: usize| total.abs_diff(budget);
    let mut total: usize = chosen.iter().map(|&i| sizes[i]).sum();
    while off(total) as f64 > budget as f64 * BUDGET_TOLERANCE {
        let mut best = None;
        for (c, &out) in chosen.iter().enumerate() {
            for (s, &inn) in spare.iter().enumerate() {
                let swapped = total - sizes[out] + sizes[inn];
                if off(swapped) < best.map_or(off(total), |(_, _, t)| off(t)) {
                    best = Some((c, s, swapped));
                }
            }
        }
        let Some((c, s, swapped)) = best else { break };
        std::mem::swap(&mut chosen[c], &mut spare[s]);
        total = swapped;
    }
    chosen.sort_unstable();
    chosen
}

/// Renders the run's repositories (see the recipe above), every file a
/// SQL dump with probability `sql_file_prob`.
pub fn render(seed: u64, topics: &[Topic], sql_file_prob: f64) -> Vec<Repository> {
    let ordinary = RepoGenerator::with_config(
        seed,
        RepoConfig {
            snapshot_prob: 0.0,
            fork_prob: 0.0,
            sql_file_prob,
            ..RepoConfig::default()
        },
    );
    let snapshots = RepoGenerator::with_config(
        seed,
        RepoConfig {
            snapshot_prob: 1.0,
            fork_prob: 0.0,
            files_snapshot: (SNAPSHOT_FILES, SNAPSHOT_FILES),
            sql_file_prob,
            ..RepoConfig::default()
        },
    );
    let repository = |gen: &RepoGenerator, topic: &Topic, index: usize| {
        let spec = gen.generate(topic, index);
        Repository {
            full_name: spec.full_name,
            license: spec.license,
            fork: spec.fork,
            files: spec
                .files
                .into_iter()
                .map(|f| RepoFile::new(f.path, f.content))
                .collect(),
        }
    };
    let bytes = |r: &Repository| r.files.iter().map(RepoFile::size).sum::<usize>();
    let mut out = Vec::with_capacity(topics.len() * REPOS_PER_TOPIC + SNAPSHOT_REPOS);
    for topic in topics {
        let mut pool: Vec<Option<Repository>> = (0..CANDIDATES_PER_TOPIC)
            .map(|i| Some(repository(&ordinary, topic, i)))
            .collect();
        let sizes: Vec<usize> = pool.iter().flatten().map(bytes).collect();
        let all: Vec<usize> = (0..pool.len()).collect();
        let fetched =
            select_to_budget(&sizes, &all, REPOS_PER_TOPIC - FORKS_PER_TOPIC, TOPIC_BYTES);
        let rest: Vec<usize> = all.into_iter().filter(|i| !fetched.contains(i)).collect();
        let forks = select_to_budget(&sizes, &rest, FORKS_PER_TOPIC, FORK_BYTES);
        let mut picked: Vec<(usize, bool)> = fetched
            .into_iter()
            .map(|i| (i, false))
            .chain(forks.into_iter().map(|i| (i, true)))
            .collect();
        picked.sort_unstable();
        for (i, fork) in picked {
            let mut repo = pool[i].take().expect("each candidate is picked once");
            repo.fork = fork;
            out.push(repo);
        }
    }
    for (j, topic) in topics.iter().step_by(2).take(SNAPSHOT_REPOS).enumerate() {
        let series = (0..)
            .map(|k| {
                repository(
                    &snapshots,
                    topic,
                    CANDIDATES_PER_TOPIC + j + k * SNAPSHOT_REPOS,
                )
            })
            .find(|r| SNAPSHOT_BYTES.contains(&bytes(r)))
            .expect("an unbounded search ends");
        out.push(series);
    }
    out
}

/// Percent-encodes what a request target cannot carry literally.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// What one HTTP target asks the engine, kept beside the target so the
/// expected body is computed in-process without re-parsing the URL.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    Search { query: String, k: usize },
    Complete { prefix: Vec<String>, k: usize },
    Types,
    TypeTables { label: String },
    Table { id: usize },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    pub url: String,
    pub ask: Ask,
}

impl Target {
    fn search(a: &str, b: &str) -> Target {
        let query = format!("{a} and {b}");
        Target {
            url: format!("/search?q={}&k=10", encode(&query)),
            ask: Ask::Search { query, k: 10 },
        }
    }
}

/// Distinct alphanumeric words of the corpus' column names, sorted.
pub fn vocabulary(corpus: &Corpus) -> Vec<String> {
    let mut words = BTreeSet::new();
    for at in &corpus.tables {
        for attr in at.table.schema().iter() {
            for w in attr.split(|c: char| !c.is_ascii_alphanumeric()) {
                if w.len() >= 2 {
                    words.insert(w.to_ascii_lowercase());
                }
            }
        }
    }
    words.into_iter().collect()
}

/// `n` distinct two-word `/search` targets in seeded-shuffled order.
/// Requested cyclically, each target returns after `n - 1` others, so a
/// response cache smaller than `n` never hits.
pub fn search_pool(words: &[String], n: usize, rng: &mut Rng) -> Vec<Target> {
    assert!(
        words.len() * (words.len() - 1) >= n,
        "vocabulary of {} words cannot form {n} distinct pairs",
        words.len()
    );
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (a, b) = (rng.below(words.len()), rng.below(words.len()));
        if a != b && seen.insert((a, b)) {
            out.push(Target::search(&words[a], &words[b]));
        }
    }
    out
}

/// The hot set: `n` distinct targets, half type posting lists, a fifth
/// table summaries, the rest `/search`, `/complete` and `/types`, in
/// seeded-shuffled popularity order (index 0 is the most popular).
pub fn hot_pool(
    words: &[String],
    labels: &[String],
    tables: usize,
    n: usize,
    rng: &mut Rng,
) -> Vec<Target> {
    let mut out = vec![Target {
        url: "/types".to_string(),
        ask: Ask::Types,
    }];
    let mut labels: Vec<&String> = labels.iter().collect();
    rng.shuffle(&mut labels);
    for label in labels.into_iter().take(n / 2) {
        out.push(Target {
            url: format!("/types/{}/tables", encode(label)),
            ask: Ask::TypeTables {
                label: label.clone(),
            },
        });
    }
    for t in search_pool(words, n * 15 / 100, rng) {
        out.push(t);
    }
    let mut prefixes = BTreeSet::new();
    while prefixes.len() < n / 10 {
        let (a, b) = (rng.below(words.len()), rng.below(words.len()));
        if a != b {
            prefixes.insert((a, b));
        }
    }
    for (a, b) in prefixes {
        let prefix = vec![words[a].clone(), words[b].clone()];
        out.push(Target {
            url: format!("/complete?prefix={}&k=5", prefix.join(",")),
            ask: Ask::Complete { prefix, k: 5 },
        });
    }
    // Table summaries fill what is left (and stand in for labels when
    // the corpus indexes fewer than n / 2 of them).
    let mut ids: Vec<usize> = (0..tables).collect();
    rng.shuffle(&mut ids);
    assert!(
        out.len() + ids.len() >= n,
        "corpus too small for {n} hot targets"
    );
    for id in ids.into_iter().take(n - out.len()) {
        out.push(Target {
            url: format!("/tables/{id}"),
            ask: Ask::Table { id },
        });
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(256, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42));
        assert_ne!(a, draw(43));
        assert!(a.iter().all(|&r| r < 256));
        let count = |r| a.iter().filter(|&&x| x == r).count() as f64;
        // P(rank 0) = 1 / H_256 = 0.163; rank 1 is half as likely.
        assert!((count(0) / 20_000.0 - 0.163).abs() < 0.01);
        assert!((count(0) / count(1) - 2.0).abs() < 0.2);
    }

    #[test]
    fn selection_meets_the_budget_with_few_exchanges() {
        // A heavy tail: most candidates small, a few huge.
        let mut rng = Rng::new(3);
        let sizes: Vec<usize> = (0..32)
            .map(|_| (20_000.0 / (1.0 - rng.next_f64()).powf(0.9)) as usize)
            .collect();
        let all: Vec<usize> = (0..32).collect();
        let chosen = select_to_budget(&sizes, &all, 18, 1_000_000);
        assert_eq!(chosen.len(), 18);
        assert!(chosen.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        let total: usize = chosen.iter().map(|&i| sizes[i]).sum();
        assert!(total.abs_diff(1_000_000) <= 20_000, "total {total}");
        assert_eq!(chosen, select_to_budget(&sizes, &all, 18, 1_000_000));
        // Already on budget: the first candidates are kept as they are.
        let even = vec![10usize; 8];
        assert_eq!(
            select_to_budget(&even, &[0, 1, 2, 3, 4, 5, 6, 7], 5, 50),
            vec![0, 1, 2, 3, 4]
        );
        // Out of reach: the closest total, not a panic.
        assert_eq!(select_to_budget(&even, &[0, 1, 2], 2, 1_000), vec![0, 1]);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..100).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pools_hold_distinct_targets() {
        let words: Vec<String> = (0..40).map(|i| format!("w{i}")).collect();
        let labels: Vec<String> = (0..10).map(|i| format!("label {i}")).collect();
        let pool = search_pool(&words, 500, &mut Rng::new(1));
        let urls: BTreeSet<&str> = pool.iter().map(|t| t.url.as_str()).collect();
        assert_eq!(urls.len(), 500);
        assert!(pool[0].url.starts_with("/search?q=w") && pool[0].url.ends_with("&k=10"));
        let hot = hot_pool(&words, &labels, 300, 256, &mut Rng::new(1));
        let urls: BTreeSet<&str> = hot.iter().map(|t| t.url.as_str()).collect();
        assert_eq!((hot.len(), urls.len()), (256, 256));
        assert!(urls.contains("/types"));
        assert!(urls.iter().any(|u| u.starts_with("/types/label%20")));
        assert_eq!(hot, hot_pool(&words, &labels, 300, 256, &mut Rng::new(1)));
    }

    #[test]
    fn topics_cover_the_domains() {
        let t = mixed_topics(TOPICS);
        assert_eq!(t.len(), TOPICS);
        let domains: BTreeSet<String> = t.iter().map(|t| format!("{:?}", t.domain)).collect();
        assert_eq!(domains.len(), TOPICS);
    }
}
