//! A ranked data-search benchmark over the corpus (§5.3's "to develop this
//! benchmark dataset further, one could collect a set of tables and queries
//! and rank the most relevant tables for each query").
//!
//! Queries are associated with a content [`Domain`]; a table is *relevant* to
//! a query when its originating topic belongs to that domain. Rankings from
//! [`DataSearch`] are scored with precision@k and nDCG@k.

use gittables_corpus::Corpus;
use gittables_synth::schema::Domain;
use gittables_synth::wordnet;

use crate::apps::search::DataSearch;

/// A benchmark query with its relevant domain.
#[derive(Debug, Clone)]
pub struct BenchmarkQuery {
    /// Natural-language query text.
    pub text: String,
    /// The domain whose tables count as relevant.
    pub domain: Domain,
}

/// The built-in query set, one or more per domain.
#[must_use]
pub fn default_queries() -> Vec<BenchmarkQuery> {
    let q = |text: &str, domain| BenchmarkQuery {
        text: text.to_string(),
        domain,
    };
    vec![
        q("status and sales amount per product", Domain::Business),
        q(
            "orders with price quantity and shipping status",
            Domain::Business,
        ),
        q("employee names salaries and departments", Domain::People),
        q(
            "species observed with organism group and country",
            Domain::Science,
        ),
        q(
            "measurement values with temperature and pressure",
            Domain::Science,
        ),
        q("songs albums and artists with ratings", Domain::Media),
        q("match scores per team and season", Domain::Sports),
        q(
            "event bookings with venue date and capacity",
            Domain::Events,
        ),
        q("requests errors latency and cpu per host", Domain::Tech),
        q("cities with population latitude and longitude", Domain::Geo),
    ]
}

/// Result of one query's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryScore {
    /// The query text.
    pub query: String,
    /// Precision@k.
    pub precision_at_k: f64,
    /// Normalized discounted cumulative gain at k.
    pub ndcg_at_k: f64,
    /// Number of relevant tables in the corpus.
    pub relevant_total: usize,
}

/// Maps a table's topic to its domain via the WordNet inventory.
fn topic_domain(topic: &str) -> Option<Domain> {
    wordnet::topics()
        .into_iter()
        .find(|t| t.noun == topic)
        .map(|t| t.domain)
}

/// Evaluates the search engine on the query set with cutoff `k`.
#[must_use]
pub fn evaluate_search(
    corpus: &Corpus,
    search: &DataSearch,
    queries: &[BenchmarkQuery],
    k: usize,
) -> Vec<QueryScore> {
    // Precompute each table's domain.
    let domains: Vec<Option<Domain>> = corpus
        .tables
        .iter()
        .map(|t| topic_domain(&t.table.provenance().topic))
        .collect();
    queries
        .iter()
        .map(|q| {
            let relevant_total = domains.iter().filter(|d| **d == Some(q.domain)).count();
            let hits = search.search(&q.text, k);
            let rels: Vec<bool> = hits
                .iter()
                .map(|h| domains[h.table_index] == Some(q.domain))
                .collect();
            let hit_count = rels.iter().filter(|r| **r).count();
            let precision_at_k = hit_count as f64 / k.max(1) as f64;
            // DCG with binary gains.
            let dcg: f64 = rels
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    if r {
                        1.0 / ((i as f64 + 2.0).log2())
                    } else {
                        0.0
                    }
                })
                .sum();
            let ideal_hits = relevant_total.min(k);
            let idcg: f64 = (0..ideal_hits)
                .map(|i| 1.0 / ((i as f64 + 2.0).log2()))
                .sum();
            let ndcg_at_k = if idcg > 0.0 { dcg / idcg } else { 0.0 };
            QueryScore {
                query: q.text.clone(),
                precision_at_k,
                ndcg_at_k,
                relevant_total,
            }
        })
        .collect()
}

/// Mean nDCG over query scores (0 for an empty set).
#[must_use]
pub fn mean_ndcg(scores: &[QueryScore]) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().map(|s| s.ndcg_at_k).sum::<f64>() / scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use gittables_githost::GitHost;
    use gittables_synth::wordnet::Topic;

    fn corpus() -> Corpus {
        // Mixed-domain topics so every query has relevant tables.
        let topics = vec![
            Topic {
                noun: "order".into(),
                domain: Domain::Business,
            },
            Topic {
                noun: "species".into(),
                domain: Domain::Science,
            },
            Topic {
                noun: "team".into(),
                domain: Domain::Sports,
            },
        ];
        let config = PipelineConfig {
            topics,
            repos_per_topic: 10,
            ..PipelineConfig::small(77)
        };
        let pipeline = Pipeline::new(config);
        let host = GitHost::new();
        pipeline.populate_host(&host);
        pipeline.run(&host).0
    }

    #[test]
    fn search_beats_chance_on_domain_queries() {
        let c = corpus();
        let ds = DataSearch::build(&c);
        let queries = vec![
            BenchmarkQuery {
                text: "orders with price quantity and shipping status".into(),
                domain: Domain::Business,
            },
            BenchmarkQuery {
                text: "species observed with organism group and country".into(),
                domain: Domain::Science,
            },
        ];
        let scores = evaluate_search(&c, &ds, &queries, 10);
        // Chance precision = share of that domain's tables in the corpus
        // (≈1/3 here); search should beat it clearly on average.
        let mean_p: f64 =
            scores.iter().map(|s| s.precision_at_k).sum::<f64>() / scores.len() as f64;
        assert!(mean_p > 0.45, "mean precision {mean_p}");
        assert!(mean_ndcg(&scores) > 0.4, "ndcg {}", mean_ndcg(&scores));
    }

    #[test]
    fn ndcg_bounds() {
        let c = corpus();
        let ds = DataSearch::build(&c);
        let scores = evaluate_search(&c, &ds, &default_queries(), 5);
        for s in &scores {
            assert!((0.0..=1.0).contains(&s.ndcg_at_k), "{s:?}");
            assert!((0.0..=1.0).contains(&s.precision_at_k));
        }
        assert_eq!(mean_ndcg(&[]), 0.0);
    }

    #[test]
    fn topic_domain_lookup() {
        assert_eq!(topic_domain("order"), Some(Domain::Business));
        assert_eq!(topic_domain("species"), Some(Domain::Science));
        assert_eq!(topic_domain("notatopic"), None);
    }
}
