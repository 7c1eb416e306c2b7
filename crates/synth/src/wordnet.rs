//! WordNet-style noun inventory used to form search topics.
//!
//! The paper selects 67 K unique English nouns from WordNet as query topics
//! (§3.1, C3), excluding offensive topics to avoid the "WordNet
//! effect". We embed a curated noun core organized by topical category plus a
//! systematic compound expansion, yielding thousands of topics with the same
//! role: driving query diversity and linking retrieved tables to a topical
//! domain.

use serde::{Deserialize, Serialize};

use crate::schema::Domain;

/// A query topic: a noun and the content domain its tables come from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topic {
    /// The noun used as search term.
    pub noun: String,
    /// The domain of tables this topic tends to retrieve.
    pub domain: Domain,
}

/// Core nouns per domain. The first entries mirror the large topic subsets
/// the paper names ("thing", "object", "id").
pub const NOUN_CORE: &[(&str, Domain)] = &[
    ("thing", Domain::Generic),
    ("object", Domain::Generic),
    ("id", Domain::Generic),
    ("entity", Domain::Generic),
    ("item", Domain::Generic),
    ("record", Domain::Generic),
    ("element", Domain::Science),
    ("value", Domain::Generic),
    ("index", Domain::Generic),
    ("list", Domain::Generic),
    ("table", Domain::Generic),
    ("data", Domain::Generic),
    ("sample", Domain::Science),
    ("result", Domain::Science),
    ("person", Domain::People),
    ("employee", Domain::People),
    ("customer", Domain::Business),
    ("student", Domain::People),
    ("member", Domain::People),
    ("user", Domain::Tech),
    ("account", Domain::Business),
    ("name", Domain::People),
    ("family", Domain::People),
    ("child", Domain::People),
    ("population", Domain::Geo),
    ("city", Domain::Geo),
    ("country", Domain::Geo),
    ("state", Domain::Geo),
    ("region", Domain::Geo),
    ("street", Domain::Geo),
    ("river", Domain::Geo),
    ("mountain", Domain::Geo),
    ("airport", Domain::Geo),
    ("station", Domain::Geo),
    ("location", Domain::Geo),
    ("address", Domain::Geo),
    ("organism", Domain::Science),
    ("species", Domain::Science),
    ("isolate", Domain::Science),
    ("gene", Domain::Science),
    ("protein", Domain::Science),
    ("cell", Domain::Science),
    ("chemical", Domain::Science),
    ("compound", Domain::Science),
    ("experiment", Domain::Science),
    ("measurement", Domain::Science),
    ("sensor", Domain::Tech),
    ("temperature", Domain::Science),
    ("pressure", Domain::Science),
    ("energy", Domain::Science),
    ("weather", Domain::Science),
    ("climate", Domain::Science),
    ("product", Domain::Business),
    ("order", Domain::Business),
    ("invoice", Domain::Business),
    ("payment", Domain::Business),
    ("price", Domain::Business),
    ("sale", Domain::Business),
    ("inventory", Domain::Business),
    ("store", Domain::Business),
    ("company", Domain::Business),
    ("market", Domain::Business),
    ("stock", Domain::Business),
    ("transaction", Domain::Business),
    ("budget", Domain::Business),
    ("revenue", Domain::Business),
    ("contract", Domain::Business),
    ("shipment", Domain::Business),
    ("supplier", Domain::Business),
    ("warehouse", Domain::Business),
    ("song", Domain::Media),
    ("album", Domain::Media),
    ("artist", Domain::Media),
    ("film", Domain::Media),
    ("movie", Domain::Media),
    ("book", Domain::Media),
    ("author", Domain::Media),
    ("article", Domain::Media),
    ("episode", Domain::Media),
    ("lyrics", Domain::Media),
    ("title", Domain::Media),
    ("comment", Domain::Media),
    ("review", Domain::Media),
    ("photo", Domain::Media),
    ("video", Domain::Media),
    ("game", Domain::Sports),
    ("team", Domain::Sports),
    ("player", Domain::Sports),
    ("match", Domain::Sports),
    ("season", Domain::Sports),
    ("league", Domain::Sports),
    ("score", Domain::Sports),
    ("race", Domain::Sports),
    ("rider", Domain::Sports),
    ("tournament", Domain::Sports),
    ("event", Domain::Events),
    ("meeting", Domain::Events),
    ("conference", Domain::Events),
    ("session", Domain::Events),
    ("schedule", Domain::Events),
    ("ticket", Domain::Events),
    ("reservation", Domain::Events),
    ("booking", Domain::Events),
    ("flight", Domain::Events),
    ("trip", Domain::Events),
    ("device", Domain::Tech),
    ("server", Domain::Tech),
    ("network", Domain::Tech),
    ("machine", Domain::Tech),
    ("process", Domain::Tech),
    ("task", Domain::Tech),
    ("log", Domain::Tech),
    ("error", Domain::Tech),
    ("request", Domain::Tech),
    ("response", Domain::Tech),
    ("message", Domain::Tech),
    ("file", Domain::Tech),
    ("line", Domain::Tech),
    ("code", Domain::Tech),
    ("version", Domain::Tech),
    ("release", Domain::Tech),
    ("test", Domain::Tech),
    ("build", Domain::Tech),
    ("commit", Domain::Tech),
    ("issue", Domain::Tech),
    ("status", Domain::Generic),
    ("class", Domain::Generic),
    ("category", Domain::Generic),
    ("group", Domain::Generic),
    ("type", Domain::Generic),
    ("date", Domain::Generic),
    ("time", Domain::Generic),
    ("year", Domain::Generic),
    ("count", Domain::Generic),
    ("number", Domain::Generic),
    ("amount", Domain::Generic),
    ("total", Domain::Generic),
    ("rate", Domain::Generic),
    ("ratio", Domain::Generic),
    ("level", Domain::Generic),
];

/// Adjective-like modifiers used to expand the core into compound topics,
/// mimicking WordNet's compound noun entries.
const MODIFIERS: &[&str] = &[
    "daily",
    "weekly",
    "monthly",
    "annual",
    "global",
    "local",
    "regional",
    "national",
    "public",
    "private",
    "primary",
    "secondary",
    "final",
    "raw",
    "clean",
    "historical",
    "current",
    "active",
    "archived",
    "combined",
];

/// Topics that would retrieve offensive or out-of-scope content; excluded per
/// §3.1's "WordNet effect" mitigation.
pub const EXCLUDED_TOPICS: &[&str] = &[
    "killing", "murder", "weapon", "slur", "assault", "abuse", "torture", "massacre", "genocide",
    "suicide",
];

/// Whether a topic noun is excluded.
#[must_use]
pub fn is_excluded(noun: &str) -> bool {
    let n = noun.to_lowercase();
    EXCLUDED_TOPICS.iter().any(|e| n.contains(e))
}

/// The full topic inventory: core nouns plus modifier compounds, with
/// excluded topics removed. Deterministic order (core first, then compounds
/// in core × modifier order).
#[must_use]
pub fn topics() -> Vec<Topic> {
    let mut out = Vec::with_capacity(NOUN_CORE.len() * (1 + MODIFIERS.len()));
    for (noun, domain) in NOUN_CORE {
        if !is_excluded(noun) {
            out.push(Topic {
                noun: (*noun).to_string(),
                domain: *domain,
            });
        }
    }
    for (noun, domain) in NOUN_CORE {
        for m in MODIFIERS {
            let compound = format!("{m} {noun}");
            if !is_excluded(&compound) {
                out.push(Topic {
                    noun: compound,
                    domain: *domain,
                });
            }
        }
    }
    out
}

/// The first `n` topics (the paper analyses a 97-topic subset of its 67 K).
#[must_use]
pub fn topic_subset(n: usize) -> Vec<Topic> {
    let mut t = topics();
    t.truncate(n);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn inventory_is_large_and_unique() {
        let t = topics();
        assert!(t.len() > 2000, "got {}", t.len());
        let set: HashSet<&str> = t.iter().map(|t| t.noun.as_str()).collect();
        assert_eq!(set.len(), t.len());
    }

    #[test]
    fn paper_headline_topics_present() {
        let t = topics();
        for noun in ["thing", "object", "id"] {
            assert!(t.iter().any(|x| x.noun == noun), "missing {noun}");
        }
    }

    #[test]
    fn excluded_topics_absent() {
        let t = topics();
        assert!(!t.iter().any(|x| is_excluded(&x.noun)));
        assert!(is_excluded("killing"));
        assert!(is_excluded("mass killing"));
        assert!(!is_excluded("species"));
    }

    #[test]
    fn subset_is_prefix() {
        let all = topics();
        let sub = topic_subset(97);
        assert_eq!(sub.len(), 97);
        assert_eq!(sub[..], all[..97]);
    }

    #[test]
    fn deterministic() {
        assert_eq!(topics(), topics());
    }
}
