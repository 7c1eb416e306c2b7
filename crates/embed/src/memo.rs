//! Bounded memos: [`Memo`], the one sharded map every memoization in the
//! workspace goes through, and [`WordMemo`], its word-vector instance.
//!
//! [`NgramEmbedder::embed_word`] is a pure function of the embedder's five
//! parameters and the lower-cased word, and it is expensive: every n-gram
//! of the word — and of each of its lexicon synonyms — is expanded into
//! `dim` pseudo-Gaussian draws. Column names, ontology labels and search
//! queries are built from a small vocabulary (1 285 distinct normalized
//! names of a synthetic corpus hold 2 412 tokens but 214 distinct ones),
//! so [`WordMemo`] keeps each word's vector after the first computation.
//!
//! Key, cap, worst-case footprint and lifetime of the word memo are
//! stated once, in the crate docs (*Word-vector memo*); the constants are
//! below. Concurrency is [`Memo`]'s.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use serde::{Deserialize, Serialize};

use crate::ngram::{fnv1a, lowered, mean_of_words, NgramEmbedder};

/// Shard count of a [`WordMemo`].
pub const WORD_SHARDS: usize = 16;

/// Per-shard entry cap of a [`WordMemo`].
pub const MAX_WORDS_PER_SHARD: usize = 4096;

/// Longest lower-cased word (in bytes) a memo stores; longer ones are
/// computed on every call, which bounds what one entry can cost.
pub const MAX_WORD_BYTES: usize = 64;

/// Counters of a [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoStats {
    /// Lookups answered with a stored value.
    pub hits: u64,
    /// Lookups that computed the value (stored or not).
    pub misses: u64,
    /// Keys currently stored.
    pub entries: u64,
}

impl MemoStats {
    /// Fraction of lookups answered with a stored value.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

impl std::ops::Add for MemoStats {
    type Output = MemoStats;

    fn add(self, other: MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

/// This crate's lock-poison policy, stated once: a `compute` that
/// panicked under a shard's write lock must not turn every later lookup
/// in that shard into a panic, so a poisoned lock is entered all the
/// same. A shard's map changes only by a completed insert, so it is
/// well-formed whenever its lock is free.
fn unpoisoned<G>(guard: Result<G, PoisonError<G>>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// One lock's worth of a memo.
type Shard<V> = RwLock<HashMap<Box<str>, Arc<V>>>;

/// A bounded, sharded, read-mostly map from string keys to shared values,
/// each computed once:
///
/// * a key selects one of `SHARDS` (a power of two) shards by its FNV-1a
///   hash; a hit takes that shard's read lock and clones an `Arc`;
/// * a miss takes the shard's write lock, looks again, then computes and
///   inserts under it: concurrent misses of one key compute it once, so
///   `misses` counts each stored key once whatever the scheduling
///   (`compute` must therefore not look up the same memo);
/// * a shard stores at most `PER_SHARD` keys and no key longer than
///   `MAX_KEY_BYTES`; past either cap a lookup computes without storing
///   (and without holding a lock), so results never depend on what is
///   stored;
/// * a `compute` that panics leaves its key missing, and its shard as
///   usable as before: the next lookup computes it again.
pub struct Memo<V: ?Sized, const SHARDS: usize, const PER_SHARD: usize, const MAX_KEY_BYTES: usize>
{
    shards: Box<[Shard<V>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: ?Sized, const S: usize, const P: usize, const K: usize> std::fmt::Debug
    for Memo<V, S, P, K>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V: ?Sized, const S: usize, const P: usize, const K: usize> Default for Memo<V, S, P, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: ?Sized, const SHARDS: usize, const PER_SHARD: usize, const MAX_KEY_BYTES: usize>
    Memo<V, SHARDS, PER_SHARD, MAX_KEY_BYTES>
{
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        const { assert!(SHARDS.is_power_of_two()) };
        Memo {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The value stored for `key`, or `compute`'s, stored if it fits.
    /// See the type documentation.
    pub fn get_or_compute<T: Into<Arc<V>>>(
        &self,
        key: &str,
        compute: impl FnOnce() -> T,
    ) -> Arc<V> {
        if key.len() <= MAX_KEY_BYTES {
            let hit = |found: &Arc<V>| {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(found)
            };
            let shard = &self.shards[fnv1a(key.as_bytes()) as usize & (SHARDS - 1)];
            if let Some(found) = unpoisoned(shard.read()).get(key) {
                return hit(found);
            }
            let mut map = unpoisoned(shard.write());
            if let Some(found) = map.get(key) {
                return hit(found);
            }
            if map.len() < PER_SHARD {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let value = compute().into();
                map.insert(key.into(), Arc::clone(&value));
                return value;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        compute().into()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| unpoisoned(s.read()).len() as u64)
                .sum(),
        }
    }
}

/// A memoizing view of one [`NgramEmbedder`]: a [`Memo`] from lower-cased
/// word to its unit vector. See the module documentation.
#[derive(Debug, Default)]
pub struct WordMemo {
    /// The parameter set every stored vector was computed under.
    embedder: NgramEmbedder,
    words: Memo<[f32], WORD_SHARDS, MAX_WORDS_PER_SHARD, MAX_WORD_BYTES>,
}

impl WordMemo {
    /// An empty memo computing with `embedder`.
    #[must_use]
    pub fn new(embedder: NgramEmbedder) -> Self {
        WordMemo {
            embedder,
            words: Memo::new(),
        }
    }

    /// The embedder whose vectors this memo holds.
    #[must_use]
    pub fn embedder(&self) -> &NgramEmbedder {
        &self.embedder
    }

    /// [`NgramEmbedder::embed_word`], remembered.
    #[must_use]
    pub fn embed_word(&self, word: &str) -> Arc<[f32]> {
        self.embed_word_lower(&lowered(word))
    }

    /// [`Self::embed_word`] of an already lower-cased word.
    pub(crate) fn embed_word_lower(&self, lower: &str) -> Arc<[f32]> {
        self.words
            .get_or_compute(lower, || self.embedder.embed_word_lower(lower))
    }

    /// [`NgramEmbedder::embed`] over remembered word vectors.
    #[must_use]
    pub fn embed(&self, text: &str) -> Vec<f32> {
        mean_of_words(
            self.embedder.dim,
            text.split_whitespace().map(|tok| self.embed_word(tok)),
        )
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.words.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Most words a memo holds (65 536).
    const MAX_WORDS: usize = WORD_SHARDS * MAX_WORDS_PER_SHARD;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn second_lookup_is_a_hit_and_case_folds_to_one_entry() {
        let memo = WordMemo::default();
        let first = memo.embed_word("Status");
        let second = memo.embed_word("status");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        assert_eq!(
            bits(&first),
            bits(&NgramEmbedder::default().embed_word("STATUS"))
        );
    }

    #[test]
    fn eight_threads_missing_the_same_fresh_words_compute_each_once() {
        let memo = WordMemo::default();
        let words: Vec<String> = (0..64).map(|i| format!("fresh{i}")).collect();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    for word in &words {
                        let _ = memo.embed_word(word);
                    }
                });
            }
        });
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 7 * 64,
                misses: 64,
                entries: 64
            }
        );
    }

    /// Words whose lower-casing is not a per-byte ASCII affair.
    const TRICKY: [&str; 8] = [
        "İ",
        "ẞ",
        "\u{212a}",
        "\u{212a}EY",
        "ΟΔΟΣ",
        "ǅ",
        "State",
        "e-Mail",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Eight threads share one memo over arbitrary Unicode words; every
        /// vector any of them gets equals the uncached `embed_word` by bits.
        #[test]
        fn memo_equals_uncached_embed_word_from_eight_threads(
            // ASCII, Latin-1 through Extended-B (titlecase digraphs), Greek,
            // Cyrillic, Latin Extended Additional (ẞ), Kelvin and Ångström.
            words in collection::vec(
                "[ -~\u{c0}-\u{24f}\u{370}-\u{3ff}\u{400}-\u{4ff}\u{1e00}-\u{1eff}\u{212a}-\u{212b}]{0,12}",
                1..12,
            ),
            picks in collection::vec(0usize..TRICKY.len(), 0..4),
        ) {
            let embedder = NgramEmbedder::default();
            let words: Vec<String> = words
                .into_iter()
                .chain(picks.into_iter().map(|p| TRICKY[p].to_string()))
                .collect();
            let want: Vec<Vec<u32>> = words.iter().map(|w| bits(&embedder.embed_word(w))).collect();
            let memo = WordMemo::new(embedder);
            let barrier = std::sync::Barrier::new(8);
            std::thread::scope(|s| {
                for t in 0..8 {
                    let (memo, words, want, barrier) = (&memo, &words, &want, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        // Each thread starts elsewhere, so first sights race.
                        for n in 0..2 * words.len() {
                            let i = (n + t) % words.len();
                            assert_eq!(bits(&memo.embed_word(&words[i])), want[i], "{:?}", words[i]);
                        }
                    });
                }
            });
            let stats = memo.stats();
            prop_assert_eq!(stats.hits + stats.misses, 8 * 2 * words.len() as u64);
            prop_assert!(stats.entries <= words.len() as u64);
        }

        #[test]
        fn memoized_phrase_equals_uncached_phrase(text in "[a-zA-Z İẞ_-]{0,24}") {
            let embedder = NgramEmbedder::default();
            let memo = WordMemo::new(embedder.clone());
            for _ in 0..2 {
                prop_assert_eq!(bits(&memo.embed(&text)), bits(&embedder.embed(&text)));
            }
        }
    }

    #[test]
    fn entries_never_exceed_the_cap_and_results_past_it_still_equal() {
        // A one-dimensional embedder keeps 70 000 distinct words cheap.
        let embedder = NgramEmbedder {
            dim: 1,
            n_min: 6,
            n_max: 6,
            ..NgramEmbedder::without_lexicon()
        };
        let memo = WordMemo::new(embedder.clone());
        for i in 0..MAX_WORDS + 4_000 {
            let _ = memo.embed_word(&format!("w{i}"));
        }
        let full = memo.stats();
        assert!(full.entries <= MAX_WORDS as u64, "{full:?}");
        assert!(
            full.entries >= MAX_WORDS as u64 / 2,
            "shards fill: {full:?}"
        );
        // Past the cap: a stored word still hits, a new one is computed
        // (equal, by bits) and not stored.
        let _ = memo.embed_word("w0");
        assert_eq!(memo.stats().hits, full.hits + 1);
        for i in 0..200 {
            let word = format!("fresh-after-cap-{i}");
            assert_eq!(
                bits(&memo.embed_word(&word)),
                bits(&embedder.embed_word(&word))
            );
        }
        assert!(memo.stats().entries <= MAX_WORDS as u64);
        // An over-long word is never stored, even in an empty memo.
        let empty = WordMemo::default();
        let long = "x".repeat(MAX_WORD_BYTES + 1);
        let _ = empty.embed_word(&long);
        let _ = empty.embed_word(&long);
        assert_eq!(
            empty.stats(),
            MemoStats {
                hits: 0,
                misses: 2,
                entries: 0
            }
        );
    }

    #[test]
    fn a_memo_never_serves_another_parameter_sets_vectors() {
        let default = NgramEmbedder::default();
        let variants = [
            NgramEmbedder::without_lexicon(),
            NgramEmbedder {
                seed: 42,
                ..NgramEmbedder::default()
            },
            NgramEmbedder {
                dim: 16,
                ..NgramEmbedder::default()
            },
        ];
        let shared_default = Arc::new(WordMemo::new(default.clone()));
        // Warm the default memo first: were a variant to read it, it
        // would find every word below.
        for word in ["state", "id", "price", "zzz"] {
            let _ = shared_default.embed_word(word);
        }
        for variant in variants {
            let index = crate::EmbeddingIndex::build(variant.clone(), &["state", "id"]);
            assert!(!Arc::ptr_eq(index.word_memo(), &shared_default));
            let memo = index.word_memo();
            for word in ["state", "id", "price", "zzz"] {
                assert_eq!(
                    bits(&memo.embed_word(word)),
                    bits(&variant.embed_word(word))
                );
            }
            assert_ne!(
                bits(&memo.embed_word("state")),
                bits(&default.embed_word("state"))
            );
        }
        // A holder built *from* a memo takes the memo's embedder.
        let index = crate::EmbeddingIndex::build_with_memo(Arc::clone(&shared_default), &["id"]);
        assert_eq!(index.embedder().seed, default.seed);
        assert!(Arc::ptr_eq(index.word_memo(), &shared_default));
    }
}
