//! A bounded memo of word vectors.
//!
//! [`NgramEmbedder::embed_word`] is a pure function of the embedder's five
//! parameters and the lower-cased word, and it is expensive: every n-gram
//! of the word — and of each of its lexicon synonyms — is expanded into
//! `dim` pseudo-Gaussian draws. Column names, ontology labels and search
//! queries are built from a small vocabulary (1 285 distinct normalized
//! names of a synthetic corpus hold 2 412 tokens but 214 distinct ones),
//! so [`WordMemo`] keeps each word's vector after the first computation.
//!
//! Key, cap, worst-case footprint and lifetime are stated once, in the
//! crate docs (*Word-vector memo*); the constants are below.
//!
//! Concurrency: shards are selected by FNV hash of the word; a hit takes
//! one shard read-lock and clones an `Arc`. A miss computes *outside* any
//! lock and inserts under the shard write-lock; two threads missing the
//! same word both compute it, the first insert wins and both return equal
//! vectors.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use serde::{Deserialize, Serialize};

use crate::ngram::{fnv1a, lowered, mean_of_words, NgramEmbedder};

/// Shard count; must be a power of two.
pub const SHARDS: usize = 16;

/// Per-shard entry cap.
pub const MAX_WORDS_PER_SHARD: usize = 4096;

/// Most words a memo holds (65 536).
pub const MAX_WORDS: usize = SHARDS * MAX_WORDS_PER_SHARD;

/// Longest lower-cased word (in bytes) a memo stores; longer ones are
/// computed on every call, which bounds what one entry can cost.
pub const MAX_WORD_BYTES: usize = 64;

/// Counters of a [`WordMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoStats {
    /// Lookups answered with a stored vector.
    pub hits: u64,
    /// Lookups that computed the vector (stored or not).
    pub misses: u64,
    /// Words currently stored.
    pub entries: u64,
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

/// One lock's worth of the memo: lower-cased word → its unit vector.
type Shard = RwLock<HashMap<Box<str>, Arc<[f32]>>>;

/// A memoizing view of one [`NgramEmbedder`]: `word → unit vector`,
/// bounded, sharded, read-mostly. See the module documentation.
pub struct WordMemo {
    /// The parameter set every stored vector was computed under.
    embedder: NgramEmbedder,
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for WordMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordMemo")
            .field("embedder", &self.embedder)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for WordMemo {
    fn default() -> Self {
        WordMemo::new(NgramEmbedder::default())
    }
}

impl WordMemo {
    /// An empty memo computing with `embedder`.
    #[must_use]
    pub fn new(embedder: NgramEmbedder) -> Self {
        WordMemo {
            embedder,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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
        let shard = &self.shards[fnv1a(lower.as_bytes()) as usize & (SHARDS - 1)];
        if let Some(found) = shard.read().expect("word memo shard lock").get(lower) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed: Arc<[f32]> = self.embedder.embed_word_lower(lower).into();
        if lower.len() > MAX_WORD_BYTES {
            return computed;
        }
        let mut guard = shard.write().expect("word memo shard lock");
        if guard.len() >= MAX_WORDS_PER_SHARD {
            return computed;
        }
        // A concurrent miss of the same word may have inserted first; its
        // vector is equal, keep it.
        Arc::clone(guard.entry(lower.into()).or_insert(computed))
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
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("word memo shard lock").len() as u64)
                .sum(),
        }
    }
}

/// A holder's handle on its memo. Constructors fill it (so clones of the
/// holder share one memo); a holder that came out of deserialization —
/// the memo is never serialized — creates it on first use from the
/// embedder it was deserialized with.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemoSlot(OnceLock<Arc<WordMemo>>);

impl MemoSlot {
    pub(crate) fn of(memo: Arc<WordMemo>) -> Self {
        MemoSlot(OnceLock::from(memo))
    }

    pub(crate) fn get(&self, embedder: &NgramEmbedder) -> &Arc<WordMemo> {
        self.0
            .get_or_init(|| Arc::new(WordMemo::new(embedder.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
