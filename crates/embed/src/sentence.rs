//! SIF-weighted sentence/schema encoder — the Universal Sentence Encoder
//! substitute used by schema completion (§5.2) and data search (§5.3).
//!
//! Smooth Inverse Frequency (Arora et al., 2017) weights each token by
//! `a / (a + p(w))` where `p(w)` is the word's relative frequency; frequent
//! filler words contribute less. We embed tokens with the crate's
//! [`NgramEmbedder`] and use a small built-in frequency table of common
//! header/query filler tokens.

use std::sync::Arc;

use crate::memo::WordMemo;
use crate::ngram::{lowered, NgramEmbedder};
use crate::vector::{add_scaled, cosine, normalize};

/// Tokens that are near-ubiquitous in headers and natural-language queries,
/// with hand-set relative frequencies. Anything absent gets `DEFAULT_FREQ`.
const COMMON_TOKENS: &[(&str, f32)] = &[
    ("the", 0.05),
    ("a", 0.04),
    ("an", 0.02),
    ("of", 0.04),
    ("and", 0.04),
    ("or", 0.02),
    ("per", 0.01),
    ("by", 0.015),
    ("in", 0.03),
    ("for", 0.02),
    ("to", 0.03),
    ("with", 0.015),
    ("id", 0.02),
    ("name", 0.02),
    ("date", 0.015),
    ("number", 0.01),
    ("value", 0.01),
    ("type", 0.012),
];

/// Relative frequency assumed for unknown tokens.
const DEFAULT_FREQ: f32 = 0.0005;

/// SIF-weighted sentence encoder over [`NgramEmbedder`] word vectors.
#[derive(Debug, Clone)]
pub struct SentenceEncoder {
    /// SIF smoothing constant `a`.
    pub sif_a: f32,
    /// The word embedder and its vectors, remembered (clones of an
    /// encoder share one memo).
    memo: Arc<WordMemo>,
}

impl Default for SentenceEncoder {
    fn default() -> Self {
        SentenceEncoder::new(NgramEmbedder::default())
    }
}

impl SentenceEncoder {
    /// Creates an encoder over a custom embedder, with a word-vector memo
    /// of its own.
    #[must_use]
    pub fn new(embedder: NgramEmbedder) -> Self {
        SentenceEncoder {
            sif_a: 1e-2,
            memo: Arc::new(WordMemo::new(embedder)),
        }
    }

    /// The underlying word embedder.
    #[must_use]
    pub fn embedder(&self) -> &NgramEmbedder {
        self.memo.embedder()
    }

    /// The word-vector memo behind [`Self::embed`].
    #[must_use]
    pub fn word_memo(&self) -> &Arc<WordMemo> {
        &self.memo
    }

    /// SIF weight of an already lower-cased token.
    fn token_weight(&self, lower: &str) -> f32 {
        let freq = COMMON_TOKENS
            .iter()
            .find(|(t, _)| *t == lower)
            .map_or(DEFAULT_FREQ, |(_, f)| *f);
        self.sif_a / (self.sif_a + freq)
    }

    /// Embeds a sentence / attribute name / query into a unit vector.
    /// Tokenization: split on whitespace and punctuation, keep alphanumerics.
    #[must_use]
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.embedder().dim];
        let mut total_w = 0.0f32;
        for tok in tokenize(text) {
            // Lower-cased once: the weight table's and the memo's key.
            let lower = lowered(tok);
            let w = self.token_weight(&lower);
            add_scaled(&mut v, &self.memo.embed_word_lower(&lower), w);
            total_w += w;
        }
        if total_w > 0.0 {
            normalize(&mut v);
        }
        v
    }

    /// Cosine similarity between two encoded texts.
    #[must_use]
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        cosine(&self.embed(a), &self.embed(b))
    }

    /// Embeds a whole schema (list of attributes): mean of per-attribute
    /// embeddings, unit-normalized. Used by data search (§5.3) where entire
    /// table schemas are compared against queries.
    #[must_use]
    pub fn embed_schema<S: AsRef<str>>(&self, attributes: &[S]) -> Vec<f32> {
        let mut v = vec![0.0f32; self.embedder().dim];
        for a in attributes {
            add_scaled(&mut v, &self.embed(a.as_ref()), 1.0);
        }
        normalize(&mut v);
        v
    }
}

/// Splits into alphanumeric tokens (drops punctuation, preserves digits).
fn tokenize(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `embed` as it was before the memo: per-token `to_lowercase` for the
    /// weight, uncached `embed_word` for the vector.
    fn embed_reference(e: &SentenceEncoder, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; e.embedder().dim];
        let mut total_w = 0.0f32;
        for tok in tokenize(text) {
            let lower = tok.to_lowercase();
            let freq = COMMON_TOKENS
                .iter()
                .find(|(t, _)| *t == lower)
                .map_or(DEFAULT_FREQ, |(_, f)| *f);
            let w = e.sif_a / (e.sif_a + freq);
            add_scaled(&mut v, &e.embedder().embed_word(tok), w);
            total_w += w;
        }
        if total_w > 0.0 {
            normalize(&mut v);
        }
        v
    }

    #[test]
    fn memoized_embed_equals_the_uncached_reference_by_bits() {
        let e = SentenceEncoder::default();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for text in [
            "status and sales amount per product",
            "The ID of the Order",
            "order_date, requiredDate!",
            "İd ẞ \u{212a}ey ΟΔΟΣ",
            "",
            "—!!—",
        ] {
            for _ in 0..2 {
                assert_eq!(
                    bits(&e.embed(text)),
                    bits(&embed_reference(&e, text)),
                    "{text:?}"
                );
            }
        }
        assert!(e.word_memo().stats().hits > 0);
    }

    #[test]
    fn clones_share_one_memo() {
        let e = SentenceEncoder::default();
        assert!(Arc::ptr_eq(e.clone().word_memo(), e.word_memo()));
    }

    #[test]
    fn identical_similarity_one() {
        let e = SentenceEncoder::default();
        assert!((e.similarity("order date", "order date") - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tokenizer_strips_punctuation() {
        let toks: Vec<&str> = tokenize("order_date, requiredDate!").collect();
        assert_eq!(toks, vec!["order", "date", "requiredDate"]);
    }

    #[test]
    fn filler_words_downweighted() {
        let e = SentenceEncoder::default();
        // Adding a filler word should change the embedding less than adding a
        // content word.
        let base = e.embed("sales");
        let with_filler = e.embed("the sales");
        let with_content = e.embed("voltage sales");
        let sim_filler = cosine(&base, &with_filler);
        let sim_content = cosine(&base, &with_content);
        assert!(sim_filler > sim_content, "{sim_filler} vs {sim_content}");
    }

    #[test]
    fn related_attributes_closer_than_unrelated() {
        let e = SentenceEncoder::default();
        let related = e.similarity("order number", "order tracking number");
        let unrelated = e.similarity("order number", "species habitat");
        assert!(related > unrelated + 0.2, "{related} vs {unrelated}");
    }

    #[test]
    fn schema_embedding_unit_norm() {
        let e = SentenceEncoder::default();
        let v = e.embed_schema(&["id", "name", "price"]);
        assert!((crate::vector::norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_zero() {
        let e = SentenceEncoder::default();
        assert!(e.embed("—!!—").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn schema_similarity_reflects_content() {
        let e = SentenceEncoder::default();
        let orders = e.embed_schema(&["order id", "order date", "total price", "status"]);
        let employees = e.embed_schema(&["emp no", "birth date", "first name", "last name"]);
        let query = e.embed("status and sales amount per product");
        let s_orders = cosine(&query, &orders);
        let s_emp = cosine(&query, &employees);
        assert!(s_orders > s_emp, "orders {s_orders} vs employees {s_emp}");
    }
}
