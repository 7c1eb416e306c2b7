//! Character n-gram extraction and the deterministic FastText-style embedder.
//!
//! FastText represents a word as the set of its character n-grams between
//! `n_min` and `n_max` characters, with `<` and `>` appended as word boundary
//! markers, plus the full word itself. We reproduce that scheme; instead of
//! trained n-gram vectors we derive each n-gram's vector deterministically
//! from its 64-bit hash (splitmix64-expanded into pseudo-Gaussian
//! coordinates), which preserves the key property the annotation pipeline
//! needs — lexically overlapping strings receive similar vectors — without
//! external weights.

use std::borrow::Cow;

use crate::lexicon;
use crate::vector::{add_scaled, cosine, normalize, scale_inv};

/// Extracts FastText-style character n-grams from a single word, including
/// boundary markers and the full `<word>` token.
#[must_use]
pub fn ngrams(word: &str, n_min: usize, n_max: usize) -> Vec<String> {
    let bounded: Vec<char> = std::iter::once('<')
        .chain(word.chars())
        .chain(std::iter::once('>'))
        .collect();
    let mut out = Vec::new();
    for n in n_min..=n_max {
        if n > bounded.len() {
            break;
        }
        for w in bounded.windows(n) {
            out.push(w.iter().collect());
        }
    }
    // The full token (distinguishes the word from its substrings).
    out.push(bounded.iter().collect());
    out
}

/// Reusable scratch for borrowed n-gram iteration: holds the boundary-marked
/// token (`<word>`) and its char-boundary offsets so grams can be yielded as
/// `&str` slices instead of allocating one `String` per gram (embedding a
/// word walks every gram of it).
#[derive(Debug, Default, Clone)]
pub(crate) struct GramBuf {
    buf: String,
    bounds: Vec<usize>,
}

impl GramBuf {
    /// Calls `f` with every FastText-style n-gram of `word` — boundary
    /// markers included, full `<word>` token last — in exactly the order
    /// [`ngrams`] returns them, without allocating per gram.
    pub fn for_each_gram(
        &mut self,
        word: &str,
        n_min: usize,
        n_max: usize,
        mut f: impl FnMut(&str),
    ) {
        self.buf.clear();
        self.bounds.clear();
        self.buf.push('<');
        self.buf.push_str(word);
        self.buf.push('>');
        self.bounds.extend(self.buf.char_indices().map(|(i, _)| i));
        self.bounds.push(self.buf.len());
        let nchars = self.bounds.len() - 1;
        for n in n_min..=n_max {
            if n > nchars {
                break;
            }
            for i in 0..=nchars - n {
                f(&self.buf[self.bounds[i]..self.bounds[i + n]]);
            }
        }
        // The full token (distinguishes the word from its substrings).
        f(&self.buf);
    }
}

/// `word.to_lowercase()`, borrowing when that would be a copy: an ASCII
/// word without upper-case letters is its own lower-casing (the shape of
/// every normalized column name and lexicon entry). Everything else takes
/// the full Unicode mapping, so the result always equals `to_lowercase`.
#[must_use]
pub(crate) fn lowered(word: &str) -> Cow<'_, str> {
    if word.is_ascii() && !word.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Borrowed(word)
    } else {
        Cow::Owned(word.to_lowercase())
    }
}

/// FNV-1a 64-bit hash.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic char-n-gram embedder.
#[derive(Debug, Clone)]
pub struct NgramEmbedder {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Minimum n-gram length.
    pub n_min: usize,
    /// Maximum n-gram length.
    pub n_max: usize,
    /// Weight with which synonym vectors are mixed into word vectors
    /// (`0.0` disables the lexicon — the pure-syntactic ablation).
    pub synonym_weight: f32,
    /// Seed mixed into every n-gram hash.
    pub seed: u64,
}

impl Default for NgramEmbedder {
    fn default() -> Self {
        NgramEmbedder {
            dim: 64,
            n_min: 3,
            n_max: 6,
            synonym_weight: 0.6,
            seed: 0x6174_7462_6c65, // "attble"
        }
    }
}

impl NgramEmbedder {
    /// An embedder without the synonym lexicon (syntactic-only ablation).
    #[must_use]
    pub fn without_lexicon() -> Self {
        NgramEmbedder {
            synonym_weight: 0.0,
            ..Self::default()
        }
    }

    /// Deterministic pseudo-Gaussian unit vector for one n-gram, written
    /// into a caller-provided scratch buffer of length `dim`.
    fn ngram_vector_into(&self, gram: &str, v: &mut [f32]) {
        debug_assert_eq!(v.len(), self.dim);
        let mut state = fnv1a(gram.as_bytes()) ^ self.seed;
        for x in v.iter_mut() {
            // Sum of 4 uniforms, centered: cheap approximately-Gaussian draw.
            let mut acc = 0.0f32;
            for _ in 0..4 {
                let u = (splitmix64(&mut state) >> 40) as f32 / (1u64 << 24) as f32;
                acc += u;
            }
            *x = acc - 2.0;
        }
        normalize(v);
    }

    /// Embeds a single word: mean of its n-gram vectors, mixed with synonym
    /// word vectors per the lexicon, renormalized to unit length. A pure
    /// function of `self`'s fields and `word.to_lowercase()` — which is
    /// what lets [`crate::WordMemo`] keep the result.
    #[must_use]
    pub fn embed_word(&self, word: &str) -> Vec<f32> {
        self.embed_word_lower(&lowered(word))
    }

    /// [`Self::embed_word`] of an already lower-cased word.
    pub(crate) fn embed_word_lower(&self, lower: &str) -> Vec<f32> {
        let mut v = self.embed_word_raw(lower);
        if self.synonym_weight > 0.0 {
            let syns = lexicon::synonyms_of_lower(lower);
            if !syns.is_empty() {
                let w = self.synonym_weight / syns.len() as f32;
                for syn in syns {
                    let sv = self.embed_word_raw(syn);
                    add_scaled(&mut v, &sv, w);
                }
            }
        }
        normalize(&mut v);
        v
    }

    /// Embedding of a lower-cased word without lexicon mixing. Grams are
    /// iterated borrowed and each gram vector is generated into one reused
    /// scratch buffer, so embedding a word performs no per-gram allocation.
    fn embed_word_raw(&self, lower: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        let mut gram_vec = vec![0.0f32; self.dim];
        let mut count = 0usize;
        let mut grams = GramBuf::default();
        grams.for_each_gram(lower, self.n_min, self.n_max, |g| {
            self.ngram_vector_into(g, &mut gram_vec);
            add_scaled(&mut v, &gram_vec, 1.0);
            count += 1;
        });
        scale_inv(&mut v, count as f32);
        normalize(&mut v);
        v
    }

    /// Embeds a phrase (whitespace-tokenized): mean of word vectors,
    /// unit-normalized. Empty/whitespace input yields the zero vector.
    #[must_use]
    pub fn embed(&self, text: &str) -> Vec<f32> {
        mean_of_words(
            self.dim,
            text.split_whitespace().map(|tok| self.embed_word(tok)),
        )
    }

    /// Cosine similarity between the embeddings of two strings.
    #[must_use]
    pub fn cosine(&self, a: &str, b: &str) -> f32 {
        cosine(&self.embed(a), &self.embed(b))
    }
}

/// The phrase embedding over its word vectors: their mean, unit-normalized
/// (the zero vector for no words). Shared by [`NgramEmbedder::embed`] and
/// the memoized [`crate::WordMemo::embed`] so both add in the same order.
pub(crate) fn mean_of_words<V: AsRef<[f32]>>(
    dim: usize,
    words: impl Iterator<Item = V>,
) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    let mut n = 0usize;
    for word in words {
        add_scaled(&mut v, word.as_ref(), 1.0);
        n += 1;
    }
    if n > 0 {
        scale_inv(&mut v, n as f32);
        normalize(&mut v);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowered_equals_to_lowercase() {
        for w in [
            "id",
            "ID",
            "e-mail",
            "",
            "İd",
            "ẞ",
            "\u{212a}ey",
            "ΟΔΟΣ",
            "ǅ",
            "日本",
        ] {
            assert_eq!(lowered(w), w.to_lowercase(), "{w:?}");
        }
        assert!(matches!(lowered("order_id 7"), Cow::Borrowed(_)));
    }

    #[test]
    fn ngram_extraction() {
        let g = ngrams("ab", 3, 4);
        // "<ab>": 3-grams "<ab","ab>"; 4-gram "<ab>"; full token "<ab>".
        assert!(g.contains(&"<ab".to_string()));
        assert!(g.contains(&"ab>".to_string()));
        assert_eq!(g.iter().filter(|s| s.as_str() == "<ab>").count(), 2);
    }

    #[test]
    fn ngrams_short_word() {
        // Word shorter than n_min still yields the full token.
        let g = ngrams("a", 3, 6);
        assert_eq!(g, vec!["<a>".to_string(), "<a>".to_string()]);
    }

    #[test]
    fn gram_buf_matches_ngrams() {
        for word in ["ab", "a", "order", "číslo", "日本語id"] {
            for (n_min, n_max) in [(3, 6), (2, 4), (3, 4)] {
                let mut got = Vec::new();
                GramBuf::default().for_each_gram(word, n_min, n_max, |g| got.push(g.to_string()));
                assert_eq!(got, ngrams(word, n_min, n_max), "{word} {n_min}..{n_max}");
            }
        }
    }

    #[test]
    fn fnv_distinct() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }

    #[test]
    fn identical_strings_cosine_one() {
        let e = NgramEmbedder::default();
        assert!((e.cosine("product id", "product id") - 1.0).abs() < 1e-6);
    }

    #[test]
    fn case_insensitive() {
        let e = NgramEmbedder::default();
        assert!((e.cosine("Product ID", "product id") - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shared_subwords_similar() {
        let e = NgramEmbedder::default();
        let related = e.cosine("order number", "order num");
        let unrelated = e.cosine("order number", "species");
        assert!(related > 0.55, "related = {related}");
        assert!(unrelated < related - 0.2, "unrelated = {unrelated}");
    }

    #[test]
    fn lexicon_makes_synonyms_similar() {
        let with = NgramEmbedder::default();
        let without = NgramEmbedder::without_lexicon();
        let s_with = with.cosine("sex", "gender");
        let s_without = without.cosine("sex", "gender");
        assert!(
            s_with > s_without + 0.15,
            "with={s_with}, without={s_without}"
        );
    }

    #[test]
    fn empty_text_zero_vector() {
        let e = NgramEmbedder::default();
        let v = e.embed("   ");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(e.cosine("", "id"), 0.0);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = NgramEmbedder::default().embed("status code");
        let b = NgramEmbedder::default().embed("status code");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_embedding() {
        let a = NgramEmbedder::default();
        let b = NgramEmbedder {
            seed: 42,
            ..NgramEmbedder::default()
        };
        assert_ne!(a.embed("id"), b.embed("id"));
    }

    #[test]
    fn unit_norm() {
        let e = NgramEmbedder::default();
        let v = e.embed("customer address");
        let n = crate::vector::norm(&v);
        assert!((n - 1.0).abs() < 1e-5);
    }
}
