//! FastText-style embeddings for the GitTables annotation pipeline.
//!
//! The paper's *semantic annotation* method (§3.4) embeds column names and
//! semantic types with the character-level n-gram FastText model pretrained on
//! Common Crawl, and matches them by cosine similarity; the schema-completion
//! and data-search applications (§5.2–5.3) embed multi-word attributes with
//! the Universal Sentence Encoder. Pretrained weights are an external
//! resource, so this crate implements the same *architecture* with
//! deterministic weights:
//!
//! * [`NgramEmbedder`] — each character n-gram (3..=6, with `<`/`>` word
//!   boundary markers, exactly FastText's scheme) is hashed to a deterministic
//!   pseudo-random unit vector; a word is the mean of its n-gram vectors and a
//!   phrase the mean of its word vectors. Shared sub-words ⇒ high cosine,
//!   which is the property the annotation pipeline exploits (the Fig. 4c peak
//!   at cosine 1 comes from syntactic resemblance).
//! * [`lexicon`] — a built-in synonym lexicon mixes related-word vectors into
//!   each word's embedding, giving genuinely *semantic* similarity between
//!   lexically unrelated terms (`sex` ≈ `gender`), standing in for what the
//!   Common Crawl pretraining provides.
//! * [`SentenceEncoder`] — SIF-weighted mean over token vectors, the USE
//!   substitute used for schemas and search queries.
//! * [`EmbeddingIndex`] — cosine nearest-neighbour search with an optional
//!   inverted n-gram candidate filter (the ablation of DESIGN.md §4.2).
//! * [`rank`] — the bounded top-`k` selection shared by the index and the
//!   §5 applications.
//!
//! # Example
//!
//! ```
//! use gittables_embed::NgramEmbedder;
//!
//! let e = NgramEmbedder::default();
//! let sim_same = e.cosine("birth date", "birth date");
//! let sim_related = e.cosine("birth date", "birthdate");
//! let sim_unrelated = e.cosine("birth date", "voltage");
//! assert!((sim_same - 1.0).abs() < 1e-6);
//! assert!(sim_related > 0.3);
//! assert!(sim_unrelated < sim_related);
//! ```

#![warn(missing_docs)]

pub mod index;
pub mod lexicon;
pub mod ngram;
pub mod rank;
pub mod sentence;
pub mod vector;

pub use index::{EmbeddingIndex, Neighbor};
pub use ngram::{ngrams, GramBuf, NgramEmbedder};
pub use rank::{asc_nan_last, desc_nan_last, top_k_by};
pub use sentence::SentenceEncoder;
pub use vector::{cosine, cosine_with_norm, dot, norm, normalize};
