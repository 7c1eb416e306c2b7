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
//! * a built-in synonym lexicon mixes related-word vectors into
//!   each word's embedding, giving genuinely *semantic* similarity between
//!   lexically unrelated terms (`sex` ≈ `gender`), standing in for what the
//!   Common Crawl pretraining provides.
//! * [`SentenceEncoder`] — SIF-weighted mean over token vectors, the USE
//!   substitute used for schemas and search queries.
//! * [`EmbeddingIndex`] — exact cosine nearest-neighbour search over a
//!   fixed label set: the semantic annotator's best-cosine type.
//! * [`best_k`] — the bounded top-`k` selection shared by the index and the
//!   §5 applications.
//! * [`Memo`] — the bounded, sharded map each value of which is computed
//!   once; [`WordMemo`], a memo of word vectors (below), and the
//!   annotation pipeline's per-name cache are both one.
//!
//! # Word-vector memo
//!
//! [`NgramEmbedder::embed_word`] is a pure function of the embedder's
//! parameters and the lower-cased word, and by far the most expensive step
//! of embedding anything (256 hash draws per n-gram, ~27 n-grams per
//! token, up to eight lexicon synonyms embedded per common word). Names,
//! labels and queries reuse a small vocabulary, so every holder of an
//! embedder — [`EmbeddingIndex`], [`SentenceEncoder`] — embeds through a
//! [`WordMemo`]:
//!
//! * **key** — the lower-cased word, within one memo per parameter set:
//!   a memo owns the [`NgramEmbedder`] copy it computes with, and a holder
//!   built from a shared memo ([`EmbeddingIndex::build_with_memo`]) takes
//!   *its* embedder from the memo, so no memo can hold a vector computed
//!   under other parameters;
//! * **cap** — 65 536 words (`WORD_SHARDS` × `MAX_WORDS_PER_SHARD`,
//!   16 × 4 096) of at most `MAX_WORD_BYTES` (64) bytes; past either a lookup computes
//!   without storing, so results never depend on what is stored;
//! * **worst-case footprint** — ~400 B per entry at the default `dim` of
//!   64 (256 B of vector, ≤ 80 B of key, `Arc` and hash-slot overhead):
//!   ~26 MB for a full memo, under 1 MB for a realistic vocabulary;
//! * **concurrency** — a hit takes one shard read lock; a miss computes
//!   under its shard's write lock, so a word that several threads miss at
//!   once is computed once and counted as one miss: the counters of a
//!   run are the same at any number of threads (see [`Memo`]);
//! * **lifetime** — owned by its holder, shared by the holder's clones,
//!   never serialized (no holder is), never a process-global.
//!
//! `NgramEmbedder`'s own `embed_word`/`embed` stay uncached: they are the
//! definition the memo is tested against, by bits.
//!
//! # Scoring kernel
//!
//! [`dot`] sums its products in element order from `f32::sum`'s initial
//! value — one chain of 64 dependent adds, which the compiler may not
//! reorder and the CPU cannot overlap. The one kernel, [`PackedRows`],
//! keeps *that order within every row* and runs many rows' chains side
//! by side: row `r`'s accumulator starts from the same initial value and
//! receives the same products `a[0]·row[0], a[1]·row[1], …` in the same
//! order, so each of its intermediate sums — and the result — is the
//! `f32` [`dot`] computes, bit for bit; only adds of *different* rows are
//! interleaved, and those never meet. No `unsafe`, no target features:
//! the independent chains are what lets the optimizer pack rows into
//! vector lanes.
//!
//! The rows are copied once into blocks of eight stored element-major,
//! and [`PackedRows::dots_into`] sweeps the query once per four blocks —
//! 32 accumulators per pass, each query element multiplying eight
//! adjacent values per block — over any run of consecutive rows. Every
//! ranker scores through it:
//!
//! * data search (`gittables_core::apps::DataSearch`) packs its schema
//!   rows when the index is assembled and scans all of them;
//! * [`EmbeddingIndex`]'s nearest-type search packs every ontology label
//!   and keeps only the packed copy;
//! * schema completion (`gittables_core::apps::NearestCompletion`) packs
//!   its attribute rows position by position, each position's schemas
//!   longest first, on its first query: the schemas long enough to
//!   complete a prefix are then the leading rows of each position's run,
//!   one consecutive run per prefix attribute.
//!
//! A cosine needs two norms besides the dot product. The query's is
//! computed once per call by the caller. A row's is a constant of the
//! index: data search and schema completion compute it once, where their
//! packed copy is made, with the plain per-row [`norm`] — the value
//! [`cosine_with_norm`] would have computed — and finish every cosine
//! with [`cosine_of_dot`], where the zero-norm guard, the division and
//! the clamp are written once ([`EmbeddingIndex`] normalizes its label
//! rows instead).
//!
//! Every ranker selects with [`best_k`]: a bounded max-heap of the best
//! `k` so far, with the worst kept score held as a floor once the heap is
//! full. A score below the floor is turned away by one `f64` compare, so
//! after the first few rows nearly every row costs that compare and
//! nothing else; the rest (a NaN, a signed zero, a tie) take the full
//! order. The selection is the stable sort's prefix either way (see
//! [`best_k`]) and stays O(n log k).
//!
//! [`dot`], [`norm`], [`cosine`] and [`cosine_with_norm`] remain the
//! reference (`vector`'s proptests compare `to_bits` over every block
//! remainder — of 8 and of 32 rows — any run of rows, dims 0–130, signed
//! zeros and subnormals).
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod lexicon;
mod memo;
mod ngram;
mod rank;
mod sentence;
mod vector;

pub use index::{EmbeddingIndex, Neighbor};
pub use memo::{Memo, MemoStats, WordMemo};
pub use ngram::{fnv1a, NgramEmbedder};
pub use rank::{best_k, desc_nan_last};
pub use sentence::SentenceEncoder;
pub use vector::{cosine, cosine_of_dot, cosine_with_norm, dot, norm, normalize, PackedRows};
