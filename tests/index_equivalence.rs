//! Equivalence of the contiguous dot-product [`EmbeddingIndex`] with the
//! pre-refactor implementation: per-label `Vec<Vec<f32>>` rows scored by
//! full cosine (norms recomputed per query). The refactor stores one flat
//! L2-pre-normalized matrix and scores with a plain dot product, so the
//! top-1 neighbour over the full dbpedia ontology must be preserved for
//! every label and for messy real-world-style header queries.

use gittables_embed::{EmbeddingIndex, NgramEmbedder};
use gittables_ontology::{dbpedia, normalize_label};

/// The historical scoring path: cosine with norms computed per call.
fn ref_cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Pre-refactor brute top-1: argmax of cosine over unnormalized row
/// vectors, ties broken by ascending index.
fn ref_top1(embedder: &NgramEmbedder, rows: &[Vec<f32>], query: &str) -> Option<(usize, f32)> {
    let qv = embedder.embed(query);
    let mut best: Option<(usize, f32)> = None;
    for (i, v) in rows.iter().enumerate() {
        let sim = ref_cosine(&qv, v);
        if best.is_none_or(|(_, b)| sim > b) {
            best = Some((i, sim));
        }
    }
    best
}

fn build() -> (Vec<String>, Vec<Vec<f32>>, EmbeddingIndex) {
    let ontology = dbpedia();
    let labels: Vec<String> = ontology.types().iter().map(|t| t.label.clone()).collect();
    let embedder = NgramEmbedder::default();
    let rows: Vec<Vec<f32>> = labels.iter().map(|l| embedder.embed(l)).collect();
    let index = EmbeddingIndex::build(embedder, &labels);
    (labels, rows, index)
}

/// Messy header-style queries: abbreviations, typos, snake_case survivors.
const HEADER_QUERIES: &[&str] = &[
    "cust_name",
    "tot_price",
    "ship_city",
    "created_at",
    "birth_date",
    "order numbr",
    "speciess",
    "country code",
    "emial",
    "first name",
    "lat",
    "lon",
    "postal cd",
    "phone no",
    "user id",
];

#[test]
fn brute_dot_product_matches_reference_cosine_on_full_dbpedia() {
    let (labels, rows, index) = build();
    assert_eq!(index.len(), labels.len());
    // Every 7th label as a query keeps the quadratic reference affordable
    // while sweeping the whole alphabet of type labels.
    let queries: Vec<String> = labels
        .iter()
        .step_by(7)
        .map(|l| normalize_label(l))
        .chain(HEADER_QUERIES.iter().map(|q| normalize_label(q)))
        .collect();
    for q in &queries {
        let (ref_idx, ref_sim) = ref_top1(index.embedder(), &rows, q).expect("non-empty");
        let got = index.nearest_brute(q, 1)[0];
        // Pre-normalizing rows changes low-order float bits, so a genuine
        // near-tie may legitimately flip; anything else must agree exactly.
        assert!(
            got.index == ref_idx || (got.similarity - ref_sim).abs() < 1e-5,
            "query {q:?}: new top-1 {} ({}) vs reference {} ({})",
            labels[got.index],
            got.similarity,
            labels[ref_idx],
            ref_sim,
        );
        assert!(
            (got.similarity - ref_sim).abs() < 1e-4,
            "query {q:?}: similarity drifted: {} vs {}",
            got.similarity,
            ref_sim
        );
    }
}

#[test]
fn pruned_matches_brute_top1_on_every_label() {
    let (labels, _, index) = build();
    for label in &labels {
        let q = normalize_label(label);
        if q.is_empty() {
            continue;
        }
        let brute = index.nearest_brute(&q, 1)[0];
        let pruned = index.nearest_pruned(&q, 1)[0];
        assert_eq!(
            pruned.index, brute.index,
            "label {label:?}: pruned {} vs brute {}",
            labels[pruned.index], labels[brute.index]
        );
        assert_eq!(pruned.similarity, brute.similarity);
    }
}

#[test]
fn pruned_matches_reference_pruned_on_header_queries() {
    // Pruning is lossy by design (a label sharing no n-gram can still score
    // higher — "emial" does exactly that), so the oracle here is the
    // *pre-refactor pruned* search: reference cosine restricted to the same
    // candidate set, brute fallback when it is empty.
    let (labels, rows, index) = build();
    for q in HEADER_QUERIES {
        let q = normalize_label(q);
        let cands = index.candidates(&q);
        let qv = index.embedder().embed(&q);
        let reference = if cands.is_empty() {
            ref_top1(index.embedder(), &rows, &q)
        } else {
            let mut best: Option<(usize, f32)> = None;
            for &i in &cands {
                let sim = ref_cosine(&qv, &rows[i]);
                if best.is_none_or(|(_, b)| sim > b) {
                    best = Some((i, sim));
                }
            }
            best
        };
        let (ref_idx, ref_sim) = reference.expect("non-empty index");
        let pruned = index.nearest_pruned(&q, 1)[0];
        assert!(
            pruned.index == ref_idx || (pruned.similarity - ref_sim).abs() < 1e-5,
            "query {q:?}: pruned {} ({}) vs reference pruned {} ({})",
            labels[pruned.index],
            pruned.similarity,
            labels[ref_idx],
            ref_sim,
        );
    }
}

/// The candidate probe as it was before it shared lower-cased tokens and a
/// per-thread scratch, rebuilt from the public pieces: an inverted index
/// from 3- and 4-grams (plus the `<word>` token) to label ids, probed with
/// the whole lower-cased query first and then with every lexicon synonym
/// of every token, keeping first-seen order — the order the ranking breaks
/// ties by.
struct ReferenceProbe {
    inverted: std::collections::HashMap<String, Vec<usize>>,
    labels: usize,
}

impl ReferenceProbe {
    fn grams(tok: &str) -> Vec<String> {
        let e = NgramEmbedder::default();
        gittables_embed::ngrams(tok, e.n_min, e.n_max.min(4))
    }

    fn build(labels: &[String]) -> Self {
        let mut inverted: std::collections::HashMap<String, Vec<usize>> = Default::default();
        for (i, label) in labels.iter().enumerate() {
            for tok in label.to_lowercase().split_whitespace() {
                for gram in Self::grams(tok) {
                    let ids = inverted.entry(gram).or_default();
                    if ids.last() != Some(&i) {
                        ids.push(i);
                    }
                }
            }
        }
        ReferenceProbe {
            inverted,
            labels: labels.len(),
        }
    }

    fn probe(&self, text: &str, seen: &mut [bool], out: &mut Vec<usize>) {
        for tok in text.to_lowercase().split_whitespace() {
            for gram in Self::grams(tok) {
                for &i in self.inverted.get(&gram).map_or(&[][..], Vec::as_slice) {
                    if !std::mem::replace(&mut seen[i], true) {
                        out.push(i);
                    }
                }
            }
        }
    }

    fn candidates(&self, query: &str) -> Vec<usize> {
        let mut seen = vec![false; self.labels];
        let mut out = Vec::new();
        self.probe(query, &mut seen, &mut out);
        for tok in query.split_whitespace() {
            let tok = tok.to_lowercase();
            for group in gittables_embed::lexicon::SYNONYM_GROUPS {
                if group.contains(&tok.as_str()) {
                    for syn in group.iter().filter(|g| **g != tok) {
                        self.probe(syn, &mut seen, &mut out);
                    }
                }
            }
        }
        out
    }
}

#[test]
fn candidates_match_the_reference_probe_on_every_ontology_label_and_lexicon_word() {
    for ontology in [dbpedia(), gittables_ontology::schema_org()] {
        let labels: Vec<String> = ontology.types().iter().map(|t| t.label.clone()).collect();
        let index = EmbeddingIndex::build(NgramEmbedder::default(), &labels);
        let reference = ReferenceProbe::build(&labels);
        let lexicon = gittables_embed::lexicon::SYNONYM_GROUPS
            .iter()
            .flat_map(|g| g.iter().map(|w| (*w).to_string()));
        let queries = labels
            .iter()
            .cloned()
            .chain(labels.iter().map(|l| normalize_label(l)))
            .chain(lexicon)
            .chain(HEADER_QUERIES.iter().map(|q| (*q).to_string()))
            // Ties, repeats, shared prefixes, mixed case, non-ASCII
            // lower-casing, and nothing shared at all.
            .chain(
                [
                    "id id ID",
                    "order",
                    "order id",
                    "order ids",
                    "orders ordering",
                    "Birth Date",
                    "date of birth",
                    "State STATUS state",
                    "price cost amount fee",
                    "E-Mail address",
                    "zzxqwv qqq",
                    "",
                    "   ",
                    "İd ΟΔΟΣ ΑΣ \u{212a}ey",
                ]
                .map(String::from),
            );
        for q in queries {
            assert_eq!(index.candidates(&q), reference.candidates(&q), "{q:?}");
        }
    }
}
