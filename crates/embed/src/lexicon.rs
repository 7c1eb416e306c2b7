//! Built-in synonym lexicon standing in for distributional semantics.
//!
//! A FastText model pretrained on Common Crawl places genuinely related words
//! (`sex`/`gender`, `cost`/`price`) near each other even when they share no
//! character n-grams. Our deterministic embedder cannot learn that from data,
//! so this module provides the curated relatedness signal instead: words in
//! the same group have each other's vectors mixed into their embeddings (see
//! [`crate::NgramEmbedder::embed_word`]). Groups are drawn from the header
//! vocabulary that GitTables-style CSVs actually use.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Synonym groups. Every word in a group is considered related to every other
/// word in the same group.
pub const SYNONYM_GROUPS: &[&[&str]] = &[
    &["id", "identifier", "key", "uid", "uuid", "pk", "no"],
    &["name", "title", "label", "caption"],
    &["sex", "gender"],
    &["cost", "price", "amount", "fee", "charge"],
    &["salary", "wage", "pay", "income"],
    &["country", "nation"],
    &["city", "town", "municipality", "locality"],
    &["state", "province", "region"],
    &["address", "location", "place"],
    &["zip", "zipcode", "postcode", "postal"],
    &["phone", "telephone", "mobile", "tel"],
    &["mail", "email", "e-mail"],
    &["birthday", "birthdate", "dob", "born"],
    &["firstname", "forename", "given"],
    &["surname", "lastname", "family"],
    &[
        "company",
        "organization",
        "organisation",
        "firm",
        "employer",
        "corp",
    ],
    &["job", "occupation", "profession", "role", "position"],
    &["date", "day", "time", "timestamp", "datetime", "when"],
    &["year", "yr"],
    &["quantity", "qty", "count", "num", "number", "total"],
    &[
        "description",
        "desc",
        "summary",
        "abstract",
        "notes",
        "note",
        "comment",
        "remarks",
        "text",
    ],
    &["status", "state", "condition", "stage"],
    &["type", "kind", "category", "class", "group", "genre"],
    &["value", "val", "measure", "measurement", "reading"],
    &["score", "rating", "rank", "grade", "points"],
    &["weight", "mass"],
    &["height", "elevation", "altitude"],
    &["width", "breadth"],
    &["length", "distance"],
    &["speed", "velocity"],
    &["image", "picture", "photo", "img", "thumbnail"],
    &["url", "link", "website", "href", "uri"],
    &["author", "writer", "creator"],
    &["song", "track", "tune"],
    &["film", "movie"],
    &["car", "vehicle", "automobile"],
    &["begin", "start", "from", "open"],
    &["end", "finish", "stop", "until", "close"],
    &["latitude", "lat"],
    &["longitude", "lon", "lng", "long"],
    &["avg", "average", "mean"],
    &["min", "minimum", "lowest"],
    &["max", "maximum", "highest"],
    &["pct", "percent", "percentage", "ratio", "fraction", "share"],
    &["revenue", "sales", "turnover", "earnings"],
    &["customer", "client", "buyer", "purchaser"],
    &["seller", "vendor", "supplier", "merchant"],
    &["user", "member", "account"],
    &["student", "pupil", "learner"],
    &["teacher", "instructor", "professor", "lecturer"],
    &["doctor", "physician"],
    &["species", "organism", "taxon"],
    &["gene", "locus"],
    &["error", "fault", "failure", "defect", "bug"],
    &["size", "dimension"],
    &["code", "abbreviation", "symbol", "ticker"],
    &["currency", "money"],
    &["language", "lang", "locale"],
    &["team", "club", "squad"],
    &["game", "match", "fixture"],
    &["result", "outcome"],
    &["winner", "champion"],
    &["order", "purchase"],
    &["invoice", "bill", "receipt"],
    &["delivery", "shipment", "shipping"],
    &["manager", "supervisor", "boss", "lead"],
    &["department", "division", "unit", "section"],
    &["version", "revision", "release"],
    &["model", "variant"],
    &["brand", "make", "manufacturer"],
    &["parent", "mother", "father"],
    &["child", "kid", "offspring"],
    &["spouse", "partner", "husband", "wife"],
];

/// Returns the synonyms of `word` (lowercased exact match), excluding the
/// word itself. Empty when the word is not in the lexicon.
///
/// The order is part of the contract — groups in [`SYNONYM_GROUPS`] order,
/// then in-group order; a word in two groups gets both lists concatenated —
/// because [`crate::NgramEmbedder::embed_word`] adds synonym vectors in
/// this order and float addition does not commute across it.
#[must_use]
pub fn synonyms(word: &str) -> &'static [&'static str] {
    synonyms_of_lower(&crate::ngram::lowered(word))
}

/// [`synonyms`] of a word that is already lower-cased: one hash lookup in
/// a table built on first use, no allocation.
pub(crate) fn synonyms_of_lower(lower: &str) -> &'static [&'static str] {
    static TABLE: OnceLock<HashMap<&'static str, Vec<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table: HashMap<&'static str, Vec<&'static str>> = HashMap::new();
        for group in SYNONYM_GROUPS {
            for &word in *group {
                let others = group.iter().copied().filter(|g| *g != word);
                table.entry(word).or_default().extend(others);
            }
        }
        table
    });
    table.get(lower).map_or(&[], Vec::as_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-call scan [`synonyms`] replaced, kept as the oracle.
    fn synonyms_by_scan(word: &str) -> Vec<&'static str> {
        let w = word.to_lowercase();
        let mut out = Vec::new();
        for group in SYNONYM_GROUPS {
            if group.iter().any(|g| *g == w) {
                out.extend(group.iter().copied().filter(|g| *g != w));
            }
        }
        out
    }

    #[test]
    fn table_equals_the_scan_in_content_and_order() {
        let members = SYNONYM_GROUPS.iter().flat_map(|g| g.iter().copied());
        // "\u{212a}ey": the Kelvin sign lower-cases to an ASCII `k`.
        for word in members.chain(["STATE", "State", "\u{212a}ey", "zzzunknown", "", "İd"]) {
            assert_eq!(synonyms(word), synonyms_by_scan(word), "{word:?}");
        }
        assert_eq!(synonyms("\u{212a}ey"), synonyms("key"));
        assert!(synonyms("state").len() > 4, "both groups of `state`");
    }

    #[test]
    fn lookup_symmetric() {
        assert!(synonyms("sex").contains(&"gender"));
        assert!(synonyms("gender").contains(&"sex"));
    }

    #[test]
    fn case_insensitive() {
        assert!(synonyms("SEX").contains(&"gender"));
    }

    #[test]
    fn unknown_word_empty() {
        assert!(synonyms("zzzunknown").is_empty());
    }

    #[test]
    fn word_in_multiple_groups() {
        // "state" appears in both the state/province and status groups.
        let s = synonyms("state");
        assert!(s.contains(&"province"));
        assert!(s.contains(&"status"));
    }

    #[test]
    fn excludes_self() {
        assert!(!synonyms("id").contains(&"id"));
    }
}
