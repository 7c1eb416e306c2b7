//! Seeded value generators for every semantic domain the corpus needs.
//!
//! The value distributions intentionally carry the biases the paper measures
//! in Table 6: country columns are dominated by "United States" (plus "USA"),
//! city columns by New York / London / Coquitlam / Cambridge, gender columns
//! by Male/Female/F/M, etc., so the bias-audit experiment reproduces the
//! published frequent-value lists.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// First names used for person-name generation.
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "John",
    "Patricia",
    "Robert",
    "Jennifer",
    "Michael",
    "Linda",
    "William",
    "Elizabeth",
    "David",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Daniel",
    "Nancy",
    "Matthew",
    "Lisa",
    "Anthony",
    "Betty",
    "Mark",
    "Margaret",
    "Paul",
    "Sandra",
    "Steven",
    "Ashley",
    "Andrew",
    "Kimberly",
    "Kenneth",
    "Emily",
    "George",
    "Donna",
    "Joshua",
    "Michelle",
    "Kevin",
    "Carol",
    "Brian",
    "Amanda",
    "Edward",
    "Melissa",
    "Ronald",
    "Deborah",
    "Timothy",
    "Stephanie",
    "Jason",
    "Rebecca",
    "Jeffrey",
    "Laura",
    "Ryan",
    "Sharon",
    "Jacob",
    "Cynthia",
    "Gary",
    "Kathleen",
    "Nicholas",
    "Amy",
    "Eric",
    "Angela",
    "Stephen",
    "Anna",
    "Jonathan",
    "Ruth",
    "Larry",
    "Brenda",
];

/// Last names used for person-name generation.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
    "Green",
    "Adams",
    "Nelson",
    "Baker",
    "Hall",
    "Rivera",
    "Campbell",
    "Mitchell",
    "Carter",
    "Roberts",
    "Gomez",
    "Phillips",
    "Evans",
    "Turner",
    "Diaz",
    "Parker",
    "Cruz",
    "Edwards",
    "Collins",
    "Reyes",
    "Stewart",
    "Morris",
];

/// Countries, weighted toward Western/English-speaking per Table 6.
pub const COUNTRIES: &[(&str, u32)] = &[
    ("United States", 30),
    ("USA", 10),
    ("Canada", 14),
    ("Belgium", 10),
    ("Germany", 9),
    ("United Kingdom", 8),
    ("France", 6),
    ("Netherlands", 6),
    ("Australia", 5),
    ("Spain", 4),
    ("Italy", 4),
    ("Vietnam", 3),
    ("Japan", 3),
    ("Brazil", 3),
    ("India", 3),
    ("Mexico", 2),
    ("China", 2),
    ("Sweden", 2),
    ("Norway", 2),
    ("Poland", 2),
    ("Kenya", 1),
    ("Nigeria", 1),
    ("Egypt", 1),
    ("Argentina", 1),
    ("Chile", 1),
    ("Thailand", 1),
    ("Indonesia", 1),
    ("Turkey", 1),
    ("South Africa", 1),
    ("New Zealand", 1),
];

/// Cities, weighted per Table 6's frequent values.
pub const CITIES: &[(&str, u32)] = &[
    ("New York", 20),
    ("London", 14),
    ("Coquitlam", 10),
    ("Cambridge", 9),
    ("Toronto", 6),
    ("Chicago", 6),
    ("Los Angeles", 5),
    ("San Francisco", 5),
    ("Boston", 5),
    ("Seattle", 4),
    ("Berlin", 4),
    ("Paris", 4),
    ("Amsterdam", 4),
    ("Brussels", 3),
    ("Vancouver", 3),
    ("Austin", 3),
    ("Denver", 2),
    ("Portland", 2),
    ("Madrid", 2),
    ("Rome", 2),
    ("Sydney", 2),
    ("Melbourne", 2),
    ("Tokyo", 1),
    ("Hanoi", 1),
    ("Mumbai", 1),
    ("Lagos", 1),
    ("Nairobi", 1),
    ("Lima", 1),
    ("Pittsburgh", 1),
    ("Buffalo", 1),
];

/// Gender tokens, per Table 6's frequent values.
pub const GENDERS: &[(&str, u32)] = &[
    ("Male", 30),
    ("Female", 28),
    ("F", 14),
    ("M", 14),
    ("male", 5),
    ("female", 5),
    ("Other", 2),
    ("Unknown", 2),
];

/// Ethnicity tokens, per Table 6.
pub const ETHNICITIES: &[(&str, u32)] = &[
    ("French", 18),
    ("Dutch", 16),
    ("Spanish", 14),
    ("Mexican", 12),
    ("German", 8),
    ("Irish", 7),
    ("Italian", 6),
    ("English", 6),
    ("Chinese", 4),
    ("Indian", 4),
    ("Vietnamese", 3),
    ("Korean", 2),
];

/// Race tokens, per Table 6 (the paper's data is noisy here by design —
/// values like "Men" and "Human" appear in real race columns).
pub const RACES: &[(&str, u32)] = &[
    ("Men", 20),
    ("Human", 18),
    ("White", 16),
    ("Black", 10),
    ("Asian", 10),
    ("Women", 8),
    ("Hispanic", 6),
    ("Mixed", 4),
];

/// Nationality tokens, per Table 6.
pub const NATIONALITIES: &[(&str, u32)] = &[
    ("Hispanic", 18),
    ("White", 16),
    ("Caucasian (White)", 12),
    ("American", 10),
    ("British", 8),
    ("Canadian", 8),
    ("German", 6),
    ("French", 6),
    ("Dutch", 5),
    ("Belgian", 4),
];

/// Latin binomial species names (Fig. 2's biological tables).
pub const SPECIES: &[&str] = &[
    "Enterococcus faecium",
    "Escherichia coli",
    "Staphylococcus aureus",
    "Klebsiella pneumoniae",
    "Pseudomonas aeruginosa",
    "Streptococcus pyogenes",
    "Bacillus subtilis",
    "Salmonella enterica",
    "Listeria monocytogenes",
    "Clostridium difficile",
    "Homo sapiens",
    "Mus musculus",
    "Drosophila melanogaster",
    "Arabidopsis thaliana",
    "Danio rerio",
    "Saccharomyces cerevisiae",
    "Caenorhabditis elegans",
    "Rattus norvegicus",
    "Gallus gallus",
    "Canis lupus",
    "Felis catus",
    "Panthera leo",
    "Ursus arctos",
    "Aquila chrysaetos",
    "Passer domesticus",
    "Turdus merula",
    "Parus major",
    "Corvus corax",
    "Larus argentatus",
    "Quercus robur",
    "Pinus sylvestris",
    "Betula pendula",
];

/// Organism group labels (Fig. 2's "Organism Group" column).
pub const ORGANISM_GROUPS: &[&str] = &[
    "Enterococcus spp",
    "Escherichia spp",
    "Staphylococcus spp",
    "Klebsiella spp",
    "Pseudomonas spp",
    "Streptococcus spp",
    "Bacillus spp",
    "Salmonella spp",
    "Mammalia",
    "Aves",
    "Insecta",
    "Plantae",
    "Fungi",
];

/// Status tokens (Fig. 6b's `AVAILABLE` style).
pub const STATUSES: &[&str] = &[
    "AVAILABLE",
    "SOLD",
    "PENDING",
    "SHIPPED",
    "DELIVERED",
    "CANCELLED",
    "ACTIVE",
    "INACTIVE",
    "OPEN",
    "CLOSED",
    "NEW",
    "DONE",
    "FAILED",
    "PASSED",
    "RUNNING",
    "QUEUED",
];

/// Category labels.
pub const CATEGORIES: &[&str] = &[
    "electronics",
    "clothing",
    "food",
    "books",
    "tools",
    "sports",
    "toys",
    "garden",
    "health",
    "beauty",
    "music",
    "office",
    "automotive",
    "pets",
];

/// Product-ish nouns.
pub const PRODUCTS: &[&str] = &[
    "widget", "gadget", "bracket", "module", "panel", "cable", "sensor", "adapter", "battery",
    "charger", "casing", "filter", "valve", "gear", "lens", "frame", "switch", "router", "monitor",
    "keyboard",
];

/// Generic English words for free-text cells.
pub const WORDS: &[&str] = &[
    "alpha", "vector", "signal", "matrix", "report", "summary", "draft", "final", "review",
    "update", "backup", "primary", "legacy", "nightly", "stable", "branch", "merge", "deploy",
    "config", "default", "custom", "sample", "series", "cluster", "window", "buffer", "stream",
    "batch", "shard", "cache", "replica", "metric", "trace", "audit", "policy",
];

/// Age-group buckets (Fig. 2's "Age Group" column).
pub const AGE_GROUPS: &[&str] = &["0 to 18 Years", "19 to 64 Years", "65+ Years", "Unknown"];

/// Street suffixes for address generation.
const STREET_SUFFIXES: &[&str] = &["St", "Ave", "Blvd", "Rd", "Ln", "Dr", "Way", "Ct"];

/// Email domains.
const EMAIL_DOMAINS: &[&str] = &["example.com", "mail.com", "test.org", "corp.net", "uni.edu"];

/// Picks from a weighted list.
pub fn weighted<'a, R: Rng>(rng: &mut R, items: &[(&'a str, u32)]) -> &'a str {
    let total: u32 = items.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for (s, w) in items {
        if pick < *w {
            return s;
        }
        pick -= w;
    }
    items.last().expect("non-empty weighted list").0
}

/// Picks uniformly from a slice.
pub fn uniform<'a, R: Rng>(rng: &mut R, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Appends `s` lowercased. Every word list in this module is ASCII, for
/// which this equals `str::to_lowercase`.
fn push_lowercase(out: &mut String, s: &str) {
    let at = out.len();
    out.push_str(s);
    out[at..].make_ascii_lowercase();
}

/// Appends `v` in decimal, zero-padded to at least `width` digits: what
/// `format!("{v:0width$}")` writes.
fn push_uint(out: &mut String, v: u64, width: usize) {
    push_decimal(out, v, width, 0);
}

/// Appends `v` in decimal with at least `width` digits, zero-padded, and a
/// `.` before its last `point` digits (`point < 20`).
fn push_decimal(out: &mut String, mut v: u64, width: usize, point: usize) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // At least one digit before the point; the buffer is zero-filled.
    let at = at.min(digits.len() - point - 1);
    for _ in digits.len() - at..width {
        out.push('0');
    }
    let (whole, decimals) = digits[at..].split_at(digits.len() - at - point);
    for &d in whole {
        out.push(char::from(d));
    }
    if point > 0 {
        out.push('.');
        for &d in decimals {
            out.push(char::from(d));
        }
    }
}

/// `10^p` for the precisions [`push_fixed`] prints by hand.
const POW10: [u64; 20] = {
    let mut p = [1u64; 20];
    let mut i = 1;
    while i < p.len() {
        p[i] = p[i - 1] * 10;
        i += 1;
    }
    p
};

/// Appends `x` with `prec` decimals: what `format!("{x:.prec$}")` writes.
///
/// Like `format!`, it rounds the exact binary value of `x` half to even
/// and keeps the sign of a negative value that rounds to zero (`-0.000`).
/// Non-finite values, `|x| >= 2^52`, `prec >= 20` and values whose
/// `prec`-decimal digits do not fit a `u64` go to `format!`.
fn push_fixed(out: &mut String, x: f64, prec: usize) {
    const MANTISSA_BITS: u32 = 52;
    let by_format = |out: &mut String| {
        use std::fmt::Write;
        write!(out, "{x:.prec$}").expect("writing to a String cannot fail");
    };
    let bits = x.to_bits();
    let biased = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // |x| < 2^52 is a biased exponent below 1075, which excludes NaN and
    // the infinities (2047).
    if biased >= 1023 + MANTISSA_BITS as i32 || prec >= POW10.len() {
        return by_format(out);
    }
    let fraction = bits & ((1 << MANTISSA_BITS) - 1);
    // |x| = mantissa / 2^shift exactly (shift >= 1 below 2^52); a
    // subnormal has no implicit bit.
    let (mantissa, shift) = if biased == 0 {
        (fraction, 1074)
    } else {
        (fraction | 1 << MANTISSA_BITS, (1075 - biased) as u32)
    };
    let scale = u128::from(POW10[prec]);
    // `scaled` = round(|x| * 10^prec), half to even. The product is below
    // 2^53 * 10^19 < 2^117, so from shift 118 on it is under half of one.
    let product = u128::from(mantissa) * scale;
    let scaled = if shift >= 118 {
        0
    } else {
        let quotient = product >> shift;
        let rest = product & ((1u128 << shift) - 1);
        let half = 1u128 << (shift - 1);
        if rest > half || (rest == half && quotient & 1 == 1) {
            quotient + 1
        } else {
            quotient
        }
    };
    let Ok(scaled) = u64::try_from(scaled) else {
        return by_format(out);
    };
    if x.is_sign_negative() {
        out.push('-');
    }
    push_decimal(out, scaled, 0, prec);
}

/// The kind of values a synthetic column holds; mirrors the ontology's
/// semantic-type domains so generated headers and contents agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKind {
    /// Sequential integer id starting at 1.
    SequentialId,
    /// Random numeric id.
    RandomId,
    /// Full person name.
    FullName,
    /// First name only.
    FirstName,
    /// Last name only.
    LastName,
    /// Email address.
    Email,
    /// ISO date.
    Date,
    /// ISO timestamp.
    DateTime,
    /// Year.
    Year,
    /// Country name (Table 6 skew).
    Country,
    /// City name (Table 6 skew).
    City,
    /// Gender token.
    Gender,
    /// Ethnicity token.
    Ethnicity,
    /// Race token.
    Race,
    /// Nationality token.
    Nationality,
    /// Street address.
    Address,
    /// Postal code.
    PostalCode,
    /// Phone number.
    Phone,
    /// Latin species binomial.
    Species,
    /// Organism group.
    OrganismGroup,
    /// Age-group bucket.
    AgeGroup,
    /// Status token.
    Status,
    /// Category label.
    Category,
    /// Product noun.
    Product,
    /// Price with two decimals.
    Price,
    /// Small integer quantity.
    Quantity,
    /// Large integer count.
    Count,
    /// Score in `[0, 100]`.
    Score,
    /// Float measurement.
    Measurement,
    /// Latitude.
    Latitude,
    /// Longitude.
    Longitude,
    /// Percentage in `[0, 100]` with one decimal.
    Percentage,
    /// Boolean token.
    Bool,
    /// URL.
    Url,
    /// Short free text (1–4 words).
    Text,
    /// Alphanumeric code like `AB-1234`.
    Code,
    /// Generic English word.
    Word,
}

impl ValueKind {
    /// Generates one cell value. `row` is the zero-based row index (used by
    /// sequential ids).
    pub fn generate<R: Rng>(self, rng: &mut R, row: usize) -> String {
        let mut out = String::new();
        self.write(rng, row, &mut out);
        out
    }

    /// Appends one cell value to `out`: the bytes [`ValueKind::generate`]
    /// returns, from the same draws on `rng`, without allocating.
    pub fn write<R: Rng>(self, rng: &mut R, row: usize, out: &mut String) {
        match self {
            ValueKind::SequentialId => push_uint(out, row as u64 + 1, 0),
            ValueKind::RandomId => push_uint(out, rng.gen_range(1_000..10_000_000u64), 0),
            ValueKind::FullName => {
                out.push_str(uniform(rng, FIRST_NAMES));
                out.push(' ');
                out.push_str(uniform(rng, LAST_NAMES));
            }
            ValueKind::FirstName => out.push_str(uniform(rng, FIRST_NAMES)),
            ValueKind::LastName => out.push_str(uniform(rng, LAST_NAMES)),
            ValueKind::Email => {
                push_lowercase(out, uniform(rng, FIRST_NAMES));
                out.push('.');
                push_lowercase(out, uniform(rng, LAST_NAMES));
                out.push('@');
                out.push_str(uniform(rng, EMAIL_DOMAINS));
            }
            ValueKind::Date => {
                push_uint(out, rng.gen_range(1990..2024u64), 4);
                out.push('-');
                push_uint(out, rng.gen_range(1..=12u64), 2);
                out.push('-');
                push_uint(out, rng.gen_range(1..=28u64), 2);
            }
            ValueKind::DateTime => {
                ValueKind::Date.write(rng, row, out);
                out.push(' ');
                push_uint(out, rng.gen_range(0..24u64), 2);
                out.push(':');
                push_uint(out, rng.gen_range(0..60u64), 2);
                out.push(':');
                push_uint(out, rng.gen_range(0..60u64), 2);
            }
            ValueKind::Year => push_uint(out, rng.gen_range(1950..2024u64), 0),
            ValueKind::Country => out.push_str(weighted(rng, COUNTRIES)),
            ValueKind::City => out.push_str(weighted(rng, CITIES)),
            ValueKind::Gender => out.push_str(weighted(rng, GENDERS)),
            ValueKind::Ethnicity => out.push_str(weighted(rng, ETHNICITIES)),
            ValueKind::Race => out.push_str(weighted(rng, RACES)),
            ValueKind::Nationality => out.push_str(weighted(rng, NATIONALITIES)),
            ValueKind::Address => {
                push_uint(out, rng.gen_range(1..2000u64), 0);
                out.push(' ');
                out.push_str(uniform(rng, LAST_NAMES));
                out.push(' ');
                out.push_str(uniform(rng, STREET_SUFFIXES));
            }
            ValueKind::PostalCode => push_uint(out, rng.gen_range(501..99951u64), 5),
            ValueKind::Phone => {
                push_uint(out, rng.gen_range(200..1000u64), 3);
                out.push('-');
                push_uint(out, rng.gen_range(100..1000u64), 3);
                out.push('-');
                push_uint(out, rng.gen_range(0..10000u64), 4);
            }
            ValueKind::Species => out.push_str(uniform(rng, SPECIES)),
            ValueKind::OrganismGroup => out.push_str(uniform(rng, ORGANISM_GROUPS)),
            ValueKind::AgeGroup => out.push_str(uniform(rng, AGE_GROUPS)),
            ValueKind::Status => out.push_str(uniform(rng, STATUSES)),
            ValueKind::Category => out.push_str(uniform(rng, CATEGORIES)),
            ValueKind::Product => out.push_str(uniform(rng, PRODUCTS)),
            ValueKind::Price => push_fixed(out, rng.gen_range(0.5..5000.0), 2),
            ValueKind::Quantity => push_uint(out, rng.gen_range(1..500u64), 0),
            ValueKind::Count => push_uint(out, rng.gen_range(0..1_000_000u64), 0),
            ValueKind::Score => push_uint(out, rng.gen_range(0..=100u64), 0),
            ValueKind::Measurement => push_fixed(out, rng.gen_range(-100.0..1000.0), 3),
            ValueKind::Latitude => push_fixed(out, rng.gen_range(-90.0..90.0), 5),
            ValueKind::Longitude => push_fixed(out, rng.gen_range(-180.0..180.0), 5),
            ValueKind::Percentage => push_fixed(out, rng.gen_range(0.0..100.0), 1),
            ValueKind::Bool => out.push_str(if rng.gen_bool(0.5) { "true" } else { "false" }),
            ValueKind::Url => {
                out.push_str("https://");
                out.push_str(uniform(rng, WORDS));
                out.push_str(".example.com/");
                out.push_str(uniform(rng, WORDS));
            }
            ValueKind::Text => {
                for i in 0..rng.gen_range(1..=4) {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(uniform(rng, WORDS));
                }
            }
            ValueKind::Code => {
                out.push(char::from(b'A' + rng.gen_range(0..26u8)));
                out.push(char::from(b'A' + rng.gen_range(0..26u8)));
                out.push('-');
                push_uint(out, rng.gen_range(0..10000u64), 4);
            }
            ValueKind::Word => out.push_str(uniform(rng, WORDS)),
        }
    }

    /// Whether this kind generates numeric cells (drives the atomic-type
    /// distribution of Table 4).
    #[must_use]
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ValueKind::SequentialId
                | ValueKind::RandomId
                | ValueKind::Year
                | ValueKind::PostalCode
                | ValueKind::Price
                | ValueKind::Quantity
                | ValueKind::Count
                | ValueKind::Score
                | ValueKind::Measurement
                | ValueKind::Latitude
                | ValueKind::Longitude
                | ValueKind::Percentage
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Every kind, for the per-kind differential test.
    const ALL_KINDS: [ValueKind; 37] = [
        ValueKind::SequentialId,
        ValueKind::RandomId,
        ValueKind::FullName,
        ValueKind::FirstName,
        ValueKind::LastName,
        ValueKind::Email,
        ValueKind::Date,
        ValueKind::DateTime,
        ValueKind::Year,
        ValueKind::Country,
        ValueKind::City,
        ValueKind::Gender,
        ValueKind::Ethnicity,
        ValueKind::Race,
        ValueKind::Nationality,
        ValueKind::Address,
        ValueKind::PostalCode,
        ValueKind::Phone,
        ValueKind::Species,
        ValueKind::OrganismGroup,
        ValueKind::AgeGroup,
        ValueKind::Status,
        ValueKind::Category,
        ValueKind::Product,
        ValueKind::Price,
        ValueKind::Quantity,
        ValueKind::Count,
        ValueKind::Score,
        ValueKind::Measurement,
        ValueKind::Latitude,
        ValueKind::Longitude,
        ValueKind::Percentage,
        ValueKind::Bool,
        ValueKind::Url,
        ValueKind::Text,
        ValueKind::Code,
        ValueKind::Word,
    ];

    /// The `format!`-based generator [`ValueKind::write`] replaced, kept
    /// as the reference it is checked against.
    fn generate_reference<R: Rng>(kind: ValueKind, rng: &mut R, row: usize) -> String {
        match kind {
            ValueKind::SequentialId => (row + 1).to_string(),
            ValueKind::RandomId => rng.gen_range(1_000..10_000_000u64).to_string(),
            ValueKind::FullName => {
                format!("{} {}", uniform(rng, FIRST_NAMES), uniform(rng, LAST_NAMES))
            }
            ValueKind::FirstName => uniform(rng, FIRST_NAMES).to_string(),
            ValueKind::LastName => uniform(rng, LAST_NAMES).to_string(),
            ValueKind::Email => {
                let f = uniform(rng, FIRST_NAMES).to_lowercase();
                let l = uniform(rng, LAST_NAMES).to_lowercase();
                let d = uniform(rng, EMAIL_DOMAINS);
                format!("{f}.{l}@{d}")
            }
            ValueKind::Date => {
                let y = rng.gen_range(1990..2024);
                let m = rng.gen_range(1..=12);
                let d = rng.gen_range(1..=28);
                format!("{y:04}-{m:02}-{d:02}")
            }
            ValueKind::DateTime => {
                let date = generate_reference(ValueKind::Date, rng, row);
                format!(
                    "{date} {:02}:{:02}:{:02}",
                    rng.gen_range(0..24),
                    rng.gen_range(0..60),
                    rng.gen_range(0..60)
                )
            }
            ValueKind::Year => rng.gen_range(1950..2024u32).to_string(),
            ValueKind::Country => weighted(rng, COUNTRIES).to_string(),
            ValueKind::City => weighted(rng, CITIES).to_string(),
            ValueKind::Gender => weighted(rng, GENDERS).to_string(),
            ValueKind::Ethnicity => weighted(rng, ETHNICITIES).to_string(),
            ValueKind::Race => weighted(rng, RACES).to_string(),
            ValueKind::Nationality => weighted(rng, NATIONALITIES).to_string(),
            ValueKind::Address => format!(
                "{} {} {}",
                rng.gen_range(1..2000),
                uniform(rng, LAST_NAMES),
                uniform(rng, STREET_SUFFIXES)
            ),
            ValueKind::PostalCode => format!("{:05}", rng.gen_range(501..99951)),
            ValueKind::Phone => format!(
                "{:03}-{:03}-{:04}",
                rng.gen_range(200..1000),
                rng.gen_range(100..1000),
                rng.gen_range(0..10000)
            ),
            ValueKind::Species => uniform(rng, SPECIES).to_string(),
            ValueKind::OrganismGroup => uniform(rng, ORGANISM_GROUPS).to_string(),
            ValueKind::AgeGroup => uniform(rng, AGE_GROUPS).to_string(),
            ValueKind::Status => uniform(rng, STATUSES).to_string(),
            ValueKind::Category => uniform(rng, CATEGORIES).to_string(),
            ValueKind::Product => uniform(rng, PRODUCTS).to_string(),
            ValueKind::Price => format!("{:.2}", rng.gen_range(0.5..5000.0)),
            ValueKind::Quantity => rng.gen_range(1..500u32).to_string(),
            ValueKind::Count => rng.gen_range(0..1_000_000u64).to_string(),
            ValueKind::Score => rng.gen_range(0..=100u32).to_string(),
            ValueKind::Measurement => format!("{:.3}", rng.gen_range(-100.0..1000.0)),
            ValueKind::Latitude => format!("{:.5}", rng.gen_range(-90.0..90.0)),
            ValueKind::Longitude => format!("{:.5}", rng.gen_range(-180.0..180.0)),
            ValueKind::Percentage => format!("{:.1}", rng.gen_range(0.0..100.0)),
            ValueKind::Bool => if rng.gen_bool(0.5) { "true" } else { "false" }.to_string(),
            ValueKind::Url => format!(
                "https://{}.example.com/{}",
                uniform(rng, WORDS),
                uniform(rng, WORDS)
            ),
            ValueKind::Text => {
                let n = rng.gen_range(1..=4);
                (0..n)
                    .map(|_| uniform(rng, WORDS))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
            ValueKind::Code => format!(
                "{}{}-{:04}",
                (b'A' + rng.gen_range(0..26u8)) as char,
                (b'A' + rng.gen_range(0..26u8)) as char,
                rng.gen_range(0..10000)
            ),
            ValueKind::Word => uniform(rng, WORDS).to_string(),
        }
    }

    fn fixed(x: f64, prec: usize) -> String {
        let mut out = String::new();
        push_fixed(&mut out, x, prec);
        out
    }

    fn uint(v: u64, width: usize) -> String {
        let mut out = String::new();
        push_uint(&mut out, v, width);
        out
    }

    #[test]
    fn write_appends_what_the_format_reference_returns_from_the_same_draws() {
        for kind in ALL_KINDS {
            let mut reference = StdRng::seed_from_u64(0x5eed ^ kind as u64);
            let mut written = reference.clone();
            let mut out = String::from("prefix|");
            for row in 0..20_000 {
                let want = generate_reference(kind, &mut reference, row);
                let at = out.len();
                kind.write(&mut written, row, &mut out);
                assert_eq!(&out[at..], want, "{kind:?} row {row}");
                if out.len() > 4096 {
                    out.truncate(7);
                }
            }
            // The streams are in the same state: they go on alike.
            for _ in 0..4 {
                assert_eq!(reference.next_u64(), written.next_u64(), "{kind:?}");
            }
            assert!(out.starts_with("prefix|"), "{kind:?}");
        }
    }

    #[test]
    fn push_uint_matches_format() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            for width in 0..=22 {
                assert_eq!(uint(v, width), format!("{v:0width$}"), "{v} width {width}");
            }
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1_000_000 {
            let v = rng.next_u64() >> rng.gen_range(0..64u32);
            let width = rng.gen_range(0..=6usize);
            assert_eq!(uint(v, width), format!("{v:0width$}"));
        }
    }

    #[test]
    fn push_fixed_edge_cases_match_format() {
        let cases: &[(f64, usize, &str)] = &[
            // Exact ties round half to even.
            (0.125, 2, "0.12"),
            (0.375, 2, "0.38"),
            (2.5, 0, "2"),
            (3.5, 0, "4"),
            (0.25, 1, "0.2"),
            (0.75, 1, "0.8"),
            // The sign of a negative value survives rounding to zero.
            (-0.0, 3, "-0.000"),
            (-0.0004, 3, "-0.000"),
            (0.0, 0, "0"),
            // A carry through every digit.
            (999.9995, 3, "1000.000"),
            (9.96, 1, "10.0"),
        ];
        for &(x, prec, want) in cases {
            assert_eq!(fixed(x, prec), want, "{x} at {prec}");
        }
        let mut specials = vec![
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::EPSILON,
            0.5,
            1.5,
            0.05,
            0.005,
            1e-5,
            4_503_599_627_370_495.5, // 2^52 - 0.5, the last hand-printed value
            4_503_599_627_370_496.0, // 2^52, printed by `format!`
            9_007_199_254_740_993.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        specials.extend(specials.clone().iter().map(|x| -x));
        for x in specials {
            for prec in 0..=25 {
                assert_eq!(fixed(x, prec), format!("{x:.prec$}"), "{x:e} at {prec}");
            }
        }
    }

    #[test]
    fn push_fixed_matches_format_on_the_generator_ranges() {
        // Each range and precision `write` prints.
        let ranges: [(f64, f64, usize); 5] = [
            (0.5, 5000.0, 2),
            (-100.0, 1000.0, 3),
            (-90.0, 90.0, 5),
            (-180.0, 180.0, 5),
            (0.0, 100.0, 1),
        ];
        let mut rng = StdRng::seed_from_u64(13);
        for (lo, hi, prec) in ranges {
            for _ in 0..1_000_000 {
                let x: f64 = rng.gen_range(lo..hi);
                assert_eq!(fixed(x, prec), format!("{x:.prec$}"), "{x:e} at {prec}");
            }
        }
        // Any sign and mantissa, with magnitudes from 2^-24 up to the
        // format fallback and a little past it, at any precision.
        for _ in 0..1_000_000 {
            let exponent = rng.gen_range(999..1077u64) << 52;
            let x = f64::from_bits(rng.next_u64() & !(0x7ff << 52) | exponent);
            let prec = rng.gen_range(0..=20usize);
            assert_eq!(fixed(x, prec), format!("{x:.prec$}"), "{x:e} at {prec}");
        }
        // Any bit pattern at all.
        for _ in 0..20_000 {
            let x = f64::from_bits(rng.next_u64());
            let prec = rng.gen_range(0..=20usize);
            assert_eq!(fixed(x, prec), format!("{x:.prec$}"), "{x:e} at {prec}");
        }
    }

    #[test]
    fn sequential_id_uses_row() {
        let mut r = rng();
        assert_eq!(ValueKind::SequentialId.generate(&mut r, 0), "1");
        assert_eq!(ValueKind::SequentialId.generate(&mut r, 41), "42");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = rng();
        let mut b = rng();
        for kind in [ValueKind::FullName, ValueKind::Date, ValueKind::Price] {
            assert_eq!(kind.generate(&mut a, 0), kind.generate(&mut b, 0));
        }
    }

    #[test]
    fn date_shape() {
        let mut r = rng();
        let d = ValueKind::Date.generate(&mut r, 0);
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
    }

    #[test]
    fn email_shape() {
        let mut r = rng();
        let e = ValueKind::Email.generate(&mut r, 0);
        assert!(e.contains('@') && e.contains('.'));
    }

    #[test]
    fn numeric_kinds_parse_as_numbers() {
        let mut r = rng();
        for kind in [
            ValueKind::Price,
            ValueKind::Quantity,
            ValueKind::Measurement,
            ValueKind::Latitude,
        ] {
            let v = kind.generate(&mut r, 0);
            assert!(v.parse::<f64>().is_ok(), "{kind:?} -> {v}");
            assert!(kind.is_numeric());
        }
        assert!(!ValueKind::City.is_numeric());
    }

    #[test]
    fn country_skew_matches_table6() {
        // "United States" (+"USA") must be the most frequent country.
        let mut r = rng();
        let mut us = 0;
        let mut other = std::collections::HashMap::new();
        for _ in 0..5000 {
            let c = ValueKind::Country.generate(&mut r, 0);
            if c == "United States" || c == "USA" {
                us += 1;
            } else {
                *other.entry(c).or_insert(0usize) += 1;
            }
        }
        let max_other = other.values().copied().max().unwrap_or(0);
        assert!(us > max_other, "us={us}, max_other={max_other}");
    }

    #[test]
    fn weighted_respects_zero_chance_tail() {
        let mut r = rng();
        for _ in 0..100 {
            let v = weighted(&mut r, &[("a", 1), ("b", 0)]);
            assert_eq!(v, "a");
        }
    }

    #[test]
    fn code_shape() {
        let mut r = rng();
        let c = ValueKind::Code.generate(&mut r, 0);
        assert_eq!(c.len(), 7);
        assert_eq!(&c[2..3], "-");
    }
}
