//! Fake value generation — the Faker-library substitute used to anonymize PII
//! columns (paper Table 3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FAKE_FIRST: &[&str] = &[
    "Alex", "Sam", "Jordan", "Taylor", "Casey", "Riley", "Morgan", "Avery", "Quinn", "Rowan",
    "Skyler", "Emerson", "Finley", "Harper", "Kendall", "Logan", "Marley", "Nico", "Parker",
    "Reese",
];

const FAKE_LAST: &[&str] = &[
    "Doe",
    "Roe",
    "Bloggs",
    "Smithson",
    "Example",
    "Sample",
    "Tester",
    "Placeholder",
    "Mockman",
    "Fakerly",
    "Stand",
    "Proxy",
    "Dummy",
    "Blank",
    "Veil",
    "Mask",
    "Shade",
    "Cover",
    "Cloak",
    "Alias",
];

const FAKE_CITIES: &[&str] = &[
    "Springfield",
    "Rivertown",
    "Lakeside",
    "Hillview",
    "Greenfield",
    "Fairview",
    "Brookside",
    "Meadowbrook",
    "Clearwater",
    "Stonebridge",
];

const FAKE_STREETS: &[&str] = &[
    "Main St",
    "Oak Ave",
    "Maple Dr",
    "Cedar Ln",
    "Elm St",
    "Pine Rd",
    "Willow Way",
    "Birch Blvd",
    "Aspen Ct",
    "Chestnut Pl",
];

/// Which Faker class replaces a PII semantic type (paper Table 3's mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FakerClass {
    /// `faker.name`
    Name,
    /// `faker.address`
    Address,
    /// `faker.email`
    Email,
    /// `faker.date`
    Date,
    /// `faker.city`
    City,
    /// `faker.postcode`
    Postcode,
}

impl FakerClass {
    /// The Faker class replacing values of `pii_label`, per Table 3. `None`
    /// when the label is not a PII type.
    #[must_use]
    pub fn for_pii_label(label: &str) -> Option<FakerClass> {
        Some(match label {
            "name" | "person" => FakerClass::Name,
            "address" => FakerClass::Address,
            "email" => FakerClass::Email,
            "birth date" => FakerClass::Date,
            "home location" | "birth place" => FakerClass::City,
            "postal code" => FakerClass::Postcode,
            _ => return None,
        })
    }

    /// Display string matching the paper's Table 3 third column.
    #[must_use]
    pub fn display(self) -> &'static str {
        match self {
            FakerClass::Name => "faker.name",
            FakerClass::Address => "faker.address",
            FakerClass::Email => "faker.email",
            FakerClass::Date => "faker.date",
            FakerClass::City => "faker.city",
            FakerClass::Postcode => "faker.postcode",
        }
    }
}

/// Deterministic fake-value generator.
#[derive(Debug)]
pub struct Faker {
    rng: StdRng,
}

impl Faker {
    /// Creates a faker seeded for reproducible anonymization.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Faker {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.rng.gen_range(0..items.len())]
    }

    /// A fake full name.
    pub fn name(&mut self) -> String {
        format!("{} {}", self.pick(FAKE_FIRST), self.pick(FAKE_LAST))
    }

    /// A fake street address.
    pub fn address(&mut self) -> String {
        format!(
            "{} {}, {}",
            self.rng.gen_range(1..2000),
            self.pick(FAKE_STREETS),
            self.pick(FAKE_CITIES)
        )
    }

    /// A fake email.
    pub fn email(&mut self) -> String {
        format!(
            "{}.{}@anon.example",
            self.pick(FAKE_FIRST).to_lowercase(),
            self.pick(FAKE_LAST).to_lowercase()
        )
    }

    /// A fake ISO date.
    pub fn date(&mut self) -> String {
        format!(
            "{:04}-{:02}-{:02}",
            self.rng.gen_range(1950..2005),
            self.rng.gen_range(1..=12),
            self.rng.gen_range(1..=28)
        )
    }

    /// A fake city.
    pub fn city(&mut self) -> String {
        self.pick(FAKE_CITIES).to_string()
    }

    /// A fake postcode.
    pub fn postcode(&mut self) -> String {
        format!("{:05}", self.rng.gen_range(501..99951))
    }

    /// A fake value of the given class.
    pub fn value(&mut self, class: FakerClass) -> String {
        match class {
            FakerClass::Name => self.name(),
            FakerClass::Address => self.address(),
            FakerClass::Email => self.email(),
            FakerClass::Date => self.date(),
            FakerClass::City => self.city(),
            FakerClass::Postcode => self.postcode(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Faker::new(1);
        let mut b = Faker::new(1);
        assert_eq!(a.name(), b.name());
        assert_eq!(a.email(), b.email());
    }

    #[test]
    fn table3_mapping() {
        assert_eq!(FakerClass::for_pii_label("name"), Some(FakerClass::Name));
        assert_eq!(FakerClass::for_pii_label("person"), Some(FakerClass::Name));
        assert_eq!(
            FakerClass::for_pii_label("birth date"),
            Some(FakerClass::Date)
        );
        assert_eq!(
            FakerClass::for_pii_label("postal code"),
            Some(FakerClass::Postcode)
        );
        assert_eq!(FakerClass::for_pii_label("price"), None);
    }

    #[test]
    fn value_shapes() {
        let mut f = Faker::new(2);
        assert!(f.email().contains('@'));
        assert_eq!(f.postcode().len(), 5);
        let d = f.date();
        assert_eq!(d.len(), 10);
        assert!(f.address().contains(','));
        assert!(f.name().contains(' '));
    }

    #[test]
    fn fake_values_differ_from_common_real_values() {
        // Fake last names avoid the real-name inventory so anonymized cells
        // are recognizably synthetic.
        let mut f = Faker::new(3);
        for _ in 0..50 {
            let n = f.name();
            assert!(!n.ends_with("Smith") && !n.ends_with("Johnson"), "{n}");
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(FakerClass::Email.display(), "faker.email");
        assert_eq!(FakerClass::City.display(), "faker.city");
    }
}
