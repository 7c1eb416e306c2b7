//! Table filtering and content curation (paper §3.3).
//!
//! Three stages:
//!
//! * [`FilterReason`] — drop tables from repositories without a redistribution
//!   license, extremely small tables (< 2 rows or < 2 columns), tables whose
//!   headers are mostly unspecified or non-string, and tables with
//!   social-media columns. Altogether these filter ≈9 % of parsed tables
//!   (plus the 84 % license cut for the *published* corpus).
//! * [`anonymize_table`] — detect personally identifiable information via
//!   Schema.org semantic types (Table 3) and anonymize the affected columns. The `name`
//!   type is anonymized only when co-occurring with another PII type.
//! * [`Faker`] — from-scratch fake value generators replacing PII values
//!   (the paper uses the Python Faker library).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faker;
mod filters;
mod pii;

pub use faker::{Faker, FakerClass};
pub use filters::{CurationConfig, FilterReason};
pub use pii::{anonymize_table, PiiColumn, PiiReport};
