//! Relational table data model for the GitTables reproduction.
//!
//! This crate defines the in-memory representation of a relational table as
//! extracted from a CSV file: a [`Table`] is an ordered collection of named
//! [`Column`]s, each holding string-typed cells plus an inferred
//! [`AtomicType`]. The model intentionally mirrors what the GitTables paper
//! (SIGMOD 2023, §3.3) works with after parsing: headers are strings, values
//! are strings, and atomic data types (numeric / string / date / boolean /
//! other) are *inferred* from the values, reproducing the atomic-type
//! distribution analysis of Table 4 in the paper.
//!
//! # Cell storage
//!
//! A [`Column`] keeps its cells in one [`CellArena`]: a single UTF-8 blob
//! plus one cumulative `u32` end offset per cell — two allocations per
//! column however many rows it has, and the layout the `colv1` store format
//! writes to disk. The arena's invariant (`ends.len() == len()`, offsets
//! non-decreasing, each on a `char` boundary, the last equal to
//! `blob.len()`) is kept by its private fields and checked constructors, and
//! it gives every sequence of cells exactly one representation, so `==` on
//! columns and tables is still cell-by-cell equality whichever route built
//! them — see [`arena`]. It is the only cell storage: the CSV and SQL
//! readers push surviving cells onto arenas as `&str`, [`Column::from_cells`]
//! adopts them, and [`Column::new`] / [`Column::replace_values`] remain as
//! conveniences that copy a `Vec<String>` in. Type inference
//! ([`infer_column_type`]) walks the arena without allocating.
//!
//! # Example
//!
//! ```
//! use gittables_table::{Table, AtomicType};
//!
//! let table = Table::from_rows(
//!     "orders",
//!     &["id", "price", "status"],
//!     &[
//!         &["1", "9.99", "AVAILABLE"],
//!         &["2", "12.50", "SOLD"],
//!     ],
//! )
//! .unwrap();
//!
//! assert_eq!(table.num_rows(), 2);
//! assert_eq!(table.num_columns(), 3);
//! assert_eq!(table.column(0).unwrap().atomic_type(), AtomicType::Integer);
//! assert_eq!(table.column(2).unwrap().atomic_type(), AtomicType::String);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod atomic;
pub mod column;
pub mod error;
pub mod provenance;
pub mod schema;
pub mod stats;
#[allow(clippy::module_inception)]
pub mod table;

pub use arena::{CellArena, Cells};
pub use atomic::{infer_column_type, infer_value_type, AtomicType};
pub use column::Column;
pub use error::TableError;
pub use provenance::Provenance;
pub use schema::Schema;
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
