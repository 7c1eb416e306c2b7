//! SQL dump dialects and their lexical properties.

/// The SQL dialect a dump was written in. Only the properties that change
/// how a dump is *lexed and decoded* matter here — identifier quoting,
/// string-escape semantics, and whether `COPY ... FROM stdin` blocks
/// appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlDialect {
    /// `mysqldump` style: backtick identifiers, backslash escapes in
    /// string literals, `ENGINE=` / `AUTO_INCREMENT` table options.
    MySql,
    /// `pg_dump` style: double-quoted identifiers, `COPY ... FROM stdin`
    /// data blocks, dollar-quoted strings, no backslash escapes in plain
    /// literals (`E'...'` strings opt back in).
    Postgres,
    /// `sqlite3 .dump` style: double-quoted identifiers, `PRAGMA`
    /// statements, doubled-quote escapes only.
    Sqlite,
    /// Plain ANSI SQL: double-quoted identifiers, doubled-quote escapes.
    Ansi,
}

impl SqlDialect {
    /// Whether `\'` (and friends) escape inside plain string literals.
    /// ANSI doubling (`''`) is always recognized.
    #[must_use]
    pub fn backslash_escapes(self) -> bool {
        matches!(self, SqlDialect::MySql)
    }

    /// Short lowercase name used in reports and bench output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SqlDialect::MySql => "mysql",
            SqlDialect::Postgres => "postgres",
            SqlDialect::Sqlite => "sqlite",
            SqlDialect::Ansi => "ansi",
        }
    }

    /// All dialects, in sniffing priority order.
    pub const ALL: [SqlDialect; 4] = [
        SqlDialect::MySql,
        SqlDialect::Postgres,
        SqlDialect::Sqlite,
        SqlDialect::Ansi,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexical_properties() {
        assert!(SqlDialect::MySql.backslash_escapes());
        assert!(!SqlDialect::Postgres.backslash_escapes());
        assert_eq!(SqlDialect::ALL.len(), 4);
        assert_eq!(SqlDialect::Postgres.name(), "postgres");
    }
}
