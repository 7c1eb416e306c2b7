//! Offline stand-in for `serde_json` over the local `serde` shim. Supports
//! the surface this workspace uses: `to_writer`, `to_string`, `to_vec`,
//! `from_str`, `from_slice`, `from_reader`, `parse_value`, `Error`.
//!
//! Printing is the shim's streaming [`Serialize::write_json`] into one
//! buffer — the printer itself lives in `serde`, next to the impls that
//! use it. Parsing builds a [`serde::Value`] tree that `Deserialize`
//! reads; nesting deeper than [`RECURSION_LIMIT`] is a typed error, never
//! a stack overflow.

use std::fmt;
use std::io;

use serde::{Deserialize, Serialize, Value};

/// JSON error (I/O, syntax, or data-shape mismatch).
#[derive(Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error(format!("io error: {e}"))
    }
}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// ------------------------------------------------------------------ printing

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

// ------------------------------------------------------------------- parsing

/// How deep arrays and objects may nest in a parsed document (real
/// `serde_json`'s limit).
pub const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs an array or object parser one level deeper, refusing documents
    /// whose nesting would otherwise be bounded only by the stack.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == RECURSION_LIMIT {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("dangling escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.err("truncated surrogate"))?;
                                    let lo_hex = std::str::from_utf8(lo_hex)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    self.pos += 6;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Bulk-copy the run of ordinary bytes up to the next
                    // `"` or `\` (both ASCII, so they can never split a
                    // multi-byte UTF-8 sequence). Validating only the run
                    // keeps parsing O(n) over the whole document.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("invalid integer"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.err("invalid integer"))
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(out));
        }
        loop {
            out.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(out));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a complete JSON document from bytes into the raw [`Value`] tree.
/// UTF-8 is validated lazily inside string parsing (see `parse_string`), so
/// there is no up-front whole-buffer scan.
fn parse_document(bytes: &[u8]) -> Result<Value> {
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Parses a JSON string into the raw [`Value`] tree.
pub fn parse_value(s: &str) -> Result<Value> {
    parse_document(s.as_bytes())
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    Ok(T::deserialize(&parse_document(bytes)?)?)
}

pub fn from_reader<R: io::Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let value = parse_document(&buf)?;
    // Release the raw document before building T: peak memory becomes
    // max(document + value tree, value tree + T) instead of holding all
    // three at once — the win callers get from `from_reader` over reading
    // into their own long-lived buffer and calling `from_str`.
    drop(buf);
    Ok(T::deserialize(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(opener: &str, closer: &str, levels: usize) -> String {
        format!("{}0{}", opener.repeat(levels), closer.repeat(levels))
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        for opener in ["[", "{\"a\":"] {
            let err = parse_value(&opener.repeat(100_000)).unwrap_err();
            let at = RECURSION_LIMIT * opener.len();
            assert_eq!(err.0, format!("recursion limit exceeded at byte {at}"));
            assert!(from_str::<Vec<u8>>(&opener.repeat(100_000)).is_err());
        }
        // Mixed nesting counts every level, whichever bracket opened it.
        assert!(parse_value(&nested("[{\"a\":", "}]", RECURSION_LIMIT / 2 + 1)).is_err());
    }

    #[test]
    fn the_limit_itself_parses_and_siblings_do_not_accumulate() {
        for (opener, closer) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse_value(&nested(opener, closer, RECURSION_LIMIT)).is_ok());
            assert!(parse_value(&nested(opener, closer, RECURSION_LIMIT + 1)).is_err());
        }
        // Depth is how many are open at once, not how many were opened.
        let wide = format!("[{}[]]", "[[]],".repeat(10 * RECURSION_LIMIT));
        assert!(parse_value(&wide).is_ok());
    }

    #[test]
    fn a_parsed_document_prints_back_to_its_compact_bytes() {
        let text = r#"{"a":[1,-2,3.5,1e21,1.0,-0.0,null,true,false],"é\"\\":{"":"\u0001\n\t/\u00e9"},"z":[]}"#;
        let printed = to_string(&parse_value(text).unwrap()).unwrap();
        assert_eq!(
            printed,
            r#"{"a":[1,-2,3.5,1e21,1.0,-0.0,null,true,false],"é\"\\":{"":"\u0001\n\t/é"},"z":[]}"#
        );
        assert_eq!(to_string(&parse_value(&printed).unwrap()).unwrap(), printed);
    }
}
