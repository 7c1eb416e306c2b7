//! Offline stand-in for `serde_derive`.
//!
//! The build container has no access to a crate registry, so the real
//! syn/quote-based derive cannot be used. This macro hand-parses the two
//! shapes this workspace derives on:
//!
//! * structs with named fields (no generics),
//! * enums whose variants are all units.
//!
//! Anything else (a generic type, a tuple struct, a variant with fields)
//! panics at expansion with a message naming the type or the variant, and
//! no `#[serde(...)]` attribute is declared, so rustc refuses one.
//!
//! It generates impls of the local `serde` shim's traits: `Serialize`
//! appends JSON text to a `String` (keys are emitted as pre-escaped
//! literals, fields recurse through `Serialize::write_json`, no tree is
//! built), `Deserialize` reads a JSON-like `serde::Value` tree. A unit
//! variant is its name as a string.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    Struct { name: String, fields: Vec<String> },
    Enum { name: String, variants: Vec<String> },
}

/// Skips attributes (`#[...]`, incl. doc comments) and visibility
/// (`pub`, `pub(crate)`, ...) at the cursor.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then a bracket group.
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            _ => return i,
        }
    }
}

/// Parses the names of `name: Type, name: Type, ...` from the tokens of a
/// brace group.
fn parse_named_fields(tokens: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(tokens, i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        fields.push(id.to_string());
        i += 1;
        // Expect `:`, then consume the type until a top-level `,`.
        // Generic angle brackets contain no top-level commas in token
        // trees only when balanced — track `<`/`>` depth.
        let mut depth = 0i32;
        while let Some(t) = tokens.get(i) {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

/// Parses the variant names of a unit-only enum body.
fn parse_variants(name: &str, tokens: &[TokenTree]) -> Vec<String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(tokens, i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let variant = id.to_string();
        i += 1;
        if matches!(tokens.get(i), Some(TokenTree::Group(_))) {
            panic!("serde shim derive: variant `{name}::{variant}` has fields; only unit variants are supported");
        }
        variants.push(variant);
        // Skip to past the next top-level comma (over a `= discriminant`).
        while let Some(t) = tokens.get(i) {
            i += 1;
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected item name, got {other:?}"),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            g.stream().into_iter().collect::<Vec<_>>()
        }
        other => panic!("serde shim derive: expected braced body for `{name}`, got {other:?}"),
    };
    match kind.as_str() {
        "struct" => Item::Struct {
            fields: parse_named_fields(&body),
            name,
        },
        "enum" => Item::Enum {
            variants: parse_variants(&name, &body),
            name,
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

/// `__out.push_str(<text as a Rust string literal>);`
fn push_text(text: &str) -> String {
    format!("__out.push_str({text:?});\n")
}

fn serialize_impl(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn write_json(&self, __out: &mut ::std::string::String) {{\n\
                {body}\
            }}\n\
        }}\n"
    )
}

/// Writes `{"a":<a>,"b":<b>}`: each key, with its punctuation, is one
/// pre-escaped literal.
fn gen_struct_serialize(name: &str, fields: &[String]) -> String {
    let mut body = String::new();
    let mut open = "{";
    for field in fields {
        body += &push_text(&format!("{open}\"{field}\":"));
        body += &format!("::serde::Serialize::write_json(&self.{field}, __out);\n");
        open = ",";
    }
    // No field at all: the braces still have to open.
    body += &push_text(if open == "{" { "{}" } else { "}" });
    serialize_impl(name, &body)
}

fn gen_struct_deserialize(name: &str, fields: &[String]) -> String {
    let inits: String = fields
        .iter()
        .map(|n| format!("{n}: ::serde::de_field(m, \"{n}\", \"{name}\")?,\n"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                let m = v.as_map().ok_or_else(|| ::serde::Error::expected(\"map\", \"{name}\"))?;\n\
                ::std::result::Result::Ok({name} {{\n\
                    {inits}\
                }})\n\
            }}\n\
        }}\n"
    )
}

fn gen_enum_serialize(name: &str, variants: &[String]) -> String {
    let arms: String = variants
        .iter()
        .map(|vn| {
            format!(
                "{name}::{vn} => {{\n{}}}\n",
                push_text(&format!("\"{vn}\""))
            )
        })
        .collect();
    serialize_impl(name, &format!("match self {{\n{arms}}}\n"))
}

fn gen_enum_deserialize(name: &str, variants: &[String]) -> String {
    let arms: String = variants
        .iter()
        .map(|vn| format!("\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                match v.as_str() {{\n\
                    ::std::option::Option::Some(s) => match s {{\n{arms}\
                        other => ::std::result::Result::Err(::serde::Error::unknown_variant(other, \"{name}\")),\n\
                    }},\n\
                    ::std::option::Option::None => ::std::result::Result::Err(::serde::Error::expected(\"string\", \"{name}\")),\n\
                }}\n\
            }}\n\
        }}\n"
    )
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse_item(input) {
        Item::Struct { name, fields } => gen_struct_serialize(&name, &fields),
        Item::Enum { name, variants } => gen_enum_serialize(&name, &variants),
    };
    code.parse()
        .expect("serde shim derive: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let code = match parse_item(input) {
        Item::Struct { name, fields } => gen_struct_deserialize(&name, &fields),
        Item::Enum { name, variants } => gen_enum_deserialize(&name, &variants),
    };
    code.parse()
        .expect("serde shim derive: generated invalid Deserialize impl")
}
