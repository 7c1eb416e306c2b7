//! Offline stand-in for `serde_derive`.
//!
//! The build container has no access to a crate registry, so the real
//! syn/quote-based derive cannot be used. This macro hand-parses the
//! restricted shapes this workspace actually derives on:
//!
//! * structs with named fields (no generics); a field marked
//!   `#[serde(skip)]` is left out of the serialized map and filled with
//!   `Default::default()` on deserialization,
//! * enums with unit, tuple and struct (named-field) variants.
//!
//! It generates impls of the local `serde` shim's traits: `Serialize`
//! appends JSON text to a `String` (keys are emitted as pre-escaped
//! literals, fields recurse through `Serialize::write_json`, no tree is
//! built), `Deserialize` reads a JSON-like `serde::Value` tree. A unit
//! variant is its name as a string; a tuple or struct variant is a
//! one-key object `{"Variant": payload}` whose payload is the single
//! field, an array of the fields, or an object of the named fields.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    /// Carries `#[serde(skip)]`.
    skip: bool,
}

#[derive(Debug)]
enum Variant {
    Unit(String),
    Struct(String, Vec<Field>),
    /// Tuple variant with its field count.
    Tuple(String, usize),
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
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

/// Parses `name: Type, name: Type, ...` from the tokens of a brace group.
fn parse_named_fields(tokens: &[TokenTree]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs_start = i;
        i = skip_attrs_and_vis(tokens, i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let skip = tokens[attrs_start..i].iter().any(|t| {
            matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Bracket
                && g.stream().to_string().replace(' ', "") == "serde(skip)")
        });
        fields.push(Field {
            name: id.to_string(),
            skip,
        });
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

fn parse_variants(tokens: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(tokens, i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let fields = parse_named_fields(&inner);
                assert!(
                    fields.iter().all(|f| !f.skip),
                    "serde shim derive: `#[serde(skip)]` in variant `{name}` is not supported"
                );
                variants.push(Variant::Struct(name, fields));
                i += 1;
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                // Count top-level comma-separated types.
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let mut arity = usize::from(!inner.is_empty());
                let mut depth = 0i32;
                let mut trailing_comma = false;
                for t in &inner {
                    if let TokenTree::Punct(p) = t {
                        match p.as_char() {
                            '<' => depth += 1,
                            '>' => depth -= 1,
                            ',' if depth == 0 => {
                                arity += 1;
                                trailing_comma = true;
                                continue;
                            }
                            _ => {}
                        }
                    }
                    trailing_comma = false;
                }
                if trailing_comma {
                    arity -= 1;
                }
                variants.push(Variant::Tuple(name, arity));
                i += 1;
            }
            _ => variants.push(Variant::Unit(name)),
        }
        // Skip to past the next top-level comma.
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
            name,
            fields: parse_named_fields(&body),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(&body),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

/// `__out.push_str(<text as a Rust string literal>);`
fn push_text(text: &str) -> String {
    format!("__out.push_str({text:?});\n")
}

/// Statements writing `{"a":<a>,"b":<b>}` for the given `(name, place)`
/// pairs: each key, with its punctuation, is one pre-escaped literal.
fn write_fields<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut code = String::new();
    let mut open = "{";
    for (name, place) in fields {
        code += &push_text(&format!("{open}\"{name}\":"));
        code += &format!("::serde::Serialize::write_json({place}, __out);\n");
        open = ",";
    }
    // No field at all: the braces still have to open.
    code + &push_text(if open == "{" { "{}" } else { "}" })
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

fn gen_struct_serialize(name: &str, fields: &[Field]) -> String {
    let kept = fields.iter().filter(|f| !f.skip);
    serialize_impl(
        name,
        &write_fields(kept.map(|f| (f.name.as_str(), format!("&self.{}", f.name)))),
    )
}

fn gen_struct_deserialize(name: &str, fields: &[Field]) -> String {
    let inits: String = fields
        .iter()
        .map(|f| {
            if f.skip {
                return format!("{n}: ::std::default::Default::default(),\n", n = f.name);
            }
            format!(
                "{n}: ::serde::de_field(m, \"{n}\", \"{name}\")?,\n",
                n = f.name
            )
        })
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

fn gen_enum_serialize(name: &str, variants: &[Variant]) -> String {
    let arms: String = variants
        .iter()
        .map(|v| match v {
            Variant::Unit(vn) => {
                format!(
                    "{name}::{vn} => {{\n{}}}\n",
                    push_text(&format!("\"{vn}\""))
                )
            }
            Variant::Tuple(vn, arity) => {
                let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                // One field is the payload itself; any other count an array.
                let (open, close) = if *arity == 1 { ("", "}") } else { ("[", "]}") };
                let mut body = push_text(&format!("{{\"{vn}\":{open}"));
                for (i, b) in binds.iter().enumerate() {
                    if i > 0 {
                        body += &push_text(",");
                    }
                    body += &format!("::serde::Serialize::write_json({b}, __out);\n");
                }
                body += &push_text(close);
                format!("{name}::{vn}({}) => {{\n{body}}}\n", binds.join(", "))
            }
            Variant::Struct(vn, fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let inner = write_fields(binds.iter().map(|n| (*n, (*n).to_string())));
                format!(
                    "{name}::{vn} {{ {} }} => {{\n{}{inner}{}}}\n",
                    binds.join(", "),
                    push_text(&format!("{{\"{vn}\":")),
                    push_text("}"),
                )
            }
        })
        .collect();
    serialize_impl(name, &format!("match self {{\n{arms}}}\n"))
}

fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter_map(|v| match v {
            Variant::Unit(vn) => Some(format!(
                "\"{vn}\" => return ::std::result::Result::Ok({name}::{vn}),\n"
            )),
            Variant::Struct(..) | Variant::Tuple(..) => None,
        })
        .collect();
    let struct_arms: String = variants
        .iter()
        .filter_map(|v| match v {
            Variant::Unit(_) => None,
            Variant::Tuple(vn, arity) => {
                if *arity == 1 {
                    Some(format!(
                        "\"{vn}\" => return ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::deserialize(val)?)),\n"
                    ))
                } else {
                    let elems: String = (0..*arity)
                        .map(|i| {
                            format!(
                                "::serde::Deserialize::deserialize(xs.get({i}).ok_or_else(|| ::serde::Error::expected(\"tuple element\", \"{name}::{vn}\"))?)?,\n"
                            )
                        })
                        .collect();
                    Some(format!(
                        "\"{vn}\" => {{\n\
                            let xs = match val {{ ::serde::Value::Seq(xs) => xs, _ => return ::std::result::Result::Err(::serde::Error::expected(\"sequence\", \"{name}::{vn}\")) }};\n\
                            return ::std::result::Result::Ok({name}::{vn}({elems}));\n\
                        }}\n"
                    ))
                }
            }
            Variant::Struct(vn, fields) => {
                let inits: String = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "{n}: ::serde::de_field(inner, \"{n}\", \"{name}::{vn}\")?,\n",
                            n = f.name
                        )
                    })
                    .collect();
                Some(format!(
                    "\"{vn}\" => {{\n\
                        let inner = val.as_map().ok_or_else(|| ::serde::Error::expected(\"map\", \"{name}::{vn}\"))?;\n\
                        return ::std::result::Result::Ok({name}::{vn} {{ {inits} }});\n\
                    }}\n"
                ))
            }
        })
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                if let ::std::option::Option::Some(s) = v.as_str() {{\n\
                    match s {{\n{unit_arms}\
                        other => return ::std::result::Result::Err(::serde::Error::unknown_variant(other, \"{name}\")),\n\
                    }}\n\
                }}\n\
                if let ::std::option::Option::Some(m) = v.as_map() {{\n\
                    if let ::std::option::Option::Some((tag, val)) = m.first() {{\n\
                        match tag.as_str() {{\n{struct_arms}\
                            other => return ::std::result::Result::Err(::serde::Error::unknown_variant(other, \"{name}\")),\n\
                        }}\n\
                    }}\n\
                }}\n\
                ::std::result::Result::Err(::serde::Error::expected(\"string or map\", \"{name}\"))\n\
            }}\n\
        }}\n"
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse_item(input) {
        Item::Struct { name, fields } => gen_struct_serialize(&name, &fields),
        Item::Enum { name, variants } => gen_enum_serialize(&name, &variants),
    };
    code.parse()
        .expect("serde shim derive: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let code = match parse_item(input) {
        Item::Struct { name, fields } => gen_struct_deserialize(&name, &fields),
        Item::Enum { name, variants } => gen_enum_deserialize(&name, &variants),
    };
    code.parse()
        .expect("serde shim derive: generated invalid Deserialize impl")
}
