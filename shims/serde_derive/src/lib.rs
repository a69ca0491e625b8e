//! Derive macros for the vendored `serde` shim.
//!
//! Implemented without `syn`/`quote` (unavailable offline): the item is
//! parsed directly from the raw `TokenStream` and the impl is emitted as
//! a source string. `Serialize` supports named structs and enums with
//! unit / newtype / struct variants; `Deserialize`, derived only on the
//! scenario-spec input types, supports named structs and enums with unit /
//! struct variants. Generic types, lifetimes, and `#[serde(...)]`
//! attributes are intentionally unsupported.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Item {
    name: String,
    kind: ItemKind,
}

enum ItemKind {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

/// Derives `serde::Serialize` (shim flavour: `fn to_value(&self) -> Value`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated Serialize impl should parse")
}

/// Derives `serde::Deserialize` (shim flavour: `fn from_value(&Value) -> Result<Self, Error>`).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item).parse().expect("generated Deserialize impl should parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);

    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic types are not supported (type `{name}`)");
    }

    match keyword.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde shim derive: unexpected struct body {other:?}"),
            };
            Item { name, kind: ItemKind::Struct(fields) }
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim derive: expected enum body, got {other:?}"),
            };
            Item { name, kind: ItemKind::Enum(parse_variants(body)) }
        }
        other => panic!("serde shim derive: cannot derive for `{other}` items"),
    }
}

/// Advances past outer attributes (`#[...]`, including expanded doc
/// comments) and visibility modifiers (`pub`, `pub(crate)`, ...).
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // `#`
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1; // `[...]`
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(
                    tokens.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1; // `(crate)` etc.
                }
            }
            _ => return,
        }
    }
}

/// Consumes a type expression: everything until a top-level `,`,
/// tracking `<`/`>` nesting so generic argument commas don't terminate
/// the field early. Leaves the cursor *after* the comma (if any).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&tokens, &mut i);
        fields.push(name);
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut count = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break; // trailing comma
        }
        skip_type(&tokens, &mut i);
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant, then the separating comma.
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push((name, fields));
    }
    variants
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(Fields::Named(fields)) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        ItemKind::Struct(_) => {
            panic!("serde shim derive: Serialize needs named fields (type `{name}`)")
        }
        ItemKind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    Fields::Unit => format!(
                        "{name}::{v} => \
                         ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
                    ),
                    Fields::Tuple(1) => format!(
                        "{name}::{v}(__f0) => ::serde::Value::Object(::std::vec![\
                         (::std::string::String::from(\"{v}\"), \
                         ::serde::Serialize::to_value(__f0))]),"
                    ),
                    Fields::Tuple(_) => panic!(
                        "serde shim derive: Serialize supports only newtype variants, \
                         not tuple variant `{name}::{v}`"
                    ),
                    Fields::Named(fs) => {
                        let pairs: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {} }} => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from(\"{v}\"), \
                             ::serde::Value::Object(::std::vec![{}]))]),",
                            fs.join(", "),
                            pairs.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(Fields::Named(fields)) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::Deserialize::from_value(__v.field(\"{f}\"))?,"))
                .collect();
            format!(
                "if __v.as_object().is_none() {{\n\
                 return ::std::result::Result::Err(::serde::Error::expected(\"object\", __v));\n\
                 }}\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                inits.join(" ")
            )
        }
        ItemKind::Struct(_) => {
            panic!("serde shim derive: Deserialize needs named fields (type `{name}`)")
        }
        ItemKind::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(v, _)| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, fields)| match fields {
                    Fields::Unit => None,
                    Fields::Tuple(_) => panic!(
                        "serde shim derive: Deserialize does not support tuple variant `{name}::{v}`"
                    ),
                    Fields::Named(fs) => {
                        let inits: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(__inner.field(\"{f}\"))?,"
                                )
                            })
                            .collect();
                        Some(format!(
                            "\"{v}\" => ::std::result::Result::Ok({name}::{v} {{ {} }}),",
                            inits.join(" ")
                        ))
                    }
                })
                .collect();
            format!(
                "if let ::serde::Value::Str(__s) = __v {{\n\
                 return match __s.as_str() {{\n\
                 {}\n\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                 }};\n\
                 }}\n\
                 if let ::serde::Value::Object(__pairs) = __v {{\n\
                 if __pairs.len() == 1 {{\n\
                 let (__tag, __inner) = &__pairs[0];\n\
                 let _ = __inner;\n\
                 return match __tag.as_str() {{\n\
                 {}\n\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                 }};\n\
                 }}\n\
                 }}\n\
                 ::std::result::Result::Err(::serde::Error::expected(\"enum {name}\", __v))",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
}
