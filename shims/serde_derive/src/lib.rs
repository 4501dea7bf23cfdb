//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled (no `syn`/`quote`) derive macros for the serde shim's
//! [`Serialize`]/[`Deserialize`] traits. `Serialize` impls stream each
//! field through the shim's `Serializer` in declaration order;
//! `Deserialize` impls read fields out of the parsed `Value` tree.
//! Supports exactly the shapes this workspace declares: non-generic
//! structs with named fields and enums whose variants are unit,
//! newtype, or struct-like, plus the field attributes
//! `#[serde(default)]` and `#[serde(default = "path")]`.
//! Anything else panics at expansion time with a clear message.

#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// How a missing field is filled in during deserialization.
#[derive(Debug, Clone, PartialEq)]
enum DefaultAttr {
    /// No default: a missing field is an error.
    Required,
    /// `#[serde(default)]`: use `Default::default()`.
    Std,
    /// `#[serde(default = "path")]`: call `path()`.
    Path(String),
}

#[derive(Debug)]
struct Field {
    name: String,
    default: DefaultAttr,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
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

/// Derive the serde shim's `Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => gen_struct_serialize(name, fields),
        Item::Enum { name, variants } => gen_enum_serialize(name, variants),
    };
    code.parse().expect("derived Serialize impl parses")
}

/// Derive the serde shim's `Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => gen_struct_deserialize(name, fields),
        Item::Enum { name, variants } => gen_enum_deserialize(name, variants),
    };
    code.parse().expect("derived Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

/// Skip attributes starting at `*i`, returning any serde default marker
/// found among them.
fn parse_attrs(tokens: &[TokenTree], i: &mut usize) -> DefaultAttr {
    let mut default = DefaultAttr::Required;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                *i += 1;
                let TokenTree::Group(g) = &tokens[*i] else {
                    panic!("expected [...] after #");
                };
                if let Some(attr) = parse_serde_attr(g.stream()) {
                    default = attr;
                }
                *i += 1;
            }
            _ => break,
        }
    }
    default
}

/// Inside the `[...]` of an attribute: detect `serde(default)` and
/// `serde(default = "path")`.
fn parse_serde_attr(stream: TokenStream) -> Option<DefaultAttr> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(args)) = tokens.get(1) else {
        return None;
    };
    let inner: Vec<TokenTree> = args.stream().into_iter().collect();
    match inner.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "default" => {
            if inner.len() == 1 {
                Some(DefaultAttr::Std)
            } else if let Some(TokenTree::Literal(lit)) = inner.get(2) {
                let s = lit.to_string();
                Some(DefaultAttr::Path(s.trim_matches('"').to_string()))
            } else {
                panic!("unsupported #[serde(default ...)] form");
            }
        }
        Some(other) => panic!("unsupported serde attribute: {other}"),
        None => None,
    }
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    parse_attrs(&tokens, &mut i);
    skip_vis(&tokens, &mut i);
    let keyword = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected struct/enum keyword, got {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, got {other}"),
    };
    i += 1;
    let TokenTree::Group(body) = &tokens[i] else {
        panic!("derive shim supports only non-generic brace-bodied types (type {name})");
    };
    assert_eq!(
        body.delimiter(),
        Delimiter::Brace,
        "derive shim supports only brace-bodied types (type {name})"
    );
    let body_tokens: Vec<TokenTree> = body.stream().into_iter().collect();
    match keyword.as_str() {
        "struct" => Item::Struct {
            name,
            fields: parse_fields(&body_tokens),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(&body_tokens),
        },
        other => panic!("cannot derive for `{other}` items"),
    }
}

/// Parse `name: Type, ...` named fields, honoring serde default attrs.
/// Types are skipped with angle-bracket awareness (`Vec<T>`), so only
/// top-level commas separate fields.
fn parse_fields(tokens: &[TokenTree]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let default = parse_attrs(tokens, &mut i);
        skip_vis(tokens, &mut i);
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected field name, got {other}"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("expected `:` after field {name}, got {other}"),
        }
        let mut angle = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, default });
    }
    fields
}

fn parse_variants(tokens: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        parse_attrs(tokens, &mut i);
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected variant name, got {other}"),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                VariantKind::Struct(parse_fields(&inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let top_level_commas = {
                    let mut angle = 0i32;
                    let mut commas = 0usize;
                    for t in &inner {
                        match t {
                            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => commas += 1,
                            _ => {}
                        }
                    }
                    commas
                };
                assert_eq!(
                    top_level_commas, 0,
                    "derive shim supports only single-field tuple variants (variant {name})"
                );
                i += 1;
                VariantKind::Newtype
            }
            _ => VariantKind::Unit,
        };
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ------------------------------------------------------------- generation

fn gen_struct_serialize(name: &str, fields: &[Field]) -> String {
    let mut writes = String::new();
    for f in fields {
        writes.push_str(&format!("__s.field(\"{0}\", &self.{0});\n", f.name));
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize(&self, __s: &mut ::serde::Serializer<'_>) {{\n\
                __s.begin_object();\n\
                {writes}\
                __s.end_object();\n\
            }}\n\
        }}"
    )
}

/// The expression filling one field from object entries bound to `__obj`.
fn field_expr(type_name: &str, f: &Field) -> String {
    let missing = match &f.default {
        DefaultAttr::Required => format!(
            "return ::std::result::Result::Err(::serde::DeError::new(\
                 \"missing field `{}` in `{type_name}`\"))",
            f.name
        ),
        DefaultAttr::Std => "::std::default::Default::default()".to_string(),
        DefaultAttr::Path(path) => format!("{path}()"),
    };
    format!(
        "match ::serde::Value::field(__obj, \"{0}\") {{\n\
             ::std::option::Option::Some(__f) => ::serde::Deserialize::deserialize(__f)?,\n\
             ::std::option::Option::None => {missing},\n\
         }}",
        f.name
    )
}

fn gen_struct_deserialize(name: &str, fields: &[Field]) -> String {
    let mut inits = String::new();
    for f in fields {
        inits.push_str(&format!("{}: {},\n", f.name, field_expr(name, f)));
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize(__v: &::serde::Value) -> \
                ::std::result::Result<Self, ::serde::DeError> {{\n\
                let __obj = __v.as_object().ok_or_else(|| \
                    ::serde::DeError::new(\"expected object for `{name}`\"))?;\n\
                ::std::result::Result::Ok({name} {{ {inits} }})\n\
            }}\n\
        }}"
    )
}

fn gen_enum_serialize(name: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vn = &v.name;
        match &v.kind {
            VariantKind::Unit => arms.push_str(&format!("{name}::{vn} => __s.str(\"{vn}\"),\n")),
            VariantKind::Newtype => arms.push_str(&format!(
                "{name}::{vn}(__f0) => {{\n\
                     __s.begin_object();\n\
                     __s.field(\"{vn}\", __f0);\n\
                     __s.end_object();\n\
                 }},\n"
            )),
            VariantKind::Struct(fields) => {
                let mut writes = String::new();
                let mut bindings = String::new();
                for f in fields {
                    bindings.push_str(&format!("{},", f.name));
                    writes.push_str(&format!("__s.field(\"{0}\", {0});\n", f.name));
                }
                arms.push_str(&format!(
                    "{name}::{vn} {{ {bindings} }} => {{\n\
                         __s.begin_object();\n\
                         __s.key(\"{vn}\");\n\
                         __s.begin_object();\n\
                         {writes}\
                         __s.end_object();\n\
                         __s.end_object();\n\
                     }},\n"
                ));
            }
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize(&self, __s: &mut ::serde::Serializer<'_>) {{\n\
                match self {{ {arms} }}\n\
            }}\n\
        }}"
    )
}

fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        let vn = &v.name;
        match &v.kind {
            VariantKind::Unit => unit_arms.push_str(&format!(
                "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
            )),
            VariantKind::Newtype => tagged_arms.push_str(&format!(
                "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(\
                     ::serde::Deserialize::deserialize(__inner)?)),\n"
            )),
            VariantKind::Struct(fields) => {
                let mut inits = String::new();
                for f in fields {
                    inits.push_str(&format!(
                        "{}: {},\n",
                        f.name,
                        field_expr(&format!("{name}::{vn}"), f)
                    ));
                }
                tagged_arms.push_str(&format!(
                    "\"{vn}\" => {{\n\
                         let __obj = __inner.as_object().ok_or_else(|| \
                             ::serde::DeError::new(\
                                 \"expected object for `{name}::{vn}`\"))?;\n\
                         ::std::result::Result::Ok({name}::{vn} {{ {inits} }})\n\
                     }},\n"
                ));
            }
        }
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize(__v: &::serde::Value) -> \
                ::std::result::Result<Self, ::serde::DeError> {{\n\
                match __v {{\n\
                    ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                        {unit_arms}\
                        __other => ::std::result::Result::Err(::serde::DeError::new(\
                            format!(\"unknown unit variant `{{__other}}` for `{name}`\"))),\n\
                    }},\n\
                    ::serde::Value::Object(__entries) if __entries.len() == 1 => {{\n\
                        let (__tag, __inner) = &__entries[0];\n\
                        match __tag.as_str() {{\n\
                            {tagged_arms}\
                            __other => ::std::result::Result::Err(::serde::DeError::new(\
                                format!(\"unknown variant `{{__other}}` for `{name}`\"))),\n\
                        }}\n\
                    }},\n\
                    __other => ::std::result::Result::Err(::serde::DeError::new(\
                        format!(\"expected `{name}` variant, got {{__other:?}}\"))),\n\
                }}\n\
            }}\n\
        }}"
    )
}
