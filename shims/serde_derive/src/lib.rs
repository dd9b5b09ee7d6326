//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! offline serde shim. No syn/quote: the item is parsed directly from
//! `proc_macro::TokenTree`s and the impl is generated as a string.
//!
//! Supported shapes — exactly what this workspace derives on:
//! - named-field structs, with `#[serde(default)]` and
//!   `#[serde(default = "path")]` field attributes, and the same two at
//!   container level (absent fields come from that one value — the
//!   type's `Default`, or `path()`);
//! - tuple structs (newtypes serialize transparently);
//! - enums with unit / newtype / tuple / struct variants, externally
//!   tagged by default or internally tagged via container-level
//!   `#[serde(tag = "...", rename_all = "snake_case")]`;
//! - container-level `#[serde(deny_unknown_fields)]` on a named-field
//!   struct or an internally tagged enum (each variant accepts the tag
//!   plus its own fields): any other key is `serde::Error::unknown_field`.
//!
//! Generics, lifetimes, and other serde attributes are intentionally
//! unsupported and produce a compile error rather than wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------

struct Item {
    name: String,
    data: Data,
    /// Container `#[serde(tag = "...")]` (internally tagged enum).
    tag: Option<String>,
    /// Container `#[serde(rename_all = "snake_case")]`.
    snake: bool,
    /// Container `#[serde(deny_unknown_fields)]`.
    deny: bool,
    /// Container `#[serde(default [= "path"])]`: the fn whose value
    /// supplies absent fields.
    default: Option<String>,
}

enum Data {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// Path of the default fn, when `#[serde(default [= "path"])]` is set.
    default: Option<String>,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Serde attribute content relevant at either container or field level.
#[derive(Default)]
struct SerdeAttrs {
    default: Option<String>,
    tag: Option<String>,
    snake: bool,
    deny: bool,
}

fn strip_quotes(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

/// Parse the tokens inside `#[serde( ... )]`.
fn parse_serde_attr(stream: TokenStream, attrs: &mut SerdeAttrs) {
    let mut iter = stream.into_iter().peekable();
    while let Some(tt) = iter.next() {
        let TokenTree::Ident(key) = tt else { continue };
        let key = key.to_string();
        let value = match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                iter.next();
                match iter.next() {
                    Some(TokenTree::Literal(l)) => Some(strip_quotes(&l.to_string())),
                    other => panic!("serde attr `{key}` expects a string literal, got {other:?}"),
                }
            }
            _ => None,
        };
        match (key.as_str(), value) {
            ("default", None) => {
                attrs.default = Some("::std::default::Default::default".to_string());
            }
            ("default", Some(path)) => attrs.default = Some(path),
            ("tag", Some(t)) => attrs.tag = Some(t),
            ("deny_unknown_fields", None) => attrs.deny = true,
            ("rename_all", Some(style)) => {
                assert_eq!(
                    style, "snake_case",
                    "only rename_all = \"snake_case\" is supported"
                );
                attrs.snake = true;
            }
            (other, _) => panic!("unsupported serde attribute `{other}`"),
        }
    }
}

/// Consume one leading attribute (`# [ ... ]`) if present; feed serde
/// attrs into `attrs`, skip everything else (doc comments etc.).
fn take_attr(
    iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>,
    attrs: &mut SerdeAttrs,
) -> bool {
    match iter.peek() {
        Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
            iter.next();
            match iter.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    let mut inner = g.stream().into_iter();
                    if let Some(TokenTree::Ident(id)) = inner.next() {
                        if id.to_string() == "serde" {
                            if let Some(TokenTree::Group(args)) = inner.next() {
                                parse_serde_attr(args.stream(), attrs);
                            }
                        }
                    }
                }
                other => panic!("malformed attribute: {other:?}"),
            }
            true
        }
        _ => false,
    }
}

/// Skip `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_visibility(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if let Some(TokenTree::Ident(id)) = iter.peek() {
        if id.to_string() == "pub" {
            iter.next();
            if let Some(TokenTree::Group(g)) = iter.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    iter.next();
                }
            }
        }
    }
}

/// Skip a type (after `:`), stopping at a top-level `,`. Tracks `<`/`>`
/// depth so commas inside generic args don't split fields.
fn skip_type(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    let mut depth = 0i32;
    while let Some(tt) = iter.peek() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                iter.next();
                return;
            }
            _ => {}
        }
        iter.next();
    }
}

/// Parse `{ name: Type, ... }` fields with their serde attrs.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut iter = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let mut attrs = SerdeAttrs::default();
        while take_attr(&mut iter, &mut attrs) {}
        skip_visibility(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected field name, got {other:?}"),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&mut iter);
        fields.push(Field {
            name,
            default: attrs.default,
        });
    }
    fields
}

/// Count tuple-struct / tuple-variant fields: top-level commas + 1.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    let mut trailing_comma = false;
    for tt in stream {
        any = true;
        trailing_comma = false;
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                commas += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if !any {
        return 0;
    }
    commas + 1 - usize::from(trailing_comma)
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut iter = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let mut attrs = SerdeAttrs::default();
        while take_attr(&mut iter, &mut attrs) {}
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected variant name, got {other:?}"),
        };
        let kind = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                iter.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                iter.next();
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        // Optional trailing comma.
        if let Some(TokenTree::Punct(p)) = iter.peek() {
            if p.as_char() == ',' {
                iter.next();
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut iter = input.into_iter().peekable();
    let mut attrs = SerdeAttrs::default();
    loop {
        if take_attr(&mut iter, &mut attrs) {
            continue;
        }
        match iter.peek() {
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                skip_visibility(&mut iter);
            }
            Some(TokenTree::Ident(id))
                if id.to_string() == "struct" || id.to_string() == "enum" =>
            {
                break;
            }
            other => panic!("unexpected token before item keyword: {other:?}"),
        }
    }
    let keyword = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected struct/enum, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        assert_ne!(
            p.as_char(),
            '<',
            "serde shim derive does not support generic type `{name}`"
        );
    }
    let data = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if keyword == "struct" {
                Data::NamedStruct(parse_named_fields(g.stream()))
            } else {
                Data::Enum(parse_variants(g.stream()))
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            assert_eq!(keyword, "struct");
            Data::TupleStruct(count_tuple_fields(g.stream()))
        }
        other => panic!("unsupported item body for `{name}`: {other:?}"),
    };
    let named = matches!(data, Data::NamedStruct(_));
    assert!(
        !attrs.deny || named || (attrs.tag.is_some() && matches!(data, Data::Enum(_))),
        "deny_unknown_fields on `{name}`: only named structs and tagged enums"
    );
    assert!(
        attrs.default.is_none() || named,
        "container default on `{name}`: only named structs"
    );
    Item {
        name,
        data,
        tag: attrs.tag,
        snake: attrs.snake,
        deny: attrs.deny,
        default: attrs.default,
    }
}

// ---------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------

fn snake_case(s: &str) -> String {
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

impl Item {
    fn variant_name(&self, v: &Variant) -> String {
        if self.snake {
            snake_case(&v.name)
        } else {
            v.name.clone()
        }
    }
}

fn ser_named_fields(fields: &[Field], prefix: &str) -> String {
    let mut out = String::from("let mut __fields: Vec<(String, serde::Value)> = Vec::new();\n");
    for f in fields {
        out.push_str(&format!(
            "__fields.push((\"{n}\".to_string(), serde::Serialize::to_value(&{prefix}{n})));\n",
            n = f.name
        ));
    }
    out
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::NamedStruct(fields) => {
            format!(
                "{}serde::Value::Object(__fields)",
                ser_named_fields(fields, "self.")
            )
        }
        Data::TupleStruct(1) => "serde::Serialize::to_value(&self.0)".to_string(),
        Data::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = item.variant_name(v);
                let arm = match (&v.kind, &item.tag) {
                    (VariantKind::Unit, None) => format!(
                        "{name}::{v} => serde::Value::Str(\"{vname}\".to_string()),\n",
                        v = v.name
                    ),
                    (VariantKind::Unit, Some(tag)) => format!(
                        "{name}::{v} => serde::Value::Object(vec![(\"{tag}\".to_string(), \
                         serde::Value::Str(\"{vname}\".to_string()))]),\n",
                        v = v.name
                    ),
                    (VariantKind::Tuple(n), None) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let payload = if *n == 1 {
                            "serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})"))
                                .collect();
                            format!("serde::Value::Array(vec![{}])", elems.join(", "))
                        };
                        format!(
                            "{name}::{v}({binds}) => serde::Value::Object(vec![(\"{vname}\"\
                             .to_string(), {payload})]),\n",
                            v = v.name,
                            binds = binds.join(", ")
                        )
                    }
                    (VariantKind::Tuple(_), Some(_)) => panic!(
                        "tuple variant `{}` not supported in internally-tagged enum `{name}`",
                        v.name
                    ),
                    (VariantKind::Struct(fields), tag) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut inner = match tag {
                            Some(t) => format!(
                                "let mut __fields: Vec<(String, serde::Value)> = \
                                 vec![(\"{t}\".to_string(), serde::Value::Str(\"{vname}\"\
                                 .to_string()))];\n"
                            ),
                            None => "let mut __fields: Vec<(String, serde::Value)> = Vec::new();\n"
                                .to_string(),
                        };
                        for f in fields {
                            inner.push_str(&format!(
                                "__fields.push((\"{n}\".to_string(), \
                                 serde::Serialize::to_value({n})));\n",
                                n = f.name
                            ));
                        }
                        let payload = if tag.is_some() {
                            "serde::Value::Object(__fields)".to_string()
                        } else {
                            format!(
                                "serde::Value::Object(vec![(\"{vname}\".to_string(), \
                                 serde::Value::Object(__fields))])"
                            )
                        };
                        format!(
                            "{name}::{v} {{ {binds} }} => {{ {inner} {payload} }}\n",
                            v = v.name,
                            binds = binds.join(", ")
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl serde::Serialize for {name} {{\n\
             fn to_value(&self) -> serde::Value {{\n{body}\n}}\n\
         }}\n"
    )
}

/// `field: <lookup>,` lines. With `container_default` the generated code
/// has the container's default value in `__d`, and a field without its
/// own default attribute moves out of it.
fn de_named_fields(fields: &[Field], src: &str, container_default: bool) -> String {
    let mut out = String::new();
    for f in fields {
        let expr = match &f.default {
            Some(path) => format!("serde::de_field_or({src}, \"{n}\", {path})?", n = f.name),
            None if container_default => {
                format!(
                    "serde::de_field_or({src}, \"{n}\", || __d.{n})?",
                    n = f.name
                )
            }
            None => format!("serde::de_field({src}, \"{n}\")?", n = f.name),
        };
        out.push_str(&format!("{n}: {expr},\n", n = f.name));
    }
    out
}

impl Item {
    /// The `deny_unknown_fields` statement for an object holding `fields`
    /// (plus the tag, inside `variant` of a tagged enum); empty when the
    /// container does not deny.
    fn deny_check(&self, fields: &[Field], variant: Option<&str>) -> String {
        if !self.deny {
            return String::new();
        }
        let keys = self.tag.iter().chain(fields.iter().map(|f| &f.name));
        let keys: Vec<String> = keys.map(|k| format!("\"{k}\"")).collect();
        let named = variant.map_or(String::new(), |v| {
            format!(".map_err(|__e| __e.in_variant(\"{v}\"))")
        });
        format!(
            "serde::deny_unknown_fields(__v, &[{}]){named}?;\n",
            keys.join(", ")
        )
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::NamedStruct(fields) => {
            let default = item.default.as_ref().map_or(String::new(), |path| {
                format!("let __d: {name} = {path}();\n")
            });
            format!(
                "{}{default}Ok({name} {{\n{}}})",
                item.deny_check(fields, None),
                de_named_fields(fields, "__v", item.default.is_some())
            )
        }
        Data::TupleStruct(1) => {
            format!("Ok({name}(serde::Deserialize::from_value(__v)?))")
        }
        Data::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_value(&__xs[{i}])?"))
                .collect();
            format!(
                "match __v {{\n\
                     serde::Value::Array(__xs) if __xs.len() == {n} => \
                         Ok({name}({elems})),\n\
                     __other => Err(serde::Error::expected(\"{n}-element array\", __other)),\n\
                 }}",
                elems = elems.join(", ")
            )
        }
        Data::Enum(variants) => match &item.tag {
            Some(tag) => {
                let mut arms = String::new();
                for v in variants {
                    let vname = item.variant_name(v);
                    match &v.kind {
                        VariantKind::Unit => {
                            arms.push_str(&format!(
                                "\"{vname}\" => {{ {deny}Ok({name}::{v}) }}\n",
                                deny = item.deny_check(&[], Some(&vname)),
                                v = v.name
                            ));
                        }
                        VariantKind::Struct(fields) => {
                            arms.push_str(&format!(
                                "\"{vname}\" => {{ {deny}Ok({name}::{v} {{\n{fields}}}) }}\n",
                                deny = item.deny_check(fields, Some(&vname)),
                                v = v.name,
                                fields = de_named_fields(fields, "__v", false)
                            ));
                        }
                        VariantKind::Tuple(_) => panic!(
                            "tuple variant `{}` not supported in internally-tagged enum `{name}`",
                            v.name
                        ),
                    }
                }
                format!(
                    "let __tag: String = serde::de_field(__v, \"{tag}\")?;\n\
                     match __tag.as_str() {{\n{arms}\
                         __other => Err(serde::Error::custom(format!(\
                             \"unknown {name} variant `{{__other}}`\"))),\n\
                     }}"
                )
            }
            None => {
                let units: Vec<&Variant> = variants
                    .iter()
                    .filter(|v| matches!(v.kind, VariantKind::Unit))
                    .collect();
                let payloads: Vec<&Variant> = variants
                    .iter()
                    .filter(|v| !matches!(v.kind, VariantKind::Unit))
                    .collect();
                let mut out = String::new();
                if !units.is_empty() {
                    let mut arms = String::new();
                    for v in &units {
                        arms.push_str(&format!(
                            "\"{vname}\" => return Ok({name}::{v}),\n",
                            vname = item.variant_name(v),
                            v = v.name
                        ));
                    }
                    out.push_str(&format!(
                        "if let serde::Value::Str(__s) = __v {{\n\
                             match __s.as_str() {{\n{arms}_ => {{}}\n}}\n\
                         }}\n"
                    ));
                }
                if !payloads.is_empty() {
                    let mut arms = String::new();
                    for v in &payloads {
                        let vname = item.variant_name(v);
                        match &v.kind {
                            VariantKind::Tuple(1) => arms.push_str(&format!(
                                "\"{vname}\" => return Ok({name}::{v}(\
                                 serde::Deserialize::from_value(__inner)?)),\n",
                                v = v.name
                            )),
                            VariantKind::Tuple(n) => {
                                let elems: Vec<String> = (0..*n)
                                    .map(|i| format!("serde::Deserialize::from_value(&__xs[{i}])?"))
                                    .collect();
                                arms.push_str(&format!(
                                    "\"{vname}\" => {{\n\
                                         let serde::Value::Array(__xs) = __inner else {{\n\
                                             return Err(serde::Error::expected(\
                                                 \"{n}-element array\", __inner));\n\
                                         }};\n\
                                         if __xs.len() != {n} {{\n\
                                             return Err(serde::Error::expected(\
                                                 \"{n}-element array\", __inner));\n\
                                         }}\n\
                                         return Ok({name}::{v}({elems}));\n\
                                     }}\n",
                                    v = v.name,
                                    elems = elems.join(", ")
                                ));
                            }
                            VariantKind::Struct(fields) => arms.push_str(&format!(
                                "\"{vname}\" => return Ok({name}::{v} {{\n{fields}}}),\n",
                                v = v.name,
                                fields = de_named_fields(fields, "__inner", false)
                            )),
                            VariantKind::Unit => unreachable!(),
                        }
                    }
                    out.push_str(&format!(
                        "if let Some((__k, __inner)) = serde::as_variant(__v) {{\n\
                             match __k {{\n{arms}_ => {{}}\n}}\n\
                         }}\n"
                    ));
                }
                out.push_str(&format!(
                    "Err(serde::Error::custom(\"unrecognized {name} variant\"))"
                ));
                out
            }
        },
    };
    format!(
        "#[automatically_derived]\n\
         impl serde::Deserialize for {name} {{\n\
             fn from_value(__v: &serde::Value) -> ::std::result::Result<Self, serde::Error> {{\n{body}\n}}\n\
         }}\n"
    )
}
