//! Vendored `#[derive(Serialize, Deserialize)]` macros for the serde shim.
//!
//! Hand-rolled over `proc_macro` (the build environment has no `syn` /
//! `quote`), these derives support exactly what the workspace needs:
//! non-generic structs with named fields and these real-serde attributes:
//!
//! * container `#[serde(deny_unknown_fields)]`: a member no field takes
//!   is an error that names it (a repeated member is a `duplicate field`
//!   error); without it, unknown and repeated members are ignored and the
//!   first occurrence wins;
//! * field `#[serde(default)]` and `#[serde(default = "path")]`: an absent
//!   member reads as `Default::default()` or `path()`;
//! * field `#[serde(skip)]`: never written, always read as
//!   `Default::default()`;
//! * field `#[serde(with = "module")]`: written by `module::serialize`,
//!   read by `module::deserialize`;
//! * field `#[serde(skip_serializing_if = "path")]`: not written when
//!   `path(&field)` holds.
//!
//! One rule covers absent and `null` members: either reads as the
//! field's default when it has one, and as `None` for an `Option` field
//! without `with`; otherwise it is a `missing field` error that names the
//! member. A `null` never reaches the field's own decoder, so unlike real
//! serde an `Option<Option<T>>` cannot tell `null` from absent and a
//! `with` decoder cannot map `null` to a value. Anything else is a
//! compile error with a pointed message, not a silent misbehavior.
//!
//! A derived `Deserialize` decodes as the format parses: it hands the
//! format a struct visitor with one slot per field, which matches each
//! member name in place against the field names, so member names, `null`s
//! and numbers allocate nothing. The first occurrence of a member fills
//! its slot; a repeat, like an unknown member, is parsed and skipped,
//! never decoded as the field's type, so the first occurrence wins
//! whatever follows it. Under `deny_unknown_fields` the first such member
//! is reported once every field has its value or default, so a missing
//! member is reported first.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What an absent or `null` member reads as.
enum FieldDefault {
    /// `#[serde(default)]`: `Default::default()`.
    Trait,
    /// `#[serde(default = "path")]`: `path()`.
    Path(String),
}

/// One parsed struct field.
struct Field {
    name: String,
    ty: String,
    skip: bool,
    with: Option<String>,
    default: Option<FieldDefault>,
    skip_serializing_if: Option<String>,
}

/// Parsed derive input: a struct name, its container attributes and its
/// named fields.
struct Input {
    name: String,
    deny_unknown_fields: bool,
    fields: Vec<Field>,
}

/// Derives the serde shim's `Serialize` for a named-field struct.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = match parse_input(input) {
        Ok(i) => i,
        Err(msg) => return compile_error(&msg),
    };
    let name = &input.name;
    let active: Vec<&Field> = input.fields.iter().filter(|f| !f.skip).collect();
    let mut len = active.len().to_string();
    let mut body = String::new();
    for field in &active {
        let fname = &field.name;
        let write = match &field.with {
            None => format!(
                "::serde::ser::SerializeStruct::serialize_field(&mut __state, \
                 \"{fname}\", &self.{fname})?;"
            ),
            Some(path) => {
                let fty = &field.ty;
                format!(
                    "{{
                        struct __SerdeWith<'__a>(&'__a {fty});
                        impl<'__a> ::serde::Serialize for __SerdeWith<'__a> {{
                            fn serialize<__S: ::serde::Serializer>(
                                &self,
                                __serializer: __S,
                            ) -> ::core::result::Result<__S::Ok, __S::Error> {{
                                {path}::serialize(self.0, __serializer)
                            }}
                        }}
                        ::serde::ser::SerializeStruct::serialize_field(
                            &mut __state, \"{fname}\", &__SerdeWith(&self.{fname}))?;
                    }}"
                )
            }
        };
        match &field.skip_serializing_if {
            None => body.push_str(&write),
            Some(path) => {
                len = format!("{len} - usize::from({path}(&self.{fname}))");
                body.push_str(&format!("if !{path}(&self.{fname}) {{ {write} }}"));
            }
        }
        body.push('\n');
    }
    let out = format!(
        "#[automatically_derived]
        impl ::serde::Serialize for {name} {{
            fn serialize<__S: ::serde::Serializer>(
                &self,
                __serializer: __S,
            ) -> ::core::result::Result<__S::Ok, __S::Error> {{
                let mut __state =
                    ::serde::Serializer::serialize_struct(__serializer, \"{name}\", {len})?;
                {body}
                ::serde::ser::SerializeStruct::end(__state)
            }}
        }}"
    );
    out.parse().expect("derived Serialize impl must parse")
}

/// Derives the serde shim's `Deserialize` for a named-field struct.
///
/// The generated `StructVisitor` keeps one slot per field, an
/// `Option<Option<T>>`: unset until the member first appears, then `None`
/// for a `null` and `Some` for a decoded value. Each member name is matched
/// in place against the field names; a repeated or unknown member is
/// skipped, and under `deny_unknown_fields` the first one is remembered and
/// reported once every field has its value or default.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = match parse_input(input) {
        Ok(i) => i,
        Err(msg) => return compile_error(&msg),
    };
    let name = &input.name;
    let error = "<__A::Error as ::serde::de::Error>::custom";
    let mut known = String::new();
    let mut items = String::new();
    let mut slots = String::new();
    let mut arms = String::new();
    let mut body = String::new();
    for (index, field) in input.fields.iter().enumerate() {
        let fname = &field.name;
        if field.skip {
            body.push_str(&format!("{fname}: ::core::default::Default::default(),\n"));
            continue;
        }
        known.push_str(&format!("\"{fname}\", "));
        let fty = &field.ty;
        let (slot_ty, present) = match &field.with {
            None => (fty.clone(), "__v".to_owned()),
            Some(path) => {
                items.push_str(&format!(
                    "struct __With{index}({fty});
                    impl<'de> ::serde::Deserialize<'de> for __With{index} {{
                        fn deserialize<__D: ::serde::Deserializer<'de>>(
                            __deserializer: __D,
                        ) -> ::core::result::Result<Self, __D::Error> {{
                            {path}::deserialize(__deserializer).map(__With{index})
                        }}
                    }}\n"
                ));
                (format!("__With{index}"), "__v.0".to_owned())
            }
        };
        slots.push_str(&format!(
            "let mut __slot{index}: ::core::option::Option<::core::option::Option<{slot_ty}>> =
                ::core::option::Option::None;\n"
        ));
        arms.push_str(&format!(
            "\"{fname}\" if __slot{index}.is_none() => {{
                __slot{index} = ::core::option::Option::Some(
                    ::serde::de::StructAccess::member_value(&mut __members)?);
            }}\n"
        ));
        let absent = match (&field.default, &field.with) {
            (Some(FieldDefault::Trait), _) => "::core::default::Default::default()".to_owned(),
            (Some(FieldDefault::Path(path)), _) => format!("{path}()"),
            (None, None) if is_option(fty) => "::core::option::Option::None".to_owned(),
            (None, _) => format!(
                "return ::core::result::Result::Err({error}(
                    ::serde::__private::missing_field(\"{name}\", \"{fname}\")))"
            ),
        };
        body.push_str(&format!(
            "{fname}: match __slot{index} {{
                ::core::option::Option::Some(::core::option::Option::Some(__v)) => {present},
                _ => {absent},
            }},\n"
        ));
    }
    // A member no slot takes: skipped, and under `deny_unknown_fields` the
    // first one is kept for the error.
    let (leftover_slot, other_arm, leftover_check) = if input.deny_unknown_fields {
        (
            "let mut __leftover: ::core::option::Option<::std::string::String> =
                ::core::option::Option::None;",
            "__other => {
                if __leftover.is_none() {
                    __leftover = ::core::option::Option::Some(::std::borrow::ToOwned::to_owned(__other));
                }
                ::serde::de::StructAccess::member_value::<::serde::Value>(&mut __members)?;
            }",
            format!(
                "if let ::core::option::Option::Some(__member) = __leftover {{
                    return ::core::result::Result::Err({error}(
                        ::serde::__private::unknown_field(\"{name}\", &__member, &[{known}])));
                }}"
            ),
        )
    } else {
        (
            "",
            "_ => {
                ::serde::de::StructAccess::member_value::<::serde::Value>(&mut __members)?;
            }",
            String::new(),
        )
    };
    let out = format!(
        "#[automatically_derived]
        impl<'de> ::serde::Deserialize<'de> for {name} {{
            fn deserialize<__D: ::serde::Deserializer<'de>>(
                __deserializer: __D,
            ) -> ::core::result::Result<Self, __D::Error> {{
                {items}
                struct __Visitor;
                impl<'de> ::serde::de::StructVisitor<'de> for __Visitor {{
                    type Value = {name};
                    fn visit_struct<__A: ::serde::de::StructAccess<'de>>(
                        self,
                        mut __members: __A,
                    ) -> ::core::result::Result<{name}, __A::Error> {{
                        {slots}
                        {leftover_slot}
                        while let ::core::option::Option::Some(__member) =
                            ::serde::de::StructAccess::next_member(&mut __members)?
                        {{
                            match __member {{
                                {arms}
                                {other_arm}
                            }}
                        }}
                        let __out = {name} {{
                            {body}
                        }};
                        {leftover_check}
                        ::core::result::Result::Ok(__out)
                    }}
                }}
                ::serde::Deserializer::deserialize_struct(__deserializer, \"{name}\", __Visitor)
            }}
        }}"
    );
    out.parse().expect("derived Deserialize impl must parse")
}

/// Whether a field type, as the parser printed it, is an `Option<…>`
/// (bare or path-qualified).
fn is_option(ty: &str) -> bool {
    match ty.split_once('<') {
        Some((head, _)) => head.split_whitespace().last() == Some("Option"),
        None => false,
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("::core::compile_error!({msg:?});").parse().unwrap()
}

/// Parses the derive input down to struct name + named fields, collecting
/// `#[serde(...)]` container and field attributes along the way.
fn parse_input(input: TokenStream) -> Result<Input, String> {
    let mut tokens = input.into_iter().peekable();
    let mut deny_unknown_fields = false;

    // Outer attributes and visibility before `struct`.
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                let group = match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
                    other => return Err(format!("malformed attribute: {other:?}")),
                };
                for (key, value) in serde_args(group.stream())? {
                    match (key.as_str(), value) {
                        ("deny_unknown_fields", None) => deny_unknown_fields = true,
                        (unknown, _) => {
                            return Err(format!(
                                "serde shim does not support the container attribute \
                                 `{unknown}` (only `deny_unknown_fields`)"
                            ))
                        }
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }

    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {}
        other => {
            return Err(format!(
                "serde shim derives support only structs, found {other:?}"
            ))
        }
    }
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct name, found {other:?}")),
    };

    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!(
                "serde shim derives do not support generic struct `{name}`"
            ))
        }
        other => {
            return Err(format!(
                "serde shim derives support only named-field structs, \
                 found {other:?} after `struct {name}`"
            ))
        }
    };

    let fields = parse_fields(body)?;
    Ok(Input {
        name,
        deny_unknown_fields,
        fields,
    })
}

fn parse_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Field attributes.
        let mut skip = false;
        let mut with = None;
        let mut default = None;
        let mut skip_serializing_if = None;
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    let group = match tokens.next() {
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
                        other => return Err(format!("malformed attribute: {other:?}")),
                    };
                    for (key, value) in serde_args(group.stream())? {
                        match (key.as_str(), value) {
                            ("skip", None) => skip = true,
                            ("default", None) => default = Some(FieldDefault::Trait),
                            ("default", Some(path)) => default = Some(FieldDefault::Path(path)),
                            ("with", Some(path)) => with = Some(path),
                            ("skip_serializing_if", Some(path)) => skip_serializing_if = Some(path),
                            (unknown, _) => {
                                return Err(format!(
                                    "serde shim does not support the field attribute \
                                     `{unknown}` here (only `skip`, `default`, \
                                     `default = \"path\"`, `with = \"module\"` and \
                                     `skip_serializing_if = \"path\"`)"
                                ))
                            }
                        }
                    }
                }
                _ => break,
            }
        }

        // Visibility.
        if let Some(TokenTree::Ident(id)) = tokens.peek() {
            if id.to_string() == "pub" {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
        }

        // Field name (or end of input).
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "serde shim derives support only named fields \
                     (field `{name}`, found {other:?})"
                ))
            }
        }

        // Type: everything up to a comma at angle-bracket depth zero,
        // printed through a `TokenStream` so joint punctuation such as
        // `::` and `'a` keeps its spacing.
        let mut ty = Vec::new();
        let mut angle_depth: i32 = 0;
        loop {
            match tokens.peek() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle_depth == 0 => {
                    tokens.next();
                    break;
                }
                Some(tt) => {
                    if let TokenTree::Punct(p) = tt {
                        match p.as_char() {
                            '<' => angle_depth += 1,
                            '>' => angle_depth -= 1,
                            _ => {}
                        }
                    }
                    ty.extend(tokens.next());
                }
            }
        }
        if ty.is_empty() {
            return Err(format!("field `{name}` has an empty type"));
        }
        let ty = TokenStream::from_iter(ty).to_string();
        fields.push(Field {
            name,
            ty,
            skip,
            with,
            default,
            skip_serializing_if,
        });
    }
    Ok(fields)
}

/// The `key` or `key = "value"` items of one `[...]` attribute body when
/// it is `serde(...)`; none for doc comments and other attributes.
fn serde_args(stream: TokenStream) -> Result<Vec<(String, Option<String>)>, String> {
    let mut tokens = stream.into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(Vec::new()),
    }
    let args = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        other => return Err(format!("malformed #[serde] attribute: {other:?}")),
    };
    let mut items = Vec::new();
    let mut tokens = args.into_iter().peekable();
    while let Some(tt) = tokens.next() {
        let key = match tt {
            TokenTree::Ident(id) => id.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            other => return Err(format!("malformed #[serde] attribute token: {other:?}")),
        };
        let value = match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                tokens.next();
                match tokens.next() {
                    Some(TokenTree::Literal(lit)) => {
                        let raw = lit.to_string();
                        let value = raw.trim_matches('"');
                        if value.is_empty() || value.len() + 2 != raw.len() {
                            return Err(format!(
                                "expected a non-empty string literal in serde({key} = ...), \
                                 got {raw}"
                            ));
                        }
                        Some(value.to_owned())
                    }
                    other => {
                        return Err(format!(
                            "expected a string literal in serde({key} = ...), got {other:?}"
                        ))
                    }
                }
            }
            _ => None,
        };
        items.push((key, value));
    }
    Ok(items)
}
