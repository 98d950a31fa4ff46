//! The typed path accepts only JSON the tree parser accepts: hostile
//! inputs decoded as structs, sequences, tuples and options either fail
//! or are also `Ok` as a `Value`, and none panics.

use proptest::prelude::*;
use serde::Deserialize;
use serde_json::Value;

/// Unknown members refused.
#[derive(Debug, Deserialize)]
#[serde(deny_unknown_fields)]
#[allow(dead_code)]
struct Strict {
    id: String,
    #[serde(default)]
    flag: bool,
    #[serde(default)]
    count: u32,
    #[serde(default)]
    tags: Vec<String>,
    note: Option<String>,
}

/// Unknown and repeated members skipped; a field of trees.
#[derive(Debug, Deserialize)]
#[allow(dead_code)]
struct Lenient {
    id: String,
    #[serde(default)]
    values: Vec<Value>,
}

fn decodes<T: for<'de> Deserialize<'de>>(text: &str) -> bool {
    serde_json::from_str::<T>(text).is_ok()
}

/// Decodes `text` as every type under test; wherever a typed decode is
/// `Ok`, the tree parser must accept the text too.
fn check(text: &str) {
    let typed = [
        ("Strict", decodes::<Strict>(text)),
        ("Lenient", decodes::<Lenient>(text)),
        ("Vec<Option<f64>>", decodes::<Vec<Option<f64>>>(text)),
        ("(String, u32)", decodes::<(String, u32)>(text)),
        ("Option<u8>", decodes::<Option<u8>>(text)),
    ];
    let tree = serde_json::from_str::<Value>(text);
    for (name, ok) in typed {
        assert!(
            !ok || tree.is_ok(),
            "{name} accepted what the tree parser refuses ({:?}): {text:?}",
            tree.unwrap_err().to_string()
        );
    }
}

/// `depth` arrays nested in each other.
fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

/// Inputs for each type under test, one JSON token per word: the soup
/// edits these tokens.
const TEMPLATES: [&str; 6] = [
    r#"{ "id" : "a" , "flag" : true , "count" : 2 , "tags" : [ "x" , "y" ] , "note" : null }"#,
    r#"{ "id" : "a" , "values" : [ 1 , { "k" : [ null ] } , "s" ] , "extra" : { "deep" : [ 1 ] } , "id" : 5 }"#,
    r#"[ 1 , null , -0.5 , 2e3 ]"#,
    r#"[ "s" , 7 ]"#,
    "3",
    "null",
];

/// Member names the structs know or skip, quoted.
const NAMES: &str = "id flag count tags note values extra deep k";

/// Whole JSON values: numbers past the f64 and integer ranges, negative
/// zero, strings with bad escapes, and empty containers.
const LITERALS: &str = r#"true false null 0 1 -1 -0 -0.0 0.5 255 256 1e309 -1e309 1e-400
    18446744073709551616 4294967296 "\ud800" "\udc00\ud800" "\u12" "\uZZZZ" "\x41"
    "😀" "id" "" [] {}"#;

/// Fragments that are not whole values: structure, and malformed
/// numbers and strings.
const JUNK: &str = r#"{ } [ ] , : " \ 1. .5 01 +1 NaN Infinity "\"#;

/// The soup's whole values (the names quoted, the literals, and arrays
/// nested up to and past the 128 limit, so they cross it inside a
/// struct's members) and all its fragments: those values, the junk, stray
/// whitespace and bytes, and runs of openers nested past the limit.
fn soup() -> (Vec<String>, Vec<String>) {
    let values: Vec<String> = NAMES
        .split_whitespace()
        .map(|name| format!("\"{name}\""))
        .chain(LITERALS.split_whitespace().map(str::to_string))
        .chain([nested(126), nested(127), nested(128), nested(129)])
        .chain(["\"é\u{0}\"".to_string()])
        .collect();
    let mut fragments = values.clone();
    fragments.extend(JUNK.split_whitespace().map(str::to_string));
    fragments.extend([" ", "\n", "\u{0}", "\u{feff}", "\u{fffd}"].map(str::to_string));
    fragments.push("[".repeat(129));
    fragments.push("{\"values\":[".repeat(70));
    fragments.push("{\"extra\":".repeat(130));
    (values, fragments)
}

#[test]
fn the_templates_decode() {
    assert!(serde_json::from_str::<Strict>(TEMPLATES[0]).is_ok());
    assert!(serde_json::from_str::<Lenient>(TEMPLATES[1]).is_ok());
    assert!(serde_json::from_str::<Vec<Option<f64>>>(TEMPLATES[2]).is_ok());
    assert!(serde_json::from_str::<(String, u32)>(TEMPLATES[3]).is_ok());
    assert_eq!(
        serde_json::from_str::<Option<u8>>(TEMPLATES[4]).unwrap(),
        Some(3)
    );
    assert_eq!(
        serde_json::from_str::<Option<u8>>(TEMPLATES[5]).unwrap(),
        None
    );
}

#[test]
fn the_nesting_bound_holds_inside_skipped_members_and_value_fields() {
    // The struct is one level, so a member nested 127 deep reaches the
    // 128 limit and one nested 128 deep passes it: on the typed path as
    // on the tree.
    for depth in 120..=130 {
        for text in [
            format!(r#"{{"id": "a", "extra": {}}}"#, nested(depth)),
            format!(r#"{{"id": "a", "id": {}}}"#, nested(depth)),
            format!(r#"{{"id": "a", "values": {}}}"#, nested(depth)),
        ] {
            let typed = serde_json::from_str::<Lenient>(&text);
            let tree = serde_json::from_str::<Value>(&text);
            assert_eq!(typed.is_ok(), tree.is_ok(), "depth {depth}: {text}");
            assert_eq!(typed.is_ok(), depth < 128, "depth {depth}: {text}");
            check(&text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// Arbitrary bytes, read as lossy UTF-8.
    #[test]
    fn arbitrary_bytes_decode_typed_only_where_the_tree_parses(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check(&String::from_utf8_lossy(&bytes));
    }

    /// A template (or nothing) with one to five edits. Five in eight put
    /// a soup value in place of one of the template's values or member
    /// names, which keeps the JSON well-formed; the rest replace, delete
    /// or insert any token or fragment.
    #[test]
    fn token_soups_decode_typed_only_where_the_tree_parses(
        (template, edits) in (
            0usize..TEMPLATES.len() + 1,
            prop::collection::vec((0usize..8, any::<usize>(), any::<usize>()), 1..6),
        ),
    ) {
        let (values, fragments) = soup();
        let template = TEMPLATES.get(template).copied().unwrap_or("");
        let mut tokens: Vec<&str> = template.split_whitespace().collect();
        for (op, at, pick) in edits {
            let value_slots: Vec<usize> = (0..tokens.len())
                .filter(|&i| !matches!(tokens[i], "{" | "}" | "[" | "]" | "," | ":"))
                .collect();
            let at_token = at % (tokens.len() + 1);
            match op {
                0 if at_token < tokens.len() => {
                    tokens[at_token] = &fragments[pick % fragments.len()]
                }
                1 if at_token < tokens.len() => {
                    tokens.remove(at_token);
                }
                3.. if !value_slots.is_empty() => {
                    tokens[value_slots[at % value_slots.len()]] = &values[pick % values.len()]
                }
                _ => tokens.insert(at_token, &fragments[pick % fragments.len()]),
            }
        }
        check(&tokens.concat());
    }
}
