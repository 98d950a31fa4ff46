//! The derive's field attributes and its absent/`null` rule, through
//! `from_str` and `to_string`.

use serde::{Deserialize, Serialize};

fn seven() -> u32 {
    7
}

/// Every member optional in a different way; unknown members refused.
#[derive(Debug, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    id: String,
    #[serde(default)]
    flag: bool,
    #[serde(default = "seven")]
    count: u32,
    #[serde(default = "Vec::new")]
    tags: Vec<String>,
    note: Option<String>,
}

/// The same members without `deny_unknown_fields`.
#[derive(Debug, PartialEq, Deserialize)]
struct Lenient {
    id: String,
    note: Option<String>,
}

/// A struct nested in another, with a path-qualified `Option`.
#[derive(Debug, PartialEq, Deserialize)]
#[serde(deny_unknown_fields)]
struct Outer {
    inner: Option<Lenient>,
    qualified: std::option::Option<u8>,
}

#[derive(Serialize)]
struct Sparse {
    id: &'static str,
    #[serde(skip_serializing_if = "Option::is_none")]
    attempts: Option<u64>,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    tags: Vec<u8>,
    last: bool,
}

fn strict(json: &str) -> Result<Strict, String> {
    serde_json::from_str(json).map_err(|error| error.to_string())
}

#[test]
fn absent_and_null_members_read_as_their_defaults() {
    let defaults = Strict {
        id: "a".to_owned(),
        flag: false,
        count: 7,
        tags: Vec::new(),
        note: None,
    };
    assert_eq!(strict(r#"{"id": "a"}"#), Ok(defaults));
    let nulls = r#"{"id": "a", "flag": null, "count": null, "tags": null, "note": null}"#;
    assert_eq!(strict(nulls), strict(r#"{"id": "a"}"#));
    let set = r#"{"note": "n", "tags": ["x"], "count": 2, "flag": true, "id": "b"}"#;
    assert_eq!(
        strict(set),
        Ok(Strict {
            id: "b".to_owned(),
            flag: true,
            count: 2,
            tags: vec!["x".to_owned()],
            note: Some("n".to_owned()),
        })
    );
}

#[test]
fn a_missing_or_null_option_reads_as_none() {
    let outer: Outer = serde_json::from_str("{}").unwrap();
    assert_eq!(
        outer,
        Outer {
            inner: None,
            qualified: None
        }
    );
    let outer: Outer =
        serde_json::from_str(r#"{"inner": {"id": "i", "note": null}, "qualified": 3}"#).unwrap();
    assert_eq!(
        outer.inner,
        Some(Lenient {
            id: "i".to_owned(),
            note: None
        })
    );
    assert_eq!(outer.qualified, Some(3));
}

#[test]
fn a_missing_or_null_required_member_is_an_error_that_names_it() {
    for json in [r#"{}"#, r#"{"id": null}"#, r#"{"note": "n"}"#] {
        let error = strict(json).unwrap_err();
        assert_eq!(error, "missing field `id` in struct `Strict`", "{json}");
    }
    let error = serde_json::from_str::<Outer>(r#"{"inner": {}}"#).unwrap_err();
    assert!(error.to_string().contains("`id`"), "{error}");
    // A present member of the wrong type is the member decoder's error.
    assert!(strict(r#"{"id": 1}"#).is_err());
    assert!(strict(r#"{"id": "a", "count": -1}"#).is_err());
    assert!(strict("[]").is_err());
}

#[test]
fn a_member_name_with_escapes_matches_its_field() {
    assert_eq!(
        strict(r#"{"\u0069d": "a", "n\u006fte": "n", "\u0069dd": 1}"#).unwrap_err(),
        "unknown field `idd` in struct `Strict`"
    );
    let escaped = strict(r#"{"\u0069d": "a", "n\u006fte": "\"n\""}"#).unwrap();
    assert_eq!(
        (escaped.id.as_str(), escaped.note.as_deref()),
        ("a", Some("\"n\""))
    );
}

#[test]
fn deny_unknown_fields_refuses_unknown_and_repeated_members() {
    assert_eq!(
        strict(r#"{"id": "a", "idd": 1}"#).unwrap_err(),
        "unknown field `idd` in struct `Strict`"
    );
    assert_eq!(
        strict(r#"{"id": "a", "id": "b"}"#).unwrap_err(),
        "duplicate field `id` in struct `Strict`"
    );
    // A `null` first occurrence still leaves the repeat over.
    assert!(strict(r#"{"id": "a", "note": null, "note": "n"}"#).is_err());
}

#[test]
fn without_deny_unknown_fields_unknown_members_are_ignored() {
    let lenient: Lenient =
        serde_json::from_str(r#"{"extra": [1, {"x": null}], "id": "a", "id": "b"}"#).unwrap();
    assert_eq!(
        lenient,
        Lenient {
            id: "a".to_owned(),
            note: None
        },
        "unknown members are ignored and the first of a repeated member wins"
    );
    // The first occurrence wins wherever the repeat sits, and an ignored
    // repeat is parsed but never decoded as the field's type.
    for json in [
        r#"{"id": "a", "note": "x", "note": "y"}"#,
        r#"{"id": "a", "note": "x", "note": 5}"#,
    ] {
        let lenient: Lenient = serde_json::from_str(json).unwrap();
        assert_eq!(
            lenient,
            Lenient {
                id: "a".to_owned(),
                note: Some("x".to_owned())
            },
            "{json}"
        );
    }
}

#[test]
fn skip_serializing_if_drops_a_member_only_when_its_predicate_holds() {
    let bare = Sparse {
        id: "s",
        attempts: None,
        tags: Vec::new(),
        last: true,
    };
    assert_eq!(
        serde_json::to_string(&bare).unwrap(),
        r#"{"id":"s","last":true}"#
    );
    let full = Sparse {
        attempts: Some(3),
        tags: vec![1, 2],
        ..bare
    };
    assert_eq!(
        serde_json::to_string(&full).unwrap(),
        r#"{"id":"s","attempts":3,"tags":[1,2],"last":true}"#
    );
    assert_eq!(
        serde_json::to_string_pretty(&Sparse {
            attempts: Some(0),
            ..full
        })
        .unwrap(),
        "{\n  \"id\": \"s\",\n  \"attempts\": 0,\n  \"tags\": [\n    1,\n    2\n  ],\n  \"last\": true\n}"
    );
}
