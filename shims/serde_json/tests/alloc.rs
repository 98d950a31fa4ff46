//! A parse allocates only what it returns: counted with a global
//! allocator that counts only on the thread that asks it to.

use serde::Deserialize;

mod counting;

use counting::counting;

fn seven() -> u32 {
    7
}

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

#[test]
fn a_struct_parse_allocates_only_the_strings_and_vector_it_returns() {
    let json = r#"{"id": "a", "flag": true, "count": 2, "tags": ["x", "y"], "note": null}"#;
    let (strict, allocations) = counting(|| serde_json::from_str::<Strict>(json));
    assert_eq!(
        strict.unwrap(),
        Strict {
            id: "a".to_owned(),
            flag: true,
            count: 2,
            tags: vec!["x".to_owned(), "y".to_owned()],
            note: None,
        }
    );
    assert_eq!(
        allocations, 4,
        "`id`, the `tags` vector, `\"x\"` and `\"y\"`; member names, numbers and `null` allocate nothing"
    );
}
