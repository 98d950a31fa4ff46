//! A parse allocates only what it returns: counted with a global
//! allocator that counts only on the thread that asks it to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serde::Deserialize;

/// The system allocator, counting allocations on threads that turned
/// counting on.
struct Counting;

thread_local! {
    /// Allocations so far on this thread, or `None` while not counting.
    /// A `const` initialiser needs no allocation and no destructor, so the
    /// allocator may read it.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to `System`; counting only
// touches a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let value = f();
    let allocations = ALLOCATIONS.with(|count| count.replace(None));
    (value, allocations.expect("counting was on"))
}

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
