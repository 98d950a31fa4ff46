//! Parsing a next-chunk request's query set allocates only what the set
//! holds, counted with the serde_json shim's thread-local counting
//! allocator.

#[path = "../../../shims/serde_json/tests/counting/mod.rs"]
mod counting;

use veritas::VeritasConfig;
use veritas_engine::{Corpus, Query, QuerySet, SyntheticSpec};

/// The compact JSON of the six-query set a next-chunk request carries:
/// the logged chunk 60 of session 0 and every ladder rung in its place,
/// as the `wire/nextchunk_queryset_parse` bench builds it.
fn nextchunk_json() -> String {
    let corpus = SyntheticSpec {
        sessions: 1,
        ..SyntheticSpec::default()
    }
    .build();
    let (session, chunk) = (0, 60);
    let query = |id: &str| {
        Query::interventional(id)
            .with_sessions(vec![session])
            .with_chunk_index(chunk)
    };
    let asset = corpus.asset();
    let set = (0..asset.num_qualities()).fold(
        QuerySet::new("nextchunk", VeritasConfig::paper_default()).with_query(query("logged")),
        |set, rung| {
            set.with_query(
                query(&format!("rung-{rung}")).with_candidate_size(asset.size_bytes(chunk, rung)),
            )
        },
    );
    assert_eq!(set.queries.len(), 6);
    serde_json::to_string(&set).unwrap()
}

#[test]
fn a_next_chunk_query_set_parses_with_fifteen_allocations() {
    let json = nextchunk_json();
    let (set, allocations) = counting::counting(|| QuerySet::from_json(&json));
    assert_eq!(set.unwrap().queries.len(), 6);
    assert_eq!(
        allocations, 15,
        "the set's name, two growths of its query vector, and each query's id and session \
         vector; kind names, member names and numbers allocate nothing"
    );
}
