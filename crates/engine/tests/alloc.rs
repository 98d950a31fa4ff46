//! What a next-chunk request allocates, counted with the serde_json
//! shim's thread-local counting allocator: parsing its query set
//! allocates only what the set holds, and answering it leaves only the
//! prefix posterior's cache entry behind.

#[path = "../../../shims/serde_json/tests/counting/mod.rs"]
mod counting;

use std::sync::Arc;

use veritas::VeritasConfig;
use veritas_engine::{Corpus, Engine, Query, QuerySet, SessionCorpus, SyntheticSpec};

/// The six-query set a next-chunk request carries: the logged chunk
/// `chunk` of session 0 and every ladder rung in its place, as the
/// `wire/nextchunk_queryset_parse` bench builds it at chunk 60.
fn nextchunk_set(corpus: &dyn Corpus, chunk: usize) -> QuerySet {
    let query = |id: &str| {
        Query::interventional(id)
            .with_sessions(vec![0])
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
    set
}

/// One synthetic session with the default spec.
fn one_session() -> SessionCorpus {
    SyntheticSpec {
        sessions: 1,
        ..SyntheticSpec::default()
    }
    .build()
}

/// The compact JSON of the six-query set at chunk 60.
fn nextchunk_json() -> String {
    serde_json::to_string(&nextchunk_set(&one_session(), 60)).unwrap()
}

#[test]
fn a_next_chunk_query_set_parses_with_fifteen_allocations() {
    let json = nextchunk_json();
    let (set, tally) = counting::counting(|| QuerySet::from_json(&json));
    assert_eq!(set.unwrap().queries.len(), 6);
    assert_eq!(
        tally.allocations, 15,
        "the set's name, two growths of its query vector, and each query's id and session \
         vector; kind names, member names and numbers allocate nothing"
    );
}

/// A next-chunk request whose prefix is new to the engine leaves one
/// cache entry behind: the prefix posterior's Viterbi decode, interval
/// layout and row recipe (the shared throughput table's `Arc`, 60
/// observed throughputs and σ), its slot and its key: 1,945 bytes. It
/// keeps neither the 60 × 21 emission rows (about 11.5 KB; an entry that
/// kept them left 13,225 bytes) nor a copy of the prefix.
///
/// The session is touched first, at its deepest decision point, as the
/// `nextchunk_serve` benchmark touches every session: that builds the
/// session's throughput table and workspace kernels and leaves one entry
/// in the cache's slot map, whose first table holds three, so the
/// measured request's entry resizes no map.
#[test]
fn a_next_chunk_miss_retains_its_decode_not_its_emission_rows() {
    let synthetic = one_session();
    let deepest = synthetic.sessions[0].log.records.len() - 1;
    let corpus: Arc<dyn Corpus> = Arc::new(synthetic);
    let engine = Engine::builder().threads(1).build().unwrap();
    let touch = engine.run(
        Arc::clone(&corpus),
        &nextchunk_set(corpus.as_ref(), deepest),
    );
    assert_eq!(touch.unwrap().summary.errors, 0);
    let set = nextchunk_set(corpus.as_ref(), 60);

    let (misses, tally) = counting::counting(|| {
        let report = engine.run(Arc::clone(&corpus), &set).unwrap();
        assert_eq!(report.summary.errors, 0);
        report.summary.cache_misses
    });
    assert_eq!(misses, 1, "the request infers its one new prefix");
    assert_eq!(engine.cache().entries(), 2);
    assert!(
        (0..=3072).contains(&tally.live_bytes),
        "a 60-chunk next-chunk miss left {} bytes live; its emission rows alone are about 12 KB",
        tally.live_bytes
    );
}
