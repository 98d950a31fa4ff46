//! Example: the declarative query engine end to end — compile, execute,
//! consume.
//!
//! Builds a [`QuerySet`] programmatically (the same structure `veritas run
//! queries.json` reads from disk), compiles it into a [`QueryPlan`],
//! executes it over a small synthetic corpus through the cached engine —
//! first as a blocking batch, then as a record stream — and shows the
//! compound query kinds: a configuration sweep and a trace-level
//! aggregation.
//!
//! ```sh
//! cargo run --release --example queries
//! ```

use std::sync::Arc;

use veritas::VeritasConfig;
use veritas_engine::{
    AggregateMetric, AggregateSpec, ConfigSweep, Engine, Query, QueryKind, QueryPlan, QuerySet,
    ScenarioSpec, SessionCorpus, AGGREGATE_SESSION,
};

fn main() {
    // 1. A declarative query set: every paper query family at once.
    //    Serialized, this is exactly the file format the `veritas` CLI
    //    executes (`veritas example-queries` prints a starter).
    let set = QuerySet::new("demo", VeritasConfig::paper_default().with_samples(3))
        .with_query(Query::abduction("posterior"))
        .with_query(Query::counterfactual(
            "what-if-bba",
            ScenarioSpec::abr("bba"),
        ))
        .with_query(Query::counterfactual(
            "what-if-30s-buffer",
            ScenarioSpec::buffer(30.0),
        ))
        .with_query(Query::interventional("next-chunk").with_candidate_size(2e6));
    println!("--- query file (queries.json) ---");
    println!("{}", set.to_json());

    // Query files round-trip losslessly.
    assert_eq!(QuerySet::from_json(&set.to_json()).unwrap(), set);

    // 2. A corpus: three deployed MPC sessions over hidden synthetic
    //    GTBW traces (use SessionCorpus::from_dir for recorded logs).
    //    The engine shares the corpus with its workers instead of copying it.
    let corpus = Arc::new(SessionCorpus::synthetic(3, 42));

    // 3. Compile. The plan is the flat unit list the executor drains:
    //    session selectors resolved, scenarios materialized once per
    //    distinct spec, config fingerprints precomputed.
    let plan = Arc::new(QueryPlan::compile(&set, corpus.as_ref()).expect("valid query set"));
    println!(
        "--- plan: {} units across {} queries, {} config(s) ---",
        plan.units().len(),
        set.queries.len(),
        plan.configs().len()
    );

    // 4. Execute + consume, batch-shaped: submit_shared(...).wait()
    //    restores deterministic order (Engine::run is exactly this
    //    wrapper). A distributed Coordinator returns the same RunHandle.
    let engine = Engine::new();
    let report = engine
        .submit_shared(corpus.clone(), plan)
        .expect("plan fits corpus")
        .wait();

    println!("--- results (JSONL, one line per unit) ---");
    print!("{}", report.to_jsonl());
    println!("--- summary ---");
    println!("{}", report.summary_json());

    let s = &report.summary;
    assert_eq!(s.errors, 0, "all units must succeed");
    assert_eq!(
        s.cache_misses as usize,
        corpus.len(),
        "one abduction per session"
    );
    assert_eq!(s.cache_hits, 3 * corpus.len() as u64);
    println!(
        "\n{} units over {} sessions: {} abductions computed, {} served from cache",
        s.units, s.sessions, s.cache_misses, s.cache_hits
    );

    // 5. Pull one structured answer back out: the BBA counterfactual
    //    ranges for the first session.
    let record = report.records_for("what-if-bba")[0];
    assert_eq!(record.kind, QueryKind::Counterfactual);
    let veritas = record.output.as_ref().unwrap().veritas.unwrap();
    println!(
        "what-if-bba on {}: SSIM in [{:.4}, {:.4}], rebuffer in [{:.2}%, {:.2}%]",
        record.session,
        veritas.ssim_low,
        veritas.ssim_high,
        veritas.rebuffer_low,
        veritas.rebuffer_high
    );

    // 6. The streaming path, with the compound query kinds: a sweep over
    //    the emission noise σ and a corpus-level QoE aggregation. The
    //    handle is an Iterator — records arrive in completion order, and
    //    the aggregation folds from the stream (only scalars are kept).
    let compound = QuerySet::new("compound", VeritasConfig::paper_default().with_samples(2))
        .with_query(Query::sweep(
            "noise-sweep",
            ConfigSweep::new().over_sigma(vec![0.25, 0.5, 1.0]),
        ))
        .with_query(Query::aggregate(
            "fleet-rebuffer",
            AggregateSpec::of(AggregateMetric::RebufferRatioPercent)
                .with_scenario(ScenarioSpec::abr("bba")),
        ));
    let plan =
        Arc::new(QueryPlan::compile(&compound, corpus.as_ref()).expect("valid compound set"));
    let mut handle = Engine::new()
        .submit_shared(corpus, plan)
        .expect("plan fits corpus");
    println!("\n--- streaming (completion order) ---");
    for record in &mut handle {
        match record.variant.as_deref() {
            Some(variant) => println!(
                "  [{}] {} on {}: mean capacity {:.2} Mbps",
                record.query_id,
                variant,
                record.session,
                record
                    .output
                    .as_ref()
                    .and_then(|o| o.mean_capacity_mbps)
                    .unwrap_or(f64::NAN)
            ),
            None if record.session == AGGREGATE_SESSION => {
                let agg = record.output.as_ref().unwrap().aggregate.unwrap();
                println!(
                    "  [{}] fleet fold over {} sessions: mean {:.2}%, p50 {:.2}%, p95 {:.2}%",
                    record.query_id, agg.sessions, agg.mean, agg.p50, agg.p95
                );
            }
            None => println!(
                "  [{}] {} contributes {:.3}",
                record.query_id,
                record.session,
                record
                    .output
                    .as_ref()
                    .and_then(|o| o.metric_value)
                    .unwrap_or(f64::NAN)
            ),
        }
    }
    let summary = handle.into_summary();
    assert_eq!(summary.errors, 0);
    // 3 sigma variants x 3 sessions + 3 aggregate units + 1 fold record.
    assert_eq!(summary.units, 13);
    println!(
        "compound set: {} records in {:.1} ms on {} threads",
        summary.units, summary.elapsed_ms, summary.threads
    );
}
