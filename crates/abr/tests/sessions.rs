//! Whole-session pin of the MPC lookahead: `run_session` writes the same
//! log, byte for byte, whether MPC decides with its depth-first search or
//! with the plan-by-plan enumeration it replaced.

use veritas_abr::{clamp_quality, Abr, AbrContext, Mpc};
use veritas_media::{QualityLadder, VbrParams, VideoAsset};
use veritas_player::{run_session, PlayerConfig};
use veritas_trace::generators::{FccLike, TraceGenerator};

// The reference takes `clamp_quality`, `AbrContext` and `Mpc` from its
// parent module: here, the imports above.
#[path = "../src/reference.rs"]
mod reference;

/// MPC deciding with the reference enumeration instead of its own search.
struct EnumeratingMpc(Mpc);

impl Abr for EnumeratingMpc {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        reference::naive_choose(&self.0, ctx)
    }
}

#[test]
fn mpc_sessions_match_the_enumeration_byte_for_byte() {
    assert_sessions_match(Mpc::new());
}

#[test]
fn robust_mpc_sessions_match_the_enumeration_byte_for_byte() {
    assert_sessions_match(Mpc::robust());
}

/// Plays 20 FCC-like traces on both paper ladders with 5 s and 30 s
/// buffers, once per search, and compares the serialised logs.
fn assert_sessions_match(mpc: Mpc) {
    // 40 chunks keep the enumeration affordable in an unoptimised build.
    let default_ladder = VideoAsset::generate(
        QualityLadder::paper_default(),
        80.0,
        2.0,
        VbrParams::default(),
        3,
    );
    let higher_ladder = default_ladder.reencoded(QualityLadder::paper_higher_qualities());
    let traces = FccLike::new(3.0, 8.0).generate_batch(400.0, 100, 20);
    for (t, trace) in traces.iter().enumerate() {
        for asset in [&default_ladder, &higher_ladder] {
            for capacity in [5.0, 30.0] {
                let player = PlayerConfig::paper_default().with_buffer_capacity(capacity);
                let searched = run_session(asset, &mut { mpc }, trace, &player);
                let enumerated = run_session(asset, &mut EnumeratingMpc(mpc), trace, &player);
                let searched = serde_json::to_string(&searched).expect("serializes");
                let enumerated = serde_json::to_string(&enumerated).expect("serializes");
                assert!(
                    searched == enumerated,
                    "{}: trace {t}, ladder up to {} Mbps, {capacity} s buffer",
                    mpc.name(),
                    asset.ladder().bitrate(asset.num_qualities() - 1),
                );
            }
        }
    }
}
