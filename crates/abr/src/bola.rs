//! BOLA — Lyapunov-based bitrate adaptation (Spiteri et al., INFOCOM 2016),
//! in the BOLA-BASIC form used by the Puffer deployment the paper cites.

use serde::{Deserialize, Serialize};

use crate::context::{clamp_quality, AbrContext};
use crate::Abr;

/// BOLA-BASIC.
///
/// Each rung gets a logarithmic utility `v_m = ln(S_m / S_min)` and the
/// controller maximizes `(V · (v_m + gp) − Q) / S_m`, where `Q` is the buffer
/// level in chunks and the control parameters `V`, `gp` are derived from two
/// buffer thresholds: well below `min_buffer_chunks` the lowest rung wins,
/// and from `max_buffer_chunks` upward the highest rung wins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BolaBasic {
    /// Buffer level (in chunks) below which the lowest quality is selected;
    /// `None` derives it from the buffer capacity at decision time.
    pub min_buffer_chunks: Option<f64>,
    /// Buffer level (in chunks) at which the highest quality is selected;
    /// `None` derives it from the buffer capacity at decision time.
    pub max_buffer_chunks: Option<f64>,
}

impl BolaBasic {
    /// BOLA-BASIC with thresholds derived from the player's buffer capacity
    /// at decision time (lowest rung below ~20% occupancy, highest at ~90%).
    pub fn new() -> Self {
        Self {
            min_buffer_chunks: None,
            max_buffer_chunks: None,
        }
    }

    /// Explicit thresholds in chunks.
    pub fn with_thresholds(min_buffer_chunks: f64, max_buffer_chunks: f64) -> Self {
        assert!(min_buffer_chunks > 0.0 && max_buffer_chunks > min_buffer_chunks);
        Self {
            min_buffer_chunks: Some(min_buffer_chunks),
            max_buffer_chunks: Some(max_buffer_chunks),
        }
    }

    fn thresholds(&self, ctx: &AbrContext) -> (f64, f64) {
        let capacity_chunks = ctx.buffer_capacity_s / ctx.asset.chunk_duration_s();
        let min_b = self
            .min_buffer_chunks
            .unwrap_or((0.2 * capacity_chunks).max(0.5));
        let max_b = self
            .max_buffer_chunks
            .unwrap_or((0.9 * capacity_chunks).max(min_b + 0.5));
        (min_b, max_b.max(min_b + 1e-6))
    }
}

impl Default for BolaBasic {
    fn default() -> Self {
        Self::new()
    }
}

impl Abr for BolaBasic {
    fn name(&self) -> &'static str {
        "BOLA"
    }

    fn choose(&mut self, ctx: &AbrContext) -> usize {
        let asset = ctx.asset;
        let chunk = ctx.next_chunk.min(asset.num_chunks() - 1);
        let num_q = ctx.num_qualities();
        if num_q == 1 {
            return 0;
        }
        let sizes: Vec<f64> = (0..num_q).map(|q| asset.size_bytes(chunk, q)).collect();
        let s_min = sizes[0].max(1.0);
        let utilities: Vec<f64> = sizes.iter().map(|&s| (s / s_min).ln()).collect();
        let v_max = *utilities
            .last()
            .expect("ladder has at least two rungs here");

        let (min_buf, max_buf) = self.thresholds(ctx);
        // Solve for V and gp such that:
        //   objective crosses zero for the lowest rung at Q = min_buf
        //     (so below min_buf even the lowest rung is "not worth it" and,
        //      being the least negative score, it still wins)
        //   highest rung overtakes everything at Q = max_buf.
        // Following Puffer's BOLA-BASIC derivation:
        //   gp = (v_max · min_buf) / (max_buf − min_buf)
        //   V  = max_buf / (v_max + gp)
        let gp = (v_max * min_buf) / (max_buf - min_buf);
        let v = max_buf / (v_max + gp);

        let buffer_chunks = ctx.buffer_s / asset.chunk_duration_s();
        let mut best_q = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for q in 0..num_q {
            let score = (v * (utilities[q] + gp) - buffer_chunks) / sizes[q];
            if score > best_score {
                best_score = score;
                best_q = q;
            }
        }
        clamp_quality(best_q, num_q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veritas_media::VideoAsset;

    fn ctx(asset: &VideoAsset, buffer_s: f64, capacity_s: f64) -> AbrContext<'_> {
        AbrContext {
            asset,
            next_chunk: 15,
            buffer_s,
            buffer_capacity_s: capacity_s,
            throughput_history_mbps: &[],
            download_time_history_s: &[],
            last_quality: None,
        }
    }

    #[test]
    fn low_buffer_selects_low_quality() {
        let asset = VideoAsset::paper_default(1);
        let mut bola = BolaBasic::new();
        assert_eq!(bola.choose(&ctx(&asset, 0.0, 5.0)), 0);
        assert_eq!(bola.choose(&ctx(&asset, 0.4, 5.0)), 0);
    }

    #[test]
    fn high_buffer_selects_high_quality() {
        let asset = VideoAsset::paper_default(1);
        let mut bola = BolaBasic::new();
        let q = bola.choose(&ctx(&asset, 4.9, 5.0));
        assert!(q >= asset.num_qualities() - 2, "got rung {q}");
        let q30 = bola.choose(&ctx(&asset, 29.0, 30.0));
        assert!(q30 >= asset.num_qualities() - 2);
    }

    #[test]
    fn quality_is_weakly_monotone_in_buffer() {
        let asset = VideoAsset::paper_default(1);
        let mut bola = BolaBasic::new();
        let mut prev = 0usize;
        for i in 0..=25 {
            let buffer = i as f64 * 0.2;
            let q = bola.choose(&ctx(&asset, buffer, 5.0));
            assert!(
                q >= prev,
                "buffer {buffer}: quality dropped from {prev} to {q}"
            );
            prev = q;
        }
    }

    #[test]
    fn explicit_thresholds_are_respected() {
        let asset = VideoAsset::paper_default(1);
        let mut bola = BolaBasic::with_thresholds(1.0, 2.0);
        assert_eq!(
            bola.choose(&ctx(&asset, 0.6, 5.0)),
            0,
            "well below the min threshold the lowest rung must win"
        );
        let q = bola.choose(&ctx(&asset, 4.5, 5.0));
        assert!(
            q >= asset.num_qualities() - 2,
            "well above max threshold: rung {q}"
        );
        // Tighter thresholds make the policy more aggressive at the same
        // buffer level than looser ones.
        let mut loose = BolaBasic::with_thresholds(2.0, 14.0);
        assert!(bola.choose(&ctx(&asset, 3.0, 30.0)) >= loose.choose(&ctx(&asset, 3.0, 30.0)));
    }

    #[test]
    fn always_returns_valid_rung() {
        let asset = VideoAsset::paper_default(2);
        let mut bola = BolaBasic::new();
        for chunk in [0usize, 50, 299] {
            for buffer in [0.0, 1.0, 2.5, 5.0, 20.0] {
                let c = AbrContext {
                    asset: &asset,
                    next_chunk: chunk,
                    buffer_s: buffer,
                    buffer_capacity_s: 5.0,
                    throughput_history_mbps: &[],
                    download_time_history_s: &[],
                    last_quality: None,
                };
                assert!(bola.choose(&c) < asset.num_qualities());
            }
        }
    }

    #[test]
    fn capacity_derived_thresholds_compare_equal() {
        assert_eq!(BolaBasic::new(), BolaBasic::new());
        assert_ne!(BolaBasic::new(), BolaBasic::with_thresholds(2.0, 14.0));
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_thresholds() {
        let _ = BolaBasic::with_thresholds(3.0, 1.0);
    }
}
