//! Session logs: the observed variables of the paper's causal DAG.

use serde::{Deserialize, Serialize};
use veritas_net::TcpInfo;

/// Everything recorded about one chunk download.
///
/// The fields mirror the paper's observed variables (Figure 3, shaded): the
/// chunk size `S_n`, its download start/end times (`s_n`, `e_n`), the
/// download time `D_n` and derived throughput `Y_n`, the buffer at the start
/// of the download `B_{s_n}`, and the TCP state `W_{s_n}`.
///
/// `gtbw_at_request_mbps` is the *ground truth* bandwidth at the request
/// instant. It is carried in the log only so oracle baselines and evaluation
/// code can score inferences; Veritas itself never reads it (the abduction
/// API takes the observation-only view).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkRecord {
    /// Chunk index within the video, starting at 0.
    pub index: usize,
    /// Quality rung chosen by the ABR.
    pub quality: usize,
    /// Encoded size in bytes.
    pub size_bytes: f64,
    /// SSIM of the chunk at the chosen quality.
    pub ssim: f64,
    /// Idle time between the previous download finishing and this request
    /// being issued (the "off period"), in seconds.
    pub wait_before_request_s: f64,
    /// Absolute time the request was issued / download started, in seconds.
    pub start_time_s: f64,
    /// Absolute time the download finished, in seconds.
    pub end_time_s: f64,
    /// Download duration in seconds.
    pub download_time_s: f64,
    /// Observed application-level throughput in Mbps.
    pub throughput_mbps: f64,
    /// Playback buffer level when the request was issued, in seconds.
    pub buffer_at_request_s: f64,
    /// Stall time incurred while this chunk was downloading, in seconds.
    pub rebuffer_s: f64,
    /// TCP state at the start of the download (the control variables).
    pub tcp_info: TcpInfo,
    /// Ground-truth bandwidth at the request instant (oracle-only field).
    pub gtbw_at_request_mbps: f64,
}

/// The complete log of one emulated streaming session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionLog {
    /// Name of the ABR algorithm that produced the session.
    pub abr_name: String,
    /// Buffer capacity the player ran with, in seconds.
    pub buffer_capacity_s: f64,
    /// Playback duration of one chunk, in seconds.
    pub chunk_duration_s: f64,
    /// Per-chunk records in download order.
    pub records: Vec<ChunkRecord>,
    /// Time from session start until playback began, in seconds.
    pub startup_delay_s: f64,
    /// Total stall time after playback began, in seconds.
    pub total_rebuffer_s: f64,
    /// Wall-clock time from session start until the last chunk finished
    /// playing, in seconds.
    pub session_duration_s: f64,
}

/// Summary quality-of-experience metrics for a session — the quantities the
/// paper's counterfactual figures report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeSummary {
    /// Mean SSIM across downloaded chunks.
    pub mean_ssim: f64,
    /// Rebuffering ratio as a percentage of the session duration.
    pub rebuffer_ratio_percent: f64,
    /// Average bitrate of downloaded chunks in Mbps.
    pub avg_bitrate_mbps: f64,
    /// Startup delay in seconds.
    pub startup_delay_s: f64,
    /// Number of chunks downloaded.
    pub chunks: usize,
}

impl SessionLog {
    /// Summary QoE metrics of this session.
    pub fn qoe(&self) -> QoeSummary {
        let n = self.records.len().max(1) as f64;
        let mean_ssim = self.records.iter().map(|r| r.ssim).sum::<f64>() / n;
        let avg_bitrate = self
            .records
            .iter()
            .map(|r| r.size_bytes * 8.0 / 1e6 / self.chunk_duration_s)
            .sum::<f64>()
            / n;
        QoeSummary {
            mean_ssim,
            rebuffer_ratio_percent: self.rebuffer_ratio_percent(),
            avg_bitrate_mbps: avg_bitrate,
            startup_delay_s: self.startup_delay_s,
            chunks: self.records.len(),
        }
    }

    /// Total stall time divided by session duration, as a percentage.
    pub fn rebuffer_ratio_percent(&self) -> f64 {
        if self.session_duration_s <= 0.0 {
            return 0.0;
        }
        100.0 * self.total_rebuffer_s / self.session_duration_s
    }

    /// The log of the first `len` chunks: those records and the
    /// session-level fields as they are. Only the kept records are copied.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the record count.
    pub fn prefix(&self, len: usize) -> SessionLog {
        SessionLog {
            abr_name: self.abr_name.clone(),
            buffer_capacity_s: self.buffer_capacity_s,
            chunk_duration_s: self.chunk_duration_s,
            records: self.records[..len].to_vec(),
            startup_delay_s: self.startup_delay_s,
            total_rebuffer_s: self.total_rebuffer_s,
            session_duration_s: self.session_duration_s,
        }
    }

    /// Observed throughput sequence, one value per chunk (Mbps).
    pub fn observed_throughputs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.throughput_mbps).collect()
    }

    /// Download time sequence, one value per chunk (seconds).
    pub fn download_times(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.download_time_s).collect()
    }

    /// Chunk size sequence in bytes.
    pub fn chunk_sizes(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.size_bytes).collect()
    }

    /// The ground-truth bandwidth at each request instant (oracle use only).
    pub fn ground_truth_bandwidths(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.gtbw_at_request_mbps)
            .collect()
    }

    /// A copy of the log with the ground-truth field zeroed out — the
    /// observation-only view handed to inference code in tests that want to
    /// enforce the "Veritas never sees GTBW" discipline explicitly.
    pub fn without_ground_truth(&self) -> SessionLog {
        let mut log = self.clone();
        for r in &mut log.records {
            r.gtbw_at_request_mbps = f64::NAN;
        }
        log
    }

    /// Serializes the log to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("session log serialization cannot fail")
    }

    /// Parses a log from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Basic internal consistency checks; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end = 0.0_f64;
        for (i, r) in self.records.iter().enumerate() {
            if r.end_time_s + 1e-9 < r.start_time_s {
                return Err(format!("chunk {i}: end before start"));
            }
            if (r.end_time_s - r.start_time_s - r.download_time_s).abs() > 1e-6 {
                return Err(format!(
                    "chunk {i}: download time inconsistent with timestamps"
                ));
            }
            if r.start_time_s + 1e-9 < prev_end {
                return Err(format!("chunk {i}: downloads overlap"));
            }
            if r.buffer_at_request_s < -1e-9 {
                return Err(format!("chunk {i}: negative buffer"));
            }
            if r.rebuffer_s < -1e-9 {
                return Err(format!("chunk {i}: negative rebuffer"));
            }
            if r.throughput_mbps < 0.0 {
                return Err(format!("chunk {i}: negative throughput"));
            }
            prev_end = r.end_time_s;
        }
        if self.total_rebuffer_s < -1e-9 {
            return Err("negative total rebuffer".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veritas_net::TcpInfo;

    fn record(index: usize, start: f64, dt: f64) -> ChunkRecord {
        ChunkRecord {
            index,
            quality: 2,
            size_bytes: 500_000.0,
            ssim: 0.97,
            wait_before_request_s: 0.0,
            start_time_s: start,
            end_time_s: start + dt,
            download_time_s: dt,
            throughput_mbps: 500_000.0 * 8.0 / 1e6 / dt,
            buffer_at_request_s: 2.0,
            rebuffer_s: 0.0,
            tcp_info: TcpInfo::fresh(0.08),
            gtbw_at_request_mbps: 4.0,
        }
    }

    fn log() -> SessionLog {
        SessionLog {
            abr_name: "MPC".to_string(),
            buffer_capacity_s: 5.0,
            chunk_duration_s: 2.0,
            records: vec![
                record(0, 0.0, 1.0),
                record(1, 1.0, 2.0),
                record(2, 3.5, 0.5),
            ],
            startup_delay_s: 1.0,
            total_rebuffer_s: 0.5,
            session_duration_s: 10.0,
        }
    }

    #[test]
    fn qoe_summary_aggregates_records() {
        let q = log().qoe();
        assert_eq!(q.chunks, 3);
        assert!((q.mean_ssim - 0.97).abs() < 1e-12);
        assert!((q.avg_bitrate_mbps - 2.0).abs() < 1e-12);
        assert!((q.rebuffer_ratio_percent - 5.0).abs() < 1e-12);
        assert_eq!(q.startup_delay_s, 1.0);
    }

    #[test]
    fn rebuffer_ratio_handles_zero_duration() {
        let mut l = log();
        l.session_duration_s = 0.0;
        assert_eq!(l.rebuffer_ratio_percent(), 0.0);
    }

    #[test]
    fn accessors_extract_sequences() {
        let l = log();
        assert_eq!(l.observed_throughputs().len(), 3);
        assert_eq!(l.download_times(), vec![1.0, 2.0, 0.5]);
        assert_eq!(l.chunk_sizes(), vec![500_000.0; 3]);
        assert_eq!(l.ground_truth_bandwidths(), vec![4.0; 3]);
    }

    #[test]
    fn prefix_keeps_the_first_records_and_the_session_fields() {
        let full = log();
        assert_eq!(
            full.prefix(2),
            SessionLog {
                records: full.records[..2].to_vec(),
                ..full.clone()
            }
        );
        assert_eq!(full.prefix(3), full);
        assert!(full.prefix(0).records.is_empty());
    }

    #[test]
    fn ground_truth_can_be_stripped() {
        let stripped = log().without_ground_truth();
        assert!(stripped
            .records
            .iter()
            .all(|r| r.gtbw_at_request_mbps.is_nan()));
        // Observations are untouched.
        assert_eq!(stripped.download_times(), log().download_times());
    }

    #[test]
    fn json_round_trip() {
        let l = log();
        let back = SessionLog::from_json(&l.to_json()).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn invariants_pass_for_well_formed_log() {
        assert!(log().check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_overlapping_downloads() {
        let mut l = log();
        l.records[1].start_time_s = 0.5;
        l.records[1].end_time_s = 0.5 + l.records[1].download_time_s;
        assert!(l.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_inconsistent_download_time() {
        let mut l = log();
        l.records[2].download_time_s = 99.0;
        assert!(l.check_invariants().is_err());
    }
}
