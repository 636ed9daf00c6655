//! Per-flow and per-application measurement.
//!
//! The lab experiments measure **long-term average throughput** and the
//! **retransmitted-byte fraction** per application (the experimental
//! unit), excluding a warm-up period. Counters accumulate over the whole
//! run; a snapshot at the end of warm-up lets the harness compute
//! measurement-window deltas.

use crate::config::CcKind;
use crate::packet::{AppId, FlowId};

/// Raw counters accumulated by one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowCounters {
    /// Segments transmitted (including retransmissions).
    pub segs_sent: u64,
    /// Retransmitted segments.
    pub segs_retx: u64,
    /// Segments cumulatively acknowledged (unique deliveries).
    pub segs_delivered: u64,
    /// Fast-retransmit loss events (once per window).
    pub loss_events: u64,
    /// Retransmission timeouts.
    pub rtos: u64,
    /// Packets dropped at the bottleneck belonging to this flow.
    pub drops: u64,
    /// Sum of RTT samples (seconds) since the window started.
    pub rtt_sum_s: f64,
    /// Number of RTT samples since the window started.
    pub rtt_samples: u64,
    /// Minimum RTT sample (seconds) since the window started.
    pub rtt_min_s: f64,
}

impl Default for FlowCounters {
    fn default() -> Self {
        FlowCounters {
            segs_sent: 0,
            segs_retx: 0,
            segs_delivered: 0,
            loss_events: 0,
            rtos: 0,
            drops: 0,
            rtt_sum_s: 0.0,
            rtt_samples: 0,
            rtt_min_s: f64::INFINITY,
        }
    }
}

impl FlowCounters {
    /// Record an RTT sample.
    pub(crate) fn record_rtt(&mut self, rtt_s: f64) {
        self.rtt_sum_s += rtt_s;
        self.rtt_samples += 1;
        if rtt_s < self.rtt_min_s {
            self.rtt_min_s = rtt_s;
        }
    }

    /// Reset the RTT window statistics (done at the warm-up snapshot so
    /// min/mean RTT describe only the measurement window).
    pub(crate) fn reset_rtt_window(&mut self) {
        self.rtt_sum_s = 0.0;
        self.rtt_samples = 0;
        self.rtt_min_s = f64::INFINITY;
    }
}

/// Final per-flow metrics over the measurement window.
#[derive(Debug, Clone)]
pub struct FlowMetrics {
    /// Flow identifier.
    pub flow: FlowId,
    /// Owning application.
    pub app: AppId,
    /// Goodput in bits/s (unique delivered bytes over the window).
    pub throughput_bps: f64,
    /// Bytes sent (including retransmissions).
    pub sent_bytes: u64,
    /// Bytes retransmitted.
    pub retx_bytes: u64,
    /// Retransmitted fraction of sent bytes (the paper's "% retransmits").
    pub retx_fraction: f64,
    /// Mean RTT over the window in seconds (NaN if no samples).
    pub mean_rtt_s: f64,
    /// Minimum RTT over the window in seconds (NaN if no samples).
    pub min_rtt_s: f64,
    /// Fast-retransmit loss events in the window.
    pub loss_events: u64,
    /// Timeouts in the window.
    pub rtos: u64,
    /// Bottleneck drops attributed to this flow in the window.
    pub drops: u64,
}

impl FlowMetrics {
    /// Compute window metrics from a start snapshot and final counters.
    pub(crate) fn from_window(
        flow: FlowId,
        app: AppId,
        start: &FlowCounters,
        end: &FlowCounters,
        mss_bytes: u32,
        window_secs: f64,
    ) -> FlowMetrics {
        let delivered = end.segs_delivered - start.segs_delivered;
        let sent = end.segs_sent - start.segs_sent;
        let retx = end.segs_retx - start.segs_retx;
        let mss = mss_bytes as u64;
        FlowMetrics {
            flow,
            app,
            throughput_bps: delivered as f64 * mss as f64 * 8.0 / window_secs,
            sent_bytes: sent * mss,
            retx_bytes: retx * mss,
            retx_fraction: if sent == 0 {
                0.0
            } else {
                retx as f64 / sent as f64
            },
            mean_rtt_s: if end.rtt_samples == 0 {
                f64::NAN
            } else {
                end.rtt_sum_s / end.rtt_samples as f64
            },
            min_rtt_s: if end.rtt_min_s.is_finite() {
                end.rtt_min_s
            } else {
                f64::NAN
            },
            loss_events: end.loss_events - start.loss_events,
            rtos: end.rtos - start.rtos,
            drops: end.drops - start.drops,
        }
    }
}

/// Metrics aggregated to the application (the unit of the experiments).
#[derive(Debug, Clone)]
pub struct AppMetrics {
    /// Application identifier.
    pub app: AppId,
    /// Number of connections the application used.
    pub connections: usize,
    /// Congestion control its connections ran.
    pub cc: CcKind,
    /// Whether its connections paced.
    pub paced: bool,
    /// Total goodput across its connections, bits/s.
    pub throughput_bps: f64,
    /// Retransmitted fraction of bytes across its connections.
    pub retx_fraction: f64,
    /// Mean RTT across its connections' samples (seconds).
    pub mean_rtt_s: f64,
    /// Minimum RTT across its connections (seconds).
    pub min_rtt_s: f64,
    /// Per-flow breakdown.
    pub flows: Vec<FlowMetrics>,
}

impl AppMetrics {
    /// Aggregate the flows belonging to one application.
    pub(crate) fn aggregate(
        app: AppId,
        cfg: &crate::config::AppConfig,
        flows: Vec<FlowMetrics>,
    ) -> AppMetrics {
        let throughput = flows.iter().map(|f| f.throughput_bps).sum();
        let sent: u64 = flows.iter().map(|f| f.sent_bytes).sum();
        let retx: u64 = flows.iter().map(|f| f.retx_bytes).sum();
        let rtt_pairs: Vec<(f64, f64)> = flows
            .iter()
            .filter(|f| f.mean_rtt_s.is_finite())
            .map(|f| (f.mean_rtt_s, 1.0))
            .collect();
        let mean_rtt = if rtt_pairs.is_empty() {
            f64::NAN
        } else {
            rtt_pairs.iter().map(|(m, _)| m).sum::<f64>() / rtt_pairs.len() as f64
        };
        let min_rtt = flows
            .iter()
            .map(|f| f.min_rtt_s)
            .filter(|m| m.is_finite())
            .fold(f64::INFINITY, f64::min);
        AppMetrics {
            app,
            connections: cfg.connections,
            cc: cfg.cc,
            paced: cfg.paced,
            throughput_bps: throughput,
            retx_fraction: if sent == 0 {
                0.0
            } else {
                retx as f64 / sent as f64
            },
            mean_rtt_s: mean_rtt,
            min_rtt_s: if min_rtt.is_finite() {
                min_rtt
            } else {
                f64::NAN
            },
            flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppConfig;

    fn counters(sent: u64, retx: u64, delivered: u64) -> FlowCounters {
        FlowCounters {
            segs_sent: sent,
            segs_retx: retx,
            segs_delivered: delivered,
            ..Default::default()
        }
    }

    #[test]
    fn window_delta_math() {
        let start = counters(100, 10, 90);
        let mut end = counters(300, 30, 260);
        end.record_rtt(0.02);
        end.record_rtt(0.04);
        let m = FlowMetrics::from_window(FlowId(0), AppId(0), &start, &end, 1500, 10.0);
        // Delivered delta 170 segs * 1500 B * 8 / 10 s.
        assert!((m.throughput_bps - 170.0 * 1500.0 * 8.0 / 10.0).abs() < 1e-9);
        assert_eq!(m.sent_bytes, 200 * 1500);
        assert_eq!(m.retx_bytes, 20 * 1500);
        assert!((m.retx_fraction - 0.1).abs() < 1e-12);
        assert!((m.mean_rtt_s - 0.03).abs() < 1e-12);
        assert!((m.min_rtt_s - 0.02).abs() < 1e-12);
    }

    #[test]
    fn rtt_window_reset() {
        let mut c = FlowCounters::default();
        c.record_rtt(0.5);
        c.reset_rtt_window();
        assert_eq!(c.rtt_samples, 0);
        assert!(c.rtt_min_s.is_infinite());
        c.record_rtt(0.1);
        assert_eq!(c.rtt_min_s, 0.1);
    }

    #[test]
    fn zero_sends_give_zero_retx_fraction() {
        let m = FlowMetrics::from_window(
            FlowId(0),
            AppId(0),
            &FlowCounters::default(),
            &FlowCounters::default(),
            1500,
            10.0,
        );
        assert_eq!(m.retx_fraction, 0.0);
        assert!(m.mean_rtt_s.is_nan());
    }

    #[test]
    fn app_aggregation_sums_throughput() {
        let mk = |tput: f64, sent: u64, retx: u64| FlowMetrics {
            flow: FlowId(0),
            app: AppId(0),
            throughput_bps: tput,
            sent_bytes: sent,
            retx_bytes: retx,
            retx_fraction: 0.0,
            mean_rtt_s: 0.02,
            min_rtt_s: 0.01,
            loss_events: 0,
            rtos: 0,
            drops: 0,
        };
        let cfg = AppConfig {
            connections: 2,
            cc: CcKind::Reno,
            paced: false,
        };
        let m = AppMetrics::aggregate(AppId(0), &cfg, vec![mk(1e6, 1000, 100), mk(2e6, 1000, 0)]);
        assert!((m.throughput_bps - 3e6).abs() < 1e-9);
        assert!((m.retx_fraction - 0.05).abs() < 1e-12);
        assert_eq!(m.connections, 2);
    }
}
