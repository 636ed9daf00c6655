//! Per-session outcome records: the rows the experiment designs analyze.

/// Which link (cell) a session used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Link 1 (the 95%-treated cell in the main experiment).
    One,
    /// Link 2 (the 5%-treated cell).
    Two,
}

/// Everything measured about one completed (or cancelled) video session.
///
/// One record corresponds to one experimental unit; fields mirror the
/// metrics in the paper's Figure 5.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Link the session used.
    pub link: LinkId,
    /// Simulation day of arrival (0-based).
    pub day: usize,
    /// Local hour of day at arrival (0–23).
    pub hour: usize,
    /// Whether the arrival day is a weekend day (demand model calendar;
    /// switchback analyses difference this out, §5.3).
    pub weekend: bool,
    /// Arrival time in seconds since simulation start.
    pub arrival_s: f64,
    /// Whether the session was in the treatment (bitrate-capped) arm.
    pub treated: bool,
    /// Average download throughput while actively downloading, bits/s.
    pub throughput_bps: f64,
    /// Minimum RTT observed during the session, seconds.
    pub min_rtt_s: f64,
    /// Startup delay (time to first frame), seconds; NaN if cancelled.
    pub play_delay_s: f64,
    /// Time-weighted average video bitrate, bits/s.
    pub bitrate_bps: f64,
    /// Average perceptual quality (0–100).
    pub quality: f64,
    /// Number of rebuffer events.
    pub rebuffer_count: u32,
    /// Whether playback was ever interrupted.
    pub rebuffered: bool,
    /// Whether the user gave up before playback started.
    pub cancelled: bool,
    /// Payload bytes downloaded.
    pub bytes: f64,
    /// Retransmitted bytes (modeled).
    pub retx_bytes: f64,
    /// Bitrate switches during playback (stability: fewer is better).
    pub switches: u32,
    /// Total session wall time, seconds.
    pub duration_s: f64,
}

/// Bitwise equality: every field, floats by bit pattern, so NaN equals
/// NaN and `0.0` differs from `-0.0`. This is the "bit-identical" of the
/// determinism contracts (engine backends, worker counts, telemetry
/// replay): two records are equal exactly when no computation on them
/// can tell them apart.
impl PartialEq for SessionRecord {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so that a new field cannot be left out.
        let SessionRecord {
            link,
            day,
            hour,
            weekend,
            arrival_s,
            treated,
            throughput_bps,
            min_rtt_s,
            play_delay_s,
            bitrate_bps,
            quality,
            rebuffer_count,
            rebuffered,
            cancelled,
            bytes,
            retx_bytes,
            switches,
            duration_s,
        } = self;
        let same = |a: &f64, b: f64| a.to_bits() == b.to_bits();
        *link == other.link
            && *day == other.day
            && *hour == other.hour
            && *weekend == other.weekend
            && same(arrival_s, other.arrival_s)
            && *treated == other.treated
            && same(throughput_bps, other.throughput_bps)
            && same(min_rtt_s, other.min_rtt_s)
            && same(play_delay_s, other.play_delay_s)
            && same(bitrate_bps, other.bitrate_bps)
            && same(quality, other.quality)
            && *rebuffer_count == other.rebuffer_count
            && *rebuffered == other.rebuffered
            && *cancelled == other.cancelled
            && same(bytes, other.bytes)
            && same(retx_bytes, other.retx_bytes)
            && *switches == other.switches
            && same(duration_s, other.duration_s)
    }
}

impl Eq for SessionRecord {}

impl SessionRecord {
    /// Fraction of sent bytes that were retransmitted.
    pub fn retx_fraction(&self) -> f64 {
        let sent = self.bytes + self.retx_bytes;
        if sent <= 0.0 {
            0.0
        } else {
            self.retx_bytes / sent
        }
    }

    /// Total bytes put on the wire (payload + retransmissions).
    pub(crate) fn sent_bytes(&self) -> f64 {
        self.bytes + self.retx_bytes
    }

    /// 1.0 if the session saw at least one rebuffer, else 0.0 (the
    /// "sessions with rebuffers" metric).
    pub fn rebuffer_indicator(&self) -> f64 {
        if self.rebuffered {
            1.0
        } else {
            0.0
        }
    }

    /// 1.0 if the start was cancelled, else 0.0.
    pub fn cancelled_indicator(&self) -> f64 {
        if self.cancelled {
            1.0
        } else {
            0.0
        }
    }
}

/// The named metrics of the §4 analysis, used to index extractors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Average download throughput.
    Throughput,
    /// Minimum RTT.
    MinRtt,
    /// Startup play delay.
    PlayDelay,
    /// Average video bitrate.
    Bitrate,
    /// Perceptual quality.
    Quality,
    /// Sessions-with-rebuffers indicator.
    RebufferSessions,
    /// Cancelled-starts indicator.
    CancelledStarts,
    /// Percentage of sent bytes retransmitted.
    RetxFraction,
    /// Total bytes sent.
    BytesSent,
    /// Bitrate switches (stability).
    Switches,
}

impl Metric {
    /// All metrics in report order.
    pub const ALL: [Metric; 10] = [
        Metric::Throughput,
        Metric::MinRtt,
        Metric::PlayDelay,
        Metric::Bitrate,
        Metric::Quality,
        Metric::RebufferSessions,
        Metric::CancelledStarts,
        Metric::RetxFraction,
        Metric::BytesSent,
        Metric::Switches,
    ];

    /// Human-readable name matching the paper's labels.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Throughput => "avg throughput",
            Metric::MinRtt => "min RTT",
            Metric::PlayDelay => "play delay",
            Metric::Bitrate => "video bitrate",
            Metric::Quality => "perceptual quality",
            Metric::RebufferSessions => "sessions w/ rebuffers",
            Metric::CancelledStarts => "cancelled starts",
            Metric::RetxFraction => "% retransmitted bytes",
            Metric::BytesSent => "bytes sent",
            Metric::Switches => "bitrate switches",
        }
    }

    /// Extract this metric from a record. Cancelled sessions contribute
    /// only to metrics defined for them (NaN elsewhere; analysis filters).
    pub fn of(self, r: &SessionRecord) -> f64 {
        match self {
            Metric::Throughput => r.throughput_bps,
            Metric::MinRtt => r.min_rtt_s,
            Metric::PlayDelay => r.play_delay_s,
            Metric::Bitrate => r.bitrate_bps,
            Metric::Quality => r.quality,
            Metric::RebufferSessions => r.rebuffer_indicator(),
            Metric::CancelledStarts => r.cancelled_indicator(),
            Metric::RetxFraction => r.retx_fraction(),
            Metric::BytesSent => r.sent_bytes(),
            Metric::Switches => r.switches as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> SessionRecord {
        SessionRecord {
            link: LinkId::One,
            day: 0,
            hour: 20,
            weekend: false,
            arrival_s: 72_000.0,
            treated: true,
            throughput_bps: 5e6,
            min_rtt_s: 0.021,
            play_delay_s: 1.2,
            bitrate_bps: 1_750e3,
            quality: 66.0,
            rebuffer_count: 2,
            rebuffered: true,
            cancelled: false,
            bytes: 1e8,
            retx_bytes: 1e6,
            switches: 3,
            duration_s: 1800.0,
        }
    }

    #[test]
    fn retx_fraction_math() {
        let r = record();
        assert!((r.retx_fraction() - 1e6 / 101e6).abs() < 1e-12);
        assert_eq!(r.sent_bytes(), 101e6);
    }

    #[test]
    fn indicators() {
        let r = record();
        assert_eq!(r.rebuffer_indicator(), 1.0);
        assert_eq!(r.cancelled_indicator(), 0.0);
    }

    #[test]
    fn metric_extractors_cover_all() {
        let r = record();
        for m in Metric::ALL {
            let v = m.of(&r);
            assert!(v.is_finite(), "{:?}", m);
        }
        assert_eq!(Metric::Throughput.of(&r), 5e6);
        assert_eq!(Metric::Switches.of(&r), 3.0);
    }

    #[test]
    fn equality_is_bitwise() {
        let mut a = record();
        a.play_delay_s = f64::NAN;
        assert_eq!(a, a.clone(), "NaN equals NaN");
        let mut b = a.clone();
        b.bytes = a.bytes.next_up();
        assert_ne!(a, b);
        a.retx_bytes = 0.0;
        b = a.clone();
        b.retx_bytes = -0.0;
        assert_ne!(a, b, "0.0 differs from -0.0");
    }

    #[test]
    fn zero_bytes_zero_retx_fraction() {
        let mut r = record();
        r.bytes = 0.0;
        r.retx_bytes = 0.0;
        assert_eq!(r.retx_fraction(), 0.0);
    }
}
