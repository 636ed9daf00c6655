//! Telemetry fault injection: what the collection pipeline does to a
//! link's session records *after* the simulation produced them.
//!
//! The paper's experiments run on a production CDN where telemetry is
//! lossy, and the loss is **not** independent of congestion: exactly the
//! sessions an experiment most affects — rebuffering, cancelled, starved
//! of throughput — are the ones most likely to report late, duplicated,
//! or not at all (Li–Johari–Kuang–Wager call this congestion-coupled
//! measurement). This module models that pipeline as a deterministic,
//! seeded transformation of a record stream:
//!
//! * **MCAR drop** ([`TelemetryFaults::drop_mcar`]): every record lost
//!   independently with fixed probability — the benign kind, which only
//!   shrinks sample sizes;
//! * **congestion-correlated (MNAR) drop**
//!   ([`TelemetryFaults::drop_congested`]): the drop probability scales
//!   with `congestion_severity` — rebuffers, cancellation, slow
//!   streaming rates — the malign kind, which skews *which* sessions are
//!   observed and biases estimates;
//! * **duplication**, **NaN field corruption**, **out-of-order
//!   delivery** within a bounded window, and a **mid-run outage** that
//!   loses every record in a wall-clock interval;
//! * a receiver that restores sequence order and discards duplicate
//!   copies, so downstream folds see a clean (if thinned) stream. Its
//!   output is fixed by construction — a reassembly buffer of `2W + 2`
//!   records never late-drops a record displaced by at most `W`, so it
//!   always hands back the survivors in emission order, each once — so
//!   `apply` emits exactly that. The wire order is still drawn and
//!   counted (see [`TelemetryStats::out_of_order`]).
//!
//! The fault stream is driven by its own RNG, derived from
//! [`TelemetryFaults::seed`] and the link index only — **independent of
//! the simulation RNG** — so the same physical world can be observed
//! through different fault processes and vice versa. Faults compose per
//! [`crate::fleet::FleetLinkJob`]; the per-arm accounting lands in
//! [`TelemetryStats`], which the analysis layer turns into data-quality
//! guardrails (sample-ratio-mismatch tests, missingness differentials).
//!
//! The packet-level counterpart of this module is the lab dumbbell's
//! drop-tail bottleneck (`netsim`), which drops *packets inside* the
//! simulated transport; this module drops *records about* sessions after
//! the fact. The first changes the world, the second only the
//! measurement of it.

use crate::session::SessionRecord;
use dessim::{require, ConfigError, SimRng};

/// Streaming rate below which a session starts to look congested to the
/// severity model (see [`congestion_severity`]). Compared against the
/// *lower* of the delivered video bitrate and the network download
/// throughput: a bitrate-capped session streams slowly even when its
/// chunks download fast, and a congested session downloads slowly no
/// matter what rung it requests.
pub(crate) const SLOW_RATE_BPS: f64 = 3.0e6;

/// A wall-clock interval during which the link's telemetry path is down:
/// every record whose session *arrived* inside it is lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Outage start, seconds since simulation start.
    pub start_s: f64,
    /// Outage end, seconds since simulation start.
    pub end_s: f64,
}

impl OutageWindow {
    fn contains(&self, t: f64) -> bool {
        self.start_s <= t && t < self.end_s
    }
}

/// How congested a session's experience was, in `[0, 1]` — the knob the
/// MNAR drop scales with.
///
/// Cancelled starts score 1.0 (the user gave up; the beacon very likely
/// never flushed), rebuffering sessions score 0.6 plus 0.1 per rebuffer
/// (capped at 1.0), and otherwise the score rises linearly as the
/// streaming rate falls below [`SLOW_RATE_BPS`]. Note the slow-rate term
/// couples the drop to the *treatment itself* in a bitrate-capping
/// experiment: capped sessions stream at lower rates, so their reports
/// are preferentially lost — the mechanism that skews arm ratios.
pub(crate) fn congestion_severity(r: &SessionRecord) -> f64 {
    if r.cancelled {
        return 1.0;
    }
    let rebuffer = if r.rebuffered {
        (0.6 + 0.1 * f64::from(r.rebuffer_count.min(4))).min(1.0)
    } else {
        0.0
    };
    // f64::min ignores a NaN side, so a corrupted/degenerate bitrate
    // falls back to the network throughput alone.
    let rate = r.bitrate_bps.min(r.throughput_bps);
    let slow = (1.0 - rate / SLOW_RATE_BPS).clamp(0.0, 1.0);
    rebuffer.max(slow)
}

/// Largest accepted [`TelemetryFaults::reorder_window`]. Bounding it
/// keeps the jitter draw's `window + 1` in `apply` free of overflow on
/// any platform (`usize::MAX + 1` wraps to a zero-width draw in release
/// builds).
const MAX_REORDER_WINDOW: usize = 1 << 30;

/// A composable, seeded fault model for one link's record stream.
///
/// All probabilities are per record. [`TelemetryFaults::apply`] consumes
/// the simulator's records in emission order (the sequence number is the
/// record's index) and runs them through the wire-side faults; the
/// result is the delivered stream (the survivors in sequence order,
/// each once) plus a [`TelemetryStats`] ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFaults {
    /// Missing-completely-at-random drop probability.
    pub drop_mcar: f64,
    /// Congestion-correlated drop scale: a record is dropped with
    /// probability `drop_congested × congestion_severity(record)`.
    pub drop_congested: f64,
    /// Probability a delivered record is duplicated on the wire.
    pub duplicate_p: f64,
    /// Probability one float field of a delivered record is corrupted to
    /// NaN (the analysis layer's finite-value filters then skip it for
    /// that metric only).
    pub corrupt_nan_p: f64,
    /// Maximum forward displacement (in sequence positions) a record can
    /// suffer on the wire; 0 = in-order delivery. At most
    /// `MAX_REORDER_WINDOW`.
    pub reorder_window: usize,
    /// Optional mid-run outage window.
    pub outage: Option<OutageWindow>,
    /// Links whose collection job dies outright: `TelemetryFaults::should_crash`
    /// makes the fleet job panic, which exercises the sweep-level
    /// `FailurePolicy::Quarantine` path (chaos testing, not a wire fault).
    pub crash_links: Vec<usize>,
    /// Root seed of the fault process. Per-link streams are derived from
    /// `(seed, link)` only, never from the simulation RNG.
    pub seed: u64,
}

impl TelemetryFaults {
    /// The identity fault model: nothing dropped, duplicated, corrupted,
    /// reordered or crashed.
    pub fn none(seed: u64) -> TelemetryFaults {
        TelemetryFaults {
            drop_mcar: 0.0,
            drop_congested: 0.0,
            duplicate_p: 0.0,
            corrupt_nan_p: 0.0,
            reorder_window: 0,
            outage: None,
            crash_links: Vec::new(),
            seed,
        }
    }

    /// Check every knob is in its domain: probabilities in `[0, 1]`, a
    /// reorder window of at most `MAX_REORDER_WINDOW`, outage bounds
    /// finite and ordered.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let probability = |p: f64| (0.0..=1.0).contains(&p);
        require(probability(self.drop_mcar), "drop_mcar")?;
        require(probability(self.drop_congested), "drop_congested")?;
        require(probability(self.duplicate_p), "duplicate_p")?;
        require(probability(self.corrupt_nan_p), "corrupt_nan_p")?;
        require(self.reorder_window <= MAX_REORDER_WINDOW, "reorder_window")?;
        require(
            self.outage.is_none_or(|w| {
                w.start_s.is_finite() && w.end_s.is_finite() && w.start_s <= w.end_s
            }),
            "outage",
        )
    }

    /// Whether this fault model scripts `link`'s whole job to die.
    pub(crate) fn should_crash(&self, link: usize) -> bool {
        self.crash_links.contains(&link)
    }

    /// The fault RNG for one link: a fixed function of `(seed, link)`,
    /// so the fault stream is identical whatever the simulation did and
    /// whatever order the scheduler ran links in.
    fn link_rng(&self, link: usize) -> SimRng {
        // Golden-ratio odd multiplier keeps adjacent link indices far
        // apart in seed space before SimRng's own SplitMix64 expansion.
        SimRng::new(self.seed ^ (link as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Run one link's records through the fault pipeline. Returns the
    /// delivered records in sequence order (duplicates removed by the
    /// receiver) and the per-arm accounting, in which `sent[arm] =
    /// delivered + dropped_outage + dropped_mcar + dropped_congested`.
    ///
    /// Deterministic in `(self.seed, link, records)`; the draw sequence
    /// is fixed per record, so two applications to the same stream are
    /// bit-identical.
    pub fn apply(
        &self,
        link: usize,
        records: Vec<SessionRecord>,
    ) -> (Vec<SessionRecord>, TelemetryStats) {
        let mut rng = self.link_rng(link);
        let mut stats = TelemetryStats::default();
        let mut delivered = Vec::with_capacity(records.len());
        // Wire arrivals as (sort key, sequence, arm); key = sequence +
        // jitter. Only the out-of-order count reads the wire order: the
        // receiver restores sequence order and discards duplicate
        // copies, so what it delivers is the survivors in emission
        // order, each once.
        let mut wire: Vec<(u64, u64, usize)> = Vec::with_capacity(records.len());
        for (seq, mut r) in records.into_iter().enumerate() {
            let seq = seq as u64;
            let arm = usize::from(r.treated);
            stats.sent[arm] += 1;
            if self.outage.is_some_and(|w| w.contains(r.arrival_s)) {
                stats.dropped_outage[arm] += 1;
                continue;
            }
            if rng.bernoulli(self.drop_mcar) {
                stats.dropped_mcar[arm] += 1;
                continue;
            }
            let severity = congestion_severity(&r);
            if rng.bernoulli(self.drop_congested * severity) {
                stats.dropped_congested[arm] += 1;
                continue;
            }
            if rng.bernoulli(self.corrupt_nan_p) {
                corrupt_one_field(&mut r, rng.below(6));
                stats.corrupted[arm] += 1;
            }
            let duplicate = rng.bernoulli(self.duplicate_p);
            let jitter = |rng: &mut SimRng| {
                if self.reorder_window == 0 {
                    0
                } else {
                    rng.below(self.reorder_window as u64 + 1)
                }
            };
            let key = seq + jitter(&mut rng);
            if duplicate {
                stats.duplicated[arm] += 1;
                let dup_key = seq + jitter(&mut rng);
                wire.push((dup_key, seq, arm));
            }
            wire.push((key, seq, arm));
            stats.delivered[arm] += 1;
            delivered.push(r);
        }
        // Stable: equal keys stay in push order (a duplicate before its
        // original).
        wire.sort_by_key(|&(key, _, _)| key);
        let mut high_water: Option<u64> = None;
        for (_, seq, arm) in wire {
            if high_water.is_some_and(|hw| seq < hw) {
                stats.out_of_order[arm] += 1;
            }
            high_water = Some(high_water.map_or(seq, |hw| hw.max(seq)));
        }
        (delivered, stats)
    }
}

/// Corrupt one float field of a record to NaN; `pick` selects among the
/// six metric-bearing floats.
fn corrupt_one_field(r: &mut SessionRecord, pick: u64) {
    match pick {
        0 => r.throughput_bps = f64::NAN,
        1 => r.min_rtt_s = f64::NAN,
        2 => r.play_delay_s = f64::NAN,
        3 => r.bitrate_bps = f64::NAN,
        4 => r.quality = f64::NAN,
        _ => r.bytes = f64::NAN,
    }
}

/// Per-arm accounting of one link's (or a whole fleet's) trip through
/// the telemetry pipeline; arm 0 = control, arm 1 = treated. Mergeable
/// by field-wise addition, so fleet summaries can aggregate it exactly
/// like the metric cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Records the simulator produced.
    pub sent: [u64; 2],
    /// Records the receiver delivered (post drop/dedup).
    pub delivered: [u64; 2],
    /// Records lost to the outage window.
    pub dropped_outage: [u64; 2],
    /// Records lost completely at random.
    pub dropped_mcar: [u64; 2],
    /// Records lost to congestion-correlated (MNAR) drop.
    pub dropped_congested: [u64; 2],
    /// Duplicate copies injected on the wire (all discarded by the
    /// receiver, but their rate is an arm-skew diagnostic).
    pub duplicated: [u64; 2],
    /// Delivered records carrying one NaN-corrupted field.
    pub corrupted: [u64; 2],
    /// Wire arrivals observed behind the sequence high-water mark.
    pub out_of_order: [u64; 2],
}

impl TelemetryStats {
    /// The ledger of a fault-free link: everything sent was delivered.
    pub(crate) fn clean(records: &[SessionRecord]) -> TelemetryStats {
        let mut s = TelemetryStats::default();
        for r in records {
            let arm = usize::from(r.treated);
            s.sent[arm] += 1;
            s.delivered[arm] += 1;
        }
        s
    }

    /// Field-wise accumulate (the fleet-summary merge).
    pub fn merge(&mut self, other: &TelemetryStats) {
        for (a, b) in [
            (&mut self.sent, &other.sent),
            (&mut self.delivered, &other.delivered),
            (&mut self.dropped_outage, &other.dropped_outage),
            (&mut self.dropped_mcar, &other.dropped_mcar),
            (&mut self.dropped_congested, &other.dropped_congested),
            (&mut self.duplicated, &other.duplicated),
            (&mut self.corrupted, &other.corrupted),
            (&mut self.out_of_order, &other.out_of_order),
        ] {
            a[0] += b[0];
            a[1] += b[1];
        }
    }

    /// Total records sent across arms.
    pub(crate) fn sent_total(&self) -> u64 {
        self.sent[0] + self.sent[1]
    }

    /// Total records delivered across arms.
    pub(crate) fn delivered_total(&self) -> u64 {
        self.delivered[0] + self.delivered[1]
    }

    /// Overall fraction of sent records that never arrived.
    pub fn loss_fraction(&self) -> f64 {
        let sent = self.sent_total();
        if sent == 0 {
            0.0
        } else {
            1.0 - self.delivered_total() as f64 / sent as f64
        }
    }

    /// Fraction of one arm's sent records that never arrived
    /// (`arm` 0 = control, 1 = treated).
    pub fn missing_fraction(&self, arm: usize) -> f64 {
        if self.sent[arm] == 0 {
            0.0
        } else {
            1.0 - self.delivered[arm] as f64 / self.sent[arm] as f64
        }
    }

    /// Fraction of one arm's sent records that were duplicated on the
    /// wire.
    pub fn duplicate_fraction(&self, arm: usize) -> f64 {
        if self.sent[arm] == 0 {
            0.0
        } else {
            self.duplicated[arm] as f64 / self.sent[arm] as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::LinkId;

    fn record(seq: usize, treated: bool) -> SessionRecord {
        SessionRecord {
            link: LinkId::One,
            day: 0,
            hour: seq % 24,
            weekend: false,
            arrival_s: seq as f64 * 10.0,
            treated,
            throughput_bps: 6e6,
            min_rtt_s: 0.02,
            play_delay_s: 1.0,
            bitrate_bps: 3e6,
            quality: 70.0,
            rebuffer_count: 0,
            rebuffered: false,
            cancelled: false,
            bytes: 1e8,
            retx_bytes: 1e5,
            switches: 1,
            duration_s: 900.0,
        }
    }

    fn stream(n: usize) -> Vec<SessionRecord> {
        (0..n).map(|i| record(i, i % 2 == 0)).collect()
    }

    #[test]
    fn identity_faults_pass_everything_through() {
        let f = TelemetryFaults::none(7);
        let input = stream(100);
        let (out, stats) = f.apply(3, input.clone());
        assert_eq!(out.len(), 100);
        assert_eq!(stats.sent_total(), 100);
        assert_eq!(stats.delivered_total(), 100);
        assert_eq!(stats.loss_fraction(), 0.0);
        for (a, b) in out.iter().zip(&input) {
            assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
        }
    }

    #[test]
    fn apply_is_deterministic_per_seed_and_link() {
        let f = TelemetryFaults {
            drop_mcar: 0.1,
            drop_congested: 0.2,
            duplicate_p: 0.1,
            corrupt_nan_p: 0.05,
            reorder_window: 5,
            ..TelemetryFaults::none(42)
        };
        let fingerprint = |out: &[SessionRecord]| -> Vec<u64> {
            out.iter().map(|r| r.arrival_s.to_bits()).collect()
        };
        let (a, sa) = f.apply(3, stream(500));
        let (b, sb) = f.apply(3, stream(500));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(sa, sb);
        // A different link index gives a different fault stream.
        let (c, _) = f.apply(4, stream(500));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // A different fault seed too.
        let (d, _) = TelemetryFaults { seed: 43, ..f }.apply(3, stream(500));
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }

    #[test]
    fn mcar_drop_rate_is_honored() {
        let f = TelemetryFaults {
            drop_mcar: 0.2,
            ..TelemetryFaults::none(1)
        };
        let (out, stats) = f.apply(0, stream(20_000));
        let frac = 1.0 - out.len() as f64 / 20_000.0;
        assert!((frac - 0.2).abs() < 0.01, "loss {frac}");
        assert!((stats.loss_fraction() - 0.2).abs() < 0.01);
        // MCAR is arm-blind: both arms lose at the same rate.
        assert!((stats.missing_fraction(0) - stats.missing_fraction(1)).abs() < 0.02);
    }

    #[test]
    fn congested_drop_targets_congested_sessions_only() {
        // Half the stream rebuffers; MNAR drop must hit only that half.
        let records: Vec<SessionRecord> = (0..10_000)
            .map(|i| {
                let mut r = record(i, i % 2 == 0);
                if i % 2 == 0 {
                    r.rebuffered = true;
                    r.rebuffer_count = 4;
                    r.throughput_bps = 1e6;
                }
                r
            })
            .collect();
        let f = TelemetryFaults {
            drop_congested: 0.5,
            ..TelemetryFaults::none(9)
        };
        let (_, stats) = f.apply(0, records);
        // Treated arm (even indices) is the congested one here.
        assert!(stats.missing_fraction(1) > 0.4, "{stats:?}");
        assert_eq!(stats.dropped_congested[0], 0, "healthy arm untouched");
        assert_eq!(stats.dropped_mcar, [0, 0]);
    }

    #[test]
    fn severity_ranks_experiences() {
        let healthy = record(0, false);
        assert_eq!(congestion_severity(&healthy), 0.0);
        let mut slow = record(1, false);
        slow.throughput_bps = 1e6;
        assert!(congestion_severity(&slow) > 0.5);
        let mut rebuf = record(2, false);
        rebuf.rebuffered = true;
        rebuf.rebuffer_count = 1;
        assert!(congestion_severity(&rebuf) >= 0.6);
        let mut cancelled = record(3, false);
        cancelled.cancelled = true;
        assert_eq!(congestion_severity(&cancelled), 1.0);
        // More rebuffers, more severity, capped at 1.
        let mut worse = rebuf.clone();
        worse.rebuffer_count = 10;
        assert!(congestion_severity(&worse) >= congestion_severity(&rebuf));
        assert!(congestion_severity(&worse) <= 1.0);
    }

    #[test]
    fn reorder_round_trips_to_sequence_order() {
        let f = TelemetryFaults {
            reorder_window: 7,
            ..TelemetryFaults::none(5)
        };
        let input = stream(1000);
        let (out, stats) = f.apply(2, input.clone());
        assert_eq!(out.len(), 1000, "reordering alone loses nothing");
        assert!(
            stats.out_of_order[0] + stats.out_of_order[1] > 0,
            "window 7 over 1000 records must reorder something"
        );
        for (a, b) in out.iter().zip(&input) {
            assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
        }
    }

    #[test]
    fn duplicates_are_discarded_by_the_receiver() {
        let f = TelemetryFaults {
            duplicate_p: 0.3,
            reorder_window: 4,
            ..TelemetryFaults::none(11)
        };
        let input = stream(2000);
        let (out, stats) = f.apply(1, input.clone());
        assert_eq!(out.len(), 2000, "dedup restores the original stream");
        let dup = stats.duplicated[0] + stats.duplicated[1];
        assert!(dup > 400, "duplicate copies injected: {dup}");
        for (a, b) in out.iter().zip(&input) {
            assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
        }
    }

    #[test]
    fn corruption_nans_one_field_and_is_counted() {
        let f = TelemetryFaults {
            corrupt_nan_p: 0.5,
            ..TelemetryFaults::none(3)
        };
        let (out, stats) = f.apply(0, stream(4000));
        let corrupted = stats.corrupted[0] + stats.corrupted[1];
        assert!((1500..2500).contains(&(corrupted as usize)), "{corrupted}");
        let nan_records = out
            .iter()
            .filter(|r| {
                r.throughput_bps.is_nan()
                    || r.min_rtt_s.is_nan()
                    || r.play_delay_s.is_nan()
                    || r.bitrate_bps.is_nan()
                    || r.quality.is_nan()
                    || r.bytes.is_nan()
            })
            .count();
        assert_eq!(nan_records as u64, corrupted);
    }

    #[test]
    fn outage_loses_exactly_the_window() {
        let f = TelemetryFaults {
            outage: Some(OutageWindow {
                start_s: 1000.0,
                end_s: 3000.0,
            }),
            ..TelemetryFaults::none(1)
        };
        // Arrivals at 0, 10, 20, … — the window covers [1000, 3000).
        let (out, stats) = f.apply(0, stream(1000));
        assert!(out.iter().all(|r| !(1000.0..3000.0).contains(&r.arrival_s)));
        assert_eq!(
            stats.dropped_outage[0] + stats.dropped_outage[1],
            200,
            "arrivals every 10 s over a 2000 s window"
        );
    }

    #[test]
    fn stats_merge_is_fieldwise_addition() {
        let f = TelemetryFaults {
            drop_mcar: 0.1,
            duplicate_p: 0.2,
            ..TelemetryFaults::none(6)
        };
        let (_, a) = f.apply(0, stream(500));
        let (_, b) = f.apply(1, stream(300));
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.sent_total(), 800);
        assert_eq!(
            merged.delivered_total(),
            a.delivered_total() + b.delivered_total()
        );
        assert_eq!(merged.duplicated[0], a.duplicated[0] + b.duplicated[0]);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut f = TelemetryFaults::none(0);
        assert_eq!(f.validate(), Ok(()));
        f.drop_mcar = 1.5;
        assert_eq!(f.validate(), Err(ConfigError { field: "drop_mcar" }));
        f.drop_mcar = f64::NAN;
        assert_eq!(f.validate(), Err(ConfigError { field: "drop_mcar" }));
        f.drop_mcar = 0.0;
        f.outage = Some(OutageWindow {
            start_s: 10.0,
            end_s: 5.0,
        });
        assert_eq!(f.validate(), Err(ConfigError { field: "outage" }));
    }

    /// Regression: `usize::MAX` used to pass `validate` and then
    /// overflow `window + 1` in `apply` (a debug panic; a wrapped draw
    /// in release).
    #[test]
    fn reorder_window_is_bounded() {
        let mut f = TelemetryFaults {
            reorder_window: usize::MAX,
            duplicate_p: 0.25,
            ..TelemetryFaults::none(5)
        };
        assert_eq!(
            f.validate(),
            Err(ConfigError {
                field: "reorder_window"
            })
        );
        f.reorder_window = MAX_REORDER_WINDOW;
        assert_eq!(f.validate(), Ok(()));
        // The largest accepted window still delivers every record once,
        // in order.
        let input = stream(200);
        let (out, stats) = f.apply(0, input.clone());
        assert!(stats.out_of_order[0] + stats.out_of_order[1] > 0);
        assert_eq!(stats.delivered_total(), stats.sent_total());
        assert_eq!(out.len(), input.len());
        for (a, b) in out.iter().zip(&input) {
            assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
        }
    }

    #[test]
    fn crash_list_matches_links() {
        let f = TelemetryFaults {
            crash_links: vec![2, 5],
            ..TelemetryFaults::none(0)
        };
        assert!(f.should_crash(2));
        assert!(f.should_crash(5));
        assert!(!f.should_crash(0));
    }
}
