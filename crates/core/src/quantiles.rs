//! Quantile treatment effects for experiment data.
//!
//! §2, "Note on averages": *"Practitioners may also be interested in
//! quantile treatment effects, e.g. the difference in 99th percentile
//! latency between treatment and control … It is straightforward to
//! adapt our definitions to measure quantile treatment effects."* This
//! module is that adaptation: every estimand (naïve ATE, TTE, spillover)
//! evaluated at a quantile instead of the mean, as a point estimate
//! relative to the control quantile. Uncertainty comes from replication:
//! the figure reports each estimand's cross-seed mean and 95% CI.

use crate::dataset::Dataset;
use expstats::quantiles::{quantile, quantile_sorted};
use expstats::{Result, StatsError};
use streamsim::session::{LinkId, Metric, SessionRecord};

/// A bounded-memory quantile sketch: a deterministic bottom-k "priority
/// reservoir" over a stream of `(id, value)` observations.
///
/// Each observation gets a pseudorandom priority by hashing its stable
/// `id` through the (bijective) SplitMix64 finalizer; the sketch keeps
/// the `cap` observations with the smallest priorities. Because the hash
/// is bijective, distinct ids never tie, so the kept set is a pure
/// function of the *set* of ids folded in — which makes [`merge`]
/// exactly associative, commutative and order-insensitive, the property
/// the work-stealing fleet reduction needs for reproducibility. (The
/// classic P² sketch was rejected here: its marker updates depend on
/// arrival order, so merged partials would not be deterministic.)
///
/// With `total() ≤ cap` the sketch holds every observation and
/// [`quantile`](QuantileSketch::quantile) is exact; beyond that the kept
/// set is a uniform random sample of size `cap`, giving the usual
/// order-statistic error of a `cap`-sized subsample.
///
/// [`merge`]: QuantileSketch::merge
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    cap: usize,
    total: u64,
    /// `(priority, value)` kept entries, sorted ascending by priority so
    /// the representation (not just the kept set) is canonical.
    entries: Vec<(u64, f64)>,
}

/// SplitMix64 finalizer: a bijection on `u64`, so distinct ids map to
/// distinct priorities.
fn priority(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl QuantileSketch {
    /// Empty sketch keeping at most `cap` observations.
    pub fn new(cap: usize) -> QuantileSketch {
        assert!(cap > 0, "sketch capacity must be positive");
        QuantileSketch {
            cap,
            total: 0,
            entries: Vec::new(),
        }
    }

    /// Fold one observation. `id` must be unique across the stream (the
    /// fleet layer derives it from `(link, session index)`); `value`
    /// must be finite — the caller filters NaN metrics exactly like the
    /// mean estimators do.
    pub fn insert(&mut self, id: u64, value: f64) {
        debug_assert!(value.is_finite(), "non-finite value in sketch");
        self.total += 1;
        let p = priority(id);
        if self.entries.len() == self.cap && p > self.entries.last().expect("cap > 0").0 {
            return;
        }
        let at = self.entries.partition_point(|&(q, _)| q < p);
        self.entries.insert(at, (p, value));
        self.entries.truncate(self.cap);
    }

    /// Union with another sketch of the same capacity: keeps the
    /// bottom-`cap` of the combined kept sets, which equals the bottom-k
    /// of the union of the underlying streams (set semantics — merge
    /// order cannot matter).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.cap, other.cap, "sketch capacity mismatch in merge");
        if other.entries.is_empty() {
            self.total += other.total;
            return;
        }
        let mut merged =
            Vec::with_capacity((self.entries.len() + other.entries.len()).min(self.cap));
        let (mut i, mut j) = (0, 0);
        while merged.len() < self.cap && (i < self.entries.len() || j < other.entries.len()) {
            let take_mine = j >= other.entries.len()
                || (i < self.entries.len() && self.entries[i].0 < other.entries[j].0);
            if take_mine {
                merged.push(self.entries[i]);
                i += 1;
            } else {
                merged.push(other.entries[j]);
                j += 1;
            }
        }
        self.entries = merged;
        self.total += other.total;
    }

    /// Heap bytes the kept-entry buffer owns.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, f64)>()
    }

    /// Observations folded in (kept or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations currently kept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the kept set is the whole stream (quantiles are exact).
    pub fn is_exact(&self) -> bool {
        self.total <= self.cap as u64
    }

    /// Estimate the `q`-quantile of the stream from the kept sample.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if self.entries.is_empty() {
            return Err(StatsError::TooFewObservations { got: 0, need: 1 });
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidParameter {
                context: "QuantileSketch::quantile: q must be in [0,1]",
            });
        }
        let mut vals: Vec<f64> = self.entries.iter().map(|&(_, v)| v).collect();
        vals.sort_by(f64::total_cmp);
        Ok(quantile_sorted(&vals, q))
    }
}

/// A quantile-level effect, normalized by the control-sample quantile.
#[derive(Debug, Clone)]
pub struct QuantileEstimate {
    /// Metric.
    pub metric: Metric,
    /// Quantile level in `[0, 1]`.
    pub q: f64,
    /// Relative effect: `(Q_q(T) − Q_q(C)) / Q_q(C)`.
    pub relative: f64,
}

/// The relative quantile effect of `treated` against `control`. Errors
/// on fewer than two values in either arm, `q` outside `[0, 1]`, a
/// non-finite value, or a zero or non-finite control quantile.
fn q_effect(
    metric: Metric,
    q: f64,
    treated: &[&SessionRecord],
    control: &[&SessionRecord],
) -> Result<QuantileEstimate> {
    let t = Dataset::values(treated, metric);
    let c = Dataset::values(control, metric);
    if t.len() < 2 || c.len() < 2 {
        return Err(StatsError::TooFewObservations {
            got: t.len().min(c.len()),
            need: 2,
        });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter {
            context: "quantile effect: q must be in [0,1]",
        });
    }
    let tq = quantile(&t, q)?;
    let base = quantile(&c, q)?;
    if base == 0.0 || !base.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "quantile effect: zero/non-finite control quantile",
        });
    }
    Ok(QuantileEstimate {
        metric,
        q,
        relative: (tq - base) / base,
    })
}

/// The four paired-link estimands at a quantile level: naïve (both
/// links), TTE and spillover — the quantile analogue of
/// [`crate::designs::paired_link_effects`].
#[derive(Debug, Clone)]
pub struct QuantileEffects {
    /// Naïve within-link estimate at the low allocation.
    pub naive_lo: QuantileEstimate,
    /// Naïve within-link estimate at the high allocation.
    pub naive_hi: QuantileEstimate,
    /// Cross-link TTE analogue.
    pub tte: QuantileEstimate,
    /// Cross-link spillover analogue.
    pub spillover: QuantileEstimate,
}

/// Compute quantile effects from paired-link data at level `q`.
pub fn paired_link_quantile_effects(
    data: &Dataset,
    metric: Metric,
    q: f64,
) -> Result<QuantileEffects> {
    let l1_t = data.cell(LinkId::One, true);
    let l1_c = data.cell(LinkId::One, false);
    let l2_t = data.cell(LinkId::Two, true);
    let l2_c = data.cell(LinkId::Two, false);
    Ok(QuantileEffects {
        naive_lo: q_effect(metric, q, &l2_t, &l2_c)?,
        naive_hi: q_effect(metric, q, &l1_t, &l1_c)?,
        tte: q_effect(metric, q, &l1_t, &l2_c)?,
        spillover: q_effect(metric, q, &l1_c, &l2_c)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_exact_below_capacity() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut sk = QuantileSketch::new(128);
        for (i, &x) in xs.iter().enumerate() {
            sk.insert(i as u64, x);
        }
        assert!(sk.is_exact());
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(sk.quantile(q).unwrap(), quantile_sorted(&sorted, q));
        }
    }

    #[test]
    fn sketch_merge_is_order_insensitive() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let build = |range: std::ops::Range<usize>| {
            let mut s = QuantileSketch::new(64);
            for i in range {
                s.insert(i as u64, xs[i]);
            }
            s
        };
        let (a, b, c) = (build(0..50), build(50..300), build(300..500));
        // (a ∪ b) ∪ c vs c ∪ (b ∪ a): identical representation.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut right = c.clone();
        right.merge(&ba);
        assert_eq!(left, right);
        assert_eq!(left.total(), 500);
        assert_eq!(left.len(), 64);
        // And equals the single-stream sketch.
        let whole = build(0..500);
        assert_eq!(left, whole);
    }

    #[test]
    fn sketch_bounded_memory_and_sane_estimates() {
        let mut sk = QuantileSketch::new(256);
        // Uniform grid on [0, 1]: q-quantile ≈ q.
        for i in 0..10_000u64 {
            sk.insert(i, (i as f64 + 0.5) / 10_000.0);
        }
        assert_eq!(sk.len(), 256);
        assert!(!sk.is_exact());
        let med = sk.quantile(0.5).unwrap();
        assert!((med - 0.5).abs() < 0.1, "median {med}");
    }

    #[test]
    fn sketch_rejects_bad_quantile() {
        let mut sk = QuantileSketch::new(8);
        assert!(sk.quantile(0.5).is_err());
        sk.insert(0, 1.0);
        assert!(sk.quantile(1.5).is_err());
        assert_eq!(sk.quantile(0.5).unwrap(), 1.0);
    }

    fn rec(link: LinkId, treated: bool, tput: f64) -> SessionRecord {
        SessionRecord {
            link,
            day: 0,
            hour: 12,
            weekend: false,
            arrival_s: 0.0,
            treated,
            throughput_bps: tput,
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
            duration_s: 100.0,
        }
    }

    fn synthetic() -> Dataset {
        let mut recs = Vec::new();
        for i in 0..200 {
            let spread = (i % 40) as f64;
            // Link 1 (treated world) uniformly 20% faster; within links
            // treated and control identical.
            recs.push(rec(LinkId::One, true, 120.0 + spread));
            recs.push(rec(LinkId::One, false, 120.0 + spread));
            recs.push(rec(LinkId::Two, true, 100.0 + spread));
            recs.push(rec(LinkId::Two, false, 100.0 + spread));
        }
        Dataset::new(recs)
    }

    #[test]
    fn median_effects_match_construction() {
        let data = synthetic();
        let e = paired_link_quantile_effects(&data, Metric::Throughput, 0.5).unwrap();
        // Within-link contrasts are zero at every quantile.
        assert!(e.naive_lo.relative.abs() < 1e-9, "{}", e.naive_lo.relative);
        assert!(e.naive_hi.relative.abs() < 1e-9);
        // Cross-link median effect ≈ 20/119.5 ≈ +16.7%.
        assert!(
            (e.tte.relative - 20.0 / 119.5).abs() < 0.02,
            "{}",
            e.tte.relative
        );
        assert!((e.spillover.relative - e.tte.relative).abs() < 1e-9);
    }

    #[test]
    fn tail_quantile_effects_estimable() {
        let data = synthetic();
        let e = paired_link_quantile_effects(&data, Metric::Throughput, 0.95).unwrap();
        assert!(e.tte.relative > 0.05);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data = synthetic();
        assert!(paired_link_quantile_effects(&data, Metric::Throughput, 1.5).is_err());
        // Fewer than two values in an arm.
        let one = Dataset::new(vec![
            rec(LinkId::One, true, 1.0),
            rec(LinkId::One, false, 1.0),
            rec(LinkId::Two, true, 1.0),
            rec(LinkId::Two, false, 1.0),
        ]);
        assert_eq!(
            paired_link_quantile_effects(&one, Metric::Throughput, 0.5).unwrap_err(),
            StatsError::TooFewObservations { got: 1, need: 2 }
        );
        // A zero control quantile.
        let zeros: Vec<SessionRecord> = (0..8)
            .map(|i| rec([LinkId::One, LinkId::Two][i % 2], i % 4 < 2, 0.0))
            .collect();
        assert!(
            paired_link_quantile_effects(&Dataset::new(zeros), Metric::Throughput, 0.5).is_err()
        );
    }

    #[test]
    fn nan_session_metric_does_not_panic() {
        // Regression: cancelled sessions report NaN play delay; the
        // quantile path used to panic inside expstats' sort. The NaN is
        // filtered by `Dataset::values`, and a NaN reaching expstats
        // directly now returns an error instead of panicking.
        let mut recs = Vec::new();
        for i in 0..50 {
            let spread = (i % 10) as f64;
            for link in [LinkId::One, LinkId::Two] {
                for treated in [true, false] {
                    let mut r = rec(link, treated, 100.0 + spread);
                    r.play_delay_s = 1.0 + spread * 0.1;
                    recs.push(r);
                }
            }
        }
        // One cancelled session per cell: play delay NaN.
        for link in [LinkId::One, LinkId::Two] {
            for treated in [true, false] {
                let mut r = rec(link, treated, 100.0);
                r.cancelled = true;
                r.play_delay_s = f64::NAN;
                recs.push(r);
            }
        }
        let data = Dataset::new(recs);
        let e = paired_link_quantile_effects(&data, Metric::PlayDelay, 0.5).unwrap();
        assert!(e.naive_lo.relative.is_finite());
    }
}
