//! Diurnal session demand: a non-homogeneous Poisson arrival process.
//!
//! Demand follows the classic residential-broadband shape the paper's
//! Figure 6 shows: a night trough, a daytime ramp and an evening peak
//! during which the link congests. Weekends shift extra load into the
//! afternoon (the seasonality that biases event studies in §5.3).

use dessim::SimRng;

/// Hourly demand multipliers relative to the daily peak (index = local
/// hour 0–23). Peak hours are 19:00–22:00.
const HOURLY_SHAPE: [f64; 24] = [
    0.18, 0.12, 0.08, 0.06, 0.05, 0.06, 0.09, 0.14, 0.20, 0.26, 0.32, 0.38, //
    0.44, 0.48, 0.52, 0.56, 0.62, 0.72, 0.85, 0.96, 1.00, 0.98, 0.80, 0.45,
];

/// Extra weekend multiplier per hour (more daytime viewing).
const WEEKEND_BOOST: [f64; 24] = [
    1.05, 1.05, 1.0, 1.0, 1.0, 1.0, 1.0, 1.05, 1.15, 1.25, 1.30, 1.35, //
    1.35, 1.35, 1.30, 1.25, 1.20, 1.15, 1.10, 1.05, 1.05, 1.05, 1.05, 1.05,
];

/// The demand process.
#[derive(Debug, Clone)]
pub(crate) struct DiurnalDemand {
    /// Arrival rate at the weekday peak hour, sessions/second.
    pub peak_rate: f64,
    /// Day of week of simulation day 0 (0 = Monday … 6 = Sunday).
    pub start_weekday: usize,
}

impl DiurnalDemand {
    /// New demand curve with the given weekday-peak arrival rate.
    /// The paper's experiment ran Wednesday→Sunday, so day 0 defaults to
    /// Wednesday when constructed via [`DiurnalDemand::paper_week`].
    pub(crate) fn new(peak_rate: f64, start_weekday: usize) -> DiurnalDemand {
        DiurnalDemand {
            peak_rate,
            start_weekday: start_weekday % 7,
        }
    }

    /// Demand curve aligned with the paper's Wednesday-to-Sunday run.
    pub(crate) fn paper_week(peak_rate: f64) -> DiurnalDemand {
        DiurnalDemand::new(peak_rate, 2)
    }

    /// Local hour of day (0–23) for a simulation time in seconds.
    pub(crate) fn hour_of_day(t_s: f64) -> usize {
        ((t_s / 3600.0) as usize) % 24
    }

    /// Simulation day index for a time in seconds.
    pub(crate) fn day_index(t_s: f64) -> usize {
        (t_s / 86_400.0) as usize
    }

    /// Whether the given simulation day falls on a weekend.
    pub(crate) fn is_weekend(&self, day: usize) -> bool {
        let dow = (self.start_weekday + day) % 7;
        dow == 5 || dow == 6
    }

    /// Instantaneous arrival rate (sessions/second) at time `t_s`.
    pub(crate) fn rate(&self, t_s: f64) -> f64 {
        let hour = Self::hour_of_day(t_s);
        let day = Self::day_index(t_s);
        let mut r = self.peak_rate * HOURLY_SHAPE[hour];
        if self.is_weekend(day) {
            r *= WEEKEND_BOOST[hour];
        }
        r
    }

    /// Number of arrivals in a tick of length `dt_s` starting at `t_s`
    /// (Poisson draw; Knuth's method — rates here are ≤ a few per tick).
    pub(crate) fn arrivals(&self, t_s: f64, dt_s: f64, rng: &mut SimRng) -> usize {
        let lambda = self.rate(t_s) * dt_s;
        if lambda <= 0.0 {
            return 0;
        }
        // Knuth's algorithm is fine for λ up to ~30; clamp for safety.
        let lambda = lambda.min(30.0);
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= rng.uniform01();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_hour_is_maximum() {
        let d = DiurnalDemand::new(1.0, 0);
        let peak = d.rate(20.0 * 3600.0); // 20:00 Monday
        for h in 0..24 {
            assert!(d.rate(h as f64 * 3600.0) <= peak + 1e-12, "hour {h}");
        }
        assert!((peak - 1.0).abs() < 1e-12);
    }

    #[test]
    fn night_trough_much_lower_than_peak() {
        let d = DiurnalDemand::new(1.0, 0);
        let trough = d.rate(4.0 * 3600.0);
        assert!(trough < 0.1);
    }

    #[test]
    fn weekend_days_detected() {
        // Start Wednesday: days 3 and 4 are Saturday/Sunday.
        let d = DiurnalDemand::paper_week(1.0);
        assert!(!d.is_weekend(0)); // Wed
        assert!(!d.is_weekend(1)); // Thu
        assert!(!d.is_weekend(2)); // Fri
        assert!(d.is_weekend(3)); // Sat
        assert!(d.is_weekend(4)); // Sun
    }

    #[test]
    fn weekend_daytime_demand_higher() {
        let d = DiurnalDemand::paper_week(1.0);
        let friday_noon = d.rate((2.0 * 24.0 + 12.0) * 3600.0);
        let saturday_noon = d.rate((3.0 * 24.0 + 12.0) * 3600.0);
        assert!(saturday_noon > friday_noon);
    }

    #[test]
    fn hour_and_day_indexing() {
        assert_eq!(DiurnalDemand::hour_of_day(0.0), 0);
        assert_eq!(DiurnalDemand::hour_of_day(3600.0 * 25.0), 1);
        assert_eq!(DiurnalDemand::day_index(86_399.0), 0);
        assert_eq!(DiurnalDemand::day_index(86_400.0), 1);
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let d = DiurnalDemand::new(2.0, 0);
        let mut rng = SimRng::new(5);
        let t = 20.0 * 3600.0; // peak, rate 2/s
        let n: usize = (0..20_000).map(|_| d.arrivals(t, 1.0, &mut rng)).sum();
        let mean = n as f64 / 20_000.0;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_rate_zero_arrivals() {
        let d = DiurnalDemand::new(0.0, 0);
        let mut rng = SimRng::new(5);
        assert_eq!(d.arrivals(0.0, 1.0, &mut rng), 0);
    }
}
