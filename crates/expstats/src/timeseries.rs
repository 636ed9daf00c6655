//! Automatic HAC lag selection.
//!
//! The paper fixes the Newey–West lag at 2 for hourly aggregates; the
//! Newey–West (1994) plug-in rule here lets users validate that choice on
//! their own data.

/// Newey–West (1994) rule-of-thumb bandwidth for the Bartlett kernel:
/// `floor(4 (n/100)^{2/9})`.
pub fn newey_west_auto_lag(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (4.0 * (n as f64 / 100.0).powf(2.0 / 9.0)).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_lag_rule_values() {
        assert_eq!(newey_west_auto_lag(100), 4);
        assert_eq!(newey_west_auto_lag(0), 0);
        // Hourly cells of a 5-day experiment: 24*5 = 120 observations per arm.
        let l = newey_west_auto_lag(120);
        assert!((2..=6).contains(&l), "lag {l}");
    }
}
