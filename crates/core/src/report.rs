//! Rendering of experiment results as the paper's tables and figures.

use crate::designs::MetricEffects;
use expstats::table::{pct, pct_ci, Table};

/// Render a set of Figure-5 rows (one per metric).
pub fn render_effects_table(rows: &[MetricEffects]) -> String {
    let mut t = Table::new(vec![
        "metric",
        "naive 5% A/B",
        "naive 95% A/B",
        "TTE",
        "spillover",
        "sign flip",
    ]);
    for r in rows {
        t.row(vec![
            r.metric.name().to_string(),
            format!("{} {}", pct(r.naive_lo.relative), pct_ci(r.naive_lo.ci95)),
            format!("{} {}", pct(r.naive_hi.relative), pct_ci(r.naive_hi.ci95)),
            format!("{} {}", pct(r.tte.relative), pct_ci(r.tte.ci95)),
            format!("{} {}", pct(r.spillover.relative), pct_ci(r.spillover.ci95)),
            if r.sign_flip() {
                "YES".to_string()
            } else {
                String::new()
            },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::EffectEstimate;
    use streamsim::session::Metric;

    fn est(rel: f64) -> EffectEstimate {
        EffectEstimate {
            metric: Metric::Throughput,
            absolute: rel * 100.0,
            relative: rel,
            ci95: (rel - 0.02, rel + 0.02),
            se: 0.01,
            n: 100,
            weekend_adjusted: false,
        }
    }

    #[test]
    fn effects_table_marks_sign_flips() {
        let row = MetricEffects {
            metric: Metric::Throughput,
            naive_lo: est(-0.05),
            naive_hi: est(-0.05),
            tte: est(0.12),
            spillover: est(0.16),
        };
        let s = render_effects_table(&[row]);
        assert!(s.contains("avg throughput"));
        assert!(s.contains("YES"));
        assert!(s.contains("+12.0%"));
    }
}
