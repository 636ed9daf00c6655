//! Session-level experimental data: a thin, queryable wrapper over
//! `streamsim` session records.

use streamsim::session::{LinkId, Metric, SessionRecord};

/// One `(day, hour)` aggregation cell (`Z_t(A)` of Appendix B) with the
/// calendar context needed for day-of-week controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HourlyCell {
    /// Simulation day.
    pub day: usize,
    /// Local hour of day.
    pub hour: usize,
    /// Whether the day is a weekend day.
    pub weekend: bool,
    /// Mean of the metric over the cell's sessions.
    pub mean: f64,
}

/// A collection of session records with the selectors the §4/§5 analyses
/// need.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    records: Vec<SessionRecord>,
}

impl Dataset {
    /// Wrap records.
    pub fn new(records: Vec<SessionRecord>) -> Dataset {
        Dataset { records }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Subset by predicate.
    pub fn filter<'a>(
        &'a self,
        pred: impl Fn(&SessionRecord) -> bool + 'a,
    ) -> Vec<&'a SessionRecord> {
        self.records.iter().filter(|r| pred(r)).collect()
    }

    /// The four cells of the paired experiment:
    /// (link, arm) → records.
    pub fn cell(&self, link: LinkId, treated: bool) -> Vec<&SessionRecord> {
        self.filter(move |r| r.link == link && r.treated == treated)
    }

    /// Metric values for a set of records, dropping NaNs (e.g. bitrate of
    /// cancelled sessions).
    pub(crate) fn values(records: &[&SessionRecord], metric: Metric) -> Vec<f64> {
        records
            .iter()
            .map(|r| metric.of(r))
            .filter(|v| v.is_finite())
            .collect()
    }

    /// Mean of a metric over records (NaN-filtered).
    pub fn mean(records: &[&SessionRecord], metric: Metric) -> f64 {
        let vals = Self::values(records, metric);
        expstats::mean(&vals)
    }

    /// Hourly cell rows `(day, hour, mean)` of a metric over the given
    /// records — the `Z_t(A)` aggregation of Appendix B.
    pub fn hourly_means(records: &[&SessionRecord], metric: Metric) -> Vec<(usize, usize, f64)> {
        Self::hourly_cells(records, metric)
            .into_iter()
            .map(|c| (c.day, c.hour, c.mean))
            .collect()
    }

    /// Hourly cells with calendar context (weekend flag), for analyses
    /// that control for day-of-week demand shifts.
    pub(crate) fn hourly_cells(records: &[&SessionRecord], metric: Metric) -> Vec<HourlyCell> {
        use std::collections::BTreeMap;
        let mut cells: BTreeMap<(usize, usize), (f64, usize, bool)> = BTreeMap::new();
        for r in records {
            let v = metric.of(r);
            if v.is_finite() {
                let e = cells.entry((r.day, r.hour)).or_insert((0.0, 0, r.weekend));
                e.0 += v;
                e.1 += 1;
            }
        }
        cells
            .into_iter()
            .map(|((day, hour), (sum, n, weekend))| HourlyCell {
                day,
                hour,
                weekend,
                mean: sum / n as f64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(link: LinkId, treated: bool, day: usize, hour: usize, tput: f64) -> SessionRecord {
        SessionRecord {
            link,
            day,
            hour,
            weekend: false,
            arrival_s: (day * 86_400 + hour * 3600) as f64,
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

    #[test]
    fn cells_partition_by_link_and_arm() {
        let ds = Dataset::new(vec![
            rec(LinkId::One, true, 0, 0, 1.0),
            rec(LinkId::One, false, 0, 0, 2.0),
            rec(LinkId::Two, true, 0, 0, 3.0),
            rec(LinkId::Two, false, 0, 0, 4.0),
        ]);
        assert_eq!(ds.cell(LinkId::One, true).len(), 1);
        assert_eq!(ds.cell(LinkId::Two, false).len(), 1);
        assert_eq!(ds.len(), 4);
    }

    #[test]
    fn values_drop_nan() {
        let mut r = rec(LinkId::One, false, 0, 0, 5.0);
        r.bitrate_bps = f64::NAN;
        let ds = Dataset::new(vec![r, rec(LinkId::One, false, 0, 0, 7.0)]);
        let all = ds.filter(|_| true);
        let vals = Dataset::values(&all, Metric::Bitrate);
        assert_eq!(vals.len(), 1);
        let tputs = Dataset::values(&all, Metric::Throughput);
        assert_eq!(tputs, vec![5.0, 7.0]);
    }

    #[test]
    fn hourly_means_aggregate() {
        let ds = Dataset::new(vec![
            rec(LinkId::One, false, 0, 10, 2.0),
            rec(LinkId::One, false, 0, 10, 4.0),
            rec(LinkId::One, false, 1, 10, 6.0),
        ]);
        let all = ds.filter(|_| true);
        let cells = Dataset::hourly_means(&all, Metric::Throughput);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0], (0, 10, 3.0));
        assert_eq!(cells[1], (1, 10, 6.0));
    }
}
