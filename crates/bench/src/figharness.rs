//! Shared multi-seed figure harness.
//!
//! Every figure/table module of the `figures` program
//! (`src/bin/figures/`) reports through one output contract,
//! [`FigureReport`]:
//!
//! * **text** to stdout — the human-readable tables/series, with a
//!   standard `[id · seeds · git rev]` subtitle and an explicit
//!   `warning:` section instead of silently dropped cells;
//! * **JSON** ([`FigureReport::to_json`]) — the machine-readable form
//!   `figures --json` merges into one `figures.json` document keyed by
//!   report id.
//!
//! Cross-seed cells are mean ± 95% CI over replications (via
//! [`crate::metric_ci`], i.e. `expstats::mean_ci` per cell). The
//! paired-world figures get their replications from [`paired_sweep`]
//! and [`baseline_sweep`], both one [`Runner::sweep`]; the fleet
//! figures run their own [`Runner::fleet_summaries`] sweeps. Setting
//! `FIG_QUICK=1` shrinks every sweep (fewer seeds, smaller streaming
//! scale, shorter horizon, smaller fleet) so CI can *execute* each
//! figure instead of merely compiling it; quick runs are marked in
//! both output forms.

use std::fmt::Write as _;

use crate::{derive_seeds, json, metric_ci, Runner, SeedCi, SeedRun};
use streamsim::config::StreamConfig;
use streamsim::scenario::AllocationSchedule;
use streamsim::sim::PairedSim;
use unbiased::dataset::Dataset;
use unbiased::designs::paired_link_experiment;

/// Replication count used by quick mode (`mean_ci` needs ≥ 2).
pub(crate) const QUICK_REPLICATIONS: usize = 3;
/// Streaming scale cap under quick mode.
pub(crate) const QUICK_STREAM_SCALE: f64 = 0.15;
/// Streaming horizon cap (days) under quick mode. Three days keeps the
/// §5 emulations structurally intact: an event-study switch on day 2
/// still has pre and post days, and an alternating switchback plan still
/// has both arms.
pub(crate) const QUICK_STREAM_DAYS: usize = 3;
/// Fleet-size cap under quick mode: CI smoke runs a ≤16-link fleet so
/// the fleet figures execute in seconds while keeping enough clusters
/// for both arms of a link-level randomization to show up.
pub(crate) const QUICK_FLEET_LINKS: usize = 16;

/// Whether quick mode (`FIG_QUICK=1`) is active.
pub(crate) fn quick() -> bool {
    std::env::var_os("FIG_QUICK").is_some_and(|v| v != "0")
}

/// Replication count honoring quick mode: `full` normally,
/// `min(full, QUICK_REPLICATIONS)` under `FIG_QUICK=1`.
pub fn replications(full: usize) -> usize {
    if quick() {
        full.min(QUICK_REPLICATIONS)
    } else {
        full
    }
}

/// Streaming-world scale honoring quick mode.
pub fn stream_scale(full: f64) -> f64 {
    if quick() {
        full.min(QUICK_STREAM_SCALE)
    } else {
        full
    }
}

/// Streaming horizon (days) honoring quick mode.
pub fn stream_days(full: usize) -> usize {
    if quick() {
        full.min(QUICK_STREAM_DAYS)
    } else {
        full
    }
}

/// Fleet link count honoring quick mode: `full` normally,
/// `min(full, QUICK_FLEET_LINKS)` under `FIG_QUICK=1`.
pub fn fleet_links(full: usize) -> usize {
    if quick() {
        full.min(QUICK_FLEET_LINKS)
    } else {
        full
    }
}

/// Shorten a lab dumbbell run under quick mode (same topology, smaller
/// time horizon — the packet simulator dominates figure-smoke
/// wall-clock otherwise).
pub fn quicken_lab(cfg: &mut netsim::config::DumbbellConfig) {
    if quick() {
        cfg.duration = dessim::SimDuration::from_secs(8);
        cfg.warmup = dessim::SimDuration::from_secs(3);
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// repo.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One table cell: a display string plus the machine-readable numbers
/// behind it (all optional — a label or flag cell carries text only).
#[derive(Debug, Clone, PartialEq)]
pub struct FigCell {
    /// Rendered form used by the text table.
    pub text: String,
    /// Cross-seed (or point) estimate.
    pub mean: Option<f64>,
    /// 95% confidence interval for the mean.
    pub ci: Option<(f64, f64)>,
    /// Replications the estimate aggregates.
    pub n: Option<usize>,
}

impl FigCell {
    /// A text-only cell (flags, counts, labels).
    pub fn text(text: impl Into<String>) -> FigCell {
        FigCell {
            text: text.into(),
            mean: None,
            ci: None,
            n: None,
        }
    }

    /// A point value with its display form.
    pub fn value(v: f64, text: impl Into<String>) -> FigCell {
        FigCell {
            text: text.into(),
            mean: Some(v),
            ci: None,
            n: None,
        }
    }

    /// A cross-seed mean ± CI cell with its display form.
    pub fn ci(c: &SeedCi, text: impl Into<String>) -> FigCell {
        FigCell {
            text: text.into(),
            mean: Some(c.mean),
            ci: Some(c.ci),
            n: Some(c.n),
        }
    }

    /// The "not estimable" cell.
    pub fn missing() -> FigCell {
        FigCell::text("-")
    }
}

/// Render a [`SeedCi`] as a relative-percentage cell, e.g.
/// `+12.3% [+10.1%, +14.5%]`.
pub fn fmt_pct(c: &SeedCi) -> String {
    use expstats::table::{pct, pct_ci};
    format!("{} {}", pct(c.mean), pct_ci(c.ci))
}

/// Render a [`SeedCi`] scaled by `factor` with `prec` decimals, e.g.
/// `factor = 1e-6` for Mb/s: `34.12 (33.80..34.44)`.
pub fn fmt_scaled(factor: f64, prec: usize) -> impl Fn(&SeedCi) -> String {
    move |c: &SeedCi| {
        format!(
            "{:.prec$} ({:.prec$}..{:.prec$})",
            c.mean * factor,
            c.ci.0 * factor,
            c.ci.1 * factor,
        )
    }
}

/// One labeled row of a figure table.
#[derive(Debug, Clone, PartialEq)]
pub struct FigRow {
    /// Row label (first column).
    pub label: String,
    /// Data cells (columns after the label).
    pub cells: Vec<FigCell>,
}

/// One table of a figure (most figures have exactly one; e.g. Figure 7
/// has the cell-mean grid plus the estimand contrasts).
#[derive(Debug, Clone, PartialEq)]
pub struct FigTable {
    /// Sub-table name ("" when the figure has a single table).
    pub name: String,
    /// Column headers, including the label column's header.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<FigRow>,
}

/// One (possibly uncertainty-banded) series of a time-series figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigSeries {
    /// Series label.
    pub label: String,
    /// Per-index values (hour buckets for the §4/§5 time series).
    pub values: Vec<f64>,
    /// Optional per-index 95% CI half-widths (cross-seed).
    pub half_widths: Option<Vec<f64>>,
}

/// The one output contract every figure emits through: identity
/// (figure id, git revision, seed count, quick flag), tables and/or
/// series, free-form notes, and the warnings that used to be silent
/// `continue`s.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// Stable figure id (`fig10`, `ablation_nw_lag`, …) — also the
    /// `figures` module name and the key in the merged `figures.json`.
    pub id: String,
    /// Human title line.
    pub title: String,
    /// Replications behind cross-seed cells (0 = deterministic figure).
    pub seeds: usize,
    /// Whether this report was produced under `FIG_QUICK=1`.
    pub quick: bool,
    /// Short git revision the report was generated at.
    pub git_rev: String,
    /// Tables, in display order.
    pub tables: Vec<FigTable>,
    /// Time series, in display order.
    pub series: Vec<FigSeries>,
    /// Trailing commentary (the "(paper: …)" lines).
    pub notes: Vec<String>,
    /// Estimator failures and other anomalies — rendered in text, JSON,
    /// and on stderr, never dropped.
    pub warnings: Vec<String>,
}

impl FigureReport {
    /// New report; captures the git revision and the quick flag from the
    /// environment.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> FigureReport {
        FigureReport {
            id: id.into(),
            title: title.into(),
            seeds: 0,
            quick: quick(),
            git_rev: git_rev(),
            tables: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// Set the replication count shown in the subtitle.
    pub fn seeds(mut self, n: usize) -> FigureReport {
        self.seeds = n;
        self
    }

    /// Override the git revision (golden tests need byte-stable output).
    pub fn with_git_rev(mut self, rev: impl Into<String>) -> FigureReport {
        self.git_rev = rev.into();
        self
    }

    /// Override the quick flag (golden tests pin it).
    pub fn with_quick(mut self, quick: bool) -> FigureReport {
        self.quick = quick;
        self
    }

    /// Append a table; returns its index for [`FigureReport::row`].
    pub fn add_table(&mut self, name: &str, columns: Vec<&str>) -> usize {
        self.tables.push(FigTable {
            name: name.to_string(),
            columns: columns.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        });
        self.tables.len() - 1
    }

    /// Append a row to table `table`.
    pub fn row(&mut self, table: usize, label: impl Into<String>, cells: Vec<FigCell>) {
        self.tables[table].rows.push(FigRow {
            label: label.into(),
            cells,
        });
    }

    /// Append a series without an uncertainty band.
    pub fn series(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.series.push(FigSeries {
            label: label.into(),
            values,
            half_widths: None,
        });
    }

    /// Append a series with per-index 95% half-widths.
    pub fn series_with_ci(
        &mut self,
        label: impl Into<String>,
        values: Vec<f64>,
        half_widths: Vec<f64>,
    ) {
        self.series.push(FigSeries {
            label: label.into(),
            values,
            half_widths: Some(half_widths),
        });
    }

    /// Append a trailing note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Record a warning (estimator failure, degenerate cell, …).
    pub fn warn(&mut self, s: impl Into<String>) {
        self.warnings.push(s.into());
    }

    /// Cross-seed cell for a per-seed estimator that may fail.
    ///
    /// This is the fix for the old `else { continue; }` pattern: a
    /// failing estimator produces a warning naming the cell and the
    /// error (plus how many seeds failed) and a visible `-` cell, never
    /// a silently missing table entry. Failed seeds are dropped from the
    /// CI (via NaN and [`metric_ci`]'s finite filter).
    pub fn estimator_cell<R>(
        &mut self,
        runs: &[SeedRun<R>],
        context: &str,
        fmt: impl Fn(&SeedCi) -> String,
        est: impl Fn(&R) -> Result<f64, String>,
    ) -> FigCell {
        let mut failures: Vec<(u64, String)> = Vec::new();
        let vals: Vec<SeedRun<f64>> = runs
            .iter()
            .map(|r| SeedRun {
                seed: r.seed,
                result: match est(&r.result) {
                    Ok(v) => v,
                    Err(e) => {
                        failures.push((r.seed, e));
                        f64::NAN
                    }
                },
            })
            .collect();
        if let Some((seed, first)) = failures.first() {
            self.warn(format!(
                "{context}: estimator failed on {}/{} seeds (seed {seed}: {first})",
                failures.len(),
                runs.len(),
            ));
        }
        match metric_ci(&vals, 0.95, |&v| v) {
            Ok(ci) => {
                let text = fmt(&ci);
                FigCell::ci(&ci, text)
            }
            Err(e) => {
                self.warn(format!("{context}: no cross-seed CI ({e})"));
                FigCell::missing()
            }
        }
    }

    /// Infallible variant of [`FigureReport::estimator_cell`].
    pub fn metric_cell<R>(
        &mut self,
        runs: &[SeedRun<R>],
        context: &str,
        fmt: impl Fn(&SeedCi) -> String,
        metric: impl Fn(&R) -> f64,
    ) -> FigCell {
        self.estimator_cell(runs, context, fmt, |r| Ok(metric(r)))
    }

    /// The standard subtitle: `[id · N seeds · mean ± 95% CI · git rev]`.
    fn subtitle(&self) -> String {
        let mut s = format!("[{}", self.id);
        if self.seeds > 0 {
            let _ = write!(s, " · {} seeds · mean ± 95% CI", self.seeds);
        } else {
            s.push_str(" · single run");
        }
        let _ = write!(s, " · git {}", self.git_rev);
        if self.quick {
            s.push_str(" · quick mode");
        }
        s.push(']');
        s
    }

    /// Render the human-readable form.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", self.subtitle());
        for table in &self.tables {
            let _ = writeln!(out);
            if !table.name.is_empty() {
                let _ = writeln!(out, "{}", table.name);
            }
            let mut t =
                expstats::table::Table::new(table.columns.iter().map(String::as_str).collect());
            for row in &table.rows {
                let mut cells = vec![row.label.clone()];
                cells.extend(row.cells.iter().map(|c| c.text.clone()));
                t.row(cells);
            }
            let _ = write!(out, "{}", t.render());
        }
        if !self.series.is_empty() {
            // All series print side by side in one hour-indexed table
            // (a banded series contributes a value and a "±" column).
            let _ = writeln!(out);
            let mut header = vec!["hour".to_string()];
            for s in &self.series {
                header.push(s.label.clone());
                if s.half_widths.is_some() {
                    header.push("±".to_string());
                }
            }
            let mut t = expstats::table::Table::new(header);
            let len = self
                .series
                .iter()
                .map(|s| s.values.len())
                .max()
                .unwrap_or(0);
            for h in 0..len {
                let mut row = vec![format!("{h}")];
                for s in &self.series {
                    row.push(
                        s.values
                            .get(h)
                            .map(|v| format!("{v:.3}"))
                            .unwrap_or_default(),
                    );
                    if let Some(w) = &s.half_widths {
                        row.push(w.get(h).map(|v| format!("{v:.3}")).unwrap_or_default());
                    }
                }
                t.row(row);
            }
            let _ = write!(out, "{}", t.render());
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "{n}");
            }
        }
        if !self.warnings.is_empty() {
            let _ = writeln!(out);
            for w in &self.warnings {
                let _ = writeln!(out, "warning: {w}");
            }
        }
        out
    }

    /// Render the machine-readable form (always a valid JSON document;
    /// non-finite numbers become `null`).
    pub fn to_json(&self) -> String {
        use json::{escape, fmt_f64};
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "  \"id\": \"{}\",", escape(&self.id));
        let _ = writeln!(o, "  \"title\": \"{}\",", escape(&self.title));
        let _ = writeln!(o, "  \"git_rev\": \"{}\",", escape(&self.git_rev));
        let _ = writeln!(o, "  \"quick\": {},", self.quick);
        let _ = writeln!(o, "  \"seeds\": {},", self.seeds);
        o.push_str("  \"tables\": [");
        for (ti, table) in self.tables.iter().enumerate() {
            o.push_str(if ti == 0 { "\n" } else { ",\n" });
            let _ = writeln!(o, "    {{\n      \"name\": \"{}\",", escape(&table.name));
            let cols: Vec<String> = table
                .columns
                .iter()
                .map(|c| format!("\"{}\"", escape(c)))
                .collect();
            let _ = writeln!(o, "      \"columns\": [{}],", cols.join(", "));
            o.push_str("      \"rows\": [");
            for (ri, row) in table.rows.iter().enumerate() {
                o.push_str(if ri == 0 { "\n" } else { ",\n" });
                let _ = write!(
                    o,
                    "        {{ \"label\": \"{}\", \"cells\": [",
                    escape(&row.label)
                );
                for (ci, cell) in row.cells.iter().enumerate() {
                    if ci > 0 {
                        o.push_str(", ");
                    }
                    let _ = write!(o, "{{ \"text\": \"{}\"", escape(&cell.text));
                    if let Some(mean) = cell.mean {
                        let _ = write!(o, ", \"mean\": {}", fmt_f64(mean));
                    }
                    if let Some((lo, hi)) = cell.ci {
                        let _ = write!(o, ", \"ci\": [{}, {}]", fmt_f64(lo), fmt_f64(hi));
                    }
                    if let Some(n) = cell.n {
                        let _ = write!(o, ", \"n\": {n}");
                    }
                    o.push_str(" }");
                }
                o.push_str("] }");
            }
            if !table.rows.is_empty() {
                o.push_str("\n      ");
            }
            o.push_str("]\n    }");
        }
        if !self.tables.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n");
        o.push_str("  \"series\": [");
        for (si, s) in self.series.iter().enumerate() {
            o.push_str(if si == 0 { "\n" } else { ",\n" });
            let _ = write!(
                o,
                "    {{ \"label\": \"{}\", \"values\": [",
                escape(&s.label)
            );
            let vals: Vec<String> = s.values.iter().map(|&v| fmt_f64(v)).collect();
            o.push_str(&vals.join(", "));
            o.push(']');
            if let Some(w) = &s.half_widths {
                let ws: Vec<String> = w.iter().map(|&v| fmt_f64(v)).collect();
                let _ = write!(o, ", \"half_widths\": [{}]", ws.join(", "));
            }
            o.push_str(" }");
        }
        if !self.series.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        let _ = writeln!(o, "  \"notes\": [{}],", notes.join(", "));
        let warns: Vec<String> = self
            .warnings
            .iter()
            .map(|w| format!("\"{}\"", escape(w)))
            .collect();
        let _ = writeln!(o, "  \"warnings\": [{}]", warns.join(", "));
        o.push_str("}\n");
        debug_assert!(json::validate(&o).is_ok(), "harness emitted invalid JSON");
        o
    }

    /// Emit the report: text to stdout, warnings additionally to stderr.
    pub fn emit(&self) {
        print!("{}", self.render_text());
        for w in &self.warnings {
            eprintln!("warning: {}: {w}", self.id);
        }
    }
}

/// A quick-mode aware seed sweep of the paired-link world; figures
/// aggregate its runs with [`FigureReport::estimator_cell`] /
/// [`metric_ci`].
pub struct PairedSweep {
    /// Per-seed session records, in seed order.
    pub runs: Vec<SeedRun<Dataset>>,
    /// Horizon actually simulated (quick mode may shorten it).
    pub days: usize,
}

impl PairedSweep {
    /// Replication count.
    pub fn replications(&self) -> usize {
        self.runs.len()
    }
}

/// Run the paper's main experiment ([`paired_link_experiment`]) under
/// `replications(full_reps)` seeds forked from `root_seed`, honoring
/// quick mode for scale and horizon.
pub fn paired_sweep(
    full_scale: f64,
    full_days: usize,
    root_seed: u64,
    full_reps: usize,
) -> PairedSweep {
    sweep_paired_world(
        full_scale,
        full_days,
        root_seed,
        full_reps,
        paired_link_experiment,
    )
}

/// Seed sweep of the no-treatment baseline world (both links scheduled
/// to 0%), quick-mode aware — the A/A and baseline-similarity figures.
pub fn baseline_sweep(
    full_scale: f64,
    full_days: usize,
    root_seed: u64,
    full_reps: usize,
) -> PairedSweep {
    sweep_paired_world(full_scale, full_days, root_seed, full_reps, |cfg, seed| {
        let paired = PairedSim {
            cfg: cfg.clone(),
            schedules: [AllocationSchedule::none(), AllocationSchedule::none()],
            seed,
        };
        Dataset::new(paired.run())
    })
}

/// Sweep `world` over the quick-mode aware [`crate::paired_config`] and
/// replication seeds.
fn sweep_paired_world(
    full_scale: f64,
    full_days: usize,
    root_seed: u64,
    full_reps: usize,
    world: impl Fn(&StreamConfig, u64) -> Dataset + Sync,
) -> PairedSweep {
    let days = stream_days(full_days);
    let cfg = crate::paired_config(stream_scale(full_scale), days);
    let seeds = derive_seeds(root_seed, replications(full_reps));
    PairedSweep {
        runs: Runner::new().sweep(&cfg, &seeds, world),
        days,
    }
}

/// Column-wise cross-seed mean and 95% half-width over per-seed series
/// (thin wrapper over [`expstats::columnwise_mean_ci`]).
pub fn series_ci(per_seed: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    expstats::columnwise_mean_ci(per_seed, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_cell_reports_failures_instead_of_skipping() {
        let runs: Vec<SeedRun<f64>> = (0..4u64)
            .map(|s| SeedRun {
                seed: s,
                result: s as f64,
            })
            .collect();
        let mut rep = FigureReport::new("t", "t");
        let cell = rep.estimator_cell(&runs, "switchback/throughput", fmt_pct, |&v| {
            if v < 1.0 {
                Err("rank deficient".to_string())
            } else {
                Ok(v)
            }
        });
        assert_eq!(cell.n, Some(3));
        assert_eq!(rep.warnings.len(), 1);
        assert!(rep.warnings[0].contains("switchback/throughput"));
        assert!(rep.warnings[0].contains("1/4 seeds"));
        assert!(rep.warnings[0].contains("rank deficient"));

        // Every seed failing: visible missing cell + a second warning.
        let cell = rep.estimator_cell(&runs, "event study/min rtt", fmt_pct, |_| {
            Err("no data".to_string())
        });
        assert_eq!(cell, FigCell::missing());
        assert!(rep.warnings.iter().any(|w| w.contains("no cross-seed CI")));
        let text = rep.render_text();
        assert!(text.contains("warning: event study/min rtt"));
    }

    #[test]
    fn quick_helpers_clamp_only_in_quick_mode() {
        // The test environment does not set FIG_QUICK; full values pass
        // through untouched.
        if !quick() {
            assert_eq!(replications(8), 8);
            assert_eq!(stream_days(5), 5);
            assert_eq!(stream_scale(0.35), 0.35);
        }
    }

    #[test]
    fn json_output_is_valid_with_nan_cells() {
        let mut rep = FigureReport::new("figx", "title with \"quotes\"")
            .seeds(3)
            .with_git_rev("deadbee")
            .with_quick(false);
        let t = rep.add_table("", vec!["metric", "TTE"]);
        rep.row(
            t,
            "throughput",
            vec![FigCell::value(f64::NAN, "nan cell".to_string())],
        );
        rep.series_with_ci("link1", vec![1.0, f64::NAN], vec![0.1, f64::NAN]);
        rep.note("a note");
        rep.warn("a warning");
        let j = rep.to_json();
        json::validate(&j).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{j}"));
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("id").and_then(json::Value::as_str), Some("figx"));
        assert_eq!(v.get("seeds").and_then(json::Value::as_f64), Some(3.0));
    }
}
