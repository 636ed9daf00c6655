//! Every figure and table of the reproduction, in one program.
//!
//! Usage: `figures [--json <out.json>] [<id>...]`
//!
//! With no ids it runs every figure; with ids, those figures, in
//! registry order. An unknown id fails before any figure runs. Each
//! figure's text report goes to stdout and its warnings to stderr,
//! followed by one `figures: <id> <ms> ms` wall-time line on stderr.
//! `--json` writes the merged machine-readable document: the `git_rev`
//! line, then every report keyed by its id. Under `FIG_QUICK=1` the
//! full run is the one `crates/bench/figures.quick.json` pins.

use std::process::ExitCode;
use std::time::Instant;

use repro_bench::figharness::{git_rev, FigureReport};
use repro_bench::json;

/// Declares one module per figure and the registry that runs them:
/// each id is the module name and the report id.
macro_rules! figures {
    ($($id:ident),* $(,)?) => {
        $(mod $id;)*

        /// Every figure as `(id, report)`, in the merged document's order.
        const FIGURES: &[(&str, fn() -> FigureReport)] = &[$((stringify!($id), $id::report)),*];
    };
}

figures!(
    fig1,
    fig2a,
    fig2b,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    ablation_ack_aggregation,
    ablation_fig3_buffer,
    ablation_nw_lag,
    table_baseline_similarity,
    aa_calibration,
    quantile_effects,
    sec5_gradual_deployment,
    fleet_design_comparison,
    fleet_aggregation_ci,
    fleet_telemetry_bias,
    fleet_routing_spillover,
);

fn main() -> ExitCode {
    let mut out = None;
    let mut ids = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let Some(path) = args.next() else {
                eprintln!("usage: figures [--json <out.json>] [<id>...]");
                return ExitCode::FAILURE;
            };
            out = Some(path);
        } else {
            ids.push(arg);
        }
    }
    if let Some(bad) = ids.iter().find(|&id| FIGURES.iter().all(|(f, _)| f != id)) {
        let valid: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "figures: unknown id {bad:?}; valid ids: {}",
            valid.join(" ")
        );
        return ExitCode::FAILURE;
    }

    let mut entries = Vec::new();
    for (id, report) in FIGURES {
        if !ids.is_empty() && !ids.iter().any(|i| i == id) {
            continue;
        }
        let start = Instant::now();
        let rep = report();
        assert_eq!(rep.id, *id, "figure {id} reports under another id");
        rep.emit();
        eprintln!("figures: {id} {} ms", start.elapsed().as_millis());
        // Re-indent the report under its key.
        let indented = rep.to_json().trim_end().replace('\n', "\n    ");
        entries.push(format!("    \"{id}\": {indented}"));
    }
    let Some(out) = out else {
        return ExitCode::SUCCESS;
    };
    let merged = format!(
        "{{\n  \"git_rev\": \"{}\",\n  \"figures\": {{\n{}\n  }}\n}}\n",
        json::escape(&git_rev()),
        entries.join(",\n")
    );
    if let Err(e) = json::validate(&merged) {
        eprintln!("figures: merged document is invalid JSON: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, merged) {
        eprintln!("figures: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
