//! Figure-harness contract tests: golden text/JSON rendering and
//! end-to-end quick-mode determinism of a real figure.

use repro_bench::figharness::{fmt_pct, FigureReport};
use repro_bench::json;
use repro_bench::{FigCell, SeedCi};

fn sample_report() -> FigureReport {
    let mut rep = FigureReport::new("figx", "Figure X: a \"sample\" figure")
        .seeds(4)
        .with_git_rev("abc1234")
        .with_quick(false);
    let ci = SeedCi {
        mean: 0.1234,
        ci: (0.10, 0.15),
        se: 0.01,
        n: 4,
    };
    let t = rep.add_table("", vec!["metric", "TTE", "flag"]);
    rep.row(
        t,
        "throughput",
        vec![FigCell::ci(&ci, fmt_pct(&ci)), FigCell::text("YES")],
    );
    rep.row(t, "min RTT", vec![FigCell::missing(), FigCell::text("")]);
    let t2 = rep.add_table("points", vec!["k", "value"]);
    rep.row(t2, "0", vec![FigCell::value(1.5, "1.500")]);
    rep.series_with_ci(
        "link1",
        vec![1.0, 0.5, f64::NAN],
        vec![0.25, 0.125, f64::NAN],
    );
    rep.note("(a closing note)");
    rep.warn("event study/min RTT: estimator failed on 4/4 seeds (seed 7: too few observations)");
    rep
}

/// The text rendering is part of the output contract: figures
/// are diffed across revisions and the CI smoke logs are read by
/// humans, so a formatting change must be deliberate.
#[test]
fn golden_text_rendering() {
    let expected = "\
Figure X: a \"sample\" figure
[figx · 4 seeds · mean ± 95% CI · git abc1234]

metric                          TTE  flag
-----------------------------------------
throughput  +12.3% [+10.0%, +15.0%]   YES
min RTT                           -

points
k  value
--------
0  1.500

hour  link1      ±
------------------
0     1.000  0.250
1     0.500  0.125
2       NaN    NaN

(a closing note)

warning: event study/min RTT: estimator failed on 4/4 seeds (seed 7: too few observations)
";
    assert_eq!(sample_report().render_text(), expected);
}

/// The JSON rendering is the machine half of the contract (consumed by
/// `figures --json` and the CI artifact); it must stay byte-stable and
/// valid, with NaN mapped to null.
#[test]
fn golden_json_rendering() {
    let expected = r#"{
  "id": "figx",
  "title": "Figure X: a \"sample\" figure",
  "git_rev": "abc1234",
  "quick": false,
  "seeds": 4,
  "tables": [
    {
      "name": "",
      "columns": ["metric", "TTE", "flag"],
      "rows": [
        { "label": "throughput", "cells": [{ "text": "+12.3% [+10.0%, +15.0%]", "mean": 0.1234, "ci": [0.1, 0.15], "n": 4 }, { "text": "YES" }] },
        { "label": "min RTT", "cells": [{ "text": "-" }, { "text": "" }] }
      ]
    },
    {
      "name": "points",
      "columns": ["k", "value"],
      "rows": [
        { "label": "0", "cells": [{ "text": "1.500", "mean": 1.5 }] }
      ]
    }
  ],
  "series": [
    { "label": "link1", "values": [1.0, 0.5, null], "half_widths": [0.25, 0.125, null] }
  ],
  "notes": ["(a closing note)"],
  "warnings": ["event study/min RTT: estimator failed on 4/4 seeds (seed 7: too few observations)"]
}
"#;
    let got = sample_report().to_json();
    assert_eq!(got, expected);
    json::validate(&got).expect("golden JSON parses");
}

/// Run a real figure twice in quick mode: stdout and the JSON document
/// must be bit-identical across invocations (same seeds ⇒ same bytes —
/// the property that makes figure output diffable across revisions and
/// the runner's parallelism invisible).
#[test]
fn quick_mode_figure_run_is_deterministic() {
    let base = std::env::temp_dir().join(format!("figharness-det-{}", std::process::id()));
    std::fs::create_dir_all(&base).expect("create scratch dir");
    let run = |tag: &str| {
        let json_path = base.join(format!("{tag}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .env("FIG_QUICK", "1")
            .args(["table_baseline_similarity", "--json"])
            .arg(&json_path)
            .output()
            .expect("run the figures program");
        assert!(
            out.status.success(),
            "figure failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read(&json_path).expect("figures wrote JSON");
        (out.stdout, doc)
    };
    let (stdout_a, json_a) = run("a");
    let (stdout_b, json_b) = run("b");
    std::fs::remove_dir_all(&base).ok();

    assert_eq!(stdout_a, stdout_b, "stdout differs between identical runs");
    assert_eq!(json_a, json_b, "JSON differs between identical runs");

    // And the report satisfies the machine contract.
    let doc = json::parse(std::str::from_utf8(&json_a).unwrap()).expect("valid JSON");
    let parsed = doc
        .get("figures")
        .and_then(|f| f.get("table_baseline_similarity"))
        .expect("the figure's report");
    assert_eq!(
        parsed.get("id").and_then(json::Value::as_str),
        Some("table_baseline_similarity")
    );
    assert_eq!(parsed.get("quick"), Some(&json::Value::Bool(true)));
    let seeds = parsed.get("seeds").and_then(json::Value::as_f64).unwrap();
    assert!(seeds >= 2.0, "quick mode still sweeps multiple seeds");
}
