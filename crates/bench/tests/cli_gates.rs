//! The `figures` program driven end to end as a subprocess: its
//! rejection of an unknown id is a path a green CI run never takes, and
//! the merged document it writes is what the CI golden diff reads.

use std::path::PathBuf;
use std::process::{Command, Output};

use repro_bench::json;

/// Fresh scratch directory under the target tmpdir, per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .env("FIG_QUICK", "1")
        .args(args)
        .output()
        .expect("spawn the figures program")
}

#[test]
fn unknown_id_fails_before_any_figure_runs() {
    let out_path = scratch("figures-unknown").join("figures.json");
    let out = figures(&["--json", out_path.to_str().unwrap(), "fig1", "fig4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "an unknown id must fail: {stderr}");
    assert!(
        stderr.contains("\"fig4\"")
            && stderr.contains("fig1")
            && stderr.contains("fleet_routing_spillover"),
        "expected the bad id and the valid ids, got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no figure may run");
    assert!(!out_path.exists(), "no document may be written");
}

#[test]
fn json_holds_exactly_the_selected_figures() {
    let out_path = scratch("figures-fig1").join("figures.json");
    let out = figures(&["--json", out_path.to_str().unwrap(), "fig1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&out_path).unwrap()).expect("valid JSON");
    assert!(doc.get("git_rev").and_then(json::Value::as_str).is_some());
    let Some(json::Value::Obj(figs)) = doc.get("figures") else {
        panic!("no figures object");
    };
    assert_eq!(figs.keys().collect::<Vec<_>>(), ["fig1"]);
    assert_eq!(
        figs["fig1"].get("id").and_then(json::Value::as_str),
        Some("fig1")
    );
}
