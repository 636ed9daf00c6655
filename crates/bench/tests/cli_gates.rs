//! The CI gate binary, driven end to end as a subprocess: the paths a
//! green CI run never exercises — hard-fail exits — must be pinned by
//! tests, or a refactor can silently turn a gate into a no-op.

use std::path::PathBuf;
use std::process::{Command, Output};

use repro_bench::figharness::EXPECTED_FIGURES;

/// Fresh scratch directory under the target tmpdir, per test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("spawn gate binary")
}

/// Write a minimal valid report for every expected figure id.
fn write_all_reports(dir: &std::path::Path) {
    for (id, _) in EXPECTED_FIGURES {
        std::fs::write(
            dir.join(format!("{id}.json")),
            format!("{{\"id\": \"{id}\"}}\n"),
        )
        .unwrap();
    }
}

#[test]
fn figures_merge_accepts_complete_set_and_rejects_mislabeled_report() {
    let dir = scratch("figmerge");
    write_all_reports(&dir);
    let out_path = dir.join("figures.json");
    let ok = run(
        env!("CARGO_BIN_EXE_figures_merge"),
        &[dir.to_str().unwrap(), out_path.to_str().unwrap()],
    );
    assert!(
        ok.status.success(),
        "complete report set must merge; stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(out_path.exists(), "merged artifact must be written");

    // Now mislabel one report: the file is valid JSON at the right
    // path, but its `"id"` names a different figure — the exact shape
    // of a copy-paste bug in a new figure binary. Hard error.
    let (first_id, _) = EXPECTED_FIGURES[0];
    std::fs::write(
        dir.join(format!("{first_id}.json")),
        "{\"id\": \"some_other_figure\"}\n",
    )
    .unwrap();
    let bad = run(
        env!("CARGO_BIN_EXE_figures_merge"),
        &[dir.to_str().unwrap(), out_path.to_str().unwrap()],
    );
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        !bad.status.success(),
        "mislabeled report must fail the merge; stderr: {stderr}"
    );
    assert!(
        stderr.contains(first_id) && stderr.contains("some_other_figure"),
        "expected the mismatch to name both ids, got: {stderr}"
    );
}

#[test]
fn figures_merge_list_prints_every_figure_binary() {
    // The CI figure-smoke job loops over `--list`; it must emit exactly
    // the binary column of EXPECTED_FIGURES, one per line.
    let out = run(env!("CARGO_BIN_EXE_figures_merge"), &["--list"]);
    assert!(out.status.success());
    let listed: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    let expected: Vec<&str> = EXPECTED_FIGURES.iter().map(|(_, b)| *b).collect();
    assert_eq!(listed, expected);
}
