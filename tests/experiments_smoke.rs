//! Smoke tests for the reproduction harness.

use oc_experiments::common::{Opts, Scale};
use oc_experiments::{registry, resolve, ALL};
use std::collections::HashSet;

/// Unknown experiment ids fail with a helpful message.
#[test]
fn unknown_experiment_is_rejected() {
    let msg = resolve(&["fig99"]).unwrap_err();
    assert!(msg.contains("unknown experiment"));
    assert!(
        msg.contains("fig10"),
        "message should list known ids: {msg}"
    );
}

/// Every id and alias is unique and resolves to its experiment, and `all`
/// runs the paper's figures in order, then the extensions (identity check
/// only: nothing runs here).
#[test]
fn all_ids_are_known() {
    let mut seen = HashSet::new();
    for exp in registry() {
        for id in std::iter::once(&exp.id).chain(exp.aliases) {
            assert!(seen.insert(*id), "duplicate id {id}");
            let plan = resolve(&[id]).unwrap();
            assert_eq!(plan.len(), 1);
            assert!(std::ptr::eq(plan[0], exp), "{id}");
        }
    }
    assert!(!seen.contains("all"));
    let all: Vec<&str> = resolve(&["all"]).unwrap().iter().map(|e| e.id).collect();
    assert_eq!(
        all,
        [
            "fig1",
            "table1",
            "fig3",
            "fig4",
            "fig6",
            "fig7a",
            "fig7b",
            "fig7c",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "autopilot",
            "seasonal",
            "powercap"
        ]
    );
    assert_eq!(all.len(), ALL.len());
}

/// One real end-to-end experiment pass, writing CSV to a temp directory.
/// Debug builds make this the slowest test in the workspace, so it is
/// ignored by default; CI and `repro all` cover the release path.
///
/// ```text
/// cargo test --release --test experiments_smoke -- --ignored
/// ```
#[test]
#[ignore = "runs a quick-scale experiment; use --release"]
fn fig4_end_to_end() {
    let dir = std::env::temp_dir().join("oc-experiments-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let opts = Opts {
        scale: Scale::Quick,
        threads: 2,
        results: dir.clone(),
        plot: false,
        seed: None,
    };
    for exp in resolve(&["fig4"]).unwrap() {
        oc_experiments::run(exp, &opts).unwrap();
    }
    let csv = std::fs::read_to_string(dir.join("fig4.csv")).unwrap();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("series,x,cdf"));
    assert!(lines.count() > 100, "fig4 CSV suspiciously small");
}
