//! The workspace must be simlint-clean.
//!
//! `scripts/ci.sh` runs `cargo run -p simlint` as a CI leg, but this test
//! runs the same pass programmatically inside `cargo test`, so a
//! determinism-hazard regression (a stray `HashMap` in a sim-state crate, a
//! wall-clock `Instant`, an unseeded RNG call, ...) fails the ordinary test
//! suite too — not just the CI script.

use std::path::Path;

use simlint::{lint_workspace, Baseline};

fn workspace_root() -> &'static Path {
    // crates/simlint/../.. = the workspace root, independent of the
    // directory `cargo test` was invoked from.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint has a workspace root two levels up")
}

#[test]
fn workspace_has_no_unallowed_findings() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let report = lint_workspace(root).expect("lint pass reads the workspace");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); did the walker break?",
        report.files_scanned
    );

    // The committed baseline (if any) is honored, exactly as the CI leg
    // honors it: the goal is to ratchet it down to empty, not to bypass it.
    let baseline_path = root.join("simlint.baseline");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(_) => Baseline::default(),
    };

    let unallowed: Vec<String> = report
        .unallowed(&baseline)
        .map(|(path, f)| {
            format!(
                "{}:{}:{}: [{}] {}",
                path,
                f.line,
                f.col,
                f.rule.name(),
                f.message
            )
        })
        .collect();
    assert!(
        unallowed.is_empty(),
        "simlint found {} unallowed finding(s):\n{}\nfix the sites, annotate with \
         // simlint::allow(rule, reason), or ratchet with `cargo run -p simlint -- --fix-allowlist`",
        unallowed.len(),
        unallowed.join("\n")
    );
}

#[test]
fn semantic_passes_run_in_the_full_workspace_scan() {
    // The symbol-index passes (R9–R11) must actually be exercising the
    // tree, not silently indexing nothing: every first-party crate is
    // discovered, the module graphs cover the sim-state crates, and the
    // match index saw the event loop's dispatch sites.
    let root = workspace_root();
    let report = lint_workspace(root).expect("lint pass reads the workspace");
    let first_party = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().join("Cargo.toml").is_file())
        })
        .count();
    assert!(first_party >= 7, "crates/ holds only {first_party} crates");
    assert_eq!(
        report.crates_indexed, first_party,
        "expected every crate under crates/ in the index"
    );
    assert!(
        report.modules_indexed >= 20,
        "suspiciously few modules in the cycle scope ({})",
        report.modules_indexed
    );
    assert!(
        report.matches_indexed >= 50,
        "suspiciously few match expressions indexed ({})",
        report.matches_indexed
    );
}

#[test]
fn no_stale_baseline_is_committed() {
    // A baseline with nothing left to tolerate would silently mask the
    // next regression (entries pin rule+path+line, and lines drift). The
    // CLI refuses to run with one; the committed tree must not carry one.
    let root = workspace_root();
    let report = lint_workspace(root).expect("lint pass reads the workspace");
    if report.unallowed(&Baseline::default()).count() == 0 {
        assert!(
            !root.join("simlint.baseline").exists(),
            "the workspace scan is clean: delete simlint.baseline (a stale \
             ratchet masks future regressions)"
        );
    }
}

#[test]
fn allow_annotations_in_tree_all_carry_reasons() {
    // Defense in depth for the annotation grammar itself: every allow that
    // suppresses a finding must have parsed with a non-empty reason.
    let report = lint_workspace(workspace_root()).expect("lint pass reads the workspace");
    for (path, f) in &report.findings {
        if let Some(reason) = &f.allowed {
            assert!(
                !reason.trim().is_empty(),
                "{path}:{}: allow annotation with empty reason",
                f.line
            );
        }
    }
}
