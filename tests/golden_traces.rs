//! Golden-trace pinning: each scenario in [`experiments::golden`] must
//! reproduce its checked-in summary byte-for-byte, and must reproduce it
//! again with the invariant audit enabled (proving the audit is purely
//! observational) with zero violations.
//!
//! On an intentional behavior change, regenerate the files with
//! `GOLDEN_BLESS=1 cargo test -p experiments --test golden_traces` and
//! review the diff like any other code change.

use experiments::golden::{cases, summarize, GoldenOpts};
use experiments::SchedKind;
use simcore::Time;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1")
}

#[test]
fn golden_traces_match_the_pinned_summaries() {
    let dir = golden_dir();
    let mut mismatches = Vec::new();
    for case in cases() {
        let got = summarize(&(case.run)(GoldenOpts::default()));
        let path = dir.join(format!("{}.txt", case.name));
        if blessing() {
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, &got).expect("write golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with GOLDEN_BLESS=1 to create it",
                path.display()
            )
        });
        if got != want {
            mismatches.push(format!(
                "== {} drifted from {} ==\n-- pinned --\n{want}\n-- got --\n{got}",
                case.name,
                path.display()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "behavioral drift against golden traces \
         (GOLDEN_BLESS=1 regenerates after review):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_traces_are_identical_and_clean_under_audit() {
    for case in cases() {
        let plain = summarize(&(case.run)(GoldenOpts::default()));
        let res = (case.run)(GoldenOpts::audited(true));
        let audited = summarize(&res);
        assert_eq!(
            plain, audited,
            "{}: enabling the audit changed the simulation",
            case.name
        );
        let report = res.audit.as_ref().expect("audit enabled");
        assert_eq!(
            report.total_violations, 0,
            "{}: audit violations {:?}",
            case.name, report.violations
        );
    }
}

/// Snapshot/resume is bit-exact: interrupting each golden case mid-run,
/// snapshotting, and finishing on the restored simulator must reproduce
/// the uninterrupted summary byte-for-byte — at an early horizon (probing
/// the slow-start / PFC ramp) and a late one (deep steady state).
#[test]
fn golden_traces_survive_snapshot_resume() {
    for case in cases() {
        let straight = summarize(&(case.run)(GoldenOpts::default()));
        for at_ms in [1u64, 6] {
            let resumed = summarize(&(case.run)(GoldenOpts::resumed(Time::from_ms(at_ms))));
            assert_eq!(
                straight, resumed,
                "{}: snapshot/resume at {at_ms} ms changed the simulation",
                case.name
            );
        }
    }
}

/// Scheduler backends are pure performance knobs: every golden case must
/// summarize byte-for-byte identically under the binary heap and the
/// calendar queue. This pins the backends against the *full*
/// simulator (PFC, ECN, traces, monitors), not just the microbenchmark
/// surface the differential property test covers.
#[test]
fn golden_traces_are_bit_identical_across_scheduler_backends() {
    for case in cases() {
        let baseline = summarize(&(case.run)(GoldenOpts::on(SchedKind::Binary)));
        let got = summarize(&(case.run)(GoldenOpts::on(SchedKind::Calendar)));
        assert_eq!(
            baseline, got,
            "{}: the calendar queue changed the simulation",
            case.name
        );
    }
}
