#!/usr/bin/env bash
# Full CI gauntlet, in escalating order of strictness:
#
#   1. simlint: the workspace static-analysis pass (token rules R1-R8 plus
#      the symbol-index semantic passes: crate/module layering,
#      shared-state, event-exhaustiveness) must report zero unallowed
#      findings; the machine-readable report lands in target/simlint.json
#      as a CI artifact, and a stale simlint.baseline (file present, scan
#      clean) fails the leg;
#   2. clippy: `cargo clippy --workspace --all-targets -- -D warnings`
#      (skipped with a warning if the toolchain has no clippy component);
#   3. tier-1: release build + full test suite (includes the property
#      fleets and the golden-trace diffs);
#   4. audit compile-out: netsim must build with the audit layer compiled
#      out entirely (--no-default-features);
#   5. audited e2e: the whole experiments test suite rerun with the
#      invariant audit enabled on every Sim, panicking on any violation —
#      this includes the packet-arena live/free accounting invariant; the
#      arena- and audit-focused suites then rerun with the deep scan forced
#      to every event boundary (PRIOPLUS_AUDIT_DEEP=1) so arena reference
#      counts are verified at maximum granularity;
#   6. hybrid model: the packet/fluid e2e suite rerun with the audit (and
#      its per-port fluid mass-conservation invariant) force-enabled on
#      every Sim and the deep scan at every event — zero-background
#      bit-identity, the conservation property fleet, and the
#      FluidDrainLeak detection test all under maximum audit granularity;
#   7. fault regimes: the fault e2e matrix (link flaps, degradation,
#      pause storms, the PFC deadlock monitor) rerun with the audit
#      force-enabled, panicking on violations, and the deep scan at every
#      event — conservation under failure at maximum granularity (the
#      detector tests install their own non-panicking audit, so expected
#      violations don't trip the panic switch);
#   8. hyperscale smoke: the downscaled (k=8 fat-tree) open-loop
#      hyperscale suite rerun with the audit force-enabled, panicking on
#      violations, and the deep scan forced to a tight cadence — the
#      flow-slab reclamation sweep (FlowStateLeak) and occupancy
#      cross-check run thousands of times over streamed arrivals;
#   9. snapshot/resume: the snapshot e2e suite (CC matrix × both
#      scheduler backends, resume-at-T bit-identity, the completeness
#      tamper fleet, the warm-start differential) plus the golden-trace
#      resume test, rerun with the audit force-enabled and panicking —
#      the audit mirror rides in the snapshot, so a restore that loses
#      conservation state fails here loudly;
#  10. scheduler matrix: tier-1 tests rerun with PRIOPLUS_SCHED=binary, so
#      every code path pinned on the calendar-queue default (unit, e2e,
#      golden) also runs — and stays bit-identical — on the reference
#      binary heap;
#  11. benchmark build: the repository benchmark (perfbench/, a package
#      of its own outside the workspace) is built and its unit tests run,
#      so a crate API change that breaks it (add_flow, ArrivalSource,
#      run_warm, snapshot) fails here rather than when the benchmark runs.
#
# Each leg prints its wall time on completion.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

LEG_START=$SECONDS
leg_done() {
  echo "--- leg wall time: $(( SECONDS - LEG_START ))s ---"
  LEG_START=$SECONDS
}

# Refuse to run the matrix with a typo'd scheduler override in the
# environment: the library would warn and silently fall back to the
# calendar queue, and every leg below would quietly test the wrong
# backend. Fail loudly here instead. Keep this list in sync with
# `simcore::sched::from_env_value` (tested by `env_value_parse_contract`).
if [[ -n "${PRIOPLUS_SCHED:-}" ]]; then
  case "${PRIOPLUS_SCHED}" in
    binary|calendar) ;;
    *)
      echo "ci.sh: unknown PRIOPLUS_SCHED value '${PRIOPLUS_SCHED}'" >&2
      echo "ci.sh: valid: binary, calendar" >&2
      exit 2
      ;;
  esac
fi

echo "=== [1/11] simlint: workspace static analysis ==="
cargo run --release -q -p simlint -- --json target/simlint.json
echo "ci.sh: JSON report written to target/simlint.json"
leg_done

echo
echo "=== [2/11] clippy (-D warnings) ==="
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "ci.sh: WARNING: clippy not installed on this toolchain, skipping" >&2
fi
leg_done

echo
echo "=== [3/11] tier-1: release build + tests ==="
cargo build --release
cargo test -q
leg_done

echo
echo "=== [4/11] audit compiles out (netsim --no-default-features) ==="
cargo build --release -p netsim --no-default-features
leg_done

echo
echo "=== [5/11] audit-enabled e2e suite (violations are fatal) ==="
PRIOPLUS_AUDIT=1 PRIOPLUS_AUDIT_PANIC=1 \
  cargo test -q --release -p experiments
echo "--- arena accounting at every event boundary (deep scan forced) ---"
PRIOPLUS_AUDIT=1 PRIOPLUS_AUDIT_PANIC=1 PRIOPLUS_AUDIT_DEEP=1 \
  cargo test -q --release -p experiments --test e2e_arena --test e2e_audit
leg_done

echo
echo "=== [6/11] hybrid packet/fluid e2e (fluid conservation forced) ==="
PRIOPLUS_AUDIT=1 PRIOPLUS_AUDIT_PANIC=1 PRIOPLUS_AUDIT_DEEP=1 \
  cargo test -q --release -p experiments --test e2e_hybrid
leg_done

echo
echo "=== [7/11] fault-regime e2e (deadlock monitor, conservation under failure) ==="
PRIOPLUS_AUDIT=1 PRIOPLUS_AUDIT_PANIC=1 PRIOPLUS_AUDIT_DEEP=1 \
  cargo test -q --release -p experiments --test e2e_faults
leg_done

echo
echo "=== [8/11] hyperscale smoke (k=8 open-loop, slab reclamation audited) ==="
# Deep cadence 256, not 1: the deep scan's flow sweep is O(flows), and the
# hyperscale suite runs thousands of streamed flows over millions of
# events — an every-event sweep is quadratic and takes >10 min. 256 still
# sweeps the slab thousands of times per run (vs the default 64 it's a
# 4x-tighter *forced* floor independent of local env).
PRIOPLUS_AUDIT=1 PRIOPLUS_AUDIT_PANIC=1 PRIOPLUS_AUDIT_DEEP=256 \
  cargo test -q --release -p experiments --test e2e_hyperscale
leg_done

echo
echo "=== [9/11] snapshot/resume bit-identity (audited CC matrix) ==="
# The snapshot suite's headline test already audits both halves of every
# matrix run internally; forcing the audit on every Sim additionally
# covers the warm-start sweep and tamper-fleet simulators, and the panic
# switch turns any conservation drift across a snapshot boundary fatal.
PRIOPLUS_AUDIT=1 PRIOPLUS_AUDIT_PANIC=1 \
  cargo test -q --release -p experiments --test e2e_snapshot --test golden_traces
leg_done

echo
echo "=== [10/11] scheduler-backend matrix (binary) ==="
PRIOPLUS_SCHED=binary cargo test -q
leg_done

echo
echo "=== [11/11] benchmark build (perfbench unit tests) ==="
cargo test --release --manifest-path perfbench/Cargo.toml
leg_done


echo
echo "ci.sh: all gates passed (total: ${SECONDS}s)"
