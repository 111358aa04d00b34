//! End-to-end validation of the hybrid packet/fluid network model.
//!
//! Three claims are established here:
//!
//! 1. **Zero background is free**: with an empty background trace the
//!    hybrid machinery (fluid port registration, admission stamps, dequeue
//!    charge accounting, ECN occupancy) is a provable no-op — the Fluid
//!    run is bit-identical to the pure packet run, record for record and
//!    counter for counter, under every scheduler backend.
//! 2. **Fluid mass is conserved**: across a fleet of random background
//!    seeds and loads, the audit's `injected == drained + backlog`
//!    invariant holds on every fluid-loaded port with the deep scan run
//!    on every event.
//! 3. **The audit detects**: the `FluidDrainLeak` buggify (drained mass
//!    under-counted by one byte per settled segment) produces a
//!    `FluidConservation` violation, pinning the check's false-negative
//!    rate at zero for the fault we can inject.

use experiments::hybrid::{HybridMode, HybridOutcome, HybridScenario};
use netsim::{AuditConfig, Buggify, SchedKind, ViolationKind};
use simcore::Time;

/// Bit-exact equality of two runs: every flow record field and every
/// counter. All record fields are integer-backed (`Time` is picoseconds),
/// so `assert_eq!` is exact, not approximate.
fn assert_bit_identical(a: &HybridOutcome, b: &HybridOutcome, what: &str) {
    let (ra, rb) = (&a.result.records, &b.result.records);
    assert_eq!(ra.len(), rb.len(), "{what}: record count");
    for (i, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
        assert_eq!(x.flow, y.flow, "{what}: record {i} flow id");
        assert_eq!(x.src, y.src, "{what}: record {i} src");
        assert_eq!(x.dst, y.dst, "{what}: record {i} dst");
        assert_eq!(x.size, y.size, "{what}: record {i} size");
        assert_eq!(x.start, y.start, "{what}: record {i} start");
        assert_eq!(x.finish, y.finish, "{what}: record {i} finish");
        assert_eq!(x.delivered, y.delivered, "{what}: record {i} delivered");
        assert_eq!(
            x.retransmits, y.retransmits,
            "{what}: record {i} retransmits"
        );
        assert_eq!(x.base_rtt, y.base_rtt, "{what}: record {i} base_rtt");
    }
    let (ca, cb) = (&a.result.counters, &b.result.counters);
    assert_eq!(ca.events, cb.events, "{what}: events");
    assert_eq!(ca.data_delivered, cb.data_delivered, "{what}: delivered");
    assert_eq!(ca.pfc_pauses, cb.pfc_pauses, "{what}: pfc_pauses");
    assert_eq!(ca.pfc_resumes, cb.pfc_resumes, "{what}: pfc_resumes");
    assert_eq!(ca.drops, cb.drops, "{what}: drops");
    assert_eq!(ca.ecn_marks, cb.ecn_marks, "{what}: ecn_marks");
    assert_eq!(
        ca.max_buffer_used, cb.max_buffer_used,
        "{what}: max_buffer_used"
    );
}

/// Every scheduler backend, so the differential also covers the calendar
/// default promoted in this change.
const BACKENDS: [SchedKind; 2] = SchedKind::ALL;

#[test]
fn zero_background_incast_is_bit_identical_to_pure_packet() {
    for sched in BACKENDS {
        let mut sc = HybridScenario::incast(0.0);
        sc.sched = sched;
        assert!(sc.bg_trace().is_empty(), "zero load must yield no flows");
        let p = sc.run(HybridMode::PacketRef, None);
        let f = sc.run(HybridMode::Fluid, None);
        assert_eq!(f.result.counters.fluid_bytes_injected, 0);
        assert_eq!(f.result.counters.fluid_flows_started, 0);
        assert_bit_identical(&p, &f, &format!("incast/{sched:?}"));
    }
}

#[test]
fn zero_background_websearch_is_bit_identical_to_pure_packet() {
    for sched in BACKENDS {
        let mut sc = HybridScenario::websearch(0.0);
        sc.sched = sched;
        let p = sc.run(HybridMode::PacketRef, None);
        let f = sc.run(HybridMode::Fluid, None);
        assert_bit_identical(&p, &f, &format!("websearch/{sched:?}"));
    }
}

/// The strict audit configuration: deep scan (including per-port fluid
/// conservation) on every event, panicking at the first violation so a
/// failure points at the exact event.
fn strict_audit() -> AuditConfig {
    AuditConfig {
        panic_on_violation: true,
        deep_every: 1,
        ..AuditConfig::default()
    }
}

#[test]
fn fluid_conservation_holds_across_random_seeds() {
    // A fleet of (load, seed) points; short horizon keeps the fleet cheap
    // while still crossing many injection-end/backlog-empty epochs.
    for load in [0.3, 0.5, 0.7] {
        for bg_seed in [7, 91, 1234, 0xDEAD] {
            let mut sc = HybridScenario::incast(load);
            sc.fg_senders = 4;
            sc.end = Time::from_ms(2);
            sc.bg_seed = bg_seed;
            let out = sc.run(HybridMode::Fluid, Some(strict_audit()));
            let audit = out.result.audit.as_ref().expect("audit enabled");
            assert_eq!(
                audit.violations.len(),
                0,
                "load {load} seed {bg_seed}: {:?}",
                audit.violations
            );
            assert!(
                out.result.counters.fluid_bytes_injected > 0,
                "load {load} seed {bg_seed}: fleet point must exercise the fluid path"
            );
        }
    }
}

#[test]
fn fluid_conservation_holds_under_websearch_foreground() {
    let mut sc = HybridScenario::websearch(0.5);
    sc.end = Time::from_ms(4);
    let out = sc.run(HybridMode::Fluid, Some(strict_audit()));
    let audit = out.result.audit.as_ref().expect("audit enabled");
    assert_eq!(audit.violations.len(), 0, "{:?}", audit.violations);
}

#[test]
fn buggified_fluid_leak_is_caught_by_the_audit() {
    let mut sc = HybridScenario::incast(0.5);
    sc.fg_senders = 4;
    sc.end = Time::from_ms(2);
    sc.switch.buggify = Some(Buggify::FluidDrainLeak);
    let audit = AuditConfig {
        deep_every: 1,
        ..AuditConfig::default()
    };
    let out = sc.run(HybridMode::Fluid, Some(audit));
    let report = out.result.audit.as_ref().expect("audit enabled");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::FluidConservation),
        "FluidDrainLeak must trip FluidConservation; got {:?}",
        report.violations
    );
}
