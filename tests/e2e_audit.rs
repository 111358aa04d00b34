//! End-to-end runs with the invariant-audit layer enabled.
//!
//! Two claims are established here. First, the audit is *clean* on the
//! seed simulator: full runs across the congestion-control matrix report
//! zero violations, so every audit invariant is a real property of the
//! code, not an aspiration. Second, the audit *detects*: each `Buggify`
//! fault injection produces at least one violation of the expected kind.
//! Together these pin the audit's false-positive and false-negative rate
//! at zero for the faults we can inject.

use experiments::micro::{Micro, MicroEnv};
use netsim::{Buggify, SimResult, SwitchConfig, ViolationKind};
use simcore::Time;
use transport::{CcSpec, PrioPlusPolicy};

/// Run a `senders`-way incast with the audit layer on and return the
/// result (including the audit report).
fn run_audited(cc: &CcSpec, switch: SwitchConfig, senders: usize, size: u64) -> SimResult {
    let mut m = Micro::build(&MicroEnv {
        senders,
        end: Time::from_ms(10),
        trace: false,
        switch,
        ..Default::default()
    });
    m.sim.enable_audit();
    for s in 1..=senders {
        m.add_flow(s, size, Time::ZERO, 0, 0, cc);
    }
    m.sim.run()
}

fn kinds(res: &SimResult) -> Vec<ViolationKind> {
    res.audit
        .as_ref()
        .expect("audit enabled")
        .violations
        .iter()
        .map(|v| v.kind)
        .collect()
}

#[test]
fn audit_is_clean_across_the_cc_matrix() {
    let ccs: Vec<(&str, CcSpec, SwitchConfig)> = vec![
        (
            "swift",
            CcSpec::Swift {
                queuing: Time::from_us(4),
                scaling: false,
            },
            SwitchConfig::default(),
        ),
        (
            "prioplus-swift",
            CcSpec::PrioPlusSwift {
                policy: PrioPlusPolicy::paper_default(4),
            },
            SwitchConfig::default(),
        ),
        (
            "ledbat",
            CcSpec::Ledbat {
                queuing: Time::from_us(4),
            },
            SwitchConfig::default(),
        ),
        (
            "dctcp",
            CcSpec::D2tcp {
                deadline_factor: None,
            },
            SwitchConfig::default(),
        ),
        (
            "hpcc",
            CcSpec::Hpcc,
            SwitchConfig {
                int_enabled: true,
                ..Default::default()
            },
        ),
        (
            "swift-weighted",
            CcSpec::SwiftWeighted {
                queuing: Time::from_us(4),
                weight: 2.0,
            },
            SwitchConfig::default(),
        ),
        ("blast", CcSpec::Blast, SwitchConfig::default()),
    ];
    for (name, cc, switch) in ccs {
        let res = run_audited(&cc, switch, 4, 1_000_000);
        let report = res.audit.as_ref().expect("audit enabled");
        assert_eq!(
            report.total_violations, 0,
            "{name}: audit violations {:?}",
            report.violations
        );
        assert_eq!(res.completion_rate(), 1.0, "{name}: incomplete run");
    }
}

#[test]
fn audit_is_clean_under_lossy_dt_drops() {
    // A lossy switch with a small buffer forces real DT drops; the audit's
    // packet-conservation and buffer checks must account for them.
    let switch = SwitchConfig {
        pfc_enabled: false,
        buffer_bytes: 200_000,
        ..Default::default()
    };
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let res = run_audited(&cc, switch, 8, 1_000_000);
    let report = res.audit.as_ref().expect("audit enabled");
    assert_eq!(
        report.total_violations, 0,
        "violations {:?}",
        report.violations
    );
    assert!(res.counters.drops > 0, "scenario must actually drop");
}

#[test]
fn audit_report_is_absent_when_not_enabled() {
    if netsim::audit::env_enabled() {
        // PRIOPLUS_AUDIT force-enables the audit on every Sim;
        // the default-off behavior is unobservable under that opt-in.
        return;
    }
    let mut m = Micro::build(&MicroEnv {
        senders: 2,
        end: Time::from_ms(5),
        trace: false,
        ..Default::default()
    });
    assert!(!m.sim.audit_enabled());
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    m.add_flow(1, 100_000, Time::ZERO, 0, 0, &cc);
    let res = m.sim.run();
    assert!(res.audit.is_none());
}

#[test]
fn audit_is_purely_observational() {
    // Enabling the audit must not perturb the simulation: identical seeds
    // produce bit-identical flow outcomes with and without it.
    let outcome = |audited: bool| {
        let mut m = Micro::build(&MicroEnv {
            senders: 4,
            end: Time::from_ms(10),
            trace: false,
            seed: 77,
            ..Default::default()
        });
        if audited {
            m.sim.enable_audit();
        }
        let cc = CcSpec::PrioPlusSwift {
            policy: PrioPlusPolicy::paper_default(4),
        };
        for s in 1..=4 {
            m.add_flow(s, 2_000_000, Time::ZERO, 0, 0, &cc);
        }
        let res = m.sim.run();
        res.records
            .iter()
            .map(|r| (r.finish.map(|t| t.as_ps()), r.delivered, r.retransmits))
            .collect::<Vec<_>>()
    };
    assert_eq!(outcome(false), outcome(true));
}

#[test]
fn injected_dequeue_leak_is_caught() {
    let switch = SwitchConfig {
        buggify: Some(Buggify::DequeueLeak),
        ..Default::default()
    };
    let cc = CcSpec::Swift {
        queuing: Time::from_us(4),
        scaling: false,
    };
    let res = run_audited(&cc, switch, 4, 500_000);
    let ks = kinds(&res);
    assert!(
        ks.contains(&ViolationKind::BufferAccounting),
        "leak not caught: {ks:?}"
    );
}

#[test]
fn injected_pfc_off_by_one_is_caught() {
    // Small shared buffer + blast senders force the ingress counters over
    // the pause threshold; the buggified switch pauses one packet late and
    // the audit must see the unpaused over-threshold state.
    let switch = SwitchConfig {
        buffer_bytes: 1_000_000,
        buggify: Some(Buggify::PfcPauseOffByOne),
        ..Default::default()
    };
    let res = run_audited(&CcSpec::Blast, switch, 4, 500_000);
    let ks = kinds(&res);
    assert!(
        ks.contains(&ViolationKind::PfcXoffMissed),
        "off-by-one not caught: {ks:?}"
    );
}

#[test]
fn injected_ecn_below_kmin_is_caught() {
    let switch = SwitchConfig {
        buggify: Some(Buggify::EcnMarkBelowKmin),
        ..Default::default()
    };
    let cc = CcSpec::D2tcp {
        deadline_factor: None,
    };
    let res = run_audited(&cc, switch, 2, 200_000);
    let ks = kinds(&res);
    assert!(
        ks.contains(&ViolationKind::EcnBounds),
        "below-kmin marks not caught: {ks:?}"
    );
}
