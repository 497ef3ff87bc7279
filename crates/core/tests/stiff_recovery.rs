//! The stiffness hand-off on a genuinely stiff mean-field model.
//!
//! A fast `idle ↔ busy` loop with rate ~1e7 sits under a slow `busy → done`
//! drain. The drift's fast eigenvalue is ≈ -2e7, so Dormand-Prince's
//! stability region limits its step size to ~1.4e-7: covering a unit
//! horizon needs millions of steps, and with a bounded step budget the
//! plain explicit solver *must* fail. The checking pipeline's primary rung
//! detects the stiffness instead and hands the solve to the L-stable
//! implicit stepper — the pipeline answers accurately, records the
//! hand-off, and reports no recovery, because nothing failed.

use mfcsl_core::mfcsl::{parse_formula, CheckSession, Checker};
use mfcsl_core::{LocalModel, Occupancy};
use mfcsl_csl::Tolerances;
use mfcsl_ode::dopri::Dopri5;
use mfcsl_ode::problem::FnSystem;
use mfcsl_ode::OdeError;

const FAST_RATE: f64 = 1.0e7;

/// Fast pingpong `idle ↔ busy` at 1e7 plus a slow drain `busy → done`.
fn stiff_model() -> LocalModel {
    LocalModel::builder()
        .state("a", ["idle"])
        .state("b", ["busy"])
        .state("c", ["done"])
        .constant_transition("a", "b", FAST_RATE)
        .unwrap()
        .constant_transition("b", "a", FAST_RATE)
        .unwrap()
        .constant_transition("b", "c", 1.0)
        .unwrap()
        .build()
        .unwrap()
}

/// On the fast equilibrium (`m_a = m_b`): the solution evolves on the slow
/// manifold, while the slow drain keeps the drift nonzero so the explicit
/// solver cannot coast.
fn m0() -> Occupancy {
    Occupancy::new(vec![0.45, 0.45, 0.1]).unwrap()
}

/// Tolerances with a step budget that makes the explicit solver fail fast
/// instead of grinding through millions of stability-limited steps.
fn tol() -> Tolerances {
    let mut t = Tolerances::default();
    t.ode = t.ode.with_max_steps(20_000);
    t
}

#[test]
fn plain_dopri5_fails_on_the_stiff_drift() {
    // The model's drift hand-coded (dm = m·Q), so the integrator's trial
    // states need not stay on the simplex. Same right-hand side the
    // mean-field solver integrates.
    let sys = FnSystem::new(3, |_t: f64, y: &[f64], dy: &mut [f64]| {
        dy[0] = FAST_RATE * (y[1] - y[0]);
        dy[1] = FAST_RATE * (y[0] - y[1]) - y[1];
        dy[2] = y[1];
    });
    let err = Dopri5::new(tol().ode)
        .solve(&sys, 0.0, 1.0, m0().as_slice())
        .unwrap_err();
    assert!(
        matches!(
            err,
            OdeError::MaxStepsExceeded { .. } | OdeError::StepSizeTooSmall { .. }
        ),
        "expected a stiffness failure, got {err:?}"
    );
}

#[test]
fn session_switches_to_the_implicit_stepper_without_recovery() {
    let model = stiff_model();
    let session = CheckSession::from_checker(Checker::with_tolerances(&model, tol()));
    // The E operator alone evaluates at t = 0 without integrating; a csat
    // sweep over [0, 1] forces the trajectory solve across the stiff span.
    // The done-mass starts at 0.1 and only grows, so the 0.05 bound holds
    // on the whole window.
    let psi = parse_formula("E{>=0.05}[ done ]").unwrap();
    let cs = session.csat(&psi, &m0(), 1.0).unwrap();
    assert!((cs.measure() - 1.0).abs() < 1e-9, "csat: {cs:?}");
    // On the slow manifold m_done(t) = 1 − 0.9·e^{st} up to O(1/λ), with
    // s the slow eigenvalue of the fast block, so `E{<0.45}[ done ]` holds
    // exactly on [0, t*) with t* = ln(0.9/0.55)/|s|.
    let s = {
        let (l, b) = (FAST_RATE, 2.0 * FAST_RATE + 1.0);
        (-b + (b * b - 4.0 * l).sqrt()) / 2.0
    };
    let t_star = (0.9_f64 / 0.55).ln() / -s;
    let cs = session
        .csat(&parse_formula("E{<0.45}[ done ]").unwrap(), &m0(), 1.0)
        .unwrap();
    let ends = cs.intervals();
    assert_eq!(ends.len(), 1, "csat: {cs:?}");
    assert_eq!(ends[0].lo().value, 0.0);
    assert!(
        (ends[0].hi().value - t_star).abs() < 1e-6,
        "csat {cs:?}, t* = {t_star}"
    );
    let stats = session.stats();
    assert_eq!(stats.recoveries, 0, "stats: {stats:?}");
    assert_eq!(stats.stiff_fallbacks, 0, "stats: {stats:?}");
    assert!(stats.stiff_switches >= 1, "stats: {stats:?}");
    // The per-solve records carry the hand-off too.
    assert!(stats
        .solves
        .iter()
        .any(|s| s.stiff_switches >= 1 && s.recoveries == 0));
}

#[test]
fn healthy_models_report_zero_recoveries() {
    let model = LocalModel::builder()
        .state("s", ["healthy"])
        .state("i", ["infected"])
        .transition("s", "i", |m: &Occupancy| 2.0 * m[1])
        .unwrap()
        .constant_transition("i", "s", 1.0)
        .unwrap()
        .build()
        .unwrap();
    let session = CheckSession::new(&model);
    let m0 = Occupancy::new(vec![0.9, 0.1]).unwrap();
    let psi = parse_formula("E{<0.5}[ infected ]").unwrap();
    let cs = session.csat(&psi, &m0, 10.0).unwrap();
    assert!(cs.contains(0.0));
    let stats = session.stats();
    assert_eq!(stats.recoveries, 0);
    assert_eq!(stats.stiff_fallbacks, 0);
    assert_eq!(stats.stiff_switches, 0);
}
