//! Stiffness detection on the `.mf` virus model at Table II Setting 2.
//!
//! Parsed from text, the SmartVirus rate `k1·m3/max(m1, 1e-6)` has no cap:
//! once `m1` falls onto the `1e-6` floor the `s1 → s2` mode relaxes at
//! `k1·m3/1e-6 ≈ 10⁶` per unit time, and explicit Dormand–Prince crawls at
//! its stability limit. These tests pin the hand-off to the implicit
//! stepper on the lane that a textbook detector misses, and check the
//! verdicts it feeds against an independent explicit reference.

use std::collections::BTreeMap;

use mfcsl_core::mfcsl::{parse_formula, CheckSession};
use mfcsl_core::{meanfield, LocalModel, Occupancy};
use mfcsl_modelfile::ModelFile;
use mfcsl_ode::dopri::Dopri5;
use mfcsl_ode::problem::FnSystem;
use mfcsl_ode::{OdeOptions, Trajectory};

/// Table II Setting 2 rate constants `k1..k5`.
const SETTING_2: [f64; 5] = [5.0, 0.02, 0.01, 0.5, 0.5];

fn setting_2_mf() -> LocalModel {
    let [k1, k2, k3, k4, k5] = SETTING_2;
    let text = format!(
        "state s1 : not_infected\n\
         state s2 : infected inactive\n\
         state s3 : infected active\n\
         param k1 = {k1}\nparam k2 = {k2}\nparam k3 = {k3}\nparam k4 = {k4}\nparam k5 = {k5}\n\
         rate s1 -> s2 : k1 * m[s3] / max(m[s1], 1e-6)\n\
         rate s2 -> s1 : k2\n\
         rate s2 -> s3 : k3\n\
         rate s3 -> s2 : k4\n\
         rate s3 -> s1 : k5\n"
    );
    ModelFile::parse(&text)
        .unwrap()
        .instantiate_with(&BTreeMap::new())
        .unwrap()
}

/// The same drift in closed form, integrated by plain (never switching)
/// Dopri5 at tight tolerances: the independent reference.
fn reference(m0: &[f64], theta: f64) -> Trajectory {
    let [k1, k2, k3, k4, k5] = SETTING_2;
    let sys = FnSystem::new(3, move |_t, y: &[f64], dy: &mut [f64]| {
        let infection = k1 * y[2] / y[0].max(1e-6) * y[0];
        dy[0] = -infection + k2 * y[1] + k5 * y[2];
        dy[1] = infection - (k2 + k3) * y[1] + k4 * y[2];
        dy[2] = k3 * y[1] - (k4 + k5) * y[2];
    });
    let options = OdeOptions::default()
        .with_tolerances(1e-12, 1e-16)
        .with_max_steps(100_000_000);
    Dopri5::new(options).solve(&sys, 0.0, theta, m0).unwrap()
}

/// Where the reference's infected share first reaches `bound`, by
/// bisection on its dense output.
fn reference_crossing(traj: &Trajectory, bound: f64) -> f64 {
    let infected = |t: f64| {
        let y = traj.eval(t);
        y[1] + y[2]
    };
    let (mut lo, mut hi) = (0.0, traj.t_end());
    assert!(infected(lo) < bound && infected(hi) >= bound);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if infected(mid) < bound {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The lane whose explicit controller, pinned to the stability boundary,
/// settles into a 3-cycle with `h·λ̂` = 3.146 / 3.153 / 3.239: below
/// Hairer's 3.25 on every step, so a detector at that threshold never
/// fires and the lane grinds through ~10⁶ explicit evaluations.
#[test]
fn lane_below_the_textbook_threshold_switches_and_matches_reference() {
    let model = setting_2_mf();
    let m0 = [0.549560546875, 0.225341796875, 0.22509765625];
    let theta = 6.0;
    let occupancy = Occupancy::new(m0.to_vec()).unwrap();
    let sol = meanfield::solve(&model, &occupancy, theta, &OdeOptions::default()).unwrap();
    let stats = sol.trajectory().stats();
    assert_eq!(stats.stiff_switches, 1, "{stats:?}");
    assert_eq!(stats.recoveries, 0, "{stats:?}");
    assert!(stats.rhs_evals < 20_000, "{stats:?}");
    assert!(
        sol.trajectory()
            .knots()
            .iter()
            .any(|&t| sol.occupancy_at(t)[0] <= 1e-6),
        "the lane must reach the guard floor"
    );

    let reference = reference(&m0, theta);
    for bound in [0.6, 0.7, 0.8] {
        let psi = parse_formula(&format!("E{{<{bound}}}[ infected ]")).unwrap();
        let set = CheckSession::new(&model)
            .csat(&psi, &occupancy, theta)
            .unwrap();
        let intervals = set.intervals();
        assert_eq!(intervals.len(), 1, "bound {bound}: {set:?}");
        assert_eq!(intervals[0].lo().value, 0.0);
        let expected = reference_crossing(&reference, bound);
        let got = intervals[0].hi().value;
        assert!(
            (got - expected).abs() < 1e-7,
            "bound {bound}: cSat ends at {got}, reference {expected}"
        );
    }
}
