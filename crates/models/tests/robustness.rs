//! Robustness properties of the checking pipeline over the paper's
//! Table II settings: hostile numerical inputs are structured errors, never
//! panics, and with no fault injected the recovery-ladder engine answers
//! bitwise identically to the plain uncached checker.

use mfcsl_core::mfcsl::{parse_formula, CheckSession, Checker, MfFormula};
use mfcsl_core::{CoreError, LocalModel, Occupancy};
use mfcsl_csl::Tolerances;
use mfcsl_models::virus;
use mfcsl_ode::{
    solve_batch_recovering, BatchWorkspace, OdeOptions, OdeSystem, Recovery, SolverWorkspace,
    Trajectory,
};
use proptest::prelude::*;

fn setting(index: usize) -> LocalModel {
    let (_, params, law) = virus::table2_settings()[index % 4];
    virus::model(params, law).unwrap()
}

fn m0(infected: f64) -> Occupancy {
    Occupancy::new(vec![1.0 - infected, 0.75 * infected, 0.25 * infected]).unwrap()
}

/// Tolerances that are invalid by construction: non-positive or NaN rtol /
/// atol. (`+inf` is excluded — it is absurd but formally positive, so the
/// solver accepts every step instead of failing.)
const HOSTILE_TOLERANCES: [f64; 4] = [f64::NAN, 0.0, -1e-9, f64::NEG_INFINITY];

/// Horizons outside the checker's documented domain.
const HOSTILE_HORIZONS: [f64; 4] = [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY];

fn formulas(window: f64) -> Vec<MfFormula> {
    [
        "E{<0.5}[ infected ]".to_string(),
        format!("EP{{>0}}[ tt U[0,{window}] infected ]"),
        format!("EP{{<0.99}}[ not_infected U[0,{window}] infected ]"),
    ]
    .iter()
    .map(|f| parse_formula(f).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A hostile rtol/atol pair — NaN, zero, negative — is rejected as a
    /// structured [`CoreError`] on every Table II setting. The recovery
    /// ladder must not retry it (an invalid argument stays invalid at any
    /// tolerance), and nothing may panic.
    #[test]
    fn prop_hostile_tolerances_are_structured_errors(
        which in 0usize..4,
        bad_rtol in 0usize..4,
        bad_atol in 0usize..4,
        poison_rtol in proptest::bool::ANY,
        infected in 0.05f64..0.6,
        window in 0.5f64..4.0,
    ) {
        let model = setting(which);
        let mut tol = Tolerances::default();
        let (rtol, atol) = if poison_rtol {
            (HOSTILE_TOLERANCES[bad_rtol], tol.ode.atol)
        } else {
            (tol.ode.rtol, HOSTILE_TOLERANCES[bad_atol])
        };
        // A small step budget keeps even a pathological-but-running solve
        // from grinding; the error must come from validation anyway.
        tol.ode = tol.ode.with_tolerances(rtol, atol).with_max_steps(2_000);
        let session = CheckSession::from_checker(Checker::with_tolerances(&model, tol));
        let m0 = m0(infected);
        for psi in formulas(window) {
            match session.check(&psi, &m0) {
                Err(CoreError::InvalidArgument(_) | CoreError::Ode(_) | CoreError::Csl(_)) => {}
                other => {
                    return Err(TestCaseError(format!(
                        "hostile tolerances must be a structured error, got {other:?}"
                    )));
                }
            }
        }
    }

    /// A hostile evaluation horizon — NaN, negative, infinite — is rejected
    /// as a structured [`CoreError`] on every Table II setting, through
    /// both the session and the plain checker.
    #[test]
    fn prop_hostile_horizons_are_structured_errors(
        which in 0usize..4,
        bad in 0usize..4,
        infected in 0.05f64..0.6,
    ) {
        let model = setting(which);
        let theta = HOSTILE_HORIZONS[bad];
        let psi = parse_formula("E{<0.5}[ infected ]").unwrap();
        let m0 = m0(infected);
        let session = CheckSession::new(&model);
        match session.csat(&psi, &m0, theta) {
            Err(CoreError::InvalidArgument(_) | CoreError::Csl(_)) => {}
            other => {
                return Err(TestCaseError(format!(
                    "hostile horizon {theta} must be a structured error, got {other:?}"
                )));
            }
        }
        match Checker::with_tolerances(&model, Tolerances::default())
            .csat(&psi, &m0, theta)
        {
            Err(CoreError::InvalidArgument(_) | CoreError::Csl(_)) => {}
            other => {
                return Err(TestCaseError(format!(
                    "hostile horizon {theta} must be a structured error, got {other:?}"
                )));
            }
        }
    }

    /// With no fault plan installed the recovery-ladder engine is the
    /// healthy engine: verdicts through the session match the plain
    /// uncached checker (up to the session-only refinement record), and
    /// the ladder's counters stay at zero — rung 1 runs the exact same
    /// Dormand-Prince solve as before the ladder existed.
    #[test]
    fn prop_no_fault_ladder_is_bitwise_invisible(
        which in 0usize..4,
        infected in 0.05f64..0.6,
        p in 0.05f64..0.95,
        window in 0.5f64..4.0,
    ) {
        let model = setting(which);
        let m0 = m0(infected);
        let psis: Vec<MfFormula> = [
            format!("E{{<{p}}}[ infected ]"),
            format!("EP{{<{p}}}[ not_infected U[0,{window}] infected ]"),
            format!("EP{{>0}}[ tt U[0,{window}] infected ]"),
        ]
        .iter()
        .map(|f| parse_formula(f).unwrap())
        .collect();
        let plain = Checker::new(&model);
        let session = CheckSession::new(&model);
        let cached = session.check_all(&psis, &m0).unwrap();
        for (psi, cached) in psis.iter().zip(&cached) {
            let reference = plain.check(psi, &m0).unwrap();
            prop_assert_eq!(cached.holds(), reference.holds(), "{}", psi);
            prop_assert_eq!(cached.is_marginal(), reference.is_marginal(), "{}", psi);
        }
        let stats = session.stats();
        prop_assert_eq!(stats.recoveries, 0);
        prop_assert_eq!(stats.stiff_fallbacks, 0);
    }
}

/// The mean-field drift of a Table II setting with a poisoned *batched*
/// kernel: the scalar `rhs` is clean, but `rhs_batch` writes NaN into one
/// lane's column once that lane's time passes `after`. This models a fault
/// that only the batched drive sees — exactly the situation where a lane
/// must detach and fall back to the scalar recovery ladder without
/// perturbing its siblings. `after = +inf` never fires, giving the clean
/// reference drive over the identical arithmetic.
///
/// The poisoned lane is identified by its initial occupancy: at the drive
/// launch (all active lanes evaluated at `t0 = 0`) the wrapper scans for
/// the column whose state matches `sig` bitwise and poisons only that one.
struct PoisonedLane<'a> {
    model: &'a LocalModel,
    sig: Vec<f64>,
    after: f64,
    column: std::cell::Cell<Option<usize>>,
}

impl OdeSystem for PoisonedLane<'_> {
    fn dim(&self) -> usize {
        self.model.n_states()
    }

    fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let n = self.dim();
        let mut m = y.to_vec();
        // Hostile states signal the solver through a non-finite derivative,
        // never a panic — same contract as the production mean-field drift.
        if mfcsl_math::simplex::renormalize(&mut m).is_err() {
            dy.fill(f64::NAN);
            return;
        }
        match self.model.generator_at(&Occupancy::new_unchecked(m)) {
            Ok(q) => {
                for j in 0..n {
                    dy[j] = (0..n).map(|i| y[i] * q[(i, j)]).sum();
                }
            }
            Err(_) => dy.fill(f64::NAN),
        }
    }

    fn project(&self, _t: f64, y: &mut [f64]) {
        let _ = mfcsl_math::simplex::renormalize(y);
    }

    fn rhs_batch(&self, ts: &[f64], active: &[bool], y: &[f64], dy: &mut [f64], width: usize) {
        let n = self.dim();
        // The drive launch evaluates every active lane at t0 = 0 with its
        // initial state: scan for the poisoned lane's column there.
        if (0..width).all(|b| !active[b] || ts[b] == 0.0) {
            self.column.set((0..width).find(|&b| {
                active[b] && (0..n).all(|i| y[i * width + b].to_bits() == self.sig[i].to_bits())
            }));
        }
        let mut col = vec![0.0; n];
        let mut dcol = vec![0.0; n];
        for b in 0..width {
            if !active[b] {
                continue;
            }
            for i in 0..n {
                col[i] = y[i * width + b];
            }
            self.rhs(ts[b], &col, &mut dcol);
            if Some(b) == self.column.get() && ts[b] >= self.after {
                dcol[0] = f64::NAN;
            }
            for i in 0..n {
                dy[i * width + b] = dcol[i];
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batch × recovery-ladder interaction: a NaN-injected lane detaches
    /// from the per-lane batched drive and recovers through the scalar
    /// ladder (whose clean scalar path reproduces the healthy solve), while
    /// its siblings' curves stay bitwise unchanged.
    #[test]
    fn prop_poisoned_lane_detaches_and_recovers_without_perturbing_siblings(
        which in 0usize..4,
        infected in (0.05f64..0.6, 0.05f64..0.6, 0.05f64..0.6),
        horizon in 1.0f64..3.0,
    ) {
        let model = setting(which);
        let m0s = [m0(infected.0), m0(infected.1), m0(infected.2)];
        let y0s: Vec<&[f64]> = m0s.iter().map(Occupancy::as_slice).collect();
        let opts = OdeOptions::default();
        let sig = m0s[1].as_slice().to_vec();
        let clean_sys = PoisonedLane {
            model: &model,
            sig: sig.clone(),
            after: f64::INFINITY,
            column: Default::default(),
        };
        let bad_sys = PoisonedLane {
            model: &model,
            sig,
            after: 0.3 * horizon,
            column: Default::default(),
        };

        let solve = |sys: &PoisonedLane<'_>| {
            let mut ws = BatchWorkspace::new();
            let mut scalar_ws = SolverWorkspace::new();
            solve_batch_recovering(sys, 0.0, horizon, &y0s, &opts, &mut ws, &mut scalar_ws)
        };
        let clean = solve(&clean_sys).expect("clean batch solves");
        prop_assert_eq!(clean.stats.detached, 0);

        let bad = solve(&bad_sys).expect("poisoned batch solves");
        prop_assert_eq!(bad.stats.detached, 1, "exactly the poisoned lane detaches");

        let bits = |t: &Trajectory| -> Vec<u64> {
            let c = t.curve();
            (0..c.knots().len())
                .flat_map(|k| {
                    c.knots()[k..=k].iter().map(|x| x.to_bits())
                        .chain(c.value_at(k).iter().map(|x| x.to_bits()))
                        .chain(c.derivative_at(k).iter().map(|x| x.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        for (lane, (c, b)) in clean.lanes.iter().zip(&bad.lanes).enumerate() {
            let (clean_traj, clean_rec) = c.as_ref().expect("clean lane solves");
            prop_assert_eq!(*clean_rec, Recovery::None);
            let (bad_traj, _) = b.as_ref().expect("every lane still answers");
            // The poisoned lane's ladder re-ran the clean scalar path, and
            // per-lane siblings never saw the fault: all three curves must
            // be bitwise identical to the clean batch's.
            prop_assert_eq!(
                bits(clean_traj),
                bits(bad_traj),
                "lane {} curve changed under a sibling's fault", lane
            );
        }
    }
}
