//! The integration **recovery ladder**.
//!
//! The model checker's whole output is computed from ODE-integrated
//! probabilities, so an integration failure is the product failing. This
//! module is the one entry point every checking-pipeline solve goes
//! through. Its primary rung also owns the **stiffness hand-off**:
//!
//! 1. **Primary** — the [`Dopri5`] drive the caller would have run, with
//!    Hairer's stiffness test sampled on accepted steps. A solve that never
//!    confirms stiffness is bitwise identical to [`Dopri5::solve_into`].
//!    One that does switches once, from its current `(t, y, f, h)`, to the
//!    L-stable [`Rodas4`] stepper for the rest of the span; the knots land
//!    in the same trajectory and [`SolveStats::stiff_switches`] counts the
//!    hand-off. That is not a recovery: nothing failed.
//! 2. **Relaxed controller** — on [`OdeError::StepSizeTooSmall`],
//!    [`OdeError::MaxStepsExceeded`] or [`OdeError::NonFiniteDerivative`],
//!    retry plain Dopri5 with tolerances loosened to at least
//!    ([`RELAXED_RTOL`], [`RELAXED_ATOL`]): a transiently fussy error
//!    estimate (fast but benign dynamics, a spiky derivative) often clears
//!    at engineering accuracy.
//! 3. **Stiff fallback** — if the relaxed controller also fails, run
//!    [`Rodas4`] over the whole span with the caller's options. Its step
//!    size is not stability-limited, so it finishes stiff problems the
//!    primary rung could not reach a stiffness sample on.
//!
//! Recoveries are recorded in the returned trajectory's [`SolveStats`]
//! (`recoveries`, `stiff_fallbacks`) so every layer above — engine stats,
//! CLI `--stats`, the daemon's `/metrics` — sees them without extra
//! plumbing. Argument errors ([`OdeError::InvalidArgument`],
//! [`OdeError::Math`]) are never retried: they describe the request, not
//! the dynamics. If the whole ladder fails, the *primary* rung's error is
//! returned — it names the original failure mode, which is what callers
//! and tests want to see.
//!
//! [`SolveStats`]: crate::SolveStats
//! [`SolveStats::stiff_switches`]: crate::SolveStats::stiff_switches

use crate::dopri::{Dopri5, Drive, SolverWorkspace};
use crate::error::OdeError;
use crate::options::OdeOptions;
use crate::problem::OdeSystem;
use crate::solution::Trajectory;
use crate::stiff::Rodas4;

/// Relative-tolerance floor used by the relaxed retry rung.
pub const RELAXED_RTOL: f64 = 1e-6;
/// Absolute-tolerance floor used by the relaxed retry rung.
pub const RELAXED_ATOL: f64 = 1e-9;

/// Which rung of the ladder produced a recovered solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The primary solve succeeded, possibly after a stiffness hand-off
    /// (see [`crate::SolveStats::stiff_switches`]); without one the output
    /// is bitwise identical to calling [`Dopri5::solve_into`] directly.
    None,
    /// The relaxed-tolerance retry succeeded.
    Relaxed,
    /// The implicit [`Rodas4`] fallback produced the solution.
    StiffFallback,
}

/// `true` for failures worth climbing the ladder for: the controller gave
/// up or the right-hand side misbehaved. Argument and linear-algebra errors
/// are deterministic properties of the request and are not retried.
fn recoverable(e: &OdeError) -> bool {
    matches!(
        e,
        OdeError::StepSizeTooSmall { .. }
            | OdeError::MaxStepsExceeded { .. }
            | OdeError::NonFiniteDerivative { .. }
    )
}

/// The relaxed-rung options: same controller limits, tolerances loosened to
/// at least the engineering-accuracy floor.
#[must_use]
pub fn relaxed_options(options: &OdeOptions) -> OdeOptions {
    options.with_tolerances(
        options.rtol.max(RELAXED_RTOL),
        options.atol.max(RELAXED_ATOL),
    )
}

/// The primary rung: the detecting Dopri5 drive, finished by [`Rodas4`]
/// from the hand-off point when it confirms stiffness.
fn primary<S: OdeSystem>(
    sys: &S,
    t0: f64,
    t1: f64,
    y0: &[f64],
    options: &OdeOptions,
    ws: &mut SolverWorkspace,
) -> Result<Trajectory, OdeError> {
    match Dopri5::new(*options).drive(sys, t0, t1, y0, ws, true)? {
        Drive::Done(trajectory) => Ok(trajectory),
        Drive::Stiff {
            t,
            h,
            steps,
            mut stats,
        } => {
            stats.stiff_switches += 1;
            Rodas4::new(*options).finish_scalar(sys, t, t1, h, steps, ws, &mut stats)?;
            ws.knots.take_trajectory(sys.dim(), stats)
        }
    }
}

/// Integrates `sys` over `[t0, t1]` through the recovery ladder, reusing
/// `ws` for every rung.
///
/// Returns the trajectory together with the rung that produced it. When the
/// result was recovered, its [`Trajectory::stats`] carry the recovery
/// counters.
///
/// # Errors
///
/// Non-recoverable errors (invalid arguments, linear-algebra failures)
/// propagate immediately. If every rung fails, the **primary** rung's error
/// is returned.
pub fn solve_recovering<S: OdeSystem>(
    sys: &S,
    t0: f64,
    t1: f64,
    y0: &[f64],
    options: &OdeOptions,
    ws: &mut SolverWorkspace,
) -> Result<(Trajectory, Recovery), OdeError> {
    let primary_err = match primary(sys, t0, t1, y0, options, ws) {
        Ok(trajectory) => return Ok((trajectory, Recovery::None)),
        Err(e) if !recoverable(&e) => return Err(e),
        Err(e) => e,
    };
    // Rung 2: relaxed controller — only if it actually loosens something.
    let relaxed = relaxed_options(options);
    if relaxed != *options {
        match Dopri5::new(relaxed).solve_into(sys, t0, t1, y0, ws) {
            Ok(mut trajectory) => {
                trajectory.mark_recovered(false);
                return Ok((trajectory, Recovery::Relaxed));
            }
            Err(e) if !recoverable(&e) => return Err(e),
            Err(_) => {}
        }
    }
    // Rung 3: the implicit stepper over the whole span.
    match Rodas4::new(*options).solve_into(sys, t0, t1, y0, ws) {
        Ok(mut trajectory) => {
            trajectory.mark_recovered(true);
            Ok((trajectory, Recovery::StiffFallback))
        }
        Err(_) => Err(primary_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnSystem;

    /// y' = -λ(y - cos t), the classic stiff test problem: the solution
    /// hugs cos t (exactly, cos t + sin t/λ + O(1/λ²) from y(0) = 1) but
    /// the stability limit forces h ≈ 2.8/λ on explicit methods.
    fn stiff_sys(lambda: f64) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, move |t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -lambda * (y[0] - t.cos());
        })
    }

    #[test]
    fn healthy_solve_is_bitwise_identical_to_plain_dopri() {
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
        let options = OdeOptions::default();
        let direct = Dopri5::new(options).solve(&sys, 0.0, 3.0, &[1.0]).unwrap();
        let mut ws = SolverWorkspace::new();
        let (ladder, recovery) =
            solve_recovering(&sys, 0.0, 3.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::None);
        assert_eq!(ladder, direct);
        assert_eq!(ladder.stats().recoveries, 0);
        assert_eq!(ladder.stats().stiff_fallbacks, 0);
    }

    #[test]
    fn stiff_problem_fails_plain_and_switches_to_rodas_without_recovery() {
        let lambda = 1e7;
        let sys = stiff_sys(lambda);
        // Stability limits Dopri5 to h ≈ 2.8/λ; the step budget makes it
        // give up quickly instead of grinding out millions of tiny steps.
        let options = OdeOptions::default().with_max_steps(20_000);
        let plain = Dopri5::new(options).solve(&sys, 0.0, 10.0, &[1.0]);
        assert!(
            matches!(
                plain,
                Err(OdeError::MaxStepsExceeded { .. }) | Err(OdeError::StepSizeTooSmall { .. })
            ),
            "expected the plain solver to fail on the stiff fixture, got {plain:?}"
        );
        // The primary rung detects the stiffness at its first sample and
        // hands the span to Rodas4: no rung failed, nothing was recovered.
        let mut ws = SolverWorkspace::new();
        let (trajectory, recovery) =
            solve_recovering(&sys, 0.0, 10.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::None);
        let stats = trajectory.stats();
        assert_eq!(stats.stiff_switches, 1);
        assert_eq!(stats.recoveries, 0);
        assert_eq!(stats.stiff_fallbacks, 0);
        // Explicit steps would number ~λ·10/3.3 ≈ 3e7.
        assert!(stats.accepted < 20_000, "{stats:?}");
        // For large λ the exact solution is cos t + sin t/λ + O(1/λ²): the
        // error-controlled stepper tracks it, dense output included, to
        // the tolerance scale.
        for k in 0..=100 {
            let t = 0.1 * f64::from(k);
            let y = trajectory.eval(t)[0];
            let exact = t.cos() + t.sin() / lambda;
            assert!((y - exact).abs() < 1e-7, "y({t}) = {y}, expected {exact}");
        }
        assert_eq!(trajectory.t_start(), 0.0);
        assert_eq!(trajectory.t_end(), 10.0);
    }

    #[test]
    fn budget_below_the_first_stiffness_sample_recovers_via_rodas_rung() {
        // A step budget smaller than the stiffness test's sampling interval:
        // the primary rung runs out before it can detect anything, the
        // relaxed controller is no less stability-limited, and the third
        // rung — Rodas4 from t0 under the same budget — finishes the span.
        let lambda = 1e7;
        let sys = stiff_sys(lambda);
        let options = OdeOptions::default().with_max_steps(200);
        let mut ws = SolverWorkspace::new();
        let (trajectory, recovery) =
            solve_recovering(&sys, 0.0, 0.1, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::StiffFallback);
        let stats = trajectory.stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.stiff_fallbacks, 1);
        assert_eq!(stats.stiff_switches, 0);
        assert!(stats.accepted + stats.rejected <= 200, "{stats:?}");
        for k in 0..=100 {
            let t = 0.001 * f64::from(k);
            let y = trajectory.eval(t)[0];
            let exact = t.cos() + t.sin() / lambda;
            assert!((y - exact).abs() < 1e-8, "y({t}) = {y}, expected {exact}");
        }
    }

    #[test]
    fn nonstiff_problem_never_switches() {
        // Exponential decay never reaches the stability boundary: every
        // sampled test is negative, and the result is the plain solve.
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
        let options = OdeOptions::default().with_h_max(1e-3);
        let direct = Dopri5::new(options).solve(&sys, 0.0, 3.0, &[1.0]).unwrap();
        assert!(direct.stats().accepted > 1_000);
        let mut ws = SolverWorkspace::new();
        let (ladder, _) = solve_recovering(&sys, 0.0, 3.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(ladder, direct);
        assert_eq!(ladder.stats().stiff_switches, 0);
    }

    #[test]
    fn overtight_tolerances_recover_via_relaxed_rung() {
        // A tolerance far below machine precision makes every step reject
        // until the controller hits h_min; the relaxed rung clears it.
        let sys = FnSystem::new(1, |t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -y[0] + t.sin();
        });
        let options = OdeOptions::default().with_tolerances(1e-300, 1e-300);
        assert!(Dopri5::new(options).solve(&sys, 0.0, 2.0, &[1.0]).is_err());
        let mut ws = SolverWorkspace::new();
        let (trajectory, recovery) =
            solve_recovering(&sys, 0.0, 2.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::Relaxed);
        assert_eq!(trajectory.stats().recoveries, 1);
        assert_eq!(trajectory.stats().stiff_fallbacks, 0);
    }

    #[test]
    fn argument_errors_are_not_retried() {
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
        let mut ws = SolverWorkspace::new();
        let r = solve_recovering(&sys, 0.0, 1.0, &[1.0, 2.0], &OdeOptions::default(), &mut ws);
        assert!(matches!(r, Err(OdeError::InvalidArgument(_))));
        let r = solve_recovering(&sys, 1.0, 0.0, &[1.0], &OdeOptions::default(), &mut ws);
        assert!(matches!(r, Err(OdeError::InvalidArgument(_))));
    }

    #[test]
    fn ladder_exhaustion_reports_the_primary_error() {
        // A right-hand side that is always NaN defeats every rung; the
        // error names the primary failure.
        let sys = FnSystem::new(1, |_t, _y: &[f64], dy: &mut [f64]| dy[0] = f64::NAN);
        let mut ws = SolverWorkspace::new();
        let r = solve_recovering(&sys, 0.0, 1.0, &[1.0], &OdeOptions::default(), &mut ws);
        assert!(matches!(r, Err(OdeError::NonFiniteDerivative { .. })), "{r:?}");
    }
}
