//! Implicit methods for stiff rate regimes.
//!
//! Mean-field models with widely separated rates (e.g. a fast activation
//! loop inside a slow epidemic, or the SmartVirus guard floor of virus
//! Setting 2) make explicit solvers crawl at their stability limit. Two
//! implicit integrators live here:
//!
//! * [`Rodas4`] — the adaptive, error-controlled, L-stable Rosenbrock
//!   method of order 4(3) (Hairer & Wanner's RODAS). It is the one stiff
//!   stepper of the workspace: the recovery ladder hands a primary solve to
//!   it when the Dopri5 drive detects stiffness, and runs it from `t0` as
//!   the ladder's last rung. It is written once in structure-of-arrays
//!   form, so the batched lane finishes stiff lanes in lockstep through
//!   [`OdeSystem::rhs_batch`] with per-lane arithmetic bitwise equal to the
//!   scalar (width-1) path.
//! * [`ImplicitTrapezoid`] — the fixed-step, A-stable, second-order
//!   trapezoidal rule with Newton iteration: a simple independent
//!   reference for convergence tests and reference solutions.
//!
//! Both use finite-difference Jacobians; the trapezoid factors its Newton
//! matrix with `mfcsl-math`'s LU, the Rosenbrock stepper with a small
//! in-place per-lane LU that allocates nothing per step.

use mfcsl_math::lu::LuDecomposition;
use mfcsl_math::Matrix;

use crate::dopri::{Dopri5, SolverWorkspace};
use crate::options::OdeOptions;
use crate::problem::OdeSystem;
use crate::solution::{KnotArena, SolveStats, Trajectory};
use crate::OdeError;

/// Coefficients of RODAS (Hairer & Wanner, *Solving Ordinary Differential
/// Equations II*, §VI.4), in the transformed form of their `rodas.f`:
/// stage `s` solves
/// `(I/(hγ) − J) uₛ = f(t + cₛh, y + Σ aₛⱼuⱼ) + Σ (cₛⱼ/h)uⱼ + h·dₛ·∂f/∂t`.
/// The method is stiffly accurate: `y₁ = y + Σⱼ a₅ⱼuⱼ + u₅ + u₆`; the
/// embedded order-3 solution drops `u₆`, so `u₆` is the error estimate.
mod rodas {
    pub(super) const GAMMA: f64 = 0.25;
    /// Stage time fractions `cₛ`.
    pub(super) const CT: [f64; 6] = [0.0, 0.386, 0.21, 0.63, 1.0, 1.0];
    /// Time-derivative weights `dₛ` (zero for the last two stages).
    pub(super) const D: [f64; 6] = [0.25, -0.1043, 0.1035, -0.036_200_000_000_000_23, 0.0, 0.0];
    /// Stage-argument weights `aₛⱼ`, `j < s`. Row 6 is row 5 plus `u₅`, and
    /// the solution itself is row 6 plus `u₆`.
    #[rustfmt::skip]
    pub(super) const A: [[f64; 5]; 6] = [
        [0.0; 5],
        [1.544, 0.0, 0.0, 0.0, 0.0],
        [0.946_678_528_081_582_6, 0.255_701_169_898_328_4, 0.0, 0.0, 0.0],
        [3.314_825_187_068_521, 2.896_124_015_972_201, 0.998_641_913_997_781_7, 0.0, 0.0],
        [1.221_224_509_226_641, 6.019_134_481_288_629, 12.537_083_329_320_87, -0.687_886_036_105_895, 0.0],
        [1.221_224_509_226_641, 6.019_134_481_288_629, 12.537_083_329_320_87, -0.687_886_036_105_895, 1.0],
    ];
    /// Stage-coupling weights `cₛⱼ`, `j < s`.
    #[rustfmt::skip]
    pub(super) const C: [[f64; 5]; 6] = [
        [0.0; 5],
        [-5.6688, 0.0, 0.0, 0.0, 0.0],
        [-2.430_093_356_833_875, -0.206_359_915_709_191_5, 0.0, 0.0, 0.0],
        [-0.107_352_905_815_137_5, -9.594_562_251_023_355, -20.470_286_148_096_16, 0.0, 0.0],
        [7.496_443_313_967_647, -10.246_804_314_643_52, -33.999_903_528_199_05, 11.708_908_932_061_6, 0.0],
        [8.083_246_795_921_522, -7.981_132_988_064_893, -31.521_594_328_743_71, 16.319_305_431_231_36, -6.058_818_238_834_054],
    ];
    /// Continuous extension `y(t + θh) = y + θ(Δ + (1 − θ)(q₂ + θq₃))` with
    /// `Δ = y₁ − y` and `qₖ = Σ dₖⱼuⱼ`; its slope at `θ = 1`,
    /// `(Δ − q₂ − q₃)/h`, is the knot derivative.
    pub(super) const DENSE2: [f64; 5] = [
        10.126_235_083_445_86,
        -7.487_995_877_610_167,
        -34.800_918_615_557_47,
        -7.992_771_707_568_823,
        1.025_137_723_295_662,
    ];
    pub(super) const DENSE3: [f64; 5] = [
        -0.676_280_339_280_125_3,
        6.087_714_651_680_015,
        16.430_843_208_924_78,
        24.767_225_114_183_86,
        -6.594_389_125_716_872,
    ];
}

/// Step-size controller of the implicit stepper: safety factor, and the
/// bounds on one step's shrink and growth.
const R_SAFETY: f64 = 0.9;
const R_FAC_MIN: f64 = 0.2;
const R_FAC_MAX: f64 = 6.0;

/// Where a lane is in the implicit drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StiffLane {
    /// Not handed to this drive (a lane of the batch that never went
    /// stiff).
    Idle,
    Running,
    Finished,
    Failed,
}

/// Scratch of the implicit stepper for `width` lanes of dimension `n`.
///
/// Vectors are structure-of-arrays like the batched Dopri5 lane (component
/// `i` of lane `b` at `i * width + b`), so stage arguments go to
/// [`OdeSystem::rhs_batch`] unchanged; the per-lane Jacobian and its LU
/// factors are lane-major `n × n` blocks. Buffers are sized only when a
/// lane is handed over, so drives that never go stiff carry none of them.
#[derive(Debug, Default)]
pub(crate) struct StiffWorkspace {
    y: Vec<f64>,
    /// `f(t, y)` at the current point: the first stage's right-hand side
    /// and the finite differences' base value.
    f: Vec<f64>,
    /// Finite-difference `∂f/∂t` at the current point.
    ft: Vec<f64>,
    /// The slope stored with the current point's knot.
    d: Vec<f64>,
    /// The slope the attempted step would store with its knot.
    d_new: Vec<f64>,
    y_stage: Vec<f64>,
    y_new: Vec<f64>,
    dy: Vec<f64>,
    u: [Vec<f64>; 6],
    jac: Vec<f64>,
    lu: Vec<f64>,
    piv: Vec<usize>,
    /// One lane's right-hand side / solution for the LU solve.
    col: Vec<f64>,
    stage_t: Vec<f64>,
    delta: Vec<f64>,
    lane_t: Vec<f64>,
    lane_h: Vec<f64>,
    lane_err: Vec<f64>,
    /// The attempt's scaled dense-output defect.
    lane_dense: Vec<f64>,
    steps: Vec<usize>,
    state: Vec<StiffLane>,
    /// Lanes that attempt a step this round.
    mask: Vec<bool>,
    /// Lanes whose Jacobian must be re-evaluated (a new accepted point).
    jac_mask: Vec<bool>,
    /// Lanes whose attempt this round was accepted.
    accept: Vec<bool>,
    /// Lanes whose previous attempt was rejected (no step growth now).
    after_reject: Vec<bool>,
    errors: Vec<Option<OdeError>>,
}

impl StiffWorkspace {
    /// Sizes every buffer for `width` lanes of dimension `n`, all idle.
    pub(crate) fn reset(&mut self, n: usize, width: usize) {
        let nw = n * width;
        for buf in [
            &mut self.y,
            &mut self.f,
            &mut self.ft,
            &mut self.d,
            &mut self.d_new,
            &mut self.y_stage,
            &mut self.y_new,
            &mut self.dy,
        ] {
            buf.clear();
            buf.resize(nw, 0.0);
        }
        for buf in &mut self.u {
            buf.clear();
            buf.resize(nw, 0.0);
        }
        for buf in [&mut self.jac, &mut self.lu] {
            buf.clear();
            buf.resize(n * n * width, 0.0);
        }
        self.piv.clear();
        self.piv.resize(nw, 0);
        self.col.clear();
        self.col.resize(n, 0.0);
        for buf in [
            &mut self.stage_t,
            &mut self.delta,
            &mut self.lane_t,
            &mut self.lane_h,
            &mut self.lane_err,
            &mut self.lane_dense,
        ] {
            buf.clear();
            buf.resize(width, 0.0);
        }
        self.steps.clear();
        self.steps.resize(width, 0);
        self.state.clear();
        self.state.resize(width, StiffLane::Idle);
        for mask in [
            &mut self.mask,
            &mut self.jac_mask,
            &mut self.accept,
            &mut self.after_reject,
        ] {
            mask.clear();
            mask.resize(width, false);
        }
        self.errors.clear();
        self.errors.resize(width, None);
    }

    /// Hands lane `b` over at `(t, y[:, b], f[:, b])` with step proposal
    /// `h`, `steps` attempts already spent of the caller's budget. `y` and
    /// `f` are structure-of-arrays buffers of this workspace's width.
    pub(crate) fn load(&mut self, b: usize, t: f64, h: f64, steps: usize, y: &[f64], f: &[f64]) {
        let width = self.state.len();
        let n = self.col.len();
        for i in 0..n {
            let j = i * width + b;
            self.y[j] = y[j];
            self.f[j] = f[j];
            self.d[j] = f[j];
        }
        self.lane_t[b] = t;
        self.lane_h[b] = h;
        self.steps[b] = steps;
        self.state[b] = StiffLane::Running;
        self.jac_mask[b] = true;
        self.after_reject[b] = false;
    }

    /// The error that stopped lane `b`, if it failed.
    pub(crate) fn take_error(&mut self, b: usize) -> Option<OdeError> {
        self.errors[b].take()
    }

    fn fail(&mut self, b: usize, error: OdeError) {
        self.state[b] = StiffLane::Failed;
        self.errors[b] = Some(error);
        self.mask[b] = false;
    }
}

/// Evaluates `f` for the masked columns: through [`OdeSystem::rhs_batch`]
/// on the batched lane, straight through [`OdeSystem::rhs`] at width 1 —
/// the same per-column arithmetic by the `rhs_batch` contract.
#[allow(clippy::too_many_arguments)]
fn eval<S: OdeSystem>(
    sys: &S,
    batched: bool,
    ts: &[f64],
    mask: &[bool],
    y: &[f64],
    dy: &mut [f64],
    width: usize,
    calls: &mut usize,
) {
    if batched {
        sys.rhs_batch(ts, mask, y, dy, width);
    } else {
        sys.rhs(ts[0], y, dy);
    }
    *calls += 1;
}

/// In-place LU factorization with partial pivoting of the row-major
/// `n × n` block `a`. Returns `false` for a singular or non-finite matrix.
fn lu_factor(a: &mut [f64], piv: &mut [usize], n: usize) -> bool {
    if !a.iter().all(|v| v.is_finite()) {
        return false;
    }
    for k in 0..n {
        let mut p = k;
        let mut max = a[k * n + k].abs();
        for i in k + 1..n {
            let v = a[i * n + k].abs();
            if v > max {
                max = v;
                p = i;
            }
        }
        if !(max > 0.0) {
            return false;
        }
        piv[k] = p;
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
        }
        for i in k + 1..n {
            let l = a[i * n + k] / a[k * n + k];
            a[i * n + k] = l;
            for j in k + 1..n {
                a[i * n + j] -= l * a[k * n + j];
            }
        }
    }
    true
}

/// Solves `LU x = P b` in place for the factors of [`lu_factor`].
fn lu_solve(a: &[f64], piv: &[usize], n: usize, x: &mut [f64]) {
    for k in 0..n {
        let p = piv[k];
        if p != k {
            x.swap(k, p);
        }
        for i in k + 1..n {
            x[i] -= a[i * n + k] * x[k];
        }
    }
    for k in (0..n).rev() {
        let mut s = x[k];
        for j in k + 1..n {
            s -= a[k * n + j] * x[j];
        }
        x[k] = s / a[k * n + k];
    }
}

/// Finite-difference increment for a component (or time) of magnitude
/// `v`: `√(ε·max(10⁻⁵, |v|))`, as in Hairer & Wanner's codes.
fn fd_delta(v: f64) -> f64 {
    (f64::EPSILON * v.abs().max(1e-5)).sqrt()
}

/// Adaptive L-stable Rosenbrock integrator of order 4(3) (RODAS).
///
/// One linearly implicit step costs six stage solves with a single LU of
/// `I/(hγ) − J`, five right-hand-side evaluations for the stages, one at
/// the new point (the next step's first stage), and `n + 1` more for the
/// finite-difference Jacobian and `∂f/∂t` at each accepted point. Its step
/// size is limited by accuracy alone, never by stability, and its error
/// is controlled like [`Dopri5`]'s: scaled RMS of the embedded estimate
/// against `atol + rtol·max(|y|, |y_new|)`, with `h_min`, `h_max` and
/// `max_steps` honoured the same way. Accepted steps become knots of the
/// same cubic-Hermite [`Trajectory`], with slopes from the method's
/// continuous extension, and the error test also bounds the interpolant's
/// defect against that extension, so the dense output between knots is
/// held to the tolerance as well.
///
/// # Example
///
/// ```
/// use mfcsl_ode::stiff::Rodas4;
/// use mfcsl_ode::problem::FnSystem;
/// use mfcsl_ode::OdeOptions;
///
/// # fn main() -> Result<(), mfcsl_ode::OdeError> {
/// // y' = -1e6 (y - cos t): the solution hugs cos t, and an explicit
/// // method would need millions of steps to stay stable.
/// let sys = FnSystem::new(1, |t: f64, y: &[f64], dy: &mut [f64]| dy[0] = -1e6 * (y[0] - t.cos()));
/// let sol = Rodas4::new(OdeOptions::default()).solve(&sys, 0.0, 2.0, &[1.0])?;
/// assert!((sol.final_state()[0] - 2.0_f64.cos()).abs() < 1e-5);
/// assert!(sol.stats().accepted < 1_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Rodas4 {
    options: OdeOptions,
}

impl Rodas4 {
    /// Creates a solver with the given options.
    #[must_use]
    pub fn new(options: OdeOptions) -> Self {
        Rodas4 { options }
    }

    /// Integrates `sys` from `t0` to `t1 >= t0` starting at `y0`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Dopri5::solve`]: [`OdeError::InvalidArgument`]
    /// for bad arguments or options, [`OdeError::StepSizeTooSmall`] /
    /// [`OdeError::MaxStepsExceeded`] when the controller gives up, and
    /// [`OdeError::NonFiniteDerivative`] for a non-finite initial
    /// derivative.
    pub fn solve<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0: &[f64],
    ) -> Result<Trajectory, OdeError> {
        self.solve_into(sys, t0, t1, y0, &mut SolverWorkspace::new())
    }

    /// Like [`Rodas4::solve`] but reuses a caller-owned workspace.
    ///
    /// # Errors
    ///
    /// Same contract as [`Rodas4::solve`].
    pub fn solve_into<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0: &[f64],
        ws: &mut SolverWorkspace,
    ) -> Result<Trajectory, OdeError> {
        let dopri = Dopri5::new(self.options);
        let mut stats = SolveStats::default();
        let h = dopri.start(sys, t0, t1, y0, ws, &mut stats)?;
        let n = sys.dim();
        if let Some(h) = h {
            self.finish_scalar(sys, t0, t1, h, 0, ws, &mut stats)?;
        }
        ws.knots.take_trajectory(n, stats)
    }

    /// Continues a scalar solve whose state `(t, y, f)` sits in the
    /// workspace's `y`/`k1` buffers (and whose knots so far are in its
    /// arena) to `t1`, appending the implicit steps' knots.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_scalar<S: OdeSystem>(
        &self,
        sys: &S,
        t: f64,
        t1: f64,
        h: f64,
        steps: usize,
        ws: &mut SolverWorkspace,
        stats: &mut SolveStats,
    ) -> Result<(), OdeError> {
        let n = sys.dim();
        ws.stiff.reset(n, 1);
        ws.stiff.load(0, t, h, steps, &ws.y, &ws.k1);
        let mut calls = 0;
        self.drive(
            sys,
            false,
            t1,
            &mut ws.stiff,
            std::slice::from_mut(&mut ws.knots),
            std::slice::from_mut(stats),
            &mut calls,
        );
        match ws.stiff.take_error(0) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Advances every loaded lane of `sw` to `t1` in lockstep attempts,
    /// each lane with its own `t`, `h`, Jacobian and accept/reject, all
    /// right-hand sides batched over the attempting lanes. Lane `b`'s knots
    /// go to `knots[b]` and its counters to `stats[b]`; a lane that fails
    /// stops with its error in [`StiffWorkspace::take_error`]. `calls`
    /// counts right-hand-side invocations (batched calls on the batch
    /// lane). Per-lane arithmetic does not depend on the width.
    // Lane loops index a dozen parallel per-lane buffers by `b`.
    #[allow(
        clippy::too_many_lines,
        clippy::too_many_arguments,
        clippy::needless_range_loop
    )]
    pub(crate) fn drive<S: OdeSystem>(
        &self,
        sys: &S,
        batched: bool,
        t1: f64,
        sw: &mut StiffWorkspace,
        knots: &mut [KnotArena],
        stats: &mut [SolveStats],
        calls: &mut usize,
    ) {
        use rodas::{A, C, CT, D, DENSE2, DENSE3, GAMMA};
        let o = &self.options;
        let w = sw.state.len();
        let n = sw.col.len();
        let nn = n * n;
        loop {
            // Loop head per lane: step budget, h clamps, h_min underflow —
            // the Dopri5 loop head's rules.
            let mut any = false;
            for b in 0..w {
                sw.mask[b] = false;
                if sw.state[b] != StiffLane::Running {
                    continue;
                }
                sw.steps[b] += 1;
                let t = sw.lane_t[b];
                if sw.steps[b] > o.max_steps {
                    sw.fail(
                        b,
                        OdeError::MaxStepsExceeded {
                            steps: o.max_steps,
                            t,
                        },
                    );
                    continue;
                }
                let mut h = sw.lane_h[b].min(t1 - t).min(o.h_max);
                if h < o.h_min {
                    if t1 - t > o.h_min {
                        sw.fail(b, OdeError::StepSizeTooSmall { t, h });
                        continue;
                    }
                    h = t1 - t;
                }
                sw.lane_h[b] = h;
                sw.mask[b] = true;
                any = true;
            }
            if !any {
                break;
            }

            // Jacobian and ∂f/∂t by forward differences at every lane's new
            // accepted point; rejected attempts reuse them.
            let mut any_jac = false;
            for b in 0..w {
                sw.jac_mask[b] &= sw.mask[b];
                any_jac |= sw.jac_mask[b];
            }
            if any_jac {
                sw.y_stage.copy_from_slice(&sw.y);
                for j in 0..n {
                    for b in 0..w {
                        if sw.jac_mask[b] {
                            let yj = sw.y[j * w + b];
                            let yp = yj + fd_delta(yj);
                            sw.y_stage[j * w + b] = yp;
                            sw.delta[b] = yp - yj;
                            sw.stage_t[b] = sw.lane_t[b];
                        }
                    }
                    eval(
                        sys,
                        batched,
                        &sw.stage_t,
                        &sw.jac_mask,
                        &sw.y_stage,
                        &mut sw.dy,
                        w,
                        calls,
                    );
                    for b in 0..w {
                        if sw.jac_mask[b] {
                            stats[b].rhs_evals += 1;
                            for i in 0..n {
                                sw.jac[b * nn + i * n + j] =
                                    (sw.dy[i * w + b] - sw.f[i * w + b]) / sw.delta[b];
                            }
                            sw.y_stage[j * w + b] = sw.y[j * w + b];
                        }
                    }
                }
                for b in 0..w {
                    if sw.jac_mask[b] {
                        let t = sw.lane_t[b];
                        let tp = t + fd_delta(t);
                        sw.stage_t[b] = tp;
                        sw.delta[b] = tp - t;
                    }
                }
                eval(
                    sys,
                    batched,
                    &sw.stage_t,
                    &sw.jac_mask,
                    &sw.y,
                    &mut sw.dy,
                    w,
                    calls,
                );
                for b in 0..w {
                    if sw.jac_mask[b] {
                        stats[b].rhs_evals += 1;
                        for i in 0..n {
                            let j = i * w + b;
                            sw.ft[j] = (sw.dy[j] - sw.f[j]) / sw.delta[b];
                        }
                        sw.jac_mask[b] = false;
                    }
                }
            }

            // Factor I/(hγ) − J per lane; a singular or non-finite matrix
            // rejects the attempt with the smallest step factor.
            for b in 0..w {
                if !sw.mask[b] {
                    continue;
                }
                let fac = 1.0 / (sw.lane_h[b] * GAMMA);
                let block = &mut sw.lu[b * nn..(b + 1) * nn];
                for (e, &jv) in block.iter_mut().zip(&sw.jac[b * nn..(b + 1) * nn]) {
                    *e = -jv;
                }
                for i in 0..n {
                    block[i * n + i] += fac;
                }
                if !lu_factor(block, &mut sw.piv[b * n..(b + 1) * n], n) {
                    sw.mask[b] = false;
                    stats[b].rejected += 1;
                    sw.lane_h[b] *= R_FAC_MIN;
                    sw.after_reject[b] = true;
                }
            }

            // The six stages.
            let attempting = sw.mask.iter().any(|&m| m);
            for s in 0..6 {
                if !attempting {
                    break;
                }
                if s > 0 {
                    // Stage argument y + Σ a_sj u_j, evaluated at t + c_s h.
                    let (done, _) = sw.u.split_at(s);
                    for i in 0..n {
                        for b in 0..w {
                            if !sw.mask[b] {
                                continue;
                            }
                            let j = i * w + b;
                            let mut v = sw.y[j];
                            for (m, um) in done.iter().enumerate() {
                                v += A[s][m] * um[j];
                            }
                            sw.y_stage[j] = v;
                        }
                    }
                    for b in 0..w {
                        if sw.mask[b] {
                            sw.stage_t[b] = sw.lane_t[b] + CT[s] * sw.lane_h[b];
                            stats[b].rhs_evals += 1;
                        }
                    }
                    eval(
                        sys,
                        batched,
                        &sw.stage_t,
                        &sw.mask,
                        &sw.y_stage,
                        &mut sw.dy,
                        w,
                        calls,
                    );
                }
                // Stage right-hand side f_s + Σ (c_sj/h) u_j + h d_s ∂f/∂t,
                // then one LU solve per lane.
                let (done, rest) = sw.u.split_at_mut(s);
                let out = &mut rest[0];
                let base = if s == 0 { &sw.f } else { &sw.dy };
                for b in 0..w {
                    if !sw.mask[b] {
                        continue;
                    }
                    let h = sw.lane_h[b];
                    for i in 0..n {
                        let j = i * w + b;
                        let mut v = base[j];
                        for (m, um) in done.iter().enumerate() {
                            v += (C[s][m] / h) * um[j];
                        }
                        if D[s] != 0.0 {
                            v += (h * D[s]) * sw.ft[j];
                        }
                        sw.col[i] = v;
                    }
                    lu_solve(
                        &sw.lu[b * nn..(b + 1) * nn],
                        &sw.piv[b * n..(b + 1) * n],
                        n,
                        &mut sw.col,
                    );
                    for i in 0..n {
                        out[i * w + b] = sw.col[i];
                    }
                }
            }

            // New solution (last stage argument plus u6), its knot slope,
            // and the error: the scaled RMS of the embedded estimate u6, and
            // of the dense-output defect. The trajectory between
            // knots is the cubic Hermite interpolant, which matches the
            // step's continuous extension y + θ(Δ + (1 − θ)(q2 + θq3)) at
            // θ = 1/2 only when the stored start slope d0 agrees with its
            // start slope (Δ + q2)/h; the defect (h·d0 − Δ − q2)/8 is the
            // interpolant's midpoint error, so a step the Hermite curve
            // cannot follow is rejected like an inaccurate one.
            for b in 0..w {
                sw.accept[b] = false;
                if !sw.mask[b] {
                    continue;
                }
                let h = sw.lane_h[b];
                let mut err_sq = 0.0_f64;
                let mut dense_sq = 0.0_f64;
                for i in 0..n {
                    let j = i * w + b;
                    let y_new = sw.y_stage[j] + sw.u[5][j];
                    sw.y_new[j] = y_new;
                    let (mut q2, mut q3) = (0.0, 0.0);
                    for m in 0..5 {
                        q2 += DENSE2[m] * sw.u[m][j];
                        q3 += DENSE3[m] * sw.u[m][j];
                    }
                    let delta = y_new - sw.y[j];
                    // Knot slope from the continuous extension at θ = 1:
                    // f(t, y₁) itself carries y₁'s error times the stiff
                    // eigenvalue, which a step of hλ ≫ 1 would feed into
                    // the interpolant.
                    sw.d_new[j] = (delta - q2 - q3) / h;
                    let scale = o.atol + o.rtol * sw.y[j].abs().max(y_new.abs());
                    let q = sw.u[5][j] / scale;
                    err_sq += q * q;
                    let q = 0.125 * (h * sw.d[j] - delta - q2) / scale;
                    dense_sq += q * q;
                }
                let err = (err_sq / n as f64).sqrt();
                let dense = (dense_sq / n as f64).sqrt();
                sw.lane_err[b] = err;
                sw.lane_dense[b] = dense;
                if err.is_finite()
                    && dense.is_finite()
                    && ((err <= 1.0 && dense <= 1.0) || sw.lane_h[b] <= o.h_min)
                {
                    sw.accept[b] = true;
                    sw.stage_t[b] = sw.lane_t[b] + sw.lane_h[b];
                }
            }
            // Project the accepted points and evaluate their derivatives
            // (next step's first stage, and the knot's slope).
            if sw.accept.iter().any(|&a| a) {
                if batched {
                    sys.project_batch(&sw.stage_t, &sw.accept, &mut sw.y_new, w);
                } else {
                    sys.project(sw.stage_t[0], &mut sw.y_new);
                }
                eval(
                    sys,
                    batched,
                    &sw.stage_t,
                    &sw.accept,
                    &sw.y_new,
                    &mut sw.dy,
                    w,
                    calls,
                );
            }
            for b in 0..w {
                if !sw.mask[b] {
                    continue;
                }
                let mut accepted = sw.accept[b];
                if accepted {
                    stats[b].rhs_evals += 1;
                    if (0..n).any(|i| !sw.dy[i * w + b].is_finite()) {
                        accepted = false;
                        sw.lane_err[b] = f64::INFINITY;
                    }
                }
                if accepted {
                    stats[b].accepted += 1;
                    let t = sw.lane_t[b] + sw.lane_h[b];
                    sw.lane_t[b] = t;
                    for i in 0..n {
                        let j = i * w + b;
                        sw.y[j] = sw.y_new[j];
                        sw.f[j] = sw.dy[j];
                        sw.d[j] = sw.d_new[j];
                    }
                    knots[b].push_column(t, &sw.y, &sw.d, n, w, b);
                    sw.jac_mask[b] = true;
                    if t >= t1 {
                        sw.state[b] = StiffLane::Finished;
                    }
                } else {
                    stats[b].rejected += 1;
                }
                // Order-4 controller on both error measures. The defect of
                // a retry from the same point shrinks only in proportion to
                // h (its start slope is fixed), so a rejection it caused
                // cuts h by the defect itself; across an accepted step it
                // scales like h⁴ (the next start slope is this step's end
                // slope). After a rejection the step may not grow on the
                // next acceptance.
                let (err, dense) = (sw.lane_err[b], sw.lane_dense[b]);
                let mut fac = if !err.is_finite() || !dense.is_finite() {
                    R_FAC_MIN
                } else if accepted {
                    R_SAFETY * err.max(dense).powf(-0.25)
                } else {
                    R_SAFETY * err.powf(-0.25).min(1.0 / dense)
                }
                .clamp(R_FAC_MIN, R_FAC_MAX);
                if accepted && sw.after_reject[b] {
                    fac = fac.min(1.0);
                }
                sw.after_reject[b] = !accepted;
                sw.lane_h[b] *= fac;
            }
        }
    }
}

/// Fixed-step implicit trapezoidal integrator.
///
/// # Example
///
/// ```
/// use mfcsl_ode::stiff::ImplicitTrapezoid;
/// use mfcsl_ode::problem::FnSystem;
///
/// # fn main() -> Result<(), mfcsl_ode::OdeError> {
/// // Very stiff decay: y' = -1000 y. 50 implicit steps stay stable where
/// // explicit Euler with the same step size would explode.
/// let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -1000.0 * y[0]);
/// let sol = ImplicitTrapezoid::default().solve(&sys, 0.0, 1.0, &[1.0], 50)?;
/// assert!(sol.final_state()[0].abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ImplicitTrapezoid {
    /// Newton convergence tolerance on the step increment (max norm).
    pub newton_tol: f64,
    /// Maximum Newton iterations per step.
    pub max_newton_iters: usize,
    /// Finite-difference perturbation scale for the Jacobian.
    pub fd_eps: f64,
}

impl Default for ImplicitTrapezoid {
    fn default() -> Self {
        ImplicitTrapezoid {
            newton_tol: 1e-12,
            max_newton_iters: 25,
            fd_eps: 1e-7,
        }
    }
}

impl ImplicitTrapezoid {
    /// Integrates `sys` from `t0` to `t1` in `steps` equal implicit steps.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidArgument`] for bad arguments,
    /// [`OdeError::NewtonFailed`] if a step's Newton iteration does not
    /// converge, and propagates LU failures as [`OdeError::Math`].
    pub fn solve<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0: &[f64],
        steps: usize,
    ) -> Result<Trajectory, OdeError> {
        let n = sys.dim();
        if y0.len() != n {
            return Err(OdeError::InvalidArgument(format!(
                "initial state has dimension {}, system expects {n}",
                y0.len()
            )));
        }
        if !(t1 >= t0) {
            return Err(OdeError::InvalidArgument(format!(
                "integration range [{t0}, {t1}] is reversed or NaN"
            )));
        }
        if steps == 0 {
            return Err(OdeError::InvalidArgument("steps must be positive".into()));
        }
        let mut stats = SolveStats::default();
        let mut t = t0;
        let mut y = y0.to_vec();
        sys.project(t, &mut y);
        let mut f_cur = vec![0.0; n];
        sys.rhs(t, &y, &mut f_cur);
        stats.rhs_evals += 1;

        let mut ts = vec![t];
        let mut ys = vec![y.clone()];
        let mut ds = vec![f_cur.clone()];
        if t1 == t0 {
            return Trajectory::new(ts, ys, ds, stats);
        }
        let h = (t1 - t0) / steps as f64;

        let mut f_next = vec![0.0; n];
        for step in 0..steps {
            let t_next = if step + 1 == steps {
                t1
            } else {
                t0 + h * (step + 1) as f64
            };
            // Predictor: the current state. An explicit-Euler predictor
            // `y + h f` overshoots by O(h·λ) on exactly the stiff problems
            // this method exists for, and can strand Newton in a region
            // where a clamping right-hand side has a singular Jacobian;
            // starting from `y` keeps the iterates near the solution
            // manifold at the cost of at most one extra iteration.
            let mut y_next: Vec<f64> = y.clone();
            // Newton iterations on
            //   G(y_next) = y_next - y - h/2 (f(t, y) + f(t_next, y_next)) = 0.
            let mut converged = false;
            let mut prev_step = f64::INFINITY;
            for _ in 0..self.max_newton_iters {
                sys.rhs(t_next, &y_next, &mut f_next);
                stats.rhs_evals += 1;
                let residual: Vec<f64> = (0..n)
                    .map(|i| y_next[i] - y[i] - 0.5 * h * (f_cur[i] + f_next[i]))
                    .collect();
                let jac = self.jacobian(sys, t_next, &y_next, &f_next, &mut stats);
                // Newton matrix: I - h/2 J.
                let mut newton = jac.scaled(-0.5 * h);
                for i in 0..n {
                    newton[(i, i)] += 1.0;
                }
                let delta = LuDecomposition::new(&newton)?.solve(&residual)?;
                let mut max_step = 0.0_f64;
                for i in 0..n {
                    y_next[i] -= delta[i];
                    max_step = max_step.max(delta[i].abs());
                }
                let scale = 1.0 + mfcsl_math::vec_ops::norm_inf(&y_next);
                if max_step <= self.newton_tol * scale {
                    converged = true;
                    break;
                }
                // Stagnation at the rounding floor: with a large Lipschitz
                // constant the residual's f64 noise (h·λ·ulp-level) can sit
                // just above `newton_tol`, so increments go tiny but stop
                // contracting. That is convergence, not failure.
                if max_step <= 1e4 * self.newton_tol * scale && max_step > 0.5 * prev_step {
                    converged = true;
                    break;
                }
                prev_step = max_step;
            }
            if !converged {
                return Err(OdeError::NewtonFailed { t: t_next });
            }
            sys.project(t_next, &mut y_next);
            sys.rhs(t_next, &y_next, &mut f_next);
            stats.rhs_evals += 1;
            if y_next.iter().any(|v| !v.is_finite()) {
                return Err(OdeError::NonFiniteDerivative { t: t_next });
            }
            stats.accepted += 1;
            t = t_next;
            y.copy_from_slice(&y_next);
            f_cur.copy_from_slice(&f_next);
            ts.push(t);
            ys.push(y.clone());
            ds.push(f_cur.clone());
        }
        Trajectory::new(ts, ys, ds, stats)
    }

    /// Forward-difference Jacobian of the right-hand side.
    fn jacobian<S: OdeSystem>(
        &self,
        sys: &S,
        t: f64,
        y: &[f64],
        f_at_y: &[f64],
        stats: &mut SolveStats,
    ) -> Matrix {
        let n = y.len();
        let mut jac = Matrix::zeros(n, n);
        let mut y_pert = y.to_vec();
        let mut f_pert = vec![0.0; n];
        for j in 0..n {
            let eps = self.fd_eps * (1.0 + y[j].abs());
            y_pert[j] = y[j] + eps;
            sys.rhs(t, &y_pert, &mut f_pert);
            stats.rhs_evals += 1;
            for i in 0..n {
                jac[(i, j)] = (f_pert[i] - f_at_y[i]) / eps;
            }
            y_pert[j] = y[j];
        }
        jac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{integrate_fixed, FixedMethod};
    use crate::problem::FnSystem;

    fn stiff_decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -1000.0 * y[0])
    }

    /// The untransformed Rosenbrock coefficients `(α, Γ, b)` behind the
    /// transformed RODAS tables: `Γ⁻¹ = I/γ − C`, `α = AΓ`, `bᵀ = mᵀΓ`
    /// with `m` the solution's stage weights.
    #[allow(clippy::needless_range_loop)] // triangular index ranges
    fn rodas_untransformed() -> ([[f64; 6]; 6], [[f64; 6]; 6], [f64; 6]) {
        use rodas::{A, C, GAMMA};
        let mut ginv = [[0.0; 6]; 6];
        for i in 0..6 {
            ginv[i][i] = 1.0 / GAMMA;
            for j in 0..i {
                ginv[i][j] = -C[i][j];
            }
        }
        // Γ = (Γ⁻¹)⁻¹ by forward substitution, column by column.
        let mut g = [[0.0; 6]; 6];
        for col in 0..6 {
            for i in col..6 {
                let mut v = if i == col { 1.0 } else { 0.0 };
                for k in col..i {
                    v -= ginv[i][k] * g[k][col];
                }
                g[i][col] = v / ginv[i][i];
            }
        }
        let mut alpha = [[0.0; 6]; 6];
        for i in 0..6 {
            for j in 0..6 {
                alpha[i][j] = (0..i.min(5)).map(|k| A[i][k] * g[k][j]).sum();
            }
        }
        let m = [A[5][0], A[5][1], A[5][2], A[5][3], 1.0, 1.0];
        let mut b = [0.0; 6];
        for j in 0..6 {
            b[j] = (0..6).map(|i| m[i] * g[i][j]).sum();
        }
        (alpha, g, b)
    }

    #[test]
    fn rodas_coefficients_satisfy_order_four_conditions() {
        use rodas::{CT, D, GAMMA};
        let (alpha, g, b) = rodas_untransformed();
        let beta = |i: usize, j: usize| alpha[i][j] + g[i][j];
        let a_row = |i: usize| (0..i).map(|j| alpha[i][j]).sum::<f64>();
        let b_row = |i: usize| (0..i).map(|j| beta(i, j)).sum::<f64>();
        for i in 0..6 {
            assert!((a_row(i) - CT[i]).abs() < 1e-12, "c_{i}");
            let gamma_i: f64 = (0..=i).map(|j| g[i][j]).sum();
            assert!((gamma_i - D[i]).abs() < 1e-12, "d_{i}: {gamma_i}");
        }
        let sum = |f: &dyn Fn(usize) -> f64| (0..6).map(f).sum::<f64>();
        let gm = GAMMA;
        let conditions = [
            (sum(&|i| b[i]), 1.0),
            (sum(&|i| b[i] * b_row(i)), 0.5 - gm),
            (sum(&|i| b[i] * a_row(i).powi(2)), 1.0 / 3.0),
            (
                sum(&|i| b[i] * (0..i).map(|j| beta(i, j) * b_row(j)).sum::<f64>()),
                1.0 / 6.0 - gm + gm * gm,
            ),
            (sum(&|i| b[i] * a_row(i).powi(3)), 0.25),
            (
                sum(&|i| b[i] * a_row(i) * (0..i).map(|j| alpha[i][j] * b_row(j)).sum::<f64>()),
                1.0 / 8.0 - gm / 3.0,
            ),
            (
                sum(&|i| b[i] * (0..i).map(|j| beta(i, j) * a_row(j).powi(2)).sum::<f64>()),
                1.0 / 12.0 - gm / 3.0,
            ),
            (
                sum(&|i| {
                    b[i] * (0..i)
                        .map(|j| beta(i, j) * (0..j).map(|k| beta(j, k) * b_row(k)).sum::<f64>())
                        .sum::<f64>()
                }),
                1.0 / 24.0 - gm / 2.0 + 1.5 * gm * gm - gm.powi(3),
            ),
        ];
        for (k, (got, want)) in conditions.iter().enumerate() {
            assert!((got - want).abs() < 1e-10, "condition {k}: {got} vs {want}");
        }
    }

    #[test]
    fn rodas_is_fourth_order() {
        // Step size pinned by h_max with loose tolerances: halving it cuts
        // the error by about 2^4.
        let sys = FnSystem::new(1, |t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[0] * t.cos()
        });
        let exact = 1.0_f64.sin().exp();
        let run = |h: f64| {
            let opts = OdeOptions::default()
                .with_tolerances(1.0, 1.0)
                .with_h_max(h);
            let sol = Rodas4::new(opts).solve(&sys, 0.0, 1.0, &[1.0]).unwrap();
            (sol.final_state()[0] - exact).abs()
        };
        let (e1, e2) = (run(0.1), run(0.05));
        let order = (e1 / e2).log2();
        assert!(order > 3.5, "observed order {order} ({e1:.3e}, {e2:.3e})");
    }

    #[test]
    fn rodas_is_l_stable() {
        // Unit-scale steps on y' = -1e8 y (tolerances loose enough to
        // accept them): the stiff component is annihilated, R(-1e8) ≈
        // R(∞) = 0, where an A-stable but not L-stable method (the
        // trapezoid's R(∞) = -1) would carry it undamped.
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -1e8 * y[0]);
        let opts = OdeOptions {
            h_init: Some(1.0),
            h_max: 1.0,
            ..OdeOptions::default().with_tolerances(1e6, 1e6)
        };
        let sol = Rodas4::new(opts).solve(&sys, 0.0, 1.0, &[1.0]).unwrap();
        assert!(sol.stats().accepted <= 3, "{:?}", sol.stats());
        assert!(
            sol.final_state()[0].abs() < 1e-7,
            "{}",
            sol.final_state()[0]
        );
    }

    #[test]
    fn rodas_dense_output_is_error_controlled() {
        // A stiff component slaved to a forcing: y ≈ cos t. The step error
        // alone would let steps grow to h_max, where the Hermite
        // interpolant between knots misses the curvature; the dense-output
        // defect keeps it within the tolerance scale everywhere.
        let lambda = 1e7;
        let sys = FnSystem::new(1, move |t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -lambda * (y[0] - t.cos());
        });
        let exact = |t: f64| {
            let l2 = lambda * lambda;
            (t.cos() * l2 + t.sin() * lambda) / (1.0 + l2) + (-lambda * t).exp() / (1.0 + l2)
        };
        let sol = Rodas4::new(OdeOptions::default())
            .solve(&sys, 0.0, 3.0, &[1.0])
            .unwrap();
        for k in 0..=3000 {
            let t = 0.001 * f64::from(k);
            let e = (sol.eval(t)[0] - exact(t)).abs();
            assert!(e < 1e-8, "t = {t}: dense error {e:e}");
        }
    }

    #[test]
    fn rodas_error_tracks_the_tolerance() {
        // The classic stiff fixture y' = -λ(y - cos t) with a consistent
        // start: tightening rtol/atol tightens the answer accordingly.
        let lambda = 1e6;
        let sys = FnSystem::new(1, move |t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -lambda * (y[0] - t.cos());
        });
        // Exact: cos t + (λ sin t... ) — compared against a much tighter run.
        let reference = Rodas4::new(OdeOptions::default().with_tolerances(1e-13, 1e-15))
            .solve(&sys, 0.0, 3.0, &[1.0])
            .unwrap()
            .final_state()[0];
        let mut prev = f64::INFINITY;
        for tol in [1e-5, 1e-7, 1e-9] {
            let sol = Rodas4::new(OdeOptions::default().with_tolerances(tol, tol))
                .solve(&sys, 0.0, 3.0, &[1.0])
                .unwrap();
            let e = (sol.final_state()[0] - reference).abs();
            assert!(e < 10.0 * tol, "tol {tol}: error {e}");
            assert!(e <= prev);
            prev = e;
        }
    }

    #[test]
    fn rodas_honours_budget_and_validates() {
        let s = stiff_decay();
        let r = Rodas4::new(OdeOptions::default().with_max_steps(2).with_h_max(1e-3)).solve(
            &s,
            0.0,
            1.0,
            &[1.0],
        );
        assert!(matches!(r, Err(OdeError::MaxStepsExceeded { .. })), "{r:?}");
        assert!(Rodas4::new(OdeOptions::default())
            .solve(&s, 1.0, 0.0, &[1.0])
            .is_err());
        assert!(Rodas4::new(OdeOptions::default())
            .solve(&s, 0.0, 1.0, &[1.0, 2.0])
            .is_err());
        let nan = FnSystem::new(1, |_t, _y: &[f64], dy: &mut [f64]| dy[0] = f64::NAN);
        let r = Rodas4::new(OdeOptions::default()).solve(&nan, 0.0, 1.0, &[1.0]);
        assert!(
            matches!(r, Err(OdeError::NonFiniteDerivative { .. })),
            "{r:?}"
        );
        let sol = Rodas4::new(OdeOptions::default())
            .solve(&s, 0.5, 0.5, &[2.0])
            .unwrap();
        assert_eq!(sol.final_state(), vec![2.0]);
    }

    #[test]
    fn stable_on_stiff_problem_where_explicit_explodes() {
        // 50 steps of h = 0.02 on lambda = -1000: explicit Euler diverges.
        let explicit = integrate_fixed(&stiff_decay(), FixedMethod::Euler, 0.0, 1.0, &[1.0], 50)
            .unwrap()
            .final_state()[0];
        assert!(explicit.abs() > 1e10, "explicit euler should blow up");
        let implicit = ImplicitTrapezoid::default()
            .solve(&stiff_decay(), 0.0, 1.0, &[1.0], 50)
            .unwrap()
            .final_state()[0];
        assert!(implicit.abs() < 1e-2, "implicit stays bounded: {implicit}");
    }

    #[test]
    fn second_order_convergence_on_smooth_problem() {
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
        let exact = (-1.0_f64).exp();
        let err = |steps| {
            (ImplicitTrapezoid::default()
                .solve(&sys, 0.0, 1.0, &[1.0], steps)
                .unwrap()
                .final_state()[0]
                - exact)
                .abs()
        };
        let e1 = err(50);
        let e2 = err(100);
        let order = (e1 / e2).log2();
        assert!((order - 2.0).abs() < 0.1, "observed order {order}");
    }

    #[test]
    fn nonlinear_problem_logistic() {
        // y' = y(1-y), y(0)=0.1; exact: 1/(1 + 9 e^{-t}).
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[0] * (1.0 - y[0])
        });
        let sol = ImplicitTrapezoid::default()
            .solve(&sys, 0.0, 5.0, &[0.1], 500)
            .unwrap();
        let exact = 1.0 / (1.0 + 9.0 * (-5.0_f64).exp());
        assert!((sol.final_state()[0] - exact).abs() < 1e-5);
    }

    #[test]
    fn linear_system_matches_expm() {
        // 2-state generator; compare against the matrix exponential.
        let sys = FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = -2.0 * y[0] + 1.0 * y[1];
            dy[1] = 2.0 * y[0] - 1.0 * y[1];
        });
        let sol = ImplicitTrapezoid::default()
            .solve(&sys, 0.0, 1.0, &[1.0, 0.0], 400)
            .unwrap();
        let a = Matrix::from_rows(&[&[-2.0, 1.0], &[2.0, -1.0]]).unwrap();
        let e = mfcsl_math::expm::expm(&a).unwrap();
        // Column vector convention: y(1) = e^{A} y(0).
        let expected = e.mul_vec(&[1.0, 0.0]).unwrap();
        for (a, b) in sol.final_state().iter().zip(&expected) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn validates_arguments() {
        let s = stiff_decay();
        assert!(ImplicitTrapezoid::default()
            .solve(&s, 1.0, 0.0, &[1.0], 10)
            .is_err());
        assert!(ImplicitTrapezoid::default()
            .solve(&s, 0.0, 1.0, &[1.0, 2.0], 10)
            .is_err());
        assert!(ImplicitTrapezoid::default()
            .solve(&s, 0.0, 1.0, &[1.0], 0)
            .is_err());
    }

    #[test]
    fn zero_interval() {
        let sol = ImplicitTrapezoid::default()
            .solve(&stiff_decay(), 0.5, 0.5, &[2.0], 10)
            .unwrap();
        assert_eq!(sol.final_state(), vec![2.0]);
    }
}
