//! Solver output: dense trajectories.

use mfcsl_math::interp::HermiteCurve;
use serde::{Deserialize, Serialize};

use crate::OdeError;

/// Statistics collected during an integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// Accepted steps.
    pub accepted: usize,
    /// Rejected (re-tried) steps.
    pub rejected: usize,
    /// Right-hand-side evaluations.
    pub rhs_evals: usize,
    /// Integrations that only succeeded after at least one rung of the
    /// recovery ladder (see [`crate::recover`]). Zero for a healthy solve.
    pub recoveries: usize,
    /// Integrations produced by the implicit [`crate::stiff::Rodas4`]
    /// fallback, the ladder's last rung. Always `<= recoveries`.
    pub stiff_fallbacks: usize,
    /// Primary solves that detected stiffness in the explicit drive and
    /// handed the rest of the span to [`crate::stiff::Rodas4`]. Not a
    /// recovery: the solve never failed.
    pub stiff_switches: usize,
}

/// Flat knot-major arenas accumulating one integration's accepted steps:
/// `ys[k*dim..]` and `ds[k*dim..]` are the state and derivative at `ts[k]`.
/// Every drive (scalar Dopri5, the batched lanes, the implicit stepper)
/// appends to one of these and moves it into a [`Trajectory`] at the end.
#[derive(Debug, Default)]
pub(crate) struct KnotArena {
    pub(crate) ts: Vec<f64>,
    pub(crate) ys: Vec<f64>,
    pub(crate) ds: Vec<f64>,
}

impl KnotArena {
    pub(crate) fn clear(&mut self) {
        self.ts.clear();
        self.ys.clear();
        self.ds.clear();
    }

    /// Appends the knot `(t, y[:, b], d[:, b])` from structure-of-arrays
    /// buffers of width `width` (component `i` of lane `b` at
    /// `i * width + b`); width 1 is a plain vector.
    pub(crate) fn push_column(
        &mut self,
        t: f64,
        y: &[f64],
        d: &[f64],
        n: usize,
        width: usize,
        b: usize,
    ) {
        self.ts.push(t);
        for i in 0..n {
            self.ys.push(y[i * width + b]);
        }
        for i in 0..n {
            self.ds.push(d[i * width + b]);
        }
    }

    /// Moves the arenas into a trajectory, leaving them empty.
    pub(crate) fn take_trajectory(
        &mut self,
        dim: usize,
        stats: SolveStats,
    ) -> Result<Trajectory, OdeError> {
        Trajectory::from_flat(
            dim,
            std::mem::take(&mut self.ts),
            std::mem::take(&mut self.ys),
            std::mem::take(&mut self.ds),
            stats,
        )
    }
}

/// A dense ODE solution on `[t_start, t_end]`.
///
/// The trajectory stores the state and derivative at every accepted step and
/// interpolates in between with a C¹ cubic Hermite curve, so it can be
/// evaluated at arbitrary times — which is exactly what the Kolmogorov-based
/// model-checking algorithms need when they query `m̄(t)` at their own
/// integration times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    curve: HermiteCurve,
    stats: SolveStats,
}

impl Trajectory {
    /// Builds a trajectory from knot data.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`HermiteCurve::new`].
    pub fn new(
        ts: Vec<f64>,
        ys: Vec<Vec<f64>>,
        ds: Vec<Vec<f64>>,
        stats: SolveStats,
    ) -> Result<Self, OdeError> {
        Ok(Trajectory {
            curve: HermiteCurve::new(ts, ys, ds)?,
            stats,
        })
    }

    /// Builds a trajectory from flat knot-major arenas (`ys[k*dim..]` is the
    /// state at `ts[k]`), the layout the solver workspace accumulates
    /// accepted steps into.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`HermiteCurve::from_flat`].
    pub fn from_flat(
        dim: usize,
        ts: Vec<f64>,
        ys: Vec<f64>,
        ds: Vec<f64>,
        stats: SolveStats,
    ) -> Result<Self, OdeError> {
        Ok(Trajectory {
            curve: HermiteCurve::from_flat(dim, ts, ys, ds)?,
            stats,
        })
    }

    /// Decomposes the trajectory into the flat knot-major arenas accepted
    /// by [`Trajectory::from_flat`], as `(dim, ts, ys, ds, stats)`. The
    /// round trip is bitwise exact, which is what lets snapshot formats
    /// persist a trajectory without touching its numerics.
    #[must_use]
    pub fn to_flat(&self) -> (usize, Vec<f64>, Vec<f64>, Vec<f64>, SolveStats) {
        let dim = self.curve.dim();
        let ts = self.curve.knots().to_vec();
        let mut ys = Vec::with_capacity(ts.len() * dim);
        let mut ds = Vec::with_capacity(ts.len() * dim);
        for k in 0..ts.len() {
            ys.extend_from_slice(self.curve.value_at(k));
            ds.extend_from_slice(self.curve.derivative_at(k));
        }
        (dim, ts, ys, ds, self.stats)
    }

    /// State dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.curve.dim()
    }

    /// Start of the solved time range.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.curve.t_start()
    }

    /// End of the solved time range.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.curve.t_end()
    }

    /// The accepted step times.
    #[must_use]
    pub fn knots(&self) -> &[f64] {
        self.curve.knots()
    }

    /// Integration statistics.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Evaluates the state at time `t` (clamped to the solved range).
    #[must_use]
    pub fn eval(&self, t: f64) -> Vec<f64> {
        self.curve.eval(t)
    }

    /// Evaluates the state at time `t` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn eval_into(&self, t: f64, out: &mut [f64]) {
        self.curve.eval_into(t, out);
    }

    /// Evaluates the state derivative at time `t`.
    #[must_use]
    pub fn eval_derivative(&self, t: f64) -> Vec<f64> {
        self.curve.eval_derivative(t)
    }

    /// The final state `y(t_end)`.
    #[must_use]
    pub fn final_state(&self) -> Vec<f64> {
        self.eval(self.t_end())
    }

    /// Borrows the underlying interpolation curve.
    #[must_use]
    pub fn curve(&self) -> &HermiteCurve {
        &self.curve
    }

    /// Stamps this trajectory as produced by the recovery ladder: one
    /// recovered integration, plus one stiff fallback when the implicit
    /// rung produced it.
    pub(crate) fn mark_recovered(&mut self, stiff_fallback: bool) {
        self.stats.recoveries += 1;
        if stiff_fallback {
            self.stats.stiff_fallbacks += 1;
        }
    }

    /// Appends `tail` (a solution segment starting exactly at this
    /// trajectory's `t_end`) and sums the integration statistics.
    ///
    /// The knot data on the original `[t_start, t_end]` range is kept
    /// bitwise intact, so evaluations there are unchanged; only the solved
    /// range grows. This is how the analysis engine extends a cached
    /// mean-field trajectory to a longer horizon without re-solving from 0.
    ///
    /// # Errors
    ///
    /// Propagates [`HermiteCurve::concat`] errors: dimension mismatch or a
    /// tail that does not start at `t_end`.
    pub fn extended_with(self, tail: &Trajectory) -> Result<Self, OdeError> {
        let stats = SolveStats {
            accepted: self.stats.accepted + tail.stats.accepted,
            rejected: self.stats.rejected + tail.stats.rejected,
            rhs_evals: self.stats.rhs_evals + tail.stats.rhs_evals,
            recoveries: self.stats.recoveries + tail.stats.recoveries,
            stiff_fallbacks: self.stats.stiff_fallbacks + tail.stats.stiff_fallbacks,
            stiff_switches: self.stats.stiff_switches + tail.stats.stiff_switches,
        };
        Ok(Trajectory {
            curve: self.curve.concat(&tail.curve)?,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_trajectory() -> Trajectory {
        // y(t) = 2t on [0, 2].
        Trajectory::new(
            vec![0.0, 1.0, 2.0],
            vec![vec![0.0], vec![2.0], vec![4.0]],
            vec![vec![2.0], vec![2.0], vec![2.0]],
            SolveStats {
                accepted: 2,
                rejected: 0,
                rhs_evals: 12,
                ..SolveStats::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let tr = linear_trajectory();
        assert_eq!(tr.dim(), 1);
        assert_eq!(tr.t_start(), 0.0);
        assert_eq!(tr.t_end(), 2.0);
        assert_eq!(tr.knots().len(), 3);
        assert_eq!(tr.stats().accepted, 2);
        assert_eq!(tr.final_state(), vec![4.0]);
    }

    #[test]
    fn interpolation_is_exact_for_linear_data() {
        let tr = linear_trajectory();
        assert!((tr.eval(0.7)[0] - 1.4).abs() < 1e-14);
        assert!((tr.eval_derivative(1.3)[0] - 2.0).abs() < 1e-12);
        let mut buf = [0.0];
        tr.eval_into(1.5, &mut buf);
        assert!((buf[0] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn extension_preserves_prefix_and_sums_stats() {
        let tr = linear_trajectory();
        let tail = Trajectory::new(
            vec![2.0, 3.0],
            vec![vec![4.0], vec![6.0]],
            vec![vec![2.0], vec![2.0]],
            SolveStats {
                accepted: 1,
                rejected: 2,
                rhs_evals: 7,
                ..SolveStats::default()
            },
        )
        .unwrap();
        let before = tr.eval(0.7);
        let joined = tr.extended_with(&tail).unwrap();
        assert_eq!(joined.t_end(), 3.0);
        assert_eq!(joined.eval(0.7), before);
        assert!((joined.eval(2.5)[0] - 5.0).abs() < 1e-14);
        assert_eq!(joined.stats().accepted, 3);
        assert_eq!(joined.stats().rejected, 2);
        assert_eq!(joined.stats().rhs_evals, 19);
        // A gap is rejected.
        let gap = linear_trajectory();
        assert!(joined.extended_with(&gap).is_err());
    }

    #[test]
    fn invalid_knots_rejected() {
        let r = Trajectory::new(
            vec![0.0, 0.0],
            vec![vec![0.0], vec![1.0]],
            vec![vec![0.0], vec![0.0]],
            SolveStats::default(),
        );
        assert!(r.is_err());
    }
}
