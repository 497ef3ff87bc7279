//! The offline workloads, closed loops in-process: `sweep_stiff` (cSat
//! sweeps on Setting 2) and `check_batch` (fresh `mfcsl check`-sized
//! batches near Setting 1).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfcsl_core::meanfield::{self, OccupancyTrajectory};
use mfcsl_core::mfcsl::{parse_formula, CheckSession, EngineStats, MfFormula};
use mfcsl_core::{LocalModel, Occupancy};
use mfcsl_csl::nested::{reach_probability, PiecewiseSets, PiecewiseStateSet};
use mfcsl_csl::until::until_probabilities;
use mfcsl_csl::{TimeInterval, Tolerances};
use mfcsl_ctmc::inhomogeneous::transition_matrix;
use mfcsl_math::{alloc_counter, IntervalSet};
use mfcsl_modelfile::ModelFile;
use mfcsl_ode::stiff::ImplicitTrapezoid;
use mfcsl_ode::SolverWorkspace;
use mfcsl_pool::ThreadPool;

use crate::gen::{self, CheckItem};
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{host, Bits, Ctx, Report};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// cSat evaluation horizon of `sweep_stiff`.
const SWEEP_THETA: f64 = 6.0;
/// Latency limit of one 12-occupancy sweep.
const SWEEP_SLO_S: f64 = 10.0;
/// Latency limit of one `check_batch` item.
const CHECK_SLO_S: f64 = 0.05;
/// Traced `sweep_stiff` items (each replays the same grid).
const TRACED_SWEEPS: usize = 2;
/// Implicit-trapezoid steps per unit time of the `sweep_stiff` reference.
const REFERENCE_STEPS_PER_UNIT: f64 = 1500.0;
/// The SmartVirus guard floor of the rate `k1·m3/max(m1, 1e-6)`.
const GUARD_FLOOR: f64 = 1e-6;

const NOT_INFECTED: [bool; 3] = [true, false, false];
const INFECTED: [bool; 3] = [false, true, true];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `ModelFile::parse` + `instantiate_with`: the CLI's and the daemon's path
/// from `.mf` text to a model. Returns the model and the time it took.
pub fn build_model(text: &str) -> Result<(LocalModel, f64), String> {
    let t0 = Instant::now();
    let file = ModelFile::parse(text).map_err(err)?;
    let model = file.instantiate_with(&BTreeMap::new()).map_err(err)?;
    Ok((model, t0.elapsed().as_secs_f64() * 1e3))
}

pub fn occupancy(m: &[f64; 3]) -> Result<Occupancy, String> {
    Occupancy::new(m.to_vec()).map_err(err)
}

/// Solver and cache counters of one session, summed over its solves.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    rhs_evals: f64,
    accepted: f64,
    rejected: f64,
    stiff_fallbacks: f64,
    recoveries: f64,
    reuse_ratio: f64,
    cache_hit_ratio: f64,
}

fn counts(stats: &EngineStats) -> Counts {
    let sum = |f: fn(&mfcsl_core::mfcsl::SolveRecord) -> usize| {
        stats.solves.iter().map(f).sum::<usize>() as f64
    };
    let c = &stats.cache;
    let hits = (c.set_hits + c.curve_hits) as f64;
    let lookups = hits + (c.set_misses + c.curve_misses) as f64;
    let uses =
        (stats.trajectory_solves + stats.trajectory_extensions + stats.trajectory_reuses) as f64;
    Counts {
        rhs_evals: sum(|s| s.rhs_evals),
        accepted: sum(|s| s.ode_steps),
        rejected: sum(|s| s.rejected_steps),
        stiff_fallbacks: sum(|s| s.stiff_fallbacks),
        recoveries: sum(|s| s.recoveries),
        reuse_ratio: ratio(stats.trajectory_reuses as f64, uses),
        cache_hit_ratio: ratio(hits, lookups),
    }
}

fn set_counts(report: &mut Report, per_item: &[Counts]) {
    let med = |f: fn(&Counts) -> f64| median(&per_item.iter().map(f).collect::<Vec<_>>());
    report.set("ode.rhs_evals", med(|c| c.rhs_evals));
    report.set("ode.steps_accepted", med(|c| c.accepted));
    report.set("ode.steps_rejected", med(|c| c.rejected));
    report.set(
        "ode.accept_ratio",
        med(|c| ratio(c.accepted, c.accepted + c.rejected)),
    );
    report.set("ode.stiff_fallbacks", med(|c| c.stiff_fallbacks));
    report.set("ode.recoveries", med(|c| c.recoveries));
    report.set("core.trajectory_reuse_ratio", med(|c| c.reuse_ratio));
    report.set("csl.cache_hit_ratio", med(|c| c.cache_hit_ratio));
}

/// Pool counters over a phase: tasks per item and utilization.
fn set_pool(
    report: &mut Report,
    before: &mfcsl_pool::PoolStats,
    after: &mfcsl_pool::PoolStats,
    items: usize,
) {
    let busy = after.busy.saturating_sub(before.busy).as_secs_f64();
    let elapsed = after.elapsed.saturating_sub(before.elapsed).as_secs_f64();
    report.set(
        "pool.utilization",
        ratio(busy, after.threads as f64 * elapsed),
    );
    report.set(
        "pool.tasks",
        ratio(
            (after.total_tasks - before.total_tasks) as f64,
            items as f64,
        ),
    );
}

/// Per-layer span medians in ms, the remainder, the accounting check and
/// the tracing overhead (traced item p50 minus untraced item p50).
fn set_spans(report: &mut Report, tracer: &Tracer, layers: &[&'static str], untraced_p50_ms: f64) {
    let by_name = tracer.self_times_by_name();
    for name in layers {
        if let Some(times) = by_name.get(name) {
            report.set(name, median(times) / 1e3);
        }
    }
    let items: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "item")
        .map(|s| (s.end_us - s.start_us) / 1e3)
        .collect();
    report.set(
        "remainder_ms",
        by_name.get("item").map_or(0.0, |t| median(t) / 1e3),
    );
    report.set("trace.overhead_ms", median(&items) - untraced_p50_ms);
    let accounting = tracer.accounting_error_us();
    report.set("trace.accounting_error_us", accounting);
    report.spans = tracer.json_lines();
    if accounting > 1.0 {
        report.fail(format!(
            "layer self times miss item time by {accounting} us"
        ));
    }
}

/// Shortest stretch of items between two steal marks.
const WINDOW: Duration = Duration::from_millis(500);

/// A closed loop's timed items, with steal marks between them.
#[derive(Default)]
struct Timed {
    latencies: Vec<f64>,
    windows: host::Windows,
    last_mark: Option<Instant>,
}

impl Timed {
    fn push(&mut self, latency: f64) {
        self.latencies.push(latency);
        if self.last_mark.is_none_or(|t| t.elapsed() >= WINDOW) {
            self.windows.mark(self.latencies.len() as f64);
            self.last_mark = Some(Instant::now());
        }
    }

    fn start(&mut self) {
        self.windows.mark(0.0);
        self.last_mark = Some(Instant::now());
    }

    /// Sets `p50_ms`, `throughput_per_s` (the median over uncontended
    /// windows of verdicts per second of item time), `max_rps_at_slo` (the
    /// throughput times the share of items within `slo_s`), `p99_ms` and
    /// `host.clean_windows`.
    fn report(&mut self, report: &mut Report, verdicts_per_item: usize, slo_s: f64) {
        self.windows.mark(self.latencies.len() as f64);
        let (ranges, clean_share) = self.windows.clean();
        let mut kept = Vec::new();
        let mut rates = Vec::new();
        for (from, to) in ranges {
            let items = &self.latencies[from as usize..(to as usize).min(self.latencies.len())];
            if !items.is_empty() {
                kept.extend_from_slice(items);
                rates.push((items.len() * verdicts_per_item) as f64 / items.iter().sum::<f64>());
            }
        }
        let throughput = median(&rates);
        let within = kept.iter().filter(|&&l| l <= slo_s).count();
        report.set("p50_ms", median(&kept) * 1e3);
        report.set("throughput_per_s", throughput);
        report.set(
            "max_rps_at_slo",
            throughput * ratio(within as f64, kept.len() as f64),
        );
        report.set("p99_ms", quantile(&self.latencies, 0.99) * 1e3);
        report.set("host.clean_windows", clean_share);
    }
}

fn interval_bits(sets: &[IntervalSet]) -> Vec<u64> {
    sets.iter()
        .flat_map(|s| {
            s.intervals().iter().flat_map(|i| {
                [
                    i.lo().value.to_bits(),
                    i.hi().value.to_bits(),
                    u64::from(i.lo().closed),
                    u64::from(i.hi().closed),
                ]
            })
        })
        .collect()
}

/// Share of lanes whose trajectory reaches the guard floor (`m1 ≤ 1e-6`),
/// probed at every knot of the cached trajectories.
fn guarded_share(session: &CheckSession<'_>) -> f64 {
    let lanes = session.export_trajectories();
    let guarded = lanes
        .iter()
        .filter(|(_, traj)| traj.knots().iter().any(|&t| traj.eval(t)[0] <= GUARD_FLOOR))
        .count();
    ratio(guarded as f64, lanes.len() as f64)
}

/// `sweep_stiff`: 12-occupancy `csat_sweep`s of `E{<b}[infected]` on
/// Setting 2 loaded from `.mf` text, a fresh session per item.
pub fn sweep_stiff(ctx: &Ctx) -> Result<Report, String> {
    let text = gen::virus_mf(&gen::SETTING_2);
    let grid = gen::sweep_grid(ctx.seed);
    let formula = gen::sweep_formula(ctx.seed);
    let mut report = Report::default();

    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let (model, ms) = build_model(&text)?;
        let psi = parse_formula(&formula).map_err(err)?;
        let m0s = grid.iter().map(occupancy).collect::<Result<Vec<_>, _>>()?;
        let pool = Arc::new(ThreadPool::new(ctx.nproc));
        // Warm-up: one cSat on the grid's mildest lane, off the guard.
        let mildest = m0s
            .iter()
            .max_by(|a, b| a[0].total_cmp(&b[0]))
            .expect("non-empty grid");
        CheckSession::new(&model)
            .csat(&psi, mildest, SWEEP_THETA)
            .map_err(err)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        parse_ms.push(ms);
        built = Some((model, psi, m0s, pool));
    }
    let (model, psi, m0s, pool) = built.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));
    report.set("modelfile.parse_ms", median(&parse_ms));

    let budget = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut timed = Timed::default();
    let mut peaks = Vec::new();
    let mut outputs: Vec<Vec<IntervalSet>> = Vec::new();
    let started = Instant::now();
    timed.start();
    while timed.latencies.is_empty() || started.elapsed() < budget {
        let session = CheckSession::new(&model).with_pool(Arc::clone(&pool));
        let base = alloc_counter::begin();
        let t0 = Instant::now();
        let sets = session.csat_sweep(&psi, &m0s, SWEEP_THETA).map_err(err)?;
        let latency = t0.elapsed().as_secs_f64();
        peaks.push(alloc_counter::delta(base).peak_bytes as f64);
        outputs.push(sets);
        timed.push(latency);
    }
    report.set(
        "peak_rss_mb",
        host::proc_status_kb("self", "VmHWM").unwrap_or(0.0) / 1e3,
    );
    timed.report(&mut report, m0s.len(), SWEEP_SLO_S);
    let p50 = median(&timed.latencies);
    report.set("peak_heap_mb", median(&peaks) / 1e6);
    report.set("math.peak_bytes", median(&peaks));

    if ctx.trace {
        let mut tracer = Tracer::new();
        let mut per_item = Vec::new();
        let mut allocations = Vec::new();
        let mut shares = Vec::new();
        let pool_before = pool.stats();
        for item in 0..TRACED_SWEEPS as u64 {
            let session = CheckSession::new(&model).with_pool(Arc::clone(&pool));
            let base = alloc_counter::begin();
            let sets = tracer.span("item", item, |t| {
                t.span("ode.solve_ms", item, |_| {
                    session.prewarm(&m0s, SWEEP_THETA + psi.time_horizon())
                })
                .map_err(err)?;
                t.span("core.csat_ms", item, |_| {
                    session.csat_sweep(&psi, &m0s, SWEEP_THETA)
                })
                .map_err(err)
            })?;
            allocations.push(alloc_counter::delta(base).allocations as f64);
            per_item.push(counts(&session.stats()));
            shares.push(guarded_share(&session));
            outputs.push(sets);
        }
        set_pool(&mut report, &pool_before, &pool.stats(), TRACED_SWEEPS);
        set_counts(&mut report, &per_item);
        report.set("math.allocations", median(&allocations));
        report.set("ode.guarded_share", median(&shares));
        set_spans(
            &mut report,
            &tracer,
            &["ode.solve_ms", "core.csat_ms"],
            p50 * 1e3,
        );
    }

    // Correctness, outside the timed window: every item must repeat the
    // first bitwise, and the first must match the stiff reference.
    let first = interval_bits(&outputs[0]);
    let bound = sweep_bound(&formula)?;
    let references = grid
        .iter()
        .map(|m| reference_sets(&gen::SETTING_2, m, bound, SWEEP_THETA))
        .collect::<Result<Vec<_>, _>>()?;
    for (item, sets) in outputs.iter().enumerate() {
        report.attempted += sets.len() as u64;
        if item > 0 && interval_bits(sets) != first {
            report.fail_times(
                sets.len() as u64,
                format!("sweep item {item} differs from item 0"),
            );
            continue;
        }
        for (lane, (set, reference)) in sets.iter().zip(&references).enumerate() {
            if let Err(e) = compare_sets(set, reference) {
                report.fail(format!("item {item} lane {lane} m0 {:?}: {e}", grid[lane]));
            }
        }
    }
    report.set(
        "error_rate",
        ratio(report.failed as f64, report.attempted as f64),
    );
    Ok(report)
}

fn sweep_bound(formula: &str) -> Result<f64, String> {
    formula
        .strip_prefix("E{<")
        .and_then(|rest| rest.split('}').next())
        .and_then(|b| b.parse().ok())
        .ok_or_else(|| format!("unexpected sweep formula {formula}"))
}

/// The reference for one lane: the intervals of `[0, θ]` where the
/// infected share stays below `bound`, from the implicit trapezoid
/// (`mfcsl_ode::stiff`), a different integrator from the engine's
/// Dopri5. Each crossing carries the reference's own error estimate: the
/// distance between the crossings of an `n`-step and a `2n`-step solve.
struct ReferenceSet {
    intervals: Vec<(f64, f64)>,
    tolerance: f64,
}

/// The virus drift in closed form from the rate constants — independent of
/// the `.mf` expression compiler — continued linearly below the guard
/// floor so Newton iterates may step across `m1 = 0`.
fn virus_drift(k: &gen::VirusParams, y: &[f64], dy: &mut [f64]) {
    let infection = k[0] * y[2] / y[0].max(GUARD_FLOOR) * y[0];
    let (recover2, activate, deactivate, recover3) =
        (k[1] * y[1], k[2] * y[1], k[3] * y[2], k[4] * y[2]);
    dy[0] = -infection + recover2 + recover3;
    dy[1] = infection - recover2 - activate + deactivate;
    dy[2] = activate - deactivate - recover3;
}

fn trapezoid(
    k: &gen::VirusParams,
    m0: &[f64; 3],
    theta: f64,
    steps: usize,
) -> Result<mfcsl_ode::Trajectory, String> {
    let sys =
        mfcsl_ode::problem::FnSystem::new(3, |_t, y: &[f64], dy: &mut [f64]| virus_drift(k, y, dy));
    // A Jacobian probe far below the guard floor keeps Newton on one side
    // of the `max(m1, 1e-6)` kink.
    let solver = ImplicitTrapezoid {
        fd_eps: 1e-12,
        max_newton_iters: 60,
        ..ImplicitTrapezoid::default()
    };
    solver.solve(&sys, 0.0, theta, m0, steps).map_err(err)
}

fn crossings(traj: &mfcsl_ode::Trajectory, bound: f64, theta: f64) -> Vec<(f64, f64)> {
    let below = |t: f64| {
        let y = traj.eval(t);
        y[1] + y[2] < bound
    };
    let scan = 4000;
    let mut intervals = Vec::new();
    let mut open = if below(0.0) { Some(0.0) } else { None };
    let mut prev = 0.0;
    for k in 1..=scan {
        let t = theta * f64::from(k) / f64::from(scan);
        let inside = below(t);
        if inside != open.is_some() {
            let (mut lo, mut hi) = (prev, t);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if below(mid) == inside {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            match open.take() {
                Some(start) => intervals.push((start, hi)),
                None => open = Some(hi),
            }
        }
        prev = t;
    }
    if let Some(start) = open {
        intervals.push((start, theta));
    }
    intervals
}

fn reference_sets(
    k: &gen::VirusParams,
    m0: &[f64; 3],
    bound: f64,
    theta: f64,
) -> Result<ReferenceSet, String> {
    let steps = (REFERENCE_STEPS_PER_UNIT * theta).ceil() as usize;
    let coarse = crossings(&trapezoid(k, m0, theta, steps)?, bound, theta);
    let fine = crossings(&trapezoid(k, m0, theta, 2 * steps)?, bound, theta);
    if coarse.len() != fine.len() {
        return Err(format!("reference unresolved: {coarse:?} vs {fine:?}"));
    }
    let spread = coarse
        .iter()
        .zip(&fine)
        .map(|(a, b)| (a.0 - b.0).abs().max((a.1 - b.1).abs()))
        .fold(0.0, f64::max);
    // Trapezoid error is O(h²): the fine solve's error is about a third of
    // the coarse-to-fine spread; allow the spread itself plus root tolerance.
    Ok(ReferenceSet {
        intervals: fine,
        tolerance: spread + 1e-6,
    })
}

fn compare_sets(set: &IntervalSet, reference: &ReferenceSet) -> Result<(), String> {
    let got: Vec<(f64, f64)> = set
        .intervals()
        .iter()
        .map(|i| (i.lo().value, i.hi().value))
        .collect();
    // A degenerate point interval is below any time resolution.
    let got: Vec<(f64, f64)> = got.into_iter().filter(|(a, b)| b - a > 1e-9).collect();
    if got.len() != reference.intervals.len() {
        return Err(format!(
            "intervals {got:?}, reference {:?}",
            reference.intervals
        ));
    }
    for (g, r) in got.iter().zip(&reference.intervals) {
        let off = (g.0 - r.0).abs().max((g.1 - r.1).abs());
        if off > reference.tolerance {
            return Err(format!(
                "endpoints {g:?} vs reference {r:?}: off by {off:e} > {:e}",
                reference.tolerance
            ));
        }
    }
    Ok(())
}

fn bits(verdicts: &[mfcsl_core::mfcsl::Verdict]) -> Bits {
    verdicts
        .iter()
        .map(|v| (v.holds(), v.is_marginal()))
        .collect()
}

/// One prepared `check_batch` specification.
struct Spec {
    item: CheckItem,
    m0: Occupancy,
    psis: Vec<MfFormula>,
    ops: Vec<&'static str>,
    /// Horizon of the batch: what `check_all` solves the trajectory to.
    horizon: f64,
    /// The first until bound `T` and the nested inner bound `T2`.
    until: f64,
}

fn prepare(items: &[CheckItem]) -> Result<Vec<Spec>, String> {
    items
        .iter()
        .map(|item| {
            let psis = item
                .formulas
                .iter()
                .map(|f| parse_formula(f).map_err(err))
                .collect::<Result<Vec<_>, _>>()?;
            let horizon = psis.iter().map(MfFormula::time_horizon).fold(0.0, f64::max);
            let until = item
                .formulas
                .iter()
                .find(|f| gen::operator_of(f) == "EP")
                .and_then(|f| f.split("U[0,").nth(1))
                .and_then(|rest| rest.split(']').next())
                .and_then(|t| t.parse().ok())
                .ok_or("check item without an until")?;
            Ok(Spec {
                m0: occupancy(&item.m0)?,
                ops: item.formulas.iter().map(|f| gen::operator_of(f)).collect(),
                psis,
                horizon,
                until,
                item: item.clone(),
            })
        })
        .collect()
}

fn op_span(op: &str) -> &'static str {
    match op {
        "E" => "core.check_ms.E",
        "ES" => "core.check_ms.ES",
        "EP" => "core.check_ms.EP",
        _ => "core.check_ms.EP_nested",
    }
}

/// Replays the CTMC and CSL kernels on the item's own generator, each
/// called directly through its public function.
fn replay_kernels(
    tracer: &mut Tracer,
    item: u64,
    traj: &OccupancyTrajectory<'_>,
    spec: &Spec,
    tol: &Tolerances,
) -> Result<(), String> {
    let gen = traj.generator();
    let t = spec.until;
    tracer.span("ctmc.kolmogorov_ms", item, |_| {
        transition_matrix(&gen, 0.0, t, &tol.ode)
            .map(|_| ())
            .map_err(err)
    })?;
    let tv = traj.local_tv_model().map_err(err)?;
    let interval = TimeInterval::new(0.0, t).map_err(err)?;
    tracer.span("csl.until_ms", item, |_| {
        until_probabilities(&tv, &NOT_INFECTED, &INFECTED, interval, tol)
            .map(|_| ())
            .map_err(err)
    })?;
    let sets = PiecewiseSets::new(
        PiecewiseStateSet::constant(0.0, spec.horizon, NOT_INFECTED.to_vec()).map_err(err)?,
        PiecewiseStateSet::constant(0.0, spec.horizon, INFECTED.to_vec()).map_err(err)?,
    )
    .map_err(err)?;
    tracer.span("csl.nested_ms", item, |_| {
        reach_probability(&gen, &sets, 0.0, t, tol)
            .map(|_| ())
            .map_err(err)
    })
}

/// `check_batch`: each item is one `mfcsl check` invocation's work — a
/// fresh `CheckSession` on a pool of `nproc` threads checking a five-formula
/// batch at a seeded `m0`.
pub fn check_batch(ctx: &Ctx) -> Result<Report, String> {
    let params = gen::check_models(ctx.seed);
    let items = gen::check_items(ctx.seed);
    let texts: Vec<String> = params.iter().map(gen::virus_mf).collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    gen::Rng::stream(ctx.seed, 7, 0).shuffle(&mut order);
    let mut report = Report::default();

    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let mut models = Vec::new();
        for text in &texts {
            let (model, ms) = build_model(text)?;
            parse_ms.push(ms);
            models.push(model);
        }
        let specs = prepare(&items)?;
        let pool = Arc::new(ThreadPool::new(ctx.nproc));
        for spec in specs.iter().take(3) {
            CheckSession::new(&models[spec.item.model])
                .with_pool(Arc::clone(&pool))
                .check_all(&spec.psis, &spec.m0)
                .map_err(err)?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((models, specs, pool));
    }
    let (models, specs, pool) = built.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));
    report.set("modelfile.parse_ms", median(&parse_ms));

    // Verdicts of each specification's first run, and how often it ran.
    let mut seen: Vec<Option<Bits>> = vec![None; specs.len()];
    let mut runs = vec![0u64; specs.len()];
    let mut record = |report: &mut Report, index: usize, got: Bits| {
        report.attempted += got.len() as u64;
        runs[index] += 1;
        match &seen[index] {
            None => seen[index] = Some(got),
            Some(previous) if *previous != got => report.fail(format!(
                "spec {index}: verdicts {got:?} differ from earlier {previous:?}"
            )),
            Some(_) => {}
        }
    };

    let budget = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut timed = Timed::default();
    let mut peaks = Vec::new();
    let pool_before = pool.stats();
    let started = Instant::now();
    timed.start();
    while timed.latencies.is_empty() || started.elapsed() < budget {
        let index = order[timed.latencies.len() % order.len()];
        let spec = &specs[index];
        let session = CheckSession::new(&models[spec.item.model]).with_pool(Arc::clone(&pool));
        let base = alloc_counter::begin();
        let t0 = Instant::now();
        let verdicts = session.check_all(&spec.psis, &spec.m0).map_err(err)?;
        let latency = t0.elapsed().as_secs_f64();
        peaks.push(alloc_counter::delta(base).peak_bytes as f64);
        record(&mut report, index, bits(&verdicts));
        timed.push(latency);
    }
    let pool_after = pool.stats();
    report.set(
        "peak_rss_mb",
        host::proc_status_kb("self", "VmHWM").unwrap_or(0.0) / 1e3,
    );
    timed.report(&mut report, specs[0].psis.len(), CHECK_SLO_S);
    let p50 = median(&timed.latencies);
    let items = timed.latencies.len();
    report.set("peak_heap_mb", median(&peaks) / 1e6);
    report.set("math.peak_bytes", median(&peaks));

    if ctx.trace {
        set_pool(&mut report, &pool_before, &pool_after, items);
        // One pass over every specification: the item decomposed into the
        // trajectory solve, a hand-over into the session, and one check per
        // formula; the CTMC/CSL kernels replayed on the same trajectory.
        let mut tracer = Tracer::new();
        let mut per_item = Vec::new();
        let mut allocations = Vec::new();
        let mut shares = Vec::new();
        let tol = Tolerances::default();
        let mut ws = SolverWorkspace::new();
        for (n, &index) in order.iter().enumerate() {
            let spec = &specs[index];
            let model = &models[spec.item.model];
            let item = n as u64;
            let session = CheckSession::new(model).with_pool(Arc::clone(&pool));
            let base = alloc_counter::begin();
            let (traj, verdicts) = tracer.span("item", item, |t| {
                let traj = t.span("ode.solve_ms", item, |_| {
                    let traj =
                        meanfield::solve_with(model, &spec.m0, spec.horizon, &tol.ode, &mut ws)
                            .map_err(err)?;
                    session
                        .restore_trajectory(&spec.m0, traj.trajectory().clone())
                        .map_err(err)?;
                    Ok::<_, String>(traj)
                })?;
                let mut verdicts = Vec::new();
                for (psi, op) in spec.psis.iter().zip(&spec.ops) {
                    verdicts.push(
                        t.span(op_span(op), item, |_| session.check(psi, &spec.m0))
                            .map_err(err)?,
                    );
                }
                Ok::<_, String>((traj, verdicts))
            })?;
            allocations.push(alloc_counter::delta(base).allocations as f64);
            record(&mut report, index, bits(&verdicts));
            let stats = session.stats();
            let mut c = counts(&stats);
            let s = traj.trajectory().stats();
            c.rhs_evals = s.rhs_evals as f64;
            c.accepted = s.accepted as f64;
            c.rejected = s.rejected as f64;
            per_item.push(c);
            shares.push(guarded_share(&session));
            tracer.span("replay", item, |t| {
                replay_kernels(t, item, &traj, spec, &tol)
            })?;
        }
        set_counts(&mut report, &per_item);
        report.set("math.allocations", median(&allocations));
        report.set("ode.guarded_share", median(&shares));
        let layers = [
            "ode.solve_ms",
            "core.check_ms.E",
            "core.check_ms.ES",
            "core.check_ms.EP",
            "core.check_ms.EP_nested",
            "ctmc.kolmogorov_ms",
            "csl.until_ms",
            "csl.nested_ms",
        ];
        set_spans(&mut report, &tracer, &layers, p50 * 1e3);
    }

    // Correctness, outside the timed window: every distinct specification
    // seen is re-checked by a session at tightened tolerances; non-marginal
    // verdicts must agree exactly.
    let mut tight = Tolerances::default();
    tight.ode = tight.ode.with_tolerances(1e-11, 1e-14);
    tight.root_tol = 1e-11;
    tight.scan_points = 800;
    tight.transient_eps = 1e-14;
    for (index, got) in seen.iter().enumerate() {
        let Some(got) = got else { continue };
        let spec = &specs[index];
        let session = CheckSession::with_tolerances(&models[spec.item.model], tight);
        let want = bits(&session.check_all(&spec.psis, &spec.m0).map_err(err)?);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            if !g.1 && !w.1 && g.0 != w.0 {
                let problem = format!(
                    "spec {index} formula `{}` at m0 {:?}: holds={} but the reference says {}",
                    spec.item.formulas[k], spec.item.m0, g.0, w.0
                );
                report.fail_times(runs[index], problem);
            }
        }
    }
    report.set(
        "error_rate",
        ratio(report.failed as f64, report.attempted as f64),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sweep_stiff` keeps its declared property on every seed: exactly the
    /// six lanes that start at an infected share ≥ 0.25 reach the guard
    /// floor within the sweep's horizon.
    #[test]
    fn sweep_grids_put_half_the_lanes_on_the_guard_floor() {
        let (model, _) = build_model(&gen::virus_mf(&gen::SETTING_2)).unwrap();
        for seed in [1, 2, 3, 4, 5, 6] {
            let psi = parse_formula(&gen::sweep_formula(seed)).unwrap();
            let m0s: Vec<Occupancy> = gen::sweep_grid(seed)
                .iter()
                .map(|m| occupancy(m).unwrap())
                .collect();
            let session = CheckSession::new(&model);
            assert_eq!(
                session
                    .prewarm(&m0s, SWEEP_THETA + psi.time_horizon())
                    .unwrap(),
                m0s.len()
            );
            assert_eq!(guarded_share(&session), 0.5, "seed {seed}");
        }
    }

    /// `check_batch` stays off the guard floor: its trajectories are the
    /// non-stiff control.
    #[test]
    fn check_batch_trajectories_stay_off_the_guard_floor() {
        for seed in [1, 2, 3] {
            let models: Vec<LocalModel> = gen::check_models(seed)
                .iter()
                .map(|p| build_model(&gen::virus_mf(p)).unwrap().0)
                .collect();
            for spec in prepare(&gen::check_items(seed)).unwrap().iter().take(32) {
                let session = CheckSession::new(&models[spec.item.model]);
                session.check_all(&spec.psis, &spec.m0).unwrap();
                assert_eq!(guarded_share(&session), 0.0, "seed {seed}");
            }
        }
    }

    #[test]
    fn reference_agrees_with_itself_and_rejects_a_shifted_endpoint() {
        let grid = gen::sweep_grid(5);
        let reference = reference_sets(&gen::SETTING_2, &grid[0], 0.6, SWEEP_THETA).unwrap();
        assert!(
            reference.tolerance < 1e-3,
            "reference error estimate {}",
            reference.tolerance
        );
        let exact = IntervalSet::from_intervals(
            reference
                .intervals
                .iter()
                .map(|&(a, b)| mfcsl_math::Interval::closed(a, b).unwrap())
                .collect(),
        );
        assert!(compare_sets(&exact, &reference).is_ok());
        let shifted = IntervalSet::from_intervals(
            reference
                .intervals
                .iter()
                .map(|&(a, b)| mfcsl_math::Interval::closed(a, b + 0.01).unwrap())
                .collect(),
        );
        assert!(compare_sets(&shifted, &reference).is_err());
    }
}
