//! Layered benchmark of mfcsl. One command runs one of four seeded
//! workloads and prints every metric by name with its unit; the last
//! stdout line is the JSON result. See `perfbench/README.md`.
//!
//! ```text
//! mfcsl-perfbench --mfcsl <path-to-mfcsl> --workload <name> --seed <n>
//!                 --seconds <s> --trace <0|1> [--out <file>] [--spans <file>]
//! mfcsl-perfbench --compare <base.json> <new.json>
//! ```

mod gen;
mod host;
mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use mfcsl_math::alloc_counter;

/// Counts allocations so offline items report their peak live heap, as the
/// CLI binary and `bench_check` do.
#[global_allocator]
static GLOBAL: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep_stiff", "check_batch", "serve_hot", "serve_fleet"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("max_rps_at_slo", "1/s"),
    ("peak_heap_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("remainder_ms", "ms"),
    ("modelfile.parse_ms", "ms"),
    ("ode.solve_ms", "ms"),
    ("ode.rhs_evals", "count"),
    ("ode.steps_accepted", "count"),
    ("ode.steps_rejected", "count"),
    ("ode.accept_ratio", "ratio"),
    ("ode.stiff_fallbacks", "count"),
    ("ode.recoveries", "count"),
    ("ode.guarded_share", "ratio"),
    ("core.csat_ms", "ms"),
    ("core.check_ms.E", "ms"),
    ("core.check_ms.ES", "ms"),
    ("core.check_ms.EP", "ms"),
    ("core.check_ms.EP_nested", "ms"),
    ("core.trajectory_reuse_ratio", "ratio"),
    ("ctmc.kolmogorov_ms", "ms"),
    ("csl.until_ms", "ms"),
    ("csl.nested_ms", "ms"),
    ("csl.cache_hit_ratio", "ratio"),
    ("pool.utilization", "ratio"),
    ("pool.tasks", "count"),
    ("math.allocations", "count"),
    ("math.peak_bytes", "bytes"),
    ("loadgen.lag_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("serve.server_us", "us"),
    ("serve.engine_us", "us"),
    ("serve.http.parse_us", "us"),
    ("serve.http.render_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.json.render_us", "us"),
    ("serve.store.lookup_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.snapshot_saved", "count"),
    ("serve.rejected", "count"),
    ("serve.connections", "count"),
    ("router.proxy_us", "us"),
    ("router.restarts", "count"),
    ("router.breaker_open", "count"),
    ("router.deadline_exhausted", "count"),
    ("trace.accounting_error_us", "us"),
    ("host.steal_share", "ratio"),
    ("host.quiet_wait_s", "s"),
    ("host.clean_windows", "ratio"),
];

/// Verdict bits `(holds, marginal)` per formula of one check.
pub type Bits = Vec<(bool, bool)>;

/// What every workload receives.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `mfcsl` CLI binary (serving workloads drive `mfcsl serve`).
    pub mfcsl: PathBuf,
    /// Scratch directory for generated model files and daemon state.
    pub scratch: PathBuf,
    pub nproc: usize,
}

/// A workload's outcome: correctness counts plus named metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons for failures, printed before the result.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans: String,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, problem: String) {
        self.fail_times(1, problem);
    }

    /// Counts `n` failed operations that share one cause.
    pub fn fail_times(&mut self, n: u64, problem: String) {
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mfcsl: PathBuf,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut mfcsl = None;
    let mut out = None;
    let mut spans = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--mfcsl" => mfcsl = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        mfcsl: mfcsl.ok_or("--mfcsl is required")?,
        out,
        spans,
    })
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics of the requested set, each with its unit.
fn result_json(report: &Report, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<(String, String), String> {
    let host = host::Host::capture();
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        mfcsl: args.mfcsl.clone(),
        scratch: scratch.clone(),
        nproc: host.nproc,
    };
    let waited = host::wait_for_quiet_host(host.nproc);
    let before = host::CpuSnapshot::now();
    let report = match args.workload.as_str() {
        "sweep_stiff" => offline::sweep_stiff(&ctx),
        "check_batch" => offline::check_batch(&ctx),
        "serve_hot" => serve::serve_hot(&ctx),
        "serve_fleet" => serve::serve_fleet(&ctx),
        _ => unreachable!("validated in parse_args"),
    };
    let steal = before.steal_share(&host::CpuSnapshot::now());
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(scratch.parent().expect("scratch has a parent"));
    let mut report = report?;
    report.set("host.steal_share", steal);
    report.set("host.quiet_wait_s", waited);
    if let Some(path) = &args.spans {
        std::fs::write(path, &report.spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for p in &report.problems {
        eprintln!("FAILED: {p}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        if let Some(v) = report.metrics.get(name) {
            println!("{:<28} {v:>14.6} {unit}", name);
        }
    }
    let line = result_json(&report, args.trace)?;
    let host_json = host.json(&args.workload, args.seed, args.seconds, args.trace);
    Ok((host_json, line))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => host::compare(a, b),
            _ => {
                eprintln!("usage: --compare <base.json> <new.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((host_json, line)) => {
            println!("host {host_json}");
            if let Some(out) = &args.out {
                let doc = format!("{{\"host\": {host_json}, \"result\": {line}}}\n");
                if let Err(e) = std::fs::write(out, doc) {
                    eprintln!("error: cannot write {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
            }
            let wrong = line.contains("\"correct\": false");
            println!("{line}");
            if wrong {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this binary emits.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = mfcsl_serve::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(mfcsl_serve::Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(mfcsl_serve::Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let units = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(mfcsl_serve::Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("unit")
                        .and_then(mfcsl_serve::Json::as_str)
                        .expect("unit")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            units("end_to_end"),
            END_TO_END.iter().map(|m| m.1).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            units("per_layer"),
            PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload serve_hot --seed 3 --seconds 5 --trace 1 --mfcsl x"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope --seed 3 --mfcsl x")).is_err());
        assert!(parse_args(&argv("--workload serve_hot --seed 3 --trace 2 --mfcsl x")).is_err());
        assert!(parse_args(&argv("--workload serve_hot --mfcsl x")).is_err());
    }

    #[test]
    fn result_line_carries_every_metric_of_the_set() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempted = 3;
        let line = result_json(&r, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = result_json(&r, true).unwrap();
        assert!(traced.contains("\"serve.queue_us\": {\"value\": 0, \"unit\": \"us\"}"));
        r.metrics.remove("p50_ms");
        assert!(result_json(&r, false).is_err());
    }
}
