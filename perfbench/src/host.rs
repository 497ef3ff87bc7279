//! Host descriptor and provenance stamped on every result, and the
//! comparison of two saved results, refused across different hosts.

use std::process::{Command, ExitCode};

use mfcsl_serve::Json;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub git: String,
    pub rustc: String,
    pub loadavg: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (out.status.success() && !text.is_empty()).then(|| text.to_string())
}

impl Host {
    /// Captures the descriptor at the start of a run.
    pub fn capture() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            git: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
                .unwrap_or(-1.0),
        }
    }

    pub fn json(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("git".into(), Json::Str(self.git.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("loadavg_1m".into(), Json::Num(self.loadavg)),
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("seconds".into(), Json::Num(seconds)),
            ("trace".into(), Json::Bool(trace)),
        ])
        .render()
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints `new / base` for every metric two `--out` files share. Refuses
/// (exit 3) when the hosts differ in core count or toolchain, or the runs
/// differ in workload, length or trace mode: such numbers are not
/// commensurable.
pub fn compare(base_path: &str, new_path: &str) -> ExitCode {
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for key in ["nproc", "rustc", "workload", "seconds", "trace"] {
        let a = base.get("host").and_then(|h| h.get(key)).map(Json::render);
        let b = new.get("host").and_then(|h| h.get(key)).map(Json::render);
        if a != b {
            eprintln!(
                "refused: host field `{key}` differs ({} vs {})",
                a.unwrap_or_default(),
                b.unwrap_or_default()
            );
            return ExitCode::from(3);
        }
    }
    let metrics = |doc: &Json| -> Vec<(String, f64)> {
        match doc.get("result").and_then(|r| r.get("metrics")) {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| {
                    v.get("value")
                        .and_then(Json::as_f64)
                        .map(|x| (k.clone(), x))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let base_metrics = metrics(&base);
    for (name, value) in metrics(&new) {
        if let Some((_, b)) = base_metrics.iter().find(|(n, _)| *n == name) {
            let ratio = if *b != 0.0 { value / b } else { f64::NAN };
            println!("{name:<28} base {b:>14.6}  new {value:>14.6}  ratio {ratio:.4}");
        }
    }
    ExitCode::SUCCESS
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `RssAnon`, …) in kB.
pub fn proc_status_kb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// CPU time counters from `/proc/stat`, summed over all CPUs, in jiffies:
/// `steal` is time the hypervisor gave to other guests while this one was
/// runnable; `busy` counts user, nice, system, irq, softirq and steal.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSnapshot {
    steal: f64,
    busy: f64,
}

impl CpuSnapshot {
    /// The counters now (zero where `/proc/stat` cannot be read).
    pub fn now() -> CpuSnapshot {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<f64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let get = |i: usize| fields.get(i).copied().unwrap_or(0.0);
        CpuSnapshot {
            steal: get(7),
            busy: get(0) + get(1) + get(2) + get(5) + get(6) + get(7),
        }
    }

    /// Share of busy time stolen between `self` and the later `other`.
    pub fn steal_share(&self, other: &CpuSnapshot) -> f64 {
        if other.busy > self.busy {
            (other.steal - self.steal) / (other.busy - self.busy)
        } else {
            0.0
        }
    }
}

/// Steal share at or above which a stretch of time counts as contended:
/// the host, not the program, set its timings.
pub const CONTENDED: f64 = 0.05;
/// Longest wait for a quiet host before measuring anyway.
const QUIET_MAX_WAIT: std::time::Duration = std::time::Duration::from_secs(5);

/// Waits, up to [`QUIET_MAX_WAIT`], until a half-second busy probe on
/// `threads` threads sees less than [`CONTENDED`] of its time stolen: an
/// overcommitted host may leave one busy vCPU alone and still take half of
/// two. Returns the seconds waited.
pub fn wait_for_quiet_host(threads: usize) -> f64 {
    let start = std::time::Instant::now();
    loop {
        let before = CpuSnapshot::now();
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| {
                    let probe = std::time::Instant::now();
                    while probe.elapsed() < std::time::Duration::from_millis(500) {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        if before.steal_share(&CpuSnapshot::now()) < CONTENDED || start.elapsed() >= QUIET_MAX_WAIT
        {
            return start.elapsed().as_secs_f64();
        }
    }
}

/// Consecutive stretches of a timed phase with the steal share of each:
/// the medians use only uncontended windows, so a stretch in which the
/// hypervisor took the CPU away does not stand in for the program's speed.
#[derive(Debug, Default)]
pub struct Windows {
    /// `(position, counters)` marks: an item index or a phase offset.
    marks: Vec<(f64, CpuSnapshot)>,
}

/// Fewest uncontended windows a median is taken over; with fewer, every
/// window counts.
const MIN_CLEAN: usize = 3;

impl Windows {
    /// Marks `position` with the counters now; a repeated position only
    /// moves its mark's counters.
    pub fn mark(&mut self, position: f64) {
        let now = CpuSnapshot::now();
        match self.marks.last_mut() {
            Some(last) if last.0 == position => last.1 = now,
            _ => self.marks.push((position, now)),
        }
    }

    /// The `[from, to)` ranges between marks, keeping the uncontended ones
    /// (or all, when fewer than [`MIN_CLEAN`] are), and the share of
    /// windows that were uncontended.
    pub fn clean(&self) -> (Vec<(f64, f64)>, f64) {
        let all: Vec<((f64, f64), bool)> = self
            .marks
            .windows(2)
            .map(|w| ((w[0].0, w[1].0), w[0].1.steal_share(&w[1].1) < CONTENDED))
            .collect();
        let clean: Vec<(f64, f64)> = all.iter().filter(|w| w.1).map(|w| w.0).collect();
        let share = clean.len() as f64 / all.len().max(1) as f64;
        if clean.len() >= MIN_CLEAN {
            (clean, share)
        } else {
            (all.into_iter().map(|w| w.0).collect(), share)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(steals: &[f64]) -> Windows {
        let mut marks = vec![(0.0, CpuSnapshot::default())];
        for (i, &steal) in steals.iter().enumerate() {
            let last = marks.last().expect("seeded").1;
            marks.push((
                (i + 1) as f64,
                CpuSnapshot {
                    steal: last.steal + steal,
                    busy: last.busy + 100.0,
                },
            ));
        }
        Windows { marks }
    }

    #[test]
    fn contended_windows_are_dropped_unless_too_few_remain() {
        let (ranges, share) = windows(&[1.0, 50.0, 0.0, 2.0]).clean();
        assert_eq!(ranges, vec![(0.0, 1.0), (2.0, 3.0), (3.0, 4.0)]);
        assert_eq!(share, 0.75);
        let (ranges, share) = windows(&[1.0, 50.0, 40.0, 2.0]).clean();
        assert_eq!(ranges.len(), 4, "fewer than three clean windows: keep all");
        assert_eq!(share, 0.5);
    }

    #[test]
    fn repeated_marks_do_not_open_empty_windows() {
        let mut w = Windows::default();
        w.mark(0.0);
        w.mark(3.0);
        w.mark(3.0);
        assert_eq!(w.marks.len(), 2);
    }
}
