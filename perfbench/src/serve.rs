//! The serving workloads: open loops at fixed rates against the real
//! `mfcsl serve` binary over keep-alive HTTP — one daemon (`serve_hot`) or
//! a two-shard fleet behind the router (`serve_fleet`).

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfcsl_core::mfcsl::{parse_formula, CheckSession};
use mfcsl_modelfile::ModelFile;
use mfcsl_pool::ThreadPool;
use mfcsl_serve::http::{render_response, roundtrip_with, Outcome, RequestParser};
use mfcsl_serve::{Json, ModelRegistry, SessionKey, SessionStore};

use crate::gen::{self, Template};
use crate::offline::occupancy;
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{host, Bits, Ctx, Report};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// How long a daemon may take to answer `/healthz` or to exit.
const PROCESS_DEADLINE: Duration = Duration::from_secs(20);
/// Replays per in-process stage timing.
const REPLAYS: usize = 2000;
/// Sequential requests sampled for the router's proxy cost.
const PROXY_SAMPLES: usize = 200;

/// The shape of one serving workload.
struct Shape {
    /// A sharded fleet with a state directory (else one daemon whose
    /// requests must all be warm after warm-up).
    fleet: bool,
    /// Extra `mfcsl serve` flags after the model directory.
    flags: Vec<String>,
    /// Nominal open-loop rate (requests per second).
    nominal_rps: f64,
    /// Rate ladder for `max_rps_at_slo`, ascending.
    ladder: &'static [f64],
    /// p99 latency limit (ms) of the ladder.
    slo_ms: f64,
}

/// A spawned `mfcsl serve` process (and, for a fleet, its shards).
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Every daemon process: the router first, then the shards.
    pids: Vec<u32>,
    drain: Option<std::thread::JoinHandle<()>>,
    stopped: bool,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn spawn(mfcsl: &Path, models: &Path, flags: &[String]) -> Result<Daemon, String> {
    let mut child = Command::new(mfcsl)
        .arg("serve")
        .arg(models)
        .args(["--addr", "127.0.0.1:0"])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", mfcsl.display()))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let announced = reader
        .read_line(&mut line)
        .map_err(err)
        .and_then(|_| parse_announce(&line));
    let (addr, shard_pids) = match announced {
        Ok(a) => a,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not announce itself: {e} ({line:?})"));
        }
    };
    // Keep reading so a chatty daemon never blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    let mut pids = vec![child.id()];
    pids.extend(shard_pids);
    let daemon = Daemon {
        child,
        addr,
        pids,
        drain: Some(drain),
        stopped: false,
    };
    let deadline = Instant::now() + PROCESS_DEADLINE;
    loop {
        if get(&addr, "/healthz").is_ok_and(|(status, _)| status == 200) {
            return Ok(daemon);
        }
        if Instant::now() > deadline {
            return Err("daemon never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Parses `mfcsld listening on ADDR (…)` or `mfcsld router listening on
/// ADDR (… pids P1, P2; …)`.
fn parse_announce(line: &str) -> Result<(SocketAddr, Vec<u32>), String> {
    let rest = line
        .strip_prefix("mfcsld listening on ")
        .or_else(|| line.strip_prefix("mfcsld router listening on "))
        .ok_or("unexpected announce line")?;
    let addr = rest
        .split_whitespace()
        .next()
        .ok_or("no address")?
        .parse()
        .map_err(err)?;
    let pids = rest
        .split("pids ")
        .nth(1)
        .and_then(|p| p.split(';').next())
        .map(|list| {
            list.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect()
        })
        .unwrap_or_default();
    Ok((addr, pids))
}

/// A daemon is stopped on every path out of a workload, an unwinding
/// panic included.
impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Daemon {
    /// Drains the daemon through `POST /shutdown` and waits for every
    /// process to end, killing what outlives the deadline.
    fn stop(&mut self) {
        if std::mem::replace(&mut self.stopped, true) {
            return;
        }
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            let _ = roundtrip_with(&mut s, "POST", "/shutdown", b"", true);
        }
        let deadline = Instant::now() + PROCESS_DEADLINE;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in &self.pids[1..] {
            while Path::new(&format!("/proc/{pid}")).exists() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }

    /// Summed `/proc` field over the daemon processes, in MB.
    fn status_mb(&self, field: &str) -> f64 {
        self.pids
            .iter()
            .filter_map(|pid| host::proc_status_kb(&pid.to_string(), field))
            .sum::<f64>()
            / 1e3
    }
}

fn get(addr: &SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect_timeout(addr, Duration::from_secs(2)).map_err(err)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(err)?;
    let r = roundtrip_with(&mut s, "GET", path, b"", true).map_err(err)?;
    Ok((r.status, r.text()))
}

/// `/metrics` as `name → value` (labelled series keep their labels).
fn metrics(addr: &SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, text) = get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(text
        .lines()
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// One open-loop request as the generator saw it.
#[derive(Debug, Clone)]
struct Sample {
    template: usize,
    /// Offsets from the phase start, in seconds.
    due: f64,
    sent: f64,
    done: f64,
    /// `(holds, marginal)` per formula; `None` for a failed request.
    verdicts: Option<Bits>,
    warm: bool,
    micros: f64,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

fn decode(body: &str) -> Option<(Bits, bool, f64)> {
    let json = Json::parse(body).ok()?;
    let verdicts = json
        .get("verdicts")?
        .as_arr()?
        .iter()
        .map(|v| Some((v.get("holds")?.as_bool()?, v.get("marginal")?.as_bool()?)))
        .collect::<Option<Vec<_>>>()?;
    Some((
        verdicts,
        json.get("warm")?.as_bool()?,
        json.get("micros")?.as_f64()?,
    ))
}

fn connect(addr: &SocketAddr) -> Option<TcpStream> {
    let s = TcpStream::connect_timeout(addr, Duration::from_secs(2)).ok()?;
    s.set_nodelay(true).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    Some(s)
}

/// One request on a keep-alive connection, reconnecting once on a stale
/// socket.
fn send(stream: &mut Option<TcpStream>, addr: &SocketAddr, body: &[u8]) -> Option<String> {
    for _ in 0..2 {
        if stream.is_none() {
            *stream = connect(addr);
        }
        let s = stream.as_mut()?;
        match roundtrip_with(s, "POST", "/v1/check", body, false) {
            Ok(r) if r.status == 200 => return Some(r.text()),
            Ok(_) => return None,
            Err(_) => *stream = None,
        }
    }
    None
}

/// How early a load thread wakes before a due time, to spin the rest:
/// sleeping to the due time itself would add the timer slack and wake-up
/// latency (tens of µs, varying with host load) to every request.
const SPIN_US: f64 = 80.0;

fn wait_until(start: Instant, due: f64) {
    let early = due - SPIN_US * 1e-6 - start.elapsed().as_secs_f64();
    if early > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(early));
    }
    while start.elapsed().as_secs_f64() < due {
        std::hint::spin_loop();
    }
}

/// An open loop at `rate` for `seconds` over `conns` keep-alive connections:
/// request `i` is due at `i / rate` and goes out on connection `i mod
/// conns` as soon as both its time has come and the connection is free.
/// While it runs, the calling thread samples the daemons' anonymous RSS and
/// marks [`WINDOWS`] steal windows over the phase.
fn open_loop(
    daemon: &Daemon,
    bodies: &[String],
    schedule: &[usize],
    rate: f64,
    seconds: f64,
    conns: usize,
    peak_anon_mb: &mut f64,
) -> (Vec<Sample>, host::Windows) {
    let n = ((rate * seconds).round() as usize).min(schedule.len());
    let mut windows = host::Windows::default();
    windows.mark(0.0);
    let start = Instant::now();
    let addr = daemon.addr;
    let mut samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = connect(&addr);
                    let mut out = Vec::new();
                    for i in (c..n).step_by(conns) {
                        let due = i as f64 / rate;
                        wait_until(start, due);
                        let sent = start.elapsed().as_secs_f64();
                        let reply = send(&mut stream, &addr, bodies[schedule[i]].as_bytes());
                        let done = start.elapsed().as_secs_f64();
                        let decoded = reply.as_deref().and_then(decode);
                        out.push(Sample {
                            template: schedule[i],
                            due,
                            sent,
                            done,
                            warm: decoded.as_ref().is_some_and(|d| d.1),
                            micros: decoded.as_ref().map_or(0.0, |d| d.2),
                            verdicts: decoded.map(|d| d.0),
                        });
                    }
                    out
                })
            })
            .collect();
        let width = seconds / WINDOWS as f64;
        let mut next_mark = 1;
        while !handles.iter().all(|h| h.is_finished()) {
            *peak_anon_mb = peak_anon_mb.max(daemon.status_mb("RssAnon"));
            let t = start.elapsed().as_secs_f64();
            if next_mark < WINDOWS && t >= next_mark as f64 * width {
                windows.mark(t);
                next_mark += 1;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread"))
            .collect::<Vec<_>>()
    });
    windows.mark(f64::INFINITY);
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    (samples, windows)
}

/// Steal windows a phase is cut into.
const WINDOWS: usize = 10;

/// The median of the per-window medians of request latency over the
/// uncontended windows: a stretch in which the hypervisor took the CPU
/// away does not move it.
fn windowed_p50(samples: &[Sample], windows: &host::Windows) -> f64 {
    let medians: Vec<f64> = windows
        .clean()
        .0
        .into_iter()
        .map(|(lo, hi)| {
            let window: Vec<f64> = samples
                .iter()
                .filter(|s| s.due >= lo && s.due < hi)
                .map(Sample::latency_ms)
                .collect();
            median(&window)
        })
        .filter(|m| m.is_finite())
        .collect();
    median(&medians)
}

/// Whether a ladder rung met the limit: nothing failed, p99 within the
/// limit, and no growing backlog (the last request finished within the
/// limit of its due time plus one period).
fn rung_passes(samples: &[Sample], slo_ms: f64, rate: f64) -> bool {
    let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    samples.iter().all(|s| s.verdicts.is_some())
        && quantile(&latencies, 0.99) <= slo_ms
        && samples
            .last()
            .is_some_and(|s| s.latency_ms() <= slo_ms + 1e3 / rate)
}

fn write_models(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    std::fs::write(dir.join("virus.mf"), gen::virus_mf(&gen::SETTING_1)).map_err(err)
}

/// The reference verdicts of every template used, from an in-process
/// `CheckSession` on the same `.mf` text and parameters.
fn reference(
    models: &Path,
    templates: &[Template],
    used: &[bool],
) -> Result<Vec<Option<Bits>>, String> {
    let file = ModelFile::load(&models.join("virus.mf")).map_err(err)?;
    templates
        .iter()
        .zip(used)
        .map(|(t, &used)| {
            if !used {
                return Ok(None);
            }
            let model = file
                .instantiate_with(&gen::overrides(&t.params))
                .map_err(err)?;
            let psis = t
                .formulas
                .iter()
                .map(|f| parse_formula(f).map_err(err))
                .collect::<Result<Vec<_>, _>>()?;
            let verdicts = CheckSession::new(&model)
                .check_all(&psis, &occupancy(&t.m0)?)
                .map_err(err)?;
            Ok(Some(
                verdicts
                    .iter()
                    .map(|v| (v.holds(), v.is_marginal()))
                    .collect(),
            ))
        })
        .collect()
}

fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// In-process replays of the daemon's per-request stages on captured bytes.
fn replay_stages(
    report: &mut Report,
    models: &Path,
    template: &Template,
    response: &str,
) -> Result<f64, String> {
    let body = template.body();
    let raw = format!(
        "POST /v1/check HTTP/1.1\r\nHost: mfcsld\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    let http_parse = median_of(REPLAYS, || {
        let mut parser = RequestParser::new();
        parser.push(raw.as_bytes());
        parser.next_request(1 << 20).ok().flatten()
    });
    let json_parse = median_of(REPLAYS, || Json::parse(&body).ok());
    let parsed = Json::parse(response).map_err(err)?;
    let json_render = median_of(REPLAYS, || parsed.render());
    let outcome = Outcome::new(200, "application/json", response.as_bytes().to_vec());
    let http_render = median_of(REPLAYS, || render_response(&outcome, true));
    let registry = ModelRegistry::load(&[models.to_path_buf()]).map_err(err)?;
    let store = SessionStore::new(Arc::new(ThreadPool::new(1)), 16, None);
    let key = SessionKey::new("virus", &gen::overrides(&template.params), false, None);
    store.get_or_create(&registry, &key).map_err(err)?;
    let lookup = median_of(REPLAYS, || {
        store
            .get_or_create(&registry, &key)
            .map(|(_, warm)| warm)
            .ok()
    });
    report.set("serve.http.parse_us", http_parse);
    report.set("serve.json.parse_us", json_parse);
    report.set("serve.json.render_us", json_render);
    report.set("serve.http.render_us", http_render);
    report.set("serve.store.lookup_us", lookup);
    Ok(http_parse + json_parse + lookup + json_render + http_render)
}

/// `router.proxy_us`: a sequential warm request through the router minus
/// the same request sent straight to the shard that owns its key.
fn proxy_cost(daemon: &Daemon, template: &Template) -> Result<f64, String> {
    let (_, shards) = get(&daemon.addr, "/v1/shards")?;
    let shards = Json::parse(&shards).map_err(err)?;
    let addrs: Vec<SocketAddr> = shards
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("no shard list")?
        .iter()
        .filter_map(|s| s.get("addr")?.as_str()?.parse().ok())
        .collect();
    let key = SessionKey::new("virus", &gen::overrides(&template.params), false, None);
    let owner = *addrs
        .get(mfcsl_serve::route_for(&key, addrs.len()))
        .ok_or("shard missing")?;
    let body = template.body();
    let time = |addr: &SocketAddr| -> Result<f64, String> {
        let mut stream = connect(addr);
        send(&mut stream, addr, body.as_bytes()).ok_or("proxy sample failed")?;
        let mut times = Vec::new();
        for _ in 0..PROXY_SAMPLES {
            let t0 = Instant::now();
            send(&mut stream, addr, body.as_bytes()).ok_or("proxy sample failed")?;
            times.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&times))
    };
    Ok(time(&daemon.addr)? - time(&owner)?)
}

/// Runs one serving workload: set-up (daemon start, `/healthz`, warm-up
/// of `warm` templates), the nominal-rate phase, the rate ladder (or, when
/// traced, a traced nominal phase and the stage replays), then the
/// reference check.
fn run_serving(
    ctx: &Ctx,
    shape: &Shape,
    templates: &[Template],
    schedule: &[usize],
    warm: &[usize],
) -> Result<Report, String> {
    let models = ctx.scratch.join("models");
    write_models(&models)?;
    let bodies: Vec<String> = templates.iter().map(Template::body).collect();
    let conns = ctx.nproc.max(1);
    let mut report = Report::default();

    let mut setup_s = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        drop(daemon.take());
        let mut flags = shape.flags.clone();
        if shape.fleet {
            flags.push("--state-dir".into());
            flags.push(
                ctx.scratch
                    .join(format!("state-{rep}"))
                    .display()
                    .to_string(),
            );
        }
        let t0 = Instant::now();
        let d = spawn(&ctx.mfcsl, &models, &flags)?;
        let mut stream = connect(&d.addr);
        for &i in warm {
            if send(&mut stream, &d.addr, bodies[i].as_bytes()).is_none() {
                return Err(format!("warm-up request {i} failed"));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));
    let outcome = measure(
        ctx,
        shape,
        templates,
        &bodies,
        schedule,
        conns,
        &daemon,
        &models,
        &mut report,
    );
    daemon.stop();
    let samples = outcome?;

    // Correctness, outside the timed window: served verdicts against the
    // in-process engine, bitwise.
    let mut used = vec![false; templates.len()];
    for s in &samples {
        used[s.template] = true;
    }
    let want = reference(&models, templates, &used)?;
    for s in &samples {
        report.attempted += 1;
        match (&s.verdicts, &want[s.template]) {
            (None, _) => report.fail(format!(
                "request for template {} failed or was refused",
                s.template
            )),
            (Some(got), Some(want)) if got != want => report.fail(format!(
                "template {}: served {got:?}, in-process engine {want:?}",
                s.template
            )),
            _ if !shape.fleet && !s.warm => report.fail(format!(
                "template {} was served cold after warm-up",
                s.template
            )),
            _ => {}
        }
    }
    report.set(
        "error_rate",
        ratio(report.failed as f64, report.attempted as f64),
    );
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    ctx: &Ctx,
    shape: &Shape,
    templates: &[Template],
    bodies: &[String],
    schedule: &[usize],
    conns: usize,
    daemon: &Daemon,
    models: &Path,
    report: &mut Report,
) -> Result<Vec<Sample>, String> {
    let mut peak_anon = 0.0_f64;
    let mut cursor = 0;
    let mut next = |n: usize| {
        let slice = &schedule[cursor.min(schedule.len())..(cursor + n).min(schedule.len())];
        cursor += n;
        slice
    };
    // The nominal phase takes half the run; the ladder (untraced) or the
    // traced nominal phase takes the other half.
    let nominal_s = ctx.seconds / 2.0;
    let before = metrics(&daemon.addr)?;
    let (nominal, nominal_windows) = open_loop(
        daemon,
        bodies,
        next((shape.nominal_rps * nominal_s).ceil() as usize),
        shape.nominal_rps,
        nominal_s,
        conns,
        &mut peak_anon,
    );
    let after = metrics(&daemon.addr)?;
    let latencies: Vec<f64> = nominal.iter().map(Sample::latency_ms).collect();
    let p50 = windowed_p50(&nominal, &nominal_windows);
    report.set("host.clean_windows", nominal_windows.clean().1);
    let elapsed = nominal.iter().map(|s| s.done).fold(0.0, f64::max);
    let verdicts: usize = nominal
        .iter()
        .filter_map(|s| s.verdicts.as_ref().map(Vec::len))
        .sum();
    report.set("throughput_per_s", verdicts as f64 / elapsed);
    report.set("p50_ms", p50);
    report.set("p99_ms", quantile(&latencies, 0.99));
    let mut all = nominal.clone();

    if !ctx.trace {
        let rung_s = ctx.seconds / 2.0 / shape.ladder.len() as f64;
        let mut best = None;
        for &rate in shape.ladder {
            let n = (rate * rung_s).ceil() as usize;
            let (mut rung, windows) =
                open_loop(daemon, bodies, next(n), rate, rung_s, conns, &mut peak_anon);
            let mut passes = rung_passes(&rung, shape.slo_ms, rate);
            // A rung failed while the host was mostly stolen says nothing
            // about the program: run it once more.
            if !passes && windows.clean().1 < 0.5 {
                all.extend(rung);
                (rung, _) = open_loop(daemon, bodies, next(n), rate, rung_s, conns, &mut peak_anon);
                passes = rung_passes(&rung, shape.slo_ms, rate);
            }
            let span = rung.iter().map(|s| s.done).fold(0.0, f64::max);
            let achieved = rung.iter().filter(|s| s.verdicts.is_some()).count() as f64 / span;
            let p99 = quantile(
                &rung.iter().map(Sample::latency_ms).collect::<Vec<_>>(),
                0.99,
            );
            // A closed stderr must not abort the run with daemons alive.
            let _ = writeln!(
                std::io::stderr(),
                "rung {rate}/s: achieved {achieved:.1}/s, p99 {p99:.3} ms, passes {passes}"
            );
            all.extend(rung);
            if !passes {
                break;
            }
            best = Some(achieved);
        }
        // A ladder whose first rung already fails reports the nominal
        // phase's good requests per second.
        let good = nominal
            .iter()
            .filter(|s| s.verdicts.is_some() && s.latency_ms() <= shape.slo_ms)
            .count();
        report.set("max_rps_at_slo", best.unwrap_or(good as f64 / elapsed));
    } else {
        let lag: Vec<f64> = nominal.iter().map(|s| (s.sent - s.due) * 1e3).collect();
        report.set("loadgen.lag_ms", quantile(&lag, 0.99));
        report.set("loadgen.sent", nominal.len() as f64);
        report.set(
            "loadgen.ok",
            nominal.iter().filter(|s| s.verdicts.is_some()).count() as f64,
        );
        report.set(
            "loadgen.failed",
            nominal.iter().filter(|s| s.verdicts.is_none()).count() as f64,
        );
        let count = delta(&before, &after, "mfcsld_request_latency_us_count");
        let server_us = ratio(
            delta(&before, &after, "mfcsld_request_latency_us_sum"),
            count,
        );
        report.set("serve.server_us", server_us);
        let warm_hits = delta(&before, &after, "mfcsld_session_warm_hits_total");
        let cold = delta(&before, &after, "mfcsld_session_cold_starts_total");
        report.set("serve.warm_hit_ratio", ratio(warm_hits, warm_hits + cold));
        report.set(
            "serve.evictions",
            delta(&before, &after, "mfcsld_sessions_evicted_total"),
        );
        report.set(
            "serve.snapshot_saved",
            delta(&before, &after, "mfcsld_snapshot_saved_total"),
        );
        report.set(
            "serve.rejected",
            delta(&before, &after, "mfcsld_requests_rejected_total"),
        );
        // The `after` scrape's own connection is counted before it renders.
        report.set(
            "serve.connections",
            delta(&before, &after, "mfcsld_connections_total") - 1.0,
        );
        report.set(
            "router.restarts",
            delta(&before, &after, "mfcsld_router_shard_restarts_total"),
        );
        report.set(
            "router.deadline_exhausted",
            delta(&before, &after, "mfcsld_router_deadline_exhausted_total"),
        );
        let open = after
            .iter()
            .filter(|(k, v)| k.starts_with("mfcsld_router_breaker_state") && **v != 0.0)
            .count();
        report.set("router.breaker_open", open as f64);
        // Means, like the daemon's histogram, so the stages add up.
        let ok: Vec<&Sample> = nominal.iter().filter(|s| s.verdicts.is_some()).collect();
        let engine_us = ok.iter().map(|s| s.micros).sum::<f64>() / ok.len().max(1) as f64;
        let round_trip_us =
            ok.iter().map(|s| (s.done - s.sent) * 1e6).sum::<f64>() / ok.len().max(1) as f64;
        report.set("serve.engine_us", engine_us);

        // Traced phase: the same open loop with a client span per request.
        let mut tracer = Tracer::new();
        let (traced, traced_windows) = open_loop(
            daemon,
            bodies,
            next((shape.nominal_rps * nominal_s).ceil() as usize),
            shape.nominal_rps,
            nominal_s,
            conns,
            &mut peak_anon,
        );
        let origin = Instant::now();
        for (i, s) in traced.iter().enumerate() {
            let at = |x: f64| origin + Duration::from_secs_f64(x);
            tracer.record("request", i as u64, at(s.due), at(s.done));
        }
        report.set(
            "trace.overhead_ms",
            windowed_p50(&traced, &traced_windows) - p50,
        );
        report.set("trace.accounting_error_us", tracer.accounting_error_us());
        report.spans = tracer.json_lines();
        all.extend(traced);

        let template = &templates[schedule[0]];
        let response = {
            let mut stream = connect(&daemon.addr);
            send(&mut stream, &daemon.addr, template.body().as_bytes())
                .ok_or("replay capture failed")?
        };
        let stages = replay_stages(report, models, template, &response)?;
        report.set("serve.queue_us", server_us - stages - engine_us);
        report.set("remainder_ms", (round_trip_us - server_us) / 1e3);
        if shape.fleet {
            report.set("router.proxy_us", proxy_cost(daemon, template)?);
        }
    }
    report.set("peak_rss_mb", daemon.status_mb("VmHWM"));
    report.set("peak_heap_mb", peak_anon);
    Ok(all)
}

/// `serve_hot`: warm requests only — a few session keys × a few `m0`s with
/// light formulas, all cached after the set-up's warm-up pass.
pub fn serve_hot(ctx: &Ctx) -> Result<Report, String> {
    let templates = gen::hot_templates(ctx.seed);
    let mut rng = gen::Rng::stream(ctx.seed, 8, 0);
    let schedule: Vec<usize> = (0..400_000).map(|_| rng.below(templates.len())).collect();
    let warm: Vec<usize> = (0..templates.len()).collect();
    let shape = Shape {
        fleet: false,
        flags: ["--workers", "2", "--loops", "1", "--threads", "1"]
            .map(String::from)
            .to_vec(),
        nominal_rps: 4000.0,
        ladder: &[1000.0, 2000.0, 4000.0],
        slo_ms: 50.0,
    };
    run_serving(ctx, &shape, &templates, &schedule, &warm)
}

/// `serve_fleet`: a two-shard fleet whose tenant population exceeds the
/// shards' session capacity, with a seeded share of fresh-parameter
/// requests (cold build + solve + eager snapshot write) beside warm reads.
pub fn serve_fleet(ctx: &Ctx) -> Result<Report, String> {
    let (templates, schedule) = gen::fleet_requests(ctx.seed, 40_000);
    let warm: Vec<usize> = (0..gen::FLEET_TENANTS).collect();
    let shape = Shape {
        fleet: true,
        flags: vec![
            "--shards".into(),
            gen::FLEET_SHARDS.to_string(),
            "--workers".into(),
            "2".into(),
            "--loops".into(),
            "1".into(),
            "--threads".into(),
            "1".into(),
            "--max-sessions".into(),
            gen::FLEET_SHARD_CAPACITY.to_string(),
        ],
        nominal_rps: 400.0,
        ladder: &[125.0, 250.0, 500.0],
        slo_ms: 100.0,
    };
    run_serving(ctx, &shape, &templates, &schedule, &warm)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `serve_hot`'s key population fits the daemon's default session
    /// capacity, so after the warm-up pass every scheduled request is warm.
    #[test]
    fn hot_templates_are_all_warm_after_warm_up() {
        let dir = std::env::temp_dir().join(format!("perfbench-hot-{}", std::process::id()));
        write_models(&dir).unwrap();
        let registry = ModelRegistry::load(std::slice::from_ref(&dir)).unwrap();
        for seed in [1, 2, 3] {
            let store = SessionStore::new(Arc::new(ThreadPool::new(1)), 64, None);
            let templates = gen::hot_templates(seed);
            let key =
                |t: &Template| SessionKey::new("virus", &gen::overrides(&t.params), false, None);
            for t in &templates {
                store.get_or_create(&registry, &key(t)).unwrap();
            }
            let mut rng = gen::Rng::stream(seed, 8, 0);
            for _ in 0..1000 {
                let t = &templates[rng.below(templates.len())];
                assert!(
                    store.get_or_create(&registry, &key(t)).unwrap().1,
                    "seed {seed}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn announce_lines_parse() {
        let (addr, pids) = parse_announce(
            "mfcsld router listening on 127.0.0.1:4000 (2 shards: 127.0.0.1:1, 127.0.0.1:2; pids 11, 12; 1 models)\n",
        )
        .unwrap();
        assert_eq!(addr.port(), 4000);
        assert_eq!(pids, vec![11, 12]);
        let (addr, pids) = parse_announce(
            "mfcsld listening on 127.0.0.1:5 (1 models, 2 workers, queue 64, epoll x1 core)\n",
        )
        .unwrap();
        assert_eq!(addr.port(), 5);
        assert!(pids.is_empty());
        assert!(parse_announce("hello").is_err());
    }

    #[test]
    fn windowed_p50_is_a_median_of_window_medians() {
        let samples: Vec<Sample> = (0..1000)
            .map(|i| {
                let due = i as f64 / 100.0;
                let latency = if i < 300 { 0.050 } else { 0.001 };
                Sample {
                    template: 0,
                    due,
                    sent: due,
                    done: due + latency,
                    verdicts: None,
                    warm: true,
                    micros: 0.0,
                }
            })
            .collect();
        let mut windows = host::Windows::default();
        for k in 0..=WINDOWS {
            windows.mark(k as f64);
        }
        assert!((windowed_p50(&samples, &windows) - 1.0).abs() < 1e-9);
    }
}
