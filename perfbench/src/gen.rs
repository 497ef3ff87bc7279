//! Seeded input generation. Everything the system under test sees — `.mf`
//! text, occupancies, formulas, request bodies — is produced here from the
//! run's `--seed`, so one seed always yields byte-identical inputs.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// An independent stream for `(seed, label, index)`, so one workload's
    /// draws never shift another's.
    pub fn stream(seed: u64, label: u64, index: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label.rotate_left(17));
        r.0 ^= index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Rounds to `digits` decimals so generated numbers print exactly as they
/// are parsed back (the `.mf` text and JSON bodies carry decimal text).
pub fn round(x: f64, digits: i32) -> f64 {
    let s = 10f64.powi(digits);
    (x * s).round() / s
}

/// Virus model rate constants `k1..k5` (Table II of the paper).
pub type VirusParams = [f64; 5];

/// Table II Setting 1.
pub const SETTING_1: VirusParams = [0.9, 0.1, 0.01, 0.3, 0.3];
/// Table II Setting 2 (unstable: the smart-virus guard engages).
pub const SETTING_2: VirusParams = [5.0, 0.02, 0.01, 0.5, 0.5];

/// The virus model as `.mf` text with the smart-virus law and its
/// `max(m1, 1e-6)` guard, exactly as the CLI and the daemon load it.
pub fn virus_mf(params: &VirusParams) -> String {
    let mut out = String::from(
        "# Virus spread (Kolesnichenko et al., DSN 2013, Fig. 2), smart-virus law.\n\
         state s1 : not_infected\n\
         state s2 : infected inactive\n\
         state s3 : infected active\n",
    );
    for (i, k) in params.iter().enumerate() {
        let _ = writeln!(out, "param k{} = {k}", i + 1);
    }
    out.push_str(
        "rate s1 -> s2 : k1 * m[s3] / max(m[s1], 1e-6)\n\
         rate s2 -> s1 : k2\n\
         rate s2 -> s3 : k3\n\
         rate s3 -> s2 : k4\n\
         rate s3 -> s1 : k5\n",
    );
    out
}

/// Setting 1 with every rate scaled by a seeded factor in `[0.8, 1.2]`:
/// non-stiff parameters near the paper's stable setting.
pub fn near_setting_1(rng: &mut Rng) -> VirusParams {
    let mut p = SETTING_1;
    for k in &mut p {
        *k = round(*k * rng.range(0.8, 1.2), 4);
    }
    p
}

/// An occupancy `(m1, m2, m3)` with a seeded infected share in `[lo, hi)`,
/// split between inactive and active by a seeded ratio. Entries are
/// multiples of 2⁻¹², so they sum to exactly 1 and print exactly.
pub fn occupancy(rng: &mut Rng, lo: f64, hi: f64) -> [f64; 3] {
    let infected = rng.range(lo, hi);
    split(rng, infected, 0.3, 0.7)
}

fn split(rng: &mut Rng, infected: f64, lo: f64, hi: f64) -> [f64; 3] {
    let dyadic = |x: f64| (x * 4096.0).round() / 4096.0;
    let infected = dyadic(infected);
    let m2 = dyadic(infected * rng.range(lo, hi));
    [1.0 - infected, m2, infected - m2]
}

/// Occupancies in the grid that start at an infected share ≥ 0.25 — the
/// lanes whose Setting-2 trajectories fall onto the guard floor.
pub const STIFF_LANES: usize = 6;
/// Occupancies per `csat_sweep` item.
pub const SWEEP_GRID: usize = 12;

/// The `sweep_stiff` grid: [`STIFF_LANES`] occupancies with infected share
/// in `[0.3, 0.5)`, the rest in `[0.02, 0.15)`, in seeded order. Shares are
/// stratified (one lane per equal slice of each range, jittered by ±2% of
/// the slice around its centre) and split evenly between inactive and
/// active, so every seed asks for the same solver work within 0.3%; the
/// seed still moves every share, the lane order and the bound.
pub fn sweep_grid(seed: u64) -> Vec<[f64; 3]> {
    let mut rng = Rng::stream(seed, 1, 0);
    let mild = SWEEP_GRID - STIFF_LANES;
    let mut grid: Vec<[f64; 3]> = (0..SWEEP_GRID)
        .map(|i| {
            let (lo, hi, slot, slots) = if i < STIFF_LANES {
                (0.3, 0.5, i, STIFF_LANES)
            } else {
                (0.02, 0.15, i - STIFF_LANES, mild)
            };
            let width = (hi - lo) / slots as f64;
            let share = lo + width * (slot as f64 + rng.range(0.48, 0.52));
            split(&mut rng, share, 0.5, 0.5)
        })
        .collect();
    rng.shuffle(&mut grid);
    grid
}

/// The `sweep_stiff` formula `E{<b}[ infected ]` with a seeded bound.
pub fn sweep_formula(seed: u64) -> String {
    let mut rng = Rng::stream(seed, 2, 0);
    format!("E{{<{}}}[ infected ]", round(rng.range(0.55, 0.8), 3))
}

/// One `check_batch` item: a model index, an initial occupancy and a
/// formula batch whose members share sub-formulas.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckItem {
    pub model: usize,
    pub m0: [f64; 3],
    pub formulas: Vec<String>,
}

/// Operator class of a generated formula, for per-operator timings.
pub fn operator_of(formula: &str) -> &'static str {
    if formula.starts_with("ES{") {
        "ES"
    } else if formula.starts_with("EP{") {
        if formula.matches("U[").count() > 1 {
            "EP_nested"
        } else {
            "EP"
        }
    } else {
        "E"
    }
}

/// Distinct item specifications per `check_batch` run; items cycle through
/// them (each with a fresh session), so the reference check covers every
/// output at a fixed cost.
pub const CHECK_SPECS: usize = 256;
/// Parameter sets (models) per `check_batch` run: enough that the seed's
/// draw of settle times averages out.
pub const CHECK_MODELS: usize = 16;

/// The `check_batch` item specifications: seeded `m0` and five formulas
/// drawn from the E / ES / EP-until / nested-until templates. Bounds sit far
/// from the Setting-1 values so verdicts are not marginal.
pub fn check_items(seed: u64) -> Vec<CheckItem> {
    (0..CHECK_SPECS)
        .map(|i| {
            let mut rng = Rng::stream(seed, 3, i as u64);
            let model = rng.below(CHECK_MODELS);
            let m0 = occupancy(&mut rng, 0.05, 0.35);
            let t = round(rng.range(0.5, 2.0), 2);
            let t2 = round(rng.range(0.2, 0.8), 2);
            let until = format!("not_infected U[0,{t}] infected");
            let inner = format!(
                "P{{>{}}}[ tt U[0,{t2}] active ]",
                round(rng.range(0.05, 0.3), 2)
            );
            let mut formulas = vec![
                format!("E{{<{}}}[ infected ]", round(rng.range(0.2, 0.9), 2)),
                format!("ES{{>{}}}[ infected ]", round(rng.range(0.01, 0.5), 2)),
                format!("EP{{<{}}}[ {until} ]", round(rng.range(0.1, 0.9), 2)),
                format!("EP{{>{}}}[ {until} ]", round(rng.range(0.0, 0.5), 2)),
                format!(
                    "EP{{<{}}}[ not_infected U[0,{t}] {inner} ]",
                    round(rng.range(0.1, 0.9), 2)
                ),
            ];
            rng.shuffle(&mut formulas);
            CheckItem {
                model,
                m0,
                formulas,
            }
        })
        .collect()
}

/// The `check_batch` parameter sets.
pub fn check_models(seed: u64) -> Vec<VirusParams> {
    let mut rng = Rng::stream(seed, 4, 0);
    (0..CHECK_MODELS)
        .map(|_| near_setting_1(&mut rng))
        .collect()
}

/// One serving request template: session parameters, `m0` and formulas.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    pub params: VirusParams,
    pub m0: [f64; 3],
    pub formulas: Vec<String>,
}

impl Template {
    /// The `POST /v1/check` body: model `virus` with this template's
    /// parameters as overrides.
    pub fn body(&self) -> String {
        let [m1, m2, m3] = self.m0;
        let formulas: Vec<String> = self.formulas.iter().map(|f| format!("\"{f}\"")).collect();
        let p = &self.params;
        format!(
            "{{\"model\":\"virus\",\"m0\":[{m1},{m2},{m3}],\"formulas\":[{}],\
             \"params\":{{\"k1\":{},\"k2\":{},\"k3\":{},\"k4\":{},\"k5\":{}}}}}",
            formulas.join(","),
            p[0],
            p[1],
            p[2],
            p[3],
            p[4]
        )
    }
}

/// Light formulas for warm serving: a mass bound and a short until, both
/// memoized after the first request.
fn light_formulas(rng: &mut Rng) -> Vec<String> {
    vec![
        format!("E{{<{}}}[ infected ]", round(rng.range(0.3, 0.9), 2)),
        format!(
            "EP{{<{}}}[ not_infected U[0,1] infected ]",
            round(rng.range(0.2, 0.9), 2)
        ),
    ]
}

/// Session keys × `m0`s of `serve_hot`.
pub const HOT_KEYS: usize = 3;
pub const HOT_M0S: usize = 4;

/// The `serve_hot` templates: [`HOT_KEYS`] session keys × [`HOT_M0S`]
/// occupancies, all warm after one pass.
pub fn hot_templates(seed: u64) -> Vec<Template> {
    let mut rng = Rng::stream(seed, 5, 0);
    let keys: Vec<VirusParams> = (0..HOT_KEYS).map(|_| near_setting_1(&mut rng)).collect();
    let mut out = Vec::new();
    for params in keys {
        for _ in 0..HOT_M0S {
            let m0 = occupancy(&mut rng, 0.05, 0.3);
            out.push(Template {
                params,
                m0,
                formulas: light_formulas(&mut rng),
            });
        }
    }
    out
}

/// Tenant session keys of `serve_fleet`; more than the fleet's capacity.
pub const FLEET_TENANTS: usize = 16;
/// Warm sessions each fleet shard retains (`--max-sessions`).
pub const FLEET_SHARD_CAPACITY: usize = 6;
pub const FLEET_SHARDS: usize = 2;
/// Share of fleet requests that carry fresh, never-seen parameters.
pub const FLEET_COLD_SHARE: f64 = 0.1;

/// The fleet's request stream: tenant reads (one fixed `m0` and formula
/// pair per tenant) mixed with a seeded [`FLEET_COLD_SHARE`] of requests
/// whose parameters are new. Returns `(templates, schedule)`: request `i`
/// sends `templates[schedule[i]]`.
pub fn fleet_requests(seed: u64, n: usize) -> (Vec<Template>, Vec<usize>) {
    let mut rng = Rng::stream(seed, 6, 0);
    // Tenants are drawn until each shard owns the same number, so every
    // seed loads both shards' stores alike.
    let mut per_shard = [0usize; FLEET_SHARDS];
    let mut templates: Vec<Template> = Vec::new();
    while templates.len() < FLEET_TENANTS {
        let params = near_setting_1(&mut rng);
        let m0 = occupancy(&mut rng, 0.05, 0.3);
        let formulas = light_formulas(&mut rng);
        let shard = shard_of(&params);
        if per_shard[shard] < FLEET_TENANTS / FLEET_SHARDS {
            per_shard[shard] += 1;
            templates.push(Template {
                params,
                m0,
                formulas,
            });
        }
    }
    let mut schedule = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.unit() < FLEET_COLD_SHARE {
            let params = near_setting_1(&mut rng);
            let m0 = occupancy(&mut rng, 0.05, 0.3);
            templates.push(Template {
                params,
                m0,
                formulas: light_formulas(&mut rng),
            });
            schedule.push(templates.len() - 1);
        } else {
            schedule.push(rng.below(FLEET_TENANTS));
        }
    }
    (templates, schedule)
}

/// `k1..k5` as the daemon's `params` overrides.
pub fn overrides(params: &VirusParams) -> std::collections::BTreeMap<String, f64> {
    params
        .iter()
        .enumerate()
        .map(|(i, k)| (format!("k{}", i + 1), *k))
        .collect()
}

/// The fleet shard that owns the session key of `params` on model `virus`.
pub fn shard_of(params: &VirusParams) -> usize {
    let key = mfcsl_serve::SessionKey::new("virus", &overrides(params), false, None);
    mfcsl_serve::route_for(&key, FLEET_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [1, 7, 42] {
            assert_eq!(sweep_grid(seed), sweep_grid(seed));
            assert_eq!(sweep_formula(seed), sweep_formula(seed));
            assert_eq!(check_items(seed), check_items(seed));
            assert_eq!(
                virus_mf(&check_models(seed)[0]),
                virus_mf(&check_models(seed)[0])
            );
            let a: Vec<String> = hot_templates(seed).iter().map(Template::body).collect();
            let b: Vec<String> = hot_templates(seed).iter().map(Template::body).collect();
            assert_eq!(a, b);
            assert_eq!(fleet_requests(seed, 500), fleet_requests(seed, 500));
        }
        assert_ne!(sweep_grid(1), sweep_grid(2));
        assert_ne!(check_items(1), check_items(2));
    }

    #[test]
    fn sweep_grid_has_the_declared_stiff_share() {
        for seed in 0..20 {
            let grid = sweep_grid(seed);
            assert_eq!(grid.len(), SWEEP_GRID);
            let stiff = grid.iter().filter(|m| m[1] + m[2] >= 0.25).count();
            assert_eq!(stiff, STIFF_LANES, "seed {seed}");
            for m in &grid {
                assert_eq!(m.iter().sum::<f64>(), 1.0);
                assert!(m.iter().all(|&x| x > 0.0));
            }
        }
    }

    #[test]
    fn fleet_population_exceeds_capacity_with_the_stated_cold_share() {
        for seed in 0..5 {
            let n = 4000;
            let (templates, schedule) = fleet_requests(seed, n);
            let cold = schedule.iter().filter(|&&i| i >= FLEET_TENANTS).count();
            let share = cold as f64 / n as f64;
            assert!(
                (share - FLEET_COLD_SHARE).abs() < 0.02,
                "seed {seed}: {share}"
            );
            assert!(templates.len() > FLEET_SHARDS * FLEET_SHARD_CAPACITY);
            const { assert!(FLEET_TENANTS > FLEET_SHARDS * FLEET_SHARD_CAPACITY) };
            let mut per_shard = [0; FLEET_SHARDS];
            for t in &templates[..FLEET_TENANTS] {
                per_shard[shard_of(&t.params)] += 1;
            }
            assert_eq!(per_shard, [FLEET_TENANTS / FLEET_SHARDS; FLEET_SHARDS]);
        }
    }

    #[test]
    fn template_bodies_are_the_daemon_wire_format() {
        let t = &hot_templates(9)[0];
        let body = mfcsl_serve::Json::parse(&t.body()).expect("valid JSON");
        assert_eq!(
            body.get("model").and_then(mfcsl_serve::Json::as_str),
            Some("virus")
        );
        let m0: Vec<f64> = body
            .get("m0")
            .and_then(mfcsl_serve::Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(mfcsl_serve::Json::as_f64)
            .collect();
        assert_eq!(m0, t.m0.to_vec());
        assert_eq!(
            body.get("params").and_then(mfcsl_serve::Json::as_num_map),
            Some(overrides(&t.params))
        );
        assert_eq!(
            body.get("formulas")
                .and_then(mfcsl_serve::Json::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn check_items_cover_every_operator() {
        let items = check_items(3);
        for op in ["E", "ES", "EP", "EP_nested"] {
            assert!(
                items[0].formulas.iter().any(|f| operator_of(f) == op),
                "{op}"
            );
        }
        for item in &items {
            assert_eq!(item.formulas.len(), 5);
            assert!(mfcsl_core::mfcsl::parse_formula(&item.formulas[0]).is_ok());
        }
    }
}
