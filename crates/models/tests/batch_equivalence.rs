//! Batch-vs-serial equivalence for the SoA solving lane
//! ([`mfcsl_ode::batch`]), swept across all four Table II parameter
//! settings and the bounded-queue model at batch widths 1, 2, and 12.
//!
//! Every lane runs its own accept/reject stream with arithmetic identical
//! to the scalar solver, so each lane must reproduce its serial solve bit
//! for bit — same knots, same values, same derivatives, same step
//! statistics.

use mfcsl_core::meanfield;
use mfcsl_core::{LocalModel, Occupancy};
use mfcsl_models::{queueing, virus};
use mfcsl_ode::{OdeOptions, Recovery};
use proptest::prelude::*;

const WIDTHS: [usize; 3] = [1, 2, 12];

/// Interior points of the 3-state simplex, bounded away from the boundary
/// so the smart-virus rate cap never engages and the stiff Setting-2 rates
/// stay integrable at test speed (same bounds as `hotpath_equivalence`).
fn virus_occupancies() -> impl Strategy<Value = Vec<Occupancy>> {
    proptest::collection::vec((0.15f64..1.0, 0.15f64..1.0, 0.15f64..1.0), 12).prop_map(|raw| {
        raw.into_iter()
            .map(|(a, b, c)| {
                let s = a + b + c;
                Occupancy::new(vec![a / s, b / s, c / s]).expect("normalized simplex point")
            })
            .collect()
    })
}

/// Interior points of the 9-state simplex of the default bounded-queue
/// model (cap = 8).
fn queue_occupancies() -> impl Strategy<Value = Vec<Occupancy>> {
    proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, 9), 12).prop_map(|raw| {
        raw.into_iter()
            .map(|mass| {
                let s: f64 = mass.iter().sum();
                Occupancy::new(mass.iter().map(|x| x / s).collect())
                    .expect("normalized simplex point")
            })
            .collect()
    })
}

/// Every Table II virus setting plus the bounded queue.
fn all_models() -> Vec<(&'static str, LocalModel)> {
    let mut models: Vec<(&'static str, LocalModel)> = virus::table2_settings()
        .into_iter()
        .map(|(name, params, law)| (name, virus::model(params, law).expect("valid params")))
        .collect();
    models.push((
        "queueing",
        queueing::model(queueing::default_params()).expect("valid params"),
    ));
    models
}

/// Asserts two trajectories are bitwise identical: statistics, knot times,
/// knot values, knot derivatives.
fn assert_bitwise(
    name: &str,
    width: usize,
    lane: usize,
    serial: &mfcsl_ode::Trajectory,
    batched: &mfcsl_ode::Trajectory,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        serial.stats(),
        batched.stats(),
        "{} width {} lane {}: step statistics differ",
        name,
        width,
        lane
    );
    let (cs, cb) = (serial.curve(), batched.curve());
    prop_assert_eq!(
        cs.knots(),
        cb.knots(),
        "{} width {} lane {}: knot times differ",
        name,
        width,
        lane
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for k in 0..cs.knots().len() {
        prop_assert_eq!(
            bits(cs.value_at(k)),
            bits(cb.value_at(k)),
            "{} width {} lane {}: knot {} values differ",
            name,
            width,
            lane,
            k
        );
        prop_assert_eq!(
            bits(cs.derivative_at(k)),
            bits(cb.derivative_at(k)),
            "{} width {} lane {}: knot {} derivatives differ",
            name,
            width,
            lane,
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Per-lane controllers are the pure memory-layout change: every lane
    /// of the batch must reproduce its serial solve bit for bit on every
    /// setting, at every width, with no lane detaching.
    #[test]
    fn per_lane_batch_is_bitwise_identical_to_serial(
        virus_m0s in virus_occupancies(),
        queue_m0s in queue_occupancies(),
        theta in 0.5f64..2.5,
    ) {
        let opts = OdeOptions::default();
        for (name, model) in all_models() {
            let m0s: &[Occupancy] =
                if name == "queueing" { &queue_m0s } else { &virus_m0s };
            for width in WIDTHS {
                let lanes = &m0s[..width];
                let sweep = meanfield::solve_batch(&model, lanes, theta, &opts).expect("solves");
                prop_assert_eq!(sweep.stats.width, width);
                prop_assert_eq!(
                    sweep.stats.detached, 0,
                    "{} width {}: healthy lanes must not detach", name, width
                );
                for (lane, (m0, result)) in lanes.iter().zip(&sweep.lanes).enumerate() {
                    let (batched, recovery) = result.as_ref().expect("lane solves");
                    prop_assert_eq!(
                        *recovery, Recovery::None,
                        "{} width {} lane {}: batched lane must not need the ladder",
                        name, width, lane
                    );
                    let serial = meanfield::solve(&model, m0, theta, &opts).expect("solves");
                    assert_bitwise(
                        name, width, lane,
                        serial.trajectory(), batched.trajectory(),
                    )?;
                }
            }
        }
    }
}
