//! Prediction rejects every design the reference solver rejects. For each
//! scenario a design with a NaN or ±∞ entry, and an HTC at or below zero,
//! is an error from both `predict_field` and `reference_field` — never a
//! NaN or extrapolated field — while a valid design still predicts a
//! finite field.

use deepoheat::experiments::{
    Experiment, HtcExperiment, HtcExperimentConfig, PowerMapExperiment, PowerMapExperimentConfig,
    Scenario, VolumetricExperiment, VolumetricExperimentConfig,
};
use deepoheat_linalg::Matrix;

/// Checks `good` predicts a finite field, and lists every `bad` design
/// that is not an error from both `predict_field` and `reference_field`.
fn check<S: Scenario>(
    exp: &Experiment<S>,
    good: &S::Input,
    bad: &[(&str, &S::Input)],
) -> Vec<String> {
    let field = exp.predict_field(good).expect("a valid design predicts");
    assert!(field.iter().all(|t| t.is_finite()), "valid design: non-finite prediction");
    let mut accepted = Vec::new();
    for (case, design) in bad {
        if exp.reference_field(design).is_ok() {
            accepted.push(format!("{case}: the reference solved it"));
        }
        if let Ok(field) = exp.predict_field(design) {
            let nan = field.iter().filter(|t| t.is_nan()).count();
            accepted.push(format!("{case}: predicted a field, {nan} of {} NaN", field.len()));
        }
    }
    accepted
}

#[test]
fn designs_the_reference_rejects_are_not_predicted() {
    let pm = PowerMapExperiment::new(PowerMapExperimentConfig {
        nx: 9,
        ny: 9,
        nz: 5,
        branch_hidden: vec![8],
        trunk_hidden: vec![8],
        latent_dim: 4,
        ..Default::default()
    })
    .expect("power map experiment");
    let map = |value: f64| {
        let mut m = Matrix::filled(9, 9, 0.5);
        m[(4, 4)] = value;
        m
    };
    let (nan, inf, neg_inf) = (map(f64::NAN), map(f64::INFINITY), map(f64::NEG_INFINITY));
    let mut accepted = check(
        &pm,
        &map(1.0),
        &[("power map, NaN entry", &nan), ("power map, +inf", &inf), ("power map, -inf", &neg_inf)],
    );

    let htc = HtcExperiment::new(HtcExperimentConfig {
        nx: 9,
        nz: 12,
        branch_hidden: vec![8],
        trunk_hidden: vec![8],
        latent_dim: 4,
        ..Default::default()
    })
    .expect("htc experiment");
    let bad_htcs = [
        ("htc, NaN top", (f64::NAN, 400.0)),
        ("htc, NaN bottom", (700.0, f64::NAN)),
        ("htc, +inf top", (f64::INFINITY, 400.0)),
        ("htc, -inf bottom", (700.0, f64::NEG_INFINITY)),
        ("htc, zero top", (0.0, 400.0)),
        ("htc, negative bottom", (700.0, -50.0)),
    ];
    let bad: Vec<(&str, &(f64, f64))> = bad_htcs.iter().map(|(case, h)| (*case, h)).collect();
    accepted.extend(check(&htc, &(700.0, 400.0), &bad));

    let vol = VolumetricExperiment::new(VolumetricExperimentConfig {
        nx: 7,
        ny: 7,
        nz: 5,
        branch_hidden: vec![8],
        trunk_hidden: vec![8],
        latent_dim: 4,
        ..Default::default()
    })
    .expect("volumetric experiment");
    let units = |value: f64| {
        let mut v = vec![0.5; 7 * 7 * 5];
        v[100] = value;
        v
    };
    let (nan, inf, neg_inf) = (units(f64::NAN), units(f64::INFINITY), units(f64::NEG_INFINITY));
    accepted.extend(check(
        &vol,
        &units(1.0)[..],
        &[
            ("volumetric, NaN entry", &nan[..]),
            ("volumetric, +inf", &inf[..]),
            ("volumetric, -inf", &neg_inf[..]),
        ],
    ));
    assert!(accepted.is_empty(), "bad designs accepted:\n{}", accepted.join("\n"));
}
