//! End-to-end integration tests of the operator-learning stack: both
//! experiments, both training modes, exercised at miniature scale.

use deepoheat::experiments::{
    HtcExperiment, HtcExperimentConfig, PowerMapExperiment, PowerMapExperimentConfig,
};
use deepoheat::metrics::relative_l2;
use deepoheat_grf::paper_test_suite;
use deepoheat_linalg::Matrix;

fn tiny_power_map_config() -> PowerMapExperimentConfig {
    PowerMapExperimentConfig {
        nx: 11,
        ny: 11,
        nz: 6,
        branch_hidden: vec![32, 32],
        trunk_hidden: vec![32, 32],
        latent_dim: 24,
        functions_per_batch: 4,
        interior_points: Some(128),
        boundary_points: Some(48),
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn physics_informed_training_beats_the_trivial_predictor() {
    // After a short physics-informed run, the prediction of the
    // temperature *rise* must capture a meaningful fraction of the truth
    // (the trivial always-ambient predictor scores exactly 1.0).
    let mut exp = PowerMapExperiment::new(tiny_power_map_config()).expect("experiment");
    for _ in 0..300 {
        exp.train_step().expect("step");
    }
    let map = Matrix::filled(11, 11, 1.0);
    let predicted = exp.predict_field(&map).expect("prediction");
    let reference = exp.reference_field(&map).expect("reference");
    let pred_rise: Vec<f64> = predicted.iter().map(|t| t - 298.15).collect();
    let ref_rise: Vec<f64> = reference.iter().map(|t| t - 298.15).collect();
    let rel = relative_l2(&pred_rise, &ref_rise).expect("metric");
    assert!(rel < 0.5, "rise relative error {rel} (trivial predictor = 1.0)");
}

#[test]
fn supervised_training_reaches_tight_accuracy() {
    let config = tiny_power_map_config().supervised(24);
    let mut exp = PowerMapExperiment::new(config).expect("experiment");
    for _ in 0..400 {
        exp.train_step().expect("step");
    }
    // Accuracy on an in-distribution-ish block map.
    let mut map = Matrix::zeros(11, 11);
    for i in 3..8 {
        for j in 3..8 {
            map[(i, j)] = 1.0;
        }
    }
    let errors = exp.evaluate(&map).expect("evaluation");
    assert!(errors.mape < 0.5, "MAPE {}%", errors.mape);
    assert!(errors.pape < 3.0, "PAPE {}%", errors.pape);
}

#[test]
fn htc_supervised_pipeline_matches_reference_closely() {
    let config = HtcExperimentConfig {
        nx: 9,
        nz: 12,
        branch_hidden: vec![12, 12],
        trunk_hidden: vec![32, 32],
        latent_dim: 24,
        functions_per_batch: 6,
        volume_points: 200,
        seed: 5,
        ..Default::default()
    }
    .supervised(20);
    let mut exp = HtcExperiment::new(config).expect("experiment");
    for _ in 0..500 {
        exp.train_step().expect("step");
    }
    for (ht, hb) in [(1000.0, 333.33), (500.0, 500.0)] {
        let errors = exp.evaluate(&(ht, hb)).expect("evaluation");
        assert!(errors.mape < 0.2, "({ht},{hb}) MAPE {}%", errors.mape);
    }
}

#[test]
fn evaluation_against_the_paper_suite_is_wired_up() {
    // Construction-level check that all ten paper maps flow through the
    // full pipeline (encode -> predict -> reference solve -> metrics).
    let exp = PowerMapExperiment::new(PowerMapExperimentConfig {
        branch_hidden: vec![16],
        trunk_hidden: vec![16],
        latent_dim: 8,
        ..Default::default()
    })
    .expect("experiment");
    for (name, map) in paper_test_suite(20) {
        let errors = exp.evaluate(&map.to_grid(21)).expect("evaluation");
        assert!(errors.mape.is_finite(), "{name} produced a non-finite MAPE");
        assert!(errors.pape >= errors.mape, "{name}: PAPE below MAPE");
    }
}

#[test]
fn training_is_reproducible_for_a_fixed_seed() {
    let run = || {
        let mut exp = PowerMapExperiment::new(tiny_power_map_config()).expect("experiment");
        let mut last = 0.0;
        for _ in 0..10 {
            last = exp.train_step().expect("step");
        }
        last
    };
    assert_eq!(run(), run());
}
