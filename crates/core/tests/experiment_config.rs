//! Construction-time validation shared by every scenario: an experiment
//! whose steps would draw no configurations, or a loss term that would
//! draw no collocation points, is rejected by `new` instead of training on
//! an empty (or silently missing) term.

use deepoheat::experiments::{
    HtcExperiment, HtcExperimentConfig, PowerMapExperiment, PowerMapExperimentConfig,
    VolumetricExperiment, VolumetricExperimentConfig,
};
use deepoheat::DeepOHeatError;

#[test]
fn empty_batches_and_point_sets_are_rejected_at_construction() {
    let pm = |edit: fn(&mut PowerMapExperimentConfig)| {
        let mut config = PowerMapExperimentConfig { nx: 9, ny: 9, nz: 5, ..Default::default() };
        edit(&mut config);
        PowerMapExperiment::new(config).map(drop)
    };
    let htc = |edit: fn(&mut HtcExperimentConfig)| {
        let mut config = HtcExperimentConfig { nx: 9, nz: 12, ..Default::default() };
        edit(&mut config);
        HtcExperiment::new(config).map(drop)
    };
    let vol = |edit: fn(&mut VolumetricExperimentConfig)| {
        let mut config = VolumetricExperimentConfig { nx: 7, ny: 7, nz: 5, ..Default::default() };
        edit(&mut config);
        VolumetricExperiment::new(config).map(drop)
    };
    let cases = [
        ("power map", true, pm(|_| {})),
        ("power map, no maps", false, pm(|c| c.functions_per_batch = 0)),
        ("power map, no interior points", false, pm(|c| c.interior_points = Some(0))),
        ("power map, no boundary points", false, pm(|c| c.boundary_points = Some(0))),
        ("htc", true, htc(|_| {})),
        ("htc, no pairs", false, htc(|c| c.functions_per_batch = 0)),
        ("htc, no face points", false, htc(|c| c.face_points = 0)),
        ("htc, no power-layer points", true, htc(|c| c.power_layer_points = 0)),
        (
            "htc, no volume or power-layer points",
            false,
            htc(|c| (c.volume_points, c.power_layer_points) = (0, 0)),
        ),
        ("volumetric", true, vol(|_| {})),
        ("volumetric, no maps", false, vol(|c| c.functions_per_batch = 0)),
        ("volumetric, no interior points", false, vol(|c| c.interior_points = Some(0))),
        ("volumetric, no boundary points", false, vol(|c| c.boundary_points = Some(0))),
    ];
    for (case, valid, result) in cases {
        match result {
            Ok(()) => assert!(valid, "{case}: accepted"),
            Err(DeepOHeatError::InvalidConfig { .. }) => assert!(!valid, "{case}: rejected"),
            Err(other) => panic!("{case}: unexpected error {other}"),
        }
    }
}
