//! Pinned training bits: FNV-1a hashes over the step losses, the DOHC
//! checkpoint bytes and two predicted fields of seven tiny seeded
//! training runs, one per scenario and training mode.
//!
//! A change to the physics step, the supervised step, the dataset, the
//! checkpoint or the predict path of any scenario moves one of these
//! hashes. The pinned values are the ones commit 4ef43e5 (three separate
//! experiment drivers) produced. Each case is checked at pool widths 1, 2
//! and 4.
//!
//! * power maps, physics-informed, with and without Fourier features;
//! * power maps, supervised;
//! * top/bottom HTCs, physics-informed and supervised;
//! * volumetric power maps, physics-informed and supervised.

use deepoheat::checkpoint;
use deepoheat::experiments::{
    volumetric_test_suite, HtcExperiment, HtcExperimentConfig, PowerMapExperiment,
    PowerMapExperimentConfig, Trainable, TrainingMode, VolumetricExperiment,
    VolumetricExperimentConfig,
};
use deepoheat::FourierConfig;
use deepoheat_linalg::Matrix;
use deepoheat_parallel::ThreadPool;

/// Pool widths every pinned value must hold at.
const POOLS: [usize; 3] = [1, 2, 4];

/// Training steps per case.
const STEPS: usize = 6;

/// FNV-1a over a byte stream.
fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv1a<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    fnv1a_bytes(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The three hashes pinned per case: step losses, checkpoint bytes and
/// predicted fields.
#[derive(Debug, PartialEq, Eq)]
struct Bits {
    losses: u64,
    checkpoint: u64,
    fields: u64,
}

/// Trains `exp` for [`STEPS`] steps and hashes what it produced.
fn bits<E: Trainable>(mut exp: E, predict: impl Fn(&E) -> Vec<Vec<f64>>) -> Bits {
    let losses: Vec<f64> = (0..STEPS).map(|_| exp.train_step().expect("step")).collect();
    let bytes = checkpoint::to_bytes(&exp.snapshot()).expect("serialise");
    let fields = predict(&exp);
    assert_eq!(fields.len(), 2);
    Bits {
        losses: fnv1a(&losses),
        checkpoint: fnv1a_bytes(bytes),
        fields: fnv1a(fields.iter().flatten()),
    }
}

/// Runs `f` on every pool of [`POOLS`] and checks it returns `want` each
/// time.
fn assert_on_each_pool(case: &str, want: Bits, f: impl Fn() -> Bits) {
    for threads in POOLS {
        let got = ThreadPool::new(threads).install(&f);
        assert_eq!(got, want, "{case} on a {threads}-thread pool");
    }
}

fn power_map_config() -> PowerMapExperimentConfig {
    PowerMapExperimentConfig {
        nx: 9,
        ny: 9,
        nz: 5,
        branch_hidden: vec![16, 16],
        trunk_hidden: vec![16, 16],
        fourier: Some(FourierConfig { n_frequencies: 4, std: std::f64::consts::TAU }),
        latent_dim: 8,
        functions_per_batch: 3,
        interior_points: Some(48),
        boundary_points: Some(16),
        seed: 5,
        ..Default::default()
    }
}

fn power_map_fields(exp: &PowerMapExperiment) -> Vec<Vec<f64>> {
    let uniform = Matrix::filled(9, 9, 1.0);
    let ramp = Matrix::from_fn(9, 9, |i, j| 0.1 * (i + 2 * j) as f64);
    exp.predict_fields(&[uniform, ramp][..]).expect("predict")
}

fn htc_config() -> HtcExperimentConfig {
    HtcExperimentConfig {
        nx: 9,
        nz: 12,
        branch_hidden: vec![8, 8],
        trunk_hidden: vec![16, 16],
        fourier: Some(FourierConfig { n_frequencies: 4, std: std::f64::consts::PI }),
        latent_dim: 8,
        functions_per_batch: 3,
        volume_points: 48,
        power_layer_points: 24,
        face_points: 16,
        seed: 5,
        ..Default::default()
    }
}

fn htc_fields(exp: &HtcExperiment) -> Vec<Vec<f64>> {
    exp.predict_fields(&[(700.0, 400.0), (1000.0, 333.33)][..]).expect("predict")
}

fn volumetric_config() -> VolumetricExperimentConfig {
    VolumetricExperimentConfig {
        nx: 7,
        ny: 7,
        nz: 5,
        branch_hidden: vec![16, 16],
        trunk_hidden: vec![16, 16],
        fourier: Some(FourierConfig { n_frequencies: 4, std: std::f64::consts::TAU }),
        latent_dim: 8,
        functions_per_batch: 3,
        interior_points: Some(48),
        boundary_points: Some(16),
        seed: 5,
        ..Default::default()
    }
}

fn volumetric_fields(exp: &VolumetricExperiment) -> Vec<Vec<f64>> {
    let uniform = vec![0.5; 7 * 7 * 5];
    let suite = volumetric_test_suite(7, 7, 5);
    exp.predict_fields(&[&uniform[..], &suite[0].1[..]][..]).expect("predict")
}

#[test]
fn power_map_physics_with_fourier_features() {
    let want = Bits {
        losses: 0x4ad4_911d_7adb_eb6d,
        checkpoint: 0x7998_da12_cf7c_f20d,
        fields: 0x950c_9fcd_61ed_7807,
    };
    assert_on_each_pool("power map, physics, Fourier", want, || {
        bits(PowerMapExperiment::new(power_map_config()).expect("experiment"), power_map_fields)
    });
}

#[test]
fn power_map_physics_with_a_plain_trunk() {
    let want = Bits {
        losses: 0x4c43_3b29_dc64_6715,
        checkpoint: 0x47de_4cd2_4bc2_21b4,
        fields: 0x7337_9b9e_e26e_f44f,
    };
    assert_on_each_pool("power map, physics, plain trunk", want, || {
        let cfg = PowerMapExperimentConfig { fourier: None, ..power_map_config() };
        bits(PowerMapExperiment::new(cfg).expect("experiment"), power_map_fields)
    });
}

#[test]
fn power_map_supervised() {
    let want = Bits {
        losses: 0x983f_f21f_aa00_48ed,
        checkpoint: 0xe155_22d9_cef4_cd12,
        fields: 0xafba_d590_34ae_76c5,
    };
    assert_on_each_pool("power map, supervised", want, || {
        let cfg = power_map_config().supervised(4);
        bits(PowerMapExperiment::new(cfg).expect("experiment"), power_map_fields)
    });
}

#[test]
fn htc_physics() {
    let want = Bits {
        losses: 0x3ca1_0987_7e17_da76,
        checkpoint: 0x554d_dc2e_e0b8_cbc0,
        fields: 0xc734_35ba_7c69_8193,
    };
    assert_on_each_pool("htc, physics", want, || {
        bits(HtcExperiment::new(htc_config()).expect("experiment"), htc_fields)
    });
}

#[test]
fn htc_supervised() {
    let want = Bits {
        losses: 0x1529_fb96_037c_6496,
        checkpoint: 0xafd7_9a7b_757e_e37d,
        fields: 0xacdb_8a2b_3265_ac52,
    };
    assert_on_each_pool("htc, supervised", want, || {
        let cfg = htc_config().supervised(3);
        bits(HtcExperiment::new(cfg).expect("experiment"), htc_fields)
    });
}

#[test]
fn volumetric_physics() {
    let want = Bits {
        losses: 0x9fee_7664_f9bb_5957,
        checkpoint: 0xcc94_db12_fb6d_5f3f,
        fields: 0x8fe1_9bfc_a172_a2f0,
    };
    assert_on_each_pool("volumetric, physics", want, || {
        let cfg = VolumetricExperimentConfig {
            mode: TrainingMode::PhysicsInformed,
            fourier: None,
            ..volumetric_config()
        };
        bits(VolumetricExperiment::new(cfg).expect("experiment"), volumetric_fields)
    });
}

#[test]
fn volumetric_supervised() {
    let want = Bits {
        losses: 0x2c45_0ed2_538c_67b3,
        checkpoint: 0x3b55_71fb_a5fc_ca44,
        fields: 0xb348_eb72_f387_0d27,
    };
    assert_on_each_pool("volumetric, supervised", want, || {
        let cfg = VolumetricExperimentConfig {
            mode: TrainingMode::Supervised { dataset_size: 4 },
            ..volumetric_config()
        };
        bits(VolumetricExperiment::new(cfg).expect("experiment"), volumetric_fields)
    });
}
