//! Pinned answer bits of every inference path, per precision.
//!
//! For three seeded models — a Fourier trunk with an output transform, a
//! trunk without a Fourier layer, and a two-branch model — this suite
//! pins the FNV-1a hash of the bits of:
//!
//! * `DeepOHeat::predict` and `DeepOHeat::predict_theta`;
//! * an `InferenceEngine`'s answers at `Precision::F64` (which must equal
//!   `predict`'s) and at `Precision::F32`, first on a trunk-basis miss and
//!   then on a hit,
//!
//! at pool widths 1, 2 and 4 and trunk chunks of 1, 13, 64 and 256 rows. A
//! change to how either precision computes an answer moves a pin. The
//! hashes were recorded on x86-64 Linux; sin, cos and the activations
//! come from the platform's libm, so another platform may need its own.

#![deny(unsafe_code)]

use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_linalg::Matrix;
use deepoheat_parallel::ThreadPool;
use deepoheat_serve::{InferenceEngine, Precision, ServeOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POOL_WIDTHS: [usize; 3] = [1, 2, 4];
const TRUNK_CHUNKS: [usize; 4] = [1, 13, 64, 256];

/// Configurations encoded per request.
const CONFIGS: usize = 2;

/// Query points: more than one 256-row chunk, and not a multiple of the
/// kernel's 8-row panel.
const POINTS: usize = 301;

/// One seeded model and its pinned hashes.
struct Case {
    name: &'static str,
    config: DeepOHeatConfig,
    seed: u64,
    predict: u64,
    theta: u64,
    f32: u64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "fourier with output transform",
            config: DeepOHeatConfig::single_branch(9, &[16, 16], &[32, 32], 24)
                .with_fourier(8, 1.5)
                .with_output_transform(298.15, 12.5),
            seed: 21,
            predict: 0xa21d_634c_6807_0cb9,
            theta: 0x101a_2aa2_3aef_7b72,
            f32: 0x8910_58b4_c1e9_5e45,
        },
        Case {
            name: "no fourier",
            config: DeepOHeatConfig::single_branch(9, &[16], &[20, 20], 12),
            seed: 22,
            predict: 0x9721_e5b0_7fd9_f8b2,
            theta: 0x9721_e5b0_7fd9_f8b2,
            f32: 0x2934_5ea0_d7f3_0f71,
        },
        Case {
            name: "two branches",
            config: DeepOHeatConfig::single_branch(9, &[16], &[16, 16], 16)
                .add_branch(1, &[8])
                .with_fourier(6, 1.0)
                .with_output_transform(300.0, 40.0),
            seed: 23,
            predict: 0xb6b8_cac8_b289_b95b,
            theta: 0xdfbe_36c6_8a16_61cb,
            f32: 0x86b8_c72a_e4d5_8c1e,
        },
    ]
}

/// 64-bit FNV-1a over the little-endian bytes of every element's bits.
fn fnv1a(m: &Matrix) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in m.iter() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The model and one request's inputs: a branch input per branch and the
/// query coordinates.
fn setup(case: &Case) -> (DeepOHeat, Vec<Matrix>, Matrix) {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let model = DeepOHeat::new(&case.config, &mut rng).expect("config is valid");
    let inputs = case
        .config
        .branches
        .iter()
        .map(|spec| Matrix::from_fn(CONFIGS, spec.input_dim, |_, _| rng.gen_range(-1.0..1.0)))
        .collect();
    let coords = Matrix::from_fn(POINTS, 3, |_, _| rng.gen_range(0.0..1.0));
    (model, inputs, coords)
}

#[test]
fn predict_and_predict_theta_bits_are_pinned_at_every_pool_width() {
    for case in cases() {
        let (model, inputs, coords) = setup(&case);
        let inputs: Vec<&Matrix> = inputs.iter().collect();
        for threads in POOL_WIDTHS {
            let pool = ThreadPool::new(threads);
            let (t, theta) = pool.install(|| {
                let t = model.predict(&inputs, &coords).expect("predict");
                (t, model.predict_theta(&inputs, &coords).expect("predict_theta"))
            });
            assert_eq!(t.shape(), (CONFIGS, POINTS));
            let at = format!("{}, threads={threads}", case.name);
            assert_eq!(fnv1a(&t), case.predict, "predict, {at}: {:#018x}", fnv1a(&t));
            assert_eq!(fnv1a(&theta), case.theta, "predict_theta, {at}: {:#018x}", fnv1a(&theta));
        }
    }
}

#[test]
fn engine_bits_are_pinned_per_precision_on_miss_and_hit() {
    for case in cases() {
        let (model, inputs, coords) = setup(&case);
        let inputs: Vec<&Matrix> = inputs.iter().collect();
        for (precision, pin) in [(Precision::F64, case.predict), (Precision::F32, case.f32)] {
            for threads in POOL_WIDTHS {
                for trunk_chunk in TRUNK_CHUNKS {
                    let pool = ThreadPool::new(threads);
                    let options =
                        ServeOptions { trunk_chunk, precision, ..ServeOptions::default() };
                    let mut engine =
                        InferenceEngine::new(model.clone(), options).expect("valid options");
                    let (miss, hit) = pool.install(|| {
                        let miss = engine.predict(&inputs, &coords).expect("basis miss");
                        (miss, engine.predict(&inputs, &coords).expect("basis hit"))
                    });
                    let stats = engine.basis_stats();
                    assert_eq!((stats.misses, stats.hits), (1, 1));
                    let at = format!(
                        "{}, {precision:?}, threads={threads}, chunk={trunk_chunk}",
                        case.name
                    );
                    assert_eq!(fnv1a(&miss), pin, "miss, {at}: {:#018x}", fnv1a(&miss));
                    assert_eq!(fnv1a(&hit), pin, "hit, {at}: {:#018x}", fnv1a(&hit));
                }
            }
        }
    }
}
