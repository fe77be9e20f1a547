//! Pinned solver bits: FNV-1a hashes over the temperature bits of three
//! seeded reference solves, with their CG or block-CG iteration counts.
//!
//! This solver is the accuracy gate's ground truth, so its bits change
//! only on purpose, and a change that moves them says so here. The pinned
//! values are the ones commit 4dfcacc (the natural-order SSOR sweeps)
//! produced; the wavefront SSOR sweeps reproduce them bit for bit. Each
//! case is checked at pool widths 1, 2 and 4.
//!
//! * the §V.A chip (1 × 1 × 0.5 mm, k = 0.1 W/mK, bottom convection
//!   h = 500 W/m²K) on the 41 × 41 × 21 mesh under a seeded tile map;
//! * the same chip on 21 × 21 × 11 with its x-min face held at a fixed
//!   temperature, so each free plane has (nx − 1)·ny rows;
//! * an 8-map `solve_batch` on the 21 × 21 × 11 chip.

use deepoheat_fdm::{
    BatchSolveOptions, BoundaryCondition, Face, FluxMap, HeatProblem, SolveOptions, StructuredGrid,
};
use deepoheat_linalg::Matrix;
use deepoheat_parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pool widths every pinned value must hold at.
const POOLS: [usize; 3] = [1, 2, 4];

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv1a<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A seeded tile floorplan on an `n × n` face: a few rectangles of flux
/// (W/m²) over a cold background.
fn tile_map(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map = Matrix::zeros(n, n);
    for _ in 0..6 {
        let (w, h) = (rng.gen_range(2..n / 3), rng.gen_range(2..n / 3));
        let (x0, y0) = (rng.gen_range(0..n - w), rng.gen_range(0..n - h));
        let flux = rng.gen_range(2.0e3..2.0e4);
        for i in x0..x0 + w {
            for j in y0..y0 + h {
                map[(i, j)] += flux;
            }
        }
    }
    map
}

/// The §V.A chip on an `n × n × nz` mesh: top face heated by `flux`,
/// bottom face convecting.
fn chip(n: usize, nz: usize, flux: FluxMap) -> HeatProblem {
    let grid = StructuredGrid::new(n, n, nz, 1e-3, 1e-3, 0.5e-3).expect("valid grid");
    let mut problem = HeatProblem::new(grid, 0.1);
    problem.set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux }).expect("flux face");
    problem
        .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })
        .expect("convective face");
    problem
}

/// Runs `f` on every pool of [`POOLS`] and checks it returns `want` each
/// time.
fn assert_on_each_pool<T: PartialEq + std::fmt::Debug>(case: &str, want: T, f: impl Fn() -> T) {
    for threads in POOLS {
        let got = ThreadPool::new(threads).install(&f);
        assert_eq!(got, want, "{case} on a {threads}-thread pool");
    }
}

#[test]
fn seeded_chip_solve_on_the_refined_mesh() {
    let problem = chip(41, 21, FluxMap::Field(tile_map(41, 5)));
    assert_on_each_pool("41 × 41 × 21 solve", (0x4ee0_8fee_5282_5bbb, 68), || {
        let solution = problem.solve(SolveOptions::default()).expect("converges");
        (fnv1a(solution.temperatures()), solution.iterations())
    });
}

#[test]
fn solve_with_a_fixed_temperature_side_face() {
    let mut problem = chip(21, 11, FluxMap::Field(tile_map(21, 9)));
    problem
        .set_boundary(Face::XMin, BoundaryCondition::Dirichlet { temperature: 310.0 })
        .expect("dirichlet face");
    assert_on_each_pool("21 × 21 × 11 solve, x-min fixed", (0xd859_068a_2ae5_4061, 36), || {
        let solution = problem.solve(SolveOptions::default()).expect("converges");
        (fnv1a(solution.temperatures()), solution.iterations())
    });
}

#[test]
fn eight_map_batch() {
    let problem = chip(21, 11, FluxMap::Uniform(0.0));
    let maps: Vec<FluxMap> = (0..8).map(|m| FluxMap::Field(tile_map(21, 100 + m))).collect();
    assert_on_each_pool("8-map solve_batch", (0x001f_65ee_8110_c564, 23, vec![23; 8]), || {
        let outcome = problem
            .solve_batch(Face::ZMax, &maps, &BatchSolveOptions::default())
            .expect("batch converges");
        let temperatures = outcome.solutions.iter().flat_map(|s| s.temperatures());
        let iterations = outcome.solutions.iter().map(|s| s.iterations()).collect::<Vec<_>>();
        (fnv1a(temperatures), outcome.report.block_iterations, iterations)
    });
}
