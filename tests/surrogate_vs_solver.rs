//! Cross-crate consistency tests between the two prediction paths (graph
//! vs inference) and between the surrogate's physics and the reference
//! solver's discretisation.

use deepoheat::physics::{self, HtcInput, PhysicsScales};
use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_autodiff::Graph;
use deepoheat_fdm::{BoundaryCondition, Face, FluxMap, HeatProblem, SolveOptions, StructuredGrid};
use deepoheat_linalg::Matrix;
use deepoheat_nn::Jet3;
use rand::SeedableRng;

#[test]
fn graph_and_inference_paths_agree_with_fourier() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let cfg = DeepOHeatConfig::single_branch(9, &[12, 12], &[12, 12], 8)
        .with_fourier(6, std::f64::consts::TAU)
        .with_output_transform(298.15, 10.0);
    let model = DeepOHeat::new(&cfg, &mut rng).expect("model");
    let u = Matrix::from_fn(3, 9, |i, j| 0.1 * (i * 9 + j) as f64 - 0.4);
    let y = Matrix::from_fn(17, 3, |i, j| ((i * 3 + j) % 10) as f64 / 10.0);

    let fast = model.predict_theta(&[&u], &y).expect("inference");
    let mut g = Graph::new();
    let bound = model.bind(&mut g);
    let b = bound.branch_product(&mut g, &[u]).expect("branch");
    let phi = bound.trunk_features(&mut g, &y).expect("trunk");
    let theta = bound.combine(&mut g, b, phi).expect("combine");
    for (a, b) in g.value(theta).iter().zip(fast.iter()) {
        assert!((a - b).abs() < 1e-12);
    }
}

/// The exact 1-D slab field, injected as hand-built jet channels, must
/// zero the surrogate's residuals with the *same constants* that drive
/// the reference solver — this ties the two discretisations together.
#[test]
fn surrogate_residuals_agree_with_solver_on_the_slab_problem() {
    let k = 0.1;
    let h = 500.0;
    let q = 2500.0;
    let t_amb = 298.15;
    let delta_t = 10.0;
    let extents = [1e-3, 1e-3, 0.5e-3];

    // Reference solve.
    let grid = StructuredGrid::new(9, 9, 7, extents[0], extents[1], extents[2]).expect("grid");
    let mut problem = HeatProblem::new(grid, k);
    problem
        .set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(q) })
        .expect("bc");
    problem
        .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: h, ambient: t_amb })
        .expect("bc");
    let solution =
        problem.solve(SolveOptions { tolerance: 1e-12, ..Default::default() }).expect("solve");

    // Build θ jets of the solver's own field (linear in z, so the exact
    // derivative channels are constants).
    let scales = PhysicsScales::new(k, delta_t, extents).expect("scales");
    let slope = q * extents[2] / (k * delta_t);
    let theta_bottom = (solution.at(4, 4, 0) - t_amb) / delta_t;

    let n = 5;
    let mut g = Graph::new();
    let mk = |g: &mut Graph, v: f64| g.leaf(Matrix::filled(1, n, v), false);
    let zeros = mk(&mut g, 0.0);
    let bottom_value = mk(&mut g, theta_bottom);
    let bottom_slope = mk(&mut g, slope);
    let bottom_jet =
        Jet3::new(bottom_value, [Some(zeros), Some(zeros), Some(bottom_slope)], [Some(zeros); 3])
            .expect("jet");
    let r = physics::convection_residual(
        &mut g,
        &bottom_jet,
        Face::ZMin,
        &scales,
        &HtcInput::Uniform(h),
    )
    .expect("residual");
    for v in g.value(r).iter() {
        assert!(v.abs() < 1e-9, "convection residual {v} against solver field");
    }

    let theta_top = (solution.at(4, 4, 6) - t_amb) / delta_t;
    let top_value = mk(&mut g, theta_top);
    let top_slope = mk(&mut g, slope);
    let top_jet =
        Jet3::new(top_value, [Some(zeros), Some(zeros), Some(top_slope)], [Some(zeros); 3])
            .expect("jet");
    let flux_target = Matrix::filled(1, n, q);
    let r = physics::flux_residual(&mut g, &top_jet, Face::ZMax, &scales, &flux_target)
        .expect("residual");
    for v in g.value(r).iter() {
        assert!(v.abs() < 1e-9, "flux residual {v} against solver field");
    }
}

#[test]
fn prediction_scales_linearly_with_branch_scaling_of_a_linear_branch() {
    // With a freshly initialised model this is not exactly linear, but the
    // combine step itself must be: doubling the branch features doubles θ.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let cfg = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
    let model = DeepOHeat::new(&cfg, &mut rng).expect("model");
    let y = Matrix::from_fn(6, 3, |i, j| (i + j) as f64 * 0.1);
    let mut g = Graph::new();
    let bound = model.bind(&mut g);
    let u = Matrix::from_fn(2, 4, |i, j| (i + j) as f64 * 0.2);
    let b = bound.branch_product(&mut g, &[u]).expect("branch");
    let b2 = g.scale(b, 2.0).expect("scale");
    let phi = bound.trunk_features(&mut g, &y).expect("trunk");
    let t1 = bound.combine(&mut g, b, phi).expect("combine");
    let t2 = bound.combine(&mut g, b2, phi).expect("combine");
    for (a, b) in g.value(t1).iter().zip(g.value(t2).iter()) {
        assert!((2.0 * a - b).abs() < 1e-12);
    }
}
