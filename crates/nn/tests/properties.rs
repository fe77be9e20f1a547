//! Property-based tests of the network layer: jets vs finite differences
//! of the plain forward pass, and optimiser behaviour.

use deepoheat_autodiff::{check_gradients, Activation, Graph};
use deepoheat_linalg::Matrix;
use deepoheat_nn::{
    activation_jet, Adam, AdamConfig, FourierFeatures, Jet3, JetChannels, Mlp, MlpConfig,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn coords(rows: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.05f64..0.95, rows * 3)
        .prop_map(move |data| Matrix::from_vec(rows, 3, data).expect("sized by construction"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mlp_jet_matches_finite_differences(seed in 0u64..500, pts in coords(2)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&MlpConfig::new(3, &[10, 10], 1, Activation::Swish), &mut rng).unwrap();
        let h = 1e-4;

        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let jet = Jet3::seed_coordinates(&mut g, pts.clone(), JetChannels::ALL).unwrap();
        let out = bound.forward_jet(&mut g, &jet).unwrap();

        for row in 0..pts.rows() {
            for axis in 0..3 {
                let mut plus = pts.clone();
                let mut minus = pts.clone();
                plus[(row, axis)] += h;
                minus[(row, axis)] -= h;
                let fp = mlp.forward_inference(&plus).unwrap()[(row, 0)];
                let fm = mlp.forward_inference(&minus).unwrap()[(row, 0)];
                let f0 = mlp.forward_inference(&pts).unwrap()[(row, 0)];
                let fd1 = (fp - fm) / (2.0 * h);
                let fd2 = (fp - 2.0 * f0 + fm) / (h * h);
                let a1 = g.value(out.d1(axis).unwrap())[(row, 0)];
                let a2 = g.value(out.d2(axis).unwrap())[(row, 0)];
                prop_assert!((a1 - fd1).abs() < 1e-5, "d1 axis {axis}: {a1} vs {fd1}");
                prop_assert!((a2 - fd2).abs() < 5e-3, "d2 axis {axis}: {a2} vs {fd2}");
            }
        }
    }

    #[test]
    fn fourier_jet_matches_finite_differences(seed in 0u64..500, pts in coords(1)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ff = FourierFeatures::new(3, 5, 1.5, &mut rng);
        let h = 1e-4;

        let mut g = Graph::new();
        let jet = Jet3::seed_coordinates(&mut g, pts.clone(), JetChannels::ALL).unwrap();
        let out = ff.forward_jet(&mut g, &jet).unwrap();
        let f0 = ff.forward_inference(&pts).unwrap();

        for axis in 0..3 {
            let mut plus = pts.clone();
            let mut minus = pts.clone();
            plus[(0, axis)] += h;
            minus[(0, axis)] -= h;
            let fp = ff.forward_inference(&plus).unwrap();
            let fm = ff.forward_inference(&minus).unwrap();
            for c in 0..f0.cols() {
                let fd1 = (fp[(0, c)] - fm[(0, c)]) / (2.0 * h);
                let fd2 = (fp[(0, c)] - 2.0 * f0[(0, c)] + fm[(0, c)]) / (h * h);
                prop_assert!((g.value(out.d1(axis).unwrap())[(0, c)] - fd1).abs() < 1e-5);
                prop_assert!((g.value(out.d2(axis).unwrap())[(0, c)] - fd2).abs() < 5e-3);
            }
        }
    }

    #[test]
    fn jet_value_channel_equals_plain_forward(seed in 0u64..500, pts in coords(4)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&MlpConfig::new(3, &[8, 8], 2, Activation::Tanh), &mut rng).unwrap();
        let plain = mlp.forward_inference(&pts).unwrap();
        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let jet = Jet3::seed_coordinates(&mut g, pts, JetChannels::ALL).unwrap();
        let out = bound.forward_jet(&mut g, &jet).unwrap();
        for (a, b) in g.value(out.value()).iter().zip(plain.iter()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn adam_converges_on_random_quadratics(target in proptest::collection::vec(-5.0f64..5.0, 4)) {
        // f(x) = Σ (x - t)², any target: Adam must find it.
        let mut x = Matrix::zeros(1, 4);
        let t = Matrix::from_vec(1, 4, target.clone()).unwrap();
        let mut adam = Adam::new(AdamConfig::with_learning_rate(0.2));
        for _ in 0..600 {
            let grad = Matrix::from_fn(1, 4, |_, c| 2.0 * (x[(0, c)] - t[(0, c)]));
            adam.step_slices(&mut [&mut x], &[&grad]).unwrap();
        }
        for (xi, ti) in x.iter().zip(&target) {
            prop_assert!((xi - ti).abs() < 1e-2, "{xi} vs {ti}");
        }
    }

    #[test]
    fn initialisation_is_seed_deterministic(seed in 0u64..1000) {
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Mlp::new(&MlpConfig::new(4, &[6], 2, Activation::Swish), &mut rng).unwrap()
        };
        prop_assert_eq!(build(), build());
    }
}

/// The unfused activation jet: the 18 separate graph nodes (three
/// activation orders, then per axis a product, a square, two products and
/// a sum) that `activation_jet` replaces, built for the channels `z`
/// carries in the same creation order.
fn unfused_activation_jet(g: &mut Graph, act: Activation, z: &Jet3) -> Jet3 {
    let a0 = g.activation(z.value(), act, 0).unwrap();
    let a1 = g.activation(z.value(), act, 1).unwrap();
    let a2 = g.activation(z.value(), act, 2).unwrap();
    let mut d1 = [None; 3];
    let mut d2 = [None; 3];
    for i in 0..3 {
        let Ok(zd1) = z.d1(i) else { continue };
        d1[i] = Some(g.mul(a1, zd1).unwrap());
        let Ok(zd2) = z.d2(i) else { continue };
        let zi_sq = g.square(zd1).unwrap();
        let t1 = g.mul(a2, zi_sq).unwrap();
        let t2 = g.mul(a1, zd2).unwrap();
        d2[i] = Some(g.add(t1, t2).unwrap());
    }
    Jet3::new(a0, d1, d2).unwrap()
}

/// Which outputs the oracle's loss reads, and whether the inputs have a
/// second consumer that adds its gradient before the jet's.
#[derive(Debug, Clone, Copy)]
struct Readout {
    value: bool,
    derivatives: bool,
    extra_consumers: bool,
}

/// The carried channels in creation order: value, then d1/d2 per axis.
fn channel_list(jet: &Jet3) -> Vec<deepoheat_autodiff::Var> {
    let mut out = vec![jet.value()];
    for i in 0..3 {
        out.extend(jet.d1(i).ok());
        out.extend(jet.d2(i).ok());
    }
    out
}

/// Builds `loss(σ-jet(z))` with either jet, where every input channel is
/// `X_c ⊙ P` for a per-channel leaf `X_c` and a shared all-ones
/// parameter `P`, so the parameter folds a contribution from every
/// channel. Returns the output channels' values and the gradients of the
/// inputs, the `X_c` leaves and `P`, all as bit patterns.
fn oracle_run(
    act: Activation,
    channels: JetChannels,
    readout: Readout,
    fused: bool,
) -> (Vec<Vec<u64>>, Vec<Option<Vec<u64>>>) {
    let (rows, cols) = (2, 8);
    // Both sigmoid branches, ±0.0 and |x| ≥ 40 in the value channel.
    let value = [0.3, -1.7, 0.0, -0.0, 40.0, -40.0, 45.5, -61.25, 2.5, -0.75, 1e-3, -7.0];
    let x_value = Matrix::from_fn(rows, cols, |r, c| value[(r * cols + c) % value.len()]);
    let x_d = |k: usize| {
        Matrix::from_fn(rows, cols, |r, c| {
            let v = ((r * cols + c) * (k + 3) % 11) as f64 * 0.37 - 1.6;
            if (r + c + k).is_multiple_of(5) {
                -0.0
            } else {
                v
            }
        })
    };
    let mut g = Graph::new();
    let p = g.leaf(Matrix::filled(rows, cols, 1.0), true);
    let mut leaves = Vec::new();
    let mut input = |g: &mut Graph, x: Matrix| {
        let leaf = g.leaf(x, true);
        leaves.push(leaf);
        g.mul(leaf, p).unwrap()
    };
    let zv = input(&mut g, x_value);
    let mut d1 = [None; 3];
    let mut d2 = [None; 3];
    for i in 0..3 {
        if channels.has_d1(i) {
            d1[i] = Some(input(&mut g, x_d(2 * i)));
        }
        if channels.has_d2(i) {
            d2[i] = Some(input(&mut g, x_d(2 * i + 1)));
        }
    }
    let z = Jet3::new(zv, d1, d2).unwrap();
    let out = if fused {
        activation_jet(&mut g, act, &z).unwrap()
    } else {
        unfused_activation_jet(&mut g, act, &z)
    };

    let weight = |g: &mut Graph, k: usize| {
        g.leaf(Matrix::from_fn(rows, cols, |r, c| 0.5 + ((r + 2 * c + k) % 7) as f64 * 0.25), false)
    };
    let outputs = channel_list(&out);
    let mut terms = Vec::new();
    for (k, &var) in outputs.iter().enumerate() {
        if (k == 0 && readout.value) || (k > 0 && readout.derivatives) {
            let w = weight(&mut g, k);
            let weighted = g.mul(var, w).unwrap();
            terms.push(g.sum(weighted).unwrap());
        }
    }
    if readout.extra_consumers {
        // Second consumers of every input, later on the tape: their
        // gradients land first, so each fold into an input starts from a
        // held gradient and its order shows in the bits.
        for (k, var) in channel_list(&z).into_iter().enumerate() {
            let w = weight(&mut g, 10 + k);
            let weighted = g.mul(var, w).unwrap();
            let sq = g.square(weighted).unwrap();
            terms.push(g.sum(sq).unwrap());
        }
    }
    let mut loss = terms[0];
    for &t in &terms[1..] {
        loss = g.add(loss, t).unwrap();
    }
    let grads = g.backward(loss).unwrap();

    let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let values = outputs.iter().map(|&v| bits(g.value(v))).collect();
    let mut grad_vars = channel_list(&z);
    grad_vars.extend(&leaves);
    grad_vars.push(p);
    (values, grad_vars.iter().map(|&v| grads.get(v).map(bits)).collect())
}

#[test]
fn fused_activation_jet_is_bitwise_the_unfused_tape() {
    let mut sets = vec![JetChannels::VALUE, JetChannels::ALL];
    sets.extend((0..3).map(|axis| JetChannels::VALUE.with_d1(axis).unwrap()));
    let readouts = [
        Readout { value: true, derivatives: true, extra_consumers: false },
        Readout { value: true, derivatives: true, extra_consumers: true },
        Readout { value: false, derivatives: true, extra_consumers: true },
        Readout { value: true, derivatives: false, extra_consumers: false },
    ];
    for act in [Activation::Swish, Activation::Tanh, Activation::Sine] {
        for &channels in &sets {
            for readout in readouts {
                if channels == JetChannels::VALUE && !readout.value {
                    continue; // nothing to read
                }
                let fused = oracle_run(act, channels, readout, true);
                let unfused = oracle_run(act, channels, readout, false);
                assert_eq!(fused.0, unfused.0, "{act} {channels:?} {readout:?}: output channels");
                if readout.derivatives {
                    assert!(fused.1.iter().all(Option::is_some), "{act} {channels:?} {readout:?}");
                }
                assert_eq!(fused.1, unfused.1, "{act} {channels:?} {readout:?}: gradients");
            }
        }
    }
}

#[test]
fn fused_activation_jet_passes_a_gradient_check() {
    let x = Matrix::from_fn(2, 3, |r, c| 0.4 * r as f64 - 0.3 * c as f64 + 0.1);
    let d = |k: f64| Matrix::from_fn(2, 3, |r, c| k * (1.0 + r as f64) - 0.2 * c as f64);
    let inputs = [x, d(0.5), d(-0.7), d(0.3), d(0.9), d(-0.4), d(0.2)];
    for act in [Activation::Swish, Activation::Tanh, Activation::Sine] {
        for axis in [None, Some(1)] {
            let report = check_gradients(&inputs, |g, l| {
                let z = match axis {
                    None => Jet3::new(
                        l[0],
                        [1, 3, 5].map(|k| Some(l[k])),
                        [2, 4, 6].map(|k| Some(l[k])),
                    ),
                    Some(a) => JetChannels::VALUE
                        .with_d1(a)
                        .and_then(|_| Jet3::new(l[0], [None, Some(l[1]), None], [None; 3])),
                }
                .expect("well-formed jet");
                let out = activation_jet(g, act, &z).expect("same-shape channels");
                let mut total = g.mean_square(out.value())?;
                for var in channel_list(&out).into_iter().skip(1) {
                    let term = g.mean_square(var)?;
                    total = g.add(total, term)?;
                }
                Ok(total)
            })
            .unwrap();
            assert!(report.passes(1e-5), "{act} axis {axis:?}: {report:?}");
        }
    }
}
