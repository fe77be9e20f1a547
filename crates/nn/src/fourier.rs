use deepoheat_autodiff::{Activation, Graph, Var};
use deepoheat_linalg::Matrix;
use rand::Rng;

use crate::{normal_matrix, Jet3, NnError};

/// A random Fourier-features mapping `γ(y) = [sin(y B) | cos(y B)]`
/// (Tancik et al. 2020).
///
/// The DeepOHeat trunk net applies this as its first layer so the network
/// can represent the high-frequency content of temperature fields; the
/// paper samples the frequency matrix `B` from `N(0, (2π)²)` in the
/// power-map experiment and `N(0, π²)` in the HTC experiment. `B` is
/// **not trainable**.
///
/// # Examples
///
/// ```
/// use deepoheat_nn::FourierFeatures;
/// use deepoheat_linalg::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let ff = FourierFeatures::new(3, 16, std::f64::consts::TAU, &mut rng);
/// let y = Matrix::zeros(5, 3);
/// let z = ff.forward_inference(&y)?;
/// assert_eq!(z.shape(), (5, 32)); // [sin | cos]
/// // sin(0) = 0, cos(0) = 1.
/// assert_eq!(z.row(0)[0], 0.0);
/// assert_eq!(z.row(0)[16], 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FourierFeatures {
    frequencies: Matrix,
}

impl FourierFeatures {
    /// Samples a mapping with `n_frequencies` frequencies for
    /// `input_dim`-dimensional inputs; entries of `B` are `N(0, std²)`.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        n_frequencies: usize,
        std: f64,
        rng: &mut R,
    ) -> Self {
        FourierFeatures { frequencies: normal_matrix(input_dim, n_frequencies, 0.0, std, rng) }
    }

    /// Creates a mapping from an explicit frequency matrix (rows =
    /// input dimension, columns = frequencies).
    pub fn from_frequencies(frequencies: Matrix) -> Self {
        FourierFeatures { frequencies }
    }

    /// Input dimension accepted by the mapping.
    pub fn input_dim(&self) -> usize {
        self.frequencies.rows()
    }

    /// Output dimension produced by the mapping (`2 × n_frequencies`).
    pub fn output_dim(&self) -> usize {
        2 * self.frequencies.cols()
    }

    /// Returns the fixed frequency matrix `B`.
    pub fn frequencies(&self) -> &Matrix {
        &self.frequencies
    }

    /// Graph forward pass: `[sin(x B) | cos(x B)]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying graph operations.
    pub fn forward(&self, graph: &mut Graph, x: Var) -> Result<Var, NnError> {
        let b = graph.leaf(self.frequencies.clone(), false);
        let z = graph.matmul(x, b)?;
        let s = graph.activation(z, Activation::Sine, 0)?;
        let c = graph.activation(z, Activation::Sine, 1)?; // cos = sin'
        Ok(graph.hcat(s, c)?)
    }

    /// Graph forward pass of a second-order jet, building only the
    /// channels `x` carries.
    ///
    /// Since `B` is constant, the linear part maps each channel through
    /// `B`; sin/cos then follow the jet activation rules with exact
    /// trigonometric derivatives.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying graph operations.
    pub fn forward_jet(&self, graph: &mut Graph, x: &Jet3) -> Result<Jet3, NnError> {
        let b = graph.leaf(self.frequencies.clone(), false);
        let z = graph.matmul(x.value(), b)?;
        let zj = x.map_derivatives(z, |d| graph.matmul(d, b))?;
        let channels = x.channels();
        let any_d1 = (0..3).any(|i| channels.has_d1(i));
        let any_d2 = (0..3).any(|i| channels.has_d2(i));

        let sin = graph.activation(z, Activation::Sine, 0)?;
        let cos = graph.activation(z, Activation::Sine, 1)?;
        let neg_sin = if any_d1 { Some(graph.activation(z, Activation::Sine, 2)?) } else { None };
        let neg_cos = if any_d2 { Some(graph.scale(cos, -1.0)?) } else { None };

        let value = graph.hcat(sin, cos)?;
        let mut d1 = [None; 3];
        let mut d2 = [None; 3];
        for i in 0..3 {
            let (Ok(zd1), Some(neg_sin)) = (zj.d1(i), neg_sin) else { continue };
            // d/dyᵢ sin(z) = cos(z) zᵢ ; d/dyᵢ cos(z) = -sin(z) zᵢ.
            let s1 = graph.mul(cos, zd1)?;
            let c1 = graph.mul(neg_sin, zd1)?;
            d1[i] = Some(graph.hcat(s1, c1)?);
            let (Ok(zd2), Some(neg_cos)) = (zj.d2(i), neg_cos) else { continue };
            // d²/dyᵢ² sin(z) = -sin(z) zᵢ² + cos(z) zᵢᵢ, and mirrored for cos.
            let zi_sq = graph.square(zd1)?;
            let s2a = graph.mul(neg_sin, zi_sq)?;
            let s2b = graph.mul(cos, zd2)?;
            let s2 = graph.add(s2a, s2b)?;
            let c2a = graph.mul(neg_cos, zi_sq)?;
            let c2b = graph.mul(neg_sin, zd2)?;
            let c2 = graph.add(c2a, c2b)?;
            d2[i] = Some(graph.hcat(s2, c2)?);
        }
        Jet3::new(value, d1, d2)
    }

    /// Graph-free forward pass for fast inference.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.input_dim()`.
    pub fn forward_inference(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let z = x.matmul(&self.frequencies)?;
        let s = z.map(f64::sin);
        let c = z.map(f64::cos);
        Ok(s.hcat(&c)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn graph_forward_matches_inference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ff = FourierFeatures::new(3, 8, 1.0, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| 0.2 * r as f64 - 0.1 * c as f64);
        let fast = ff.forward_inference(&x).unwrap();

        let mut g = Graph::new();
        let xv = g.leaf(x, false);
        let z = ff.forward(&mut g, xv).unwrap();
        let slow = g.value(z);
        assert_eq!(slow.shape(), fast.shape());
        for (a, b) in slow.iter().zip(fast.iter()) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn jet_matches_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ff = FourierFeatures::new(3, 4, 0.8, &mut rng);
        let coords = Matrix::from_rows(&[&[0.3, -0.2, 0.5]]).unwrap();
        let h = 1e-4;

        let mut g = Graph::new();
        let jet = Jet3::seed_coordinates(&mut g, coords.clone(), crate::JetChannels::ALL).unwrap();
        let out = ff.forward_jet(&mut g, &jet).unwrap();
        let d1: Vec<Matrix> = (0..3).map(|i| g.value(out.d1(i).unwrap()).clone()).collect();
        let d2: Vec<Matrix> = (0..3).map(|i| g.value(out.d2(i).unwrap()).clone()).collect();
        let val = g.value(out.value()).clone();
        assert_eq!(val, ff.forward_inference(&coords).unwrap());

        for axis in 0..3 {
            let mut plus = coords.clone();
            let mut minus = coords.clone();
            plus[(0, axis)] += h;
            minus[(0, axis)] -= h;
            let fp = ff.forward_inference(&plus).unwrap();
            let fm = ff.forward_inference(&minus).unwrap();
            for idx in 0..val.len() {
                let fd1 = (fp.as_slice()[idx] - fm.as_slice()[idx]) / (2.0 * h);
                let fd2 =
                    (fp.as_slice()[idx] - 2.0 * val.as_slice()[idx] + fm.as_slice()[idx]) / (h * h);
                assert!((d1[axis].as_slice()[idx] - fd1).abs() < 1e-6);
                assert!((d2[axis].as_slice()[idx] - fd2).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn dims_are_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ff = FourierFeatures::new(3, 32, std::f64::consts::PI, &mut rng);
        assert_eq!(ff.input_dim(), 3);
        assert_eq!(ff.output_dim(), 64);
        assert_eq!(ff.frequencies().shape(), (3, 32));
    }

    #[test]
    fn from_frequencies_round_trips() {
        let b = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let ff = FourierFeatures::from_frequencies(b.clone());
        assert_eq!(ff.frequencies(), &b);
        let x = Matrix::from_rows(&[&[0.5]]).unwrap();
        let out = ff.forward_inference(&x).unwrap();
        assert!((out.as_slice()[0] - 0.5f64.sin()).abs() < 1e-15);
        assert!((out.as_slice()[1] - 1.0f64.sin()).abs() < 1e-15);
        assert!((out.as_slice()[2] - 0.5f64.cos()).abs() < 1e-15);
        assert!((out.as_slice()[3] - 1.0f64.cos()).abs() < 1e-15);
    }
}
