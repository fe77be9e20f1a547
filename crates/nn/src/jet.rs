//! Second-order jets: value + first + second spatial derivatives.
//!
//! Physics-informed training of DeepOHeat needs `T`, `∂T/∂yᵢ` and
//! `∂²T/∂yᵢ²` at every collocation point *as differentiable functions of
//! the network parameters*. Rather than nesting reverse-mode passes, we
//! propagate a "jet" through the trunk network: the value, the first
//! derivatives and the pure second derivatives (mixed second derivatives
//! never appear in the Laplacian or in any of the boundary conditions, so
//! they are not carried).
//!
//! A jet carries only the derivative channels its consumer reads
//! ([`JetChannels`]): the heat equation reads every second derivative, a
//! face condition reads the value and the derivative along the face
//! normal, a Dirichlet condition the value alone. Every carried channel is
//! an ordinary graph node, so one reverse pass over the final loss yields
//! exact parameter gradients of all derivative fields.

use deepoheat_autodiff::{Activation, Graph, JetVars, Var};
use deepoheat_linalg::{LinalgError, Matrix};

use crate::NnError;

/// The set of derivative channels a [`Jet3`] carries. The value channel
/// is always carried; a second derivative on an axis is carried only
/// together with the first derivative on that axis, which its jet rule
/// reads.
///
/// # Examples
///
/// ```
/// use deepoheat_nn::JetChannels;
///
/// // A face condition on a z face reads the value and ∂/∂z.
/// let face = JetChannels::VALUE.with_d1(2)?;
/// assert!(face.has_d1(2) && !face.has_d1(0) && !face.has_d2(2));
/// assert!(JetChannels::ALL.has_d2(0));
/// assert!(JetChannels::VALUE.with_d1(3).is_err());
/// # Ok::<(), deepoheat_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JetChannels {
    d1: [bool; 3],
    d2: [bool; 3],
}

impl JetChannels {
    /// The value channel alone.
    pub const VALUE: JetChannels = JetChannels { d1: [false; 3], d2: [false; 3] };
    /// All seven channels.
    pub const ALL: JetChannels = JetChannels { d1: [true; 3], d2: [true; 3] };

    /// These channels plus the first derivative on `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::AbsentJetChannel`] if `axis` is not 0, 1 or 2.
    pub fn with_d1(mut self, axis: usize) -> Result<JetChannels, NnError> {
        *self.d1.get_mut(axis).ok_or(NnError::AbsentJetChannel { order: 1, axis })? = true;
        Ok(self)
    }

    /// Whether the first derivative on `axis` is carried.
    pub fn has_d1(self, axis: usize) -> bool {
        self.d1.get(axis).copied().unwrap_or(false)
    }

    /// Whether the second derivative on `axis` is carried.
    pub fn has_d2(self, axis: usize) -> bool {
        self.d2.get(axis).copied().unwrap_or(false)
    }
}

/// A second-order jet in three spatial dimensions: the value channel and
/// the derivative channels named by [`Jet3::channels`].
///
/// All carried channels share the same matrix shape (`points ×
/// features`). Reading a channel the jet does not carry is an
/// [`NnError::AbsentJetChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jet3 {
    vars: JetVars,
}

impl Jet3 {
    /// Assembles a jet from graph nodes: the value and, per axis, the
    /// first and second derivative when carried.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::AbsentJetChannel`] if a second derivative comes
    /// without the first derivative on its axis.
    pub fn new(value: Var, d1: [Option<Var>; 3], d2: [Option<Var>; 3]) -> Result<Jet3, NnError> {
        if let Some(axis) = (0..3).find(|&axis| d2[axis].is_some() && d1[axis].is_none()) {
            return Err(NnError::AbsentJetChannel { order: 1, axis });
        }
        Ok(Jet3 { vars: JetVars { value, d1, d2 } })
    }

    /// Seeds a jet carrying `channels` from a `points × 3` coordinate
    /// matrix.
    ///
    /// The value channel is the coordinates themselves; the first-derivative
    /// channel `i` is the constant matrix with ones in column `i`
    /// (`∂y/∂yᵢ = eᵢ`); second derivatives start at zero.
    ///
    /// # Errors
    ///
    /// Returns an [`NnError::Linalg`] shape mismatch if `coords` does not
    /// have exactly 3 columns.
    pub fn seed_coordinates(
        graph: &mut Graph,
        coords: Matrix,
        channels: JetChannels,
    ) -> Result<Jet3, NnError> {
        if coords.cols() != 3 {
            return Err(LinalgError::ShapeMismatch {
                op: "seed_coordinates",
                lhs: coords.shape(),
                rhs: (coords.rows(), 3),
            }
            .into());
        }
        let n = coords.rows();
        let mut vars = JetVars { value: graph.leaf(coords, false), d1: [None; 3], d2: [None; 3] };
        for axis in 0..3 {
            if channels.has_d1(axis) {
                let e = Matrix::from_fn(n, 3, |_, c| if c == axis { 1.0 } else { 0.0 });
                vars.d1[axis] = Some(graph.leaf(e, false));
            }
            if channels.has_d2(axis) {
                vars.d2[axis] = Some(graph.leaf(Matrix::zeros(n, 3), false));
            }
        }
        Ok(Jet3 { vars })
    }

    /// The channels this jet carries.
    pub fn channels(&self) -> JetChannels {
        JetChannels { d1: self.vars.d1.map(|v| v.is_some()), d2: self.vars.d2.map(|v| v.is_some()) }
    }

    /// The value channel.
    pub fn value(&self) -> Var {
        self.vars.value
    }

    /// The first derivative `∂/∂y_axis`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::AbsentJetChannel`] if the jet does not carry it.
    pub fn d1(&self, axis: usize) -> Result<Var, NnError> {
        self.vars
            .d1
            .get(axis)
            .copied()
            .flatten()
            .ok_or(NnError::AbsentJetChannel { order: 1, axis })
    }

    /// The pure second derivative `∂²/∂y_axis²`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::AbsentJetChannel`] if the jet does not carry it.
    pub fn d2(&self, axis: usize) -> Result<Var, NnError> {
        self.vars
            .d2
            .get(axis)
            .copied()
            .flatten()
            .ok_or(NnError::AbsentJetChannel { order: 2, axis })
    }

    /// A jet with `value` as its value channel and `f` of each carried
    /// derivative channel as the matching channel, so it carries the same
    /// set. `f` runs in the order `d1[0]`, `d2[0]`, `d1[1]`, `d2[1]`,
    /// `d1[2]`, `d2[2]`, skipping absent channels: a linear layer's
    /// parameters then fold their gradient contributions in the same order
    /// whichever channels are carried.
    ///
    /// # Errors
    ///
    /// Returns the first error of `f`.
    pub fn map_derivatives<E>(
        &self,
        value: Var,
        mut f: impl FnMut(Var) -> Result<Var, E>,
    ) -> Result<Jet3, E> {
        let mut vars = JetVars { value, d1: [None; 3], d2: [None; 3] };
        for axis in 0..3 {
            vars.d1[axis] = self.vars.d1[axis].map(&mut f).transpose()?;
            vars.d2[axis] = self.vars.d2[axis].map(&mut f).transpose()?;
        }
        Ok(Jet3 { vars })
    }
}

/// Applies an elementwise activation to a jet using the Faà-di-Bruno rules
///
/// ```text
/// a   = σ(z)
/// aᵢ  = σ'(z) ⊙ zᵢ
/// aᵢᵢ = σ''(z) ⊙ zᵢ² + σ'(z) ⊙ zᵢᵢ
/// ```
///
/// as one fused graph op ([`Graph::activation_jet`]) over the channels `z`
/// carries. Losses and gradients are bitwise those of the same
/// expression built from separate activation, product, square and sum
/// nodes.
///
/// # Errors
///
/// Propagates shape errors from the underlying graph operation.
pub fn activation_jet(graph: &mut Graph, act: Activation, z: &Jet3) -> Result<Jet3, NnError> {
    Ok(Jet3 { vars: graph.activation_jet(act, z.vars)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepoheat_autodiff::Graph;

    /// Evaluates f(y) = swish(y·w) for a 1-feature "layer" directly, to
    /// compare jets against finite differences of a plain forward pass.
    fn forward_plain(coords: &Matrix, w: &Matrix, act: Activation) -> Matrix {
        coords.matmul(w).unwrap().map(|v| act.eval(0, v))
    }

    fn jet_channels(
        coords: Matrix,
        w: &Matrix,
        act: Activation,
    ) -> (Matrix, [Matrix; 3], [Matrix; 3]) {
        let mut g = Graph::new();
        let jet = Jet3::seed_coordinates(&mut g, coords, JetChannels::ALL).unwrap();
        let wv = g.leaf(w.clone(), false);
        // Linear layer on the jet.
        let value = g.matmul(jet.value(), wv).unwrap();
        let lin = jet.map_derivatives(value, |d| g.matmul(d, wv)).unwrap();
        let out = activation_jet(&mut g, act, &lin).unwrap();
        let d1 = |i| g.value(out.d1(i).unwrap()).clone();
        let d2 = |i| g.value(out.d2(i).unwrap()).clone();
        (g.value(out.value()).clone(), [d1(0), d1(1), d1(2)], [d2(0), d2(1), d2(2)])
    }

    #[test]
    fn jet_derivatives_match_finite_differences() {
        let w = Matrix::from_rows(&[&[0.7, -0.4], &[0.2, 0.9], &[-0.5, 0.3]]).unwrap();
        let coords = Matrix::from_rows(&[&[0.1, 0.2, 0.3], &[-0.4, 0.5, -0.6]]).unwrap();
        let h = 1e-4;

        for act in [Activation::Swish, Activation::Tanh, Activation::Sine] {
            let (value, d1, d2) = jet_channels(coords.clone(), &w, act);
            assert_eq!(value, forward_plain(&coords, &w, act));

            for axis in 0..3 {
                let mut plus = coords.clone();
                let mut minus = coords.clone();
                for r in 0..coords.rows() {
                    plus[(r, axis)] += h;
                    minus[(r, axis)] -= h;
                }
                let f_plus = forward_plain(&plus, &w, act);
                let f_minus = forward_plain(&minus, &w, act);
                let f_mid = forward_plain(&coords, &w, act);
                for idx in 0..value.len() {
                    let fd1 = (f_plus.as_slice()[idx] - f_minus.as_slice()[idx]) / (2.0 * h);
                    let fd2 = (f_plus.as_slice()[idx] - 2.0 * f_mid.as_slice()[idx]
                        + f_minus.as_slice()[idx])
                        / (h * h);
                    assert!(
                        (d1[axis].as_slice()[idx] - fd1).abs() < 1e-6,
                        "{act} d1 axis {axis}: {} vs {fd1}",
                        d1[axis].as_slice()[idx]
                    );
                    assert!(
                        (d2[axis].as_slice()[idx] - fd2).abs() < 1e-4,
                        "{act} d2 axis {axis}: {} vs {fd2}",
                        d2[axis].as_slice()[idx]
                    );
                }
            }
        }
    }

    #[test]
    fn seed_requires_three_columns() {
        let mut g = Graph::new();
        let err =
            Jet3::seed_coordinates(&mut g, Matrix::zeros(4, 2), JetChannels::ALL).unwrap_err();
        assert!(
            matches!(err, NnError::Linalg(LinalgError::ShapeMismatch { lhs: (4, 2), .. })),
            "{err:?}"
        );
        assert!(g.is_empty());
    }

    #[test]
    fn seed_channels_have_expected_values() {
        let mut g = Graph::new();
        let coords = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let jet = Jet3::seed_coordinates(&mut g, coords.clone(), JetChannels::ALL).unwrap();
        assert_eq!(g.value(jet.value()), &coords);
        for i in 0..3 {
            let d1 = g.value(jet.d1(i).unwrap());
            for r in 0..2 {
                for c in 0..3 {
                    assert_eq!(d1[(r, c)], if c == i { 1.0 } else { 0.0 });
                }
            }
            assert!(g.value(jet.d2(i).unwrap()).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn jets_carry_only_their_channels() {
        let mut g = Graph::new();
        let coords = Matrix::from_rows(&[&[0.1, 0.2, 0.3]]).unwrap();
        let face = JetChannels::VALUE.with_d1(1).unwrap();
        let jet = Jet3::seed_coordinates(&mut g, coords, face).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(jet.channels(), face);
        assert!(jet.d1(1).is_ok());
        assert_eq!(jet.d1(0), Err(NnError::AbsentJetChannel { order: 1, axis: 0 }));
        assert_eq!(jet.d2(1), Err(NnError::AbsentJetChannel { order: 2, axis: 1 }));
        assert_eq!(jet.d1(3), Err(NnError::AbsentJetChannel { order: 1, axis: 3 }));

        // Activations keep the set.
        let out = activation_jet(&mut g, Activation::Swish, &jet).unwrap();
        assert_eq!(out.channels(), face);

        // A second derivative needs the first on its axis.
        let v = jet.value();
        assert_eq!(
            Jet3::new(v, [None; 3], [None, Some(v), None]),
            Err(NnError::AbsentJetChannel { order: 1, axis: 1 })
        );
    }
}
