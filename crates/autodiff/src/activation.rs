/// Smooth scalar activation functions with analytic derivatives up to
/// third order.
///
/// Third-order derivatives are required because the trunk-net "jet"
/// propagation materialises second spatial derivatives of the network, and
/// reverse-mode differentiation of a `σ''` node needs `σ'''`.
///
/// The DeepOHeat paper uses **Swish** (`x · sigmoid(x)`, Ramachandran et
/// al. 2017) and reports it outperforming `Tanh` and `Sine` for this
/// problem family; all three are provided so the ablation benches can
/// reproduce that comparison.
///
/// # Examples
///
/// ```
/// use deepoheat_autodiff::Activation;
///
/// let swish = Activation::Swish;
/// assert_eq!(swish.eval(0, 0.0), 0.0);           // swish(0) = 0
/// assert!((swish.eval(1, 0.0) - 0.5).abs() < 1e-15); // swish'(0) = 0.5
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Activation {
    /// Swish / SiLU: `x * sigmoid(x)`.
    Swish,
    /// Hyperbolic tangent.
    Tanh,
    /// Sine (common in PINN trunk networks).
    Sine,
}

impl Activation {
    /// Evaluates the `order`-th derivative of the activation at `x`
    /// (`order == 0` is the function value).
    ///
    /// # Panics
    ///
    /// Panics if `order > 3`; higher derivatives are never needed by the
    /// second-order jet machinery. Use [`Activation::try_eval`] when the
    /// order is not statically bounded.
    pub fn eval(self, order: u8, x: f64) -> f64 {
        self.try_eval(order, x).expect(
            "invariant: derivative orders above 3 are never requested - Graph::activation \
             rejects forward orders above 2 and reverse-mode differentiation adds at most one",
        )
    }

    /// Fallible form of [`Activation::eval`]: `None` if `order > 3`.
    pub fn try_eval(self, order: u8, x: f64) -> Option<f64> {
        match self {
            Activation::Swish => swish(order, x),
            Activation::Tanh => tanh(order, x),
            Activation::Sine => sine(order, x),
        }
    }

    /// `[σ, σ′, σ″, σ‴]` at `x` from one evaluation of the activation's
    /// transcendental, for the fused jet op. Each entry uses the same
    /// expression as [`Activation::eval`] of that order, so it is bitwise
    /// equal to it.
    pub(crate) fn derivatives(self, x: f64) -> [f64; 4] {
        match self {
            Activation::Swish => {
                let s = sigmoid(x);
                let s1 = s * (1.0 - s);
                let s2 = s1 * (1.0 - 2.0 * s);
                let s3 = s2 * (1.0 - 2.0 * s) - 2.0 * s1 * s1;
                [x * s, s + x * s1, 2.0 * s1 + x * s2, 3.0 * s2 + x * s3]
            }
            Activation::Tanh => {
                let t = x.tanh();
                let t1 = 1.0 - t * t;
                [t, t1, -2.0 * t * t1, -2.0 * t1 * (1.0 - 3.0 * t * t)]
            }
            Activation::Sine => [x.sin(), x.cos(), -x.sin(), -x.cos()],
        }
    }

    /// Returns a short lowercase name, used in experiment logs and bench IDs.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Swish => "swish",
            Activation::Tanh => "tanh",
            Activation::Sine => "sine",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn swish(order: u8, x: f64) -> Option<f64> {
    let s = sigmoid(x);
    let s1 = s * (1.0 - s); // σ'
    let s2 = s1 * (1.0 - 2.0 * s); // σ''
    let s3 = s2 * (1.0 - 2.0 * s) - 2.0 * s1 * s1; // σ'''
    match order {
        0 => Some(x * s),
        1 => Some(s + x * s1),
        2 => Some(2.0 * s1 + x * s2),
        3 => Some(3.0 * s2 + x * s3),
        _ => None,
    }
}

fn tanh(order: u8, x: f64) -> Option<f64> {
    let t = x.tanh();
    let t1 = 1.0 - t * t; // tanh'
    match order {
        0 => Some(t),
        1 => Some(t1),
        2 => Some(-2.0 * t * t1),
        3 => Some(-2.0 * t1 * (1.0 - 3.0 * t * t)),
        _ => None,
    }
}

fn sine(order: u8, x: f64) -> Option<f64> {
    match order {
        0 => Some(x.sin()),
        1 => Some(x.cos()),
        2 => Some(-x.sin()),
        3 => Some(-x.cos()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference of the `order`-th derivative.
    fn fd(act: Activation, order: u8, x: f64) -> f64 {
        let h = 1e-5;
        (act.eval(order, x + h) - act.eval(order, x - h)) / (2.0 * h)
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for act in [Activation::Swish, Activation::Tanh, Activation::Sine] {
            for order in 0..3u8 {
                for &x in &[-3.0, -1.0, -0.1, 0.0, 0.3, 1.7, 4.0] {
                    let analytic = act.eval(order + 1, x);
                    let numeric = fd(act, order, x);
                    assert!(
                        (analytic - numeric).abs() < 1e-6,
                        "{act} order {order} at {x}: analytic {analytic} vs fd {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn derivatives_are_bitwise_eval() {
        let xs = [-1e3, -40.0, -3.0, -1e-300, -0.0, 0.0, 1e-300, 0.3, 1.7, 40.0, 1e3];
        for act in [Activation::Swish, Activation::Tanh, Activation::Sine] {
            for &x in &xs {
                let all = act.derivatives(x);
                for order in 0..4u8 {
                    let one = act.eval(order, x);
                    assert_eq!(all[order as usize].to_bits(), one.to_bits(), "{act} {order} {x}");
                }
            }
        }
    }

    #[test]
    fn swish_known_values() {
        assert_eq!(Activation::Swish.eval(0, 0.0), 0.0);
        assert!((Activation::Swish.eval(1, 0.0) - 0.5).abs() < 1e-15);
        // swish(x) -> x for large x, -> 0 for very negative x.
        assert!((Activation::Swish.eval(0, 20.0) - 20.0).abs() < 1e-6);
        assert!(Activation::Swish.eval(0, -20.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_known_values() {
        assert_eq!(Activation::Tanh.eval(0, 0.0), 0.0);
        assert_eq!(Activation::Tanh.eval(1, 0.0), 1.0);
        assert_eq!(Activation::Tanh.eval(2, 0.0), 0.0);
        assert_eq!(Activation::Tanh.eval(3, 0.0), -2.0);
    }

    #[test]
    fn sine_cycles() {
        let x = 0.7;
        assert_eq!(Activation::Sine.eval(0, x), x.sin());
        assert_eq!(Activation::Sine.eval(1, x), x.cos());
        assert_eq!(Activation::Sine.eval(2, x), -x.sin());
        assert_eq!(Activation::Sine.eval(3, x), -x.cos());
    }

    #[test]
    #[should_panic(expected = "invariant: derivative orders above 3")]
    fn order_four_panics() {
        Activation::Swish.eval(4, 0.0);
    }

    #[test]
    fn try_eval_returns_none_above_order_three() {
        for act in [Activation::Swish, Activation::Tanh, Activation::Sine] {
            assert!(act.try_eval(4, 0.5).is_none());
            assert!(act.try_eval(3, 0.5).is_some());
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Swish.to_string(), "swish");
        assert_eq!(Activation::Tanh.to_string(), "tanh");
        assert_eq!(Activation::Sine.to_string(), "sine");
    }
}
