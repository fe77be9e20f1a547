use deepoheat_linalg::{LinalgError, Matrix};

use crate::{Activation, AutodiffError};

/// A handle to a node in a [`Graph`].
///
/// `Var` is a plain index and is only meaningful for the graph that created
/// it; using it with another graph returns
/// [`AutodiffError::UnknownVariable`] (or silently refers to a different
/// node if the ids happen to collide — rebuild handles each iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    id: usize,
}

impl Var {
    /// Returns the raw node index (stable for the lifetime of one graph).
    pub fn id(self) -> usize {
        self.id
    }
}

/// The channels of a second-order jet as graph handles: the value and,
/// on each axis, the first and pure second derivative the jet carries.
///
/// A second derivative on an axis is only valid together with the first
/// derivative on that axis, which its jet rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JetVars {
    /// The value channel.
    pub value: Var,
    /// `∂/∂yᵢ` on each axis the jet carries it.
    pub d1: [Option<Var>; 3],
    /// `∂²/∂yᵢ²` on each axis the jet carries it.
    pub d2: [Option<Var>; 3],
}

#[derive(Debug, Clone)]
enum Op {
    /// External input or parameter; no inputs.
    Leaf,
    /// `C = A · B`.
    MatMul(Var, Var),
    /// `C = A · Bᵀ` (the DeepONet combine kernel).
    MatMulTransposed(Var, Var),
    /// Elementwise `A + B`.
    Add(Var, Var),
    /// Elementwise `A - B`.
    Sub(Var, Var),
    /// Elementwise (Hadamard) `A ⊙ B`.
    Mul(Var, Var),
    /// `A + bias`, with `bias` a `1 × cols` row broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// `A ⊙ col`, with `col` an `rows × 1` column broadcast over columns.
    MulColBroadcast(Var, Var),
    /// `s · A` for a compile-time constant `s`.
    Scale(Var, f64),
    /// `A + s` elementwise for a constant `s`. The constant is retained for
    /// `Debug` output even though the backward pass never reads it.
    AddScalar(Var, #[allow(dead_code)] f64),
    /// `σ⁽ᵒʳᵈᵉʳ⁾(A)` elementwise.
    Activate(Var, Activation, u8),
    /// Elementwise `A²`.
    Square(Var),
    /// Horizontal concatenation `[A | B]`.
    HCat(Var, Var),
    /// Scalar `mean(A²)` — the building block of every physics loss term.
    MeanSquare(Var),
    /// Scalar `mean(A)`.
    Mean(Var),
    /// Scalar `sum(A)`.
    Sum(Var),
    /// The value output of a fused activation jet; it carries the group
    /// and runs the group's backward pass.
    ActivationJet(Box<ActivationJet>),
    /// A derivative output of a fused activation jet. Its gradient is
    /// propagated by the group's value output, which the reverse sweep
    /// reaches after every other output of the group.
    JetChannel,
}

/// A fused activation jet ([`Graph::activation_jet`]): its input and
/// output handles and the activation derivatives its backward pass reads.
#[derive(Debug, Clone)]
struct ActivationJet {
    input: JetVars,
    output: JetVars,
    /// `σ′(z)`, `σ″(z)` and `σ‴(z)` per element of the input value; the
    /// last two are empty when the jet carries no first (second)
    /// derivative, as backward then never reads them.
    sigma: [Vec<f64>; 3],
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Matrix,
    requires_grad: bool,
}

/// Gradients of a scalar loss with respect to every node that requires
/// them, as produced by [`Graph::backward`].
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Returns the gradient for `var`, or `None` if the node does not
    /// require gradients or did not influence the loss.
    pub fn get(&self, var: Var) -> Option<&Matrix> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// Removes and returns the gradient for `var`, avoiding a clone.
    pub fn take(&mut self, var: Var) -> Option<Matrix> {
        self.grads.get_mut(var.id).and_then(|g| g.take())
    }
}

/// A computation graph (tape) of matrix-valued operations.
///
/// Values are computed eagerly as nodes are added; [`Graph::backward`]
/// replays the tape in reverse to accumulate exact gradients. See the
/// [crate-level documentation](crate) for the usage pattern.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Returns the number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a leaf node holding `value`.
    ///
    /// Pass `requires_grad = true` for trainable parameters and `false` for
    /// constant inputs (collocation coordinates, targets); gradient
    /// computation skips subtrees that do not require gradients.
    pub fn leaf(&mut self, value: Matrix, requires_grad: bool) -> Var {
        self.push(Op::Leaf, value, requires_grad)
    }

    /// Returns the value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this graph.
    pub fn value(&self, var: Var) -> &Matrix {
        &self.nodes[var.id].value
    }

    /// Returns the scalar value of a `1 × 1` node.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this graph or is not `1 × 1`.
    pub fn scalar(&self, var: Var) -> f64 {
        let v = self.value(var);
        assert_eq!(v.shape(), (1, 1), "scalar() called on a {}x{} node", v.rows(), v.cols());
        v.as_slice()[0]
    }

    fn push(&mut self, op: Op, value: Matrix, requires_grad: bool) -> Var {
        let id = self.nodes.len();
        self.nodes.push(Node { op, value, requires_grad });
        Var { id }
    }

    fn check(&self, var: Var) -> Result<(), AutodiffError> {
        if var.id >= self.nodes.len() {
            Err(AutodiffError::UnknownVariable { id: var.id, graph_len: self.nodes.len() })
        } else {
            Ok(())
        }
    }

    fn rg(&self, a: Var) -> bool {
        self.nodes[a.id].requires_grad
    }

    /// Matrix product `a · b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the inner dimensions
    /// disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.matmul(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::MatMul(a, b), value, rg))
    }

    /// Matrix product against a transpose, `a · bᵀ`, without materialising
    /// the transpose.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the column counts
    /// disagree.
    pub fn matmul_transposed(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.matmul_transposed(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::MatMulTransposed(a, b), value, rg))
    }

    /// Elementwise sum `a + b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.add(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::Add(a, b), value, rg))
    }

    /// Elementwise difference `a - b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.sub(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::Sub(a, b), value, rg))
    }

    /// Elementwise (Hadamard) product `a ⊙ b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.hadamard(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::Mul(a, b), value, rg))
    }

    /// Adds the `1 × cols` row `bias` to every row of `a` (a dense-layer
    /// bias term).
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or `bias` is not
    /// `1 × a.cols()`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(bias)?;
        let value = self.nodes[a.id].value.add_row_broadcast(&self.nodes[bias.id].value)?;
        let rg = self.rg(a) || self.rg(bias);
        Ok(self.push(Op::AddRowBroadcast(a, bias), value, rg))
    }

    /// Multiplies every column of `a` elementwise by the `rows × 1` column
    /// `col` (per-row scaling — used for per-function HTC values in
    /// convection residuals).
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or `col` is not
    /// `a.rows() × 1`.
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(col)?;
        let av = &self.nodes[a.id].value;
        let cv = &self.nodes[col.id].value;
        if cv.cols() != 1 || cv.rows() != av.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_col_broadcast",
                lhs: av.shape(),
                rhs: cv.shape(),
            }
            .into());
        }
        let mut value = av.clone();
        for r in 0..value.rows() {
            let s = cv[(r, 0)];
            for v in value.row_mut(r) {
                *v *= s;
            }
        }
        let rg = self.rg(a) || self.rg(col);
        Ok(self.push(Op::MulColBroadcast(a, col), value, rg))
    }

    /// Scales every element by the constant `s`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn scale(&mut self, a: Var, s: f64) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let value = self.nodes[a.id].value.scaled(s);
        let rg = self.rg(a);
        Ok(self.push(Op::Scale(a, s), value, rg))
    }

    /// Adds the constant `s` to every element.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let value = self.nodes[a.id].value.map(|v| v + s);
        let rg = self.rg(a);
        Ok(self.push(Op::AddScalar(a, s), value, rg))
    }

    /// Applies the `order`-th derivative of `act` elementwise:
    /// `σ⁽ᵒʳᵈᵉʳ⁾(a)`.
    ///
    /// `order == 0` is the plain activation; orders 1 and 2 are used by the
    /// trunk-net jet propagation.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign, or
    /// [`AutodiffError::UnsupportedOrder`] if `order > 2` (the backward
    /// pass would need a fourth derivative, which is not provided).
    pub fn activation(&mut self, a: Var, act: Activation, order: u8) -> Result<Var, AutodiffError> {
        if order > 2 {
            return Err(AutodiffError::UnsupportedOrder { order, max: 2 });
        }
        self.check(a)?;
        // Pooled elementwise evaluation: collocation batches run thousands
        // of rows through transcendental activations per forward pass.
        let value = self.nodes[a.id].value.par_map(|v| act.eval(order, v));
        let rg = self.rg(a);
        Ok(self.push(Op::Activate(a, act, order), value, rg))
    }

    /// Pushes an elementwise activation through a second-order jet as one
    /// fused op, by the Faà-di-Bruno rules
    ///
    /// ```text
    /// a   = σ(z)
    /// aᵢ  = σ'(z) ⊙ zᵢ
    /// aᵢᵢ = σ''(z) ⊙ zᵢ² + σ'(z) ⊙ zᵢᵢ
    /// ```
    ///
    /// The output carries exactly the input's channels. One pass per
    /// element evaluates `σ`, `σ′` and `σ″` (and `σ‴` for backward) from a
    /// single evaluation of the activation, and every product and sum is
    /// rounded as the separate `activation`, `mul`, `square` and `add`
    /// nodes of that expression would round it. Backward runs once for
    /// the group and folds each gradient contribution in the order those
    /// separate nodes' reverse sweep would: for axis `i = 2, 1, 0`, the
    /// `σ′` accumulator takes `gᵢᵢ·zᵢᵢ` then `gᵢ·zᵢ`, the `σ″` accumulator
    /// takes `gᵢᵢ·zᵢ²`, `zᵢ` receives `(gᵢᵢ·σ″)·(zᵢ·2)` then `gᵢ·σ′`, and
    /// `zᵢᵢ` receives `gᵢᵢ·σ′`; then `z` receives (`σ″` accumulator)`·σ‴`,
    /// (`σ′` accumulator)`·σ″` and `g·σ′`. An output without a gradient
    /// contributes nothing, and an input that already holds a gradient
    /// receives the contributions one at a time, so losses and gradients
    /// are bitwise those of the unfused expression.
    ///
    /// # Errors
    ///
    /// Returns an error if a handle is foreign, a channel's shape differs
    /// from the value's, or [`AutodiffError::IncompleteJet`] if a second
    /// derivative comes without the first on its axis.
    pub fn activation_jet(
        &mut self,
        act: Activation,
        z: JetVars,
    ) -> Result<JetVars, AutodiffError> {
        self.check(z.value)?;
        let shape = self.nodes[z.value.id].value.shape();
        for axis in 0..3 {
            if z.d2[axis].is_some() && z.d1[axis].is_none() {
                return Err(AutodiffError::IncompleteJet { axis });
            }
        }
        for &var in z.d1.iter().chain(&z.d2).flatten() {
            self.check(var)?;
            let other = self.nodes[var.id].value.shape();
            if other != shape {
                return Err(LinalgError::ShapeMismatch {
                    op: "activation_jet",
                    lhs: shape,
                    rhs: other,
                }
                .into());
            }
        }

        let any_d1 = z.d1.iter().any(Option::is_some);
        let any_d2 = z.d2.iter().any(Option::is_some);
        let x = self.nodes[z.value.id].value.as_slice();
        let mut value = Vec::with_capacity(x.len());
        let mut sigma: [Vec<f64>; 3] = Default::default();
        sigma[0].reserve_exact(x.len());
        sigma[1].reserve_exact(if any_d1 { x.len() } else { 0 });
        sigma[2].reserve_exact(if any_d2 { x.len() } else { 0 });
        for &v in x {
            let [s0, s1, s2, s3] = act.derivatives(v);
            value.push(s0);
            sigma[0].push(s1);
            if any_d1 {
                sigma[1].push(s2);
            }
            if any_d2 {
                sigma[2].push(s3);
            }
        }
        let mut d1: [Option<Vec<f64>>; 3] = Default::default();
        let mut d2: [Option<Vec<f64>>; 3] = Default::default();
        for axis in 0..3 {
            let Some(zd1) = z.d1[axis] else { continue };
            let zd1 = self.nodes[zd1.id].value.as_slice();
            d1[axis] = Some(sigma[0].iter().zip(zd1).map(|(s1, v)| s1 * v).collect());
            if let Some(zd2) = z.d2[axis] {
                let zd2 = self.nodes[zd2.id].value.as_slice();
                let terms = sigma[1].iter().zip(&sigma[0]).zip(zd1.iter().zip(zd2));
                d2[axis] =
                    Some(terms.map(|((s2, s1), (v1, v2))| s2 * (v1 * v1) + s1 * v2).collect());
            }
        }

        // Outputs take consecutive ids: the value, then d1/d2 per axis.
        let value_id = self.nodes.len();
        let mut next = value_id + 1;
        let mut id_for = |present: bool| {
            present.then(|| {
                next += 1;
                Var { id: next - 1 }
            })
        };
        let mut output = JetVars { value: Var { id: value_id }, d1: [None; 3], d2: [None; 3] };
        for axis in 0..3 {
            output.d1[axis] = id_for(d1[axis].is_some());
            output.d2[axis] = id_for(d2[axis].is_some());
        }
        let value_rg = self.rg(z.value);
        let (rows, cols) = shape;
        let op = Op::ActivationJet(Box::new(ActivationJet { input: z, output, sigma }));
        self.push(op, Matrix::from_vec(rows, cols, value)?, value_rg);
        for axis in 0..3 {
            let d1_rg = value_rg || z.d1[axis].is_some_and(|v| self.rg(v));
            if let Some(data) = d1[axis].take() {
                self.push(Op::JetChannel, Matrix::from_vec(rows, cols, data)?, d1_rg);
            }
            if let Some(data) = d2[axis].take() {
                let d2_rg = d1_rg || z.d2[axis].is_some_and(|v| self.rg(v));
                self.push(Op::JetChannel, Matrix::from_vec(rows, cols, data)?, d2_rg);
            }
        }
        Ok(output)
    }

    /// Elementwise square `a²`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn square(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let value = self.nodes[a.id].value.map(|v| v * v);
        let rg = self.rg(a);
        Ok(self.push(Op::Square(a), value, rg))
    }

    /// Horizontal concatenation `[a | b]` (used by Fourier-feature layers
    /// to form `[sin(Bx) | cos(Bx)]`).
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the row counts
    /// differ.
    pub fn hcat(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.hcat(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::HCat(a, b), value, rg))
    }

    /// Scalar node `mean(a²)` — the mean-squared residual of a physics
    /// constraint.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn mean_square(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let v = &self.nodes[a.id].value;
        let ms = v.iter().map(|&x| x * x).sum::<f64>() / v.len().max(1) as f64;
        let rg = self.rg(a);
        Ok(self.push(Op::MeanSquare(a), Matrix::filled(1, 1, ms), rg))
    }

    /// Scalar node `mean(a)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn mean(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let m = self.nodes[a.id].value.mean();
        let rg = self.rg(a);
        Ok(self.push(Op::Mean(a), Matrix::filled(1, 1, m), rg))
    }

    /// Scalar node `sum(a)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn sum(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let s = self.nodes[a.id].value.sum();
        let rg = self.rg(a);
        Ok(self.push(Op::Sum(a), Matrix::filled(1, 1, s), rg))
    }

    /// Convenience: mean-squared error `mean((a - b)²)`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn mse(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        let d = self.sub(a, b)?;
        self.mean_square(d)
    }

    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// # Errors
    ///
    /// * [`AutodiffError::UnknownVariable`] if `loss` is foreign.
    /// * [`AutodiffError::NonScalarLoss`] if `loss` is not `1 × 1`.
    pub fn backward(&self, loss: Var) -> Result<Gradients, AutodiffError> {
        self.check(loss)?;
        let shape = self.nodes[loss.id].value.shape();
        if shape != (1, 1) {
            return Err(AutodiffError::NonScalarLoss { shape });
        }
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.id] = Some(Matrix::filled(1, 1, 1.0));

        for id in (0..=loss.id).rev() {
            let node = &self.nodes[id];
            if let Op::ActivationJet(jet) = &node.op {
                jet.backward(&self.nodes, &mut grads);
                continue;
            }
            let Some(grad) = grads[id].take() else { continue };
            if !node.requires_grad {
                continue;
            }
            self.accumulate(&mut grads, node, &grad)?;
            grads[id] = Some(grad);
        }
        Ok(Gradients { grads })
    }

    fn accumulate(
        &self,
        grads: &mut [Option<Matrix>],
        node: &Node,
        grad: &Matrix,
    ) -> Result<(), AutodiffError> {
        match &node.op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.rg(*a) {
                    let da = grad.matmul_transposed(&self.nodes[b.id].value)?;
                    add_grad(grads, *a, da);
                }
                if self.rg(*b) {
                    let db = self.nodes[a.id].value.transpose().matmul(grad)?;
                    add_grad(grads, *b, db);
                }
            }
            Op::MatMulTransposed(a, b) => {
                // C = A Bᵀ: dA = dC · B, dB = dCᵀ · A.
                if self.rg(*a) {
                    let da = grad.matmul(&self.nodes[b.id].value)?;
                    add_grad(grads, *a, da);
                }
                if self.rg(*b) {
                    let db = grad.transpose().matmul(&self.nodes[a.id].value)?;
                    add_grad(grads, *b, db);
                }
            }
            Op::Add(a, b) => {
                if self.rg(*a) {
                    add_grad(grads, *a, grad.clone());
                }
                if self.rg(*b) {
                    add_grad(grads, *b, grad.clone());
                }
            }
            Op::Sub(a, b) => {
                if self.rg(*a) {
                    add_grad(grads, *a, grad.clone());
                }
                if self.rg(*b) {
                    add_grad(grads, *b, grad.scaled(-1.0));
                }
            }
            Op::Mul(a, b) => {
                if self.rg(*a) {
                    add_grad(grads, *a, grad.hadamard(&self.nodes[b.id].value)?);
                }
                if self.rg(*b) {
                    add_grad(grads, *b, grad.hadamard(&self.nodes[a.id].value)?);
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                if self.rg(*a) {
                    add_grad(grads, *a, grad.clone());
                }
                if self.rg(*bias) {
                    let mut db = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        for (c, &g) in grad.row(r).iter().enumerate() {
                            db[(0, c)] += g;
                        }
                    }
                    add_grad(grads, *bias, db);
                }
            }
            Op::MulColBroadcast(a, col) => {
                let av = &self.nodes[a.id].value;
                let cv = &self.nodes[col.id].value;
                if self.rg(*a) {
                    let mut da = grad.clone();
                    for r in 0..da.rows() {
                        let s = cv[(r, 0)];
                        for v in da.row_mut(r) {
                            *v *= s;
                        }
                    }
                    add_grad(grads, *a, da);
                }
                if self.rg(*col) {
                    let mut dc = Matrix::zeros(av.rows(), 1);
                    for r in 0..av.rows() {
                        let mut acc = 0.0;
                        for (g, x) in grad.row(r).iter().zip(av.row(r)) {
                            acc += g * x;
                        }
                        dc[(r, 0)] = acc;
                    }
                    add_grad(grads, *col, dc);
                }
            }
            Op::Scale(a, s) => {
                if self.rg(*a) {
                    add_grad(grads, *a, grad.scaled(*s));
                }
            }
            Op::AddScalar(a, _) => {
                if self.rg(*a) {
                    add_grad(grads, *a, grad.clone());
                }
            }
            Op::Activate(a, act, order) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let mut da = grad.clone();
                    let (act, order) = (*act, *order);
                    da.par_apply_with(av, |g, x| g * act.eval(order + 1, x))?;
                    add_grad(grads, *a, da);
                }
            }
            Op::Square(a) => {
                if self.rg(*a) {
                    let da = grad.hadamard(&self.nodes[a.id].value.scaled(2.0))?;
                    add_grad(grads, *a, da);
                }
            }
            Op::HCat(a, b) => {
                let a_cols = self.nodes[a.id].value.cols();
                if self.rg(*a) {
                    let mut da = Matrix::zeros(grad.rows(), a_cols);
                    for r in 0..grad.rows() {
                        da.row_mut(r).copy_from_slice(&grad.row(r)[..a_cols]);
                    }
                    add_grad(grads, *a, da);
                }
                if self.rg(*b) {
                    let b_cols = grad.cols() - a_cols;
                    let mut db = Matrix::zeros(grad.rows(), b_cols);
                    for r in 0..grad.rows() {
                        db.row_mut(r).copy_from_slice(&grad.row(r)[a_cols..]);
                    }
                    add_grad(grads, *b, db);
                }
            }
            Op::MeanSquare(a) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let g = grad.as_slice()[0];
                    let scale = 2.0 * g / av.len().max(1) as f64;
                    add_grad(grads, *a, av.scaled(scale));
                }
            }
            Op::Mean(a) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let g = grad.as_slice()[0] / av.len().max(1) as f64;
                    add_grad(grads, *a, Matrix::filled(av.rows(), av.cols(), g));
                }
            }
            Op::Sum(a) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let g = grad.as_slice()[0];
                    add_grad(grads, *a, Matrix::filled(av.rows(), av.cols(), g));
                }
            }
            // A fused jet's gradients flow when the sweep reaches its value
            // output (see `Graph::backward`).
            Op::ActivationJet(_) | Op::JetChannel => {}
        }
        Ok(())
    }
}

impl ActivationJet {
    /// Propagates the gradients of the group's outputs to its inputs in
    /// the fold order documented on [`Graph::activation_jet`]. Runs when
    /// the reverse sweep reaches the value output: every consumer of the
    /// group's outputs comes later on the tape, so their gradients are
    /// complete by then.
    fn backward(&self, nodes: &[Node], grads: &mut [Option<Matrix>]) {
        let base = self.output.value.id;
        let (inputs, outputs) = grads.split_at_mut(base);
        let grad_of = |var: Option<Var>| {
            var.and_then(|v| outputs[v.id - base].as_ref()).map(Matrix::as_slice)
        };
        let g_value = grad_of(Some(self.output.value));
        let g_d1 = self.output.d1.map(grad_of);
        let g_d2 = self.output.d2.map(grad_of);
        if g_value.is_none() && g_d1.iter().chain(&g_d2).all(Option::is_none) {
            return;
        }

        // One gradient slot per distinct input node that requires a
        // gradient and receives a contribution; aliased channels share it.
        let mut slot_ids: Vec<usize> = Vec::with_capacity(7);
        let mut slot_of = |var: Option<Var>, receives: bool| {
            let var = var.filter(|v| receives && nodes[v.id].requires_grad)?;
            Some(slot_ids.iter().position(|&id| id == var.id).unwrap_or_else(|| {
                slot_ids.push(var.id);
                slot_ids.len() - 1
            }))
        };
        let mut axes = Vec::with_capacity(3);
        for axis in [2, 1, 0] {
            let (Some(z_d1), g1, g2) = (self.input.d1[axis], g_d1[axis], g_d2[axis]) else {
                continue;
            };
            if g1.is_none() && g2.is_none() {
                continue;
            }
            axes.push(AxisFold {
                z_d1: nodes[z_d1.id].value.as_slice(),
                z_d2: self.input.d2[axis].map_or(&[][..], |v| nodes[v.id].value.as_slice()),
                g_d1: g1,
                g_d2: g2,
                slot_d2: slot_of(self.input.d2[axis], g2.is_some()),
                slot_d1: slot_of(Some(z_d1), true),
            });
        }
        let slot_value = slot_of(Some(self.input.value), true);

        let (rows, cols) = nodes[self.input.value.id].value.shape();
        let mut held = [false; 7];
        let mut slots: Vec<Matrix> = slot_ids
            .iter()
            .zip(&mut held)
            .map(|(&id, held)| {
                *held = inputs[id].is_some();
                inputs[id].take().unwrap_or_else(|| Matrix::zeros(rows, cols))
            })
            .collect();
        let mut bufs: Vec<&mut [f64]> = slots.iter_mut().map(Matrix::as_mut_slice).collect();
        let [s1, s2, s3] = &self.sigma;
        for e in 0..s1.len() {
            // Whether each slot holds a gradient yet: the first contribution
            // to an empty slot is stored, later ones are added.
            let mut live = held;
            let mut add = |k: usize, term: f64| {
                let slot = &mut bufs[k][e];
                *slot = if live[k] { *slot + term } else { term };
                live[k] = true;
            };
            let fold = |acc: Option<f64>, term: f64| Some(acc.map_or(term, |a| a + term));
            let mut acc1 = None; // the σ′ node's gradient
            let mut acc2 = None; // the σ″ node's gradient
            for ax in &axes {
                let zd1 = ax.z_d1[e];
                if let Some(g) = ax.g_d2 {
                    let g = g[e];
                    acc1 = fold(acc1, g * ax.z_d2[e]);
                    if let Some(k) = ax.slot_d2 {
                        add(k, g * s1[e]);
                    }
                    acc2 = fold(acc2, g * (zd1 * zd1));
                    if let Some(k) = ax.slot_d1 {
                        add(k, (g * s2[e]) * (zd1 * 2.0));
                    }
                }
                if let Some(g) = ax.g_d1 {
                    let g = g[e];
                    acc1 = fold(acc1, g * zd1);
                    if let Some(k) = ax.slot_d1 {
                        add(k, g * s1[e]);
                    }
                }
            }
            if let Some(k) = slot_value {
                if let Some(a) = acc2 {
                    add(k, a * s3[e]);
                }
                if let Some(a) = acc1 {
                    add(k, a * s2[e]);
                }
                if let Some(g) = g_value {
                    add(k, g[e] * s1[e]);
                }
            }
        }
        for (id, slot) in slot_ids.into_iter().zip(slots) {
            inputs[id] = Some(slot);
        }
    }
}

/// One axis of a fused jet's backward pass: the forward values of its
/// input channels, the gradients of its output channels, and the slots
/// its input channels' gradients go to.
struct AxisFold<'a> {
    z_d1: &'a [f64],
    z_d2: &'a [f64],
    g_d1: Option<&'a [f64]>,
    g_d2: Option<&'a [f64]>,
    slot_d1: Option<usize>,
    slot_d2: Option<usize>,
}

fn add_grad(grads: &mut [Option<Matrix>], var: Var, delta: Matrix) {
    match &mut grads[var.id()] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), delta.shape(), "gradient shape drift");
            existing
                .par_apply_with(&delta, |e, d| e + d)
                .expect("invariant: node gradient shape matches its value shape");
        }
        slot @ None => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_rule() {
        // loss = mean_square(3 * x + 1) with x = [2]: loss = 49, dloss/dx = 2*7*3 = 42.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 2.0), true);
        let s = g.scale(x, 3.0).unwrap();
        let y = g.add_scalar(s, 1.0).unwrap();
        let loss = g.mean_square(y).unwrap();
        assert_eq!(g.scalar(loss), 49.0);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[42.0]);
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A B), A 2x2, B 2x2 => dA = 1 Bᵀ, dB = Aᵀ 1.
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(), true);
        let b = g.leaf(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap(), true);
        let c = g.matmul(a, b).unwrap();
        let loss = g.sum(c).unwrap();
        let grads = g.backward(loss).unwrap();
        // dA = ones(2,2) Bᵀ: row sums of B columns => each row [11, 15].
        assert_eq!(grads.get(a).unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dB = Aᵀ ones(2,2) => each col [4, 6]ᵀ stacked.
        assert_eq!(grads.get(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_transposed_matches_matmul_grad() {
        let a_val = Matrix::from_fn(3, 4, |r, c| (r + c) as f64 * 0.3);
        let b_val = Matrix::from_fn(5, 4, |r, c| (r as f64 - c as f64) * 0.2);

        // Path 1: a · bᵀ via matmul_transposed.
        let mut g1 = Graph::new();
        let a1 = g1.leaf(a_val.clone(), true);
        let b1 = g1.leaf(b_val.clone(), true);
        let c1 = g1.matmul_transposed(a1, b1).unwrap();
        let l1 = g1.mean_square(c1).unwrap();
        let gr1 = g1.backward(l1).unwrap();

        // Path 2: explicit transpose leaf cannot share grads, so compare
        // values against matmul with pre-transposed leaf and gradient of a only.
        let mut g2 = Graph::new();
        let a2 = g2.leaf(a_val, true);
        let bt = g2.leaf(b_val.transpose(), false);
        let c2 = g2.matmul(a2, bt).unwrap();
        let l2 = g2.mean_square(c2).unwrap();
        let gr2 = g2.backward(l2).unwrap();

        assert_eq!(g1.value(c1), g2.value(c2));
        let ga1 = gr1.get(a1).unwrap();
        let ga2 = gr2.get(a2).unwrap();
        for (x, y) in ga1.iter().zip(ga2.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
        assert!(gr1.get(b1).is_some());
    }

    #[test]
    fn broadcast_ops_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(), true);
        let bias = g.leaf(Matrix::row_vector(&[10.0, 20.0]), true);
        let col = g.leaf(Matrix::column_vector(&[2.0, -1.0]), true);
        let z = g.add_row_broadcast(a, bias).unwrap();
        let w = g.mul_col_broadcast(z, col).unwrap();
        let loss = g.sum(w).unwrap();
        // w = [[(1+10)*2, (2+20)*2], [(3+10)*-1, (4+20)*-1]]
        assert_eq!(g.value(w).as_slice(), &[22.0, 44.0, -13.0, -24.0]);
        let grads = g.backward(loss).unwrap();
        // d/da = col broadcast of ones = [[2,2],[-1,-1]].
        assert_eq!(grads.get(a).unwrap().as_slice(), &[2.0, 2.0, -1.0, -1.0]);
        // d/dbias = column sums of the same = [1, 1].
        assert_eq!(grads.get(bias).unwrap().as_slice(), &[1.0, 1.0]);
        // d/dcol = row sums of z = [33, 37].
        assert_eq!(grads.get(col).unwrap().as_slice(), &[33.0, 37.0]);
    }

    #[test]
    fn activation_backward_uses_next_order() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 0.7), true);
        let y = g.activation(x, Activation::Sine, 0).unwrap();
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!((grads.get(x).unwrap().as_slice()[0] - 0.7f64.cos()).abs() < 1e-15);

        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 0.7), true);
        let y = g.activation(x, Activation::Sine, 2).unwrap(); // -sin
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!((grads.get(x).unwrap().as_slice()[0] + 0.7f64.cos()).abs() < 1e-15);
    }

    #[test]
    fn hcat_splits_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::filled(2, 2, 1.0), true);
        let b = g.leaf(Matrix::filled(2, 3, 1.0), true);
        let c = g.hcat(a, b).unwrap();
        assert_eq!(g.value(c).shape(), (2, 5));
        let loss = g.mean_square(c).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().shape(), (2, 2));
        assert_eq!(grads.get(b).unwrap().shape(), (2, 3));
        // d mean(c²)/dc = 2c/10 = 0.2 everywhere.
        assert!(grads.get(a).unwrap().iter().all(|&v| (v - 0.2).abs() < 1e-15));
    }

    #[test]
    fn no_grad_subtrees_are_skipped() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 2.0), false);
        let w = g.leaf(Matrix::filled(1, 1, 3.0), true);
        let y = g.mul(x, w).unwrap();
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!(grads.get(x).is_none());
        assert_eq!(grads.get(w).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // y = x + x => dy/dx = 2.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 5.0), true);
        let y = g.add(x, x).unwrap();
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 2), true);
        let err = g.backward(x).unwrap_err();
        assert!(matches!(err, AutodiffError::NonScalarLoss { shape: (2, 2) }));
    }

    #[test]
    fn foreign_var_is_rejected() {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        let x1 = g1.leaf(Matrix::zeros(1, 1), true);
        let _ = x1;
        let bogus = Var { id: 99 };
        assert!(matches!(g2.matmul(bogus, bogus), Err(AutodiffError::UnknownVariable { .. })));
    }

    #[test]
    fn mse_convenience() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::row_vector(&[1.0, 2.0]), true);
        let b = g.leaf(Matrix::row_vector(&[0.0, 0.0]), false);
        let loss = g.mse(a, b).unwrap();
        assert_eq!(g.scalar(loss), 2.5);
    }

    #[test]
    fn mean_and_sum_grads() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::filled(2, 3, 4.0), true);
        let m = g.mean(a).unwrap();
        let grads = g.backward(m).unwrap();
        assert!(grads.get(a).unwrap().iter().all(|&v| (v - 1.0 / 6.0).abs() < 1e-15));

        let mut g = Graph::new();
        let a = g.leaf(Matrix::filled(2, 3, 4.0), true);
        let s = g.sum(a).unwrap();
        let grads = g.backward(s).unwrap();
        assert!(grads.get(a).unwrap().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn take_moves_gradient_out() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 1.0), true);
        let loss = g.mean_square(x).unwrap();
        let mut grads = g.backward(loss).unwrap();
        assert!(grads.take(x).is_some());
        assert!(grads.take(x).is_none());
    }
}
