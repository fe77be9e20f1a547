use std::cell::{Cell, OnceCell};

use deepoheat_linalg::{
    block_cg, norm2, BlockCgOptions, BlockCgOutcome, CsrMatrix, IncompleteCholesky,
    JacobiPreconditioner, Matrix, Preconditioner, SsorPreconditioner,
};
use deepoheat_telemetry as telemetry;

use crate::{BoundaryCondition, Face, FdmError, Solution, StructuredGrid};

/// A grid node's place in the assembled system.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    /// Solved for: the node's row (and column) of the operator.
    Free(usize),
    /// Eliminated by a Dirichlet face: the temperature it is held at.
    Pinned(f64),
}

/// The full-grid field, flat node order, for the free-row values `free`:
/// each pinned node carries its Dirichlet temperature.
pub(crate) fn scatter(nodes: &[Node], free: &[f64]) -> Vec<f64> {
    nodes
        .iter()
        .map(|&node| match node {
            Node::Free(row) => free[row],
            Node::Pinned(temperature) => temperature,
        })
        .collect()
}

/// The assembled steady operator over the free (non-Dirichlet) nodes,
/// shared by the static, batch and transient solvers.
pub(crate) struct Assembly {
    /// SPD conduction + convection operator.
    pub matrix: CsrMatrix,
    /// Source + boundary right-hand side.
    pub rhs: Vec<f64>,
    /// Every node's place in the system, flat node order.
    pub nodes: Vec<Node>,
}

/// Options controlling the linear solve inside [`HeatProblem::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Relative residual tolerance for the conjugate-gradient solve.
    pub tolerance: f64,
    /// Maximum CG iterations.
    pub max_iterations: usize,
    /// SSOR relaxation factor in `(0, 2)`.
    pub ssor_omega: f64,
    /// Record the per-iteration CG residual history into
    /// [`Solution::cg_trace`]. Off by default.
    pub record_cg_trace: bool,
    /// Enable the conjugate-gradient fallback ladder: on non-convergence
    /// the solve escalates through restart-from-iterate, a Jacobi
    /// preconditioner, and IC(0) before accepting a degraded answer (see
    /// [`SolveOptions::degraded_tolerance`]). On by default; disable to
    /// restore strict single-attempt behaviour.
    pub fallback: bool,
    /// Relaxed relative-residual tolerance accepted as a last resort when
    /// every ladder rung has failed. A solution accepted this way carries
    /// [`Solution::is_degraded`] `= true`; tighter-than-`tolerance` values
    /// effectively disable the degraded rung.
    pub degraded_tolerance: f64,
    /// Fault-injection hook for resilience tests: treat the first `N` CG
    /// attempts of this solve as non-converged (their iterates are kept),
    /// forcing the ladder to escalate deterministically. Leave at `0` in
    /// production code.
    pub inject_cg_failures: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-10,
            max_iterations: 50_000,
            ssor_omega: 1.5,
            record_cg_trace: false,
            fallback: true,
            degraded_tolerance: 1e-6,
            inject_cg_failures: 0,
        }
    }
}

impl SolveOptions {
    /// Checks the options before they reach the linear solver, so a bad
    /// configuration fails with a message about the *option* rather than a
    /// late CG error.
    ///
    /// # Errors
    ///
    /// Returns [`FdmError::InvalidParameter`] if `tolerance` is not a
    /// positive finite number, `max_iterations` is zero, or `ssor_omega`
    /// is outside `(0, 2)`.
    pub fn validate(&self) -> Result<(), FdmError> {
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(FdmError::InvalidParameter {
                what: format!(
                    "solver tolerance must be positive and finite, got {}",
                    self.tolerance
                ),
            });
        }
        if self.max_iterations == 0 {
            return Err(FdmError::InvalidParameter {
                what: "solver max_iterations must be at least 1".into(),
            });
        }
        if !(self.ssor_omega > 0.0 && self.ssor_omega < 2.0) {
            return Err(FdmError::InvalidParameter {
                what: format!("ssor_omega must be in (0, 2), got {}", self.ssor_omega),
            });
        }
        if !(self.degraded_tolerance > 0.0 && self.degraded_tolerance.is_finite()) {
            return Err(FdmError::InvalidParameter {
                what: format!(
                    "degraded_tolerance must be positive and finite, got {}",
                    self.degraded_tolerance
                ),
            });
        }
        Ok(())
    }
}

/// A steady-state heat-conduction problem on a [`StructuredGrid`]:
/// per-node conductivity and volumetric power plus one
/// [`BoundaryCondition`] per face.
///
/// This is the reproduction's reference solver, standing in for the
/// commercial Celsius 3D tool (see the crate docs for the discretisation).
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct HeatProblem {
    grid: StructuredGrid,
    conductivity: Vec<f64>,
    volumetric_power: Vec<f64>,
    boundaries: [BoundaryCondition; 6],
}

impl HeatProblem {
    /// Creates a problem with uniform conductivity `k` (`W/(m K)`), no
    /// volumetric power, and adiabatic conditions on every face.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not strictly positive (use
    /// [`HeatProblem::set_conductivity_field`] for validated field input).
    pub fn new(grid: StructuredGrid, k: f64) -> Self {
        assert!(k > 0.0 && k.is_finite(), "conductivity must be positive, got {k}");
        let n = grid.node_count();
        HeatProblem {
            grid,
            conductivity: vec![k; n],
            volumetric_power: vec![0.0; n],
            boundaries: Default::default(),
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &StructuredGrid {
        &self.grid
    }

    /// Per-node conductivity in flat-index order.
    pub fn conductivity(&self) -> &[f64] {
        &self.conductivity
    }

    /// Per-node volumetric power density (`W/m³`) in flat-index order.
    pub fn volumetric_power(&self) -> &[f64] {
        &self.volumetric_power
    }

    /// The boundary condition on `face`.
    pub fn boundary(&self, face: Face) -> &BoundaryCondition {
        &self.boundaries[face.index()]
    }

    /// Replaces the conductivity field (one value per node, flat order).
    ///
    /// # Errors
    ///
    /// * [`FdmError::FieldMismatch`] on a length mismatch.
    /// * [`FdmError::InvalidParameter`] if any value is not strictly
    ///   positive and finite.
    pub fn set_conductivity_field(&mut self, k: Vec<f64>) -> Result<&mut Self, FdmError> {
        if k.len() != self.grid.node_count() {
            return Err(FdmError::FieldMismatch {
                field: "conductivity",
                expected: self.grid.node_count(),
                actual: k.len(),
            });
        }
        if let Some(bad) = k.iter().find(|v| !(v.is_finite() && **v > 0.0)) {
            return Err(FdmError::InvalidParameter {
                what: format!("conductivity must be positive, got {bad}"),
            });
        }
        self.conductivity = k;
        Ok(self)
    }

    /// Replaces the volumetric power-density field (`W/m³` per node).
    ///
    /// # Errors
    ///
    /// * [`FdmError::FieldMismatch`] on a length mismatch.
    /// * [`FdmError::InvalidParameter`] on non-finite values.
    pub fn set_volumetric_power(&mut self, q: Vec<f64>) -> Result<&mut Self, FdmError> {
        if q.len() != self.grid.node_count() {
            return Err(FdmError::FieldMismatch {
                field: "volumetric power",
                expected: self.grid.node_count(),
                actual: q.len(),
            });
        }
        if q.iter().any(|v| !v.is_finite()) {
            return Err(FdmError::InvalidParameter {
                what: "volumetric power must be finite".into(),
            });
        }
        self.volumetric_power = q;
        Ok(self)
    }

    /// Sets the boundary condition on a face.
    ///
    /// # Errors
    ///
    /// * [`FdmError::BoundaryMismatch`] if a [`crate::FluxMap::Field`]'s shape does
    ///   not match the face grid.
    /// * [`FdmError::InvalidParameter`] for a non-positive convection
    ///   coefficient or non-finite parameters.
    pub fn set_boundary(
        &mut self,
        face: Face,
        bc: BoundaryCondition,
    ) -> Result<&mut Self, FdmError> {
        match &bc {
            BoundaryCondition::Adiabatic => {}
            BoundaryCondition::Dirichlet { temperature } => {
                if !temperature.is_finite() {
                    return Err(FdmError::InvalidParameter {
                        what: format!("dirichlet temperature must be finite, got {temperature}"),
                    });
                }
            }
            BoundaryCondition::HeatFlux { flux } => {
                if let Some(shape) = flux.shape() {
                    let expected = self.face_shape(face);
                    if shape != expected {
                        return Err(FdmError::BoundaryMismatch {
                            face: face.name(),
                            expected,
                            actual: shape,
                        });
                    }
                }
            }
            BoundaryCondition::Convection { htc, ambient } => {
                if !(htc.is_finite() && *htc > 0.0) {
                    return Err(FdmError::InvalidParameter {
                        what: format!("convection coefficient must be positive, got {htc}"),
                    });
                }
                if !ambient.is_finite() {
                    return Err(FdmError::InvalidParameter {
                        what: format!("ambient temperature must be finite, got {ambient}"),
                    });
                }
            }
        }
        self.boundaries[face.index()] = bc;
        Ok(self)
    }

    /// Shape of a face's vertex grid (see [`Face`] for axis order).
    pub fn face_shape(&self, face: Face) -> (usize, usize) {
        match face.normal_axis() {
            0 => (self.grid.ny(), self.grid.nz()),
            1 => (self.grid.nx(), self.grid.nz()),
            _ => (self.grid.nx(), self.grid.ny()),
        }
    }

    /// Iterates all `(node index, face-local a, face-local b)` triples of a
    /// face.
    pub(crate) fn face_nodes(&self, face: Face) -> Vec<(usize, usize, usize)> {
        let g = &self.grid;
        let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
        let mut out = Vec::new();
        match face {
            Face::XMin | Face::XMax => {
                let i = if face.is_max() { nx - 1 } else { 0 };
                for k in 0..nz {
                    for j in 0..ny {
                        out.push((g.index(i, j, k), j, k));
                    }
                }
            }
            Face::YMin | Face::YMax => {
                let j = if face.is_max() { ny - 1 } else { 0 };
                for k in 0..nz {
                    for i in 0..nx {
                        out.push((g.index(i, j, k), i, k));
                    }
                }
            }
            Face::ZMin | Face::ZMax => {
                let k = if face.is_max() { nz - 1 } else { 0 };
                for j in 0..ny {
                    for i in 0..nx {
                        out.push((g.index(i, j, k), i, j));
                    }
                }
            }
        }
        out
    }

    /// Boundary patch area owned by a face-local vertex `(a, b)`.
    pub(crate) fn patch_area(&self, face: Face, a: usize, b: usize) -> f64 {
        let g = &self.grid;
        match face.normal_axis() {
            0 => StructuredGrid::face_patch_area(a, g.ny(), g.dy(), b, g.nz(), g.dz()),
            1 => StructuredGrid::face_patch_area(a, g.nx(), g.dx(), b, g.nz(), g.dz()),
            _ => StructuredGrid::face_patch_area(a, g.nx(), g.dx(), b, g.ny(), g.dy()),
        }
    }

    /// Every node's place in the system, flat node order: a node on a
    /// Dirichlet face is pinned at the temperature of the last such face
    /// in [`Face::ALL`] order, and the free nodes take rows in flat order.
    fn node_map(&self) -> Vec<Node> {
        let g = &self.grid;
        let n = [g.nx(), g.ny(), g.nz()];
        let pinned = |face: Face| match self.boundary(face) {
            BoundaryCondition::Dirichlet { temperature } => Some(*temperature),
            _ => None,
        };
        let mut nodes = Vec::with_capacity(g.node_count());
        let mut rows = 0;
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    let pinned_by = |face| face_local(face, [i, j, k], n).and(pinned(face));
                    match Face::ALL.into_iter().rev().find_map(pinned_by) {
                        Some(temperature) => nodes.push(Node::Pinned(temperature)),
                        None => {
                            nodes.push(Node::Free(rows));
                            rows += 1;
                        }
                    }
                }
            }
        }
        nodes
    }

    /// Assembles the steady operator over the free (non-Dirichlet) nodes:
    /// `A T = b` with `A` SPD. Reused by [`HeatProblem::solve`],
    /// [`HeatProblem::solve_batch`] and the transient stepper.
    ///
    /// One serial pass over the nodes in flat (k, j, i) order writes each
    /// free row straight into CSR arrays. Row `r` holds its free −z, −y
    /// and −x neighbours, the diagonal, then its free +x, +y and +z
    /// neighbours; free rows follow flat order, so the columns are sorted.
    /// A link's conductance is the harmonic-mean face conductivity times
    /// the face area over the spacing. The face area spans the control
    /// extents of the in-plane axes, the same from both nodes, so the
    /// operator is symmetric.
    ///
    /// Every sum runs in a fixed order, the one the `assembly_oracle`
    /// tests check bit for bit against the COO assembly they keep:
    ///
    /// * the diagonal adds the row's links in the order −z, −y, −x, +x,
    ///   +y, +z (links to pinned neighbours included), then `h·A` of each
    ///   convection face in [`Face::ALL`] order;
    /// * the right-hand side starts at `0.0 + q·V`, adds `g·T` for each
    ///   pinned neighbour in the same link order, then each face's flux
    ///   or `h·A·T_amb` in [`Face::ALL`] order.
    ///
    /// # Errors
    ///
    /// Only if the arrays fail [`CsrMatrix::from_raw`]'s validation, which
    /// the row layout rules out.
    pub(crate) fn assemble(&self) -> Result<Assembly, FdmError> {
        let g = &self.grid;
        let n = [g.nx(), g.ny(), g.nz()];
        let [nx, ny, nz] = n;
        let (dx, dy, dz) = (g.dx(), g.dy(), g.dz());
        let plane = nx * ny;
        let nodes = self.node_map();
        let n_free = nodes.iter().filter(|node| matches!(node, Node::Free(_))).count();
        // A free row holds its diagonal and at most six links.
        let mut row_ptr = Vec::with_capacity(n_free + 1);
        let mut col_idx = Vec::with_capacity(7 * n_free);
        let mut values = Vec::with_capacity(7 * n_free);
        let mut rhs = Vec::with_capacity(n_free);
        row_ptr.push(0);
        let k_at = &self.conductivity;
        // Control-volume extent: half cells on the two boundary planes.
        let cv = |i: usize, n: usize, d: f64| if i == 0 || i == n - 1 { d / 2.0 } else { d };
        for k in 0..nz {
            let cv_z = cv(k, nz, dz);
            for j in 0..ny {
                let cv_y = cv(j, ny, dy);
                for i in 0..nx {
                    let idx = (k * ny + j) * nx + i;
                    let Node::Free(row) = nodes[idx] else { continue };
                    let cv_x = cv(i, nx, dx);
                    // Areas of the control-volume faces normal to x, y, z,
                    // and each over its axis's spacing.
                    let area = [cv_y * cv_z, cv_x * cv_z, cv_x * cv_y];
                    let (gx, gy, gz) = (area[0] / dx, area[1] / dy, area[2] / dz);
                    // Conductances are positive, so a diagonal summed from
                    // 0.0 has the bits of one summed from its first link.
                    let mut diag = 0.0;
                    let mut b = 0.0 + self.volumetric_power[idx] * (cv_x * cv_y * cv_z);
                    // Adds the link to `nb` to the diagonal; returns the
                    // off-diagonal entry of a free `nb`, folds a pinned
                    // one's `g·T` into the right-hand side.
                    let mut link = |nb: usize, geom: f64| {
                        let conductance =
                            harmonic_mean(k_at[idx.min(nb)], k_at[idx.max(nb)]) * geom;
                        diag += conductance;
                        match nodes[nb] {
                            Node::Free(col) => Some((col, -conductance)),
                            Node::Pinned(temperature) => {
                                b += conductance * temperature;
                                None
                            }
                        }
                    };
                    // Each neighbour as (present, flat offset, geometry):
                    // −z, −y, −x below the diagonal, +x, +y, +z above it.
                    let below = [(k > 0, plane, gz), (j > 0, nx, gy), (i > 0, 1, gx)];
                    let above =
                        [(i + 1 < nx, 1, gx), (j + 1 < ny, nx, gy), (k + 1 < nz, plane, gz)];
                    for (present, step, geom) in below {
                        if let Some((col, value)) =
                            present.then(|| link(idx - step, geom)).flatten()
                        {
                            col_idx.push(col);
                            values.push(value);
                        }
                    }
                    let diag_at = values.len();
                    col_idx.push(row);
                    values.push(0.0);
                    for (present, step, geom) in above {
                        if let Some((col, value)) =
                            present.then(|| link(idx + step, geom)).flatten()
                        {
                            col_idx.push(col);
                            values.push(value);
                        }
                    }
                    for face in Face::ALL {
                        let Some((fa, fb)) = face_local(face, [i, j, k], n) else { continue };
                        let patch = area[face.normal_axis()];
                        match self.boundary(face) {
                            BoundaryCondition::HeatFlux { flux } => b += flux.value(fa, fb) * patch,
                            BoundaryCondition::Convection { htc, ambient } => {
                                let ha = htc * patch;
                                diag += ha;
                                b += ha * ambient;
                            }
                            BoundaryCondition::Adiabatic | BoundaryCondition::Dirichlet { .. } => {}
                        }
                    }
                    values[diag_at] = diag;
                    rhs.push(b);
                    row_ptr.push(values.len());
                }
            }
        }
        let matrix = CsrMatrix::from_raw(n_free, n_free, row_ptr, col_idx, values)?;
        debug_assert!(matrix.is_symmetric(1e-9), "assembled operator must be symmetric");
        Ok(Assembly { matrix, rhs, nodes })
    }

    /// Solves the steady heat equation, returning the temperature field.
    ///
    /// # Errors
    ///
    /// * [`FdmError::InvalidParameter`] if no boundary condition fixes the
    ///   temperature level (pure-Neumann problems are singular).
    /// * [`FdmError::SolveFailed`] if CG does not converge.
    pub fn solve(&self, options: SolveOptions) -> Result<Solution, FdmError> {
        options.validate()?;
        let fixes_temperature = self.boundaries.iter().any(|bc| {
            matches!(bc, BoundaryCondition::Dirichlet { .. } | BoundaryCondition::Convection { .. })
        });
        if !fixes_temperature {
            return Err(FdmError::InvalidParameter {
                what: "no dirichlet or convection boundary: the temperature level is undetermined"
                    .into(),
            });
        }

        let g = &self.grid;
        let assembly_span = telemetry::span("fdm.assemble");
        let Assembly { matrix, rhs, nodes } = self.assemble()?;
        drop(assembly_span);
        if matrix.rows() == 0 {
            // Every node is pinned: the solution is the Dirichlet data itself.
            return Ok(Solution::from_parts(*g, scatter(&nodes, &[]), 0, 0.0, None, false));
        }
        let solve_span = telemetry::span("fdm.solve");
        let pre_cache = PreconditionerCache::new(&matrix, options.ssor_omega)?;
        let cg = cg_ladder(&matrix, rhs, None, &pre_cache, &options)?;
        drop(solve_span);
        telemetry::gauge("fdm.cg.iterations", cg.iterations as f64);
        telemetry::gauge("fdm.cg.relative_residual", cg.relative_residual);
        telemetry::observe("fdm.cg.iterations.hist", cg.iterations as f64);

        Ok(Solution::from_parts(
            *g,
            scatter(&nodes, &cg.solution),
            cg.iterations,
            cg.relative_residual,
            cg.trace,
            cg.degraded,
        ))
    }
}

/// Face-local coordinates `(a, b)` of node `(i, j, k)` on `face` of a
/// grid with `(nx, ny, nz)` vertices (see [`Face`] for their order), or
/// `None` when the node is not on that face.
fn face_local(
    face: Face,
    [i, j, k]: [usize; 3],
    [nx, ny, nz]: [usize; 3],
) -> Option<(usize, usize)> {
    let (on, a, b) = match face {
        Face::XMin => (i == 0, j, k),
        Face::XMax => (i + 1 == nx, j, k),
        Face::YMin => (j == 0, i, k),
        Face::YMax => (j + 1 == ny, i, k),
        Face::ZMin => (k == 0, i, j),
        Face::ZMax => (k + 1 == nz, i, j),
    };
    on.then_some((a, b))
}

fn harmonic_mean(a: f64, b: f64) -> f64 {
    2.0 * a * b / (a + b)
}

/// Preconditioners for one assembled operator, built once and shared by
/// every [`cg_ladder`] attempt against that operator — a retried rung or a
/// whole batch of right-hand sides reuses the same factorisations instead
/// of re-assembling them per attempt.
///
/// SSOR (the first two rungs) is built eagerly; Jacobi and IC(0) are built
/// lazily the first time their rung is reached and cached from then on.
pub(crate) struct PreconditionerCache<'a> {
    matrix: &'a CsrMatrix,
    ssor: SsorPreconditioner,
    jacobi: OnceCell<Option<JacobiPreconditioner>>,
    ic0: OnceCell<Option<IncompleteCholesky>>,
    /// How many preconditioner constructions have happened — test
    /// instrumentation for the no-reassembly regression guard.
    constructions: Cell<usize>,
}

impl<'a> PreconditionerCache<'a> {
    /// Builds the cache (and the SSOR preconditioner) for `matrix`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`FdmError`] if SSOR construction rejects
    /// the matrix (zero/negative diagonal) or `ssor_omega`.
    pub fn new(matrix: &'a CsrMatrix, ssor_omega: f64) -> Result<Self, FdmError> {
        let ssor = SsorPreconditioner::new(matrix, ssor_omega)?;
        Ok(PreconditionerCache {
            matrix,
            ssor,
            jacobi: OnceCell::new(),
            ic0: OnceCell::new(),
            constructions: Cell::new(1),
        })
    }

    /// The eagerly built SSOR preconditioner.
    pub fn ssor(&self) -> &SsorPreconditioner {
        &self.ssor
    }

    /// The Jacobi preconditioner, built on first use; `None` if the
    /// matrix has a non-positive diagonal.
    pub fn jacobi(&self) -> Option<&JacobiPreconditioner> {
        self.jacobi
            .get_or_init(|| {
                self.constructions.set(self.constructions.get() + 1);
                JacobiPreconditioner::new(self.matrix).ok()
            })
            .as_ref()
    }

    /// The IC(0) preconditioner, built on first use; `None` on incomplete
    /// factorisation breakdown.
    pub fn ic0(&self) -> Option<&IncompleteCholesky> {
        self.ic0
            .get_or_init(|| {
                self.constructions.set(self.constructions.get() + 1);
                IncompleteCholesky::new(self.matrix).ok()
            })
            .as_ref()
    }

    /// Total preconditioner constructions so far (SSOR counts as one).
    /// Retried attempts and additional right-hand sides must not grow
    /// this beyond the number of distinct preconditioner kinds touched.
    #[cfg(test)]
    pub fn constructions(&self) -> usize {
        self.constructions.get()
    }
}

/// Result of [`cg_ladder`]: the accepted iterate plus diagnostics.
pub(crate) struct LadderOutcome {
    pub solution: Vec<f64>,
    /// Total CG iterations across every attempt.
    pub iterations: usize,
    pub relative_residual: f64,
    /// Concatenated relative residual history across attempts (when
    /// tracing). Under escalation its length exceeds `iterations + 1` by one
    /// entry per extra attempt.
    pub trace: Option<Vec<f64>>,
    /// `true` when only the relaxed degraded tolerance was met.
    pub degraded: bool,
}

/// Solves `matrix · x = rhs` through the escalation ladder, every rung a
/// [`block_cg`] solve of the one-row block `rhs`:
///
/// 1. SSOR-preconditioned CG from the zero start (the historical path);
/// 2. restart from the best iterate so far — the restart recomputes the
///    *true* residual `b − A·x`, discarding recurrence drift (this alone
///    often rescues stagnated solves);
/// 3. switch to the Jacobi preconditioner (immune to SSOR's sweep-order
///    sensitivities), restarting from the best iterate;
/// 4. switch to IC(0) (the strongest rung; skipped if the incomplete
///    factorisation breaks down);
/// 5. accept the best iterate under `options.degraded_tolerance` with the
///    degraded flag set.
///
/// Only when even the relaxed tolerance is missed does the ladder give up
/// with [`FdmError::SolveFailed`].
pub(crate) fn cg_ladder(
    matrix: &CsrMatrix,
    rhs: Vec<f64>,
    x0: Option<&[f64]>,
    pre_cache: &PreconditionerCache<'_>,
    options: &SolveOptions,
) -> Result<LadderOutcome, FdmError> {
    let cg_options = BlockCgOptions {
        max_iterations: options.max_iterations,
        tolerance: options.tolerance,
        record_trace: options.record_cg_trace,
    };
    let b = Matrix::from_vec(1, rhs.len(), rhs)?;

    let mut injections_left = options.inject_cg_failures;
    let mut total_iterations = 0usize;
    let mut merged_trace: Option<Vec<f64>> = None;
    // Best iterate seen so far and its true relative residual. A caller
    // warm start (e.g. a block-CG iterate being polished) seeds it so the
    // first rung continues from there instead of the zero vector.
    let mut best: Option<(Matrix, f64)> = match x0 {
        Some(x) => {
            let mut r = matrix.spmv(x)?;
            for (ri, &bi) in r.iter_mut().zip(b.as_slice()) {
                *ri = bi - *ri;
            }
            let b_norm = norm2(b.as_slice());
            let res = if b_norm > 0.0 { norm2(&r) / b_norm } else { 0.0 };
            Some((Matrix::row_vector(x), res))
        }
        None => None,
    };

    let rungs: [&str; 4] = ["ssor", "ssor_restart", "jacobi", "ic0"];
    for (rung_index, label) in rungs.iter().enumerate() {
        // Preconditioners come from the per-operator cache: rungs 0 and 1
        // share the eagerly built SSOR, the others are built lazily once
        // and reused across retries and batched right-hand sides.
        let pre: Option<&dyn Preconditioner> = match rung_index {
            0 | 1 => Some(pre_cache.ssor()),
            2 => pre_cache.jacobi().map(|p| p as &dyn Preconditioner),
            _ => pre_cache.ic0().map(|p| p as &dyn Preconditioner),
        };
        let Some(pre) = pre else {
            // Preconditioner construction failed (e.g. IC(0) breakdown):
            // this rung is unavailable, move on.
            telemetry::counter("fdm.cg.fallback.rung_unavailable.count", 1);
            continue;
        };
        if rung_index > 0 {
            telemetry::counter("fdm.cg.fallback.count", 1);
            telemetry::event(
                "fdm.cg.fallback.escalate",
                &[("rung", (*label).into()), ("index", rung_index.into())],
            );
        }
        let start = best.as_ref().map(|(x, _)| x);
        // One span per rung attempt: in the trace tree, a solve that
        // escalated shows as fdm.solve → N fdm.cg.attempt children.
        let attempt_span = telemetry::span("fdm.cg.attempt");
        let BlockCgOutcome { solution, columns, trace, .. } =
            block_cg(matrix, &b, start, &pre, cg_options)?;
        drop(attempt_span);
        let mut attempt = columns[0]; // one row in, one column verdict out
        total_iterations += attempt.iterations;
        if let Some(t) = trace {
            merged_trace.get_or_insert_with(Vec::new).extend(t.max_residual);
        }
        if injections_left > 0 {
            // Deterministic fault injection: pretend this attempt failed
            // but keep its iterate, exactly like a real stall would.
            injections_left -= 1;
            attempt.converged = false;
        }
        if best.as_ref().is_none_or(|(_, res)| attempt.relative_residual < *res) {
            best = Some((solution, attempt.relative_residual));
        }
        let met_tolerance =
            attempt.converged && best.as_ref().is_some_and(|(_, r)| *r <= options.tolerance);
        if met_tolerance {
            if rung_index > 0 {
                telemetry::counter("fdm.cg.fallback.recovered.count", 1);
            }
            if let Some((solution, relative_residual)) = best.take() {
                return Ok(LadderOutcome {
                    solution: solution.into_vec(),
                    iterations: total_iterations,
                    relative_residual,
                    trace: merged_trace,
                    degraded: false,
                });
            }
        }
        if !options.fallback {
            break;
        }
    }

    // The SSOR rung always runs, so `best` should be set; report the solve
    // as failed rather than panicking if that ever stops holding.
    let Some((solution, relative_residual)) = best else {
        return Err(FdmError::SolveFailed {
            iterations: total_iterations,
            residual: f64::INFINITY,
        });
    };
    if options.fallback && relative_residual <= options.degraded_tolerance {
        // Last rung: accept the best iterate under the relaxed tolerance,
        // flagged so callers know the accuracy contract was not met.
        telemetry::counter("fdm.cg.degraded.count", 1);
        return Ok(LadderOutcome {
            solution: solution.into_vec(),
            iterations: total_iterations,
            relative_residual,
            trace: merged_trace,
            degraded: true,
        });
    }
    Err(FdmError::SolveFailed { iterations: total_iterations, residual: relative_residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{slab_conduction_profile, FluxMap};
    use deepoheat_linalg::Matrix;

    fn paper_grid() -> StructuredGrid {
        StructuredGrid::new(21, 21, 11, 1e-3, 1e-3, 0.5e-3).unwrap()
    }

    #[test]
    fn pure_neumann_is_rejected() {
        let problem = HeatProblem::new(paper_grid(), 0.1);
        assert!(matches!(
            problem.solve(SolveOptions::default()),
            Err(FdmError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn degenerate_solve_options_are_rejected() {
        for bad in [
            SolveOptions { tolerance: 0.0, ..Default::default() },
            SolveOptions { tolerance: -1e-10, ..Default::default() },
            SolveOptions { tolerance: f64::NAN, ..Default::default() },
            SolveOptions { max_iterations: 0, ..Default::default() },
            SolveOptions { ssor_omega: 0.0, ..Default::default() },
            SolveOptions { ssor_omega: 2.0, ..Default::default() },
        ] {
            assert!(matches!(bad.validate(), Err(FdmError::InvalidParameter { .. })), "{bad:?}");
        }
        assert!(SolveOptions::default().validate().is_ok());
    }

    #[test]
    fn cg_trace_passes_through_to_solution() {
        let mut problem =
            HeatProblem::new(StructuredGrid::new(5, 5, 5, 1.0, 1.0, 1.0).unwrap(), 1.0);
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Dirichlet { temperature: 300.0 })
            .unwrap();
        problem
            .set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(100.0) })
            .unwrap();

        let plain = problem.solve(SolveOptions::default()).unwrap();
        assert!(plain.cg_trace().is_none());

        let traced =
            problem.solve(SolveOptions { record_cg_trace: true, ..Default::default() }).unwrap();
        let trace = traced.cg_trace().expect("trace requested");
        assert_eq!(trace.len(), traced.iterations() + 1);
        assert_eq!(trace.last(), Some(&traced.relative_residual()));
        // From the zero start, ‖b‖/‖b‖; tracing leaves the arithmetic alone.
        assert_eq!(trace[0], 1.0);
        assert_eq!(plain.temperatures(), traced.temperatures());
        assert_eq!(plain.iterations(), traced.iterations());
    }

    #[test]
    fn uniform_dirichlet_gives_uniform_field() {
        let mut problem =
            HeatProblem::new(StructuredGrid::new(5, 5, 5, 1.0, 1.0, 1.0).unwrap(), 1.0);
        for face in Face::ALL {
            problem
                .set_boundary(face, BoundaryCondition::Dirichlet { temperature: 350.0 })
                .unwrap();
        }
        let sol = problem.solve(SolveOptions::default()).unwrap();
        for &t in sol.temperatures() {
            assert!((t - 350.0).abs() < 1e-8);
        }
    }

    #[test]
    fn matches_1d_slab_analytic_solution() {
        // Uniform top flux, bottom convection, adiabatic sides: exact 1-D.
        let q = 2000.0; // W/m²
        let k = 0.1;
        let h = 500.0;
        let t_amb = 298.15;
        let grid = paper_grid();
        let mut problem = HeatProblem::new(grid, k);
        problem
            .set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(q) })
            .unwrap();
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: h, ambient: t_amb })
            .unwrap();
        let sol = problem.solve(SolveOptions::default()).unwrap();

        for kk in 0..11 {
            let z = kk as f64 * grid.dz();
            let expected = slab_conduction_profile(q, k, h, t_amb, z);
            for &(i, j) in &[(0usize, 0usize), (10, 10), (20, 5)] {
                let t = sol.at(i, j, kk);
                assert!((t - expected).abs() < 1e-6, "T({i},{j},{kk}) = {t}, expected {expected}");
            }
        }
    }

    #[test]
    fn energy_balance_flux_vs_convection() {
        // Total heat in (flux) must leave through the convection face:
        // sum over bottom of h A (T - Tamb) == sum over top of q A.
        let grid = StructuredGrid::new(9, 9, 5, 1e-3, 1e-3, 0.5e-3).unwrap();
        let mut flux_field = Matrix::zeros(9, 9);
        flux_field[(4, 4)] = 5000.0;
        flux_field[(1, 7)] = 2500.0;
        let mut problem = HeatProblem::new(grid, 0.1);
        problem
            .set_boundary(
                Face::ZMax,
                BoundaryCondition::HeatFlux { flux: FluxMap::Field(flux_field.clone()) },
            )
            .unwrap();
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 750.0, ambient: 300.0 })
            .unwrap();
        let sol = problem.solve(SolveOptions { tolerance: 1e-12, ..Default::default() }).unwrap();

        let mut heat_in = 0.0;
        let mut heat_out = 0.0;
        for i in 0..9 {
            for j in 0..9 {
                let area = StructuredGrid::face_patch_area(i, 9, grid.dx(), j, 9, grid.dy());
                heat_in += flux_field[(i, j)] * area;
                heat_out += 750.0 * area * (sol.at(i, j, 0) - 300.0);
            }
        }
        assert!(
            (heat_in - heat_out).abs() < 1e-9 * heat_in.abs().max(1.0),
            "in {heat_in} vs out {heat_out}"
        );
    }

    #[test]
    fn two_layer_stack_matches_series_resistance() {
        // Layered conductivity along z behaves like thermal resistors in
        // series under uniform 1-D flux.
        let nz = 11;
        let grid = StructuredGrid::new(5, 5, nz, 1e-3, 1e-3, 1e-3).unwrap();
        let mut k = vec![0.0; grid.node_count()];
        for idx in 0..grid.node_count() {
            let (_, _, kk) = grid.coordinates(idx);
            k[idx] = if kk < nz / 2 { 0.2 } else { 1.0 };
        }
        let q = 1000.0;
        let h = 400.0;
        let t_amb = 298.15;
        let mut problem = HeatProblem::new(grid, 1.0);
        problem.set_conductivity_field(k).unwrap();
        problem
            .set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(q) })
            .unwrap();
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: h, ambient: t_amb })
            .unwrap();
        let sol = problem.solve(SolveOptions { tolerance: 1e-12, ..Default::default() }).unwrap();

        let t_bottom = sol.at(2, 2, 0);
        let t_top = sol.at(2, 2, nz - 1);
        assert!((t_bottom - (t_amb + q / h)).abs() < 1e-6);
        // The harmonic-mean face conductivity puts the material interface
        // mid-way between the two nodes that straddle it, so the effective
        // stack is 0.45mm of k=0.2 and 0.55mm of k=1.0.
        let dz = grid.dz();
        let l_low = (nz / 2) as f64 * dz - dz / 2.0;
        let l_high = grid.lz() - l_low;
        let expected_drop = q * (l_low / 0.2 + l_high / 1.0);
        assert!(
            (t_top - t_bottom - expected_drop).abs() < 1e-4 * expected_drop,
            "drop {} vs expected {expected_drop}",
            t_top - t_bottom
        );
    }

    #[test]
    fn volumetric_power_heats_the_chip() {
        let grid = StructuredGrid::new(7, 7, 7, 1e-3, 1e-3, 0.5e-3).unwrap();
        let mut q = vec![0.0; grid.node_count()];
        for idx in 0..grid.node_count() {
            let (_, _, k) = grid.coordinates(idx);
            if k == 3 {
                q[idx] = 1e7; // a heated middle layer
            }
        }
        let mut problem = HeatProblem::new(grid, 0.1);
        problem.set_volumetric_power(q).unwrap();
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })
            .unwrap();
        problem
            .set_boundary(Face::ZMax, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })
            .unwrap();
        let sol = problem.solve(SolveOptions::default()).unwrap();
        assert!(sol.max_temperature() > 300.0);
        // Hottest plane should be the powered layer.
        let hottest = (0..7).max_by(|&a, &b| sol.at(3, 3, a).total_cmp(&sol.at(3, 3, b))).unwrap();
        assert_eq!(hottest, 3);
    }

    #[test]
    fn discrete_maximum_principle_without_sources() {
        // With no sources, temperatures must lie between the boundary data.
        let grid = StructuredGrid::new(6, 6, 6, 1.0, 1.0, 1.0).unwrap();
        let mut problem = HeatProblem::new(grid, 2.0);
        problem
            .set_boundary(Face::XMin, BoundaryCondition::Dirichlet { temperature: 300.0 })
            .unwrap();
        problem
            .set_boundary(Face::XMax, BoundaryCondition::Dirichlet { temperature: 400.0 })
            .unwrap();
        let sol = problem.solve(SolveOptions::default()).unwrap();
        assert!(sol.min_temperature() >= 300.0 - 1e-9);
        assert!(sol.max_temperature() <= 400.0 + 1e-9);
        // And the profile is linear in x for this configuration.
        for i in 0..6 {
            let expected = 300.0 + 100.0 * i as f64 / 5.0;
            assert!((sol.at(i, 3, 3) - expected).abs() < 1e-7);
        }
    }

    #[test]
    fn field_validation() {
        let grid = StructuredGrid::new(3, 3, 3, 1.0, 1.0, 1.0).unwrap();
        let mut p = HeatProblem::new(grid, 1.0);
        assert!(matches!(
            p.set_conductivity_field(vec![1.0; 5]),
            Err(FdmError::FieldMismatch { .. })
        ));
        assert!(matches!(
            p.set_conductivity_field(vec![-1.0; 27]),
            Err(FdmError::InvalidParameter { .. })
        ));
        assert!(matches!(
            p.set_volumetric_power(vec![0.0; 4]),
            Err(FdmError::FieldMismatch { .. })
        ));
        assert!(matches!(
            p.set_volumetric_power(vec![f64::NAN; 27]),
            Err(FdmError::InvalidParameter { .. })
        ));
        assert!(matches!(
            p.set_boundary(Face::ZMax, BoundaryCondition::Convection { htc: -5.0, ambient: 300.0 }),
            Err(FdmError::InvalidParameter { .. })
        ));
        let bad_map = FluxMap::Field(Matrix::zeros(2, 2));
        assert!(matches!(
            p.set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: bad_map }),
            Err(FdmError::BoundaryMismatch { .. })
        ));
    }

    fn convective_chip() -> HeatProblem {
        let mut problem = HeatProblem::new(paper_grid(), 0.1);
        problem
            .set_boundary(
                Face::ZMax,
                BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(2000.0) },
            )
            .unwrap();
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })
            .unwrap();
        problem
    }

    #[test]
    fn ladder_recovers_from_single_injected_failure() {
        let problem = convective_chip();
        let clean = problem.solve(SolveOptions::default()).unwrap();
        let recovered =
            problem.solve(SolveOptions { inject_cg_failures: 1, ..Default::default() }).unwrap();
        assert!(!recovered.is_degraded());
        assert!(recovered.relative_residual() <= SolveOptions::default().tolerance);
        for (a, b) in recovered.temperatures().iter().zip(clean.temperatures()) {
            assert!((a - b).abs() < 1e-6, "recovered {a} vs clean {b}");
        }
    }

    #[test]
    fn retried_solve_does_not_reassemble_preconditioners() {
        // Escalating through every rung must reuse the cached
        // preconditioners: one SSOR (shared by rungs 0 and 1), one Jacobi,
        // one IC(0) — three constructions total, not one per attempt.
        let problem = convective_chip();
        let assembly = problem.assemble().unwrap();
        let cache = PreconditionerCache::new(&assembly.matrix, 1.5).unwrap();
        assert_eq!(cache.constructions(), 1, "only SSOR is built eagerly");

        let options = SolveOptions { inject_cg_failures: 4, ..Default::default() };
        let first =
            cg_ladder(&assembly.matrix, assembly.rhs.clone(), None, &cache, &options).unwrap();
        assert!(first.degraded, "all four rungs must have run");
        assert_eq!(cache.constructions(), 3, "ssor + jacobi + ic0, each built once");

        // A second solve against the same operator — the batched-RHS shape
        // — constructs nothing further.
        let second =
            cg_ladder(&assembly.matrix, assembly.rhs.clone(), None, &cache, &options).unwrap();
        assert!(second.degraded);
        assert_eq!(cache.constructions(), 3, "retry/batch reuse must not rebuild");
    }

    #[test]
    fn ladder_warm_start_seeds_the_first_rung() {
        // Seeding the ladder with an already-converged iterate must be
        // accepted on the spot (modulo one cheap confirming attempt).
        let problem = convective_chip();
        let assembly = problem.assemble().unwrap();
        let cache = PreconditionerCache::new(&assembly.matrix, 1.5).unwrap();
        let options = SolveOptions::default();
        let cold =
            cg_ladder(&assembly.matrix, assembly.rhs.clone(), None, &cache, &options).unwrap();
        let warm = cg_ladder(
            &assembly.matrix,
            assembly.rhs.clone(),
            Some(&cold.solution),
            &cache,
            &options,
        )
        .unwrap();
        assert!(!warm.degraded);
        assert!(warm.iterations <= 2, "warm restart took {} iterations", warm.iterations);
        assert!(warm.relative_residual <= options.tolerance);
    }

    #[test]
    fn exhausted_ladder_returns_degraded_solution_not_error() {
        // Force every rung to be treated as non-convergent. The iterates
        // are still real CG output, so the best residual easily meets the
        // relaxed degraded tolerance and the solve succeeds — flagged.
        let problem = convective_chip();
        let clean = problem.solve(SolveOptions::default()).unwrap();
        let degraded =
            problem.solve(SolveOptions { inject_cg_failures: 4, ..Default::default() }).unwrap();
        assert!(degraded.is_degraded());
        assert!(degraded.relative_residual() <= SolveOptions::default().degraded_tolerance);
        for (a, b) in degraded.temperatures().iter().zip(clean.temperatures()) {
            assert!((a - b).abs() < 1e-4, "degraded {a} vs clean {b}");
        }
    }

    #[test]
    fn disabled_fallback_fails_hard_on_injected_failure() {
        let problem = convective_chip();
        // Starve the solver so even the degraded tolerance is unreachable.
        let err = problem
            .solve(SolveOptions {
                fallback: false,
                inject_cg_failures: 1,
                max_iterations: 2,
                degraded_tolerance: 1e-300,
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, FdmError::SolveFailed { .. }), "got {err:?}");
    }

    #[test]
    fn all_faces_pinned_short_circuits() {
        let grid = StructuredGrid::new(2, 2, 2, 1.0, 1.0, 1.0).unwrap();
        let mut p = HeatProblem::new(grid, 1.0);
        for face in Face::ALL {
            p.set_boundary(face, BoundaryCondition::Dirichlet { temperature: 311.0 }).unwrap();
        }
        let sol = p.solve(SolveOptions::default()).unwrap();
        assert_eq!(sol.iterations(), 0);
        assert!(sol.temperatures().iter().all(|&t| t == 311.0));
    }
}

/// The direct CSR assembly against the COO assembly it replaced, bit for
/// bit: `row_ptr`, columns and value bits of every row, right-hand-side
/// bits and the node map.
///
/// The reference is that assembly, run serially (its pooled chunks merged
/// in this same order): pin each Dirichlet face's nodes in [`Face::ALL`]
/// order, number the free nodes in flat order, add `q·V` to the
/// right-hand side, push each link's entries into a [`CooMatrix`] in
/// (k, j, i) order of its lower node (folding pinned neighbours into the
/// right-hand side), apply the faces in [`Face::ALL`] order and let
/// [`CooMatrix::to_csr`] sum each row's duplicates in push order.
#[cfg(test)]
mod assembly_oracle {
    use super::*;
    use crate::FluxMap;
    use deepoheat_linalg::{CooMatrix, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Reference {
        matrix: CsrMatrix,
        rhs: Vec<f64>,
        free_index: Vec<Option<usize>>,
        dirichlet: Vec<Option<f64>>,
    }

    fn reference_assemble(p: &HeatProblem) -> Reference {
        let g = &p.grid;
        let n = g.node_count();
        let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
        let (dx, dy, dz) = (g.dx(), g.dy(), g.dz());
        let mut dirichlet: Vec<Option<f64>> = vec![None; n];
        for face in Face::ALL {
            if let BoundaryCondition::Dirichlet { temperature } = p.boundaries[face.index()] {
                for (idx, _, _) in p.face_nodes(face) {
                    dirichlet[idx] = Some(temperature);
                }
            }
        }
        let mut n_free = 0;
        let free_index: Vec<Option<usize>> = dirichlet
            .iter()
            .map(|d| {
                d.is_none().then(|| {
                    n_free += 1;
                    n_free - 1
                })
            })
            .collect();
        let mut rhs = vec![0.0; n_free];
        for idx in 0..n {
            let Some(row) = free_index[idx] else { continue };
            let (i, j, k) = g.coordinates(idx);
            rhs[row] += p.volumetric_power[idx] * g.control_volume(i, j, k);
        }
        let cv = |i: usize, nn: usize, d: f64| if i == 0 || i == nn - 1 { d / 2.0 } else { d };
        let mut coo = CooMatrix::new(n_free, n_free);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let a = g.index(i, j, k);
                    let neighbours = [
                        (i + 1 < nx)
                            .then(|| (g.index(i + 1, j, k), cv(j, ny, dy) * cv(k, nz, dz) / dx)),
                        (j + 1 < ny)
                            .then(|| (g.index(i, j + 1, k), cv(i, nx, dx) * cv(k, nz, dz) / dy)),
                        (k + 1 < nz)
                            .then(|| (g.index(i, j, k + 1), cv(i, nx, dx) * cv(j, ny, dy) / dz)),
                    ];
                    for (b, geom) in neighbours.into_iter().flatten() {
                        let gc = harmonic_mean(p.conductivity[a], p.conductivity[b]) * geom;
                        match (free_index[a], free_index[b]) {
                            (Some(ra), Some(rb)) => {
                                coo.push(ra, ra, gc);
                                coo.push(rb, rb, gc);
                                coo.push(ra, rb, -gc);
                                coo.push(rb, ra, -gc);
                            }
                            (Some(ra), None) => {
                                coo.push(ra, ra, gc);
                                rhs[ra] += gc * dirichlet[b].unwrap();
                            }
                            (None, Some(rb)) => {
                                coo.push(rb, rb, gc);
                                rhs[rb] += gc * dirichlet[a].unwrap();
                            }
                            (None, None) => {}
                        }
                    }
                }
            }
        }
        for face in Face::ALL {
            match &p.boundaries[face.index()] {
                BoundaryCondition::Adiabatic | BoundaryCondition::Dirichlet { .. } => {}
                BoundaryCondition::HeatFlux { flux } => {
                    for (idx, a, b) in p.face_nodes(face) {
                        let Some(row) = free_index[idx] else { continue };
                        rhs[row] += flux.value(a, b) * p.patch_area(face, a, b);
                    }
                }
                BoundaryCondition::Convection { htc, ambient } => {
                    for (idx, a, b) in p.face_nodes(face) {
                        let Some(row) = free_index[idx] else { continue };
                        let ha = htc * p.patch_area(face, a, b);
                        coo.push(row, row, ha);
                        rhs[row] += ha * ambient;
                    }
                }
            }
        }
        Reference { matrix: coo.to_csr(), rhs, free_index, dirichlet }
    }

    /// Fails unless `p`'s assembly matches the reference bit for bit.
    fn assert_same_bits(case: &str, p: &HeatProblem) {
        let got = p.assemble().unwrap();
        let want = reference_assemble(p);
        let rows = want.matrix.rows();
        assert_eq!(got.matrix.shape(), (rows, rows), "{case}: shape");
        assert_eq!(got.matrix.nnz(), want.matrix.nnz(), "{case}: nonzeros");
        // Equal (column, value bits) lists in every row: the same
        // `row_ptr`, columns and values.
        let row_bits = |m: &CsrMatrix, r: usize| -> Vec<(usize, u64)> {
            m.row_entries(r).map(|(c, v)| (c, v.to_bits())).collect()
        };
        for r in 0..rows {
            assert_eq!(row_bits(&got.matrix, r), row_bits(&want.matrix, r), "{case}: row {r}");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.rhs), bits(&want.rhs), "{case}: right-hand side");
        let got_nodes: Vec<(Option<usize>, Option<u64>)> = got
            .nodes
            .iter()
            .map(|node| match *node {
                Node::Free(row) => (Some(row), None),
                Node::Pinned(t) => (None, Some(t.to_bits())),
            })
            .collect();
        let want_nodes: Vec<(Option<usize>, Option<u64>)> = want
            .free_index
            .iter()
            .zip(&want.dirichlet)
            .map(|(&row, t)| (row, t.map(f64::to_bits)))
            .collect();
        assert_eq!(got_nodes, want_nodes, "{case}: node map");
    }

    /// `len` seeded values in `scale · [-0.1, 1)`, about one in three of
    /// them an exact `0.0` or `-0.0`.
    fn seeded_values(rng: &mut StdRng, len: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -0.0,
                _ => scale * rng.gen_range(-0.1..1.0),
            })
            .collect()
    }

    fn flux_field(p: &HeatProblem, face: Face, rng: &mut StdRng) -> FluxMap {
        let (a, b) = p.face_shape(face);
        FluxMap::Field(Matrix::from_vec(a, b, seeded_values(rng, a * b, 2e5)).unwrap())
    }

    /// An `nx × ny × nz` grid over 1 × 0.8 × 0.5 mm, adiabatic, with
    /// seeded conductivity in `[0.05, 5)` W/mK and seeded volumetric
    /// power (W/m³) when `seed` is set; uniform k = 0.1 and no power
    /// otherwise.
    fn problem(nx: usize, ny: usize, nz: usize, seed: Option<u64>) -> HeatProblem {
        let grid = StructuredGrid::new(nx, ny, nz, 1e-3, 0.8e-3, 0.5e-3).unwrap();
        let mut p = HeatProblem::new(grid, 0.1);
        if let Some(seed) = seed {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = grid.node_count();
            p.set_conductivity_field((0..n).map(|_| rng.gen_range(0.05..5.0)).collect()).unwrap();
            p.set_volumetric_power(seeded_values(&mut rng, n, 1e9)).unwrap();
        }
        p
    }

    fn with(mut p: HeatProblem, faces: &[(Face, BoundaryCondition)]) -> HeatProblem {
        for (face, bc) in faces {
            p.set_boundary(*face, bc.clone()).unwrap();
        }
        p
    }

    fn dirichlet(temperature: f64) -> BoundaryCondition {
        BoundaryCondition::Dirichlet { temperature }
    }

    fn convection(htc: f64, ambient: f64) -> BoundaryCondition {
        BoundaryCondition::Convection { htc, ambient }
    }

    /// The benchmark's 41 × 41 × 21 chip (1 × 1 × 0.5 mm, k = 0.1 W/mK,
    /// bottom convection) under a seeded top flux field.
    fn suite_chip(seed: u64) -> HeatProblem {
        let grid = StructuredGrid::new(41, 41, 21, 1e-3, 1e-3, 0.5e-3).unwrap();
        let p = HeatProblem::new(grid, 0.1);
        let top = flux_field(&p, Face::ZMax, &mut StdRng::seed_from_u64(seed));
        let faces = [
            (Face::ZMax, BoundaryCondition::HeatFlux { flux: top }),
            (Face::ZMin, convection(500.0, 298.15)),
        ];
        with(p, &faces)
    }

    #[test]
    fn suite_chip_matches() {
        assert_same_bits("suite chip", &suite_chip(1));
    }

    #[test]
    fn suite_chip_variants_match() {
        let side = with(
            suite_chip(2),
            &[(Face::XMin, dirichlet(310.0)), (Face::YMax, convection(800.0, 300.0))],
        );
        assert_same_bits("suite chip, x-min dirichlet, y-max convection", &side);

        let mut rng = StdRng::seed_from_u64(3);
        let mut powered = suite_chip(3);
        let n = powered.grid().node_count();
        powered.set_conductivity_field((0..n).map(|_| rng.gen_range(0.05..5.0)).collect()).unwrap();
        powered.set_volumetric_power(seeded_values(&mut rng, n, 1e9)).unwrap();
        assert_same_bits("suite chip, variable k, volumetric power", &powered);
        let both = with(
            powered,
            &[(Face::XMin, dirichlet(310.0)), (Face::YMax, convection(800.0, 300.0))],
        );
        assert_same_bits("suite chip, all of the above", &both);
    }

    #[test]
    fn each_face_kind_on_each_face_matches() {
        for (f, face) in Face::ALL.into_iter().enumerate() {
            let seed = Some(10 + f as u64);
            let mut rng = StdRng::seed_from_u64(20 + f as u64);
            let base = problem(6, 5, 4, seed);
            let field = flux_field(&base, face, &mut rng);
            let kinds = [
                ("dirichlet", dirichlet(300.0 + f as f64)),
                ("convection", convection(250.0 + 100.0 * f as f64, 295.0)),
                ("uniform flux", BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(-1.5e4) }),
                ("field flux", BoundaryCondition::HeatFlux { flux: field }),
            ];
            for (kind, bc) in kinds {
                assert_same_bits(&format!("{kind} on {face}"), &with(base.clone(), &[(face, bc)]));
            }
            // Every face but this one pinned, each at its own temperature,
            // so edges and corners take the later face's value.
            let others: Vec<_> = Face::ALL
                .into_iter()
                .enumerate()
                .filter(|&(_, other)| other != face)
                .map(|(o, other)| (other, dirichlet(290.0 + 7.5 * o as f64)))
                .collect();
            assert_same_bits(&format!("dirichlet on all but {face}"), &with(base, &others));
        }
    }

    #[test]
    fn opposite_and_meeting_faces_match() {
        let base = problem(6, 5, 4, Some(31));
        for (lo, hi) in
            [(Face::XMin, Face::XMax), (Face::YMin, Face::YMax), (Face::ZMin, Face::ZMax)]
        {
            let pinned = with(base.clone(), &[(lo, dirichlet(280.0)), (hi, dirichlet(330.0))]);
            assert_same_bits(&format!("dirichlet on {lo} and {hi}"), &pinned);
        }
        // Convection on faces meeting at an edge, at a corner, and on all
        // six; then every kind at once, meeting at edges and corners.
        let edge = [(Face::XMax, convection(400.0, 300.0)), (Face::YMax, convection(900.0, 290.0))];
        assert_same_bits("convection at an edge", &with(base.clone(), &edge));
        let corner = [
            (Face::XMin, convection(300.0, 300.0)),
            (Face::YMin, convection(700.0, 310.0)),
            (Face::ZMin, convection(1100.0, 280.0)),
        ];
        assert_same_bits("convection at a corner", &with(base.clone(), &corner));
        let all: Vec<_> =
            Face::ALL.into_iter().map(|face| (face, convection(123.0, 298.15))).collect();
        assert_same_bits("convection on every face", &with(base.clone(), &all));
        let mut rng = StdRng::seed_from_u64(32);
        let top = flux_field(&base, Face::ZMax, &mut rng);
        let mixed = [
            (Face::XMin, dirichlet(305.0)),
            (Face::XMax, convection(600.0, 300.0)),
            (Face::YMin, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(3e3) }),
            (Face::YMax, convection(250.0, 285.0)),
            (Face::ZMin, dirichlet(295.0)),
            (Face::ZMax, BoundaryCondition::HeatFlux { flux: top }),
        ];
        assert_same_bits("every kind at once", &with(base, &mixed));
    }

    #[test]
    fn variable_conductivity_with_volumetric_power_matches() {
        let p = with(
            problem(9, 8, 7, Some(41)),
            &[(Face::ZMin, convection(500.0, 298.15)), (Face::ZMax, convection(50.0, 310.0))],
        );
        assert_same_bits("variable k, volumetric power", &p);
    }

    #[test]
    fn smallest_and_non_cubic_grids_match() {
        let mut rng = StdRng::seed_from_u64(51);
        let tiny = problem(2, 2, 2, Some(52));
        let side = flux_field(&tiny, Face::YMin, &mut rng);
        let faces = [
            (Face::XMin, dirichlet(300.0)),
            (Face::YMin, BoundaryCondition::HeatFlux { flux: side }),
            (Face::ZMax, convection(500.0, 298.15)),
        ];
        assert_same_bits("2 x 2 x 2", &with(tiny.clone(), &faces));
        assert_same_bits("2 x 2 x 2, convection only", &with(tiny, &faces[2..]));

        let odd = problem(5, 3, 7, Some(53));
        let top = flux_field(&odd, Face::ZMax, &mut rng);
        let faces = [
            (Face::YMax, dirichlet(320.0)),
            (Face::XMin, convection(700.0, 300.0)),
            (Face::ZMax, BoundaryCondition::HeatFlux { flux: top }),
        ];
        assert_same_bits("5 x 3 x 7", &with(odd.clone(), &faces));
        assert_same_bits("5 x 3 x 7, uniform k", &with(problem(5, 3, 7, None), &faces));
    }
}
