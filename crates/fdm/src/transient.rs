//! Transient heat conduction: the paper's Eq. (1) *before* its static
//! simplification,
//!
//! ```text
//! ρ c_p ∂T/∂t = ∇·(k ∇T) + q_V
//! ```
//!
//! integrated with implicit (backward) Euler: at each step the SPD system
//! `(C/Δt + A) Tⁿ⁺¹ = (C/Δt) Tⁿ + b` is solved by preconditioned CG,
//! where `A`/`b` is the static finite-volume assembly and `C` the lumped
//! per-node heat capacity `ρ c_p V_cv`. Backward Euler is unconditionally
//! stable, so the step size is an accuracy — not a stability — choice.
//!
//! The static `solve` is the `t → ∞` limit; the tests assert exactly
//! that, plus the lumped-capacitance analytic decay.

use deepoheat_linalg::{
    conjugate_gradient_attempt, CgOptions, CsrMatrix, LinalgError, SsorPreconditioner,
};
use deepoheat_parallel as parallel;
use deepoheat_telemetry as telemetry;

use crate::problem::{scatter, Node};
use crate::{FdmError, HeatProblem, Solution, SolveOptions, StructuredGrid};

/// Fixed chunk length for the pooled per-step right-hand-side update.
const RHS_CHUNK: usize = 16 * 1024;

/// Options for [`HeatProblem::solve_transient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Time-step size in seconds.
    pub dt: f64,
    /// Number of backward-Euler steps to take.
    pub steps: usize,
    /// Material mass density `ρ` in `kg/m³`.
    pub density: f64,
    /// Specific heat capacity `c_p` in `J/(kg K)`.
    pub heat_capacity: f64,
    /// Linear-solver options used at every step.
    pub solver: SolveOptions,
    /// Keep every intermediate field (`true`) or only the final one.
    pub record_history: bool,
    /// Fault-injection hook for resilience tests: force the linear solve
    /// of the given step to be treated as non-convergent. Leave `None` in
    /// production code.
    pub inject_failure_at_step: Option<usize>,
}

impl TransientOptions {
    /// Silicon-like defaults (`ρ = 2330 kg/m³`, `c_p = 700 J/(kg K)`)
    /// with the given step size and count, recording the full history.
    pub fn silicon(dt: f64, steps: usize) -> Self {
        TransientOptions {
            dt,
            steps,
            density: 2330.0,
            heat_capacity: 700.0,
            solver: SolveOptions::default(),
            record_history: true,
            inject_failure_at_step: None,
        }
    }
}

/// The result of a transient simulation: the time axis and the recorded
/// temperature fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolution {
    grid: StructuredGrid,
    times: Vec<f64>,
    fields: Vec<Vec<f64>>,
}

impl TransientSolution {
    /// The simulated time instants (excluding `t = 0`), one per recorded
    /// field.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The recorded temperature fields, flat node order, oldest first.
    pub fn fields(&self) -> &[Vec<f64>] {
        &self.fields
    }

    /// The final temperature field wrapped as a [`Solution`].
    pub fn final_solution(&self) -> Solution {
        Solution::from_parts(
            self.grid,
            self.fields.last().expect("invariant: fields is seeded with the initial state").clone(),
            0,
            0.0,
            None,
            false,
        )
    }

    /// Temperature history of one node across the recorded steps.
    ///
    /// # Panics
    ///
    /// Panics if any grid index is out of range.
    pub fn probe(&self, i: usize, j: usize, k: usize) -> Vec<f64> {
        let idx = self.grid.index(i, j, k);
        self.fields.iter().map(|f| f[idx]).collect()
    }
}

/// Diagnostics for a transient step whose linear solve failed, carried by
/// [`TransientOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientStepFailure {
    /// Zero-based index of the failed step.
    pub step: usize,
    /// Simulation time the failed step was integrating towards.
    pub time: f64,
    /// CG iterations performed in the failing solve.
    pub iterations: usize,
    /// Relative residual the failing solve stopped at.
    pub residual: f64,
}

/// Result of [`HeatProblem::solve_transient_partial`]: the trajectory up
/// to the last good step, plus the failure diagnostics if a step's linear
/// solve did not converge.
///
/// When `failure` is `Some`, `solution` still holds every state integrated
/// *before* the failed step — the last good state is always recorded (even
/// with [`TransientOptions::record_history`] off), and a failure at step 0
/// records the initial condition at `t = 0`, so
/// [`TransientSolution::final_solution`] is always safe to call.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOutcome {
    /// The (possibly truncated) trajectory.
    pub solution: TransientSolution,
    /// `Some` iff the integration stopped early on a non-convergent step.
    pub failure: Option<TransientStepFailure>,
}

impl HeatProblem {
    /// Integrates the transient heat equation from a uniform initial
    /// temperature.
    ///
    /// # Errors
    ///
    /// * [`FdmError::InvalidParameter`] for non-positive `dt`, zero
    ///   `steps`, or non-positive material properties.
    /// * [`FdmError::TransientStepFailed`] if a step's CG solve fails —
    ///   the error names the offending step; use
    ///   [`HeatProblem::solve_transient_partial`] when the last good state
    ///   is needed too.
    pub fn solve_transient(
        &self,
        initial_temperature: f64,
        options: TransientOptions,
    ) -> Result<TransientSolution, FdmError> {
        let outcome = self.solve_transient_partial(initial_temperature, options)?;
        match outcome.failure {
            None => Ok(outcome.solution),
            Some(f) => Err(FdmError::TransientStepFailed {
                step: f.step,
                iterations: f.iterations,
                residual: f.residual,
            }),
        }
    }

    /// Like [`HeatProblem::solve_transient`], but a mid-trajectory solver
    /// failure is returned as *data* ([`TransientOutcome::failure`])
    /// alongside the trajectory up to the last good step, instead of
    /// discarding the work done so far.
    ///
    /// # Errors
    ///
    /// Only configuration errors ([`FdmError::InvalidParameter`]) and
    /// structural linear-algebra failures error; per-step non-convergence
    /// is reported through the outcome.
    pub fn solve_transient_partial(
        &self,
        initial_temperature: f64,
        options: TransientOptions,
    ) -> Result<TransientOutcome, FdmError> {
        options.solver.validate()?;
        if !(options.dt.is_finite() && options.dt > 0.0) {
            return Err(FdmError::InvalidParameter {
                what: format!("dt must be positive, got {}", options.dt),
            });
        }
        if options.steps == 0 {
            return Err(FdmError::InvalidParameter {
                what: "transient run needs at least one step".into(),
            });
        }
        if !(options.density > 0.0 && options.heat_capacity > 0.0) {
            return Err(FdmError::InvalidParameter {
                what: format!(
                    "density and heat capacity must be positive, got {} and {}",
                    options.density, options.heat_capacity
                ),
            });
        }
        if !initial_temperature.is_finite() {
            return Err(FdmError::InvalidParameter {
                what: "initial temperature must be finite".into(),
            });
        }

        let grid = *self.grid();
        let assembly = self.assemble()?;
        let n_free = assembly.matrix.rows();

        // Lumped heat capacity per free node, divided by dt.
        let rho_cp = options.density * options.heat_capacity;
        let mut cap_over_dt = vec![0.0; n_free];
        for (idx, node) in assembly.nodes.iter().enumerate() {
            if let Node::Free(row) = *node {
                let (i, j, k) = grid.coordinates(idx);
                cap_over_dt[row] = rho_cp * grid.control_volume(i, j, k) / options.dt;
            }
        }

        // Stepping operator M = C/dt + A (SPD because both parts are).
        let stepping = add_diagonal(&assembly.matrix, &cap_over_dt)?;
        let pre = SsorPreconditioner::new(&stepping, options.solver.ssor_omega)?;
        let cg_options = CgOptions {
            max_iterations: options.solver.max_iterations,
            tolerance: options.solver.tolerance,
            record_trace: false,
        };

        let mut free_state: Vec<f64> = vec![initial_temperature; n_free];
        let mut temps = scatter(&assembly.nodes, &free_state);
        let mut times = Vec::new();
        let mut fields = Vec::new();

        let mut rhs = vec![0.0; n_free];
        for step in 0..options.steps {
            // rhs = C/dt * T^n + b. Elementwise, so pooled chunks produce
            // the same bits as a serial pass at any thread count.
            parallel::par_chunks_mut(&mut rhs, RHS_CHUNK, |ci, chunk| {
                let off = ci * RHS_CHUNK;
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = cap_over_dt[off + j] * free_state[off + j] + assembly.rhs[off + j];
                }
            });
            let step_span = telemetry::span("fdm.transient.step");
            let mut cg =
                conjugate_gradient_attempt(&stepping, &rhs, Some(&free_state), &pre, cg_options)?;
            drop(step_span);
            if options.inject_failure_at_step == Some(step) {
                cg.converged = false;
            }
            if !cg.converged {
                telemetry::counter("fdm.transient.step_failed.count", 1);
                // Record the last good state so callers can inspect where
                // the trajectory stood when the step stalled. A step-0
                // failure records the initial condition at t = 0.
                if fields.last() != Some(&temps) {
                    times.push(step as f64 * options.dt);
                    fields.push(temps.clone());
                }
                return Ok(TransientOutcome {
                    solution: TransientSolution { grid, times, fields },
                    failure: Some(TransientStepFailure {
                        step,
                        time: (step + 1) as f64 * options.dt,
                        iterations: cg.iterations,
                        residual: cg.relative_residual,
                    }),
                });
            }
            telemetry::counter("fdm.transient.steps.count", 1);
            telemetry::counter("fdm.transient.cg_iterations.count", cg.iterations as u64);
            free_state = cg.solution;
            temps = scatter(&assembly.nodes, &free_state);
            if options.record_history || step + 1 == options.steps {
                times.push((step + 1) as f64 * options.dt);
                fields.push(temps.clone());
            }
        }

        Ok(TransientOutcome { solution: TransientSolution { grid, times, fields }, failure: None })
    }
}

/// Returns `a + diag(d)` as a new CSR matrix with `a`'s pattern: each
/// stored diagonal `a_rr` becomes `a_rr + d_r`.
///
/// # Errors
///
/// [`LinalgError::InvalidDimension`] if a row of `a` stores no diagonal.
fn add_diagonal(a: &CsrMatrix, d: &[f64]) -> Result<CsrMatrix, FdmError> {
    let n = a.rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    row_ptr.push(0);
    for (r, &dr) in (0..n).zip(d) {
        let start = values.len();
        for (c, v) in a.row_entries(r) {
            col_idx.push(c);
            values.push(if c == r { v + dr } else { v });
        }
        if !col_idx[start..].contains(&r) {
            return Err(FdmError::Linalg(LinalgError::InvalidDimension {
                op: "transient stepping matrix",
                what: format!("row {r} stores no diagonal"),
            }));
        }
        row_ptr.push(values.len());
    }
    Ok(CsrMatrix::from_raw(n, n, row_ptr, col_idx, values)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BoundaryCondition, Face, FluxMap};

    fn heated_chip() -> HeatProblem {
        let grid = StructuredGrid::new(7, 7, 5, 1e-3, 1e-3, 0.5e-3).unwrap();
        let mut problem = HeatProblem::new(grid, 0.1);
        problem
            .set_boundary(
                Face::ZMax,
                BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(2500.0) },
            )
            .unwrap();
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })
            .unwrap();
        problem
    }

    #[test]
    fn validates_options() {
        let problem = heated_chip();
        let mut bad = TransientOptions::silicon(0.0, 5);
        assert!(problem.solve_transient(298.15, bad).is_err());
        bad = TransientOptions::silicon(1e-3, 0);
        assert!(problem.solve_transient(298.15, bad).is_err());
        bad = TransientOptions::silicon(1e-3, 5);
        bad.density = -1.0;
        assert!(problem.solve_transient(298.15, bad).is_err());
        assert!(problem.solve_transient(f64::NAN, TransientOptions::silicon(1e-3, 5)).is_err());
    }

    #[test]
    fn converges_to_the_steady_solution() {
        // The chip's convective time constant is ρ c_p V / (h A) ≈ 1.6 s,
        // so integrate tens of seconds; the steady solve is the fixed
        // point of the backward-Euler map for any dt.
        let problem = heated_chip();
        let steady = problem.solve(SolveOptions::default()).unwrap();
        let mut options = TransientOptions::silicon(0.5, 80);
        options.record_history = false;
        let transient = problem.solve_transient(298.15, options).unwrap();
        let final_field = transient.final_solution();
        for (a, b) in final_field.temperatures().iter().zip(steady.temperatures()) {
            assert!((a - b).abs() < 1e-2, "transient {a} vs steady {b}");
        }
    }

    #[test]
    fn heating_is_monotone_from_cold_start() {
        let problem = heated_chip();
        let transient =
            problem.solve_transient(298.15, TransientOptions::silicon(1e-3, 20)).unwrap();
        let probe = transient.probe(3, 3, 4);
        for pair in probe.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9, "non-monotone heating: {pair:?}");
        }
        assert_eq!(transient.times().len(), 20);
        assert!((transient.times()[0] - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn lumped_capacitance_cooling_matches_analytic_decay() {
        // Very conductive body (nearly isothermal) cooling by convection
        // on all faces: T(t) = T_amb + (T0 - T_amb) exp(-h A t / (ρ c_p V)).
        let grid = StructuredGrid::new(5, 5, 5, 1e-3, 1e-3, 1e-3).unwrap();
        let mut problem = HeatProblem::new(grid, 1000.0); // k huge -> isothermal
        for face in Face::ALL {
            problem
                .set_boundary(face, BoundaryCondition::Convection { htc: 100.0, ambient: 300.0 })
                .unwrap();
        }
        let rho = 2330.0;
        let cp = 700.0;
        let t0 = 350.0;
        let dt = 5e-3;
        let steps = 40;
        let options = TransientOptions {
            dt,
            steps,
            density: rho,
            heat_capacity: cp,
            solver: SolveOptions::default(),
            record_history: true,
            inject_failure_at_step: None,
        };
        let transient = problem.solve_transient(t0, options).unwrap();

        let area = 6.0 * 1e-6; // six 1mm x 1mm faces
        let volume = 1e-9;
        let tau = rho * cp * volume / (100.0 * area);
        let probe = transient.probe(2, 2, 2);
        for (step, &t) in probe.iter().enumerate() {
            let time = (step + 1) as f64 * dt;
            let analytic = 300.0 + (t0 - 300.0) * (-time / tau).exp();
            // Backward Euler is first order; tolerate a few percent of the
            // current excess temperature.
            let excess = (analytic - 300.0).abs().max(0.5);
            assert!(
                (t - analytic).abs() < 0.08 * excess,
                "step {step}: {t} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn final_only_recording_keeps_one_field() {
        let problem = heated_chip();
        let mut options = TransientOptions::silicon(1e-3, 10);
        options.record_history = false;
        let transient = problem.solve_transient(298.15, options).unwrap();
        assert_eq!(transient.fields().len(), 1);
        assert_eq!(transient.times(), &[10e-3]);
    }

    #[test]
    fn injected_failure_reports_step_and_keeps_last_good_state() {
        let problem = heated_chip();
        let mut options = TransientOptions::silicon(1e-3, 10);
        options.inject_failure_at_step = Some(4);

        // Typed error names the failing step.
        let err = problem.solve_transient(298.15, options).unwrap_err();
        assert!(matches!(err, FdmError::TransientStepFailed { step: 4, .. }), "got {err:?}");

        // Partial API keeps the trajectory up to the failure.
        let outcome = problem.solve_transient_partial(298.15, options).unwrap();
        let failure = outcome.failure.expect("failure diagnostics");
        assert_eq!(failure.step, 4);
        assert!((failure.time - 5e-3).abs() < 1e-15);
        assert_eq!(outcome.solution.fields().len(), 4);
        assert!((outcome.solution.times().last().unwrap() - 4e-3).abs() < 1e-15);

        // The last good state matches an unfaulted run truncated at step 4.
        options.inject_failure_at_step = None;
        options.steps = 4;
        let clean = problem.solve_transient(298.15, options).unwrap();
        assert_eq!(outcome.solution.final_solution(), clean.final_solution());
    }

    #[test]
    fn step_zero_failure_records_initial_condition() {
        let problem = heated_chip();
        let mut options = TransientOptions::silicon(1e-3, 10);
        options.inject_failure_at_step = Some(0);
        options.record_history = false;
        let outcome = problem.solve_transient_partial(298.15, options).unwrap();
        assert_eq!(outcome.failure.unwrap().step, 0);
        assert_eq!(outcome.solution.fields().len(), 1);
        assert_eq!(outcome.solution.times(), &[0.0]);
        let initial = outcome.solution.final_solution();
        assert!(initial.temperatures().iter().all(|&t| (t - 298.15).abs() < 1e-12));
    }

    #[test]
    fn failure_without_history_still_exposes_last_good_state() {
        let problem = heated_chip();
        let mut options = TransientOptions::silicon(1e-3, 10);
        options.record_history = false;
        options.inject_failure_at_step = Some(6);
        let outcome = problem.solve_transient_partial(298.15, options).unwrap();
        assert_eq!(outcome.failure.unwrap().step, 6);
        // History was off, but the state after step 5 is still recorded.
        assert_eq!(outcome.solution.fields().len(), 1);
        assert!((outcome.solution.times()[0] - 6e-3).abs() < 1e-15);

        options.inject_failure_at_step = None;
        options.steps = 6;
        let clean = problem.solve_transient(298.15, options).unwrap();
        assert_eq!(outcome.solution.final_solution(), clean.final_solution());
    }

    #[test]
    fn clean_runs_report_no_failure() {
        let problem = heated_chip();
        let outcome =
            problem.solve_transient_partial(298.15, TransientOptions::silicon(1e-3, 5)).unwrap();
        assert!(outcome.failure.is_none());
        assert_eq!(outcome.solution.fields().len(), 5);
    }

    #[test]
    fn stepping_matrix_adds_the_capacity_to_each_stored_diagonal() {
        // [ 2 -1 ]
        // [-1  3 ]
        let a =
            CsrMatrix::from_raw(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![2.0, -1.0, -1.0, 3.0])
                .unwrap();
        let m = add_diagonal(&a, &[0.5, 0.25]).unwrap();
        assert_eq!(m.row_entries(0).collect::<Vec<_>>(), vec![(0, 2.5), (1, -1.0)]);
        assert_eq!(m.row_entries(1).collect::<Vec<_>>(), vec![(0, -1.0), (1, 3.25)]);

        // Row 1 stores no diagonal: a typed error, not a panic.
        let gap =
            CsrMatrix::from_raw(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![2.0, -1.0, -1.0]).unwrap();
        assert!(matches!(
            add_diagonal(&gap, &[1.0, 1.0]),
            Err(FdmError::Linalg(LinalgError::InvalidDimension { .. }))
        ));
    }

    #[test]
    fn dirichlet_nodes_stay_pinned_throughout() {
        let grid = StructuredGrid::new(5, 5, 5, 1.0, 1.0, 1.0).unwrap();
        let mut problem = HeatProblem::new(grid, 1.0);
        problem
            .set_boundary(Face::XMin, BoundaryCondition::Dirichlet { temperature: 400.0 })
            .unwrap();
        problem
            .set_boundary(Face::XMax, BoundaryCondition::Dirichlet { temperature: 300.0 })
            .unwrap();
        let transient = problem.solve_transient(300.0, TransientOptions::silicon(10.0, 5)).unwrap();
        for field in transient.fields() {
            assert_eq!(field[grid.index(0, 2, 2)], 400.0);
            assert_eq!(field[grid.index(4, 2, 2)], 300.0);
        }
    }
}
