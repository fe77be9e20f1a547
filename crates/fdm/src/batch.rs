//! Batched verification solves: one geometry, many power maps.
//!
//! A DeepOHeat verification workload asks for reference temperatures of
//! *hundreds* of power maps on the *same* chip geometry. Solving them one
//! at a time re-pays the operator stream on every conjugate-gradient
//! iteration of every map. [`HeatProblem::solve_batch`] instead assembles
//! the operator once and solves the whole right-hand-side block with the
//! recycled-subspace block-CG solver from `deepoheat-linalg`:
//!
//! * heat-flux (power-map) boundary data only enters the right-hand side,
//!   so every map in the batch shares one matrix and one preconditioner
//!   set ([`crate::problem::PreconditionerCache`] is built once);
//! * the block solve advances the whole sub-batch per iteration with
//!   one-pass block kernels: one lane-parallel `CsrMatrix::spmm_into`
//!   sweep, one pass per Gram block, one fused pass per block update —
//!   each column bitwise what per-column kernels would give it;
//! * a [`RecycleSpace`] carries the A-orthonormalised span of solved
//!   iterates across sub-batches, warm-starting later maps;
//! * columns the block phase leaves unconverged fall back to the existing
//!   per-column scalar CG ladder (warm-started from the block iterate),
//!   and only then to the degraded flag — the same escalation contract as
//!   [`HeatProblem::solve`].
//!
//! Everything on the solve path keeps the workspace determinism contract:
//! the returned temperatures are bit-identical at any worker-pool width.

use std::time::Instant;

use deepoheat_linalg::{block_cg, row_norms, BlockCgOptions, Matrix, RecycleSpace};
use deepoheat_telemetry as telemetry;

use crate::problem::{cg_ladder, scatter, Assembly, Node, PreconditionerCache};
use crate::{BoundaryCondition, Face, FdmError, FluxMap, HeatProblem, Solution, SolveOptions};

/// A warm start counts as a recycle *hit* when it puts the column's
/// initial relative residual at or below this value — i.e. the recycled
/// span did at least half the work a cold start would leave to CG.
const RECYCLE_HIT_RESIDUAL: f64 = 0.5;

/// Options controlling [`HeatProblem::solve_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSolveOptions {
    /// Per-column accuracy contract and ladder configuration, exactly as
    /// in [`HeatProblem::solve`].
    pub solve: SolveOptions,
    /// Maximum right-hand sides solved per block-CG call. Larger blocks
    /// amortise the operator stream further but pay a larger dense Gram
    /// system per iteration.
    pub block_size: usize,
    /// Capacity of the recycled subspace carried across sub-batches; `0`
    /// disables recycling.
    pub recycle_dim: usize,
    /// Also solve every map through the sequential per-RHS ladder and
    /// emit the measured `fdm.block_cg.speedup_vs_serial` gauge. This
    /// doubles the work — bench harnesses only.
    pub measure_serial: bool,
}

impl Default for BatchSolveOptions {
    fn default() -> Self {
        BatchSolveOptions {
            solve: SolveOptions::default(),
            block_size: 8,
            recycle_dim: 16,
            measure_serial: false,
        }
    }
}

impl BatchSolveOptions {
    /// Checks the options before the batch starts.
    ///
    /// # Errors
    ///
    /// Returns [`FdmError::InvalidParameter`] if the embedded solve
    /// options are invalid or `block_size` is zero.
    pub fn validate(&self) -> Result<(), FdmError> {
        self.solve.validate()?;
        if self.block_size == 0 {
            return Err(FdmError::InvalidParameter {
                what: "batch block_size must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Aggregate diagnostics for one [`HeatProblem::solve_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchReport {
    /// Right-hand sides solved.
    pub columns: usize,
    /// Columns the block phase converged on its own.
    pub block_converged: usize,
    /// Columns polished by the per-column scalar ladder afterwards.
    pub polished: usize,
    /// Columns that only met the relaxed degraded tolerance.
    pub degraded: usize,
    /// Block-CG iterations summed over sub-batches.
    pub block_iterations: usize,
    /// Fraction of warm-started columns whose initial relative residual
    /// was at most [`RECYCLE_HIT_RESIDUAL`]; `0.0` when nothing was
    /// warm-started.
    pub recycle_hit_ratio: f64,
    /// Measured sequential-ladder time divided by batched time; present
    /// only when [`BatchSolveOptions::measure_serial`] was set.
    pub serial_speedup: Option<f64>,
}

/// The result of [`HeatProblem::solve_batch`]: one [`Solution`] per power
/// map, in input order, plus batch-level diagnostics.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-map temperature fields with per-map solver diagnostics.
    pub solutions: Vec<Solution>,
    /// Batch-level diagnostics (also emitted as `fdm.block_cg.*` metrics).
    pub report: BatchReport,
}

/// Per-column bookkeeping while a sub-batch is in flight.
struct ColumnOutcome {
    temps: Vec<f64>,
    iterations: usize,
    relative_residual: f64,
    degraded: bool,
}

impl HeatProblem {
    /// Solves this geometry against a batch of power maps applied as
    /// heat-flux data on `face`, assembling the operator once and running
    /// the recycled block-CG solver over sub-batches of
    /// [`BatchSolveOptions::block_size`] right-hand sides.
    ///
    /// The boundary condition currently set on `face` must be
    /// [`BoundaryCondition::HeatFlux`] or [`BoundaryCondition::Adiabatic`]
    /// — anything else would change the operator per map and forfeit the
    /// batching. Every other face keeps its configured condition, and at
    /// least one face must still fix the temperature level.
    ///
    /// Results are bit-identical to themselves at any worker-pool width,
    /// and each returned [`Solution`] meets the same accuracy contract as
    /// [`HeatProblem::solve`] (tolerance, ladder escalation, degraded
    /// flag).
    ///
    /// # Errors
    ///
    /// * [`FdmError::InvalidParameter`] for invalid options, a `face`
    ///   whose condition pins the operator (Dirichlet/convection), or a
    ///   problem with no temperature-fixing boundary.
    /// * [`FdmError::BoundaryMismatch`] if a [`FluxMap::Field`] shape
    ///   does not match the face grid.
    /// * [`FdmError::SolveFailed`] if any column misses even the degraded
    ///   tolerance after the full escalation ladder.
    pub fn solve_batch(
        &self,
        face: Face,
        power_maps: &[FluxMap],
        options: &BatchSolveOptions,
    ) -> Result<BatchOutcome, FdmError> {
        options.validate()?;
        match self.boundary(face) {
            BoundaryCondition::HeatFlux { .. } | BoundaryCondition::Adiabatic => {}
            other => {
                return Err(FdmError::InvalidParameter {
                    what: format!(
                        "solve_batch face {face} must carry a heat-flux or adiabatic condition \
                         (found {other:?}): anything else changes the operator per map"
                    ),
                });
            }
        }
        let fixes_temperature = Face::ALL.iter().any(|f| {
            *f != face
                && matches!(
                    self.boundary(*f),
                    BoundaryCondition::Dirichlet { .. } | BoundaryCondition::Convection { .. }
                )
        });
        if !fixes_temperature {
            return Err(FdmError::InvalidParameter {
                what: "no dirichlet or convection boundary: the temperature level is undetermined"
                    .into(),
            });
        }
        let expected_shape = self.face_shape(face);
        for map in power_maps {
            if let Some(shape) = map.shape() {
                if shape != expected_shape {
                    return Err(FdmError::BoundaryMismatch {
                        face: face.name(),
                        expected: expected_shape,
                        actual: shape,
                    });
                }
            }
        }
        if power_maps.is_empty() {
            return Ok(BatchOutcome { solutions: Vec::new(), report: BatchReport::default() });
        }

        // Assemble once with the batched face neutralised: heat flux only
        // contributes to the right-hand side, so the operator (and the
        // free/pinned node split) is shared by every map.
        let mut base = self.clone();
        base.set_boundary(face, BoundaryCondition::Adiabatic)?;
        let assembly_span = telemetry::span("fdm.batch.assemble");
        let Assembly { matrix, rhs, nodes } = base.assemble()?;
        drop(assembly_span);
        let grid = *self.grid();

        if matrix.rows() == 0 {
            // Every node is Dirichlet-pinned: flux maps cannot influence
            // anything and each solution is the boundary data itself.
            let temps = scatter(&nodes, &[]);
            let solutions = power_maps
                .iter()
                .map(|_| Solution::from_parts(grid, temps.clone(), 0, 0.0, None, false))
                .collect();
            let report = BatchReport { columns: power_maps.len(), ..BatchReport::default() };
            return Ok(BatchOutcome { solutions, report });
        }

        // Per-map RHS = shared base RHS + this map's face contributions.
        let stencil: Vec<(usize, usize, usize, f64)> = base
            .face_nodes(face)
            .into_iter()
            .filter_map(|(idx, a, b)| match nodes[idx] {
                Node::Free(row) => Some((row, a, b, base.patch_area(face, a, b))),
                Node::Pinned(_) => None,
            })
            .collect();
        let n_free = matrix.rows();
        let rhs_for = |map: &FluxMap| -> Vec<f64> {
            let mut out = rhs.clone();
            for &(row, a, b, area) in &stencil {
                out[row] += map.value(a, b) * area;
            }
            out
        };

        let solve_span = telemetry::span("fdm.batch.solve");
        let batch_started = Instant::now();
        let pre_cache = PreconditionerCache::new(&matrix, options.solve.ssor_omega)?;
        let block_pre = pre_cache.ssor();
        let block_options = BlockCgOptions {
            max_iterations: options.solve.max_iterations,
            tolerance: options.solve.tolerance,
            record_trace: false,
        };
        let polish_options = SolveOptions { record_cg_trace: false, ..options.solve };
        let mut recycle = RecycleSpace::new(options.recycle_dim);

        let mut report = BatchReport { columns: power_maps.len(), ..BatchReport::default() };
        let mut warm_columns = 0usize;
        let mut warm_hits = 0usize;
        let mut outcomes: Vec<ColumnOutcome> = Vec::with_capacity(power_maps.len());

        for chunk in power_maps.chunks(options.block_size) {
            let k = chunk.len();
            let mut b = Matrix::zeros(k, n_free);
            for (slot, map) in chunk.iter().enumerate() {
                b.row_mut(slot).copy_from_slice(&rhs_for(map));
            }

            // Warm start from the recycled span of previously solved maps.
            let x0 = if options.recycle_dim > 0 { recycle.warm_start(&b)? } else { None };
            if let Some(x0) = &x0 {
                // R₀ = B − A X₀ in place of A X₀, then both blocks' norms.
                let mut r = matrix.spmm(x0)?;
                for (ri, &bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
                    *ri = bi - *ri;
                }
                for (r_norm, b_norm) in row_norms(&r).into_iter().zip(row_norms(&b)) {
                    if b_norm == 0.0 {
                        continue;
                    }
                    warm_columns += 1;
                    if r_norm / b_norm <= RECYCLE_HIT_RESIDUAL {
                        warm_hits += 1;
                    }
                }
            }

            let block = block_cg(&matrix, &b, x0.as_ref(), block_pre, block_options)?;
            report.block_iterations += block.iterations;

            for slot in 0..k {
                let col = block.columns[slot];
                let outcome = if col.converged {
                    report.block_converged += 1;
                    ColumnOutcome {
                        temps: block.solution.row(slot).to_vec(),
                        iterations: col.iterations,
                        relative_residual: col.relative_residual,
                        degraded: false,
                    }
                } else {
                    // Per-column escalation: the scalar ladder picks the
                    // column up from the block iterate and owns the
                    // degraded/failure contract from here.
                    report.polished += 1;
                    telemetry::counter("fdm.block_cg.polished.count", 1);
                    let ladder = cg_ladder(
                        &matrix,
                        b.row(slot),
                        Some(block.solution.row(slot)),
                        &pre_cache,
                        &polish_options,
                    )?;
                    if ladder.degraded {
                        report.degraded += 1;
                        telemetry::counter("fdm.block_cg.degraded.count", 1);
                    }
                    ColumnOutcome {
                        temps: ladder.solution,
                        iterations: col.iterations + ladder.iterations,
                        relative_residual: ladder.relative_residual,
                        degraded: ladder.degraded,
                    }
                };
                outcomes.push(outcome);
            }

            if options.recycle_dim > 0 {
                let solved_start = outcomes.len() - k;
                let solved =
                    Matrix::from_fn(k, n_free, |slot, j| outcomes[solved_start + slot].temps[j]);
                recycle.absorb(&matrix, &solved)?;
            }
        }
        let batch_seconds = batch_started.elapsed().as_secs_f64();
        drop(solve_span);

        report.recycle_hit_ratio =
            if warm_columns > 0 { warm_hits as f64 / warm_columns as f64 } else { 0.0 };

        if options.measure_serial {
            let serial_span = telemetry::span("fdm.batch.serial_baseline");
            let serial_started = Instant::now();
            for map in power_maps {
                cg_ladder(&matrix, &rhs_for(map), None, &pre_cache, &polish_options)?;
            }
            let serial_seconds = serial_started.elapsed().as_secs_f64();
            drop(serial_span);
            if batch_seconds > 0.0 {
                let speedup = serial_seconds / batch_seconds;
                report.serial_speedup = Some(speedup);
                telemetry::gauge("fdm.block_cg.speedup_vs_serial", speedup);
            }
        }

        telemetry::gauge("fdm.block_cg.columns", report.columns as f64);
        telemetry::gauge("fdm.block_cg.block_converged", report.block_converged as f64);
        telemetry::gauge("fdm.block_cg.iterations", report.block_iterations as f64);
        telemetry::gauge(
            "fdm.block_cg.columns_per_iteration",
            report.block_converged as f64 / report.block_iterations.max(1) as f64,
        );
        telemetry::gauge("fdm.block_cg.recycle.hit_ratio", report.recycle_hit_ratio);

        let solutions = outcomes
            .into_iter()
            .map(|col| {
                Solution::from_parts(
                    grid,
                    scatter(&nodes, &col.temps),
                    col.iterations,
                    col.relative_residual,
                    None,
                    col.degraded,
                )
            })
            .collect();
        Ok(BatchOutcome { solutions, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StructuredGrid;

    fn chip(nx: usize, ny: usize, nz: usize) -> HeatProblem {
        let grid = StructuredGrid::new(nx, ny, nz, 1e-3, 1e-3, 0.5e-3).unwrap();
        let mut problem = HeatProblem::new(grid, 0.1);
        problem
            .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })
            .unwrap();
        problem
            .set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(0.0) })
            .unwrap();
        problem
    }

    fn seeded_maps(shape: (usize, usize), count: usize) -> Vec<FluxMap> {
        let mut state = 0x2545f4914f6cdd1du64;
        (0..count)
            .map(|_| {
                FluxMap::Field(Matrix::from_fn(shape.0, shape.1, |_, _| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    1000.0 + ((state >> 33) as f64 / (1u64 << 33) as f64) * 4000.0
                }))
            })
            .collect()
    }

    #[test]
    fn batch_matches_per_map_solves() {
        let problem = chip(9, 9, 5);
        let maps = seeded_maps(problem.face_shape(Face::ZMax), 7);
        let batch = problem.solve_batch(Face::ZMax, &maps, &BatchSolveOptions::default()).unwrap();
        assert_eq!(batch.solutions.len(), 7);
        assert_eq!(batch.report.columns, 7);
        assert_eq!(batch.report.block_converged + batch.report.polished, 7, "{:?}", batch.report);

        for (map, sol) in maps.iter().zip(&batch.solutions) {
            let mut single = problem.clone();
            single
                .set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: map.clone() })
                .unwrap();
            let reference = single.solve(SolveOptions::default()).unwrap();
            assert!(!sol.is_degraded());
            for (a, b) in sol.temperatures().iter().zip(reference.temperatures()) {
                assert!((a - b).abs() < 1e-5, "batched {a} vs single {b}");
            }
        }
    }

    #[test]
    fn recycling_reports_hits_across_sub_batches() {
        let problem = chip(9, 9, 5);
        // Near-duplicate maps across sub-batches: the recycled span of the
        // first block should warm-start the rest to a near-converged state.
        let base = seeded_maps(problem.face_shape(Face::ZMax), 1).remove(0);
        let maps: Vec<FluxMap> = (0..12)
            .map(|i| match &base {
                FluxMap::Field(m) => FluxMap::Field(m.scaled(1.0 + 0.01 * i as f64)),
                FluxMap::Uniform(q) => FluxMap::Uniform(*q),
            })
            .collect();
        let options = BatchSolveOptions { block_size: 4, ..Default::default() };
        let batch = problem.solve_batch(Face::ZMax, &maps, &options).unwrap();
        assert_eq!(batch.solutions.len(), 12);
        assert!(
            batch.report.recycle_hit_ratio > 0.9,
            "near-duplicate maps should recycle: {:?}",
            batch.report
        );

        // Recycling off: no warm starts, ratio pinned at zero.
        let off = BatchSolveOptions { block_size: 4, recycle_dim: 0, ..Default::default() };
        let cold = problem.solve_batch(Face::ZMax, &maps, &off).unwrap();
        assert_eq!(cold.report.recycle_hit_ratio, 0.0);
        for (a, b) in cold.solutions.iter().zip(&batch.solutions) {
            for (ta, tb) in a.temperatures().iter().zip(b.temperatures()) {
                assert!((ta - tb).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn rejects_operator_changing_faces_and_bad_shapes() {
        let problem = chip(5, 5, 4);
        let maps = seeded_maps(problem.face_shape(Face::ZMax), 2);
        // The convection face would change the operator per map.
        assert!(matches!(
            problem.solve_batch(Face::ZMin, &maps, &BatchSolveOptions::default()),
            Err(FdmError::InvalidParameter { .. })
        ));
        // A wrong-shaped field map is caught before assembly.
        let wrong = vec![FluxMap::Field(Matrix::zeros(2, 3))];
        assert!(matches!(
            problem.solve_batch(Face::ZMax, &wrong, &BatchSolveOptions::default()),
            Err(FdmError::BoundaryMismatch { .. })
        ));
        // Zero block size is rejected by validation.
        let bad = BatchSolveOptions { block_size: 0, ..Default::default() };
        assert!(matches!(
            problem.solve_batch(Face::ZMax, &maps, &bad),
            Err(FdmError::InvalidParameter { .. })
        ));
        // An empty batch short-circuits.
        let empty = problem.solve_batch(Face::ZMax, &[], &BatchSolveOptions::default()).unwrap();
        assert!(empty.solutions.is_empty());
    }

    #[test]
    fn no_temperature_fixing_boundary_is_rejected() {
        let grid = StructuredGrid::new(4, 4, 4, 1.0, 1.0, 1.0).unwrap();
        let problem = HeatProblem::new(grid, 1.0);
        let maps = vec![FluxMap::Uniform(10.0)];
        assert!(matches!(
            problem.solve_batch(Face::ZMax, &maps, &BatchSolveOptions::default()),
            Err(FdmError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn measure_serial_reports_a_speedup_gauge() {
        let problem = chip(7, 7, 4);
        let maps = seeded_maps(problem.face_shape(Face::ZMax), 8);
        let options = BatchSolveOptions { measure_serial: true, ..Default::default() };
        let batch = problem.solve_batch(Face::ZMax, &maps, &options).unwrap();
        let speedup = batch.report.serial_speedup.expect("requested serial measurement");
        assert!(speedup.is_finite() && speedup > 0.0);
    }
}
