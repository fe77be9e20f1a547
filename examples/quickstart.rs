#![deny(unsafe_code)]
//! Quickstart: build the paper's §V.A chip, solve it with the reference
//! finite-volume solver, train the surrogate for a handful of steps, and
//! record the whole run through the telemetry pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The run log streams to `target/quickstart.jsonl` (override with
//! `DEEPOHEAT_TELEMETRY=path.jsonl`) and the final run manifest — span
//! timings for assembly/solve/training, the CG residual history, and the
//! loss breakdown — lands next to it as `target/quickstart.manifest.json`.
//! See TELEMETRY.md for the schema.

use deepoheat::experiments::{PowerMapExperiment, PowerMapExperimentConfig};
use deepoheat::report::ascii_heatmap;
use deepoheat_chip::{Chip, UNIT_POWER_WATTS};
use deepoheat_fdm::{BoundaryCondition, Face, SolveOptions};
use deepoheat_grf::paper_test_suite;
use deepoheat_telemetry as telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let jsonl_path = std::env::var("DEEPOHEAT_TELEMETRY")
        .unwrap_or_else(|_| "target/quickstart.jsonl".to_string());
    telemetry::Recorder::builder("quickstart")
        .config("grid", "21x21x11")
        .config("train_iterations", 20)
        .jsonl(&jsonl_path)?
        .install();

    // A 1mm x 1mm x 0.5mm chip on a 21x21x11 mesh, k = 0.1 W/mK,
    // adiabatic sides, convection-cooled bottom.
    let mut chip = Chip::single_cuboid(1e-3, 1e-3, 0.5e-3, 21, 21, 11, 0.1)?;
    chip.set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })?;

    // Heat it with the paper-style test power map p1 (a central block),
    // interpolated from 20x20 tiles to the 21x21 grid.
    let (name, tile_map) = paper_test_suite(20).remove(0);
    let grid_map = tile_map.to_grid(21);
    chip.set_top_power_map_units(&grid_map)?;
    println!(
        "power map {name}: {:.1} tile-units total ({:.2} mW)",
        tile_map.total_power(),
        tile_map.total_power() * UNIT_POWER_WATTS * 1e3
    );

    // Solve the steady heat equation with a CG convergence trace.
    let solution =
        chip.heat_problem()?.solve(SolveOptions { record_cg_trace: true, ..Default::default() })?;
    println!(
        "solved {} nodes in {} CG iterations (residual {:.1e})",
        solution.temperatures().len(),
        solution.iterations(),
        solution.relative_residual()
    );
    println!(
        "temperature range: {:.2} K .. {:.2} K (ambient 298.15 K)",
        solution.min_temperature(),
        solution.max_temperature()
    );
    if let Some(trace) = solution.cg_trace() {
        telemetry::event(
            "fdm.cg.trace",
            &[("residuals", trace.into()), ("final_residual", solution.relative_residual().into())],
        );
    }

    // A few physics-informed training steps on a scaled-down surrogate;
    // each step emits its per-term loss breakdown.
    let config = PowerMapExperimentConfig {
        nx: 9,
        ny: 9,
        nz: 5,
        branch_hidden: vec![24, 24],
        trunk_hidden: vec![24, 24],
        latent_dim: 16,
        functions_per_batch: 4,
        interior_points: Some(64),
        boundary_points: Some(32),
        ..Default::default()
    };
    let mut experiment = PowerMapExperiment::new(config)?;
    let records = experiment.run(20, 5, |_| {})?;
    println!(
        "\ntrained surrogate for 20 steps: loss {:.3e} -> {:.3e}",
        records.first().map(|r| r.loss).unwrap_or(f64::NAN),
        records.last().map(|r| r.loss).unwrap_or(f64::NAN)
    );

    // The top-surface field the paper plots in Fig. 3.
    let top = solution.face_temperatures(Face::ZMax);
    println!("\ntop-surface temperature field:");
    println!("{}", ascii_heatmap(&top));

    if let Some(manifest) = telemetry::finish() {
        println!(
            "telemetry: {} events -> {jsonl_path}, manifest with {} histograms alongside",
            manifest.metrics.counters.get("train.steps.count").copied().unwrap_or(0) + 1,
            manifest.metrics.histograms.len()
        );
    }
    Ok(())
}
