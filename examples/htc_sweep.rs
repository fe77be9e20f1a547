#![deny(unsafe_code)]
//! Real-time design-space exploration with the dual-HTC surrogate
//! (§V.B): train once, then sweep the whole heat-transfer-coefficient
//! square in milliseconds — the workflow the paper motivates for
//! early-stage cooling-solution selection.
//!
//! ```text
//! cargo run --release --example htc_sweep
//! ```

use deepoheat::experiments::{HtcExperiment, HtcExperimentConfig};
use deepoheat_telemetry::{self as telemetry, ConsoleSink};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Training progress (the train.loss gauge, emitted at every log
    // point) streams to stderr through the console sink.
    telemetry::Recorder::builder("htc_sweep")
        .sink(Box::new(ConsoleSink::with_prefixes(&["train.loss", "fdm."])))
        .install();

    println!("training dual-input DeepOHeat (supervised mode, 100 reference solves)…");
    let mut experiment = HtcExperiment::new(HtcExperimentConfig::default().supervised(100))?;
    experiment.run(2000, 400, |_| {})?;

    // Sweep a 6x6 grid of (h_top, h_bot) pairs with the surrogate.
    let values = [333.33, 466.67, 600.0, 733.33, 866.67, 1000.0];
    println!("\npeak chip temperature (K) predicted by the surrogate:");
    print!("{:>12}", "top\\bottom");
    for hb in values {
        print!("{hb:>10.0}");
    }
    println!();
    let t0 = std::time::Instant::now();
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for ht in values {
        print!("{ht:>12.0}");
        for hb in values {
            let field = experiment.predict_field(&(ht, hb))?;
            let peak = field.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if peak < best.0 {
                best = (peak, ht, hb);
            }
            print!("{peak:>10.3}");
        }
        println!();
    }
    let elapsed = t0.elapsed();
    println!(
        "\nswept {} design points in {:.1} ms ({:.2} ms each)",
        values.len() * values.len(),
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3 / (values.len() * values.len()) as f64
    );

    // Verify the surrogate's pick with the reference solver.
    let reference = experiment.reference_field(&(best.1, best.2))?;
    let ref_peak = reference.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "coolest design: h_top = {:.0}, h_bot = {:.0} -> surrogate peak {:.3} K, reference peak {:.3} K",
        best.1, best.2, best.0, ref_peak
    );
    telemetry::finish();
    Ok(())
}
