//! Rebuilding a serving front-end reuses the memory of the one it
//! replaces: a process that builds, uses and drops front-ends over one
//! model and one mesh settles at the resident peak of its first rebuilds.
//!
//! A front-end's shards start one at a time in index order and stop one at
//! a time in the reverse order, so each shard of the next front-end takes
//! over the allocator arena of the same shard of the last one, and the
//! shard that builds the mesh's trunk basis finds the room the previous
//! basis left. If the shard threads raced to exit and to start, the basis
//! could land in an arena without that room, and the peak would grow by
//! one basis.
//!
//! The peak is the process's `VmHWM`, so this file holds a single test.
//! Where `/proc/self/status` has no `VmHWM` line there is nothing to read
//! and the test passes.

#![deny(unsafe_code)]

use std::sync::Arc;

use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_linalg::Matrix;
use deepoheat_serve::{FrontendOptions, ServeFrontend};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MIB: f64 = 1024.0 * 1024.0;
const LATENT: usize = 128;
/// The paper's 21 × 21 × 11 mesh: at 128 latent features its `f64` basis
/// takes 4.7 MiB.
const POINTS: usize = 4851;
const REBUILDS: usize = 24;

/// The process's peak resident set in MiB, if the platform reports one.
fn peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

#[test]
fn rebuilt_frontends_settle_at_the_first_rebuilds_peak() {
    let config = DeepOHeatConfig::single_branch(16, &[32], &[32, 32], LATENT);
    let model = Arc::new(DeepOHeat::new(&config, &mut StdRng::seed_from_u64(3)).unwrap());
    let coords = Matrix::from_fn(POINTS, 3, |i, j| ((7 * i + 13 * j) % 101) as f64 / 101.0);
    let design = Matrix::filled(1, 16, 0.5);
    let mut peaks = Vec::with_capacity(REBUILDS);
    for _ in 0..REBUILDS {
        let frontend = ServeFrontend::new(Arc::clone(&model), FrontendOptions::default()).unwrap();
        frontend.call(&[&design], &coords).unwrap();
        drop(frontend);
        let Some(peak) = peak_mib() else { return };
        peaks.push(peak);
    }
    let basis = (POINTS * LATENT * 8) as f64 / MIB;
    let growth = peaks[REBUILDS - 1] - peaks[1];
    assert!(
        growth < basis / 2.0,
        "the peak grew by {growth:.2} MiB from the second to the last of {REBUILDS} rebuilds \
         (one basis is {basis:.2} MiB); peaks: {peaks:.1?}"
    );
}
