//! Operators for the SSOR wavefront plan, shared by the `sparse_kernels`
//! oracle and the plan unit test in `src/cg.rs`: grid operators the plan
//! must accept, each with the block size it must pick, and operators it
//! must reject. The oracle holds every one of them to the full-row
//! reference; the unit test checks which path each one takes.

use crate::{CooMatrix, CsrMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Depths of the accepted grid family: with one block per plane, the
/// block counts fall below, at, and one to three past a multiple of four.
#[cfg(miri)]
const DEPTHS: [usize; 3] = [1, 2, 5];
#[cfg(not(miri))]
const DEPTHS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];

/// One operator and the wavefront block size its SSOR must plan.
pub struct Fixture {
    pub name: String,
    pub matrix: CsrMatrix,
    pub block: Option<usize>,
}

/// A finite-volume heat operator on an `nx × ny × nz` mesh with random
/// conductivities, assembled like `deepoheat-fdm`: four pushes per link in
/// k-j-i order, the nodes for which `fixed(i, j, k)` holds at a fixed
/// temperature (their rows eliminated, so their neighbours keep only their
/// diagonal share), and a convective bottom face adding to the diagonal.
pub fn grid_operator(
    (nx, ny, nz): (usize, usize, usize),
    fixed: impl Fn(usize, usize, usize) -> bool,
    seed: u64,
) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let index = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
    let conductivity: Vec<f64> = (0..nx * ny * nz).map(|_| rng.gen_range(0.1..150.0)).collect();
    let mut free = vec![None; nx * ny * nz];
    let mut n_free = 0;
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                if !fixed(i, j, k) {
                    free[index(i, j, k)] = Some(n_free);
                    n_free += 1;
                }
            }
        }
    }
    let mut coo = CooMatrix::new(n_free, n_free);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let a = index(i, j, k);
                let neighbours = [
                    (i + 1 < nx).then(|| (index(i + 1, j, k), 0.7)),
                    (j + 1 < ny).then(|| (index(i, j + 1, k), 1.1)),
                    (k + 1 < nz).then(|| (index(i, j, k + 1), 3.0)),
                ];
                for (b, geometry) in neighbours.into_iter().flatten() {
                    let (ka, kb) = (conductivity[a], conductivity[b]);
                    let g = 2.0 * ka * kb / (ka + kb) * geometry;
                    match (free[a], free[b]) {
                        (Some(ra), Some(rb)) => {
                            coo.push(ra, ra, g);
                            coo.push(rb, rb, g);
                            coo.push(ra, rb, -g);
                            coo.push(rb, ra, -g);
                        }
                        (Some(ra), None) => coo.push(ra, ra, g),
                        (None, Some(rb)) => coo.push(rb, rb, g),
                        (None, None) => {}
                    }
                }
            }
        }
    }
    for j in 0..ny {
        for i in 0..nx {
            if let Some(row) = free[index(i, j, 0)] {
                coo.push(row, row, 0.05);
            }
        }
    }
    coo.to_csr()
}

/// `a` with one more symmetric off-diagonal pair `(r, c)`, its rows'
/// diagonals raised to keep it diagonally dominant.
fn with_pair(a: &CsrMatrix, r: usize, c: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(a.rows(), a.cols());
    for row in 0..a.rows() {
        for (col, v) in a.row_entries(row) {
            coo.push(row, col, v);
        }
    }
    for (x, y) in [(r, c), (c, r)] {
        coo.push(x, y, -0.5);
        coo.push(x, x, 0.5);
    }
    coo.to_csr()
}

/// Every fixture: the accepted grid family first, then the rejects.
pub fn fixtures() -> Vec<Fixture> {
    let (nx, ny) = (5, 4);
    let open = |_: usize, _: usize, _: usize| false;
    let mut all: Vec<Fixture> = DEPTHS
        .iter()
        .map(|&nz| Fixture {
            name: format!("{nx} × {ny} × {nz} grid"),
            matrix: grid_operator((nx, ny, nz), open, nz as u64),
            // One plane is cut into x-lines, linked along y.
            block: Some(if nz == 1 { nx } else { nx * ny }),
        })
        .collect();
    let top = |nz: usize| move |_: usize, _: usize, k: usize| k == nz - 1;
    all.push(Fixture {
        name: "4 × 3 × 3 grid, top face fixed".into(),
        matrix: grid_operator((4, 3, 3), top(3), 11),
        block: Some(12),
    });
    all.push(Fixture {
        name: "6 × 4 × 5 grid, x-max face fixed".into(),
        matrix: grid_operator((6, 4, 5), |i, _, _| i == 5, 12),
        block: Some(5 * 4),
    });
    // The last seven nodes of the top plane fixed: 73 rows, so the top
    // block is short.
    let short = grid_operator((nx, ny, 4), |i, j, k| (k * ny + j) * nx + i >= 73, 13);
    assert_eq!(short.rows(), 73);
    all.push(Fixture {
        name: "5 × 4 × 4 grid, short top block".into(),
        matrix: short,
        block: Some(nx * ny),
    });

    let grid = grid_operator((nx, ny, 4), open, 14);
    let n = grid.rows();
    all.push(Fixture {
        name: "grid plus a long-range pair".into(),
        matrix: with_pair(&grid, 3, n - 2),
        block: None,
    });
    // Row 20 starts block 1 and links to row 1, offset 1 of block 0.
    all.push(Fixture {
        name: "grid plus a pair to a later offset".into(),
        matrix: with_pair(&grid, nx * ny, 1),
        block: None,
    });
    let mut laplacian = CooMatrix::new(30, 30);
    let mut diagonal = CooMatrix::new(10, 10);
    for i in 0..30 {
        laplacian.push(i, i, 2.5);
        if i > 0 {
            laplacian.push(i, i - 1, -1.0);
            laplacian.push(i - 1, i, -1.0);
        }
    }
    for i in 0..10 {
        diagonal.push(i, i, 1.0 + i as f64);
    }
    all.push(Fixture { name: "1-D Laplacian".into(), matrix: laplacian.to_csr(), block: None });
    all.push(Fixture { name: "diagonal".into(), matrix: diagonal.to_csr(), block: None });
    all
}
