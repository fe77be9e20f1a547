use deepoheat_linalg::Matrix;

use crate::{tiles_to_grid, GrfError};

/// A tile-based power map: an `rows × cols` array of per-tile power
/// densities, composed of rectangular heat blocks.
///
/// This mirrors the industrial power maps used by Celsius 3D in the paper's
/// test cases (§V.A.5, Fig. 4 middle): floorplans place rectangular IP
/// blocks, each dissipating a uniform power over its footprint.
///
/// # Examples
///
/// ```
/// use deepoheat_grf::TilePowerMap;
///
/// let mut map = TilePowerMap::new(20, 20);
/// map.add_block(5, 5, 10, 10, 1.0)?; // central 10x10 block at 1 unit/tile
/// assert_eq!(map.total_power(), 100.0);
/// let grid = map.to_grid(21);        // DeepOHeat's 21x21 encoding
/// assert_eq!(grid.shape(), (21, 21));
/// # Ok::<(), deepoheat_grf::GrfError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TilePowerMap {
    tiles: Matrix,
}

impl TilePowerMap {
    /// Creates an all-zero `rows × cols` tile map.
    pub fn new(rows: usize, cols: usize) -> Self {
        TilePowerMap { tiles: Matrix::zeros(rows, cols) }
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.tiles.rows()
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.tiles.cols()
    }

    /// The underlying tile matrix.
    pub fn tiles(&self) -> &Matrix {
        &self.tiles
    }

    /// Adds `power` to every tile of the rectangle starting at
    /// `(row, col)` with the given `height` and `width`; overlapping blocks
    /// accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`GrfError::BlockOutOfBounds`] if the rectangle exceeds the
    /// map, and [`GrfError::InvalidConfig`] for empty rectangles.
    pub fn add_block(
        &mut self,
        row: usize,
        col: usize,
        height: usize,
        width: usize,
        power: f64,
    ) -> Result<&mut Self, GrfError> {
        if height == 0 || width == 0 {
            return Err(GrfError::InvalidConfig { what: format!("empty block {height}x{width}") });
        }
        if row + height > self.rows() || col + width > self.cols() {
            return Err(GrfError::BlockOutOfBounds {
                block: (row, col, height, width),
                map: (self.rows(), self.cols()),
            });
        }
        for r in row..row + height {
            for c in col..col + width {
                self.tiles[(r, c)] += power;
            }
        }
        Ok(self)
    }

    /// Sum of all tile powers.
    pub fn total_power(&self) -> f64 {
        self.tiles.sum()
    }

    /// Peak tile power.
    pub fn peak_power(&self) -> f64 {
        self.tiles.max()
    }

    /// Interpolates onto an `n × n` node-centred grid
    /// (see [`tiles_to_grid`]).
    ///
    /// # Panics
    ///
    /// Panics if `grid_side < 2`.
    pub fn to_grid(&self, grid_side: usize) -> Matrix {
        tiles_to_grid(&self.tiles, grid_side)
    }
}

/// Builds the ten deterministic test power maps `p₁ … p₁₀` standing in for
/// the paper's proprietary Cadence test cases (Table I / Fig. 3).
///
/// The family matches the paper's qualitative description: block-composed
/// maps of *gradually increasing complexity*, ending with `p₁₀` — "multiple
/// small-sized heat sources and one of them is also given a relatively
/// large power". All maps are `tile_side × tile_side` (the paper uses 20).
///
/// Block powers are in the paper's per-tile power units (one unit
/// corresponds to 0.00625 mW on the real chip).
///
/// # Panics
///
/// Panics if `tile_side < 16` (the block layouts need room).
///
/// # Examples
///
/// ```
/// use deepoheat_grf::paper_test_suite;
///
/// let suite = paper_test_suite(20);
/// assert_eq!(suite.len(), 10);
/// assert_eq!(suite[0].0, "p1");
/// assert!(suite[9].1.peak_power() > suite[0].1.peak_power());
/// ```
pub fn paper_test_suite(tile_side: usize) -> Vec<(String, TilePowerMap)> {
    assert!(tile_side >= 16, "test suite needs tile_side >= 16, got {tile_side}");
    let s = tile_side;
    // Scale block coordinates designed on a 20-tile grid to `s` tiles.
    let sc = |v: usize| (v * s) / 20;
    let dim = |v: usize| ((v * s) / 20).max(1);

    let mut suite = Vec::with_capacity(10);
    let mut push = |name: &str, build: &dyn Fn(&mut TilePowerMap)| {
        let mut map = TilePowerMap::new(s, s);
        build(&mut map);
        suite.push((name.to_string(), map));
    };

    // p1: one large central block — the simplest layout.
    push("p1", &|m| {
        m.add_block(sc(6), sc(6), dim(8), dim(8), 1.0).expect("p1 in bounds");
    });
    // p2: one off-centre block.
    push("p2", &|m| {
        m.add_block(sc(2), sc(10), dim(7), dim(7), 1.0).expect("p2 in bounds");
    });
    // p3: two equal blocks on a diagonal.
    push("p3", &|m| {
        m.add_block(sc(2), sc(2), dim(6), dim(6), 1.0).expect("p3 in bounds");
        m.add_block(sc(12), sc(12), dim(6), dim(6), 1.0).expect("p3 in bounds");
    });
    // p4: two blocks with unequal powers.
    push("p4", &|m| {
        m.add_block(sc(3), sc(3), dim(6), dim(6), 1.5).expect("p4 in bounds");
        m.add_block(sc(12), sc(11), dim(5), dim(5), 0.75).expect("p4 in bounds");
    });
    // p5: three blocks in an L arrangement.
    push("p5", &|m| {
        m.add_block(sc(1), sc(1), dim(5), dim(5), 1.0).expect("p5 in bounds");
        m.add_block(sc(1), sc(13), dim(5), dim(5), 1.2).expect("p5 in bounds");
        m.add_block(sc(13), sc(1), dim(5), dim(5), 0.8).expect("p5 in bounds");
    });
    // p6: an L-shaped macro built from two overlapping rectangles.
    push("p6", &|m| {
        m.add_block(sc(4), sc(4), dim(12), dim(4), 1.0).expect("p6 in bounds");
        m.add_block(sc(12), sc(4), dim(4), dim(12), 1.0).expect("p6 in bounds");
    });
    // p7: four corner blocks.
    push("p7", &|m| {
        for (r, c) in [(1, 1), (1, 14), (14, 1), (14, 14)] {
            m.add_block(sc(r), sc(c), dim(5), dim(5), 1.0).expect("p7 in bounds");
        }
    });
    // p8: five blocks of mixed sizes and powers.
    push("p8", &|m| {
        m.add_block(sc(1), sc(1), dim(4), dim(4), 1.3).expect("p8 in bounds");
        m.add_block(sc(1), sc(15), dim(4), dim(4), 0.7).expect("p8 in bounds");
        m.add_block(sc(8), sc(8), dim(4), dim(4), 1.0).expect("p8 in bounds");
        m.add_block(sc(15), sc(1), dim(4), dim(4), 0.9).expect("p8 in bounds");
        m.add_block(sc(15), sc(15), dim(4), dim(4), 1.6).expect("p8 in bounds");
    });
    // p9: a ring of eight narrow blocks around a cool centre.
    push("p9", &|m| {
        for (r, c) in [(2, 2), (2, 9), (2, 16), (9, 2), (9, 16), (16, 2), (16, 9), (16, 16)] {
            m.add_block(sc(r), sc(c), dim(3), dim(3), 1.1).expect("p9 in bounds");
        }
    });
    // p10: many small sources, one much stronger — the "very wiggly"
    // hardest case from the paper.
    push("p10", &|m| {
        for (r, c) in [(2, 3), (3, 11), (6, 16), (10, 2), (11, 8), (16, 5), (17, 13), (8, 6)] {
            m.add_block(sc(r), sc(c), dim(2), dim(2), 1.0).expect("p10 in bounds");
        }
        m.add_block(sc(13), sc(16), dim(2), dim(2), 3.0).expect("p10 in bounds");
    });

    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_accumulation_and_bounds() {
        let mut m = TilePowerMap::new(10, 10);
        m.add_block(0, 0, 5, 5, 1.0).unwrap();
        m.add_block(3, 3, 5, 5, 1.0).unwrap();
        assert_eq!(m.tiles()[(4, 4)], 2.0); // overlap accumulates
        assert_eq!(m.tiles()[(9, 9)], 0.0);
        assert!(m.add_block(8, 8, 5, 5, 1.0).is_err());
        assert!(m.add_block(0, 0, 0, 3, 1.0).is_err());
    }

    #[test]
    fn power_stats() {
        let mut m = TilePowerMap::new(4, 4);
        m.add_block(0, 0, 2, 2, 2.0).unwrap();
        assert_eq!(m.total_power(), 8.0);
        assert_eq!(m.peak_power(), 2.0);
    }

    #[test]
    fn suite_has_ten_increasingly_complex_maps() {
        let suite = paper_test_suite(20);
        assert_eq!(suite.len(), 10);
        for (i, (name, map)) in suite.iter().enumerate() {
            assert_eq!(name, &format!("p{}", i + 1));
            assert!(map.total_power() > 0.0, "{name} has no power");
            assert_eq!(map.rows(), 20);
        }
        // Block count (distinct connected sources) grows: approximate by
        // counting nonzero tiles of p1 vs p10's peak structure.
        let p10 = &suite[9].1;
        assert!(p10.peak_power() >= 3.0, "p10 should have one strong source");
    }

    #[test]
    fn suite_scales_to_other_tile_sides() {
        for side in [16, 20, 32, 40] {
            let suite = paper_test_suite(side);
            for (name, map) in &suite {
                assert_eq!(map.rows(), side, "{name} at side {side}");
                assert!(map.total_power() > 0.0);
            }
        }
    }

    #[test]
    fn grid_conversion_preserves_support() {
        let suite = paper_test_suite(20);
        for (name, map) in &suite {
            let grid = map.to_grid(21);
            assert_eq!(grid.shape(), (21, 21), "{name}");
            assert!(grid.max() <= map.peak_power() + 1e-12, "{name}: interpolation overshoot");
            assert!(grid.min() >= -1e-12, "{name}: negative power after interpolation");
        }
    }

    #[test]
    #[should_panic(expected = "tile_side")]
    fn suite_rejects_tiny_grids() {
        paper_test_suite(8);
    }
}
