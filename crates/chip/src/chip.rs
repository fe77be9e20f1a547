use deepoheat_fdm::{BoundaryCondition, Face, FluxMap, HeatProblem, StructuredGrid};
use deepoheat_linalg::Matrix;

use crate::{ChipError, Layer};

/// The paper's power-map unit: "a one-unit power corresponds to a
/// 0.00625 mW power" at a grid point (§V.A.1).
pub const UNIT_POWER_WATTS: f64 = 0.00625e-3;

/// A chip: a stack of [`Layer`]s on a common rectangular footprint, with a
/// boundary condition per outer face and an optional unit-based 2-D power
/// map on the top surface.
///
/// `Chip` is the geometry/configuration hub of the reproduction: it meshes
/// itself onto a [`StructuredGrid`], converts to a [`HeatProblem`] for the
/// reference solver, and exposes the normalized node coordinates the
/// surrogate trains on.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct Chip {
    grid: StructuredGrid,
    layers: Vec<Layer>,
    boundaries: [BoundaryCondition; 6],
    /// Per-node volumetric power override (`W/m³`), replacing the
    /// layer-derived field when set.
    volumetric_override: Option<Vec<f64>>,
}

impl Chip {
    /// Builds a chip from a bottom-up stack of layers.
    ///
    /// The grid has `nx × ny × nz` vertices over the footprint
    /// `lx × ly` and total stack thickness; every face starts adiabatic.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidDesign`] for an empty stack or
    /// non-positive footprint, and propagates grid-validation errors.
    pub fn new(
        lx: f64,
        ly: f64,
        nx: usize,
        ny: usize,
        nz: usize,
        layers: Vec<Layer>,
    ) -> Result<Self, ChipError> {
        if layers.is_empty() {
            return Err(ChipError::InvalidDesign { what: "chip needs at least one layer".into() });
        }
        if !(lx.is_finite() && lx > 0.0 && ly.is_finite() && ly > 0.0) {
            return Err(ChipError::InvalidDesign {
                what: format!("footprint {lx} x {ly} must be positive"),
            });
        }
        let lz: f64 = layers.iter().map(|l| l.thickness()).sum();
        let grid = StructuredGrid::new(nx, ny, nz, lx, ly, lz)?;
        Ok(Chip { grid, layers, boundaries: Default::default(), volumetric_override: None })
    }

    /// Convenience constructor for a homogeneous single-cuboid chip (the
    /// §V.A geometry).
    ///
    /// # Errors
    ///
    /// Propagates layer and grid validation errors.
    pub fn single_cuboid(
        lx: f64,
        ly: f64,
        lz: f64,
        nx: usize,
        ny: usize,
        nz: usize,
        conductivity: f64,
    ) -> Result<Self, ChipError> {
        Chip::new(lx, ly, nx, ny, nz, vec![Layer::new(lz, conductivity)?])
    }

    /// The mesh the chip lives on.
    pub fn grid(&self) -> &StructuredGrid {
        &self.grid
    }

    /// The layer stack, bottom-up.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Sets the boundary condition on a face. On the top face it replaces
    /// a power map set by [`Chip::set_top_power_map_units`].
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from the solver layer.
    pub fn set_boundary(
        &mut self,
        face: Face,
        bc: BoundaryCondition,
    ) -> Result<&mut Self, ChipError> {
        // Validate eagerly via a throw-away problem so errors surface here.
        let mut probe = HeatProblem::new(self.grid, 1.0);
        probe.set_boundary(face, bc.clone())?;
        self.boundaries[face.index()] = bc;
        Ok(self)
    }

    /// Sets the top-surface (z-max) power map in *paper units per node*:
    /// a unit at node `(i, j)` dissipates [`UNIT_POWER_WATTS`] over that
    /// node's surface patch. The map must be `nx × ny`.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidDesign`] on a shape mismatch or
    /// non-finite values.
    pub fn set_top_power_map_units(&mut self, units: &Matrix) -> Result<&mut Self, ChipError> {
        if units.shape() != (self.grid.nx(), self.grid.ny()) {
            return Err(ChipError::InvalidDesign {
                what: format!(
                    "power map is {}x{}, expected {}x{}",
                    units.rows(),
                    units.cols(),
                    self.grid.nx(),
                    self.grid.ny()
                ),
            });
        }
        if !units.is_finite() {
            return Err(ChipError::InvalidDesign {
                what: "power map contains non-finite values".into(),
            });
        }
        let flux = self.units_to_flux(units);
        self.boundaries[Face::ZMax.index()] =
            BoundaryCondition::HeatFlux { flux: FluxMap::Field(flux) };
        Ok(self)
    }

    /// Converts a unit-based node power map to a flux-density field
    /// (`W/m²`) using the uniform cell area `Δx·Δy`.
    ///
    /// The map is treated as samples of a flux *function* (the paper's
    /// branch-net encoding), so the conversion factor is identical at
    /// every node; the reference solver then integrates this same density
    /// over each node's boundary patch, keeping both solvers consistent.
    pub fn units_to_flux(&self, units: &Matrix) -> Matrix {
        let g = &self.grid;
        let density = UNIT_POWER_WATTS / (g.dx() * g.dy());
        units.scaled(density)
    }

    /// The flux density (`W/m²`) that one paper power unit produces on
    /// this chip's grid.
    pub fn unit_flux_density(&self) -> f64 {
        UNIT_POWER_WATTS / (self.grid.dx() * self.grid.dy())
    }

    /// Conductivity at grid layer `k` (vertices on an interface belong to
    /// the upper layer, matching the harmonic-mean face treatment).
    fn layer_at_height(&self, z: f64) -> &Layer {
        let mut base = 0.0;
        for layer in &self.layers {
            let top = base + layer.thickness();
            // Strictly below the layer top -> inside this layer.
            if z < top - 1e-12 * self.grid.lz().max(1.0) {
                return layer;
            }
            base = top;
        }
        self.layers.last().expect("stack is non-empty")
    }

    /// Per-node conductivity field in flat index order.
    pub fn conductivity_field(&self) -> Vec<f64> {
        self.per_node(|layer| layer.conductivity())
    }

    /// Per-node volumetric power-density field in flat index order: the
    /// override set by [`Chip::set_volumetric_power_field`] /
    /// [`Chip::set_volumetric_power_units`] when present, otherwise the
    /// layer-derived field.
    pub fn volumetric_power_field(&self) -> Vec<f64> {
        match &self.volumetric_override {
            Some(field) => field.clone(),
            None => self.per_node(|layer| layer.volumetric_power()),
        }
    }

    /// Replaces the volumetric power-density field with explicit per-node
    /// values (`W/m³`, flat index order) — the §III *volumetric/3-D power
    /// map* configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidDesign`] on a length mismatch or
    /// non-finite values.
    pub fn set_volumetric_power_field(&mut self, field: Vec<f64>) -> Result<&mut Self, ChipError> {
        if field.len() != self.grid.node_count() {
            return Err(ChipError::InvalidDesign {
                what: format!(
                    "volumetric field has {} entries, grid has {} nodes",
                    field.len(),
                    self.grid.node_count()
                ),
            });
        }
        if field.iter().any(|v| !v.is_finite()) {
            return Err(ChipError::InvalidDesign {
                what: "volumetric field contains non-finite values".into(),
            });
        }
        self.volumetric_override = Some(field);
        Ok(self)
    }

    /// Sets a volumetric power map in *paper units per node*: a unit at a
    /// node dissipates [`UNIT_POWER_WATTS`] over that node's cell volume
    /// `Δx·Δy·Δz` (the 3-D analogue of the top-surface encoding).
    ///
    /// # Errors
    ///
    /// As [`Chip::set_volumetric_power_field`].
    pub fn set_volumetric_power_units(&mut self, units: &[f64]) -> Result<&mut Self, ChipError> {
        let density = self.unit_volumetric_density();
        self.set_volumetric_power_field(units.iter().map(|u| u * density).collect())
    }

    /// The volumetric power density (`W/m³`) that one paper power unit
    /// produces per node on this chip's grid.
    pub fn unit_volumetric_density(&self) -> f64 {
        UNIT_POWER_WATTS / (self.grid.dx() * self.grid.dy() * self.grid.dz())
    }

    fn per_node<F: Fn(&Layer) -> f64>(&self, f: F) -> Vec<f64> {
        let g = &self.grid;
        let mut out = vec![0.0; g.node_count()];
        for k in 0..g.nz() {
            let z = k as f64 * g.dz();
            let v = f(self.layer_at_height(z));
            for j in 0..g.ny() {
                for i in 0..g.nx() {
                    out[g.index(i, j, k)] = v;
                }
            }
        }
        out
    }

    /// Assembles the reference [`HeatProblem`] for this design.
    ///
    /// # Errors
    ///
    /// Propagates field and boundary validation from the solver layer.
    pub fn heat_problem(&self) -> Result<HeatProblem, ChipError> {
        let mut problem = HeatProblem::new(self.grid, 1.0);
        problem.set_conductivity_field(self.conductivity_field())?;
        problem.set_volumetric_power(self.volumetric_power_field())?;
        for face in Face::ALL {
            problem.set_boundary(face, self.boundaries[face.index()].clone())?;
        }
        Ok(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepoheat_fdm::SolveOptions;

    fn paper_chip() -> Chip {
        let mut chip = Chip::single_cuboid(1e-3, 1e-3, 0.5e-3, 21, 21, 11, 0.1).unwrap();
        chip.set_boundary(
            Face::ZMin,
            BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 },
        )
        .unwrap();
        chip
    }

    #[test]
    fn construction_validation() {
        assert!(Chip::new(1.0, 1.0, 3, 3, 3, vec![]).is_err());
        assert!(Chip::new(-1.0, 1.0, 3, 3, 3, vec![Layer::new(1.0, 1.0).unwrap()]).is_err());
        assert!(Chip::single_cuboid(1e-3, 1e-3, 0.5e-3, 21, 21, 11, 0.1).is_ok());
    }

    #[test]
    fn stack_thickness_defines_grid() {
        let layers = vec![
            Layer::new(0.25e-3, 0.1).unwrap(),
            Layer::with_volumetric_power(0.05e-3, 0.1, 1.25e7).unwrap(),
            Layer::new(0.25e-3, 0.1).unwrap(),
        ];
        let chip = Chip::new(1e-3, 1e-3, 11, 11, 12, layers).unwrap();
        assert!((chip.grid().lz() - 0.55e-3).abs() < 1e-18);
    }

    #[test]
    fn power_map_units_convert_to_flux() {
        let mut chip = paper_chip();
        chip.set_top_power_map_units(&Matrix::filled(21, 21, 1.0)).unwrap();
        let flux = chip.units_to_flux(&Matrix::filled(21, 21, 1.0));
        // Cell area dx*dy = (5e-5)² -> flux = 6.25e-6/2.5e-9 = 2500 W/m²,
        // uniformly (the map is a function sample, not per-patch power).
        assert!((flux[(10, 10)] - 2500.0).abs() < 1e-9);
        assert!((flux[(0, 0)] - 2500.0).abs() < 1e-9);
        assert!((chip.unit_flux_density() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn power_map_shape_is_validated() {
        let mut chip = paper_chip();
        assert!(chip.set_top_power_map_units(&Matrix::zeros(20, 20)).is_err());
        let mut bad = Matrix::zeros(21, 21);
        bad[(0, 0)] = f64::INFINITY;
        assert!(chip.set_top_power_map_units(&bad).is_err());
    }

    #[test]
    fn conductivity_field_tracks_layers() {
        let layers = vec![Layer::new(0.5e-3, 0.2).unwrap(), Layer::new(0.5e-3, 1.0).unwrap()];
        let chip = Chip::new(1e-3, 1e-3, 3, 3, 11, layers).unwrap();
        let k = chip.conductivity_field();
        let g = chip.grid();
        assert_eq!(k[g.index(1, 1, 0)], 0.2);
        assert_eq!(k[g.index(1, 1, 4)], 0.2); // z = 0.4e-3 < 0.5e-3
        assert_eq!(k[g.index(1, 1, 5)], 1.0); // interface vertex -> upper layer
        assert_eq!(k[g.index(1, 1, 10)], 1.0);
    }

    #[test]
    fn end_to_end_solve_total_power_balance() {
        // Full paper configuration with a uniform unit map: the steady
        // bottom temperature rise must equal total power / (h * A).
        let mut chip = paper_chip();
        chip.set_top_power_map_units(&Matrix::filled(21, 21, 1.0)).unwrap();
        let sol = chip
            .heat_problem()
            .unwrap()
            .solve(SolveOptions { tolerance: 1e-12, ..Default::default() })
            .unwrap();
        // A uniform unit map is a uniform 2500 W/m² flux: the problem is
        // exactly 1-D, so the bottom sits at T_amb + q/h everywhere.
        let expected_bottom = 298.15 + 2500.0 / 500.0;
        for &(i, j) in &[(0usize, 0usize), (10, 10), (20, 7)] {
            assert!(
                (sol.at(i, j, 0) - expected_bottom).abs() < 1e-6,
                "bottom ({i},{j}) = {} vs {expected_bottom}",
                sol.at(i, j, 0)
            );
        }
        // And the top matches the 1-D slab profile.
        let expected_top = expected_bottom + 2500.0 * 0.5e-3 / 0.1;
        assert!((sol.at(10, 10, 10) - expected_top).abs() < 1e-6);
    }

    #[test]
    fn volumetric_layer_field() {
        let layers = vec![
            Layer::new(0.25e-3, 0.1).unwrap(),
            Layer::with_total_power(0.05e-3, 0.1, 0.000625, 1e-6).unwrap(),
            Layer::new(0.25e-3, 0.1).unwrap(),
        ];
        let chip = Chip::new(1e-3, 1e-3, 5, 5, 12, layers).unwrap();
        let q = chip.volumetric_power_field();
        let g = chip.grid();
        // dz = 0.05mm: powered layer spans z in [0.25, 0.30) mm => k = 5.
        assert_eq!(q[g.index(2, 2, 0)], 0.0);
        assert!(q[g.index(2, 2, 5)] > 1e7);
        assert_eq!(q[g.index(2, 2, 7)], 0.0);
    }
}
