//! Problem geometry: material states and the crooked-pipe test case.
//!
//! TeaLeaf input decks describe the initial condition as a background
//! state plus a list of shaped states (rectangles, circles, points), each
//! carrying a density and a specific energy. The CLUSTER'17 evaluation uses
//! an AWE "crooked pipe" problem: a dense, low-conductivity wall material
//! crossed by a low-density, high-conductivity pipe with several kinks, and
//! a heat source at the pipe inlet. The original deck is not published, so
//! [`crooked_pipe`] reconstructs it from the paper's description and
//! Fig. 3 (see DESIGN.md §3, substitution 4).

use crate::field::Field2D;
use crate::mesh::{Extent2D, Mesh2D};

/// Geometric region of a material state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Applies everywhere; must be the first state.
    Background,
    /// Axis-aligned rectangle `[x_min, x_max) x [y_min, y_max)`.
    Rectangle {
        /// Lower x bound.
        x_min: f64,
        /// Lower y bound.
        y_min: f64,
        /// Upper x bound.
        x_max: f64,
        /// Upper y bound.
        y_max: f64,
    },
    /// Disc of `radius` centred at `(cx, cy)`.
    Circle {
        /// Centre x.
        cx: f64,
        /// Centre y.
        cy: f64,
        /// Radius.
        radius: f64,
    },
    /// The single cell containing `(x, y)`.
    Point {
        /// Point x.
        x: f64,
        /// Point y.
        y: f64,
    },
}

impl Shape {
    /// Whether the cell centred at `(x, y)` with spacing `(dx, dy)` belongs
    /// to this shape. Cell membership is decided by the cell centre, except
    /// for `Point` which claims the unique containing cell.
    pub fn contains(&self, x: f64, y: f64, dx: f64, dy: f64) -> bool {
        match *self {
            Shape::Background => true,
            Shape::Rectangle {
                x_min,
                y_min,
                x_max,
                y_max,
            } => x >= x_min && x < x_max && y >= y_min && y < y_max,
            Shape::Circle { cx, cy, radius } => {
                let (ddx, ddy) = (x - cx, y - cy);
                ddx * ddx + ddy * ddy <= radius * radius
            }
            Shape::Point { x: px, y: py } => {
                (x - px).abs() <= dx * 0.5 && (y - py).abs() <= dy * 0.5
            }
        }
    }
}

/// A material state from the input deck: geometry plus initial
/// density/energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct State {
    /// Region the state applies to.
    pub shape: Shape,
    /// Initial mass density.
    pub density: f64,
    /// Initial specific energy.
    pub energy: f64,
}

/// Conduction-coefficient recipe (TeaLeaf `tl_coefficient`).
///
/// Matching the Fortran reference, the recipe fixes the working array
/// `w` from which face coefficients are formed as
/// `K = (w_a + w_b) / (2 w_a w_b)`, i.e. the mean of `1/w`:
///
/// * [`Coefficient::Conductivity`]: `w = density`, so the face coefficient
///   is the mean reciprocal density — **dense material insulates**. This is
///   what the crooked-pipe problem uses (dense wall, conducting pipe).
/// * [`Coefficient::RecipConductivity`]: `w = 1/density`, so the face
///   coefficient is the mean density — dense material conducts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coefficient {
    /// `w = density` (`COEF_CONDUCTIVITY`); dense cells conduct poorly.
    #[default]
    Conductivity,
    /// `w = 1/density` (`COEF_RECIP_CONDUCTIVITY`); dense cells conduct
    /// well.
    RecipConductivity,
}

/// A complete physical problem description: mesh size, physical extent,
/// material states and coefficient recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Global cells in x.
    pub x_cells: usize,
    /// Global cells in y.
    pub y_cells: usize,
    /// Physical bounding box.
    pub extent: Extent2D,
    /// Background state followed by overlay states (later wins).
    pub states: Vec<State>,
    /// Conduction-coefficient recipe.
    pub coefficient: Coefficient,
}

/// The most cells (`x_cells × y_cells`) a problem may ask for: 16384²,
/// sixteen times the paper's 4000² mesh. A rank allocates about a dozen
/// fields of this size, so a larger (or overflowing) product is a typo
/// that would abort the process in the allocator, not a run.
const MAX_CELLS: usize = 1 << 28;

impl Problem {
    /// Validates structural invariants: a background first state, positive
    /// densities, a non-empty mesh of at most `MAX_CELLS` cells over a
    /// finite, positive extent.
    pub fn validate(&self) -> Result<(), String> {
        if self.x_cells == 0 || self.y_cells == 0 {
            return Err("mesh must have at least one cell per axis".into());
        }
        if self
            .x_cells
            .checked_mul(self.y_cells)
            .is_none_or(|cells| cells > MAX_CELLS)
        {
            return Err(format!(
                "mesh of {} x {} cells exceeds the {MAX_CELLS}-cell limit",
                self.x_cells, self.y_cells
            ));
        }
        let (width, height) = (self.extent.width(), self.extent.height());
        // NaN fails `> 0.0`, so it is rejected with the non-positive extents
        if !(width.is_finite() && height.is_finite() && width > 0.0 && height > 0.0) {
            return Err("physical extent must be finite and positive".into());
        }
        match self.states.first() {
            None => return Err("at least a background state is required".into()),
            Some(s) if s.shape != Shape::Background => {
                return Err("first state must be the background".into())
            }
            _ => {}
        }
        for (i, s) in self.states.iter().enumerate() {
            // `!(x > 0)` deliberately rejects NaN as well as non-positive
            if !s.density.is_finite() || s.density <= 0.0 {
                return Err(format!("state {i} has non-positive density {}", s.density));
            }
            if !s.energy.is_finite() || s.energy < 0.0 {
                return Err(format!("state {i} has negative energy {}", s.energy));
            }
        }
        Ok(())
    }

    /// Initialises `density` and `energy` fields for the tile described by
    /// `mesh`, applying states in order over interior *and* ghost cells
    /// (ghosts get the geometric value so coefficient computation near tile
    /// edges matches the serial run; the exterior boundary is later fixed
    /// by reflection).
    pub fn apply_states(&self, mesh: &Mesh2D, density: &mut Field2D, energy: &mut Field2D) {
        assert_eq!(density.nx(), mesh.nx());
        assert_eq!(density.ny(), mesh.ny());
        assert_eq!(energy.nx(), mesh.nx());
        assert_eq!(energy.ny(), mesh.ny());
        let h = density.halo().min(energy.halo()) as isize;
        let (dx, dy) = (mesh.dx(), mesh.dy());
        for k in -h..mesh.ny() as isize + h {
            for j in -h..mesh.nx() as isize + h {
                let (x, y) = mesh.cell_center(j, k);
                for s in &self.states {
                    if s.shape.contains(x, y, dx, dy) {
                        density.set(j, k, s.density);
                        energy.set(j, k, s.energy);
                    }
                }
            }
        }
    }

    /// Convenience: number of global cells.
    pub fn cells(&self) -> usize {
        self.x_cells * self.y_cells
    }
}

/// Wall (background) density of the crooked-pipe problem.
const PIPE_WALL_DENSITY: f64 = 100.0;
/// Wall specific energy.
const PIPE_WALL_ENERGY: f64 = 0.0001;
/// Pipe material density (low density => high conductivity under
/// [`Coefficient::Conductivity`], whose face coefficient is the mean
/// reciprocal density).
pub const PIPE_DENSITY: f64 = 0.1;
/// Pipe specific energy.
const PIPE_ENERGY: f64 = 25.0;
/// Inlet source specific energy.
const PIPE_SOURCE_ENERGY: f64 = 300.0;

/// Builds the crooked-pipe problem on an `n x n` mesh over a `10 x 10`
/// physical domain.
///
/// The pipe enters at the left edge (y in [1, 2]), runs right, turns up,
/// runs right along y in [5, 6], turns down and exits at the right edge
/// (y in [2, 3]) — four kinks, matching the shape of the paper's Fig. 3.
/// A high-energy source fills the first half-unit of the inlet.
pub fn crooked_pipe(n: usize) -> Problem {
    crooked_pipe_rect(n, n)
}

/// Crooked pipe on an `nx x ny` mesh (non-square variant for decomposition
/// tests).
pub fn crooked_pipe_rect(nx: usize, ny: usize) -> Problem {
    let wall = State {
        shape: Shape::Background,
        density: PIPE_WALL_DENSITY,
        energy: PIPE_WALL_ENERGY,
    };
    let pipe = |x_min: f64, y_min: f64, x_max: f64, y_max: f64| State {
        shape: Shape::Rectangle {
            x_min,
            y_min,
            x_max,
            y_max,
        },
        density: PIPE_DENSITY,
        energy: PIPE_ENERGY,
    };
    let source = State {
        shape: Shape::Rectangle {
            x_min: 0.0,
            y_min: 1.0,
            x_max: 0.5,
            y_max: 2.0,
        },
        density: PIPE_DENSITY,
        energy: PIPE_SOURCE_ENERGY,
    };
    Problem {
        x_cells: nx,
        y_cells: ny,
        extent: Extent2D::square(10.0),
        states: vec![
            wall,
            // inlet leg, left edge to first kink
            pipe(0.0, 1.0, 3.5, 2.0),
            // rising leg
            pipe(2.5, 1.0, 3.5, 6.0),
            // upper horizontal leg
            pipe(2.5, 5.0, 7.0, 6.0),
            // descending leg
            pipe(6.0, 2.0, 7.0, 6.0),
            // outlet leg to the right edge
            pipe(6.0, 2.0, 10.0, 3.0),
            source,
        ],
        coefficient: Coefficient::Conductivity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_contain_expected_points() {
        let r = Shape::Rectangle {
            x_min: 1.0,
            y_min: 1.0,
            x_max: 2.0,
            y_max: 3.0,
        };
        assert!(r.contains(1.5, 2.0, 0.1, 0.1));
        assert!(!r.contains(2.5, 2.0, 0.1, 0.1));
        assert!(r.contains(1.0, 1.0, 0.1, 0.1)); // inclusive low edge
        assert!(!r.contains(2.0, 2.0, 0.1, 0.1)); // exclusive high edge

        let c = Shape::Circle {
            cx: 0.0,
            cy: 0.0,
            radius: 1.0,
        };
        assert!(c.contains(0.5, 0.5, 0.1, 0.1));
        assert!(!c.contains(1.0, 1.0, 0.1, 0.1));

        let p = Shape::Point { x: 0.55, y: 0.55 };
        assert!(p.contains(0.5, 0.5, 0.2, 0.2));
        assert!(!p.contains(0.9, 0.5, 0.2, 0.2));

        assert!(Shape::Background.contains(123.0, -9.0, 1.0, 1.0));
    }

    #[test]
    fn crooked_pipe_validates() {
        let p = crooked_pipe(100);
        p.validate().expect("crooked pipe must be valid");
        assert_eq!(p.cells(), 10_000);
        assert_eq!(p.coefficient, Coefficient::Conductivity);
        assert!(p.states.len() >= 6, "wall + >=4 pipe legs + source");
    }

    #[test]
    fn validate_rejects_bad_problems() {
        let mut p = crooked_pipe(10);
        p.x_cells = 0;
        assert!(p.validate().is_err());

        let mut p = crooked_pipe(10);
        p.states.clear();
        assert!(p.validate().is_err());

        let mut p = crooked_pipe(10);
        p.states[0].shape = Shape::Point { x: 0.0, y: 0.0 };
        assert!(p.validate().is_err(), "first state must be background");

        let mut p = crooked_pipe(10);
        p.states[1].density = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn apply_states_sets_pipe_and_wall() {
        let p = crooked_pipe(100);
        let mesh = Mesh2D::serial(100, 100, p.extent);
        let mut density = Field2D::new(100, 100, 2);
        let mut energy = Field2D::new(100, 100, 2);
        p.apply_states(&mesh, &mut density, &mut energy);
        // cell at (0.05, 0.05): wall
        assert_eq!(density.at(0, 0), PIPE_WALL_DENSITY);
        // cell centre (1.55, 1.55): inside inlet leg
        let (j, k) = (15, 15);
        assert_eq!(density.at(j, k), PIPE_DENSITY);
        assert_eq!(energy.at(j, k), PIPE_ENERGY);
        // source region (0.25, 1.55)
        assert_eq!(energy.at(2, 15), PIPE_SOURCE_ENERGY);
        // ghost cells also initialised (reflected later at true boundary)
        assert_eq!(density.at(-1, 0), PIPE_WALL_DENSITY);
    }

    #[test]
    fn pipe_is_connected_left_to_right() {
        // walk the pipe mask with a flood fill; inlet must reach outlet
        let n = 80;
        let p = crooked_pipe(n);
        let mesh = Mesh2D::serial(n, n, p.extent);
        let mut density = Field2D::new(n, n, 0);
        let mut energy = Field2D::new(n, n, 0);
        p.apply_states(&mesh, &mut density, &mut energy);
        let is_pipe = |j: isize, k: isize| -> bool { density.at(j, k) == PIPE_DENSITY };
        // find an inlet cell on the left edge
        let start_k = (0..n as isize)
            .find(|&k| is_pipe(0, k))
            .expect("pipe must touch the left edge");
        let mut seen = vec![false; n * n];
        let mut stack = vec![(0isize, start_k)];
        let mut reached_right = false;
        while let Some((j, k)) = stack.pop() {
            if j < 0 || k < 0 || j >= n as isize || k >= n as isize {
                continue;
            }
            let idx = k as usize * n + j as usize;
            if seen[idx] || !is_pipe(j, k) {
                continue;
            }
            seen[idx] = true;
            if j == n as isize - 1 {
                reached_right = true;
            }
            stack.extend([(j + 1, k), (j - 1, k), (j, k + 1), (j, k - 1)]);
        }
        assert!(reached_right, "crooked pipe must connect left to right");
    }

    #[test]
    fn later_states_override_earlier() {
        let p = crooked_pipe(100);
        let mesh = Mesh2D::serial(100, 100, p.extent);
        let mut density = Field2D::new(100, 100, 0);
        let mut energy = Field2D::new(100, 100, 0);
        p.apply_states(&mesh, &mut density, &mut energy);
        // the source rectangle overlaps the inlet leg; source must win
        assert_eq!(energy.at(2, 15), PIPE_SOURCE_ENERGY);
    }
}
