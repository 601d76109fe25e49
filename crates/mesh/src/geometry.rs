//! Problem geometry: material states and the crooked-pipe test case.
//!
//! TeaLeaf input decks describe the initial condition as a background
//! state plus a list of shaped states (rectangles, circles, points), each
//! carrying a density and a specific energy. The CLUSTER'17 evaluation uses
//! an AWE "crooked pipe" problem: a dense, low-conductivity wall material
//! crossed by a low-density, high-conductivity pipe with several kinks, and
//! a heat source at the pipe inlet. The original deck is not published, so
//! [`crooked_pipe`] reconstructs it from the paper's description and
//! Fig. 3: what the evaluation needs from it is the geometry's contrast —
//! a conductive path through an insulating wall, which makes the operator
//! ill-conditioned — not the exact material values.

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
    /// The single cell containing `(x, y)`, taking each cell as half-open
    /// `[x_lo, x_hi) × [y_lo, y_hi)`: a point on a face belongs to the
    /// cell above it.
    Point {
        /// Point x.
        x: f64,
        /// Point y.
        y: f64,
    },
}

impl Shape {
    /// Whether local cell `(j, k)` of `mesh` (signed; ghosts allowed)
    /// belongs to this shape. Rectangles and circles decide by the cell
    /// centre; a `Point` claims the one cell whose global index is
    /// `⌊(x − x_min)/dx⌋, ⌊(y − y_min)/dy⌋`, so a point on a cell face
    /// belongs to the cell above it.
    pub fn contains(&self, mesh: &Mesh2D, j: isize, k: isize) -> bool {
        let (x, y) = mesh.cell_center(j, k);
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
            Shape::Point { x: px, y: py } => point_cell(mesh, px, py) == (j as f64, k as f64),
        }
    }
}

/// The local index of the one cell a point at `(x, y)` claims: its
/// global index `⌊(x − x_min)/dx⌋, ⌊(y − y_min)/dy⌋` less the tile
/// offset. Kept in `f64` so a point far outside the mesh (or NaN)
/// compares as out of range instead of wrapping in a cast.
fn point_cell(mesh: &Mesh2D, x: f64, y: f64) -> (f64, f64) {
    let extent = mesh.extent();
    let (ox, oy) = mesh.subdomain().offset;
    (
        ((x - extent.x_min) / mesh.dx()).floor() - ox as f64,
        ((y - extent.y_min) / mesh.dy()).floor() - oy as f64,
    )
}

/// The index range of the ascending `centres` that lie in `[min, max)`.
/// Both bounds are monotone predicates over ascending centres, so the
/// members are contiguous; a NaN or inverted bound gives an empty range.
fn span(centres: &[f64], min: f64, max: f64) -> std::ops::Range<usize> {
    // `c >= min` holds for no centre when `min` is NaN
    let lo = centres.partition_point(|&c| c < min || min.is_nan());
    let hi = centres.partition_point(|&c| c < max);
    lo..hi.max(lo)
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
    /// by reflection). Each field is painted to its own ghost depth, so
    /// the two may differ: the driver assembles from a `density` one layer
    /// deeper than the solver halo its `energy` (the right-hand side) has.
    ///
    /// States are painted by row spans: the background fills whole rows,
    /// a rectangle the contiguous column span whose centres lie inside it
    /// on every row whose centre does, a point its one cell; circles test
    /// each cell. Membership is [`Shape::contains`]'s, decision for
    /// decision.
    pub fn apply_states(&self, mesh: &Mesh2D, density: &mut Field2D, energy: &mut Field2D) {
        assert_eq!(density.nx(), mesh.nx());
        assert_eq!(density.ny(), mesh.ny());
        assert_eq!(energy.nx(), mesh.nx());
        assert_eq!(energy.ny(), mesh.ny());
        let (hd, he) = (density.halo() as isize, energy.halo() as isize);
        let h = hd.max(he);
        let (nx, ny) = (mesh.nx() as isize, mesh.ny() as isize);
        // `cell_center`'s x depends on j alone and its y on k alone, and
        // both ascend with the index
        let xs: Vec<f64> = (-h..nx + h).map(|j| mesh.cell_center(j, 0).0).collect();
        let ys: Vec<f64> = (-h..ny + h).map(|k| mesh.cell_center(0, k).1).collect();
        let window = |i: f64, n: isize| i >= -h as f64 && i < (n + h) as f64;
        for s in &self.states {
            // the span `lo..hi` of row `k`, clipped to each field's depth
            let mut paint = |k: isize, lo: isize, hi: isize| {
                for (field, depth, value) in
                    [(&mut *density, hd, s.density), (&mut *energy, he, s.energy)]
                {
                    let (lo, hi) = (lo.max(-depth), hi.min(nx + depth));
                    if (-depth..ny + depth).contains(&k) && lo < hi {
                        field.row_mut(k, lo, hi).fill(value);
                    }
                }
            };
            match s.shape {
                Shape::Background => (-h..ny + h).for_each(|k| paint(k, -h, nx + h)),
                Shape::Rectangle {
                    x_min,
                    y_min,
                    x_max,
                    y_max,
                } => {
                    let cols = span(&xs, x_min, x_max);
                    let (lo, hi) = (cols.start as isize - h, cols.end as isize - h);
                    if lo < hi {
                        for k in span(&ys, y_min, y_max) {
                            paint(k as isize - h, lo, hi);
                        }
                    }
                }
                Shape::Circle { .. } => {
                    for k in -h..ny + h {
                        for j in -h..nx + h {
                            if s.shape.contains(mesh, j, k) {
                                paint(k, j, j + 1);
                            }
                        }
                    }
                }
                Shape::Point { x, y } => {
                    let (j, k) = point_cell(mesh, x, y);
                    if window(j, nx) && window(k, ny) {
                        paint(k as isize, j as isize, j as isize + 1);
                    }
                }
            }
        }
    }

    /// The per-cell painter [`Problem::apply_states`] replaced: every
    /// state tested at every cell of each field, to that field's own
    /// ghost depth, through [`Shape::contains`]. Kept as the oracle the
    /// span painter is checked against.
    #[cfg(test)]
    pub(crate) fn apply_states_per_cell(
        &self,
        mesh: &Mesh2D,
        density: &mut Field2D,
        energy: &mut Field2D,
    ) {
        let (nx, ny) = (mesh.nx() as isize, mesh.ny() as isize);
        let paint = |field: &mut Field2D, value: fn(&State) -> f64| {
            let h = field.halo() as isize;
            for k in -h..ny + h {
                for j in -h..nx + h {
                    for s in &self.states {
                        if s.shape.contains(mesh, j, k) {
                            field.set(j, k, value(s));
                        }
                    }
                }
            }
        };
        paint(density, |s| s.density);
        paint(energy, |s| s.energy);
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
    use crate::decomp::Decomposition2D;

    #[test]
    fn shapes_contain_expected_cells() {
        // unit cells over [0, 10]²: cell (j, k) is centred at (j + ½, k + ½)
        let mesh = Mesh2D::serial(10, 10, Extent2D::square(10.0));
        let r = Shape::Rectangle {
            x_min: 1.5,
            y_min: 1.5,
            x_max: 3.5,
            y_max: 4.5,
        };
        assert!(r.contains(&mesh, 2, 2));
        assert!(!r.contains(&mesh, 0, 2));
        assert!(r.contains(&mesh, 1, 1)); // inclusive low edge
        assert!(!r.contains(&mesh, 3, 2)); // exclusive high edge

        let c = Shape::Circle {
            cx: 0.0,
            cy: 0.0,
            radius: 1.0,
        };
        assert!(c.contains(&mesh, 0, 0));
        assert!(!c.contains(&mesh, 1, 1));

        // a point on the face x = 2 belongs to the cell above it only
        let p = Shape::Point { x: 2.0, y: 3.7 };
        assert!(p.contains(&mesh, 2, 3));
        assert!(!p.contains(&mesh, 1, 3));
        assert!(!p.contains(&mesh, 2, 4));

        assert!(Shape::Background.contains(&mesh, -1, 11));
    }

    /// Background plus one point state at `(x, y)`, density 7.
    fn point_problem(n: usize, x: f64, y: f64) -> Problem {
        let mut p = crooked_pipe(n);
        p.extent = Extent2D::unit();
        p.states.truncate(1);
        p.states.push(State {
            shape: Shape::Point { x, y },
            density: 7.0,
            energy: 7.0,
        });
        p
    }

    #[test]
    fn a_face_point_claims_exactly_one_cell() {
        // on an 8-cell unit mesh x = 0.25 is the face between cells 1
        // and 2, and y = 0.5 the face between cells 3 and 4 — which is
        // also the tile edge of the 2×2 decomposition
        let (n, halo) = (8, 2);
        let p = point_problem(n, 0.25, 0.5);
        let serial = Mesh2D::serial(n, n, p.extent);
        let mut sd = Field2D::new(n, n, halo);
        let mut se = Field2D::new(n, n, halo);
        p.apply_states(&serial, &mut sd, &mut se);
        for (px, py) in [(1, 1), (2, 2)] {
            let d = Decomposition2D::with_grid(n, n, px, py);
            let mut claimed = Vec::new();
            for rank in 0..d.ranks() {
                let mesh = Mesh2D::new(&d, rank, p.extent);
                let mut dd = Field2D::new(mesh.nx(), mesh.ny(), halo);
                let mut de = Field2D::new(mesh.nx(), mesh.ny(), halo);
                p.apply_states(&mesh, &mut dd, &mut de);
                let (ox, oy) = mesh.subdomain().offset;
                let h = halo as isize;
                for k in -h..mesh.ny() as isize + h {
                    for j in -h..mesh.nx() as isize + h {
                        let (gj, gk) = (j + ox as isize, k + oy as isize);
                        let interior = (0..mesh.nx() as isize).contains(&j)
                            && (0..mesh.ny() as isize).contains(&k);
                        if interior && dd.at(j, k) == 7.0 {
                            claimed.push((gj, gk));
                        }
                        // ghosts are painted geometrically, as serially
                        if (-h..n as isize + h).contains(&gj) && (-h..n as isize + h).contains(&gk)
                        {
                            assert_eq!(dd.at(j, k), sd.at(gj, gk), "{px}x{py} rank {rank}");
                        }
                    }
                }
            }
            assert_eq!(claimed, [(2, 4)], "{px}x{py} decomposition");
        }
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
