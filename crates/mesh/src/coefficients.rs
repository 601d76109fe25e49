//! Face conduction coefficients `Kx`, `Ky`.
//!
//! Matches TeaLeaf's `tea_leaf_common` initialisation: a working array
//! `w` is formed from the density per [`Coefficient`], then face
//! coefficients are
//!
//! ```text
//! Kx(j,k) = (w(j-1,k) + w(j,k)) / (2 * w(j-1,k) * w(j,k))   (mean of 1/w)
//! Ky(j,k) = (w(j,k-1) + w(j,k)) / (2 * w(j,k-1) * w(j,k))
//! ```
//!
//! and finally scaled by `rx = dt/dx^2` (resp. `ry = dt/dy^2`) so the
//! matrix-free operator reads exactly like the paper's Listing 1 with no
//! extra multiplications. `Kx(j,k)` lives on the face between cells
//! `(j-1,k)` and `(j,k)`.
//!
//! Insulated (zero-flux) domain boundaries are imposed by zeroing every
//! face on or beyond the global boundary. This is algebraically identical
//! to the reference's reflective ghost exchange (the flux
//! `K*(u_in - u_ghost)` vanishes either way because reflection makes
//! `u_ghost = u_in`), but it makes the operator's SPD structure explicit
//! and spares every solver iteration a boundary-reflection pass.

use std::ops::Range;

use crate::field::{Field2, Field2D};
use crate::geometry::Coefficient;
use crate::mesh::Mesh2D;
use crate::scalar::Scalar;

/// The assembled, pre-scaled face-coefficient fields for one tile.
///
/// Both fields carry the same halo depth as requested at assembly so the
/// matrix-powers kernel can evaluate the stencil inside the halo region.
/// Assembly always happens in `f64`; reduced-precision operators are
/// derived by [`Coefficients::convert`].
#[derive(Debug, Clone, PartialEq)]
pub struct Coefficients<S: Scalar = f64> {
    /// X-face coefficients, pre-multiplied by `rx`.
    pub kx: Field2<S>,
    /// Y-face coefficients, pre-multiplied by `ry`.
    pub ky: Field2<S>,
}

impl Coefficients<f64> {
    /// Assembles coefficients for `mesh` from cell densities.
    ///
    /// `density` must carry at least `halo` ghost layers, already filled
    /// consistently with neighbouring tiles (e.g. by
    /// [`crate::geometry::Problem::apply_states`], which initialises
    /// ghosts geometrically). `rx`/`ry` are the `dt/dx^2` scalings.
    ///
    /// Faces on or outside the global domain boundary are zeroed
    /// (insulated boundary, see module docs). All interior faces are
    /// strictly positive for positive densities.
    pub fn assemble(
        mesh: &Mesh2D,
        density: &Field2D,
        kind: Coefficient,
        rx: f64,
        ry: f64,
        halo: usize,
    ) -> Self {
        assert!(
            density.halo() >= halo,
            "density halo {} shallower than requested {halo}",
            density.halo()
        );
        let (nx, ny) = (mesh.nx() as isize, mesh.ny() as isize);
        let h = halo as isize;
        let mut kx = Field2D::new(mesh.nx(), mesh.ny(), halo);
        let mut ky = Field2D::new(mesh.nx(), mesh.ny(), halo);
        let (gnx, gny) = mesh.global_cells();
        let (x_off, y_off) = (
            mesh.subdomain().offset.0 as isize,
            mesh.subdomain().offset.1 as isize,
        );
        // a face is live only when both adjacent cells lie inside the
        // global domain and inside the allocation: `Kx(j, k)` joins
        // `(j-1, k)` and `(j, k)`, `Ky(j, k)` joins `(j, k-1)` and `(j, k)`
        let cols_hi = (gnx as isize - x_off).min(nx + h);
        let rows_hi = (gny as isize - y_off).min(ny + h);
        let kx_rows = (-y_off).max(-h)..rows_hi;
        let kx_cols = (1 - x_off).max(1 - h)..cols_hi;
        let ky_rows = (1 - y_off).max(1 - h)..rows_hi;
        let ky_cols = (-x_off).max(-h)..cols_hi;
        // one monomorphised sweep per recipe keeps the `match` out of the
        // row loops
        match kind {
            Coefficient::Conductivity => {
                let w = |d: f64| d;
                fill_faces(&mut kx, density, kx_rows, kx_cols, (1, 0), rx, w);
                fill_faces(&mut ky, density, ky_rows, ky_cols, (0, 1), ry, w);
            }
            Coefficient::RecipConductivity => {
                let w = |d: f64| 1.0 / d;
                fill_faces(&mut kx, density, kx_rows, kx_cols, (1, 0), rx, w);
                fill_faces(&mut ky, density, ky_rows, ky_cols, (0, 1), ry, w);
            }
        }
        Coefficients { kx, ky }
    }

    /// The per-cell assembly [`Coefficients::assemble`] replaced: face
    /// liveness decided cell by cell. Kept as the oracle the row
    /// assembly is checked against.
    #[cfg(test)]
    pub(crate) fn assemble_per_cell(
        mesh: &Mesh2D,
        density: &Field2D,
        kind: Coefficient,
        rx: f64,
        ry: f64,
        halo: usize,
    ) -> Self {
        let (nx, ny) = (mesh.nx(), mesh.ny());
        let h = halo as isize;
        let mut kx = Field2D::new(nx, ny, halo);
        let mut ky = Field2D::new(nx, ny, halo);
        let w_of = |j: isize, k: isize| -> f64 {
            let d = density.at(j, k);
            match kind {
                Coefficient::Conductivity => d,
                Coefficient::RecipConductivity => 1.0 / d,
            }
        };
        let (gnx, gny) = mesh.global_cells();
        let (x_off, y_off) = (
            mesh.subdomain().offset.0 as isize,
            mesh.subdomain().offset.1 as isize,
        );
        for k in -h..ny as isize + h {
            for j in -h..nx as isize + h {
                let (gxf, gyf) = (x_off + j, y_off + k);
                let kx_live =
                    gxf >= 1 && gxf < gnx as isize && gyf >= 0 && gyf < gny as isize && j > -h;
                if kx_live {
                    let (a, b) = (w_of(j - 1, k), w_of(j, k));
                    kx.set(j, k, rx * (a + b) / (2.0 * a * b));
                }
                let ky_live =
                    gyf >= 1 && gyf < gny as isize && gxf >= 0 && gxf < gnx as isize && k > -h;
                if ky_live {
                    let (a, b) = (w_of(j, k - 1), w_of(j, k));
                    ky.set(j, k, ry * (a + b) / (2.0 * a * b));
                }
            }
        }
        Coefficients { kx, ky }
    }
}

/// Fills `faces` over `rows × cols` with `scale·(a + b)/(2ab)`, the mean
/// of `1/w` across each face: `b = w(ρ(j, k))` and `a = w(ρ(j − dj, k −
/// dk))` for the neighbour across it.
fn fill_faces(
    faces: &mut Field2D,
    density: &Field2D,
    rows: Range<isize>,
    cols: Range<isize>,
    (dj, dk): (isize, isize),
    scale: f64,
    w: impl Fn(f64) -> f64,
) {
    if cols.is_empty() {
        return;
    }
    let (lo, hi) = (cols.start, cols.end);
    for k in rows {
        let near = density.row(k - dk, lo - dj, hi - dj);
        let here = density.row(k, lo, hi);
        for ((f, &dn), &dh) in faces.row_mut(k, lo, hi).iter_mut().zip(near).zip(here) {
            debug_assert!(dn > 0.0 && dh > 0.0, "non-positive density in row {k}");
            let (a, b) = (w(dn), w(dh));
            *f = scale * (a + b) / (2.0 * a * b);
        }
    }
}

impl<S: Scalar> Coefficients<S> {
    /// Halo depth the coefficient fields were assembled with.
    pub fn halo(&self) -> usize {
        self.kx.halo()
    }

    /// Converts both coefficient fields to scalar type `T` (rounding for
    /// narrower formats) — how the mixed-precision solvers derive their
    /// `f32` operator from the assembled `f64` one.
    pub fn convert<T: Scalar>(&self) -> Coefficients<T> {
        Coefficients {
            kx: self.kx.convert(),
            ky: self.ky.convert(),
        }
    }
}

/// Computes `rx = dt / dx^2` and `ry = dt / dy^2` for a mesh and time step.
pub fn timestep_scalings(mesh: &Mesh2D, dt: f64) -> (f64, f64) {
    assert!(dt > 0.0, "time step must be positive");
    (dt / (mesh.dx() * mesh.dx()), dt / (mesh.dy() * mesh.dy()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{crooked_pipe, Problem, Shape, State};
    use crate::mesh::Extent2D;
    use crate::Decomposition2D;
    use proptest::prelude::*;

    fn uniform_density(n: usize, halo: usize, rho: f64) -> (Mesh2D, Field2D) {
        let mesh = Mesh2D::serial(n, n, Extent2D::unit());
        let density = Field2D::filled(n, n, halo, rho);
        (mesh, density)
    }

    #[test]
    fn uniform_density_gives_uniform_interior_faces() {
        let (mesh, density) = uniform_density(8, 2, 2.0);
        let c = Coefficients::assemble(&mesh, &density, Coefficient::Conductivity, 1.0, 1.0, 2);
        // interior face: mean of 1/w with w = 2 -> 0.5
        assert_eq!(c.kx.at(4, 4), 0.5);
        assert_eq!(c.ky.at(4, 4), 0.5);
        // recip mode: w = 0.5 -> mean of 1/w = 2
        let c2 =
            Coefficients::assemble(&mesh, &density, Coefficient::RecipConductivity, 1.0, 1.0, 2);
        assert_eq!(c2.kx.at(4, 4), 2.0);
    }

    #[test]
    fn boundary_faces_are_zeroed() {
        let (mesh, density) = uniform_density(8, 2, 1.0);
        let c = Coefficients::assemble(&mesh, &density, Coefficient::Conductivity, 1.0, 1.0, 2);
        for k in 0..8 {
            assert_eq!(c.kx.at(0, k), 0.0, "west boundary face must be zero");
            assert_eq!(c.kx.at(8, k), 0.0, "east boundary face must be zero");
            assert_eq!(c.ky.at(k, 0), 0.0, "south boundary face must be zero");
            assert_eq!(c.ky.at(k, 8), 0.0, "north boundary face must be zero");
        }
        // first interior face alive
        assert!(c.kx.at(1, 0) > 0.0);
        assert!(c.ky.at(0, 1) > 0.0);
    }

    #[test]
    fn rx_ry_scaling_applied() {
        let (mesh, density) = uniform_density(4, 1, 1.0);
        let c = Coefficients::assemble(&mesh, &density, Coefficient::Conductivity, 0.25, 4.0, 1);
        assert_eq!(c.kx.at(2, 2), 0.25);
        assert_eq!(c.ky.at(2, 2), 4.0);
    }

    #[test]
    fn timestep_scalings_match_definition() {
        let mesh = Mesh2D::serial(10, 20, Extent2D::square(10.0));
        let (rx, ry) = timestep_scalings(&mesh, 0.04);
        assert!((rx - 0.04 / 1.0).abs() < 1e-15);
        assert!((ry - 0.04 / 0.25).abs() < 1e-15);
    }

    #[test]
    fn face_values_harmonic_form() {
        // two-cell contrast: w = 1 and w = 3 -> K = (1+3)/(2*3) = 2/3
        let mesh = Mesh2D::serial(4, 4, Extent2D::unit());
        let mut density = Field2D::filled(4, 4, 1, 1.0);
        for k in -1..5 {
            for j in 2..5 {
                density.set(j, k, 3.0);
            }
        }
        let c = Coefficients::assemble(&mesh, &density, Coefficient::Conductivity, 1.0, 1.0, 1);
        assert!((c.kx.at(2, 1) - 2.0 / 3.0).abs() < 1e-15);
        // pure-material faces
        assert_eq!(c.kx.at(1, 1), 1.0);
        assert!((c.kx.at(3, 1) - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn tiles_agree_with_serial_assembly_on_shared_faces() {
        let n = 16;
        let problem: Problem = crooked_pipe(n);
        let halo = 2;

        // serial assembly
        let serial_mesh = Mesh2D::serial(n, n, problem.extent);
        let mut sd = Field2D::new(n, n, halo);
        let mut se = Field2D::new(n, n, halo);
        problem.apply_states(&serial_mesh, &mut sd, &mut se);
        let sc = Coefficients::assemble(&serial_mesh, &sd, problem.coefficient, 1.0, 1.0, halo);

        // 2x2 decomposed assembly
        let d = Decomposition2D::with_grid(n, n, 2, 2);
        for rank in 0..4 {
            let mesh = Mesh2D::new(&d, rank, problem.extent);
            let mut dd = Field2D::new(mesh.nx(), mesh.ny(), halo);
            let mut de = Field2D::new(mesh.nx(), mesh.ny(), halo);
            problem.apply_states(&mesh, &mut dd, &mut de);
            let dc = Coefficients::assemble(&mesh, &dd, problem.coefficient, 1.0, 1.0, halo);
            let (ox, oy) = mesh.subdomain().offset;
            for k in 0..mesh.ny() as isize {
                for j in 0..mesh.nx() as isize {
                    let (gj, gk) = (j + ox as isize, k + oy as isize);
                    assert_eq!(
                        dc.kx.at(j, k),
                        sc.kx.at(gj, gk),
                        "kx mismatch at global ({gj},{gk}) on rank {rank}"
                    );
                    assert_eq!(
                        dc.ky.at(j, k),
                        sc.ky.at(gj, gk),
                        "ky mismatch at global ({gj},{gk}) on rank {rank}"
                    );
                }
            }
        }
    }

    /// A small deterministic generator for the random problems below.
    struct Lcg(u64);

    impl Lcg {
        fn unit(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.unit() * n as f64) as usize % n
        }
    }

    /// A random problem on an `nx × ny` mesh: a random extent and up to
    /// eight states — rectangles (inverted, degenerate, outside the
    /// domain, or with edges on cell faces and cell centres), circles and
    /// points (on faces or anywhere), with the odd NaN coordinate — in a
    /// random order, with the coefficient recipe drawn too.
    fn random_problem(nx: usize, ny: usize, seed: u64) -> Problem {
        let mut rng = Lcg(seed | 1);
        let (x_min, y_min) = (rng.unit() * 10.0 - 5.0, rng.unit() * 10.0 - 5.0);
        let extent = Extent2D {
            x_min,
            x_max: x_min + 0.5 + rng.unit() * 20.0,
            y_min,
            y_max: y_min + 0.5 + rng.unit() * 20.0,
        };
        let dx = extent.width() / nx as f64;
        let dy = extent.height() / ny as f64;
        // a coordinate along one axis: anywhere around the domain, on a
        // face, on a cell centre (where `>=` / `<` decide), or now and
        // then NaN, which no cell may match
        let coord = |rng: &mut Lcg, lo: f64, d: f64, n: usize| -> f64 {
            let i = rng.below(n + 6) as f64 - 3.0;
            match rng.below(16) {
                0 => f64::NAN,
                1..=5 => lo + (rng.unit() * (n as f64 + 6.0) - 3.0) * d,
                6..=10 => lo + i * d,
                _ => lo + (i + 0.5) * d,
            }
        };
        let mut problem = crate::geometry::crooked_pipe_rect(nx, ny);
        problem.extent = extent;
        problem.states.truncate(1);
        for _ in 0..rng.below(9) {
            let shape = match rng.below(4) {
                0 | 1 => {
                    let x_lo = coord(&mut rng, x_min, dx, nx);
                    let y_lo = coord(&mut rng, y_min, dy, ny);
                    // degenerate or inverted now and then
                    let (x_hi, y_hi) = match rng.below(4) {
                        0 => (x_lo, coord(&mut rng, y_min, dy, ny)),
                        _ => (
                            coord(&mut rng, x_min, dx, nx),
                            coord(&mut rng, y_min, dy, ny),
                        ),
                    };
                    Shape::Rectangle {
                        x_min: x_lo,
                        y_min: y_lo,
                        x_max: x_hi,
                        y_max: y_hi,
                    }
                }
                2 => Shape::Circle {
                    cx: coord(&mut rng, x_min, dx, nx),
                    cy: coord(&mut rng, y_min, dy, ny),
                    radius: rng.unit() * extent.width() * 0.5,
                },
                _ => Shape::Point {
                    x: coord(&mut rng, x_min, dx, nx),
                    y: coord(&mut rng, y_min, dy, ny),
                },
            };
            problem.states.push(State {
                shape,
                density: 0.05 + rng.unit() * 100.0,
                energy: rng.unit() * 10.0,
            });
        }
        if rng.below(2) == 1 {
            problem.coefficient = Coefficient::RecipConductivity;
        }
        problem
    }

    fn bits(f: &Field2D) -> Vec<u64> {
        f.raw().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The span painter and the row assembly reproduce the per-cell
        /// oracles bit for bit, interior and ghosts, on every tile of a
        /// 1×1, 2×1 and 2×2 decomposition — with the two state fields at
        /// independent ghost depths, each painted to its own.
        #[test]
        fn sweeps_match_the_per_cell_oracles(
            nx in 2usize..20,
            ny in 2usize..20,
            halo in 1usize..6,
            energy_halo in 0usize..6,
            seed in any::<u64>(),
            scale in 0.01f64..50.0,
        ) {
            let problem = random_problem(nx, ny, seed);
            let assembly_halo = 1 + seed as usize % halo;
            for (px, py) in [(1, 1), (2, 1), (2, 2)] {
                let d = Decomposition2D::with_grid(nx, ny, px, py);
                for rank in 0..d.ranks() {
                    let mesh = Mesh2D::new(&d, rank, problem.extent);
                    let (tx, ty) = (mesh.nx(), mesh.ny());
                    let mut density = Field2D::new(tx, ty, halo);
                    let mut energy = Field2D::new(tx, ty, energy_halo);
                    problem.apply_states(&mesh, &mut density, &mut energy);
                    let mut want_density = Field2D::new(tx, ty, halo);
                    let mut want_energy = Field2D::new(tx, ty, energy_halo);
                    problem.apply_states_per_cell(&mesh, &mut want_density, &mut want_energy);
                    prop_assert_eq!(bits(&density), bits(&want_density), "density, rank {}", rank);
                    prop_assert_eq!(bits(&energy), bits(&want_energy), "energy, rank {}", rank);

                    for kind in [Coefficient::Conductivity, Coefficient::RecipConductivity] {
                        let (rx, ry) = (scale, 1.0 / scale);
                        let got = Coefficients::assemble(&mesh, &density, kind, rx, ry, assembly_halo);
                        let want = Coefficients::assemble_per_cell(
                            &mesh, &density, kind, rx, ry, assembly_halo,
                        );
                        prop_assert_eq!(bits(&got.kx), bits(&want.kx), "kx {:?}, rank {}", kind, rank);
                        prop_assert_eq!(bits(&got.ky), bits(&want.ky), "ky {:?}, rank {}", kind, rank);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn shallow_density_halo_panics() {
        let (mesh, density) = uniform_density(4, 1, 1.0);
        let _ = Coefficients::assemble(&mesh, &density, Coefficient::Conductivity, 1.0, 1.0, 2);
    }
}
