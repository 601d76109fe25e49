//! The geometric multigrid hierarchy.
//!
//! On TeaLeaf's uniform grids, BoomerAMG's algebraic coarsening reduces
//! to (essentially) geometric 2×2 cell aggregation, so the baseline is
//! built geometrically: each coarser level halves both axes (ragged last
//! blocks absorb odd remainders), re-discretising the diffusion operator
//! from block-averaged densities with the spacing-rescaled `rx/4`,
//! `ry/4`. The coarsest level (≤ `COARSEST_CELLS` unknowns) is factorised
//! densely once at setup ([`crate::chol::Cholesky`]).
//!
//! Smoother: weighted point-Jacobi (`ω = 0.8`), the classic choice for
//! cell-centred diffusion multigrid and TeaLeaf-compatible (no data
//! dependencies inside a sweep).

use crate::chol::Cholesky;
use crate::trace::MgTrace;
use tea_core::{SolveTrace, TileBounds, TileOperator};
use tea_mesh::{Coefficient, Coefficients, Extent2D, Field2D, Mesh2D};

/// Stop coarsening once a level has at most this many cells.
pub const COARSEST_CELLS: usize = 64;

/// Jacobi smoothing weight.
const JACOBI_WEIGHT: f64 = 0.8;

/// One grid level.
#[derive(Debug)]
struct Level {
    /// The level's operator (level 0 = finest).
    pub op: TileOperator,
    /// Reciprocal diagonal for the smoother.
    pub inv_diag: Field2D,
    /// Cells in x.
    pub nx: usize,
    /// Cells in y.
    pub ny: usize,
    // V-cycle scratch, owned per level so cycles allocate nothing.
    pub(crate) x: Field2D,
    pub(crate) b: Field2D,
    pub(crate) r: Field2D,
}

/// V-cycle smoothing configuration.
#[derive(Debug, Clone, Copy)]
pub struct MgOpts {
    /// Pre-smoothing sweeps.
    pub nu_pre: usize,
    /// Post-smoothing sweeps.
    pub nu_post: usize,
}

impl Default for MgOpts {
    fn default() -> Self {
        MgOpts {
            nu_pre: 2,
            nu_post: 2,
        }
    }
}

/// A built multigrid hierarchy with a dense coarse factorisation.
#[derive(Debug)]
pub struct MgHierarchy {
    /// Levels, finest first.
    levels: Vec<Level>,
    /// `None`: the coarsest operator is numerically singular and no
    /// V-cycle can run ([`MgHierarchy::is_singular`]).
    coarse: Option<Cholesky>,
    opts: MgOpts,
    /// Total cells touched during setup (for the performance model's
    /// setup-cost term).
    pub setup_cells: u64,
}

fn make_level(
    density: &Field2D,
    nx: usize,
    ny: usize,
    kind: Coefficient,
    rx: f64,
    ry: f64,
) -> Level {
    let mesh = Mesh2D::serial(nx, ny, Extent2D::unit());
    let coeffs = Coefficients::assemble(&mesh, density, kind, rx, ry, 1);
    let op = TileOperator::new(coeffs, TileBounds::serial(nx, ny));
    let mut inv_diag = Field2D::new(nx, ny, 1);
    op.diagonal_into(&mut inv_diag, 0);
    for k in 0..ny as isize {
        for v in inv_diag.row_mut(k, 0, nx as isize) {
            *v = 1.0 / *v;
        }
    }
    Level {
        op,
        inv_diag,
        nx,
        ny,
        x: Field2D::new(nx, ny, 1),
        b: Field2D::new(nx, ny, 1),
        r: Field2D::new(nx, ny, 1),
    }
}

/// Block-averages a density field onto the coarser grid (ragged blocks
/// absorb odd remainders).
fn coarsen_density(fine: &Field2D, cnx: usize, cny: usize) -> Field2D {
    let (fnx, fny) = (fine.nx(), fine.ny());
    let mut coarse = Field2D::new(cnx, cny, 1);
    for ck in 0..cny {
        let k0 = ck * 2;
        let k1 = if ck + 1 == cny {
            fny
        } else {
            (k0 + 2).min(fny)
        };
        for cj in 0..cnx {
            let j0 = cj * 2;
            let j1 = if cj + 1 == cnx {
                fnx
            } else {
                (j0 + 2).min(fnx)
            };
            let mut acc = 0.0;
            for k in k0..k1 {
                for j in j0..j1 {
                    acc += fine.at(j as isize, k as isize);
                }
            }
            coarse.set(
                cj as isize,
                ck as isize,
                acc / ((j1 - j0) * (k1 - k0)) as f64,
            );
        }
    }
    coarse
}

impl MgHierarchy {
    /// Builds the hierarchy from the finest-level density and operator
    /// scalings. `density` must carry at least one ghost layer.
    pub fn build(density: &Field2D, kind: Coefficient, rx: f64, ry: f64, opts: MgOpts) -> Self {
        let (mut nx, mut ny) = (density.nx(), density.ny());
        assert!(nx >= 2 && ny >= 2, "grid too small for multigrid");
        let mut levels = Vec::new();
        let mut setup_cells = 0u64;
        let mut d = {
            // reflect so ghost densities exist on every level
            let mut d0 = density.clone();
            d0.reflect_boundaries(1);
            d0
        };
        let (mut rx_l, mut ry_l) = (rx, ry);
        loop {
            setup_cells += (nx * ny) as u64;
            levels.push(make_level(&d, nx, ny, kind, rx_l, ry_l));
            if nx * ny <= COARSEST_CELLS || nx < 4 || ny < 4 {
                break;
            }
            let (cnx, cny) = (nx.div_ceil(2), ny.div_ceil(2));
            let mut cd = coarsen_density(&d, cnx, cny);
            cd.reflect_boundaries(1);
            d = cd;
            nx = cnx;
            ny = cny;
            rx_l *= 0.25;
            ry_l *= 0.25;
        }
        // dense coarsest operator
        let last = levels.last().unwrap();
        let (cn, cnx) = (last.nx * last.ny, last.nx);
        let mut dense = vec![0.0; cn * cn];
        {
            let kx = &last.op.coeffs.kx;
            let ky = &last.op.coeffs.ky;
            let idx = |j: usize, k: usize| k * cnx + j;
            for k in 0..last.ny {
                for j in 0..last.nx {
                    let (js, ks) = (j as isize, k as isize);
                    let row = idx(j, k);
                    let diag = 1.0
                        + (ky.at(js, ks + 1) + ky.at(js, ks))
                        + (kx.at(js + 1, ks) + kx.at(js, ks));
                    dense[row * cn + row] = diag;
                    if j > 0 {
                        dense[row * cn + idx(j - 1, k)] = -kx.at(js, ks);
                    }
                    if j + 1 < last.nx {
                        dense[row * cn + idx(j + 1, k)] = -kx.at(js + 1, ks);
                    }
                    if k > 0 {
                        dense[row * cn + idx(j, k - 1)] = -ky.at(js, ks);
                    }
                    if k + 1 < last.ny {
                        dense[row * cn + idx(j, k + 1)] = -ky.at(js, ks + 1);
                    }
                }
            }
        }
        let coarse = Cholesky::factor(&dense, cn);
        MgHierarchy {
            levels,
            coarse,
            opts,
            setup_cells,
        }
    }

    /// Whether the coarsest operator failed to factorise — a time step
    /// so large that `I + Δt·L` lost its identity part to round-off. The
    /// caller must not run [`MgHierarchy::vcycle`] on such a hierarchy.
    pub(crate) fn is_singular(&self) -> bool {
        self.coarse.is_none()
    }

    /// Number of levels (≥ 1).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Per-level `(nx, ny)` shapes, finest first.
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.levels.iter().map(|l| (l.nx, l.ny)).collect()
    }

    /// Applies one V-cycle to approximately solve `A z = r` on the finest
    /// level, writing into `z` (overwritten, i.e. zero initial guess).
    pub fn vcycle(&mut self, r: &Field2D, z: &mut Field2D, trace: &mut MgTrace) {
        trace.vcycles += 1;
        // load the finest rhs
        self.levels[0].b.copy_interior_from(r);
        self.descend(0, trace);
        z.copy_interior_from(&self.levels[0].x);
    }

    fn descend(&mut self, l: usize, trace: &mut MgTrace) {
        let nlev = self.levels.len();
        let mut scratch = SolveTrace::new("mg");
        if l + 1 == nlev {
            // coarsest: dense direct solve
            let lev = &mut self.levels[l];
            let mut rhs: Vec<f64> = Vec::with_capacity(lev.nx * lev.ny);
            for k in 0..lev.ny as isize {
                rhs.extend_from_slice(lev.b.row(k, 0, lev.nx as isize));
            }
            self.coarse
                .as_ref()
                .expect("callers check is_singular before cycling")
                .solve_in_place(&mut rhs);
            for k in 0..lev.ny {
                lev.x
                    .row_mut(k as isize, 0, lev.nx as isize)
                    .copy_from_slice(&rhs[k * lev.nx..(k + 1) * lev.nx]);
            }
            trace.coarse_solves += 1;
            return;
        }

        // pre-smooth from zero
        {
            let lev = &mut self.levels[l];
            lev.x.fill(0.0);
            for _ in 0..self.opts.nu_pre {
                smooth(lev, &mut scratch);
                trace.record_level_sweep(l);
            }
            // residual r = b - A x
            lev.op.residual(&lev.x, &lev.b, &mut lev.r, 0, &mut scratch);
            trace.record_level_sweep(l);
        }

        // restrict to the coarser rhs
        {
            let (fine, coarse) = split_two(&mut self.levels, l);
            restrict(&fine.r, &mut coarse.b);
            trace.record_level_sweep(l + 1);
        }

        self.descend(l + 1, trace);

        // prolongate and correct, then post-smooth
        {
            let (fine, coarse) = split_two(&mut self.levels, l);
            prolongate_add(&coarse.x, &mut fine.x);
            trace.record_level_sweep(l);
        }
        {
            let lev = &mut self.levels[l];
            for _ in 0..self.opts.nu_post {
                smooth(lev, &mut scratch);
                trace.record_level_sweep(l);
            }
        }
    }
}

/// Borrow levels `l` and `l+1` simultaneously.
fn split_two(levels: &mut [Level], l: usize) -> (&mut Level, &mut Level) {
    let (a, b) = levels.split_at_mut(l + 1);
    (&mut a[l], &mut b[0])
}

/// One weighted-Jacobi sweep `x += ω D⁻¹ (b - A x)` on a level.
fn smooth(lev: &mut Level, scratch: &mut SolveTrace) {
    lev.op.residual(&lev.x, &lev.b, &mut lev.r, 0, scratch);
    for k in 0..lev.ny as isize {
        let nx = lev.nx as isize;
        let rr = lev.r.row(k, 0, nx);
        let dd = lev.inv_diag.row(k, 0, nx);
        let xr = lev.x.row_mut(k, 0, nx);
        for i in 0..xr.len() {
            xr[i] += JACOBI_WEIGHT * dd[i] * rr[i];
        }
    }
}

/// Full-weighting (block-average) restriction of `fine` into `coarse`.
fn restrict(fine: &Field2D, coarse: &mut Field2D) {
    let (fnx, fny) = (fine.nx(), fine.ny());
    let (cnx, cny) = (coarse.nx(), coarse.ny());
    for ck in 0..cny {
        let k0 = ck * 2;
        let k1 = if ck + 1 == cny {
            fny
        } else {
            (k0 + 2).min(fny)
        };
        for cj in 0..cnx {
            let j0 = cj * 2;
            let j1 = if cj + 1 == cnx {
                fnx
            } else {
                (j0 + 2).min(fnx)
            };
            let mut acc = 0.0;
            for k in k0..k1 {
                for j in j0..j1 {
                    acc += fine.at(j as isize, k as isize);
                }
            }
            coarse.set(
                cj as isize,
                ck as isize,
                acc / ((j1 - j0) * (k1 - k0)) as f64,
            );
        }
    }
}

/// Piecewise-constant prolongation: adds each coarse value to all fine
/// cells of its block.
fn prolongate_add(coarse: &Field2D, fine: &mut Field2D) {
    let (fnx, fny) = (fine.nx(), fine.ny());
    let (cnx, cny) = (coarse.nx(), coarse.ny());
    for k in 0..fny {
        let ck = (k / 2).min(cny - 1);
        for j in 0..fnx {
            let cj = (j / 2).min(cnx - 1);
            let v = coarse.at(cj as isize, ck as isize);
            *fine.at_mut(j as isize, k as isize) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_mesh::{crooked_pipe, timestep_scalings};

    fn pipe_density(n: usize) -> (Field2D, f64, f64, Coefficient) {
        let p = crooked_pipe(n);
        let mesh = Mesh2D::serial(n, n, p.extent);
        let mut density = Field2D::new(n, n, 1);
        let mut energy = Field2D::new(n, n, 1);
        p.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, 0.04);
        (density, rx, ry, p.coefficient)
    }

    #[test]
    fn hierarchy_halves_each_level() {
        let (d, rx, ry, kind) = pipe_density(64);
        let h = MgHierarchy::build(&d, kind, rx, ry, MgOpts::default());
        let shapes = h.shapes();
        assert_eq!(shapes[0], (64, 64));
        assert_eq!(shapes[1], (32, 32));
        let (cnx, cny) = *shapes.last().unwrap();
        assert!(cnx * cny <= COARSEST_CELLS);
        assert!(h.depth() >= 3);
        assert!(h.setup_cells >= (64 * 64) as u64);
    }

    #[test]
    fn odd_sizes_coarsen_with_ragged_blocks() {
        let (d, rx, ry, kind) = pipe_density(33);
        let h = MgHierarchy::build(&d, kind, rx, ry, MgOpts::default());
        let shapes = h.shapes();
        assert_eq!(shapes[0], (33, 33));
        assert_eq!(shapes[1], (17, 17));
        assert_eq!(shapes[2], (9, 9));
    }

    #[test]
    fn restriction_preserves_constants_and_prolongation_injects() {
        let mut fine = Field2D::new(8, 8, 1);
        fine.fill_interior(3.0);
        let mut coarse = Field2D::new(4, 4, 1);
        restrict(&fine, &mut coarse);
        for k in 0..4isize {
            for j in 0..4isize {
                assert_eq!(coarse.at(j, k), 3.0);
            }
        }
        let mut fine2 = Field2D::new(8, 8, 1);
        prolongate_add(&coarse, &mut fine2);
        for k in 0..8isize {
            for j in 0..8isize {
                assert_eq!(fine2.at(j, k), 3.0);
            }
        }
    }

    #[test]
    fn vcycle_contracts_the_residual() {
        let (d, rx, ry, kind) = pipe_density(32);
        let mut h = MgHierarchy::build(&d, kind, rx, ry, MgOpts::default());
        // manufactured problem: random-ish rhs
        let mut b = Field2D::new(32, 32, 1);
        for k in 0..32isize {
            for j in 0..32isize {
                b.set(j, k, ((j * 13 + k * 7) % 9) as f64 - 4.0);
            }
        }
        let mut x = Field2D::new(32, 32, 1);
        let mut z = Field2D::new(32, 32, 1);
        let mut r = Field2D::new(32, 32, 1);
        let mut scratch = SolveTrace::new("t");
        let mut trace = MgTrace::default();

        let op = &h.levels[0].op.clone();
        op.residual(&x, &b, &mut r, 0, &mut scratch);
        let mut prev = r.interior_norm();
        let r0 = prev;
        for _ in 0..6 {
            // x += V(r)
            h.vcycle(&r, &mut z, &mut trace);
            for k in 0..32isize {
                for j in 0..32isize {
                    let v = x.at(j, k) + z.at(j, k);
                    x.set(j, k, v);
                }
            }
            op.residual(&x, &b, &mut r, 0, &mut scratch);
            let now = r.interior_norm();
            assert!(now < prev, "V-cycle must contract: {now} vs {prev}");
            prev = now;
        }
        assert!(
            prev < 0.05 * r0,
            "six V-cycles must reduce the residual well: {prev} vs {r0}"
        );
        assert_eq!(trace.vcycles, 6);
        assert_eq!(trace.coarse_solves, 6);
        assert!(trace.level_sweeps.len() >= 2);
    }

    #[test]
    fn coarse_direct_solve_is_exact_on_single_level() {
        // a grid at/below COARSEST_CELLS yields a 1-level hierarchy whose
        // V-cycle is the dense direct solve
        let (d, rx, ry, kind) = pipe_density(8);
        let mut h = MgHierarchy::build(&d, kind, rx, ry, MgOpts::default());
        assert_eq!(h.depth(), 1);
        let mut b = Field2D::new(8, 8, 1);
        for k in 0..8isize {
            for j in 0..8isize {
                b.set(j, k, (j - k) as f64);
            }
        }
        let mut z = Field2D::new(8, 8, 1);
        let mut trace = MgTrace::default();
        h.vcycle(&b, &mut z, &mut trace);
        let mut r = Field2D::new(8, 8, 1);
        let mut scratch = SolveTrace::new("t");
        h.levels[0].op.residual(&z, &b, &mut r, 0, &mut scratch);
        assert!(r.interior_max_abs() < 1e-10, "direct solve must be exact");
    }
}
