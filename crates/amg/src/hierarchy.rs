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
//! dependencies inside a sweep). Each sweep is one pass,
//! [`TileOperator::jacobi_sweep`] with per-level weights `ω·D⁻¹`,
//! ping-ponging between the level's iterate and residual buffers; a
//! cycle's first sweep starts from the zero guess and skips its stencil.
//! The finest level reads the caller's residual as its right-hand side
//! and writes its last sweep straight into the caller's correction.

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
    op: TileOperator,
    /// Smoother weights `ω·D⁻¹`.
    w: Field2D,
    /// Cells in x.
    nx: usize,
    /// Cells in y.
    ny: usize,
    // V-cycle scratch, owned per level so cycles allocate nothing: the
    // iterate, and the buffer each sweep writes before the two swap
    // (it ends the pre-smoothing holding the residual).
    x: Field2D,
    r: Field2D,
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
    /// Right-hand sides of levels `1..` (the restricted residuals),
    /// `rhs[l]` belonging to level `l + 1`.
    rhs: Vec<Field2D>,
    /// `None`: the coarsest operator is numerically singular and no
    /// V-cycle can run ([`MgHierarchy::is_singular`]).
    coarse: Option<Cholesky>,
    opts: MgOpts,
    /// Sink for the residual kernel's trace records, which nothing reads
    /// (the cycle counts its sweeps in [`MgTrace`]).
    scratch: SolveTrace,
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
    let mut w = Field2D::new(nx, ny, 1);
    op.diagonal_into(&mut w, 0);
    for k in 0..ny as isize {
        for v in w.row_mut(k, 0, nx as isize) {
            *v = JACOBI_WEIGHT * (1.0 / *v);
        }
    }
    Level {
        op,
        w,
        nx,
        ny,
        x: Field2D::new(nx, ny, 1),
        r: Field2D::new(nx, ny, 1),
    }
}

/// Block-averages a density field onto the coarser grid.
fn coarsen_density(fine: &Field2D, cnx: usize, cny: usize) -> Field2D {
    let mut coarse = Field2D::new(cnx, cny, 1);
    restrict(fine, &mut coarse);
    coarse
}

impl MgHierarchy {
    /// Builds the hierarchy from the finest-level density and operator
    /// scalings. `density` must carry at least one ghost layer.
    pub fn build(density: &Field2D, kind: Coefficient, rx: f64, ry: f64, opts: MgOpts) -> Self {
        let (mut nx, mut ny) = (density.nx(), density.ny());
        assert!(nx >= 2 && ny >= 2, "grid too small for multigrid");
        let mut levels = Vec::new();
        let mut rhs = Vec::new();
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
            rhs.push(Field2D::new(nx, ny, 0));
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
            rhs,
            coarse,
            opts,
            scratch: SolveTrace::default(),
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
        let mut cycle = Cycle {
            coarse: self
                .coarse
                .as_ref()
                .expect("callers check is_singular before cycling"),
            opts: self.opts,
            scratch: &mut self.scratch,
            trace,
        };
        cycle.descend(&mut self.levels, &mut self.rhs, r, Some(z), 0);
    }
}

/// What one V-cycle threads through its recursion besides the levels.
struct Cycle<'a> {
    coarse: &'a Cholesky,
    opts: MgOpts,
    scratch: &'a mut SolveTrace,
    trace: &'a mut MgTrace,
}

impl Cycle<'_> {
    /// Cycles from `levels[0]` (level `l`) down against right-hand side
    /// `b`, with `rhs` holding the coarser levels' right-hand sides. The
    /// result lands in `out` when given (the finest level writes the
    /// caller's `z`), else in the level's `x` for the finer level's
    /// prolongation.
    fn descend(
        &mut self,
        levels: &mut [Level],
        rhs: &mut [Field2D],
        b: &Field2D,
        out: Option<&mut Field2D>,
        l: usize,
    ) {
        let (lev, coarser) = levels.split_first_mut().expect("a level to cycle on");
        let Some((coarse_b, coarser_rhs)) = rhs.split_first_mut() else {
            // coarsest: dense direct solve
            let mut sol: Vec<f64> = Vec::with_capacity(lev.nx * lev.ny);
            for k in 0..lev.ny as isize {
                sol.extend_from_slice(b.row(k, 0, lev.nx as isize));
            }
            self.coarse.solve_in_place(&mut sol);
            let x = out.unwrap_or(&mut lev.x);
            for (k, s) in sol.chunks_exact(lev.nx).enumerate() {
                x.row_mut(k as isize, 0, lev.nx as isize).copy_from_slice(s);
            }
            self.trace.coarse_solves += 1;
            return;
        };

        // pre-smooth from zero, then the residual into `r`
        self.smooth(lev, b, self.opts.nu_pre, true, None, l);
        lev.op.residual(&lev.x, b, &mut lev.r, 0, self.scratch);
        self.trace.record_level_sweep(l);

        // restrict to the coarser rhs and cycle there
        restrict(&lev.r, coarse_b);
        self.trace.record_level_sweep(l + 1);
        self.descend(coarser, coarser_rhs, coarse_b, None, l + 1);

        // prolongate and correct, then post-smooth
        prolongate_add(&coarser[0].x, &mut lev.x);
        self.trace.record_level_sweep(l);
        self.smooth(lev, b, self.opts.nu_post, false, out, l);
    }

    /// `sweeps` one-pass Jacobi sweeps on `lev` against `b`, each
    /// writing `r` before `x` and `r` swap. `from_zero` starts from the
    /// zero guess instead of `x`; `out`, when given, takes the last
    /// sweep (or a copy of `x` when there are none) in place of `x`.
    fn smooth(
        &mut self,
        lev: &mut Level,
        b: &Field2D,
        sweeps: usize,
        from_zero: bool,
        mut out: Option<&mut Field2D>,
        l: usize,
    ) {
        for s in 0..sweeps {
            let x = (s > 0 || !from_zero).then_some(&lev.x);
            match out.as_deref_mut() {
                Some(z) if s + 1 == sweeps => lev.op.jacobi_sweep(x, b, &lev.w, z),
                _ => {
                    lev.op.jacobi_sweep(x, b, &lev.w, &mut lev.r);
                    std::mem::swap(&mut lev.x, &mut lev.r);
                }
            }
            self.trace.record_level_sweep(l);
        }
        if sweeps == 0 {
            if from_zero {
                lev.x.fill(0.0);
            }
            if let Some(z) = out {
                z.copy_interior_from(&lev.x);
            }
        }
    }
}

/// Full-weighting (block-average) restriction of `fine` into `coarse`,
/// whose extents are `fine`'s halved and rounded up: each coarse cell
/// averages a 2×2 block, 1-wide at an odd edge. Sums each block from
/// `+0.0` in row-major order, then divides by its cell count. Whole
/// pairs and the odd edge are separate loops, so the pairs vectorize.
fn restrict(fine: &Field2D, coarse: &mut Field2D) {
    let (fnx, fny, cnx) = (fine.nx(), fine.ny(), coarse.nx());
    debug_assert_eq!((cnx, coarse.ny()), (fnx.div_ceil(2), fny.div_ceil(2)));
    let even = fnx & !1;
    for ck in 0..coarse.ny() {
        let k0 = 2 * ck;
        let r0 = fine.row(k0 as isize, 0, fnx as isize);
        let cr = coarse.row_mut(ck as isize, 0, cnx as isize);
        if k0 + 1 < fny {
            let r1 = fine.row(k0 as isize + 1, 0, fnx as isize);
            let pairs = r0[..even].chunks_exact(2).zip(r1[..even].chunks_exact(2));
            for (c, (a, b)) in cr.iter_mut().zip(pairs) {
                *c = (0.0 + a[0] + a[1] + b[0] + b[1]) / 4.0;
            }
            if even < fnx {
                cr[cnx - 1] = (0.0 + r0[even] + r1[even]) / 2.0;
            }
        } else {
            for (c, a) in cr.iter_mut().zip(r0[..even].chunks_exact(2)) {
                *c = (0.0 + a[0] + a[1]) / 2.0;
            }
            if even < fnx {
                cr[cnx - 1] = 0.0 + r0[even];
            }
        }
    }
}

/// Piecewise-constant prolongation: adds each coarse value to all fine
/// cells of its block (the blocks of [`restrict`]).
fn prolongate_add(coarse: &Field2D, fine: &mut Field2D) {
    let (fnx, cnx) = (fine.nx(), coarse.nx());
    debug_assert_eq!((cnx, coarse.ny()), (fnx.div_ceil(2), fine.ny().div_ceil(2)));
    for k in 0..fine.ny() {
        let cr = coarse.row((k / 2) as isize, 0, cnx as isize);
        let fr = fine.row_mut(k as isize, 0, fnx as isize);
        let (pairs, edge) = fr.split_at_mut(fnx & !1);
        for (f, &v) in pairs.chunks_exact_mut(2).zip(cr) {
            f[0] += v;
            f[1] += v;
        }
        if let Some(f) = edge.first_mut() {
            *f += cr[cnx - 1];
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

    /// The pre-one-pass V-cycle, kept as the oracle: per-level `x`/`b`/`r`
    /// buffers, a residual sweep plus an `x += ω·D⁻¹·r` sweep per
    /// smoothing step from an explicitly zeroed `x`, the residual copied
    /// in and the correction copied out, and per-cell transfers. It runs
    /// on `h`'s operators and coarse factorisation.
    mod oracle {
        use super::*;

        struct Level<'a> {
            op: &'a TileOperator,
            inv_diag: Field2D,
            x: Field2D,
            b: Field2D,
            r: Field2D,
        }

        pub(super) fn vcycle(h: &MgHierarchy, r: &Field2D, trace: &mut MgTrace) -> Field2D {
            let mut levels: Vec<Level<'_>> = h
                .levels
                .iter()
                .map(|l| {
                    let mut inv_diag = Field2D::new(l.nx, l.ny, 1);
                    l.op.diagonal_into(&mut inv_diag, 0);
                    for k in 0..l.ny as isize {
                        for v in inv_diag.row_mut(k, 0, l.nx as isize) {
                            *v = 1.0 / *v;
                        }
                    }
                    Level {
                        op: &l.op,
                        inv_diag,
                        x: Field2D::new(l.nx, l.ny, 1),
                        b: Field2D::new(l.nx, l.ny, 1),
                        r: Field2D::new(l.nx, l.ny, 1),
                    }
                })
                .collect();
            trace.vcycles += 1;
            levels[0].b.copy_interior_from(r);
            descend(h, &mut levels, 0, trace);
            let mut z = Field2D::new(r.nx(), r.ny(), 1);
            z.copy_interior_from(&levels[0].x);
            z
        }

        fn descend(h: &MgHierarchy, levels: &mut [Level<'_>], l: usize, trace: &mut MgTrace) {
            let mut scratch = SolveTrace::new("mg");
            if l + 1 == levels.len() {
                let lev = &mut levels[l];
                let (nx, ny) = (lev.x.nx(), lev.x.ny());
                let mut rhs: Vec<f64> = Vec::with_capacity(nx * ny);
                for k in 0..ny as isize {
                    rhs.extend_from_slice(lev.b.row(k, 0, nx as isize));
                }
                h.coarse.as_ref().unwrap().solve_in_place(&mut rhs);
                for k in 0..ny {
                    lev.x
                        .row_mut(k as isize, 0, nx as isize)
                        .copy_from_slice(&rhs[k * nx..(k + 1) * nx]);
                }
                trace.coarse_solves += 1;
                return;
            }
            {
                let lev = &mut levels[l];
                lev.x.fill(0.0);
                for _ in 0..h.opts.nu_pre {
                    smooth(lev, &mut scratch);
                    trace.record_level_sweep(l);
                }
                lev.op.residual(&lev.x, &lev.b, &mut lev.r, 0, &mut scratch);
                trace.record_level_sweep(l);
            }
            {
                let (fine, coarse) = levels.split_at_mut(l + 1);
                restrict(&fine[l].r, &mut coarse[0].b);
                trace.record_level_sweep(l + 1);
            }
            descend(h, levels, l + 1, trace);
            {
                let (fine, coarse) = levels.split_at_mut(l + 1);
                prolongate_add(&coarse[0].x, &mut fine[l].x);
                trace.record_level_sweep(l);
            }
            let lev = &mut levels[l];
            for _ in 0..h.opts.nu_post {
                smooth(lev, &mut scratch);
                trace.record_level_sweep(l);
            }
        }

        fn smooth(lev: &mut Level<'_>, scratch: &mut SolveTrace) {
            lev.op.residual(&lev.x, &lev.b, &mut lev.r, 0, scratch);
            let nx = lev.x.nx() as isize;
            for k in 0..lev.x.ny() as isize {
                let rr = lev.r.row(k, 0, nx);
                let dd = lev.inv_diag.row(k, 0, nx);
                let xr = lev.x.row_mut(k, 0, nx);
                for i in 0..xr.len() {
                    xr[i] += JACOBI_WEIGHT * dd[i] * rr[i];
                }
            }
        }

        pub(super) fn restrict(fine: &Field2D, coarse: &mut Field2D) {
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

        pub(super) fn prolongate_add(coarse: &Field2D, fine: &mut Field2D) {
            let (fnx, fny) = (fine.nx(), fine.ny());
            let (cnx, cny) = (coarse.nx(), coarse.ny());
            for k in 0..fny {
                let ck = (k / 2).min(cny - 1);
                for j in 0..fnx {
                    let cj = (j / 2).min(cnx - 1);
                    let (j, k) = (j as isize, k as isize);
                    fine.set(j, k, fine.at(j, k) + coarse.at(cj as isize, ck as isize));
                }
            }
        }
    }

    fn assert_interior_bits(got: &Field2D, want: &Field2D, what: &str) {
        for k in 0..got.ny() as isize {
            for j in 0..got.nx() as isize {
                assert_eq!(
                    got.at(j, k).to_bits(),
                    want.at(j, k).to_bits(),
                    "{what} ({j},{k})"
                );
            }
        }
    }

    #[test]
    fn vcycle_matches_the_two_sweep_oracle_bitwise() {
        // 33² coarsens 33 → 17 → 9 → 5: a ragged block on every level
        let n = 33;
        let (d, rx, ry, kind) = pipe_density(n);
        let mut r = Field2D::new(n, n, 2);
        for k in 0..n as isize {
            for j in 0..n as isize {
                r.set(j, k, ((j * 13 + k * 7) % 9) as f64 - 4.0 + j as f64 / 11.0);
            }
        }
        r.set(3, 5, -0.0);
        for nu_pre in 0..=3 {
            for nu_post in 0..=3 {
                let opts = MgOpts { nu_pre, nu_post };
                let mut h = MgHierarchy::build(&d, kind, rx, ry, opts);
                let mut want_trace = MgTrace::default();
                let want = oracle::vcycle(&h, &r, &mut want_trace);
                let mut trace = MgTrace::default();
                // twice, so stale scratch from the first cycle must not leak
                let mut z = Field2D::new(n, n, 2);
                h.vcycle(&r, &mut z, &mut trace);
                h.vcycle(&r, &mut z, &mut trace);
                let what = format!("nu_pre {nu_pre} nu_post {nu_post}");
                assert_interior_bits(&z, &want, &what);
                assert_eq!(trace.vcycles, 2 * want_trace.vcycles, "{what}");
                assert_eq!(trace.coarse_solves, 2 * want_trace.coarse_solves, "{what}");
                for (l, &sweeps) in &want_trace.level_sweeps {
                    assert_eq!(trace.level_sweeps[l], 2 * sweeps, "{what} level {l}");
                }
                assert_eq!(trace.level_sweeps.len(), want_trace.level_sweeps.len());
            }
        }
    }

    #[test]
    fn transfers_match_the_per_cell_oracle_bitwise() {
        for (fnx, fny) in [(33, 33), (8, 8), (9, 6), (2, 3)] {
            let mut fine = Field2D::new(fnx, fny, 1);
            for k in 0..fny as isize {
                for j in 0..fnx as isize {
                    fine.set(j, k, ((j * 7 + k * 5) % 11) as f64 / 3.0 - 1.7);
                }
            }
            let (cnx, cny) = (fnx.div_ceil(2), fny.div_ceil(2));
            let (mut coarse, mut want) = (Field2D::new(cnx, cny, 0), Field2D::new(cnx, cny, 0));
            restrict(&fine, &mut coarse);
            oracle::restrict(&fine, &mut want);
            assert_interior_bits(&coarse, &want, "restrict");
            let mut want_fine = fine.clone();
            prolongate_add(&coarse, &mut fine);
            oracle::prolongate_add(&coarse, &mut want_fine);
            assert_interior_bits(&fine, &want_fine, "prolongate");
        }
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
