//! Preconditioners: identity, point-Jacobi (diagonal) and the paper's
//! block-Jacobi (§IV.C.1).
//!
//! The block-Jacobi preconditioner splits the mesh into 4×1 strips along
//! x. Each strip corresponds to a small tridiagonal block of `A` (the
//! within-strip couplings are the `Kx` faces), which is solved directly
//! with the Thomas algorithm — "a much faster variation of Gaussian
//! elimination for tridiagonal systems". Strips at tile edges are
//! truncated to length 3, 2 or 1. Because blocks never cross tile
//! boundaries, applying the preconditioner needs **zero communication**,
//! which is the whole point.
//!
//! The Thomas factors are precomputed at setup (the reference's
//! `cp`/`bfb` arrays), so each application is one forward and one
//! backward sweep per strip.
//!
//! Matrix-powers restriction: the paper notes the block preconditioner
//! cannot be combined with deep-halo sweeps (it needs up-to-date whole
//! blocks); [`Preconditioner::apply`] therefore panics if asked for an
//! extended-sweep application of the block variant.

use crate::ops::{TileBounds, TileOperator};
use crate::trace::SolveTrace;
use crate::vector::{self, lanes, Rows};
use tea_mesh::{Field2, Scalar};

/// Which preconditioner a solver should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreconKind {
    /// No preconditioning (`M = I`).
    #[default]
    None,
    /// Point Jacobi: `M = diag(A)`.
    Diagonal,
    /// 4×1-strip block Jacobi solved by the Thomas algorithm.
    BlockJacobi,
}

impl PreconKind {
    /// Short label used in solver names and figure legends — and the
    /// one deck/CLI spelling [`PreconKind::parse`] accepts.
    pub fn label(self) -> &'static str {
        match self {
            PreconKind::None => "none",
            PreconKind::Diagonal => "jac_diag",
            PreconKind::BlockJacobi => "jac_block",
        }
    }

    /// Parses a deck/CLI spelling: exactly one of the labels (`none`,
    /// `jac_diag`, `jac_block`).
    ///
    /// # Errors
    /// Returns a message listing the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, String> {
        [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ]
        .into_iter()
        .find(|kind| kind.label() == text)
        .ok_or_else(|| {
            format!("unknown preconditioner '{text}' (accepted: none, jac_diag, jac_block)")
        })
    }
}

/// Default strip length matching the paper's 4×1 blocks.
const DEFAULT_BLOCK_STRIP: usize = 4;

/// An assembled preconditioner for one tile, generic over the
/// [`Scalar`] precision. The mixed-precision CG assembles a
/// `Preconditioner<f32>` from the demoted operator and applies it to
/// demoted residuals while the outer recurrence stays in `f64`.
#[derive(Debug, Clone)]
pub enum Preconditioner<S: Scalar = f64> {
    /// `z = r`.
    Identity,
    /// `z = r ./ diag(A)`; valid over extended sweeps.
    Diagonal {
        /// Reciprocal operator diagonal over the full halo extent.
        inv_diag: Field2<S>,
    },
    /// Strip-tridiagonal direct solves; interior sweeps only.
    BlockJacobi(BlockJacobi<S>),
}

/// Precomputed Thomas factors for the 4×1-strip block-Jacobi.
#[derive(Debug, Clone)]
pub struct BlockJacobi<S: Scalar = f64> {
    /// Strip length (paper: 4; ablatable).
    strip: usize,
    /// `c*` factors (normalised superdiagonal) per cell.
    cp: Field2<S>,
    /// Reciprocal pivots per cell.
    minv: Field2<S>,
    /// Within-strip coupling (`-Kx`) reused by the forward sweep:
    /// `sub(j,k) = -kx(j,k)` for cells that are not first in their strip.
    sub: Field2<S>,
}

impl<S: Scalar> Preconditioner<S> {
    /// Assembles the requested preconditioner from the operator.
    ///
    /// `ext_max` is the largest extension a `Diagonal` application may be
    /// asked for (the matrix-powers halo depth); the diagonal is
    /// precomputed over that range.
    pub fn setup(kind: PreconKind, op: &TileOperator<S>, ext_max: usize) -> Self {
        match kind {
            PreconKind::None => Preconditioner::Identity,
            PreconKind::Diagonal => {
                let (nx, ny) = op.bounds.tile();
                let halo = op.coeffs.halo();
                let mut d = Field2::filled(nx, ny, halo, S::ONE);
                op.diagonal_into(&mut d, ext_max.min(halo));
                // invert in place over everything we touched
                let (x_lo, x_hi, y_lo, y_hi) = op.bounds.range(ext_max.min(halo));
                for k in y_lo..y_hi {
                    for v in d.row_mut(k, x_lo, x_hi) {
                        *v = S::ONE / *v;
                    }
                }
                Preconditioner::Diagonal { inv_diag: d }
            }
            PreconKind::BlockJacobi => {
                Preconditioner::BlockJacobi(BlockJacobi::setup(op, DEFAULT_BLOCK_STRIP))
            }
        }
    }

    /// `z = M⁻¹ r` over extension `ext`.
    ///
    /// # Panics
    /// Panics for [`Preconditioner::BlockJacobi`] with `ext > 0`: the
    /// paper's constraint that block solves need fresh whole blocks,
    /// which deep-halo sweeps cannot provide.
    pub fn apply(
        &self,
        r: &Field2<S>,
        z: &mut Field2<S>,
        bounds: &TileBounds,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        match self {
            Preconditioner::Identity => {
                vector::copy(z, r, bounds, ext, trace);
            }
            Preconditioner::Diagonal { inv_diag } => {
                trace.precon_ops.record(ext);
                vector::mul_into(z, r, inv_diag, bounds, ext, trace);
            }
            Preconditioner::BlockJacobi(bj) => {
                assert_eq!(
                    ext, 0,
                    "block-Jacobi cannot be applied over extended (matrix-powers) bounds"
                );
                trace.precon_ops.record(0);
                bj.apply(r, z, bounds);
            }
        }
    }

    /// CG's fused step over the tile interior: `u += αp`, `r −= α·wz`,
    /// then the local `r·z` of the updated residual (`z = M⁻¹r`) —
    /// bit-identical to [`vector::axpy`], [`vector::axpy`],
    /// [`Preconditioner::apply`], [`vector::dot_local`] in that order.
    /// `wz` enters holding `A·p`. Identity and Diagonal do all of it in
    /// the one [`vector::cg_update`] sweep and leave `wz` untouched
    /// (follow with [`Preconditioner::cg_direction`], which does not
    /// read it); block-Jacobi solves its strips into `wz` — `A·p` is
    /// dead once the sweep has consumed it — and pays a separate dot.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors vector::cg_update, whose w is also where block-Jacobi stages z"
    )]
    pub fn cg_update(
        &self,
        u: &mut Field2<S>,
        r: &mut Field2<S>,
        alpha: S,
        p: &Field2<S>,
        wz: &mut Field2<S>,
        bounds: &TileBounds,
        trace: &mut SolveTrace,
    ) -> S {
        match self {
            Preconditioner::Identity => vector::cg_update(u, r, alpha, p, wz, None, bounds, trace),
            Preconditioner::Diagonal { inv_diag } => {
                trace.precon_ops.record(0);
                vector::cg_update(u, r, alpha, p, wz, Some(inv_diag), bounds, trace)
            }
            Preconditioner::BlockJacobi(_) => {
                vector::cg_update(u, r, alpha, p, wz, None, bounds, trace);
                self.apply(r, wz, bounds, 0, trace);
                vector::dot_local(r, wz, bounds, trace)
            }
        }
    }

    /// CG's direction update `p = M⁻¹r + βp` after
    /// [`Preconditioner::cg_update`], bit-identical to
    /// [`vector::xpay`]`(p, z, β)` on a materialized `z`: Identity reads
    /// `r` itself, Diagonal folds `r·inv_diag` into the sweep
    /// ([`vector::scale_add_mul`]; `βp + 1·(r·d)` rounds as
    /// `(r·d) + βp`), block-Jacobi reads the `z` its strip solve stored
    /// in `wz`.
    pub fn cg_direction(
        &self,
        p: &mut Field2<S>,
        r: &Field2<S>,
        wz: &Field2<S>,
        beta: S,
        bounds: &TileBounds,
        trace: &mut SolveTrace,
    ) {
        match self {
            Preconditioner::Identity => vector::xpay(p, r, beta, bounds, 0, trace),
            Preconditioner::Diagonal { inv_diag } => {
                vector::scale_add_mul(p, beta, S::ONE, r, inv_diag, bounds, 0, trace)
            }
            Preconditioner::BlockJacobi(_) => vector::xpay(p, wz, beta, bounds, 0, trace),
        }
    }

    /// Whether this preconditioner may be applied at `ext > 0`.
    pub fn supports_extension(&self) -> bool {
        !matches!(self, Preconditioner::BlockJacobi(_))
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        matches!(self, Preconditioner::Identity)
    }
}

// The block pass's preconditioner rows, compiled twice (`crate::isa`).
crate::isa::twins! {
    mod rows;

    /// `sd = g(sd, M⁻¹rr)` over `rows` of the sweep in one pass, untraced
    /// — with `g = a·sd + b·m` the Chebyshev `sd` recurrence, the
    /// row-local lag sweep of one level of a [`vector::for_rows_block`]
    /// pass. Identity drops the intermediate copy (`M⁻¹rr = rr`),
    /// Diagonal fuses the reciprocal-diagonal product in, and
    /// block-Jacobi solves each row's strips into `tmp` (which the
    /// others leave untouched) just before `g` reads them. All round
    /// exactly like [`Preconditioner::apply`] into `tmp` followed by an
    /// elementwise `g`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the lag sweep of one block level: three fields, the sweep extent, its rows and the recurrence closure"
    )]
    #[cfg_attr(
        not(test),
        allow(dead_code, reason = "the block pass calls the copies directly; the dispatcher serves the tests")
    )]
    pub(crate) fn combine_rows<S: Scalar>(
        precon: &Preconditioner<S>,
        sd: &mut Field2<S>,
        rr: &Field2<S>,
        tmp: &mut Field2<S>,
        bounds: &TileBounds,
        ext: usize,
        rows: Rows,
        g: impl Fn(S, S) -> S + Copy,
    ) {
        let (x_lo, x_hi, _, _) = bounds.range(ext);
        vector::for_rows2(sd, tmp, bounds, ext, rows, |k, sdr, tr| {
            let rrow = rr.row(k, x_lo, x_hi);
            match precon {
                Preconditioner::Identity => lanes::zip_row(sdr, rrow, g),
                Preconditioner::Diagonal { inv_diag } => {
                    let d = inv_diag.row(k, x_lo, x_hi);
                    lanes::zip2_row(sdr, rrow, d, move |y, r, d| g(y, r * d));
                }
                Preconditioner::BlockJacobi(bj) => {
                    debug_assert_eq!(ext, 0, "block-Jacobi strips span the interior only");
                    bj.solve_row(k, rrow, tr);
                    lanes::zip_row(sdr, tr, g);
                }
            }
        });
    }
}

impl<S: Scalar> BlockJacobi<S> {
    /// Precomputes Thomas factors for `strip`-long x strips of `op`.
    pub fn setup(op: &TileOperator<S>, strip: usize) -> Self {
        assert!(strip >= 1, "strip length must be at least 1");
        let (nx, ny) = op.bounds.tile();
        let halo = op.coeffs.halo();
        let mut diag = Field2::new(nx, ny, halo);
        op.diagonal_into(&mut diag, 0);
        let kx = &op.coeffs.kx;
        let mut cp = Field2::new(nx, ny, halo);
        let mut minv = Field2::new(nx, ny, halo);
        let mut sub = Field2::new(nx, ny, halo);
        for k in 0..ny as isize {
            let mut j0 = 0usize;
            while j0 < nx {
                let j1 = (j0 + strip).min(nx);
                // factorise the tridiagonal block [j0, j1) on row k:
                //   b_i = diag(j,k), c_i = a_{i+1} = -kx(j+1,k)
                let mut prev_cp = S::ZERO;
                for (i, j) in (j0..j1).enumerate() {
                    let j = j as isize;
                    let b = diag.at(j, k);
                    let a = if i == 0 { S::ZERO } else { -kx.at(j, k) };
                    let denom = b - a * prev_cp;
                    // NaN passes: an operator that overflowed (a huge time
                    // step demoted to f32) must reach the loops' `Diverged`
                    // ending in debug builds too, as it does in release
                    debug_assert!(
                        denom > S::ZERO || denom.to_f64().is_nan(),
                        "block pivot lost positivity"
                    );
                    let m = S::ONE / denom;
                    // superdiagonal toward j+1 (zero on the strip's last cell)
                    let c = if j as usize + 1 < j1 {
                        -kx.at(j + 1, k)
                    } else {
                        S::ZERO
                    };
                    let cpv = c * m;
                    cp.set(j, k, cpv);
                    minv.set(j, k, m);
                    sub.set(j, k, a);
                    prev_cp = cpv;
                }
                j0 = j1;
            }
        }
        BlockJacobi {
            strip,
            cp,
            minv,
            sub,
        }
    }

    /// Strip length.
    pub fn strip(&self) -> usize {
        self.strip
    }

    /// `z = M⁻¹ r` over the tile interior: Thomas forward/backward sweep
    /// per strip, strips independent (and row sweeps cache-contiguous).
    ///
    /// Rows couple only through `Kx` *within* a strip, never across rows,
    /// so each row is solved in place on its own, with no reduction.
    pub fn apply(&self, r: &Field2<S>, z: &mut Field2<S>, bounds: &TileBounds) {
        let (nx, _) = bounds.tile();
        vector::for_rows(z, bounds, 0, |k, zr| {
            self.solve_row(k, r.row(k, 0, nx as isize), zr)
        });
    }

    /// One interior row of [`BlockJacobi::apply`]: `zr = M⁻¹ rr` strip by
    /// strip on row `k`.
    #[inline(always)]
    fn solve_row(&self, k: isize, rr: &[S], zr: &mut [S]) {
        let nx = rr.len();
        let cpr = self.cp.row(k, 0, nx as isize);
        let mr = self.minv.row(k, 0, nx as isize);
        let sr = self.sub.row(k, 0, nx as isize);
        let mut j0 = 0usize;
        while j0 < nx {
            let j1 = (j0 + self.strip).min(nx);
            // forward substitution into z
            zr[j0] = rr[j0] * mr[j0];
            for j in j0 + 1..j1 {
                zr[j] = (rr[j] - sr[j] * zr[j - 1]) * mr[j];
            }
            // backward substitution in place
            for j in (j0..j1 - 1).rev() {
                zr[j] -= cpr[j] * zr[j + 1];
            }
            j0 = j1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_mesh::{crooked_pipe, timestep_scalings, Coefficients, Extent2D, Field2D, Mesh2D};

    fn crooked_op(n: usize, halo: usize) -> TileOperator {
        let p = crooked_pipe(n);
        let mesh = Mesh2D::serial(n, n, p.extent);
        let mut density = Field2D::new(n, n, halo);
        let mut energy = Field2D::new(n, n, halo);
        p.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, 0.04);
        let coeffs = Coefficients::assemble(&mesh, &density, p.coefficient, rx, ry, halo);
        TileOperator::new(coeffs, TileBounds::serial(n, n))
    }

    /// Dense per-strip reference solve (plain Gaussian elimination).
    fn dense_block_solve(op: &TileOperator, r: &Field2D, strip: usize) -> Field2D {
        let (nx, ny) = op.bounds.tile();
        let mut diag = Field2D::new(nx, ny, 1);
        op.diagonal_into(&mut diag, 0);
        let kx = &op.coeffs.kx;
        let mut z = Field2D::new(nx, ny, 1);
        for k in 0..ny as isize {
            let mut j0 = 0usize;
            while j0 < nx {
                let j1 = (j0 + strip).min(nx);
                let m = j1 - j0;
                // dense m x m system
                let mut mat = vec![vec![0.0; m]; m];
                let mut rhs = vec![0.0; m];
                for i in 0..m {
                    let j = (j0 + i) as isize;
                    mat[i][i] = diag.at(j, k);
                    if i > 0 {
                        mat[i][i - 1] = -kx.at(j, k);
                        mat[i - 1][i] = -kx.at(j, k);
                    }
                    rhs[i] = r.at(j, k);
                }
                // gaussian elimination without pivoting (SPD)
                for col in 0..m {
                    let pivot = mat[col].clone();
                    for row in col + 1..m {
                        let f = mat[row][col] / pivot[col];
                        for (x, &pv) in mat[row].iter_mut().zip(&pivot).skip(col) {
                            *x -= f * pv;
                        }
                        rhs[row] -= f * rhs[col];
                    }
                }
                for row in (0..m).rev() {
                    let mut acc = rhs[row];
                    for c2 in row + 1..m {
                        acc -= mat[row][c2] * rhs[c2];
                    }
                    rhs[row] = acc / mat[row][row];
                }
                for (i, &v) in rhs.iter().enumerate() {
                    z.set((j0 + i) as isize, k, v);
                }
                j0 = j1;
            }
        }
        z
    }

    #[test]
    fn thomas_matches_dense_reference() {
        let op = crooked_op(13, 1); // 13 forces truncated strips (13 = 3*4 + 1)
        let bj = BlockJacobi::setup(&op, 4);
        let mut r = Field2D::new(13, 13, 1);
        for k in 0..13isize {
            for j in 0..13isize {
                r.set(j, k, ((j * 5 + k * 3) % 7) as f64 - 3.0);
            }
        }
        let mut z = Field2D::new(13, 13, 1);
        bj.apply(&r, &mut z, &op.bounds);
        let zref = dense_block_solve(&op, &r, 4);
        for k in 0..13isize {
            for j in 0..13isize {
                assert!(
                    (z.at(j, k) - zref.at(j, k)).abs() < 1e-12,
                    "block solve mismatch at ({j},{k}): {} vs {}",
                    z.at(j, k),
                    zref.at(j, k)
                );
            }
        }
    }

    #[test]
    fn block_solve_is_exact_on_single_row_problems() {
        // a 4-cell-wide single-row mesh: the whole matrix is one 4x4
        // tridiagonal block, so M == A and M^{-1}(A x) == x
        use tea_mesh::{Coefficient, Decomposition2D};
        let d = Decomposition2D::with_grid(4, 1, 1, 1);
        let mesh = Mesh2D::new(&d, 0, Extent2D::unit());
        let density = Field2D::filled(4, 1, 1, 1.0);
        let coeffs =
            Coefficients::assemble(&mesh, &density, Coefficient::Conductivity, 0.7, 0.7, 1);
        let op = TileOperator::new(coeffs, TileBounds::serial(4, 1));
        let bj = BlockJacobi::setup(&op, 4);
        let mut x = Field2D::new(4, 1, 1);
        for j in 0..4isize {
            x.set(j, 0, (j * j) as f64 - 1.0);
        }
        let mut ax = Field2D::new(4, 1, 1);
        let mut t = SolveTrace::new("t");
        op.apply(&x, &mut ax, 0, &mut t);
        let mut z = Field2D::new(4, 1, 1);
        bj.apply(&ax, &mut z, &op.bounds);
        for j in 0..4isize {
            assert!(
                (z.at(j, 0) - x.at(j, 0)).abs() < 1e-12,
                "exact block inverse failed at {j}"
            );
        }
    }

    #[test]
    fn preconditioners_are_spd_on_random_vectors() {
        // <M^{-1}r, r> > 0 for r != 0 and symmetric:
        // <M^{-1}a, b> == <a, M^{-1}b>
        let op = crooked_op(12, 1);
        for kind in [PreconKind::Diagonal, PreconKind::BlockJacobi] {
            let m = Preconditioner::setup(kind, &op, 0);
            let mut t = SolveTrace::new("t");
            let mut a = Field2D::new(12, 12, 1);
            let mut b = Field2D::new(12, 12, 1);
            for k in 0..12isize {
                for j in 0..12isize {
                    a.set(j, k, ((j * 3 + k) % 5) as f64 - 2.0);
                    b.set(j, k, ((j + 7 * k) % 3) as f64 - 1.0);
                }
            }
            let mut ma = Field2D::new(12, 12, 1);
            let mut mb = Field2D::new(12, 12, 1);
            m.apply(&a, &mut ma, &op.bounds, 0, &mut t);
            m.apply(&b, &mut mb, &op.bounds, 0, &mut t);
            let sym_l = ma.interior_dot(&b);
            let sym_r = a.interior_dot(&mb);
            assert!(
                (sym_l - sym_r).abs() <= 1e-12 * sym_l.abs().max(1.0),
                "{kind:?} not symmetric: {sym_l} vs {sym_r}"
            );
            assert!(ma.interior_dot(&a) > 0.0, "{kind:?} not positive definite");
        }
    }

    #[test]
    fn diagonal_preconditioner_inverts_diagonal() {
        let op = crooked_op(8, 1);
        let m = Preconditioner::setup(PreconKind::Diagonal, &op, 0);
        let mut t = SolveTrace::new("t");
        let r = Field2D::filled(8, 8, 1, 1.0);
        let mut z = Field2D::new(8, 8, 1);
        m.apply(&r, &mut z, &op.bounds, 0, &mut t);
        let mut d = Field2D::new(8, 8, 1);
        op.diagonal_into(&mut d, 0);
        for k in 0..8isize {
            for j in 0..8isize {
                assert!((z.at(j, k) * d.at(j, k) - 1.0).abs() < 1e-14);
            }
        }
        assert_eq!(t.precon_ops.total(), 1);
    }

    #[test]
    fn combined_recurrence_matches_apply_then_scale_add_bitwise() {
        let op = crooked_op(11, 1); // odd size exercises lane remainders
        let (a, b) = (0.8191061549414237, 0.3066128620687435);
        for kind in [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ] {
            let m = Preconditioner::setup(kind, &op, 0);
            let mut t = SolveTrace::new("t");
            let mut rr = Field2D::new(11, 11, 1);
            let mut sd = Field2D::new(11, 11, 1);
            for k in 0..11isize {
                for j in 0..11isize {
                    rr.set(j, k, ((j * 5 + k * 3) % 13) as f64 / 7.0 - 0.9);
                    sd.set(j, k, ((j - 2 * k) % 5) as f64 / 3.0);
                }
            }
            // unfused reference: z = M^{-1} rr, then sd = a sd + b z
            let mut want = sd.clone();
            let mut tmp = Field2D::new(11, 11, 1);
            m.apply(&rr, &mut tmp, &op.bounds, 0, &mut t);
            crate::vector::scale_add(&mut want, a, b, &tmp, &op.bounds, 0, &mut t);

            let mut scratch = Field2D::new(11, 11, 1);
            let g = move |y, m| a * y + b * m;
            combine_rows(&m, &mut sd, &rr, &mut scratch, &op.bounds, 0, Rows::All, g);
            for k in 0..11isize {
                for j in 0..11isize {
                    assert_eq!(
                        sd.at(j, k).to_bits(),
                        want.at(j, k).to_bits(),
                        "{kind:?} ({j},{k})"
                    );
                }
            }
        }
    }

    /// One fused CG step against `axpy, axpy, apply, dot_local, xpay` on
    /// an `n × n` crooked pipe in precision `S`: `u`, `r`, the returned
    /// `r·z`, the next direction `p` — and `z` where it is stored — must
    /// agree to the bit.
    fn fused_cg_step_matches_unfused<S: Scalar>(n: usize) {
        let op: TileOperator<S> = crooked_op(n, 1).convert();
        let bounds = &op.bounds;
        let gen = |a: isize, b: isize, m: isize, s: f64| -> Field2<S> {
            let mut f = Field2D::new(n, n, 1);
            for k in 0..n as isize {
                for j in 0..n as isize {
                    f.set(j, k, ((j * a + k * b) % m) as f64 / s - 0.7);
                }
            }
            f.convert()
        };
        let bits = |f: &Field2<S>| -> Vec<u64> {
            f.iter_interior()
                .map(|(_, _, v)| v.to_f64().to_bits())
                .collect()
        };
        let (alpha, beta) = (
            S::from_f64(0.8191061549414237),
            S::from_f64(0.3066128620687435),
        );
        for kind in [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ] {
            let m = Preconditioner::setup(kind, &op, 0);
            let mut t = SolveTrace::new("t");
            let (p0, w) = (gen(5, 3, 13, 7.0), gen(2, 7, 11, 3.0));
            let (u0, r0) = (gen(3, 1, 17, 5.0), gen(7, 5, 19, 9.0));

            let (mut u1, mut r1, mut p1) = (u0.clone(), r0.clone(), p0.clone());
            let mut z1 = Field2::new(n, n, 1);
            vector::axpy(&mut u1, alpha, &p0, bounds, 0, &mut t);
            vector::axpy(&mut r1, -alpha, &w, bounds, 0, &mut t);
            m.apply(&r1, &mut z1, bounds, 0, &mut t);
            let want = vector::dot_local(&r1, &z1, bounds, &mut t);
            vector::xpay(&mut p1, &z1, beta, bounds, 0, &mut t);

            // `A·p` enters in the buffer block-Jacobi then stages `z` in
            let (mut u2, mut r2, mut p2) = (u0.clone(), r0.clone(), p0.clone());
            let mut wz = w.clone();
            let mut fused = SolveTrace::new("fused");
            let got = m.cg_update(&mut u2, &mut r2, alpha, &p0, &mut wz, bounds, &mut fused);
            m.cg_direction(&mut p2, &r2, &wz, beta, bounds, &mut fused);

            let tag = format!("{kind:?} {} n={n}", S::NAME);
            assert_eq!(
                got.to_f64().to_bits(),
                want.to_f64().to_bits(),
                "{tag}: r·z"
            );
            assert_eq!(bits(&u2), bits(&u1), "{tag}: u");
            assert_eq!(bits(&r2), bits(&r1), "{tag}: r");
            assert_eq!(bits(&p2), bits(&p1), "{tag}: p");
            let block = kind == PreconKind::BlockJacobi;
            if block {
                assert_eq!(bits(&wz), bits(&z1), "{tag}: z");
            } else {
                assert_eq!(bits(&wz), bits(&w), "{tag}: w untouched");
            }
            // two axpy-class streams + the direction sweep; only the
            // block solve still pays a separate dot
            assert_eq!(fused.vector_ops.total(), 3, "{tag}");
            assert_eq!(fused.dot_kernels.total(), u64::from(block), "{tag}");
            assert_eq!(
                fused.precon_ops.total(),
                u64::from(kind != PreconKind::None),
                "{tag}"
            );
        }
    }

    #[test]
    fn fused_cg_step_is_bit_identical_to_the_unfused_sequence() {
        // 11 and 37: odd widths below and above one 16-lane reduction
        // block, ragged in every lane width; 48: whole blocks only
        for n in [11, 37, 48] {
            fused_cg_step_matches_unfused::<f64>(n);
            fused_cg_step_matches_unfused::<f32>(n);
        }
    }

    #[test]
    fn identity_copies() {
        let op = crooked_op(6, 1);
        let m = Preconditioner::setup(PreconKind::None, &op, 0);
        assert!(m.is_identity());
        let mut t = SolveTrace::new("t");
        let mut r = Field2D::new(6, 6, 1);
        r.set(2, 3, 9.0);
        let mut z = Field2D::new(6, 6, 1);
        m.apply(&r, &mut z, &op.bounds, 0, &mut t);
        assert_eq!(z.at(2, 3), 9.0);
    }

    #[test]
    #[should_panic]
    fn block_jacobi_rejects_extended_sweeps() {
        let op = crooked_op(8, 2);
        let m = Preconditioner::setup(PreconKind::BlockJacobi, &op, 0);
        let mut t = SolveTrace::new("t");
        let r = Field2D::new(8, 8, 2);
        let mut z = Field2D::new(8, 8, 2);
        m.apply(&r, &mut z, &op.bounds, 1, &mut t);
    }

    #[test]
    fn truncated_strips_cover_all_lengths() {
        // nx = 7 with strip 4 gives strips of 4 and 3; nx = 5 gives 4+1;
        // nx = 6 gives 4+2 — all must still match the dense reference
        for nx in [5usize, 6, 7] {
            let p = crooked_pipe(16);
            let mesh = Mesh2D::serial(nx, 4, p.extent);
            let mut density = Field2D::new(nx, 4, 1);
            let mut energy = Field2D::new(nx, 4, 1);
            p.apply_states(&mesh, &mut density, &mut energy);
            let coeffs = Coefficients::assemble(&mesh, &density, p.coefficient, 1.0, 1.0, 1);
            let op = TileOperator::new(coeffs, TileBounds::serial(nx, 4));
            let bj = BlockJacobi::setup(&op, 4);
            let mut r = Field2D::new(nx, 4, 1);
            for k in 0..4isize {
                for j in 0..nx as isize {
                    r.set(j, k, (j + k + 1) as f64);
                }
            }
            let mut z = Field2D::new(nx, 4, 1);
            bj.apply(&r, &mut z, &op.bounds);
            let zref = dense_block_solve(&op, &r, 4);
            for k in 0..4isize {
                for j in 0..nx as isize {
                    assert!(
                        (z.at(j, k) - zref.at(j, k)).abs() < 1e-12,
                        "nx={nx} ({j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(PreconKind::None.label(), "none");
        assert_eq!(PreconKind::Diagonal.label(), "jac_diag");
        assert_eq!(PreconKind::BlockJacobi.label(), "jac_block");
    }
}
