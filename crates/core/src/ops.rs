//! The matrix-free 5-point operator — the paper's Listing 1.
//!
//! `w = A·p` with
//!
//! ```text
//! w(j,k) = (1 + (Ky(j,k+1)+Ky(j,k)) + (Kx(j+1,k)+Kx(j,k))) * p(j,k)
//!        -  (Ky(j,k+1)*p(j,k+1) + Ky(j,k)*p(j,k-1))
//!        -  (Kx(j+1,k)*p(j+1,k) + Kx(j,k)*p(j-1,k))
//! ```
//!
//! where `Kx`/`Ky` are the pre-scaled face coefficients. `A` is symmetric
//! positive definite and diagonally dominant by construction: it equals
//! `I + Σ_faces K_f (e_a - e_b)(e_a - e_b)ᵀ` over interior faces.
//!
//! Every kernel takes an *extension* argument: how many cells beyond the
//! tile interior to sweep (clamped at global domain boundaries). The
//! matrix-powers kernel calls the same code with shrinking extensions
//! (paper Fig. 2); extension 0 is the ordinary interior sweep.
//!
//! Row sweeps are data-parallel (threaded rayon runtime) above the
//! [`crate::runtime::par_threshold`] size. All reductions are computed
//! as per-row partials folded in row order, so results are bit-identical
//! run to run regardless of thread count or scheduling.

use crate::trace::SolveTrace;
use crate::vector::lanes::{arr, tree_sum, whole_blocks, REDUCE_LANES};
use crate::vector::Rows;
use tea_mesh::{Coefficients, Field2, Mesh2D, Scalar};

/// The 5-point stencil at column `i` of one row — the one expression
/// every operator kernel (apply, fused-dot apply, residual, the fused
/// Chebyshev sweep, the Jacobi sweep) evaluates, factored out so the
/// floating-point association can never drift between them. `pc` is the
/// centre row sliced one cell wider on each side (centre value at
/// `pc[i + 1]`).
#[inline(always)]
fn stencil5<S: Scalar>(
    kxr: &[S],
    kyc: &[S],
    kyn: &[S],
    pc: &[S],
    ps: &[S],
    pn: &[S],
    i: usize,
) -> S {
    (S::ONE + (kyn[i] + kyc[i]) + (kxr[i + 1] + kxr[i])) * pc[i + 1]
        - (kyn[i] * pn[i] + kyc[i] * ps[i])
        - (kxr[i + 1] * pc[i + 2] + kxr[i] * pc[i])
}

/// Per-side maximum extension of a tile's sweeps.
///
/// Interior tile edges allow extension up to the allocated halo; edges on
/// the global domain boundary allow none (there are no cells beyond the
/// boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBounds {
    nx: usize,
    ny: usize,
    /// max extension West, East, South, North.
    max_ext: [usize; 4],
}

impl TileBounds {
    /// Derives bounds for `mesh`'s tile with `halo` allocated ghost
    /// layers.
    pub fn new(mesh: &Mesh2D, halo: usize) -> Self {
        let sub = mesh.subdomain();
        let (gnx, gny) = mesh.global_cells();
        let west = if sub.offset.0 == 0 { 0 } else { halo };
        let south = if sub.offset.1 == 0 { 0 } else { halo };
        let east = if sub.offset.0 + sub.nx == gnx {
            0
        } else {
            halo
        };
        let north = if sub.offset.1 + sub.ny == gny {
            0
        } else {
            halo
        };
        TileBounds {
            nx: sub.nx,
            ny: sub.ny,
            max_ext: [west, east, south, north],
        }
    }

    /// Bounds for a serial (whole-domain) tile: no extensions anywhere.
    pub fn serial(nx: usize, ny: usize) -> Self {
        TileBounds {
            nx,
            ny,
            max_ext: [0; 4],
        }
    }

    /// Interior extent.
    pub fn tile(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Sweep ranges `(x_lo, x_hi, y_lo, y_hi)` for extension `ext`,
    /// clamped per side.
    pub fn range(&self, ext: usize) -> (isize, isize, isize, isize) {
        let w = ext.min(self.max_ext[0]) as isize;
        let e = ext.min(self.max_ext[1]) as isize;
        let s = ext.min(self.max_ext[2]) as isize;
        let n = ext.min(self.max_ext[3]) as isize;
        (-w, self.nx as isize + e, -s, self.ny as isize + n)
    }

    /// Number of cells swept at extension `ext`.
    pub fn cells(&self, ext: usize) -> usize {
        let (x_lo, x_hi, y_lo, y_hi) = self.range(ext);
        ((x_hi - x_lo) * (y_hi - y_lo)) as usize
    }
}

/// The assembled matrix-free operator for one tile, generic over the
/// [`Scalar`] precision (`f64` by default; the mixed-precision solvers
/// derive an `f32` instance via [`TileOperator::convert`]).
#[derive(Debug, Clone)]
pub struct TileOperator<S: Scalar = f64> {
    /// Pre-scaled face coefficients.
    pub coeffs: Coefficients<S>,
    /// Sweep bounds.
    pub bounds: TileBounds,
}

impl<S: Scalar> TileOperator<S> {
    /// Builds the operator from assembled coefficients and bounds.
    ///
    /// # Panics
    /// Panics if coefficient extents disagree with the bounds.
    pub fn new(coeffs: Coefficients<S>, bounds: TileBounds) -> Self {
        assert_eq!(coeffs.kx.nx(), bounds.nx, "coefficients/bounds mismatch");
        assert_eq!(coeffs.kx.ny(), bounds.ny, "coefficients/bounds mismatch");
        TileOperator { coeffs, bounds }
    }

    /// The same operator with its coefficients converted to scalar type
    /// `T` (rounding if `T` is narrower).
    pub fn convert<T: Scalar>(&self) -> TileOperator<T> {
        TileOperator {
            coeffs: self.coeffs.convert(),
            bounds: self.bounds,
        }
    }

    /// `w = A·p` over extension `ext`.
    ///
    /// Requires `p` valid (exchanged or interior-complete) to extension
    /// `ext + 1` and field halos of at least `ext + 1`.
    pub fn apply(&self, p: &Field2<S>, w: &mut Field2<S>, ext: usize, trace: &mut SolveTrace) {
        trace.spmv.record(ext);
        apply_rows(self, p, w, ext);
    }

    /// Fused `w = A·p; return local p·w` over the tile interior — the
    /// paper's Listing 1, including the reduction variable. The caller is
    /// responsible for the global reduction.
    pub fn apply_fused_dot(&self, p: &Field2<S>, w: &mut Field2<S>, trace: &mut SolveTrace) -> S {
        trace.spmv.record(0);
        apply_rows(self, p, w, 0)
    }

    /// Writes the operator diagonal
    /// `1 + (Ky(j,k+1)+Ky(j,k)) + (Kx(j+1,k)+Kx(j,k))` into `d` over
    /// extension `ext`.
    ///
    /// # Panics
    /// The diagonal at an extended cell reads the face coefficient one
    /// cell further out (`Kx(j+1)`, `Ky(k+1)`), so the effective
    /// east/north extension must stay below the coefficient halo. On a
    /// decomposed tile this means a diagonal preconditioner cannot be
    /// set up at the full matrix-powers depth `h` with coefficients
    /// allocated at halo `h` — the same class of restriction the paper
    /// places on block-Jacobi (§IV.C.2). Serial tiles clamp every
    /// extension to the domain boundary and are unaffected.
    pub fn diagonal_into(&self, d: &mut Field2<S>, ext: usize) {
        let (x_lo, x_hi, y_lo, y_hi) = self.bounds.range(ext);
        let overhang = (x_hi - self.bounds.nx as isize).max(y_hi - self.bounds.ny as isize);
        assert!(
            (self.coeffs.kx.halo() as isize) > overhang,
            "operator diagonal at extension {overhang} reads face coefficients one cell \
             beyond it; assemble coefficients with halo > {overhang} (have {}) or use an \
             extension-free preconditioner",
            self.coeffs.kx.halo(),
        );
        let n = (x_hi - x_lo) as usize;
        let kx = &self.coeffs.kx;
        let ky = &self.coeffs.ky;
        for k in y_lo..y_hi {
            let kxr = kx.row(k, x_lo, x_hi + 1);
            let kyc = ky.row(k, x_lo, x_hi);
            let kyn = ky.row(k + 1, x_lo, x_hi);
            let dr = d.row_mut(k, x_lo, x_hi);
            for i in 0..n {
                dr[i] = S::ONE + (kyn[i] + kyc[i]) + (kxr[i + 1] + kxr[i]);
            }
        }
    }

    /// Local residual kernel: `r = b - A·u` over extension `ext`, fused
    /// into a single sweep. Requires `u` valid to `ext + 1` and `b` valid
    /// to `ext`.
    pub fn residual(
        &self,
        u: &Field2<S>,
        b: &Field2<S>,
        r: &mut Field2<S>,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.spmv.record(ext);
        residual_rows(self, u, b, r, ext);
    }

    /// One weighted-Jacobi sweep as one pass over the tile interior:
    /// `out = x + w⊙(b − A·x)`, where `w` holds the per-cell weights
    /// (`ω·D⁻¹` for the multigrid smoother). Bit-identical to
    /// [`TileOperator::residual`] into `r` followed by `x += w·r`: the
    /// residual is the same `b − stencil` expression and the update the
    /// same product and sum, minus the `r` store and re-read.
    ///
    /// `x = None` is the zero initial guess, whose stencil is skipped:
    /// with finite coefficients `A·0` is `+0`, so `b − A·0` is `b` bit
    /// for bit (a `-0.0` included) and the sweep is `out = 0 + w⊙b` (the
    /// add stays, so a `-0.0` product still leaves `+0.0`).
    ///
    /// Requires `x` valid to extension 1. Untraced: the caller counts
    /// its sweeps (tea-amg's per-level `MgTrace`).
    pub fn jacobi_sweep(
        &self,
        x: Option<&Field2<S>>,
        b: &Field2<S>,
        w: &Field2<S>,
        out: &mut Field2<S>,
    ) {
        jacobi_rows(self, x, b, w, out);
    }

    /// Fused Chebyshev inner step, first pass: per cell computes
    /// `v = (A·sd)(j,k)` and immediately applies both vector updates
    /// `z += sd` and `rr -= v` in the same sweep — the intermediate `w`
    /// field is never stored or re-read, cutting the step's traffic from
    /// three sweeps (stencil store + two axpy read-modify-writes) to one
    /// (and the `z` update rides on the `sd` centre value the stencil
    /// already loaded).
    ///
    /// Bit-identical to the unfused sequence `apply(sd, w)`,
    /// `axpy(z, 1, sd)`, `axpy(rr, -1, w)`: the stencil shares the same
    /// 5-point row kernel as [`TileOperator::apply`], `z + 1·sd` rounds as
    /// `z + sd`, and `rr + (-1)·v` rounds as `rr - v`.
    ///
    /// Requires `sd` valid to extension `ext + 1`, like
    /// [`TileOperator::apply`].
    pub fn apply_cheb_fused(
        &self,
        sd: &Field2<S>,
        z: &mut Field2<S>,
        rr: &mut Field2<S>,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.spmv.record(ext);
        trace.fused_updates.record(ext);
        cheb_fused_rows(self, sd, z, rr, ext, Rows::All, false, None);
    }
}

// The operator's row sweeps, each compiled twice (`crate::isa`).
crate::isa::twins! {
    mod rows;

    /// `w = A·p` over extension `ext`, returning the local `p·w`.
    fn apply_rows<S: Scalar>(
        op: &TileOperator<S>,
        p: &Field2<S>,
        w: &mut Field2<S>,
        ext: usize,
    ) -> S {
        let (x_lo, x_hi, _, _) = op.bounds.range(ext);
        let n = (x_hi - x_lo) as usize;
        let kx = &op.coeffs.kx;
        let ky = &op.coeffs.ky;
        debug_assert!(
            p.halo() as isize > ext as isize,
            "p halo too shallow for extension {ext}"
        );
        // the stencil is blocked in the 16-lane reduction shape
        // (`vector::lanes::tree_sum`) over fixed-size windows, so it
        // vectorizes together with the p·w partial — two flops a cell on
        // a bandwidth-bound sweep, which plain `apply` simply drops
        let row_body = |k: isize, wr: &mut [S]| -> S {
            const RL: usize = REDUCE_LANES;
            let pc = p.row(k, x_lo - 1, x_hi + 1);
            let ps = p.row(k - 1, x_lo, x_hi);
            let pn = p.row(k + 1, x_lo, x_hi);
            let kxr = kx.row(k, x_lo, x_hi + 1);
            let kyc = ky.row(k, x_lo, x_hi);
            let kyn = ky.row(k + 1, x_lo, x_hi);
            let (wm, wt) = wr.split_at_mut(whole_blocks(n));
            let full = wm.len();
            tree_sum(
                wm.chunks_exact_mut(RL).enumerate().map(|(blk, wa)| {
                    let b = blk * RL;
                    let kxr = arr::<S, { RL + 1 }>(&kxr[b..b + RL + 1]);
                    let pc = arr::<S, { RL + 2 }>(&pc[b..b + RL + 2]);
                    let (kyc, kyn) = (arr::<S, RL>(&kyc[b..b + RL]), arr::<S, RL>(&kyn[b..b + RL]));
                    let (ps, pn) = (arr::<S, RL>(&ps[b..b + RL]), arr::<S, RL>(&pn[b..b + RL]));
                    std::array::from_fn(|l| {
                        let v = stencil5(kxr, kyc, kyn, pc, ps, pn, l);
                        wa[l] = v;
                        pc[l + 1] * v
                    })
                }),
                wt.iter_mut().enumerate().map(|(t, wi)| {
                    let v = stencil5(kxr, kyc, kyn, pc, ps, pn, full + t);
                    *wi = v;
                    pc[full + t + 1] * v
                }),
            )
        };
        crate::vector::for_rows_sum(w, &op.bounds, ext, row_body)
    }

    /// The rows of [`TileOperator::residual`].
    fn residual_rows<S: Scalar>(
        op: &TileOperator<S>,
        u: &Field2<S>,
        b: &Field2<S>,
        r: &mut Field2<S>,
        ext: usize,
    ) {
        let (x_lo, x_hi, _, _) = op.bounds.range(ext);
        let n = (x_hi - x_lo) as usize;
        let kx = &op.coeffs.kx;
        let ky = &op.coeffs.ky;
        crate::vector::for_rows(r, &op.bounds, ext, |k, rr| {
            let pc = u.row(k, x_lo - 1, x_hi + 1);
            let ps = u.row(k - 1, x_lo, x_hi);
            let pn = u.row(k + 1, x_lo, x_hi);
            let br = b.row(k, x_lo, x_hi);
            let kxr = kx.row(k, x_lo, x_hi + 1);
            let kyc = ky.row(k, x_lo, x_hi);
            let kyn = ky.row(k + 1, x_lo, x_hi);
            for i in 0..n {
                rr[i] = br[i] - stencil5(kxr, kyc, kyn, pc, ps, pn, i);
            }
        });
    }

    /// The rows of [`TileOperator::jacobi_sweep`].
    fn jacobi_rows<S: Scalar>(
        op: &TileOperator<S>,
        x: Option<&Field2<S>>,
        b: &Field2<S>,
        w: &Field2<S>,
        out: &mut Field2<S>,
    ) {
        let (x_lo, x_hi, _, _) = op.bounds.range(0);
        let n = (x_hi - x_lo) as usize;
        let kx = &op.coeffs.kx;
        let ky = &op.coeffs.ky;
        crate::vector::for_rows(out, &op.bounds, 0, |k, or| {
            let br = b.row(k, x_lo, x_hi);
            let wr = w.row(k, x_lo, x_hi);
            // one plain loop per start, so each vectorizes
            match x {
                None => {
                    for i in 0..n {
                        or[i] = S::ZERO + wr[i] * br[i];
                    }
                }
                Some(x) => {
                    let pc = x.row(k, x_lo - 1, x_hi + 1);
                    let ps = x.row(k - 1, x_lo, x_hi);
                    let pn = x.row(k + 1, x_lo, x_hi);
                    let kxr = kx.row(k, x_lo, x_hi + 1);
                    let kyc = ky.row(k, x_lo, x_hi);
                    let kyn = ky.row(k + 1, x_lo, x_hi);
                    for i in 0..n {
                        or[i] =
                            pc[i + 1] + wr[i] * (br[i] - stencil5(kxr, kyc, kyn, pc, ps, pn, i));
                    }
                }
            }
        });
    }

    /// [`TileOperator::apply_cheb_fused`] over `rows` of the sweep,
    /// untraced — the lead sweep of one level of a
    /// [`crate::vector::for_rows_block`] pass. `fresh` marks a
    /// smoothing's first step, which absorbs the sweeps that used to
    /// prepare its operands and rounds exactly like them: `z = 0 + sd`
    /// for `z`'s zero fill (the add stays, so a `-0.0` direction still
    /// leaves `+0.0`) and, given the outer residual `r`, `rr = r - A·sd`
    /// for its copy into `rr`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one row-blocked sweep reads three fields and its row range; bundling them would hide which fields a block pass streams"
    )]
    pub(crate) fn cheb_fused_rows<S: Scalar>(
        op: &TileOperator<S>,
        sd: &Field2<S>,
        z: &mut Field2<S>,
        rr: &mut Field2<S>,
        ext: usize,
        rows: Rows,
        fresh: bool,
        r: Option<&Field2<S>>,
    ) {
        let (x_lo, x_hi, _, _) = op.bounds.range(ext);
        let n = (x_hi - x_lo) as usize;
        let kx = &op.coeffs.kx;
        let ky = &op.coeffs.ky;
        debug_assert!(
            sd.halo() as isize > ext as isize,
            "sd halo too shallow for extension {ext}"
        );
        crate::vector::for_rows2(z, rr, &op.bounds, ext, rows, |k, zr, rrow| {
            let pc = sd.row(k, x_lo - 1, x_hi + 1);
            let ps = sd.row(k - 1, x_lo, x_hi);
            let pn = sd.row(k + 1, x_lo, x_hi);
            let kxr = kx.row(k, x_lo, x_hi + 1);
            let kyc = ky.row(k, x_lo, x_hi);
            let kyn = ky.row(k + 1, x_lo, x_hi);
            let v = |i| stencil5(kxr, kyc, kyn, pc, ps, pn, i);
            // one plain loop per start, so each vectorizes
            match (fresh, r.map(|r| r.row(k, x_lo, x_hi))) {
                (false, _) => {
                    for i in 0..n {
                        let v = v(i);
                        zr[i] += pc[i + 1];
                        rrow[i] -= v;
                    }
                }
                (true, None) => {
                    for i in 0..n {
                        zr[i] = S::ZERO + pc[i + 1];
                        rrow[i] -= v(i);
                    }
                }
                (true, Some(r)) => {
                    for i in 0..n {
                        zr[i] = S::ZERO + pc[i + 1];
                        rrow[i] = r[i] - v(i);
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_mesh::{
        crooked_pipe, timestep_scalings, Coefficient, Decomposition2D, Extent2D, Field2D, Mesh2D,
    };

    fn uniform_op(n: usize, halo: usize, kval: f64) -> TileOperator {
        // build an operator with uniform interior coefficients kval
        let mesh = Mesh2D::serial(n, n, Extent2D::unit());
        let density = Field2D::filled(n, n, halo, 1.0 / kval);
        let coeffs = Coefficients::assemble(
            &mesh,
            &density,
            Coefficient::RecipConductivity,
            1.0,
            1.0,
            halo,
        );
        TileOperator::new(coeffs, TileBounds::serial(n, n))
    }

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

    /// Dense matvec reference for small grids.
    fn dense_apply(op: &TileOperator, p: &Field2D) -> Field2D {
        let n = p.nx();
        let mut w = Field2D::new(n, p.ny(), p.halo());
        let kx = &op.coeffs.kx;
        let ky = &op.coeffs.ky;
        for k in 0..p.ny() as isize {
            for j in 0..n as isize {
                // identical floating-point association to the kernel so
                // results compare bitwise
                let diag = 1.0 + (ky.at(j, k + 1) + ky.at(j, k)) + (kx.at(j + 1, k) + kx.at(j, k));
                let v = diag * p.at(j, k)
                    - (ky.at(j, k + 1) * p.at(j, k + 1) + ky.at(j, k) * p.at(j, k - 1))
                    - (kx.at(j + 1, k) * p.at(j + 1, k) + kx.at(j, k) * p.at(j - 1, k));
                w.set(j, k, v);
            }
        }
        w
    }

    #[test]
    fn apply_matches_reference() {
        let op = crooked_op(16, 2);
        let mut p = Field2D::new(16, 16, 2);
        for k in 0..16isize {
            for j in 0..16isize {
                p.set(j, k, ((j * 31 + k * 17) % 7) as f64 - 3.0);
            }
        }
        let mut w = Field2D::new(16, 16, 2);
        let mut t = SolveTrace::new("test");
        op.apply(&p, &mut w, 0, &mut t);
        let wref = dense_apply(&op, &p);
        for k in 0..16isize {
            for j in 0..16isize {
                assert!(
                    (w.at(j, k) - wref.at(j, k)).abs() < 1e-13,
                    "mismatch at ({j},{k}): {} vs {}",
                    w.at(j, k),
                    wref.at(j, k)
                );
            }
        }
        assert_eq!(t.spmv.total(), 1);
    }

    #[test]
    fn operator_is_symmetric() {
        // <Ap, q> == <p, Aq> over random-ish vectors
        let op = crooked_op(12, 1);
        let mut t = SolveTrace::new("t");
        let mut p = Field2D::new(12, 12, 1);
        let mut q = Field2D::new(12, 12, 1);
        for k in 0..12isize {
            for j in 0..12isize {
                p.set(j, k, ((3 * j - 2 * k) % 5) as f64);
                q.set(j, k, ((j * k + 1) % 4) as f64 - 1.5);
            }
        }
        let mut ap = Field2D::new(12, 12, 1);
        let mut aq = Field2D::new(12, 12, 1);
        op.apply(&p, &mut ap, 0, &mut t);
        op.apply(&q, &mut aq, 0, &mut t);
        let lhs = ap.interior_dot(&q);
        let rhs = p.interior_dot(&aq);
        assert!(
            (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(rhs.abs()).max(1.0),
            "asymmetry: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn constant_vector_maps_to_itself() {
        // rows sum to 1 (zero-flux boundaries + diagonal 1 + sum of faces)
        let op = crooked_op(20, 1);
        let mut t = SolveTrace::new("t");
        let p = Field2D::filled(20, 20, 1, 1.0);
        let mut w = Field2D::new(20, 20, 1);
        op.apply(&p, &mut w, 0, &mut t);
        for k in 0..20isize {
            for j in 0..20isize {
                assert!(
                    (w.at(j, k) - 1.0).abs() < 1e-12,
                    "row sum at ({j},{k}) = {}",
                    w.at(j, k)
                );
            }
        }
    }

    #[test]
    fn fused_dot_matches_separate() {
        let op = uniform_op(10, 1, 0.7);
        let mut t = SolveTrace::new("t");
        let mut p = Field2D::new(10, 10, 1);
        for k in 0..10isize {
            for j in 0..10isize {
                p.set(j, k, (j - k) as f64 / 3.0);
            }
        }
        let mut w1 = Field2D::new(10, 10, 1);
        let pw = op.apply_fused_dot(&p, &mut w1, &mut t);
        let mut w2 = Field2D::new(10, 10, 1);
        op.apply(&p, &mut w2, 0, &mut t);
        assert!((pw - p.interior_dot(&w2)).abs() < 1e-12);
        for k in 0..10isize {
            for j in 0..10isize {
                assert_eq!(w1.at(j, k), w2.at(j, k));
            }
        }
    }

    #[test]
    fn cheb_fused_pass_matches_unfused_bitwise() {
        // the fused stencil+update pass must reproduce apply +
        // axpy(z, +1, sd) + axpy(rr, -1, w) bit for bit — it is the
        // same arithmetic, minus the w store
        let n = 24;
        let op = crooked_op(n, 2);
        let mut t = SolveTrace::new("t");
        let mut sd = Field2D::new(n, n, 2);
        let mut z = Field2D::new(n, n, 2);
        let mut rr = Field2D::new(n, n, 2);
        for k in 0..n as isize {
            for j in 0..n as isize {
                sd.set(j, k, ((j * 29 + k * 31) % 17) as f64 / 5.0 - 1.3);
                z.set(j, k, ((j + 3 * k) % 7) as f64 / 3.0);
                rr.set(j, k, ((2 * j - k) % 9) as f64 / 4.0);
            }
        }
        let (mut z2, mut rr2) = (z.clone(), rr.clone());
        let mut w = Field2D::new(n, n, 2);
        op.apply(&sd, &mut w, 0, &mut t);
        crate::vector::axpy(&mut z2, 1.0, &sd, &op.bounds, 0, &mut t);
        crate::vector::axpy(&mut rr2, -1.0, &w, &op.bounds, 0, &mut t);
        op.apply_cheb_fused(&sd, &mut z, &mut rr, 0, &mut t);
        for k in 0..n as isize {
            for j in 0..n as isize {
                assert_eq!(z.at(j, k).to_bits(), z2.at(j, k).to_bits(), "z ({j},{k})");
                assert_eq!(
                    rr.at(j, k).to_bits(),
                    rr2.at(j, k).to_bits(),
                    "rr ({j},{k})"
                );
            }
        }
        assert_eq!(t.fused_updates.total(), 1);
        assert_eq!(t.spmv.total(), 2);
    }

    /// An odd-sized crooked-pipe operator with multigrid smoother
    /// weights `ω·D⁻¹` and a right-hand side from `b_at`.
    fn jacobi_setup(
        n: usize,
        b_at: impl Fn(isize, isize) -> f64,
    ) -> (TileOperator, Field2D, Field2D) {
        let op = crooked_op(n, 1);
        let mut w = Field2D::new(n, n, 1);
        op.diagonal_into(&mut w, 0);
        let mut b = Field2D::new(n, n, 1);
        for k in 0..n as isize {
            for j in 0..n as isize {
                w.set(j, k, 0.8 * (1.0 / w.at(j, k)));
                b.set(j, k, b_at(j, k));
            }
        }
        (op, w, b)
    }

    fn assert_interior_bits(got: &Field2D, want: &Field2D) {
        for k in 0..got.ny() as isize {
            for j in 0..got.nx() as isize {
                assert_eq!(got.at(j, k).to_bits(), want.at(j, k).to_bits(), "({j},{k})");
            }
        }
    }

    #[test]
    fn jacobi_sweep_matches_residual_then_update_bitwise() {
        // one pass must reproduce `residual` + `x += w·r` bit for bit —
        // the same arithmetic, minus the r store
        let n = 23;
        let (op, w, b) = jacobi_setup(n, |j, k| ((2 * j - k) % 9) as f64 / 4.0);
        let mut x = Field2D::new(n, n, 1);
        for k in 0..n as isize {
            for j in 0..n as isize {
                x.set(j, k, ((j * 29 + k * 31) % 17) as f64 / 5.0 - 1.3);
            }
        }
        let mut r = Field2D::new(n, n, 1);
        op.residual(&x, &b, &mut r, 0, &mut SolveTrace::new("t"));
        let mut want = x.clone();
        for k in 0..n as isize {
            for j in 0..n as isize {
                want.set(j, k, want.at(j, k) + w.at(j, k) * r.at(j, k));
            }
        }
        let mut out = Field2D::new(n, n, 1);
        op.jacobi_sweep(Some(&x), &b, &w, &mut out);
        assert_interior_bits(&out, &want);
    }

    #[test]
    fn jacobi_zero_guess_matches_a_full_sweep_from_zero_bitwise() {
        // `-0.0` in b: b − A·0 must keep it, and 0 + w·(−0) must leave +0
        let n = 23;
        let (op, w, b) = jacobi_setup(n, |j, k| match (j + 2 * k) % 5 {
            0 => -0.0,
            1 => 0.0,
            v => (v as f64 - 3.0) * (1.0 + j as f64 / 7.0),
        });
        let zero = Field2D::new(n, n, 1);
        let mut full = Field2D::new(n, n, 1);
        op.jacobi_sweep(Some(&zero), &b, &w, &mut full);
        let mut short = Field2D::new(n, n, 1);
        op.jacobi_sweep(None, &b, &w, &mut short);
        assert_interior_bits(&short, &full);
        assert_eq!(
            short.at(0, 0).to_bits(),
            0.0f64.to_bits(),
            "0 + w·(−0) is +0"
        );
    }

    #[test]
    fn diagonal_is_dominant_and_positive() {
        let op = crooked_op(16, 1);
        let mut d = Field2D::new(16, 16, 1);
        op.diagonal_into(&mut d, 0);
        let kx = &op.coeffs.kx;
        let ky = &op.coeffs.ky;
        for k in 0..16isize {
            for j in 0..16isize {
                let offsum = kx.at(j, k) + kx.at(j + 1, k) + ky.at(j, k) + ky.at(j, k + 1);
                assert!(d.at(j, k) >= 1.0);
                assert!(d.at(j, k) >= offsum, "not diagonally dominant at ({j},{k})");
            }
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let op = uniform_op(8, 1, 1.0);
        let mut t = SolveTrace::new("t");
        let mut u = Field2D::new(8, 8, 1);
        for k in 0..8isize {
            for j in 0..8isize {
                u.set(j, k, (j + 2 * k) as f64);
            }
        }
        let mut b = Field2D::new(8, 8, 1);
        op.apply(&u, &mut b, 0, &mut t);
        let mut r = Field2D::new(8, 8, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_max_abs() < 1e-12);
    }

    #[test]
    fn extended_sweep_matches_global_interior() {
        // a 2-tile decomposition where the extended sweep of one tile must
        // reproduce exactly the serial values over the overlap region
        let n = 16;
        let prob = crooked_pipe(n);
        let halo = 3;
        // serial reference
        let smesh = Mesh2D::serial(n, n, prob.extent);
        let mut sd = Field2D::new(n, n, halo);
        let mut se = Field2D::new(n, n, halo);
        prob.apply_states(&smesh, &mut sd, &mut se);
        let (rx, ry) = timestep_scalings(&smesh, 0.04);
        let scoef = Coefficients::assemble(&smesh, &sd, prob.coefficient, rx, ry, halo);
        let sop = TileOperator::new(scoef, TileBounds::serial(n, n));
        let mut p_global = Field2D::new(n, n, halo);
        for k in 0..n as isize {
            for j in 0..n as isize {
                p_global.set(j, k, ((j * 7 + k * 13) % 11) as f64);
            }
        }
        let mut w_global = Field2D::new(n, n, halo);
        let mut t = SolveTrace::new("t");
        sop.apply(&p_global, &mut w_global, 0, &mut t);

        // left tile of a 2x1 decomposition, extension 2 sweep
        let d = Decomposition2D::with_grid(n, n, 2, 1);
        let mesh = Mesh2D::new(&d, 0, prob.extent);
        let mut dd = Field2D::new(mesh.nx(), mesh.ny(), halo);
        let mut de = Field2D::new(mesh.nx(), mesh.ny(), halo);
        prob.apply_states(&mesh, &mut dd, &mut de);
        let coeffs = Coefficients::assemble(&mesh, &dd, prob.coefficient, rx, ry, halo);
        let op = TileOperator::new(coeffs, TileBounds::new(&mesh, halo));
        // fill p including ghost region from the global vector (simulating
        // a depth-3 halo exchange)
        let mut p = Field2D::new(mesh.nx(), mesh.ny(), halo);
        for k in -(halo as isize)..mesh.ny() as isize + halo as isize {
            for j in -(halo as isize)..mesh.nx() as isize + halo as isize {
                let (gj, gk) = (j, k); // left tile: local == global
                if gj >= 0 && gk >= 0 && gj < n as isize && gk < n as isize {
                    p.set(j, k, p_global.at(gj, gk));
                }
            }
        }
        let mut w = Field2D::new(mesh.nx(), mesh.ny(), halo);
        op.apply(&p, &mut w, 2, &mut t);
        // every cell in the extended range must match the serial sweep
        let (x_lo, x_hi, y_lo, y_hi) = op.bounds.range(2);
        assert_eq!((x_lo, y_lo), (0, 0), "west/south are global boundaries");
        assert_eq!(x_hi, mesh.nx() as isize + 2, "east extends into halo");
        for k in y_lo..y_hi {
            for j in x_lo..x_hi {
                assert!(
                    (w.at(j, k) - w_global.at(j, k)).abs() < 1e-13,
                    "extended sweep mismatch at ({j},{k})"
                );
            }
        }
        assert_eq!(t.spmv.sweeps_by_extension[&2], 1);
    }

    #[test]
    fn bounds_clamp_at_global_boundaries() {
        let d = Decomposition2D::with_grid(16, 16, 2, 2);
        let mesh = Mesh2D::new(&d, 0, Extent2D::unit()); // SW tile
        let b = TileBounds::new(&mesh, 4);
        assert_eq!(b.range(2), (0, 10, 0, 10));
        assert_eq!(b.range(0), (0, 8, 0, 8));
        assert_eq!(b.cells(2), 100);
        let mesh3 = Mesh2D::new(&d, 3, Extent2D::unit()); // NE tile
        let b3 = TileBounds::new(&mesh3, 4);
        assert_eq!(b3.range(3), (-3, 8, -3, 8));
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        // 256x256 crosses PAR_THRESHOLD; compare against a 0-threshold
        // serial evaluation done row by row with `dense_apply`
        let n = 256;
        let op = crooked_op(n, 1);
        let mut p = Field2D::new(n, n, 1);
        for k in 0..n as isize {
            for j in 0..n as isize {
                p.set(j, k, ((j * 131 + k * 17) % 23) as f64 / 7.0);
            }
        }
        let mut w = Field2D::new(n, n, 1);
        let mut t = SolveTrace::new("t");
        let pw = op.apply_fused_dot(&p, &mut w, &mut t);
        let wref = dense_apply(&op, &p);
        let mut dot = 0.0;
        for k in 0..n as isize {
            for j in 0..n as isize {
                assert_eq!(w.at(j, k), wref.at(j, k), "cell ({j},{k})");
                dot += p.at(j, k) * wref.at(j, k);
            }
        }
        assert!((pw - dot).abs() <= 1e-9 * dot.abs());
    }
}
