//! CPPCG — the Chebyshev Polynomially Preconditioned Conjugate Gradient
//! solver with the matrix-powers kernel (paper §III–IV).
//!
//! The outer recurrence is the shared [`pcg_loop`], picking up from the
//! CG eigenvalue prelude (`eigen_prelude`); what CPPCG plugs into it
//! is the preconditioner application: `z = M⁻¹r` is an `m`-step
//! Chebyshev smoothing of `A z = r` from `z₀ = 0` (`cheb_inner`, paper
//! §III.B–C). Each outer iteration therefore costs `m+1` stencil sweeps
//! but only the **two** outer dot products — the global reduction count
//! per sweep drops by a factor of ~`m` versus plain CG, which is the
//! communication-avoidance the paper quantifies with Eqs. 6–7.
//!
//! `cheb_inner` is generic over the scalar: `ppcg` runs it on the
//! workspace's own `f64` fields (`Smoothed`); `mixed_ppcg` (the
//! family's [`crate::Precision::Mixed`] entry) runs the same code on the
//! `f32` image of the operator (`crate::mixed::Low`), halving the traffic of the dominant
//! sweeps and the bytes of every deep-halo message while the outer
//! recurrence, both dot products and the convergence test stay in `f64`.
//!
//! Halo traffic inside the inner smoothing is governed by the
//! **matrix-powers kernel** (paper §IV.C.2, Figs. 1–2): with halo depth
//! `h`, one depth-`h` exchange buys `h` stencil applications over loop
//! bounds that shrink by one cell per application, at the cost of
//! redundant computation in the overlap. `PPCG-1` (depth 1) exchanges
//! before every inner step; `PPCG-16` exchanges once or twice per outer
//! iteration.
//!
//! **Matrix powers in time.** What one exchange buys is a *block*, and
//! a block runs as one pass over the rows
//! (`vector::for_rows_block`): nothing leaves the tile between two
//! exchanges, so the block that avoids the network can avoid the memory
//! hierarchy too. At wavefront `t`, level `l` of the block applies the
//! fused stencil/`z`/`rr` body to row `t − 2l` of its own shrinking
//! bounds and then the `sd` recurrence to row `t − 2l − 1`. The lag of
//! two rows means each read sees exactly what sweep-at-a-time order
//! produced — the three `sd` rows a stencil reads are complete, and
//! none is overwritten before the stencil above it has passed — so the
//! result is bit-identical, with no scratch rows and no redundant
//! cells. A level-at-a-time step streams 10 elements per cell (7 for
//! the stencil pass, 3 for the recurrence), a block of `h` steps `10·h`;
//! the pipelined block streams `sd`, `z`, `rr` in and out and `Kx`,
//! `Ky` in: 8, with about `2h + 1` rows of five fields resident in L2.
//! Depth 1 already fuses the two sweeps of a step into one pass, and
//! the first block also absorbs the sweeps that used to prepare the
//! smoothing (`rr ← r`, `z ← 0`, `sd ← M⁻¹r/θ`). The halo depth is the
//! only knob: the paper's `PPCG-n` axis sets the temporal-blocking
//! depth as well.
//!
//! The block-Jacobi preconditioner may additionally smooth the *inner*
//! residual — but only at depth 1, because its strips need fresh whole
//! blocks (paper's stated incompatibility with matrix powers, enforced
//! here at configuration time).

use crate::api::{DynTile, SolverMeta, SolverParams};
use crate::cg::{EigenFamily, Family};
use crate::chebyshev::ChebyConstants;
use crate::control::Probed;
use crate::eigen::EigenEstimate;
use crate::mixed::{Inner, Lowered};
use crate::ops::TileOperator;
use crate::precon::Preconditioner;
use crate::recurrence::{pcg_loop, Entry, Krylov, Precondition};
use crate::solver::{Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::{Field2, Field2D, Scalar};

/// CPPCG as an [`IterativeSolver`](crate::IterativeSolver): Chebyshev
/// polynomially preconditioned CG with the matrix-powers deep-halo
/// schedule — the paper's communication-avoiding headliner, and the
/// only built-in method whose halo depth exceeds 1. Its `mixed` entry
/// moves the inner smoothing to `f32`.
#[derive(Debug)]
pub(crate) struct Ppcg {
    family: Family,
}

impl Ppcg {
    /// Registry factory: takes its name and precision from `meta` and
    /// consumes `precon`, `inner_steps`, `halo_depth` and `presteps`.
    pub(crate) fn from_params(meta: &SolverMeta, params: &SolverParams) -> Self {
        Ppcg {
            family: Family::new(meta, params),
        }
    }
}

impl EigenFamily for Ppcg {
    fn family(&self) -> &Family {
        &self.family
    }

    fn family_mut(&mut self) -> &mut Family {
        &mut self.family
    }

    /// The paper's `PPCG-n` legend, `n` the matrix-powers depth.
    fn legend(&self) -> String {
        format!("PPCG-{}", self.family.params.halo_depth)
    }

    fn matrix_powers(&self) -> Option<usize> {
        Some(self.family.params.halo_depth)
    }

    /// The PCG loop with the `m`-step Chebyshev preconditioner —
    /// smoothing in the workspace's `f64`, or in `f32` at reduced
    /// precision.
    fn run(
        &mut self,
        tile: &DynTile<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        pre: SolveResult,
        est: EigenEstimate,
    ) -> SolveResult {
        let (params, opts) = (&self.family.params, self.family.opts);
        let (h, inner_steps) = (params.halo_depth, params.inner_steps);
        let precon = self.family.precon.as_ref().expect("assembled by solve");
        assert!(h >= 1, "matrix-powers depth must be at least 1");
        assert!(inner_steps >= 1, "need at least one inner step");
        assert!(
            ws.halo() >= h,
            "workspace halo {} shallower than matrix-powers depth {h}",
            ws.halo()
        );

        let smoothing = Smoothing::new(est, inner_steps, h);
        let entry = Entry::Carried(pre);
        if let Some(low) = &mut self.family.low {
            let (mut k, _) = ws.krylov(tile.op, u, b);
            let mut step = Lowered(low, Inner::Chebyshev(&smoothing));
            return pcg_loop(tile, &mut k, &mut step, entry, opts).0;
        }
        let (mut k, scratch) = ws.krylov(tile.op, u, b);
        let mut step = Smoothed {
            precon,
            smoothing: &smoothing,
            scratch,
        };
        pcg_loop(tile, &mut k, &mut step, entry, opts).0
    }
}

/// One preconditioner application's worth of Chebyshev smoothing.
#[derive(Debug, Clone)]
pub struct Smoothing {
    /// Spectrum midpoint `θ` (the first direction is `M⁻¹r / θ`).
    theta: f64,
    /// The `(α_k, β_k)` of each step: `sd ← α_k·sd + β_k·M⁻¹rr`.
    pub(crate) cheb: Vec<(f64, f64)>,
    /// Matrix-powers halo depth `h ≥ 1`.
    depth: usize,
    /// The sweep extension of every level: level 0 is the prelude
    /// `sd = M⁻¹r/θ`, level `j` is step `j - 1`. A maximal strictly
    /// decreasing run is one block — the levels one exchange buys.
    exts: Vec<usize>,
}

impl Smoothing {
    /// `steps` steps at depth `depth` for the spectrum estimate `est`.
    pub fn new(est: EigenEstimate, steps: usize, depth: usize) -> Self {
        let consts = ChebyConstants::from_estimate(est);
        // depth 1 smooths the interior and exchanges `sd` before every
        // step; deeper, the first exchange carries the residual and the
        // prelude already runs over the whole halo
        let mut avail = if depth > 1 { depth } else { 0 };
        let mut exts = vec![avail];
        for i in 0..steps {
            if avail == 0 {
                avail = depth;
            }
            // never sweep wider than the remaining steps can use
            avail = (avail - 1).min(steps - 1 - i);
            exts.push(avail);
        }
        Smoothing {
            theta: consts.theta,
            cheb: consts.coefficients(steps),
            depth,
            exts,
        }
    }

    /// The blocks, in order: each one's first level and the sweep
    /// extensions of its levels.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.exts.chunk_by(|a, b| b < a).scan(0, |next, exts| {
            let first = *next;
            *next += exts.len();
            Some((first, exts))
        })
    }

    /// Runs one of the [`Smoothing::blocks`] on `f` as one
    /// `vector::for_rows_block` pass: each level's stencil sweep leads,
    /// its `sd` recurrence lags. `r` is the outer residual where `f.rr`
    /// does not hold it yet; the first step then reads it there. The
    /// trace gets the records of the sweeps the pass stands for, the
    /// prelude's `z ← 0`, `tmp ← M⁻¹r` and `sd ← tmp/θ` included.
    pub fn run_block<S: Scalar>(
        &self,
        op: &TileOperator<S>,
        precon: &Preconditioner<S>,
        f: &mut Smooth<'_, S>,
        r: Option<&Field2<S>>,
        block: (usize, &[usize]),
        trace: &mut SolveTrace,
    ) {
        block_pass(self, op, precon, f, r, block, trace);
    }
}

// The block pass, compiled twice (`crate::isa`): each copy runs the
// stencil and recurrence rows of its own width.
crate::isa::twins! {
    mod block(
        crate::ops::rows { cheb_fused_rows },
        crate::precon::rows { combine_rows },
    );

    /// The body of [`Smoothing::run_block`].
    fn block_pass<S: Scalar>(
        smoothing: &Smoothing,
        op: &TileOperator<S>,
        precon: &Preconditioner<S>,
        f: &mut Smooth<'_, S>,
        r: Option<&Field2<S>>,
        block: (usize, &[usize]),
        trace: &mut SolveTrace,
    ) {
        let (first, exts) = block;
        let bounds = &op.bounds;
        for (j, &e) in (first..).zip(exts) {
            if j == 0 {
                trace.vector_ops.record(smoothing.depth);
                if precon.supports_extension() {
                    trace.vector_ops.record(e);
                }
            } else {
                trace.spmv.record(e);
                trace.fused_updates.record(e);
            }
            if !precon.is_identity() {
                trace.precon_ops.record(e);
            }
            trace.vector_ops.record(e);
        }
        let inv_theta = S::from_f64(1.0 / smoothing.theta);
        vector::for_rows_block(bounds, exts, |l, lag, rows| {
            let (j, e) = (first + l, exts[l]);
            match (j, lag) {
                (0, false) => {} // the prelude has no stencil
                (0, true) => {
                    let g = move |_, m| m * inv_theta;
                    combine_rows(precon, f.sd, r.unwrap_or(f.rr), f.tmp, bounds, e, rows, g);
                }
                (_, false) => {
                    let r = r.filter(|_| j == 1);
                    cheb_fused_rows(op, f.sd, f.z, f.rr, e, rows, j == 1, r);
                }
                (_, true) => {
                    let (a, b) = smoothing.cheb[j - 1];
                    let (a, b) = (S::from_f64(a), S::from_f64(b));
                    combine_rows(precon, f.sd, f.rr, f.tmp, bounds, e, rows, move |y, m| {
                        a * y + b * m
                    });
                }
            }
        });
    }
}

/// The fields of one smoothing in precision `S`: `rr` is consumed as the
/// inner residual, `z` leaves holding the result; `sd` and `tmp` are
/// scratch (`tmp` holds block-Jacobi's strip solves).
pub struct Smooth<'a, S: Scalar> {
    /// The smoothed result `z ≈ A⁻¹r`.
    pub z: &'a mut Field2<S>,
    /// The inner residual.
    pub rr: &'a mut Field2<S>,
    /// The Chebyshev direction.
    pub sd: &'a mut Field2<S>,
    /// Row scratch of the preconditioner.
    pub tmp: &'a mut Field2<S>,
}

/// `ppcg`'s `z = M⁻¹r`: [`cheb_inner`] on the workspace's own fields.
struct Smoothed<'a> {
    precon: &'a Preconditioner,
    smoothing: &'a Smoothing,
    /// `rr`, `sd`, `tmp`.
    scratch: [&'a mut Field2D; 3],
}

impl Precondition<f64> for Smoothed<'_> {
    fn apply<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        k: &mut Krylov<'_, f64>,
        trace: &mut SolveTrace,
    ) {
        let [rr, sd, tmp] = &mut self.scratch;
        // `rr ← r`: the first step reads `r` itself
        trace.vector_ops.record(0);
        let mut f = Smooth {
            z: k.wz,
            rr,
            sd,
            tmp,
        };
        cheb_inner(
            tile,
            k.op,
            self.precon,
            &mut f,
            Some(k.r),
            self.smoothing,
            trace,
        );
        trace.inner_iterations += self.smoothing.cheb.len() as u64;
    }
}

/// The inner m-step Chebyshev solve of `A z ≈ r` from `z = 0` in
/// precision `S`, block by block: an exchange, then everything it buys
/// as one pass ([`Smoothing::run_block`]). `r` is the residual where it
/// is not in `f.rr` already, and is then what the first exchange moves.
pub(crate) fn cheb_inner<S: Probed, C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    op: &TileOperator<S>,
    precon: &Preconditioner<S>,
    f: &mut Smooth<'_, S>,
    mut r: Option<&mut Field2<S>>,
    smoothing: &Smoothing,
    trace: &mut SolveTrace,
) {
    let h = smoothing.depth;
    for block in smoothing.blocks() {
        match block.0 {
            // the prelude reads the residual as far out as it sweeps
            0 if h > 1 => tile.exchange(&mut [r.as_deref_mut().unwrap_or(f.rr)], h, trace),
            0 => {}
            // depth 1 sweeps the interior: only the stencil's input moves
            _ if h == 1 => tile.exchange(&mut [&mut *f.sd], 1, trace),
            _ => tile.exchange(&mut [&mut *f.sd, &mut *f.rr], h, trace),
        }
        smoothing.run_block(op, precon, f, r.as_deref(), block, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{crooked_pipe_system, Solve};
    use crate::precon::PreconKind;

    /// Inner steps of the paper's `PPCG - n` runs; the other cases use 10.
    const PAPER_INNER: usize = 16;

    fn residual_norm(op: &TileOperator, u: &Field2D, b: &Field2D) -> f64 {
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(u.nx(), u.ny(), u.halo());
        op.residual(u, b, &mut r, 0, &mut t);
        r.interior_norm() / b.interior_norm()
    }

    /// One `ppcg` solve at matrix-powers depth `depth` (the operator's
    /// halo too) with `inner` smoothing steps per outer iteration.
    fn solve_with(
        n: usize,
        kind: PreconKind,
        depth: usize,
        inner: usize,
    ) -> (SolveResult, Field2D, TileOperator, Field2D) {
        let (op, b) = crooked_pipe_system(n, 0.04, depth);
        let mut u = b.clone();
        let res = Solve::on(&op)
            .with_solver("ppcg")
            .precon(kind)
            .halo_depth(depth)
            .inner_steps(inner)
            .eps(1e-9)
            .run(&mut u, &b)
            .expect("ppcg is registered");
        (res, u, op, b)
    }

    #[test]
    fn ppcg_depth1_converges() {
        let (res, u, op, b) = solve_with(32, PreconKind::None, 1, 10);
        assert!(res.converged, "{res:?}");
        assert!(residual_norm(&op, &u, &b) < 1e-7);
    }

    #[test]
    fn ppcg_with_block_jacobi_at_depth1() {
        let (res, u, op, b) = solve_with(32, PreconKind::BlockJacobi, 1, 10);
        assert!(res.converged);
        assert!(residual_norm(&op, &u, &b) < 1e-7);
    }

    #[test]
    #[should_panic]
    fn block_jacobi_with_matrix_powers_rejected() {
        let _ = solve_with(32, PreconKind::BlockJacobi, 4, PAPER_INNER);
    }

    #[test]
    fn deeper_halo_means_fewer_exchanges() {
        let (r1, ..) = solve_with(32, PreconKind::None, 1, PAPER_INNER);
        let (r16, ..) = solve_with(32, PreconKind::None, 16, PAPER_INNER);
        assert_eq!(
            r1.iterations, r16.iterations,
            "same math must take the same iterations"
        );
        // exclude the identical CG-prestep phase (presteps p-exchanges +
        // one u-exchange each), leaving only the PPCG phase protocol
        let presteps = SolverParams::default().presteps + 1;
        let ex1 = r1.trace.total_halo_exchanges() - presteps;
        let ex16 = r16.trace.total_halo_exchanges() - presteps;
        assert!(
            (ex16 as f64) < (ex1 as f64) * 0.25,
            "depth 16 must slash exchange count: {ex16} vs {ex1}"
        );
        // while moving roughly the same total volume (strip units scale
        // with depth x count; same sweeps -> comparable data)
        let v1 = r1.trace.halo_strip_units() - presteps;
        let v16 = r16.trace.halo_strip_units() - presteps;
        let ratio = v16 as f64 / v1 as f64;
        assert!(
            ratio > 0.5 && ratio < 2.5,
            "total halo volume should be comparable, ratio {ratio}"
        );
    }

    #[test]
    fn ppcg_slashes_reductions_versus_cg() {
        let n = 32;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let mut u1 = b.clone();
        let cg = Solve::on(&op).eps(1e-9).run(&mut u1, &b).unwrap();

        let (pp, u2, ..) = solve_with(n, PreconKind::None, 1, 10);
        assert!(cg.converged && pp.converged);
        // reductions per spmv sweep is the communication-avoidance metric
        let cg_ratio = cg.trace.reductions as f64 / cg.trace.spmv.total() as f64;
        let pp_ratio = pp.trace.reductions as f64 / pp.trace.spmv.total() as f64;
        assert!(
            pp_ratio < 0.5 * cg_ratio,
            "CPPCG must reduce reductions per sweep: {pp_ratio} vs {cg_ratio}"
        );
        // both reach the same solution
        for k in 0..n as isize {
            for j in 0..n as isize {
                assert!(
                    (u1.at(j, k) - u2.at(j, k)).abs() < 1e-5 * u1.at(j, k).abs().max(1.0),
                    "solutions diverge at ({j},{k})"
                );
            }
        }
    }

    #[test]
    fn inner_iterations_counted() {
        let (res, ..) = solve_with(24, PreconKind::None, 1, 10);
        let presteps = SolverParams::default().presteps.min(res.iterations);
        let outer_after_pre = res.trace.outer_iterations - presteps;
        if outer_after_pre > 0 {
            // one initial application plus one per outer iteration
            assert_eq!(res.trace.inner_iterations, (outer_after_pre + 1) * 10);
        }
    }
}
