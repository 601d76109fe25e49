//! The Jacobi solver — TeaLeaf's simplest stand-alone method.
//!
//! `u ← u + D⁻¹ (b − A·u)` — that step handed to the shared
//! `stationary_loop`, checked every iteration: one depth-1 halo
//! exchange and one global reduction (the convergence error) per
//! iteration. Converges slowly
//! (spectral radius close to 1 for diffusion operators) but is trivially
//! parallel; it exists in TeaLeaf as the design-space floor against which
//! the Krylov methods are judged.

use crate::api::{IterativeSolver, SolveContext, SolverParams};
use crate::recurrence::stationary_loop;
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::Field2D;

/// Point-Jacobi as an [`IterativeSolver`]: the design-space floor. No
/// configuration beyond the convergence options latched by `prepare`,
/// which also computes the reciprocal diagonal `D⁻¹`.
#[derive(Debug)]
pub(crate) struct Jacobi {
    opts: SolveOpts,
    inv_diag: Option<Field2D>,
}

impl Jacobi {
    /// Registry factory (Jacobi consumes no [`SolverParams`] fields).
    pub(crate) fn from_params(_params: &SolverParams) -> Self {
        Jacobi {
            opts: SolveOpts::default(),
            inv_diag: None,
        }
    }
}

impl IterativeSolver for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn label(&self) -> String {
        "Jacobi".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        let op = ctx.tile.op;
        let (nx, ny) = op.bounds.tile();
        let mut inv_diag = Field2D::new(nx, ny, 1);
        op.diagonal_into(&mut inv_diag, 0);
        for k in 0..ny as isize {
            for v in inv_diag.row_mut(k, 0, nx as isize) {
                *v = 1.0 / *v;
            }
        }
        self.inv_diag = Some(inv_diag);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        let inv_diag = self
            .inv_diag
            .as_ref()
            .expect("Jacobi solved before prepare");
        let result = jacobi_solve_impl(ctx.tile, u, b, inv_diag, ws, self.opts);
        trace.merge(&result.trace);
        result
    }
}

pub(crate) fn jacobi_solve_impl<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    inv_diag: &Field2D,
    ws: &mut Workspace,
    opts: SolveOpts,
) -> SolveResult {
    let mut trace = SolveTrace::new("Jacobi");
    let bounds = &tile.op.bounds;
    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);
    let rr0 = vector::dot_local(&ws.r, &ws.r, bounds, &mut trace);
    let rr0 = tile.reduce_sum_native(rr0, &mut trace);
    let run = match SolveResult::start(rr0, trace) {
        Ok(run) => run,
        Err(end) => return *end,
    };
    stationary_loop(tile, u, &mut ws.r, run, opts, None, |u, r, _, trace| {
        // u += D^{-1} r
        vector::mul_into(&mut ws.w, r, inv_diag, bounds, 0, trace);
        vector::axpy(u, 1.0, &ws.w, bounds, 0, trace);
        tile.exchange(&mut [u], 1, trace);
        tile.op.residual(u, b, r, 0, trace);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{crooked_pipe_system, Solve};

    #[test]
    fn jacobi_converges_slowly_but_surely() {
        let n = 16;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let mut u = b.clone();
        let solve = Solve::on(&op).with_solver("jacobi").eps(1e-8);
        let res = solve.max_iters(100_000).run(&mut u, &b).unwrap();
        assert!(res.converged, "Jacobi must converge: {res:?}");
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / b.interior_norm() < 1e-7);
    }

    #[test]
    fn jacobi_needs_far_more_iterations_than_cg() {
        let (op, b) = crooked_pipe_system(32, 0.04, 1);
        let solve = Solve::on(&op).eps(1e-8).max_iters(200_000);
        let cg = solve.run(&mut b.clone(), &b).unwrap();
        let jac = solve.with_solver("jacobi").run(&mut b.clone(), &b).unwrap();
        assert!(jac.converged && cg.converged);
        assert!(
            jac.iterations > 2 * cg.iterations,
            "Jacobi ({}) should be far slower than CG ({})",
            jac.iterations,
            cg.iterations
        );
    }

    #[test]
    fn zero_rhs_immediate() {
        let (op, _b) = crooked_pipe_system(8, 0.04, 1);
        let zero = Field2D::new(8, 8, 1);
        let mut u = Field2D::new(8, 8, 1);
        let res = Solve::on(&op).with_solver("jacobi").run(&mut u, &zero);
        let res = res.expect("jacobi is registered");
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
