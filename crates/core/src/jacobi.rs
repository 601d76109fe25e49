//! The Jacobi solver — TeaLeaf's simplest stand-alone method.
//!
//! `u ← u + D⁻¹ (b − A·u)`, one depth-1 halo exchange and one global
//! reduction (the convergence error) per iteration. Converges slowly
//! (spectral radius close to 1 for diffusion operators) but is trivially
//! parallel; it exists in TeaLeaf as the design-space floor against which
//! the Krylov methods are judged.

use crate::api::{IterativeSolver, SolveContext, SolverParams};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveStatus, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::Field2D;

/// Point-Jacobi as an [`IterativeSolver`]: the design-space floor. No
/// configuration beyond the convergence options latched by `prepare`.
#[derive(Debug, Clone, Default)]
pub struct Jacobi {
    opts: SolveOpts,
}

impl Jacobi {
    /// A Jacobi solver with default options.
    pub fn new() -> Self {
        Jacobi::default()
    }

    /// Registry factory (Jacobi consumes no [`SolverParams`] fields).
    pub fn from_params(_params: &SolverParams) -> Self {
        Jacobi::new()
    }
}

impl IterativeSolver for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn label(&self) -> String {
        "Jacobi".into()
    }

    fn prepare(&mut self, _ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        let result = jacobi_solve_impl(ctx.tile, u, b, ws, self.opts);
        trace.merge(&result.trace);
        result
    }
}

pub(crate) fn jacobi_solve_impl<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    ws: &mut Workspace,
    opts: SolveOpts,
) -> SolveResult {
    let mut trace = SolveTrace::new("Jacobi");
    let bounds = &tile.op.bounds;
    let (nx, ny) = bounds.tile();

    // reciprocal diagonal, computed once
    let mut inv_diag = Field2D::new(nx, ny, 1);
    tile.op.diagonal_into(&mut inv_diag, 0);
    for k in 0..ny as isize {
        for v in inv_diag.row_mut(k, 0, nx as isize) {
            *v = 1.0 / *v;
        }
    }

    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);
    let rr0_local = vector::dot_local(&ws.r, &ws.r, bounds, &mut trace);
    let rr0 = tile.reduce_sum(rr0_local, &mut trace);
    let initial_residual = match SolveResult::start(rr0, &trace) {
        Ok(norm) => norm,
        Err(end) => return *end,
    };
    let target = opts.eps * initial_residual;

    let mut iterations = 0;
    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = initial_residual;

    while iterations < opts.max_iters {
        if tile.controls.should_stop() {
            status = SolveStatus::Cancelled {
                iteration: iterations,
            };
            break;
        }
        iterations += 1;
        trace.outer_iterations += 1;
        tile.controls.poke(iterations, u, &mut ws.r);

        // u += D^{-1} r
        vector::mul_into(&mut ws.z, &ws.r, &inv_diag, bounds, 0, &mut trace);
        vector::axpy(u, 1.0, &ws.z, bounds, 0, &mut trace);

        tile.exchange(&mut [u], 1, &mut trace);
        tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

        let rr_local = vector::dot_local(&ws.r, &ws.r, bounds, &mut trace);
        let rr = tile.reduce_sum(rr_local, &mut trace);
        if !rr.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            break;
        }
        final_residual = rr.max(0.0).sqrt();
        if final_residual <= target {
            converged = true;
            status = SolveStatus::Converged;
            break;
        }
    }

    SolveResult {
        converged,
        iterations,
        initial_residual,
        final_residual,
        status,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg_solve_impl;
    use crate::ops::{TileBounds, TileOperator};
    use crate::precon::{PreconKind, Preconditioner};
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::{crooked_pipe, timestep_scalings, Coefficients, Decomposition2D, Mesh2D};

    fn serial_problem(n: usize) -> (TileOperator, Field2D) {
        let p = crooked_pipe(n);
        let mesh = Mesh2D::serial(n, n, p.extent);
        let mut density = Field2D::new(n, n, 1);
        let mut energy = Field2D::new(n, n, 1);
        p.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, 0.04);
        let coeffs = Coefficients::assemble(&mesh, &density, p.coefficient, rx, ry, 1);
        let op = TileOperator::new(coeffs, TileBounds::serial(n, n));
        let mut b = Field2D::new(n, n, 1);
        for k in 0..n as isize {
            for j in 0..n as isize {
                b.set(j, k, density.at(j, k) * energy.at(j, k));
            }
        }
        (op, b)
    }

    #[test]
    fn jacobi_converges_slowly_but_surely() {
        let n = 16;
        let (op, b) = serial_problem(n);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let res = jacobi_solve_impl(
            &tile,
            &mut u,
            &b,
            &mut ws,
            SolveOpts {
                eps: 1e-8,
                max_iters: 100_000,
            },
        );
        assert!(res.converged, "Jacobi must converge: {res:?}");
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / b.interior_norm() < 1e-7);
    }

    #[test]
    fn jacobi_needs_far_more_iterations_than_cg() {
        let n = 32;
        let (op, b) = serial_problem(n);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let m = Preconditioner::setup(PreconKind::None, &op, 0);

        let mut ws = Workspace::new(n, n, 1);
        let mut u1 = b.clone();
        let opts = SolveOpts {
            eps: 1e-8,
            max_iters: 200_000,
        };
        let jac = jacobi_solve_impl(&tile, &mut u1, &b, &mut ws, opts);
        let mut u2 = b.clone();
        let cg = cg_solve_impl(&tile, &mut u2, &b, &m, &mut ws, opts);
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
        let n = 8;
        let (op, _b) = serial_problem(n);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, 1);
        let zero = Field2D::new(n, n, 1);
        let mut u = Field2D::new(n, n, 1);
        let res = jacobi_solve_impl(&tile, &mut u, &zero, &mut ws, SolveOpts::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
