//! Preconditioned Richardson iteration with Chebyshev-estimated damping
//! — the solver added *after* the [`crate::api::IterativeSolver`]
//! redesign, purely through the trait + registry, to prove the design
//! space is extensible without driver surgery.
//!
//! The method is stationary first-order Richardson,
//!
//! ```text
//! u ← u + ω M⁻¹ (b − A·u)
//! ```
//!
//! which converges for SPD `M⁻¹A` whenever `0 < ω < 2/λmax` and fastest
//! at the Chebyshev-optimal damping `ω* = 2/(λmin + λmax)`, where the
//! error contracts per sweep by `(κ−1)/(κ+1)` with `κ = λmax/λmin`.
//! The spectrum bounds come from the same short plain-CG + Lanczos
//! prelude the Chebyshev and CPPCG solvers use (paper §III.D,
//! `eigen_prelude`), so like them the iteration itself — one step
//! closure handed to the shared `stationary_loop` — needs **no dot
//! products**: one depth-1 halo exchange and one stencil sweep per
//! iteration, with a global reduction only at the periodic convergence
//! check. `mixed_richardson` (`Richardson::mixed`) runs the damped
//! sweeps as [`CHECK_INTERVAL`]-sweep `f32` blocks (`rich_inner`) under
//! `f64` residual control (`refine`).
//!
//! In the design space it sits between Jacobi (ω = 1, M = diag A) and
//! Chebyshev (which replaces the fixed ω by the optimal polynomial):
//! the communication profile of Chebyshev with the convergence rate of
//! a stationary method.

use crate::api::{DynTile, SolverParams, CHECK_INTERVAL};
use crate::cg::{EigenFamily, Family};
use crate::control::Probed;
use crate::eigen::EigenEstimate;
use crate::mixed::{refine, Inner};
use crate::ops::TileOperator;
use crate::ppcg::Smooth;
use crate::precon::Preconditioner;
use crate::recurrence::stationary_loop;
use crate::solver::{Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::{Field2, Field2D};

/// Preconditioned Richardson iteration as an
/// [`IterativeSolver`](crate::IterativeSolver) (see the module docs).
/// [`Richardson::mixed`] moves the damped sweeps to `f32`.
#[derive(Debug)]
pub(crate) struct Richardson {
    family: Family,
}

impl Richardson {
    /// Registry factory: consumes `precon` and `presteps`.
    pub(crate) fn from_params(params: &SolverParams) -> Self {
        Richardson {
            family: Family::new(params),
        }
    }

    /// The `"mixed_richardson"` registry entry: [`CHECK_INTERVAL`]
    /// damped sweeps run in `f32` against the demoted residual; the
    /// promoted correction and the convergence test stay in `f64`.
    pub(crate) fn mixed(mut self) -> Self {
        self.family.mixed = true;
        self
    }
}

impl EigenFamily for Richardson {
    const NAMES: [&'static str; 2] = ["richardson", "mixed_richardson"];

    fn family(&self) -> &Family {
        &self.family
    }

    fn family_mut(&mut self) -> &mut Family {
        &mut self.family
    }

    fn legend(&self) -> String {
        "Richardson".into()
    }

    /// The damped stationary iteration from the CG-advanced iterate —
    /// in `f64`, or as `f32` refinement blocks when the solver is
    /// `mixed`.
    fn run(
        &mut self,
        tile: &DynTile<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        mut pre: SolveResult,
        est: EigenEstimate,
    ) -> SolveResult {
        let opts = self.family.opts;
        let precon = self.family.precon.as_ref().expect("assembled by solve");
        let bounds = &tile.op.bounds;
        let omega = 2.0 / (est.min + est.max);
        if let Some(low) = &mut self.family.low {
            let steps = CHECK_INTERVAL as usize;
            let inner = Inner::Richardson { omega, steps };
            return refine(tile, u, b, ws, pre, opts, low, inner);
        }

        tile.exchange(&mut [u], 1, &mut pre.trace);
        tile.op.residual(u, b, &mut ws.r, 0, &mut pre.trace);
        precon.apply(&ws.r, &mut ws.z, bounds, 0, &mut pre.trace);
        let check = Some(CHECK_INTERVAL);
        stationary_loop(tile, u, &mut ws.r, pre, opts, check, |u, r, _, trace| {
            // u += ω z ; refresh r = b - A u and z = M⁻¹ r
            vector::axpy(u, omega, &ws.z, bounds, 0, trace);
            tile.exchange(&mut [u], 1, trace);
            tile.op.residual(u, b, r, 0, trace);
            precon.apply(r, &mut ws.z, bounds, 0, trace);
        })
    }
}

/// `steps` damped Richardson sweeps on `A z ≈ rr` from `z = 0` in
/// precision `S`: `z += ω M⁻¹ r̃` with the inner residual `r̃ = rr`
/// maintained incrementally (`r̃ −= A·(ω M⁻¹ r̃)`) — the depth-1 schedule
/// of [`crate::ppcg::cheb_inner`] with the Chebyshev recurrence replaced
/// by the fixed Chebyshev-optimal damping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rich_inner<S: Probed, C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    op: &TileOperator<S>,
    precon: &Preconditioner<S>,
    f: &mut Smooth<'_, S>,
    w: &mut Field2<S>,
    omega: f64,
    steps: usize,
    trace: &mut SolveTrace,
) {
    let bounds = &op.bounds;
    vector::zero(f.z, bounds, 1, trace);
    for _ in 0..steps {
        precon.apply(f.rr, f.tmp, bounds, 0, trace);
        vector::scaled_copy(f.sd, f.tmp, S::from_f64(omega), bounds, 0, trace);
        tile.exchange(&mut [&mut *f.sd], 1, trace);
        op.apply(f.sd, w, 0, trace);
        vector::axpy(f.z, S::ONE, f.sd, bounds, 0, trace);
        vector::axpy(f.rr, -S::ONE, w, bounds, 0, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SolveContext;
    use crate::builder::{crooked_pipe_system, Solve};
    use crate::precon::PreconKind;
    use crate::registry::SolverRegistry;
    use crate::solver::SolveOpts;
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::Decomposition2D;

    #[test]
    fn richardson_converges_on_crooked_pipe() {
        let n = 24;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&tile);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let params = SolverParams {
            precon: PreconKind::Diagonal,
            presteps: 8, // few enough that the CG prelude cannot finish the job
            ..SolverParams::default()
        };
        let mut solver = SolverRegistry::builtin()
            .create("richardson", &params)
            .expect("richardson is registered");
        let mut acc = SolveTrace::new("run");
        solver.prepare(
            &ctx,
            &SolveOpts {
                eps: 1e-8,
                max_iters: 100_000,
            },
        );
        let res = solver.solve(&ctx, &mut u, &b, &mut ws, &mut acc);
        assert!(res.converged, "Richardson must converge: {res:?}");
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / b.interior_norm() < 1e-6);
        // the damping came from a recorded eigenvalue estimate
        assert!(res.trace.eigen_bounds.is_some());
        // protocol merged into the caller's accumulator
        assert_eq!(acc.outer_iterations, res.trace.outer_iterations);
    }

    #[test]
    fn richardson_is_reduction_avoiding() {
        // between checks the iteration must not communicate: reductions
        // grow by ~1 per CHECK_INTERVAL iterations, not per iteration
        let (op, b) = crooked_pipe_system(24, 0.04, 1);
        let presteps = 8;
        let res = Solve::on(&op)
            .with_solver("richardson")
            .precon(PreconKind::Diagonal)
            .presteps(presteps)
            .eps(1e-8)
            .max_iters(100_000)
            .run(&mut b.clone(), &b)
            .expect("richardson is registered");
        assert!(res.converged);
        let post = res.trace.outer_iterations - presteps;
        // presteps cost 2 reductions each (CG); afterwards ~1 per 10 its
        let cheby_like_budget = 1 + 2 * presteps + post / CHECK_INTERVAL + 2;
        assert!(
            res.trace.reductions <= cheby_like_budget,
            "reductions {} exceed the reduction-avoiding budget {}",
            res.trace.reductions,
            cheby_like_budget
        );
    }

    #[test]
    fn zero_rhs_immediate() {
        let (op, _b) = crooked_pipe_system(8, 0.04, 1);
        let zero = Field2D::new(8, 8, 1);
        let mut u = Field2D::new(8, 8, 1);
        let res = Solve::on(&op).with_solver("richardson").run(&mut u, &zero);
        let res = res.expect("richardson is registered");
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
