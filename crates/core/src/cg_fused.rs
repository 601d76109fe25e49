//! Single-reduction CG — the paper's §VII future-work item, implemented.
//!
//! > "The Krylov solver can be restructured so that the multiple dot
//! > products are combined into a single communication step and the
//! > communications can be overlapped with the application of the
//! > preconditioner."
//!
//! This is the Chronopoulos–Gear reformulation of preconditioned CG: per
//! iteration it computes both scalars `γ = r·z` and `δ = z·Az` from the
//! *same* state and reduces them in **one** fused allreduce (one network
//! latency instead of two), at the cost of one extra vector recurrence
//! (`s = A·p` is maintained by the same update as `p`). Mathematically
//! equivalent to CG in exact arithmetic; in floating point it can drift
//! a few ULPs per iteration, which the tests bound.

use crate::api::{IterativeSolver, SolveContext, SolverParams};
use crate::precon::{PreconKind, Preconditioner};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::Field2D;

/// Single-reduction (Chronopoulos–Gear) CG as an [`IterativeSolver`]:
/// one fused allreduce per iteration instead of CG's two.
#[derive(Debug, Clone, Default)]
pub struct CgFused {
    kind: PreconKind,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
}

impl CgFused {
    /// A fused-reduction CG solver using preconditioner `kind`.
    pub fn new(kind: PreconKind) -> Self {
        CgFused {
            kind,
            opts: SolveOpts::default(),
            precon: None,
        }
    }

    /// Registry factory: consumes [`SolverParams::precon`].
    pub fn from_params(params: &SolverParams) -> Self {
        CgFused::new(params.precon)
    }
}

impl CgFused {
    /// The one place the preconditioner is assembled for this solver
    /// (used by both `prepare` and the prepare-on-demand path).
    fn assemble_precon(&self, ctx: &SolveContext<'_>) -> Preconditioner {
        Preconditioner::setup(self.kind, ctx.tile.op, 0)
    }
}

impl IterativeSolver for CgFused {
    fn name(&self) -> &'static str {
        "cg_fused"
    }

    fn label(&self) -> String {
        "CG-fused".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.precon = Some(self.assemble_precon(ctx));
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if self.precon.is_none() {
            self.precon = Some(self.assemble_precon(ctx));
        }
        let precon = self.precon.as_ref().expect("just prepared");
        let result = cg_fused_solve_impl(ctx.tile, u, b, precon, ws, self.opts);
        trace.merge(&result.trace);
        result
    }
}

pub(crate) fn cg_fused_solve_impl<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    ws: &mut Workspace,
    opts: SolveOpts,
) -> SolveResult {
    let mut trace = SolveTrace::new("CG-fused");
    let bounds = &tile.op.bounds;

    // r = b - A u
    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

    // z = M^{-1} r ; w = A z  (ws.rr doubles as w)
    precon.apply(&ws.r, &mut ws.z, bounds, 0, &mut trace);
    tile.exchange(&mut [&mut ws.z], 1, &mut trace);
    tile.op.apply(&ws.z, &mut ws.rr, 0, &mut trace);

    let gamma_local = vector::dot_local(&ws.r, &ws.z, bounds, &mut trace);
    let delta_local = vector::dot_local(&ws.rr, &ws.z, bounds, &mut trace);
    let reduced = tile.reduce_sum_many(&[gamma_local, delta_local], &mut trace);
    let (mut gamma, delta) = (reduced[0], reduced[1]);

    // a non-finite δ poisons the first α just like a non-finite γ
    let rz0 = if delta.is_finite() { gamma } else { delta };
    let mut run = match SolveResult::start(rz0, trace) {
        Ok(run) => run,
        Err(end) => return *end,
    };
    let target = opts.eps * run.initial_residual;

    // p = z ; s = w ; alpha = γ/δ
    vector::copy(&mut ws.p, &ws.z, bounds, 0, &mut run.trace);
    vector::copy(&mut ws.sd, &ws.rr, bounds, 0, &mut run.trace); // s lives in sd
    let mut alpha = gamma / delta;

    while run.iterations < opts.max_iters && run.begin(&tile.controls, u, &mut ws.r) {
        let trace = &mut run.trace;
        vector::axpy(u, alpha, &ws.p, bounds, 0, trace);
        vector::axpy(&mut ws.r, -alpha, &ws.sd, bounds, 0, trace);

        precon.apply(&ws.r, &mut ws.z, bounds, 0, trace);
        tile.exchange(&mut [&mut ws.z], 1, trace);
        tile.op.apply(&ws.z, &mut ws.rr, 0, trace);

        // the single fused reduction of the iteration
        let g_local = vector::dot_local(&ws.r, &ws.z, bounds, trace);
        let d_local = vector::dot_local(&ws.rr, &ws.z, bounds, trace);
        let red = tile.reduce_sum_many(&[g_local, d_local], trace);
        let (gamma_new, delta_new) = (red[0], red[1]);
        if !delta_new.is_finite() {
            run.diverge();
            break;
        }
        if run.observe(gamma_new, target) {
            break;
        }

        let beta = gamma_new / gamma;
        alpha = gamma_new / (delta_new - beta * gamma_new / alpha);
        if !alpha.is_finite() {
            run.diverge();
            break;
        }
        vector::xpay(&mut ws.p, &ws.z, beta, bounds, 0, &mut run.trace);
        vector::xpay(&mut ws.sd, &ws.rr, beta, bounds, 0, &mut run.trace);
        gamma = gamma_new;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{crooked_pipe_system, Solve};

    #[test]
    fn fused_cg_converges_and_matches_cg() {
        let n = 32;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let solve = Solve::on(&op).eps(1e-10);
        let (mut u1, mut u2) = (b.clone(), b.clone());
        let plain = solve.run(&mut u1, &b).unwrap();
        let fused = solve.with_solver("cg_fused").run(&mut u2, &b).unwrap();

        assert!(plain.converged && fused.converged);
        // same Krylov trajectory up to rounding: iteration counts within
        // a few of each other
        let diff = plain.iterations.abs_diff(fused.iterations);
        assert!(
            diff <= 3,
            "iteration mismatch: {} vs {}",
            plain.iterations,
            fused.iterations
        );
        for k in 0..n as isize {
            for j in 0..n as isize {
                let (a, bb) = (u1.at(j, k), u2.at(j, k));
                assert!(
                    (a - bb).abs() <= 1e-6 * bb.abs().max(1e-12),
                    "solutions differ at ({j},{k})"
                );
            }
        }
    }

    #[test]
    fn fused_cg_halves_reduction_latencies() {
        let (op, b) = crooked_pipe_system(24, 0.04, 1);
        let solve = Solve::on(&op).eps(1e-9);
        let plain = solve.run(&mut b.clone(), &b).unwrap();
        let fused = solve.with_solver("cg_fused").run(&mut b.clone(), &b);
        let fused = fused.expect("cg_fused is registered");

        // plain: 2 reductions/iteration; fused: 1 (of 2 elements)
        let plain_rate = plain.trace.reductions as f64 / plain.iterations as f64;
        let fused_rate = fused.trace.reductions as f64 / fused.iterations as f64;
        assert!(plain_rate > 1.9, "plain CG rate {plain_rate}");
        assert!(fused_rate < 1.1, "fused CG rate {fused_rate}");
        // and it carries 2 scalars per reduction
        assert_eq!(fused.trace.reduction_elements, 2 * fused.trace.reductions);
    }

    #[test]
    fn fused_cg_with_block_jacobi() {
        let n = 24;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let mut u = b.clone();
        let solve = Solve::on(&op).with_solver("cg_fused").eps(1e-9);
        let res = solve.precon(PreconKind::BlockJacobi).run(&mut u, &b);
        assert!(res.expect("cg_fused is registered").converged);
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / b.interior_norm() < 1e-6);
    }

    #[test]
    fn zero_rhs_immediate() {
        let (op, _) = crooked_pipe_system(8, 0.04, 1);
        let zero = Field2D::new(8, 8, 1);
        let mut u = Field2D::new(8, 8, 1);
        let res = Solve::on(&op).with_solver("cg_fused").run(&mut u, &zero);
        let res = res.expect("cg_fused is registered");
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
