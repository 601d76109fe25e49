//! The (preconditioned) Conjugate Gradient solver — the paper's baseline
//! and the eigenvalue-estimation prelude for the Chebyshev family.
//!
//! Structure per iteration (paper §III.A) — three sweeps over the tile:
//!
//! 1. depth-1 halo exchange of the search direction `p`;
//! 2. fused `w = A·p, pw = p·w` sweep (Listing 1) + **global reduction**;
//! 3. fused `u += α p`, `r -= α w`, `rz = r·M⁻¹r` sweep
//!    ([`Preconditioner::cg_update`], upstream's `cg_calc_ur`) +
//!    **global reduction**, convergence test;
//! 4. `p = M⁻¹r + β p` ([`Preconditioner::cg_direction`]).
//!
//! Identity and diagonal preconditioning never store `z = M⁻¹r`;
//! block-Jacobi adds its strip solve and a separate dot to step 3.
//! Two allreduce latencies per iteration — the strong-scaling bottleneck
//! the CPPCG solver exists to amortise.
//!
//! Convergence is declared when `√(r·z) <= eps * √(r₀·z₀)` (the
//! reference's criterion; for `M = I` this is the plain relative residual
//! norm).

use crate::api::{IterativeSolver, SolveContext, SolverParams};
use crate::precon::{PreconKind, Preconditioner};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveStatus, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::Field2D;

/// Preconditioned CG as an [`IterativeSolver`] — the paper's baseline
/// Krylov method. Carries its preconditioner kind; `prepare` assembles
/// the preconditioner against the current operator.
#[derive(Debug, Clone, Default)]
pub struct Cg {
    kind: PreconKind,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
}

impl Cg {
    /// A CG solver using preconditioner `kind`.
    pub fn new(kind: PreconKind) -> Self {
        Cg {
            kind,
            opts: SolveOpts::default(),
            precon: None,
        }
    }

    /// Registry factory: consumes [`SolverParams::precon`].
    pub fn from_params(params: &SolverParams) -> Self {
        Cg::new(params.precon)
    }
}

impl Cg {
    /// The one place the preconditioner is assembled for this solver
    /// (used by both `prepare` and the prepare-on-demand path).
    fn assemble_precon(&self, ctx: &SolveContext<'_>) -> Preconditioner {
        Preconditioner::setup(self.kind, ctx.tile.op, 0)
    }
}

impl IterativeSolver for Cg {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn label(&self) -> String {
        "CG".into()
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
        let result = cg_solve_impl(ctx.tile, u, b, precon, ws, self.opts);
        trace.merge(&result.trace);
        result
    }
}

/// CG coefficients recorded for Lanczos eigenvalue estimation.
#[derive(Debug, Clone, Default)]
pub struct CgCoefficients {
    /// Step sizes `α_i`.
    pub alphas: Vec<f64>,
    /// Residual ratios `β_i` (one fewer than `alphas`).
    pub betas: Vec<f64>,
}

impl CgCoefficients {
    /// Slices `(alphas, betas)` consistently for
    /// [`crate::eigen::lanczos_tridiagonal`] even if the run stopped
    /// after computing a trailing β.
    pub fn for_lanczos(&self) -> (&[f64], &[f64]) {
        let m = self.alphas.len();
        if self.betas.len() >= m {
            (&self.alphas, &self.betas[..m - 1])
        } else {
            (&self.alphas, &self.betas)
        }
    }
}

pub(crate) fn cg_solve_impl<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    ws: &mut Workspace,
    opts: SolveOpts,
) -> SolveResult {
    let (result, _coeffs) = cg_solve_recording(tile, u, b, precon, ws, opts, u64::MAX);
    result
}

/// CG with recorded `α`/`β` coefficients, optionally stopping after
/// `stop_after` iterations even if unconverged (the eigenvalue-estimation
/// presteps of Chebyshev/CPPCG, which keep the partial solution).
pub fn cg_solve_recording<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    ws: &mut Workspace,
    opts: SolveOpts,
    stop_after: u64,
) -> (SolveResult, CgCoefficients) {
    let mut trace = SolveTrace::new(format!("CG/{}", precon_label(precon)));
    let bounds = &tile.op.bounds;
    let mut coeffs = CgCoefficients::default();

    // r = b - A u (u needs one fresh ghost layer for the stencil)
    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

    // z = M^{-1} r ; p = z
    precon.apply(&ws.r, &mut ws.z, bounds, 0, &mut trace);
    vector::copy(&mut ws.p, &ws.z, bounds, 0, &mut trace);

    let rz_local = vector::dot_local(&ws.r, &ws.z, bounds, &mut trace);
    let mut rro = tile.reduce_sum(rz_local, &mut trace);
    let initial_residual = match SolveResult::start(rro, &trace) {
        Ok(norm) => norm,
        Err(end) => return (*end, coeffs),
    };
    let target = opts.eps * initial_residual;

    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = initial_residual;
    let mut iterations = 0;
    let cap = opts.max_iters.min(stop_after);

    while iterations < cap {
        if tile.controls.should_stop() {
            status = SolveStatus::Cancelled {
                iteration: iterations,
            };
            break;
        }
        iterations += 1;
        trace.outer_iterations += 1;
        tile.controls.poke(iterations, u, &mut ws.r);

        tile.exchange(&mut [&mut ws.p], 1, &mut trace);
        let pw_local = tile.op.apply_fused_dot(&ws.p, &mut ws.w, &mut trace);
        let pw = tile.reduce_sum(pw_local, &mut trace);
        if !pw.is_finite() || pw <= 0.0 {
            // <p, Ap> lost positivity or went non-finite: the recurrence
            // cannot recover, so stop burning iterations
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            break;
        }
        let alpha = rro / pw;
        coeffs.alphas.push(alpha);

        let (r, z) = (&mut ws.r, &mut ws.z);
        let rz_local = precon.cg_update(u, r, z, alpha, &ws.p, &ws.w, bounds, &mut trace);
        let rrn = tile.reduce_sum(rz_local, &mut trace);
        if !rrn.is_finite() {
            // check before the NaN-swallowing max(0.0) below — a NaN
            // reduction must read as divergence, not convergence
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            break;
        }

        final_residual = rrn.max(0.0).sqrt();
        if final_residual <= target {
            converged = true;
            status = SolveStatus::Converged;
            break;
        }

        let beta = rrn / rro;
        coeffs.betas.push(beta);
        precon.cg_direction(&mut ws.p, &ws.r, &ws.z, beta, bounds, &mut trace);
        rro = rrn;
    }

    (
        SolveResult {
            converged,
            iterations,
            initial_residual,
            final_residual,
            status,
            trace,
        },
        coeffs,
    )
}

fn precon_label(p: &Preconditioner) -> &'static str {
    match p {
        Preconditioner::Identity => "none",
        Preconditioner::Diagonal { .. } => "jac_diag",
        Preconditioner::BlockJacobi(_) => "jac_block",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{TileBounds, TileOperator};
    use crate::precon::PreconKind;
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::{
        crooked_pipe, timestep_scalings, Coefficients, Decomposition2D, Field2D, Mesh2D,
    };

    pub(crate) fn serial_problem(n: usize, halo: usize) -> (TileOperator, Field2D) {
        serial_problem_dt(n, halo, 0.04)
    }

    fn serial_problem_dt(n: usize, halo: usize, dt: f64) -> (TileOperator, Field2D) {
        let p = crooked_pipe(n);
        let mesh = Mesh2D::serial(n, n, p.extent);
        let mut density = Field2D::new(n, n, halo);
        let mut energy = Field2D::new(n, n, halo);
        p.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, dt);
        let coeffs = Coefficients::assemble(&mesh, &density, p.coefficient, rx, ry, halo);
        let op = TileOperator::new(coeffs, TileBounds::serial(n, n));
        // b = u0 = density * energy, the TeaLeaf right-hand side
        let mut b = Field2D::new(n, n, halo);
        for k in 0..n as isize {
            for j in 0..n as isize {
                b.set(j, k, density.at(j, k) * energy.at(j, k));
            }
        }
        (op, b)
    }

    fn check_solution(op: &TileOperator, u: &Field2D, b: &Field2D, tol: f64) {
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(u.nx(), u.ny(), u.halo());
        op.residual(u, b, &mut r, 0, &mut t);
        let rel = r.interior_norm() / b.interior_norm();
        assert!(rel <= tol, "residual too large: {rel}");
    }

    #[test]
    fn cg_converges_on_crooked_pipe() {
        let n = 32;
        let (op, b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let m = Preconditioner::setup(PreconKind::None, &op, 0);
        let res = cg_solve_impl(&tile, &mut u, &b, &m, &mut ws, SolveOpts::default());
        assert!(res.converged, "CG must converge: {res:?}");
        assert!(res.iterations > 1);
        check_solution(&op, &u, &b, 1e-8);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let n = 32;
        let (op, b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut iters = Vec::new();
        for kind in [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ] {
            let m = Preconditioner::setup(kind, &op, 0);
            let mut ws = Workspace::new(n, n, 1);
            let mut u = b.clone();
            let res = cg_solve_impl(&tile, &mut u, &b, &m, &mut ws, SolveOpts::default());
            assert!(res.converged, "{kind:?} failed");
            check_solution(&op, &u, &b, 1e-8);
            iters.push(res.iterations);
        }
        // block-Jacobi must beat plain CG on the contrasty crooked pipe
        assert!(
            iters[2] <= iters[0],
            "block-Jacobi ({}) should not exceed plain CG ({})",
            iters[2],
            iters[0]
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let n = 8;
        let (op, _b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, 1);
        let zero = Field2D::new(n, n, 1);
        let mut u = Field2D::new(n, n, 1);
        let m = Preconditioner::setup(PreconKind::None, &op, 0);
        let res = cg_solve_impl(&tile, &mut u, &zero, &m, &mut ws, SolveOpts::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(u.interior_norm(), 0.0);
    }

    #[test]
    fn trace_counts_three_sweeps_and_two_reductions_per_iteration() {
        let n = 16;
        let (op, b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        // (setup vector sweeps for z and p = z, dot sweeps and precon
        // applications per iteration)
        for (kind, setup_vector, dot, precon) in [
            (PreconKind::None, 2, 0, 0),
            (PreconKind::Diagonal, 2, 0, 1),
            (PreconKind::BlockJacobi, 1, 1, 1),
        ] {
            let mut ws = Workspace::new(n, n, 1);
            let mut u = b.clone();
            let m = Preconditioner::setup(kind, &op, 0);
            let res = cg_solve_impl(&tile, &mut u, &b, &m, &mut ws, SolveOpts::default());
            let (t, its) = (&res.trace, res.iterations);
            // initial rz + 2 per iteration
            assert_eq!(t.reductions, 1 + 2 * its, "{kind:?}");
            // one depth-1 exchange for u plus one per iteration for p
            assert_eq!(t.halo_exchanges[&(1, 1)], 1 + its, "{kind:?}");
            // one residual + one fused spmv per iteration, all interior
            assert_eq!(t.spmv.total(), 1 + its, "{kind:?}");
            assert_eq!(t.spmv.interior_only(), t.spmv.total());
            // the fused update (two axpy-class streams) + the direction
            // sweep; the converging iteration stops before its direction
            assert!(res.converged);
            assert_eq!(t.vector_ops.total(), setup_vector + 3 * its - 1, "{kind:?}");
            // r·z rides in the fused update; only the strip solve still
            // pays a dot sweep (plus the setup one)
            assert_eq!(t.dot_kernels.total(), 1 + dot * its, "{kind:?}");
            assert_eq!(t.precon_ops.total(), precon * (1 + its), "{kind:?}");
        }
    }

    #[test]
    fn recorded_coefficients_estimate_spectrum() {
        use crate::eigen::estimate_from_cg;
        let n = 24;
        let (op, b) = serial_problem(n, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let m = Preconditioner::setup(PreconKind::None, &op, 0);
        let (res, coeffs) =
            cg_solve_recording(&tile, &mut u, &b, &m, &mut ws, SolveOpts::default(), 25);
        assert_eq!(res.iterations, 25, "presteps must stop early");
        assert!(!res.converged);
        let (a, be) = coeffs.for_lanczos();
        let est = estimate_from_cg(a, be, 0.0);
        // the operator is I + (SPD stencil): spectrum within (1-eps, 1+8*kmax]
        assert!(est.min >= 0.5, "lambda_min estimate {}", est.min);
        assert!(est.max > est.min);
        assert!(est.max < 100.0, "lambda_max estimate {}", est.max);
    }

    #[test]
    fn warm_start_beats_zero_start() {
        // with a diffusion-limited step (small dt) the previous
        // temperature is near the solution, so the TeaLeaf warm start
        // (u = b = u_old) must start far closer than zero
        let n = 24;
        let (op, b0) = serial_problem_dt(n, 1, 0.002);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let m = Preconditioner::setup(PreconKind::None, &op, 0);

        let mut ws = Workspace::new(n, n, 1);
        let mut u1 = b0.clone();
        let first = cg_solve_impl(&tile, &mut u1, &b0, &m, &mut ws, SolveOpts::default());
        assert!(first.converged);

        // second time step: b = u1 (the smoothed temperature)
        let b = u1.clone();
        let mut u_warm = b.clone();
        let warm = cg_solve_impl(&tile, &mut u_warm, &b, &m, &mut ws, SolveOpts::default());

        let mut u_cold = Field2D::new(n, n, 1);
        let cold = cg_solve_impl(&tile, &mut u_cold, &b, &m, &mut ws, SolveOpts::default());

        assert!(warm.converged && cold.converged);
        assert!(
            warm.initial_residual < cold.initial_residual,
            "warm {} vs cold {}",
            warm.initial_residual,
            cold.initial_residual
        );
    }
}
