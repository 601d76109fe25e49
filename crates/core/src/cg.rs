//! The (preconditioned) Conjugate Gradient solver — the paper's baseline,
//! the eigenvalue-estimation prelude of the Chebyshev family, and, along
//! its precision axis, the `mixed` and `f32` entries of the `cg` family.
//!
//! The recurrence itself is [`pcg_loop`], shared with CPPCG and the AMG
//! baseline; `Cg` plugs in one of three ways to produce `z = M⁻¹r`:
//!
//! * `cg` — `Fused`, three sweeps over the tile per iteration (paper
//!   §III.A): the fused `w = A·p, pw = p·w` sweep (Listing 1) and its
//!   **global reduction**; the fused `u += α p`, `r -= α w`,
//!   `rz = r·M⁻¹r` sweep ([`Preconditioner::cg_update`], upstream's
//!   `cg_calc_ur`) and its **global reduction**; then `p = M⁻¹r + β p`
//!   ([`Preconditioner::cg_direction`]). Inside the loop identity and
//!   diagonal preconditioning never store `z`; block-Jacobi adds its
//!   strip solve and a separate dot. Where `z` is stored — at loop
//!   entry, in the strip solve, in `cg_f32`'s residual replacement — it
//!   goes into `w`'s buffer ([`Krylov::wz`]), whose `A·p` is dead by
//!   then, so CG touches five vectors (`u`, `b`, `p`, `r`, `w`), not
//!   six. Two allreduce latencies per iteration — the strong-scaling
//!   bottleneck the CPPCG solver exists to amortise.
//! * at [`Precision::Mixed`] — the `f64` recurrence around the `f32`
//!   preconditioner round trip (`Lowered`); CG tolerates any fixed SPD
//!   preconditioner, so it still reaches `f64` tolerances.
//! * at [`Precision::F32`] — the same `Fused` step with every vector in
//!   `f32`, plus the round-off `Floor` policy: the honest end of the
//!   precision sweep, stalling near `κ(A)·ε_f32`.
//!
//! Convergence is declared when `√(r·z) <= eps * √(r₀·z₀)` (the
//! reference's criterion; for `M = I` this is the plain relative residual
//! norm).

use crate::api::{
    DynTile, IterativeSolver, Precision, SolveContext, SolverMeta, SolverParams, EIGEN_SAFETY,
};
use crate::control::Probed;
use crate::eigen::{estimate_from_cg, EigenEstimate};
use crate::mixed::{Inner, Low, Lowered};
use crate::precon::{PreconKind, Preconditioner};
use crate::recurrence::{pcg_loop, reduce, Entry, Krylov, Precondition};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use crate::vector;
use std::any::Any;
use tea_comms::Communicator;
use tea_mesh::Field2D;

/// Preconditioned CG as an [`IterativeSolver`] — the paper's baseline
/// Krylov method, at the precision of the registry entry that built it.
/// `prepare` assembles the preconditioner, in that precision, against
/// the current operator.
#[derive(Debug)]
pub(crate) struct Cg {
    name: &'static str,
    kind: PreconKind,
    precision: Precision,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    low: Option<Low<f32>>,
}

impl Cg {
    /// Registry factory: takes its name and precision from `meta` and
    /// consumes [`SolverParams::precon`].
    pub(crate) fn from_params(meta: &SolverMeta, params: &SolverParams) -> Self {
        Cg {
            name: meta.name,
            kind: params.precon,
            precision: meta.precision,
            opts: SolveOpts::default(),
            precon: None,
            low: None,
        }
    }
}

/// A figure-legend label at `precision`: `legend` itself at `f64`,
/// suffixed `-mixed` or `-f32` otherwise (`CG-f32`, `PPCG-4-mixed`).
fn precision_label(legend: String, precision: Precision) -> String {
    match precision {
        Precision::F64 => legend,
        p => format!("{legend}-{p}"),
    }
}

impl IterativeSolver for Cg {
    fn name(&self) -> &'static str {
        self.name
    }

    fn label(&self) -> String {
        precision_label("CG".into(), self.precision)
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        let op = ctx.tile.op;
        match self.precision {
            Precision::F64 => self.precon = Some(Preconditioner::setup(self.kind, op, 0)),
            _ => self.low = Some(Low::assemble(self.kind, op, 0)),
        }
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        let (tile, opts) = (ctx.tile, self.opts);
        let result = match (self.precision, &self.precon, &mut self.low) {
            (Precision::F64, Some(precon), _) => {
                cg_solve_recording(tile, u, b, precon, ws, opts, u64::MAX).0
            }
            (Precision::Mixed, _, Some(low)) => {
                let (mut k, _) = ws.krylov(tile.op, u, b);
                let mut step = Lowered(low, Inner::Precon);
                let entry = Entry::Fresh(SolveTrace::new("CG-mixed"));
                pcg_loop(tile, &mut k, &mut step, entry, opts).0
            }
            (Precision::F32, _, Some(low)) => low.cg_solve(tile, u, b, opts),
            _ => panic!("CG solved before prepare"),
        };
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
    let capped = SolveOpts {
        max_iters: opts.max_iters.min(stop_after),
        ..opts
    };
    let (mut k, _) = ws.krylov(tile.op, u, b);
    let entry = Entry::Fresh(SolveTrace::new(format!("CG/{}", precon_label(precon))));
    let mut step = Fused {
        precon,
        floor: None,
    };
    pcg_loop(tile, &mut k, &mut step, entry, capped)
}

/// The CG presteps → Lanczos → eigenvalue-estimate prelude every
/// Chebyshev-family solve opens with (paper §III.D): runs `presteps`
/// (at least 1, as [`crate::SolverRegistry::create`] enforces) CG
/// iterations, keeping the partial solution, and
/// widens the estimate by [`EIGEN_SAFETY`]. `Err` is a solve the
/// presteps already finished, diverged in, or were cancelled during;
/// `Ok` carries the unfinished result — its trace relabelled `label`
/// and stamped with the estimate — for the method's own loop to pick up.
#[expect(
    clippy::too_many_arguments,
    reason = "the solve's operands plus the prelude's own presteps and label; every Chebyshev-family caller passes them straight through"
)]
pub(crate) fn eigen_prelude<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    ws: &mut Workspace,
    opts: SolveOpts,
    presteps: u64,
    label: &str,
) -> Result<(SolveResult, EigenEstimate), Box<SolveResult>> {
    let (mut pre, coeffs) = cg_solve_recording(tile, u, b, precon, ws, opts, presteps);
    if pre.converged || pre.status.is_diverged() || pre.status.is_cancelled() {
        return Err(Box::new(pre));
    }
    let (al, be) = coeffs.for_lanczos();
    let est = estimate_from_cg(al, be, EIGEN_SAFETY);
    pre.trace.solver = label.to_string();
    pre.trace.eigen_bounds = Some((est.min, est.max));
    Ok((pre, est))
}

/// What the two families that open with [`eigen_prelude`] (CPPCG,
/// Chebyshev) hold in common: the registry entry's name and precision,
/// the parameters they were built from, the latched options and the
/// state assembled against the current operator.
#[derive(Debug)]
pub(crate) struct Family {
    pub name: &'static str,
    pub precision: Precision,
    pub params: SolverParams,
    pub opts: SolveOpts,
    pub precon: Option<Preconditioner>,
    pub low: Option<Low<f32>>,
}

impl Family {
    /// The unassembled state of `meta`'s entry for `params`.
    pub fn new(meta: &SolverMeta, params: &SolverParams) -> Self {
        Family {
            name: meta.name,
            precision: meta.precision,
            params: params.clone(),
            opts: SolveOpts::default(),
            precon: None,
            low: None,
        }
    }
}

/// A method of the eigen-prelude family: its legend and its own loop.
/// Everything else an [`IterativeSolver`] needs — `prepare`, which
/// assembles the preconditioners, and the prelude `solve` opens with —
/// is the one blanket impl below.
pub(crate) trait EigenFamily: Any + Send {
    /// The shared state.
    fn family(&self) -> &Family;
    /// The shared state, mutably.
    fn family_mut(&mut self) -> &mut Family;
    /// Figure-legend label of the `f64` method.
    fn legend(&self) -> String;
    /// Matrix-powers depth: the halo the fields must carry and the
    /// extent the preconditioners are assembled over (`None`: depth-1
    /// exchanges, interior-only sweeps).
    fn matrix_powers(&self) -> Option<usize> {
        None
    }
    /// The method's own loop, picking up the unfinished prelude `pre`
    /// with the spectrum estimate `est`.
    fn run(
        &mut self,
        tile: &DynTile<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        pre: SolveResult,
        est: EigenEstimate,
    ) -> SolveResult;
}

impl<T: EigenFamily> IterativeSolver for T {
    fn name(&self) -> &'static str {
        self.family().name
    }

    fn label(&self) -> String {
        precision_label(self.legend(), self.family().precision)
    }

    fn halo_depth(&self) -> usize {
        self.matrix_powers().unwrap_or(1)
    }

    /// Latches `opts` and assembles the preconditioners over the
    /// matrix-powers extent.
    ///
    /// # Panics
    /// For block-Jacobi at a matrix-powers depth above 1: its strips
    /// need fresh whole blocks (paper §IV.C.2).
    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        let (op, ext) = (ctx.tile.op, self.matrix_powers().unwrap_or(0));
        let family = self.family_mut();
        let kind = family.params.precon;
        let precon = Preconditioner::setup(kind, op, ext);
        assert!(
            precon.supports_extension() || ext <= 1,
            "block-Jacobi cannot be combined with matrix powers (paper §IV.C.2)"
        );
        family.opts = *opts;
        family.precon = Some(precon);
        family.low = (family.precision != Precision::F64).then(|| Low::assemble(kind, op, ext));
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        let (tile, label) = (ctx.tile, self.label());
        let family = self.family();
        let (opts, presteps) = (family.opts, family.params.presteps);
        let precon = family.precon.as_ref().expect("solved before prepare");
        let result = match eigen_prelude(tile, u, b, precon, ws, opts, presteps, &label) {
            Ok((pre, est)) => self.run(tile, u, b, ws, pre, est),
            Err(end) => *end,
        };
        trace.merge(&result.trace);
        result
    }
}

/// Iterations without a ≥0.1% residual improvement before the `f32`
/// recurrence is declared flatlined at its round-off floor.
const F32_STALL_LIMIT: u64 = 100;

/// `cg_f32`'s round-off floor policy: the best recurrence and true
/// residuals seen so far, and how long the former has not improved.
#[derive(Debug)]
pub(crate) struct Floor {
    best: f64,
    best_true: f64,
    stalled: u64,
}

impl Floor {
    pub(crate) const NEW: Floor = Floor {
        best: f64::INFINITY,
        best_true: f64::INFINITY,
        stalled: 0,
    };
}

/// The plain CG instance of [`pcg_loop`]: `z = M⁻¹r` by an assembled
/// [`Preconditioner`], fused into the update and direction sweeps, in
/// whichever precision `S` the [`Krylov`] vectors are. With a [`Floor`]
/// (`cg_f32`) a recurrence residual that claims convergence is confirmed
/// against the true residual, and a flatlined recurrence is stopped.
pub(crate) struct Fused<'a, S: Probed> {
    pub precon: &'a Preconditioner<S>,
    pub floor: Option<Floor>,
}

impl<S: Probed> Precondition<S> for Fused<'_, S> {
    fn apply<C: Communicator + ?Sized>(
        &mut self,
        _tile: &Tile<'_, C>,
        k: &mut Krylov<'_, S>,
        trace: &mut SolveTrace,
    ) {
        self.precon.apply(k.r, k.wz, &k.op.bounds, 0, trace);
    }

    fn update<C: Communicator + ?Sized>(
        &mut self,
        _tile: &Tile<'_, C>,
        k: &mut Krylov<'_, S>,
        alpha: S,
        trace: &mut SolveTrace,
    ) -> S {
        self.precon
            .cg_update(k.u, k.r, alpha, k.p, k.wz, &k.op.bounds, trace)
    }

    fn direction(&mut self, k: &mut Krylov<'_, S>, beta: S, trace: &mut SolveTrace) {
        self.precon
            .cg_direction(k.p, k.r, k.wz, beta, &k.op.bounds, trace);
    }

    fn confirm<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        k: &mut Krylov<'_, S>,
        target: f64,
        run: &mut SolveResult,
    ) -> Option<f64> {
        let Some(floor) = &mut self.floor else {
            run.converge();
            return None;
        };
        // The f32 recurrence residual drifts below the true residual
        // long before convergence (round-off in the u updates), so a
        // recurrence-only test would claim tolerances the solution does
        // not meet. Confirm against the true residual `b − A·u` —
        // classic residual replacement — and restart the direction from
        // it if the claim was premature.
        let bounds = &k.op.bounds;
        tile.exchange(&mut [&mut *k.u], 1, &mut run.trace);
        k.op.residual(k.u, k.b, k.r, 0, &mut run.trace);
        self.precon.apply(k.r, k.wz, bounds, 0, &mut run.trace);
        let rz_true = vector::dot_local(k.r, k.wz, bounds, &mut run.trace);
        let rz_true = reduce(tile, rz_true, &mut run.trace);
        if run.observe(rz_true, target) {
            return None;
        }
        if run.final_residual >= 0.999 * floor.best_true {
            // the true residual is no longer improving: that is the f32
            // round-off floor — report unconverged honestly
            return None;
        }
        // the recurrence restarts from the (much larger) true residual:
        // reset its stall watermark too, or the whole re-descent would
        // count as stalled
        (floor.best_true, floor.best, floor.stalled) = (run.final_residual, run.final_residual, 0);
        vector::copy(k.p, k.wz, bounds, 0, &mut run.trace);
        Some(rz_true)
    }

    fn stalled(&mut self, residual: f64) -> bool {
        let Some(floor) = &mut self.floor else {
            return false;
        };
        if residual < 0.999 * floor.best {
            (floor.best, floor.stalled) = (residual, 0);
        } else {
            floor.stalled += 1;
        }
        floor.stalled >= F32_STALL_LIMIT
    }
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
    use crate::builder::{crooked_pipe_system, Solve};
    use crate::ops::TileOperator;
    use crate::precon::PreconKind;
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::{Decomposition2D, Field2D};

    /// Plain `f64` CG with preconditioner `kind` at the default options.
    fn cg(op: &TileOperator, kind: PreconKind, u: &mut Field2D, b: &Field2D) -> SolveResult {
        Solve::on(op)
            .precon(kind)
            .run(u, b)
            .expect("cg is registered")
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
        let (op, b) = crooked_pipe_system(32, 0.04, 1);
        let mut u = b.clone();
        let res = cg(&op, PreconKind::None, &mut u, &b);
        assert!(res.converged, "CG must converge: {res:?}");
        assert!(res.iterations > 1);
        check_solution(&op, &u, &b, 1e-8);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let (op, b) = crooked_pipe_system(32, 0.04, 1);
        let mut iters = Vec::new();
        for kind in [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ] {
            let mut u = b.clone();
            let res = cg(&op, kind, &mut u, &b);
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
        let (op, _b) = crooked_pipe_system(8, 0.04, 1);
        let zero = Field2D::new(8, 8, 1);
        let mut u = Field2D::new(8, 8, 1);
        let res = cg(&op, PreconKind::None, &mut u, &zero);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(u.interior_norm(), 0.0);
    }

    #[test]
    fn trace_counts_three_sweeps_and_two_reductions_per_iteration() {
        let (op, b) = crooked_pipe_system(16, 0.04, 1);
        // (setup vector sweeps for z and p = z, dot sweeps and precon
        // applications per iteration)
        for (kind, setup_vector, dot, precon) in [
            (PreconKind::None, 2, 0, 0),
            (PreconKind::Diagonal, 2, 0, 1),
            (PreconKind::BlockJacobi, 1, 1, 1),
        ] {
            let res = cg(&op, kind, &mut b.clone(), &b);
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
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
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
        let (op, b0) = crooked_pipe_system(n, 0.002, 1);
        let mut u1 = b0.clone();
        let first = cg(&op, PreconKind::None, &mut u1, &b0);
        assert!(first.converged);

        // second time step: b = u1 (the smoothed temperature)
        let b = u1.clone();
        let warm = cg(&op, PreconKind::None, &mut b.clone(), &b);
        let cold = cg(&op, PreconKind::None, &mut Field2D::new(n, n, 1), &b);

        assert!(warm.converged && cold.converged);
        assert!(
            warm.initial_residual < cold.initial_residual,
            "warm {} vs cold {}",
            warm.initial_residual,
            cold.initial_residual
        );
    }
}
