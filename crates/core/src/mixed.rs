//! Mixed- and reduced-precision solvers: precision as a design-space
//! axis.
//!
//! TeaLeaf's kernels are memory-bandwidth bound, so halving the bytes
//! per value is the single biggest per-node lever on modern hardware.
//! This module instantiates the generic [`Scalar`] kernels at `f32` in
//! three registered methods:
//!
//! * [`MixedCg`] (`"mixed_cg"`) — classic iterative-refinement-flavoured
//!   PCG: the outer recurrence, every dot product and the convergence
//!   test stay in `f64`, while the preconditioner is assembled from the
//!   demoted (`f32`) operator and applied to demoted residuals. The
//!   preconditioner only has to be *some* fixed SPD operator for CG to
//!   converge, so the solve still reaches full `f64` tolerances.
//! * [`MixedPpcg`] (`"mixed_ppcg"`) — CPPCG whose entire inner
//!   `m`-step Chebyshev smoothing (the dominant flop/byte cost) runs in
//!   `f32`, including the matrix-powers deep-halo schedule; the outer
//!   PCG recurrence stays in `f64`. The inner solve is a polynomial
//!   preconditioner, so the same argument applies.
//! * [`CgF32`] (`"cg_f32"`) — every kernel in `f32`, for the honest
//!   end of the precision sweep: it demonstrates *why* mixed precision
//!   exists, stalling at the `f32` round-off floor instead of reaching
//!   `f64` tolerances (a stagnation guard stops it burning iterations
//!   once it flatlines).
//!
//! Halo exchanges are **precision-native**: the `tea-comms` wire format
//! is generic over the field scalar, so every `f32` field here
//! exchanges 4-byte elements directly — half the message volume of the
//! `f64` solvers, with no conversion staging on either side.
//! [`solver_for_precision`] maps a `(solver, precision)` request from
//! the deck/CLI/builder onto the registered variant.

use crate::api::{IterativeSolver, Precision, SolveContext, SolverError, SolverParams};
use crate::cg::cg_solve_recording;
use crate::chebyshev::ChebyConstants;
use crate::eigen::{estimate_from_cg, EigenEstimate};
use crate::ops::{TileBounds, TileOperator};
use crate::ppcg::PpcgOpts;
use crate::precon::{PreconKind, Preconditioner};
use crate::registry::SolverRegistry;
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveStatus, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::{Field2D, Field2F, Scalar};

/// Maps a `(solver, precision)` request onto the registered solver that
/// implements it — the one rule behind the deck's `tl_precision`, the
/// CLI's `--precision` and [`crate::Solve::precision`].
///
/// A solver whose [`crate::SolverMeta::precision`] already matches is
/// returned unchanged; otherwise the request is re-routed within the
/// method family (`cg`/`cg_fused` ↔ `mixed_cg`/`cg_f32`, `ppcg` ↔
/// `mixed_ppcg`), and `Precision::F64` demotes a reduced-precision name
/// back to its `f64` family solver.
///
/// # Errors
/// [`SolverError::UnknownSolver`] for an unregistered name, and
/// [`SolverError::PrecisionUnsupported`] when no variant exists — in
/// particular for serial-only baselines like `amg`.
pub fn solver_for_precision(
    name: &str,
    precision: Precision,
    registry: &SolverRegistry,
) -> Result<String, SolverError> {
    let meta = *registry.resolve(name)?;
    if meta.precision == precision {
        return Ok(meta.name.to_string());
    }
    if meta.serial_only {
        return Err(SolverError::PrecisionUnsupported {
            solver: meta.name.to_string(),
            precision,
            reason: format!(
                "'{}' is a serial-only f64 baseline; run it without a precision override",
                meta.name
            ),
        });
    }
    let family = match meta.name {
        "mixed_cg" | "cg_f32" => "cg",
        "mixed_ppcg" => "ppcg",
        "mixed_chebyshev" => "chebyshev",
        "mixed_richardson" => "richardson",
        other => other,
    };
    let target = match (family, precision) {
        (_, Precision::F64) => Some(family),
        ("cg" | "cg_fused", Precision::Mixed) => Some("mixed_cg"),
        ("ppcg", Precision::Mixed) => Some("mixed_ppcg"),
        ("chebyshev", Precision::Mixed) => Some("mixed_chebyshev"),
        ("richardson", Precision::Mixed) => Some("mixed_richardson"),
        ("cg" | "cg_fused", Precision::F32) => Some("cg_f32"),
        _ => None,
    };
    match target {
        Some(t) => Ok(registry.resolve(t)?.name.to_string()),
        None => Err(SolverError::PrecisionUnsupported {
            solver: meta.name.to_string(),
            precision,
            reason: format!(
                "no {} variant of '{}' is registered (variants cover the cg, cg_fused, \
                 ppcg, chebyshev and richardson families)",
                precision.label(),
                meta.name
            ),
        }),
    }
}

/// Reusable `f32` demotion scratch for the preconditioner round trip.
#[derive(Debug, Clone)]
struct DemoteScratch {
    r32: Field2F,
    z32: Field2F,
}

impl DemoteScratch {
    fn matching(f: &Field2D) -> Self {
        let make = || Field2F::new(f.nx(), f.ny(), f.halo());
        DemoteScratch {
            r32: make(),
            z32: make(),
        }
    }

    fn fits(&self, f: &Field2D) -> bool {
        self.r32.nx() == f.nx() && self.r32.ny() == f.ny() && self.r32.halo() == f.halo()
    }
}

/// `z = M₃₂⁻¹ r` through the `f32` round trip: demote `r`, apply the
/// single-precision preconditioner, promote the result. The two
/// conversion sweeps are recorded as vector ops so traces stay honest
/// about the extra memory traffic.
fn apply_precon_demoted(
    precon32: &Preconditioner<f32>,
    r: &Field2D,
    z: &mut Field2D,
    s: &mut DemoteScratch,
    bounds: &TileBounds,
    trace: &mut SolveTrace,
) {
    trace.vector_ops.record(0);
    r.convert_into(&mut s.r32);
    precon32.apply(&s.r32, &mut s.z32, bounds, 0, trace);
    trace.vector_ops.record(0);
    s.z32.convert_into(z);
}

/// PCG with an `f32` preconditioner inside an `f64` outer recurrence —
/// the `"mixed_cg"` registry entry.
///
/// Per iteration the demote/apply/promote round trip replaces the `f64`
/// preconditioner apply; everything else (halo exchange, fused
/// `w = A·p` sweep, dot products, vector updates, convergence test) is
/// bit-for-bit the plain [`crate::Cg`] protocol. Because CG tolerates
/// any fixed SPD preconditioner, the method converges to the same
/// `tl_eps` tolerance as full `f64` CG.
#[derive(Debug, Clone, Default)]
pub struct MixedCg {
    kind: PreconKind,
    opts: SolveOpts,
    precon32: Option<Preconditioner<f32>>,
    scratch: Option<DemoteScratch>,
}

impl MixedCg {
    /// A mixed-precision CG using preconditioner `kind` (applied in
    /// `f32`).
    pub fn new(kind: PreconKind) -> Self {
        MixedCg {
            kind,
            opts: SolveOpts::default(),
            precon32: None,
            scratch: None,
        }
    }

    /// Registry factory: consumes [`SolverParams::precon`].
    pub fn from_params(params: &SolverParams) -> Self {
        MixedCg::new(params.precon)
    }

    fn assemble_precon(&self, ctx: &SolveContext<'_>) -> Preconditioner<f32> {
        let op32: TileOperator<f32> = ctx.tile.op.convert();
        Preconditioner::setup(self.kind, &op32, 0)
    }
}

impl IterativeSolver for MixedCg {
    fn name(&self) -> &'static str {
        "mixed_cg"
    }

    fn label(&self) -> String {
        "CG-mixed".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.precon32 = Some(self.assemble_precon(ctx));
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if self.precon32.is_none() {
            self.precon32 = Some(self.assemble_precon(ctx));
        }
        if !self.scratch.as_ref().is_some_and(|s| s.fits(&ws.r)) {
            self.scratch = Some(DemoteScratch::matching(&ws.r));
        }
        let precon32 = self.precon32.as_ref().expect("just prepared");
        let scratch = self.scratch.as_mut().expect("just sized");
        let result = mixed_cg_solve(ctx.tile, u, b, precon32, scratch, ws, self.opts);
        trace.merge(&result.trace);
        result
    }
}

fn mixed_cg_solve<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon32: &Preconditioner<f32>,
    scratch: &mut DemoteScratch,
    ws: &mut Workspace,
    opts: SolveOpts,
) -> SolveResult {
    let mut trace = SolveTrace::new("CG-mixed");
    let bounds = &tile.op.bounds;

    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

    apply_precon_demoted(precon32, &ws.r, &mut ws.z, scratch, bounds, &mut trace);
    vector::copy(&mut ws.p, &ws.z, bounds, 0, &mut trace);

    let rz_local = vector::dot_local(&ws.r, &ws.z, bounds, &mut trace);
    let mut rro = tile.reduce_sum(rz_local, &mut trace);
    let initial_residual = match SolveResult::start(rro, &trace) {
        Ok(norm) => norm,
        Err(end) => return *end,
    };
    let target = opts.eps * initial_residual;

    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = initial_residual;
    let mut iterations = 0;

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

        tile.exchange(&mut [&mut ws.p], 1, &mut trace);
        let pw_local = tile.op.apply_fused_dot(&ws.p, &mut ws.w, &mut trace);
        let pw = tile.reduce_sum(pw_local, &mut trace);
        if !pw.is_finite() || pw <= 0.0 {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        let alpha = rro / pw;

        // fused u/r sweep; its f64 r·r is unused — z comes from the f32
        // round trip, so r·z stays a separate dot
        vector::cg_update(u, &mut ws.r, alpha, &ws.p, &ws.w, None, bounds, &mut trace);
        apply_precon_demoted(precon32, &ws.r, &mut ws.z, scratch, bounds, &mut trace);
        let rz_local = vector::dot_local(&ws.r, &ws.z, bounds, &mut trace);
        let rrn = tile.reduce_sum(rz_local, &mut trace);

        if !rrn.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        final_residual = rrn.max(0.0).sqrt();
        if final_residual <= target {
            converged = true;
            status = SolveStatus::Converged;
            break;
        }
        if rrn <= 0.0 {
            // f32 rounding floor: <r, z> lost positivity before the
            // target — stop honestly instead of dividing by it
            break;
        }

        let beta = rrn / rro;
        vector::xpay(&mut ws.p, &ws.z, beta, bounds, 0, &mut trace);
        rro = rrn;
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

/// The `f32` working set of the mixed PPCG inner smoothing.
#[derive(Debug, Clone)]
struct InnerWs32 {
    z: Field2F,
    rr: Field2F,
    sd: Field2F,
    w: Field2F,
    tmp: Field2F,
}

impl InnerWs32 {
    fn matching(f: &Field2D) -> Self {
        let make = || Field2F::new(f.nx(), f.ny(), f.halo());
        InnerWs32 {
            z: make(),
            rr: make(),
            sd: make(),
            w: make(),
            tmp: make(),
        }
    }

    fn fits(&self, f: &Field2D) -> bool {
        self.z.nx() == f.nx() && self.z.ny() == f.ny() && self.z.halo() == f.halo()
    }
}

/// CPPCG with the inner Chebyshev smoothing in `f32` — the
/// `"mixed_ppcg"` registry entry.
///
/// The `m`-step inner solve dominates CPPCG's per-iteration cost
/// (`m + 1` stencil sweeps per outer iteration); running it in `f32`
/// halves its memory traffic while the outer PCG recurrence, both dot
/// products and the convergence test stay in `f64`. The matrix-powers
/// deep-halo schedule is preserved, and its exchanges move native
/// `f32` payloads — half the deep-halo message bytes of plain PPCG.
/// The CG presteps and their Lanczos eigenvalue estimate run in `f64`;
/// the safety widening absorbs the (tiny) spectral difference between
/// the `f64` and demoted operators.
#[derive(Debug, Clone, Default)]
pub struct MixedPpcg {
    kind: PreconKind,
    ppcg: PpcgOpts,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    op32: Option<TileOperator<f32>>,
    precon32: Option<Preconditioner<f32>>,
    inner32: Option<InnerWs32>,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl MixedPpcg {
    /// A mixed-precision CPPCG with preconditioner `kind` and
    /// configuration `ppcg`.
    pub fn new(kind: PreconKind, ppcg: PpcgOpts) -> Self {
        MixedPpcg {
            kind,
            ppcg,
            opts: SolveOpts::default(),
            precon: None,
            op32: None,
            precon32: None,
            inner32: None,
            hint: None,
            last_est: None,
        }
    }

    /// Registry factory: consumes `precon`, `inner_steps`, `halo_depth`,
    /// `presteps` and `eigen_safety`.
    pub fn from_params(params: &SolverParams) -> Self {
        MixedPpcg::new(
            params.precon,
            PpcgOpts {
                inner_steps: params.inner_steps,
                halo_depth: params.halo_depth,
                presteps: params.presteps,
                eigen_safety: params.eigen_safety,
            },
        )
    }

    fn assemble(&mut self, ctx: &SolveContext<'_>) {
        let op32: TileOperator<f32> = ctx.tile.op.convert();
        self.precon = Some(Preconditioner::setup(
            self.kind,
            ctx.tile.op,
            self.ppcg.halo_depth,
        ));
        self.precon32 = Some(Preconditioner::setup(
            self.kind,
            &op32,
            self.ppcg.halo_depth,
        ));
        self.op32 = Some(op32);
    }
}

impl IterativeSolver for MixedPpcg {
    fn name(&self) -> &'static str {
        "mixed_ppcg"
    }

    fn label(&self) -> String {
        format!("PPCG-{}-mixed", self.ppcg.halo_depth)
    }

    fn halo_depth(&self) -> usize {
        self.ppcg.halo_depth.max(1)
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.assemble(ctx);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if self.op32.is_none() {
            self.assemble(ctx);
        }
        if !self.inner32.as_ref().is_some_and(|s| s.fits(&ws.r)) {
            self.inner32 = Some(InnerWs32::matching(&ws.r));
        }
        let label = self.label();
        let result = mixed_ppcg_solve(
            ctx.tile,
            u,
            b,
            self.precon.as_ref().expect("just prepared"),
            self.op32.as_ref().expect("just prepared"),
            self.precon32.as_ref().expect("just prepared"),
            self.inner32.as_mut().expect("just sized"),
            ws,
            self.opts,
            self.ppcg,
            &label,
            self.hint,
        );
        self.last_est = result
            .trace
            .eigen_bounds
            .map(|(min, max)| EigenEstimate { min, max });
        trace.merge(&result.trace);
        result
    }

    fn set_eigen_hint(&mut self, hint: Option<EigenEstimate>) {
        self.hint = hint;
    }

    fn last_eigen_estimate(&self) -> Option<EigenEstimate> {
        self.last_est
    }
}

#[allow(clippy::too_many_arguments)]
fn mixed_ppcg_solve<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    op32: &TileOperator<f32>,
    precon32: &Preconditioner<f32>,
    inner32: &mut InnerWs32,
    ws: &mut Workspace,
    opts: SolveOpts,
    ppcg: PpcgOpts,
    label: &str,
    hint: Option<EigenEstimate>,
) -> SolveResult {
    let h = ppcg.halo_depth;
    let m = ppcg.inner_steps;
    assert!(h >= 1, "matrix-powers depth must be at least 1");
    assert!(m >= 1, "need at least one inner step");
    assert!(
        ws.halo() >= h,
        "workspace halo {} shallower than matrix-powers depth {h}",
        ws.halo()
    );
    assert!(
        precon.supports_extension() || h == 1,
        "block-Jacobi cannot be combined with matrix powers (paper §IV.C.2)"
    );
    let bounds = &tile.op.bounds;

    // Phase 1: f64 plain-CG presteps for the spectrum of M⁻¹A.
    let (pre, coeffs) = cg_solve_recording(tile, u, b, precon, ws, opts, ppcg.presteps.max(1));
    if pre.converged || pre.status.is_diverged() || pre.status.is_cancelled() {
        return pre;
    }
    let mut trace = pre.trace;
    trace.solver = label.to_string();
    // a pinned estimate (session replay of identical input) skips only
    // the Lanczos analysis; the presteps above still advanced u
    let est: EigenEstimate = hint.unwrap_or_else(|| {
        let (al, be) = coeffs.for_lanczos();
        estimate_from_cg(al, be, ppcg.eigen_safety)
    });
    trace.eigen_bounds = Some((est.min, est.max));
    let consts = ChebyConstants::from_estimate(est);
    let cheb = consts.coefficients(m);

    // Phase 2: f64 outer PCG with the f32 m-step Chebyshev inner solve.
    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

    cheb_inner_f32(
        tile, op32, precon32, ws, inner32, &consts, &cheb, h, &mut trace,
    );
    trace.inner_iterations += m as u64;
    vector::copy(&mut ws.p, &ws.z, bounds, 0, &mut trace);

    let rz_local = vector::dot_local(&ws.r, &ws.z, bounds, &mut trace);
    let mut rro = tile.reduce_sum(rz_local, &mut trace);
    let initial_residual = pre.initial_residual;
    let target = opts.eps * initial_residual;

    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = pre.final_residual;
    let mut iterations = pre.iterations;

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

        tile.exchange(&mut [&mut ws.p], 1, &mut trace);
        let pw_local = tile.op.apply_fused_dot(&ws.p, &mut ws.w, &mut trace);
        let pw = tile.reduce_sum(pw_local, &mut trace);
        if !pw.is_finite() || pw <= 0.0 {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        let alpha = rro / pw;

        vector::axpy(u, alpha, &ws.p, bounds, 0, &mut trace);
        vector::axpy(&mut ws.r, -alpha, &ws.w, bounds, 0, &mut trace);

        cheb_inner_f32(
            tile, op32, precon32, ws, inner32, &consts, &cheb, h, &mut trace,
        );
        trace.inner_iterations += m as u64;

        let rz_local = vector::dot_local(&ws.r, &ws.z, bounds, &mut trace);
        let rrn = tile.reduce_sum(rz_local, &mut trace);
        if !rrn.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        final_residual = rrn.max(0.0).sqrt();
        if final_residual <= target {
            converged = true;
            status = SolveStatus::Converged;
            break;
        }
        if rrn <= 0.0 {
            break;
        }
        let beta = rrn / rro;
        vector::xpay(&mut ws.p, &ws.z, beta, bounds, 0, &mut trace);
        rro = rrn;
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

/// The inner m-step Chebyshev solve of `A z ≈ r` from `z = 0`, entirely
/// in `f32`, with the matrix-powers deep-halo schedule. Mirrors
/// `ppcg::cheb_inner` step for step; halo exchanges move native `f32`
/// payloads, so the only extra traffic is the demote of the outer
/// residual on entry and the promote of `z` on exit (both recorded as
/// vector ops).
#[allow(clippy::too_many_arguments)]
fn cheb_inner_f32<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    op32: &TileOperator<f32>,
    precon32: &Preconditioner<f32>,
    ws: &mut Workspace,
    f: &mut InnerWs32,
    consts: &ChebyConstants,
    cheb: &[(f64, f64)],
    h: usize,
    trace: &mut SolveTrace,
) {
    let bounds = &op32.bounds;
    let m = cheb.len();
    vector::zero(&mut f.z, bounds, h, trace);
    trace.vector_ops.record(0);
    ws.r.convert_into(&mut f.rr);
    let inv_theta = f32::from_f64(1.0 / consts.theta);

    if h == 1 {
        // Classic depth-1 schedule: interior-only updates, one exchange
        // per inner step, block-Jacobi allowed. Fused like
        // `ppcg::cheb_inner`: stencil + z/rr updates in one pass, then
        // the preconditioned sd recurrence (unfused only for
        // block-Jacobi strip solves).
        precon32.apply(&f.rr, &mut f.tmp, bounds, 0, trace);
        vector::scaled_copy(&mut f.sd, &f.tmp, inv_theta, bounds, 0, trace);
        for &(a_k, b_k) in cheb {
            tile.exchange(&mut [&mut f.sd], 1, trace);
            op32.apply_cheb_fused(&f.sd, &mut f.z, &mut f.rr, 0, trace);
            let (a32, b32) = (f32::from_f64(a_k), f32::from_f64(b_k));
            if !precon32.fused_recurrence(&mut f.sd, &f.rr, a32, b32, bounds, 0, trace) {
                precon32.apply(&f.rr, &mut f.tmp, bounds, 0, trace);
                vector::scale_add(&mut f.sd, a32, b32, &f.tmp, bounds, 0, trace);
            }
        }
    } else {
        // Matrix-powers schedule: one depth-h exchange buys h sweeps
        // over shrinking bounds (paper Fig. 2), each depth level fused
        // (block-Jacobi never reaches this branch).
        tile.exchange(&mut [&mut f.rr], h, trace);
        let mut avail = h;
        precon32.apply(&f.rr, &mut f.tmp, bounds, avail, trace);
        vector::scaled_copy(&mut f.sd, &f.tmp, inv_theta, bounds, avail, trace);

        for (step, &(a_k, b_k)) in cheb.iter().enumerate() {
            if avail == 0 {
                tile.exchange(&mut [&mut f.sd, &mut f.rr], h, trace);
                avail = h;
            }
            // never sweep wider than the remaining steps can use
            let e = (avail - 1).min(m - 1 - step);
            op32.apply_cheb_fused(&f.sd, &mut f.z, &mut f.rr, e, trace);
            let (a32, b32) = (f32::from_f64(a_k), f32::from_f64(b_k));
            if !precon32.fused_recurrence(&mut f.sd, &f.rr, a32, b32, bounds, e, trace) {
                precon32.apply(&f.rr, &mut f.tmp, bounds, e, trace);
                vector::scale_add(&mut f.sd, a32, b32, &f.tmp, bounds, e, trace);
            }
            avail = e;
        }
    }

    trace.vector_ops.record(0);
    f.z.convert_into(&mut ws.z);
}

/// The inner m-step damped Richardson solve of `A z ≈ r` from `z = 0`,
/// entirely in `f32`: `z += ω M⁻¹ r̃` with the inner residual `r̃`
/// maintained incrementally (`r̃ −= A·(ω M⁻¹ r̃)`), mirroring the
/// depth-1 schedule of [`cheb_inner_f32`] with the Chebyshev recurrence
/// replaced by the fixed Chebyshev-optimal damping.
#[allow(clippy::too_many_arguments)]
fn rich_inner_f32<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    op32: &TileOperator<f32>,
    precon32: &Preconditioner<f32>,
    ws: &mut Workspace,
    f: &mut InnerWs32,
    omega: f64,
    m: usize,
    trace: &mut SolveTrace,
) {
    let bounds = &op32.bounds;
    vector::zero(&mut f.z, bounds, 1, trace);
    trace.vector_ops.record(0);
    ws.r.convert_into(&mut f.rr);
    let omega32 = f32::from_f64(omega);

    for _ in 0..m {
        precon32.apply(&f.rr, &mut f.tmp, bounds, 0, trace);
        vector::scaled_copy(&mut f.sd, &f.tmp, omega32, bounds, 0, trace);
        tile.exchange(&mut [&mut f.sd], 1, trace);
        op32.apply(&f.sd, &mut f.w, 0, trace);
        vector::axpy(&mut f.z, 1.0f32, &f.sd, bounds, 0, trace);
        vector::axpy(&mut f.rr, -1.0f32, &f.w, bounds, 0, trace);
    }

    trace.vector_ops.record(0);
    f.z.convert_into(&mut ws.z);
}

/// Which `f32` acceleration runs inside the shared mixed refinement
/// outer loop of [`mixed_accel_solve`].
#[derive(Debug, Clone, Copy)]
enum InnerAccel {
    Chebyshev,
    Richardson,
}

/// The shared engine behind [`MixedChebyshev`] and [`MixedRichardson`]:
/// a `f64` CG-Lanczos prelude for the spectrum, then iterative
/// refinement — each outer iteration runs `m` steps of the `f32`
/// acceleration against the demoted `f64` residual, promotes the
/// correction, and re-derives the residual in `f64`. The outer update
/// and the convergence test never leave `f64`, so the solve reaches
/// `f64` tolerances (same argument as [`MixedPpcg`]).
#[allow(clippy::too_many_arguments)]
fn mixed_accel_solve<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    precon: &Preconditioner,
    op32: &TileOperator<f32>,
    precon32: &Preconditioner<f32>,
    inner32: &mut InnerWs32,
    ws: &mut Workspace,
    opts: SolveOpts,
    presteps: u64,
    eigen_safety: f64,
    m: usize,
    accel: InnerAccel,
    label: &str,
    hint: Option<EigenEstimate>,
) -> SolveResult {
    let bounds = &tile.op.bounds;

    // Phase 1: f64 plain-CG presteps for the spectrum of M⁻¹A.
    let (pre, coeffs) = cg_solve_recording(tile, u, b, precon, ws, opts, presteps.max(1));
    if pre.converged || pre.status.is_diverged() || pre.status.is_cancelled() {
        return pre;
    }
    let mut trace = pre.trace;
    trace.solver = label.to_string();
    // a pinned estimate (session replay of identical input) skips only
    // the Lanczos analysis; the presteps above still advanced u
    let est: EigenEstimate = hint.unwrap_or_else(|| {
        let (al, be) = coeffs.for_lanczos();
        estimate_from_cg(al, be, eigen_safety)
    });
    trace.eigen_bounds = Some((est.min, est.max));
    let consts = ChebyConstants::from_estimate(est);
    let cheb = consts.coefficients(m);
    let omega = 2.0 / (est.min + est.max);

    // Phase 2: f64 refinement loop around the f32 acceleration blocks.
    tile.exchange(&mut [u], 1, &mut trace);
    tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

    let initial_residual = pre.initial_residual;
    let target = opts.eps * initial_residual;
    let mut iterations = pre.iterations;
    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = pre.final_residual;

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

        match accel {
            InnerAccel::Chebyshev => cheb_inner_f32(
                tile, op32, precon32, ws, inner32, &consts, &cheb, 1, &mut trace,
            ),
            InnerAccel::Richardson => {
                rich_inner_f32(tile, op32, precon32, ws, inner32, omega, m, &mut trace)
            }
        }
        trace.inner_iterations += m as u64;

        vector::axpy(u, 1.0, &ws.z, bounds, 0, &mut trace);
        tile.exchange(&mut [u], 1, &mut trace);
        tile.op.residual(u, b, &mut ws.r, 0, &mut trace);

        // one reduction per m-step block: the f64 convergence control
        let rr_local = vector::dot_local(&ws.r, &ws.r, bounds, &mut trace);
        let rr = tile.reduce_sum(rr_local, &mut trace);
        if !rr.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
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

/// Chebyshev acceleration with every polynomial sweep in `f32` — the
/// `"mixed_chebyshev"` registry entry.
///
/// Each outer iteration demotes the current `f64` residual, runs
/// `check_interval` Chebyshev steps of `A z ≈ r` in `f32` (the same
/// inner engine as [`MixedPpcg`], at depth 1), promotes the correction
/// and re-derives the residual in `f64`. The CG presteps, the Lanczos
/// eigenvalue estimate and the convergence control all stay in `f64`,
/// so the method reaches `f64` tolerances while the bandwidth-dominant
/// sweeps move half the bytes.
#[derive(Debug, Clone, Default)]
pub struct MixedChebyshev {
    kind: PreconKind,
    presteps: u64,
    eigen_safety: f64,
    inner_steps: usize,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    op32: Option<TileOperator<f32>>,
    precon32: Option<Preconditioner<f32>>,
    inner32: Option<InnerWs32>,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl MixedChebyshev {
    /// A mixed-precision Chebyshev solver with preconditioner `kind`,
    /// `presteps` CG presteps and `inner_steps` f32 sweeps per `f64`
    /// residual refresh.
    pub fn new(kind: PreconKind, presteps: u64, eigen_safety: f64, inner_steps: usize) -> Self {
        MixedChebyshev {
            kind,
            presteps,
            eigen_safety,
            inner_steps: inner_steps.max(1),
            opts: SolveOpts::default(),
            precon: None,
            op32: None,
            precon32: None,
            inner32: None,
            hint: None,
            last_est: None,
        }
    }

    /// Registry factory: consumes `precon`, `presteps`, `eigen_safety`
    /// and `check_interval` (as the f32 block length).
    pub fn from_params(params: &SolverParams) -> Self {
        MixedChebyshev::new(
            params.precon,
            params.presteps,
            params.eigen_safety,
            params.check_interval.max(1) as usize,
        )
    }

    fn assemble(&mut self, ctx: &SolveContext<'_>) {
        let op32: TileOperator<f32> = ctx.tile.op.convert();
        self.precon = Some(Preconditioner::setup(self.kind, ctx.tile.op, 0));
        self.precon32 = Some(Preconditioner::setup(self.kind, &op32, 0));
        self.op32 = Some(op32);
    }
}

impl IterativeSolver for MixedChebyshev {
    fn name(&self) -> &'static str {
        "mixed_chebyshev"
    }

    fn label(&self) -> String {
        "Chebyshev-mixed".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.assemble(ctx);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if self.op32.is_none() {
            self.assemble(ctx);
        }
        if !self.inner32.as_ref().is_some_and(|s| s.fits(&ws.r)) {
            self.inner32 = Some(InnerWs32::matching(&ws.r));
        }
        let result = mixed_accel_solve(
            ctx.tile,
            u,
            b,
            self.precon.as_ref().expect("just prepared"),
            self.op32.as_ref().expect("just prepared"),
            self.precon32.as_ref().expect("just prepared"),
            self.inner32.as_mut().expect("just sized"),
            ws,
            self.opts,
            self.presteps,
            self.eigen_safety,
            self.inner_steps,
            InnerAccel::Chebyshev,
            "Chebyshev-mixed",
            self.hint,
        );
        self.last_est = result
            .trace
            .eigen_bounds
            .map(|(min, max)| EigenEstimate { min, max });
        trace.merge(&result.trace);
        result
    }

    fn set_eigen_hint(&mut self, hint: Option<EigenEstimate>) {
        self.hint = hint;
    }

    fn last_eigen_estimate(&self) -> Option<EigenEstimate> {
        self.last_est
    }
}

/// Damped Richardson iteration with every sweep in `f32` — the
/// `"mixed_richardson"` registry entry.
///
/// The outer structure matches [`MixedChebyshev`]: `check_interval`
/// damped sweeps (`z += ω M⁻¹ r̃`, Chebyshev-optimal
/// `ω = 2/(λmin+λmax)`) run in `f32` against the demoted residual, the
/// promoted correction and the convergence test stay in `f64`.
#[derive(Debug, Clone, Default)]
pub struct MixedRichardson {
    kind: PreconKind,
    presteps: u64,
    eigen_safety: f64,
    inner_steps: usize,
    opts: SolveOpts,
    precon: Option<Preconditioner>,
    op32: Option<TileOperator<f32>>,
    precon32: Option<Preconditioner<f32>>,
    inner32: Option<InnerWs32>,
    hint: Option<EigenEstimate>,
    last_est: Option<EigenEstimate>,
}

impl MixedRichardson {
    /// A mixed-precision Richardson solver with preconditioner `kind`,
    /// `presteps` CG presteps and `inner_steps` f32 sweeps per `f64`
    /// residual refresh.
    pub fn new(kind: PreconKind, presteps: u64, eigen_safety: f64, inner_steps: usize) -> Self {
        MixedRichardson {
            kind,
            presteps,
            eigen_safety,
            inner_steps: inner_steps.max(1),
            opts: SolveOpts::default(),
            precon: None,
            op32: None,
            precon32: None,
            inner32: None,
            hint: None,
            last_est: None,
        }
    }

    /// Registry factory: consumes `precon`, `presteps`, `eigen_safety`
    /// and `check_interval` (as the f32 block length).
    pub fn from_params(params: &SolverParams) -> Self {
        MixedRichardson::new(
            params.precon,
            params.presteps,
            params.eigen_safety,
            params.check_interval.max(1) as usize,
        )
    }

    fn assemble(&mut self, ctx: &SolveContext<'_>) {
        let op32: TileOperator<f32> = ctx.tile.op.convert();
        self.precon = Some(Preconditioner::setup(self.kind, ctx.tile.op, 0));
        self.precon32 = Some(Preconditioner::setup(self.kind, &op32, 0));
        self.op32 = Some(op32);
    }
}

impl IterativeSolver for MixedRichardson {
    fn name(&self) -> &'static str {
        "mixed_richardson"
    }

    fn label(&self) -> String {
        "Richardson-mixed".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.assemble(ctx);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if self.op32.is_none() {
            self.assemble(ctx);
        }
        if !self.inner32.as_ref().is_some_and(|s| s.fits(&ws.r)) {
            self.inner32 = Some(InnerWs32::matching(&ws.r));
        }
        let result = mixed_accel_solve(
            ctx.tile,
            u,
            b,
            self.precon.as_ref().expect("just prepared"),
            self.op32.as_ref().expect("just prepared"),
            self.precon32.as_ref().expect("just prepared"),
            self.inner32.as_mut().expect("just sized"),
            ws,
            self.opts,
            self.presteps,
            self.eigen_safety,
            self.inner_steps,
            InnerAccel::Richardson,
            "Richardson-mixed",
            self.hint,
        );
        self.last_est = result
            .trace
            .eigen_bounds
            .map(|(min, max)| EigenEstimate { min, max });
        trace.merge(&result.trace);
        result
    }

    fn set_eigen_hint(&mut self, hint: Option<EigenEstimate>) {
        self.hint = hint;
    }

    fn last_eigen_estimate(&self) -> Option<EigenEstimate> {
        self.last_est
    }
}

/// The `f32` working set of [`CgF32`]: every vector of the recurrence,
/// exchanged over the wire at native `f32` width.
#[derive(Debug, Clone)]
struct FieldsF32 {
    u: Field2F,
    b: Field2F,
    p: Field2F,
    r: Field2F,
    w: Field2F,
    z: Field2F,
}

/// Fully single-precision PCG — the `"cg_f32"` registry entry and the
/// honest floor of the precision sweep.
///
/// Every kernel (residual, fused apply-dot, preconditioner, vector
/// updates) runs in `f32`; dot products are widened to `f64` only for
/// the scalar recurrence and the convergence test. The attainable
/// relative residual is limited to roughly `κ(A)·ε_f32`, so tight
/// `f64`-era tolerances (the TeaLeaf default `1e-10`) are generally
/// unreachable: a stagnation guard ends the solve once the residual
/// stops improving, reporting `converged: false` honestly rather than
/// spinning to the iteration cap.
#[derive(Debug, Clone, Default)]
pub struct CgF32 {
    kind: PreconKind,
    opts: SolveOpts,
    op32: Option<TileOperator<f32>>,
    precon32: Option<Preconditioner<f32>>,
    fields: Option<FieldsF32>,
}

/// Iterations without a ≥0.1% residual improvement before [`CgF32`]
/// declares stagnation at the `f32` round-off floor.
const F32_STALL_LIMIT: u64 = 100;

impl CgF32 {
    /// A single-precision CG using preconditioner `kind`.
    pub fn new(kind: PreconKind) -> Self {
        CgF32 {
            kind,
            opts: SolveOpts::default(),
            op32: None,
            precon32: None,
            fields: None,
        }
    }

    /// Registry factory: consumes [`SolverParams::precon`].
    pub fn from_params(params: &SolverParams) -> Self {
        CgF32::new(params.precon)
    }

    fn assemble(&mut self, ctx: &SolveContext<'_>) {
        let op32: TileOperator<f32> = ctx.tile.op.convert();
        self.precon32 = Some(Preconditioner::setup(self.kind, &op32, 0));
        self.op32 = Some(op32);
    }
}

impl IterativeSolver for CgF32 {
    fn name(&self) -> &'static str {
        "cg_f32"
    }

    fn label(&self) -> String {
        "CG-f32".into()
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        self.assemble(ctx);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if self.op32.is_none() {
            self.assemble(ctx);
        }
        let fits =
            |g: &Field2F, f: &Field2D| g.nx() == f.nx() && g.ny() == f.ny() && g.halo() == f.halo();
        if !self
            .fields
            .as_ref()
            .is_some_and(|s| fits(&s.u, u) && fits(&s.b, b) && fits(&s.p, &ws.p))
        {
            let like = |f: &Field2D| Field2F::new(f.nx(), f.ny(), f.halo());
            self.fields = Some(FieldsF32 {
                u: like(u),
                b: like(b),
                p: like(&ws.p),
                r: like(&ws.r),
                w: like(&ws.w),
                z: like(&ws.z),
            });
        }
        let result = cg_f32_solve(
            ctx.tile,
            u,
            b,
            self.op32.as_ref().expect("just prepared"),
            self.precon32.as_ref().expect("just prepared"),
            self.fields.as_mut().expect("just sized"),
            self.opts,
        );
        trace.merge(&result.trace);
        result
    }
}

fn cg_f32_solve<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    b: &Field2D,
    op32: &TileOperator<f32>,
    precon32: &Preconditioner<f32>,
    f: &mut FieldsF32,
    opts: SolveOpts,
) -> SolveResult {
    let mut trace = SolveTrace::new("CG-f32");
    let bounds = &op32.bounds;

    // fill u's ghosts in f64 once, then demote the whole working set
    tile.exchange(&mut [u], 1, &mut trace);
    trace.vector_ops.record(0);
    u.convert_into(&mut f.u);
    b.convert_into(&mut f.b);

    op32.residual(&f.u, &f.b, &mut f.r, 0, &mut trace);
    precon32.apply(&f.r, &mut f.z, bounds, 0, &mut trace);
    vector::copy(&mut f.p, &f.z, bounds, 0, &mut trace);

    // all four reductions below are width-native: the f32 partial dots
    // fold across ranks in f32 (4 bytes on the wire) and only the folded
    // scalar is widened for the f64 control logic
    let rz_local = vector::dot_local(&f.r, &f.z, bounds, &mut trace);
    let mut rro = tile.reduce_sum_native(rz_local, &mut trace).to_f64();
    let initial_residual = match SolveResult::start(rro, &trace) {
        Ok(norm) => norm,
        Err(end) => return *end,
    };
    let target = opts.eps * initial_residual;

    let mut converged = false;
    let mut status = SolveStatus::IterationLimit;
    let mut final_residual = initial_residual;
    let mut iterations = 0;
    let mut best = f64::INFINITY;
    let mut best_true = f64::INFINITY;
    let mut stalled = 0u64;

    while iterations < opts.max_iters {
        if tile.controls.should_stop() {
            status = SolveStatus::Cancelled {
                iteration: iterations,
            };
            break;
        }
        iterations += 1;
        trace.outer_iterations += 1;
        tile.controls.poke_f32(iterations, &mut f.u, &mut f.r);

        tile.exchange(&mut [&mut f.p], 1, &mut trace);
        let pw_local = op32.apply_fused_dot(&f.p, &mut f.w, &mut trace);
        let pw = tile.reduce_sum_native(pw_local, &mut trace).to_f64();
        if !pw.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        if pw <= 0.0 {
            // f32 breakdown: the search direction lost positivity
            break;
        }
        let alpha = rro / pw;

        let alpha = f32::from_f64(alpha);
        let (r, z) = (&mut f.r, &mut f.z);
        let rz_local = precon32.cg_update(&mut f.u, r, z, alpha, &f.p, &f.w, bounds, &mut trace);
        let rrn = tile.reduce_sum_native(rz_local, &mut trace).to_f64();

        if !rrn.is_finite() {
            status = SolveStatus::Diverged {
                iteration: iterations,
            };
            final_residual = f64::NAN;
            break;
        }
        final_residual = rrn.max(0.0).sqrt();
        if final_residual <= target {
            // The f32 recurrence residual drifts below the true residual
            // long before convergence (round-off in the u updates), so a
            // recurrence-only test would claim tolerances the solution
            // does not meet. Confirm against the true residual
            // `b − A·u` — classic residual replacement — and restart the
            // direction from it if the claim was premature.
            tile.exchange(&mut [&mut f.u], 1, &mut trace);
            op32.residual(&f.u, &f.b, &mut f.r, 0, &mut trace);
            precon32.apply(&f.r, &mut f.z, bounds, 0, &mut trace);
            let rz_true = vector::dot_local(&f.r, &f.z, bounds, &mut trace);
            let rr_true = tile.reduce_sum_native(rz_true, &mut trace).to_f64();
            if !rr_true.is_finite() {
                status = SolveStatus::Diverged {
                    iteration: iterations,
                };
                final_residual = f64::NAN;
                break;
            }
            let true_res = rr_true.max(0.0).sqrt();
            final_residual = true_res;
            if true_res <= target {
                converged = true;
                status = SolveStatus::Converged;
                break;
            }
            if rr_true <= 0.0 || true_res >= 0.999 * best_true {
                // the true residual is no longer improving: that is the
                // f32 round-off floor — report unconverged honestly
                break;
            }
            best_true = true_res;
            // the recurrence residual restarts from the (much larger)
            // true residual: reset the recurrence stall watermark too,
            // or the whole re-descent would count as stalled
            best = true_res;
            stalled = 0;
            vector::copy(&mut f.p, &f.z, bounds, 0, &mut trace);
            rro = rr_true;
            continue;
        }
        if rrn <= 0.0 {
            break;
        }
        if final_residual < 0.999 * best {
            best = final_residual;
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= F32_STALL_LIMIT {
                // flatlined at the f32 round-off floor
                break;
            }
        }

        let beta = f32::from_f64(rrn / rro);
        precon32.cg_direction(&mut f.p, &f.r, &f.z, beta, bounds, &mut trace);
        rro = rrn;
    }

    trace.vector_ops.record(0);
    f.u.convert_into(u);

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
    use crate::builder::{crooked_pipe_system, Solve};
    use crate::cg::cg_solve_recording;
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::Decomposition2D;

    fn run_named(
        name: &str,
        n: usize,
        eps: f64,
        precon: PreconKind,
        depth: usize,
    ) -> (SolveResult, Field2D, TileOperator, Field2D) {
        let (op, b) = crooked_pipe_system(n, 0.04, depth.max(1));
        let mut u = b.clone();
        let result = Solve::on(&op)
            .with_solver(name)
            .precon(precon)
            .halo_depth(depth.max(1))
            .eps(eps)
            .run(&mut u, &b)
            .expect("registered solver");
        (result, u, op, b)
    }

    fn residual_norm(op: &TileOperator, u: &Field2D, b: &Field2D) -> f64 {
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(u.nx(), u.ny(), u.halo());
        op.residual(u, b, &mut r, 0, &mut t);
        r.interior_norm() / b.interior_norm()
    }

    #[test]
    fn mixed_cg_reaches_f64_tolerance() {
        for precon in [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ] {
            let (res, u, op, b) = run_named("mixed_cg", 32, 1e-10, precon, 1);
            assert!(res.converged, "{precon:?}: {res:?}");
            assert!(
                residual_norm(&op, &u, &b) < 1e-8,
                "{precon:?} residual too large"
            );
        }
    }

    #[test]
    fn mixed_cg_matches_f64_cg_solution() {
        let (r64, u64f, op, b) = run_named("cg", 24, 1e-10, PreconKind::BlockJacobi, 1);
        let (rmx, umx, ..) = run_named("mixed_cg", 24, 1e-10, PreconKind::BlockJacobi, 1);
        assert!(r64.converged && rmx.converged);
        // both converged to 1e-10: solutions agree far beyond f32 precision,
        // proving the outer f64 recurrence controls the accuracy
        for k in 0..24isize {
            for j in 0..24isize {
                let (a, c) = (umx.at(j, k), u64f.at(j, k));
                assert!(
                    (a - c).abs() <= 1e-6 * c.abs().max(1e-12),
                    "solutions diverge at ({j},{k}): {a} vs {c}"
                );
            }
        }
        let _ = (op, b);
    }

    #[test]
    fn mixed_cg_iteration_count_stays_close_to_f64() {
        let (r64, ..) = run_named("cg", 32, 1e-10, PreconKind::Diagonal, 1);
        let (rmx, ..) = run_named("mixed_cg", 32, 1e-10, PreconKind::Diagonal, 1);
        assert!(
            rmx.iterations <= r64.iterations + r64.iterations / 2 + 5,
            "f32 preconditioning should not blow up iterations: {} vs {}",
            rmx.iterations,
            r64.iterations
        );
    }

    #[test]
    fn mixed_ppcg_reaches_f64_tolerance_at_depths() {
        for depth in [1usize, 4] {
            let (res, u, op, b) = run_named("mixed_ppcg", 32, 1e-9, PreconKind::None, depth);
            assert!(res.converged, "depth {depth}: {res:?}");
            assert!(residual_norm(&op, &u, &b) < 1e-7, "depth {depth}");
        }
    }

    #[test]
    fn mixed_chebyshev_and_richardson_reach_f64_tolerance() {
        for name in ["mixed_chebyshev", "mixed_richardson"] {
            let (res, u, op, b) = run_named(name, 32, 1e-9, PreconKind::Diagonal, 1);
            assert!(res.converged, "{name}: {res:?}");
            assert!(residual_norm(&op, &u, &b) < 1e-7, "{name}");
            // the damping/shift came from a recorded eigenvalue estimate
            assert!(res.trace.eigen_bounds.is_some(), "{name}");
        }
    }

    #[test]
    fn cg_f32_stalls_above_f64_tolerance_but_solves_loose_ones() {
        // loose tolerance: f32 CG converges fine
        let (loose, u, op, b) = run_named("cg_f32", 24, 1e-4, PreconKind::None, 1);
        assert!(loose.converged, "{loose:?}");
        assert!(residual_norm(&op, &u, &b) < 1e-3);
        // f64-grade tolerance: the stagnation guard must stop it early,
        // unconverged, well before the 10k iteration cap
        let (tight, ..) = run_named("cg_f32", 24, 1e-12, PreconKind::None, 1);
        assert!(!tight.converged, "f32 cannot honestly reach 1e-12");
        assert!(
            tight.iterations < 2000,
            "stagnation guard should cut the run short, ran {}",
            tight.iterations
        );
    }

    #[test]
    fn precision_routing_table() {
        let reg = SolverRegistry::builtin();
        let route = |n: &str, p: Precision| solver_for_precision(n, p, &reg).unwrap();
        assert_eq!(route("cg", Precision::F64), "cg");
        assert_eq!(route("cg", Precision::Mixed), "mixed_cg");
        assert_eq!(route("cg_fused", Precision::Mixed), "mixed_cg");
        assert_eq!(route("cg", Precision::F32), "cg_f32");
        assert_eq!(route("ppcg", Precision::Mixed), "mixed_ppcg");
        assert_eq!(route("chebyshev", Precision::Mixed), "mixed_chebyshev");
        assert_eq!(route("richardson", Precision::Mixed), "mixed_richardson");
        assert_eq!(route("mixed_cg", Precision::Mixed), "mixed_cg");
        assert_eq!(route("mixed_cg", Precision::F64), "cg");
        assert_eq!(route("cg_f32", Precision::F64), "cg");
        assert_eq!(route("mixed_ppcg", Precision::F64), "ppcg");
        assert_eq!(route("mixed_chebyshev", Precision::F64), "chebyshev");
        assert_eq!(route("mixed_richardson", Precision::F64), "richardson");
        // aliases route through canonical names
        assert_eq!(route("cppcg", Precision::Mixed), "mixed_ppcg");
    }

    #[test]
    fn precision_routing_rejects_uncovered_methods() {
        let reg = SolverRegistry::builtin();
        let err = solver_for_precision("jacobi", Precision::Mixed, &reg).unwrap_err();
        assert!(
            matches!(err, SolverError::PrecisionUnsupported { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("jacobi"), "{err}");
        let err = solver_for_precision("ppcg", Precision::F32, &reg).unwrap_err();
        assert!(err.to_string().contains("f32"), "{err}");
        let err = solver_for_precision("nonexistent", Precision::Mixed, &reg).unwrap_err();
        assert!(matches!(err, SolverError::UnknownSolver { .. }), "{err}");
    }

    #[test]
    fn mixed_trace_counts_demotion_sweeps() {
        // mixed CG must record strictly more vector ops than f64 CG
        // (two conversion sweeps per preconditioner application) while
        // keeping the same reduction and exchange protocol
        let n = 16;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::new(&op, &layout, &comm);
        let m64 = Preconditioner::setup(PreconKind::Diagonal, &op, 0);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = b.clone();
        let (r64, _) = cg_solve_recording(
            &tile,
            &mut u,
            &b,
            &m64,
            &mut ws,
            SolveOpts::default(),
            u64::MAX,
        );

        let op32: TileOperator<f32> = op.convert();
        let m32 = Preconditioner::setup(PreconKind::Diagonal, &op32, 0);
        let mut scratch = DemoteScratch::matching(&ws.r);
        let mut u2 = b.clone();
        let rmx = mixed_cg_solve(
            &tile,
            &mut u2,
            &b,
            &m32,
            &mut scratch,
            &mut ws,
            SolveOpts::default(),
        );
        assert!(r64.converged && rmx.converged);
        let per_iter_64 = r64.trace.vector_ops.total() as f64 / r64.iterations as f64;
        let per_iter_mx = rmx.trace.vector_ops.total() as f64 / rmx.iterations as f64;
        assert!(
            per_iter_mx > per_iter_64 + 1.5,
            "demotion sweeps must show up in the trace: {per_iter_mx} vs {per_iter_64}"
        );
        // reductions per iteration unchanged: still two-allreduce CG
        assert_eq!(r64.trace.reductions, 1 + 2 * r64.iterations);
        assert_eq!(rmx.trace.reductions, 1 + 2 * rmx.iterations);
    }

    #[test]
    fn precision_labels_parse_and_roundtrip() {
        for p in [Precision::F64, Precision::F32, Precision::Mixed] {
            assert_eq!(Precision::parse(p.label()).unwrap(), p);
        }
        assert_eq!(Precision::parse("DOUBLE").unwrap(), Precision::F64);
        assert_eq!(Precision::parse("single").unwrap(), Precision::F32);
        assert!(Precision::parse("f16").is_err());
    }
}
