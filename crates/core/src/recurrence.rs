//! The two recurrences every registry solver is an instance of, each
//! written once. There is no exception: no method keeps a loop of its
//! own, and each instance's operator-derived state (preconditioner,
//! `f32` image, multigrid hierarchy) is assembled in
//! [`crate::IterativeSolver::prepare`], never inside the loop.
//!
//! * [`pcg_loop`] — the preconditioned CG outer recurrence (paper
//!   §III.A): the `α`/`β` updates, the two global reductions per
//!   iteration and every way the loop can end. An instance supplies only
//!   *how `z = M⁻¹r` is produced and `p` advanced*, through
//!   [`Precondition`]:
//!
//!   | registry name | `z = M⁻¹r` | loop precision |
//!   |---|---|---|
//!   | `cg` | [`crate::Preconditioner`], fused into the `u`/`r` sweep | `f64` |
//!   | `cg_f32` | the same, plus the round-off floor policy | `f32` |
//!   | `mixed_cg` | the `f32` preconditioner round trip | `f64` |
//!   | `ppcg` | `m` Chebyshev smoothing steps | `f64` |
//!   | `mixed_ppcg` | the same smoothing in `f32` | `f64` |
//!   | `amg` (tea-amg) | one multigrid V-cycle | `f64` |
//!
//! * `stationary_loop` — a dot-product-free iteration advanced by a
//!   step closure, with a residual check every iteration or every `k`
//!   iterations: `jacobi`, `chebyshev`, and the `mixed_chebyshev`
//!   refinement (whose step is a block of `f32` Chebyshev sweeps).
//!
//! Both advance a [`SolveResult`] in place, so the stop-handle,
//! probe, finiteness and convergence handling (`SolveResult::begin`,
//! `observe`, `diverge`) exists once, and both can pick up where the
//! CG eigenvalue prelude (`crate::cg::eigen_prelude`) left off.

use crate::cg::CgCoefficients;
use crate::control::Probed;
use crate::ops::TileOperator;
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveStatus, SolveTrace};
use crate::vector;
use tea_comms::Communicator;
use tea_mesh::{Field2, Field2D};

/// The operator, right-hand side and vectors of one PCG recurrence in
/// precision `S`.
pub struct Krylov<'a, S: Probed> {
    /// The operator `A`.
    pub op: &'a TileOperator<S>,
    /// Right-hand side.
    pub b: &'a Field2<S>,
    /// Iterate: the initial guess on entry, the solution on exit.
    pub u: &'a mut Field2<S>,
    /// Search direction.
    pub p: &'a mut Field2<S>,
    /// Residual `b − A·u`.
    pub r: &'a mut Field2<S>,
    /// One buffer for two values whose lifetimes never overlap: `A·p`
    /// from the operator sweep until the `u`/`r` update has consumed
    /// it, then the preconditioned residual `M⁻¹r` until the next
    /// operator sweep overwrites it.
    pub wz: &'a mut Field2<S>,
    /// `√(r·z)` as last globally reduced — the same value on every rank —
    /// for a [`Precondition`] that needs the residual's scale; `None`
    /// until [`pcg_loop`] has one.
    pub norm: Option<f64>,
}

impl Workspace {
    /// Lends the workspace to a PCG recurrence on `A u = b`: the
    /// [`Krylov`] vectors — `p`, `r`, and `w` as the shared
    /// `A·p`/`M⁻¹r` buffer [`Krylov::wz`] — and the three fields left
    /// over (`rr`, `sd`, `tmp`) for an inner smoother to use.
    pub fn krylov<'a>(
        &'a mut self,
        op: &'a TileOperator,
        u: &'a mut Field2D,
        b: &'a Field2D,
    ) -> (Krylov<'a, f64>, [&'a mut Field2D; 3]) {
        let krylov = Krylov {
            op,
            b,
            u,
            p: &mut self.p,
            r: &mut self.r,
            wz: &mut self.w,
            norm: None,
        };
        (krylov, [&mut self.rr, &mut self.sd, &mut self.tmp])
    }
}

/// How one instance of [`pcg_loop`] produces `z = M⁻¹r` and advances
/// `p`. Only [`Precondition::apply`] is required; the defaults are the
/// unfused recurrence around it. `z` lives in [`Krylov::wz`], so an
/// instance writes it only where `A·p` is dead: in `apply`, and in
/// `update` after the `u`/`r` sweep.
pub trait Precondition<S: Probed> {
    /// `k.wz = M⁻¹ k.r`.
    fn apply<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        k: &mut Krylov<'_, S>,
        trace: &mut SolveTrace,
    );

    /// `u += αp`, `r −= αw`, then `z = M⁻¹r` into the `w` it consumed;
    /// returns the local `r·z`. The default runs the `u`/`r` updates as
    /// one sweep, then [`Precondition::apply`] and a dot.
    fn update<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        k: &mut Krylov<'_, S>,
        alpha: S,
        trace: &mut SolveTrace,
    ) -> S {
        vector::axpy2(k.u, k.r, alpha, k.p, k.wz, &k.op.bounds, trace);
        self.apply(tile, k, trace);
        vector::dot_local(k.r, k.wz, &k.op.bounds, trace)
    }

    /// `p = z + βp`.
    fn direction(&mut self, k: &mut Krylov<'_, S>, beta: S, trace: &mut SolveTrace) {
        vector::xpay(k.p, k.wz, beta, &k.op.bounds, 0, trace);
    }

    /// Called when the recurrence residual meets `target`. Either
    /// records the verdict in `run` and returns `None` — the default
    /// trusts the recurrence — or refreshes `r`, `z` and `p` from a true
    /// residual that has *not* converged and returns its `r·z`, from
    /// which the recurrence restarts.
    fn confirm<C: Communicator + ?Sized>(
        &mut self,
        _tile: &Tile<'_, C>,
        _k: &mut Krylov<'_, S>,
        _target: f64,
        run: &mut SolveResult,
    ) -> Option<f64> {
        run.converge();
        None
    }

    /// Whether an unconverged iteration at `residual` should be the
    /// last because the recurrence has flatlined. Default: never.
    fn stalled(&mut self, _residual: f64) -> bool {
        false
    }
}

/// Where [`pcg_loop`] starts from.
pub enum Entry {
    /// A new solve recording into this trace; the initial residual is
    /// the `√(r·z)` the loop computes on entry.
    Fresh(SolveTrace),
    /// The unfinished result of a CG eigenvalue prelude: iteration
    /// count, initial residual and trace carry on.
    Carried(SolveResult),
}

/// One width-native global sum, widened for the scalar recurrence.
pub(crate) fn reduce<S: Probed, C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    local: S,
    trace: &mut SolveTrace,
) -> f64 {
    tile.reduce_sum_native(local, trace).to_f64()
}

/// Preconditioned CG on `k` until `√(r·z) ≤ eps·√(r₀·z₀)`, recording the
/// `α`/`β` coefficients for Lanczos eigenvalue estimation.
///
/// Per iteration: a depth-1 exchange of `p`, the fused `w = A·p`, `p·w`
/// sweep and its reduction, [`Precondition::update`] and its reduction,
/// then [`Precondition::direction`]. The solve ends
/// [`SolveStatus::Diverged`] when `p·w` or `r·z` goes non-finite, when
/// `p·w ≤ 0`, or when `r·z < 0` — an indefinite `M` (a Chebyshev
/// polynomial built on an eigenvalue bound that undershoots `λmax`) must
/// not read as a zero residual.
pub fn pcg_loop<S: Probed, C: Communicator + ?Sized, M: Precondition<S>>(
    tile: &Tile<'_, C>,
    k: &mut Krylov<'_, S>,
    m: &mut M,
    entry: Entry,
    opts: SolveOpts,
) -> (SolveResult, CgCoefficients) {
    let mut coeffs = CgCoefficients::default();
    let (mut trace, carried) = match entry {
        Entry::Fresh(trace) => (trace, None),
        Entry::Carried(mut pre) => {
            k.norm = Some(pre.final_residual);
            (std::mem::take(&mut pre.trace), Some(pre))
        }
    };

    // r = b − A·u (u needs one fresh ghost layer), z = M⁻¹r, p = z
    tile.exchange(&mut [&mut *k.u], 1, &mut trace);
    k.op.residual(k.u, k.b, k.r, 0, &mut trace);
    m.apply(tile, k, &mut trace);
    vector::copy(k.p, k.wz, &k.op.bounds, 0, &mut trace);
    let rz = vector::dot_local(k.r, k.wz, &k.op.bounds, &mut trace);
    let mut rro = reduce(tile, rz, &mut trace);

    let mut run = match carried {
        Some(pre) => SolveResult { trace, ..pre },
        None => match SolveResult::start(rro, trace) {
            Ok(run) => run,
            Err(end) => return (*end, coeffs),
        },
    };
    if !rro.is_finite() || rro < 0.0 {
        run.diverge();
        return (run, coeffs);
    }
    let target = opts.eps * run.initial_residual;
    k.norm = Some(rro.sqrt());

    while run.iterations < opts.max_iters && run.begin(&tile.controls, k.u, k.r) {
        tile.exchange(&mut [&mut *k.p], 1, &mut run.trace);
        let pw = k.op.apply_fused_dot(k.p, k.wz, &mut run.trace);
        let pw = reduce(tile, pw, &mut run.trace);
        if !pw.is_finite() || pw <= 0.0 {
            // <p, Ap> lost positivity or went non-finite: the recurrence
            // cannot recover, so stop burning iterations
            run.diverge();
            break;
        }
        let alpha = rro / pw;
        coeffs.alphas.push(alpha);

        let rz = m.update(tile, k, S::from_f64(alpha), &mut run.trace);
        let rrn = reduce(tile, rz, &mut run.trace);
        if !rrn.is_finite() || rrn < 0.0 {
            run.diverge();
            break;
        }
        run.final_residual = rrn.max(0.0).sqrt();
        if run.final_residual <= target {
            match m.confirm(tile, k, target, &mut run) {
                Some(rz_true) => {
                    rro = rz_true;
                    continue;
                }
                None => break,
            }
        }
        if m.stalled(run.final_residual) {
            break;
        }

        let beta = rrn / rro;
        coeffs.betas.push(beta);
        m.direction(k, S::from_f64(beta), &mut run.trace);
        rro = rrn;
        k.norm = Some(run.final_residual);
    }
    (run, coeffs)
}

/// A reduction-avoiding stationary iteration: `step` advances `u` and
/// its residual `r`, and the loop pays for `‖r‖` only at its checks —
/// every iteration when `check_interval` is `None`, otherwise every
/// `check_interval` iterations plus one authoritative check after a run
/// that reached the iteration cap. `step`'s third argument is the last
/// checked norm (on entry, the carried result's).
pub(crate) fn stationary_loop<C: Communicator + ?Sized>(
    tile: &Tile<'_, C>,
    u: &mut Field2D,
    r: &mut Field2D,
    mut run: SolveResult,
    opts: SolveOpts,
    check_interval: Option<u64>,
    mut step: impl FnMut(&mut Field2D, &mut Field2D, f64, &mut SolveTrace),
) -> SolveResult {
    let target = opts.eps * run.initial_residual;
    let first = run.iterations;
    let every = check_interval.map_or(1, |k| k.max(1)); // 0 would divide by zero
    let check = |run: &mut SolveResult, r: &Field2D| {
        let rr = vector::dot_local(r, r, &tile.op.bounds, &mut run.trace);
        let rr = tile.reduce_sum_native(rr, &mut run.trace);
        run.observe(rr, target)
    };
    while run.iterations < opts.max_iters && run.begin(&tile.controls, u, r) {
        step(u, r, run.final_residual, &mut run.trace);
        if (run.iterations - first).is_multiple_of(every) && check(&mut run, r) {
            break;
        }
    }
    if check_interval.is_some() && run.status == SolveStatus::IterationLimit {
        check(&mut run, r);
    }
    run
}
