//! Mixed- and reduced-precision solves: precision as a design-space
//! axis.
//!
//! TeaLeaf's kernels are memory-bandwidth bound, so halving the bytes
//! per value is the single biggest per-node lever on modern hardware.
//! Operator, preconditioner, vector kernels, halo wire and reductions
//! are all generic over [`tea_mesh::Scalar`], so a reduced-precision
//! method is not a second solver: it is a registry entry of an `f64`
//! family — `cg`, `ppcg`, `chebyshev` — whose [`crate::SolverMeta`]
//! declares the family and the precision, and whose factory builds the
//! family struct (`Cg`, `Ppcg`, `Chebyshev`) at that precision. The
//! struct then routes its `z ≈ A⁻¹r` work through the `Low` image of
//! the operator kept here:
//!
//! | registry name | `f64` outer recurrence | runs in `f32` (`Inner`) |
//! |---|---|---|
//! | `mixed_cg` | the PCG loop | the preconditioner apply |
//! | `mixed_ppcg` | the PCG loop, after the CG eigen prelude | the `m`-step Chebyshev smoothing, matrix powers included |
//! | `mixed_chebyshev` | iterative refinement, after the prelude | blocks of Chebyshev steps |
//! | `cg_f32` | — | the whole PCG loop (`Low::cg_solve`) |
//!
//! The mixed methods keep every dot product, the outer update and the
//! convergence test in `f64` — a preconditioner (or a refinement
//! correction) only has to be *some* fixed contraction for the outer
//! recurrence to converge — so they reach full `f64` tolerances; each
//! application pays one demote sweep of `r` and one promote sweep of
//! `z`, recorded as vector ops so traces stay honest about the extra
//! traffic. `cg_f32` is the honest floor of the sweep: it demonstrates
//! *why* mixed precision exists, stalling near `κ(A)·ε_f32`.
//!
//! # The noise-floor pedestal
//!
//! Where the `f64` residual's far field is *exactly* zero (the stock 96²
//! crooked pipe; the 384² one at about one jittered wall density in
//! four), a plainly demoted `r` gives the `f32` inner solve a front that
//! decays through the subnormal range, and every sweep drags a band of
//! subnormals along it: same iterations, 2.6× the time. Decks whose far
//! field is rounding noise instead of zero never see this, so
//! `Low::apply` — the one demotion site every mixed method goes
//! through — gives every deck that noise floor: it demotes `r + δ` with
//! `δ = PEDESTAL·√(r·z)`, where `√(r·z)` is the outer loop's last
//! *globally reduced* residual norm (`Krylov::norm` from `pcg_loop`, the
//! last checked `‖r‖` from `stationary_loop`), and promotes `z` with
//! entries `|z| ≤ 4δ` written as zero. No sweep, exchange, reduction or
//! trace record is added, and every rank adds the same `δ`.
//!
//! * `A·1 = 1` (every row of the operator sums to one), so a
//!   constant stays a constant through every smoothing step: the far
//!   field of the inner solve sits at `≈ δ`, never near
//!   `f32::MIN_POSITIVE`.
//! * Two bounds fix the level `PEDESTAL = 2⁻⁴⁰`: `δ` is `2¹⁶` below the
//!   `f32` rounding of the entries that carry the norm, so it costs no
//!   accuracy and no iterations; and it stays `≥ 2²⁶` above
//!   `f32::MIN_POSITIVE` down to a norm of `2⁻⁶⁰`. Being relative to the
//!   norm, it keeps a solve exactly scale-equivariant
//!   (`b, u₀ → 2ᵏ·b, 2ᵏ·u₀` gives `2ᵏ·u`).
//! * The promote cut removes the pedestal's own image, so the far field
//!   of `u` stays bit-untouched, as the `f64` methods leave it.
//! * The one un-normed application is the first of a fresh `mixed_cg`,
//!   before the loop's first reduction: it demotes plainly (`δ = 0`).
//!   `cg_f32` has no demotion site at all — its whole recurrence is
//!   `f32` — so it is *not* covered and can still run denormal.
//!
//! Two alternatives were built and measured, and lose: flushing
//! subnormals per step in the row bodies (`serve_mix` +7 % but the
//! 384² `mixed_ppcg` `solve_s` +46 %), and truncating at demotion
//! (`serve_mix` +15 %, `mixed_ppcg` +34 %) — manufacturing exact zeros
//! *creates* a regenerating subnormal band on decks that had none.
//!
//! Halo exchanges are **precision-native**: the `tea-comms` wire format
//! is generic over the field scalar, so every `f32` field here
//! exchanges 4-byte elements directly — half the message volume of the
//! `f64` solvers, with no conversion staging on either side.
//! [`crate::SolverRegistry::route`] maps a `(solver, precision)` request
//! from the deck/CLI/builder onto the registered variant by reading the
//! entries' `family` and `precision`.

use crate::cg::{Floor, Fused};
use crate::control::Probed;
use crate::ops::TileOperator;
use crate::ppcg::{cheb_inner, Smooth, Smoothing};
use crate::precon::{PreconKind, Preconditioner};
use crate::recurrence::{pcg_loop, Entry, Krylov, Precondition};
use crate::solver::{SolveOpts, Tile};
use crate::trace::{SolveResult, SolveTrace};
use tea_comms::Communicator;
use tea_mesh::{Field2, Field2D};

/// The noise-floor pedestal of [`Low::apply`] as a fraction of the outer
/// loop's residual norm (module doc): `2⁻⁴⁰`.
const PEDESTAL: f64 = 1.0 / (1u64 << 40) as f64;

/// The operator and preconditioner demoted to precision `S`, with the
/// scratch fields the chosen [`Inner`] application reads — and no more:
/// they are allocated by count on first use, so `mixed_cg` holds two `S`
/// fields where the Chebyshev smoother holds four.
#[derive(Debug, Clone)]
pub(crate) struct Low<S: Probed> {
    op: TileOperator<S>,
    precon: Preconditioner<S>,
    /// `[z, rr, sd, tmp]` for [`Low::apply`] (a prefix of it),
    /// `[wz, r, p, u, b]` for [`Low::cg_solve`].
    fields: Vec<Field2<S>>,
}

/// What [`Low::apply`] runs in low precision between the demote of `r`
/// and the promote of `z`.
pub(crate) enum Inner<'a> {
    /// `z = M⁻¹r`.
    Precon,
    /// Chebyshev smoothing of `A z = r` from `z = 0`.
    Chebyshev(&'a Smoothing),
}

impl Inner<'_> {
    /// How many of `[z, rr, sd, tmp]` the application touches.
    fn fields(&self) -> usize {
        match self {
            Inner::Precon => 2,
            Inner::Chebyshev(_) => 4,
        }
    }
}

impl<S: Probed> Low<S> {
    /// Demotes `op` and assembles preconditioner `kind` from the demoted
    /// coefficients, valid to extension `ext_max`.
    pub(crate) fn assemble(kind: PreconKind, op: &TileOperator, ext_max: usize) -> Self {
        let op: TileOperator<S> = op.convert();
        Low {
            precon: Preconditioner::setup(kind, &op, ext_max),
            op,
            fields: Vec::new(),
        }
    }

    /// Makes the scratch exactly `count` fields shaped like `like`.
    fn fit(&mut self, like: &Field2D, count: usize) {
        let shaped =
            |f: &Field2<S>| (f.nx(), f.ny(), f.halo()) == (like.nx(), like.ny(), like.halo());
        if self.fields.len() != count || !self.fields.iter().all(shaped) {
            let new = || Field2::new(like.nx(), like.ny(), like.halo());
            self.fields = std::iter::repeat_with(new).take(count).collect();
        }
    }

    /// `z ≈ A⁻¹r` by `inner`, through the low-precision round trip:
    /// demote `r` onto the pedestal `δ = PEDESTAL·norm` (see the module
    /// doc; `norm` is the outer loop's last globally reduced residual
    /// norm, `None` — no pedestal — before it has one), run `inner` in
    /// `S` (its halo exchanges move native `S` payloads), promote the
    /// result with the pedestal's image cut back to zero. Counts
    /// `inner`'s steps as inner iterations.
    pub(crate) fn apply<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        r: &Field2D,
        z: &mut Field2D,
        norm: Option<f64>,
        inner: &Inner<'_>,
        trace: &mut SolveTrace,
    ) {
        self.fit(r, inner.fields());
        let (op, precon) = (&self.op, &self.precon);
        let [lz, rr, rest @ ..] = &mut self.fields[..] else {
            unreachable!("every Inner needs at least z and rr");
        };
        #[cfg(test)]
        let norm = norm.filter(|_| !census::WITHHOLD.get());
        let delta = norm.map_or(0.0, |n| PEDESTAL * n);
        trace.vector_ops.record(0);
        demote(rr.raw_mut(), r.raw(), delta);
        match (inner, rest) {
            (Inner::Precon, _) => precon.apply(rr, lz, &op.bounds, 0, trace),
            (Inner::Chebyshev(smoothing), [sd, tmp]) => {
                let mut f = Smooth { z: lz, rr, sd, tmp };
                cheb_inner(tile, op, precon, &mut f, None, smoothing, trace);
                trace.inner_iterations += smoothing.cheb.len() as u64;
            }
            _ => unreachable!("fit() allocated what Inner::fields() asked for"),
        }
        trace.vector_ops.record(0);
        // the pedestal's own image: `A·1 = 1`, so the inner solve scales
        // the constant by a factor near one, never by four
        let cut = 4.0 * delta;
        assert_eq!(z.raw().len(), lz.raw().len(), "z is shaped like r");
        promote(z.raw_mut(), lz.raw(), cut);
        #[cfg(test)]
        census::record(&self.fields);
    }

    /// The `"cg_f32"` solve: `u` and `b` demoted, the whole PCG loop —
    /// operator, preconditioner, vectors, halo exchanges, reductions —
    /// in `S` with [`Fused`]'s round-off [`Floor`] policy,
    /// and the solution promoted back.
    pub(crate) fn cg_solve<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        u: &mut Field2D,
        b: &Field2D,
        opts: SolveOpts,
    ) -> SolveResult {
        self.fit(u, 5);
        let [wz, r, p, lu, lb] = &mut self.fields[..] else {
            unreachable!("fit() allocated five fields");
        };
        let mut trace = SolveTrace::new("CG-f32");
        trace.vector_ops.record(0);
        u.convert_into(lu);
        b.convert_into(lb);
        let (op, b, u_low) = (&self.op, &*lb, lu);
        let mut k = Krylov {
            op,
            b,
            u: u_low,
            p,
            r,
            wz,
            norm: None,
        };
        let mut step = Fused {
            precon: &self.precon,
            floor: Some(Floor::NEW),
        };
        let (mut result, _) = pcg_loop(tile, &mut k, &mut step, Entry::Fresh(trace), opts);
        if result.iterations > 0 {
            // (a solve that ended before iterating leaves the caller's
            // iterate as it was, rather than rounding it through `S`)
            result.trace.vector_ops.record(0);
            k.u.convert_into(u);
        }
        result
    }
}

// The demote and promote sweeps of [`Low::apply`], each compiled twice
// (`crate::isa`).
crate::isa::twins! {
    mod convert;

    /// `dst = S(src + delta)` element by element.
    pub(crate) fn demote<S: Probed>(dst: &mut [S], src: &[f64], delta: f64) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = S::from_f64(s + delta);
        }
    }

    /// `dst = f64(src)`, with every value of magnitude at most `cut`
    /// written as zero.
    pub(crate) fn promote<S: Probed>(dst: &mut [f64], src: &[S], cut: f64) {
        for (d, &s) in dst.iter_mut().zip(src) {
            let v = s.to_f64();
            *d = if v.abs() <= cut { 0.0 } else { v };
        }
    }
}

/// [`Low::apply`] as the `z = M⁻¹r` of an `f64` PCG loop: `mixed_cg`
/// with [`Inner::Precon`], `mixed_ppcg` with [`Inner::Chebyshev`].
pub(crate) struct Lowered<'a, S: Probed>(pub &'a mut Low<S>, pub Inner<'a>);

impl<S: Probed> Precondition<f64> for Lowered<'_, S> {
    fn apply<C: Communicator + ?Sized>(
        &mut self,
        tile: &Tile<'_, C>,
        k: &mut Krylov<'_, f64>,
        trace: &mut SolveTrace,
    ) {
        self.0.apply(tile, k.r, k.wz, k.norm, &self.1, trace);
    }
}

/// Test instrument: how many `f32` subnormals each [`Low::apply`] on
/// this thread left in its scratch fields, and a switch that withholds
/// the norm — the control that shows the census sees the cliff.
#[cfg(test)]
mod census {
    use super::{Field2, Probed};
    use std::cell::{Cell, RefCell};

    thread_local! {
        pub(super) static WITHHOLD: Cell<bool> = const { Cell::new(false) };
        pub(super) static COUNTS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn record<S: Probed>(fields: &[Field2<S>]) {
        assert_eq!(S::BYTES, 4, "the census reads f32 scratch");
        let cells = fields.iter().flat_map(|f| f.raw());
        let subnormal = cells.filter(|v| (v.to_f64() as f32).is_subnormal());
        COUNTS.with_borrow_mut(|c| c.push(subnormal.count()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Precision, SolverError};
    use crate::builder::{crooked_pipe_system, Solve};
    use crate::cg::cg_solve_recording;
    use crate::registry::SolverRegistry;
    use crate::solver::Workspace;
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
    fn mixed_chebyshev_reaches_f64_tolerance() {
        let (res, u, op, b) = run_named("mixed_chebyshev", 32, 1e-9, PreconKind::Diagonal, 1);
        assert!(res.converged, "{res:?}");
        assert!(residual_norm(&op, &u, &b) < 1e-7);
        // the shift came from a recorded eigenvalue estimate
        assert!(res.trace.eigen_bounds.is_some());
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

    /// Per-application subnormal counts of `name` on the 96² crooked
    /// pipe — the size where the `f64` far-field residual is exactly
    /// zero and a plain demotion drags a subnormal band along the front.
    fn census_of(name: &str, withhold: bool) -> Vec<usize> {
        census::WITHHOLD.set(withhold);
        census::COUNTS.take();
        let (op, b) = crooked_pipe_system(96, 0.04, 4);
        let mut u = b.clone();
        let result = Solve::on(&op)
            .with_solver(name)
            .halo_depth(4)
            .inner_steps(16)
            .eps(1e-10)
            .run(&mut u, &b)
            .expect("registered solver");
        census::WITHHOLD.set(false);
        assert!(result.converged, "{name}: {result:?}");
        census::COUNTS.take()
    }

    #[test]
    fn pedestal_leaves_no_subnormals_and_the_census_sees_the_cliff() {
        for name in ["mixed_ppcg", "mixed_cg", "mixed_chebyshev"] {
            let counts = census_of(name, false);
            assert!(counts.len() > 2, "{name}: {counts:?}");
            // (a fresh mixed_cg has no norm yet at its first application)
            assert!(counts[1..].iter().all(|&n| n == 0), "{name}: {counts:?}");
            let control = census_of(name, true);
            assert_eq!(control.len(), counts.len(), "{name}: same applications");
            // (mixed_cg's front takes a dozen iterations to decay into
            // the subnormal range; the smoothers are there at once)
            let hit = control.iter().filter(|&&n| n > 0).count();
            assert!(2 * hit > control.len(), "{name}: {control:?}");
        }
    }

    #[test]
    fn precision_routing_table() {
        let reg = SolverRegistry::builtin();
        let route = |n: &str, p: Precision| reg.route(n, p).unwrap().name;
        assert_eq!(route("cg", Precision::F64), "cg");
        assert_eq!(route("cg", Precision::Mixed), "mixed_cg");
        assert_eq!(route("cg", Precision::F32), "cg_f32");
        assert_eq!(route("ppcg", Precision::Mixed), "mixed_ppcg");
        assert_eq!(route("chebyshev", Precision::Mixed), "mixed_chebyshev");
        assert_eq!(route("mixed_cg", Precision::Mixed), "mixed_cg");
        assert_eq!(route("mixed_cg", Precision::F64), "cg");
        assert_eq!(route("cg_f32", Precision::F64), "cg");
        assert_eq!(route("mixed_ppcg", Precision::F64), "ppcg");
        assert_eq!(route("mixed_chebyshev", Precision::F64), "chebyshev");
        // aliases route through canonical names
        assert_eq!(route("cppcg", Precision::Mixed), "mixed_ppcg");
    }

    #[test]
    fn precision_routing_rejects_uncovered_methods() {
        let reg = SolverRegistry::builtin();
        let err = reg.route("jacobi", Precision::Mixed).unwrap_err();
        assert!(
            matches!(err, SolverError::PrecisionUnsupported { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("jacobi"), "{err}");
        let err = reg.route("ppcg", Precision::F32).unwrap_err();
        assert!(err.to_string().contains("f32"), "{err}");
        let err = reg.route("nonexistent", Precision::Mixed).unwrap_err();
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

        let mut low = Low::<f32>::assemble(PreconKind::Diagonal, &op, 0);
        let mut u2 = b.clone();
        let (mut k, _) = ws.krylov(&op, &mut u2, &b);
        let entry = Entry::Fresh(SolveTrace::new("CG-mixed"));
        let mut step = Lowered(&mut low, Inner::Precon);
        let (rmx, _) = pcg_loop(&tile, &mut k, &mut step, entry, SolveOpts::default());
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
