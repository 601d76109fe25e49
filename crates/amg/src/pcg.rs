//! CG preconditioned by one multigrid V-cycle per iteration — the
//! stand-in for the paper's "PETSc CG + Hypre BoomerAMG" baseline.
//!
//! The CG recurrence is tea-core's shared [`pcg_loop`] — so the baseline
//! honours stop handles and probes and types its endings like every
//! other solver; this crate plugs in only the V-cycle.
//!
//! The hierarchy is built per `prepare`, and every driver road prepares
//! once per run: one build per run under `run_rank`, none on a warm
//! serving job, whose setup cache holds it.
//!
//! The defining behaviours this reproduces (paper §VI):
//! near-mesh-independent iteration counts (fastest time-to-solution at
//! low node counts) bought with per-iteration work on *every* level —
//! including coarse grids whose per-rank share at scale is a handful of
//! cells, which is why the baseline's strong scaling collapses first.

use crate::hierarchy::{MgHierarchy, MgOpts};
use crate::trace::MgTrace;
use tea_comms::Communicator;
use tea_core::{
    pcg_loop, Entry, IterationCost, IterativeSolver, Krylov, Precondition, SolveContext, SolveOpts,
    SolveResult, SolveStatus, SolveTrace, SolverMeta, SolverParams, SolverRegistry, Tile,
    Workspace,
};
use tea_mesh::Field2D;

/// Registry metadata for the AMG baseline.
const AMG_META: SolverMeta = SolverMeta {
    name: "amg",
    aliases: &["boomeramg", "amg_pcg"],
    summary: "multigrid V-cycle preconditioned CG (the BoomerAMG-class baseline)",
    preconditioned: false,
    needs_eigen_estimate: false,
    deep_halo: false,
    serial_only: true,
    precision: tea_core::Precision::F64,
    tunable: false,
    // the outer CG prices as plain `cg`: the V-cycle is not a sweep the
    // bytes prior models (the scaling replay prices it level by level)
    iteration_cost: IterationCost::flat(14),
};

/// Registers the AMG baseline into `registry` under `"amg"` (aliases
/// `"boomeramg"`, `"amg_pcg"`) — the only way to build one. The
/// application layer calls this on top of [`SolverRegistry::builtin`];
/// custom registries can too.
pub fn register(registry: &mut SolverRegistry) {
    registry.register(AMG_META, |p| Box::new(AmgPcg::from_params(p)));
}

/// A [`SolverRegistry`] with all tea-core builtins plus the AMG
/// baseline — the full solver design space of this reproduction.
pub fn full_registry() -> SolverRegistry {
    let mut reg = SolverRegistry::builtin();
    register(&mut reg);
    reg
}

/// V-cycle-preconditioned CG as an [`IterativeSolver`].
///
/// The multigrid hierarchy is prepared state: [`IterativeSolver::prepare`]
/// builds it from the [`tea_core::Assembly`] carried by the
/// [`SolveContext`] and every solve reuses it. Every driver road solves
/// through a [`tea_core::SolveSession`], which prepares once: the heavy
/// setup is paid once per run, and not at all by a warm serving job. The
/// per-level V-cycle trace, setup cells included where a build ran,
/// accumulates across prepares and solves; drivers
/// recover it via the [`IterativeSolver::take_diagnostics`] hook
/// (payload [`MgTrace`]).
///
/// # Panics
/// `prepare` panics if the context carries no assembly info; `solve`
/// panics if the solver was never prepared or the communicator spans
/// more than one rank (the baseline is serial; its distributed
/// behaviour enters through trace replay).
#[derive(Debug)]
struct AmgPcg {
    opts: SolveOpts,
    /// The hierarchy the last prepare built.
    hierarchy: Option<MgHierarchy>,
    mg_trace: Option<MgTrace>,
}

impl AmgPcg {
    /// Registry factory (the V-cycle shape is fixed by [`MgOpts`]
    /// defaults; generic [`SolverParams`] carry nothing it consumes).
    fn from_params(_params: &SolverParams) -> Self {
        AmgPcg {
            opts: SolveOpts::default(),
            hierarchy: None,
            mg_trace: None,
        }
    }

    fn record(&mut self, t: MgTrace) {
        match &mut self.mg_trace {
            Some(acc) => acc.merge(&t),
            None => self.mg_trace = Some(t),
        }
    }
}

impl IterativeSolver for AmgPcg {
    fn name(&self) -> &'static str {
        "amg"
    }

    fn label(&self) -> String {
        "BoomerAMG".into()
    }

    /// Latches `opts` and builds the hierarchy from the context's
    /// assembly, recording its setup work.
    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        let asm = ctx.assembly.expect(
            "the AMG baseline builds its hierarchy from the density field: \
             construct the SolveContext with_assembly(..)",
        );
        let h = MgHierarchy::build(
            asm.density,
            asm.coefficient,
            asm.rx,
            asm.ry,
            MgOpts::default(),
        );
        self.record(MgTrace {
            level_shapes: h.shapes(),
            setup_cells: h.setup_cells,
            ..MgTrace::default()
        });
        self.hierarchy = Some(h);
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        let tile = ctx.tile;
        assert_eq!(
            tile.comm.size(),
            1,
            "the AMG baseline runs on a single tile; scaling comes from trace replay"
        );
        let hierarchy = self
            .hierarchy
            .as_mut()
            .expect("the AMG baseline solved before prepare");
        let mut mg_trace = MgTrace {
            level_shapes: hierarchy.shapes(),
            ..MgTrace::default()
        };
        let result = if hierarchy.is_singular() {
            // nothing to precondition with: the solve ends typed, before
            // its first V-cycle, like any other breakdown at iteration 0
            let mut result = SolveResult {
                converged: false,
                iterations: 0,
                initial_residual: f64::NAN,
                final_residual: f64::NAN,
                status: SolveStatus::IterationLimit,
                trace: SolveTrace::new("BoomerAMG"),
            };
            result.diverge();
            result
        } else {
            let mut step = Vcycle {
                hierarchy,
                mg_trace: &mut mg_trace,
            };
            let (mut k, _) = ws.krylov(tile.op, u, b);
            let entry = Entry::Fresh(SolveTrace::new("BoomerAMG"));
            pcg_loop(tile, &mut k, &mut step, entry, self.opts).0
        };
        self.record(mg_trace);
        trace.merge(&result.trace);
        result
    }

    /// The multigrid trace accumulated over all builds and solves since
    /// the last call (`None` if none ran).
    fn take_diagnostics(&mut self) -> Option<Box<dyn std::any::Any>> {
        self.mg_trace
            .take()
            .map(|t| Box::new(t) as Box<dyn std::any::Any>)
    }
}

/// The AMG instance of [`pcg_loop`]: `z = M⁻¹r` is one multigrid
/// V-cycle (SPD for symmetric smoothing, so `r·z` is a norm).
struct Vcycle<'a> {
    hierarchy: &'a mut MgHierarchy,
    mg_trace: &'a mut MgTrace,
}

impl Precondition<f64> for Vcycle<'_> {
    fn apply<C: Communicator + ?Sized>(
        &mut self,
        _tile: &Tile<'_, C>,
        k: &mut Krylov<'_, f64>,
        _trace: &mut SolveTrace,
    ) {
        self.hierarchy.vcycle(k.r, k.wz, self.mg_trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tea_comms::{HaloLayout, SerialComm};
    use tea_core::{
        Assembly, SessionSpec, SetupCache, Solve, SolveControls, SolveSession, SolveStatus,
        SolveTrace, StopHandle, TileBounds, TileOperator,
    };
    use tea_mesh::{
        crooked_pipe, timestep_scalings, Coefficient, Coefficients, Decomposition2D, Mesh2D,
    };

    struct Setup {
        op: TileOperator,
        density: Field2D,
        b: Field2D,
        coefficient: Coefficient,
        rx: f64,
        ry: f64,
    }

    fn setup(n: usize) -> Setup {
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
        Setup {
            op,
            density,
            b,
            coefficient: p.coefficient,
            rx,
            ry,
        }
    }

    /// A solve's result and the multigrid trace of its prepare + solve.
    struct Solved {
        result: SolveResult,
        mg_trace: MgTrace,
    }

    fn run(n: usize) -> (Solved, Field2D, Setup) {
        run_under(setup(n), SolveControls::default())
    }

    /// One prepare + solve through the trait, as a session's first
    /// solve runs it.
    fn run_under(s: Setup, controls: SolveControls<'_>) -> (Solved, Field2D, Setup) {
        let (n, _) = s.op.bounds.tile();
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile = Tile::with_controls(&s.op, &layout, comm.as_dyn(), controls);
        let ctx = SolveContext::with_assembly(
            &tile,
            Assembly {
                density: &s.density,
                coefficient: s.coefficient,
                rx: s.rx,
                ry: s.ry,
            },
        );
        let mut solver = amg();
        let mut ws = Workspace::new(n, n, 1);
        let mut u = s.b.clone();
        let mut trace = SolveTrace::new(solver.label());
        solver.prepare(&ctx, &SolveOpts::with_eps(1e-9));
        let result = solver.solve(&ctx, &mut u, &s.b, &mut ws, &mut trace);
        let mg_trace = *solver
            .take_diagnostics()
            .expect("a build and a solve ran")
            .downcast::<MgTrace>()
            .expect("AMG's diagnostics are its MgTrace");
        (Solved { result, mg_trace }, u, s)
    }

    /// An AMG solver, built the only way there is: by the registry.
    fn amg() -> Box<dyn IterativeSolver> {
        full_registry()
            .create("amg", &SolverParams::default())
            .expect("amg is registered")
    }

    /// A session over `s` checked out of `cache` the way the serving
    /// driver builds one: the job's own operator and density around the
    /// solver pooled for its setup (a hit) or a fresh one (a miss).
    fn checkout(cache: &SetupCache, s: &Setup) -> SolveSession {
        let spec = SessionSpec {
            opts: SolveOpts::with_eps(1e-9),
            ..SessionSpec::solver("amg")
        };
        cache.checkout(s.op.clone(), &spec, amg()).with_assembly(
            Arc::new(s.density.clone()),
            s.coefficient,
            s.rx,
            s.ry,
        )
    }

    /// A cold session over `s`, checked out of its own cache.
    fn cold_session(s: &Setup) -> SolveSession {
        checkout(&SetupCache::new(), s)
    }

    #[test]
    fn a_session_builds_once_and_solves_warm_like_cold() {
        let s = setup(32);
        let one_build =
            MgHierarchy::build(&s.density, s.coefficient, s.rx, s.ry, MgOpts::default())
                .setup_cells;
        // three jobs of one setup through one cache, each bringing its own
        // operator and density: the first builds the hierarchy, the other
        // two solve on it
        let cache = SetupCache::new();
        let mut vcycles = 0;
        for solve in 0..3 {
            let mut warm = checkout(&cache, &s);
            let mut u = s.b.clone();
            let got = warm.solve(&mut u, &s.b);
            let mut u_cold = s.b.clone();
            let want = cold_session(&s).solve(&mut u_cold, &s.b);
            assert!(got.converged, "solve {solve}");
            assert_eq!(u, u_cold, "solve {solve} drifted from a cold session");
            assert_eq!(got.iterations, want.iterations, "solve {solve}");
            assert_eq!(got.final_residual.to_bits(), want.final_residual.to_bits());
            vcycles += got.iterations + 1;
            cache.checkin(warm);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.prepares), (2, 1, 1));
        let mut warm = checkout(&cache, &s);
        let mg = *warm
            .take_diagnostics()
            .expect("the pooled solver solved")
            .downcast::<MgTrace>()
            .expect("AMG's diagnostics are its MgTrace");
        assert_eq!(mg.setup_cells, one_build, "three solves, one build");
        assert_eq!(mg.vcycles, vcycles);
        assert_eq!(warm.prepare_count(), 1);
    }

    #[test]
    fn amg_pcg_converges_and_solves() {
        let (res, u, s) = run(32);
        assert!(res.result.converged, "{:?}", res.result);
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(32, 32, 1);
        s.op.residual(&u, &s.b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / s.b.interior_norm() < 1e-7);
        assert_eq!(res.mg_trace.vcycles, res.result.iterations + 1);
        assert!(!res.mg_trace.level_shapes.is_empty());
    }

    #[test]
    fn a_cancelled_stop_handle_ends_the_solve_before_it_iterates() {
        let stop = StopHandle::new();
        stop.cancel();
        let (res, ..) = run_under(setup(16), SolveControls::stopping(&stop));
        assert_eq!(res.result.status, SolveStatus::Cancelled { iteration: 0 });
        assert!(!res.result.converged);
    }

    #[test]
    fn a_nan_right_hand_side_ends_diverged_at_once() {
        // not 10 000 NaN iterations to `IterationLimit`
        let mut s = setup(16);
        s.b.set(3, 3, f64::NAN);
        let (res, ..) = run_under(s, SolveControls::default());
        assert_eq!(res.result.status, SolveStatus::Diverged { iteration: 0 });
        assert!(res.result.final_residual.is_nan());
    }

    #[test]
    fn iteration_count_is_nearly_mesh_independent() {
        let (r32, ..) = run(32);
        let (r64, ..) = run(64);
        let (i32v, i64v) = (r32.result.iterations, r64.result.iterations);
        assert!(r32.result.converged && r64.result.converged);
        // the hallmark of multigrid: doubling the mesh should not
        // meaningfully grow the iteration count
        assert!(
            i64v <= i32v * 2,
            "AMG iterations grew too fast: {i32v} -> {i64v}"
        );
        assert!(i64v < 60, "AMG should converge in few iterations: {i64v}");
    }

    #[test]
    fn amg_pcg_beats_plain_cg_on_iterations() {
        let (res, _, s) = run(64);
        let mut u = s.b.clone();
        let cg = Solve::on(&s.op)
            .with_solver("cg")
            .eps(1e-9)
            .run(&mut u, &s.b)
            .expect("cg is registered");
        assert!(cg.converged);
        assert!(
            res.result.iterations * 2 < cg.iterations,
            "AMG-PCG ({}) must need far fewer iterations than CG ({})",
            res.result.iterations,
            cg.iterations
        );
    }

    #[test]
    fn trace_records_per_level_work() {
        let (res, ..) = run(64);
        let t = &res.mg_trace;
        assert!(t.setup_cells >= 64 * 64);
        assert_eq!(t.coarse_solves, t.vcycles);
        // every level above the coarsest gets sweeps each cycle
        for l in 0..t.level_shapes.len() - 1 {
            assert!(
                t.sweeps_at(l) >= t.vcycles,
                "level {l} undercounted: {} sweeps for {} cycles",
                t.sweeps_at(l),
                t.vcycles
            );
        }
    }
}
