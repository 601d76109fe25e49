//! Reusable solve sessions and the setup cache behind batched serving.
//!
//! The [`crate::Solve`] builder is one-shot: every [`crate::Solve::run`]
//! allocates a tile, a workspace and a solver, prepares, solves, and
//! throws the lot away. That is the right shape for a single solve, but
//! a serving queue that drains hundreds of decks — many of them
//! identical — pays the setup tax over and over: workspace allocation,
//! preconditioner assembly, AMG's multigrid hierarchy.
//!
//! A [`SolveSession`] owns everything `Solve::run` allocated per call —
//! operator, serial tile plumbing, workspace, solver instance — and
//! keeps it alive across solves: the first [`SolveSession::solve`]
//! prepares, every later one skips it. The application driver's one
//! time-step loop has two step-solvers: the reference one reassembles
//! and re-prepares every step, the serving one solves through a session
//! checked out of the cache below.
//!
//! On top sits a keyed pool: `SetupKey` fingerprints the setup —
//! geometry, coefficient bits, solver configuration, precision, halo
//! depth — and [`SetupCache::checkout_or_build`] hands a job the warm
//! session pooled under its key, or wraps the job's freshly constructed
//! solver into a cold one. Either way a job constructs its solver once.
//! Hit and miss counters feed the serving run summary.
//!
//! A prepared solver carries nothing from one solve to the next but the
//! state `prepare` built, so a warm solve is bit-identical to a cold one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::api::{
    Assembly, DynTile, IterativeSolver, Precision, SolveContext, SolverError, SolverParams,
};
use crate::builder::create_solver;
use crate::control::SolveControls;
use crate::ops::TileOperator;
use crate::precon::PreconKind;
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use tea_comms::{Communicator, HaloLayout, SerialComm, StatsSnapshot};
use tea_mesh::{Coefficient, Decomposition2D, Field2D};

/// Everything a session needs to know besides the operator: which
/// solver, at which precision, with which convergence options and
/// method knobs — the configuration half of the [`crate::Solve`]
/// builder, which carries one.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Solver name (canonical or alias) to resolve in the registry.
    pub solver: String,
    /// Optional precision routing (`None` runs the name as registered).
    pub precision: Option<Precision>,
    /// Convergence options latched at prepare time.
    pub opts: SolveOpts,
    /// Method knobs consumed by the solver factory.
    pub params: SolverParams,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            solver: "cg".to_string(),
            precision: None,
            opts: SolveOpts::default(),
            params: SolverParams::default(),
        }
    }
}

impl SessionSpec {
    /// Spec for `solver` with every other knob at its default.
    pub fn solver(name: impl Into<String>) -> Self {
        SessionSpec {
            solver: name.into(),
            ..SessionSpec::default()
        }
    }
}

/// Identity of a prepared setup: two jobs with equal keys can share a
/// [`SolveSession`] and get bit-identical results.
///
/// The key follows the serving design: geometry, a fingerprint of the
/// assembled face coefficients, the canonical solver name, the
/// requested precision and the solver's halo depth. The fingerprint is
/// deliberately broader than the coefficients alone — it also folds in
/// the solver parameters (preconditioner, inner steps, halo depth,
/// presteps, tune seed) and the convergence options, because a prepared
/// solver latches all of those: reusing a session across jobs that
/// differ in any of them would silently change results.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SetupKey {
    /// Interior cells in x.
    pub nx: usize,
    /// Interior cells in y.
    pub ny: usize,
    /// Word-wise FNV-1a over the coefficient bits, solver parameters and
    /// options.
    pub fingerprint: u64,
    /// Canonical registry name after precision routing (`"cg_f32"`, not
    /// `"cg"` + `F32`).
    pub solver: String,
    /// Requested precision label (`"native"` when the spec did not
    /// route).
    pub precision: &'static str,
    /// Halo depth of the built solver (matrix-powers depth for PPCG).
    pub halo_depth: usize,
}

impl SetupKey {
    /// The key of a session running `solver` over `(op, spec)`. Name
    /// and halo depth are properties of the built instance (PPCG reads
    /// its depth from the params, `auto` reports its deepest
    /// candidate), so they are read from the one the job constructed.
    fn of(op: &TileOperator, spec: &SessionSpec, solver: &dyn IterativeSolver) -> SetupKey {
        let (nx, ny) = op.bounds.tile();
        SetupKey {
            nx,
            ny,
            fingerprint: fingerprint(op, spec),
            solver: solver.name().to_string(),
            precision: spec.precision.map(Precision::label).unwrap_or("native"),
            halo_depth: solver.halo_depth(),
        }
    }
}

/// 64-bit FNV-1a accumulator over 64-bit words: one xor-multiply step
/// per word, not per byte. Each step is a bijection of the state for a
/// given word, so two inputs that differ in a single word always hash
/// apart.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push_u64(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Every allocated bit of `field`, ghosts included.
    fn push_field(&mut self, field: &Field2D) {
        let depth = field.halo() as isize;
        let (nx, ny) = (field.nx() as isize, field.ny() as isize);
        for k in -depth..ny + depth {
            for &v in field.row(k, -depth, nx + depth) {
                self.push_f64(v);
            }
        }
    }
}

/// Hashes every allocated coefficient bit (interior and ghosts — deep-
/// halo methods read the ghosts) plus the solver parameters and options
/// a prepared solver latches.
fn fingerprint(op: &TileOperator, spec: &SessionSpec) -> u64 {
    let mut h = Fnv::new();
    h.push_field(&op.coeffs.kx);
    h.push_field(&op.coeffs.ky);
    let p = &spec.params;
    h.push_u64(match p.precon {
        PreconKind::None => 0,
        PreconKind::Diagonal => 1,
        PreconKind::BlockJacobi => 2,
    });
    h.push_u64(p.inner_steps as u64);
    h.push_u64(p.halo_depth as u64);
    h.push_u64(p.presteps);
    h.push_u64(p.tune_seed);
    h.push_f64(spec.opts.eps);
    h.push_u64(spec.opts.max_iters);
    h.0
}

/// The plumbing around an operator on an undecomposed domain: the 1×1
/// halo layout and the serial communicator. The one place a single-tile
/// solve — [`crate::Solve::run`], a session's prepare, a session's
/// solve — gets its [`Tile`] from.
pub(crate) struct SerialTile {
    layout: HaloLayout,
    comm: SerialComm,
}

impl SerialTile {
    pub(crate) fn new(op: &TileOperator) -> Self {
        let (nx, ny) = op.bounds.tile();
        SerialTile {
            layout: HaloLayout::new(&Decomposition2D::with_grid(nx, ny, 1, 1), 0),
            comm: SerialComm::new(),
        }
    }

    pub(crate) fn tile<'a>(
        &'a self,
        op: &'a TileOperator,
        controls: SolveControls<'a>,
    ) -> DynTile<'a> {
        Tile::with_controls(op, &self.layout, self.comm.as_dyn(), controls)
    }
}

/// Assembly provenance a session can own (the borrowed
/// [`Assembly`] is rebuilt from it per solve) so hierarchy-building
/// solvers like AMG can live in sessions too.
struct OwnedAssembly {
    density: Field2D,
    coefficient: Coefficient,
    rx: f64,
    ry: f64,
}

/// A reusable solve: owns the operator, tile plumbing, workspace and
/// solver instance, so repeated solves skip allocation and — after the
/// first call — preparation.
///
/// ```
/// use tea_core::{crooked_pipe_system, SessionSpec, SolveSession};
///
/// let (op, b) = crooked_pipe_system(24, 0.04, 1);
/// let mut session = SolveSession::build(op, &SessionSpec::default()).unwrap();
/// let mut u = b.clone();
/// let first = session.solve(&mut u, &b); // prepares, then solves
/// let again = session.solve(&mut u, &b); // reuses the prepared state
/// assert!(first.converged && again.converged);
/// assert_eq!(session.prepare_count(), 1);
/// ```
///
/// Sessions are `Send`: a serving queue can move idle sessions between
/// worker threads. They are not `Sync`; one session runs one solve at a
/// time.
// audit:allow(dead_pub) — what `SetupCache::checkout_or_build` hands tea-app's driver.rs,
// which solves through it without spelling the type
pub struct SolveSession {
    op: TileOperator,
    serial: SerialTile,
    ws: Workspace,
    solver: Box<dyn IterativeSolver>,
    opts: SolveOpts,
    key: SetupKey,
    assembly: Option<OwnedAssembly>,
    prepares: u64,
}

impl SolveSession {
    /// Builds a cold session over `op` from `spec`, resolving the solver
    /// in the builtin registry (a [`SetupCache`] takes an instance built
    /// from any registry). Nothing is prepared yet — the first
    /// [`SolveSession::solve`] does that.
    ///
    /// # Errors
    /// [`SolverError`] when the name or precision does not resolve.
    pub fn build(op: TileOperator, spec: &SessionSpec) -> Result<Self, SolverError> {
        let solver = create_solver(None, spec)?;
        let key = SetupKey::of(&op, spec, solver.as_ref());
        Ok(Self::keyed(op, spec, solver, key))
    }

    fn keyed(
        op: TileOperator,
        spec: &SessionSpec,
        solver: Box<dyn IterativeSolver>,
        key: SetupKey,
    ) -> Self {
        let (nx, ny) = op.bounds.tile();
        SolveSession {
            serial: SerialTile::new(&op),
            ws: Workspace::new(nx, ny, solver.halo_depth()),
            op,
            solver,
            opts: spec.opts,
            key,
            assembly: None,
            prepares: 0,
        }
    }

    /// Attaches the assembly recipe behind the operator, for solvers
    /// whose `prepare` builds a hierarchy from it (AMG). `density`
    /// must carry a halo at least as deep as the operator's
    /// coefficients.
    #[must_use]
    pub fn with_assembly(
        mut self,
        density: Field2D,
        coefficient: Coefficient,
        rx: f64,
        ry: f64,
    ) -> Self {
        self.assembly = Some(OwnedAssembly {
            density,
            coefficient,
            rx,
            ry,
        });
        self
    }

    /// Human-readable solver label (e.g. `"PPCG-16"`).
    pub fn solver_label(&self) -> String {
        self.solver.label()
    }

    /// How many times this session has run the solver's `prepare` —
    /// exactly once for any number of solves, which is the point.
    // audit:allow(dead_pub) — asserted by the `SolveSession` doctest and README's session example
    pub fn prepare_count(&self) -> u64 {
        self.prepares
    }

    /// Drains the solver's type-erased diagnostics (AMG's multigrid
    /// trace) — the session pass-through of
    /// [`IterativeSolver::take_diagnostics`].
    pub fn take_diagnostics(&mut self) -> Option<Box<dyn std::any::Any>> {
        self.solver.take_diagnostics()
    }

    /// Zeroes the session communicator's counters — the serving queue
    /// calls this at job checkout so [`SolveSession::comm_stats`] at
    /// job end reads per-job traffic, not lifetime traffic.
    pub fn reset_comm_stats(&self) {
        self.serial.comm.stats().reset();
    }

    /// Communication counters since the last
    /// [`SolveSession::reset_comm_stats`].
    pub fn comm_stats(&self) -> StatsSnapshot {
        self.serial.comm.stats().snapshot()
    }

    /// Solves `A u = b` with `u` entering as the initial guess,
    /// preparing on first use and reusing the prepared state afterwards.
    pub fn solve(&mut self, u: &mut Field2D, b: &Field2D) -> SolveResult {
        self.solve_controlled(u, b, SolveControls::default())
    }

    /// [`SolveSession::solve`] with an armed control bundle: the
    /// serving path's entry point for deadlines, cancellation and fault
    /// probes.
    pub fn solve_controlled(
        &mut self,
        u: &mut Field2D,
        b: &Field2D,
        controls: SolveControls<'_>,
    ) -> SolveResult {
        if self.prepares == 0 {
            let opts = self.opts;
            self.in_context(SolveControls::default(), |solver, ctx, _| {
                solver.prepare(ctx, &opts)
            });
            self.prepares = 1;
        }
        self.in_context(controls, |solver, ctx, ws| {
            let mut trace = SolveTrace::new(solver.label());
            solver.solve(ctx, u, b, ws, &mut trace)
        })
    }

    /// Runs `f` on the solver inside the session's solve context.
    fn in_context<R>(
        &mut self,
        controls: SolveControls<'_>,
        f: impl FnOnce(&mut dyn IterativeSolver, &SolveContext<'_>, &mut Workspace) -> R,
    ) -> R {
        let tile = self.serial.tile(&self.op, controls);
        let ctx = match &self.assembly {
            Some(a) => SolveContext::with_assembly(
                &tile,
                Assembly {
                    density: &a.density,
                    coefficient: a.coefficient,
                    rx: a.rx,
                    ry: a.ry,
                },
            ),
            None => SolveContext::new(&tile),
        };
        f(self.solver.as_mut(), &ctx, &mut self.ws)
    }
}

/// Setup-cache counters surfaced in the serving run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Checkouts that found a warm session.
    pub hits: u64,
    /// Checkouts that found nothing (the job's session was built cold).
    pub misses: u64,
    /// Total `prepare` calls across the pooled sessions.
    pub prepares: u64,
}

/// A keyed pool of idle [`SolveSession`]s shared across serving
/// workers. [`SetupCache::checkout_or_build`] pops the warm session for
/// a job's key (hit) or builds the job a cold one (miss); the job checks
/// whichever it got back in when it ends.
///
/// Interior-locked, so workers share it behind a plain `Arc`.
#[derive(Default)]
pub struct SetupCache {
    pool: Mutex<BTreeMap<SetupKey, Vec<SolveSession>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SetupCache {
    /// An empty cache.
    pub fn new() -> Self {
        SetupCache::default()
    }

    /// The session for a job that assembled `op` and constructed
    /// `solver` for it: the idle one pooled under the job's
    /// `SetupKey` (a hit — `op` and `solver` are dropped), or a cold
    /// one wrapping `op` and `solver` and finished by `cold` (a miss;
    /// `cold` is where the job attaches its assembly recipe). The
    /// coefficients are fingerprinted once and no second solver is
    /// constructed on either branch.
    pub fn checkout_or_build(
        &self,
        op: TileOperator,
        spec: &SessionSpec,
        solver: Box<dyn IterativeSolver>,
        cold: impl FnOnce(SolveSession) -> SolveSession,
    ) -> SolveSession {
        let key = SetupKey::of(&op, spec, solver.as_ref());
        let warm = crate::sync::lock_tolerant(&self.pool)
            .get_mut(&key)
            .and_then(Vec::pop);
        match warm {
            Some(session) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                session
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                cold(SolveSession::keyed(op, spec, solver, key))
            }
        }
    }

    /// Returns a session to the pool under its own key.
    pub fn checkin(&self, session: SolveSession) {
        let key = session.key.clone();
        crate::sync::lock_tolerant(&self.pool)
            .entry(key)
            .or_default()
            .push(session);
    }

    /// Idle sessions currently pooled.
    pub fn pooled(&self) -> usize {
        crate::sync::lock_tolerant(&self.pool)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Counters so far. `prepares` sums over the sessions currently
    /// pooled — take the snapshot after every job has checked its
    /// session back in.
    pub fn stats(&self) -> CacheStats {
        let prepares = crate::sync::lock_tolerant(&self.pool)
            .values()
            .flatten()
            .map(SolveSession::prepare_count)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prepares,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::crooked_pipe_system;

    fn assert_send<T: Send>() {}

    #[test]
    fn sessions_and_cache_are_send() {
        assert_send::<SolveSession>();
        assert_send::<SetupCache>();
    }

    fn spec_for(solver: &str) -> SessionSpec {
        let mut spec = SessionSpec::solver(solver);
        spec.opts.eps = 1e-8;
        if solver == "ppcg" {
            spec.params.halo_depth = 4;
        }
        spec
    }

    fn halo_for(spec: &SessionSpec) -> usize {
        spec.params.halo_depth.max(1)
    }

    fn key_of(op: &TileOperator, spec: &SessionSpec) -> SetupKey {
        SetupKey::of(op, spec, create_solver(None, spec).unwrap().as_ref())
    }

    #[test]
    fn warm_solve_is_bit_identical_to_cold() {
        for solver in ["cg", "chebyshev", "ppcg", "mixed_ppcg"] {
            let spec = spec_for(solver);
            let (op, b) = crooked_pipe_system(24, 0.04, halo_for(&spec));

            let mut warm = SolveSession::build(op.clone(), &spec).unwrap();
            assert_eq!(warm.prepare_count(), 0, "{solver}: nothing prepared yet");
            let mut u_first = b.clone();
            let first = warm.solve(&mut u_first, &b);
            let mut u_warm = b.clone();
            let second = warm.solve(&mut u_warm, &b);

            let mut cold = SolveSession::build(op, &spec).unwrap();
            let mut u_cold = b.clone();
            let reference = cold.solve(&mut u_cold, &b);

            assert!(first.converged, "{solver}: first solve diverged");
            assert_eq!(
                u_warm, u_cold,
                "{solver}: warm solve drifted from a cold session"
            );
            assert_eq!(second.iterations, reference.iterations, "{solver}");
            assert_eq!(second.final_residual, reference.final_residual, "{solver}");
            assert_eq!(
                second.trace.eigen_bounds, reference.trace.eigen_bounds,
                "{solver}"
            );
            assert_eq!(warm.prepare_count(), 1, "{solver}: session re-prepared");
        }
    }

    #[test]
    fn setup_keys_distinguish_precision_and_depth() {
        let (op, _) = crooked_pipe_system(16, 0.04, 4);

        let native = key_of(&op, &SessionSpec::solver("cg"));
        let same = key_of(&op, &SessionSpec::solver("cg"));
        assert_eq!(native, same, "identical specs must pool together");

        let mut f32_spec = SessionSpec::solver("cg");
        f32_spec.precision = Some(Precision::F32);
        let routed = key_of(&op, &f32_spec);
        assert_ne!(native, routed);
        assert_eq!(routed.solver, "cg_f32");
        assert_eq!(routed.precision, "f32");

        let mut shallow = SessionSpec::solver("ppcg");
        shallow.params.halo_depth = 2;
        let mut deep = SessionSpec::solver("ppcg");
        deep.params.halo_depth = 4;
        let k2 = key_of(&op, &shallow);
        let k4 = key_of(&op, &deep);
        assert_ne!(k2, k4, "halo depth must split the pool");
        assert_eq!(k2.halo_depth, 2);
        assert_eq!(k4.halo_depth, 4);

        let mut loose = SessionSpec::solver("cg");
        loose.opts.eps = 1e-4;
        let kl = key_of(&op, &loose);
        assert_ne!(native, kl, "latched options must split the pool");
        assert_ne!(
            native.fingerprint, kl.fingerprint,
            "eps alone must move the hash"
        );

        // one coefficient word one ulp apart, interior or ghost (deep-halo
        // methods read the ghosts), must move the word-wise hash
        for (j, k, what) in [(5, 7, "interior"), (-2, 3, "ghost")] {
            let mut nudged = op.clone();
            let v = nudged.coeffs.kx.at(j, k);
            nudged.coeffs.kx.set(j, k, f64::from_bits(v.to_bits() + 1));
            let kn = key_of(&nudged, &SessionSpec::solver("cg"));
            assert_ne!(native.fingerprint, kn.fingerprint, "{what} coefficient");
        }
    }

    #[test]
    fn a_job_constructs_its_solver_once_cold_or_warm() {
        static CONSTRUCTED: AtomicU64 = AtomicU64::new(0);
        let mut registry = crate::SolverRegistry::builtin();
        let meta = *registry.resolve("cg").unwrap();
        registry.register(meta, |p| {
            CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
            Box::new(crate::Cg::from_params(p))
        });

        let spec = spec_for("cg");
        let (op, b) = crooked_pipe_system(16, 0.04, 1);
        let cache = SetupCache::new();
        // the serving driver's sequence: construct the job's solver (to
        // read its halo depth), then ask the cache for a session
        let job = |constructed_so_far: u64| {
            let solver = registry.create(&spec.solver, &spec.params).unwrap();
            let mut session = cache.checkout_or_build(op.clone(), &spec, solver, |cold| cold);
            assert_eq!(CONSTRUCTED.load(Ordering::Relaxed), constructed_so_far);
            let mut u = b.clone();
            assert!(session.solve(&mut u, &b).converged);
            assert_eq!(session.prepare_count(), 1);
            cache.checkin(session);
        };
        job(1); // cold: the job's instance lands in the session
        assert_eq!(cache.pooled(), 1);
        job(2); // warm: the job's instance is dropped, the pooled one solves

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.prepares, 1, "the warm checkout must not re-prepare");
    }

    #[test]
    fn concurrent_sessions_do_not_share_scratch() {
        let spec = spec_for("chebyshev");
        let (op, b) = crooked_pipe_system(24, 0.04, 1);
        let mut reference_session = SolveSession::build(op.clone(), &spec).unwrap();
        let mut u_ref = b.clone();
        reference_session.solve(&mut u_ref, &b);

        let results: Vec<Field2D> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let op = op.clone();
                    let b = &b;
                    let spec = &spec;
                    scope.spawn(move || {
                        let mut session = SolveSession::build(op, spec).unwrap();
                        let mut u = b.clone();
                        // Two solves each, so warm state is exercised
                        // while the neighbours are mid-solve.
                        session.solve(&mut u, b);
                        let mut u = b.clone();
                        session.solve(&mut u, b);
                        u
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (i, u) in results.iter().enumerate() {
            assert_eq!(
                u, &u_ref,
                "thread {i} drifted from the serial reference — shared scratch?"
            );
        }
    }
}
