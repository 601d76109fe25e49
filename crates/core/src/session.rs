//! Reusable solve sessions and the setup cache behind batched serving.
//!
//! The [`crate::Solve`] builder is one-shot: every [`crate::Solve::run`]
//! allocates a tile, a workspace and a solver, prepares, solves, and
//! throws the lot away. That is the right shape for a single solve, but
//! a serving queue that drains hundreds of decks — many of them
//! identical — pays the setup tax over and over: preconditioner
//! assembly, `f32` operator images, AMG's multigrid hierarchy.
//!
//! A [`SolveSession`] owns everything `Solve::run` allocated per call —
//! operator, the rank's halo layout, workspace, solver instance — and
//! keeps it alive across solves: the first solve prepares, every later
//! one skips it. The communicator and the accumulated trace stay the
//! caller's, lent per solve. Every entry point of the application
//! driver steps through one session per rank; the serving road checks
//! its session out of the cache below.
//!
//! On top sits a keyed pool of *prepared solvers*: `SetupKey`
//! fingerprints the setup — geometry, coefficient bits, solver
//! configuration, the routed solver name, halo depth — and
//! [`SetupCache::checkout`] wraps the operator the job assembled and a
//! fresh workspace of its shape around the solver pooled under its key
//! (a hit), or around the job's freshly constructed solver (a miss).
//! [`SetupCache::checkin`] keeps only the solver: the operator,
//! workspace and assembly recipe are every job's own, so the pool holds
//! nothing a later job re-creates anyway. Either way a job constructs
//! its solver once. Hit and miss counters feed the serving run summary.
//! A session built outside a cache has no key and never hashes its
//! coefficients.
//!
//! A prepared solver carries nothing from one solve to the next but the
//! state `prepare` built, and the key pins the coefficient bits that
//! state came from, so a solve on a pooled solver is bit-identical to a
//! cold one on the job's own operator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::api::{Assembly, IterativeSolver, Precision, SolveContext, SolverError, SolverParams};
use crate::builder::create_solver;
use crate::control::SolveControls;
use crate::ops::TileOperator;
use crate::precon::PreconKind;
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use tea_comms::{Communicator, HaloLayout, SerialComm};
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
/// prepared solver and get bit-identical results.
///
/// The key follows the serving design: geometry, a fingerprint of the
/// assembled face coefficients, the canonical solver name (which folds
/// in precision routing) and the solver's halo depth. The fingerprint is
/// deliberately broader than the coefficients alone — it also folds in
/// the solver parameters (preconditioner, inner steps, halo depth,
/// presteps, tune seed) and the convergence options, because a prepared
/// solver latches all of those: reusing a solver across jobs that
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

/// The halo layout of an operator on an undecomposed domain: one rank,
/// no neighbours.
pub(crate) fn serial_layout(op: &TileOperator) -> HaloLayout {
    let (nx, ny) = op.bounds.tile();
    HaloLayout::new(&Decomposition2D::with_grid(nx, ny, 1, 1), 0)
}

/// Assembly provenance a session can own (the borrowed
/// [`Assembly`] is rebuilt from it per solve) so hierarchy-building
/// solvers like AMG can live in sessions too. The density is shared
/// with whoever assembled the operator, never copied.
struct OwnedAssembly {
    density: Arc<Field2D>,
    coefficient: Coefficient,
    rx: f64,
    ry: f64,
}

/// A reusable solve on one rank: owns the operator, the rank's halo
/// layout, workspace and solver instance, so repeated solves skip
/// allocation and — after the first call — preparation. The
/// communicator is the caller's, lent per solve, so the caller reads
/// its traffic counters.
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
/// Sessions are `Send`, so a job's session runs on whichever serving
/// worker took the job. They are not `Sync`; one session runs one
/// solve at a time.
pub struct SolveSession {
    op: TileOperator,
    layout: HaloLayout,
    ws: Workspace,
    solver: Box<dyn IterativeSolver>,
    opts: SolveOpts,
    /// The pool slot of a session a [`SetupCache`] built; `None`
    /// outside a cache, which then never hashes the coefficients.
    key: Option<SetupKey>,
    assembly: Option<OwnedAssembly>,
    prepares: u64,
}

impl SolveSession {
    /// Builds a cold session over `op` on an undecomposed domain from
    /// `spec`, resolving the solver in the builtin registry. Nothing is
    /// prepared yet — the first [`SolveSession::solve`] does that.
    ///
    /// # Errors
    /// [`SolverError`] when the name or precision does not resolve.
    pub fn build(op: TileOperator, spec: &SessionSpec) -> Result<Self, SolverError> {
        let solver = create_solver(None, spec)?;
        let layout = serial_layout(&op);
        Ok(Self::new(op, layout, solver, spec.opts))
    }

    /// A cold session solving with `solver`, prepared under `opts`, over
    /// `op` on the rank `layout` describes.
    pub fn new(
        op: TileOperator,
        layout: HaloLayout,
        solver: Box<dyn IterativeSolver>,
        opts: SolveOpts,
    ) -> Self {
        let (nx, ny) = op.bounds.tile();
        SolveSession {
            ws: Workspace::new(nx, ny, solver.halo_depth()),
            op,
            layout,
            solver,
            opts,
            key: None,
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
        density: Arc<Field2D>,
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

    /// Solves `A u = b` on a session over an undecomposed domain, with
    /// `u` entering as the initial guess:
    /// [`SolveSession::solve_controlled`] over a serial communicator,
    /// disarmed, into a fresh trace.
    pub fn solve(&mut self, u: &mut Field2D, b: &Field2D) -> SolveResult {
        let mut trace = SolveTrace::new(self.solver.label());
        let comm = SerialComm::new();
        self.solve_controlled(&comm, u, b, SolveControls::default(), &mut trace)
    }

    /// Solves `A u = b` over `comm` with `u` entering as the initial
    /// guess, preparing on first use and reusing the prepared state
    /// afterwards. The solve observes `controls` (deadlines,
    /// cancellation, fault probes) and merges its protocol into `trace`,
    /// the [`IterativeSolver::solve`] convention.
    ///
    /// # Panics
    /// When `u` or `b` does not have the operator's tile and the
    /// workspace's halo (the solver's halo depth), at every thread
    /// count.
    pub fn solve_controlled(
        &mut self,
        comm: &dyn Communicator,
        u: &mut Field2D,
        b: &Field2D,
        controls: SolveControls<'_>,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        let assembly = self.assembly.as_ref().map(|a| Assembly {
            density: &a.density,
            coefficient: a.coefficient,
            rx: a.rx,
            ry: a.ry,
        });
        if self.prepares == 0 {
            let tile = Tile::new(&self.op, &self.layout, comm);
            let ctx = SolveContext {
                tile: &tile,
                assembly,
            };
            self.solver.prepare(&ctx, &self.opts);
            self.prepares = 1;
        }
        self.ws.check_operands(&self.op, u, b);
        let tile = Tile::with_controls(&self.op, &self.layout, comm, controls);
        let ctx = SolveContext {
            tile: &tile,
            assembly,
        };
        self.solver.solve(&ctx, u, b, &mut self.ws, trace)
    }
}

/// Setup-cache counters surfaced in the serving run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Checkouts that found a pooled solver.
    pub hits: u64,
    /// Checkouts that found nothing (the job's own solver ran cold).
    pub misses: u64,
    /// Total `prepare` calls across the pooled solvers.
    pub prepares: u64,
}

/// A solver idle in a [`SetupCache`]: the one thing a later job with
/// the same key cannot cheaply re-create. Operator, workspace and
/// assembly recipe are every job's own and are never pooled.
struct Prepared {
    solver: Box<dyn IterativeSolver>,
    prepares: u64,
}

/// A keyed pool of idle prepared solvers shared across serving
/// workers. [`SetupCache::checkout`] builds a job's session around the
/// solver pooled for its key (hit) or around the job's own (miss); the
/// job checks the session back in when it ends, and the pool keeps its
/// solver. On the benchmark's `serve_mix` (seed 7) the 20 pooled
/// solvers hold 3.4 MiB of heap — AMG hierarchies, `f32` operator
/// images and their scratch, block-Jacobi factors — where 20 whole
/// sessions held 14.5 MiB.
///
/// Interior-locked, so workers share it behind a plain `Arc`.
#[derive(Default)]
pub struct SetupCache {
    pool: Mutex<BTreeMap<SetupKey, Vec<Prepared>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SetupCache {
    /// An empty cache.
    pub fn new() -> Self {
        SetupCache::default()
    }

    /// The session for a job that assembled `op` and constructed
    /// `solver` for it, on an undecomposed domain: `op` and a zeroed
    /// workspace of the job's shape around the solver pooled under the
    /// job's `SetupKey` (a hit — `solver` is dropped and nothing is
    /// re-prepared), or around `solver` itself (a miss). The caller
    /// attaches its assembly recipe with [`SolveSession::with_assembly`]
    /// either way. The coefficients are fingerprinted once and no second
    /// solver is constructed on either branch.
    pub fn checkout(
        &self,
        op: TileOperator,
        spec: &SessionSpec,
        solver: Box<dyn IterativeSolver>,
    ) -> SolveSession {
        let key = SetupKey::of(&op, spec, solver.as_ref());
        let pooled = crate::lock_tolerant(&self.pool)
            .get_mut(&key)
            .and_then(Vec::pop);
        let (solver, prepares) = match pooled {
            Some(Prepared { solver, prepares }) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (solver, prepares)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (solver, 0)
            }
        };
        let layout = serial_layout(&op);
        SolveSession {
            key: Some(key),
            prepares,
            ..SolveSession::new(op, layout, solver, spec.opts)
        }
    }

    /// Pools the session's solver under the session's key and drops the
    /// rest — operator, workspace, assembly recipe — which the next job
    /// brings its own of. A session no cache built has no key and is
    /// dropped whole.
    pub fn checkin(&self, session: SolveSession) {
        let SolveSession {
            solver,
            key,
            prepares,
            ..
        } = session;
        if let Some(key) = key {
            crate::lock_tolerant(&self.pool)
                .entry(key)
                .or_default()
                .push(Prepared { solver, prepares });
        }
    }

    /// Idle prepared solvers currently pooled.
    pub fn pooled(&self) -> usize {
        crate::lock_tolerant(&self.pool)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Counters so far. `prepares` sums over the solvers currently
    /// pooled — take the snapshot after every job has checked its
    /// session back in.
    pub fn stats(&self) -> CacheStats {
        let prepares = crate::lock_tolerant(&self.pool)
            .values()
            .flatten()
            .map(|p| p.prepares)
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

        // precision splits the pool through the routed solver name alone:
        // asking for f64 explicitly keys with the unrouted spec
        let mut f32_spec = SessionSpec::solver("cg");
        f32_spec.precision = Some(Precision::F32);
        let routed = key_of(&op, &f32_spec);
        assert_ne!(native, routed);
        assert_eq!(routed.solver, "cg_f32");
        let mut f64_spec = SessionSpec::solver("cg");
        f64_spec.precision = Some(Precision::F64);
        assert_eq!(key_of(&op, &f64_spec), native);

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
        registry.register(meta, |m, p| {
            CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
            Box::new(crate::cg::Cg::from_params(m, p))
        });

        let spec = spec_for("cg");
        let (op, b) = crooked_pipe_system(16, 0.04, 1);
        let cache = SetupCache::new();
        // the serving driver's sequence: construct the job's solver (to
        // read its halo depth), then ask the cache for a session
        let job = |constructed_so_far: u64| {
            let solver = registry.create(&spec.solver, &spec.params).unwrap();
            let mut session = cache.checkout(op.clone(), &spec, solver);
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
    fn a_hit_runs_the_pooled_solver_on_the_jobs_operator_and_a_fresh_workspace() {
        let spec = spec_for("ppcg");
        let depth = halo_for(&spec);
        let (op, b) = crooked_pipe_system(16, 0.04, depth);
        let cache = SetupCache::new();
        let solver = || create_solver(None, &spec).unwrap();

        let mut first = cache.checkout(op.clone(), &spec, solver());
        let mut u_first = b.clone();
        let reference = first.solve(&mut u_first, &b);
        cache.checkin(first);
        assert_eq!(cache.pooled(), 1, "the pool counts solvers");

        // a later job of the same key brings its own operator
        let job_op = op.clone();
        let kx = job_op.coeffs.kx.raw().as_ptr();
        let mut hit = cache.checkout(job_op, &spec, solver());
        assert_eq!(cache.pooled(), 0, "the pooled solver is checked out");
        assert_eq!(
            hit.op.coeffs.kx.raw().as_ptr(),
            kx,
            "a hit runs on the operator the job passed in"
        );
        let ws = &hit.ws;
        for field in [&ws.p, &ws.r, &ws.w, &ws.sd, &ws.rr, &ws.tmp] {
            assert_eq!((field.nx(), field.ny(), field.halo()), (16, 16, depth));
            assert!(
                field.raw().iter().all(|&v| v == 0.0),
                "a hit gets a zeroed workspace, not the last job's"
            );
        }
        assert_eq!(hit.prepare_count(), 1, "the solver comes prepared");
        let mut u = b.clone();
        let got = hit.solve(&mut u, &b);
        assert_eq!(hit.prepare_count(), 1, "a hit does not re-prepare");
        assert_eq!(u, u_first, "a pooled solver solves like the job's own");
        assert_eq!(got.iterations, reference.iterations);
        assert_eq!(
            got.final_residual.to_bits(),
            reference.final_residual.to_bits()
        );
        cache.checkin(hit);

        // another shape is another key: its solver pools alongside
        let (small, _) = crooked_pipe_system(12, 0.04, depth);
        cache.checkin(cache.checkout(small, &spec, solver()));
        assert_eq!(cache.pooled(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.prepares), (1, 2, 1));
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
