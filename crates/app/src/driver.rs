//! The TeaLeaf application driver.
//!
//! Once per run, each rank assembles its face coefficients `Kx, Ky`
//! from density and `dt` — density is constant, so the system matrix
//! is too — and builds one [`SolveSession`] around them. Then, per time
//! step (matching the reference `tea_solve` loop), on one field `b`
//! that holds the energy between solves and the right-hand side during
//! one:
//!
//! 1. `b ← ρ·b` — the right-hand side `u⁰ = ρ·e`, in place;
//! 2. solve `A·u = b` through the session (warm start `u = b`; the
//!    first solve prepares the solver, every later one reuses it);
//! 3. `b ← u/ρ` — fold the new temperature back into energy;
//! 4. field summary (reduced diagnostics) at the reporting cadence.
//!
//! Energy is never read during a solve, so it needs no field of its
//! own: a run keeps `density`, `b`, `u`, the operator's `Kx`, `Ky` and
//! the solver's workspace resident, and nothing else.
//!
//! One road runs through this file: every entry point — [`run_rank`]
//! (serially via [`run_serial`], one thread per rank via
//! [`run_threaded_ranks`]) and the serving road
//! [`run_serial_session_with`] — calls the same private `drive`, which
//! differs only in whether the session's solver comes out of a
//! [`SetupCache`]: the serving road wraps its own operator, workspace
//! and density around a prepared solver pooled by an earlier job with
//! the same setup, and pools only that solver when the job ends.
//! Decomposed runs gather the final temperature field to rank 0 for
//! output.

use std::sync::Arc;

use crate::deck::Deck;
use crate::summary::{field_summary, FieldSummary};
use tea_amg::MgTrace;
use tea_comms::{
    gather_to_root, run_threaded as comm_run, Communicator, HaloLayout, SerialComm, StatsSnapshot,
};
use tea_core::{
    IterativeSolver, SetupCache, SolveControls, SolveResult, SolveSession, SolveStatus, SolveTrace,
    TileBounds, TileOperator,
};
use tea_mesh::{timestep_scalings, Coefficient, Coefficients, Decomposition2D, Field2D, Mesh2D};
use tea_tune::TuneLog;

/// Why a deck could not be driven. Until this type existed the driver
/// panicked on malformed decks, which is unacceptable once a serving
/// queue feeds it jobs from untrusted lists — one bad deck must fail
/// its own job, not the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The deck's problem definition failed validation.
    InvalidProblem(String),
    /// A control value is outside the range the solvers accept
    /// ([`crate::Control::check`]); the message names the deck key.
    InvalidControl(String),
    /// The solver name or precision did not resolve in the registry, or
    /// the solve's session refused its inputs.
    Solver(String),
    /// A serial-only solver was asked to run decomposed.
    SerialOnly {
        /// The offending solver's canonical name.
        solver: String,
        /// Communicator size of the attempted run.
        ranks: usize,
    },
    /// The decomposition does not match the communicator size.
    DecompositionMismatch {
        /// Ranks in the decomposition.
        decomp: usize,
        /// Ranks in the communicator.
        comm: usize,
    },
    /// A solve produced a non-finite residual instead of converging —
    /// the structured form of what used to burn the whole iteration
    /// cap on NaNs. The serving layer escalates these along the
    /// precision ladder.
    Diverged {
        /// Canonical name of the solver that diverged.
        solver: String,
        /// 1-based time step whose solve diverged.
        step: u64,
        /// Outer iteration at which divergence was detected.
        iteration: u64,
    },
    /// A solve was cancelled by its stop handle (deadline or explicit
    /// cancellation) before finishing.
    Cancelled {
        /// 1-based time step whose solve was cancelled.
        step: u64,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::InvalidProblem(why) => write!(f, "invalid problem: {why}"),
            DriverError::InvalidControl(why) => write!(f, "invalid control: {why}"),
            DriverError::Solver(why) => write!(f, "solver selection failed: {why}"),
            DriverError::SerialOnly { solver, ranks } => write!(
                f,
                "the {solver} solver runs serially (see its docs), got {ranks} ranks"
            ),
            DriverError::DecompositionMismatch { decomp, comm } => write!(
                f,
                "decomposition has {decomp} ranks but the communicator has {comm}"
            ),
            DriverError::Diverged {
                solver,
                step,
                iteration,
            } => write!(
                f,
                "{solver} diverged (non-finite residual) at step {step}, iteration {iteration}"
            ),
            DriverError::Cancelled { step } => {
                write!(f, "solve cancelled at step {step} (deadline or stop)")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Per-step record of the driver.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// 1-based step index.
    pub step: u64,
    /// Simulation time after the step.
    pub time: f64,
    /// Solver iterations spent.
    pub iterations: u64,
    /// Whether the solve converged.
    pub converged: bool,
    /// The solve's initial residual norm, as
    /// [`SolveResult::initial_residual`] reports it.
    pub initial_residual: f64,
    /// The solve's final residual norm, as
    /// [`SolveResult::final_residual`] reports it.
    pub final_residual: f64,
    /// Diagnostics (present on reporting steps).
    pub summary: Option<FieldSummary>,
    /// Wall-clock seconds for the solve.
    pub wall: f64,
}

/// Everything a rank returns from a run.
#[derive(Debug)]
pub struct RankOutput {
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Accumulated solver protocol over all steps.
    pub trace: SolveTrace,
    /// Accumulated multigrid protocol (AMG runs only).
    pub mg_trace: Option<MgTrace>,
    /// Auto-tuning decision record (`tl_solver=auto` runs only).
    pub tune: Option<TuneLog>,
    /// Final gathered temperature field (rank 0 only).
    pub final_u: Option<Field2D>,
    /// Final summary.
    pub final_summary: FieldSummary,
    /// This rank's communication counters over the whole run, with
    /// point-to-point volume accounted in real bytes by element width
    /// (native `f32` halo exchanges count 4 bytes per element).
    pub comm: StatsSnapshot,
}

/// Validates the deck's problem and control values, resolves its solver
/// by name in [`crate::solver_registry`] and constructs the run's one
/// instance of it. Everything after this drives it through the
/// [`tea_core::IterativeSolver`] trait — the driver contains no
/// per-solver dispatch, so registering a new method makes it deck- and
/// CLI-selectable without touching this file.
fn resolve(deck: &Deck, ranks: usize) -> Result<Box<dyn IterativeSolver>, DriverError> {
    deck.problem
        .validate()
        .map_err(DriverError::InvalidProblem)?;
    let registry = crate::solver_registry();
    let solver_err = |e: tea_core::SolverError| DriverError::Solver(e.to_string());
    // tl_precision re-routes along the solver's registered family; at
    // the default f64 this is the identity on the deck's solver name
    let name = deck
        .control
        .effective_solver()
        .map_err(DriverError::Solver)?;
    let meta = registry.resolve(&name).map_err(solver_err)?;
    deck.control
        .check(&deck.problem, meta.name)
        .map_err(DriverError::InvalidControl)?;
    if meta.serial_only && ranks != 1 {
        return Err(DriverError::SerialOnly {
            solver: meta.name.to_string(),
            ranks,
        });
    }
    registry
        .create(&name, &deck.control.solver_params())
        .map_err(solver_err)
}

/// One rank's share of the problem, fixed for the run: its mesh, the
/// constant density (shared with its session's assembly recipe), the
/// operator recipe and the field halo depth.
struct Rank {
    mesh: Mesh2D,
    density: Arc<Field2D>,
    coefficient: Coefficient,
    rx: f64,
    ry: f64,
    halo: usize,
}

impl Rank {
    /// Sets `rank` of `decomp` up for a solver of halo depth
    /// `solver_halo` — the *solver's*, not the deck's matrix-powers
    /// knob: `auto` reports its deepest candidate — and returns it with
    /// the initial energy field, shaped as the solve's right-hand side.
    fn setup(
        deck: &Deck,
        decomp: &Decomposition2D,
        rank: usize,
        solver_halo: usize,
    ) -> (Rank, Field2D) {
        let problem = &deck.problem;
        let mesh = Mesh2D::new(decomp, rank, problem.extent);
        let halo = solver_halo.max(1);
        // Density and face coefficients carry one ghost layer more than
        // the solver's halo: the operator diagonal at matrix-powers extension
        // `halo` reads `Kx(j+1)` / `Ky(k+1)`, so a Diagonal preconditioner on
        // a decomposed tile needs coefficients assembled a layer deeper. The
        // per-cell values are depth-independent, so solver results are
        // unchanged; only the loud assert on deep-halo setups goes away.
        // Energy becomes the right-hand side `b`, so it takes the solver's
        // halo; `apply_states` paints each field to its own depth.
        let mut density = Field2D::new(mesh.nx(), mesh.ny(), halo + 1);
        let mut energy = Field2D::new(mesh.nx(), mesh.ny(), halo);
        problem.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, deck.control.dt);
        let rank = Rank {
            mesh,
            density: Arc::new(density),
            coefficient: problem.coefficient,
            rx,
            ry,
            halo,
        };
        (rank, energy)
    }

    /// Assembles the rank's operator — once per run: density is
    /// constant, so every step solves the same system matrix.
    fn operator(&self) -> TileOperator {
        let coeffs = Coefficients::assemble(
            &self.mesh,
            &self.density,
            self.coefficient,
            self.rx,
            self.ry,
            self.halo + 1,
        );
        TileOperator::new(coeffs, TileBounds::new(&self.mesh, self.halo))
    }
}

/// What the step loop leaves for [`Stepped::finish`].
struct Stepped {
    steps: Vec<StepRecord>,
    trace: SolveTrace,
    /// The final energy (the right-hand side field, folded back).
    energy: Field2D,
    u: Field2D,
}

/// Runs `f`, returning its value and its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the driver's per-step wall-time column; it times a solve, never steers one"
    )]
    let started = std::time::Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// The time-step loop on `b`, which enters holding the initial energy
/// and leaves holding the final one. `solve_step(step, u, b, trace)`
/// solves one step's system from the warm start in `u` and reports the
/// result and the [`StepRecord::wall`] seconds it wants recorded; an
/// error ends the run. Field summaries reduce over `comm`.
fn time_steps(
    deck: &Deck,
    rank: &Rank,
    mut b: Field2D,
    label: String,
    comm: &dyn Communicator,
    mut solve_step: impl FnMut(
        u64,
        &mut Field2D,
        &Field2D,
        &mut SolveTrace,
    ) -> Result<(SolveResult, f64), DriverError>,
) -> Result<Stepped, DriverError> {
    let control = &deck.control;
    let (mesh, density) = (&rank.mesh, &*rank.density);
    let (nx, ny) = (mesh.nx(), mesh.ny());
    let mut u = Field2D::new(nx, ny, rank.halo);
    let mut trace = SolveTrace::new(label);
    let mut steps = Vec::new();

    let nsteps = control.steps();
    let mut time = 0.0;
    for step in 1..=nsteps {
        // 1. energy becomes the right-hand side, which is also the warm
        //    start
        for k in 0..ny as isize {
            let dr = density.row(k, 0, nx as isize);
            let br = b.row_mut(k, 0, nx as isize);
            for i in 0..br.len() {
                br[i] *= dr[i];
            }
        }
        u.copy_interior_from(&b);

        // 2. the solve
        let (result, wall) = solve_step(step, &mut u, &b, &mut trace)?;

        // 3. fold back into energy
        for k in 0..ny as isize {
            let ur = u.row(k, 0, nx as isize);
            let dr = density.row(k, 0, nx as isize);
            let br = b.row_mut(k, 0, nx as isize);
            for i in 0..br.len() {
                br[i] = ur[i] / dr[i];
            }
        }

        time += control.dt;
        let report = control.summary_frequency > 0 && step % control.summary_frequency == 0;
        let summary = if report || step == nsteps {
            Some(field_summary(mesh, density, &b, &u, comm))
        } else {
            None
        };
        steps.push(StepRecord {
            step,
            time,
            iterations: result.iterations,
            converged: result.converged,
            initial_residual: result.initial_residual,
            final_residual: result.final_residual,
            summary,
            wall,
        });
    }
    Ok(Stepped {
        steps,
        trace,
        energy: b,
        u,
    })
}

impl Stepped {
    /// Closes the run: the final summary (the last step's), then the
    /// gather of `u`'s interior to rank 0. The caller snapshots
    /// `comm_stats` before calling, so the record reflects the run's
    /// stepping traffic, not output shipping.
    fn finish(
        self,
        rank: &Rank,
        decomp: &Decomposition2D,
        comm: &dyn Communicator,
        diagnostics: Option<Box<dyn std::any::Any>>,
        comm_stats: StatsSnapshot,
    ) -> RankOutput {
        // solver-specific diagnostics come back type-erased through the
        // trait hook; the driver only knows the payload types it reports
        let (mg_trace, tune) = match diagnostics.map(|d| d.downcast::<MgTrace>()) {
            None => (None, None),
            Some(Ok(mg)) => (Some(*mg), None),
            Some(Err(d)) => (None, d.downcast::<TuneLog>().ok().map(|t| *t)),
        };
        // the last step always reports, over the same `energy` and `u`;
        // only a run of no steps has to summarise here
        let final_summary = match self.steps.last().and_then(|s| s.summary) {
            Some(summary) => summary,
            None => field_summary(&rank.mesh, &rank.density, &self.energy, &self.u, comm),
        };
        RankOutput {
            final_u: gather_to_root(&self.u, decomp, comm),
            steps: self.steps,
            trace: self.trace,
            mg_trace,
            tune,
            final_summary,
            comm: comm_stats,
        }
    }
}

/// The one road every entry point takes: [`step_rank`], then
/// [`Stepped::finish`].
fn drive(
    deck: &Deck,
    decomp: &Decomposition2D,
    comm: &dyn Communicator,
    cache: Option<&SetupCache>,
    controls: SolveControls<'_>,
) -> Result<RankOutput, DriverError> {
    let (rank, stepped, diagnostics, comm_stats) = step_rank(deck, decomp, comm, cache, controls)?;
    Ok(stepped.finish(&rank, decomp, comm, diagnostics, comm_stats))
}

/// What [`step_rank`] hands to [`Stepped::finish`]: the rank, its stepped
/// state, the solver's diagnostics and the communicator counters at the
/// end of stepping.
type RankStepped = (Rank, Stepped, Option<Box<dyn std::any::Any>>, StatsSnapshot);

/// Resolves the solver, sets the rank up, assembles its operator once,
/// builds its session — checked out of `cache` when serving, which may
/// swap in the solver it pools for this setup — and steps through it. A
/// solve the session refuses, diverges or is cancelled ends the run with
/// its [`DriverError`]; one that hits
/// the iteration cap is recorded unconverged and the run goes on. The
/// session is checked back in, which pools its solver, only after a
/// clean run.
fn step_rank(
    deck: &Deck,
    decomp: &Decomposition2D,
    comm: &dyn Communicator,
    cache: Option<&SetupCache>,
    controls: SolveControls<'_>,
) -> Result<RankStepped, DriverError> {
    if decomp.ranks() != comm.size() {
        return Err(DriverError::DecompositionMismatch {
            decomp: decomp.ranks(),
            comm: comm.size(),
        });
    }
    let solver = resolve(deck, comm.size())?;
    let name = solver.name();
    let (rank, energy) = Rank::setup(deck, decomp, comm.rank(), solver.halo_depth());
    let op = rank.operator();
    let layout = HaloLayout::new(decomp, comm.rank());
    // the recipe behind the operator, for solvers whose prepare builds
    // from it (AMG's hierarchy)
    let session = SolveSession::new(op, layout, solver, deck.control.opts).with_assembly(
        Arc::clone(&rank.density),
        rank.coefficient,
        rank.rx,
        rank.ry,
    );
    // serving: the pooled solver of this setup, if any, replaces the one
    // built above
    let mut session = match cache {
        Some(cache) => cache.checkout(session, &deck.control.solver_params()),
        None => session,
    };

    let label = session.solver_label();
    // a diverged or cancelled session is dropped by the early return
    // (never checked in): its workspace may carry non-finite state
    let stepped = time_steps(deck, &rank, energy, label, comm, |step, u, b, trace| {
        let (result, wall) = timed(|| session.solve_controlled(comm, u, b, controls, trace));
        let result = result.map_err(|e| DriverError::Solver(e.to_string()))?;
        match result.status {
            SolveStatus::Diverged { iteration } => Err(DriverError::Diverged {
                solver: name.to_string(),
                step,
                iteration,
            }),
            SolveStatus::Cancelled { .. } => Err(DriverError::Cancelled { step }),
            SolveStatus::Converged | SolveStatus::IterationLimit => Ok((result, wall)),
        }
    })?;
    let (diagnostics, comm_stats) = (session.take_diagnostics(), comm.stats().snapshot());
    // the operator and workspace go before the gather (a checkin keeps
    // only the solver), so the run's peak footprint stays the solve's
    match cache {
        Some(cache) => cache.checkin(session),
        None => drop(session),
    }
    Ok((rank, stepped, diagnostics, comm_stats))
}

/// Runs the deck on one rank of `decomp`: the operator is assembled
/// once and the solver prepared once, then every time step solves
/// through the same session (density is constant, so the reference's
/// per-step reassembly would rebuild the same matrix).
///
/// # Errors
/// [`DriverError`] when the deck's problem fails validation, the solver
/// name or precision does not resolve, the decomposition does not match
/// the communicator, a serial-only solver is run decomposed, or a step's
/// solve diverges.
// audit:allow(dead_pub) — benchmark/src/deckrun.rs mirrors its per-step predecessor call for
// call, and ROADMAP direction 3 replaces that mirror with a call to this function
pub fn run_rank<C: Communicator + ?Sized>(
    deck: &Deck,
    decomp: &Decomposition2D,
    comm: &C,
) -> Result<RankOutput, DriverError> {
    drive(deck, decomp, comm.as_dyn(), None, SolveControls::default())
}

/// Validates the deck's problem — a zero-cell one must surface as an
/// error, not a decomposition assert — and decomposes it over `ranks`.
fn decompose(deck: &Deck, ranks: usize) -> Result<Decomposition2D, DriverError> {
    deck.problem
        .validate()
        .map_err(DriverError::InvalidProblem)?;
    Ok(Decomposition2D::new(
        deck.problem.x_cells,
        deck.problem.y_cells,
        ranks,
    ))
}

/// Runs the deck on a single rank.
///
/// # Errors
/// [`DriverError`] as for [`run_rank`].
pub fn run_serial(deck: &Deck) -> Result<RankOutput, DriverError> {
    let decomp = decompose(deck, 1)?;
    run_rank(deck, &decomp, &SerialComm::new())
}

/// Runs the deck on `ranks` threaded ranks; returns per-rank outputs
/// (rank 0 holds the gathered field).
///
/// Each simulated rank is its own OS thread, and the rank count is the
/// run's whole parallelism: a rank's kernels run on its own thread.
///
/// # Errors
/// [`DriverError`] as for [`run_rank`] — every rank hits the same deck
/// checks, so the first rank's error is returned.
pub fn run_threaded_ranks(deck: &Deck, ranks: usize) -> Result<Vec<RankOutput>, DriverError> {
    let decomp = decompose(deck, ranks)?;
    comm_run(decomp.ranks(), |comm| run_rank(deck, &decomp, comm))
        .into_iter()
        .collect()
}

/// Runs the deck serially through a [`SolveSession`] checked out of
/// `cache` — the serving-queue counterpart of [`run_serial`], and the
/// same road: the session runs the job's own operator and workspace
/// around the pooled prepared solver on a cache hit (no prepare at
/// all), around the job's fresh solver on a miss. [`RankOutput::comm`] counts the job's own
/// communicator, field summaries included, as on every road.
///
/// # Errors
/// [`DriverError`] as for [`run_rank`].
pub fn run_serial_session(deck: &Deck, cache: &SetupCache) -> Result<RankOutput, DriverError> {
    run_serial_session_with(deck, cache, SolveControls::default())
}

/// [`run_serial_session`] with an armed [`SolveControls`] bundle — the
/// fault-tolerant serving path. Per-step solves observe the stop
/// handle (deadlines/cancellation → [`DriverError::Cancelled`]) and
/// the probe (fault injection). On either failure, or on divergence,
/// the session is dropped rather than checked back into `cache`: a
/// poisoned or half-cancelled solver must never be handed to a later
/// clean job.
///
/// # Errors
/// [`DriverError`] as for [`run_rank`], plus `Cancelled`.
pub fn run_serial_session_with(
    deck: &Deck,
    cache: &SetupCache,
    controls: SolveControls<'_>,
) -> Result<RankOutput, DriverError> {
    let decomp = decompose(deck, 1)?;
    drive(deck, &decomp, &SerialComm::new(), Some(cache), controls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::{crooked_pipe_deck, Control};

    fn small_deck(n: usize, solver: &str, steps: u64) -> Deck {
        let mut deck = crooked_pipe_deck(n, solver);
        deck.control = Control {
            solver: solver.into(),
            end_step: steps,
            summary_frequency: 1,
            ..Default::default()
        };
        deck
    }

    #[test]
    fn heat_flows_down_the_pipe() {
        let deck = small_deck(32, "cg", 8);
        let out = run_serial(&deck).expect("deck runs");
        let u = out.final_u.unwrap();
        // the pipe inlet region must stay warmer than the far wall corner
        let inlet = u.at(3, 4); // inside the source
        let far_wall = u.at(31, 31);
        assert!(
            inlet > 10.0 * far_wall.max(1e-30),
            "inlet {inlet} vs far {far_wall}"
        );
    }

    #[test]
    fn malformed_decks_error_instead_of_panicking() {
        let mut deck = small_deck(16, "cg", 1);
        deck.control.solver = "warp".into();
        match run_serial(&deck) {
            Err(DriverError::Solver(msg)) => assert!(msg.contains("warp"), "{msg}"),
            other => panic!("expected a solver error, got {other:?}"),
        }

        let deck = small_deck(16, "amg", 1);
        match run_threaded_ranks(&deck, 4) {
            Err(DriverError::SerialOnly { solver, ranks }) => {
                assert_eq!(solver, "amg");
                assert_eq!(ranks, 4);
            }
            other => panic!("expected a serial-only error, got {other:?}"),
        }

        let mut deck = small_deck(16, "cg", 1);
        deck.problem.x_cells = 0;
        assert!(matches!(
            run_serial(&deck),
            Err(DriverError::InvalidProblem(_))
        ));
    }

    #[test]
    fn session_driver_matches_reference_bitwise() {
        // every entry point takes one road: a cold session checked out
        // of a cache reproduces `run_serial` in every bit, trace counter
        // and comm counter, and a warm one in every bit with no prepare
        let cache = SetupCache::new();
        let decks = [
            ("cg", small_deck(24, "cg", 3)),
            ("cg+jac_block", {
                let mut deck = small_deck(24, "cg", 3);
                deck.control.precon = tea_core::PreconKind::BlockJacobi;
                deck
            }),
            ("chebyshev", small_deck(24, "chebyshev", 3)),
            ("ppcg/d4+jac_diag", {
                let mut deck = small_deck(24, "ppcg", 3);
                deck.control.ppcg_halo_depth = 4;
                deck.control.precon = tea_core::PreconKind::Diagonal;
                deck
            }),
            ("ppcg/d4/mixed", {
                let mut deck = small_deck(24, "ppcg", 3);
                deck.control.ppcg_halo_depth = 4;
                deck.control.precision = Some(tea_core::Precision::Mixed);
                deck
            }),
            ("amg", small_deck(24, "amg", 3)),
            ("auto", small_deck(24, "auto", 3)),
        ];
        for (what, deck) in &decks {
            let reference = run_serial(deck).expect("deck runs");
            let cold = run_serial_session(deck, &cache).expect("deck runs");
            let warm = run_serial_session(deck, &cache).expect("deck runs");

            assert_eq!(reference.trace, cold.trace, "{what}: cold trace");
            assert_eq!(reference.comm, cold.comm, "{what}: cold comm");
            for out in [&cold, &warm] {
                assert_eq!(reference.steps.len(), out.steps.len(), "{what}");
                for (a, b) in reference.steps.iter().zip(&out.steps) {
                    assert_eq!(a.iterations, b.iterations, "{what} step {}", a.step);
                    assert_eq!(
                        a.initial_residual.to_bits(),
                        b.initial_residual.to_bits(),
                        "{what} step {}",
                        a.step
                    );
                    assert_eq!(
                        a.final_residual.to_bits(),
                        b.final_residual.to_bits(),
                        "{what} step {}",
                        a.step
                    );
                }
                assert_eq!(
                    reference.final_u.as_ref().unwrap(),
                    out.final_u.as_ref().unwrap(),
                    "{what}: session path drifted from the reference driver"
                );
            }
            if *what == "amg" {
                let [reference, cold, warm] = [&reference, &cold, &warm].map(|out| {
                    out.mg_trace
                        .as_ref()
                        .expect("every path must keep MG traces")
                        .setup_cells
                });
                assert_eq!(reference, cold, "both roads build the hierarchy once");
                assert_eq!(warm, 0, "a warm session reuses the cached hierarchy");
            }
        }
        let n = decks.len() as u64;
        let stats = cache.stats();
        assert_eq!(stats.misses, n, "first run of each deck builds cold");
        assert_eq!(stats.hits, n, "second run of each deck reuses the session");
        assert_eq!(stats.prepares, n, "warm checkouts must not re-prepare");
    }

    #[test]
    fn close_out_matches_the_recompute_and_copy_oracle() {
        // `finish` reuses the last step's summary and gathers straight
        // from `u`; the path it replaced summarised again and gathered a
        // halo-free copy. Both must agree to the bit, at 1 and 4 ranks.
        let deck = small_deck(24, "ppcg", 3);
        for ranks in [1, 4] {
            let decomp = Decomposition2D::new(24, 24, ranks);
            let closed = comm_run(ranks, |comm| {
                let (rank, stepped, diagnostics, stats) = step_rank(
                    &deck,
                    &decomp,
                    comm.as_dyn(),
                    None,
                    SolveControls::default(),
                )
                .expect("deck runs");
                let summary =
                    field_summary(&rank.mesh, &rank.density, &stepped.energy, &stepped.u, comm);
                let mut interior = Field2D::new(rank.mesh.nx(), rank.mesh.ny(), 0);
                interior.copy_interior_from(&stepped.u);
                let u = gather_to_root(&interior, &decomp, comm);
                let out = stepped.finish(&rank, &decomp, comm.as_dyn(), diagnostics, stats);
                (summary, u, out)
            });
            for (rank, (summary, u, out)) in closed.iter().enumerate() {
                let bits = |s: &FieldSummary| {
                    [s.volume, s.mass, s.internal_energy, s.temperature].map(f64::to_bits)
                };
                assert_eq!(
                    bits(&out.final_summary),
                    bits(summary),
                    "{ranks} ranks, rank {rank}"
                );
                assert_eq!(out.final_u.is_some(), rank == 0);
                if let (Some(want), Some(got)) = (u, &out.final_u) {
                    let raw = |f: &Field2D| f.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(raw(got), raw(want), "{ranks} ranks");
                }
            }
        }
    }

    #[test]
    fn trace_accumulates_across_steps() {
        let out = run_serial(&small_deck(16, "cg", 3)).expect("deck runs");
        let total_iters: u64 = out.steps.iter().map(|s| s.iterations).sum();
        assert_eq!(out.trace.outer_iterations, total_iters);
        assert!(out.trace.reductions > 0);
        assert!(out.mg_trace.is_none());
        let amg = run_serial(&small_deck(16, "amg", 3)).expect("deck runs");
        let mg = amg.mg_trace.expect("AMG runs must carry an MG trace");
        assert!(mg.vcycles > 0);
        // the operator is assembled and the solver prepared once per run,
        // so three steps build one hierarchy
        let one_build: u64 = mg.level_shapes.iter().map(|&(x, y)| (x * y) as u64).sum();
        assert!(one_build > 0);
        assert_eq!(mg.setup_cells, one_build, "one hierarchy build per run");
    }

    #[test]
    fn divergence_ends_every_entry_point_typed() {
        // a singular coarse operator: the AMG solve ends diverged at
        // iteration 0, and the run ends with it instead of stepping on
        let mut deck = small_deck(16, "amg", 2);
        deck.control.dt = 1e300;
        let cache = SetupCache::new();
        for out in [run_serial(&deck), run_serial_session(&deck, &cache)] {
            match out {
                Err(DriverError::Diverged {
                    solver,
                    step,
                    iteration,
                }) => assert_eq!((solver.as_str(), step, iteration), ("amg", 1, 0)),
                other => panic!("expected a typed divergence, got {other:?}"),
            }
        }
        assert_eq!(cache.pooled(), 0, "a diverged solver is never pooled");
    }
}
