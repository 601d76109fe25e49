//! The unified solver API: the [`IterativeSolver`] trait and the types
//! every solver is driven through.
//!
//! The TeaLeaf paper is a *design-space exploration* of iterative sparse
//! solvers, so the solver itself must be a first-class, swappable value:
//! an [`IterativeSolver`] trait object, built by name by a
//! [`crate::SolverRegistry`] factory from the one flat [`SolverParams`]
//! set — the only way to build one — and driven through the uniform
//! `prepare`/`solve` protocol. The time-stepping driver, the benches and
//! the examples all speak this interface; adding a new method means
//! implementing the trait and registering a factory — no driver surgery.
//!
//! Three layers, thinnest on top:
//!
//! 1. [`crate::Solve`] — the one-expression builder entry point;
//! 2. [`crate::SolverRegistry`] — string-keyed construction + metadata;
//! 3. [`IterativeSolver`] — the trait each method implements.

use crate::precon::PreconKind;
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use std::any::Any;
use tea_comms::Communicator;
use tea_mesh::{Coefficient, Field2D};

/// A [`Tile`] with a type-erased communicator: the form trait-object
/// solvers are written against. Any concrete tile converts via
/// [`Communicator::as_dyn`].
pub type DynTile<'a> = Tile<'a, dyn Communicator + 'a>;

/// How the operator was assembled from the physics fields. Most solvers
/// never look at this; hierarchy-building preconditioners (the AMG
/// baseline in `tea-amg`) rebuild their coarse grids from it.
#[derive(Clone, Copy)]
pub struct Assembly<'a> {
    /// Cell density field (halo at least as deep as the operator's).
    pub density: &'a Field2D,
    /// Conductivity recipe used for the face coefficients.
    pub coefficient: Coefficient,
    /// Timestep scaling `Δt/Δx²`.
    pub rx: f64,
    /// Timestep scaling `Δt/Δy²`.
    pub ry: f64,
}

/// Everything a solver may draw on for one solve: the tile (operator +
/// halo layout + communicator) and, when available, the assembly recipe
/// behind the operator.
#[derive(Clone, Copy)]
pub struct SolveContext<'a> {
    /// The rank's tile with a type-erased communicator.
    pub tile: &'a DynTile<'a>,
    /// Operator provenance for hierarchy-building solvers (`None` when
    /// the caller only has the assembled operator).
    pub assembly: Option<Assembly<'a>>,
}

impl<'a> SolveContext<'a> {
    /// Context carrying only the tile.
    pub fn new(tile: &'a DynTile<'a>) -> Self {
        SolveContext {
            tile,
            assembly: None,
        }
    }

    /// Context carrying the tile and the operator's assembly recipe.
    pub fn with_assembly(tile: &'a DynTile<'a>, assembly: Assembly<'a>) -> Self {
        SolveContext {
            tile,
            assembly: Some(assembly),
        }
    }
}

/// The one configuration surface of every solver: the knobs a
/// [`crate::SolverRegistry`] factory consumes (each solver reads only
/// the fields its method uses; see [`crate::SolverMeta`] for which). The
/// deck, the CLI, the [`crate::Solve`] builder, the serving cache key
/// and the `auto` tuner all configure solvers through it; what no road
/// varies is a constant ([`EIGEN_SAFETY`], [`CHECK_INTERVAL`]).
///
/// The defaults reproduce the application driver's defaults, so a
/// registry-built solver with `SolverParams::default()` behaves exactly
/// like the pre-registry driver did.
#[derive(Debug, Clone)]
pub struct SolverParams {
    /// Preconditioner for the methods that accept one.
    pub precon: PreconKind,
    /// Inner Chebyshev smoothing steps per outer iteration (PPCG).
    pub inner_steps: usize,
    /// Matrix-powers halo depth (PPCG's `PPCG - n`).
    pub halo_depth: usize,
    /// Plain-CG presteps for eigenvalue estimation (Chebyshev, PPCG);
    /// at least 1, for every solver.
    pub presteps: u64,
    /// Seed for the `auto` pseudo-solver's deterministic candidate
    /// search (deck `tl_tune_seed`, CLI `--tune-seed`). Ignored by the
    /// concrete methods.
    pub tune_seed: u64,
}

impl Default for SolverParams {
    fn default() -> Self {
        SolverParams {
            precon: PreconKind::None,
            inner_steps: 16,
            halo_depth: 1,
            presteps: 30,
            tune_seed: 0,
        }
    }
}

/// Safety widening applied to every Lanczos spectrum estimate of the
/// CG eigen prelude (Chebyshev, CPPCG): the bounds must
/// *contain* the true spectrum or the iteration diverges.
pub const EIGEN_SAFETY: f64 = 0.1;

/// Convergence-check cadence, in iterations, of the Chebyshev loop
/// (each check is one global reduction) — and the length of one `f32`
/// block of `mixed_chebyshev`.
pub const CHECK_INTERVAL: u64 = 10;

/// Arithmetic-precision policy of a solver — a first-class axis of the
/// design space alongside method, preconditioner and halo depth. Each
/// registry entry declares its precision and its family
/// ([`SolverMeta::family`]); [`crate::SolverRegistry::route`] moves a
/// request along this axis within the family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Every kernel in double precision (the reference behaviour).
    #[default]
    F64,
    /// Every kernel in single precision. Memory traffic halves, but the
    /// attainable residual is limited by `f32` round-off — honest only
    /// for loose tolerances or precision studies.
    F32,
    /// Classic iterative refinement: the preconditioner (and, for PPCG,
    /// the inner Chebyshev smoothing) runs in `f32` while the outer
    /// recurrence, reductions and convergence test stay in `f64`, so the
    /// solve still reaches `f64` tolerances.
    Mixed,
}

impl Precision {
    /// Deck/CLI spelling (`"f64"`, `"f32"`, `"mixed"`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Mixed => "mixed",
        }
    }

    /// Parses a deck/CLI spelling (`f64`/`double`, `f32`/`single`,
    /// `mixed`), ASCII case-insensitive.
    ///
    /// # Errors
    /// Returns a message listing the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.trim().to_ascii_lowercase().as_str() {
            "f64" | "double" => Ok(Precision::F64),
            "f32" | "single" => Ok(Precision::F32),
            "mixed" => Ok(Precision::Mixed),
            other => Err(format!(
                "unknown precision '{other}' (accepted: f64, f32, mixed)"
            )),
        }
    }

    /// Element width in bytes of the method's *bulk* sweeps: 4 under
    /// `F32` and under `Mixed` (whose traffic is dominated by the `f32`
    /// inner leg), 8 under `F64` — the width a trace replay prices a
    /// method's kernels at.
    pub fn elem_bytes(self) -> f64 {
        match self {
            Precision::F64 => 8.0,
            Precision::F32 | Precision::Mixed => 4.0,
        }
    }
}

impl std::str::FromStr for Precision {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Precision::parse(s)
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which inner-step count multiplies an [`IterationCost`]'s per-step
/// part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerSteps {
    /// The method runs no inner steps.
    None,
    /// [`SolverParams::inner_steps`] smoothing steps per outer
    /// iteration (the PPCG family).
    Params,
    /// One `f32` block of [`CHECK_INTERVAL`] sweeps per outer iteration
    /// (`mixed_chebyshev`).
    CheckInterval,
}

impl InnerSteps {
    /// The inner steps one counted iteration runs under `params`.
    pub fn count(self, params: &SolverParams) -> usize {
        match self {
            InnerSteps::None => 0,
            InnerSteps::Params => params.inner_steps,
            InnerSteps::CheckInterval => CHECK_INTERVAL as usize,
        }
    }
}

/// What one *counted* iteration of a solver streams per cell, in
/// f64-equivalent elements (8 bytes each, so an `f32` element counts
/// half): the static bytes-per-iteration prior the auto-tuner orders
/// its race by, read off the kernel schedule before anything runs.
///
/// Each registry entry declares its own cost next to the code it
/// prices, so a custom solver is ordered by what it declares. The
/// counts use the kernel classes of `tea-perfmodel`'s `KernelBytes`: a
/// stencil sweep 5 elements/cell, an axpy-class pass 3, a dot 2, a
/// preconditioner pass 4, and a fused Chebyshev step 12 (stencil 5 +
/// fused `z`/`rr` update 3 + the recurrence folded into one
/// precon-class pass 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationCost {
    /// Elements/cell of the outer iteration.
    pub outer: u32,
    /// Elements/cell of each inner step.
    pub per_inner_step: u32,
    /// Which inner-step count multiplies `per_inner_step`.
    pub inner_steps: InnerSteps,
}

impl IterationCost {
    /// A method without inner steps: `outer` elements/cell per
    /// iteration.
    pub const fn flat(outer: u32) -> Self {
        IterationCost {
            outer,
            per_inner_step: 0,
            inner_steps: InnerSteps::None,
        }
    }

    /// Elements/cell of one counted iteration at `inner_steps` inner
    /// steps (0 prices as one step).
    pub fn elements(&self, inner_steps: usize) -> u64 {
        u64::from(self.outer) + u64::from(self.per_inner_step) * inner_steps.max(1) as u64
    }
}

/// Static metadata the registry serves for each solver: what the method
/// needs from its environment, which [`SolverParams`] it honours and
/// what one of its iterations costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverMeta {
    /// Canonical registry key (`"cg"`, `"ppcg"`, ...).
    pub name: &'static str,
    /// Accepted alternative names (deck/CLI spellings).
    pub aliases: &'static [&'static str],
    /// One-line description for `--list-solvers` and docs.
    pub summary: &'static str,
    /// Whether the method applies [`SolverParams::precon`].
    pub preconditioned: bool,
    /// Whether the method runs CG presteps to estimate the spectrum
    /// (consumes `presteps`).
    pub needs_eigen_estimate: bool,
    /// Whether the method consumes [`SolverParams::halo_depth`] for
    /// matrix-powers deep halos (fields and workspace must be allocated
    /// at least that deep).
    pub deep_halo: bool,
    /// Whether the method only runs on a single rank (the AMG baseline;
    /// its distributed behaviour enters through trace replay).
    pub serial_only: bool,
    /// The method's arithmetic-precision policy: what its instances
    /// run at, and the axis [`crate::SolverRegistry::route`] moves along.
    pub precision: Precision,
    /// Canonical name of the method's `f64` entry — the family its
    /// precision variants share (an `f64` method names itself).
    /// [`crate::SolverRegistry::route`] re-routes a request to the entry
    /// of the same family at the requested precision.
    pub family: &'static str,
    /// Whether the auto-tuner may pick this method as a candidate.
    /// `false` for diagnostic baselines (Jacobi), serial-only methods
    /// (AMG), the round-off-limited `cg_f32` and the `auto`
    /// pseudo-solver itself.
    pub tunable: bool,
    /// What one counted iteration streams per cell — the prior the
    /// auto-tuner orders its candidates by.
    pub iteration_cost: IterationCost,
}

/// Why a solver could not be resolved or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The requested name matches no registered solver. Carries the
    /// registered names so callers (deck parser, CLI) can report them.
    UnknownSolver {
        /// The name that failed to resolve.
        requested: String,
        /// Canonical names currently registered.
        known: Vec<String>,
    },
    /// The requested precision has no registered variant of the solver
    /// (e.g. `tl_precision=mixed` with the serial-only AMG baseline).
    PrecisionUnsupported {
        /// The solver whose variant is missing.
        solver: String,
        /// The precision that was requested.
        precision: Precision,
        /// Why the combination is rejected.
        reason: String,
    },
    /// The [`SolverParams`] are outside what the method accepts (e.g.
    /// `presteps == 0`, which leaves the eigen prelude nothing to
    /// estimate the spectrum from).
    InvalidParams {
        /// The solver the parameters were meant for.
        solver: String,
        /// Which parameter is out of range, and why.
        reason: String,
    },
    /// The solve lacks an input the method needs (e.g. the assembly
    /// recipe AMG builds its hierarchy from, or operands as deep as the
    /// method's halo).
    MissingInput {
        /// The solver that cannot run.
        solver: String,
        /// What it needs and did not get.
        missing: String,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::UnknownSolver { requested, known } => write!(
                f,
                "unknown solver '{requested}' (registered: {})",
                known.join(", ")
            ),
            SolverError::PrecisionUnsupported {
                solver,
                precision,
                reason,
            } => write!(
                f,
                "solver '{solver}' cannot run at precision '{precision}': {reason}"
            ),
            SolverError::InvalidParams { solver, reason } => {
                write!(f, "solver '{solver}' rejects its parameters: {reason}")
            }
            SolverError::MissingInput { solver, missing } => {
                write!(f, "solver '{solver}' needs {missing}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// One iterative method of the design space, carrying its own
/// configuration (preconditioner kind, inner steps, halo depth, ...).
///
/// The protocol mirrors the time-stepping driver's loop:
///
/// 1. [`IterativeSolver::prepare`] once per operator — (re)build
///    operator-derived state such as the assembled preconditioner and
///    latch the convergence options;
/// 2. [`IterativeSolver::solve`] per right-hand side — run the method,
///    merging its communication/computation protocol into the caller's
///    accumulated [`SolveTrace`].
///
/// Prepare, then solve: operator-derived state is assembled in
/// `prepare` and nowhere else, and `solve` panics on a solver that was
/// never prepared (single-shot callers go through [`crate::Solve`] or a
/// [`crate::SolveSession`], which prepare for them). That is the whole
/// protocol: a solver keeps nothing from one `solve` to the next beyond
/// what `prepare` built, so a solve depends on the operator, the
/// latched options, `u` and `b` alone.
///
/// The supertrait `Any` lets drivers recover solver-specific
/// diagnostics (e.g. the AMG V-cycle trace) by downcasting without the
/// solve path ever branching on the concrete type; `Send` lets a
/// prepared solver move between the scheduler threads of a serving
/// queue (every in-tree solver is plain owned data).
pub trait IterativeSolver: Any + Send {
    /// Canonical registry name (`"cg"`, `"ppcg"`, ...).
    fn name(&self) -> &'static str;

    /// Figure-legend label reflecting the configuration (e.g.
    /// `"PPCG-8"`).
    fn label(&self) -> String;

    /// Halo depth the solver's fields and [`Workspace`] must carry (1
    /// for everything except matrix-powers configurations).
    fn halo_depth(&self) -> usize {
        1
    }

    /// Whether [`IterativeSolver::prepare`] builds from the context's
    /// [`SolveContext::assembly`] (AMG's hierarchy), so a context without
    /// one cannot prepare it. Default: `false`. Only [`crate::Solve::run`]
    /// reads it, to return an error instead of that panic; a
    /// [`crate::SolveSession`] without an assembly still reaches it.
    fn needs_assembly(&self) -> bool {
        false
    }

    /// (Re)builds operator-derived state — assembled preconditioners,
    /// cached diagonals — against `ctx`'s operator, and latches `opts`
    /// for subsequent [`IterativeSolver::solve`] calls. Must be called
    /// again whenever the operator changes (the driver's operator is
    /// fixed for a run, so its session prepares once).
    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts);

    /// Solves `A u = b` with `u` entering as the initial guess, using
    /// the state and options of the last [`IterativeSolver::prepare`].
    /// The solve's protocol is merged into `trace` and also returned
    /// inside the [`SolveResult`].
    ///
    /// # Panics
    /// If the solver was never prepared.
    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult;

    /// Takes any solver-specific diagnostics accumulated since the last
    /// call (e.g. the AMG solver's V-cycle trace), type-erased so the
    /// driver never branches on the concrete solver. Callers downcast
    /// to the payload types they know how to report. Default: `None`.
    fn take_diagnostics(&mut self) -> Option<Box<dyn Any>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_driver_defaults() {
        let p = SolverParams::default();
        assert_eq!(p.precon, PreconKind::None);
        assert_eq!(p.inner_steps, 16);
        assert_eq!(p.halo_depth, 1);
        assert_eq!(p.presteps, 30);
        assert_eq!(p.tune_seed, 0);
    }

    #[test]
    fn unknown_solver_error_lists_names() {
        let e = SolverError::UnknownSolver {
            requested: "sor".into(),
            known: vec!["cg".into(), "ppcg".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("'sor'"), "{msg}");
        assert!(msg.contains("cg, ppcg"), "{msg}");
    }
}
