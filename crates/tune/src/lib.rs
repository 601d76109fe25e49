//! Run-time auto-tuning for the TeaLeaf solver design space.
//!
//! The paper frames TeaLeaf as a *design-space exploration* — solver ×
//! precision × halo depth — and after the registry/session/serving work
//! every axis is runtime-selectable but still hand-set per deck. This
//! crate closes the loop: `tl_solver=auto` (CLI `--solver auto`) makes
//! the run pick its own design point.
//!
//! Pieces, bottom up:
//!
//! * [`classify_result`] — reads a finished trial's two residuals and
//!   its ending into a [`Verdict`]: converged, converging (with a
//!   two-point geometric projection of the iterations to tolerance),
//!   stalling or diverging.
//! * [`Candidate`]/[`plan_candidates`] — the seeded, wall-clock-free
//!   candidate search: every `tunable` registry entry expanded over the
//!   halo-depth axis, ordered by the `tea-perfmodel` bytes-per-iteration
//!   prior with seeded tie-breaking ([`splitmix64`], the same generator
//!   discipline as `tea-fault`).
//! * [`TuneState`] + `AutoSolver` — the policy object behind the
//!   registered `"auto"` pseudo-solver ([`register_auto`]): on the first
//!   solve it races the candidates (early-abandoning any that cannot
//!   beat the best cost so far), adopts the cheapest converged one, and
//!   reuses it for every subsequent solve. Because the adopted winner
//!   lives inside the prepared solver — the unit a
//!   [`tea_core::SetupCache`] pools — the cache remembers the tuned
//!   design point per `SetupKey`: repeat jobs skip the search.
//! * [`TuneLog`] — every decision (candidate, trajectory verdict,
//!   action), surfaced through
//!   [`tea_core::IterativeSolver::take_diagnostics`].
//! * [`EscalationPolicy`] — the precision
//!   escalation ladder (f32 → mixed → f64 within a solver family) the
//!   serving stack consults on divergence, now owned by the tuner
//!   instead of being hardcoded in the scheduler.
//!
//! ```
//! use tea_core::{SolverRegistry, Solve, crooked_pipe_system};
//!
//! let mut registry = SolverRegistry::builtin();
//! tea_tune::register_auto(&mut registry);
//! let (op, b) = crooked_pipe_system(16, 0.04, 8);
//! let mut u = b.clone();
//! let result = Solve::on(&op)
//!     .with_registry(&registry)
//!     .with_solver("auto")
//!     .halo_depth(8)
//!     .eps(1e-8)
//!     .run(&mut u, &b)
//!     .expect("auto is registered");
//! assert!(result.converged);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod auto;
mod log;
mod monitor;
mod policy;
mod search;

pub use auto::register_auto;
pub use log::{TuneAction, TuneDecision, TuneLog};
pub use monitor::{classify_result, Verdict};
pub use policy::{EscalationPolicy, TuneState};
pub use search::{plan_candidates, splitmix64, Candidate};
