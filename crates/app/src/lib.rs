//! # tea-app — the TeaLeaf application layer
//!
//! Ties the substrates together into the mini-app the paper describes:
//! `tea.in`-style input [`deck`]s, the time-stepping [`driver`] (serial
//! or one thread per simulated MPI rank), `field_summary` diagnostics
//! ([`summary`]) and field/series [`output`] writers.
//!
//! The `tealeaf` binary in this crate is the command-line entry point:
//!
//! ```text
//! tealeaf --cells 256 --solver ppcg --depth 8 --steps 10 --ranks 4
//! tealeaf --deck tea.in
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod audit;
pub mod deck;
pub mod driver;
pub mod output;
pub mod serve;
pub mod summary;

pub use audit::{find_repo_root, semantic_audit};
pub use deck::{
    crooked_pipe_deck, parse_deck, render_deck, Control, Deck, Mode, FLAG_KEYS, FLAG_MODES,
    SINGLE_RUN,
};
pub use driver::{
    run_rank, run_serial, run_serial_session, run_serial_session_with, run_threaded_ranks,
    DriverError, RankOutput, StepRecord,
};
pub use output::{write_field_csv, write_field_ppm, write_field_vtk, write_series_csv};
pub use serve::{serve_decks, serve_decks_with_plan, DeckJob, DeckOutcome};
pub use summary::{field_summary, FieldSummary};

use std::sync::OnceLock;
use tea_core::SolverRegistry;

/// The application's solver registry: every tea-core builtin (Jacobi,
/// CG, Chebyshev, CPPCG and the mixed/f32 variants), the
/// tea-amg baseline, and the tea-tune `auto` pseudo-solver. The deck
/// parser (`tl_solver=<name>` and the legacy `tl_use_*` switches), the
/// driver, and the `tealeaf` CLI (`--solver`, `--list-solvers`) all
/// resolve names against this one table, so a solver registered here
/// is selectable everywhere.
pub fn solver_registry() -> &'static SolverRegistry {
    static REGISTRY: OnceLock<SolverRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = tea_amg::full_registry();
        tea_tune::register_auto(&mut reg);
        reg
    })
}
