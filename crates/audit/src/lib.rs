//! First-party static analysis for the TeaLeaf-rs workspace.
//!
//! The repository's core promises — bit-deterministic solves at any
//! worker count, wall-clock-free tuning and fault injection, panic-safe
//! poison-tolerant serving — are contracts that ordinary tests can only
//! sample. The per-line ones (no wall-clock reads, no hash-ordered
//! containers, no panics on the serving path, no bare `Mutex::lock`)
//! are clippy's, configured by the root `clippy.toml`. `tea-audit`
//! checks what a per-line linter cannot, in the style of rustc's
//! `tidy`: a fast, dependency-free line/token scanner over `crates/`
//! plus a semantic audit across artefacts.
//!
//! Layers:
//!
//! * [`scan`] — the textual linter: crate-root hygiene, `pub` items no
//!   other file names, to-do markers, and the
//!   `audit:allow(<rule>) — <reason>` pragma grammar.
//! * [`semantic`] — the cross-artefact audit: deck-key drift between
//!   `deck.rs` and the README table. (The other semantic audit,
//!   `SolverRegistry::audit`, lives in `tea-core` because it needs a
//!   live registry; tea-core's and tea-app's tests run it.)
//! * [`report`] — the [`Finding`] every check returns.
//! * [`json`] — the strict parser the repo benchmark reads its result
//!   documents back with.
//!
//! The audits run as tests: `cargo test -p tea-audit` scans the
//! committed tree (`tests/tree_clean.rs`, which fails on any finding)
//! and the violation fixtures (`tests/fixtures.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod report;
pub mod scan;
pub mod semantic;

pub use report::Finding;
pub use scan::{scan_file, scan_workspace};
pub use semantic::deck_key_audit;
