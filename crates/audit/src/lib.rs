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
//!   live registry; `tealeaf --audit` combines both.)
//! * [`report`] — findings and the machine-readable [`AuditReport`].
//! * [`json`] — the strict parser the repo benchmark reads its result
//!   documents back with.
//!
//! Run the linter with `cargo run -p tea-audit` (add `--deny-all` to
//! also fail on advisory findings, `--json` for the report document).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod report;
pub mod scan;
pub mod semantic;

pub use report::{AuditReport, CheckOutcome, Finding};
pub use scan::{scan_file, scan_workspace, RULE_IDS};
pub use semantic::deck_key_audit;
