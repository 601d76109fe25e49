//! # tea-amg — multigrid-preconditioned CG baseline
//!
//! The paper benchmarks TeaLeaf's CPPCG against "PETSc CG + Hypre
//! BoomerAMG". Neither library fits a from-scratch reproduction, so this
//! crate implements the equivalent method directly: a geometric multigrid
//! [`hierarchy`] (on TeaLeaf's regular grids, BoomerAMG's coarsening
//! degenerates to geometric 2x2 aggregation) used as a V-cycle
//! preconditioner inside CG ([`pcg`]), with a dense Cholesky coarsest
//! solve ([`chol`]) and per-level protocol traces ([`trace`]) for the
//! strong-scaling model. The solver itself is private: it is built by
//! name (`"amg"`) from a registry that [`register`] or
//! [`full_registry`] set up, and its [`MgTrace`] comes back through
//! `IterativeSolver::take_diagnostics`.
//!
//! The substitution keeps the baseline behaviours the paper's comparison
//! turns on: near-mesh-independent iteration counts (the multigrid
//! hierarchy, not the Krylov method, removes the mesh-dependent error),
//! heavy setup (one hierarchy build per operator), and per-iteration
//! communication on every level (each V-cycle sweeps every grid).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chol;
pub mod hierarchy;
pub mod pcg;
pub mod trace;

pub use chol::Cholesky;
pub use hierarchy::{MgHierarchy, MgOpts, COARSEST_CELLS};
pub use pcg::{full_registry, register};
pub use trace::MgTrace;
