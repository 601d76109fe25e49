//! # tea-core — matrix-free iterative sparse linear solvers
//!
//! The primary contribution of the TeaLeaf paper, reimplemented in Rust:
//! matrix-free 5-point diffusion operators ([`ops`]), the solver family
//! (Jacobi, CG, Chebyshev, CPPCG — [`jacobi`], [`cg`], [`chebyshev`],
//! [`ppcg`] — each one piece plugged into the two loops of
//! [`recurrence`], at `f64` or through the `f32` image in [`mixed`]),
//! preconditioners including the zero-communication 4×1-strip
//! block-Jacobi ([`precon`]), Lanczos/Sturm eigenvalue estimation
//! ([`eigen`]), and the matrix-powers deep-halo schedule inside CPPCG.
//!
//! Every solve produces a [`SolveTrace`]: the machine-independent
//! protocol (stencil sweeps by extension, halo exchanges by depth, global
//! reductions) that `tea-perfmodel` replays on modelled petascale
//! machines to regenerate the paper's strong-scaling figures.
//!
//! The design space is a first-class API: every method is an
//! [`IterativeSolver`] built by name by the [`SolverRegistry`] from one
//! flat [`SolverParams`] set — the only way to build a solver — and the
//! [`Solve`] builder is the one-expression way in.
//!
//! There is one kernel source: every precision runs the
//! same row bodies ([`vector::lanes`] — explicit-width elementwise
//! sweeps, safe `chunks_exact` code only), compiled twice — for the
//! build's target and for AVX2 — with the copy picked at run time
//! ([`kernel_isa`] names it) and bit-identical either way. Contract:
//! elementwise kernels are bit-identical to element-at-a-time loops, and
//! every reduction (dots, `p·w`, CG's fused `r·z`) has one fixed shape —
//! 16 lane accumulators per row, a fixed pairwise tree, remainder last,
//! rows in row order — that depends only on the sweep bounds. Rows are
//! swept on the calling thread; a run's parallelism is its rank count.
//! Bits differ from pre-PR-12 runs (serial add chain) by design.
//!
//! ## Example: block-Jacobi-preconditioned CG on the crooked pipe
//!
//! ```
//! use tea_core::{crooked_pipe_system, PreconKind, Solve};
//!
//! let (op, b) = crooked_pipe_system(24, 0.04, 1);
//! let mut u = b.clone(); // TeaLeaf warm start
//! let result = Solve::on(&op)
//!     .with_solver("cg")
//!     .precon(PreconKind::BlockJacobi)
//!     .run(&mut u, &b)
//!     .expect("cg is registered");
//! assert!(result.converged);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
pub mod builder;
pub mod cg;
pub mod chebyshev;
pub mod control;
pub mod eigen;
mod isa;
pub mod jacobi;
pub mod mixed;
pub mod ops;
pub mod ppcg;
pub mod precon;
pub mod recurrence;
pub mod registry;
pub mod runtime;
pub mod session;
pub mod solver;
pub mod sync;
pub mod trace;
pub mod vector;

pub use api::{
    Assembly, DynTile, InnerSteps, IterationCost, IterativeSolver, Precision, SolveContext,
    SolverError, SolverMeta, SolverParams, CHECK_INTERVAL, EIGEN_SAFETY,
};
pub use builder::{crooked_pipe_system, Solve};
pub use cg::{cg_solve_recording, CgCoefficients};
pub use chebyshev::{cg_iteration_bound, kappa_pcg, ChebyConstants};
pub use control::{Probed, SolveControls, SolveProbe, StopHandle};
pub use eigen::{
    estimate_from_cg, lanczos_tridiagonal, sturm_count, tridiag_all_eigenvalues, EigenEstimate,
};
pub use isa::kernel_isa;
pub use ops::{TileBounds, TileOperator};
pub use precon::{BlockJacobi, PreconKind, Preconditioner};
pub use recurrence::{pcg_loop, Entry, Krylov, Precondition};
pub use registry::SolverRegistry;
pub use runtime::{num_threads, par_threshold, set_num_threads, set_par_threshold};
pub use session::{CacheStats, SessionSpec, SetupCache, SolveSession};
pub use solver::{SolveOpts, Tile, Workspace};
pub use sync::lock_tolerant;
pub use trace::{KernelCounts, SolveResult, SolveStatus, SolveTrace};
