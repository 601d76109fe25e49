//! Solve traces: the structured record of everything a solve did.
//!
//! The CLUSTER'17 strong-scaling figures depend on *what* a solver
//! executes — how many stencil sweeps over which extents, how many global
//! reductions, how many halo exchanges at which depth — not on the wall
//! clock of the machine that happened to run it. A [`SolveTrace`] captures
//! exactly that protocol, so `tea-perfmodel` can replay one measured solve
//! on a modelled Titan/Piz Daint/Spruce at any node count.
//!
//! Counts are recorded per *extension* (how far outside the tile interior
//! a sweep ranged): the redundant work introduced by the matrix-powers
//! kernel lives in those extended sweeps, and it is precisely the term
//! that makes deep halos stop paying off on CPUs around depth 8 (paper
//! §VI).

use crate::control::{Probed, SolveControls};
use std::collections::BTreeMap;
use tea_mesh::Field2;

/// Sweep counts bucketed by extension outside the interior (0 = interior
/// sweep).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// extension (cells beyond interior per side) -> number of sweeps.
    pub sweeps_by_extension: BTreeMap<u32, u64>,
}

impl KernelCounts {
    /// Records one sweep at `ext`.
    pub fn record(&mut self, ext: usize) {
        *self.sweeps_by_extension.entry(ext as u32).or_insert(0) += 1;
    }

    /// Total sweeps across all extensions.
    pub fn total(&self) -> u64 {
        self.sweeps_by_extension.values().sum()
    }

    /// Sweeps at extension 0 only.
    pub fn interior_only(&self) -> u64 {
        self.sweeps_by_extension.get(&0).copied().unwrap_or(0)
    }

    /// Merges another count set into this one.
    pub fn merge(&mut self, other: &KernelCounts) {
        for (&e, &n) in &other.sweeps_by_extension {
            *self.sweeps_by_extension.entry(e).or_insert(0) += n;
        }
    }
}

/// The complete communication/computation protocol of one solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveTrace {
    /// Human-readable solver label (e.g. `"PPCG-16"`).
    pub solver: String,
    /// Outer iterations executed (CG/PPCG outer, Chebyshev or Jacobi
    /// iterations).
    pub outer_iterations: u64,
    /// Inner (Chebyshev smoothing) steps executed, PPCG only.
    pub inner_iterations: u64,
    /// Matrix-free `A·p` sweeps by extension (includes fused-dot sweeps).
    pub spmv: KernelCounts,
    /// Light vector kernels (axpy-class, copies, scales) by extension,
    /// in units of one axpy-class stream triple: CG's fused `u`/`r`
    /// update is one pass but records two, the traffic it carries.
    pub vector_ops: KernelCounts,
    /// Local dot-product sweeps (excluding those fused into spmv or
    /// into CG's update, which cost no pass of their own).
    pub dot_kernels: KernelCounts,
    /// Preconditioner applications by extension.
    pub precon_ops: KernelCounts,
    /// Fused stencil+vector update passes by extension: the matrix-powers
    /// Chebyshev inner sweep folds the `z`/`rr` updates into the stencil
    /// application, so each such pass replaces two separate `vector_ops`
    /// sweeps (and skips the intermediate `w` store entirely). Recorded
    /// separately so the byte model can price the fused traffic honestly.
    pub fused_updates: KernelCounts,
    /// Global reductions (allreduce latencies paid).
    pub reductions: u64,
    /// Scalars carried across all reductions.
    pub reduction_elements: u64,
    /// Halo exchanges: `(depth, fused field count) -> count`.
    pub halo_exchanges: BTreeMap<(u32, u32), u64>,
    /// Eigenvalue estimate used (λmin, λmax), if the solver computed one.
    pub eigen_bounds: Option<(f64, f64)>,
}

impl SolveTrace {
    /// Fresh trace labelled `solver`.
    pub fn new(solver: impl Into<String>) -> Self {
        SolveTrace {
            solver: solver.into(),
            ..Default::default()
        }
    }

    /// Records one fused halo exchange.
    pub fn record_halo(&mut self, depth: usize, nfields: usize) {
        *self
            .halo_exchanges
            .entry((depth as u32, nfields as u32))
            .or_insert(0) += 1;
    }

    /// Records one global reduction of `elements` fused scalars.
    pub fn record_reduction(&mut self, elements: usize) {
        self.reductions += 1;
        self.reduction_elements += elements as u64;
    }

    /// Total halo exchange operations (any depth).
    pub fn total_halo_exchanges(&self) -> u64 {
        self.halo_exchanges.values().sum()
    }

    /// Total halo payload in field-strip units: Σ count · depth · nfields.
    /// Multiplied by the tile side length this gives doubles on the wire.
    pub fn halo_strip_units(&self) -> u64 {
        self.halo_exchanges
            .iter()
            .map(|(&(d, f), &n)| n * d as u64 * f as u64)
            .sum()
    }

    /// Returns a copy with every count multiplied by `factor` (rounded).
    ///
    /// Used to extrapolate a measured trace to a larger mesh whose
    /// iteration count is predicted by a fitted growth law: the
    /// *per-iteration* protocol is mesh-independent, so scaling total
    /// counts by the iteration ratio reproduces the larger run's
    /// protocol (`tea-bench`'s `extrapolate_to` derives the ratio from
    /// the paper's convergence theory).
    pub fn scaled(&self, factor: f64) -> SolveTrace {
        assert!(factor >= 0.0 && factor.is_finite());
        let sc = |n: u64| -> u64 { (n as f64 * factor).round() as u64 };
        let scale_counts = |k: &KernelCounts| -> KernelCounts {
            KernelCounts {
                sweeps_by_extension: k
                    .sweeps_by_extension
                    .iter()
                    .map(|(&e, &n)| (e, sc(n)))
                    .collect(),
            }
        };
        SolveTrace {
            solver: self.solver.clone(),
            outer_iterations: sc(self.outer_iterations),
            inner_iterations: sc(self.inner_iterations),
            spmv: scale_counts(&self.spmv),
            vector_ops: scale_counts(&self.vector_ops),
            dot_kernels: scale_counts(&self.dot_kernels),
            precon_ops: scale_counts(&self.precon_ops),
            fused_updates: scale_counts(&self.fused_updates),
            reductions: sc(self.reductions),
            reduction_elements: sc(self.reduction_elements),
            halo_exchanges: self
                .halo_exchanges
                .iter()
                .map(|(&k, &n)| (k, sc(n)))
                .collect(),
            eigen_bounds: self.eigen_bounds,
        }
    }

    /// Merges another trace's counts (used when accumulating a multi-step
    /// driver run into one trace).
    pub fn merge(&mut self, other: &SolveTrace) {
        self.outer_iterations += other.outer_iterations;
        self.inner_iterations += other.inner_iterations;
        self.spmv.merge(&other.spmv);
        self.vector_ops.merge(&other.vector_ops);
        self.dot_kernels.merge(&other.dot_kernels);
        self.precon_ops.merge(&other.precon_ops);
        self.fused_updates.merge(&other.fused_updates);
        self.reductions += other.reductions;
        self.reduction_elements += other.reduction_elements;
        for (&k, &n) in &other.halo_exchanges {
            *self.halo_exchanges.entry(k).or_insert(0) += n;
        }
        if self.eigen_bounds.is_none() {
            self.eigen_bounds = other.eigen_bounds;
        }
    }
}

/// How a solve ended — the structured counterpart of the bare
/// `converged` flag, distinguishing honest non-convergence from a
/// breakdown or an external cancellation.
///
/// Solvers detect non-finite residuals (a NaN-poisoned field, a
/// breakdown of the `<p, Ap>` positivity) and return
/// [`SolveStatus::Diverged`] immediately instead of burning iterations;
/// a [`crate::StopHandle`] deadline or cancellation surfaces as
/// [`SolveStatus::Cancelled`]. The serve layer keys its
/// retry/degradation ladder off this status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStatus {
    /// The residual criterion was met.
    Converged,
    /// The iteration cap (or an honest stagnation guard) ended the
    /// solve without meeting the criterion.
    #[default]
    IterationLimit,
    /// The iteration broke down: a residual or search-direction
    /// curvature went non-finite (or lost positivity in a way no
    /// further iteration can repair).
    Diverged {
        /// Outer iteration at which the breakdown was detected.
        iteration: u64,
    },
    /// A [`crate::StopHandle`] cancelled the solve (explicitly or via
    /// its deadline) before it finished.
    Cancelled {
        /// Outer iteration at which the stop was observed.
        iteration: u64,
    },
}

impl SolveStatus {
    /// Whether this is [`SolveStatus::Diverged`].
    pub fn is_diverged(&self) -> bool {
        matches!(self, SolveStatus::Diverged { .. })
    }

    /// Whether this is [`SolveStatus::Cancelled`].
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SolveStatus::Cancelled { .. })
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveStatus::Converged => write!(f, "converged"),
            SolveStatus::IterationLimit => write!(f, "iteration limit"),
            SolveStatus::Diverged { iteration } => {
                write!(f, "diverged at iteration {iteration}")
            }
            SolveStatus::Cancelled { iteration } => {
                write!(f, "cancelled at iteration {iteration}")
            }
        }
    }
}

/// Result of one linear solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Whether the residual criterion was met within the iteration cap.
    pub converged: bool,
    /// Outer iterations executed.
    pub iterations: u64,
    /// Euclidean norm of the initial residual.
    pub initial_residual: f64,
    /// Euclidean norm of the final (preconditioned where applicable)
    /// residual.
    pub final_residual: f64,
    /// How the solve ended (convergence, cap, breakdown, cancellation).
    pub status: SolveStatus,
    /// The recorded protocol.
    pub trace: SolveTrace,
}

impl SolveResult {
    /// A solve about to iterate from the reduced `rz0 = r·z` (or `r·r`):
    /// `Ok` carries the in-progress result (zero iterations, both
    /// residuals `√rz0`, status still [`SolveStatus::IterationLimit`])
    /// the shared loops advance in place. `Err` is how the solve ends
    /// before its first iteration: an exactly zero `rz0` is instant
    /// convergence; a non-finite or negative one — a poisoned reduction,
    /// an indefinite preconditioner — is [`SolveStatus::Diverged`] at
    /// iteration 0, checked before the NaN-swallowing `max(0.0)` so it
    /// cannot read as convergence.
    pub(crate) fn start(rz0: f64, trace: SolveTrace) -> Result<SolveResult, Box<SolveResult>> {
        let norm = rz0.max(0.0).sqrt();
        let mut run = SolveResult {
            converged: false,
            iterations: 0,
            initial_residual: norm,
            final_residual: norm,
            status: SolveStatus::IterationLimit,
            trace,
        };
        if rz0.is_finite() && rz0 > 0.0 {
            return Ok(run);
        }
        if rz0 == 0.0 {
            run.converge();
        } else {
            run.diverge();
            run.initial_residual = f64::NAN;
        }
        Err(Box::new(run))
    }

    /// Opens the next outer iteration: counts it and shows the iterate
    /// and residual to the probe — or, if the stop handle fired, ends
    /// the solve [`SolveStatus::Cancelled`] and returns `false`.
    pub(crate) fn begin<S: Probed>(
        &mut self,
        controls: &SolveControls<'_>,
        u: &mut Field2<S>,
        r: &mut Field2<S>,
    ) -> bool {
        if controls.should_stop() {
            self.status = SolveStatus::Cancelled {
                iteration: self.iterations,
            };
            return false;
        }
        self.iterations += 1;
        self.trace.outer_iterations += 1;
        controls.poke(self.iterations, u, r);
        true
    }

    /// Ends the solve [`SolveStatus::Converged`].
    pub(crate) fn converge(&mut self) {
        (self.converged, self.status) = (true, SolveStatus::Converged);
    }

    /// Ends the solve [`SolveStatus::Diverged`] at the current
    /// iteration. The one ending convention: every diverged result
    /// reports a NaN final residual, whichever loop detected it.
    pub fn diverge(&mut self) {
        self.status = SolveStatus::Diverged {
            iteration: self.iterations,
        };
        self.final_residual = f64::NAN;
    }

    /// Folds a freshly reduced squared residual norm in and returns
    /// whether the solve is over: non-finite is divergence (checked
    /// before the NaN-swallowing `max(0.0)`), `√rr ≤ target` is
    /// convergence.
    pub(crate) fn observe(&mut self, rr: f64, target: f64) -> bool {
        if !rr.is_finite() {
            self.diverge();
            return true;
        }
        self.final_residual = rr.max(0.0).sqrt();
        if self.final_residual <= target {
            self.converge();
        }
        self.converged
    }

    /// Relative residual reduction achieved.
    pub fn reduction(&self) -> f64 {
        if self.initial_residual > 0.0 {
            self.final_residual / self.initial_residual
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_counts_bucket_by_extension() {
        let mut k = KernelCounts::default();
        k.record(0);
        k.record(0);
        k.record(3);
        assert_eq!(k.total(), 3);
        assert_eq!(k.interior_only(), 2);
        assert_eq!(k.sweeps_by_extension.get(&3), Some(&1));
    }

    #[test]
    fn trace_halo_and_reduction_accounting() {
        let mut t = SolveTrace::new("CG-1");
        t.record_halo(1, 1);
        t.record_halo(1, 1);
        t.record_halo(16, 2);
        t.record_reduction(1);
        t.record_reduction(3);
        assert_eq!(t.total_halo_exchanges(), 3);
        assert_eq!(t.halo_strip_units(), 2 + 16 * 2);
        assert_eq!(t.reductions, 2);
        assert_eq!(t.reduction_elements, 4);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SolveTrace::new("CG-1");
        a.outer_iterations = 5;
        a.spmv.record(0);
        a.record_halo(1, 1);
        let mut b = SolveTrace::new("CG-1");
        b.outer_iterations = 7;
        b.spmv.record(0);
        b.spmv.record(2);
        b.record_halo(1, 1);
        b.record_reduction(1);
        b.eigen_bounds = Some((0.5, 2.0));
        a.merge(&b);
        assert_eq!(a.outer_iterations, 12);
        assert_eq!(a.spmv.total(), 3);
        assert_eq!(a.halo_exchanges[&(1, 1)], 2);
        assert_eq!(a.reductions, 1);
        assert_eq!(a.eigen_bounds, Some((0.5, 2.0)));
    }

    #[test]
    fn scaled_multiplies_all_counts() {
        let mut t = SolveTrace::new("CG-1");
        t.outer_iterations = 10;
        t.spmv.record(0);
        t.spmv.record(2);
        t.record_halo(1, 1);
        t.record_reduction(2);
        let s = t.scaled(3.0);
        assert_eq!(s.outer_iterations, 30);
        assert_eq!(s.spmv.sweeps_by_extension[&0], 3);
        assert_eq!(s.spmv.sweeps_by_extension[&2], 3);
        assert_eq!(s.halo_exchanges[&(1, 1)], 3);
        assert_eq!(s.reductions, 3);
        assert_eq!(s.reduction_elements, 6);
        assert_eq!(s.solver, "CG-1");
    }

    #[test]
    fn result_reduction_ratio() {
        let r = SolveResult {
            converged: true,
            iterations: 10,
            initial_residual: 100.0,
            final_residual: 1e-6,
            status: SolveStatus::Converged,
            trace: SolveTrace::new("x"),
        };
        assert!((r.reduction() - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn status_helpers_and_display() {
        let d = SolveStatus::Diverged { iteration: 7 };
        assert!(d.is_diverged() && !d.is_cancelled());
        assert_eq!(d.to_string(), "diverged at iteration 7");
        let c = SolveStatus::Cancelled { iteration: 3 };
        assert!(c.is_cancelled() && !c.is_diverged());
        assert_eq!(c.to_string(), "cancelled at iteration 3");
    }
}
