//! [`Solve`] — the one-expression entry point into the solver design
//! space, a one-shot [`SolveSession`] — and the small problem-assembly
//! helper its doctests and the benches share.

use crate::api::{Precision, SolverError, SolverParams};
use crate::ops::{TileBounds, TileOperator};
use crate::precon::PreconKind;
use crate::registry::SolverRegistry;
use crate::session::{SessionSpec, SolveSession};
use crate::solver::SolveOpts;
use crate::trace::SolveResult;
use tea_mesh::{crooked_pipe, timestep_scalings, Coefficients, Field2D, Mesh2D};

/// Builder for one linear solve: pick a solver by registry name, adjust
/// options, run. The one documented way in for single-tile callers.
///
/// ```
/// use tea_core::{crooked_pipe_system, Solve};
///
/// let (op, b) = crooked_pipe_system(32, 0.04, 8);
/// let mut u = b.clone();
/// let result = Solve::on(&op)
///     .with_solver("ppcg")
///     .halo_depth(8)
///     .eps(1e-12)
///     .run(&mut u, &b)
///     .expect("ppcg is a registered solver");
/// assert!(result.converged);
/// ```
#[derive(Debug, Clone)]
pub struct Solve<'a> {
    op: &'a TileOperator,
    registry: Option<&'a SolverRegistry>,
    spec: SessionSpec,
}

impl<'a> Solve<'a> {
    /// Starts a solve on `op` with the default solver (CG) and options.
    pub fn on(op: &'a TileOperator) -> Self {
        Solve {
            op,
            registry: None,
            spec: SessionSpec::default(),
        }
    }

    /// Selects the solver by registry name or alias (default `"cg"`).
    pub fn with_solver(mut self, name: impl Into<String>) -> Self {
        self.spec.solver = name.into();
        self
    }

    /// Resolves names against `registry` instead of
    /// [`SolverRegistry::builtin`] (e.g. one with `auto` or custom
    /// methods registered). A method that builds from the operator's
    /// assembly recipe (`tea-amg`'s) cannot run in a `Solve`, which
    /// carries none: [`Solve::run`] names what it misses.
    pub fn with_registry(mut self, registry: &'a SolverRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Relative residual-reduction target (TeaLeaf `tl_eps`).
    pub fn eps(mut self, eps: f64) -> Self {
        self.spec.opts.eps = eps;
        self
    }

    /// Outer-iteration cap (TeaLeaf `tl_max_iters`).
    pub fn max_iters(mut self, max_iters: u64) -> Self {
        self.spec.opts.max_iters = max_iters;
        self
    }

    /// Preconditioner for the methods that accept one.
    pub fn precon(mut self, kind: PreconKind) -> Self {
        self.spec.params.precon = kind;
        self
    }

    /// Arithmetic-precision override. Unset, the solver name is taken
    /// verbatim; set, [`SolverRegistry::route`] moves it to the entry of
    /// the same [`crate::SolverMeta::family`] at `precision` (`cg` at
    /// [`Precision::Mixed`] runs `mixed_cg`, `mixed_ppcg` at
    /// [`Precision::F64`] runs `ppcg`). Methods without a registered
    /// variant make [`Solve::run`] fail with
    /// [`SolverError::PrecisionUnsupported`].
    ///
    /// ```
    /// use tea_core::{crooked_pipe_system, Precision, Solve};
    ///
    /// let (op, b) = crooked_pipe_system(32, 0.04, 1);
    /// let mut u = b.clone();
    /// let result = Solve::on(&op)
    ///     .precision(Precision::Mixed) // cg -> mixed_cg
    ///     .eps(1e-10)
    ///     .run(&mut u, &b)
    ///     .expect("mixed variant is registered");
    /// assert!(result.converged);
    /// ```
    pub fn precision(mut self, precision: Precision) -> Self {
        self.spec.precision = Some(precision);
        self
    }

    /// Matrix-powers halo depth (PPCG). The operator must be assembled
    /// at least this deep.
    pub fn halo_depth(mut self, depth: usize) -> Self {
        self.spec.params.halo_depth = depth;
        self
    }

    /// Inner Chebyshev smoothing steps per outer iteration (PPCG).
    pub fn inner_steps(mut self, steps: usize) -> Self {
        self.spec.params.inner_steps = steps;
        self
    }

    /// Eigenvalue-estimation CG presteps (Chebyshev, PPCG).
    pub fn presteps(mut self, presteps: u64) -> Self {
        self.spec.params.presteps = presteps;
        self
    }

    /// Replaces the full parameter bag in one call.
    pub fn params(mut self, params: SolverParams) -> Self {
        self.spec.params = params;
        self
    }

    /// Replaces the full convergence options in one call.
    pub fn opts(mut self, opts: SolveOpts) -> Self {
        self.spec.opts = opts;
        self
    }

    /// Runs the solve on a single serial tile as a one-shot
    /// [`SolveSession`] over a copy of the operator: prepare, then
    /// solve. `u` enters as the initial guess and exits as the solution.
    /// The workspace takes `u`'s halo depth, which must be at least the
    /// solver's, so a shallow solver runs on fields assembled for a
    /// deeper one.
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] for an unregistered solver name,
    /// the other errors of [`SolverRegistry::route`] and
    /// [`SolverRegistry::create`], and those of
    /// [`SolveSession::solve_controlled`]: a method that builds from the
    /// operator's assembly recipe, which a `Solve` does not carry, or
    /// one whose halo is deeper than `u`'s.
    ///
    /// # Panics
    /// As [`SolveSession::solve_controlled`], when `u` or `b` is not
    /// shaped like the operator's tile at that workspace's halo.
    pub fn run(&self, u: &mut Field2D, b: &Field2D) -> Result<SolveResult, SolverError> {
        SolveSession::build_in(self.registry, self.op.clone(), &self.spec)?.solve(u, b)
    }
}

/// Assembles the paper's crooked-pipe system at `n × n` cells: the
/// matrix-free operator for one implicit step of size `dt` (fields and
/// coefficients carrying `halo` ghost layers) and the TeaLeaf
/// right-hand side `b = ρ·e`. The warm start is `u = b.clone()`.
///
/// This is the setup preamble of every example and bench, packaged so
/// quickstarts stay quick.
pub fn crooked_pipe_system(n: usize, dt: f64, halo: usize) -> (TileOperator, Field2D) {
    let halo = halo.max(1);
    let problem = crooked_pipe(n);
    let mesh = Mesh2D::serial(n, n, problem.extent);
    // coefficients one layer deeper than the solver halo, like the app
    // driver: the operator diagonal at extension `halo` reads the face
    // coefficient one cell beyond, so Diagonal preconditioning at the
    // full matrix-powers depth needs the extra ghost layer (values at
    // shared cells are identical — liveness only, never results)
    let mut density = Field2D::new(n, n, halo + 1);
    let mut energy = Field2D::new(n, n, halo + 1);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, dt);
    let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, halo + 1);
    let op = TileOperator::new(coeffs, TileBounds::new(&mesh, halo));
    let mut b = Field2D::new(n, n, halo);
    for k in 0..n as isize {
        for j in 0..n as isize {
            b.set(j, k, density.at(j, k) * energy.at(j, k));
        }
    }
    (op, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_runs_every_builtin_solver() {
        let (op, b) = crooked_pipe_system(16, 0.04, 4);
        let registry = SolverRegistry::builtin();
        for name in registry.names() {
            // fully-f32 methods honestly cannot reach f64-grade
            // tolerances; ask them for what the format can deliver
            let eps = match registry.resolve(name).unwrap().precision {
                crate::api::Precision::F32 => 1e-4,
                _ => 1e-8,
            };
            let mut u = b.clone();
            let result = Solve::on(&op)
                .with_solver(name)
                .halo_depth(4)
                .eps(eps)
                .max_iters(200_000)
                .run(&mut u, &b)
                .expect("builtin solver must resolve");
            assert!(result.converged, "{name} failed to converge: {result:?}");
        }
    }

    #[test]
    fn builder_precision_routes_and_rejects() {
        let (op, b) = crooked_pipe_system(16, 0.04, 1);
        let mut u = b.clone();
        let result = Solve::on(&op)
            .precision(Precision::Mixed)
            .eps(1e-9)
            .run(&mut u, &b)
            .expect("mixed cg is registered");
        assert!(result.converged, "{result:?}");

        let mut u2 = b.clone();
        let err = Solve::on(&op)
            .with_solver("jacobi")
            .precision(Precision::Mixed)
            .run(&mut u2, &b)
            .unwrap_err();
        assert!(
            matches!(err, SolverError::PrecisionUnsupported { .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_zero_presteps_for_every_solver() {
        let (op, b) = crooked_pipe_system(8, 0.04, 1);
        for name in SolverRegistry::builtin().names() {
            let mut u = b.clone();
            let err = Solve::on(&op)
                .with_solver(name)
                .presteps(0)
                .run(&mut u, &b)
                .unwrap_err();
            assert_eq!(
                err,
                SolverError::InvalidParams {
                    solver: name.to_string(),
                    reason: "presteps must be at least 1, got 0".to_string(),
                }
            );
        }
    }

    #[test]
    fn builder_reports_unknown_solver() {
        let (op, b) = crooked_pipe_system(8, 0.04, 1);
        let mut u = b.clone();
        let err = Solve::on(&op)
            .with_solver("gauss_seidel")
            .run(&mut u, &b)
            .unwrap_err();
        assert!(err.to_string().contains("gauss_seidel"), "{err}");
        assert!(err.to_string().contains("ppcg"), "{err}");
    }
}
