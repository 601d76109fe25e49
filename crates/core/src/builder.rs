//! [`Solve`] — the one-expression entry point into the solver design
//! space, and the small problem-assembly helper its doctests and the
//! benches share.

use crate::api::{DynTile, IterativeSolver, Precision, SolveContext, SolverError, SolverParams};
use crate::mixed::solver_for_precision;
use crate::ops::{TileBounds, TileOperator};
use crate::precon::PreconKind;
use crate::registry::SolverRegistry;
use crate::session::{serial_layout, SessionSpec};
use crate::solver::{SolveOpts, Tile, Workspace};
use crate::trace::{SolveResult, SolveTrace};
use tea_comms::{Communicator, SerialComm};
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
///
/// Distributed callers that already hold a [`Tile`] and a [`Workspace`]
/// use [`Solve::run_with`]; everything else (registry resolution,
/// parameterisation, preparation) is identical.
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
    /// [`SolverRegistry::builtin`] (e.g. one with `tea-amg` or custom
    /// methods registered).
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
    /// verbatim. [`Precision::Mixed`] re-routes `cg`/`cg_fused` to
    /// `mixed_cg` and `ppcg` to `mixed_ppcg`; [`Precision::F32`] routes
    /// the CG family to `cg_f32`; [`Precision::F64`] demotes a
    /// reduced-precision name back to its `f64` family solver. Methods
    /// without a registered variant make [`Solve::run`] fail with
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

    /// Eigenvalue-estimation CG presteps (Chebyshev, PPCG, Richardson).
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

    /// Builds the configured solver without running it (for callers
    /// that drive [`crate::IterativeSolver`] directly, e.g. benches
    /// reusing one instance across repeated solves).
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] if the name resolves against
    /// neither the chosen registry nor the builtin one.
    pub fn build(&self) -> Result<Box<dyn IterativeSolver>, SolverError> {
        create_solver(self.registry, &self.spec)
    }

    /// Runs the solve on a single serial tile, allocating the workspace
    /// internally. `u` enters as the initial guess and exits as the
    /// solution.
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] for an unregistered solver name.
    pub fn run(&self, u: &mut Field2D, b: &Field2D) -> Result<SolveResult, SolverError> {
        let solver = self.build()?;
        let (nx, ny) = self.op.bounds.tile();
        let mut ws = Workspace::new(nx, ny, solver.halo_depth());
        let (layout, comm) = (serial_layout(self.op), SerialComm::new());
        let tile: DynTile<'_> = Tile::new(self.op, &layout, &comm);
        Ok(self.drive(solver, &SolveContext::new(&tile), u, b, &mut ws))
    }

    /// Runs the solve on an existing tile (serial or decomposed) with a
    /// caller-owned workspace, for callers that manage their own
    /// decomposition. Ignores the builder's operator in favour of
    /// `tile.op`.
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] for an unregistered solver name.
    pub fn run_with<C: Communicator + ?Sized>(
        &self,
        tile: &Tile<'_, C>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
    ) -> Result<SolveResult, SolverError> {
        let solver = self.build()?;
        assert!(
            ws.halo() >= solver.halo_depth(),
            "workspace halo {} shallower than the {} the configured solver needs \
             (allocate Workspace::new(nx, ny, halo_depth))",
            ws.halo(),
            solver.halo_depth()
        );
        let dyn_tile: DynTile<'_> = Tile::new(tile.op, tile.layout, tile.comm.as_dyn());
        Ok(self.drive(solver, &SolveContext::new(&dyn_tile), u, b, ws))
    }

    /// The one-shot protocol behind [`Solve::run`] and
    /// [`Solve::run_with`]: prepare against `ctx`, then solve.
    fn drive(
        &self,
        mut solver: Box<dyn IterativeSolver>,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
    ) -> SolveResult {
        solver.prepare(ctx, &self.spec.opts);
        let mut trace = SolveTrace::new(solver.label());
        solver.solve(ctx, u, b, ws, &mut trace)
    }
}

/// Routes `spec`'s solver name through its precision override and
/// constructs the solver from `registry` (the builtin one when `None`).
pub(crate) fn create_solver(
    registry: Option<&SolverRegistry>,
    spec: &SessionSpec,
) -> Result<Box<dyn IterativeSolver>, SolverError> {
    static BUILTIN: std::sync::OnceLock<SolverRegistry> = std::sync::OnceLock::new();
    let registry = registry.unwrap_or_else(|| BUILTIN.get_or_init(SolverRegistry::builtin));
    let name = match spec.precision {
        Some(p) => solver_for_precision(&spec.solver, p, registry)?,
        None => spec.solver.clone(),
    };
    registry.create(&name, &spec.params)
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
    use tea_comms::{HaloLayout, SerialComm};
    use tea_mesh::Decomposition2D;

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

    #[test]
    fn run_with_matches_run_bitwise() {
        let n = 16;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let mut u1 = b.clone();
        let r1 = Solve::on(&op)
            .precon(PreconKind::BlockJacobi)
            .run(&mut u1, &b)
            .unwrap();

        let decomp = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&decomp, 0);
        let comm = SerialComm::new();
        let tile = Tile::new(&op, &layout, &comm);
        let mut ws = Workspace::new(n, n, 1);
        let mut u2 = b.clone();
        let r2 = Solve::on(&op)
            .precon(PreconKind::BlockJacobi)
            .run_with(&tile, &mut u2, &b, &mut ws)
            .unwrap();

        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.final_residual.to_bits(), r2.final_residual.to_bits());
        for k in 0..n as isize {
            for j in 0..n as isize {
                assert_eq!(u1.at(j, k).to_bits(), u2.at(j, k).to_bits());
            }
        }
    }
}
