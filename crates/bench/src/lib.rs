//! # tea-bench — the experiment harness
//!
//! The `figures` binary regenerates every table, figure and quantified
//! claim of the CLUSTER'17 evaluation, one subcommand each. This
//! library holds the shared machinery: measuring solver traces from real
//! runs, fitting the iteration-growth law, extrapolating protocols to
//! the paper's 4000² mesh, and checking each paper claim once
//! ([`claims`]). Timing lives in the repo benchmark
//! (`benchmark/`), not here: nothing in this crate reads a clock.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod claims;

use std::fmt;

use tea_amg::MgTrace;
use tea_app::{crooked_pipe_deck, run_serial, Deck};
use tea_comms::{HaloLayout, SerialComm};
use tea_core::{
    cg_solve_recording, crooked_pipe_system, estimate_from_cg, kappa_pcg, Preconditioner,
    SolveOpts, SolveTrace, Tile, TileOperator, Workspace,
};
use tea_mesh::{Decomposition2D, Field2D};

/// A solver configuration measured for the scaling figures.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Legend label (paper style, e.g. `"PPCG - 16"`).
    pub label: String,
    /// Registry solver name (see `tea_app::solver_registry`).
    pub solver: String,
    /// Matrix-powers depth (PPCG only).
    pub depth: usize,
    /// Chebyshev inner steps per outer iteration (PPCG only).
    pub inner: usize,
}

impl SolverConfig {
    fn new(label: String, solver: &str, depth: usize) -> Self {
        SolverConfig {
            label,
            solver: solver.into(),
            depth,
            inner: 16,
        }
    }

    /// Plain CG with depth-1 halos — the paper's `CG - 1`.
    pub fn cg() -> Self {
        Self::new("CG - 1".into(), "cg", 1)
    }

    /// `PPCG - depth` (16 inner steps, as in the figures).
    pub fn ppcg(depth: usize) -> Self {
        Self::new(format!("PPCG - {depth}"), "ppcg", depth)
    }

    /// The BoomerAMG-class baseline.
    pub fn amg() -> Self {
        Self::new("BoomerAMG".into(), "amg", 1)
    }

    /// The crooked-pipe deck this configuration runs.
    pub fn deck(&self, cells: usize, steps: u64) -> Deck {
        let mut deck = crooked_pipe_deck(cells, self.solver.clone());
        deck.control.end_step = steps;
        deck.control.summary_frequency = 0;
        deck.control.ppcg_halo_depth = self.depth;
        deck.control.ppcg_inner_steps = self.inner;
        deck
    }
}

/// A measured protocol: the accumulated trace of a real run plus its
/// iteration count.
#[derive(Debug)]
// audit:allow(dead_pub) — what `measure` returns; claims.rs and figures.rs read its fields by inference
pub struct Measurement {
    /// Mesh size of the run.
    pub cells: usize,
    /// Accumulated solver trace.
    pub trace: SolveTrace,
    /// Accumulated multigrid trace (AMG runs).
    pub mg: Option<MgTrace>,
    /// Total outer iterations over the run.
    pub iterations: u64,
}

/// A measured deck that did not run to convergence: the deck, named by
/// its size and solver, and what the driver or its steps reported.
#[derive(Debug)]
pub struct DeckFailure(String);

impl DeckFailure {
    /// The failure of `deck`, for the reason `why`.
    pub(crate) fn of(deck: &Deck, why: impl fmt::Display) -> Self {
        let (n, solver) = (deck.problem.x_cells, &deck.control.solver);
        DeckFailure(format!("the {n}² {solver} deck runs (measured: {why})"))
    }
}

impl fmt::Display for DeckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runs a configuration serially and returns its protocol.
///
/// # Errors
/// [`DeckFailure`] when the deck does not run (an unregistered solver
/// name, say) or one of its steps does not converge.
pub fn measure(
    config: &SolverConfig,
    cells: usize,
    steps: u64,
) -> Result<Measurement, DeckFailure> {
    let deck = config.deck(cells, steps);
    let out = run_serial(&deck).map_err(|e| DeckFailure::of(&deck, e))?;
    if let Some(s) = out.steps.iter().find(|s| !s.converged) {
        let why = format!("{} did not converge at step {}", config.label, s.step);
        return Err(DeckFailure::of(&deck, why));
    }
    Ok(Measurement {
        cells,
        trace: out.trace,
        mg: out.mg_trace,
        iterations: out.steps.iter().map(|s| s.iterations).sum(),
    })
}

/// Fits `iters = a · n^p` through measured `(n, iters)` points by
/// log-log least squares and returns `(a, p)`.
pub fn fit_power_law(points: &[(usize, u64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two sizes to fit");
    let xs: Vec<f64> = points.iter().map(|&(n, _)| (n as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, i)| (i as f64).ln()).collect();
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let p = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let a = ((sy - p * sx) / n).exp();
    (a, p)
}

/// Estimates `κ(M⁻¹A)` from the Lanczos coefficients of `steps` CG
/// iterations on `A u = b` (serial tile, depth-1 halos).
pub fn lanczos_kappa(op: &TileOperator, b: &Field2D, precon: &Preconditioner, steps: u64) -> f64 {
    let (nx, ny) = (b.nx(), b.ny());
    let comm = SerialComm::new();
    let layout = HaloLayout::new(&Decomposition2D::with_grid(nx, ny, 1, 1), 0);
    let tile = Tile::new(op, &layout, &comm);
    let mut ws = Workspace::new(nx, ny, 1);
    let mut u = b.clone();
    let (_, coeffs) = cg_solve_recording(
        &tile,
        &mut u,
        b,
        precon,
        &mut ws,
        SolveOpts::with_eps(1e-12),
        steps,
    );
    let (al, be) = coeffs.for_lanczos();
    estimate_from_cg(al, be, 0.0).condition_number()
}

/// Measures `κ(A)` at a mesh size via CG-Lanczos on the crooked pipe.
pub fn measure_kappa(cells: usize) -> f64 {
    let (op, b) = crooked_pipe_system(cells, 0.04, 1);
    lanczos_kappa(&op, &b, &Preconditioner::Identity, 80)
}

/// Extrapolation record: what was measured and how it was scaled.
#[derive(Debug)]
// audit:allow(dead_pub) — what `extrapolate_to` returns; claims.rs reads its fields by inference
pub struct Extrapolation {
    /// The measured trace scaled to the target mesh, labelled with the
    /// configuration's legend.
    pub trace: SolveTrace,
    /// Measured protocol at `cells`.
    pub measurement: Measurement,
    /// Measured condition number at the measurement mesh.
    pub kappa_measured: f64,
    /// Theory-scaled condition number at the target mesh (`κ ∝ n²`
    /// because `rx = Δt/Δx²`).
    pub kappa_target: f64,
    /// Iteration scale factor applied to the trace.
    pub factor: f64,
}

/// Extrapolates a Krylov config's measured trace to `target` cells per
/// side using the paper's own convergence theory (Eqs. 4-7), given
/// `kappa_measured`, the [`measure_kappa`] of `base_cells` (one Lanczos
/// run serves every configuration on that mesh):
///
/// * `κ` scales as `(target/measured)²` (the face coefficients carry
///   `Δt/Δx²`);
/// * CG/Chebyshev iterations scale as `√(κ_t/κ_m)` (Eq. 6);
/// * CPPCG outer iterations scale as `√(κpcg_t/κpcg_m)` with `κpcg`
///   from Eqs. 4-5 — which reproduces O'Leary's invariant that the
///   *total* matrix-vector work cannot drop below plain CG's.
///
/// # Errors
/// As [`measure`], for the measured deck.
pub fn extrapolate_to(
    config: &SolverConfig,
    base_cells: usize,
    steps: u64,
    target: usize,
    kappa_measured: f64,
) -> Result<Extrapolation, DeckFailure> {
    let measurement = measure(config, base_cells, steps)?;
    let ratio = target as f64 / base_cells as f64;
    let kappa_target = kappa_measured * ratio * ratio;
    let factor = if config.solver == "ppcg" {
        (kappa_pcg(kappa_target, config.inner) / kappa_pcg(kappa_measured, config.inner)).sqrt()
    } else {
        (kappa_target / kappa_measured).sqrt()
    };
    let mut trace = measurement.trace.scaled(factor);
    trace.solver = config.label.clone();
    Ok(Extrapolation {
        trace,
        measurement,
        kappa_measured,
        kappa_target,
        factor,
    })
}

/// Extrapolates an AMG measurement: iteration growth fitted from three
/// sizes (multigrid is near mesh-independent, so the fit is safe); level
/// shapes rebuilt for the target mesh; per-level sweeps and setup cells
/// scaled consistently. Returns the trace and the fitted growth exponent.
///
/// # Errors
/// As [`measure`], for the first measured deck that fails.
pub fn extrapolate_amg_to(
    base_cells: usize,
    steps: u64,
    target: usize,
) -> Result<(MgTrace, f64), DeckFailure> {
    let config = SolverConfig::amg();
    let sizes = [base_cells / 4 * 2, base_cells / 4 * 3, base_cells];
    let [small, mid, base] = sizes.map(|n| measure(&config, n.max(16), steps));
    let runs = [small?, mid?, base?];
    let (a, p) = fit_power_law(&runs.each_ref().map(|m| (m.cells, m.iterations.max(1))));
    let predicted = a * (target as f64).powf(p);
    let last = &runs[2];
    let factor = predicted / last.iterations.max(1) as f64;
    let mg_last = last.mg.as_ref().expect("AMG runs carry traces");

    // rebuild the level geometry for the target mesh
    let mut shapes = Vec::new();
    let (mut nx, mut ny) = (target, target);
    loop {
        shapes.push((nx, ny));
        if nx * ny <= tea_amg::COARSEST_CELLS || nx < 4 || ny < 4 {
            break;
        }
        nx = nx.div_ceil(2);
        ny = ny.div_ceil(2);
    }
    let total_setup: usize = shapes.iter().map(|&(a, b)| a * b).sum();

    // sweeps per level scale with v-cycle count; extra (deeper) levels of
    // the target hierarchy inherit the measured per-cycle cadence
    let vcycles = (mg_last.vcycles as f64 * factor).round() as u64;
    let per_cycle: f64 = if mg_last.vcycles > 0 {
        mg_last.total_level_sweeps() as f64
            / (mg_last.vcycles as f64 * mg_last.level_shapes.len() as f64)
    } else {
        6.0
    };
    let sweeps = (per_cycle * vcycles as f64).round() as u64;
    let mut outer = mg_last.outer.scaled(factor);
    outer.solver = config.label;
    let mg = MgTrace {
        outer,
        level_sweeps: (0..shapes.len() as u32).map(|l| (l, sweeps)).collect(),
        level_shapes: shapes,
        vcycles,
        coarse_solves: vcycles,
        setup_cells: (total_setup as u64) * (steps.max(1)),
    };
    Ok((mg, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_fit_recovers_exponents() {
        // perfect power law
        let pts: Vec<(usize, u64)> = [32usize, 64, 128]
            .iter()
            .map(|&n| (n, (3.0 * (n as f64).powf(1.0)) as u64))
            .collect();
        let (a, p) = fit_power_law(&pts);
        assert!((p - 1.0).abs() < 0.05, "exponent {p}");
        assert!((a - 3.0).abs() < 0.5, "coefficient {a}");
        // constant (mesh-independent, AMG-style)
        let flat: Vec<(usize, u64)> = vec![(32, 40), (64, 40), (128, 40)];
        let (_, p0) = fit_power_law(&flat);
        assert!(p0.abs() < 0.01);
    }

    #[test]
    fn measure_produces_consistent_protocol() {
        let m = measure(&SolverConfig::cg(), 24, 1).unwrap();
        assert_eq!(m.cells, 24);
        assert!(m.iterations > 0);
        assert_eq!(m.trace.outer_iterations, m.iterations);
        assert!(m.mg.is_none());
        let amg = measure(&SolverConfig::amg(), 24, 1).unwrap();
        assert!(amg.mg.is_some());
    }

    #[test]
    fn measure_names_a_deck_that_does_not_run() {
        let mut config = SolverConfig::cg();
        config.solver = "gauss_seidel".into();
        let err = measure(&config, 16, 1).unwrap_err().to_string();
        assert!(err.contains("gauss_seidel"), "{err}");
        assert!(err.contains("16²"), "{err}");
    }

    #[test]
    fn extrapolation_scales_iterations_up() {
        let ext = extrapolate_to(&SolverConfig::cg(), 48, 1, 512, measure_kappa(48)).unwrap();
        // CG factor is exactly the mesh ratio (κ ∝ n², iters ∝ √κ)
        assert!((ext.factor - 512.0 / 48.0).abs() < 1e-9);
        assert!(ext.trace.outer_iterations > ext.measurement.iterations);
        assert!(ext.kappa_target > ext.kappa_measured);
    }

    #[test]
    fn ppcg_extrapolation_preserves_olearys_invariant() {
        // the total matvec work of CPPCG must not drop below CG's at the
        // same κ: outer(m) · m >= total/(1 + o(1))
        let kappa = 100_000.0;
        for m in [4usize, 8, 16] {
            let outer_factor = kappa_pcg(kappa, m).sqrt();
            let total_factor = kappa.sqrt();
            let work_ratio = outer_factor * m as f64 / total_factor;
            assert!(
                work_ratio > 0.9 && work_ratio < 3.0,
                "m = {m}: CPPCG work ratio {work_ratio} violates O'Leary"
            );
        }
    }

    #[test]
    fn config_labels() {
        assert_eq!(SolverConfig::cg().label, "CG - 1");
        assert_eq!(SolverConfig::ppcg(16).label, "PPCG - 16");
        assert_eq!(SolverConfig::amg().label, "BoomerAMG");
    }
}
