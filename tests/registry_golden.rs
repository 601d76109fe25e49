//! Golden equivalence suite for the `IterativeSolver` registry.
//!
//! Two guarantees, both **bit-exact**:
//!
//! 1. every registry-resolved solver (name → factory → trait object)
//!    behaves identically to direct struct construction with the same
//!    configuration — identical residual histories, iteration counts,
//!    traces and temperature fields — at the solve level and through
//!    the multi-step driver on several decks;
//! 2. factory parameterisation ([`SolverParams`]) maps onto each
//!    solver's own options exactly as its constructor does.
//!
//! (The original PR-3 suite compared against the since-removed
//! `*_solve` free functions; direct construction is the same golden
//! reference — the structs wrap what those functions were.)

use tealeaf::app::{crooked_pipe_deck, run_serial, Control, Deck};
use tealeaf::comms::{Communicator, HaloLayout, SerialComm};
use tealeaf::mesh::{timestep_scalings, Coefficients, Decomposition2D, Field2D, Mesh2D};
use tealeaf::solvers::{
    crooked_pipe_system, Cg, ChebyOpts, Chebyshev, DynTile, IterativeSolver, Jacobi, Ppcg,
    PpcgOpts, PreconKind, Richardson, RichardsonOpts, SolveContext, SolveOpts, SolveResult,
    SolveTrace, SolverParams, Tile, TileBounds, TileOperator, Workspace,
};

fn field_bits(f: &Field2D) -> Vec<u64> {
    let mut bits = Vec::with_capacity(f.nx() * f.ny());
    for k in 0..f.ny() as isize {
        for j in 0..f.nx() as isize {
            bits.push(f.at(j, k).to_bits());
        }
    }
    bits
}

fn assert_results_identical(name: &str, old: &SolveResult, new: &SolveResult) {
    assert_eq!(old.iterations, new.iterations, "{name}: iterations differ");
    assert_eq!(old.converged, new.converged, "{name}: convergence differs");
    assert_eq!(
        old.initial_residual.to_bits(),
        new.initial_residual.to_bits(),
        "{name}: initial residual differs"
    );
    assert_eq!(
        old.final_residual.to_bits(),
        new.final_residual.to_bits(),
        "{name}: final residual differs"
    );
    assert_eq!(old.trace, new.trace, "{name}: solve trace differs");
}

/// Builds the directly-constructed twin of each registry entry for the
/// given parameterisation.
fn direct_solver(name: &str, precon: PreconKind, depth: usize) -> Box<dyn IterativeSolver> {
    match name {
        "jacobi" => Box::new(Jacobi::new()),
        "cg" => Box::new(Cg::new(precon)),
        "mixed_cg" => Box::new(Cg::new(precon).mixed()),
        "chebyshev" => Box::new(Chebyshev::new(
            precon,
            ChebyOpts {
                presteps: 12,
                ..Default::default()
            },
        )),
        "ppcg" => Box::new(Ppcg::new(
            precon,
            PpcgOpts {
                inner_steps: 8,
                halo_depth: depth,
                presteps: 12,
                ..Default::default()
            },
        )),
        other => panic!("no direct twin for '{other}'"),
    }
}

/// Every comparable registry solver vs its directly-constructed twin,
/// one solve, on two differently-shaped systems (sizes, timestep,
/// preconditioner, matrix-powers depth).
#[test]
fn registry_solvers_match_direct_construction_bitwise() {
    // (n, dt, precon, ppcg depth)
    let systems = [
        (16usize, 0.04, PreconKind::Diagonal, 2usize),
        (24usize, 0.02, PreconKind::None, 4usize),
    ];
    let opts = SolveOpts::with_eps(1e-9);
    let names = ["jacobi", "cg", "mixed_cg", "chebyshev", "ppcg"];

    for &(n, dt, precon, depth) in &systems {
        let (op, b) = crooked_pipe_system(n, dt, depth);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let dyn_tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&dyn_tile);
        let registry = tealeaf::app::solver_registry();
        let params = SolverParams {
            precon,
            halo_depth: depth,
            inner_steps: 8,
            presteps: 12,
            ..SolverParams::default()
        };

        for name in names {
            let mut u_old = b.clone();
            let mut ws_old = Workspace::new(n, n, depth);
            let mut direct = direct_solver(name, precon, depth);
            let mut t_old = SolveTrace::new(direct.label());
            direct.prepare(&ctx, &opts);
            let old = direct.solve(&ctx, &mut u_old, &b, &mut ws_old, &mut t_old);

            let mut u_new = b.clone();
            let mut ws_new = Workspace::new(n, n, depth);
            let mut solver = registry.create(name, &params).expect("registered");
            let mut acc = SolveTrace::new(solver.label());
            solver.prepare(&ctx, &opts);
            let new = solver.solve(&ctx, &mut u_new, &b, &mut ws_new, &mut acc);

            assert_results_identical(&format!("{name} (n={n})"), &old, &new);
            assert_eq!(
                field_bits(&u_old),
                field_bits(&u_new),
                "{name} (n={n}): temperature fields differ"
            );
        }
    }
}

/// The registry-driven driver vs a hand-rolled replica that constructs
/// each solver struct directly and drives it through the trait over
/// multiple time steps: per-step residual histories, iteration counts
/// and the final gathered field must agree bit for bit.
#[test]
fn driver_matches_direct_construction_loop_on_decks() {
    // four decks spanning the dispatch arms, including a mixed one
    let decks: &[(&str, usize, u64, PreconKind, usize)] = &[
        ("cg", 24, 3, PreconKind::BlockJacobi, 1),
        ("ppcg", 32, 2, PreconKind::None, 4),
        ("chebyshev", 16, 2, PreconKind::Diagonal, 1),
        ("mixed_cg", 24, 2, PreconKind::BlockJacobi, 1),
    ];

    for &(solver_name, n, steps, precon, depth) in decks {
        let mut deck = crooked_pipe_deck(n, solver_name);
        deck.control = Control {
            solver: solver_name.into(),
            end_step: steps,
            precon,
            ppcg_halo_depth: depth,
            ppcg_inner_steps: 8,
            presteps: 12,
            summary_frequency: 0,
            ..Control::default()
        };

        let new = run_serial(&deck).expect("deck runs");
        let old = replica_driver(&deck);

        assert_eq!(new.steps.len(), old.len(), "{solver_name}: step counts");
        for (s_new, s_old) in new.steps.iter().zip(&old) {
            assert_eq!(
                s_new.iterations, s_old.iterations,
                "{solver_name} step {}: iterations",
                s_new.step
            );
            assert_eq!(
                s_new.converged, s_old.converged,
                "{solver_name} step {}: convergence",
                s_new.step
            );
            assert_eq!(
                s_new.initial_residual.to_bits(),
                s_old.initial_residual.to_bits(),
                "{solver_name} step {}: initial residual",
                s_new.step
            );
            assert_eq!(
                s_new.final_residual.to_bits(),
                s_old.final_residual.to_bits(),
                "{solver_name} step {}: final residual",
                s_new.step
            );
        }
        let u_new = new.final_u.expect("serial run gathers the field");
        let u_old = old.last().expect("ran steps").final_u.clone();
        assert_eq!(
            field_bits(&u_new),
            field_bits(&u_old),
            "{solver_name}: final fields differ"
        );
    }
}

/// One replica step record of the direct-construction driver.
struct ReplicaStep {
    iterations: u64,
    converged: bool,
    initial_residual: f64,
    final_residual: f64,
    final_u: Field2D,
}

/// The driver loop with hand-constructed solver structs: assemble per
/// step, prepare, solve through the trait, fold back.
fn replica_driver(deck: &Deck) -> Vec<ReplicaStep> {
    let problem = &deck.problem;
    let control = &deck.control;
    let n = problem.x_cells;
    let decomp = Decomposition2D::with_grid(n, problem.y_cells, 1, 1);
    let comm = SerialComm::new();
    let mesh = Mesh2D::new(&decomp, 0, problem.extent);
    let layout = HaloLayout::new(&decomp, 0);
    let mut solver = direct_solver(
        &control.solver,
        control.precon,
        control.ppcg_halo_depth.max(1),
    );
    let halo = solver.halo_depth().max(1);
    let (nx, ny) = (mesh.nx(), mesh.ny());

    let mut density = Field2D::new(nx, ny, halo);
    let mut energy = Field2D::new(nx, ny, halo);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, control.dt);
    let bounds = TileBounds::new(&mesh, halo);

    let mut u = Field2D::new(nx, ny, halo);
    let mut b = Field2D::new(nx, ny, halo);
    let mut ws = Workspace::new(nx, ny, halo);
    let mut out = Vec::new();
    let mut trace = SolveTrace::new(solver.label());

    for _step in 1..=control.steps() {
        let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, halo);
        let op = TileOperator::new(coeffs, bounds);
        let dyn_tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&dyn_tile);
        for k in 0..ny as isize {
            let dr = density.row(k, 0, nx as isize);
            let er = energy.row(k, 0, nx as isize);
            let br = b.row_mut(k, 0, nx as isize);
            for i in 0..br.len() {
                br[i] = dr[i] * er[i];
            }
        }
        u.copy_interior_from(&b);

        solver.prepare(&ctx, &control.opts);
        let result = solver.solve(&ctx, &mut u, &b, &mut ws, &mut trace);

        for k in 0..ny as isize {
            let ur = u.row(k, 0, nx as isize);
            let dr = density.row(k, 0, nx as isize);
            let er = energy.row_mut(k, 0, nx as isize);
            for i in 0..er.len() {
                er[i] = ur[i] / dr[i];
            }
        }

        let mut interior = Field2D::new(nx, ny, 0);
        interior.copy_interior_from(&u);
        out.push(ReplicaStep {
            iterations: result.iterations,
            converged: result.converged,
            initial_residual: result.initial_residual,
            final_residual: result.final_residual,
            final_u: interior,
        });
    }
    out
}

/// The AMG baseline (the one solver needing assembly info): registry
/// construction vs direct `AmgPcg::new`, including the accumulated
/// V-cycle trace through the type-erased diagnostics hook.
#[test]
fn amg_registry_path_matches_direct_construction_bitwise() {
    use tealeaf::amg::{AmgPcg, AmgPcgOpts};
    use tealeaf::solvers::Assembly;

    let n = 24;
    let problem = tealeaf::mesh::crooked_pipe(n);
    let mesh = Mesh2D::serial(n, n, problem.extent);
    let mut density = Field2D::new(n, n, 1);
    let mut energy = Field2D::new(n, n, 1);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, 0.04);
    let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, 1);
    let op = TileOperator::new(coeffs, TileBounds::new(&mesh, 1));
    let mut b = Field2D::new(n, n, 1);
    for k in 0..n as isize {
        for j in 0..n as isize {
            b.set(j, k, density.at(j, k) * energy.at(j, k));
        }
    }
    let comm = SerialComm::new();
    let d = Decomposition2D::with_grid(n, n, 1, 1);
    let layout = HaloLayout::new(&d, 0);
    let opts = SolveOpts::with_eps(1e-9);

    let dyn_tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
    let ctx = SolveContext::with_assembly(
        &dyn_tile,
        Assembly {
            density: &density,
            coefficient: problem.coefficient,
            rx,
            ry,
        },
    );

    let mut direct = AmgPcg::new(AmgPcgOpts::default());
    let mut u_old = b.clone();
    let mut ws_old = Workspace::new(n, n, 1);
    let mut t_old = SolveTrace::new(direct.label());
    direct.prepare(&ctx, &opts);
    let old = direct.solve(&ctx, &mut u_old, &b, &mut ws_old, &mut t_old);
    let old_mg = direct.take_mg_trace().expect("a solve ran");

    let mut solver = tealeaf::app::solver_registry()
        .create("boomeramg", &SolverParams::default()) // alias resolves too
        .expect("amg is registered");
    let mut u_new = b.clone();
    let mut ws_new = Workspace::new(n, n, 1);
    let mut acc = SolveTrace::new(solver.label());
    solver.prepare(&ctx, &opts);
    let new = solver.solve(&ctx, &mut u_new, &b, &mut ws_new, &mut acc);

    assert_results_identical("amg", &old, &new);
    assert_eq!(field_bits(&u_old), field_bits(&u_new), "amg fields differ");

    // the V-cycle trace survives the trait boundary via the
    // type-erased diagnostics hook (the same path the driver uses)
    let mg = *solver
        .take_diagnostics()
        .expect("a solve ran")
        .downcast::<tealeaf::amg::MgTrace>()
        .expect("the AMG solver's diagnostics payload is its MgTrace");
    assert_eq!(mg.vcycles, old_mg.vcycles, "V-cycle counts differ");
    assert_eq!(mg.setup_cells, old_mg.setup_cells, "setup work differs");
}

/// Registry round-trip (name → solver → solve) vs direct struct
/// construction: the trait object built by the factory must behave bit
/// for bit like the hand-built struct — shown on Richardson, the solver
/// that only exists post-redesign.
#[test]
fn registry_roundtrip_matches_direct_construction() {
    let n = 24;
    let (op, b) = crooked_pipe_system(n, 0.04, 1);
    let comm = SerialComm::new();
    let d = Decomposition2D::with_grid(n, n, 1, 1);
    let layout = HaloLayout::new(&d, 0);
    let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
    let ctx = SolveContext::new(&tile);
    let opts = SolveOpts::with_eps(1e-8);
    let params = SolverParams {
        precon: PreconKind::Diagonal,
        presteps: 8,
        ..SolverParams::default()
    };

    // through the registry, as a trait object
    let mut via_registry = tealeaf::app::solver_registry()
        .create("richardson", &params)
        .expect("richardson is registered");
    assert_eq!(via_registry.name(), "richardson");
    let mut u1 = b.clone();
    let mut ws1 = Workspace::new(n, n, 1);
    let mut t1 = SolveTrace::new(via_registry.label());
    via_registry.prepare(&ctx, &opts);
    let r1 = via_registry.solve(&ctx, &mut u1, &b, &mut ws1, &mut t1);

    // direct construction
    let mut direct = Richardson::new(
        PreconKind::Diagonal,
        RichardsonOpts {
            presteps: 8,
            ..Default::default()
        },
    );
    let mut u2 = b.clone();
    let mut ws2 = Workspace::new(n, n, 1);
    let mut t2 = SolveTrace::new(direct.label());
    direct.prepare(&ctx, &opts);
    let r2 = direct.solve(&ctx, &mut u2, &b, &mut ws2, &mut t2);

    assert!(r1.converged && r2.converged, "both paths must converge");
    assert_results_identical("richardson round-trip", &r2, &r1);
    assert_eq!(field_bits(&u1), field_bits(&u2), "fields differ");
    assert_eq!(t1, t2, "accumulated traces differ");
}
