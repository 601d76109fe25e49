//! Golden equivalence of the driver's one-preparation road against the
//! per-step road, **bit-exact**.
//!
//! `run_serial` assembles each rank's operator once and prepares its
//! solver once per run. The replica below does it the old way: it
//! reassembles the operator and re-prepares the registry-built solver
//! before every time step, driving the solver through the trait. Since
//! the density never changes, both roads solve the same systems, so
//! per-step iteration counts, residuals and the final temperature field
//! must agree bit for bit — including for the two solvers whose
//! `prepare` builds heavy state (`amg`'s multigrid hierarchy,
//! `mixed_ppcg`'s `f32` image). Per-step reassembly and re-preparation
//! is also the road the benchmark harness's `mirror_rank`
//! (`benchmark/src/deckrun.rs`) still takes.
//!
//! Every registry solver's own bits and trace counters are pinned by
//! `tests/solver_fingerprint.rs`.

use tealeaf::app::{crooked_pipe_deck, run_serial, solver_registry, Control, Deck};
use tealeaf::comms::{Communicator, HaloLayout, SerialComm};
use tealeaf::mesh::{timestep_scalings, Coefficients, Decomposition2D, Field2D, Mesh2D};
use tealeaf::solvers::{
    Assembly, DynTile, PreconKind, SolveContext, SolveTrace, Tile, TileBounds, TileOperator,
    Workspace,
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

/// The driver vs the per-step replica over multiple time steps:
/// per-step residual histories, iteration counts and the final gathered
/// field must agree bit for bit.
#[test]
fn driver_matches_direct_construction_loop_on_decks() {
    // decks spanning the dispatch arms, including the two whose prepare
    // builds heavy state
    let decks: &[(&str, usize, u64, PreconKind, usize)] = &[
        ("cg", 24, 3, PreconKind::BlockJacobi, 1),
        ("ppcg", 32, 2, PreconKind::None, 4),
        ("chebyshev", 16, 2, PreconKind::Diagonal, 1),
        ("mixed_cg", 24, 2, PreconKind::BlockJacobi, 1),
        ("mixed_ppcg", 32, 2, PreconKind::None, 4),
        ("amg", 24, 2, PreconKind::None, 1),
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

/// One replica step record of the per-step driver.
struct ReplicaStep {
    iterations: u64,
    converged: bool,
    initial_residual: f64,
    final_residual: f64,
    final_u: Field2D,
}

/// The driver loop the per-step way: one registry-built solver, and
/// before every step a fresh assembly and a fresh prepare, then a solve
/// through the trait and the fold-back into energy.
fn replica_driver(deck: &Deck) -> Vec<ReplicaStep> {
    let problem = &deck.problem;
    let control = &deck.control;
    let n = problem.x_cells;
    let decomp = Decomposition2D::with_grid(n, problem.y_cells, 1, 1);
    let comm = SerialComm::new();
    let mesh = Mesh2D::new(&decomp, 0, problem.extent);
    let layout = HaloLayout::new(&decomp, 0);
    let name = control.effective_solver().expect("deck solver resolves");
    let mut solver = solver_registry()
        .create(&name, &control.solver_params())
        .expect("registered");
    let halo = solver.halo_depth().max(1);
    let (nx, ny) = (mesh.nx(), mesh.ny());

    // state fields and coefficients one layer deeper than the solver
    // halo, as the driver assembles them
    let mut density = Field2D::new(nx, ny, halo + 1);
    let mut energy = Field2D::new(nx, ny, halo + 1);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, control.dt);
    let bounds = TileBounds::new(&mesh, halo);

    let mut u = Field2D::new(nx, ny, halo);
    let mut b = Field2D::new(nx, ny, halo);
    let mut ws = Workspace::new(nx, ny, halo);
    let mut out = Vec::new();
    let mut trace = SolveTrace::new(solver.label());

    for _step in 1..=control.steps() {
        let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, halo + 1);
        let op = TileOperator::new(coeffs, bounds);
        let dyn_tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let assembly = Assembly {
            density: &density,
            coefficient: problem.coefficient,
            rx,
            ry,
        };
        let ctx = SolveContext::with_assembly(&dyn_tile, assembly);
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
