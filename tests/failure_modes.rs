//! Failure injection: the library must fail loudly and informatively,
//! not silently produce wrong physics.

use tealeaf::app::{crooked_pipe_deck, parse_deck, run_serial, solver_registry};
use tealeaf::comms::{Communicator, HaloLayout, SerialComm};
use tealeaf::mesh::{
    crooked_pipe, timestep_scalings, Coefficients, Decomposition2D, Field2D, Field2F, Mesh2D,
};
use tealeaf::solvers::{
    crooked_pipe_system, Assembly, DynTile, IterativeSolver, PreconKind, Preconditioner,
    SessionSpec, Solve, SolveContext, SolveControls, SolveOpts, SolveProbe, SolveResult,
    SolveSession, SolveTrace, SolverError, SolverParams, Tile, TileBounds, TileOperator, Workspace,
};

/// One default-options solve of `solver` on the serial 32² crooked pipe
/// under `controls`, with the assembly recipe the AMG baseline needs.
fn solve_under(solver: &mut dyn IterativeSolver, controls: SolveControls<'_>) -> SolveResult {
    let (n, halo) = (32, solver.halo_depth());
    let (op, b) = crooked_pipe_system(n, 0.04, halo);
    let problem = crooked_pipe(n);
    let mesh = Mesh2D::serial(n, n, problem.extent);
    let mut density = Field2D::new(n, n, halo);
    problem.apply_states(&mesh, &mut density, &mut Field2D::new(n, n, halo));
    let (rx, ry) = timestep_scalings(&mesh, 0.04);
    let assembly = Assembly {
        density: &density,
        coefficient: problem.coefficient,
        rx,
        ry,
    };

    let comm = SerialComm::new();
    let layout = HaloLayout::new(&Decomposition2D::with_grid(n, n, 1, 1), 0);
    let tile: DynTile<'_> = Tile::with_controls(&op, &layout, comm.as_dyn(), controls);
    let ctx = SolveContext::with_assembly(&tile, assembly);
    let mut ws = Workspace::new(n, n, halo);
    let mut u = b.clone();
    solver.prepare(&ctx, &SolveOpts::default());
    solver.solve(&ctx, &mut u, &b, &mut ws, &mut SolveTrace::new("run"))
}

#[test]
fn indefinite_chebyshev_preconditioner_ends_diverged_not_converged() {
    // deck `tl_ch_cg_presteps=2`: two presteps give a Lanczos bound that
    // undershoots λmax, the even-degree polynomial goes indefinite and
    // `r·z < 0` — which `max(0.0).sqrt() <= target` used to call
    // converged, in 3 iterations, at a true residual of 1.14·‖b‖
    let params = SolverParams {
        presteps: 2,
        ..SolverParams::default()
    };
    let mut ppcg = solver_registry()
        .create("ppcg", &params)
        .expect("ppcg is registered");
    let res = solve_under(ppcg.as_mut(), SolveControls::default());
    assert!(!res.converged, "{res:?}");
    assert!(res.status.is_diverged(), "{res:?}");
}

#[test]
fn every_diverged_ending_reports_a_nan_final_residual() {
    /// Poisons the centre of `u` and `r` from `iteration` on.
    struct Poison(u64);
    impl SolveProbe for Poison {
        fn on_iteration(&self, iteration: u64, u: &mut Field2D, r: &mut Field2D) {
            if iteration >= self.0 {
                u.set(16, 16, f64::NAN);
                r.set(16, 16, f64::NAN);
            }
        }
        fn on_iteration_f32(&self, iteration: u64, u: &mut Field2F, r: &mut Field2F) {
            if iteration >= self.0 {
                u.set(16, 16, f32::NAN);
                r.set(16, 16, f32::NAN);
            }
        }
    }

    // iteration 2 lands in every method's first loop (the CG prelude of
    // the Chebyshev family), iteration 32 in the loop after the prelude
    for poison_at in [2, 32] {
        let probe = Poison(poison_at);
        let controls = SolveControls {
            stop: None,
            probe: Some(&probe),
        };
        for meta in solver_registry().iter() {
            let mut solver = solver_registry()
                .create(meta.name, &SolverParams::default())
                .expect("registered");
            let res = solve_under(solver.as_mut(), controls);
            let what = format!("{} poisoned at {poison_at}: {res:?}", meta.name);
            if res.iterations >= poison_at && meta.name != "auto" {
                assert!(res.status.is_diverged(), "{what}");
            }
            if res.status.is_diverged() {
                assert!(res.final_residual.is_nan(), "{what}");
                assert!(!res.converged, "{what}");
            }
        }
    }
}

#[test]
fn iteration_cap_reports_non_convergence() {
    let (op, b) = crooked_pipe_system(32, 0.04, 1);
    let mut u = b.clone();
    let res = Solve::on(&op)
        .with_solver("cg")
        .eps(1e-14)
        .max_iters(3)
        .run(&mut u, &b)
        .expect("cg is registered");
    assert!(!res.converged, "3 iterations cannot hit 1e-14");
    assert_eq!(res.iterations, 3);
    assert!(res.final_residual > 0.0);
    assert!(
        res.final_residual < res.initial_residual,
        "but it must make progress"
    );
}

#[test]
fn driver_records_unconverged_steps_without_panicking() {
    let mut deck = crooked_pipe_deck(24, "cg");
    deck.control.end_step = 2;
    deck.control.opts.max_iters = 2;
    deck.control.summary_frequency = 1;
    let out = run_serial(&deck).expect("deck runs");
    assert_eq!(out.steps.len(), 2);
    assert!(out.steps.iter().all(|s| !s.converged));
}

#[test]
fn bad_decks_name_the_line() {
    let cases: &[(&str, &str)] = &[
        ("*tea\nstate 1 density=1 energy=1\nzzz=1\n*endtea", "unknown deck key"),
        ("*tea\nstate 1 density=-1 energy=1\nx_cells=4\ny_cells=4\n*endtea", "density"),
        ("*tea\nstate 1 density=1 energy=1\nx_cells=abc\n*endtea", "bad integer"),
        ("*tea\nx_cells=4\ny_cells=4\n*endtea", "no states"),
        (
            "*tea\nstate 1 density=1 energy=1\nstate 2 density=1 energy=1 geometry=wedge\n*endtea",
            "unknown geometry",
        ),
        (
            "*tea\nstate 2 density=1 energy=1 geometry=rectangle xmin=0 xmax=1 ymin=0 ymax=1\nx_cells=4\ny_cells=4\n*endtea",
            "state numbering must start at 1",
        ),
        (
            "*tea\nstate 1 density=1 energy=1\nstate 2 density=1 energy=1\n*endtea",
            "needs geometry",
        ),
    ];
    for (text, needle) in cases {
        let err = parse_deck(text).expect_err(text);
        assert!(
            err.contains(needle),
            "error {err:?} should mention {needle:?}"
        );
    }
}

#[test]
#[should_panic(expected = "more x ranks")]
fn over_decomposition_is_rejected() {
    let _ = Decomposition2D::with_grid(4, 4, 8, 1);
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn halo_deeper_than_tile_is_rejected() {
    // the per-rank assertion "tile ... smaller than exchange depth"
    // propagates through the harness as a rank-thread panic
    // 8 cells over 4 ranks in x -> 2-wide tiles; depth 3 must panic
    let d = Decomposition2D::with_grid(8, 8, 4, 1);
    tealeaf::comms::run_threaded(4, |comm| {
        let layout = HaloLayout::new(&d, comm.rank());
        let mut f = Field2D::new(2, 8, 3);
        tealeaf::comms::exchange_halo(&mut f, &layout, comm, 3);
    });
}

#[test]
#[should_panic(expected = "reads face coefficients one cell beyond")]
fn decomposed_diagonal_precon_rejects_full_depth_extension() {
    // on a decomposed tile the diagonal at matrix-powers extension h
    // reads Kx(j+1) one layer past the coefficient halo; the setup must
    // refuse with a clear message instead of an opaque slice panic
    // (serial tiles clamp extensions to the domain boundary, so only a
    // real interior tile edge can trigger this)
    let n = 32;
    let halo = 4;
    let p = crooked_pipe(n);
    let d = Decomposition2D::with_grid(n, n, 2, 2);
    let mesh = Mesh2D::new(&d, 0, p.extent);
    let mut density = Field2D::new(mesh.nx(), mesh.ny(), halo);
    let mut energy = Field2D::new(mesh.nx(), mesh.ny(), halo);
    p.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, 0.04);
    let coeffs = Coefficients::assemble(&mesh, &density, p.coefficient, rx, ry, halo);
    let op = TileOperator::new(coeffs, TileBounds::new(&mesh, halo));
    let _ = Preconditioner::setup(PreconKind::Diagonal, &op, halo);
}

#[test]
#[should_panic(expected = "block-Jacobi cannot be combined with matrix powers")]
fn ppcg_rejects_block_jacobi_with_deep_halos() {
    let (op, b) = crooked_pipe_system(32, 0.04, 1);
    let mut u = b.clone();
    let _ = Solve::on(&op)
        .with_solver("ppcg")
        .precon(PreconKind::BlockJacobi)
        .halo_depth(8)
        .run(&mut u, &b);
}

#[test]
#[should_panic(expected = "workspace halo")]
fn ppcg_rejects_shallow_workspace() {
    let (op, b) = crooked_pipe_system(32, 0.04, 1);
    let comm = SerialComm::new();
    let d = Decomposition2D::with_grid(32, 32, 1, 1);
    let layout = HaloLayout::new(&d, 0);
    let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
    let ctx = SolveContext::new(&tile);
    let params = SolverParams {
        halo_depth: 8,
        ..SolverParams::default()
    };
    let mut ppcg = solver_registry()
        .create("ppcg", &params)
        .expect("ppcg is registered");
    let mut ws = Workspace::new(32, 32, 1); // too shallow for depth 8
    let mut u = b.clone();
    ppcg.prepare(&ctx, &SolveOpts::default());
    let _ = ppcg.solve(&ctx, &mut u, &b, &mut ws, &mut SolveTrace::new("run"));
}

#[test]
fn eigen_estimation_handles_tiny_runs() {
    // one CG iteration gives a 1x1 Lanczos matrix; bounds must still be
    // finite and positive for an SPD operator
    use tealeaf::solvers::{cg_solve_recording, estimate_from_cg};
    let (op, b) = crooked_pipe_system(16, 0.04, 1);
    let comm = SerialComm::new();
    let d = Decomposition2D::with_grid(16, 16, 1, 1);
    let layout = HaloLayout::new(&d, 0);
    let tile = Tile::new(&op, &layout, &comm);
    let m = Preconditioner::setup(PreconKind::None, &op, 0);
    let mut ws = Workspace::new(16, 16, 1);
    let mut u = b.clone();
    let (_, coeffs) = cg_solve_recording(&tile, &mut u, &b, &m, &mut ws, SolveOpts::default(), 1);
    let (al, be) = coeffs.for_lanczos();
    let est = estimate_from_cg(al, be, 0.1);
    assert!(est.min > 0.0 && est.max.is_finite() && est.max >= est.min * 0.99);
}

#[test]
fn comms_interleaved_stress() {
    // 9 ranks in a 3x3 grid: interleave deep halo exchanges, fused
    // reductions and barriers for many rounds; any ordering bug
    // deadlocks or trips a tag assertion
    use tealeaf::comms::{exchange_halo_many, run_threaded};
    let d = Decomposition2D::with_grid(24, 24, 3, 3);
    let sums = run_threaded(9, |comm| {
        let layout = HaloLayout::new(&d, comm.rank());
        let mesh = Mesh2D::new(&d, comm.rank(), tealeaf::mesh::Extent2D::unit());
        let mut a = Field2D::new(mesh.nx(), mesh.ny(), 2);
        let mut b = Field2D::new(mesh.nx(), mesh.ny(), 2);
        a.fill_interior(comm.rank() as f64);
        b.fill_interior(1.0);
        let mut acc = 0.0;
        for round in 0..50 {
            let depth = 1 + (round % 2);
            exchange_halo_many(&mut [&mut a, &mut b], &layout, comm, depth);
            acc += comm.allreduce_sum(a.at(0, 0));
            if round % 10 == 0 {
                comm.barrier();
            }
            let v = comm.allreduce_sum_many(&[round as f64, comm.rank() as f64]);
            acc += v[1];
        }
        acc
    });
    // deterministic: every rank computed the same accumulator
    assert!(sums.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn a_misshapen_solve_names_the_odd_operand() {
    // `u` one ghost layer deeper than the halo-1 operator and workspace
    let (op, b) = crooked_pipe_system(32, 0.04, 1);
    let failure = |via_session: bool| -> String {
        let mut u = Field2D::new(32, 32, 2);
        u.copy_interior_from(&b);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if via_session {
                let mut session = SolveSession::build(op.clone(), &SessionSpec::solver("cg"))
                    .expect("cg is registered");
                session
                    .solve(&mut u, &b)
                    .expect("cg runs on these operands");
            } else {
                Solve::on(&op).run(&mut u, &b).expect("cg is registered");
            }
        }))
        .expect_err("a misshapen solve must fail");
        match err.downcast::<String>() {
            Ok(msg) => *msg,
            Err(_) => "a panic without a formatted message".into(),
        }
    };
    // both roads are one session, whose workspace takes `u`'s halo, so
    // `b` is the odd one out on each
    for via_session in [false, true] {
        let msg = failure(via_session);
        assert!(
            msg.contains("b must have the operator's tile and the workspace's halo"),
            "{msg}"
        );
    }
}

#[test]
fn solve_runs_every_registered_name_or_names_what_is_missing() {
    // a single-tile solve has no assembly recipe (amg builds its
    // hierarchy from one), and auto races matrix-powers candidates up to
    // 8 ghost layers: each gets a typed error, never a panic
    let registry = solver_registry();
    for depth in [1, 4, 8] {
        let (op, b) = crooked_pipe_system(16, 0.04, depth);
        for meta in registry.iter() {
            let name = meta.name;
            let mut u = b.clone();
            let solve = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Solve::on(&op)
                    .with_registry(registry)
                    .with_solver(name)
                    .halo_depth(depth)
                    .eps(1e-6)
                    .run(&mut u, &b)
            }))
            .unwrap_or_else(|_| panic!("{name} at depth {depth} panicked"));
            match (name, solve) {
                ("amg", Err(SolverError::MissingInput { missing, .. })) => {
                    assert!(missing.contains("assembly recipe"), "{missing}")
                }
                ("auto", Err(SolverError::MissingInput { missing, .. })) if depth < 8 => {
                    assert!(missing.contains("8 ghost layers"), "{missing}")
                }
                ("amg", other) => panic!("amg at depth {depth}: {other:?}"),
                (_, Ok(_)) => {}
                (_, Err(e)) => panic!("{name} at depth {depth}: {e}"),
            }
        }
    }
}

#[test]
fn a_session_runs_every_registered_name_or_names_what_is_missing() {
    // the session road without an assembly recipe, as a caller builds
    // one from a registry instance: it refuses what `Solve::run` refuses,
    // with the same error, and never panics
    let registry = solver_registry();
    for depth in [1, 4, 8] {
        let (op, b) = crooked_pipe_system(16, 0.04, depth);
        let layout = HaloLayout::new(&Decomposition2D::with_grid(16, 16, 1, 1), 0);
        let params = SolverParams {
            halo_depth: depth,
            ..SolverParams::default()
        };
        for meta in registry.iter() {
            let name = meta.name;
            let solver = registry.create(name, &params).expect("registered");
            let opts = SolveOpts::with_eps(1e-6);
            let mut session = SolveSession::new(op.clone(), layout.clone(), solver, opts);
            let mut u = b.clone();
            let solve = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.solve(&mut u, &b)
            }))
            .unwrap_or_else(|_| panic!("{name} at depth {depth} panicked in a session"));
            let mut u = b.clone();
            let builder = Solve::on(&op)
                .with_registry(registry)
                .with_solver(name)
                .halo_depth(depth)
                .eps(1e-6)
                .run(&mut u, &b);
            match (solve, builder) {
                (Ok(_), Ok(_)) => {}
                (Err(e @ SolverError::MissingInput { .. }), Err(f)) if e == f => {}
                (solve, builder) => {
                    panic!("{name} at depth {depth}: session {solve:?}, Solve::run {builder:?}")
                }
            }
        }
    }
}
