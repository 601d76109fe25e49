//! The answer oracle: the table's rows that are not the agreement
//! checks of `tests/solver_equivalence.rs` and `tests/mixed_precision.rs`
//! (see [`oracle_table`]), and the checks that are not field comparisons:
//! the dense operator and the eigen interval against the formula and the
//! spectrum, iteration pins, the reductions-per-sweep story, the `f32`
//! honesty bar, the deck-key pipeline, the far-field bits and halo bytes
//! by width.

mod oracle_table;

use oracle_table::{cells, pipe, problem, System, N};
use tealeaf::amg::Cholesky;
use tealeaf::app::{crooked_pipe_deck, parse_deck, run_serial, run_threaded_ranks, Control};
use tealeaf::comms::StatsSnapshot;
use tealeaf::mesh::{timestep_scalings, Coefficient, Decomposition2D, Field2D, Mesh2D};
use tealeaf::solvers::{crooked_pipe_system, Precision, PreconKind, Solve};

// every registry entry's decomposed and deeper-halo rows; the pipe's
// matrix-powers depths; the cliff decks, one test per mixed family
oracle_table::table_tests!(
    every_registry_solver_matches_the_direct_solve,
    matrix_powers_depths_agree_across_a_decomposition,
    mixed_cg_matches_f64_on_the_cliff_decks_serial_and_decomposed,
    mixed_ppcg_matches_f64_on_the_cliff_decks_serial_and_decomposed,
    mixed_chebyshev_matches_f64_on_the_cliff_decks_serial_and_decomposed,
);

#[test]
fn the_dense_operator_is_the_five_point_stencil_from_density() {
    for coefficient in [Coefficient::Conductivity, Coefficient::RecipConductivity] {
        let (problem, dt) = (problem(coefficient), Control::default().dt);
        let sys = System::new(&problem, dt);
        let mesh = Mesh2D::new(&Decomposition2D::new(N, N, 1), 0, problem.extent);
        let a = sys.dense();
        let n = N * N;
        // a corner, an edge cell, and an interior cell on a density jump
        for (j, k) in [(0, 0), (N - 1, 7), (5, 2)] {
            let row = &a[(k * N + j) * n..(k * N + j + 1) * n];
            let hand = hand_row(&sys, coefficient, timestep_scalings(&mesh, dt), j, k);
            for (col, (&got, &want)) in row.iter().zip(&hand).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-14 * want.abs().max(1.0),
                    "{coefficient:?} row ({j},{k}) col {col}: operator {got}, formula {want}"
                );
            }
        }
        for i in 0..n {
            for c in 0..i {
                assert_eq!(a[i * n + c], a[c * n + i], "asymmetric at ({i},{c})");
            }
        }
    }
}

/// Row `(j, k)` of the operator from the 5-point formula: face
/// `K = s·(w₁ + w₂)/(2·w₁·w₂)` with `s` the face scaling `rx` or `ry` and
/// `w` the density (conductivity) or its reciprocal, zero on the domain
/// boundary; diagonal `1 + ΣK`, neighbours `−K`.
fn hand_row(
    sys: &System,
    coefficient: Coefficient,
    (rx, ry): (f64, f64),
    j: usize,
    k: usize,
) -> Vec<f64> {
    let w = |j: usize, k: usize| {
        let d = sys.density.at(j as isize, k as isize);
        match coefficient {
            Coefficient::Conductivity => d,
            Coefficient::RecipConductivity => 1.0 / d,
        }
    };
    let face = |s: f64, (j1, k1): (usize, usize), (j2, k2): (usize, usize)| {
        let (w1, w2) = (w(j1, k1), w(j2, k2));
        s * (w1 + w2) / (2.0 * w1 * w2)
    };
    let mut row = vec![0.0; N * N];
    // a neighbour off the domain wraps to usize::MAX or lands on N
    let (left, down) = (j.wrapping_sub(1), k.wrapping_sub(1));
    let near = [(left, k, rx), (j + 1, k, rx), (j, down, ry), (j, k + 1, ry)];
    row[k * N + j] = 1.0;
    for (jn, kn, s) in near.into_iter().filter(|&(jn, kn, _)| jn < N && kn < N) {
        let kf = face(s, (j, k), (jn, kn));
        row[kn * N + jn] = -kf;
        row[k * N + j] += kf;
    }
    row
}

/// The interval the eigen prelude records (`trace.eigen_bounds`: the
/// Lanczos extremes of 30 CG presteps, widened by `EIGEN_SAFETY`) holds
/// the whole spectrum of the unpreconditioned crooked pipe at 24², the
/// size at which an unwidened interval misses both ends. (At 16² the
/// presteps finish the solve and no interval is recorded.) At the
/// bottom, `lo ≤ 1 ≤ λmin` (Gershgorin, because `A = I + L`). At the top
/// the check needs no estimate of `λmax`, so it states no accuracy:
/// `hi > λmax` exactly when `hi·I − A` is positive definite, which a
/// Cholesky factorisation of the dense operator decides. The Ritz `λmax`
/// sits 1.2e-7 (relative) below `λmax` here, which that factorisation
/// resolves.
#[test]
fn the_eigen_prelude_interval_contains_the_spectrum() {
    let mut deck = crooked_pipe_deck(24, "chebyshev");
    deck.control.end_step = 1;
    let a = System::new(&deck.problem, deck.control.dt).dense();
    let n = deck.problem.x_cells * deck.problem.y_cells;
    for solver in ["chebyshev", "ppcg"] {
        deck.control.solver = solver.to_string();
        let out = run_serial(&deck).unwrap_or_else(|e| panic!("{solver}: {e}"));
        let (lo, hi) = out
            .trace
            .eigen_bounds
            .unwrap_or_else(|| panic!("{solver}: the presteps finished the solve"));
        assert!(
            0.0 < lo && lo <= 1.0,
            "{solver}: lo = {lo} lies above λmin ≥ 1"
        );
        let mut shifted: Vec<f64> = a.iter().map(|v| -v).collect();
        for i in 0..n {
            shifted[i * n + i] += hi;
        }
        assert!(
            Cholesky::factor(&shifted, n).is_some(),
            "{solver}: hi = {hi} lies below λmax (hi·I − A is indefinite)"
        );
    }
}

#[test]
fn cg_family_iteration_counts_stay_within_two_of_the_serial_chain_era() {
    // PR 12 changed every reduction's add order (fixed 16-lane tree) and
    // fused CG's update sweep; bits moved by design, convergence must
    // not. Counts measured at PR 11 on the crooked pipe, one step,
    // per (cells, [none, jac_diag, jac_block]); cg_f32 at eps 1e-5.
    let pins: [(usize, &str, [u64; 3]); 9] = [
        (32, "cg", [58, 53, 42]),
        (32, "mixed_cg", [58, 53, 42]),
        (32, "cg_f32", [28, 26, 21]),
        (48, "cg", [88, 79, 64]),
        (48, "mixed_cg", [88, 79, 64]),
        (48, "cg_f32", [41, 38, 30]),
        (64, "cg", [116, 106, 84]),
        (64, "mixed_cg", [116, 106, 84]),
        (64, "cg_f32", [52, 49, 39]),
    ];
    let precons = [
        PreconKind::None,
        PreconKind::Diagonal,
        PreconKind::BlockJacobi,
    ];
    for (n, solver, want) in pins {
        for (precon, want) in precons.into_iter().zip(want) {
            let mut d = pipe(n, solver, 1);
            d.control.precon = precon;
            if solver == "cg_f32" {
                d.control.opts.eps = 1e-5;
            }
            let step = &run_serial(&d).expect("deck runs").steps[0];
            assert!(step.converged, "{solver}/{precon:?} at {n}^2 unconverged");
            assert!(
                step.iterations.abs_diff(want) <= 2,
                "{solver}/{precon:?} at {n}^2: {} iterations, PR 11 took {want}",
                step.iterations
            );
        }
    }
}

#[test]
fn solver_traces_tell_the_communication_story() {
    // the paper's core quantitative claim, measured end-to-end through
    // the driver: CPPCG needs far fewer reductions per stencil sweep
    let cg = run_serial(&pipe(48, "cg", 2)).expect("deck runs");
    let mut d = pipe(48, "ppcg", 2);
    d.control.ppcg_halo_depth = 8;
    let pp = run_serial(&d).expect("deck runs");
    let cg_ratio = cg.trace.reductions as f64 / cg.trace.spmv.total() as f64;
    let pp_ratio = pp.trace.reductions as f64 / pp.trace.spmv.total() as f64;
    assert!(
        pp_ratio < 0.6 * cg_ratio,
        "CPPCG must slash reductions per sweep: {pp_ratio:.3} vs {cg_ratio:.3}"
    );
}

#[test]
fn f32_leg_fails_the_f64_bar_honestly() {
    // the crooked pipe at tl_precision=f32 must NOT reach the f64-grade
    // tolerance — if it ever does, the mixed path has no reason to
    // exist and the sweep's story is wrong
    let mut deck = pipe(32, "cg", 1);
    deck.control.precision = Some(Precision::F32);
    let out = run_serial(&deck).expect("deck runs");
    assert!(
        out.steps.iter().any(|s| !s.converged),
        "all-f32 CG should stall below tl_eps=1e-10, got {:?}",
        out.steps
            .iter()
            .map(|s| (s.converged, s.final_residual))
            .collect::<Vec<_>>()
    );
}

#[test]
fn mixed_deck_key_drives_the_whole_pipeline() {
    // tl_precision in actual deck text → parse → driver → converged run
    let text = "\
*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=3.5 ymin=1.0 ymax=2.0
x_cells=24
y_cells=24
end_step=2
summary_frequency=0
tl_solver=cg
tl_precision=mixed
tl_preconditioner_type=jac_block
tl_eps=1e-9
*endtea
";
    let deck = parse_deck(text).expect("deck parses");
    assert_eq!(deck.control.effective_solver().unwrap(), "mixed_cg");
    let out = run_serial(&deck).expect("deck runs");
    assert!(out.steps.iter().all(|s| s.converged), "{:?}", out.steps);
}

#[test]
fn mixed_ppcg_leaves_the_far_field_bit_untouched_where_ppcg_does() {
    // pins the promote cut: without it the pedestal's image lands on
    // every far-field cell of u (on this deck, 4001 of them)
    let (op, b) = crooked_pipe_system(96, 0.04, 4);
    let solve = |name: &str| {
        let mut u = b.clone();
        let result = Solve::on(&op)
            .with_solver(name)
            .halo_depth(4)
            .inner_steps(16)
            .eps(1e-10)
            .run(&mut u, &b)
            .expect("registered solver");
        assert!(result.converged, "{name}: {result:?}");
        u
    };
    let (u64f, umx) = (solve("ppcg"), solve("mixed_ppcg"));
    let untouched = |u: &Field2D, (j, k)| u.at(j, k).to_bits() == b.at(j, k).to_bits();
    let far: Vec<_> = cells(96, 96).filter(|&c| untouched(&u64f, c)).collect();
    assert!(far.len() > 1000, "only {} far-field cells", far.len());
    let moved: Vec<_> = far.iter().filter(|&&c| !untouched(&umx, c)).collect();
    assert!(
        moved.is_empty(),
        "mixed_ppcg wrote {} of {} far-field cells, e.g. {:?}",
        moved.len(),
        far.len(),
        moved[0]
    );
}

#[test]
fn reduced_precision_halos_move_fewer_bytes() {
    // message bytes per rank and summed over the four ranks of a
    // decomposed run, accounted by element width on the wire (8 per
    // f64, 4 per f32)
    let halo = |solver: &str, precision, precon, depth| {
        let mut deck = pipe(48, solver, 2);
        let control = &mut deck.control;
        (control.precision, control.precon) = (precision, precon);
        control.ppcg_halo_depth = depth;
        (control.ppcg_inner_steps, control.presteps) = (8, 12);
        let ranks = run_threaded_ranks(&deck, 4).expect("deck runs");
        let mut sent = StatsSnapshot::default();
        for rank in &ranks {
            assert!(rank.comm.bytes_sent() > 0, "decomposed ranks exchange");
            sent.merge(&rank.comm);
        }
        (ranks, sent)
    };
    // a pure-f64 solver sends every element at 8 bytes
    let (ranks, cg) = halo("cg", None, PreconKind::BlockJacobi, 1);
    for r in &ranks {
        assert_eq!(r.comm.elems_sent_f32, 0);
        assert_eq!(r.comm.bytes_sent(), r.comm.elems_sent_f64 * 8);
    }
    // every exchanged element is a halo element of the same protocol, so
    // f32 wire width must halve the per-element cost (0.55 tolerates an
    // f64 exchange per step)
    let (_, cg_f32) = halo("cg", Some(Precision::F32), PreconKind::BlockJacobi, 1);
    let per_elem = cg_f32.mean_bytes_per_elem_sent() / cg.mean_bytes_per_elem_sent();
    assert!(per_elem <= 0.55, "cg_f32 bytes per element: {per_elem:.3}x");
    // same iteration protocol as ppcg with the deep inner halos at f32
    // while the outer f64 recurrence still exchanges f64: total bytes
    // must drop
    let (_, ppcg) = halo("ppcg", None, PreconKind::None, 4);
    let (ranks, mixed) = halo("ppcg", Some(Precision::Mixed), PreconKind::None, 4);
    for r in &ranks {
        assert!(r.comm.elems_sent_f32 > 0, "inner halos travel as f32");
        assert!(r.comm.elems_sent_f64 > 0, "outer halos stay f64");
    }
    let total = mixed.bytes_sent() as f64 / ppcg.bytes_sent() as f64;
    assert!(
        total <= 0.75,
        "mixed_ppcg total halo bytes: {total:.3}x ppcg"
    );
    // a serial run has no neighbours: no point-to-point traffic
    let out = run_serial(&pipe(16, "cg", 1)).expect("deck runs");
    assert_eq!(out.comm.msgs_sent, 0);
    assert_eq!(out.comm.bytes_sent(), 0);
}
