//! Golden mixed-vs-f64 equivalence through the full driver.
//!
//! The mixed-precision contract: an `f32` preconditioner (or `f32`
//! PPCG inner smoothing) must not cost accuracy — every step still
//! converges to the deck's `tl_eps`, and the final temperature field
//! matches the all-f64 run far beyond `f32` resolution. Two decks
//! (different mesh sizes, solvers, preconditioners and tolerances)
//! pin this down end to end, plus the honest counterexample: the
//! all-`f32` solver must *fail* the same bar.
//!
//! Three properties guard the noise-floor pedestal of
//! `tea_core::mixed` (`Low::apply`): the contract above on the decks
//! whose `f64` far-field residual is exactly zero (the denormal-cliff
//! decks), on 1 and 4 ranks; the far field of `u` staying bit-untouched
//! (the promote cut); and exact scale equivariance (the pedestal is
//! relative to the residual norm, never absolute).
//!
//! The last test is the wire-volume half of the story: reduced-precision
//! solves exchange `f32` halos, counted per element on four ranks.

use tealeaf::app::{crooked_pipe_deck, run_serial, run_threaded_ranks, Control, Deck};
use tealeaf::comms::StatsSnapshot;
use tealeaf::mesh::Field2D;
use tealeaf::solvers::{crooked_pipe_system, Precision, PreconKind, Solve};

fn deck(
    n: usize,
    solver: &str,
    precision: Option<Precision>,
    precon: PreconKind,
    depth: usize,
    eps: f64,
    steps: u64,
) -> Deck {
    let mut deck = crooked_pipe_deck(n, solver);
    deck.control = Control {
        solver: solver.into(),
        precision,
        precon,
        ppcg_halo_depth: depth,
        ppcg_inner_steps: 8,
        presteps: 12,
        end_step: steps,
        summary_frequency: 0,
        ..Control::default()
    };
    deck.control.opts.eps = eps;
    deck
}

/// Runs the f64 deck and its mixed twin on `ranks` ranks; asserts
/// per-step convergence to the same `tl_eps` and final-field agreement
/// beyond f32 precision.
fn assert_mixed_matches_f64(base: &Deck, ranks: usize) {
    let mut mixed = base.clone();
    mixed.control.precision = Some(Precision::Mixed);
    let eps = base.control.opts.eps;
    let what = format!("{} {}² x{ranks}", base.control.solver, base.problem.x_cells);

    let run = |deck: &Deck| match ranks {
        1 => run_serial(deck).expect("deck runs"),
        _ => run_threaded_ranks(deck, ranks)
            .expect("deck runs")
            .swap_remove(0),
    };
    let (out64, outmx) = (run(base), run(&mixed));

    for (s64, smx) in out64.steps.iter().zip(&outmx.steps) {
        assert!(s64.converged, "{what}: f64 step {} unconverged", s64.step);
        assert!(smx.converged, "{what}: mixed step {} unconverged", smx.step);
        // both met the same relative target; their final residuals agree
        // to within that target's scale
        assert!(
            smx.final_residual <= eps * smx.initial_residual,
            "{what}: mixed step {}: {} > eps * {}",
            smx.step,
            smx.final_residual,
            smx.initial_residual
        );
        assert!(
            s64.final_residual <= eps * s64.initial_residual,
            "{what}: f64 step {} missed its own tolerance",
            s64.step
        );
    }

    let u64f = out64.final_u.expect("rank 0 gathers");
    let umx = outmx.final_u.expect("rank 0 gathers");
    let diff = umx.interior_max_rel_diff(&u64f);
    assert!(
        diff < 1e-6,
        "{what}: mixed field must match f64 beyond f32 resolution, worst rel diff {diff:e}"
    );
}

#[test]
fn mixed_cg_matches_f64_on_the_crooked_pipe() {
    assert_mixed_matches_f64(
        &deck(32, "cg", None, PreconKind::BlockJacobi, 1, 1e-10, 3),
        1,
    );
}

#[test]
fn mixed_ppcg_matches_f64_on_a_deeper_halo_deck() {
    assert_mixed_matches_f64(&deck(24, "ppcg", None, PreconKind::None, 4, 1e-9, 2), 1);
}

#[test]
fn f32_leg_fails_the_f64_bar_honestly() {
    // the same deck at tl_precision=f32 must NOT reach the f64-grade
    // tolerance — if it ever does, the mixed path has no reason to
    // exist and the sweep's story is wrong
    let base = deck(
        32,
        "cg",
        Some(Precision::F32),
        PreconKind::None,
        1,
        1e-10,
        1,
    );
    let out = run_serial(&base).expect("deck runs");
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
    let deck = tealeaf::app::parse_deck(text).expect("deck parses");
    assert_eq!(deck.control.effective_solver().unwrap(), "mixed_cg");
    let out = run_serial(&deck).expect("deck runs");
    assert!(out.steps.iter().all(|s| s.converged), "{:?}", out.steps);
}

/// The three families with a mixed variant, as `(f64 name, halo depth)`.
const FAMILIES: [(&str, usize); 3] = [("cg", 1), ("ppcg", 4), ("chebyshev", 1)];

#[test]
fn mixed_matches_f64_on_the_cliff_decks_serial_and_decomposed() {
    // 96² at the stock wall density and 64² at the jittered one are decks
    // whose f64 far-field residual is exactly zero: a plain demotion
    // drags a subnormal band along the front there
    for (n, wall_density) in [(96, 100.0), (64, 100.15820240816151)] {
        for (solver, depth) in FAMILIES {
            let mut base = deck(n, solver, None, PreconKind::Diagonal, depth, 1e-9, 1);
            base.problem.states[0].density = wall_density;
            for ranks in [1, 4] {
                assert_mixed_matches_f64(&base, ranks);
            }
        }
    }
}

/// One solve of the `n`² crooked pipe from `u = b`, both scaled by `2^k`.
fn solve_scaled(name: &str, n: usize, depth: usize, k: i32) -> (u64, Field2D, Field2D) {
    let (op, mut b) = crooked_pipe_system(n, 0.04, depth);
    b.raw_mut().iter_mut().for_each(|v| *v *= 2f64.powi(k));
    let mut u = b.clone();
    let result = Solve::on(&op)
        .with_solver(name)
        .halo_depth(depth)
        .inner_steps(16)
        .eps(1e-10)
        .run(&mut u, &b)
        .expect("registered solver");
    assert!(result.converged, "{name} 2^{k}: {result:?}");
    (result.iterations, u, b)
}

#[test]
fn mixed_ppcg_leaves_the_far_field_bit_untouched_where_ppcg_does() {
    // pins the promote cut: without it the pedestal's image lands on
    // every far-field cell of u (on this deck, 4001 of them)
    let (_, u64f, b) = solve_scaled("ppcg", 96, 4, 0);
    let (_, umx, _) = solve_scaled("mixed_ppcg", 96, 4, 0);
    let cells = || (0..96isize).flat_map(|k| (0..96isize).map(move |j| (j, k)));
    let untouched = |u: &Field2D, (j, k)| u.at(j, k).to_bits() == b.at(j, k).to_bits();
    let far: Vec<_> = cells().filter(|&c| untouched(&u64f, c)).collect();
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
fn mixed_solves_are_exactly_scale_equivariant() {
    // b, u₀ → 2ᵏ·b, 2ᵏ·u₀ must give exactly 2ᵏ·u in the same iterations:
    // a pedestal that were absolute instead of norm-relative would not
    for (family, depth) in FAMILIES {
        let name = format!("mixed_{family}");
        let (its, u, _) = solve_scaled(&name, 48, depth, 0);
        for k in [-60, -20, 20, 60] {
            let (its_k, u_k, _) = solve_scaled(&name, 48, depth, k);
            assert_eq!(its_k, its, "{name} 2^{k}: iteration count");
            let scale = 2f64.powi(k);
            let same = u_k
                .raw()
                .iter()
                .zip(u.raw())
                .all(|(a, b)| a.to_bits() == (b * scale).to_bits());
            assert!(same, "{name} 2^{k}: u is not exactly 2^{k}·u");
        }
    }
}

#[test]
fn reduced_precision_halos_move_fewer_bytes() {
    // message bytes summed over the four ranks of a decomposed run,
    // accounted by element width on the wire (8 per f64, 4 per f32)
    let halo = |solver: &str, precision, precon, depth| {
        let deck = deck(48, solver, precision, precon, depth, 1e-10, 2);
        let mut sent = StatsSnapshot::default();
        for rank in run_threaded_ranks(&deck, 4).expect("deck runs") {
            sent.merge(&rank.comm);
        }
        sent
    };
    // every exchanged element is a halo element of the same protocol, so
    // f32 wire width must halve the per-element cost (0.55 tolerates an
    // f64 exchange per step)
    let cg = halo("cg", None, PreconKind::BlockJacobi, 1);
    let cg_f32 = halo("cg", Some(Precision::F32), PreconKind::BlockJacobi, 1);
    let per_elem = cg_f32.mean_bytes_per_elem_sent() / cg.mean_bytes_per_elem_sent();
    assert!(per_elem <= 0.55, "cg_f32 bytes per element: {per_elem:.3}x");
    // same iteration protocol as ppcg with the deep inner halos at f32:
    // total bytes must drop
    let ppcg = halo("ppcg", None, PreconKind::None, 4);
    let mixed = halo("ppcg", Some(Precision::Mixed), PreconKind::None, 4);
    let total = mixed.bytes_sent() as f64 / ppcg.bytes_sent() as f64;
    assert!(
        total <= 0.75,
        "mixed_ppcg total halo bytes: {total:.3}x ppcg"
    );
}
