//! Property-based tests (proptest) over the core numerical invariants.

use proptest::prelude::*;
use tealeaf::comms::{Communicator, HaloLayout, SerialComm};
use tealeaf::mesh::{
    choose_process_grid, split_extent, Coefficient, Coefficients, Decomposition2D, Extent2D,
    Field2D, Mesh2D,
};
use tealeaf::solvers::{
    lanczos_tridiagonal, sturm_count, tridiag_all_eigenvalues, DynTile, PreconKind, Preconditioner,
    SolveContext, SolveOpts, SolveTrace, SolverParams, SolverRegistry, Tile, TileBounds,
    TileOperator, Workspace,
};

/// A random diffusion problem: positive density field, a mesh size, a
/// time step — everything the operator assembly consumes.
fn arb_problem() -> impl Strategy<Value = (usize, Vec<f64>, f64, bool)> {
    (4usize..24, 0.001f64..0.5, any::<bool>(), any::<u64>()).prop_map(|(n, dt, recip, seed)| {
        // deterministic pseudo-random densities from the seed
        let mut state = seed | 1;
        let mut densities = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // densities spread over three decades, always positive
            let t = (state >> 40) as f64 / (1u64 << 24) as f64;
            densities.push(0.05 + 100.0 * t * t);
        }
        (n, densities, dt, recip)
    })
}

fn build_operator(n: usize, densities: &[f64], dt: f64, recip: bool) -> TileOperator {
    let mesh = Mesh2D::serial(n, n, Extent2D::unit());
    let mut density = Field2D::filled(n, n, 1, 1.0);
    for k in 0..n {
        for j in 0..n {
            density.set(j as isize, k as isize, densities[k * n + j]);
        }
    }
    density.reflect_boundaries(1);
    let (rx, ry) = tealeaf::mesh::timestep_scalings(&mesh, dt);
    let kind = if recip {
        Coefficient::RecipConductivity
    } else {
        Coefficient::Conductivity
    };
    let coeffs = Coefficients::assemble(&mesh, &density, kind, rx, ry, 1);
    TileOperator::new(coeffs, TileBounds::serial(n, n))
}

fn fill_from(seed: u64, n: usize) -> Field2D {
    let mut f = Field2D::new(n, n, 1);
    let mut state = seed | 1;
    for k in 0..n as isize {
        for j in 0..n as isize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            f.set(j, k, ((state >> 33) as f64 / (1u64 << 30) as f64) - 2.0);
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ⟨Ap, q⟩ = ⟨p, Aq⟩ for arbitrary diffusion operators and vectors.
    #[test]
    fn operator_is_always_symmetric(
        (n, densities, dt, recip) in arb_problem(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let op = build_operator(n, &densities, dt, recip);
        let p = fill_from(s1, n);
        let q = fill_from(s2, n);
        let mut ap = Field2D::new(n, n, 1);
        let mut aq = Field2D::new(n, n, 1);
        let mut t = SolveTrace::new("t");
        op.apply(&p, &mut ap, 0, &mut t);
        op.apply(&q, &mut aq, 0, &mut t);
        let lhs = ap.interior_dot(&q);
        let rhs = p.interior_dot(&aq);
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() <= 1e-11 * scale, "{lhs} vs {rhs}");
    }

    /// ⟨Ap, p⟩ > 0 for nonzero p (positive definiteness), and the
    /// operator fixes constants (row sums are exactly 1).
    #[test]
    fn operator_is_positive_definite_and_stochastic(
        (n, densities, dt, recip) in arb_problem(),
        s in any::<u64>(),
    ) {
        let op = build_operator(n, &densities, dt, recip);
        let p = fill_from(s, n);
        let mut ap = Field2D::new(n, n, 1);
        let mut t = SolveTrace::new("t");
        let pap = op.apply_fused_dot(&p, &mut ap, &mut t);
        let pp = p.interior_dot(&p);
        prop_assert!(pap > 0.0 || pp == 0.0, "not PD: pAp = {pap}");
        // A * 1 = 1
        let ones = Field2D::filled(n, n, 1, 1.0);
        let mut a1 = Field2D::new(n, n, 1);
        op.apply(&ones, &mut a1, 0, &mut t);
        for k in 0..n as isize {
            for j in 0..n as isize {
                prop_assert!((a1.at(j, k) - 1.0).abs() < 1e-11);
            }
        }
    }

    /// CG solves every random SPD diffusion system, and the solution
    /// satisfies the residual tolerance it reports.
    #[test]
    fn cg_converges_on_random_problems(
        (n, densities, dt, recip) in arb_problem(),
        s in any::<u64>(),
    ) {
        let op = build_operator(n, &densities, dt, recip);
        let b = fill_from(s, n);
        let comm = SerialComm::new();
        let d = Decomposition2D::with_grid(n, n, 1, 1);
        let layout = HaloLayout::new(&d, 0);
        let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&tile);
        let mut ws = Workspace::new(n, n, 1);
        let mut u = Field2D::new(n, n, 1);
        let params = SolverParams { precon: PreconKind::BlockJacobi, ..SolverParams::default() };
        let mut solver = SolverRegistry::builtin().create("cg", &params).expect("cg is registered");
        solver.prepare(&ctx, &SolveOpts { eps: 1e-9, max_iters: 50_000 });
        let mut acc = SolveTrace::new("run");
        let res = solver.solve(&ctx, &mut u, &b, &mut ws, &mut acc);
        prop_assert!(res.converged, "CG failed: {res:?}");
        let mut t = SolveTrace::new("t");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        let rel = r.interior_norm() / b.interior_norm().max(1e-300);
        prop_assert!(rel < 1e-6, "reported convergence but residual is {rel}");
    }

    /// Preconditioners stay symmetric positive definite on random
    /// operators.
    #[test]
    fn preconditioners_stay_spd(
        (n, densities, dt, recip) in arb_problem(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let op = build_operator(n, &densities, dt, recip);
        for kind in [PreconKind::Diagonal, PreconKind::BlockJacobi] {
            let m = Preconditioner::setup(kind, &op, 0);
            let a = fill_from(s1, n);
            let bb = fill_from(s2, n);
            let mut ma = Field2D::new(n, n, 1);
            let mut mb = Field2D::new(n, n, 1);
            let mut t = SolveTrace::new("t");
            m.apply(&a, &mut ma, &op.bounds, 0, &mut t);
            m.apply(&bb, &mut mb, &op.bounds, 0, &mut t);
            let lhs = ma.interior_dot(&bb);
            let rhs = a.interior_dot(&mb);
            prop_assert!((lhs - rhs).abs() <= 1e-10 * lhs.abs().max(rhs.abs()).max(1.0));
            prop_assert!(ma.interior_dot(&a) >= 0.0);
        }
    }

    /// Decompositions tile the global grid exactly: no gaps, no overlap,
    /// for arbitrary grid shapes and rank counts.
    #[test]
    fn decompositions_tile_exactly(
        nx in 1usize..200,
        ny in 1usize..200,
        ranks in 1usize..32,
    ) {
        let ranks = ranks.min(nx * ny);
        let (px, py) = choose_process_grid(ranks, nx, ny);
        prop_assume!(px <= nx && py <= ny);
        let d = Decomposition2D::with_grid(nx, ny, px, py);
        let mut covered = vec![0u8; nx * ny];
        for s in d.subdomains() {
            for gy in s.y_range() {
                for gx in s.x_range() {
                    covered[gy * nx + gx] += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    /// split_extent is a partition for any extent/parts.
    #[test]
    fn split_extent_partitions(n in 1usize..10_000, parts in 1usize..64) {
        let parts = parts.min(n);
        let mut next = 0;
        for i in 0..parts {
            let (off, len) = split_extent(n, parts, i);
            prop_assert_eq!(off, next);
            prop_assert!(len > 0);
            next = off + len;
        }
        prop_assert_eq!(next, n);
    }

    /// The Sturm count is monotone in x and the extracted eigenvalues
    /// bracket correctly for random symmetric tridiagonals.
    #[test]
    fn sturm_bisection_invariants(
        diag in proptest::collection::vec(-10.0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        let n = diag.len();
        let mut state = seed | 1;
        let off: Vec<f64> = (0..n.saturating_sub(1)).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 4.0 - 2.0
        }).collect();
        let eigs = tridiag_all_eigenvalues(&diag, &off);
        // sorted
        for w in eigs.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        // counts consistent: below the smallest is 0, above the largest is n
        prop_assert_eq!(sturm_count(&diag, &off, eigs[0] - 1.0), 0);
        prop_assert_eq!(sturm_count(&diag, &off, eigs[n - 1] + 1.0), n);
        // trace identity: sum of eigenvalues equals trace
        let tr: f64 = diag.iter().sum();
        let es: f64 = eigs.iter().sum();
        prop_assert!((tr - es).abs() <= 1e-6 * tr.abs().max(es.abs()).max(1.0),
            "trace {tr} vs eigen sum {es}");
    }

    /// Lanczos construction accepts any positive alphas / non-negative
    /// betas and produces a matrix with the right shape.
    #[test]
    fn lanczos_shapes(
        alphas in proptest::collection::vec(0.01f64..10.0, 1..30),
    ) {
        let betas: Vec<f64> = alphas.windows(2).map(|w| (w[0] / w[1]).min(4.0) * 0.1).collect();
        let (d, e) = lanczos_tridiagonal(&alphas, &betas);
        prop_assert_eq!(d.len(), alphas.len());
        prop_assert_eq!(e.len(), alphas.len() - 1);
        prop_assert!(d.iter().all(|v| v.is_finite()));
        prop_assert!(e.iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deck render → parse round-trips every `Control` field for random
    /// control settings.
    #[test]
    fn deck_roundtrip(
        cells in 4usize..256,
        eps_exp in 4i32..14,
        inner in 1usize..32,
        depth in 1usize..16,
        solver_idx in 0usize..9,
        max_iters in 1u64..100_000,
        presteps in 1u64..100,
        tune_seed in 0u64..4,
        precon_idx in 0usize..3,
        precision_idx in 0usize..4,
    ) {
        use tealeaf::app::{parse_deck, render_deck, crooked_pipe_deck, Control};
        use tealeaf::solvers::Precision;
        let solver = [
            "jacobi", "cg", "chebyshev", "ppcg", "amg", "mixed_ppcg", "mixed_cg",
            "mixed_chebyshev", "cg_f32",
        ][solver_idx];
        let mut deck = crooked_pipe_deck(cells, solver);
        let c = &mut deck.control;
        c.opts.eps = 10f64.powi(-eps_exp);
        c.opts.max_iters = max_iters;
        c.ppcg_inner_steps = inner;
        c.ppcg_halo_depth = depth;
        c.presteps = presteps;
        // 0 is the default, which render_deck leaves out
        c.tune_seed = [0, 1, 7, u64::MAX][tune_seed as usize];
        c.precon = [PreconKind::None, PreconKind::Diagonal, PreconKind::BlockJacobi][precon_idx];
        c.precision =
            [None, Some(Precision::F64), Some(Precision::F32), Some(Precision::Mixed)][precision_idx];
        // a precision the solver's family has no variant for is a parse error
        prop_assume!(c.effective_solver().is_ok());
        let text = render_deck(&deck);
        let re = parse_deck(&text).expect("render must parse");
        prop_assert_eq!(&re.problem, &deck.problem);
        // destructured, so a new Control field fails to compile here
        // until the round trip covers it
        let Control {
            dt,
            end_time,
            end_step,
            solver,
            precision,
            opts,
            precon,
            ppcg_inner_steps,
            ppcg_halo_depth,
            presteps,
            tune_seed,
            summary_frequency,
        } = re.control;
        let c = &deck.control;
        prop_assert_eq!(dt, c.dt);
        prop_assert_eq!(end_time, c.end_time);
        prop_assert_eq!(end_step, c.end_step);
        prop_assert_eq!(&solver, &c.solver);
        prop_assert_eq!(precision, c.precision);
        prop_assert_eq!(opts.eps, c.opts.eps);
        prop_assert_eq!(opts.max_iters, c.opts.max_iters);
        prop_assert_eq!(precon, c.precon);
        prop_assert_eq!(ppcg_inner_steps, c.ppcg_inner_steps);
        prop_assert_eq!(ppcg_halo_depth, c.ppcg_halo_depth);
        prop_assert_eq!(presteps, c.presteps);
        prop_assert_eq!(tune_seed, c.tune_seed);
        prop_assert_eq!(summary_frequency, c.summary_frequency);
    }
}
