//! An independent oracle: every registry solver's answer checked
//! against a direct solve of the same system.
//!
//! The fingerprint suites pin each solver to its own past; this file
//! pins it to the truth. At 16² (256 unknowns) the operator is small
//! enough to hold densely, so it is built by applying [`TileOperator`]
//! to every unit vector — no second assembly code — and three of its
//! rows are checked by hand against the 5-point formula from density.
//! [`Cholesky`] then solves the first time step's system directly, and
//! every registry solver's answer (through the driver, on one rank and
//! on 2×2 ranks, at halo depth 1 and also 4 for the matrix-powers
//! family, under both [`Coefficient`] recipes) must sit within a bound
//! derived from the operator's condition number and `eps`.
//!
//! The bound: the operator is `A = I + L` with `L` a weighted graph
//! Laplacian, so Gershgorin gives `λmin ≥ 1` and `λmax ≤ λG`, the largest
//! disc edge, hence `κ ≤ λG`. A solve stopping at `‖r‖ ≤ eps·‖r₀‖` from
//! the warm start `u₀ = b` has relative error
//! `‖u − u*‖/‖u*‖ ≤ κ·‖r‖/‖b‖ ≤ κ·eps·‖r₀‖/‖b‖`, with `r₀ = b − A·b`
//! computed from the dense operator. A factor of 10 covers the gap
//! between a recurrence residual and the true one. `cg_f32` stops at its
//! f32 floor instead of `eps`, so its bound puts `f32::EPSILON` in place
//! of `eps`.
//!
//! The same dense operator checks the spectral interval `(lo, hi)` the
//! Chebyshev family's CG-presteps prelude records: it must contain the
//! spectrum, or the Chebyshev polynomial amplifies the modes outside it.

use tealeaf::amg::Cholesky;
use tealeaf::app::{
    crooked_pipe_deck, run_serial, run_threaded_ranks, solver_registry, Control, Deck,
};
use tealeaf::mesh::{
    timestep_scalings, Coefficient, Coefficients, Decomposition2D, Extent2D, Field2D, Mesh2D,
    Problem, Shape, State,
};
use tealeaf::solvers::{SolveTrace, TileBounds, TileOperator};

const N: usize = 16;
/// Slack between a solver's recurrence residual and its true residual.
const SAFETY: f64 = 10.0;

/// A 16² problem on a stretched 10 × 6 extent (so `rx ≠ ry`), with
/// densities over four decades.
fn problem(coefficient: Coefficient) -> Problem {
    let rect = |x_min, y_min, x_max, y_max, density, energy| State {
        shape: Shape::Rectangle {
            x_min,
            y_min,
            x_max,
            y_max,
        },
        density,
        energy,
    };
    Problem {
        x_cells: N,
        y_cells: N,
        extent: Extent2D {
            x_min: 0.0,
            x_max: 10.0,
            y_min: 0.0,
            y_max: 6.0,
        },
        states: vec![
            State {
                shape: Shape::Background,
                density: 1.0,
                energy: 1.0,
            },
            rect(0.0, 1.0, 6.0, 2.5, 0.01, 25.0),
            rect(5.0, 2.0, 9.0, 5.0, 100.0, 0.1),
            rect(1.0, 3.5, 4.0, 6.0, 10.0, 3.0),
            State {
                shape: Shape::Circle {
                    cx: 8.0,
                    cy: 1.0,
                    radius: 1.2,
                },
                density: 0.1,
                energy: 40.0,
            },
        ],
        coefficient,
    }
}

/// The serial system of the first time step of a square problem: the
/// dense operator (row-major), the right-hand side, the cell densities
/// and the face scalings `rx, ry`.
struct System {
    a: Vec<f64>,
    b: Vec<f64>,
    density: Field2D,
    rx: f64,
    ry: f64,
}

fn system(problem: &Problem, dt: f64) -> System {
    let m = problem.x_cells;
    assert_eq!(problem.y_cells, m, "a square mesh");
    let mesh = Mesh2D::new(&Decomposition2D::new(m, m, 1), 0, problem.extent);
    let mut density = Field2D::new(m, m, 2);
    let mut energy = Field2D::new(m, m, 2);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, dt);
    let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, 2);
    let op = TileOperator::new(coeffs, TileBounds::new(&mesh, 1));
    let n = m * m;
    let mut a = vec![0.0; n * n];
    let mut trace = SolveTrace::new("oracle");
    for col in 0..n {
        let mut e = Field2D::new(m, m, 1);
        e.set((col % m) as isize, (col / m) as isize, 1.0);
        let mut ae = Field2D::new(m, m, 1);
        op.apply(&e, &mut ae, 0, &mut trace);
        for row in 0..n {
            a[row * n + col] = ae.at((row % m) as isize, (row / m) as isize);
        }
    }
    let b = (0..n)
        .map(|i| {
            let (j, k) = ((i % m) as isize, (i / m) as isize);
            density.at(j, k) * energy.at(j, k)
        })
        .collect();
    System {
        a,
        b,
        density,
        rx,
        ry,
    }
}

/// Row `(j, k)` of the operator from the 5-point formula: face
/// `K = s·(w₁ + w₂)/(2·w₁·w₂)` with `w` the density (conductivity) or its
/// reciprocal, zero on the domain boundary; diagonal `1 + ΣK`, neighbours
/// `−K`.
fn hand_row(sys: &System, coefficient: Coefficient, j: usize, k: usize) -> Vec<f64> {
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
    let mut neighbours = Vec::new();
    if j > 0 {
        neighbours.push(((j - 1, k), sys.rx));
    }
    if j + 1 < N {
        neighbours.push(((j + 1, k), sys.rx));
    }
    if k > 0 {
        neighbours.push(((j, k - 1), sys.ry));
    }
    if k + 1 < N {
        neighbours.push(((j, k + 1), sys.ry));
    }
    row[k * N + j] = 1.0;
    for ((jn, kn), s) in neighbours {
        let kf = face(s, (j, k), (jn, kn));
        row[kn * N + jn] = -kf;
        row[k * N + j] += kf;
    }
    row
}

/// Gershgorin's upper bound on the largest eigenvalue.
fn gershgorin_max(a: &[f64]) -> f64 {
    let n = N * N;
    (0..n)
        .map(|i| a[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// `‖b − A·b‖ / ‖b‖`: the warm start's relative residual.
fn initial_relative_residual(a: &[f64], b: &[f64]) -> f64 {
    let n = b.len();
    let (mut r0, mut norm) = (0.0f64, 0.0f64);
    for (i, &bi) in b.iter().enumerate() {
        let ab: f64 = a[i * n..(i + 1) * n]
            .iter()
            .zip(b)
            .map(|(x, y)| x * y)
            .sum();
        r0 += (bi - ab) * (bi - ab);
        norm += bi * bi;
    }
    (r0 / norm).sqrt()
}

fn rel_error(u: &Field2D, exact: &[f64]) -> f64 {
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (i, &x) in exact.iter().enumerate() {
        let v = u.at((i % N) as isize, (i / N) as isize);
        diff += (v - x) * (v - x);
        norm += x * x;
    }
    (diff / norm).sqrt()
}

#[test]
fn the_dense_operator_is_the_five_point_stencil_from_density() {
    for coefficient in [Coefficient::Conductivity, Coefficient::RecipConductivity] {
        let sys = system(&problem(coefficient), Control::default().dt);
        let n = N * N;
        // a corner, an edge cell, and an interior cell on a density jump
        for (j, k) in [(0, 0), (N - 1, 7), (5, 2)] {
            let row = &sys.a[(k * N + j) * n..(k * N + j + 1) * n];
            let hand = hand_row(&sys, coefficient, j, k);
            for (col, (&got, &want)) in row.iter().zip(&hand).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-14 * want.abs().max(1.0),
                    "{coefficient:?} row ({j},{k}) col {col}: operator {got}, formula {want}"
                );
            }
        }
        for i in 0..n {
            for c in 0..i {
                assert_eq!(
                    sys.a[i * n + c],
                    sys.a[c * n + i],
                    "asymmetric at ({i},{c})"
                );
            }
        }
    }
}

#[test]
fn every_registry_solver_matches_the_direct_solve() {
    let registry = solver_registry();
    let mut checked = 0;
    for coefficient in [Coefficient::Conductivity, Coefficient::RecipConductivity] {
        let problem = problem(coefficient);
        let control = Control {
            end_step: 1,
            ..Control::default()
        };
        let sys = system(&problem, control.dt);
        let chol = Cholesky::factor(&sys.a, N * N).expect("the operator is SPD");
        let mut exact = sys.b.clone();
        chol.solve_in_place(&mut exact);

        let kappa = gershgorin_max(&sys.a); // λmin ≥ 1
        let r0 = initial_relative_residual(&sys.a, &sys.b);
        for meta in registry.iter() {
            let floor = if meta.name == "cg_f32" {
                f32::EPSILON as f64
            } else {
                control.opts.eps
            };
            let bound = SAFETY * kappa * r0 * floor;
            let depths: &[usize] = if meta.deep_halo { &[1, 4] } else { &[1] };
            let ranks: &[usize] = if meta.serial_only { &[1] } else { &[1, 4] };
            for &depth in depths {
                for &nranks in ranks {
                    let mut deck = Deck {
                        problem: problem.clone(),
                        control: Control {
                            solver: meta.name.to_string(),
                            ppcg_halo_depth: depth,
                            ..control.clone()
                        },
                    };
                    if meta.name == "jacobi" {
                        deck.control.opts.max_iters = 1_000_000;
                    }
                    let out = if nranks == 1 {
                        run_serial(&deck)
                    } else {
                        run_threaded_ranks(&deck, nranks).map(|mut outs| outs.swap_remove(0))
                    };
                    let case = format!(
                        "{} depth {depth} on {nranks} rank(s), {coefficient:?}",
                        meta.name
                    );
                    let out = out.unwrap_or_else(|e| panic!("{case}: {e}"));
                    if meta.name != "cg_f32" {
                        assert!(out.steps[0].converged, "{case}: did not converge");
                    }
                    let u = out.final_u.as_ref().expect("rank 0 gathers the field");
                    let err = rel_error(u, &exact);
                    assert!(
                        err <= bound,
                        "{case}: relative error {err:e} against the direct solve exceeds \
                         {bound:e} (κ ≤ {kappa:.1})"
                    );
                    checked += 1;
                }
            }
        }
    }
    // per recipe: ten solvers, two decompositions unless serial-only (amg,
    // auto), two depths for the matrix-powers family (ppcg, mixed_ppcg,
    // auto) — 23 runs
    assert!(checked >= 2 * 23, "only {checked} configurations checked");
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
    let sys = system(&deck.problem, deck.control.dt);
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
        let mut shifted: Vec<f64> = sys.a.iter().map(|v| -v).collect();
        for i in 0..n {
            shifted[i * n + i] += hi;
        }
        assert!(
            Cholesky::factor(&shifted, n).is_some(),
            "{solver}: hi = {hi} lies below λmax (hi·I − A is indefinite)"
        );
    }
}
