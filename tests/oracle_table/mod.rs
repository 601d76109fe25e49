//! The answer oracle's table: configurations, each checked against the
//! truth and against its twins.
//!
//! The fingerprint suites pin each solver to its own past; this table
//! pins it to the truth. A [`Row`] of [`table`] is one configuration —
//! registry entry (which fixes the precision) × preconditioner × halo
//! depth × rank count × deck — run through the application driver, and
//! [`check`] applies every leg the row's contract implies:
//!
//! - **direct** (the 16² oracle decks): the answer of a 3-step chain
//!   against a dense [`Cholesky`] solve of the same chain;
//! - **ranks**: the row's 1-rank twin, to reduction order;
//! - **depth**: the row's depth-1 twin, bit for bit — the matrix-powers
//!   depth changes when halos move, never a value;
//! - **precision**: a `mixed_*` row and its `f64` twin both meet `tl_eps`
//!   and agree beyond `f32` resolution;
//! - **heat**: the temperature integral survives the chain (insulated
//!   boundaries, and `A`'s column sums are 1);
//! - **exit**: the residual a solve reports is the one its answer has,
//!   recomputed as `‖b − A·u‖` in `f64`;
//! - **scale**: energies scaled by `2ᵏ` scale the answer by exactly `2ᵏ`
//!   in the same iterations.
//!
//! The direct leg's bound: the operator is `A = I + L` with `L` a
//! weighted graph Laplacian, so `λmin(A) ≥ 1` and `‖A⁻¹‖₂ ≤ 1`. A step
//! that stops at `‖r‖ ≤ eps·‖r₀‖` (warm start `u₀ = b`, `r₀ = b − A·b`)
//! is off by `‖A⁻¹r‖ ≤ ‖r‖`, and an error carried into the next step's
//! right-hand side is not amplified, so after the chain
//! `‖u − u*‖ ≤ Σₛ eps·‖r₀,ₛ‖`. A factor of [`SAFETY`] covers the gap
//! between a recurrence residual and the true one; `cg_f32` stops at its
//! `f32` floor, so its bound puts `f32::EPSILON` in place of `eps`.
//!
//! Every row is checked once, by the test [`table`] names beside it, in
//! `tests/oracle.rs`, `tests/solver_equivalence.rs` or
//! `tests/mixed_precision.rs`; each of those files declares its tests
//! with [`table_tests`], which checks them against [`TESTS`].

use std::collections::BTreeMap;
use std::rc::Rc;

use tealeaf::amg::Cholesky;
use tealeaf::app::{
    crooked_pipe_deck, run_serial, run_threaded_ranks, solver_registry, Control, Deck, RankOutput,
    StepRecord,
};
use tealeaf::mesh::{
    timestep_scalings, Coefficient, Coefficients, Decomposition2D, Extent2D, Field2D, Mesh2D,
    Problem, Shape, State,
};
use tealeaf::solvers::{Precision, PreconKind, SolveTrace, TileBounds, TileOperator};

pub const N: usize = 16;
/// Steps of the oracle decks' chain.
const ORACLE_STEPS: u64 = 3;
/// Slack between a solver's recurrence residual and its true residual.
const SAFETY: f64 = 10.0;

/// A 16² problem on a stretched 10 × 6 extent (so `rx ≠ ry`), with
/// densities over four decades.
pub fn problem(coefficient: Coefficient) -> Problem {
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

/// The crooked pipe at `n`², `steps` steps, reporting every step.
pub fn pipe(n: usize, solver: &str, steps: u64) -> Deck {
    let mut deck = crooked_pipe_deck(n, solver);
    deck.control = Control {
        solver: solver.into(),
        end_step: steps,
        summary_frequency: 1,
        ..Control::default()
    };
    deck
}

/// The serial system of a deck's first time step: the operator, the
/// cell densities and the right-hand side `b = ρ·e` (row-major).
pub struct System {
    op: TileOperator,
    pub density: Field2D,
    b: Vec<f64>,
}

impl System {
    pub fn new(problem: &Problem, dt: f64) -> Self {
        let (nx, ny) = (problem.x_cells, problem.y_cells);
        let mesh = Mesh2D::new(&Decomposition2D::new(nx, ny, 1), 0, problem.extent);
        let mut density = Field2D::new(nx, ny, 2);
        let mut energy = Field2D::new(nx, ny, 2);
        problem.apply_states(&mesh, &mut density, &mut energy);
        let (rx, ry) = timestep_scalings(&mesh, dt);
        let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, 2);
        let op = TileOperator::new(coeffs, TileBounds::new(&mesh, 1));
        let b = cells(nx, ny)
            .map(|(j, k)| density.at(j, k) * energy.at(j, k))
            .collect();
        System { op, density, b }
    }

    /// `A·x` for a row-major vector `x`.
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let (nx, ny) = (self.density.nx(), self.density.ny());
        let mut p = Field2D::new(nx, ny, 1);
        cells(nx, ny).zip(x).for_each(|((j, k), &v)| p.set(j, k, v));
        let mut w = Field2D::new(nx, ny, 1);
        self.op.apply(&p, &mut w, 0, &mut SolveTrace::new("oracle"));
        interior(&w)
    }

    /// The operator as a dense row-major matrix, one unit vector at a
    /// time — no second assembly code.
    pub fn dense(&self) -> Vec<f64> {
        let n = self.b.len();
        let mut a = vec![0.0; n * n];
        for col in 0..n {
            let mut e = vec![0.0; n];
            e[col] = 1.0;
            for (row, v) in self.apply(&e).into_iter().enumerate() {
                a[row * n + col] = v;
            }
        }
        a
    }

    /// `‖b − A·x‖`.
    fn residual(&self, x: &[f64], b: &[f64]) -> f64 {
        norm(self.apply(x).iter().zip(b).map(|(ax, b)| b - ax))
    }
}

/// Interior cells in row-major order.
pub fn cells(nx: usize, ny: usize) -> impl Iterator<Item = (isize, isize)> {
    (0..ny as isize).flat_map(move |k| (0..nx as isize).map(move |j| (j, k)))
}

fn interior(u: &Field2D) -> Vec<f64> {
    cells(u.nx(), u.ny()).map(|(j, k)| u.at(j, k)).collect()
}

fn norm(v: impl Iterator<Item = f64>) -> f64 {
    v.map(|x| x * x).sum::<f64>().sqrt()
}

/// Which deck a row runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Setting {
    /// The 16² four-decade problem under one coefficient recipe, over
    /// [`ORACLE_STEPS`] steps: the direct leg checks it.
    Oracle(Coefficient),
    /// The 32² crooked pipe, 2 steps: the matrix-powers depths, and
    /// `mixed_cg` preconditioned.
    Pipe,
    /// One step of an `n`² crooked pipe whose `f64` far-field residual is
    /// exactly zero — 96² at the stock wall density, 64² at a jittered
    /// one — where a plain demotion drags a subnormal band along the
    /// front.
    Cliff(usize),
}

/// One configuration of the design space.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Row {
    /// Registry entry; it fixes the precision.
    solver: &'static str,
    precon: PreconKind,
    depth: usize,
    ranks: usize,
    setting: Setting,
}

impl Row {
    /// The row's deck, over `steps` steps (its own when `None`), with
    /// every state energy scaled by `2ᵏ`.
    fn deck(&self, steps: Option<u64>, k: i32) -> Deck {
        let mut deck = match self.setting {
            Setting::Oracle(coefficient) => Deck {
                problem: problem(coefficient),
                control: pipe(N, self.solver, ORACLE_STEPS).control,
            },
            Setting::Pipe => pipe(32, self.solver, 2),
            Setting::Cliff(n) => {
                let mut deck = pipe(n, self.solver, 1);
                if n == 64 {
                    deck.problem.states[0].density = 100.158_202_408_161_51;
                }
                let control = &mut deck.control;
                (control.ppcg_inner_steps, control.presteps, control.opts.eps) = (8, 12, 1e-9);
                deck
            }
        };
        let control = &mut deck.control;
        (control.precon, control.ppcg_halo_depth) = (self.precon, self.depth);
        if self.solver == "jacobi" {
            control.opts.max_iters = 1_000_000;
        }
        control.end_step = steps.unwrap_or(control.end_step);
        for state in &mut deck.problem.states {
            state.energy *= 2f64.powi(k);
        }
        deck
    }
}

/// Every test that checks table rows, with the file that declares it.
#[rustfmt::skip]
const TESTS: [(&str, &str); 13] = [
    ("oracle.rs", "every_registry_solver_matches_the_direct_solve"),
    ("oracle.rs", "matrix_powers_depths_agree_across_a_decomposition"),
    ("oracle.rs", "mixed_cg_matches_f64_on_the_cliff_decks_serial_and_decomposed"),
    ("oracle.rs", "mixed_ppcg_matches_f64_on_the_cliff_decks_serial_and_decomposed"),
    ("oracle.rs", "mixed_chebyshev_matches_f64_on_the_cliff_decks_serial_and_decomposed"),
    ("solver_equivalence.rs", "every_solver_reaches_the_same_temperature_field"),
    ("solver_equivalence.rs", "rank_counts_agree_for_cg"),
    ("solver_equivalence.rs", "preconditioners_do_not_change_the_answer"),
    ("solver_equivalence.rs", "heat_is_conserved_for_every_solver"),
    ("solver_equivalence.rs", "decomposed_ppcg_with_block_jacobi_depth1"),
    ("mixed_precision.rs", "mixed_cg_matches_f64_on_the_crooked_pipe"),
    ("mixed_precision.rs", "mixed_ppcg_matches_f64_on_a_deeper_halo_deck"),
    ("mixed_precision.rs", "mixed_solves_are_exactly_scale_equivariant"),
];

/// The table, each row with the test that checks it; a push claims, for
/// its test, the rows no earlier push claimed, so narrow tests go first.
/// Every registry entry on both oracle decks, serial, and at depth 1 and
/// 4 (matrix-powers entries) on 1 and 2×2 ranks unless serial-only —
/// `cg` also on 2, 3 and 6 ranks; the heat test takes the reciprocal
/// recipe's rows, with their twins. On the conductivity deck each entry
/// also under each preconditioner it takes, decomposed for `cg` and
/// `ppcg` (block Jacobi at depth 1 only: its strips cannot span deep
/// halos). Then the matrix-powers depths 1, 2, 4 and 8 on 1, 2 and 4
/// ranks on the pipe, `mixed_cg` under each preconditioner there,
/// serial, and the three `mixed_*` families on the two cliff decks,
/// serial and 2×2.
fn table() -> Vec<(&'static str, Row)> {
    use PreconKind::{BlockJacobi, Diagonal, None as Plain};
    let mut rows = Vec::new();
    let mut push = |test, solver, precon, depths: &[usize], ranks: &[usize], setting| {
        for &depth in depths {
            for &ranks in ranks {
                let row = Row {
                    solver,
                    precon,
                    depth,
                    ranks,
                    setting,
                };
                if !rows.iter().any(|&(_, r)| r == row) {
                    rows.push((test, row));
                }
            }
        }
    };
    for coefficient in [Coefficient::Conductivity, Coefficient::RecipConductivity] {
        let setting = Setting::Oracle(coefficient);
        let recip = coefficient == Coefficient::RecipConductivity;
        for meta in solver_registry().iter() {
            let solver = meta.name;
            let depths: &[usize] = if meta.deep_halo { &[1, 4] } else { &[1] };
            let ranks: &[usize] = if meta.serial_only { &[1] } else { &[1, 4] };
            if solver == "cg" {
                let test = "rank_counts_agree_for_cg";
                push(test, solver, Plain, &[1], &[2, 3, 4, 6], setting);
            }
            if recip {
                let test = "heat_is_conserved_for_every_solver";
                push(test, solver, Plain, depths, ranks, setting);
                continue;
            }
            let serial = match meta.precision {
                Precision::Mixed => "mixed_solves_are_exactly_scale_equivariant",
                _ => "every_solver_reaches_the_same_temperature_field",
            };
            push(serial, solver, Plain, &[1], &[1], setting);
            if solver == "mixed_ppcg" {
                let test = "mixed_ppcg_matches_f64_on_a_deeper_halo_deck";
                push(test, solver, Plain, &[4], ranks, setting);
                push(test, solver, Diagonal, &[4], &[1], setting);
            }
            let test = "every_registry_solver_matches_the_direct_solve";
            push(test, solver, Plain, depths, ranks, setting);
            if meta.preconditioned {
                let spread = matches!(solver, "cg" | "ppcg");
                let ranks = if spread { ranks } else { &[1] };
                if solver == "ppcg" {
                    let test = "decomposed_ppcg_with_block_jacobi_depth1";
                    push(test, solver, BlockJacobi, &[1], ranks, setting);
                }
                let test = "preconditioners_do_not_change_the_answer";
                push(test, solver, Diagonal, depths, ranks, setting);
                push(test, solver, BlockJacobi, &[1], ranks, setting);
            }
        }
    }
    let setting = Setting::Pipe;
    let test = "matrix_powers_depths_agree_across_a_decomposition";
    for (solver, precon) in [("ppcg", Plain), ("ppcg", Diagonal), ("mixed_ppcg", Plain)] {
        push(test, solver, precon, &[1, 2, 4, 8], &[1, 2, 4], setting);
    }
    let test = "mixed_cg_matches_f64_on_the_crooked_pipe";
    for precon in [Diagonal, BlockJacobi] {
        push(test, "mixed_cg", precon, &[1], &[1], setting);
    }
    for n in [96, 64] {
        for (family, depth) in [("mixed_cg", 1), ("mixed_ppcg", 4), ("mixed_chebyshev", 1)] {
            let name = format!("{family}_matches_f64_on_the_cliff_decks_serial_and_decomposed");
            for &(_, test) in TESTS.iter().filter(|&&(_, t)| t == name) {
                push(test, family, Diagonal, &[depth], &[1, 4], Setting::Cliff(n));
            }
        }
    }
    rows
}

/// The oracle deck's [`ORACLE_STEPS`]-step chain, solved directly: the
/// final answer, and `Σₛ ‖bₛ − A·bₛ‖`, the warm starts' residuals.
struct Chain {
    u: Vec<f64>,
    r0: f64,
}

impl Chain {
    fn new(coefficient: Coefficient) -> Self {
        let sys = System::new(&problem(coefficient), Control::default().dt);
        let chol = Cholesky::factor(&sys.dense(), sys.b.len()).expect("the operator is SPD");
        let (mut b, mut u, mut r0) = (sys.b.clone(), Vec::new(), 0.0);
        for _ in 0..ORACLE_STEPS {
            r0 += sys.residual(&b, &b);
            u = b.clone();
            chol.solve_in_place(&mut u);
            // the driver's fold-back and repaint: b ← ρ·(u/ρ)
            let rho = interior(&sys.density);
            b = u.iter().zip(&rho).map(|(u, rho)| u / rho * rho).collect();
        }
        Chain { u, r0 }
    }
}

/// Driver runs and dense chains, each made once: a row's twins are rows
/// or runs of their own, and a run is deterministic.
#[derive(Default)]
struct Runs {
    done: BTreeMap<String, Rc<RankOutput>>,
    chains: BTreeMap<String, Rc<Chain>>,
}

impl Runs {
    /// Rank 0's output of `row`'s deck over `steps` steps (the row's own
    /// when `None`), energies scaled by `2ᵏ`.
    fn get(&mut self, row: Row, steps: Option<u64>, k: i32) -> Rc<RankOutput> {
        let deck = row.deck(steps, k);
        let key = format!("{row:?} {} {k}", deck.control.end_step);
        let run = || {
            let out = match row.ranks {
                1 => run_serial(&deck),
                ranks => run_threaded_ranks(&deck, ranks).map(|mut outs| {
                    let gathered = outs.iter().map(|o| o.final_u.is_some());
                    assert!(gathered.eq((0..ranks).map(|r| r == 0)), "{row:?}");
                    outs.swap_remove(0)
                }),
            };
            Rc::new(out.unwrap_or_else(|e| panic!("{row:?} 2^{k}: {e}")))
        };
        Rc::clone(self.done.entry(key).or_insert_with(run))
    }

    fn chain(&mut self, coefficient: Coefficient) -> Rc<Chain> {
        let chain = self.chains.entry(format!("{coefficient:?}"));
        Rc::clone(chain.or_insert_with(|| Rc::new(Chain::new(coefficient))))
    }
}

fn field(out: &RankOutput) -> &Field2D {
    out.final_u.as_ref().expect("rank 0 gathers the field")
}

/// Applies every leg `row`'s contract implies.
fn check(row: Row, runs: &mut Runs) {
    let meta = solver_registry().resolve(row.solver).expect("an entry");
    let out = runs.get(row, None, 0);
    let (u, eps) = (field(&out), row.deck(None, 0).control.opts.eps);
    // cg_f32 stops at its floor, short of eps
    let f32_floor = meta.precision == Precision::F32;
    let converged = out.steps.iter().all(|s| s.converged);
    assert!(f32_floor || converged, "{row:?}: {:?}", out.steps);

    if let Setting::Oracle(coefficient) = row.setting {
        let chain = runs.chain(coefficient);
        let floor = if f32_floor { f32::EPSILON as f64 } else { eps };
        let bound = SAFETY * floor * chain.r0;
        let err = norm(interior(u).iter().zip(&chain.u).map(|(a, b)| a - b));
        assert!(err <= bound, "{row:?}: ‖u − u*‖ = {err:e} > {bound:e}");
    }

    if row.ranks > 1 {
        // reduction order moves an answer that meets eps far less than
        // eps (7.6e-11 seen), one whose inner solve sums in f32 further
        // (7.6e-10, mixed_cg), and one at the f32 floor by about that
        // floor (1.9e-6); the stopping point moves by an iteration or so
        let twin = runs.get(Row { ranks: 1, ..row }, None, 0);
        let tol = match meta.precision {
            Precision::F64 => 1e-9,
            Precision::Mixed => 1e-8,
            Precision::F32 => 1e-5,
        };
        let diff = u.interior_max_rel_diff(field(&twin));
        assert!(diff <= tol, "{row:?}: {diff:e} off its 1-rank twin");
        let t = |o: &RankOutput| o.final_summary.temperature;
        let (t, t1) = (t(&out), t(&twin));
        assert!((t - t1).abs() <= tol * t1, "{row:?}: heat {t} vs {t1}");
        for (s, s1) in out.steps.iter().zip(&twin.steps) {
            let (its, its1) = (s.iterations, s1.iterations);
            let near = its.abs_diff(its1) <= 1 + its1 / 20;
            assert!(f32_floor || near, "{row:?}: {its} iterations vs {its1}");
        }
    }

    if row.depth > 1 {
        let twin = runs.get(Row { depth: 1, ..row }, None, 0);
        assert_same_bits(&format!("{row:?} against depth 1"), &out, &twin, 1.0);
    }

    // a decomposed mixed row reaches its f64 twin through its 1-rank twin
    if meta.precision == Precision::Mixed && row.ranks == 1 {
        let solver = meta.family;
        let twin = runs.get(Row { solver, ..row }, None, 0);
        let met = |s: &StepRecord| s.converged && s.final_residual <= eps * s.initial_residual;
        let steps = twin.steps.iter().chain(&out.steps);
        assert!(steps.clone().all(met), "{row:?}: {steps:?}");
        let diff = u.interior_max_rel_diff(field(&twin));
        assert!(diff <= 1e-6, "{row:?}: {diff:e} off its f64 twin");
    }

    if !f32_floor && out.steps.len() > 1 {
        let t = |s: &StepRecord| s.summary.expect("every step reports").temperature;
        let (t0, tn) = (t(&out.steps[0]), t(out.steps.last().expect("steps")));
        let drift = (tn - t0).abs() / t0;
        assert!(drift <= 1e-7, "{row:?}: heat leaked: {drift:e}");
    }

    // A deeper row is its depth-1 twin's bits, and a decomposed row stops
    // with its 1-rank twin's answer: that twin carries the last two legs.
    if row.depth > 1 || row.ranks > 1 {
        return;
    }

    // exit: a solve reports its residual in the norm of its
    // preconditioner M⁻¹, which the Euclidean norm bounds within
    // √κ(M) each way; κ(M) ≤ λG, Gershgorin's bound on λmax(A), for
    // every M here (λ(M) ⊂ [1, λG] for the diagonal and block-Jacobi
    // ones; the inner solves of ppcg and amg approximate A⁻¹)
    let first = runs.get(row, Some(1), 0);
    let deck = row.deck(Some(1), 0);
    let sys = System::new(&deck.problem, deck.control.dt);
    let truth = sys.residual(&interior(field(&first)), &sys.b) / sys.residual(&sys.b, &sys.b);
    let told = first.steps[0].final_residual / first.steps[0].initial_residual;
    let mut d = Field2D::new(sys.density.nx(), sys.density.ny(), 1);
    sys.op.diagonal_into(&mut d, 0);
    let gap = (2.0 * interior(&d).into_iter().fold(0.0, f64::max) - 1.0).sqrt();
    assert!(
        truth <= gap * told && told <= gap * truth,
        "{row:?}: reports a relative residual of {told:e}, its answer has {truth:e}"
    );

    // scale: cg_f32 holds at 2^±20 only: at 2^60 its f32 norms overflow
    // (0 iterations, unconverged), and at 2^-60 its bits move
    let oracle = Setting::Oracle(Coefficient::Conductivity);
    if row.precon == PreconKind::None && row.setting == oracle {
        let ks = [-60, -20, 20, 60].into_iter();
        for k in ks.filter(|k: &i32| !f32_floor || k.abs() < 60) {
            let scaled = runs.get(row, Some(1), k);
            assert_same_bits(&format!("{row:?} at 2^{k}"), &scaled, &first, 2f64.powi(k));
        }
    }
}

/// `out` is `twin` scaled by `scale` (a power of two), bit for bit: every
/// step's iterations and final residual, and the field.
fn assert_same_bits(what: &str, out: &RankOutput, twin: &RankOutput, scale: f64) {
    let bits = |o: &RankOutput, scale: f64| {
        let steps = o.steps.iter().map(|s| (s.iterations, s.final_residual));
        let field = interior(field(o)).into_iter().map(|v| (0, v));
        steps
            .chain(field)
            .map(|(i, v)| (i, (v * scale).to_bits()))
            .collect::<Vec<_>>()
    };
    assert!(bits(out, 1.0) == bits(twin, scale), "{what}: bits differ");
}

/// Checks the table's rows that `test` owns.
pub fn check_rows(test: &str) {
    let mut runs = Runs::default();
    let rows: Vec<Row> = table()
        .into_iter()
        .filter_map(|(owner, row)| (owner == test).then_some(row))
        .collect();
    assert!(rows.len() > 1, "{test}: {} rows", rows.len());
    rows.into_iter().for_each(|row| check(row, &mut runs));
}

/// Every row's test is in [`TESTS`], and `file` declares exactly the
/// tests [`TESTS`] gives it, so each row is checked.
pub fn assert_declared(file: &str, declared: &[&str]) {
    for (test, row) in table() {
        let listed = TESTS.iter().any(|&(_, t)| t == test);
        assert!(listed, "{row:?}: its test {test} is not in TESTS");
    }
    let tests = TESTS.iter().filter(|&&(f, _)| file.ends_with(f));
    let listed: Vec<&str> = tests.map(|&(_, t)| t).collect();
    assert_eq!(declared, listed, "{file}'s table tests");
}

/// One `#[test]` per name, checking the rows [`table`] gives that name,
/// and one that the names are the ones [`TESTS`] lists for this file.
macro_rules! table_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                $crate::oracle_table::check_rows(stringify!($name));
            }
        )*
        #[test]
        fn this_file_declares_its_table_tests() {
            $crate::oracle_table::assert_declared(file!(), &[$(stringify!($name)),*]);
        }
    };
}
pub(crate) use table_tests;
