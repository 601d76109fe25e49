//! The eigenvalue machinery behind CPPCG (paper §III.C-D): estimate the
//! spectrum of the crooked-pipe operator from CG coefficients, quantify
//! the block-Jacobi preconditioner's condition-number cut, and check the
//! paper's iteration-bound formulas (Eqs. 6-7).
//!
//! Run with: `cargo run --release --example eigenvalue_tools -- [cells]`

use tealeaf::comms::{HaloLayout, SerialComm};
use tealeaf::mesh::{
    crooked_pipe, timestep_scalings, Coefficients, Decomposition2D, Field2D, Mesh2D,
};
use tealeaf::solvers::{
    cg_iteration_bound, cg_solve_recording, estimate_from_cg, kappa_pcg, PreconKind,
    Preconditioner, SolveOpts, Tile, TileBounds, TileOperator, Workspace,
};

fn main() {
    let cells: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);

    let problem = crooked_pipe(cells);
    let mesh = Mesh2D::serial(cells, cells, problem.extent);
    let mut density = Field2D::new(cells, cells, 1);
    let mut energy = Field2D::new(cells, cells, 1);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, 0.04);
    let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, 1);
    let op = TileOperator::new(coeffs, TileBounds::serial(cells, cells));
    let mut b = Field2D::new(cells, cells, 1);
    for k in 0..cells as isize {
        for j in 0..cells as isize {
            b.set(j, k, density.at(j, k) * energy.at(j, k));
        }
    }
    let decomp = Decomposition2D::with_grid(cells, cells, 1, 1);
    let layout = HaloLayout::new(&decomp, 0);
    let comm = SerialComm::new();
    let tile = Tile::new(&op, &layout, &comm);

    println!("crooked pipe {cells}x{cells}, dt = 0.04\n");
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10}",
        "operator", "λmin", "λmax", "κ", "iters"
    );

    let mut kappas = Vec::new();
    for kind in [
        PreconKind::None,
        PreconKind::Diagonal,
        PreconKind::BlockJacobi,
    ] {
        let precon = Preconditioner::setup(kind, &op, 0);
        let mut ws = Workspace::new(cells, cells, 1);
        let mut u = b.clone();
        // run enough CG iterations for tight Lanczos bounds
        let (res, coeffs) = cg_solve_recording(
            &tile,
            &mut u,
            &b,
            &precon,
            &mut ws,
            SolveOpts::with_eps(1e-10),
            80,
        );
        let (al, be) = coeffs.for_lanczos();
        let est = estimate_from_cg(al, be, 0.0);
        println!(
            "{:<14} {:>12.6} {:>12.6} {:>10.3} {:>10}",
            match kind {
                PreconKind::None => "A",
                PreconKind::Diagonal => "diag⁻¹A",
                PreconKind::BlockJacobi => "M_block⁻¹A",
            },
            est.min,
            est.max,
            est.condition_number(),
            res.iterations
        );
        kappas.push(est.condition_number());
    }

    let cut = 100.0 * (1.0 - kappas[2] / kappas[0]);
    println!(
        "\nblock-Jacobi cuts the condition number by {cut:.1}% \
         (paper §IV.C.1 reports ≈ 40%)"
    );

    // Eqs. 6-7: CG iteration bound and the outer/inner ratio
    let eps = 1e-10;
    let k_total = cg_iteration_bound(kappas[0], eps);
    println!("\nEq. 6 bound on CG iterations:        {k_total:.0}");
    for m in [4usize, 10, 16] {
        // the m-step Chebyshev preconditioner reduces kappa (Eqs. 4-5)
        let k_outer = cg_iteration_bound(kappa_pcg(kappas[0], m), eps);
        println!(
            "Eq. 7 bound on CPPCG outer iterations (m = {m:>2}): {k_outer:>6.0}  \
             (reduction ratio ≈ {:.1}x)",
            k_total / k_outer
        );
    }
}
