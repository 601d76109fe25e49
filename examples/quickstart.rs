//! Quickstart: solve one implicit heat-conduction step on the crooked
//! pipe with every registered solver and compare their communication
//! protocols — the design space as a first-class API.
//!
//! The `Solve` builder is the one-expression way in; under it sit the
//! string-keyed `SolverRegistry` and the `IterativeSolver` trait every
//! method implements (see the README architecture section).
//!
//! Run with: `cargo run --release --example quickstart`

use tealeaf::solvers::{crooked_pipe_system, PreconKind, Solve, SolveResult};

fn main() {
    let n = 128;
    println!("crooked pipe, {n}x{n} cells, one implicit step (dt = 0.04)\n");

    // one assembled operator serves every solver; halo 8 is deep enough
    // for the PPCG-8 matrix-powers schedule
    let (op, b) = crooked_pipe_system(n, 0.04, 8);

    println!(
        "{:<22} {:>8} {:>10} {:>12} {:>12}",
        "solver", "iters", "sweeps", "reductions", "exchanges"
    );

    // the design-space floor needs a relaxed cap: Jacobi converges slowly
    let mut u = b.clone();
    let r = Solve::on(&op)
        .with_solver("jacobi")
        .eps(1e-10)
        .max_iters(200_000)
        .run(&mut u, &b)
        .expect("registered");
    report("Jacobi", &r);

    // every Krylov-family method through the same builder
    for (label, name, precon) in [
        ("CG", "cg", PreconKind::None),
        ("CG + block-Jacobi", "cg", PreconKind::BlockJacobi),
        ("Chebyshev", "chebyshev", PreconKind::None),
    ] {
        let mut u = b.clone();
        let r = Solve::on(&op)
            .with_solver(name)
            .precon(precon)
            .eps(1e-10)
            .max_iters(200_000)
            .run(&mut u, &b)
            .expect("registered");
        report(label, &r);
    }

    // CPPCG at depths 1 and 8
    for depth in [1usize, 8] {
        let mut u = b.clone();
        let r = Solve::on(&op)
            .with_solver("ppcg")
            .halo_depth(depth)
            .eps(1e-10)
            .run(&mut u, &b)
            .expect("registered");
        report(&format!("CPPCG (depth {depth})"), &r);
    }

    println!(
        "\nNote how CPPCG pays a few extra stencil sweeps to slash global\n\
         reductions (the strong-scaling bottleneck), and how deeper matrix\n\
         powers cut halo exchange counts further — the paper's Figs. 5-7."
    );

    fn report(name: &str, r: &SolveResult) {
        assert!(r.converged, "{name} failed to converge");
        println!(
            "{:<22} {:>8} {:>10} {:>12} {:>12}",
            name,
            r.iterations,
            r.trace.spmv.total(),
            r.trace.reductions,
            r.trace.total_halo_exchanges()
        );
    }
}
