//! `figures` — regenerates every table, figure and quantified claim of
//! the CLUSTER'17 evaluation, one subcommand each:
//!
//! `cargo run --release -p tea-bench --bin figures -- fig5 --cells 128`
//!
//! Each subcommand measures real solver protocols on laptop-scale
//! crooked-pipe runs, prints its table to stdout and (the figures)
//! writes CSV/PPM/VTK artefacts under `--out`. A claim-checking
//! subcommand is a `tea_bench::claims` function: a violated claim exits
//! 1 naming the claim and its numbers. `figures --help` lists the
//! subcommands and their defaults.

use std::path::PathBuf;
use std::process::ExitCode;
use tea_app::{write_field_csv, write_field_ppm, write_field_vtk, write_series_csv};
use tea_bench::claims::{self, Scale, Violation};
use tea_bench::{measure, SolverConfig};
use tea_core::{cg_iteration_bound, kappa_pcg};
use tea_perfmodel::{all_machines, node_counts, ScalingSeries};

/// One subcommand: its default `--cells` and `--steps`, the smallest
/// `--cells` it can check, and the function that regenerates the
/// artefact.
struct Figure {
    name: &'static str,
    about: &'static str,
    cells: usize,
    steps: u64,
    min_cells: usize,
    run: fn(&FigArgs) -> Result<(), Violation>,
}

#[rustfmt::skip]
const FIGURES: [Figure; 10] = [
    Figure { name: "table1", cells: 0, steps: 0, min_cells: 0, run: table1, about: "Table I: the modelled machine inventory (flags are ignored)" },
    Figure { name: "fig3", cells: 256, steps: 60, min_cells: 1, run: fig3, about: "Fig. 3: the crooked-pipe temperature field (PPM, CSV, VTK)" },
    Figure { name: "fig4", cells: 192, steps: 25, min_cells: claims::FIG4_MIN_CELLS, run: fig4, about: "Fig. 4: average temperature under mesh refinement" },
    Figure { name: "fig5", cells: 128, steps: 2, min_cells: 1, run: |a| write_series(a, "fig5_titan.csv", "\n", claims::fig5(&a.scale)?), about: "Fig. 5: CUDA strong scaling on Titan, 1-8,192 nodes" },
    Figure { name: "fig6", cells: 128, steps: 2, min_cells: 1, run: |a| write_series(a, "fig6_piz_daint.csv", "", claims::fig6(&a.scale)?), about: "Fig. 6: CUDA strong scaling on Piz Daint, and Titan vs Piz Daint at 2,048 nodes" },
    Figure { name: "fig7", cells: 96, steps: 2, min_cells: 1, run: |a| write_series(a, "fig7_spruce.csv", "\n", claims::fig7(&a.scale)?), about: "Fig. 7: MPI and hybrid strong scaling on Spruce against BoomerAMG" },
    Figure { name: "fig8", cells: 128, steps: 2, min_cells: 1, run: fig8, about: "Fig. 8: strong-scaling efficiency of the best configuration per system" },
    Figure { name: "claim_condition", cells: 96, steps: 1, min_cells: 1, run: |a| claims::claim_condition(a.scale.cells).map(drop), about: "IV.C.1: block Jacobi cuts the condition number by ~40%" },
    Figure { name: "claim_iterations", cells: 128, steps: 1, min_cells: 1, run: claim_iterations, about: "Eqs. 6-7: CPPCG outer iterations and dot-product reduction" },
    Figure { name: "claim_weak_scaling", cells: 192, steps: 1, min_cells: claims::WEAK_SCALING_MIN_CELLS, run: |a| claims::claim_weak_scaling(&a.scale).map(drop), about: "VI: why the evaluation strong-scales (mesh -> kappa -> iterations)" },
];

fn usage() -> String {
    let mut text = String::from(
        "figures: regenerates one CLUSTER'17 TeaLeaf table, figure or claim\n\n\
         USAGE: figures <subcommand> [--cells N] [--steps N] [--target N] [--out DIR]\n\n\
         \x20 --cells N   measurement mesh; traces are measured at this size\n\
         \x20 --steps N   time steps per measurement run\n\
         \x20 --target N  mesh the protocol is extrapolated to (default 4000, the paper's)\n\
         \x20 --out DIR   CSV/PPM/VTK output directory (default ./experiments)\n\n\
         SUBCOMMANDS (default --cells, --steps):\n",
    );
    for f in &FIGURES {
        let defaults = format!("({}, {})", f.cells, f.steps);
        text += &format!("  {:<19}{defaults:<10} {}\n", f.name, f.about);
    }
    text
}

/// The flags every subcommand shares.
struct FigArgs {
    scale: Scale,
    out_dir: PathBuf,
}

impl FigArgs {
    /// Parses the flags after the subcommand; the error names the unknown
    /// flag, or the flag whose value is missing or unparsable.
    fn parse(argv: &[String], figure: &Figure) -> Result<FigArgs, String> {
        fn value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
            let value = value.ok_or(format!("{flag} needs a value"))?;
            let unparsable = |_| format!("{flag} cannot take '{value}'");
            value.parse().map_err(unparsable)
        }
        let mut args = FigArgs {
            scale: Scale {
                cells: figure.cells,
                steps: figure.steps,
                target: 4000,
            },
            out_dir: PathBuf::from("experiments"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--cells" => args.scale.cells = value(flag, it.next())?,
                "--steps" => args.scale.steps = value(flag, it.next())?,
                "--target" => args.scale.target = value(flag, it.next())?,
                "--out" => args.out_dir = value(flag, it.next())?,
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let (name, least, cells) = (figure.name, figure.min_cells, args.scale.cells);
        if cells < least {
            return Err(format!("{name} needs --cells {least} or more, got {cells}"));
        }
        Ok(args)
    }

    /// Path of the artefact `name` under the output directory, which is
    /// created here — only a subcommand that writes a file leaves one.
    fn out_path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create output dir");
        self.out_dir.join(name)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let parsed = match argv.split_first() {
        None => Err("missing subcommand".to_string()),
        Some((name, flags)) => FIGURES
            .iter()
            .find(|f| f.name == name)
            .ok_or(format!("unknown subcommand '{name}'"))
            .and_then(|f| Ok((f, FigArgs::parse(flags, f)?))),
    };
    match parsed {
        Ok((figure, args)) => match (figure.run)(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(violation) => {
                eprintln!("error: {violation}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// Writes Figs. 5–7's series as one CSV column each, then prints
/// `{gap}wrote <path>`.
fn write_series(
    args: &FigArgs,
    name: &str,
    gap: &str,
    series: Vec<ScalingSeries>,
) -> Result<(), Violation> {
    let xs: Vec<f64> = series[0].points.iter().map(|p| p.nodes as f64).collect();
    let column = |s: &ScalingSeries| s.points.iter().map(|p| p.total()).collect();
    let cols: Vec<(String, Vec<f64>)> = series
        .iter()
        .map(|s| (s.label.clone(), column(s)))
        .collect();
    let path = args.out_path(name);
    write_series_csv(&path, "nodes", &xs, &cols).expect("write series CSV");
    println!("{gap}wrote {}", path.display());
    Ok(())
}

/// Table I — test setup specifications: the modelled machine inventory
/// (the reproduction's analogue of the paper's driver/compiler column
/// is the model calibration).
fn table1(_: &FigArgs) -> Result<(), Violation> {
    println!("TABLE I: TEST SETUP SPECIFICATIONS (modelled)\n");
    println!(
        "{:<16} {:<14} {:<17} {:>12} {:>10}",
        "System", "Compute device", "Interconnect", "Total cores", "Max nodes"
    );
    for m in all_machines() {
        println!(
            "{:<16} {:<14} {:<17} {:>12} {:>10}",
            m.name, m.node.device, m.net.interconnect, m.total_cores, m.max_nodes
        );
    }
    println!("\nModel calibration (per node / link):");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "System", "mem BW GB/s", "sweep µs", "net α µs", "net GB/s", "tree-hop µs"
    );
    for m in all_machines() {
        println!(
            "{:<16} {:>12.0} {:>12.1} {:>12.1} {:>12.0} {:>12.1}",
            m.name,
            m.node.mem_bandwidth / 1e9,
            m.node.sweep_overhead * 1e6,
            m.net.latency * 1e6,
            m.net.bandwidth / 1e9,
            m.net.reduction_hop * 1e6,
        );
    }
    println!("\n(see crates/perfmodel/src/machines.rs for sources and rationale)");
    Ok(())
}

/// Figure 3 — the crooked-pipe temperature field as a heat map (PPM)
/// plus the raw field (CSV, VTK). The paper shows the 4000² domain
/// after 15 µs (375 steps of Δt = 0.04 µs); the default is a 256² /
/// 60-step rendering of the same physics.
fn fig3(args: &FigArgs) -> Result<(), Violation> {
    let u = claims::fig3(&args.scale)?;
    let ppm = args.out_path("fig3_crooked_pipe.ppm");
    let csv = args.out_path("fig3_crooked_pipe.csv");
    let vtk = args.out_path("fig3_crooked_pipe.vtk");
    write_field_ppm(&u, &ppm).expect("ppm");
    write_field_csv(&u, &csv).expect("csv");
    write_field_vtk(&u, &vtk, "temperature").expect("vtk");
    println!("\nwrote {} and {}", ppm.display(), csv.display());
    Ok(())
}

/// Figure 4 — convergence of the average mesh temperature under mesh
/// refinement at a fixed physical end time.
fn fig4(args: &FigArgs) -> Result<(), Violation> {
    let temps = claims::fig4(&args.scale)?;
    let (xs, temps): (Vec<f64>, _) = temps.into_iter().map(|(n, t)| ((n * n) as f64, t)).unzip();
    let path = args.out_path("fig4_mesh_convergence.csv");
    write_series_csv(&path, "cells", &xs, &[("avg_temperature".into(), temps)]).expect("write csv");
    println!("wrote {}", path.display());
    Ok(())
}

/// Figure 8 — strong-scaling efficiency of the best configuration on
/// each system, one CSV column per system over Titan's node counts.
fn fig8(args: &FigArgs) -> Result<(), Violation> {
    let effs = claims::fig8(&args.scale)?;
    let xs: Vec<f64> = node_counts(8192).into_iter().map(|n| n as f64).collect();
    let cols: Vec<(String, Vec<f64>)> = effs
        .iter()
        .map(|(label, e)| {
            let mut col: Vec<f64> = e.iter().map(|&(_, v)| v).collect();
            col.resize(xs.len(), f64::NAN);
            (label.to_string(), col)
        })
        .collect();
    let path = args.out_path("fig8_efficiency.csv");
    write_series_csv(&path, "nodes", &xs, &cols).expect("csv");
    println!("\nwrote {}", path.display());
    Ok(())
}

/// §III.C claim (Eqs. 6-7) — the outer:total iteration ratio of CPPCG is
/// governed by √(κcg/κpcg), which measures the reduction in global dot
/// products versus plain CG. Compares the measured CG iteration count,
/// CPPCG outer iteration count, and the theoretical bounds.
fn claim_iterations(args: &FigArgs) -> Result<(), Violation> {
    let (n, steps) = (args.scale.cells, args.scale.steps);
    println!("Eqs. 6-7: iteration accounting on the crooked pipe {n}x{n}\n");

    let cg = measure(&SolverConfig::cg(), n, steps);
    let (iters, reductions, sweeps) = (cg.iterations, cg.trace.reductions, cg.trace.spmv.total());
    println!("CG - 1:    {iters:>6} iterations, {reductions:>6} reductions, {sweeps:>6} sweeps");

    for m in [4usize, 10, 16] {
        let mut config = SolverConfig::ppcg(1);
        config.inner = m;
        // the eigen-estimation prelude runs plain CG iterations first
        let presteps = config.deck(n, steps).control.presteps * steps;
        let run = measure(&config, n, steps);
        let outer = run.iterations.saturating_sub(presteps);
        println!(
            "CPPCG m={m:<2}: {outer:>5} outer iterations (+{presteps} presteps), \
             {:>6} reductions, {:>6} sweeps -> dot-product reduction {:.1}x",
            run.trace.reductions,
            run.trace.spmv.total(),
            cg.trace.reductions as f64 / run.trace.reductions as f64,
        );
    }

    // theoretical bounds from the estimated condition number
    if let Some((lo, hi)) = measure(&SolverConfig::ppcg(1), n, 1).trace.eigen_bounds {
        let kappa = hi / lo;
        let eps = 1e-10;
        let k_total = cg_iteration_bound(kappa, eps);
        println!("\nestimated κ(A) = {kappa:.1}");
        println!("Eq. 6 bound on total iterations: {k_total:.0} (measured CG: {iters})");
        for m in [4usize, 10, 16] {
            let kappa_m = kappa_pcg(kappa, m);
            let k_outer = cg_iteration_bound(kappa_m, eps);
            println!(
                "Eq. 7 bound on outer iterations (m = {m:>2}): {k_outer:>6.0} \
                 -> predicted dot-product reduction √(κcg/κpcg) = {:.1}x",
                (kappa / kappa_m).sqrt()
            );
        }
    }
    Ok(())
}
