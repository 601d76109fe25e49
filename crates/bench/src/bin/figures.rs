//! `figures` — regenerates every table, figure and quantified claim of
//! the CLUSTER'17 evaluation, one subcommand each:
//!
//! `cargo run --release -p tea-bench --bin figures -- fig5 --cells 128`
//!
//! Each subcommand measures real solver protocols on laptop-scale
//! crooked-pipe runs, prints its table to stdout, asserts the shape the
//! paper reports, and (the figures) writes CSV/PPM/VTK artefacts under
//! `--out`. `figures --help` lists the subcommands and their defaults.

use std::path::PathBuf;
use std::process::ExitCode;
use tea_app::{run_serial, write_field_csv, write_field_ppm, write_field_vtk, write_series_csv};
use tea_bench::{
    extrapolate_amg_to, extrapolate_to, fit_power_law, lanczos_kappa, measure, measure_kappa,
    SolverConfig,
};
use tea_core::{
    cg_iteration_bound, crooked_pipe_system, kappa_pcg, BlockJacobi, PreconKind, Preconditioner,
    SolveTrace,
};
use tea_perfmodel::{
    all_machines, node_counts, piz_daint, spruce_hybrid, spruce_mpi, titan, KernelBytes, Machine,
    ScalingSeries,
};

/// One subcommand: its default `--cells` and `--steps`, and the function
/// that regenerates the artefact.
struct Figure {
    name: &'static str,
    about: &'static str,
    cells: usize,
    steps: u64,
    run: fn(&FigArgs),
}

#[rustfmt::skip]
const FIGURES: [Figure; 10] = [
    Figure { name: "table1", cells: 0, steps: 0, run: table1, about: "Table I: the modelled machine inventory (flags are ignored)" },
    Figure { name: "fig3", cells: 256, steps: 60, run: fig3, about: "Fig. 3: the crooked-pipe temperature field (PPM, CSV, VTK)" },
    Figure { name: "fig4", cells: 192, steps: 25, run: fig4, about: "Fig. 4: average temperature under mesh refinement" },
    Figure { name: "fig5", cells: 128, steps: 2, run: fig5, about: "Fig. 5: CUDA strong scaling on Titan, 1-8,192 nodes" },
    Figure { name: "fig6", cells: 128, steps: 2, run: fig6, about: "Fig. 6: CUDA strong scaling on Piz Daint, and Titan vs Piz Daint at 2,048 nodes" },
    Figure { name: "fig7", cells: 96, steps: 2, run: fig7, about: "Fig. 7: MPI and hybrid strong scaling on Spruce against BoomerAMG" },
    Figure { name: "fig8", cells: 128, steps: 2, run: fig8, about: "Fig. 8: strong-scaling efficiency of the best configuration per system" },
    Figure { name: "claim_condition", cells: 96, steps: 1, run: claim_condition, about: "IV.C.1: block Jacobi cuts the condition number by ~40%" },
    Figure { name: "claim_iterations", cells: 128, steps: 1, run: claim_iterations, about: "Eqs. 6-7: CPPCG outer iterations and dot-product reduction" },
    Figure { name: "claim_weak_scaling", cells: 192, steps: 1, run: claim_weak_scaling, about: "VI: why the evaluation strong-scales (mesh -> kappa -> iterations)" },
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
    cells: usize,
    steps: u64,
    target_cells: usize,
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
            cells: figure.cells,
            steps: figure.steps,
            target_cells: 4000,
            out_dir: PathBuf::from("experiments"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--cells" => args.cells = value(flag, it.next())?,
                "--steps" => args.steps = value(flag, it.next())?,
                "--target" => args.target_cells = value(flag, it.next())?,
                "--out" => args.out_dir = value(flag, it.next())?,
                _ => return Err(format!("unknown flag '{flag}'")),
            }
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
        Ok((figure, args)) => {
            (figure.run)(&args);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// Replays an extrapolated protocol on a modelled machine over its node
/// counts, at the target mesh.
fn sweep(label: &str, machine: &Machine, trace: &SolveTrace, args: &FigArgs) -> ScalingSeries {
    let global = (args.target_cells, args.target_cells);
    ScalingSeries::sweep(label, machine, trace, global, KernelBytes::default())
}

/// Prints the paper-style time-to-solution table of series swept over
/// the same node counts.
fn print_series_table(series: &[ScalingSeries]) {
    println!("\ntime to solution (s):");
    print!("{:>8}", "nodes");
    for s in series {
        print!(" {:>14}", s.label);
    }
    println!();
    for (i, point) in series[0].points.iter().enumerate() {
        print!("{:>8}", point.nodes);
        for s in series {
            print!(" {:>14.5}", s.points[i].total());
        }
        println!();
    }
}

/// Writes the series as one CSV column each and returns the path.
fn write_series(args: &FigArgs, name: &str, series: &[ScalingSeries]) -> PathBuf {
    let xs: Vec<f64> = series[0].points.iter().map(|p| p.nodes as f64).collect();
    let column = |s: &ScalingSeries| s.points.iter().map(|p| p.total()).collect();
    let cols: Vec<(String, Vec<f64>)> = series
        .iter()
        .map(|s| (s.label.clone(), column(s)))
        .collect();
    let path = args.out_path(name);
    write_series_csv(&path, "nodes", &xs, &cols).expect("write series CSV");
    path
}

/// Table I — test setup specifications: the modelled machine inventory
/// (the reproduction's analogue of the paper's driver/compiler column
/// is the model calibration).
fn table1(_: &FigArgs) {
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
}

/// Figure 3 — the crooked-pipe temperature field as a heat map (PPM)
/// plus the raw field (CSV, VTK). The paper shows the 4000² domain
/// after 15 µs (375 steps of Δt = 0.04 µs); the default is a 256² /
/// 60-step rendering of the same physics.
fn fig3(args: &FigArgs) {
    let mut deck = SolverConfig::ppcg(4).deck(args.cells, args.steps);
    deck.control.summary_frequency = args.steps / 4;

    let (n, steps, dt) = (args.cells, args.steps, deck.control.dt);
    let t_end = steps as f64 * dt;
    println!(
        "Fig. 3: crooked pipe, {n}x{n} cells, {steps} steps of dt = {dt} (t_end = {t_end:.2} µs)"
    );

    let out = run_serial(&deck).expect("deck runs");
    for s in &out.steps {
        if let Some(sum) = s.summary {
            let (step, t, iters, avg) = (s.step, s.time, s.iterations, sum.average_temperature());
            println!("  step {step:>4}  t = {t:>7.2}  iters = {iters:>4}  avg T = {avg:.8}");
        }
    }

    let u = out.final_u.expect("serial run returns the field");
    let ppm = args.out_path("fig3_crooked_pipe.ppm");
    let csv = args.out_path("fig3_crooked_pipe.csv");
    let vtk = args.out_path("fig3_crooked_pipe.vtk");
    write_field_ppm(&u, &ppm).expect("ppm");
    write_field_csv(&u, &csv).expect("csv");
    write_field_vtk(&u, &vtk, "temperature").expect("vtk");

    // the qualitative content of the figure: heat escapes the source and
    // runs along the pipe, leaving the wall cold
    let n = n as isize;
    let probes = [
        ("inlet (source)", n / 20, n * 3 / 20),
        ("mid-pipe rising leg", n * 3 / 10, n * 4 / 10),
        ("upper leg", n / 2, n * 11 / 20),
        ("outlet leg", n * 4 / 5, n / 4),
        ("far wall", n - 2, n - 2),
    ];
    println!("\nprobe temperatures (u = ρe):");
    let mut last = f64::INFINITY;
    for (name, j, k) in probes {
        let v = u.at(j, k);
        println!("  {name:<22} u({j:>4},{k:>4}) = {v:.6e}");
        if name != "far wall" {
            last = v;
        } else {
            assert!(v < last, "wall must stay colder than the pipe outlet");
        }
    }
    println!("\nwrote {} and {}", ppm.display(), csv.display());
}

/// Figure 4 — convergence of the average mesh temperature under mesh
/// refinement at a fixed physical end time (the study motivating the
/// fixed 4000² strong-scaling mesh). The paper's plateau appears as
/// successive differences shrinking as the mesh refines.
fn fig4(args: &FigArgs) {
    // resolutions sweep up to the measurement budget; the paper sweeps
    // up to 5000^2 on real hardware
    let sizes: Vec<usize> = [24, 32, 48, 64, 96, 128, 192, 256, 384]
        .into_iter()
        .filter(|&n| n <= args.cells * 2)
        .collect();

    println!(
        "Fig. 4: average mesh temperature at t = {:.2} vs mesh size",
        args.steps as f64 * 0.04
    );
    println!(
        "{:>10} {:>10} {:>18} {:>14}",
        "mesh", "iters/step", "avg temperature", "Δ from prev"
    );

    let mut temps = Vec::new();
    let mut prev: Option<f64> = None;
    for &n in &sizes {
        let out = run_serial(&SolverConfig::ppcg(4).deck(n, args.steps)).expect("deck runs");
        let t = out.final_summary.average_temperature();
        let iters = out.steps.iter().map(|s| s.iterations).sum::<u64>() / args.steps.max(1);
        let delta = prev.map(|p| (t - p).abs()).unwrap_or(f64::NAN);
        println!("{:>7}^2  {:>10} {:>18.10} {:>14.3e}", n, iters, t, delta);
        temps.push(t);
        prev = Some(t);
    }

    // mesh convergence: late deltas must be far smaller than early ones
    let early = (temps[1] - temps[0]).abs();
    let late = (temps[temps.len() - 1] - temps[temps.len() - 2]).abs();
    println!(
        "\nrefinement deltas: first {early:.3e} -> last {late:.3e} ({}x reduction)",
        (early / late.max(1e-300)) as u64
    );
    assert!(
        late < early,
        "average temperature must converge under refinement"
    );

    let xs: Vec<f64> = sizes.iter().map(|&n| (n * n) as f64).collect();
    let path = args.out_path("fig4_mesh_convergence.csv");
    write_series_csv(&path, "cells", &xs, &[("avg_temperature".into(), temps)]).expect("write csv");
    println!("wrote {}", path.display());
}

/// The sweep Figs. 5 and 6 share: `CG - 1` and `PPCG - 1/4/8/16`
/// measured at `--cells`, extrapolated to `--target` and replayed on one
/// GPU machine. Returns the series and the `PPCG - 16` protocol.
fn gpu_sweep(args: &FigArgs, figure: u32, machine: &Machine) -> (Vec<ScalingSeries>, SolveTrace) {
    println!(
        "Fig. {figure}: strong scaling on {} — {}^2 mesh (measured at {}^2, extrapolated)\n",
        machine.name, args.target_cells, args.cells
    );
    let mut configs = vec![SolverConfig::cg()];
    configs.extend([1, 4, 8, 16].map(SolverConfig::ppcg));
    let mut series = Vec::new();
    let mut deepest = None;
    for config in &configs {
        let (trace, ext) = extrapolate_to(config, args.cells, args.steps, args.target_cells);
        eprintln!(
            "  {}: κ {:.0} -> {:.0}, iterations x{:.1} = {} outer",
            config.label, ext.kappa_measured, ext.kappa_target, ext.factor, trace.outer_iterations
        );
        series.push(sweep(&config.label, machine, &trace, args));
        deepest = Some(trace);
    }
    print_series_table(&series);
    (series, deepest.expect("five configurations"))
}

/// Figure 5 — CUDA strong scaling on Titan (K20x + Gemini).
fn fig5(args: &FigArgs) {
    let machine = titan();
    let (series, _) = gpu_sweep(args, 5, &machine);

    println!("\nshape checks against the paper:");
    for s in &series {
        println!("  {} fastest at {} nodes", s.label, s.best_nodes());
    }
    let at = machine.max_nodes;
    let cg = series[0].time_at(at).unwrap();
    let pp16 = series[4].time_at(at).unwrap();
    println!(
        "  at {at} nodes: CG - 1 = {cg:.3}s, PPCG - 16 = {pp16:.3}s ({:.1}x; paper's best \
         CUDA config at 8,192 nodes was PPCG-16 at 4.26 s)",
        cg / pp16
    );
    assert!(pp16 < cg, "PPCG-16 must beat CG-1 at full scale");
    // the knee: the fixed 4000^2 problem stops scaling around 1k nodes
    let knee = series[4].best_nodes();
    println!("  PPCG - 16 knee at {knee} nodes (paper: plateau from ~1,024)");

    let path = write_series(args, "fig5_titan.csv", &series);
    println!("\nwrote {}", path.display());
}

/// Figure 6 — CUDA strong scaling on Piz Daint, 1–2,048 nodes, plus the
/// §VI cross-machine claim (Piz Daint ≈ 47 % faster than Titan at 2,048
/// nodes thanks to Aries vs Gemini).
fn fig6(args: &FigArgs) {
    let (series, pp16) = gpu_sweep(args, 6, &piz_daint());

    for s in &series {
        println!("  {} fastest at {} nodes", s.label, s.best_nodes());
    }

    // claim C3: same GPUs, different interconnect
    let t_titan = sweep("PPCG - 16", &titan(), &pp16, args)
        .time_at(2048)
        .unwrap();
    let t_daint = series[4].time_at(2048).unwrap();
    println!(
        "\nclaim §VI: at 2,048 nodes Titan = {t_titan:.3}s vs Piz Daint = {t_daint:.3}s \
         -> Titan {:.0}% slower (paper: 47%, 4.09 s vs 2.79 s)",
        100.0 * (t_titan / t_daint - 1.0)
    );
    assert!(t_daint < t_titan, "Piz Daint must win at 2,048 nodes");

    let path = write_series(args, "fig6_piz_daint.csv", &series);
    println!("wrote {}", path.display());
}

/// Figure 7 — MPI and hybrid strong scaling on Spruce (CPU), 1–1,024
/// nodes: `CG - 1`, `PPCG - 1` and the BoomerAMG-class baseline, each in
/// flat-MPI and hybrid (MPI+OpenMP) run modes. BoomerAMG is fastest at
/// low node counts but peaks early (paper: 32 nodes); CPPCG keeps
/// improving to ~512 nodes and wins at scale.
fn fig7(args: &FigArgs) {
    println!(
        "Fig. 7: strong scaling on Spruce — {}^2 mesh (measured at {}^2, extrapolated)\n",
        args.target_cells, args.cells
    );

    // measure the three solver protocols once
    let krylov = |config| extrapolate_to(&config, args.cells, args.steps, args.target_cells);
    let (cg_trace, cg_ext) = krylov(SolverConfig::cg());
    let (pp_trace, pp_ext) = krylov(SolverConfig::ppcg(1));
    let (amg_trace, p_amg) = extrapolate_amg_to(args.cells, args.steps, args.target_cells);
    eprintln!(
        "  iteration scale factors: CG x{:.1}, PPCG x{:.1}; BoomerAMG growth exponent {p_amg:.2} \
         (multigrid should be near mesh-independent)",
        cg_ext.factor, pp_ext.factor
    );

    let mut series = Vec::new();
    for (mode, machine) in [("Hybrid", spruce_hybrid()), ("MPI", spruce_mpi())] {
        series.push(ScalingSeries::sweep_amg(
            format!("BoomerAMG ({mode})"),
            &machine,
            &amg_trace,
            (args.target_cells, args.target_cells),
            KernelBytes::default(),
        ));
        for (name, trace) in [("CG - 1", &cg_trace), ("PPCG - 1", &pp_trace)] {
            series.push(sweep(&format!("{name} ({mode})"), &machine, trace, args));
        }
    }

    print_series_table(&series);

    println!("\nshape checks against the paper:");
    for s in &series {
        println!("  {:<22} fastest at {:>5} nodes", s.label, s.best_nodes());
    }

    // BoomerAMG wins small, CPPCG wins big (paper: crossover ~128 nodes
    // flat-MPI, 1-8 hybrid; 2x advantage at 512; baseline peaks at 32)
    for (mode, of_mode) in ["Hybrid", "MPI"].into_iter().zip(series.chunks(3)) {
        let (amg_s, ppcg_s) = (&of_mode[0], &of_mode[2]);
        let t_amg_1 = amg_s.time_at(1).unwrap();
        let t_ppcg_1 = ppcg_s.time_at(1).unwrap();
        let t_amg_512 = amg_s.time_at(512).unwrap();
        let t_ppcg_512 = ppcg_s.time_at(512).unwrap();
        println!(
            "\n  [{mode}] at 1 node:    BoomerAMG {t_amg_1:.3}s vs PPCG-1 {t_ppcg_1:.3}s \
             (baseline wins: {})",
            t_amg_1 < t_ppcg_1
        );
        println!(
            "  [{mode}] at 512 nodes: BoomerAMG {t_amg_512:.3}s vs PPCG-1 {t_ppcg_512:.3}s \
             ({:.1}x; paper: 2x at 512)",
            t_amg_512 / t_ppcg_512
        );
        assert!(
            t_amg_1 < t_ppcg_1,
            "[{mode}] the baseline must win at one node"
        );
        assert!(
            t_ppcg_512 < t_amg_512,
            "[{mode}] CPPCG must win at 512 nodes (paper: 2x)"
        );
        assert!(
            amg_s.best_nodes() < ppcg_s.best_nodes(),
            "[{mode}] BoomerAMG must peak earlier than CPPCG \
             (paper: 32 vs 512)"
        );
    }

    let path = write_series(args, "fig7_spruce.csv", &series);
    println!("\nwrote {}", path.display());
}

/// Figure 8 — strong-scaling efficiency `E(P) = T(1) / (P · T(P))` of
/// the best configuration on each system. The paper's headline: the CPU
/// machine holds super-linear efficiency (cache effects) until ~512
/// nodes, while the GPU machines decay monotonically, Piz Daint above
/// Titan throughout.
fn fig8(args: &FigArgs) {
    println!(
        "Fig. 8: scaling efficiency across systems — {}^2 mesh\n",
        args.target_cells
    );

    let ppcg = |depth| {
        let config = SolverConfig::ppcg(depth);
        extrapolate_to(&config, args.cells, args.steps, args.target_cells).0
    };
    let (pp1, pp16) = (ppcg(1), ppcg(16));
    let effs = [
        ("Spruce - PPCG - 1 (MPI)", spruce_mpi(), &pp1),
        ("Piz Daint - PPCG - 16 (CUDA)", piz_daint(), &pp16),
        ("Titan - PPCG - 16 (CUDA)", titan(), &pp16),
    ]
    .map(|(label, machine, trace)| (label, sweep(label, &machine, trace, args).efficiency()));

    println!(
        "{:>8} {:>26} {:>30} {:>26}",
        "nodes", effs[0].0, effs[1].0, effs[2].0
    );
    // every series is a prefix of Titan's 1-8,192 node counts
    let nodes = node_counts(8192);
    for (i, n) in nodes.iter().enumerate() {
        print!("{n:>8}");
        for (_, e) in &effs {
            match e.get(i) {
                Some(&(_, v)) => print!(" {v:>26.3}"),
                None => print!(" {:>26}", "-"),
            }
        }
        println!();
    }

    // shape checks
    let [(_, spruce_eff), (_, daint_eff), (_, titan_eff)] = &effs;
    let spruce_super = spruce_eff.iter().any(|&(_, e)| e > 1.0);
    println!(
        "\n  Spruce shows a super-linear cache window: {spruce_super} (paper: yes, to 512 nodes)"
    );
    assert!(spruce_super, "expected super-linear efficiency on Spruce");
    // Piz Daint ≥ Titan at every common node count beyond 64 (paper §VI)
    for (&(n, ed), &(_, et)) in daint_eff.iter().zip(titan_eff) {
        if n >= 64 {
            assert!(
                ed >= et,
                "Piz Daint efficiency must dominate Titan at {n} nodes: {ed} vs {et}"
            );
        }
    }
    println!("  Piz Daint efficiency dominates Titan at scale: true");

    let xs: Vec<f64> = nodes.iter().map(|&n| n as f64).collect();
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
}

/// §IV.C.1 claim — "This block Jacobi preconditioner typically reduces
/// the condition number of the matrix by around 40%." Measures κ(A) and
/// κ(M⁻¹A) on the crooked pipe via CG-Lanczos estimation, for the
/// paper's 4×1 strips and an ablation over strip lengths.
fn claim_condition(args: &FigArgs) {
    let n = args.cells;
    let (op, b) = crooked_pipe_system(n, 0.04, 1);
    let kappa = |precon: &Preconditioner| lanczos_kappa(&op, &b, precon, 100);

    println!("§IV.C.1: block-Jacobi condition-number cut, crooked pipe {n}x{n}\n");
    let k_plain = kappa(&Preconditioner::Identity);
    println!("{:<24} κ = {k_plain:10.3}", "A (no preconditioner)");

    let k_diag = kappa(&Preconditioner::setup(PreconKind::Diagonal, &op, 0));
    let change = 100.0 * (k_diag / k_plain - 1.0);
    println!(
        "{:<24} κ = {k_diag:10.3}   ({change:+5.1}%)",
        "point Jacobi"
    );

    println!("\nstrip-length ablation (paper uses 4):");
    let mut cut4 = 0.0;
    for strip in [2usize, 4, 8, 16] {
        let k_bj = kappa(&Preconditioner::BlockJacobi(BlockJacobi::setup(&op, strip)));
        let cut = 100.0 * (1.0 - k_bj / k_plain);
        if strip == 4 {
            cut4 = cut;
        }
        println!("  {strip:>2}x1 strips            κ = {k_bj:10.3}   (cut {cut:5.1}%)");
    }

    println!("\npaper claim: ~40% reduction with 4x1 strips; measured: {cut4:.1}%");
    assert!(
        (25.0..70.0).contains(&cut4),
        "4x1 block-Jacobi cut {cut4:.1}% is out of the plausible band around the paper's 40%"
    );
}

/// §III.C claim (Eqs. 6-7) — the outer:total iteration ratio of CPPCG is
/// governed by √(κcg/κpcg), which measures the reduction in global dot
/// products versus plain CG. Compares the measured CG iteration count,
/// CPPCG outer iteration count, and the theoretical bounds.
fn claim_iterations(args: &FigArgs) {
    let n = args.cells;
    println!("Eqs. 6-7: iteration accounting on the crooked pipe {n}x{n}\n");

    let cg = measure(&SolverConfig::cg(), n, args.steps);
    let (iters, reductions, sweeps) = (cg.iterations, cg.trace.reductions, cg.trace.spmv.total());
    println!("CG - 1:    {iters:>6} iterations, {reductions:>6} reductions, {sweeps:>6} sweeps");

    for m in [4usize, 10, 16] {
        let mut config = SolverConfig::ppcg(1);
        config.inner = m;
        // the eigen-estimation prelude runs plain CG iterations first
        let presteps = config.deck(n, args.steps).control.presteps * args.steps;
        let run = measure(&config, n, args.steps);
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
}

/// §VI's weak-scaling argument, quantified: "increasing the mesh size
/// also increases the condition number, the number of iterations
/// required to converge, and hence the time to solution." Measures that
/// chain on real solves — mesh size ↑ → κ ↑ → iterations ↑ — which is
/// the justification for the strong-scaling-only evaluation.
fn claim_weak_scaling(args: &FigArgs) {
    let sizes: Vec<usize> = [32usize, 48, 64, 96, 128, 192]
        .into_iter()
        .filter(|&n| n <= args.cells)
        .collect();

    println!("§VI: why TeaLeaf strong-scales — the κ/iteration growth chain\n");
    println!(
        "{:>8} {:>12} {:>12} {:>16} {:>16}",
        "mesh", "κ(A)", "CG iters", "CG sweeps", "iters/√κ"
    );

    let mut kappa_points = Vec::new();
    let mut iter_points = Vec::new();
    for &n in &sizes {
        let kappa = measure_kappa(n);
        let m = measure(&SolverConfig::cg(), n, args.steps);
        let (iters, sweeps) = (m.iterations, m.trace.spmv.total());
        let per_root = iters as f64 / kappa.sqrt();
        println!("{n:>5}^2 {kappa:>12.1} {iters:>12} {sweeps:>16} {per_root:>16.2}");
        kappa_points.push((n, kappa.round() as u64));
        iter_points.push((n, m.iterations));
    }

    let (_, p_kappa) = fit_power_law(&kappa_points);
    let (_, p_iter) = fit_power_law(&iter_points);
    println!("\nfitted growth exponents (vs cells-per-side n):");
    println!("  κ(A)      ~ n^{p_kappa:.2}   (theory: 2, from rx = Δt/Δx²)");
    println!("  CG iters  ~ n^{p_iter:.2}   (theory: 1, from iters ∝ √κ)");
    println!(
        "\nConsequence: doubling the mesh per node in a weak-scaling sweep\n\
         roughly doubles the iteration count — time per step cannot stay\n\
         flat, which is the paper's §VI justification for strong scaling."
    );

    assert!(
        p_kappa > 1.4,
        "κ must grow super-linearly with n, got exponent {p_kappa:.2}"
    );
    assert!(
        p_iter > 0.5,
        "iterations must grow with n, got exponent {p_iter:.2}"
    );
    // the ratio iters/√κ should be roughly flat (CG theory)
    let first = iter_points[0].1 as f64 / (kappa_points[0].1 as f64).sqrt();
    let last =
        iter_points.last().unwrap().1 as f64 / (kappa_points.last().unwrap().1 as f64).sqrt();
    let drift = 100.0 * (last / first - 1.0).abs();
    println!("iters/√κ ratio drift across the sweep: {drift:.0}% (CG theory says ~constant)");
}
