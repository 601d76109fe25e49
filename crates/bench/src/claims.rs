//! The paper's evaluation claims, each checked once: one function per
//! claim-checking `figures` subcommand (Figs. 3–8, §IV.C.1, §VI). Each
//! measures, extrapolates and replays, prints the subcommand's table
//! (extrapolation notes to stderr), returns the data `figures` writes as
//! artefacts, or a [`Violation`] naming the claim and its numbers.
//! `tests/paper_claims.rs` runs the same functions at debug-sized meshes.

use std::fmt;

use tea_app::{run_serial, Deck, RankOutput};
use tea_core::{crooked_pipe_system, BlockJacobi, PreconKind, Preconditioner, SolveTrace};
use tea_mesh::Field2D;
use tea_perfmodel::{
    node_counts, piz_daint, spruce_hybrid, spruce_mpi, titan, KernelBytes, Machine, ScalingSeries,
};

use crate::{
    extrapolate_amg_to, extrapolate_to, fit_power_law, lanczos_kappa, measure, measure_kappa,
    SolverConfig,
};

/// The sizes a claim is measured at and extrapolated to.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measurement mesh, cells per side.
    pub cells: usize,
    /// Time steps per measurement run.
    pub steps: u64,
    /// Mesh the measured protocols are extrapolated to (the paper's:
    /// 4000).
    pub target: usize,
}

/// A paper claim that a measurement contradicts: the claim as the paper
/// makes it, then the measured numbers.
#[derive(Debug)]
pub struct Violation(String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "claim violated: {}", self.0)
    }
}

/// `Ok` where `holds`, else the violation of `claim` with its numbers.
fn check(
    holds: bool,
    claim: &'static str,
    measured: impl FnOnce() -> String,
) -> Result<(), Violation> {
    match holds {
        true => Ok(()),
        false => Err(Violation(format!("{claim} (measured: {})", measured()))),
    }
}

/// Runs `deck` for `claim`: a run that fails is a violation naming the
/// deck.
fn run(claim: &'static str, deck: &Deck) -> Result<RankOutput, Violation> {
    run_serial(deck).map_err(|e| {
        let (n, solver) = (deck.problem.x_cells, &deck.control.solver);
        Violation(format!(
            "{claim}: the {n}² {solver} deck runs (measured: {e})"
        ))
    })
}

/// Replays an extrapolated protocol on a modelled machine over its node
/// counts, at the target mesh.
fn sweep(label: &str, machine: &Machine, trace: &SolveTrace, scale: &Scale) -> ScalingSeries {
    let global = (scale.target, scale.target);
    ScalingSeries::sweep_width(label, machine, trace, global, KernelBytes::default())
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

/// Fig. 3 — the crooked pipe after `scale.steps` steps of CPPCG: heat
/// escapes the source and runs along the pipe, leaving the far wall
/// colder than the pipe's outlet leg. Returns the temperature field.
pub fn fig3(scale: &Scale) -> Result<Field2D, Violation> {
    let mut deck = SolverConfig::ppcg(4).deck(scale.cells, scale.steps);
    deck.control.summary_frequency = scale.steps / 4;

    let (n, steps, dt) = (scale.cells, scale.steps, deck.control.dt);
    let t_end = steps as f64 * dt;
    println!(
        "Fig. 3: crooked pipe, {n}x{n} cells, {steps} steps of dt = {dt} (t_end = {t_end:.2} µs)"
    );

    let out = run("Fig. 3", &deck)?;
    for s in &out.steps {
        if let Some(sum) = s.summary {
            let (step, t, iters, avg) = (s.step, s.time, s.iterations, sum.average_temperature());
            println!("  step {step:>4}  t = {t:>7.2}  iters = {iters:>4}  avg T = {avg:.8}");
        }
    }
    let u = out.final_u.expect("serial run returns the field");

    let n = n as isize;
    let probes = [
        ("inlet (source)", n / 20, n * 3 / 20),
        ("mid-pipe rising leg", n * 3 / 10, n * 4 / 10),
        ("upper leg", n / 2, n * 11 / 20),
        ("outlet leg", n * 4 / 5, n / 4),
        ("far wall", n - 2, n - 2),
    ];
    println!("\nprobe temperatures (u = ρe):");
    for (name, j, k) in probes {
        println!("  {name:<22} u({j:>4},{k:>4}) = {:.6e}", u.at(j, k));
    }
    let ((_, jo, ko), (_, jw, kw)) = (probes[3], probes[4]);
    let (outlet, wall) = (u.at(jo, ko), u.at(jw, kw));
    check(
        wall < outlet,
        "Fig. 3: the far wall stays colder than the pipe outlet",
        || format!("wall u = {wall:.6e}, outlet u = {outlet:.6e}"),
    )?;
    Ok(u)
}

/// Fig. 4's meshes; it runs those up to twice `scale.cells`.
const FIG4_MESHES: [usize; 9] = [24, 32, 48, 64, 96, 128, 192, 256, 384];

/// The smallest `scale.cells` [`fig4`] can check: two meshes, so one
/// refinement delta to compare with another.
pub const FIG4_MIN_CELLS: usize = FIG4_MESHES[1] / 2;

/// Fig. 4 — the average temperature at a fixed end time converges under
/// mesh refinement: successive differences shrink, the last below the
/// first (the study motivating the fixed 4000² strong-scaling mesh; the
/// paper sweeps up to 5000²). Meshes run from 24² to twice
/// `scale.cells`, which must be at least [`FIG4_MIN_CELLS`]. Returns
/// `(cells, average temperature)` per mesh.
pub fn fig4(scale: &Scale) -> Result<Vec<(usize, f64)>, Violation> {
    let sizes = FIG4_MESHES.into_iter().filter(|&n| n <= scale.cells * 2);

    println!(
        "Fig. 4: average mesh temperature at t = {:.2} vs mesh size",
        scale.steps as f64 * 0.04
    );
    println!(
        "{:>10} {:>10} {:>18} {:>14}",
        "mesh", "iters/step", "avg temperature", "Δ from prev"
    );

    let mut temps = Vec::new();
    let mut prev: Option<f64> = None;
    for n in sizes {
        let out = run("Fig. 4", &SolverConfig::ppcg(4).deck(n, scale.steps))?;
        let t = out.final_summary.average_temperature();
        let iters = out.steps.iter().map(|s| s.iterations).sum::<u64>() / scale.steps.max(1);
        let delta = prev.map(|p| (t - p).abs()).unwrap_or(f64::NAN);
        println!("{:>7}^2  {:>10} {:>18.10} {:>14.3e}", n, iters, t, delta);
        temps.push((n, t));
        prev = Some(t);
    }

    let delta = |i: usize| (temps[i + 1].1 - temps[i].1).abs();
    let (early, late) = (delta(0), delta(temps.len() - 2));
    println!(
        "\nrefinement deltas: first {early:.3e} -> last {late:.3e} ({}x reduction)",
        (early / late.max(1e-300)) as u64
    );
    check(
        late < early,
        "Fig. 4: the average temperature converges under mesh refinement",
        || format!("first delta {early:.3e}, last delta {late:.3e}"),
    )?;
    Ok(temps)
}

/// The sweep Figs. 5 and 6 share: `CG - 1` and `PPCG - 1/4/8/16`
/// measured at `scale.cells`, extrapolated to `scale.target` (one κ
/// measurement serves all five) and replayed on one GPU machine.
/// Returns the series and the `PPCG - 16` protocol.
fn gpu_sweep(scale: &Scale, figure: u32, machine: &Machine) -> (Vec<ScalingSeries>, SolveTrace) {
    println!(
        "Fig. {figure}: strong scaling on {} — {}^2 mesh (measured at {}^2, extrapolated)\n",
        machine.name, scale.target, scale.cells
    );
    let mut configs = vec![SolverConfig::cg()];
    configs.extend([1, 4, 8, 16].map(SolverConfig::ppcg));
    let kappa = measure_kappa(scale.cells);
    let mut series = Vec::new();
    let mut deepest = None;
    for config in &configs {
        let ext = extrapolate_to(config, scale.cells, scale.steps, scale.target, kappa);
        eprintln!(
            "  {}: κ {:.0} -> {:.0}, iterations x{:.1} = {} outer",
            config.label,
            ext.kappa_measured,
            ext.kappa_target,
            ext.factor,
            ext.trace.outer_iterations
        );
        series.push(sweep(&config.label, machine, &ext.trace, scale));
        deepest = Some(ext.trace);
    }
    print_series_table(&series);
    (series, deepest.expect("five configurations"))
}

/// Fig. 5 — CUDA strong scaling on Titan (K20x + Gemini): `PPCG - 16`
/// beats `CG - 1` at the full 8,192 nodes. Returns the five series.
pub fn fig5(scale: &Scale) -> Result<Vec<ScalingSeries>, Violation> {
    let machine = titan();
    let (series, _) = gpu_sweep(scale, 5, &machine);

    println!("\nshape checks against the paper:");
    for s in &series {
        println!("  {} fastest at {} nodes", s.label, s.best_nodes());
    }
    let at = machine.max_nodes;
    let cg = series[0].time_at(at).expect("Titan's node count");
    let pp16 = series[4].time_at(at).expect("Titan's node count");
    println!(
        "  at {at} nodes: CG - 1 = {cg:.3}s, PPCG - 16 = {pp16:.3}s ({:.1}x; paper's best \
         CUDA config at 8,192 nodes was PPCG-16 at 4.26 s)",
        cg / pp16
    );
    check(
        pp16 < cg,
        "Fig. 5: PPCG - 16 beats CG - 1 on Titan at full scale",
        || format!("at {at} nodes CG - 1 = {cg:.3} s, PPCG - 16 = {pp16:.3} s"),
    )?;
    // the knee: the fixed 4000^2 problem stops scaling around 1k nodes
    let knee = series[4].best_nodes();
    println!("  PPCG - 16 knee at {knee} nodes (paper: plateau from ~1,024)");
    Ok(series)
}

/// Fig. 6 — CUDA strong scaling on Piz Daint, 1–2,048 nodes, and §VI's
/// cross-machine claim: the same GPUs on Aries beat Titan's Gemini at
/// 2,048 nodes (paper: 47 %, 4.09 s vs 2.79 s). Returns the five series.
pub fn fig6(scale: &Scale) -> Result<Vec<ScalingSeries>, Violation> {
    let (series, pp16) = gpu_sweep(scale, 6, &piz_daint());

    for s in &series {
        println!("  {} fastest at {} nodes", s.label, s.best_nodes());
    }

    let titan_2048 = sweep("PPCG - 16", &titan(), &pp16, scale).time_at(2048);
    let t_titan = titan_2048.expect("Titan reaches 2,048 nodes");
    let t_daint = series[4].time_at(2048).expect("Piz Daint's node count");
    println!(
        "\nclaim §VI: at 2,048 nodes Titan = {t_titan:.3}s vs Piz Daint = {t_daint:.3}s \
         -> Titan {:.0}% slower (paper: 47%, 4.09 s vs 2.79 s)",
        100.0 * (t_titan / t_daint - 1.0)
    );
    check(
        t_daint < t_titan,
        "§VI: Piz Daint beats Titan at 2,048 nodes",
        || format!("PPCG - 16 on Titan = {t_titan:.3} s, on Piz Daint = {t_daint:.3} s"),
    )?;
    Ok(series)
}

/// Fig. 7 — MPI and hybrid strong scaling on Spruce (CPU), 1–1,024
/// nodes: `CG - 1`, `PPCG - 1` and the BoomerAMG-class baseline in each
/// run mode. In each mode the baseline wins at one node, CPPCG wins at
/// 512 nodes (paper: 2×), and the baseline peaks at fewer nodes (paper:
/// 32 against 512). Returns the six series, hybrid mode first.
pub fn fig7(scale: &Scale) -> Result<Vec<ScalingSeries>, Violation> {
    println!(
        "Fig. 7: strong scaling on Spruce — {}^2 mesh (measured at {}^2, extrapolated)\n",
        scale.target, scale.cells
    );

    // measure the three solver protocols once, and κ once for both
    // Krylov configurations
    let kappa = measure_kappa(scale.cells);
    let krylov = |config| extrapolate_to(&config, scale.cells, scale.steps, scale.target, kappa);
    let (cg, pp) = (krylov(SolverConfig::cg()), krylov(SolverConfig::ppcg(1)));
    let (amg_trace, p_amg) = extrapolate_amg_to(scale.cells, scale.steps, scale.target);
    eprintln!(
        "  iteration scale factors: CG x{:.1}, PPCG x{:.1}; BoomerAMG growth exponent {p_amg:.2} \
         (multigrid should be near mesh-independent)",
        cg.factor, pp.factor
    );

    let mut series = Vec::new();
    for (mode, machine) in [("Hybrid", spruce_hybrid()), ("MPI", spruce_mpi())] {
        series.push(ScalingSeries::sweep_amg(
            format!("BoomerAMG ({mode})"),
            &machine,
            &amg_trace,
            (scale.target, scale.target),
            KernelBytes::default(),
        ));
        for (name, ext) in [("CG - 1", &cg), ("PPCG - 1", &pp)] {
            series.push(sweep(
                &format!("{name} ({mode})"),
                &machine,
                &ext.trace,
                scale,
            ));
        }
    }

    print_series_table(&series);

    println!("\nshape checks against the paper:");
    for s in &series {
        println!("  {:<22} fastest at {:>5} nodes", s.label, s.best_nodes());
    }

    // paper: crossover ~128 nodes flat-MPI, 1-8 hybrid
    for (mode, of_mode) in ["Hybrid", "MPI"].into_iter().zip(series.chunks(3)) {
        let (amg_s, ppcg_s) = (&of_mode[0], &of_mode[2]);
        let at = |s: &ScalingSeries, nodes| s.time_at(nodes).expect("Spruce's node counts");
        let (t_amg_1, t_ppcg_1) = (at(amg_s, 1), at(ppcg_s, 1));
        let (t_amg_512, t_ppcg_512) = (at(amg_s, 512), at(ppcg_s, 512));
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
        check(
            t_amg_1 < t_ppcg_1,
            "Fig. 7: BoomerAMG wins at one node",
            || format!("[{mode}] BoomerAMG {t_amg_1:.3} s, PPCG - 1 {t_ppcg_1:.3} s"),
        )?;
        check(
            t_ppcg_512 < t_amg_512,
            "Fig. 7: CPPCG wins at 512 nodes (paper: 2x)",
            || format!("[{mode}] BoomerAMG {t_amg_512:.3} s, PPCG - 1 {t_ppcg_512:.3} s"),
        )?;
        let (amg_best, ppcg_best) = (amg_s.best_nodes(), ppcg_s.best_nodes());
        check(
            amg_best < ppcg_best,
            "Fig. 7: BoomerAMG peaks at fewer nodes than CPPCG (paper: 32 vs 512)",
            || format!("[{mode}] BoomerAMG fastest at {amg_best}, PPCG - 1 at {ppcg_best} nodes"),
        )?;
    }
    Ok(series)
}

/// One system's strong-scaling efficiency curve: its legend label and
/// `(nodes, E)` points.
// audit:allow(dead_pub) — what `fig8` returns; figures.rs reads it by inference
pub type Efficiency = (&'static str, Vec<(usize, f64)>);

/// Fig. 8 — strong-scaling efficiency `E(P) = T(1) / (P · T(P))` of the
/// best configuration per system: Spruce holds super-linear efficiency
/// (cache effects; paper: to ~512 nodes), and Piz Daint's efficiency is
/// at least Titan's from 64 nodes on (§VI). Returns Spruce's, Piz
/// Daint's and Titan's curves.
pub fn fig8(scale: &Scale) -> Result<[Efficiency; 3], Violation> {
    println!(
        "Fig. 8: scaling efficiency across systems — {}^2 mesh\n",
        scale.target
    );

    let kappa = measure_kappa(scale.cells);
    let ppcg = |depth| {
        let config = SolverConfig::ppcg(depth);
        extrapolate_to(&config, scale.cells, scale.steps, scale.target, kappa).trace
    };
    let (pp1, pp16) = (ppcg(1), ppcg(16));
    let effs = [
        ("Spruce - PPCG - 1 (MPI)", spruce_mpi(), &pp1),
        ("Piz Daint - PPCG - 16 (CUDA)", piz_daint(), &pp16),
        ("Titan - PPCG - 16 (CUDA)", titan(), &pp16),
    ]
    .map(|(label, machine, trace)| (label, sweep(label, &machine, trace, scale).efficiency()));

    println!(
        "{:>8} {:>26} {:>30} {:>26}",
        "nodes", effs[0].0, effs[1].0, effs[2].0
    );
    // every series is a prefix of Titan's 1-8,192 node counts
    for (i, n) in node_counts(8192).iter().enumerate() {
        print!("{n:>8}");
        for (_, e) in &effs {
            match e.get(i) {
                Some(&(_, v)) => print!(" {v:>26.3}"),
                None => print!(" {:>26}", "-"),
            }
        }
        println!();
    }

    let [(_, spruce_eff), (_, daint_eff), (_, titan_eff)] = &effs;
    let spruce_super = spruce_eff.iter().any(|&(_, e)| e > 1.0);
    println!(
        "\n  Spruce shows a super-linear cache window: {spruce_super} (paper: yes, to 512 nodes)"
    );
    check(
        spruce_super,
        "Fig. 8: Spruce shows super-linear efficiency (paper: to 512 nodes)",
        || format!("Spruce's efficiencies {spruce_eff:.3?}"),
    )?;
    for (&(n, ed), &(_, et)) in daint_eff.iter().zip(titan_eff) {
        check(
            n < 64 || ed >= et,
            "§VI: Piz Daint's efficiency is at least Titan's from 64 nodes",
            || format!("at {n} nodes Piz Daint {ed:.3} vs Titan {et:.3}"),
        )?;
    }
    println!("  Piz Daint efficiency dominates Titan at scale: true");
    Ok(effs)
}

/// §IV.C.1 — "This block Jacobi preconditioner typically reduces the
/// condition number of the matrix by around 40%": κ(A) and κ(M⁻¹A) on
/// the crooked pipe by CG-Lanczos estimation, for the paper's 4×1
/// strips (whose cut must lie in 25–70 %) and an ablation over strip
/// lengths. Returns the 4×1 cut, in percent.
pub fn claim_condition(n: usize) -> Result<f64, Violation> {
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
    check(
        (25.0..70.0).contains(&cut4),
        "§IV.C.1: 4x1 block Jacobi cuts the condition number by about 40% (25-70%)",
        || format!("cut {cut4:.1}%"),
    )?;
    Ok(cut4)
}

/// [`claim_weak_scaling`]'s meshes; it runs those up to `scale.cells`.
const WEAK_SCALING_MESHES: [usize; 6] = [32, 48, 64, 96, 128, 192];

/// The smallest `scale.cells` [`claim_weak_scaling`] can check: two
/// meshes, so a growth exponent to fit.
pub const WEAK_SCALING_MIN_CELLS: usize = WEAK_SCALING_MESHES[1];

/// §VI's weak-scaling argument — "increasing the mesh size also
/// increases the condition number, the number of iterations required to
/// converge, and hence the time to solution" — measured on real solves
/// from 32² up to `scale.cells` (at least [`WEAK_SCALING_MIN_CELLS`]): κ(A)
/// grows super-linearly with the cells per side `n` and CG's iterations
/// grow with it, the justification for the strong-scaling-only
/// evaluation. Returns the fitted κ and iteration growth exponents.
pub fn claim_weak_scaling(scale: &Scale) -> Result<(f64, f64), Violation> {
    let sizes = WEAK_SCALING_MESHES
        .into_iter()
        .filter(|&n| n <= scale.cells);

    println!("§VI: why TeaLeaf strong-scales — the κ/iteration growth chain\n");
    println!(
        "{:>8} {:>12} {:>12} {:>16} {:>16}",
        "mesh", "κ(A)", "CG iters", "CG sweeps", "iters/√κ"
    );

    let mut kappa_points = Vec::new();
    let mut iter_points = Vec::new();
    for n in sizes {
        let kappa = measure_kappa(n);
        let m = measure(&SolverConfig::cg(), n, scale.steps);
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

    check(
        p_kappa > 1.4,
        "§VI: κ(A) grows super-linearly with the mesh",
        || format!("exponent {p_kappa:.2}, needs > 1.4"),
    )?;
    check(
        p_iter > 0.5,
        "§VI: CG iterations grow with the mesh",
        || format!("exponent {p_iter:.2}, needs > 0.5"),
    )?;
    // the ratio iters/√κ should be roughly flat (CG theory)
    let per_root = |i: usize| iter_points[i].1 as f64 / (kappa_points[i].1 as f64).sqrt();
    let drift = 100.0 * (per_root(iter_points.len() - 1) / per_root(0) - 1.0).abs();
    println!("iters/√κ ratio drift across the sweep: {drift:.0}% (CG theory says ~constant)");
    Ok((p_kappa, p_iter))
}
