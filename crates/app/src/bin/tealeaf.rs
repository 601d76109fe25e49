//! The `tealeaf` command-line driver.
//!
//! Runs a heat-conduction simulation from a deck file or from built-in
//! crooked-pipe defaults, on one or many simulated ranks, and prints the
//! per-step diagnostics the reference prints.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use tea_app::{
    crooked_pipe_deck, find_repo_root, parse_deck, run_serial, run_threaded_ranks, semantic_audit,
    serve_decks_with_plan, solver_registry, write_field_csv, write_field_ppm, DeckJob, RankOutput,
};
use tea_core::{ChebyOpts, Precision, PreconKind, SolverParams};
use tea_fault::FaultPlan;
use tea_serve::ServeOptions;

const USAGE: &str = "\
tealeaf — TeaLeaf heat-conduction mini-app (Rust reproduction)

USAGE:
    tealeaf [OPTIONS]

OPTIONS:
    --deck <file>        read a tea.in-style deck (explicitly passed
                         flags below override its values)
    --cells <n>          mesh resolution n x n            [default: 128]
    --solver <s>         any registered solver name       [default: cg]
                         (see --list-solvers; 'auto' races the tunable
                         solvers and keeps the cheapest)
    --precon <p>         none | jac_diag | jac_block      [default: none]
    --precision <x>      f64 | f32 | mixed                [default: f64]
                         (mixed: f32 preconditioning, f64 recurrence)
    --depth <d>          PPCG matrix-powers halo depth, 1 up to the
                         mesh's shorter side (1 only with
                         --precon jac_block under ppcg)   [default: 1]
    --inner <m>          PPCG inner steps, 1 to 4096      [default: 16]
    --steps <n>          number of time steps             [default: 10]
    --dt <t>             time step, finite and > 0        [default: 0.04]
    --eps <e>            solver tolerance                 [default: 1e-10]
    --tune-seed <n>      seed for --solver auto's candidate
                         search order                     [default: 0]
    --ranks <r>          simulated MPI ranks (threads)    [default: 1]
    --threads <t>        kernel worker threads per rank
                         [default: TEA_NUM_THREADS or all cores]
    --out <prefix>       write <prefix>.ppm and <prefix>.csv of the final field
    --quiet              only print the final summary
    --list-solvers       print the registered solvers and exit
    --audit              run the semantic audits (solver registry,
                         deck-key drift), print the machine-readable
                         report to stdout and exit nonzero on any
                         violation
    --help               show this help

SERVING (batched multi-solve mode):
    --serve <joblist>    drain a queue of decks instead of running one:
                         the joblist names one deck file per line
                         ('#' comments and blank lines are skipped;
                         repeat a line to resubmit the same deck).
                         Sessions are pooled across jobs with equal
                         setups; prints jobs/sec, latency percentiles
                         and the session-cache hit/miss counters.
    --workers <w>        concurrent jobs in flight  [default: all cores]
    --deadline <secs>    wall-clock budget per job attempt; an expired
                         solve is cancelled at its next iteration and
                         the job reports a timeout
    --retries <n>        extra attempts for transient failures (panics,
                         divergence)                      [default: 0]
    --fault-plan <s:r>   arm deterministic fault injection: seed s,
                         fault rate r in 0.0..=1.0 (e.g. 42:0.2) —
                         faulted jobs recover via retry and the
                         precision ladder; for testing the queue's
                         fault tolerance

EXIT STATUS:
    0 on success; 1 on a usage, deck or solver error (a diverged solve
    is one), on a failed audit or --serve job, and when a time step of
    a single-deck run hits the iteration cap — the run summary then
    carries a 'warning' line naming the first such step
";

/// Solver/stepping flags are `Option` so that, with `--deck`, only the
/// flags the user actually passed override the deck (as the usage text
/// promises); without a deck the documented defaults apply.
struct Args {
    deck_path: Option<PathBuf>,
    cells: usize,
    solver: Option<String>,
    precon: Option<PreconKind>,
    precision: Option<Precision>,
    depth: Option<usize>,
    inner: Option<usize>,
    steps: Option<u64>,
    dt: Option<f64>,
    eps: Option<f64>,
    tune_seed: Option<u64>,
    ranks: usize,
    threads: Option<usize>,
    out: Option<String>,
    quiet: bool,
    serve: Option<PathBuf>,
    workers: usize,
    deadline: Option<Duration>,
    retries: u32,
    fault_plan: Option<FaultPlan>,
    audit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deck_path: None,
        cells: 128,
        solver: None,
        precon: None,
        precision: None,
        depth: None,
        inner: None,
        steps: None,
        dt: None,
        eps: None,
        tune_seed: None,
        ranks: 1,
        threads: None,
        out: None,
        quiet: false,
        serve: None,
        workers: 0,
        deadline: None,
        retries: 0,
        fault_plan: None,
        audit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            || -> Result<String, String> { it.next().ok_or(format!("{flag} needs a value")) };
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--deck" => args.deck_path = Some(PathBuf::from(value()?)),
            "--cells" => args.cells = value()?.parse().map_err(|e| format!("--cells: {e}"))?,
            "--solver" => {
                // resolve eagerly so typos fail before any work happens,
                // with the registered names in the message
                args.solver = Some(
                    solver_registry()
                        .resolve(&value()?)
                        .map_err(|e| e.to_string())?
                        .name
                        .to_string(),
                );
            }
            "--precon" => {
                args.precon = Some(match value()?.as_str() {
                    "none" => PreconKind::None,
                    "jac_diag" | "diag" => PreconKind::Diagonal,
                    "jac_block" | "block" => PreconKind::BlockJacobi,
                    other => return Err(format!("unknown preconditioner '{other}'")),
                })
            }
            "--precision" => args.precision = Some(Precision::parse(&value()?)?),
            "--depth" => args.depth = Some(value()?.parse().map_err(|e| format!("--depth: {e}"))?),
            "--inner" => args.inner = Some(value()?.parse().map_err(|e| format!("--inner: {e}"))?),
            "--steps" => args.steps = Some(value()?.parse().map_err(|e| format!("--steps: {e}"))?),
            "--dt" => args.dt = Some(value()?.parse().map_err(|e| format!("--dt: {e}"))?),
            "--eps" => args.eps = Some(value()?.parse().map_err(|e| format!("--eps: {e}"))?),
            "--tune-seed" => {
                args.tune_seed = Some(value()?.parse().map_err(|e| format!("--tune-seed: {e}"))?)
            }
            "--ranks" => args.ranks = value()?.parse().map_err(|e| format!("--ranks: {e}"))?,
            "--threads" => {
                args.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--out" => args.out = Some(value()?),
            "--quiet" => args.quiet = true,
            "--serve" => args.serve = Some(PathBuf::from(value()?)),
            "--workers" => {
                args.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--deadline" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--deadline: {e}"))?;
                args.deadline = Some(
                    Duration::try_from_secs_f64(secs).map_err(|e| format!("--deadline: {e}"))?,
                );
            }
            "--retries" => {
                args.retries = value()?.parse().map_err(|e| format!("--retries: {e}"))?
            }
            "--fault-plan" => args.fault_plan = Some(FaultPlan::parse(&value()?)?),
            "--audit" => args.audit = true,
            "--list-solvers" => {
                print_solvers();
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

/// Prints each registered solver's name, aliases, metadata and the
/// default options it would run with (`--list-solvers`).
fn print_solvers() {
    let defaults = SolverParams::default();
    println!("registered solvers:\n");
    for meta in solver_registry().iter() {
        let aliases = if meta.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", meta.aliases.join(", "))
        };
        println!("  {}{aliases}", meta.name);
        println!("      {}", meta.summary);
        let mut notes = Vec::new();
        if meta.preconditioned {
            notes.push(format!("precon={}", defaults.precon.label()));
        }
        if meta.needs_eigen_estimate {
            notes.push(format!(
                "presteps={} eigen_safety={}",
                defaults.presteps,
                ChebyOpts::default().eigen_safety
            ));
        }
        if meta.deep_halo {
            notes.push(format!(
                "halo_depth={} inner_steps={}",
                defaults.halo_depth, defaults.inner_steps
            ));
        }
        if meta.serial_only {
            notes.push("serial-only".into());
        }
        if meta.tunable {
            notes.push("tunable".into());
        }
        if meta.precision != Precision::F64 {
            notes.push(format!("precision={}", meta.precision.label()));
        }
        if !notes.is_empty() {
            println!("      defaults: {}", notes.join(", "));
        }
    }
    println!("\nselect with --solver <name>, or tl_solver=<name> in a deck");
    println!("'auto' races the solvers marked tunable and keeps the cheapest (--tune-seed)");
}

/// `--serve <joblist>`: drain a queue of deck files through the session
/// driver and print queue statistics. Exit code is FAILURE when the
/// joblist is unusable or any job failed.
fn run_serve(joblist: &std::path::Path, args: &Args) -> ExitCode {
    let text = match std::fs::read_to_string(joblist) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", joblist.display());
            return ExitCode::FAILURE;
        }
    };
    let mut jobs = Vec::new();
    let mut load_failures = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let loaded = std::fs::read_to_string(line)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_deck(&t));
        match loaded {
            Ok(deck) => jobs.push(DeckJob {
                label: line.to_string(),
                deck,
            }),
            Err(e) => load_failures.push(format!("{line}: {e}")),
        }
    }
    for failure in &load_failures {
        eprintln!("error: {failure}");
    }
    if jobs.is_empty() {
        eprintln!("error: no runnable jobs in {}", joblist.display());
        return ExitCode::FAILURE;
    }

    let opts = ServeOptions {
        workers: args.workers,
        threads_per_job: args.threads.map(tea_core::request_num_threads),
        cache: true,
        deadline: args.deadline,
        retries: args.retries,
    };
    println!(
        "tealeaf --serve: {} job(s), {} worker(s), session cache {}{}{}",
        jobs.len(),
        opts.effective_workers(),
        if opts.cache { "on" } else { "off" },
        opts.deadline
            .map(|d| format!(", deadline {:.3}s", d.as_secs_f64()))
            .unwrap_or_default(),
        args.fault_plan
            .as_ref()
            .map(|p| format!(", fault plan seed {}", p.seed()))
            .unwrap_or_default(),
    );
    let report = serve_decks_with_plan(jobs, &opts, args.fault_plan.as_ref());

    for outcome in &report.outcomes {
        let out = match &outcome.result {
            Err(e) => {
                eprintln!("job {} failed: {e}", outcome.job);
                continue;
            }
            Ok(_) if args.quiet => continue,
            Ok(out) => out,
        };
        let converged = out.output.steps.iter().filter(|s| s.converged).count();
        let degraded = if out.escalations.is_empty() {
            String::new()
        } else {
            format!(
                " [degraded: {} → {}]",
                out.escalations.join(" → "),
                out.solver
            )
        };
        println!(
            "job {:>4}: {} step(s) ({converged} converged), {:.3}s{degraded}",
            outcome.job,
            out.output.steps.len(),
            outcome.wall_s,
        );
        if let Some(tune) = &out.tune {
            for line in tune.summary_lines() {
                println!("           {line}");
            }
        }
    }

    let s = report.stats;
    println!("\nqueue summary:");
    println!("  jobs             {} ({} failed)", s.jobs, s.failed);
    println!("  wall             {:.3} s", s.wall_s);
    println!("  throughput       {:.2} jobs/sec", s.jobs_per_sec);
    println!("  latency p50      {:.4} s", s.p50_latency_s);
    println!("  latency p99      {:.4} s", s.p99_latency_s);
    println!(
        "  session cache    {} hit(s), {} miss(es), {} prepare(s)",
        s.cache.hits, s.cache.misses, s.cache.prepares
    );
    if s.failed > 0 || s.timeouts + s.retries + s.panics_recovered > 0 {
        println!(
            "  recovery         {} timeout(s), {} retry(ies), {} panic(s) recovered",
            s.timeouts, s.retries, s.panics_recovered
        );
    }

    if let Some(warning) = tea_core::thread_warning() {
        println!("  warning          {warning}");
    }

    if s.failed > 0 || !load_failures.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `tealeaf --audit`: run the semantic audits, print the
/// machine-readable report to stdout (human-readable findings go to
/// stderr) and exit nonzero on any violation.
fn run_audit() -> ExitCode {
    let root = find_repo_root();
    let report = semantic_audit(root.as_deref());
    for finding in &report.findings {
        eprintln!("{}", finding.render());
    }
    print!("{}", report.to_json(false));
    if report.passed(false) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.audit {
        return run_audit();
    }

    if let Some(joblist) = args.serve.clone() {
        return run_serve(&joblist, &args);
    }

    let mut deck = match &args.deck_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match parse_deck(&text) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => crooked_pipe_deck(args.cells, "cg"),
    };
    // explicit flags override the deck; without a deck, unset flags fall
    // back to the documented defaults
    if args.deck_path.is_none() {
        deck.control.end_step = 10;
        deck.control.summary_frequency = 1;
    }
    // --quiet applies regardless of where the deck came from: it both
    // silences the per-step table and disables the per-step summary
    // reductions that feed it
    if args.quiet {
        deck.control.summary_frequency = 0;
    }
    if let Some(solver) = &args.solver {
        deck.control.solver = solver.clone();
    }
    if let Some(precon) = args.precon {
        deck.control.precon = precon;
    }
    if args.precision.is_some() {
        deck.control.precision = args.precision;
    }
    if let Some(depth) = args.depth {
        deck.control.ppcg_halo_depth = depth;
    }
    if let Some(inner) = args.inner {
        deck.control.ppcg_inner_steps = inner;
    }
    if let Some(steps) = args.steps {
        deck.control.end_step = steps;
    }
    if let Some(dt) = args.dt {
        deck.control.dt = dt;
    }
    if let Some(eps) = args.eps {
        deck.control.opts.eps = eps;
    }
    if let Some(seed) = args.tune_seed {
        deck.control.tune_seed = seed;
    }
    // CLI --threads overrides the deck's tl_num_threads, which overrides
    // the ambient TEA_NUM_THREADS / core count
    if args.threads.is_some() {
        deck.control.threads = args.threads;
    }
    if let Some(t) = deck.control.threads {
        tea_core::request_num_threads(t);
    }

    // resolve solver × precision before any work so conflicts (e.g.
    // --solver amg --precision mixed) fail with a message, not a panic
    let effective_solver = match deck.control.effective_solver() {
        Ok(name) => name,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let precision_label = if effective_solver == "auto" {
        "auto"
    } else {
        solver_registry()
            .resolve(&effective_solver)
            .map(|m| m.precision.label())
            .unwrap_or("f64")
    };
    println!(
        "tealeaf: {}x{} cells, solver {}, precision {}, {} steps, {} rank(s), {} worker thread(s)",
        deck.problem.x_cells,
        deck.problem.y_cells,
        effective_solver,
        precision_label,
        deck.control.steps(),
        args.ranks,
        tea_core::num_threads(),
    );

    let started = std::time::Instant::now();
    // per-rank comm counters, summed machine-wide for the summary
    let (output, halo): (RankOutput, tea_comms::StatsSnapshot) = if args.ranks <= 1 {
        match run_serial(&deck) {
            Ok(out) => {
                let halo = out.comm;
                (out, halo)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match run_threaded_ranks(&deck, args.ranks) {
            Ok(outs) => {
                let mut halo = tea_comms::StatsSnapshot::default();
                for o in &outs {
                    halo.merge(&o.comm);
                }
                match outs.into_iter().next() {
                    Some(first) => (first, halo),
                    None => {
                        eprintln!("error: no rank produced output");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let elapsed = started.elapsed().as_secs_f64();

    if !args.quiet {
        println!(
            "{:>6} {:>10} {:>8} {:>14} {:>14}",
            "step", "time", "iters", "avg temp", "wall(s)"
        );
        for s in &output.steps {
            let temp = s
                .summary
                .map(|x| format!("{:14.8}", x.average_temperature()))
                .unwrap_or_else(|| " ".repeat(14));
            println!(
                "{:>6} {:>10.4} {:>8} {} {:>14.6}",
                s.step, s.time, s.iterations, temp, s.wall
            );
        }
    }

    let s = output.final_summary;
    println!("\nfield summary:");
    println!("  volume           {:.6e}", s.volume);
    println!("  mass             {:.6e}", s.mass);
    println!("  internal energy  {:.6e}", s.internal_energy);
    println!("  temperature      {:.6e}", s.temperature);
    println!("  avg temperature  {:.8}", s.average_temperature());
    println!("\nsolver protocol:");
    println!("  outer iterations {}", output.trace.outer_iterations);
    println!("  inner iterations {}", output.trace.inner_iterations);
    println!("  stencil sweeps   {}", output.trace.spmv.total());
    println!("  halo exchanges   {}", output.trace.total_halo_exchanges());
    if halo.msgs_sent > 0 {
        // real per-width accounting: f32 halos cost 4 bytes per element
        println!(
            "  halo bytes       {} ({} f64 + {} f32 elems, all ranks)",
            halo.bytes_sent(),
            halo.elems_sent_f64,
            halo.elems_sent_f32,
        );
    }
    println!("  reductions       {}", output.trace.reductions);
    println!(
        "  threading        {} worker(s), parallel above {} cells",
        tea_core::num_threads(),
        tea_core::par_threshold()
    );
    if let Some(warning) = tea_core::thread_warning() {
        println!("  warning          {warning}");
    }
    let unconverged: Vec<u64> = output
        .steps
        .iter()
        .filter(|s| !s.converged)
        .map(|s| s.step)
        .collect();
    if let Some(first) = unconverged.first() {
        println!(
            "  warning          {} of {} steps did not converge (first: step {first})",
            unconverged.len(),
            output.steps.len()
        );
    }
    println!("  wall time        {elapsed:.3}s");

    if let Some(tune) = &output.tune {
        println!("\nauto-tuning:");
        for line in tune.summary_lines() {
            println!("  {line}");
        }
    }

    if let (Some(prefix), Some(u)) = (&args.out, &output.final_u) {
        let ppm = PathBuf::from(format!("{prefix}.ppm"));
        let csv = PathBuf::from(format!("{prefix}.csv"));
        if let Err(e) = write_field_ppm(u, &ppm).and_then(|_| write_field_csv(u, &csv)) {
            eprintln!("error writing output: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} and {}", ppm.display(), csv.display());
    }
    if unconverged.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
