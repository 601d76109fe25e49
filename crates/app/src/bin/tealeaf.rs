//! The `tealeaf` command-line driver.
//!
//! Runs a heat-conduction simulation from a deck file or from built-in
//! crooked-pipe defaults, on one or many simulated ranks, and prints the
//! per-step diagnostics the reference prints.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use tea_app::{
    crooked_pipe_deck, parse_deck, run_threaded_ranks, serve_decks_with_plan, solver_registry,
    write_field_csv, write_field_ppm, Deck, DeckJob, Mode, FLAG_KEYS, FLAG_MODES, SINGLE_RUN,
};
use tea_core::{Precision, SolverParams, EIGEN_SAFETY};
use tea_fault::FaultPlan;
use tea_serve::ServeOptions;

const USAGE: &str = "\
tealeaf — TeaLeaf heat-conduction mini-app (Rust reproduction)

USAGE:
    tealeaf [OPTIONS]

OPTIONS:
    --deck <file>        read a tea.in-style deck (explicitly passed
                         flags below override its values; a flag with a
                         deck key sets that key, taking the values a
                         deck line takes, in any letter case)
    --cells <n>          built-in mesh n x n (no --deck)  [default: 128]
    --solver <s>         any registered solver name       [default: cg]
                         (see --list-solvers; 'auto' races the tunable
                         solvers and keeps the cheapest)
                         deck key: tl_solver
    --precon <p>         none | jac_diag | jac_block      [default: none]
                         deck key: tl_preconditioner_type
    --precision <x>      f64 | f32 | mixed                [default: f64]
                         (mixed: f32 preconditioning, f64 recurrence)
                         deck key: tl_precision
    --depth <d>          PPCG matrix-powers halo depth, 1 up to the
                         mesh's shorter side (1 only with
                         --precon jac_block under ppcg)   [default: 1]
                         deck key: tl_ppcg_halo_depth
    --inner <m>          PPCG inner steps, 1 to 4096      [default: 16]
                         deck key: tl_ppcg_inner_steps
    --steps <n>          number of time steps             [default: 10]
                         deck key: end_step
    --dt <t>             time step, finite and > 0        [default: 0.04]
                         deck key: initial_timestep
    --eps <e>            solver tolerance                 [default: 1e-10]
                         deck key: tl_eps
    --tune-seed <n>      seed for --solver auto's candidate
                         search order                     [default: 0]
                         deck key: tl_tune_seed
    --ranks <r>          simulated MPI ranks, one thread each: the
                         run's whole parallelism          [default: 1]
    --out <prefix>       write <prefix>.ppm and <prefix>.csv of the final field
    --quiet              only print the final summary
    --list-solvers       print the registered solvers and exit
    --help               show this help
    (a flag the chosen mode does not read is refused)

SERVING (batched multi-solve mode):
    --serve <joblist>    drain a queue of decks instead of running one:
                         the joblist names one deck file per line
                         ('#' comments and blank lines are skipped;
                         repeat a line to resubmit the same deck).
                         Prepared solvers are pooled across jobs with
                         equal setups; prints jobs/sec, latency
                         percentiles and the session-cache hit/miss
                         counters. Each job runs its deck as written: a
                         flag with a deck key is refused.
    --workers <w>        jobs in flight, one thread each  [default: all cores]
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
    is one), on a failed --serve job, and when a time step of
    a single-deck run hits the iteration cap — the run summary then
    carries a 'warning' line naming the first such step
";

/// The deck-key flags ([`FLAG_KEYS`]) are recorded, not parsed, so that
/// with `--deck` only the flags the user actually passed override the
/// deck (as the usage text promises); without a deck the documented
/// defaults apply.
#[derive(Default)]
struct Args {
    /// Every flag given, with what it sets and the modes that read it
    /// ([`FLAG_MODES`]), in command-line order.
    given: Vec<(&'static str, String, &'static [Mode])>,
    deck_path: Option<PathBuf>,
    cells: usize,
    /// Each deck-key flag's key and its case-folded value, in
    /// command-line order.
    deck_keys: Vec<(&'static str, String)>,
    ranks: usize,
    out: Option<String>,
    quiet: bool,
    serve: Option<PathBuf>,
    workers: usize,
    deadline: Option<Duration>,
    retries: u32,
    fault_plan: Option<FaultPlan>,
}

impl Args {
    /// What the command line runs: `--serve` over `--deck` over the
    /// built-in deck.
    fn mode(&self) -> Mode {
        match (&self.serve, &self.deck_path) {
            (Some(_), _) => Mode::Serve,
            (_, Some(_)) => Mode::Deck,
            _ => Mode::Pipe,
        }
    }

    /// One message per given flag the chosen mode does not read.
    fn refusals(&self) -> Vec<String> {
        let mode = self.mode();
        self.given
            .iter()
            .filter(|(_, _, modes)| !modes.contains(&mode))
            .map(|(flag, sets, _)| format!("{flag} {sets}; {}", mode.refusal()))
            .collect()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cells: 128,
        ranks: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            || -> Result<String, String> { it.next().ok_or(format!("{flag} needs a value")) };
        if let Some(&(f, key)) = FLAG_KEYS.iter().find(|(f, _)| *f == flag) {
            let sets = format!("sets deck key {key}");
            args.given.push((f, sets, SINGLE_RUN));
            // folded as a deck line is; `main` applies it to the deck
            args.deck_keys.push((key, value()?.to_ascii_lowercase()));
            continue;
        }
        if let Some(&(f, sets, modes)) = FLAG_MODES.iter().find(|(f, ..)| *f == flag) {
            args.given.push((f, sets.to_string(), modes));
        }
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--deck" => args.deck_path = Some(PathBuf::from(value()?)),
            "--cells" => args.cells = value()?.parse().map_err(|e| format!("--cells: {e}"))?,
            "--ranks" => {
                args.ranks = value()?.parse().map_err(|e| format!("--ranks: {e}"))?;
                if args.ranks == 0 {
                    return Err("--ranks must be at least 1".into());
                }
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
            "--list-solvers" => {
                let listed = print_solvers(&mut Stdout::locked());
                std::process::exit(if listed.is_ok() { 0 } else { 1 });
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

/// Standard output, locked once, that ends quietly when its reader goes
/// away, so a closed pipe (`tealeaf ... | head -1`) ends the report,
/// not the run, and the run still exits with the status it earned.
struct Stdout(Option<io::StdoutLock<'static>>);

impl Stdout {
    fn locked() -> Self {
        Stdout(Some(io::stdout().lock()))
    }

    /// `result`, except that a `BrokenPipe` ends the output: it, and
    /// every later call, succeeds as `done` without writing.
    fn ended<T>(&mut self, result: io::Result<T>, done: T) -> io::Result<T> {
        match result {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.0 = None;
                Ok(done)
            }
            other => other,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self
            .0
            .as_mut()
            .map_or(Ok(buf.len()), |lock| lock.write(buf));
        self.ended(written, buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let flushed = self.0.as_mut().map_or(Ok(()), |lock| lock.flush());
        self.ended(flushed, ())
    }
}

/// Prints each registered solver's name, aliases, metadata and the
/// default options it would run with (`--list-solvers`).
fn print_solvers(out: &mut impl Write) -> io::Result<()> {
    let defaults = SolverParams::default();
    writeln!(out, "registered solvers:\n")?;
    for meta in solver_registry().iter() {
        let aliases = if meta.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", meta.aliases.join(", "))
        };
        writeln!(out, "  {}{aliases}", meta.name)?;
        writeln!(out, "      {}", meta.summary)?;
        let mut notes = Vec::new();
        if meta.preconditioned {
            notes.push(format!("precon={}", defaults.precon.label()));
        }
        if meta.needs_eigen_estimate {
            notes.push(format!(
                "presteps={} eigen_safety={EIGEN_SAFETY}",
                defaults.presteps
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
            writeln!(out, "      defaults: {}", notes.join(", "))?;
        }
    }
    let closing = "\nselect with --solver <name>, or tl_solver=<name> in a deck\n\
                   'auto' races the solvers marked tunable and keeps the cheapest (--tune-seed)";
    writeln!(out, "{closing}")
}

/// Reads and parses the deck file at `path`; an error names the path.
fn load_deck(path: &Path) -> Result<Deck, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_deck(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `--serve <joblist>`: drain a queue of decks through the session
/// driver and print queue statistics. Exit code is FAILURE when the
/// joblist is unusable or any job failed.
fn run_serve(joblist: &Path, args: &Args, out: &mut impl Write) -> io::Result<ExitCode> {
    let text = match std::fs::read_to_string(joblist) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", joblist.display());
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut jobs = Vec::new();
    let mut load_failures = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match load_deck(Path::new(line)) {
            Ok(deck) => jobs.push(DeckJob {
                label: line.to_string(),
                deck,
            }),
            Err(e) => load_failures.push(e),
        }
    }
    for failure in &load_failures {
        eprintln!("error: {failure}");
    }
    if jobs.is_empty() {
        eprintln!("error: no runnable jobs in {}", joblist.display());
        return Ok(ExitCode::FAILURE);
    }

    let opts = ServeOptions {
        workers: args.workers,
        deadline: args.deadline,
        retries: args.retries,
        ..ServeOptions::default()
    };
    writeln!(
        out,
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
    )?;
    let report = serve_decks_with_plan(jobs, &opts, args.fault_plan.as_ref());

    for outcome in &report.outcomes {
        let done = match &outcome.result {
            Err(e) => {
                eprintln!("job {} failed: {e}", outcome.job);
                continue;
            }
            Ok(_) if args.quiet => continue,
            Ok(done) => done,
        };
        let converged = done.output.steps.iter().filter(|s| s.converged).count();
        let degraded = if done.escalations.is_empty() {
            String::new()
        } else {
            format!(
                " [degraded: {} → {}]",
                done.escalations.join(" → "),
                done.solver
            )
        };
        writeln!(
            out,
            "job {:>4}: {} step(s) ({converged} converged), {:.3}s{degraded}",
            outcome.job,
            done.output.steps.len(),
            outcome.wall_s,
        )?;
        if let Some(tune) = &done.tune {
            for line in tune.summary_lines() {
                writeln!(out, "           {line}")?;
            }
        }
    }

    let s = report.stats;
    writeln!(out, "\nqueue summary:")?;
    writeln!(out, "  jobs             {} ({} failed)", s.jobs, s.failed)?;
    writeln!(out, "  wall             {:.3} s", s.wall_s)?;
    writeln!(out, "  throughput       {:.2} jobs/sec", s.jobs_per_sec)?;
    writeln!(out, "  latency p50      {:.4} s", s.p50_latency_s)?;
    writeln!(out, "  latency p99      {:.4} s", s.p99_latency_s)?;
    writeln!(
        out,
        "  session cache    {} hit(s), {} miss(es), {} prepare(s)",
        s.cache.hits, s.cache.misses, s.cache.prepares
    )?;
    if s.failed > 0 || s.timeouts + s.retries + s.panics_recovered > 0 {
        writeln!(
            out,
            "  recovery         {} timeout(s), {} retry(ies), {} panic(s) recovered",
            s.timeouts, s.retries, s.panics_recovered
        )?;
    }

    Ok(if s.failed > 0 || !load_failures.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One run of a deck: `--deck`'s, or the built-in crooked pipe.
fn run_single(args: &Args, out: &mut impl Write) -> io::Result<ExitCode> {
    let mut deck = match args.deck_path.as_deref().map(load_deck) {
        Some(Ok(deck)) => deck,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
        None => crooked_pipe_deck(args.cells, "cg"),
    };
    // explicit flags override the deck; without a deck, unset flags fall
    // back to the documented defaults
    if args.deck_path.is_none() {
        deck.control.end_step = 10;
        deck.control.summary_frequency = 1;
    }
    for (key, value) in &args.deck_keys {
        if let Err(e) = deck.control.set(key, value) {
            eprintln!("error: {e}\n\n{USAGE}");
            return Ok(ExitCode::FAILURE);
        }
    }
    // --quiet applies regardless of where the deck came from: it both
    // silences the per-step table and disables the per-step summary
    // reductions that feed it
    if args.quiet {
        deck.control.summary_frequency = 0;
    }

    // resolve solver × precision before any work so conflicts (e.g.
    // --solver amg --precision mixed) fail with a message, not a panic
    let effective_solver = match deck.control.effective_solver() {
        Ok(name) => name,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
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
    writeln!(
        out,
        "tealeaf: {}x{} cells, solver {}, precision {}, {} steps, {} rank(s)",
        deck.problem.x_cells,
        deck.problem.y_cells,
        effective_solver,
        precision_label,
        deck.control.steps(),
        args.ranks,
    )?;

    #[expect(
        clippy::disallowed_methods,
        reason = "the run summary's wall-time line; it times the run, never steers it"
    )]
    let started = std::time::Instant::now();
    // per-rank comm counters, summed machine-wide for the summary
    let outs = match run_threaded_ranks(&deck, args.ranks) {
        Ok(outs) => outs,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut halo = tea_comms::StatsSnapshot::default();
    for o in &outs {
        halo.merge(&o.comm);
    }
    let Some(output) = outs.into_iter().next() else {
        eprintln!("error: no rank produced output");
        return Ok(ExitCode::FAILURE);
    };
    let elapsed = started.elapsed().as_secs_f64();

    if !args.quiet {
        writeln!(
            out,
            "{:>6} {:>10} {:>8} {:>14} {:>14}",
            "step", "time", "iters", "avg temp", "wall(s)"
        )?;
        for s in &output.steps {
            let temp = s
                .summary
                .map(|x| format!("{:14.8}", x.average_temperature()))
                .unwrap_or_else(|| " ".repeat(14));
            writeln!(
                out,
                "{:>6} {:>10.4} {:>8} {} {:>14.6}",
                s.step, s.time, s.iterations, temp, s.wall
            )?;
        }
    }

    let s = output.final_summary;
    writeln!(out, "\nfield summary:")?;
    writeln!(out, "  volume           {:.6e}", s.volume)?;
    writeln!(out, "  mass             {:.6e}", s.mass)?;
    writeln!(out, "  internal energy  {:.6e}", s.internal_energy)?;
    writeln!(out, "  temperature      {:.6e}", s.temperature)?;
    writeln!(out, "  avg temperature  {:.8}", s.average_temperature())?;
    writeln!(out, "\nsolver protocol:")?;
    writeln!(out, "  outer iterations {}", output.trace.outer_iterations)?;
    writeln!(out, "  inner iterations {}", output.trace.inner_iterations)?;
    writeln!(out, "  stencil sweeps   {}", output.trace.spmv.total())?;
    writeln!(
        out,
        "  halo exchanges   {}",
        output.trace.total_halo_exchanges()
    )?;
    if halo.msgs_sent > 0 {
        // real per-width accounting: f32 halos cost 4 bytes per element
        writeln!(
            out,
            "  halo bytes       {} ({} f64 + {} f32 elems, all ranks)",
            halo.bytes_sent(),
            halo.elems_sent_f64,
            halo.elems_sent_f32,
        )?;
    }
    writeln!(out, "  reductions       {}", output.trace.reductions)?;
    writeln!(out, "  kernels          {}", tea_core::kernel_isa())?;
    let unconverged: Vec<u64> = output
        .steps
        .iter()
        .filter(|s| !s.converged)
        .map(|s| s.step)
        .collect();
    if let Some(first) = unconverged.first() {
        writeln!(
            out,
            "  warning          {} of {} steps did not converge (first: step {first})",
            unconverged.len(),
            output.steps.len()
        )?;
    }
    writeln!(out, "  wall time        {elapsed:.3}s")?;

    if let Some(tune) = &output.tune {
        writeln!(out, "\nauto-tuning:")?;
        for line in tune.summary_lines() {
            writeln!(out, "  {line}")?;
        }
    }

    if let (Some(prefix), Some(u)) = (&args.out, &output.final_u) {
        let ppm = PathBuf::from(format!("{prefix}.ppm"));
        let csv = PathBuf::from(format!("{prefix}.csv"));
        if let Err(e) = write_field_ppm(u, &ppm).and_then(|_| write_field_csv(u, &csv)) {
            eprintln!("error writing output: {e}");
            return Ok(ExitCode::FAILURE);
        }
        writeln!(out, "wrote {} and {}", ppm.display(), csv.display())?;
    }
    Ok(if unconverged.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut out = Stdout::locked();
    let ran = match parse_args() {
        Err(msg) if msg.is_empty() => write!(out, "{USAGE}").map(|()| ExitCode::SUCCESS),
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        Ok(args) => match (args.refusals().as_slice(), &args.serve) {
            ([], Some(joblist)) => run_serve(joblist, &args, &mut out),
            ([], None) => run_single(&args, &mut out),
            (refusals, _) => {
                for refusal in refusals {
                    eprintln!("error: {refusal}");
                }
                return ExitCode::FAILURE;
            }
        },
    };
    match ran.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: writing the report: {e}");
            ExitCode::FAILURE
        }
    }
}
