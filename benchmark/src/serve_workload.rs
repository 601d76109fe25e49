//! A run of the serve mix: the drain loop, the checks against the
//! reference driver, and the metrics of either mode.

use crate::catalog::SERVE_JOBS;
use crate::deckrun::{decomposition, max_rel_diff, mirror_rank, MirrorFacts};
use crate::decks::{serve_joblist, ServeJobText, SERVE_DISTINCT};
use crate::isolated::{
    amg_times, comm_times, kernel_times, region_launch_s, stream_peak, tile_setup,
};
use crate::layers::{
    set_attribution, set_kernel_columns, set_perfmodel, set_trace_counts, Attribution, LayerTable,
};
use crate::run::{
    set_bench_columns, write_out, Budget, CpuClock, EndToEndValues, Metrics, RunResult,
    SERVE_FIELD_TOLERANCE, TRUE_RESIDUAL_LIMIT,
};
use crate::serverun::{mirror_drain, untraced_drain, Drain};
use crate::spans::SpanLog;
use crate::util::{exceeds, median, peak_rss_mib};
use std::time::Instant;
use tea_app::parse_deck;
use tea_comms::SerialComm;
use tea_mesh::Field2D;

/// What the reference driver says about each distinct deck of the mix.
struct DeckReference {
    field: Field2D,
    facts: MirrorFacts,
}

fn serve_references(texts: &[ServeJobText]) -> Result<Vec<DeckReference>, String> {
    let mut refs: Vec<Option<DeckReference>> = (0..SERVE_DISTINCT).map(|_| None).collect();
    for t in texts {
        if refs[t.deck_id].is_some() {
            continue;
        }
        let deck = parse_deck(&t.text)?;
        let decomp = decomposition(deck.problem.x_cells, deck.problem.y_cells, 1);
        let (mut out, facts, _) =
            mirror_rank(&deck, &decomp, &SerialComm::new(), Instant::now(), 0)?;
        let field = out
            .final_u
            .take()
            .ok_or("reference run returned no field")?;
        if out.steps.iter().any(|s| !s.converged) {
            return Err(format!("{}: reference run did not converge", t.label));
        }
        refs[t.deck_id] = Some(DeckReference { field, facts });
    }
    refs.into_iter()
        .enumerate()
        .map(|(d, r)| r.ok_or(format!("deck {d} never appears in the job list")))
        .collect()
}

/// Checks one drain's answers against the reference driver; returns
/// the notes of every miss.
fn check_drain(drain: &Drain, refs: &[DeckReference]) -> Vec<String> {
    let mut notes = Vec::new();
    for (deck_id, r) in refs.iter().enumerate() {
        let Some(served) = drain.fields.get(&deck_id) else {
            notes.push(format!("deck {deck_id}: no served field"));
            continue;
        };
        let diff = max_rel_diff(served, &r.field);
        if exceeds(diff, SERVE_FIELD_TOLERANCE) {
            notes.push(format!(
                "deck {deck_id}: served field differs from the reference driver by {diff:e}"
            ));
        }
        let rel = r.facts.true_residual / r.facts.true_initial_residual;
        if exceeds(rel, TRUE_RESIDUAL_LIMIT) || !r.facts.all_converged_status {
            notes.push(format!("deck {deck_id}: reference true residual {rel:e}"));
        }
    }
    notes
}

/// Everything measured and checked in one run of the serve mix.
struct ServeRun {
    name: &'static str,
    workers: usize,
    texts: Vec<ServeJobText>,
    user: Vec<Drain>,
    mirrors: Vec<Drain>,
    refs: Vec<DeckReference>,
    log: SpanLog,
    cpu: CpuClock,
    measured_s: f64,
}

pub fn run_serve(
    name: &'static str,
    workers: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    // the queue pins its own kernel thread count per drain; this is the
    // ambient value it restores afterwards
    tea_core::set_num_threads(1);
    let texts = serve_joblist(seed, SERVE_JOBS);
    let mut listing = String::new();
    for t in &texts {
        listing.push_str(&format!("! {}\n{}\n", t.label, t.text));
    }
    write_out(&format!("joblist-{name}-seed{seed}.in"), &listing)?;

    let warm = untraced_drain(&texts, workers)?;
    if let Some(why) = warm.jobs.iter().find_map(|j| j.failure.clone()) {
        return Err(format!("warm-up drain failed: {why}"));
    }
    let rss_mib = peak_rss_mib();

    let budget = Budget::start(seconds, traced);
    let mut user: Vec<Drain> = Vec::new();
    let mut mirrors: Vec<Drain> = Vec::new();
    let mut log = SpanLog::default();
    let mut cpu = CpuClock::default();
    // only the first drain's fields are checked against the reference;
    // later drains are judged by their per-job hashes
    let keep_first = |drains: &mut Vec<Drain>, mut d: Drain| {
        if !drains.is_empty() {
            d.fields.clear();
        }
        drains.push(d);
    };
    while budget.wants_more(user.len()) {
        if traced {
            let d = mirror_drain(&texts, workers, budget.epoch, mirrors.len(), &mut log)?;
            keep_first(&mut mirrors, d);
        }
        let d = cpu.around(|| untraced_drain(&texts, workers))?;
        keep_first(&mut user, d);
    }
    let measured_s = budget.epoch.elapsed().as_secs_f64();
    if !traced {
        mirrors.push(mirror_drain(&texts, workers, budget.epoch, 0, &mut log)?);
    }

    // checks: every job of every drain, exact repetition between drains
    // and against the mirror, answers against the reference driver
    let mut notes = Vec::new();
    let refs = serve_references(&texts)?;
    let counted = user.len() + if traced { mirrors.len() } else { 0 };
    let attempted = (counted * SERVE_JOBS) as u64;
    let mut failed = 0u64;
    for d in user.iter().chain(&mirrors).take(counted) {
        failed += d.failed() as u64;
        notes.extend(d.jobs.iter().filter_map(|j| j.failure.clone()).take(3));
    }
    let mut verification = check_drain(&user[0], &refs);
    for (i, d) in user.iter().chain(&mirrors).enumerate().skip(1) {
        if d.exact() != user[0].exact() {
            verification.push(format!(
                "drain {i}: per-job iteration counts or answer bits differ from drain 0"
            ));
        }
    }
    if !verification.is_empty() {
        failed = attempted;
        notes.extend(verification);
    }

    let run = ServeRun {
        name,
        workers,
        texts,
        user,
        mirrors,
        refs,
        log,
        cpu,
        measured_s,
    };
    let metrics = if traced {
        run.layers(&mut notes)?
    } else {
        run.end_to_end(rss_mib, &mut notes)
    };
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        notes,
    })
}

impl ServeRun {
    /// Median over the untraced drains.
    fn med(&self, f: impl Fn(&Drain) -> f64) -> f64 {
        median(&self.user.iter().map(f).collect::<Vec<_>>())
    }

    fn end_to_end(&self, rss_mib: f64, notes: &mut Vec<String>) -> Metrics {
        notes.push(format!(
            "{} timed drains of {SERVE_JOBS} jobs on {} worker(s) in {:.2} s",
            self.user.len(),
            self.workers,
            self.measured_s
        ));
        EndToEndValues {
            rss_mib,
            setup_s: self.med(|d| d.setup_s),
            solve_s: self.med(Drain::solve_s),
            time_to_solution_s: self.med(|d| d.makespan_s),
            jobs_per_s: SERVE_JOBS as f64 / self.med(|d| d.makespan_s),
            p50_s: self.med(Drain::p50),
        }
        .into_metrics()
    }

    fn layers(&self, notes: &mut Vec<String>) -> Result<Metrics, String> {
        let (texts, refs, first) = (&self.texts, &self.refs, &self.user[0]);
        let solve_s = self.med(Drain::solve_s);
        let jobs = SERVE_JOBS as f64;
        let mut t = LayerTable::default();

        let parse: Vec<f64> = (0..self.mirrors.len())
            .map(|rep| self.log.total("app.parse_joblist", rep, 0))
            .collect();
        t.set("app.parse_s", median(&parse));
        t.set(
            "app.deck_bytes",
            texts.iter().map(|t| t.text.len()).sum::<usize>() as f64,
        );
        // everything a job does outside its solve intervals: assembly,
        // session checkout, rhs build, fold-back (serve writes no output)
        t.set(
            "app.driver_overhead_s",
            self.med(|d| d.jobs.iter().map(|j| j.wall_s - j.solve_s).sum()),
        );
        t.set("core.iterate_s", solve_s);
        set_trace_counts(&mut t, &first.trace);
        // the solves' own reductions repeat exactly; the jobs' communicator
        // snapshots would add those of session building and tuner races,
        // which two workers share out differently drain by drain
        t.set("comms.reductions", first.trace.reductions as f64);
        t.set(
            "comms.reduction_elems",
            first.trace.reduction_elements as f64,
        );
        let worst =
            |f: &dyn Fn(&MirrorFacts) -> f64| refs.iter().map(|r| f(&r.facts)).fold(0.0, f64::max);
        t.set(
            "core.true_rel_residual",
            worst(&|f| f.true_residual / f.true_initial_residual),
        );
        t.set(
            "core.residual_drift",
            worst(&|f| f.true_residual / f.recurrence_residual),
        );

        // isolated: assembly of every distinct deck (paid once per job),
        // kernels on the first block-Jacobi deck's tile, AMG on the
        // first AMG deck's
        let mut decks = Vec::new();
        for d in 0..SERVE_DISTINCT {
            let job = texts.iter().find(|t| t.deck_id == d);
            decks.push(parse_deck(&job.expect("every deck has a reference").text)?);
        }
        let setups = decks
            .iter()
            .map(|d| tile_setup(d, 1))
            .collect::<Result<Vec<_>, _>>()?;
        let assemble_s: f64 = texts.iter().map(|t| setups[t.deck_id].assemble_s).sum();
        let total_cells: usize = first.jobs.iter().map(|j| j.cells).sum();
        t.set("mesh.assemble_s", assemble_s);
        t.set(
            "mesh.assemble_ns_per_cell",
            assemble_s / total_cells as f64 * 1e9,
        );

        let block = decks
            .iter()
            .position(|d| d.control.precon == tea_core::PreconKind::BlockJacobi)
            .ok_or("the serve mix has no block-Jacobi deck")?;
        let (bnx, bny) = setups[block].op.bounds.tile();
        let kernel_cells = bnx * bny;
        let peak = stream_peak(0);
        let wide = kernel_times::<f64>(&setups[block]);
        set_kernel_columns(&mut t, &wide, kernel_cells, &peak);
        set_attribution(
            &mut t,
            &Attribution {
                sweeps: &first.sweeps,
                kernel_cells,
                wide: &wide,
                bulk: &wide,
                precon_s_per_cell: wide.precon_block / kernel_cells as f64,
                halo_exchanges: first.trace.total_halo_exchanges(),
                reductions: first.trace.reductions,
                comm: &comm_times(bnx, 1, 1),
                solve_s,
            },
        );
        // solve_s sums the jobs of every worker, so the model streams
        // the summed bytes through one core's peak
        set_perfmodel(&mut t, &first.sweeps, 1, &peak, solve_s);

        // session cache and queue: which worker reaches a shared key
        // first is a race, so these are medians over the drains, not
        // exact counts
        t.set("core.cache_hits", self.med(|d| d.stats.cache.hits as f64));
        t.set(
            "core.cache_misses",
            self.med(|d| d.stats.cache.misses as f64),
        );
        t.set(
            "core.cache_hit_ratio",
            self.med(|d| d.stats.cache.hits as f64 / jobs),
        );
        t.set(
            "serve.prepares",
            self.med(|d| d.stats.cache.prepares as f64),
        );
        t.set(
            "serve.prepares_saved",
            self.med(|d| jobs - d.stats.cache.prepares as f64),
        );
        let busy = |d: &Drain| d.jobs.iter().map(|j| j.wall_s).sum::<f64>();
        let capacity = |d: &Drain| self.workers as f64 * d.makespan_s;
        t.set(
            "serve.worker_utilisation",
            self.med(|d| busy(d) / capacity(d)),
        );
        t.set(
            "serve.queue_overhead_us",
            self.med(|d| (capacity(d) - busy(d)) / jobs * 1e6),
        );
        // ten samples beyond it in each drain of 200 jobs
        t.set("serve.job_service_p95_s", self.med(Drain::p95));
        t.set("serve.retries", first.stats.retries as f64);
        t.set("serve.timeouts", first.stats.timeouts as f64);
        t.set(
            "serve.panics_recovered",
            first.stats.panics_recovered as f64,
        );

        t.set(
            "tune.candidates",
            self.med(|d| (d.tune.raced + d.tune.skipped_by_prior) as f64),
        );
        t.set("tune.raced", self.med(|d| d.tune.raced as f64));
        t.set(
            "tune.skipped_by_prior",
            self.med(|d| d.tune.skipped_by_prior as f64),
        );
        t.set("tune.reuses", self.med(|d| d.tune.reuses as f64));
        t.set(
            "tune.race_iterations",
            self.med(|d| d.tune.race_iterations as f64),
        );
        t.set(
            "tune.race_overhead_ratio",
            self.med(|d| d.tune.race_iterations as f64 / d.tune.winner_iterations as f64),
        );

        let amg = decks
            .iter()
            .position(|d| d.control.solver == "amg")
            .ok_or("the serve mix has no AMG deck")?;
        let amg_t = amg_times(&decks[amg], &setups[amg]);
        t.set("amg.setup_s", amg_t.setup);
        t.set("amg.vcycle_us", amg_t.vcycle * 1e6);
        t.set("amg.setup_cells", first.mg.setup_cells as f64);
        t.set("amg.vcycles", first.mg.vcycles as f64);

        t.set("runtime.region_launch_us", region_launch_s() * 1e6);
        let n_user = self.user.len() as f64;
        t.set("runtime.cpu_user_s", self.cpu.user / n_user);
        t.set("runtime.cpu_sys_s", self.cpu.sys / n_user);
        let makespans: Vec<f64> = self.user.iter().map(|d| d.makespan_s).collect();
        let traced_makespans: Vec<f64> = self.mirrors.iter().map(|d| d.makespan_s).collect();
        set_bench_columns(
            &mut t,
            &peak,
            median(&traced_makespans) / median(&makespans),
            &makespans,
        );
        write_out(
            &format!("trace-{}.json", self.name),
            &self.log.to_json(self.name),
        )?;
        notes.push(format!(
            "{} traced + {} untraced drains in {:.2} s; spans in benchmark/out/trace-{}.json; \
             kernel timings on the {bnx}x{bny} block-Jacobi deck's tile; assembly and AMG \
             timings are isolated calls, not spans inside jobs",
            self.mirrors.len(),
            self.user.len(),
            self.measured_s,
            self.name,
        ));
        Ok(t.into_metrics())
    }
}
