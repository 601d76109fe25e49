//! A run of one of the five single-deck workloads: the rep loop, the
//! checks, and the metrics of either mode.

use crate::catalog::{deck_spec, DeckSpec, CELLS};
use crate::deckrun::{max_rel_diff, mirror_rep, untraced_rep, Exact, MirrorFacts, Rep};
use crate::decks::workload_deck;
use crate::isolated::{
    comm_times, convert_times, kernel_times, region_launch_s, stream_peak, tile_setup, KernelTimes,
};
use crate::layers::{
    set_attribution, set_comm_counts, set_kernel_columns, set_perfmodel, set_trace_counts,
    Attribution, CellSweeps, LayerTable, INNER_STEPS,
};
use crate::run::{
    set_bench_columns, write_out, Budget, CpuClock, EndToEndValues, Metrics, RunResult, Scratch,
    TRUE_RESIDUAL_LIMIT,
};
use crate::spans::SpanLog;
use crate::util::{exceeds, median, peak_rss_mib, range};
use std::path::{Path, PathBuf};
use tea_app::parse_deck;
use tea_mesh::Field2D;

/// Reps of a deck workload with the bookkeeping the checks need. Only
/// the first rep keeps its field; the rest are judged by their hash.
#[derive(Default)]
struct DeckReps {
    reps: Vec<Rep>,
    notes: Vec<String>,
    failed: u64,
}

impl DeckReps {
    /// Adds a rep, failing it on its own failure or on any exact count
    /// differing from the first rep's.
    fn push(&mut self, mut rep: Rep, label: &str) {
        let mut why = rep.failure.clone();
        if let Some(first) = self.reps.first() {
            rep.final_u = None;
            if why.is_none() && rep.exact != first.exact {
                why = Some(exact_difference(&first.exact, &rep.exact));
            }
        }
        if let Some(why) = why {
            self.failed += 1;
            self.notes
                .push(format!("{label} {}: {why}", self.reps.len()));
        }
        self.reps.push(rep);
    }

    fn first_field(&self) -> &Field2D {
        self.reps[0]
            .final_u
            .as_ref()
            .expect("the first rep keeps its field")
    }

    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }
}

fn exact_difference(a: &Exact, b: &Exact) -> String {
    let mut parts = Vec::new();
    if a.step_iterations != b.step_iterations {
        parts.push(format!(
            "iterations {:?} vs {:?}",
            a.step_iterations, b.step_iterations
        ));
    }
    if a.trace != b.trace {
        parts.push("SolveTrace counts".into());
    }
    if a.comm != b.comm {
        parts.push("StatsSnapshot counts".into());
    }
    if a.output_bytes != b.output_bytes || a.deck_bytes != b.deck_bytes {
        parts.push("deck/output bytes".into());
    }
    if a.field_hash != b.field_hash {
        parts.push("final field bits".into());
    }
    format!("exact mismatch: {}", parts.join(", "))
}

/// One rep of a cross-check's reference workload on the same geometry,
/// at the reference's own thread count.
fn reference_rep(
    reference: &DeckSpec,
    own_threads: usize,
    seed: u64,
    csv: &Path,
) -> Result<Rep, String> {
    let text = workload_deck(seed, CELLS, reference.steps, reference.keys);
    tea_core::set_num_threads(reference.threads);
    let rep = untraced_rep(reference, &text, csv);
    tea_core::set_num_threads(own_threads);
    rep
}

/// The check that needs a second computation: the reference workload's
/// answer on the same geometry. Returns the reference rep.
fn cross_check(
    spec: &DeckSpec,
    seed: u64,
    first: &Field2D,
    csv: &Path,
    notes: &mut Vec<String>,
) -> Result<Option<Rep>, String> {
    let Some(cross) = &spec.cross else {
        return Ok(None);
    };
    let rep = reference_rep(deck_spec(cross.against), spec.threads, seed, csv)?;
    let answer = rep.final_u.as_ref().expect("a fresh rep keeps its field");
    let ok = if cross.rel_tol == 0.0 {
        // bit identity is judged on the bits, not on a difference of
        // 0.0 (which a +0/−0 pair would fake)
        first
            .iter_interior()
            .zip(answer.iter_interior())
            .all(|((_, _, a), (_, _, b))| a.to_bits() == b.to_bits())
    } else {
        !exceeds(max_rel_diff(first, answer), cross.rel_tol)
    };
    if !ok {
        notes.push(format!(
            "cross-check miss: final field differs from {} by {:e} (allowed {:e})",
            cross.against,
            max_rel_diff(first, answer),
            cross.rel_tol
        ));
    }
    if let Some(why) = &rep.failure {
        notes.push(format!(
            "cross-check reference {} failed: {why}",
            cross.against
        ));
    }
    Ok(Some(rep))
}

fn check_mirror(mirror: &Rep, facts: &MirrorFacts, first: &Rep, notes: &mut Vec<String>) {
    if mirror.exact != first.exact {
        notes.push(format!(
            "traced mirror run differs from the untraced run: {}",
            exact_difference(&first.exact, &mirror.exact)
        ));
    }
    if let Some(why) = &mirror.failure {
        notes.push(format!("traced mirror run failed: {why}"));
    }
    if !facts.all_converged_status {
        notes.push("a solve ended with a status other than Converged".into());
    }
    let rel = facts.true_residual / facts.true_initial_residual;
    if exceeds(rel, TRUE_RESIDUAL_LIMIT) {
        notes.push(format!(
            "true residual ‖b − Au‖ / ‖b − Au₀‖ = {rel:e} exceeds {TRUE_RESIDUAL_LIMIT:e}"
        ));
    }
}

/// Everything measured and checked in one run of a deck workload.
struct DeckRun {
    name: &'static str,
    spec: &'static DeckSpec,
    seed: u64,
    text: String,
    csv: PathBuf,
    user: DeckReps,
    mirrors: DeckReps,
    facts: MirrorFacts,
    log: SpanLog,
    cpu: CpuClock,
    measured_s: f64,
    /// The cross-check's reference rep, when the workload has one.
    reference: Option<Rep>,
}

pub fn run_deck(
    name: &'static str,
    spec: &'static DeckSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    tea_core::set_num_threads(spec.threads);
    let scratch = Scratch::new()?;
    let csv = scratch.0.join("field.csv");
    let text = workload_deck(seed, CELLS, spec.steps, spec.keys);
    write_out(&format!("deck-{name}-seed{seed}.in"), &text)?;

    // warm-up: page in the binary, the allocator arenas and the csv path
    let warm = untraced_rep(spec, &text, &csv)?;
    if let Some(why) = warm.failure {
        return Err(format!("warm-up rep failed: {why}"));
    }
    let rss_mib = peak_rss_mib();

    let budget = Budget::start(seconds, traced);
    let mut user = DeckReps::default();
    let mut mirrors = DeckReps::default();
    let mut facts = None;
    let mut log = SpanLog::default();
    let mut cpu = CpuClock::default();
    while budget.wants_more(user.reps.len()) {
        if traced {
            let id = mirrors.reps.len();
            let (rep, f) = mirror_rep(spec, &text, &csv, budget.epoch, id, &mut log)?;
            mirrors.push(rep, "mirror rep");
            facts = Some(f);
        }
        user.push(cpu.around(|| untraced_rep(spec, &text, &csv))?, "rep");
    }
    let measured_s = budget.epoch.elapsed().as_secs_f64();

    // checks, outside the timed window
    if !traced {
        let (rep, f) = mirror_rep(spec, &text, &csv, budget.epoch, 0, &mut log)?;
        mirrors.push(rep, "mirror rep");
        facts = Some(f);
    }
    let facts = facts.expect("at least one mirror rep ran");
    let mut notes = Vec::new();
    check_mirror(&mirrors.reps[0], &facts, &user.reps[0], &mut notes);
    let reference = cross_check(spec, seed, user.first_field(), &csv, &mut notes)?;

    let counted_mirrors = if traced { mirrors.reps.len() } else { 0 };
    let attempted = (user.reps.len() + counted_mirrors) as u64;
    let mut failed = user.failed + if traced { mirrors.failed } else { 0 };
    if !notes.is_empty() {
        // a verification miss condemns every rep: they all carry the
        // same bits as the one that was checked
        failed = attempted;
    }
    notes.extend(user.notes.iter().cloned());
    notes.extend(mirrors.notes.iter().cloned());

    let run = DeckRun {
        name,
        spec,
        seed,
        text,
        csv,
        user,
        mirrors,
        facts,
        log,
        cpu,
        measured_s,
        reference,
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

impl DeckRun {
    fn rep_times(&self) -> Vec<f64> {
        self.user
            .reps
            .iter()
            .map(|r| r.timing.time_to_solution)
            .collect()
    }

    fn solve_s(&self) -> f64 {
        self.user.median_of(|r| r.timing.solve())
    }

    fn end_to_end(&self, rss_mib: f64, notes: &mut Vec<String>) -> Metrics {
        let tts = self.rep_times();
        notes.push(format!(
            "{} timed reps in {:.2} s; time_to_solution_s min {:.4} max {:.4}",
            tts.len(),
            self.measured_s,
            tts.iter().copied().fold(f64::INFINITY, f64::min),
            tts.iter().copied().fold(0.0, f64::max),
        ));
        EndToEndValues {
            rss_mib,
            setup_s: self.user.median_of(|r| r.timing.setup()),
            solve_s: self.solve_s(),
            time_to_solution_s: median(&tts),
            jobs_per_s: 1.0 / median(&tts),
            p50_s: median(&tts),
        }
        .into_metrics()
    }

    /// Median over the mirror reps of a quantity read from the spans.
    fn span_median(&self, f: impl Fn(&SpanLog, usize) -> f64) -> f64 {
        let per_rep: Vec<f64> = (0..self.mirrors.reps.len())
            .map(|rep| f(&self.log, rep))
            .collect();
        median(&per_rep)
    }

    /// Median Σ duration of rank 0's spans named `name`.
    fn span_total(&self, name: &'static str) -> f64 {
        self.span_median(|log, rep| log.total(name, rep, 0))
    }

    fn layers(&self, notes: &mut Vec<String>) -> Result<Metrics, String> {
        let (spec, facts) = (self.spec, &self.facts);
        let exact = &self.user.reps[0].exact;
        let (nx, ny) = facts.tile;
        let cells = nx * ny;
        let solve_s = self.solve_s();
        let mut t = LayerTable::default();

        // spans around the driver's calls, rank 0
        t.set("app.parse_s", self.span_total("app.parse_deck"));
        t.set("app.deck_bytes", exact.deck_bytes as f64);
        t.set(
            "app.driver_overhead_s",
            self.span_median(|log, rep| {
                log.total_self("app.run_ranks", rep, 0)
                    + log.total_self("app.run_rank", rep, 0)
                    + log.total_self("app.step", rep, 0)
                    + log.total("core.registry_create", rep, 0)
                    + log.total("app.build_rhs", rep, 0)
                    + log.total("app.fold_back", rep, 0)
                    + log.total("comms.gather_to_root", rep, 0)
            }),
        );
        t.set("app.summary_s", self.span_total("app.field_summary"));
        t.set("app.output_s", self.span_total("app.write_field_csv"));
        t.set("app.output_bytes", exact.output_bytes as f64);
        let assemble_s = self.span_median(|log, rep| {
            log.total("mesh.mesh_new", rep, 0)
                + log.total("mesh.apply_states", rep, 0)
                + log.total("mesh.assemble", rep, 0)
        });
        t.set("mesh.assemble_s", assemble_s);
        t.set("mesh.assemble_ns_per_cell", assemble_s / cells as f64 * 1e9);
        t.set("core.prepare_s", self.span_total("core.prepare"));
        t.set("core.iterate_s", self.span_total("core.solve"));

        // exact counts and the harness's own answer check
        set_trace_counts(&mut t, &exact.trace);
        set_comm_counts(&mut t, &exact.comm);
        t.set(
            "core.redundant_cell_fraction",
            facts.redundant_cell_fraction,
        );
        t.set(
            "core.true_rel_residual",
            facts.true_residual / facts.true_initial_residual,
        );
        t.set(
            "core.residual_drift",
            facts.true_residual / facts.recurrence_residual,
        );

        // isolated timings on rank 0's tile, at this workload's thread
        // count; the peak streams arrays the size of the field set a
        // solve touches (u, b, the workspace's p/r/w/z, Kx, Ky)
        let deck = parse_deck(&self.text)?;
        let solver = deck.control.effective_solver()?;
        let setup = tile_setup(&deck, spec.ranks)?;
        let peak = stream_peak(8 * (nx + 2 * setup.halo) * (ny + 2 * setup.halo) * 8);
        let wide = kernel_times::<f64>(&setup);
        let narrow: Option<KernelTimes> =
            (spec.keys.precision == Some("mixed")).then(|| kernel_times::<f32>(&setup));
        let bulk = narrow.as_ref().unwrap_or(&wide);
        set_kernel_columns(&mut t, bulk, cells, &peak);
        if narrow.is_some() {
            let c = convert_times(&setup);
            let inner_solves = (exact.trace.inner_iterations / INNER_STEPS as u64) as f64;
            t.set(
                "mesh.convert_s",
                spec.steps as f64 * c.operator + inner_solves * c.field_round_trip,
            );
        }
        let mut sweeps = CellSweeps::default();
        sweeps.add(&exact.trace, cells, &solver);
        set_attribution(
            &mut t,
            &Attribution {
                sweeps: &sweeps,
                kernel_cells: cells,
                wide: &wide,
                bulk,
                precon_s_per_cell: 0.0,
                halo_exchanges: exact.trace.total_halo_exchanges(),
                reductions: exact.trace.reductions,
                comm: &comm_times(CELLS, spec.ranks, setup.halo),
                solve_s,
            },
        );
        set_perfmodel(&mut t, &sweeps, spec.threads, &peak, solve_s);

        self.set_two_way_columns(&mut t, solve_s)?;
        t.set("runtime.region_launch_us", region_launch_s() * 1e6);
        if spec.threads > 1 {
            // every sweep over at least par_threshold cells is one
            // region; computed from the trace, not counted by the runtime
            let bounds = setup.op.bounds;
            let tr = &exact.trace;
            let regions: u64 = [&tr.spmv, &tr.vector_ops, &tr.dot_kernels, &tr.precon_ops]
                .iter()
                .flat_map(|class| &class.sweeps_by_extension)
                .filter(|(&ext, _)| bounds.cells(ext as usize) >= tea_core::par_threshold())
                .map(|(_, &n)| n)
                .sum();
            t.set("runtime.parallel_regions", regions as f64);
        }
        let n_user = self.user.reps.len() as f64;
        t.set("runtime.cpu_user_s", self.cpu.user / n_user);
        t.set("runtime.cpu_sys_s", self.cpu.sys / n_user);

        let tts = self.rep_times();
        set_bench_columns(
            &mut t,
            &peak,
            self.mirrors.median_of(|r| r.timing.time_to_solution) / median(&tts),
            &tts,
        );
        write_out(
            &format!("trace-{}.json", self.name),
            &self.log.to_json(self.name),
        )?;
        notes.push(format!(
            "{} traced + {} untraced reps in {:.2} s; spans in benchmark/out/trace-{}.json; \
             kernel timings at {} thread(s), {} precision; _pct_peak uses computed bytes over a \
             working-set-sized streaming peak",
            self.mirrors.reps.len(),
            self.user.reps.len(),
            self.measured_s,
            self.name,
            spec.threads,
            if narrow.is_some() { "f32" } else { "f64" },
        ));
        Ok(t.into_metrics())
    }

    /// The columns only the 2-rank and 2-thread workloads have. The
    /// plain single-threaded run of the same deck is the baseline of
    /// both efficiencies; the cross-check already ran it once.
    fn set_two_way_columns(&self, t: &mut LayerTable, solve_s: f64) -> Result<(), String> {
        let spec = self.spec;
        if let (Some(cross), Some(first)) = (&spec.cross, &self.reference) {
            if cross.against == "stream_cg" {
                let base_spec = deck_spec(cross.against);
                let mut base = vec![first.timing.solve()];
                for _ in 0..2 {
                    let rep = reference_rep(base_spec, spec.threads, self.seed, &self.csv)?;
                    base.push(rep.timing.solve());
                }
                let efficiency = median(&base) / (2.0 * solve_s);
                if spec.ranks == 2 {
                    t.set("comms.parallel_efficiency", efficiency);
                } else {
                    t.set("runtime.thread_efficiency", efficiency);
                }
            }
        }
        if spec.ranks > 1 {
            t.set(
                "comms.rank_imbalance",
                self.user.median_of(|r| {
                    let s = &r.timing.rank_solve;
                    range(s) / (s.iter().sum::<f64>() / s.len() as f64)
                }),
            );
        }
        Ok(())
    }
}
