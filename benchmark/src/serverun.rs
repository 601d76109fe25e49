//! One drain of the serve mix, two ways.
//!
//! [`untraced_drain`] is the user path: deck texts → parsed job list →
//! `tea_app::serve_decks` with a fresh session cache. [`mirror_drain`]
//! drains the same list through `tea_serve::serve_with` with the
//! harness's own closure around `run_serial_session_with`, so every job
//! gets a span carrying its worker.

use crate::decks::ServeJobText;
use crate::layers::CellSweeps;
use crate::spans::{Recorder, Span, SpanLog};
use crate::util::{exceeds, fnv_bits, percentile};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use tea_amg::MgTrace;
use tea_app::{parse_deck, serve_decks, DeckJob, DeckOutcome};
use tea_core::{SetupCache, SolveControls, SolveTrace};
use tea_mesh::Field2D;
use tea_serve::{serve_with, JobCtx, JobError, QueueStats, ServeOptions, ServeReport};
use tea_tune::{TuneAction, TuneLog};

pub fn serve_options(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        threads_per_job: Some(1),
        cache: true,
        deadline: None,
        retries: 0,
    }
}

/// What the auto-tuner did, summed over a drain's `auto` jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TuneTotals {
    pub raced: u64,
    pub skipped_by_prior: u64,
    pub reuses: u64,
    pub race_iterations: u64,
    /// Trial iterations of the candidates that ended up selected.
    pub winner_iterations: u64,
}

impl TuneTotals {
    /// Adds one `auto` job of `solves` solves. A session's log is
    /// cumulative — a warm session hands every later job the decisions
    /// of the race it ran once — so the race is counted only for the job
    /// that ran it: the one whose log shows fewer reuses than the job
    /// has solves.
    fn add(&mut self, log: &TuneLog, solves: u64) {
        if log.reuses >= solves {
            self.reuses += solves;
            return;
        }
        self.reuses += solves - 1;
        for d in &log.decisions {
            match d.action {
                TuneAction::Raced { iterations, .. } => {
                    self.raced += 1;
                    self.race_iterations += iterations;
                    if log.winner.as_deref() == Some(d.candidate.as_str()) {
                        self.winner_iterations += iterations;
                    }
                }
                TuneAction::SkippedByPrior => self.skipped_by_prior += 1,
                TuneAction::Selected { .. } | TuneAction::Escalated { .. } => {}
            }
        }
    }
}

pub struct JobFacts {
    pub wall_s: f64,
    /// Σ `StepRecord.wall` of the job.
    pub solve_s: f64,
    pub step_iterations: Vec<u64>,
    pub field_hash: u64,
    pub solver: String,
    pub cells: usize,
    pub failure: Option<String>,
}

/// One drain, digested.
pub struct Drain {
    /// Deck texts → ready queue.
    pub setup_s: f64,
    pub makespan_s: f64,
    pub stats: QueueStats,
    pub jobs: Vec<JobFacts>,
    pub trace: SolveTrace,
    pub mg: MgTrace,
    pub tune: TuneTotals,
    /// Every job's sweeps weighted by its own tile size.
    pub sweeps: CellSweeps,
    /// The first finished field of every distinct deck.
    pub fields: BTreeMap<usize, Field2D>,
}

impl Drain {
    pub fn job_walls(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.wall_s).collect()
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.job_walls(), 50.0)
    }

    pub fn p95(&self) -> f64 {
        percentile(&self.job_walls(), 95.0)
    }

    pub fn solve_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.solve_s).sum()
    }

    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.failure.is_some()).count()
    }

    /// What must repeat exactly between drains of one job list: every
    /// job's per-step iteration counts and answer bits. (Cache hits and
    /// tuner reuses are *not* in here: which of two workers reaches a
    /// shared key first is a race.)
    pub fn exact(&self) -> Vec<(&[u64], u64)> {
        self.jobs
            .iter()
            .map(|j| (j.step_iterations.as_slice(), j.field_hash))
            .collect()
    }
}

fn parse_jobs(texts: &[ServeJobText]) -> Result<Vec<DeckJob>, String> {
    texts
        .iter()
        .map(|t| {
            Ok(DeckJob {
                label: t.label.clone(),
                deck: parse_deck(&t.text).map_err(|e| format!("{}: {e}", t.label))?,
            })
        })
        .collect()
}

fn digest(
    texts: &[ServeJobText],
    report: ServeReport<DeckOutcome>,
    eps_of: &[f64],
    setup_s: f64,
) -> Drain {
    let mut drain = Drain {
        setup_s,
        makespan_s: report.stats.wall_s,
        stats: report.stats,
        jobs: Vec::with_capacity(texts.len()),
        trace: SolveTrace::default(),
        mg: MgTrace::default(),
        tune: TuneTotals::default(),
        sweeps: CellSweeps::default(),
        fields: BTreeMap::new(),
    };
    for (outcome, text) in report.outcomes.into_iter().zip(texts) {
        let mut facts = JobFacts {
            wall_s: outcome.wall_s,
            solve_s: 0.0,
            step_iterations: Vec::new(),
            field_hash: 0,
            solver: String::new(),
            cells: 0,
            failure: None,
        };
        match outcome.result {
            Err(e) => facts.failure = Some(format!("{}: {e}", text.label)),
            Ok(done) => {
                let out = done.output;
                facts.solve_s = out.steps.iter().map(|s| s.wall).sum();
                facts.step_iterations = out.steps.iter().map(|s| s.iterations).collect();
                facts.solver = done.solver;
                let eps = eps_of[outcome.job];
                facts.failure = out
                    .steps
                    .iter()
                    .find(|s| !s.converged || exceeds(s.final_residual, eps * s.initial_residual))
                    .map(|s| format!("{}: step {} did not converge to eps", text.label, s.step));
                if !done.escalations.is_empty() {
                    facts.failure =
                        Some(format!("{}: escalated {:?}", text.label, done.escalations));
                }
                drain.trace.merge(&out.trace);
                if let Some(mg) = &out.mg_trace {
                    drain.mg.merge(mg);
                }
                if let Some(tune) = &done.tune {
                    drain.tune.add(tune, out.steps.len() as u64);
                }
                match out.final_u {
                    Some(u) => {
                        facts.cells = u.nx() * u.ny();
                        drain.sweeps.add(&out.trace, facts.cells, &facts.solver);
                        facts.field_hash = fnv_bits(u.iter_interior().map(|(_, _, v)| v));
                        drain.fields.entry(text.deck_id).or_insert(u);
                    }
                    None => facts.failure = Some(format!("{}: no final field", text.label)),
                }
            }
        }
        drain.jobs.push(facts);
    }
    drain
}

/// The user path: texts → job list → `serve_decks`.
pub fn untraced_drain(texts: &[ServeJobText], workers: usize) -> Result<Drain, String> {
    let started = Instant::now();
    let jobs = parse_jobs(texts)?;
    let eps_of: Vec<f64> = jobs.iter().map(|j| j.deck.control.opts.eps).collect();
    let setup_s = started.elapsed().as_secs_f64();
    let report = serve_decks(jobs, &serve_options(workers));
    Ok(digest(texts, report, &eps_of, setup_s))
}

/// The traced path: the happy path of `tea_app::serve_decks_with_plan`
/// (precision routing, then `run_serial_session_with` against one shared
/// cache, stop token armed) re-expressed over `serve_with`, with a span
/// per job. Lane 0 is the draining thread; workers are lanes 1.. in
/// order of first job.
pub fn mirror_drain(
    texts: &[ServeJobText],
    workers: usize,
    epoch: Instant,
    rep_id: usize,
    log: &mut SpanLog,
) -> Result<Drain, String> {
    let started = Instant::now();
    let mut root = Recorder::new(epoch, rep_id, 0);
    let rep_span = root.open("bench.rep");
    let jobs = root.scope("app.parse_joblist", || parse_jobs(texts))?;
    let eps_of: Vec<f64> = jobs.iter().map(|j| j.deck.control.opts.eps).collect();
    let setup_s = started.elapsed().as_secs_f64();

    let cache = SetupCache::new();
    let lanes: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
    let job_spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    let run = |ctx: JobCtx<'_>, job: &DeckJob| -> Result<DeckOutcome, JobError> {
        let fail = |message: String| JobError::Failed { message };
        let begin = Instant::now();
        let mut deck = job.deck.clone();
        let solver = deck
            .control
            .effective_solver()
            .map_err(|e| fail(format!("{}: {e}", job.label)))?;
        deck.control.solver = solver.clone();
        deck.control.precision = None;
        let controls = SolveControls {
            stop: Some(ctx.stop),
            probe: None,
        };
        let output = tea_app::run_serial_session_with(&deck, &cache, controls)
            .map_err(|e| fail(format!("{}: {e}", job.label)))?;
        let end = Instant::now();
        let lane = {
            let mut seen = tea_core::lock_tolerant(&lanes);
            let me = std::thread::current().id();
            seen.iter().position(|&t| t == me).unwrap_or_else(|| {
                seen.push(me);
                seen.len() - 1
            }) + 1
        };
        tea_core::lock_tolerant(&job_spans).push(Span {
            name: "serve.job",
            parent: None,
            start: begin.duration_since(epoch).as_secs_f64(),
            end: end.duration_since(epoch).as_secs_f64(),
            rep: rep_id,
            lane,
        });
        Ok(DeckOutcome {
            tune: output.tune.clone(),
            output,
            solver,
            escalations: Vec::new(),
        })
    };
    let drain_span = root.open("serve.drain");
    let report = serve_with(jobs, &serve_options(workers), run, || cache.stats());
    root.close(drain_span);
    root.close(rep_span);
    let base = log.absorb(root.finish(), None);
    log.absorb(
        job_spans
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
        Some(base + drain_span),
    );
    Ok(digest(texts, report, &eps_of, setup_s))
}
