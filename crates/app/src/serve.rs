//! Deck-level serving: drains many parsed decks through the session
//! driver ([`crate::run_serial_session`]) on a `tea-serve` worker pool,
//! pooling prepared solvers in a [`tea_core::SetupCache`] across jobs
//! with equal setup keys — each job brings its own operator, workspace
//! and density and checks only its solver back in. The `tealeaf --serve <joblist>` CLI mode and the repo
//! benchmark's `serve_mix` workload call [`serve_decks`]; the chaos
//! tests below arm [`serve_decks_with_plan`].
//!
//! Fault tolerance follows the `tea-serve` contract: each job runs
//! under panic isolation with per-attempt deadlines and bounded
//! retries, and a solve that diverges (non-finite residual) escalates
//! along the precision ladder owned by the tea-tune policy layer
//! ([`tea_tune::EscalationPolicy`]: `cg_f32 → mixed_cg → cg`),
//! recording each abandoned rung into the outcome's [`TuneLog`],
//! before the job is declared failed. A deterministic
//! [`tea_fault::FaultPlan`] can be armed to inject faults — only on a
//! job's *first* attempt and *first* ladder rung, so recovery is
//! observable and the same seed reproduces the same outcomes at any
//! worker count.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::deck::Deck;
use crate::driver::{run_serial_session_with, DriverError, RankOutput};
use tea_core::{SetupCache, SolveControls, SolveProbe};
use tea_fault::{FaultKind, FaultPlan, NanPoison};
use tea_serve::{serve_with, JobCtx, JobError, ServeOptions, ServeReport};
use tea_tune::{EscalationPolicy, TuneLog};

/// One deck to run, with a label for error reporting (typically the
/// deck's file path or a synthetic sweep name).
#[derive(Debug, Clone)]
pub struct DeckJob {
    /// Where the deck came from, for error messages.
    pub label: String,
    /// The parsed deck.
    pub deck: Deck,
}

/// What a served deck job returns: the driver output plus the
/// degradation history that produced it.
#[derive(Debug)]
pub struct DeckOutcome {
    /// The driver's per-step records, traces and final field.
    pub output: RankOutput,
    /// Canonical name of the solver that produced the result (after
    /// precision routing and any escalation).
    pub solver: String,
    /// Solvers abandoned to divergence before `solver` succeeded, in
    /// escalation order. Empty on the happy path.
    pub escalations: Vec<String>,
    /// Tuning record: ladder escalations taken for this job, followed
    /// by the auto-tuner's race decisions when the deck ran
    /// `tl_solver=auto`. `None` when neither happened.
    pub tune: Option<TuneLog>,
}

/// Drains `jobs` through the session driver on a worker pool and
/// reports per-job [`DeckOutcome`]s plus queue statistics.
///
/// With [`ServeOptions::cache`] on, jobs with equal setup keys (same
/// geometry, coefficients, solver, precision, halo depth and latched
/// options) share prepared solvers — the report's cache counters show
/// how many preparations the pool saved. With it off, every job builds
/// cold; the counters then read zero hits and one preparation per job.
///
/// A failing deck (unknown solver, invalid problem) records an error
/// outcome carrying its label; the queue keeps draining.
pub fn serve_decks(jobs: Vec<DeckJob>, opts: &ServeOptions) -> ServeReport<DeckOutcome> {
    serve_decks_with_plan(jobs, opts, None)
}

/// [`serve_decks`] with an optional deterministic [`FaultPlan`] armed.
///
/// The plan is consulted once per job (by submission index). An
/// assigned fault fires only on attempt 0 — retries run clean, which
/// is how [`FaultKind::PanicWorker`] jobs recover when
/// [`ServeOptions::retries`] > 0 — and a
/// [`FaultKind::PoisonNan`] probe is armed only on the first ladder
/// rung, so the escalated re-solve runs clean and the job degrades
/// gracefully instead of failing every rung. Faulted solves run
/// against a throwaway session cache: a poisoned solver must never
/// enter the shared pool.
pub fn serve_decks_with_plan(
    jobs: Vec<DeckJob>,
    opts: &ServeOptions,
    plan: Option<&FaultPlan>,
) -> ServeReport<DeckOutcome> {
    let cache = SetupCache::new();
    let cold_prepares = AtomicU64::new(0);
    let cold_misses = AtomicU64::new(0);
    let use_cache = opts.cache;
    let registry = crate::solver_registry();
    let policy = EscalationPolicy::new(registry);
    let run = |ctx: JobCtx<'_>, DeckJob { label, deck }: &DeckJob| {
        let fault = plan
            .filter(|_| ctx.attempt == 0)
            .and_then(|p| p.fault_for(ctx.job));
        if let Some(FaultKind::PanicWorker) = fault {
            #[expect(
                clippy::panic,
                reason = "deliberate fault injection: this panic is the fault under test, \
                          which the serve queue's catch_unwind must absorb"
            )]
            {
                panic!("injected worker panic (job {})", ctx.job);
            }
        }

        // resolve precision routing up front so escalation starts from
        // the solver that would actually have run
        let mut deck = deck.clone();
        let solver = deck
            .control
            .effective_solver()
            .map_err(|e| JobError::Failed {
                message: format!("{label}: {e}"),
            })?;
        deck.control.solver = solver;
        deck.control.precision = None;

        let mut escalations: Vec<String> = Vec::new();
        let mut ladder = TuneLog::default();
        loop {
            // the injected probe arms only on the first rung: the
            // escalated re-solve must run clean so the ladder recovers
            let probe: Option<NanPoison> = match fault {
                Some(FaultKind::PoisonNan { iteration }) if escalations.is_empty() => {
                    Some(NanPoison { iteration })
                }
                _ => None,
            };
            let controls = SolveControls {
                stop: Some(ctx.stop),
                probe: probe.as_ref().map(|p| p as &dyn SolveProbe),
            };
            let result = if use_cache && probe.is_none() {
                run_serial_session_with(&deck, &cache, controls)
            } else {
                // a throwaway per-job cache: cold, never shared — used
                // both for a cache-less drain and for probed solves
                // (a poisoned solver must not enter the pool)
                let local = SetupCache::new();
                let out = run_serial_session_with(&deck, &local, controls);
                let stats = local.stats();
                cold_prepares.fetch_add(stats.prepares, Ordering::Relaxed);
                cold_misses.fetch_add(stats.misses, Ordering::Relaxed);
                out
            };
            match result {
                Ok(output) => {
                    // the job-level ladder walk, then the auto-tuner's
                    // race record: the ladder's decisions chronologically
                    // precede the race that finally converged
                    let tune = match output.tune.clone() {
                        None if ladder.decisions.is_empty() => None,
                        None => Some(ladder),
                        Some(mut race) => {
                            race.decisions.splice(0..0, ladder.decisions);
                            Some(race)
                        }
                    };
                    return Ok(DeckOutcome {
                        output,
                        solver: deck.control.solver,
                        escalations,
                        tune,
                    });
                }
                Err(DriverError::Cancelled { .. }) => return Err(JobError::TimedOut),
                Err(DriverError::Diverged {
                    solver, iteration, ..
                }) => {
                    escalations.push(solver);
                    match policy.escalate(&deck.control.solver, iteration, &mut ladder) {
                        Some(next) => {
                            deck.control.solver = next;
                            continue;
                        }
                        None => {
                            return Err(JobError::Diverged {
                                iteration,
                                attempts: escalations,
                            })
                        }
                    }
                }
                Err(e) => {
                    return Err(JobError::Failed {
                        message: format!("{label}: {e}"),
                    })
                }
            }
        }
    };
    serve_with(jobs, opts, run, || {
        let mut stats = cache.stats();
        stats.prepares += cold_prepares.load(Ordering::Relaxed);
        stats.misses += cold_misses.load(Ordering::Relaxed);
        stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::{crooked_pipe_deck, Control};

    fn job(n: usize, solver: &str, eps: f64) -> DeckJob {
        let mut deck = crooked_pipe_deck(n, solver);
        deck.control = Control {
            solver: solver.into(),
            end_step: 2,
            summary_frequency: 0,
            ..Default::default()
        };
        deck.control.opts.eps = eps;
        DeckJob {
            label: format!("{solver}-{n}-{eps}"),
            deck,
        }
    }

    /// A job of the serve mix's family `f` — `cg`, block-Jacobi `cg`,
    /// `ppcg` at depth 4 in `f64` and in mixed precision, `amg`, `auto`
    /// — on an `n²` tile.
    fn family(f: usize, n: usize) -> DeckJob {
        let mut job = job(n, ["cg", "cg", "ppcg", "ppcg", "amg", "auto"][f], 1e-8);
        let control = &mut job.deck.control;
        match f {
            1 => control.precon = tea_core::PreconKind::BlockJacobi,
            2 => control.ppcg_halo_depth = 4,
            3 => {
                control.ppcg_halo_depth = 4;
                control.precision = Some(tea_core::Precision::Mixed);
            }
            _ => {}
        }
        job
    }

    #[test]
    fn repeated_decks_hit_the_cache_with_identical_results() {
        // six families at three tile sizes, twice over, on one worker so
        // this is the order the cache sees: every job differs from the
        // one before it in both family and size, so each hit reuses a
        // pooled solver after other jobs' operators and workspaces came
        // and went in between
        const SIZES: [usize; 3] = [16, 20, 24];
        let plan: Vec<(usize, usize)> = (0..36)
            .map(|i| {
                let j = i % 18;
                (j % 6, SIZES[(j + j / 6) % 3])
            })
            .collect();
        for pair in plan.windows(2) {
            assert!(pair[0].0 != pair[1].0 && pair[0].1 != pair[1].1);
        }
        let jobs: Vec<DeckJob> = plan.iter().map(|&(f, n)| family(f, n)).collect();
        let opts = ServeOptions {
            workers: 1,
            ..Default::default()
        };
        let cached = serve_decks(jobs.clone(), &opts);
        let cold = serve_decks(
            jobs,
            &ServeOptions {
                cache: false,
                ..opts
            },
        );

        for report in [&cached, &cold] {
            let stats = &report.stats;
            assert_eq!((stats.jobs, stats.failed), (36, 0));
            assert_eq!((stats.timeouts, stats.panics_recovered), (0, 0));
            assert!(stats.jobs_per_sec > 0.0);
            assert!(stats.p99_latency_s >= stats.p50_latency_s);
            for (i, o) in report.outcomes.iter().enumerate() {
                assert_eq!(o.job, i, "outcomes must come back in submission order");
                assert_eq!(o.attempts, 1);
            }
        }
        // 18 distinct setups: the first round misses, the second hits,
        // and a hit never prepares
        let pooled = cached.stats.cache;
        assert_eq!((pooled.hits, pooled.misses), (18, 18));
        assert_eq!(pooled.prepares, pooled.misses, "hits must not re-prepare");
        let cold_stats = cold.stats.cache;
        assert_eq!((cold_stats.hits, cold_stats.misses), (0, 36));
        assert_eq!(cold_stats.prepares, 36, "cold path prepares once per job");

        for (i, (a, b)) in cached.outcomes.iter().zip(&cold.outcomes).enumerate() {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            let what = format!("job {i} ({}, {:?})", a.solver, plan[i]);
            assert!(a.escalations.is_empty(), "{what}");
            assert_eq!(a.solver, b.solver, "{what}");
            let (out, want) = (&a.output, &b.output);
            assert_eq!(out.steps.len(), want.steps.len(), "{what}");
            for (sa, sb) in out.steps.iter().zip(&want.steps) {
                assert!(sa.converged, "{what}");
                assert_eq!(sa.iterations, sb.iterations, "{what}");
                assert_eq!(
                    sa.final_residual.to_bits(),
                    sb.final_residual.to_bits(),
                    "{what}"
                );
            }
            assert_eq!(
                out.final_u, want.final_u,
                "{what}: caching changed the field"
            );
            if a.solver == "auto" && i >= 18 {
                // a hit on `auto` inherits the winner its first job raced
                // for: the same decisions, no race of its own, and every
                // step a reuse on top of the first job's
                let (log, cold_log) = (a.tune.as_ref().unwrap(), b.tune.as_ref().unwrap());
                assert_eq!(log.decisions, cold_log.decisions, "{what}");
                assert_eq!(log.winner, cold_log.winner, "{what}");
                assert_eq!(log.reuses, cold_log.reuses + out.steps.len() as u64);
                let solved: u64 = out.steps.iter().map(|s| s.iterations).sum();
                assert_eq!(out.trace.outer_iterations, solved, "{what}: raced again");
                assert_eq!(out.trace.solver, want.trace.solver, "{what}");
            } else {
                assert_eq!(a.tune, b.tune, "{what}: tuning record");
                assert_eq!(out.trace, want.trace, "{what}: solve trace");
            }
        }
    }

    #[test]
    fn a_bad_deck_fails_its_job_only() {
        let mut jobs: Vec<DeckJob> = (0..5).map(|_| job(16, "cg", 1e-8)).collect();
        jobs[0].deck.control.solver = "warp".into();
        jobs[0].label = "bad.in".into();
        // these two each aborted the whole queue in the allocator (an
        // abort is not a panic, so nothing caught it): 320 GB of halo,
        // 16 TB of cells
        jobs[2].deck.control.ppcg_halo_depth = 100_000;
        jobs[2].label = "deep.in".into();
        jobs[3].deck.problem.x_cells = 99_999_999_999;
        jobs[3].label = "wide.in".into();
        // this one held its worker for the whole iteration budget, or
        // until its deadline
        jobs[4].deck.control.opts.eps = f64::NAN;
        jobs[4].label = "nan.in".into();
        let opts = ServeOptions {
            retries: 2,
            ..Default::default()
        };
        let report = serve_decks(jobs, &opts);
        assert_eq!(report.stats.failed, 4);
        assert_eq!(
            (report.stats.retries, report.stats.panics_recovered),
            (0, 0)
        );
        for (i, label, names) in [
            (0, "bad.in:", "warp"),
            (2, "deep.in:", "tl_ppcg_halo_depth"),
            (3, "wide.in:", "99999999999 x 16 cells"),
            (4, "nan.in:", "tl_eps"),
        ] {
            let err = report.outcomes[i].result.as_ref().unwrap_err();
            assert!(matches!(err, JobError::Failed { .. }), "{err:?}");
            assert!(err.to_string().starts_with(label), "{err}");
            assert!(err.to_string().contains(names), "{err}");
            assert_eq!(report.outcomes[i].attempts, 1, "a bad deck is not retried");
        }
        assert!(report.outcomes[1].result.is_ok());
    }

    #[test]
    fn a_zero_deadline_times_every_job_out_without_retrying() {
        // the solver really observes the handle: each job's first solve
        // is cancelled at its first iteration boundary
        let jobs: Vec<DeckJob> = (0..3).map(|_| job(20, "cg", 1e-8)).collect();
        let report = serve_decks(
            jobs,
            &ServeOptions {
                workers: 2,
                deadline: Some(std::time::Duration::ZERO),
                retries: 3,
                ..Default::default()
            },
        );
        assert_eq!(report.stats.failed, 3);
        assert_eq!(report.stats.timeouts, 3);
        assert_eq!(report.stats.retries, 0, "timeouts must not be retried");
        for o in &report.outcomes {
            assert_eq!(o.result.as_ref().unwrap_err(), &JobError::TimedOut);
            assert_eq!(o.attempts, 1);
        }
        assert_eq!(
            report.stats.cache.prepares, 0,
            "cancelled sessions are dropped"
        );
    }

    #[test]
    fn divergence_on_every_rung_reports_the_whole_ladder() {
        // b = ρ·e overflows to +inf, so every rung's initial residual is
        // non-finite: the job must try cg_f32 → mixed_cg → cg and report
        // the full attempt history
        let mut jobs = vec![
            job(16, "cg", 1e-8),
            job(16, "amg", 1e-8),
            job(16, "cg", 1e-8),
        ];
        jobs[0].deck.control.precision = Some(tea_core::Precision::F32);
        jobs[0].deck.problem.states[0].energy = 1e308;
        // a time step that leaves AMG's coarse operator numerically
        // singular used to panic in its Cholesky; `amg` has no rung below
        jobs[1].deck.control.dt = 1e300;
        let report = serve_decks(jobs, &ServeOptions::default());
        assert_eq!(report.stats.failed, 2);
        assert_eq!(report.stats.panics_recovered, 0);
        assert_eq!(
            report.outcomes[0].result.as_ref().unwrap_err(),
            &JobError::Diverged {
                iteration: 0,
                attempts: vec!["cg_f32".into(), "mixed_cg".into(), "cg".into()],
            }
        );
        assert_eq!(
            report.outcomes[1].result.as_ref().unwrap_err(),
            &JobError::Diverged {
                iteration: 0,
                attempts: vec!["amg".into()],
            }
        );
        assert!(report.outcomes[2].result.is_ok());
    }

    #[test]
    fn a_poisoned_solve_degrades_along_the_ladder() {
        // Arm a plan that NaN-poisons every job at iteration 2. The
        // first rung must diverge, the escalated clean re-solve must
        // recover, and the outcome must record the abandoned rung.
        let mut jobs = vec![job(16, "cg", 1e-8)];
        jobs[0].deck.control.precision = Some(tea_core::Precision::F32);
        let plan = FaultPlan::serving(0, 1.0);
        // find a seed/job assignment that poisons job 0 (seed chosen so
        // fault_for(0) is PoisonNan; scan a few seeds to stay robust to
        // hash details)
        let plan = (0..64)
            .map(|s| FaultPlan::serving(s, 1.0))
            .find(|p| matches!(p.fault_for(0), Some(FaultKind::PoisonNan { .. })))
            .unwrap_or(plan);
        let report = serve_decks_with_plan(jobs, &ServeOptions::default(), Some(&plan));
        assert_eq!(report.stats.failed, 0, "the ladder must recover the job");
        let out = report.outcomes[0].result.as_ref().unwrap();
        assert_eq!(out.escalations, vec!["cg_f32".to_string()]);
        assert_eq!(out.solver, "mixed_cg");
        assert!(out.output.steps.iter().all(|s| s.converged));
    }

    #[test]
    fn an_injected_panic_recovers_on_retry() {
        let jobs = vec![job(16, "cg", 1e-8)];
        let plan = (0..64)
            .map(|s| FaultPlan::serving(s, 1.0))
            .find(|p| matches!(p.fault_for(0), Some(FaultKind::PanicWorker)))
            .expect("some seed panics job 0");
        // without retries the panic is the outcome
        let report = serve_decks_with_plan(
            jobs.clone(),
            &ServeOptions {
                workers: 1,
                ..Default::default()
            },
            Some(&plan),
        );
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.panics_recovered, 1);
        assert!(matches!(
            report.outcomes[0].result,
            Err(JobError::Panicked { .. })
        ));
        // with a retry budget the clean second attempt succeeds
        let report = serve_decks_with_plan(
            jobs,
            &ServeOptions {
                workers: 1,
                retries: 1,
                ..Default::default()
            },
            Some(&plan),
        );
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.retries, 1);
        assert_eq!(report.outcomes[0].attempts, 2);
        assert!(report.outcomes[0].result.is_ok());
    }

    #[test]
    fn chaos_outcomes_are_identical_at_any_worker_count() {
        // Determinism and recovery under chaos. A mixed queue — three
        // sizes, one or two steps, every third job at tl_precision=f32
        // (poisoned, it degrades along cg_f32 → mixed_cg → cg) — drains
        // once clean and then under the same seeded plan at 1, 2 and 4
        // workers: no job is lost or fails, the per-job outcomes are
        // identical at every worker count, every injected panic is
        // caught and counted, and the jobs the plan left alone match
        // the clean run to the bit.
        let jobs: Vec<DeckJob> = (0..24)
            .map(|i| {
                let mut job = job(12 + 4 * (i % 3), "cg", 1e-6);
                job.deck.control.end_step = 1 + (i % 2) as u64;
                if i % 3 == 0 {
                    job.deck.control.precision = Some(tea_core::Precision::F32);
                }
                job
            })
            .collect();
        let plan = FaultPlan::serving(42, 0.4);
        let drain = |workers: usize, plan: Option<&FaultPlan>| {
            let opts = ServeOptions {
                workers,
                retries: 2,
                ..Default::default()
            };
            let report = serve_decks_with_plan(jobs.clone(), &opts, plan);
            assert_eq!(report.outcomes.len(), jobs.len(), "no lost jobs");
            assert_eq!(report.stats.failed, 0, "retry + ladder absorb this mix");
            let outcomes: Vec<_> = report
                .outcomes
                .iter()
                .map(|o| {
                    let out = o.result.as_ref().expect("no job fails");
                    let steps: Vec<_> = out.output.steps.iter().map(|s| s.iterations).collect();
                    let u = out.output.final_u.as_ref().expect("the field is kept");
                    let bits: Vec<u64> = u.raw().iter().map(|x| x.to_bits()).collect();
                    (out.solver.clone(), out.escalations.clone(), steps, bits)
                })
                .collect();
            (outcomes, report.stats.panics_recovered)
        };
        let (clean, clean_panics) = drain(1, None);
        assert_eq!(clean_panics, 0);
        let w1 = drain(1, Some(&plan));
        assert_eq!(w1, drain(2, Some(&plan)), "1 vs 2 workers");
        assert_eq!(w1, drain(4, Some(&plan)), "1 vs 4 workers");

        let (chaos, panics_recovered) = w1;
        let faults: Vec<_> = (0..jobs.len()).map(|j| plan.fault_for(j)).collect();
        // each PanicWorker fault fires exactly once, on attempt 0
        let panics = faults
            .iter()
            .filter(|f| matches!(f, Some(FaultKind::PanicWorker)))
            .count() as u64;
        assert!(panics > 0, "the plan must panic at least one worker");
        assert_eq!(panics_recovered, panics, "nothing else panicked");
        let degraded = chaos.iter().filter(|o| !o.1.is_empty()).count();
        assert!(degraded > 0, "a poisoned f32 job must walk the ladder");
        for (j, fault) in faults.iter().enumerate() {
            if fault.is_none() {
                assert_eq!(chaos[j], clean[j], "unfaulted job {j} vs the clean run");
            }
        }
    }
}
