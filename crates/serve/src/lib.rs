//! # tea-serve — a batched multi-solve scheduler
//!
//! TeaLeaf's driver runs one deck at a time. Parameter sweeps,
//! ensemble studies and regression farms run *many* — most of them
//! near-duplicates — and the per-solve setup tax (preconditioner
//! assembly, `f32` operator images, AMG's multigrid hierarchy, `auto`'s
//! candidate race) dominates once the solves themselves are small.
//! This crate adds the missing middle layer: a work queue that drains
//! independent solve jobs over a pool of worker threads. The jobs' run
//! function checks [`tea_core::SolveSession`]s out of a keyed
//! [`tea_core::SetupCache`] and back in. The cache pools only the
//! prepared solver — each job brings its own operator, workspace and
//! density — so a repeated setup skips preparation entirely without the
//! pool holding what every job re-creates anyway (on the benchmark's
//! `serve_mix`, 3.4 MiB of pooled heap where whole sessions held
//! 14.5 MiB).
//!
//! One entry point: [`serve_with`], the generic scheduler — any job
//! type, any run function. The deck-serving layer in `tea-app`
//! (`serve_decks`, and the `tealeaf --serve` CLI on top of it) is the
//! run function that ships.
//!
//! Every serve returns a [`ServeReport`]: per-job outcomes in
//! submission order plus [`QueueStats`] — throughput, latency
//! percentiles, recovery counters, and the cache's hit/miss/prepare
//! counters.
//!
//! ## Fault tolerance
//!
//! A serving queue fed from untrusted job lists must survive anything
//! a single job does:
//!
//! * **Panic isolation** — each attempt runs under
//!   [`std::panic::catch_unwind`]; a panicking job records a
//!   [`JobError::Panicked`] outcome (and bumps
//!   [`QueueStats::panics_recovered`]) instead of killing its worker
//!   or poisoning the queue. All queue locks are poison-tolerant.
//! * **Deadlines** — [`ServeOptions::deadline`] arms a fresh
//!   [`tea_core::StopHandle`] per attempt; solvers observe it at every
//!   outer iteration and return a `Cancelled` status, which the queue
//!   reports as [`JobError::TimedOut`]. Timeouts are terminal (never
//!   retried), so a job's wall clock stays bounded.
//! * **Bounded retry** — transient failures (`JobError::is_transient`:
//!   panics and divergence) are retried up to [`ServeOptions::retries`]
//!   times with a small backoff; [`QueueStats::retries`] counts the
//!   re-runs. The attempt index reaches the run function through
//!   [`JobCtx`], so deterministic fault injectors can arm themselves on
//!   the first attempt only.
//! * **Graceful degradation** — lives with the run function, not the
//!   queue: `tea_app::serve_decks_with_plan` escalates a deck whose
//!   solve ends `Diverged` along the precision ladder
//!   (`cg_f32 → mixed_cg → cg`), recording each abandoned rung in its
//!   outcome (or, if every rung diverges, in [`JobError::Diverged`]'s
//!   attempt history). Diverged or cancelled sessions are dropped,
//!   never checked back into the pool.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tea_core::{lock_tolerant, CacheStats, StopHandle};

/// How a serve runs: worker count, caching, deadlines and retry policy.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Concurrent jobs in flight (worker threads draining the queue).
    /// `0` means one per available core.
    pub workers: usize,
    /// Ignored: a job's kernels run on its worker's thread, so a
    /// serve's parallelism is [`ServeOptions::workers`]. Kept because
    /// the repository benchmark (`benchmark/src/serverun.rs`) sets it.
    pub threads_per_job: Option<usize>,
    /// Whether to pool prepared solvers in a [`tea_core::SetupCache`]
    /// across jobs.
    /// Disabling it makes every job build (and prepare) cold — the
    /// baseline `tea-app`'s cache tests compare the cached drain against.
    pub cache: bool,
    /// Wall-clock budget per attempt. Solvers check the armed
    /// [`StopHandle`] at every outer iteration; an expired attempt
    /// reports [`JobError::TimedOut`] and is not retried. `None` (the
    /// default) never arms a deadline.
    pub deadline: Option<Duration>,
    /// Extra attempts for transient failures (panics, divergence).
    /// `0` (the default) fails on first error, exactly like the old
    /// behaviour.
    pub retries: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            threads_per_job: None,
            cache: true,
            deadline: None,
            retries: 0,
        }
    }
}

impl ServeOptions {
    /// The worker count after resolving `0` to the core count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Why a job failed, as a typed classification rather than a string —
/// the chaos bench and the retry policy both dispatch on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's code panicked; the worker caught it and moved on.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The attempt's deadline expired and the solve was cancelled.
    TimedOut,
    /// The solve produced a non-finite residual on every available
    /// precision rung.
    Diverged {
        /// Outer iteration at which the last rung detected divergence.
        iteration: u64,
        /// Every solver tried, in escalation order.
        attempts: Vec<String>,
    },
    /// Anything else: malformed problem, unknown solver, ...
    Failed {
        /// Human-readable cause.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::TimedOut => write!(f, "job deadline expired"),
            JobError::Diverged {
                iteration,
                attempts,
            } => write!(
                f,
                "solve diverged at iteration {iteration} (tried: {})",
                attempts.join(" → ")
            ),
            JobError::Failed { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    /// Whether a retry could plausibly succeed. Panics and divergence
    /// are transient (a deterministic fault injector arms only the
    /// first attempt; a diverged solve may recover on re-run from the
    /// clean warm start); timeouts and structural failures are not.
    fn is_transient(&self) -> bool {
        matches!(self, JobError::Panicked { .. } | JobError::Diverged { .. })
    }
}

/// Per-attempt context handed to the run function: the job's
/// submission index, which attempt this is (0 = first), and the
/// cancellation token the attempt must observe.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx<'a> {
    /// Index of the job in the submitted list.
    pub job: usize,
    /// 0 on the first attempt, incremented per retry.
    pub attempt: u32,
    /// Cancellation/deadline token for this attempt. Arm every solve of
    /// the attempt with it ([`tea_core::SolveControls::stopping`], handed
    /// to each [`tea_core::SolveSession::solve_controlled`], the one
    /// road every solve takes — the app's serving driver does this per
    /// time step) so deadlines can interrupt the iteration loop; a
    /// cancelled solve ends `Ok` with status `Cancelled`, distinct from
    /// the session's refusals (`Err`).
    pub stop: &'a StopHandle,
}

/// One job's result: payload or typed error, plus its wall-clock
/// latency and how many attempts it took.
#[derive(Debug)]
// audit:allow(dead_pub) — element of `ServeReport::outcomes`, which tealeaf.rs and the serve.rs
// tests in tea-app walk
pub struct JobOutcome<T> {
    /// Index of the job in the submitted list.
    pub job: usize,
    /// The job's payload, or why it failed.
    pub result: Result<T, JobError>,
    /// Attempts consumed (1 = succeeded or failed terminally on the
    /// first try).
    pub attempts: u32,
    /// Seconds from checkout to completion, across all attempts.
    pub wall_s: f64,
}

/// Queue-level statistics for a completed serve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that returned an error outcome.
    pub failed: usize,
    /// Attempts that hit their deadline.
    pub timeouts: u64,
    /// Re-runs of transiently failed attempts.
    pub retries: u64,
    /// Panics caught and converted into outcomes.
    pub panics_recovered: u64,
    /// Wall-clock seconds for the whole drain.
    pub wall_s: f64,
    /// Completed jobs per second of drain time.
    pub jobs_per_sec: f64,
    /// Median per-job latency in seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile per-job latency in seconds.
    pub p99_latency_s: f64,
    /// Setup-cache counters (hits/misses/prepares). With caching off,
    /// hits are zero and every job counts a prepare.
    pub cache: CacheStats,
}

/// Everything a serve returns: outcomes in submission order + stats.
#[derive(Debug)]
pub struct ServeReport<T> {
    /// Per-job outcomes, sorted by submission index.
    pub outcomes: Vec<JobOutcome<T>>,
    /// Queue-level statistics.
    pub stats: QueueStats,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drains `jobs` through `run` on a pool of worker threads and reports
/// per-job outcomes plus queue statistics. `run` receives a [`JobCtx`]
/// (submission index, attempt number, stop token) and a reference to
/// the job; returning `Err` records a failed outcome without stopping
/// the queue.
///
/// Each attempt runs under `catch_unwind`: a panicking job is
/// converted into [`JobError::Panicked`] and the worker keeps
/// draining. Transient errors are retried up to
/// [`ServeOptions::retries`] times with a short backoff; each attempt
/// gets a fresh deadline from [`ServeOptions::deadline`].
///
/// `cache_stats` (when given) is folded into the report's
/// [`QueueStats::cache`] — callers running their jobs over a
/// [`tea_core::SetupCache`] pass its post-drain counters through this hook.
pub fn serve_with<J, T, F>(
    jobs: Vec<J>,
    opts: &ServeOptions,
    run: F,
    cache_stats: impl FnOnce() -> CacheStats,
) -> ServeReport<T>
where
    J: Sync,
    T: Send,
    F: Fn(JobCtx<'_>, &J) -> Result<T, JobError> + Sync,
{
    let total = jobs.len();
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..total).collect());
    let outcomes: Mutex<Vec<JobOutcome<T>>> = Mutex::new(Vec::with_capacity(total));
    let workers = opts.effective_workers().min(total.max(1));
    let timeouts = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let panics_recovered = AtomicU64::new(0);

    #[expect(
        clippy::disallowed_methods,
        reason = "the drain's wall time feeds QueueStats throughput, never a job's arithmetic"
    )]
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = lock_tolerant(&queue).pop_front();
                let Some(job) = next else {
                    break;
                };
                #[expect(
                    clippy::disallowed_methods,
                    reason = "per-job service time for the latency percentiles"
                )]
                let job_started = Instant::now();
                let mut attempt: u32 = 0;
                let result = loop {
                    let stop = match opts.deadline {
                        Some(budget) => StopHandle::with_deadline(budget),
                        None => StopHandle::disarmed(),
                    };
                    let ctx = JobCtx {
                        job,
                        attempt,
                        stop: &stop,
                    };
                    let err =
                        match std::panic::catch_unwind(AssertUnwindSafe(|| run(ctx, &jobs[job]))) {
                            Ok(Ok(payload)) => break Ok(payload),
                            Ok(Err(err)) => err,
                            Err(panic) => {
                                panics_recovered.fetch_add(1, Ordering::Relaxed);
                                JobError::Panicked {
                                    message: panic_message(panic),
                                }
                            }
                        };
                    if err == JobError::TimedOut {
                        timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    if err.is_transient() && attempt < opts.retries {
                        retries.fetch_add(1, Ordering::Relaxed);
                        attempt += 1;
                        // linear backoff, bounded: transient faults are
                        // injected or numerical, not contention, so a
                        // token pause suffices
                        std::thread::sleep(Duration::from_millis(u64::from(attempt.min(8))));
                        continue;
                    }
                    break Err(err);
                };
                let wall_s = job_started.elapsed().as_secs_f64();
                lock_tolerant(&outcomes).push(JobOutcome {
                    job,
                    result,
                    attempts: attempt + 1,
                    wall_s,
                });
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut outcomes = outcomes
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    outcomes.sort_by_key(|o| o.job);
    let mut latencies: Vec<f64> = outcomes.iter().map(|o| o.wall_s).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let failed = outcomes.iter().filter(|o| o.result.is_err()).count();

    let stats = QueueStats {
        jobs: total,
        failed,
        timeouts: timeouts.into_inner(),
        retries: retries.into_inner(),
        panics_recovered: panics_recovered.into_inner(),
        wall_s,
        jobs_per_sec: if wall_s > 0.0 {
            total as f64 / wall_s
        } else {
            0.0
        },
        p50_latency_s: percentile(&latencies, 50.0),
        p99_latency_s: percentile(&latencies, 99.0),
        cache: cache_stats(),
    };
    ServeReport { outcomes, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_is_isolated_and_counted() {
        let report = serve_with(
            vec![1usize, 2, 3],
            &ServeOptions {
                workers: 2,
                ..Default::default()
            },
            |ctx, &n| {
                if ctx.job == 1 {
                    panic!("injected worker panic on job {n}");
                }
                Ok::<usize, JobError>(n * 10)
            },
            CacheStats::default,
        );
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.panics_recovered, 1);
        assert_eq!(report.outcomes[0].result, Ok(10));
        assert_eq!(report.outcomes[2].result, Ok(30), "queue survives a panic");
        match report.outcomes[1].result.as_ref().unwrap_err() {
            JobError::Panicked { message } => {
                assert!(message.contains("injected worker panic"), "{message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn transient_failures_retry_and_recover() {
        // Job 0 panics on its first attempt only — the shape of a
        // deterministic fault injector — and must recover on retry.
        let report = serve_with(
            vec![0usize, 1],
            &ServeOptions {
                workers: 1,
                retries: 2,
                ..Default::default()
            },
            |ctx, &n| {
                if ctx.job == 0 && ctx.attempt == 0 {
                    panic!("flaky once");
                }
                Ok::<usize, JobError>(n)
            },
            CacheStats::default,
        );
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.panics_recovered, 1);
        assert_eq!(report.stats.retries, 1);
        assert_eq!(report.outcomes[0].result, Ok(0));
        assert_eq!(report.outcomes[0].attempts, 2);
        assert_eq!(report.outcomes[1].attempts, 1);
    }

    #[test]
    fn an_exhausted_retry_budget_reports_the_error() {
        let report = serve_with(
            vec![()],
            &ServeOptions {
                workers: 1,
                retries: 2,
                ..Default::default()
            },
            |_, ()| -> Result<(), JobError> { panic!("always down") },
            CacheStats::default,
        );
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.retries, 2);
        assert_eq!(report.stats.panics_recovered, 3, "each attempt panicked");
        assert_eq!(report.outcomes[0].attempts, 3);
        assert!(matches!(
            report.outcomes[0].result,
            Err(JobError::Panicked { .. })
        ));
    }

    #[test]
    fn a_zero_deadline_times_out_without_retrying() {
        // the job observes its stop token the way a solver loop does
        let report = serve_with(
            vec![(); 3],
            &ServeOptions {
                workers: 2,
                deadline: Some(Duration::ZERO),
                retries: 3,
                ..Default::default()
            },
            |ctx, ()| {
                if ctx.stop.should_stop() {
                    Err(JobError::TimedOut)
                } else {
                    Ok(())
                }
            },
            CacheStats::default,
        );
        assert_eq!(report.stats.failed, 3);
        assert_eq!(report.stats.timeouts, 3);
        assert_eq!(report.stats.retries, 0, "timeouts must not be retried");
        for o in &report.outcomes {
            assert_eq!(o.result.as_ref().unwrap_err(), &JobError::TimedOut);
            assert_eq!(o.attempts, 1);
        }
    }
}
