//! Tuning policy: the race bookkeeping ([`TuneState`]) and the
//! precision-escalation ladder ([`EscalationPolicy`]).
//!
//! [`TuneState`] owns everything about a candidate race except the
//! solves themselves: the planned candidate order, the best cost so
//! far, the cost caps that early-abandon expensive candidates, and the
//! [`TuneLog`]. The `auto` pseudo-solver drives it; the serving layer
//! consults [`EscalationPolicy`] for the same `f32 → mixed → f64`
//! ladder it used to hardcode.

use crate::log::{TuneAction, TuneDecision, TuneLog};
use crate::monitor::{classify_result, Verdict};
use crate::search::{plan_candidates, Candidate};
use tea_core::{Precision, SolveResult, SolverParams, SolverRegistry};

/// The next rung of the graceful-degradation ladder for `name`:
/// reduced-precision methods escalate towards the full-`f64` member of
/// their family (`cg_f32 → mixed_cg → cg`), full-precision methods
/// have nowhere further to go.
fn next_precision_rung(name: &str, registry: &SolverRegistry) -> Option<String> {
    let meta = registry.resolve(name).ok()?;
    let target = match meta.precision {
        Precision::F32 => Precision::Mixed,
        Precision::Mixed => Precision::F64,
        Precision::F64 => return None,
    };
    Some(registry.route(name, target).ok()?.name.to_string())
}

/// The precision-escalation policy a serving scheduler walks when a
/// solve diverges: reduced-precision methods escalate towards the
/// full-`f64` member of their family, each step recorded as a
/// [`TuneDecision`].
#[derive(Debug, Clone, Copy)]
pub struct EscalationPolicy<'r> {
    registry: &'r SolverRegistry,
}

impl<'r> EscalationPolicy<'r> {
    /// A policy escalating within `registry`'s solver set.
    pub fn new(registry: &'r SolverRegistry) -> Self {
        EscalationPolicy { registry }
    }

    /// The solver to try after `failed` diverged (`None` when the
    /// ladder is exhausted), recording the step — with the iteration
    /// the divergence was detected at — into `log`.
    pub fn escalate(&self, failed: &str, diverged_at: u64, log: &mut TuneLog) -> Option<String> {
        let to = next_precision_rung(failed, self.registry)?;
        log.decisions.push(TuneDecision {
            candidate: failed.to_string(),
            verdict: Verdict::Diverging {
                iteration: diverged_at,
            },
            action: TuneAction::Escalated {
                from: failed.to_string(),
                to: to.clone(),
            },
        });
        Some(to)
    }
}

/// Bookkeeping for one candidate race: planned order, best cost, cost
/// caps, and the decision log. The solves themselves are driven by
/// the `auto` pseudo-solver.
#[derive(Debug, Clone)]
pub struct TuneState {
    candidates: Vec<Candidate>,
    /// The decision record (public: the driver surfaces it).
    pub log: TuneLog,
    best_cost: f64,
}

impl TuneState {
    /// Plans the race: candidates from `registry` ordered by the bytes
    /// prior, seeded by `params.tune_seed`.
    pub fn plan(registry: &SolverRegistry, params: &SolverParams) -> Self {
        let seed = params.tune_seed;
        TuneState {
            candidates: plan_candidates(registry, params, seed),
            log: TuneLog {
                seed,
                ..TuneLog::default()
            },
            best_cost: f64::INFINITY,
        }
    }

    /// The planned candidates in race order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Iteration cap for a trial of `candidate`: the caller's
    /// `max_iters`, tightened so the trial is abandoned once it costs
    /// more than the best candidate so far.
    pub fn trial_cap(&self, candidate: &Candidate, max_iters: u64) -> u64 {
        if self.best_cost.is_finite() {
            let by_cost = (self.best_cost / candidate.bytes_per_iteration).floor() as u64;
            by_cost.min(max_iters)
        } else {
            max_iters
        }
    }

    /// The fewest iterations at which a trial of `candidate` could
    /// possibly converge and report: eigen-estimating methods must
    /// finish their CG-Lanczos presteps first.
    pub fn min_useful_iters(candidate: &Candidate, presteps: u64) -> u64 {
        if candidate.needs_eigen_estimate {
            presteps + 2
        } else {
            2
        }
    }

    /// Records that `candidate` was skipped because its cap is below
    /// its minimum useful iterations.
    pub fn record_skip(&mut self, candidate: &Candidate) {
        self.log.decisions.push(TuneDecision {
            candidate: candidate.label(),
            verdict: Verdict::Pending,
            action: TuneAction::SkippedByPrior,
        });
    }

    /// Records a finished trial of candidate `idx` (run under iteration
    /// cap `cap`) and adopts it when it converged strictly cheaper than
    /// the best so far. Returns whether it was adopted.
    pub fn record_trial(&mut self, idx: usize, result: &SolveResult, cap: u64) -> bool {
        let candidate = &self.candidates[idx];
        let verdict = classify_result(result, cap);
        let cost = result.iterations as f64 * candidate.bytes_per_iteration;
        let label = candidate.label();
        self.log.decisions.push(TuneDecision {
            candidate: label.clone(),
            verdict,
            action: TuneAction::Raced {
                iterations: result.iterations,
                cost,
            },
        });
        let adopt = result.converged && cost < self.best_cost;
        if adopt {
            self.best_cost = cost;
            self.log.decisions.push(TuneDecision {
                candidate: label.clone(),
                verdict,
                action: TuneAction::Selected { cost },
            });
            self.log.winner = Some(label);
        }
        adopt
    }

    /// Records one post-race solve served by the adopted winner.
    pub fn record_reuse(&mut self) {
        self.log.reuses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_core::{SolveStatus, SolveTrace};

    fn converged(iterations: u64) -> SolveResult {
        SolveResult {
            converged: true,
            iterations,
            initial_residual: 1.0,
            final_residual: 1e-12,
            status: SolveStatus::Converged,
            trace: SolveTrace::new("test"),
        }
    }

    #[test]
    fn ladder_matches_the_historic_serve_ladder() {
        let reg = SolverRegistry::builtin();
        assert_eq!(
            next_precision_rung("cg_f32", &reg).as_deref(),
            Some("mixed_cg")
        );
        assert_eq!(next_precision_rung("mixed_cg", &reg).as_deref(), Some("cg"));
        assert_eq!(next_precision_rung("cg", &reg), None);
        assert_eq!(
            next_precision_rung("mixed_ppcg", &reg).as_deref(),
            Some("ppcg")
        );
        assert_eq!(
            next_precision_rung("mixed_chebyshev", &reg).as_deref(),
            Some("chebyshev")
        );
        assert_eq!(next_precision_rung("nonsense", &reg), None);
    }

    #[test]
    fn a_registered_variant_joins_its_family() {
        // an `f32` entry of the `ppcg` family: routing, the escalation
        // ladder and the audit read it from its registry entry alone
        let mut reg = SolverRegistry::builtin();
        let meta = *reg.resolve("ppcg").unwrap();
        reg.register(
            tea_core::SolverMeta {
                name: "ppcg_f32",
                aliases: &[],
                precision: Precision::F32,
                ..meta
            },
            |_, p| SolverRegistry::builtin().create("ppcg", p).expect("ppcg"),
        );
        assert_eq!(reg.route("cppcg", Precision::F32).unwrap().name, "ppcg_f32");
        let policy = EscalationPolicy::new(&reg);
        let mut log = TuneLog::default();
        let mut ladder = vec!["ppcg_f32".to_string()];
        while let Some(to) = policy.escalate(ladder.last().unwrap(), 0, &mut log) {
            ladder.push(to);
        }
        assert_eq!(ladder, ["ppcg_f32", "mixed_ppcg", "ppcg"]);
        assert_eq!(reg.audit(), Vec::<String>::new());
    }

    #[test]
    fn escalation_is_recorded_in_the_log() {
        let reg = SolverRegistry::builtin();
        let policy = EscalationPolicy::new(&reg);
        let mut log = TuneLog::default();
        let to = policy.escalate("cg_f32", 17, &mut log).unwrap();
        assert_eq!(to, "mixed_cg");
        assert_eq!(log.decisions.len(), 1);
        assert_eq!(
            log.decisions[0].action,
            TuneAction::Escalated {
                from: "cg_f32".into(),
                to: "mixed_cg".into()
            }
        );
        assert!(policy.escalate("cg", 0, &mut log).is_none());
        assert_eq!(log.decisions.len(), 1, "exhausted ladder logs nothing");
    }

    #[test]
    fn cost_cap_tightens_once_a_winner_exists() {
        let reg = SolverRegistry::builtin();
        let mut state = TuneState::plan(&reg, &SolverParams::default());
        let cheap = state
            .candidates()
            .iter()
            .position(|c| c.solver == "cg")
            .unwrap();
        let expensive_label = "ppcg@d8";
        let expensive = state.candidates()[state
            .candidates()
            .iter()
            .position(|c| c.label() == expensive_label)
            .unwrap()]
        .clone();
        assert_eq!(state.trial_cap(&expensive, 10_000), 10_000, "no cap yet");
        assert!(state.record_trial(cheap, &converged(50), 10_000));
        let cap = state.trial_cap(&expensive, 10_000);
        assert!(cap < 50, "ppcg moves >1x cg bytes per iteration, cap {cap}");
        assert!(state.best_cost.is_finite());
        assert_eq!(state.log.winner.as_deref(), Some("cg"));
    }

    #[test]
    fn cheaper_winner_replaces_and_rejection_does_not() {
        let reg = SolverRegistry::builtin();
        let mut state = TuneState::plan(&reg, &SolverParams::default());
        let cg = state
            .candidates()
            .iter()
            .position(|c| c.solver == "cg")
            .unwrap();
        let cheby = state
            .candidates()
            .iter()
            .position(|c| c.solver == "chebyshev")
            .unwrap();
        assert!(state.record_trial(cg, &converged(100), 10_000));
        // chebyshev at 144 B/iter for 70 iters is cheaper than cg at 112
        // for 100
        assert!(state.record_trial(cheby, &converged(70), 10_000));
        assert_eq!(state.log.winner.as_deref(), Some("chebyshev"));
        // a non-converged trial never replaces
        let failed = SolveResult {
            converged: false,
            status: SolveStatus::IterationLimit,
            ..converged(10)
        };
        assert!(!state.record_trial(cg, &failed, 10));
        assert_eq!(state.log.winner.as_deref(), Some("chebyshev"));
    }

    #[test]
    fn min_useful_iters_respects_eigen_preludes() {
        let c = Candidate {
            solver: "chebyshev".into(),
            halo_depth: 1,
            bytes_per_iteration: 144.0,
            needs_eigen_estimate: true,
        };
        assert_eq!(TuneState::min_useful_iters(&c, 30), 32);
        let plain = Candidate {
            needs_eigen_estimate: false,
            ..c
        };
        assert_eq!(TuneState::min_useful_iters(&plain, 30), 2);
    }
}
