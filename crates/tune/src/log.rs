//! The [`TuneLog`]: an auditable record of every tuning decision.
//!
//! The tuner never decides silently: each candidate it skips, races,
//! rejects, adopts or escalates away from becomes a [`TuneDecision`],
//! and the log travels out of the solve through
//! [`tea_core::IterativeSolver::take_diagnostics`] into run summaries,
//! serve outcomes and the bench reports.

use crate::monitor::Verdict;

/// What the tuner did about one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneAction {
    /// Ran a trial solve; `cost` is `iterations ×` the candidate's
    /// bytes-per-iteration prior.
    Raced {
        /// Iterations the trial used (capped by the best cost so far).
        iterations: u64,
        /// Modelled cost of the trial.
        cost: f64,
    },
    /// Never ran: the cost cap implied by the best candidate so far is
    /// below the minimum iterations at which this method could even
    /// report (its eigen-estimation presteps).
    SkippedByPrior,
    /// Adopted as the cheapest converged candidate so far.
    Selected {
        /// Modelled cost at adoption time.
        cost: f64,
    },
    /// Abandoned (by the serving layer) in favour of the next precision
    /// rung of the same family.
    Escalated {
        /// Solver escalated away from.
        from: String,
        /// Solver escalated to.
        to: String,
    },
}

/// One entry of the [`TuneLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct TuneDecision {
    /// Candidate label (see [`crate::Candidate::label`]).
    pub candidate: String,
    /// How the trajectory/result read at decision time.
    pub verdict: Verdict,
    /// What was done about it.
    pub action: TuneAction,
}

impl std::fmt::Display for TuneDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.action {
            TuneAction::Raced { iterations, cost } => write!(
                f,
                "raced {:<16} {:?} in {} iters (cost {:.3e})",
                self.candidate, self.verdict, iterations, cost
            ),
            TuneAction::SkippedByPrior => {
                write!(f, "skip  {:<16} prior cannot beat best", self.candidate)
            }
            TuneAction::Selected { cost } => {
                write!(f, "pick  {:<16} cost {:.3e}", self.candidate, cost)
            }
            TuneAction::Escalated { from, to } => {
                write!(f, "esc   {from} -> {to}")
            }
        }
    }
}

/// The full decision record of one tuning run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TuneLog {
    /// Seed the candidate order was derived from.
    pub seed: u64,
    /// Every decision, in the order it was made.
    pub decisions: Vec<TuneDecision>,
    /// Label of the adopted winner, if any candidate converged.
    pub winner: Option<String>,
    /// Solves served by the adopted winner after the race.
    pub reuses: u64,
}

impl TuneLog {
    /// Candidate labels that actually ran a trial, in race order.
    pub fn raced(&self) -> Vec<&str> {
        self.decisions
            .iter()
            .filter(|d| matches!(d.action, TuneAction::Raced { .. }))
            .map(|d| d.candidate.as_str())
            .collect()
    }

    /// One human-readable line per decision plus a winner line, for
    /// run summaries and the serve CLI.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .decisions
            .iter()
            .map(|d| format!("tune: {d}"))
            .collect();
        match &self.winner {
            Some(w) => lines.push(format!(
                "tune: winner {w} (seed {}, reused {}x)",
                self.seed, self.reuses
            )),
            None => lines.push(format!("tune: no candidate converged (seed {})", self.seed)),
        }
        lines
    }
}

impl std::fmt::Display for TuneLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for line in self.summary_lines() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneLog {
        TuneLog {
            seed: 9,
            decisions: vec![
                TuneDecision {
                    candidate: "cg_f32".into(),
                    verdict: Verdict::Stalling { since: 120 },
                    action: TuneAction::Raced {
                        iterations: 120,
                        cost: 120.0 * 88.0,
                    },
                },
                TuneDecision {
                    candidate: "cg".into(),
                    verdict: Verdict::Converged { iterations: 80 },
                    action: TuneAction::Raced {
                        iterations: 80,
                        cost: 80.0 * 176.0,
                    },
                },
                TuneDecision {
                    candidate: "cg".into(),
                    verdict: Verdict::Converged { iterations: 80 },
                    action: TuneAction::Selected { cost: 80.0 * 176.0 },
                },
                TuneDecision {
                    candidate: "ppcg@d8".into(),
                    verdict: Verdict::Pending,
                    action: TuneAction::SkippedByPrior,
                },
            ],
            winner: Some("cg".into()),
            reuses: 3,
        }
    }

    #[test]
    fn raced_filters_to_trials_in_order() {
        assert_eq!(sample().raced(), vec!["cg_f32", "cg"]);
    }

    #[test]
    fn summary_names_winner_seed_and_reuses() {
        let text = sample().to_string();
        assert!(text.contains("winner cg (seed 9, reused 3x)"), "{text}");
        assert!(text.contains("raced cg_f32"), "{text}");
        assert!(text.contains("skip  ppcg@d8"), "{text}");
    }

    #[test]
    fn empty_log_reports_no_winner() {
        let text = TuneLog::default().to_string();
        assert!(text.contains("no candidate converged"), "{text}");
    }
}
