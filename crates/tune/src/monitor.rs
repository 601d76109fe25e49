//! Trial classification: what a finished solve's residuals say about
//! it. The tuner reads only the two ends of a trial — initial and final
//! residual under the cap it ran with — and turns them into a
//! [`Verdict`] for the [`crate::TuneLog`].

use tea_core::{SolveResult, SolveStatus};

/// What a residual trajectory is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing to classify: a trial not run yet, or cancelled mid-way.
    Pending,
    /// Shrinking geometrically; `projected_iterations` estimates the
    /// total iteration count at which the target tolerance is reached.
    Converging {
        /// Projected total iterations to tolerance.
        projected_iterations: u64,
    },
    /// Reached the target tolerance.
    Converged {
        /// Iteration at which the target was met.
        iterations: u64,
    },
    /// No meaningful improvement — the run has hit a round-off floor or
    /// lost its descent direction.
    Stalling {
        /// Iteration at which the stall was declared.
        since: u64,
    },
    /// Non-finite residual or solver breakdown.
    Diverging {
        /// Iteration at which divergence was detected.
        iteration: u64,
    },
}

/// Two-point geometric projection of the total iterations a capped
/// trial needs to drive its residual to the smallest positive `f64`
/// multiple of the initial one. `None` while the trajectory is flat,
/// growing or degenerate.
fn projected_iterations(result: &SolveResult) -> Option<u64> {
    let (n, r0, r1) = (
        result.iterations,
        result.initial_residual,
        result.final_residual,
    );
    if n == 0 || r0 <= 0.0 || r1 <= 0.0 {
        return None;
    }
    let rate = (r1 / r0).powf(1.0 / n as f64);
    if !(rate > 0.0 && rate < 1.0) {
        return None;
    }
    let target = f64::MIN_POSITIVE * r0;
    if r1 <= target {
        return Some(n);
    }
    let remaining = (target / r1).ln() / rate.ln();
    // saturating: a target that underflows to zero projects +inf
    Some(n.saturating_add(remaining.ceil() as u64))
}

/// Classifies a completed [`SolveResult`]. `max_iters` is the cap the
/// solve ran under: a run that gave up *before* the cap without
/// converging hit an internal stagnation guard, which the tuner treats
/// as stalling.
pub fn classify_result(result: &SolveResult, max_iters: u64) -> Verdict {
    match result.status {
        SolveStatus::Converged => Verdict::Converged {
            iterations: result.iterations,
        },
        SolveStatus::Diverged { iteration } => Verdict::Diverging { iteration },
        SolveStatus::Cancelled { .. } => Verdict::Pending,
        SolveStatus::IterationLimit => {
            let reduced =
                result.iterations >= max_iters && result.final_residual < result.initial_residual;
            match reduced.then(|| projected_iterations(result)).flatten() {
                Some(projected_iterations) => Verdict::Converging {
                    projected_iterations,
                },
                None => Verdict::Stalling {
                    since: result.iterations,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_core::SolveTrace;

    fn capped(iterations: u64, initial_residual: f64, final_residual: f64) -> SolveResult {
        SolveResult {
            converged: false,
            iterations,
            initial_residual,
            final_residual,
            status: SolveStatus::IterationLimit,
            trace: SolveTrace::new("trial"),
        }
    }

    #[test]
    fn capped_trials_classify_as_the_trajectory_monitor_did() {
        // verdicts recorded through the online trajectory monitor at
        // the commit before it was retired
        let converging = |projected_iterations| Verdict::Converging {
            projected_iterations,
        };
        for (n, r0, r1, verdict) in [
            (50, 1.0, 0.25, converging(25551)),
            (12, 3.5e-2, 1.25e-7, converging(678)),
            (400, 7.25, 7.249999, converging(2054349466220)),
            (50, 1.0, 1.0, Verdict::Stalling { since: 50 }),
            (50, 1.0, 2.0, Verdict::Stalling { since: 50 }),
            (
                40,
                1.0,
                0.999_999_999_999_999_9,
                Verdict::Stalling { since: 40 },
            ),
            (8, 1e300, 1e-300, Verdict::Stalling { since: 8 }),
            (10, f64::INFINITY, 1.0, Verdict::Stalling { since: 10 }),
            (5, 2.0, 0.0, Verdict::Stalling { since: 5 }),
        ] {
            assert_eq!(
                classify_result(&capped(n, r0, r1), n),
                verdict,
                "{n} {r0} {r1}"
            );
        }
        // gave up before its cap: an internal stagnation guard fired
        assert_eq!(
            classify_result(&capped(30, 1.0, 0.25), 50),
            Verdict::Stalling { since: 30 }
        );
        // an initial residual so small the target underflows to zero
        // (the monitor overflowed `u64` here: a debug-build panic)
        assert_eq!(
            classify_result(&capped(30, 1e-300, 1e-320), 30),
            converging(u64::MAX)
        );
    }
}
