//! Determinism and golden tests for `tl_solver=auto` (tea-tune).
//!
//! The tuner's contract is that its decisions are a pure function of
//! the deck and the tune seed: wall-clock never enters the race, so
//! the same deck must produce a bit-identical [`tea_tune::TuneLog`]
//! and final field on every run and at any serve worker count. The golden test pins that on a well-conditioned deck the
//! race settles in the cheap plain-precision family without any
//! spurious precision-ladder escalation.

use proptest::prelude::*;
use tea_app::{crooked_pipe_deck, run_serial, serve_decks, Control, Deck, DeckJob};
use tea_mesh::{crooked_pipe_rect, Coefficient};
use tea_serve::ServeOptions;
use tea_tune::{plan_candidates, TuneAction};

fn auto_deck(n: usize, seed: u64, eps: f64) -> Deck {
    let mut deck = crooked_pipe_deck(n, "auto");
    deck.control = Control {
        solver: "auto".into(),
        end_step: 2,
        summary_frequency: 0,
        tune_seed: seed,
        ..Default::default()
    };
    deck.control.opts.eps = eps;
    deck
}

/// Bit-level digest of the final field, so "identical" means identical
/// to the last ulp, not approximately equal.
fn field_bits(out: &tea_app::RankOutput) -> Vec<u64> {
    out.final_u
        .as_ref()
        .expect("driver keeps the final field")
        .raw()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same deck + same tune seed ⇒ bit-identical tune log, iteration
    /// counts and final field on a second run.
    #[test]
    fn auto_is_deterministic_across_runs(seed in any::<u32>()) {
        let deck = auto_deck(16, u64::from(seed), 1e-8);
        let run = || {
            let out = run_serial(&deck).expect("auto deck runs");
            let iterations: Vec<u64> = out.steps.iter().map(|s| s.iterations).collect();
            (out.tune.clone(), iterations, field_bits(&out))
        };
        let (want, got) = (run(), run());
        prop_assert!(want.0.is_some(), "auto must leave a tune log");
        prop_assert_eq!(&got.0, &want.0, "tune log");
        prop_assert_eq!(&got.1, &want.1, "iterations");
        prop_assert_eq!(&got.2, &want.2, "final field");
    }
}

/// Same job list ⇒ identical per-job winners, tune logs and bit-exact
/// fields at 1, 2 and 4 serve workers. The jobs carry distinct setup
/// keys (different mesh sizes), so every job races independently of
/// queue scheduling order.
#[test]
fn auto_serve_outcomes_are_identical_at_any_worker_count() {
    let jobs: Vec<DeckJob> = [12usize, 16, 20, 24, 28, 32]
        .iter()
        .map(|&n| DeckJob {
            label: format!("auto-{n}"),
            deck: auto_deck(n, 7, 1e-8),
        })
        .collect();
    let outcomes = |workers: usize| {
        let report = serve_decks(
            jobs.clone(),
            &ServeOptions {
                workers,
                ..Default::default()
            },
        );
        assert_eq!(report.outcomes.len(), jobs.len(), "no lost jobs");
        report
            .outcomes
            .iter()
            .map(|o| {
                let out = o.result.as_ref().expect("auto jobs converge");
                (
                    out.solver.clone(),
                    out.escalations.clone(),
                    out.tune.clone(),
                    field_bits(&out.output),
                )
            })
            .collect::<Vec<_>>()
    };
    let w1 = outcomes(1);
    assert!(w1.iter().all(|(_, _, tune, _)| tune.is_some()));
    assert_eq!(w1, outcomes(2), "1 vs 2 workers");
    assert_eq!(w1, outcomes(4), "1 vs 4 workers");
}

/// Golden: on the well-conditioned crooked-pipe deck the race settles
/// on a cheap plain-precision method — never the round-off-limited
/// `cg_f32` at a tolerance it cannot reach, never a deep-halo
/// configuration this small problem doesn't need — and the precision
/// ladder records zero escalations.
#[test]
fn auto_settles_on_the_plain_family_without_escalation() {
    let out = run_serial(&auto_deck(16, 0, 1e-10)).expect("auto deck runs");
    assert!(
        out.steps.iter().all(|s| s.converged),
        "every step converges"
    );
    let tune = out.tune.expect("auto leaves a tune log");
    let winner = tune.winner.clone().expect("the race adopts a winner");
    assert!(
        ["cg", "mixed_cg", "chebyshev"].iter().any(|w| winner == *w),
        "winner {winner} must be a cheap plain-precision method"
    );
    assert!(
        !tune
            .decisions
            .iter()
            .any(|d| matches!(d.action, TuneAction::Escalated { .. })),
        "no spurious precision-ladder escalation: {tune}"
    );
    // `cg_f32` is registered but not tunable, so the race never plans
    // it and it cannot be the winner
    assert!(winner != "cg_f32");
}

/// `auto` finds the design point an exhaustive sweep would have found:
/// on six small decks that pull the best configuration in different
/// directions (loose tolerances favour reduced precision, deep halos
/// only pay on stretched meshes, the coefficient recipe and the material
/// contrast move the spectrum), the adopted winner's steady-state
/// modelled cost — last-step iterations × the prior's bytes per
/// iteration — is within 10 % of the cheapest converging candidate. The
/// slack is by design: the race judges a cold first solve, the sweep
/// scores the warm steady state.
#[test]
fn auto_lands_within_ten_percent_of_the_exhaustive_sweep() {
    const SEED: u64 = 42;
    let pipe = |n: usize, eps: f64| {
        let mut deck = auto_deck(n, SEED, eps);
        deck.control.end_step = 1;
        deck
    };
    let mut stretched = pipe(12, 1e-8);
    stretched.problem = crooked_pipe_rect(24, 12);
    let mut recip = pipe(12, 1e-8);
    recip.problem.coefficient = Coefficient::RecipConductivity;
    let mut contrast = pipe(12, 1e-8);
    for state in &mut contrast.problem.states {
        state.density *= 10.0;
    }
    let suite = [
        ("pipe-loose", pipe(12, 1e-6)),
        ("pipe-tight", pipe(12, 1e-10)),
        ("pipe-mid", pipe(16, 1e-8)),
        ("pipe-stretched", stretched),
        ("pipe-recip", recip),
        ("pipe-contrast", contrast),
    ];
    // last-step iterations of a run whose every step converged
    let steady = |deck: &Deck| {
        let out = run_serial(deck).ok()?;
        let all_converged = out.steps.iter().all(|s| s.converged);
        all_converged.then(|| (out.steps.last().map_or(0, |s| s.iterations), out.tune))
    };
    for (name, auto) in suite {
        let params = auto.control.solver_params();
        let candidates = plan_candidates(tea_app::solver_registry(), &params, SEED);
        let best = candidates
            .iter()
            .filter_map(|c| {
                let mut deck = auto.clone();
                deck.control.solver = c.solver.clone();
                deck.control.ppcg_halo_depth = c.halo_depth;
                let (iterations, _) = steady(&deck)?;
                Some(iterations as f64 * c.bytes_per_iteration)
            })
            .min_by(f64::total_cmp)
            .expect("at least one hand-picked configuration converges");

        let (iterations, tune) = steady(&auto).expect("auto converges");
        let winner = tune.and_then(|t| t.winner).expect("auto adopts a winner");
        let adopted = candidates
            .iter()
            .find(|c| c.label() == winner)
            .expect("the winner comes from the candidate set");
        let ratio = iterations as f64 * adopted.bytes_per_iteration / best;
        assert!(
            ratio <= 1.10,
            "{name}: auto adopted {winner} at {ratio:.3}x the best hand-picked cost"
        );
    }
}
