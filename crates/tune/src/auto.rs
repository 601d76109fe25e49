//! The `"auto"` pseudo-solver: a registered [`IterativeSolver`] whose
//! method *is* the tuner.
//!
//! The first `solve` races the planned candidates — each trial is one
//! full solve from the caller's initial guess, capped so it is
//! abandoned once it costs more than the best converged candidate so
//! far — then adopts the cheapest converged one and answers with its
//! solution. Every later `solve` goes straight to the adopted winner,
//! so an `auto` solver pooled in a `SetupCache` (one per `SetupKey`)
//! pays the search exactly once per setup.

use crate::policy::TuneState;
use std::any::Any;
use tea_core::{
    IterationCost, IterativeSolver, Precision, SolveContext, SolveOpts, SolveResult, SolveTrace,
    SolverMeta, SolverParams, SolverRegistry, Workspace,
};
use tea_mesh::Field2D;

/// Registry metadata of the `auto` pseudo-solver. `deep_halo` is set
/// because the race includes matrix-powers candidates, so fields and
/// workspace must be allocated at the deepest candidate depth.
/// `serial_only` is set because independent per-rank races could adopt
/// different winners (and thus different halo protocols) — distributed
/// tuning needs a rank-collective decision, which is a ROADMAP
/// follow-up.
const AUTO_META: SolverMeta = SolverMeta {
    name: "auto",
    aliases: &["tune", "autotune"],
    summary: "auto-tuned: races the tunable methods, adopts the cheapest converged one",
    preconditioned: true,
    needs_eigen_estimate: false,
    deep_halo: true,
    serial_only: true,
    precision: Precision::F64,
    tunable: false,
    // never a candidate itself; it prices as plain `cg`
    iteration_cost: IterationCost::flat(14),
};

/// Registers the `auto` pseudo-solver into `registry` (deck
/// `tl_solver=auto`, CLI `--solver auto`).
pub fn register_auto(registry: &mut SolverRegistry) {
    registry.register(AUTO_META, |p| Box::new(AutoSolver::from_params(p)));
}

/// The solver behind `tl_solver=auto`. See the module docs for the
/// race protocol; `take_diagnostics` yields the [`crate::TuneLog`].
struct AutoSolver {
    params: SolverParams,
    opts: SolveOpts,
    registry: SolverRegistry,
    state: Option<TuneState>,
    winner: Option<Box<dyn IterativeSolver>>,
}

impl std::fmt::Debug for AutoSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutoSolver")
            .field("params", &self.params)
            .field("winner", &self.winner.as_ref().map(|w| w.label()))
            .finish()
    }
}

impl AutoSolver {
    /// An auto-tuner racing tea-core's builtin tunable methods, seeded
    /// by `params.tune_seed`.
    pub fn from_params(params: &SolverParams) -> Self {
        AutoSolver {
            params: params.clone(),
            opts: SolveOpts::default(),
            registry: SolverRegistry::builtin(),
            state: None,
            winner: None,
        }
    }

    fn race(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        let mut state = TuneState::plan(&self.registry, &self.params);
        let mut best: Option<(SolveResult, Field2D, Box<dyn IterativeSolver>)> = None;
        for idx in 0..state.candidates().len() {
            let candidate = state.candidates()[idx].clone();
            let cap = state.trial_cap(&candidate, self.opts.max_iters);
            if cap < TuneState::min_useful_iters(&candidate, self.params.presteps) {
                state.record_skip(&candidate);
                continue;
            }
            let mut solver = self
                .registry
                .create(&candidate.solver, &candidate.params(&self.params))
                .expect("candidate planned from this registry");
            let trial_opts = SolveOpts {
                eps: self.opts.eps,
                max_iters: cap,
            };
            solver.prepare(ctx, &trial_opts);
            let mut trial_u = u.clone();
            let result = solver.solve(ctx, &mut trial_u, b, ws, trace);
            if result.status.is_cancelled() {
                // leave the caller's iterate untouched: a cancelled race
                // adopted nothing
                self.state = Some(state);
                trace.solver = self.label();
                return result;
            }
            if state.record_trial(idx, &result, cap) {
                best = Some((result, trial_u, solver));
            }
        }
        let mut outcome = match best {
            Some((result, trial_u, mut solver)) => {
                *u = trial_u;
                // the trial ran under its cost cap; later solves get the
                // caller's full iteration budget
                solver.prepare(ctx, &self.opts);
                self.winner = Some(solver);
                result
            }
            None => {
                // nothing converged within the caps: fall back to the
                // f64 baseline at the full iteration budget so auto is
                // never worse than `cg`
                let fallback = state
                    .candidates()
                    .iter()
                    .position(|c| c.solver == "cg")
                    .expect("cg is always planned");
                let candidate = state.candidates()[fallback].clone();
                let mut solver = self
                    .registry
                    .create("cg", &candidate.params(&self.params))
                    .expect("cg is registered");
                solver.prepare(ctx, &self.opts);
                let result = solver.solve(ctx, u, b, ws, trace);
                state.record_trial(fallback, &result, self.opts.max_iters);
                self.winner = Some(solver);
                state.log.winner.get_or_insert_with(|| candidate.label());
                result
            }
        };
        self.state = Some(state);
        trace.solver = self.label();
        outcome.trace.solver = self.label();
        outcome
    }
}

impl IterativeSolver for AutoSolver {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn label(&self) -> String {
        match &self.winner {
            Some(w) => format!("auto[{}]", w.label()),
            None => "auto".to_string(),
        }
    }

    fn halo_depth(&self) -> usize {
        crate::search::plan_candidates(&self.registry, &self.params, self.params.tune_seed)
            .iter()
            .map(|c| c.halo_depth)
            .max()
            .unwrap_or(1)
    }

    fn prepare(&mut self, ctx: &SolveContext<'_>, opts: &SolveOpts) {
        self.opts = *opts;
        if let Some(winner) = &mut self.winner {
            winner.prepare(ctx, opts);
        }
    }

    fn solve(
        &mut self,
        ctx: &SolveContext<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        trace: &mut SolveTrace,
    ) -> SolveResult {
        if let Some(winner) = &mut self.winner {
            let result = winner.solve(ctx, u, b, ws, trace);
            if let Some(state) = &mut self.state {
                state.record_reuse();
            }
            return result;
        }
        self.race(ctx, u, b, ws, trace)
    }

    fn take_diagnostics(&mut self) -> Option<Box<dyn Any>> {
        self.state
            .as_ref()
            .map(|s| Box::new(s.log.clone()) as Box<dyn Any>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{TuneAction, TuneLog};
    use tea_core::{crooked_pipe_system, Solve, SolveSession};

    fn tuned_registry() -> SolverRegistry {
        let mut reg = SolverRegistry::builtin();
        register_auto(&mut reg);
        reg
    }

    impl AutoSolver {
        /// The decision log so far.
        fn log(&self) -> Option<&TuneLog> {
            self.state.as_ref().map(|s| &s.log)
        }
    }

    #[test]
    fn auto_is_registered_with_aliases() {
        let reg = tuned_registry();
        assert_eq!(reg.resolve("auto").unwrap().name, "auto");
        assert_eq!(reg.resolve("autotune").unwrap().name, "auto");
        assert!(!reg.resolve("auto").unwrap().tunable);
        let solver = reg.create("auto", &SolverParams::default()).unwrap();
        assert_eq!(solver.name(), "auto");
        assert_eq!(solver.label(), "auto");
        assert_eq!(solver.halo_depth(), 8, "deepest planned candidate");
    }

    #[test]
    fn auto_converges_and_logs_its_race() {
        let reg = tuned_registry();
        let (op, b) = crooked_pipe_system(24, 0.04, 8);
        let mut u = b.clone();
        let result = Solve::on(&op)
            .with_registry(&reg)
            .with_solver("auto")
            .halo_depth(8)
            .eps(1e-8)
            .run(&mut u, &b)
            .unwrap();
        assert!(result.converged, "{:?}", result.status);
        assert!(
            result.trace.solver.starts_with("auto["),
            "{}",
            result.trace.solver
        );
    }

    #[test]
    fn race_adopts_a_winner_and_reuses_it() {
        let (op, b) = crooked_pipe_system(24, 0.04, 8);
        let params = SolverParams {
            halo_depth: 8,
            tune_seed: 3,
            ..SolverParams::default()
        };
        let mut auto = AutoSolver::from_params(&params);
        let (nx, ny) = op.bounds.tile();
        let decomp = tea_mesh::Decomposition2D::with_grid(nx, ny, 1, 1);
        let layout = tea_comms::HaloLayout::new(&decomp, 0);
        let comm = tea_comms::SerialComm::new();
        use tea_comms::Communicator;
        let tile: tea_core::DynTile<'_> = tea_core::Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&tile);
        let mut ws = Workspace::new(nx, ny, auto.halo_depth());
        auto.prepare(&ctx, &SolveOpts::with_eps(1e-8));
        let mut trace = SolveTrace::new("auto");
        let mut u = b.clone();
        let first = auto.solve(&ctx, &mut u, &b, &mut ws, &mut trace);
        assert!(first.converged);
        let log = auto.log().expect("race ran").clone();
        assert!(log.winner.is_some(), "{log}");
        assert!(!log.raced().is_empty());
        assert_eq!(log.reuses, 0);
        assert_eq!(log.seed, 3);
        // second solve goes straight to the winner
        let mut u2 = b.clone();
        let second = auto.solve(&ctx, &mut u2, &b, &mut ws, &mut trace);
        assert!(second.converged);
        let log2 = auto.log().unwrap();
        assert_eq!(log2.reuses, 1);
        assert_eq!(log2.raced().len(), log.raced().len(), "no second race");
        // the reused winner reproduces the adopted trial's answer
        assert_eq!(first.iterations, second.iterations);
        // diagnostics carry the log out type-erased
        let diag = auto.take_diagnostics().unwrap();
        let carried = diag.downcast::<TuneLog>().unwrap();
        assert_eq!(carried.winner, log.winner);
    }

    #[test]
    fn a_winner_adopted_under_a_cost_cap_gets_the_full_budget_afterwards() {
        // on this stiff deck cg converges first, uncapped, and a
        // mixed_ppcg configuration then wins under the cost cap set by
        // the best candidate before it; a session prepares once, so a
        // later solve from a zero guess — which needs more iterations
        // than that cap — converges only if the winner was re-latched
        // with the caller's iteration budget
        let (op, b) = crooked_pipe_system(48, 100.0, 8);
        let params = SolverParams {
            halo_depth: 8,
            ..SolverParams::default()
        };
        let layout = tea_comms::HaloLayout::new(&tea_mesh::Decomposition2D::new(48, 48, 1), 0);
        let auto = Box::new(AutoSolver::from_params(&params));
        let mut session = SolveSession::new(op, layout, auto, SolveOpts::with_eps(1e-8));
        assert!(session.solve(&mut b.clone(), &b).converged);

        let log = *session
            .take_diagnostics()
            .and_then(|d| d.downcast::<TuneLog>().ok())
            .expect("the race ran");
        let winner = log.winner.clone().expect("the race adopts a winner");
        assert!(winner.starts_with("mixed_ppcg"), "{log}");
        // the winner's own trial ran under the cap the best cost so far
        // — the last adoption before it — implied for its prior
        let trial = log
            .decisions
            .iter()
            .position(|d| d.candidate == winner && matches!(d.action, TuneAction::Raced { .. }))
            .unwrap_or_else(|| panic!("{winner} raced: {log}"));
        let best_before = log.decisions[..trial]
            .iter()
            .rev()
            .find_map(|d| match d.action {
                TuneAction::Selected { cost } => Some(cost),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{winner} raced under a cap: {log}"));
        let prior = TuneState::plan(&SolverRegistry::builtin(), &params)
            .candidates()
            .iter()
            .find(|c| c.label() == winner)
            .expect("the winner was planned")
            .bytes_per_iteration;
        let cap = (best_before / prior).floor() as u64;

        let later = session.solve(&mut Field2D::new(48, 48, 8), &b);
        assert!(later.converged, "{:?}", later.status);
        assert!(
            later.iterations > cap,
            "{} within the race cap {cap}",
            later.iterations
        );
    }

    #[test]
    fn eigen_prelude_candidates_of_a_race_agree_on_the_spectrum() {
        // every candidate opens with the same presteps from the same
        // (u, b) under the same preconditioner, so each one's own
        // Lanczos analysis must land on the same bits — at any halo
        // depth, in either precision, even at the tightest trial cap
        // the race allows
        use tea_core::PreconKind;
        let (op, b) = crooked_pipe_system(24, 0.04, 8);
        let registry = SolverRegistry::builtin();
        for precon in [
            PreconKind::None,
            PreconKind::Diagonal,
            PreconKind::BlockJacobi,
        ] {
            let params = SolverParams {
                precon,
                halo_depth: 8,
                ..SolverParams::default()
            };
            let state = TuneState::plan(&registry, &params);
            let bounds: Vec<(String, (u64, u64))> = state
                .candidates()
                .iter()
                .filter(|c| c.needs_eigen_estimate)
                .map(|c| {
                    let result = Solve::on(&op)
                        .with_solver(c.solver.as_str())
                        .params(c.params(&params))
                        .eps(1e-13) // out of the presteps' reach under any precon
                        .max_iters(TuneState::min_useful_iters(c, params.presteps))
                        .run(&mut b.clone(), &b)
                        .unwrap();
                    let (min, max) = result.trace.eigen_bounds.expect("the prelude ran");
                    (c.label(), (min.to_bits(), max.to_bits()))
                })
                .collect();
            assert!(
                bounds.len() >= 4,
                "two families, two precisions: {bounds:?}"
            );
            for (label, bits) in &bounds {
                assert_eq!(*bits, bounds[0].1, "{precon:?}: {label} vs {}", bounds[0].0);
            }
        }
    }

    #[test]
    fn same_seed_same_race_different_seed_may_reorder() {
        let (op, b) = crooked_pipe_system(16, 0.04, 8);
        let run = |seed: u64| {
            let params = SolverParams {
                halo_depth: 8,
                tune_seed: seed,
                ..SolverParams::default()
            };
            let mut reg = SolverRegistry::builtin();
            register_auto(&mut reg);
            let mut u = b.clone();
            let result = Solve::on(&op)
                .with_registry(&reg)
                .with_solver("auto")
                .params(params)
                .eps(1e-8)
                .run(&mut u, &b)
                .unwrap();
            (result.iterations, result.final_residual, u)
        };
        let (i1, r1, u1) = run(11);
        let (i2, r2, u2) = run(11);
        assert_eq!(i1, i2);
        assert_eq!(r1.to_bits(), r2.to_bits(), "bit-identical residual");
        let (nx, ny) = op.bounds.tile();
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                assert_eq!(u1.at(i, j).to_bits(), u2.at(i, j).to_bits());
            }
        }
    }

    #[test]
    fn cost_caps_prune_expensive_candidates() {
        let reg = tuned_registry();
        let (op, b) = crooked_pipe_system(24, 0.04, 8);
        let mut u = b.clone();
        let mut solver = reg
            .create(
                "auto",
                &SolverParams {
                    halo_depth: 8,
                    ..SolverParams::default()
                },
            )
            .unwrap();
        let (nx, ny) = op.bounds.tile();
        let decomp = tea_mesh::Decomposition2D::with_grid(nx, ny, 1, 1);
        let layout = tea_comms::HaloLayout::new(&decomp, 0);
        let comm = tea_comms::SerialComm::new();
        use tea_comms::Communicator;
        let tile: tea_core::DynTile<'_> = tea_core::Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::new(&tile);
        let mut ws = Workspace::new(nx, ny, solver.halo_depth());
        solver.prepare(&ctx, &SolveOpts::with_eps(1e-8));
        let mut trace = SolveTrace::new("auto");
        let result = solver.solve(&ctx, &mut u, &b, &mut ws, &mut trace);
        assert!(result.converged);
        let log = solver
            .take_diagnostics()
            .unwrap()
            .downcast::<TuneLog>()
            .unwrap();
        // on an easy problem the cheap early candidates win, so at
        // least one expensive eigen-prelude candidate must have been
        // skipped or abandoned by its cap
        let pruned = log.decisions.iter().any(|d| {
            matches!(d.action, TuneAction::SkippedByPrior)
                || matches!(d.action, TuneAction::Raced { iterations, .. }
                    if !matches!(d.verdict, crate::Verdict::Converged { .. })
                        && iterations < 10_000)
        });
        assert!(pruned, "{log}");
    }
}
