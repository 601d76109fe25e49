//! Chebyshev iteration (paper §III.C) — both a standalone solver and the
//! coefficient machinery reused by CPPCG's inner smoothing.
//!
//! Given eigenvalue bounds `[λmin, λmax]` of the (preconditioned)
//! operator, the shifted/scaled first-kind Chebyshev acceleration (Saad,
//! *Iterative Methods for Sparse Linear Systems*, Alg. 12.1) is
//!
//! ```text
//! θ = (λmax + λmin)/2,  δ = (λmax − λmin)/2,  σ = θ/δ
//! ρ₀ = 1/σ,   sd₀ = z₀/θ
//! step: u += sd;  r −= A·sd;  z = M⁻¹r
//!       ρ_{k} = 1/(2σ − ρ_{k−1})
//!       sd = (ρ_k ρ_{k−1})·sd + (2ρ_k/δ)·z
//! ```
//!
//! Its appeal for strong scaling: **no dot products** — the only global
//! communication is the occasional convergence check. The eigenvalue
//! bounds come from a short plain-CG prelude (paper §III.D,
//! `eigen_prelude`); the iteration itself is that step handed to the
//! shared `stationary_loop`. `mixed_chebyshev` (the family's
//! [`crate::Precision::Mixed`] entry) keeps the prelude and the `f64` residual control but runs the
//! polynomial as [`CHECK_INTERVAL`]-step blocks of CPPCG's inner
//! smoother in `f32`: iterative refinement, one block per outer
//! iteration, through the same `stationary_loop`.

use crate::api::{DynTile, SolverMeta, SolverParams, CHECK_INTERVAL};
use crate::cg::{EigenFamily, Family};
use crate::eigen::EigenEstimate;
use crate::mixed::Inner;
use crate::ppcg::Smoothing;
use crate::recurrence::stationary_loop;
use crate::solver::Workspace;
use crate::trace::SolveResult;
use crate::vector;
use tea_mesh::Field2D;

/// Shift/scale constants derived from an eigenvalue estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChebyConstants {
    /// Spectrum midpoint `(λmax + λmin)/2`.
    pub theta: f64,
    /// Spectrum half-width `(λmax − λmin)/2`.
    pub delta: f64,
    /// `θ/δ`.
    pub sigma: f64,
}

impl ChebyConstants {
    /// Derives the constants; requires a strictly positive spectrum with
    /// `λmax > λmin` (equal bounds would put `σ = ∞`; treat that case as
    /// a diagonal shift solved in one step by the caller).
    pub fn from_estimate(est: EigenEstimate) -> Self {
        assert!(
            est.min > 0.0,
            "spectrum must be positive, got λmin = {}",
            est.min
        );
        assert!(
            est.max > est.min,
            "need λmax > λmin, got [{}, {}]",
            est.min,
            est.max
        );
        let theta = 0.5 * (est.max + est.min);
        let delta = 0.5 * (est.max - est.min);
        ChebyConstants {
            theta,
            delta,
            sigma: theta / delta,
        }
    }

    /// Generates the `(α_k, β_k)` recurrence coefficients for `m` steps:
    /// `sd ← α_k·sd + β_k·z` (TeaLeaf's `ch_alphas`/`ch_betas`).
    pub fn coefficients(&self, m: usize) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(m);
        let mut rho_old = 1.0 / self.sigma;
        for _ in 0..m {
            let rho_new = 1.0 / (2.0 * self.sigma - rho_old);
            out.push((rho_new * rho_old, 2.0 * rho_new / self.delta));
            rho_old = rho_new;
        }
        out
    }
}

/// Iteration bound of plain CG, `√κ/2 · ln(2/ε)` (paper Eq. 6).
pub fn cg_iteration_bound(kappa: f64, eps: f64) -> f64 {
    0.5 * kappa.sqrt() * (2.0 / eps).ln()
}

/// Condition number of the `m`-step Chebyshev polynomially
/// preconditioned operator given `κ(A)` (paper Eqs. 4-5), in closed
/// form: `((1 + c)/(1 − c))²` with `c = ((√κ − 1)/(√κ + 1))^m`, the
/// `m`-step contraction — equal to `(1 + ε)/(1 − ε)` with
/// `ε = 1/T_m((κ + 1)/(κ − 1))`.
pub fn kappa_pcg(kappa: f64, m: usize) -> f64 {
    assert!(
        kappa >= 1.0,
        "a condition number is at least 1, got {kappa}"
    );
    let c = ((kappa.sqrt() - 1.0) / (kappa.sqrt() + 1.0)).powi(m as i32);
    ((1.0 + c) / (1.0 - c)).powi(2)
}

/// CG-prelude Chebyshev acceleration as an
/// [`IterativeSolver`](crate::IterativeSolver): no dot products in the
/// acceleration phase, only the periodic convergence check
/// communicates. Its `mixed` entry moves the polynomial sweeps to
/// `f32`.
#[derive(Debug)]
pub(crate) struct Chebyshev {
    family: Family,
}

impl Chebyshev {
    /// Registry factory: takes its name and precision from `meta` and
    /// consumes `precon` and `presteps`.
    pub(crate) fn from_params(meta: &SolverMeta, params: &SolverParams) -> Self {
        Chebyshev {
            family: Family::new(meta, params),
        }
    }
}

impl EigenFamily for Chebyshev {
    fn family(&self) -> &Family {
        &self.family
    }

    fn family_mut(&mut self) -> &mut Family {
        &mut self.family
    }

    fn legend(&self) -> String {
        "Chebyshev".into()
    }

    /// Chebyshev acceleration from the CG-advanced iterate — in `f64`,
    /// or as `f32` refinement blocks at reduced precision.
    fn run(
        &mut self,
        tile: &DynTile<'_>,
        u: &mut Field2D,
        b: &Field2D,
        ws: &mut Workspace,
        mut pre: SolveResult,
        est: EigenEstimate,
    ) -> SolveResult {
        let opts = self.family.opts;
        let precon = self.family.precon.as_ref().expect("assembled by solve");
        let bounds = &tile.op.bounds;
        tile.exchange(&mut [u], 1, &mut pre.trace);
        tile.op.residual(u, b, &mut ws.r, 0, &mut pre.trace);
        if let Some(low) = &mut self.family.low {
            // iterative refinement: each outer iteration runs one `f32`
            // block against the demoted residual, adds the promoted
            // correction and re-derives the residual (and its norm — one
            // reduction per block) in `f64`
            let smoothing = Smoothing::new(est, CHECK_INTERVAL as usize, 1);
            let inner = Inner::Chebyshev(&smoothing);
            return stationary_loop(tile, u, &mut ws.r, pre, opts, None, |u, r, norm, trace| {
                low.apply(tile, r, &mut ws.w, Some(norm), &inner, trace);
                vector::axpy(u, 1.0, &ws.w, bounds, 0, trace);
                tile.exchange(&mut [u], 1, trace);
                tile.op.residual(u, b, r, 0, trace);
            });
        }

        let consts = ChebyConstants::from_estimate(est);
        precon.apply(&ws.r, &mut ws.w, bounds, 0, &mut pre.trace);
        let inv_theta = 1.0 / consts.theta;
        vector::scaled_copy(&mut ws.sd, &ws.w, inv_theta, bounds, 0, &mut pre.trace);

        let mut rho_old = 1.0 / consts.sigma;
        let check = Some(CHECK_INTERVAL);
        stationary_loop(tile, u, &mut ws.r, pre, opts, check, |u, r, _, trace| {
            tile.exchange(&mut [&mut ws.sd], 1, trace);
            tile.op.apply(&ws.sd, &mut ws.w, 0, trace);
            vector::axpy(u, 1.0, &ws.sd, bounds, 0, trace);
            vector::axpy(r, -1.0, &ws.w, bounds, 0, trace);
            // `A·sd` is consumed: `w` takes `M⁻¹r`
            precon.apply(r, &mut ws.w, bounds, 0, trace);

            let rho_new = 1.0 / (2.0 * consts.sigma - rho_old);
            let (alpha, beta) = (rho_new * rho_old, 2.0 * rho_new / consts.delta);
            vector::scale_add(&mut ws.sd, alpha, beta, &ws.w, bounds, 0, trace);
            rho_old = rho_new;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{crooked_pipe_system, Solve};
    use crate::trace::SolveTrace;

    #[test]
    fn constants_from_estimate() {
        let c = ChebyConstants::from_estimate(EigenEstimate { min: 1.0, max: 9.0 });
        assert_eq!(c.theta, 5.0);
        assert_eq!(c.delta, 4.0);
        assert_eq!(c.sigma, 1.25);
    }

    #[test]
    fn coefficient_recurrence_matches_manual() {
        let c = ChebyConstants::from_estimate(EigenEstimate { min: 1.0, max: 3.0 });
        // sigma = 2, rho0 = 0.5
        let cs = c.coefficients(2);
        let rho1 = 1.0 / (4.0 - 0.5);
        assert!((cs[0].0 - rho1 * 0.5).abs() < 1e-15);
        assert!((cs[0].1 - 2.0 * rho1 / c.delta).abs() < 1e-15);
        let rho2 = 1.0 / (4.0 - rho1);
        assert!((cs[1].0 - rho2 * rho1).abs() < 1e-15);
    }

    #[test]
    fn residual_polynomial_decays_on_scalar_model() {
        // apply the recurrence to the scalar problem a*x = b for a inside
        // the bounds; the residual must contract at >= the predicted rate
        let est = EigenEstimate { min: 0.5, max: 4.0 };
        let c = ChebyConstants::from_estimate(est);
        for &a in &[0.5, 1.0, 2.7, 4.0] {
            let b = 1.0;
            let x0 = 0.0;
            let mut x = x0;
            let mut r = b - a * x0;
            let mut sd = r / c.theta;
            let mut rho_old = 1.0 / c.sigma;
            for _ in 0..40 {
                x += sd;
                r -= a * sd;
                let rho_new = 1.0 / (2.0 * c.sigma - rho_old);
                sd = rho_new * rho_old * sd + (2.0 * rho_new / c.delta) * r;
                rho_old = rho_new;
            }
            assert!(
                r.abs() < 1e-6,
                "scalar Chebyshev failed for a = {a}: residual {r}"
            );
            assert!(
                (a * x - b).abs() < 1e-6,
                "iterate must solve a*x = b: a = {a}, x = {x}"
            );
        }
    }

    #[test]
    fn chebyshev_converges_on_crooked_pipe() {
        let n = 32;
        let (op, b) = crooked_pipe_system(n, 0.04, 1);
        let mut u = b.clone();
        let solve = Solve::on(&op).with_solver("chebyshev").eps(1e-8);
        let res = solve.run(&mut u, &b).expect("chebyshev is registered");
        assert!(res.converged, "Chebyshev must converge: {res:?}");
        let mut t = SolveTrace::new("check");
        let mut r = Field2D::new(n, n, 1);
        op.residual(&u, &b, &mut r, 0, &mut t);
        assert!(r.interior_norm() / b.interior_norm() < 1e-6);
        assert!(res.trace.eigen_bounds.is_some());
    }

    #[test]
    fn chebyshev_uses_far_fewer_reductions_than_cg() {
        let (op, b) = crooked_pipe_system(32, 0.04, 1);
        let solve = Solve::on(&op).eps(1e-8);
        let cg = solve.run(&mut b.clone(), &b).unwrap();
        let ch = solve
            .with_solver("chebyshev")
            .run(&mut b.clone(), &b)
            .unwrap();
        assert!(cg.converged && ch.converged);
        let cg_reds_per_iter = cg.trace.reductions as f64 / cg.iterations as f64;
        let presteps = SolverParams::default().presteps;
        let ch_post = ch.trace.reductions.saturating_sub(2 * presteps);
        let ch_reds_per_iter = ch_post as f64 / (ch.iterations - presteps).max(1) as f64;
        assert!(
            ch_reds_per_iter < 0.5 * cg_reds_per_iter,
            "Chebyshev should slash reductions: {ch_reds_per_iter} vs {cg_reds_per_iter}"
        );
    }

    #[test]
    fn iteration_bound_formula() {
        // Eq. 6: kappa = 100, eps = 1e-10 -> 5 * ln(2e10) ~ 118.6
        let k = cg_iteration_bound(100.0, 1e-10);
        assert!((k - 0.5 * 10.0 * (2e10f64).ln()).abs() < 1e-9);
    }

    /// The reference form of Eqs. 4-5: `ε = 1/T_m((κ+1)/(κ−1))` with
    /// `T_m(x) = cosh(m · acosh x)`, then `κpcg = (1 + ε)/(1 − ε)`.
    fn kappa_pcg_by_chebyshev_t(kappa: f64, m: usize) -> f64 {
        let t_m = |x: f64| (m as f64 * x.acosh()).cosh();
        let eps = 1.0 / t_m((kappa + 1.0) / (kappa - 1.0));
        (1.0 + eps) / (1.0 - eps)
    }

    #[test]
    fn kappa_pcg_closed_form_matches_the_chebyshev_t_form() {
        // T_3(x) = 4x³ − 3x: the reference's T_m is the real polynomial
        let x = 1.7f64;
        let t_3 = (3.0 * x.acosh()).cosh();
        assert!((t_3 - (4.0 * x * x * x - 3.0 * x)).abs() < 1e-10);
        for kappa in [10.0, 231.6, 406.0, 1e4] {
            for m in [1usize, 4, 10, 16] {
                let (closed, reference) = (kappa_pcg(kappa, m), kappa_pcg_by_chebyshev_t(kappa, m));
                let rel = (closed - reference).abs() / reference;
                assert!(
                    rel < 1e-12,
                    "κ = {kappa}, m = {m}: {closed} vs {reference} ({rel:e})"
                );
            }
        }
    }

    #[test]
    fn kappa_pcg_collapses_small_kappa() {
        // when m-step Chebyshev nearly solves the system, κpcg -> 1
        assert!(kappa_pcg(10.0, 16) < 1.01);
        // and grows towards κ as m -> 1
        assert!(kappa_pcg(10_000.0, 1) > kappa_pcg(10_000.0, 16));
        assert_eq!(kappa_pcg(1.0, 4), 1.0);
    }

    #[test]
    #[should_panic]
    fn non_positive_spectrum_rejected() {
        let _ = ChebyConstants::from_estimate(EigenEstimate {
            min: -1.0,
            max: 2.0,
        });
    }
}
