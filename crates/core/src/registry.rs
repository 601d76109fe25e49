//! The string-keyed [`SolverRegistry`]: the single place where solver
//! names resolve to metadata and factories.
//!
//! The deck parser, the CLI and the time-stepping driver all resolve
//! against a registry rather than matching on an enum, so registering a
//! new [`IterativeSolver`] makes it selectable everywhere at once —
//! decks (`tl_solver=<name>`), `tealeaf --solver <name>`,
//! `tealeaf --list-solvers`, and the [`crate::Solve`] builder.

use crate::api::{
    InnerSteps, IterationCost, IterativeSolver, Precision, SolverError, SolverMeta, SolverParams,
};
use crate::cg::Cg;
use crate::chebyshev::Chebyshev;
use crate::jacobi::Jacobi;
use crate::ppcg::Ppcg;

/// Builds one configured solver instance from its registry entry (whose
/// name and precision the instance takes) and generic parameters.
type SolverFactory = fn(&SolverMeta, &SolverParams) -> Box<dyn IterativeSolver>;

/// A string-keyed table of iterative methods: per-solver [`SolverMeta`]
/// plus a factory producing a configured [`IterativeSolver`].
pub struct SolverRegistry {
    entries: Vec<(SolverMeta, SolverFactory)>,
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl Default for SolverRegistry {
    fn default() -> Self {
        SolverRegistry::builtin()
    }
}

impl SolverRegistry {
    /// An empty registry.
    fn empty() -> Self {
        SolverRegistry {
            entries: Vec::new(),
        }
    }

    /// The registry of tea-core's built-in methods: Jacobi, CG,
    /// Chebyshev and CPPCG at `f64`, then their reduced-precision
    /// variants — every one a [`crate::recurrence`] instance.
    /// (The AMG-preconditioned CG baseline lives in `tea-amg`, which
    /// registers itself on top of this set.)
    pub fn builtin() -> Self {
        let mut reg = SolverRegistry::empty();
        reg.register(
            SolverMeta {
                name: "jacobi",
                aliases: &[],
                summary: "point-Jacobi iteration (the design-space floor)",
                preconditioned: false,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: false,
                precision: Precision::F64,
                family: "jacobi",
                tunable: false,
                // one stencil sweep + one axpy-class update: 5 + 3
                iteration_cost: IterationCost::flat(8),
            },
            |_, p| Box::new(Jacobi::from_params(p)),
        );
        reg.register(
            SolverMeta {
                name: "cg",
                aliases: &[],
                summary: "preconditioned conjugate gradient (the baseline)",
                preconditioned: true,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: false,
                precision: Precision::F64,
                family: "cg",
                tunable: true,
                // three sweeps, both dots riding in passes that run
                // anyway: fused stencil + `p·w` (5), fused `u`/`r`/`r·z`
                // update (two axpy-class streams, 6), direction update
                // (3). No preconditioner pass of its own: a diagonal
                // preconditioner's reciprocal diagonal streams through
                // the update and the direction sweep (+2, unpriced).
                iteration_cost: IterationCost::flat(14),
            },
            |m, p| Box::new(Cg::from_params(m, p)),
        );
        reg.register(
            SolverMeta {
                name: "chebyshev",
                aliases: &["cheby"],
                summary: "CG presteps + Chebyshev acceleration (no dot products)",
                preconditioned: true,
                needs_eigen_estimate: true,
                deep_halo: false,
                serial_only: false,
                precision: Precision::F64,
                family: "chebyshev",
                tunable: true,
                // one sweep: stencil 5 + three axpy-class passes 9 +
                // preconditioner 4, and no dot
                iteration_cost: IterationCost::flat(18),
            },
            |m, p| Box::new(Chebyshev::from_params(m, p)),
        );
        reg.register(
            SolverMeta {
                name: "ppcg",
                aliases: &["cppcg"],
                summary: "Chebyshev polynomially preconditioned CG with matrix-powers deep halos",
                preconditioned: true,
                needs_eigen_estimate: true,
                deep_halo: true,
                serial_only: false,
                precision: Precision::F64,
                family: "ppcg",
                tunable: true,
                // outer: the Chebyshev sweep 18 + the `r·z` dot 2 left
                // after the inner solve (`p·w` rides in the stencil);
                // each inner step one fused Chebyshev step (12). That
                // prices `m` full sweeps of main-memory traffic,
                // although the solver runs each deep-halo block of `h`
                // steps as one pass through cache ("matrix powers in
                // time": 8 elements/cell per block, where this charges
                // `12·h`), so the prior overstates depth > 1 — the
                // benchmark's `perfmodel.model_error` on `deep_ppcg`
                // reads ≈ 1.9–2.0. It is depth-blind on purpose: making
                // it depth-aware belongs to the calibration step of
                // ROADMAP direction 1, and `auto`'s ranking must not
                // move before that lands.
                iteration_cost: IterationCost {
                    outer: 20,
                    per_inner_step: 12,
                    inner_steps: InnerSteps::Params,
                },
            },
            |m, p| Box::new(Ppcg::from_params(m, p)),
        );
        // `mixed_cg`: the preconditioner is assembled from the demoted
        // operator and applied to demoted residuals.
        reg.register(
            SolverMeta {
                name: "mixed_cg",
                aliases: &["mixed", "cg_mixed"],
                summary: "CG with f64 recurrence and the preconditioner applied in f32",
                preconditioned: true,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: false,
                precision: Precision::Mixed,
                family: "cg",
                tunable: true,
                // CG's 14 + the f32 round trip, which keeps `z`
                // materialized: conversion sweep 3, half-width
                // preconditioner 2, separate `r·z` dot 2
                iteration_cost: IterationCost::flat(21),
            },
            |m, p| Box::new(Cg::from_params(m, p)),
        );
        // `mixed_ppcg`: the whole inner smoothing, matrix-powers
        // exchanges included, in `f32`. The CG presteps and their
        // Lanczos estimate stay in `f64`; the safety widening absorbs the
        // (tiny) spectral difference to the demoted operator.
        reg.register(
            SolverMeta {
                name: "mixed_ppcg",
                aliases: &["ppcg_mixed"],
                summary: "CPPCG with the inner Chebyshev smoothing entirely in f32",
                preconditioned: true,
                needs_eigen_estimate: true,
                deep_halo: true,
                serial_only: false,
                precision: Precision::Mixed,
                family: "ppcg",
                tunable: true,
                // `ppcg`'s outer 20 + one conversion sweep 3; the fused
                // inner steps at half width, 6 each (depth-blind like
                // `ppcg`)
                iteration_cost: IterationCost {
                    outer: 23,
                    per_inner_step: 6,
                    inner_steps: InnerSteps::Params,
                },
            },
            |m, p| Box::new(Ppcg::from_params(m, p)),
        );
        // `mixed_chebyshev`: each outer iteration demotes the `f64`
        // residual, runs `CHECK_INTERVAL` Chebyshev steps of `A z ≈ r` in
        // `f32`, promotes the correction and re-derives the residual in
        // `f64`, so the method reaches `f64` tolerances while the
        // bandwidth-dominant sweeps move half the bytes.
        reg.register(
            SolverMeta {
                name: "mixed_chebyshev",
                aliases: &["chebyshev_mixed", "cheby_mixed"],
                summary: "Chebyshev acceleration with the polynomial sweeps entirely in f32",
                preconditioned: true,
                needs_eigen_estimate: true,
                deep_halo: false,
                serial_only: false,
                precision: Precision::Mixed,
                family: "chebyshev",
                tunable: true,
                // one f32 block of fused steps at half width (6 each) +
                // the f64 residual control: stencil 5 + update 3 + dot 2
                iteration_cost: IterationCost {
                    outer: 10,
                    per_inner_step: 6,
                    inner_steps: InnerSteps::CheckInterval,
                },
            },
            |m, p| Box::new(Chebyshev::from_params(m, p)),
        );
        // `cg_f32`: every kernel in `f32`, dot products widened only for
        // the scalar recurrence. Tight `f64`-era tolerances are generally
        // unreachable, so the solve ends honestly unconverged once the
        // residual stops improving.
        reg.register(
            SolverMeta {
                name: "cg_f32",
                aliases: &["f32_cg"],
                summary: "fully single-precision CG (accuracy limited by f32 round-off; \
                          no demotion site, so no subnormal pedestal: its far field can run denormal)",
                preconditioned: true,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: false,
                precision: Precision::F32,
                family: "cg",
                // round-off limited: at f64-grade tolerances it only
                // stalls, so `auto` does not race it
                tunable: false,
                // CG's three sweeps at half width: 14 / 2
                iteration_cost: IterationCost::flat(7),
            },
            |m, p| Box::new(Cg::from_params(m, p)),
        );
        reg
    }

    /// Registers (or replaces, matching by canonical name) a solver.
    pub fn register(&mut self, meta: SolverMeta, factory: SolverFactory) {
        if let Some(slot) = self.entries.iter_mut().find(|(m, _)| m.name == meta.name) {
            *slot = (meta, factory);
        } else {
            self.entries.push((meta, factory));
        }
    }

    /// Canonical names in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(m, _)| m.name).collect()
    }

    /// Iterates over the registered metadata in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &SolverMeta> {
        self.entries.iter().map(|(m, _)| m)
    }

    /// The one name-matching rule (trim, ASCII case-fold, canonical
    /// name or alias), shared by every lookup.
    fn entry(&self, name: &str) -> Result<&(SolverMeta, SolverFactory), SolverError> {
        let want = name.trim().to_ascii_lowercase();
        self.entries
            .iter()
            .find(|(m, _)| m.name == want || m.aliases.contains(&want.as_str()))
            .ok_or_else(|| SolverError::UnknownSolver {
                requested: name.trim().to_string(),
                known: self.names().iter().map(|n| n.to_string()).collect(),
            })
    }

    /// Resolves `name` (canonical or alias, ASCII case-insensitive) to
    /// its metadata.
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] carrying the registered names.
    pub fn resolve(&self, name: &str) -> Result<&SolverMeta, SolverError> {
        self.entry(name).map(|(m, _)| m)
    }

    /// The entry that runs `name`'s method at `precision` — the one
    /// rule behind the deck's `tl_precision`, the CLI's `--precision`,
    /// [`crate::Solve::precision`] and the serving escalation ladder.
    ///
    /// A solver whose [`SolverMeta::precision`] already matches is
    /// returned unchanged; otherwise the request moves along the
    /// [`SolverMeta::family`] axis to the family's entry at
    /// `precision` (`Precision::F64` lands on the family's own entry).
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] for an unregistered name, and
    /// [`SolverError::PrecisionUnsupported`] when no variant is
    /// registered — in particular for serial-only baselines like `amg`.
    pub fn route(&self, name: &str, precision: Precision) -> Result<&SolverMeta, SolverError> {
        let meta = self.resolve(name)?;
        if meta.precision == precision {
            return Ok(meta);
        }
        let unsupported = |reason| SolverError::PrecisionUnsupported {
            solver: meta.name.to_string(),
            precision,
            reason,
        };
        if meta.serial_only {
            return Err(unsupported(format!(
                "'{}' is a serial-only f64 baseline; run it without a precision override",
                meta.name
            )));
        }
        self.iter()
            .find(|m| m.family == meta.family && m.precision == precision)
            .ok_or_else(|| {
                unsupported(format!(
                    "no {} variant of '{}' is registered",
                    precision.label(),
                    meta.name
                ))
            })
    }

    /// Builds a configured solver by `name` (canonical or alias).
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] carrying the registered names, and
    /// [`SolverError::InvalidParams`] for `presteps == 0`: the eigen
    /// prelude estimates the spectrum from the presteps' CG
    /// coefficients, so every solver asks for at least one.
    pub fn create(
        &self,
        name: &str,
        params: &SolverParams,
    ) -> Result<Box<dyn IterativeSolver>, SolverError> {
        let (meta, factory) = self.entry(name)?;
        if params.presteps == 0 {
            return Err(SolverError::InvalidParams {
                solver: meta.name.to_string(),
                reason: "presteps must be at least 1, got 0".to_string(),
            });
        }
        Ok(factory(meta, params))
    }

    /// Machine-checks the registry's structural contracts and returns
    /// one human-readable finding per violation (empty = pass).
    ///
    /// Everything downstream — deck parsing, CLI resolution, precision
    /// routing, the auto-tuner's candidate plan — assumes these hold,
    /// and nothing in [`SolverRegistry::register`]'s signature can
    /// force them, so tests run this audit (this crate's over the
    /// builtins, tea-app's over the full registry) instead of trusting
    /// convention:
    ///
    /// * **key discipline** — canonical names and aliases are
    ///   non-empty, lowercase ASCII (lookup case-folds, so any other
    ///   spelling would be unreachable), and no alias shadows a
    ///   canonical name or another alias;
    /// * **metadata consistency** — a `serial_only` method must not be
    ///   `tunable` (the tuner races candidates under the distributed
    ///   protocol) and must be plain-`f64` (reduced-precision variants
    ///   exist precisely to trade halo width, which serial baselines
    ///   do not exchange);
    /// * **families** — an entry's [`SolverMeta::family`] names a
    ///   registered `f64` entry that is its own family, and no two
    ///   entries share a (family, precision) pair, so
    ///   [`SolverRegistry::route`] has one answer wherever it has any.
    pub fn audit(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let mut seen: Vec<(&str, &str)> = Vec::new(); // (key, owning canonical name)
        for (i, meta) in self.iter().enumerate() {
            for (key, kind) in std::iter::once((meta.name, "name"))
                .chain(meta.aliases.iter().map(|a| (*a, "alias")))
            {
                if key.trim().is_empty() {
                    findings.push(format!("solver '{}' registers an empty {kind}", meta.name));
                    continue;
                }
                if key != key.trim() || key.chars().any(|c| c.is_ascii_uppercase()) {
                    findings.push(format!(
                        "{kind} '{key}' of solver '{}' is not trimmed lowercase ASCII — \
                         lookups case-fold, so this spelling is unreachable",
                        meta.name
                    ));
                }
                if let Some((_, owner)) = seen.iter().find(|(k, _)| *k == key) {
                    findings.push(format!(
                        "{kind} '{key}' of solver '{}' collides with a key of solver '{owner}'",
                        meta.name
                    ));
                } else {
                    seen.push((key, meta.name));
                }
            }
            if meta.serial_only && meta.tunable {
                findings.push(format!(
                    "solver '{}' is serial_only but tunable — the auto-tuner races \
                     candidates under the distributed protocol",
                    meta.name
                ));
            }
            if meta.serial_only && meta.precision != Precision::F64 {
                findings.push(format!(
                    "solver '{}' is serial_only with precision {} — serial baselines \
                     must stay plain f64",
                    meta.name,
                    meta.precision.label()
                ));
            }
            let head = self.iter().find(|m| m.name == meta.family);
            if !head.is_some_and(|h| h.family == h.name && h.precision == Precision::F64) {
                findings.push(format!(
                    "solver '{}' names family '{}', which is not a registered f64 entry \
                     of its own family",
                    meta.name, meta.family
                ));
            }
            let twin = |m: &&SolverMeta| m.family == meta.family && m.precision == meta.precision;
            if let Some(twin) = self.iter().take(i).find(twin) {
                findings.push(format!(
                    "solvers '{}' and '{}' both claim family '{}' at precision {}",
                    twin.name,
                    meta.name,
                    meta.family,
                    meta.precision.label()
                ));
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_all_core_methods() {
        let reg = SolverRegistry::builtin();
        assert_eq!(
            reg.names(),
            vec![
                "jacobi",
                "cg",
                "chebyshev",
                "ppcg",
                "mixed_cg",
                "mixed_ppcg",
                "mixed_chebyshev",
                "cg_f32"
            ]
        );
    }

    #[test]
    fn resolve_accepts_aliases_and_case() {
        let reg = SolverRegistry::builtin();
        assert_eq!(reg.resolve("cppcg").unwrap().name, "ppcg");
        assert_eq!(reg.resolve("Cheby").unwrap().name, "chebyshev");
        assert_eq!(reg.resolve(" CG ").unwrap().name, "cg");
    }

    #[test]
    fn unknown_name_reports_registered_set() {
        let reg = SolverRegistry::builtin();
        let err = reg.resolve("sor").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'sor'"), "{msg}");
        for name in reg.names() {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn create_honours_params() {
        let reg = SolverRegistry::builtin();
        let params = SolverParams {
            halo_depth: 6,
            ..Default::default()
        };
        let solver = reg.create("ppcg", &params).unwrap();
        assert_eq!(solver.halo_depth(), 6);
        assert_eq!(solver.label(), "PPCG-6");
        assert_eq!(reg.create("jacobi", &params).unwrap().halo_depth(), 1);
    }

    #[test]
    fn audit_passes_on_builtin() {
        let findings = SolverRegistry::builtin().audit();
        assert!(
            findings.is_empty(),
            "builtin registry must audit clean: {findings:?}"
        );
    }

    #[test]
    fn audit_flags_alias_collisions() {
        let mut reg = SolverRegistry::builtin();
        reg.register(
            SolverMeta {
                name: "sor",
                aliases: &["cg"], // shadows the canonical CG name
                summary: "bad alias",
                preconditioned: false,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: false,
                precision: Precision::F64,
                family: "sor",
                tunable: false,
                iteration_cost: IterationCost::flat(8),
            },
            |_, p| Box::new(Jacobi::from_params(p)),
        );
        let findings = reg.audit();
        assert!(
            findings
                .iter()
                .any(|f| f.contains("alias 'cg'") && f.contains("collides")),
            "{findings:?}"
        );
    }

    #[test]
    fn audit_flags_unreachable_spellings_and_meta_conflicts() {
        let mut reg = SolverRegistry::empty();
        reg.register(
            SolverMeta {
                name: "SOR",
                aliases: &[" sor "],
                summary: "uppercase canonical name",
                preconditioned: false,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: true,
                precision: Precision::F64,
                family: "SOR",
                tunable: true,
                iteration_cost: IterationCost::flat(8),
            },
            |_, p| Box::new(Jacobi::from_params(p)),
        );
        let findings = reg.audit();
        assert!(
            findings
                .iter()
                .any(|f| f.contains("name 'SOR'") && f.contains("unreachable")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.contains("alias ' sor '")),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.contains("serial_only but tunable")),
            "{findings:?}"
        );
    }

    #[test]
    fn audit_flags_serial_only_reduced_precision() {
        let mut reg = SolverRegistry::empty();
        reg.register(
            SolverMeta {
                name: "oddball",
                aliases: &[],
                summary: "serial-only f32",
                preconditioned: false,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: true,
                precision: Precision::F32,
                family: "oddball",
                tunable: false,
                iteration_cost: IterationCost::flat(8),
            },
            |_, p| Box::new(Jacobi::from_params(p)),
        );
        let findings = reg.audit();
        assert!(
            findings.iter().any(|f| f.contains("must stay plain f64")),
            "{findings:?}"
        );
    }

    #[test]
    fn audit_flags_routing_escapes() {
        // A registry holding mixed_cg but NOT its f64 family target:
        // its family names "cg", which is unregistered here, so the
        // audit must flag the family.
        let mut reg = SolverRegistry::empty();
        // `mixed_cg`: the preconditioner is assembled from the demoted
        // operator and applied to demoted residuals.
        reg.register(
            SolverMeta {
                name: "mixed_cg",
                aliases: &[],
                summary: "mixed CG without its f64 family",
                preconditioned: true,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: false,
                precision: Precision::Mixed,
                family: "cg",
                tunable: true,
                iteration_cost: IterationCost::flat(8),
            },
            |_, p| Box::new(Jacobi::from_params(p)),
        );
        let findings = reg.audit();
        assert!(
            findings
                .iter()
                .any(|f| f.contains("family 'cg'") && f.contains("not a registered f64 entry")),
            "{findings:?}"
        );
    }

    #[test]
    fn audit_flags_two_entries_of_one_family_and_precision() {
        let mut reg = SolverRegistry::builtin();
        let meta = *reg.resolve("mixed_cg").unwrap();
        reg.register(
            SolverMeta {
                name: "mixed_cg_again",
                aliases: &[],
                ..meta
            },
            |m, p| Box::new(Cg::from_params(m, p)),
        );
        let findings = reg.audit();
        assert_eq!(
            findings,
            vec![
                "solvers 'mixed_cg' and 'mixed_cg_again' both claim family 'cg' at precision mixed"
            ],
        );
    }

    #[test]
    fn register_replaces_by_name() {
        let mut reg = SolverRegistry::builtin();
        let n = reg.names().len();
        reg.register(
            SolverMeta {
                name: "jacobi",
                aliases: &["relax"],
                summary: "replacement",
                preconditioned: false,
                needs_eigen_estimate: false,
                deep_halo: false,
                serial_only: false,
                precision: Precision::F64,
                family: "jacobi",
                tunable: false,
                iteration_cost: IterationCost::flat(8),
            },
            |_, p| Box::new(Jacobi::from_params(p)),
        );
        assert_eq!(reg.names().len(), n);
        assert_eq!(reg.resolve("relax").unwrap().summary, "replacement");
    }
}
