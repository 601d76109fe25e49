//! The string-keyed [`SolverRegistry`]: the single place where solver
//! names resolve to metadata and factories.
//!
//! The deck parser, the CLI and the time-stepping driver all resolve
//! against a registry rather than matching on an enum, so registering a
//! new [`IterativeSolver`] makes it selectable everywhere at once —
//! decks (`tl_solver=<name>`), `tealeaf --solver <name>`,
//! `tealeaf --list-solvers`, and the [`crate::Solve`] builder.

use crate::api::{IterativeSolver, Precision, SolverError, SolverMeta, SolverParams};
use crate::cg::Cg;
use crate::chebyshev::Chebyshev;
use crate::jacobi::Jacobi;
use crate::ppcg::Ppcg;

/// Builds one configured solver instance from generic parameters.
type SolverFactory = fn(&SolverParams) -> Box<dyn IterativeSolver>;

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
                tunable: false,
            },
            |p| Box::new(Jacobi::from_params(p)),
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
                tunable: true,
            },
            |p| Box::new(Cg::from_params(p)),
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
                tunable: true,
            },
            |p| Box::new(Chebyshev::from_params(p)),
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
                tunable: true,
            },
            |p| Box::new(Ppcg::from_params(p)),
        );
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
                tunable: true,
            },
            |p| Box::new(Cg::from_params(p).mixed()),
        );
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
                tunable: true,
            },
            |p| Box::new(Ppcg::from_params(p).mixed()),
        );
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
                tunable: true,
            },
            |p| Box::new(Chebyshev::from_params(p).mixed()),
        );
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
                // round-off limited: at f64-grade tolerances it only
                // stalls, so `auto` does not race it
                tunable: false,
            },
            |p| Box::new(Cg::from_params(p).single()),
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

    /// Builds a configured solver by `name` (canonical or alias).
    ///
    /// # Errors
    /// [`SolverError::UnknownSolver`] carrying the registered names.
    pub fn create(
        &self,
        name: &str,
        params: &SolverParams,
    ) -> Result<Box<dyn IterativeSolver>, SolverError> {
        self.entry(name).map(|(_, f)| f(params))
    }

    /// Machine-checks the registry's structural contracts and returns
    /// one human-readable finding per violation (empty = pass).
    ///
    /// Everything downstream — deck parsing, CLI resolution, precision
    /// routing, the auto-tuner's candidate plan — assumes these hold,
    /// and nothing in [`SolverRegistry::register`]'s signature can
    /// force them, so CI runs this audit (and `tealeaf --audit`
    /// exposes it) instead of trusting convention:
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
    /// * **routing closure** — for every registered method and every
    ///   [`Precision`], [`crate::solver_for_precision`] either lands
    ///   on a *registered* solver or fails with the typed
    ///   `PrecisionUnsupported` error; an `UnknownSolver` escape means
    ///   the routing table names a variant nobody registered. A method
    ///   advertising a reduced precision must also route to itself at
    ///   that precision.
    pub fn audit(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let mut seen: Vec<(&str, &str)> = Vec::new(); // (key, owning canonical name)
        for meta in self.iter() {
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
            for precision in [Precision::F64, Precision::F32, Precision::Mixed] {
                match crate::mixed::solver_for_precision(meta.name, precision, self) {
                    Ok(target) => {
                        if self.resolve(&target).is_err() {
                            findings.push(format!(
                                "routing ('{}', {}) lands on unregistered solver '{target}'",
                                meta.name,
                                precision.label()
                            ));
                        }
                    }
                    Err(SolverError::PrecisionUnsupported { .. }) => {}
                    Err(e) => findings.push(format!(
                        "routing ('{}', {}) escaped with a non-routing error: {e}",
                        meta.name,
                        precision.label()
                    )),
                }
            }
            if meta.precision != Precision::F64 {
                match crate::mixed::solver_for_precision(meta.name, meta.precision, self) {
                    Ok(target) if target == meta.name => {}
                    Ok(target) => findings.push(format!(
                        "solver '{}' advertises precision {} but routes to '{target}' \
                         at that precision",
                        meta.name,
                        meta.precision.label()
                    )),
                    Err(e) => findings.push(format!(
                        "solver '{}' advertises precision {} but does not route to \
                         itself: {e}",
                        meta.name,
                        meta.precision.label()
                    )),
                }
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
                tunable: false,
            },
            |p| Box::new(Jacobi::from_params(p)),
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
                tunable: true,
            },
            |p| Box::new(Jacobi::from_params(p)),
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
                tunable: false,
            },
            |p| Box::new(Jacobi::from_params(p)),
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
        // routing (mixed_cg, F64) resolves the name "cg", which is
        // unregistered here, so the audit must flag the escape.
        let mut reg = SolverRegistry::empty();
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
                tunable: true,
            },
            |p| Box::new(Jacobi::from_params(p)),
        );
        let findings = reg.audit();
        assert!(
            findings.iter().any(|f| f.contains("non-routing error")),
            "{findings:?}"
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
                tunable: false,
            },
            |p| Box::new(Jacobi::from_params(p)),
        );
        assert_eq!(reg.names().len(), n);
        assert_eq!(reg.resolve("relax").unwrap().summary, "replacement");
    }
}
