//! The seeded, wall-clock-free candidate search.
//!
//! The design space is exactly what the registry says it is: every
//! `tunable` entry, expanded over the matrix-powers halo-depth axis for
//! the deep-halo methods. Candidates are ordered by the `tea-perfmodel`
//! bytes-per-iteration prior (cheapest first, so the cost cap prunes
//! expensive candidates early), with ties broken by a seeded
//! [`splitmix64`] hash — the same deterministic-generator discipline as
//! `tea-fault`'s `FaultPlan`, so the race never reads a clock and the
//! same seed always explores in the same order.

use tea_core::{ChebyOpts, PreconKind, SolverParams, SolverRegistry};
use tea_perfmodel::{predicted_iteration_bytes, KernelBytes};

/// Halo depths tried for methods with `deep_halo` metadata (the paper's
/// `PPCG-n` axis); everything else runs at the standard depth 1.
const DEEP_HALO_DEPTHS: [usize; 3] = [1, 4, 8];

/// One point of the design space the tuner may race.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Canonical registry name.
    pub solver: String,
    /// Matrix-powers halo depth (1 for non-deep-halo methods).
    pub halo_depth: usize,
    /// Inner steps per outer iteration the bytes prior was priced at.
    pub inner_steps: usize,
    /// `tea-perfmodel` prior: bytes moved per counted iteration.
    pub bytes_per_iteration: f64,
    /// Whether the method runs a CG-Lanczos eigen prelude (such
    /// candidates need `presteps + 2` iterations before a trial can
    /// say anything, so tighter cost caps skip them outright).
    pub needs_eigen_estimate: bool,
}

impl Candidate {
    /// Display label: the solver name, suffixed with `@d<depth>` for
    /// deep-halo configurations (`"ppcg@d8"`).
    pub fn label(&self) -> String {
        if self.halo_depth > 1 {
            format!("{}@d{}", self.solver, self.halo_depth)
        } else {
            self.solver.clone()
        }
    }

    /// The solver parameters for this candidate: the caller's params
    /// with the halo depth swapped for the candidate's.
    pub fn params(&self, base: &SolverParams) -> SolverParams {
        SolverParams {
            halo_depth: self.halo_depth,
            ..base.clone()
        }
    }
}

/// One step of the splitmix64 output function — a high-quality 64-bit
/// hash (same constants as `tea-fault`'s generator). Used purely as a
/// seeded tie-breaker, so equal-prior candidates race in an order that
/// depends only on the seed.
pub fn splitmix64(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Expands `registry`'s tunable entries into the ordered candidate
/// list: tunable, non-serial metas × halo depths (depth 1 only under
/// the block-Jacobi preconditioner), sorted by the
/// bytes-per-iteration prior ascending with seeded tie-breaking.
pub fn plan_candidates(
    registry: &SolverRegistry,
    params: &SolverParams,
    seed: u64,
) -> Vec<Candidate> {
    let bytes = KernelBytes::default();
    let mut out = Vec::new();
    for meta in registry.iter() {
        if !meta.tunable || meta.serial_only {
            continue;
        }
        // block-Jacobi strips cannot span matrix-powers halos (paper
        // §IV.C.2; the solver asserts it), so that deck keeps depth 1
        let strips = params.precon == PreconKind::BlockJacobi;
        let depths: &[usize] = if meta.deep_halo && !strips {
            &DEEP_HALO_DEPTHS
        } else {
            &[1]
        };
        // how many inner steps one counted iteration of the method
        // performs, for the bytes prior: the PPCG family smooths
        // `inner_steps` times per outer iteration, the mixed
        // accelerators run one f32 block of `check_interval` sweeps
        let m = match meta.name {
            "ppcg" | "mixed_ppcg" => params.inner_steps,
            "mixed_chebyshev" | "mixed_richardson" => {
                ChebyOpts::default().check_interval.max(1) as usize
            }
            _ => 1,
        };
        for &depth in depths {
            out.push(Candidate {
                solver: meta.name.to_string(),
                halo_depth: depth,
                inner_steps: m,
                bytes_per_iteration: predicted_iteration_bytes(meta.name, m, &bytes),
                needs_eigen_estimate: meta.needs_eigen_estimate,
            });
        }
    }
    let mut keyed: Vec<(u64, Candidate)> = out
        .into_iter()
        .enumerate()
        .map(|(i, c)| (splitmix64(seed ^ i as u64), c))
        .collect();
    keyed.sort_by(|(ta, a), (tb, b)| {
        a.bytes_per_iteration
            .partial_cmp(&b.bytes_per_iteration)
            .expect("priors are finite")
            .then(ta.cmp(tb))
    });
    keyed.into_iter().map(|(_, c)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_tunable_meta_and_depth() {
        let reg = SolverRegistry::builtin();
        let plan = plan_candidates(&reg, &SolverParams::default(), 0);
        // 8 flat tunable methods at depth 1 + ppcg/mixed_ppcg at 3
        // depths each = 8 + 2*3 = 14
        assert_eq!(plan.len(), 14, "{plan:#?}");
        for meta in reg.iter() {
            let instances = plan.iter().filter(|c| c.solver == meta.name).count();
            let expect = match (meta.tunable && !meta.serial_only, meta.deep_halo) {
                (false, _) => 0,
                (true, false) => 1,
                (true, true) => DEEP_HALO_DEPTHS.len(),
            };
            assert_eq!(instances, expect, "{}", meta.name);
        }
        assert!(!plan.iter().any(|c| c.solver == "jacobi"));

        // regression: under block-Jacobi the deep depths used to be
        // planned anyway, and racing one hit the solver's assert
        let strips = SolverParams {
            precon: PreconKind::BlockJacobi,
            ..SolverParams::default()
        };
        let plan = plan_candidates(&reg, &strips, 0);
        assert_eq!(plan.len(), 10, "{plan:#?}");
        assert!(plan.iter().all(|c| c.halo_depth == 1), "{plan:#?}");
    }

    #[test]
    fn plan_orders_by_prior_cheapest_first() {
        let reg = SolverRegistry::builtin();
        let plan = plan_candidates(&reg, &SolverParams::default(), 7);
        assert_eq!(plan[0].solver, "cg_f32", "cheapest prior races first");
        for pair in plan.windows(2) {
            assert!(
                pair[0].bytes_per_iteration <= pair[1].bytes_per_iteration,
                "{pair:#?}"
            );
        }
    }

    #[test]
    fn width_correct_prior_prefers_cg_f32_over_cg() {
        // regression for the precision-blind byte accounting: cg_f32
        // must be priced at 4 B/element — exactly half of cg — so it
        // races strictly before cg at every seed
        let reg = SolverRegistry::builtin();
        for seed in 0..16u64 {
            let plan = plan_candidates(&reg, &SolverParams::default(), seed);
            let pos = |n: &str| plan.iter().position(|c| c.solver == n).unwrap();
            assert!(pos("cg_f32") < pos("cg"), "seed {seed}: {plan:#?}");
        }
        let plan = plan_candidates(&reg, &SolverParams::default(), 0);
        let bytes = |n: &str| {
            plan.iter()
                .find(|c| c.solver == n)
                .unwrap()
                .bytes_per_iteration
        };
        assert!((bytes("cg_f32") - 0.5 * bytes("cg")).abs() < 1e-12);

        // and on a bandwidth-bound synthetic machine the half-width
        // trace replays in materially less time — the ordering the
        // prior encodes is the one the machine model agrees with
        let machine = tea_perfmodel::titan();
        let mut trace = tea_core::SolveTrace::new("cg-shape");
        for _ in 0..100 {
            trace.spmv.record(0);
            trace.vector_ops.record(0);
            trace.vector_ops.record(0);
            trace.vector_ops.record(0);
            trace.dot_kernels.record(0);
            trace.record_halo(1, 1);
            trace.record_reduction(1);
            trace.record_reduction(1);
        }
        let w64 = tea_perfmodel::solver_elem_bytes("cg");
        let w32 = tea_perfmodel::solver_elem_bytes("cg_f32");
        let t64 = tea_perfmodel::predict_width(
            &machine,
            &trace,
            (4000, 4000),
            1,
            KernelBytes::for_width(w64),
            w64,
        );
        let t32 = tea_perfmodel::predict_width(
            &machine,
            &trace,
            (4000, 4000),
            1,
            KernelBytes::for_width(w32),
            w32,
        );
        assert!(
            t32.total() < 0.75 * t64.total(),
            "f32 leg must be markedly cheaper on a bandwidth-bound machine: \
             {} vs {}",
            t32.total(),
            t64.total()
        );
    }

    #[test]
    fn plan_is_seed_deterministic_and_seed_sensitive_on_ties() {
        let reg = SolverRegistry::builtin();
        let params = SolverParams::default();
        let a = plan_candidates(&reg, &params, 42);
        let b = plan_candidates(&reg, &params, 42);
        assert_eq!(a, b, "same seed, same order");
        // equal-prior groups (e.g. the three ppcg depths) exist, so
        // some seed must reorder within a group
        let labels = |p: &[Candidate]| p.iter().map(Candidate::label).collect::<Vec<_>>();
        let base = labels(&a);
        let reordered = (0..64u64).any(|s| labels(&plan_candidates(&reg, &params, s)) != base);
        assert!(reordered, "tie-break never engaged across 64 seeds");
    }

    #[test]
    fn candidate_labels_and_params() {
        let c = Candidate {
            solver: "ppcg".into(),
            halo_depth: 8,
            inner_steps: 16,
            bytes_per_iteration: 1.0,
            needs_eigen_estimate: true,
        };
        assert_eq!(c.label(), "ppcg@d8");
        let p = c.params(&SolverParams::default());
        assert_eq!(p.halo_depth, 8);
        let flat = Candidate {
            halo_depth: 1,
            ..c.clone()
        };
        assert_eq!(flat.label(), "ppcg");
    }

    #[test]
    fn splitmix64_matches_reference_stream() {
        // first outputs of the splitmix64 reference for seed 0
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
