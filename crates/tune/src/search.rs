//! The seeded, wall-clock-free candidate search.
//!
//! The design space is exactly what the registry says it is: every
//! `tunable` entry, expanded over the matrix-powers halo-depth axis for
//! the deep-halo methods. Candidates are ordered by the
//! bytes-per-iteration prior each entry declares (its
//! [`tea_core::IterationCost`], priced by `tea-perfmodel`; cheapest
//! first, so the cost cap prunes expensive candidates early), with ties
//! broken by a seeded [`splitmix64`] hash of each candidate's label —
//! the same deterministic-generator discipline as `tea-fault`'s
//! `FaultPlan`, so the race never reads a clock, the same seed always
//! explores in the same order, and the order of two tied candidates
//! does not depend on which other solvers are registered.

use tea_core::{PreconKind, SolverParams, SolverRegistry};
use tea_perfmodel::{iteration_bytes, KernelBytes};

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
    /// The registry entry's declared cost, priced by `tea-perfmodel`:
    /// bytes moved per counted iteration.
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

/// 64-bit FNV-1a of `s`: a candidate's registry-independent identity
/// for the seeded tie-break.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Expands `registry`'s tunable entries into the ordered candidate
/// list: tunable, non-serial metas × halo depths (depth 1 only under
/// the block-Jacobi preconditioner), sorted by the
/// bytes-per-iteration prior each meta declares, ascending, with ties
/// broken by `splitmix64(seed ^ fnv1a(label))`.
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
        let cost = meta.iteration_cost;
        let bytes_per_iteration = iteration_bytes(&cost, cost.inner_steps.count(params), &bytes);
        for &depth in depths {
            out.push(Candidate {
                solver: meta.name.to_string(),
                halo_depth: depth,
                bytes_per_iteration,
                needs_eigen_estimate: meta.needs_eigen_estimate,
            });
        }
    }
    let mut keyed: Vec<(u64, Candidate)> = out
        .into_iter()
        .map(|c| (splitmix64(seed ^ fnv1a(&c.label())), c))
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
    use tea_core::SolverMeta;

    #[test]
    fn plan_covers_every_tunable_meta_and_depth() {
        let reg = SolverRegistry::builtin();
        let plan = plan_candidates(&reg, &SolverParams::default(), 0);
        // 4 flat tunable methods at depth 1 + ppcg/mixed_ppcg at 3
        // depths each = 4 + 2*3 = 10
        assert_eq!(plan.len(), 10, "{plan:#?}");
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
        assert_eq!(plan.len(), 6, "{plan:#?}");
        assert!(plan.iter().all(|c| c.halo_depth == 1), "{plan:#?}");
    }

    #[test]
    fn plan_orders_by_prior_cheapest_first() {
        let reg = SolverRegistry::builtin();
        let plan = plan_candidates(&reg, &SolverParams::default(), 7);
        assert_eq!(plan[0].solver, "cg", "cheapest prior races first");
        for pair in plan.windows(2) {
            assert!(
                pair[0].bytes_per_iteration <= pair[1].bytes_per_iteration,
                "{pair:#?}"
            );
        }
        // round-off limited at the tolerances auto is run at: registered,
        // but never raced
        assert!(!plan.iter().any(|c| c.solver == "cg_f32"), "{plan:#?}");

        // the whole race order for seed 7, bit for bit: a change to a
        // declared cost, or to how one is priced, must show here
        let table = |p: &[Candidate]| -> Vec<(String, f64)> {
            p.iter()
                .map(|c| (c.label(), c.bytes_per_iteration))
                .collect()
        };
        let pinned = |rows: &[(&str, f64)]| -> Vec<(String, f64)> {
            rows.iter().map(|&(l, b)| (l.to_string(), b)).collect()
        };
        assert_eq!(
            table(&plan),
            pinned(&[
                ("cg", 112.0),
                ("chebyshev", 144.0),
                ("mixed_cg", 168.0),
                ("mixed_chebyshev", 560.0),
                ("mixed_ppcg@d8", 952.0),
                ("mixed_ppcg@d4", 952.0),
                ("mixed_ppcg", 952.0),
                ("ppcg", 1696.0),
                ("ppcg@d8", 1696.0),
                ("ppcg@d4", 1696.0),
            ])
        );
        let strips = SolverParams {
            precon: PreconKind::BlockJacobi,
            ..SolverParams::default()
        };
        assert_eq!(
            table(&plan_candidates(&reg, &strips, 7)),
            pinned(&[
                ("cg", 112.0),
                ("chebyshev", 144.0),
                ("mixed_cg", 168.0),
                ("mixed_chebyshev", 560.0),
                ("mixed_ppcg", 952.0),
                ("ppcg", 1696.0),
            ])
        );
    }

    #[test]
    fn width_correct_prior_prices_cg_f32_at_half_cg() {
        // regression for the precision-blind byte accounting: cg_f32
        // must be priced at 4 B/element — exactly half of cg
        let (reg, bytes) = (SolverRegistry::builtin(), KernelBytes::default());
        let meta = |n: &str| *reg.resolve(n).expect("builtin");
        let prior = |n: &str| iteration_bytes(&meta(n).iteration_cost, 1, &bytes);
        assert!((prior("cg_f32") - 0.5 * prior("cg")).abs() < 1e-12);
        let w64 = meta("cg").precision.elem_bytes();
        let w32 = meta("cg_f32").precision.elem_bytes();
        assert_eq!(w32, 0.5 * w64);

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
        let t64 = tea_perfmodel::predict_width(
            &machine,
            &trace,
            (4000, 4000),
            1,
            KernelBytes::for_width(w64),
        );
        let t32 = tea_perfmodel::predict_width(
            &machine,
            &trace,
            (4000, 4000),
            1,
            KernelBytes::for_width(w32),
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
    fn tie_order_does_not_depend_on_the_rest_of_the_registry() {
        // regression: the tie-break used to hash the candidate's index
        // in the plan, so retiring one solver reshuffled every tie
        // behind it
        let (full, params) = (SolverRegistry::builtin(), SolverParams::default());
        let labels = |p: &[Candidate]| p.iter().map(Candidate::label).collect::<Vec<_>>();
        for meta in full.iter().filter(|m| m.tunable) {
            let mut fewer = SolverRegistry::builtin();
            let retired = SolverMeta {
                tunable: false,
                ..*meta
            };
            fewer.register(retired, |_, p| {
                SolverRegistry::builtin().create("cg", p).expect("cg")
            });
            for seed in 0..64u64 {
                let mut want = plan_candidates(&full, &params, seed);
                want.retain(|c| c.solver != meta.name);
                let got = plan_candidates(&fewer, &params, seed);
                assert_eq!(
                    labels(&got),
                    labels(&want),
                    "without {}, seed {seed}",
                    meta.name
                );
            }
        }
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
