//! Precision routing over the application's full solver registry: every
//! canonical name and alias at every precision lands on the variant (or
//! fails with the typed error naming the solver) this table pins, so a
//! change to an entry's family or precision, or to the routing rule,
//! that moves an answer fails here row by row. The registry these
//! answers come from must also pass its own structural audit.

use tea_core::{Precision, SolverError};

/// What a `(name, precision)` request routes to.
#[derive(Debug)]
enum Routed {
    /// The canonical name of the registered variant.
    To(&'static str),
    /// `SolverError::PrecisionUnsupported`, naming this solver.
    Unsupported(&'static str),
    /// `SolverError::UnknownSolver`, naming this request.
    Unknown(&'static str),
}

use Precision::{Mixed, F32, F64};
use Routed::{To, Unknown, Unsupported};

#[test]
fn every_name_and_alias_routes_as_pinned() {
    let registry = tea_app::solver_registry();
    let table = [
        ("jacobi", F64, To("jacobi")),
        ("jacobi", F32, Unsupported("jacobi")),
        ("jacobi", Mixed, Unsupported("jacobi")),
        ("cg", F64, To("cg")),
        ("cg", F32, To("cg_f32")),
        ("cg", Mixed, To("mixed_cg")),
        ("chebyshev", F64, To("chebyshev")),
        ("chebyshev", F32, Unsupported("chebyshev")),
        ("chebyshev", Mixed, To("mixed_chebyshev")),
        ("cheby", F64, To("chebyshev")),
        ("cheby", F32, Unsupported("chebyshev")),
        ("cheby", Mixed, To("mixed_chebyshev")),
        ("ppcg", F64, To("ppcg")),
        ("ppcg", F32, Unsupported("ppcg")),
        ("ppcg", Mixed, To("mixed_ppcg")),
        ("cppcg", F64, To("ppcg")),
        ("cppcg", F32, Unsupported("ppcg")),
        ("cppcg", Mixed, To("mixed_ppcg")),
        ("mixed_cg", F64, To("cg")),
        ("mixed_cg", F32, To("cg_f32")),
        ("mixed_cg", Mixed, To("mixed_cg")),
        ("mixed", F64, To("cg")),
        ("mixed", F32, To("cg_f32")),
        ("mixed", Mixed, To("mixed_cg")),
        ("cg_mixed", F64, To("cg")),
        ("cg_mixed", F32, To("cg_f32")),
        ("cg_mixed", Mixed, To("mixed_cg")),
        ("mixed_ppcg", F64, To("ppcg")),
        ("mixed_ppcg", F32, Unsupported("mixed_ppcg")),
        ("mixed_ppcg", Mixed, To("mixed_ppcg")),
        ("ppcg_mixed", F64, To("ppcg")),
        ("ppcg_mixed", F32, Unsupported("mixed_ppcg")),
        ("ppcg_mixed", Mixed, To("mixed_ppcg")),
        ("mixed_chebyshev", F64, To("chebyshev")),
        ("mixed_chebyshev", F32, Unsupported("mixed_chebyshev")),
        ("mixed_chebyshev", Mixed, To("mixed_chebyshev")),
        ("chebyshev_mixed", F64, To("chebyshev")),
        ("chebyshev_mixed", F32, Unsupported("mixed_chebyshev")),
        ("chebyshev_mixed", Mixed, To("mixed_chebyshev")),
        ("cheby_mixed", F64, To("chebyshev")),
        ("cheby_mixed", F32, Unsupported("mixed_chebyshev")),
        ("cheby_mixed", Mixed, To("mixed_chebyshev")),
        ("cg_f32", F64, To("cg")),
        ("cg_f32", F32, To("cg_f32")),
        ("cg_f32", Mixed, To("mixed_cg")),
        ("f32_cg", F64, To("cg")),
        ("f32_cg", F32, To("cg_f32")),
        ("f32_cg", Mixed, To("mixed_cg")),
        ("amg", F64, To("amg")),
        ("amg", F32, Unsupported("amg")),
        ("amg", Mixed, Unsupported("amg")),
        ("boomeramg", F64, To("amg")),
        ("boomeramg", F32, Unsupported("amg")),
        ("boomeramg", Mixed, Unsupported("amg")),
        ("amg_pcg", F64, To("amg")),
        ("amg_pcg", F32, Unsupported("amg")),
        ("amg_pcg", Mixed, Unsupported("amg")),
        ("auto", F64, To("auto")),
        ("auto", F32, Unsupported("auto")),
        ("auto", Mixed, Unsupported("auto")),
        ("tune", F64, To("auto")),
        ("tune", F32, Unsupported("auto")),
        ("tune", Mixed, Unsupported("auto")),
        ("autotune", F64, To("auto")),
        ("autotune", F32, Unsupported("auto")),
        ("autotune", Mixed, Unsupported("auto")),
        ("sor", F64, Unknown("sor")),
        ("sor", Mixed, Unknown("sor")),
    ];
    let keys: usize = registry.iter().map(|m| 1 + m.aliases.len()).sum();
    assert_eq!(table.len(), 3 * keys + 2, "one row per key and precision");
    for (name, precision, want) in table {
        let got = registry.route(name, precision).map(|meta| meta.name);
        match (&want, &got) {
            (To(w), Ok(g)) if g == w => {}
            (Unsupported(w), Err(SolverError::PrecisionUnsupported { solver, .. }))
                if solver == w => {}
            (Unknown(w), Err(SolverError::UnknownSolver { requested, .. })) if requested == w => {}
            _ => panic!("({name}, {precision}): want {want:?}, got {got:?}"),
        }
    }
}

/// The only audit of the registry with `amg` and `auto` registered.
#[test]
fn full_registry_passes_its_own_audit() {
    let findings = tea_app::solver_registry().audit();
    assert!(findings.is_empty(), "{findings:?}");
}
