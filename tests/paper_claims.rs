//! The paper's evaluation claims, each checked by the `tea_bench::claims`
//! function that `figures` prints: Figs. 3–8, the §IV.C.1 block-Jacobi
//! cut and §VI's weak-scaling argument. The meshes are the smallest at
//! which each figure still measures what the paper describes, so the
//! file runs in seconds in the debug profile; every claim extrapolates
//! to the paper's 4000² mesh, as `figures` does by default.

use tea_bench::claims::{self, Scale, Violation};

fn scale(cells: usize, steps: u64) -> Scale {
    Scale {
        cells,
        steps,
        target: 4000,
    }
}

#[test]
fn fig3_heat_runs_along_the_pipe_and_leaves_the_wall_cold() -> Result<(), Violation> {
    claims::fig3(&scale(64, 8)).map(drop)
}

#[test]
fn fig4_average_temperature_converges_under_refinement() -> Result<(), Violation> {
    claims::fig4(&scale(48, 5)).map(drop)
}

#[test]
fn fig5_ppcg16_beats_cg_on_titan_at_full_scale() -> Result<(), Violation> {
    claims::fig5(&scale(64, 2)).map(drop)
}

#[test]
fn fig6_piz_daint_beats_titan_at_2048_nodes() -> Result<(), Violation> {
    claims::fig6(&scale(64, 2)).map(drop)
}

#[test]
fn fig7_boomeramg_wins_small_and_cppcg_wins_at_scale() -> Result<(), Violation> {
    claims::fig7(&scale(48, 2)).map(drop)
}

#[test]
fn fig8_spruce_is_super_linear_and_piz_daint_dominates_titan() -> Result<(), Violation> {
    claims::fig8(&scale(48, 2)).map(drop)
}

#[test]
fn block_jacobi_cuts_the_condition_number_by_about_40_percent() -> Result<(), Violation> {
    claims::claim_condition(48).map(drop)
}

#[test]
fn kappa_and_iterations_grow_with_the_mesh() -> Result<(), Violation> {
    claims::claim_weak_scaling(&scale(96, 1)).map(drop)
}
