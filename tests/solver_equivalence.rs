//! Every solver, serial and decomposed, preconditioned or not, reaches
//! the same physics: the answer oracle's rows (see [`oracle_table`])
//! that these tests own — every registry entry's serial row (the
//! `mixed_*` ones are `tests/mixed_precision.rs`'s), `cg` on 2, 3, 4
//! and 6 ranks under both coefficient recipes, every preconditioned
//! row, every entry's serial row on the reciprocal-recipe deck (the
//! heat leg), and the paper's PPCG-1 + block-Jacobi combination, serial
//! and on 2×2 ranks.

mod oracle_table;

oracle_table::table_tests!(
    every_solver_reaches_the_same_temperature_field,
    rank_counts_agree_for_cg,
    preconditioners_do_not_change_the_answer,
    heat_is_conserved_for_every_solver,
    decomposed_ppcg_with_block_jacobi_depth1,
);
