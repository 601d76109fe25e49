//! The mixed-precision contract: an `f32` preconditioner (or `f32` PPCG
//! inner smoothing) does not cost accuracy. A `mixed_*` row and its
//! `f64` twin meet the same `tl_eps` and agree beyond `f32` resolution
//! on the answer oracle's rows (see [`oracle_table`]) that these tests
//! own: `mixed_cg` under each preconditioner on the 32² crooked pipe,
//! `mixed_ppcg` at halo depth 4, and the serial `mixed_*` rows, whose
//! scale leg holds them exactly at `2^±20` and `2^±60` (the pedestal is
//! relative to the residual norm, never absolute). `tests/oracle.rs`
//! has the cliff decks, the `f32` honesty bar and the far-field bits.

mod oracle_table;

oracle_table::table_tests!(
    mixed_cg_matches_f64_on_the_crooked_pipe,
    mixed_ppcg_matches_f64_on_a_deeper_halo_deck,
    mixed_solves_are_exactly_scale_equivariant,
);
