//! Adversarial property tests for the deck parser: malformed,
//! truncated, mutated and huge-value decks must always come back as a
//! structured `Err(String)` or a valid `Deck` — never a panic. A
//! serving queue parses decks from untrusted job lists, so the parser
//! is a fault boundary.

use proptest::collection::vec;
use proptest::prelude::*;
use tea_app::{crooked_pipe_deck, parse_deck, render_deck, run_serial, DriverError};
use tea_core::PreconKind;

/// The vendored proptest has no `u8` strategy; derive one from `u32`.
fn any_byte() -> impl Strategy<Value = u8> {
    any::<u32>().prop_map(|x| (x & 0xFF) as u8)
}

/// Three draws in four land in `0..small` — where the accepted ranges
/// and their edges live — the fourth anywhere in `u64`.
fn edgy(small: u64) -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(move |x| if x & 3 != 0 { (x >> 2) % small } else { x })
}

/// Three draws in four are `sane`, the fourth any bit pattern: NaNs,
/// infinities, negatives, subnormals, magnitudes near the `f64` limits.
fn edgy_f64(sane: f64) -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(move |x| if x & 3 != 0 { sane } else { f64::from_bits(x) })
}

/// Tokens the parser cares about, mixed with junk: exercises the
/// key=value machinery far more densely than uniform byte soup.
fn deck_token() -> impl Strategy<Value = &'static str> {
    any::<u32>().prop_map(|x| {
        const TOKENS: &[&str] = &[
            "*tea",
            "*endtea",
            "state",
            "state 1 density=",
            "x_cells=",
            "y_cells=",
            "xmin",
            "=",
            "==",
            "tl_solver=cg",
            "tl_solver=warp",
            "tl_use_ppcg",
            "tl_use_warp",
            "tl_precision=f32",
            "tl_eps=",
            "tl_max_iters=",
            "initial_timestep=0.04",
            "!",
            "! comment",
            "1e308",
            "-1e308",
            "nan",
            "inf",
            "0",
            "18446744073709551615",
            "99999999999999999999999",
            "geometry=rectangle",
            "state 2 xmin=0 xmax=",
        ];
        TOKENS[(x as usize) % TOKENS.len()]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw byte soup (lossily decoded) never panics the parser.
    #[test]
    fn byte_soup_never_panics(bytes in vec(any_byte(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        match parse_deck(&text) {
            Ok(deck) => {
                // whatever parsed must also re-render without panicking
                let _ = render_deck(&deck);
            }
            Err(e) => prop_assert!(!e.is_empty(), "errors must carry a message"),
        }
    }

    /// Random token salads — dense in parser-relevant syntax — never
    /// panic either.
    #[test]
    fn token_salad_never_panics(
        tokens in vec(deck_token(), 0..64),
        joiner in any::<bool>(),
    ) {
        let sep = if joiner { "\n" } else { " " };
        let text = tokens.join(sep);
        let _ = parse_deck(&text);
    }

    /// Every strict line-prefix of a valid deck parses or errors
    /// structurally — truncation mid-file must not panic (and a deck
    /// cut before *endtea still has a well-defined meaning: the block
    /// simply runs to EOF).
    #[test]
    fn truncated_decks_never_panic(n in any::<usize>(), cut_in_line in any::<usize>()) {
        let full = render_deck(&crooked_pipe_deck(16, "cg"));
        let lines: Vec<&str> = full.lines().collect();
        let keep = n % (lines.len() + 1);
        let mut text = lines[..keep].join("\n");
        // also chop the kept text mid-line to model a torn write
        // (rendered decks are pure ASCII, so any cut is a char boundary)
        if keep > 0 {
            text.truncate(cut_in_line % (text.len() + 1));
        }
        let _ = parse_deck(&text);
    }

    /// Huge, negative, non-finite and overflowing numeric values are
    /// either accepted as numbers or rejected with an error — the
    /// parser itself must not panic on any of them. (Semantic checks
    /// like zero cell counts are the driver's validate() job.)
    #[test]
    fn extreme_values_never_panic(
        cells in any::<u64>(),
        eps_bits in any::<u64>(),
        iters in any::<u64>(),
    ) {
        let eps = f64::from_bits(eps_bits);
        let text = format!(
            "*tea\nx_cells={cells}\ny_cells={cells}\ntl_eps={eps}\ntl_max_iters={iters}\n*endtea\n"
        );
        let _ = parse_deck(&text);
    }

    /// The same idea one layer down: whatever control values a deck
    /// carries, the driver answers `Ok` or a typed `Err` — a value the
    /// solvers would `assert!` on, or the allocator abort on, is
    /// rejected by `Control::check` first — a runaway inner-step count
    /// included, before it can size the coefficient vector.
    #[test]
    fn extreme_controls_never_unwind_the_driver(
        dt in edgy_f64(0.04),
        eps in edgy_f64(1e-8),
        depth in edgy(10),
        inner in edgy(24),
        presteps in edgy(12),
        pick in any::<usize>(),
    ) {
        const SOLVERS: &[&str] = &[
            "amg",
            "ppcg",
            "mixed_ppcg",
            "chebyshev",
            "mixed_chebyshev",
            "cg",
            "mixed_cg",
            "cg_f32",
            "jacobi",
            "auto",
        ];
        const PRECONS: &[PreconKind] =
            &[PreconKind::None, PreconKind::Diagonal, PreconKind::BlockJacobi];
        let mut deck = crooked_pipe_deck(8, SOLVERS[pick % SOLVERS.len()]);
        let c = &mut deck.control;
        (c.end_step, c.summary_frequency, c.opts.max_iters) = (1, 0, 40);
        (c.dt, c.opts.eps, c.presteps) = (dt, eps, presteps);
        (c.ppcg_halo_depth, c.ppcg_inner_steps) = (depth as usize, inner as usize);
        c.precon = PRECONS[(pick / SOLVERS.len()) % PRECONS.len()];
        let run = run_serial(&deck);
        if !(eps.is_finite() && eps > 0.0) {
            prop_assert!(matches!(run, Err(DriverError::InvalidControl(_))), "{run:?}");
        }
    }

    /// And for the problem half: a cell count whose product overflows
    /// or would abort the process in the allocator (`x_cells=99999999999`
    /// did), and an extent that is NaN, infinite or inverted, are
    /// `Problem::validate`'s to reject — typed, before `Rank::setup`
    /// sizes a field by them.
    #[test]
    fn extreme_problems_never_abort_the_driver(
        x_cells in edgy(40),
        y_cells in edgy(40),
        x_max in edgy_f64(10.0),
    ) {
        let mut deck = crooked_pipe_deck(8, "cg");
        let c = &mut deck.control;
        (c.end_step, c.summary_frequency, c.opts.max_iters) = (1, 0, 40);
        (deck.problem.x_cells, deck.problem.y_cells) = (x_cells as usize, y_cells as usize);
        deck.problem.extent.x_max = x_max;
        let run = run_serial(&deck);
        let cells = (x_cells as usize).checked_mul(y_cells as usize);
        if cells.is_none_or(|c| c == 0 || c > 1 << 28) || !(x_max.is_finite() && x_max > 0.0) {
            prop_assert!(matches!(run, Err(DriverError::InvalidProblem(_))), "{run:?}");
        }
    }

    /// Single-character mutations of a valid deck never panic: either
    /// the deck still parses, or the error explains itself (per-line
    /// errors name the line; killing `*tea` itself reports the missing
    /// block).
    #[test]
    fn mutated_valid_decks_never_panic(pos in any::<usize>(), byte in any_byte()) {
        let full = render_deck(&crooked_pipe_deck(16, "cg"));
        let mut bytes = full.into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_deck(&text) {
            prop_assert!(
                e.contains("line ") || e.contains("*tea"),
                "errors must be diagnosable: {e}"
            );
        }
    }
}

#[test]
fn a_valid_deck_round_trips() {
    let deck = crooked_pipe_deck(24, "ppcg");
    let parsed = parse_deck(&render_deck(&deck)).expect("render → parse must succeed");
    assert_eq!(parsed.problem.x_cells, 24);
    assert_eq!(parsed.control.solver, "ppcg");
}
