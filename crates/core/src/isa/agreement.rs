//! The two compiled copies of every dispatched kernel agree bit for bit.
//!
//! Each kernel runs once with this thread's dispatchers pinned to the
//! baseline copy and once pinned to the AVX2 copy, from the same
//! inputs, in `f64` and `f32`, on every tile of a 2×2 decomposition at
//! row widths 1, 3, 5, 17, 33 and 97 (every remainder of the 4-, 8- and
//! 16-element groups) and sweep extensions 0–3. Every field is finite
//! one cell beyond the sweep — as far as a stencil reads — and NaN
//! further out, so a copy that reads outside its bounds shows. The
//! bits of every field and of every returned partial must match; whole
//! solves compare the final field and the whole [`SolveTrace`].
//!
//! On a host without AVX2 there is no second copy to run: each test
//! prints a note saying so and stops.

use super::path::{self, Path};
use crate::builder::{crooked_pipe_system, Solve};
use crate::control::Probed;
use crate::eigen::EigenEstimate;
use crate::ops::{cheb_fused_rows, TileBounds, TileOperator};
use crate::ppcg::{Smooth, Smoothing};
use crate::precon::{combine_rows, BlockJacobi, PreconKind, Preconditioner};
use crate::trace::SolveTrace;
use crate::vector::{self, Rows};
use std::ops::RangeInclusive;
use tea_mesh::{Coefficient, Coefficients, Decomposition2D, Extent2D, Field2, Field2D, Mesh2D};

/// Tile widths: every remainder of 4, 8 and 16.
const WIDTHS: [usize; 6] = [1, 3, 5, 17, 33, 97];
/// Tile height.
const ROWS: usize = 3;
/// Field halo: the widest sweep (extension 3) plus the stencil's reach.
const HALO: usize = 4;
/// Fields a kernel case gets.
const FIELDS: usize = 5;

/// Whether the AVX2 half can run; prints the note when it cannot.
fn wide_available() -> bool {
    let ok = path::available(Path::Avx2);
    if !ok {
        eprintln!(
            "note: host has no AVX2 — only the baseline copy exists here; agreement not tested"
        );
    }
    ok
}

/// A splitmix64 stream of values in ±[0.1, 10) with mixed signs, so a
/// changed rounding or add order shows in the bits.
struct Values(u64);

impl Values {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let mag = 0.1 * 100f64.powf(unit);
        if z & 1 == 0 {
            mag
        } else {
            -mag
        }
    }
}

/// Tile `rank` of a 2×2 decomposition whose tiles are `w` × [`ROWS`],
/// with face coefficients from a random positive density (zero on and
/// beyond the global boundary, as assembled).
fn tile_op<S: Probed>(w: usize, rank: usize) -> TileOperator<S> {
    let d = Decomposition2D::with_grid(2 * w, 2 * ROWS, 2, 2);
    let mesh = Mesh2D::new(&d, rank, Extent2D::unit());
    let mut density = Field2D::new(w, ROWS, HALO);
    let mut values = Values(17 + rank as u64);
    for v in density.raw_mut() {
        *v = 0.5 + values.next().abs() / 4.0;
    }
    let coeffs = Coefficients::assemble(
        &mesh,
        &density,
        Coefficient::RecipConductivity,
        0.7,
        1.3,
        HALO,
    );
    TileOperator::new(coeffs.convert(), TileBounds::new(&mesh, HALO))
}

/// A field finite over the extension-`ext` sweep grown by one cell on
/// every side and NaN everywhere else.
fn poisoned<S: Probed>(bounds: &TileBounds, ext: usize, seed: u64) -> Field2<S> {
    let (nx, ny) = bounds.tile();
    let mut f = Field2::filled(nx, ny, HALO, S::from_f64(f64::NAN));
    let (x_lo, x_hi, y_lo, y_hi) = bounds.range(ext);
    let mut values = Values(seed);
    for k in y_lo - 1..y_hi + 1 {
        for j in x_lo - 1..x_hi + 1 {
            f.set(j, k, S::from_f64(values.next()));
        }
    }
    f
}

fn bits<S: Probed>(f: &Field2<S>) -> Vec<u64> {
    f.raw().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// A kernel under test: operator, the case's fields, the sweep
/// extension; returns the bits of whatever it computes besides the
/// fields (partials, promoted values).
type Kernel<'a, S> = dyn Fn(&TileOperator<S>, &mut [Field2<S>], usize) -> Vec<u64> + 'a;

/// Runs `kernel` on both copies for every width, tile and extension in
/// `exts`, and compares all bits.
fn agree<S: Probed>(name: &str, exts: RangeInclusive<usize>, kernel: &Kernel<'_, S>) {
    for w in WIDTHS {
        for rank in 0..4 {
            let op = tile_op::<S>(w, rank);
            for ext in exts.clone() {
                let start: Vec<Field2<S>> = (0..FIELDS)
                    .map(|i| poisoned(&op.bounds, ext, (w * 100 + rank * 10 + i) as u64))
                    .collect();
                let run = |p| {
                    let mut f = start.clone();
                    let out = path::on(p, || kernel(&op, &mut f, ext)).expect("host checked");
                    (f, out)
                };
                let (base, base_out) = run(Path::Baseline);
                let (wide, wide_out) = run(Path::Avx2);
                let tag = format!("{name} {} width {w} tile {rank} ext {ext}", S::NAME);
                assert_eq!(base_out, wide_out, "{tag}: returned values");
                for (i, (b, v)) in base.iter().zip(&wide).enumerate() {
                    assert_eq!(bits(b), bits(v), "{tag}: field {i}");
                }
                // nothing read the poison: every swept cell stays finite
                let (x_lo, x_hi, y_lo, y_hi) = op.bounds.range(ext);
                for (i, f) in base.iter().enumerate() {
                    for k in y_lo..y_hi {
                        let row = f.row(k, x_lo, x_hi);
                        assert!(
                            row.iter().all(|v| v.to_f64().is_finite()),
                            "{tag}: field {i} row {k} read past its sweep"
                        );
                    }
                }
            }
        }
    }
}

/// The elementwise vector kernels, at every extension.
fn vector_kernels<S: Probed>() {
    let (a, b) = (
        S::from_f64(0.8191061549414237),
        S::from_f64(-0.3066128620687435),
    );
    let t = || SolveTrace::new("agreement");
    agree::<S>("axpy", 0..=3, &|op, f, e| {
        let [y, x, ..] = f else { unreachable!() };
        vector::axpy(y, a, x, &op.bounds, e, &mut t());
        vec![]
    });
    agree::<S>("xpay", 0..=3, &|op, f, e| {
        let [y, x, ..] = f else { unreachable!() };
        vector::xpay(y, x, a, &op.bounds, e, &mut t());
        vec![]
    });
    agree::<S>("scale_add", 0..=3, &|op, f, e| {
        let [y, x, ..] = f else { unreachable!() };
        vector::scale_add(y, a, b, x, &op.bounds, e, &mut t());
        vec![]
    });
    agree::<S>("scale_add_mul", 0..=3, &|op, f, e| {
        let [y, r, d, ..] = f else { unreachable!() };
        vector::scale_add_mul(y, a, b, r, d, &op.bounds, e, &mut t());
        vec![]
    });
    agree::<S>("scaled_copy", 0..=3, &|op, f, e| {
        let [y, x, ..] = f else { unreachable!() };
        vector::scaled_copy(y, x, b, &op.bounds, e, &mut t());
        vec![]
    });
    agree::<S>("mul_into", 0..=3, &|op, f, e| {
        let [y, x, d, ..] = f else { unreachable!() };
        vector::mul_into(y, x, d, &op.bounds, e, &mut t());
        vec![]
    });
}

/// The interior-only vector kernels and their partials.
fn interior_vector_kernels<S: Probed>() {
    let alpha = S::from_f64(0.5772156649015329);
    let t = || SolveTrace::new("agreement");
    agree::<S>("dot_local", 0..=0, &|op, f, _| {
        let d = vector::dot_local(&f[0], &f[1], &op.bounds, &mut t());
        vec![d.to_f64().to_bits()]
    });
    agree::<S>("cg_update", 0..=0, &|op, f, _| {
        let [u, r, p, w, d] = f else { unreachable!() };
        let plain = vector::cg_update(u, r, alpha, p, w, None, &op.bounds, &mut t());
        let diag = vector::cg_update(u, r, alpha, p, w, Some(d), &op.bounds, &mut t());
        vec![plain.to_f64().to_bits(), diag.to_f64().to_bits()]
    });
    agree::<S>("axpy2", 0..=0, &|op, f, _| {
        let [u, r, p, w, _] = f else { unreachable!() };
        vector::axpy2(u, r, alpha, p, w, &op.bounds, &mut t());
        vec![]
    });
}

/// The operator's sweeps: apply, residual and the fused Chebyshev step
/// in all three of its starts, at every extension.
fn operator_kernels<S: Probed>() {
    let t = || SolveTrace::new("agreement");
    agree::<S>("apply", 0..=3, &|op, f, e| {
        let [w, p, ..] = f else { unreachable!() };
        op.apply(p, w, e, &mut t());
        vec![]
    });
    agree::<S>("residual", 0..=3, &|op, f, e| {
        let [r, u, b, ..] = f else { unreachable!() };
        op.residual(u, b, r, e, &mut t());
        vec![]
    });
    agree::<S>("apply_cheb_fused", 0..=3, &|op, f, e| {
        let [z, rr, sd, ..] = f else { unreachable!() };
        op.apply_cheb_fused(sd, z, rr, e, &mut t());
        vec![]
    });
    agree::<S>("cheb_fused_rows (fresh)", 0..=3, &|op, f, e| {
        let [z, rr, sd, r, _] = f else { unreachable!() };
        cheb_fused_rows(op, sd, z, rr, e, Rows::All, true, None);
        cheb_fused_rows(op, sd, z, rr, e, Rows::All, true, Some(r));
        vec![]
    });
    agree::<S>("apply_fused_dot", 0..=0, &|op, f, _| {
        let [w, p, ..] = f else { unreachable!() };
        vec![op.apply_fused_dot(p, w, &mut t()).to_f64().to_bits()]
    });
    agree::<S>("jacobi_sweep", 0..=0, &|op, f, _| {
        let [out, x, b, w, zero_start] = f else {
            unreachable!()
        };
        op.jacobi_sweep(Some(x), b, w, out);
        op.jacobi_sweep(None, b, w, zero_start);
        vec![]
    });
}

/// The block pass's recurrence rows for each preconditioner, the
/// block-Jacobi strip solve at the paper's strip length and at a
/// run-time one, and the mixed methods' demote and promote sweeps.
fn precon_and_conversion_kernels<S: Probed>() {
    let (a, b) = (
        S::from_f64(0.8191061549414237),
        S::from_f64(0.3066128620687435),
    );
    for kind in [
        PreconKind::None,
        PreconKind::Diagonal,
        PreconKind::BlockJacobi,
    ] {
        let exts = if kind == PreconKind::BlockJacobi {
            0..=0
        } else {
            0..=3
        };
        agree::<S>(&format!("combine_rows {kind:?}"), exts, &|op, f, e| {
            let precon = Preconditioner::setup(kind, op, 3);
            let [sd, rr, tmp, ..] = f else { unreachable!() };
            combine_rows(
                &precon,
                sd,
                rr,
                tmp,
                &op.bounds,
                e,
                Rows::All,
                move |y, m| a * y + b * m,
            );
            vec![]
        });
    }
    for strip in [4, 3] {
        agree::<S>(
            &format!("BlockJacobi::apply strip {strip}"),
            0..=0,
            &|op, f, _| {
                let [z, r, ..] = f else { unreachable!() };
                BlockJacobi::setup(op, strip).apply(r, z, &op.bounds);
                vec![]
            },
        );
    }
    agree::<S>("demote and promote", 0..=0, &|_, f, _| {
        let wide: Field2D = f[1].convert();
        crate::mixed::demote(f[0].raw_mut(), wide.raw(), 2f64.powi(-40));
        let mut back = Field2D::new(f[0].nx(), f[0].ny(), HALO);
        crate::mixed::promote(back.raw_mut(), f[2].raw(), 0.5);
        bits(&back)
    });
}

/// Every block of an `inner`-step smoothing at matrix-powers depth
/// `depth`, through `Smoothing::run_block`.
fn block_pass<S: Probed>(depth: usize, kind: PreconKind) {
    let est = EigenEstimate {
        min: 0.0731,
        max: 3.917,
    };
    let smoothing = Smoothing::new(est, 7, depth);
    let name = format!("run_block depth {depth} {kind:?}");
    // the widest level sweeps extension `depth` (the prelude, deeper
    // than 1) and its stencils read one cell beyond
    agree::<S>(&name, depth..=depth, &|op, f, _| {
        let precon = Preconditioner::setup(kind, op, depth);
        let [z, rr, sd, tmp, r] = f else {
            unreachable!()
        };
        let mut trace = SolveTrace::new("agreement");
        for block in smoothing.blocks() {
            let mut s = Smooth { z, rr, sd, tmp };
            let from_r = (block.0 == 0).then_some(&*r);
            smoothing.run_block(op, &precon, &mut s, from_r, block, &mut trace);
        }
        vec![]
    });
}

#[test]
fn vector_kernels_agree() {
    if wide_available() {
        vector_kernels::<f64>();
        vector_kernels::<f32>();
        interior_vector_kernels::<f64>();
        interior_vector_kernels::<f32>();
    }
}

#[test]
fn operator_kernels_agree() {
    if wide_available() {
        operator_kernels::<f64>();
        operator_kernels::<f32>();
    }
}

#[test]
fn precon_and_conversion_kernels_agree() {
    if wide_available() {
        precon_and_conversion_kernels::<f64>();
        precon_and_conversion_kernels::<f32>();
    }
}

#[test]
fn block_passes_agree() {
    if wide_available() {
        for (depth, kind) in [
            (1, PreconKind::None),
            (1, PreconKind::BlockJacobi),
            (3, PreconKind::None),
            (3, PreconKind::Diagonal),
        ] {
            block_pass::<f64>(depth, kind);
            block_pass::<f32>(depth, kind);
        }
    }
}

#[test]
fn whole_solves_agree() {
    if !wide_available() {
        return;
    }
    for (name, depth) in [("cg", 1), ("ppcg", 4), ("mixed_ppcg", 4), ("chebyshev", 1)] {
        let (op, b) = crooked_pipe_system(32, 0.04, depth);
        let solve = |p| {
            path::on(p, || {
                let mut u = b.clone();
                let result = Solve::on(&op)
                    .with_solver(name)
                    .halo_depth(depth)
                    .run(&mut u, &b)
                    .expect("registered");
                (u, result)
            })
            .expect("host checked")
        };
        let (base_u, base) = solve(Path::Baseline);
        let (wide_u, wide) = solve(Path::Avx2);
        assert!(base.converged, "{name}: {base:?}");
        assert_eq!(bits(&base_u), bits(&wide_u), "{name}: final field");
        assert_eq!(base.trace, wide.trace, "{name}: trace");
        assert_eq!(
            (base.iterations, base.status, base.final_residual.to_bits()),
            (wide.iterations, wide.status, wide.final_residual.to_bits()),
            "{name}: ending"
        );
    }
}

#[test]
fn the_selector_pins_the_dispatch() {
    let name = |p| path::on(p, super::kernel_isa);
    assert_eq!(name(Path::Baseline), Some("baseline"));
    if wide_available() {
        assert_eq!(name(Path::Avx2), Some("avx2"));
    }
}
