//! Property suite for the kernel identity contract of
//! `tea_core::vector`, for any input — including ragged row lengths
//! that exercise every remainder path — and for any worker-thread count
//! and parallel threshold:
//!
//! * **elementwise** lane kernels are bit-identical to the
//!   element-at-a-time loops in `vector::scalar_ref`;
//! * **reductions** (`dot_row`, the `r·z` partial of the fused CG
//!   update) are bit-identical to an independent scalar model
//!   of the fixed 16-lane tree (`scalar_ref::tree_sum`: plain indexed
//!   loops over precomputed terms, no `chunks_exact`), and within
//!   `n·ε·Σ|tᵢ|` of the serial add chain they replaced.
//!
//! Two layers:
//!
//! * row level — `lanes::*_row` against those models on arbitrary
//!   slices, `f64` and `f32`, no global state touched;
//! * field level — the public kernels at threads ∈ {1, 2, 4} ×
//!   thresholds {1, 64, MAX} against the 1-thread never-parallel
//!   baseline, all inside one `#[test]` because thread count and
//!   threshold are process-global knobs (same discipline as
//!   `tests/thread_identity.rs`).

use proptest::prelude::*;
use tea_core::vector::{self, lanes, scalar_ref};
use tea_core::{SolveTrace, TileBounds};
use tea_mesh::Field2D;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ragged lengths 0..70 sweep every remainder class of the 4- and
    /// 8-wide lane groups and of the 16-wide reduction blocks, with up
    /// to four whole blocks. Values come from a
    /// seeded LCG (the vendored proptest has no inclusive-range or
    /// fixed-length vec strategies; NaN-free finite values keep bitwise
    /// comparison meaningful).
    #[test]
    fn lane_rows_bit_identical_to_their_scalar_models(
        n in 0usize..70,
        seed in any::<u64>(),
        a in -8.0f64..8.0,
        b in -8.0f64..8.0,
    ) {
        let gen = |salt: u64| {
            let mut state = seed ^ salt;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2e3 - 1e3
            };
            (0..n).map(|_| next()).collect::<Vec<f64>>()
        };
        let x = gen(1);
        let r = gen(2);
        let d = gen(3);
        let y0 = gen(4);

        // axpy
        let (mut ys, mut yl) = (y0.clone(), y0.clone());
        scalar_ref::axpy_row(&mut ys, a, &x);
        lanes::axpy_row(&mut yl, a, &x);
        prop_assert_eq!(bits(&ys), bits(&yl));

        // xpay
        let (mut ys, mut yl) = (y0.clone(), y0.clone());
        scalar_ref::xpay_row(&mut ys, &x, a);
        lanes::xpay_row(&mut yl, &x, a);
        prop_assert_eq!(bits(&ys), bits(&yl));

        // scale_add
        let (mut ys, mut yl) = (y0.clone(), y0.clone());
        scalar_ref::scale_add_row(&mut ys, a, b, &x);
        lanes::scale_add_row(&mut yl, a, b, &x);
        prop_assert_eq!(bits(&ys), bits(&yl));

        // scale_add_mul (the fused preconditioner recurrence)
        let (mut ys, mut yl) = (y0.clone(), y0.clone());
        scalar_ref::scale_add_mul_row(&mut ys, a, b, &r, &d);
        lanes::scale_add_mul_row(&mut yl, a, b, &r, &d);
        prop_assert_eq!(bits(&ys), bits(&yl));

        // scaled_copy
        let (mut ys, mut yl) = (vec![0.0; n], vec![0.0; n]);
        scalar_ref::scaled_copy_row(&mut ys, &x, a);
        lanes::scaled_copy_row(&mut yl, &x, a);
        prop_assert_eq!(bits(&ys), bits(&yl));

        // mul_into
        let (mut ys, mut yl) = (vec![0.0; n], vec![0.0; n]);
        scalar_ref::mul_into_row(&mut ys, &r, &d);
        lanes::mul_into_row(&mut yl, &r, &d);
        prop_assert_eq!(bits(&ys), bits(&yl));

        // reductions: the 16-lane tree, bitwise; the old chain, closely
        let prods: Vec<f64> = (0..n).map(|i| x[i] * r[i]).collect();
        check_reduction(lanes::dot_row(&x, &r), &prods);

        // the fused CG update: u and r like two axpys, r·z like the tree
        for diag in [None, Some(&d)] {
            let (mut us, mut rs) = (y0.clone(), r.clone());
            scalar_ref::axpy_row(&mut us, a, &x);
            scalar_ref::axpy_row(&mut rs, -a, &d);
            let rz: Vec<f64> = (0..n)
                .map(|i| rs[i] * diag.map_or(rs[i], |dd| rs[i] * dd[i]))
                .collect();
            let (mut ul, mut rl) = (y0.clone(), r.clone());
            let got = lanes::cg_update_row(&mut ul, &mut rl, a, &x, &d, diag.map(|v| &v[..]));
            prop_assert_eq!(bits(&us), bits(&ul));
            prop_assert_eq!(bits(&rs), bits(&rl));
            check_reduction(got, &rz);
        }

        // f32 rows reduce through the same 16 lanes
        let (xf, rf): (Vec<f32>, Vec<f32>) =
            (x.iter().map(|&v| v as f32).collect(), r.iter().map(|&v| v as f32).collect());
        let pf: Vec<f32> = (0..n).map(|i| xf[i] * rf[i]).collect();
        prop_assert_eq!(
            lanes::dot_row(&xf, &rf).to_bits(),
            scalar_ref::tree_sum(&pf).to_bits()
        );
    }
}

/// A lane reduction must equal the scalar tree model bitwise and sit
/// within `n·ε·Σ|tᵢ|` of the serial add chain over the same terms.
fn check_reduction(got: f64, terms: &[f64]) {
    assert_eq!(got.to_bits(), scalar_ref::tree_sum(terms).to_bits());
    let bound = terms.len() as f64 * f64::EPSILON * terms.iter().map(|t| t.abs()).sum::<f64>();
    assert!((got - scalar_ref::chain_sum(terms)).abs() <= bound);
}

/// Builds an `nx × ny` field with deterministic pseudo-random interior.
fn field(nx: usize, ny: usize, seed: u64) -> Field2D {
    let mut f = Field2D::new(nx, ny, 1);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    for k in 0..ny as isize {
        let row = f.row_mut(k, 0, nx as isize);
        for v in row.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2e3 - 1e3;
        }
    }
    f
}

fn interior_bits(f: &Field2D) -> Vec<u64> {
    let mut out = Vec::with_capacity(f.nx() * f.ny());
    for k in 0..f.ny() as isize {
        for j in 0..f.nx() as isize {
            out.push(f.at(j, k).to_bits());
        }
    }
    out
}

/// Runs every public vector kernel once on fresh fields and returns the
/// concatenated result bits (outputs + the reduction scalars).
fn kernel_sweep_bits(nx: usize, ny: usize, seed: u64) -> Vec<u64> {
    let bounds = TileBounds::serial(nx, ny);
    let mut tr = SolveTrace::new("lane-identity");
    let x = field(nx, ny, seed ^ 1);
    let r = field(nx, ny, seed ^ 2);
    let d = field(nx, ny, seed ^ 3);
    let mut out = Vec::new();

    let mut y = field(nx, ny, seed ^ 4);
    vector::axpy(&mut y, 1.25, &x, &bounds, 0, &mut tr);
    out.extend(interior_bits(&y));

    let mut y = field(nx, ny, seed ^ 5);
    vector::xpay(&mut y, &x, -0.75, &bounds, 0, &mut tr);
    out.extend(interior_bits(&y));

    let mut y = field(nx, ny, seed ^ 6);
    vector::scale_add(&mut y, 0.5, 2.0, &x, &bounds, 0, &mut tr);
    out.extend(interior_bits(&y));

    let mut y = field(nx, ny, seed ^ 7);
    vector::scale_add_mul(&mut y, 0.5, 2.0, &r, &d, &bounds, 0, &mut tr);
    out.extend(interior_bits(&y));

    let mut y = Field2D::new(nx, ny, 1);
    vector::scaled_copy(&mut y, &x, 3.5, &bounds, 0, &mut tr);
    out.extend(interior_bits(&y));

    let mut y = Field2D::new(nx, ny, 1);
    vector::mul_into(&mut y, &r, &d, &bounds, 0, &mut tr);
    out.extend(interior_bits(&y));

    out.push(vector::dot_local(&x, &r, &bounds, &mut tr).to_bits());

    for diag in [None, Some(&d)] {
        let (mut u, mut rr) = (field(nx, ny, seed ^ 8), field(nx, ny, seed ^ 9));
        let rz = vector::cg_update(&mut u, &mut rr, 0.375, &x, &r, diag, &bounds, &mut tr);
        out.extend(interior_bits(&u));
        out.extend(interior_bits(&rr));
        out.push(rz.to_bits());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Field-level contract across the runtime configuration matrix:
    /// the reduction shape depends on the sweep bounds alone. Ragged
    /// widths put every row through the remainder paths (`nx` up to 39
    /// spans two whole reduction blocks); `threshold = 1` forces the
    /// parallel branch even on tiny fields.
    #[test]
    fn kernels_bit_identical_across_threads_and_thresholds(
        nx in 1usize..40,
        ny in 1usize..10,
        seed in any::<u64>(),
    ) {
        // baseline: 1 worker, never parallel
        tea_core::set_num_threads(1);
        tea_core::set_par_threshold(usize::MAX);
        let baseline = kernel_sweep_bits(nx, ny, seed);
        for &threads in &[1usize, 2, 4] {
            for &threshold in &[1usize, 64, usize::MAX] {
                tea_core::set_num_threads(threads);
                tea_core::set_par_threshold(threshold);
                let got = kernel_sweep_bits(nx, ny, seed);
                tea_core::set_num_threads(1);
                tea_core::set_par_threshold(tea_core::PAR_THRESHOLD);
                prop_assert_eq!(
                    &baseline,
                    &got,
                    "kernels diverged at threads={} threshold={}",
                    threads,
                    threshold
                );
            }
        }
    }
}
