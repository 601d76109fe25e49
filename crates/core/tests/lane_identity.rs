//! Property suite for the kernel identity contract of
//! `tea_core::vector`, for any input — including ragged row lengths
//! that exercise every remainder path:
//!
//! * **elementwise** lane kernels are bit-identical to the
//!   element-at-a-time loops in `vector::scalar_ref`;
//! * **reductions** (`dot_row`, the `r·z` partial of the fused CG
//!   update) are bit-identical to an independent scalar model
//!   of the fixed 16-lane tree (`scalar_ref::tree_sum`: plain indexed
//!   loops over precomputed terms, no `chunks_exact`), and within
//!   `n·ε·Σ|tᵢ|` of the serial add chain they replaced.
//!
//! Both are checked on the row bodies, `lanes::*_row`, against those
//! models on arbitrary slices, `f64` and `f32`.

use proptest::prelude::*;
use tea_core::vector::{lanes, scalar_ref};

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
