//! Property suite for the "matrix powers in time" contract of
//! `tea_core::ppcg`: a block of Chebyshev smoothing levels run as one
//! time-skewed pass over the rows equals the same levels run as whole
//! sweeps, bit for bit, in `f64` and `f32`, under every preconditioner
//! a block accepts.
//!
//! Two executions of every block of a smoothing are compared:
//!
//! * the **oracle** — the unfused public kernels, one whole sweep at a
//!   time: `zero`, `copy`, `Preconditioner::apply`, `scaled_copy` for
//!   the prelude; `apply_cheb_fused`, `Preconditioner::apply`,
//!   `scale_add` for each step;
//! * the **skewed** pass — `Smoothing::run_block`.
//!
//! The tile is the centre of a 3×3 decomposition, so all four sides
//! extend and a depth-4 block sweeps `e = 3, 2, 1, 0`; ghosts hold
//! arbitrary data, as after an exchange. Sizes run from one row or one
//! column (the whole pass is ramp-up and drain) through tiles shorter
//! than `2·h` rows to ones with a steady state, odd widths included.

use proptest::prelude::*;
use tea_core::ppcg::{Smooth, Smoothing};
use tea_core::{
    vector, ChebyConstants, EigenEstimate, PreconKind, Preconditioner, SolveTrace, TileBounds,
    TileOperator,
};
use tea_mesh::{Coefficients, Decomposition2D, Extent2D, Field2, Field2D, Mesh2D, Scalar};

/// A field with deterministic pseudo-random values in `lo..hi` in every
/// cell, ghosts included.
fn noise(nx: usize, ny: usize, halo: usize, seed: u64, lo: f64, hi: f64) -> Field2D {
    let mut f = Field2D::new(nx, ny, halo);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let h = halo as isize;
    for k in -h..ny as isize + h {
        for v in f.row_mut(k, -h, nx as isize + h) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64);
        }
    }
    f
}

/// The five fields a smoothing touches.
#[derive(Clone)]
struct Fields<S: Scalar> {
    z: Field2<S>,
    rr: Field2<S>,
    sd: Field2<S>,
    tmp: Field2<S>,
    r: Field2<S>,
}

impl<S: Scalar> Fields<S> {
    /// Bits of all of `sd` and, once a step has run at extension
    /// `stepped`, of `z` and `rr` over `bounds.range(stepped)`.
    fn bits(&self, bounds: &TileBounds, stepped: Option<usize>) -> Vec<u64> {
        let mut out: Vec<u64> = self.sd.raw().iter().map(|v| v.to_f64().to_bits()).collect();
        if let Some(ext) = stepped {
            let (x_lo, x_hi, y_lo, y_hi) = bounds.range(ext);
            for f in [&self.z, &self.rr] {
                for k in y_lo..y_hi {
                    out.extend(f.row(k, x_lo, x_hi).iter().map(|v| v.to_f64().to_bits()));
                }
            }
        }
        out
    }
}

/// Every block of a `steps`-step smoothing at `depth` on an `nx × ny`
/// centre tile in precision `S`, three ways.
fn check<S: Scalar>(
    (nx, ny): (usize, usize),
    (depth, steps): (usize, usize),
    kind: PreconKind,
    from_r: bool,
    seed: u64,
) -> Result<(), String> {
    let decomp = Decomposition2D::with_grid(3 * nx, 3 * ny, 3, 3);
    let mesh = Mesh2D::new(&decomp, 4, Extent2D::unit());
    let coeffs = Coefficients {
        kx: noise(nx, ny, depth + 1, seed ^ 1, 0.05, 2.0),
        ky: noise(nx, ny, depth + 1, seed ^ 2, 0.05, 2.0),
    };
    let op: TileOperator<S> = TileOperator::new(coeffs, TileBounds::new(&mesh, depth)).convert();
    let precon = Preconditioner::setup(kind, &op, depth);
    let field = |salt: u64| -> Field2<S> { noise(nx, ny, depth, seed ^ salt, -1.0, 1.0).convert() };
    let start = Fields {
        z: field(3),
        rr: field(4),
        sd: field(5),
        tmp: field(6),
        r: field(7),
    };

    let est = EigenEstimate {
        min: 0.9,
        max: 17.0,
    };
    let consts = ChebyConstants::from_estimate(est);
    let (inv_theta, cheb) = (S::from_f64(1.0 / consts.theta), consts.coefficients(steps));
    // levels `first..` at extensions `exts`, one unfused whole-field
    // kernel at a time
    let oracle = |f: &mut Fields<S>, first: usize, exts: &[usize]| {
        let (bounds, t) = (&op.bounds, &mut SolveTrace::new("oracle"));
        for (j, &e) in (first..).zip(exts) {
            if j == 0 {
                if from_r {
                    vector::copy(&mut f.rr, &f.r, bounds, depth, t);
                }
                vector::zero(&mut f.z, bounds, depth, t);
                precon.apply(&f.rr, &mut f.tmp, bounds, e, t);
                vector::scaled_copy(&mut f.sd, &f.tmp, inv_theta, bounds, e, t);
            } else {
                let (a, b) = (S::from_f64(cheb[j - 1].0), S::from_f64(cheb[j - 1].1));
                op.apply_cheb_fused(&f.sd, &mut f.z, &mut f.rr, e, t);
                precon.apply(&f.rr, &mut f.tmp, bounds, e, t);
                vector::scale_add(&mut f.sd, a, b, &f.tmp, bounds, e, t);
            }
        }
    };
    let smoothing = Smoothing::new(est, steps, depth);
    let (mut want, mut skewed) = (start.clone(), start);
    let mut trace = SolveTrace::new("block");
    for (first, exts) in smoothing.blocks() {
        oracle(&mut want, first, exts);
        let mut smooth = Smooth {
            z: &mut skewed.z,
            rr: &mut skewed.rr,
            sd: &mut skewed.sd,
            tmp: &mut skewed.tmp,
        };
        let r = from_r.then_some(&skewed.r);
        smoothing.run_block(&op, &precon, &mut smooth, r, (first, exts), &mut trace);
        // a pass defines z and rr from its first step on, as far out as
        // that step sweeps (the oracle's zero fill and copy range wider)
        let prelude = usize::from(first == 0);
        let e = exts.get(prelude).copied();
        let tag = format!(
            "{} {kind:?} {nx}x{ny} depth {depth} steps {steps} from_r {from_r} levels {first}.. at {exts:?}",
            S::NAME
        );
        if want.bits(&op.bounds, e) != skewed.bits(&op.bounds, e) {
            return Err(format!("skewed pass differs from the sweeps: {tag}"));
        }
    }
    if trace.spmv.total() != steps as u64 {
        return Err(format!(
            "the pass recorded {} stencil sweeps, not {steps}",
            trace.spmv.total()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_pipelined_block_equals_its_sweeps_bit_for_bit(
        nx in 1usize..24,
        ny in 1usize..14,
        depth in 1usize..5,
        steps in 1usize..11,
        pick in any::<u64>(),
    ) {
        // one case in five pins a degenerate shape: one row, one column,
        // a single cell, or the benchmark's depth-4 blocks of 16 steps
        let (nx, ny, depth, steps) = match pick % 20 {
            0 => (nx, 1, depth, steps),
            1 => (1, ny, depth, steps),
            2 => (1, 1, depth, steps),
            3 => (nx, ny, 4, 16),
            _ => (nx, ny, depth, steps),
        };
        let kind = [PreconKind::None, PreconKind::Diagonal, PreconKind::BlockJacobi]
            [(pick / 20 % 3) as usize];
        // strips cannot span matrix-powers halos
        let depth = if kind == PreconKind::BlockJacobi { 1 } else { depth };
        let from_r = pick / 60 % 2 == 0;
        let seed = pick / 120;
        for outcome in [
            check::<f64>((nx, ny), (depth, steps), kind, from_r, seed),
            check::<f32>((nx, ny), (depth, steps), kind, from_r, seed),
        ] {
            if let Err(what) = outcome {
                prop_assert!(false, "{}", what);
            }
        }
    }
}
