//! Vector kernels over tile fields.
//!
//! The axpy-class building blocks of every solver, each sweeping an
//! extension-clamped range like the operator kernels (the matrix-powers
//! inner loop updates vectors over the same shrinking bounds as its
//! stencil applications). All sweep rows in order on the calling
//! thread with deterministic row-ordered reductions, and are generic
//! over the [`Scalar`] precision (f64 call sites read exactly as before;
//! the mixed-precision solvers instantiate the same code at `f32`).
//!
//! # One kernel source, two compiled copies
//!
//! Every precision runs the same row bodies, the
//! [`lanes`] module: elementwise kernels sweep rows in fixed-width
//! groups of [`Scalar::LANES`] elements (`f64`×4 / `f32`×8, plain
//! `chunks_exact` that LLVM turns into vector code) and apply the
//! identical per-element expression to each lane, so they are bitwise
//! equal to the element-at-a-time loops kept in `scalar_ref`, a hidden
//! test oracle no run dispatches to.
//!
//! The kernels below that sweep rows are each compiled twice from that
//! one source (`crate::isa`): a baseline copy for the build's target and
//! an AVX2 copy, and the kernel's name dispatches to the AVX2 copy once
//! per call on a host that has it. The copies differ in register width
//! only: no `fma` is enabled and Rust never fuses `a*b + c`, so each lane
//! rounds every operation exactly as IEEE 754 says at either width, and
//! the reduction shape below is written out in the source, not left to
//! the vectorizer. Their bits are equal, and the two are tested to be.
//! The kernels themselves are safe code; the one `unsafe` operation of
//! the crate is the dispatcher's call into the AVX2 copy.
//!
//! A row body is written as loops the vectorizer takes whole. The fused
//! CG update ([`cg_update`], [`lanes::cg_update_row`]) is two
//! elementwise lane sweeps, `u += αp` then `r −= αw`, followed by the
//! tree-shaped `r·z` reduction over the row just written, still in L1.
//! Its AVX2 copy runs the two sweeps in `ymm` registers; one loop doing
//! all three stays scalar in either copy.
//!
//! # The reduction shape
//!
//! Every row partial — [`dot_local`], the `p·w` of `apply_fused_dot`,
//! the `r·z` of [`cg_update`] — is
//! [`lanes::tree_sum`]: element `i` of the row accumulates into lane
//! `i mod 16` of [`lanes::REDUCE_LANES`] accumulators (the same 16 for
//! `f64` and `f32`) over the whole 16-element blocks, the lanes fold by
//! a fixed pairwise tree (`l += l+8`, `+4`, `+2`, `+1`), the `n mod 16`
//! remainder elements are added last in order, and rows fold in row
//! order. The shape is a function of the sweep bounds alone, so a
//! result's bits depend on the tile and nothing else, while sixteen
//! independent add chains keep the reduction off the critical path.
//! Bits differ from the serial add chain used before PR 12 by design
//! (within `n·ε·Σ|aᵢbᵢ|`); CG-family iteration counts may move by ±1.

use crate::ops::TileBounds;
use crate::trace::SolveTrace;
use tea_mesh::{Field2, Scalar};

/// The row bodies of every kernel: explicit-width elementwise sweeps
/// and the fixed-shape [`lanes::tree_sum`] reduction.
pub mod lanes {
    use tea_mesh::Scalar;

    /// Monomorphizes a lane body over the format's lane count.
    macro_rules! by_lanes {
        ($S:ident, $f:ident ( $($arg:expr),* )) => {
            match $S::LANES {
                8 => $f::<$S, 8>($($arg),*),
                _ => $f::<$S, 4>($($arg),*),
            }
        };
    }

    /// A lane group as a fixed-size array, so LLVM sees the width.
    #[inline(always)]
    pub(crate) fn arr<S, const L: usize>(chunk: &[S]) -> &[S; L] {
        chunk.try_into().expect("lane chunk")
    }

    /// Mutable [`arr`].
    #[inline(always)]
    fn arr_mut<S, const L: usize>(chunk: &mut [S]) -> &mut [S; L] {
        chunk.try_into().expect("lane chunk")
    }

    /// `y[i] = f(y[i], x[i])` in `L`-wide groups, remainder element by
    /// element.
    #[inline(always)]
    fn zip1<S: Scalar, const L: usize>(y: &mut [S], x: &[S], f: impl Fn(S, S) -> S) {
        let mut yc = y.chunks_exact_mut(L);
        let mut xc = x.chunks_exact(L);
        for (ya, xa) in (&mut yc).zip(&mut xc) {
            let (ya, xa) = (arr_mut::<S, L>(ya), arr::<S, L>(xa));
            for i in 0..L {
                ya[i] = f(ya[i], xa[i]);
            }
        }
        for (yi, &xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
            *yi = f(*yi, xi);
        }
    }

    /// `y[i] = f(y[i], a[i], b[i])`, grouped like [`zip1`].
    #[inline(always)]
    fn zip2<S: Scalar, const L: usize>(y: &mut [S], a: &[S], b: &[S], f: impl Fn(S, S, S) -> S) {
        let mut yc = y.chunks_exact_mut(L);
        let mut ac = a.chunks_exact(L);
        let mut bc = b.chunks_exact(L);
        for ((ya, aa), ba) in (&mut yc).zip(&mut ac).zip(&mut bc) {
            let (ya, aa, ba) = (arr_mut::<S, L>(ya), arr::<S, L>(aa), arr::<S, L>(ba));
            for i in 0..L {
                ya[i] = f(ya[i], aa[i], ba[i]);
            }
        }
        let rest = yc.into_remainder().iter_mut();
        for ((yi, &ai), &bi) in rest.zip(ac.remainder()).zip(bc.remainder()) {
            *yi = f(*yi, ai, bi);
        }
    }

    /// `y[i] = f(y[i], x[i])` over one row.
    #[inline(always)]
    pub fn zip_row<S: Scalar>(y: &mut [S], x: &[S], f: impl Fn(S, S) -> S) {
        by_lanes!(S, zip1(y, x, f))
    }

    /// `y[i] = f(y[i], a[i], b[i])` over one row.
    #[inline(always)]
    pub fn zip2_row<S: Scalar>(y: &mut [S], a: &[S], b: &[S], f: impl Fn(S, S, S) -> S) {
        by_lanes!(S, zip2(y, a, b, f))
    }

    /// `y += a * x` over one row.
    #[inline(always)]
    pub fn axpy_row<S: Scalar>(y: &mut [S], a: S, x: &[S]) {
        by_lanes!(S, zip1(y, x, |yi, xi| yi + a * xi))
    }

    /// `y = x + a * y` over one row.
    #[inline(always)]
    pub fn xpay_row<S: Scalar>(y: &mut [S], x: &[S], a: S) {
        by_lanes!(S, zip1(y, x, |yi, xi| xi + a * yi))
    }

    /// `y = a*y + b*x` over one row.
    #[inline(always)]
    pub fn scale_add_row<S: Scalar>(y: &mut [S], a: S, b: S, x: &[S]) {
        by_lanes!(S, zip1(y, x, |yi, xi| a * yi + b * xi))
    }

    /// `y = a*y + b*(r .* d)` over one row — the diagonal-preconditioned
    /// Chebyshev recurrence with the `mul_into` pass fused in. Rounds
    /// exactly like the two-kernel sequence it replaces (`tmp = r*d`
    /// rounds first, then `a*y + b*tmp`).
    #[inline(always)]
    pub fn scale_add_mul_row<S: Scalar>(y: &mut [S], a: S, b: S, r: &[S], d: &[S]) {
        by_lanes!(S, zip2(y, r, d, |yi, ri, di| a * yi + b * (ri * di)))
    }

    /// `dst = src * scale` over one row.
    #[inline(always)]
    pub fn scaled_copy_row<S: Scalar>(dst: &mut [S], src: &[S], scale: S) {
        by_lanes!(S, zip1(dst, src, |_, si| si * scale))
    }

    /// `dst = a .* b` elementwise over one row.
    #[inline(always)]
    pub fn mul_into_row<S: Scalar>(dst: &mut [S], a: &[S], b: &[S]) {
        by_lanes!(S, zip2(dst, a, b, |_, ai, bi| ai * bi))
    }

    /// Lane accumulators of every row reduction — one constant for
    /// `f64` and `f32`, so the reduction shape is precision-independent.
    pub const REDUCE_LANES: usize = 16;

    /// Sums a row's terms in the crate's one reduction shape (module
    /// docs): `blocks` yields the terms of each whole 16-element block
    /// in order and block element `l` accumulates into lane `l`; the
    /// lanes fold by the fixed pairwise tree; `tail` — the terms of the
    /// `n mod 16` remainder elements — is added last, in order. Both
    /// iterators may write their rows as they go (the fused kernels do).
    #[inline(always)]
    pub fn tree_sum<S: Scalar>(
        blocks: impl Iterator<Item = [S; REDUCE_LANES]>,
        tail: impl Iterator<Item = S>,
    ) -> S {
        let mut acc = [S::ZERO; REDUCE_LANES];
        for t in blocks {
            for l in 0..REDUCE_LANES {
                acc[l] += t[l];
            }
        }
        let mut half = REDUCE_LANES / 2;
        while half > 0 {
            for l in 0..half {
                acc[l] += acc[l + half];
            }
            half /= 2;
        }
        tail.fold(acc[0], |sum, t| sum + t)
    }

    /// Elements of an `n`-long row covered by whole reduction blocks.
    #[inline(always)]
    pub(crate) fn whole_blocks(n: usize) -> usize {
        n - n % REDUCE_LANES
    }

    /// `Σ f(a[i], b[i])` over one row, tree-shaped.
    #[inline(always)]
    fn reduce2<S: Scalar>(a: &[S], b: &[S], f: impl Fn(S, S) -> S) -> S {
        let (am, at) = a.split_at(whole_blocks(a.len()));
        let (bm, bt) = b.split_at(am.len());
        let blocks = am
            .chunks_exact(REDUCE_LANES)
            .zip(bm.chunks_exact(REDUCE_LANES));
        tree_sum(
            blocks.map(|(aa, ba)| {
                let (aa, ba) = (arr::<S, REDUCE_LANES>(aa), arr::<S, REDUCE_LANES>(ba));
                std::array::from_fn(|l| f(aa[l], ba[l]))
            }),
            at.iter().zip(bt).map(|(&x, &y)| f(x, y)),
        )
    }

    /// Row dot product `Σ a[i]·b[i]`.
    #[inline(always)]
    pub fn dot_row<S: Scalar>(a: &[S], b: &[S]) -> S {
        reduce2(a, b, |x, y| x * y)
    }

    /// One row of [`super::cg_update`]: `u += αp`, `r −= αw`, returning
    /// `Σ r·z` with `z = r` (`d` absent) or `z = r·d`. Each element
    /// rounds exactly like `axpy`, `axpy`, `mul_into`, `dot`.
    ///
    /// The row is two elementwise lane sweeps ([`axpy_row`] twice), then
    /// the tree-shaped `r·z` reduction over the row just written, which
    /// is still in L1: each loop is one the vectorizer takes whole. One
    /// loop doing all three stays scalar, its sixteen accumulators and
    /// five chunk streams spilled to the stack.
    #[inline(always)]
    pub fn cg_update_row<S: Scalar>(
        u: &mut [S],
        r: &mut [S],
        alpha: S,
        p: &[S],
        w: &[S],
        d: Option<&[S]>,
    ) -> S {
        axpy_row(u, alpha, p);
        axpy_row(r, -alpha, w);
        match d {
            None => dot_row(r, r),
            Some(d) => reduce2(r, d, |ri, di| ri * (ri * di)),
        }
    }
}

/// The element-at-a-time row bodies from before the lane kernels, kept
/// as the oracle `tea-core`'s `lane_identity` suite compares the
/// [`lanes`] bodies against. Nothing at run time dispatches here.
#[doc(hidden)]
pub mod scalar_ref {
    use tea_mesh::Scalar;

    /// `y += a * x` over one row (element-at-a-time).
    pub fn axpy_row<S: Scalar>(y: &mut [S], a: S, x: &[S]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// `y = x + a * y` over one row (element-at-a-time).
    pub fn xpay_row<S: Scalar>(y: &mut [S], x: &[S], a: S) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = xi + a * *yi;
        }
    }

    /// `y = a*y + b*x` over one row (element-at-a-time).
    pub fn scale_add_row<S: Scalar>(y: &mut [S], a: S, b: S, x: &[S]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = a * *yi + b * xi;
        }
    }

    /// `y = a*y + b*(r .* d)` over one row (element-at-a-time).
    pub fn scale_add_mul_row<S: Scalar>(y: &mut [S], a: S, b: S, r: &[S], d: &[S]) {
        for ((yi, &ri), &di) in y.iter_mut().zip(r).zip(d) {
            *yi = a * *yi + b * (ri * di);
        }
    }

    /// `dst = src * scale` over one row (element-at-a-time).
    pub fn scaled_copy_row<S: Scalar>(dst: &mut [S], src: &[S], scale: S) {
        for (di, &si) in dst.iter_mut().zip(src) {
            *di = si * scale;
        }
    }

    /// `dst = a .* b` over one row (element-at-a-time).
    pub fn mul_into_row<S: Scalar>(dst: &mut [S], a: &[S], b: &[S]) {
        for ((di, &ai), &bi) in dst.iter_mut().zip(a).zip(b) {
            *di = ai * bi;
        }
    }

    /// Serial add chain `((t₀ + t₁) + t₂) + …` — the pre-PR-12
    /// reduction order, kept for the tolerance half of the contract.
    pub fn chain_sum<S: Scalar>(terms: &[S]) -> S {
        terms.iter().fold(S::ZERO, |acc, &t| acc + t)
    }

    /// Independent scalar model of [`super::lanes::tree_sum`]: deal the
    /// whole 16-blocks of `terms` onto 16 lanes by `i mod 16`, halve the
    /// lane vector pairwise (`l + (l + len/2)`) down to one value, then
    /// add the remainder terms in order.
    pub fn tree_sum<S: Scalar>(terms: &[S]) -> S {
        let full = terms.len() - terms.len() % 16;
        let mut lanes = vec![S::ZERO; 16];
        for i in 0..full {
            lanes[i % 16] += terms[i];
        }
        while lanes.len() > 1 {
            let half = lanes.len() / 2;
            lanes = (0..half).map(|l| lanes[l] + lanes[l + half]).collect();
        }
        terms[full..].iter().fold(lanes[0], |sum, &t| sum + t)
    }
}

/// Applies `body` to every row of `out` in the `bounds.range(ext)` sweep.
/// `body(k, row)` gets the row index and the mutable row slice.
///
/// With its siblings this is *the* row dispatch of the crate — the
/// interior slice bounds and row range live in [`for_rows_sum`] (one
/// output) and [`for_rows2_sum`] (two), and every row kernel (the vector
/// ops below, the 2D operator apply and residual, the block-Jacobi
/// solve) routes through one of the four; [`for_rows_block`] strings
/// several such sweeps into one pass.
pub(crate) fn for_rows<S: Scalar>(
    out: &mut Field2<S>,
    bounds: &TileBounds,
    ext: usize,
    body: impl Fn(isize, &mut [S]),
) {
    for_rows_sum(out, bounds, ext, |k, row| {
        body(k, row);
        S::ZERO
    });
}

/// Which rows of a sweep a row dispatch visits: all of them, or the one
/// row a [`for_rows_block`] pass has reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rows {
    /// Every row of `bounds.range(ext)`.
    All,
    /// Row `k` alone.
    One(isize),
}

/// [`for_rows`] over *two* output fields of identical shape: `body(k,
/// row1, row2)` gets both mutable row slices for the same sweep row.
/// The fused Chebyshev inner sweeps (`z`/`rr`, then `sd`/`tmp`) update
/// both fields in one pass through this dispatch, a whole sweep or one
/// row of it at a time.
pub(crate) fn for_rows2<S: Scalar>(
    out1: &mut Field2<S>,
    out2: &mut Field2<S>,
    bounds: &TileBounds,
    ext: usize,
    rows: Rows,
    body: impl Fn(isize, &mut [S], &mut [S]),
) {
    let (x_lo, x_hi, y_lo, y_hi) = bounds.range(ext);
    let (first, end) = match rows {
        Rows::All => (y_lo, y_hi),
        Rows::One(k) => (k, k + 1),
    };
    for k in first..end {
        body(k, out1.row_mut(k, x_lo, x_hi), out2.row_mut(k, x_lo, x_hi));
    }
}

/// Runs a block of dependent sweep pairs as **one** pass over the rows,
/// so the fields stream through cache once per block instead of twice
/// per level. Level `l` sweeps `bounds.range(exts[l])` (`exts` strictly
/// decreasing) twice: a *lead* sweep whose row `k` reads what the level
/// before left in rows `k-1..=k+1`, then a row-local *lag* sweep that
/// overwrites that stencil input. `body(l, lag, rows)` runs either over
/// `rows`.
///
/// The sweeps are skewed in time: at wavefront `t` level `l` leads on
/// row `t - 2l`, then lags on row `t - 2l - 1`, levels in order — every
/// read sees the value the sweep-at-a-time order produced (rows
/// `k-1..=k+1` of level `l-1` are complete when level `l` leads on `k`,
/// and row `k-1` is not overwritten until that lead has passed), so
/// both orders agree bit for bit with no scratch rows and no redundant
/// cells.
pub(crate) fn for_rows_block(
    bounds: &TileBounds,
    exts: &[usize],
    mut body: impl FnMut(usize, bool, Rows),
) {
    debug_assert!(exts.windows(2).all(|w| w[1] < w[0]), "levels must shrink");
    let Some(&widest) = exts.first() else { return };
    let (_, _, y_lo, y_hi) = bounds.range(widest);
    for t in y_lo..y_hi + 2 * exts.len() as isize - 1 {
        for (l, &ext) in exts.iter().enumerate() {
            let (_, _, lo, hi) = bounds.range(ext);
            let k = t - 2 * l as isize;
            if (lo..hi).contains(&k) {
                body(l, false, Rows::One(k));
            }
            if (lo..hi).contains(&(k - 1)) {
                body(l, true, Rows::One(k - 1));
            }
        }
    }
}

/// [`for_rows2`] with a fused per-row reduction, folded like
/// [`for_rows_sum`] — the dispatch of [`cg_update`].
pub(crate) fn for_rows2_sum<S: Scalar>(
    out1: &mut Field2<S>,
    out2: &mut Field2<S>,
    bounds: &TileBounds,
    ext: usize,
    body: impl Fn(isize, &mut [S], &mut [S]) -> S,
) -> S {
    let (x_lo, x_hi, y_lo, y_hi) = bounds.range(ext);
    let mut acc = S::ZERO;
    for k in y_lo..y_hi {
        acc += body(k, out1.row_mut(k, x_lo, x_hi), out2.row_mut(k, x_lo, x_hi));
    }
    acc
}

/// [`for_rows`] with a fused per-row reduction: `body` returns a row
/// partial, and the partials are folded in row order.
pub(crate) fn for_rows_sum<S: Scalar>(
    out: &mut Field2<S>,
    bounds: &TileBounds,
    ext: usize,
    body: impl Fn(isize, &mut [S]) -> S,
) -> S {
    let (x_lo, x_hi, y_lo, y_hi) = bounds.range(ext);
    let mut acc = S::ZERO;
    for k in y_lo..y_hi {
        acc += body(k, out.row_mut(k, x_lo, x_hi));
    }
    acc
}

/// Deterministic read-only reduction over rows: folds per-row partials
/// in row order.
fn sum_rows<S: Scalar>(
    bounds: &TileBounds,
    ext: usize,
    body: impl Fn(isize, isize, isize) -> S,
) -> S {
    let (x_lo, x_hi, y_lo, y_hi) = bounds.range(ext);
    let mut acc = S::ZERO;
    for k in y_lo..y_hi {
        acc += body(k, x_lo, x_hi);
    }
    acc
}

/// `dst = src` over the sweep range.
pub fn copy<S: Scalar>(
    dst: &mut Field2<S>,
    src: &Field2<S>,
    bounds: &TileBounds,
    ext: usize,
    trace: &mut SolveTrace,
) {
    trace.vector_ops.record(ext);
    let (x_lo, x_hi, _, _) = bounds.range(ext);
    for_rows(dst, bounds, ext, |k, row| {
        row.copy_from_slice(src.row(k, x_lo, x_hi));
    });
}

/// Zeroes the sweep range.
pub fn zero<S: Scalar>(
    dst: &mut Field2<S>,
    bounds: &TileBounds,
    ext: usize,
    trace: &mut SolveTrace,
) {
    trace.vector_ops.record(ext);
    for_rows(dst, bounds, ext, |_k, row| row.fill(S::ZERO));
}

// The vector kernels, each compiled twice (`crate::isa`).
crate::isa::twins! {
    mod kernels;

    /// `y += a * x` over the sweep range.
    pub fn axpy<S: Scalar>(
        y: &mut Field2<S>,
        a: S,
        x: &Field2<S>,
        bounds: &TileBounds,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.vector_ops.record(ext);
        let (x_lo, x_hi, _, _) = bounds.range(ext);
        for_rows(y, bounds, ext, |k, row| {
            lanes::axpy_row(row, a, x.row(k, x_lo, x_hi));
        });
    }

    /// `y = x + a * y` (TeaLeaf's `p = z + beta p` update) over the sweep
    /// range.
    pub fn xpay<S: Scalar>(
        y: &mut Field2<S>,
        x: &Field2<S>,
        a: S,
        bounds: &TileBounds,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.vector_ops.record(ext);
        let (x_lo, x_hi, _, _) = bounds.range(ext);
        for_rows(y, bounds, ext, |k, row| {
            lanes::xpay_row(row, x.row(k, x_lo, x_hi), a);
        });
    }

    /// `y = a*y + b*x` (the Chebyshev `sd` recurrence) over the sweep range.
    pub fn scale_add<S: Scalar>(
        y: &mut Field2<S>,
        a: S,
        b: S,
        x: &Field2<S>,
        bounds: &TileBounds,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.vector_ops.record(ext);
        let (x_lo, x_hi, _, _) = bounds.range(ext);
        for_rows(y, bounds, ext, |k, row| {
            lanes::scale_add_row(row, a, b, x.row(k, x_lo, x_hi));
        });
    }

    /// `y = a*y + b*(r .* d)` over the sweep range — the Chebyshev `sd`
    /// recurrence with the diagonal-preconditioner product fused in, saving
    /// the intermediate `tmp` store and re-read. Rounds exactly like
    /// [`mul_into`] followed by [`scale_add`].
    #[expect(
        clippy::too_many_arguments,
        reason = "a fused kernel takes each stream it reads as its own field, like the unfused pair it replaces"
    )]
    pub fn scale_add_mul<S: Scalar>(
        y: &mut Field2<S>,
        a: S,
        b: S,
        r: &Field2<S>,
        d: &Field2<S>,
        bounds: &TileBounds,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.vector_ops.record(ext);
        let (x_lo, x_hi, _, _) = bounds.range(ext);
        for_rows(y, bounds, ext, |k, row| {
            lanes::scale_add_mul_row(row, a, b, r.row(k, x_lo, x_hi), d.row(k, x_lo, x_hi));
        });
    }

    /// `dst = src * scale` over the sweep range.
    pub fn scaled_copy<S: Scalar>(
        dst: &mut Field2<S>,
        src: &Field2<S>,
        scale: S,
        bounds: &TileBounds,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.vector_ops.record(ext);
        let (x_lo, x_hi, _, _) = bounds.range(ext);
        for_rows(dst, bounds, ext, |k, row| {
            lanes::scaled_copy_row(row, src.row(k, x_lo, x_hi), scale);
        });
    }

    /// `dst = a .* b` elementwise product (diagonal preconditioner apply).
    pub fn mul_into<S: Scalar>(
        dst: &mut Field2<S>,
        a: &Field2<S>,
        b: &Field2<S>,
        bounds: &TileBounds,
        ext: usize,
        trace: &mut SolveTrace,
    ) {
        trace.vector_ops.record(ext);
        let (x_lo, x_hi, _, _) = bounds.range(ext);
        for_rows(dst, bounds, ext, |k, row| {
            lanes::mul_into_row(row, a.row(k, x_lo, x_hi), b.row(k, x_lo, x_hi));
        });
    }

    /// Local (un-reduced) dot product over the tile interior. The caller pays
    /// the global reduction.
    pub fn dot_local<S: Scalar>(
        a: &Field2<S>,
        b: &Field2<S>,
        bounds: &TileBounds,
        trace: &mut SolveTrace,
    ) -> S {
        trace.dot_kernels.record(0);
        sum_rows(bounds, 0, |k, x_lo, x_hi| {
            lanes::dot_row(a.row(k, x_lo, x_hi), b.row(k, x_lo, x_hi))
        })
    }

    /// CG's fused update over the tile interior, one sweep: `u += αp`,
    /// `r −= αw`, returning the local `Σ r·z` of the *updated* residual with
    /// `z = r` (`inv_diag` absent) or `z = r·inv_diag` — `z` is never
    /// stored. Bit-identical to [`axpy`], [`axpy`], [`mul_into`],
    /// [`dot_local`] run back to back; the caller pays the reduction.
    ///
    /// Each row is [`lanes::cg_update_row`]: the two axpy sweeps, then
    /// the `r·z` reduction over the fresh row. Still one pass over the
    /// field rows, with one row loop per `inv_diag` variant.
    ///
    /// Traced as the two axpy-class streams it carries (6 elements/cell;
    /// `inv_diag` adds a seventh); the dot rides along and records nothing.
    #[expect(
        clippy::too_many_arguments,
        reason = "CG's fused update carries the five fields of the four kernels it replaces, each a separate stream"
    )]
    pub fn cg_update<S: Scalar>(
        u: &mut Field2<S>,
        r: &mut Field2<S>,
        alpha: S,
        p: &Field2<S>,
        w: &Field2<S>,
        inv_diag: Option<&Field2<S>>,
        bounds: &TileBounds,
        trace: &mut SolveTrace,
    ) -> S {
        trace.vector_ops.record(0);
        trace.vector_ops.record(0);
        let (x_lo, x_hi, _, _) = bounds.range(0);
        // one plain row loop per variant: an `Option` matched per row
        // costs both variants 4–5 % in cache
        match inv_diag {
            None => for_rows2_sum(u, r, bounds, 0, |k, ur, rr| {
                let (pr, wr) = (p.row(k, x_lo, x_hi), w.row(k, x_lo, x_hi));
                lanes::cg_update_row(ur, rr, alpha, pr, wr, None)
            }),
            Some(d) => for_rows2_sum(u, r, bounds, 0, |k, ur, rr| {
                let (pr, wr) = (p.row(k, x_lo, x_hi), w.row(k, x_lo, x_hi));
                lanes::cg_update_row(ur, rr, alpha, pr, wr, Some(d.row(k, x_lo, x_hi)))
            }),
        }
    }

    /// [`cg_update`] without the dot, for the recurrences whose `r·z` has
    /// to wait for a `z = M⁻¹r` that is more than a row product: `u += αp`,
    /// `r −= αw` in one sweep, traced as the same two axpy-class streams.
    pub fn axpy2<S: Scalar>(
        u: &mut Field2<S>,
        r: &mut Field2<S>,
        alpha: S,
        p: &Field2<S>,
        w: &Field2<S>,
        bounds: &TileBounds,
        trace: &mut SolveTrace,
    ) {
        trace.vector_ops.record(0);
        trace.vector_ops.record(0);
        let (x_lo, x_hi, _, _) = bounds.range(0);
        for_rows2(u, r, bounds, 0, Rows::All, |k, ur, rr| {
            lanes::axpy_row(ur, alpha, p.row(k, x_lo, x_hi));
            lanes::axpy_row(rr, -alpha, w.row(k, x_lo, x_hi));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tea_mesh::{Field2D, Field2F};

    fn f(n: usize, halo: usize, g: impl Fn(isize, isize) -> f64) -> Field2D {
        let mut x = Field2D::new(n, n, halo);
        for k in -(halo as isize)..(n + halo) as isize {
            for j in -(halo as isize)..(n + halo) as isize {
                x.set(j, k, g(j, k));
            }
        }
        x
    }

    #[test]
    fn axpy_and_xpay() {
        let b = TileBounds::serial(4, 4);
        let mut t = SolveTrace::new("t");
        let x = f(4, 1, |j, k| (j + k) as f64);
        let mut y = f(4, 1, |_, _| 1.0);
        axpy(&mut y, 2.0, &x, &b, 0, &mut t);
        assert_eq!(y.at(1, 2), 1.0 + 2.0 * 3.0);
        let mut y2 = f(4, 1, |_, _| 1.0);
        xpay(&mut y2, &x, 0.5, &b, 0, &mut t);
        assert_eq!(y2.at(2, 2), 4.0 + 0.5);
        assert_eq!(t.vector_ops.total(), 2);
    }

    #[test]
    fn scale_add_recurrence() {
        let b = TileBounds::serial(3, 3);
        let mut t = SolveTrace::new("t");
        let x = f(3, 0, |_, _| 2.0);
        let mut y = f(3, 0, |_, _| 10.0);
        scale_add(&mut y, 0.5, 3.0, &x, &b, 0, &mut t);
        assert_eq!(y.at(0, 0), 0.5 * 10.0 + 3.0 * 2.0);
    }

    #[test]
    fn scale_add_mul_matches_two_kernel_sequence() {
        // the fused recurrence must round exactly like mul_into followed
        // by scale_add, for awkward (non-dyadic) values
        let n = 37; // odd size exercises the lane remainder
        let b = TileBounds::serial(n, n);
        let mut t = SolveTrace::new("t");
        let r = f(n, 0, |j, k| 0.1 + (j * 13 + k * 7) as f64 / 17.0);
        let d = f(n, 0, |j, k| 1.0 / (3.0 + (j + k) as f64 / 11.0));
        let y0 = f(n, 0, |j, k| ((j - k) as f64) / 7.0);
        let (a, beta) = (0.123456789, 0.987654321);

        let mut tmp = Field2D::new(n, n, 0);
        mul_into(&mut tmp, &r, &d, &b, 0, &mut t);
        let mut want = y0.clone();
        scale_add(&mut want, a, beta, &tmp, &b, 0, &mut t);

        let mut got = y0.clone();
        scale_add_mul(&mut got, a, beta, &r, &d, &b, 0, &mut t);
        for k in 0..n as isize {
            for j in 0..n as isize {
                assert_eq!(got.at(j, k).to_bits(), want.at(j, k).to_bits(), "({j},{k})");
            }
        }
    }

    #[test]
    fn lane_rows_match_their_scalar_models_bitwise() {
        // quick in-crate check of the contract the property suite
        // (tests/lane_identity.rs) explores exhaustively: elementwise
        // lane rows equal the scalar_ref loops, reduction rows equal the
        // scalar model of the 16-lane tree — remainders included
        let len = 57usize; // 3 reduction blocks of 16 + 9; 14 f64 groups + 1
        let xs: Vec<f64> = (0..len).map(|i| 0.3 + (i as f64) / 7.0).collect();
        // mixed signs over nine decades, so the add order shows in the bits
        let ys: Vec<f64> = (0..len)
            .map(|i| {
                let mag = (0.7 + i as f64 / 3.0) * 10f64.powi((i * 5 % 9) as i32 - 4);
                if i % 3 == 0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        let (a, bb) = (1.7320508075688772, -0.5772156649015329);

        let (mut l, mut s) = (ys.clone(), ys.clone());
        lanes::axpy_row(&mut l, a, &xs);
        scalar_ref::axpy_row(&mut s, a, &xs);
        assert_eq!(
            l.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let (mut l, mut s) = (ys.clone(), ys.clone());
        lanes::xpay_row(&mut l, &xs, a);
        scalar_ref::xpay_row(&mut s, &xs, a);
        assert_eq!(l, s);

        let (mut l, mut s) = (ys.clone(), ys.clone());
        lanes::scale_add_row(&mut l, a, bb, &xs);
        scalar_ref::scale_add_row(&mut s, a, bb, &xs);
        assert_eq!(l, s);

        let prods: Vec<f64> = (0..len).map(|i| xs[i] * ys[i]).collect();
        let dl = lanes::dot_row(&xs, &ys);
        assert_eq!(dl.to_bits(), scalar_ref::tree_sum(&prods).to_bits());
        let chain = scalar_ref::chain_sum(&prods);
        assert_ne!(
            dl.to_bits(),
            chain.to_bits(),
            "data must tell the orders apart"
        );
        assert!((dl - chain).abs() <= 1e-13 * prods.iter().map(|p| p.abs()).sum::<f64>());
    }

    #[test]
    fn for_rows2_sum_folds_row_partials_in_row_order() {
        let (nx, ny) = (7, 5);
        let b = TileBounds::serial(nx, ny);
        let run = || {
            let mut y = Field2D::new(nx, ny, 1);
            let mut z = Field2D::new(nx, ny, 1);
            let s = for_rows2_sum(&mut y, &mut z, &b, 0, |k, yr, zr| {
                yr.fill(k as f64);
                zr.fill(-(k as f64));
                0.1 * (k + 1) as f64
            });
            (s, y.at(3, 2), z.at(3, 2))
        };
        let want = (1..=5).fold(0.0, |acc, k| acc + 0.1 * k as f64);
        assert_eq!(run(), (want, 2.0, -2.0));
    }

    #[test]
    fn for_rows2_sweeps_both_fields() {
        let n = 5;
        let b = TileBounds::serial(n, n);
        let mut z = Field2D::new(n, n, 1);
        let mut rr = f(n, 1, |j, k| (j * 10 + k) as f64);
        for_rows2(&mut z, &mut rr, &b, 0, Rows::All, |k, zr, rrow| {
            for (zi, ri) in zr.iter_mut().zip(rrow.iter_mut()) {
                *zi = *ri + k as f64;
                *ri = 0.0;
            }
        });
        assert_eq!(z.at(2, 3), 23.0 + 3.0);
        assert_eq!(rr.at(2, 3), 0.0);
        assert_eq!(rr.at(-1, 0), -10.0 + 0.0, "halo untouched");
    }

    #[test]
    fn copy_scaled_mul_zero() {
        let b = TileBounds::serial(3, 3);
        let mut t = SolveTrace::new("t");
        let x = f(3, 0, |j, _| j as f64);
        let mut y = Field2D::new(3, 3, 0);
        copy(&mut y, &x, &b, 0, &mut t);
        assert_eq!(y.at(2, 1), 2.0);
        scaled_copy(&mut y, &x, -2.0, &b, 0, &mut t);
        assert_eq!(y.at(2, 1), -4.0);
        let z = f(3, 0, |_, k| (k + 1) as f64);
        let mut w = Field2D::new(3, 3, 0);
        mul_into(&mut w, &x, &z, &b, 0, &mut t);
        assert_eq!(w.at(2, 1), 4.0);
        zero(&mut w, &b, 0, &mut t);
        assert_eq!(w.interior_sum(), 0.0);
    }

    #[test]
    fn dot_and_absdiff() {
        let b = TileBounds::serial(4, 4);
        let mut t = SolveTrace::new("t");
        let x = f(4, 0, |_, _| 3.0);
        let y = f(4, 0, |_, _| -1.0);
        assert_eq!(dot_local(&x, &y, &b, &mut t), -48.0);
        assert_eq!(t.dot_kernels.total(), 1);
    }

    #[test]
    fn extension_sweeps_touch_halo() {
        // bounds with room to extend: use TileBounds::new on an interior tile
        use tea_mesh::{Decomposition2D, Extent2D, Mesh2D};
        let d = Decomposition2D::with_grid(12, 12, 3, 3);
        let mesh = Mesh2D::new(&d, 4, Extent2D::unit()); // centre tile
        let bounds = TileBounds::new(&mesh, 2);
        let mut t = SolveTrace::new("t");
        let x = f(4, 2, |_, _| 1.0);
        let mut y = Field2D::new(4, 4, 2);
        axpy(&mut y, 1.0, &x, &bounds, 2, &mut t);
        assert_eq!(y.at(-2, -2), 1.0, "extended sweep must reach ghosts");
        assert_eq!(y.at(5, 5), 1.0);
        // but a serial tile's ext is clamped to 0
        let sb = TileBounds::serial(4, 4);
        let mut y2 = Field2D::new(4, 4, 2);
        axpy(&mut y2, 1.0, &x, &sb, 2, &mut t);
        assert_eq!(y2.at(-1, -1), 0.0, "clamped sweep must not touch ghosts");
    }

    #[test]
    fn large_dot_is_deterministic() {
        let n = 300;
        let b = TileBounds::serial(n, n);
        let mut t = SolveTrace::new("t");
        let x = f(n, 0, |j, k| ((j * 31 + k * 7) % 13) as f64 / 3.0);
        let y = f(n, 0, |j, k| ((j + k) % 5) as f64 - 2.0);
        let d1 = dot_local(&x, &y, &b, &mut t);
        for _ in 0..5 {
            assert_eq!(dot_local(&x, &y, &b, &mut t), d1);
        }
        // against the serial Field2D reference
        assert!((d1 - x.interior_dot(&y)).abs() <= 1e-9 * d1.abs().max(1.0));
    }

    #[test]
    fn f32_kernels_match_f64_on_dyadic_data() {
        // dyadic rationals are exact in both formats, so the same sweep
        // must produce bitwise-equal values after conversion
        let b = TileBounds::serial(8, 8);
        let mut t = SolveTrace::new("t");
        let x = f(8, 1, |j, k| ((j - k) as f64) * 0.25);
        let mut y = f(8, 1, |j, k| ((j + k) as f64) * 0.5);
        let x32: Field2F = x.convert();
        let mut y32: Field2F = y.convert();
        axpy(&mut y, 2.0, &x, &b, 0, &mut t);
        axpy(&mut y32, 2.0f32, &x32, &b, 0, &mut t);
        for k in 0..8isize {
            for j in 0..8isize {
                assert_eq!(y32.at(j, k) as f64, y.at(j, k), "({j},{k})");
            }
        }
        let d64 = dot_local(&x, &y, &b, &mut t);
        let d32 = dot_local(&x32, &y32, &b, &mut t);
        assert!((d32 as f64 - d64).abs() <= 1e-3 * d64.abs().max(1.0));
    }
}
