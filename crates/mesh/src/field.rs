//! Halo-padded 2D scalar fields.
//!
//! TeaLeaf stores every mesh variable (`u`, `p`, `r`, `Kx`, …) as a dense
//! 2D array padded with ghost (halo) layers on all four sides, exactly like
//! the Fortran reference declares `u(x_min-2:x_max+2, y_min-2:y_max+2)`.
//! [`Field2`] reproduces that layout in row-major order with a
//! configurable halo depth so the matrix-powers kernel can request deep
//! halos (the paper uses up to 16).
//!
//! The element type is any [`Scalar`] — precision is a design-space axis.
//! [`Field2D`] (`f64`) is the default everywhere and keeps every
//! pre-existing call site source-compatible; [`Field2F`] (`f32`) is the
//! reduced-precision variant the mixed-precision solvers use.
//!
//! Interior cells are addressed by signed indices `(j, k)` with
//! `0 <= j < nx`, `0 <= k < ny`; ghost cells use negative indices or
//! indices `>= nx`/`ny`, mirroring the Fortran convention shifted to a
//! zero base.

use crate::scalar::Scalar;
use std::fmt;

/// The default double-precision field: what every solver, driver and
/// output path works in unless precision is explicitly lowered.
pub type Field2D = Field2<f64>;

/// The single-precision field variant, used by the `f32` and mixed
/// precision legs of the design space.
pub type Field2F = Field2<f32>;

/// A dense, row-major 2D field of [`Scalar`] values with `halo` ghost
/// layers on every side.
///
/// The allocation covers `(nx + 2*halo) * (ny + 2*halo)` cells. Signed
/// index `(j, k)` maps to flat offset `(k + halo) * stride + (j + halo)`.
#[derive(Clone, PartialEq)]
pub struct Field2<S: Scalar> {
    nx: usize,
    ny: usize,
    halo: usize,
    stride: usize,
    data: Vec<S>,
}

impl<S: Scalar> fmt::Debug for Field2<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Field2")
            .field("scalar", &S::NAME)
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .field("halo", &self.halo)
            .finish()
    }
}

impl<S: Scalar> Field2<S> {
    /// Creates a zero-filled field of `nx * ny` interior cells with `halo`
    /// ghost layers.
    ///
    /// # Panics
    /// Panics if `nx` or `ny` is zero.
    pub fn new(nx: usize, ny: usize, halo: usize) -> Self {
        assert!(nx > 0 && ny > 0, "field dimensions must be positive");
        let stride = nx + 2 * halo;
        let rows = ny + 2 * halo;
        Field2 {
            nx,
            ny,
            halo,
            stride,
            data: vec![S::ZERO; stride * rows],
        }
    }

    /// Creates a field with every cell (including ghosts) set to `value`.
    pub fn filled(nx: usize, ny: usize, halo: usize, value: S) -> Self {
        let mut f = Self::new(nx, ny, halo);
        f.data.fill(value);
        f
    }

    /// Interior extent in x (number of non-ghost columns).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Interior extent in y (number of non-ghost rows).
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Ghost-layer depth on each side.
    #[inline(always)]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Flat offset of signed cell index `(j, k)`.
    ///
    /// Debug-asserts the index is within the allocation (ghosts included).
    #[inline(always)]
    pub fn offset(&self, j: isize, k: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(
            j >= -h && j < self.nx as isize + h,
            "x index {j} out of range [{}, {})",
            -h,
            self.nx as isize + h
        );
        debug_assert!(
            k >= -h && k < self.ny as isize + h,
            "y index {k} out of range [{}, {})",
            -h,
            self.ny as isize + h
        );
        (k + h) as usize * self.stride + (j + h) as usize
    }

    /// Value at signed cell index `(j, k)` (ghosts allowed).
    #[inline(always)]
    pub fn at(&self, j: isize, k: isize) -> S {
        self.data[self.offset(j, k)]
    }

    /// Sets the value at signed cell index `(j, k)`.
    #[inline(always)]
    pub fn set(&mut self, j: isize, k: isize, v: S) {
        let o = self.offset(j, k);
        self.data[o] = v;
    }

    /// Full backing slice including ghost cells.
    #[inline(always)]
    pub fn raw(&self) -> &[S] {
        &self.data
    }

    /// Mutable full backing slice including ghost cells.
    #[inline(always)]
    pub fn raw_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// A row slice spanning `x_lo..x_hi` (signed, ghosts allowed) of row `k`.
    ///
    /// Hot kernels grab neighbouring row slices once and then index with
    /// plain `usize`, which lets the compiler elide bounds checks in the
    /// inner loop.
    #[inline(always)]
    pub fn row(&self, k: isize, x_lo: isize, x_hi: isize) -> &[S] {
        debug_assert!(x_lo <= x_hi);
        let a = self.offset(x_lo, k);
        let b = a + (x_hi - x_lo) as usize;
        &self.data[a..b]
    }

    /// Mutable row slice spanning `x_lo..x_hi` of row `k`.
    #[inline(always)]
    pub fn row_mut(&mut self, k: isize, x_lo: isize, x_hi: isize) -> &mut [S] {
        debug_assert!(x_lo <= x_hi);
        let a = self.offset(x_lo, k);
        let b = a + (x_hi - x_lo) as usize;
        &mut self.data[a..b]
    }

    /// Fills every cell (ghosts included) with `value`.
    pub fn fill(&mut self, value: S) {
        self.data.fill(value);
    }

    /// Fills only interior cells, leaving ghost layers untouched.
    pub fn fill_interior(&mut self, value: S) {
        for k in 0..self.ny as isize {
            self.row_mut(k, 0, self.nx as isize).fill(value);
        }
    }

    /// Copies interior cells from `src` (must have identical interior
    /// extents; halos may differ).
    pub fn copy_interior_from(&mut self, src: &Field2<S>) {
        assert_eq!(self.nx, src.nx, "interior nx mismatch");
        assert_eq!(self.ny, src.ny, "interior ny mismatch");
        for k in 0..self.ny as isize {
            let d = self.row_mut(k, 0, src.nx as isize);
            let s = src.row(k, 0, src.nx as isize);
            d.copy_from_slice(s);
        }
    }

    /// Converts every cell (ghosts included) into a new field of scalar
    /// type `T`, rounding if `T` is narrower.
    pub fn convert<T: Scalar>(&self) -> Field2<T> {
        let mut out = Field2::<T>::new(self.nx, self.ny, self.halo);
        self.convert_into(&mut out);
        out
    }

    /// Converts every cell (ghosts included) into `dst`, which must have
    /// identical extents and halo. The allocation-free sibling of
    /// [`Field2::convert`] for per-iteration precision demotion/promotion
    /// in the mixed solvers.
    ///
    /// # Panics
    /// Panics on extent or halo mismatch.
    pub fn convert_into<T: Scalar>(&self, dst: &mut Field2<T>) {
        assert_eq!(self.nx, dst.nx, "convert: nx mismatch");
        assert_eq!(self.ny, dst.ny, "convert: ny mismatch");
        assert_eq!(self.halo, dst.halo, "convert: halo mismatch");
        for (d, &s) in dst.data.iter_mut().zip(&self.data) {
            *d = T::from_f64(s.to_f64());
        }
    }

    /// Sum of interior cells (serial, deterministic order).
    pub fn interior_sum(&self) -> S {
        let mut acc = S::ZERO;
        for k in 0..self.ny as isize {
            for &v in self.row(k, 0, self.nx as isize) {
                acc += v;
            }
        }
        acc
    }

    /// Dot product over interior cells with `other` (serial, deterministic).
    pub fn interior_dot(&self, other: &Field2<S>) -> S {
        assert_eq!(self.nx, other.nx);
        assert_eq!(self.ny, other.ny);
        let mut acc = S::ZERO;
        for k in 0..self.ny as isize {
            let a = self.row(k, 0, self.nx as isize);
            let b = other.row(k, 0, self.nx as isize);
            for (x, y) in a.iter().zip(b) {
                acc += *x * *y;
            }
        }
        acc
    }

    /// Worst per-cell relative difference from `other` over the
    /// interior, `max |a−b| / max(|b|, floor)` with a `1e-12` floor so
    /// near-zero cells compare absolutely — the agreement metric of the
    /// precision sweeps (`other` is the reference field).
    ///
    /// # Panics
    /// Panics on interior-extent mismatch.
    pub fn interior_max_rel_diff(&self, other: &Field2<S>) -> f64 {
        assert_eq!(self.nx, other.nx, "interior nx mismatch");
        assert_eq!(self.ny, other.ny, "interior ny mismatch");
        let mut worst = 0.0f64;
        for k in 0..self.ny as isize {
            let a = self.row(k, 0, self.nx as isize);
            let b = other.row(k, 0, self.nx as isize);
            for (x, y) in a.iter().zip(b) {
                let (x, y) = (x.to_f64(), y.to_f64());
                worst = worst.max((x - y).abs() / y.abs().max(1e-12));
            }
        }
        worst
    }

    /// Maximum absolute value over interior cells.
    pub fn interior_max_abs(&self) -> S {
        let mut m = S::ZERO;
        for k in 0..self.ny as isize {
            for &v in self.row(k, 0, self.nx as isize) {
                m = m.max(v.abs());
            }
        }
        m
    }

    /// Iterates `(j, k, value)` over interior cells in row-major order.
    pub fn iter_interior(&self) -> impl Iterator<Item = (usize, usize, S)> + '_ {
        (0..self.ny)
            .flat_map(move |k| (0..self.nx).map(move |j| (j, k, self.at(j as isize, k as isize))))
    }

    /// Extracts a rectangular patch `[x_lo, x_hi) x [y_lo, y_hi)` (signed,
    /// ghosts allowed) into a packed `Vec`, row-major. Used by halo packing.
    pub fn pack_rect(&self, x_lo: isize, x_hi: isize, y_lo: isize, y_hi: isize) -> Vec<S> {
        let w = (x_hi - x_lo).max(0) as usize;
        let h = (y_hi - y_lo).max(0) as usize;
        let mut out = Vec::with_capacity(w * h);
        for k in y_lo..y_hi {
            out.extend_from_slice(self.row(k, x_lo, x_hi));
        }
        out
    }

    /// Writes a packed row-major buffer back into the rectangle
    /// `[x_lo, x_hi) x [y_lo, y_hi)`. Inverse of [`Field2::pack_rect`].
    ///
    /// # Panics
    /// Panics if `buf` length does not match the rectangle area.
    pub fn unpack_rect(&mut self, buf: &[S], x_lo: isize, x_hi: isize, y_lo: isize, y_hi: isize) {
        let w = (x_hi - x_lo).max(0) as usize;
        let h = (y_hi - y_lo).max(0) as usize;
        assert_eq!(buf.len(), w * h, "packed buffer size mismatch");
        for (i, k) in (y_lo..y_hi).enumerate() {
            self.row_mut(k, x_lo, x_hi)
                .copy_from_slice(&buf[i * w..(i + 1) * w]);
        }
    }

    /// Reflects interior boundary cells into the ghost layers up to `depth`
    /// on all four sides (TeaLeaf's external-boundary `update_halo` for
    /// reflective/insulated boundaries).
    ///
    /// Left ghost column `-1-d` receives column `d`, etc. Corners are
    /// filled by applying x reflection first then y reflection over the
    /// already-reflected columns, matching the Fortran ordering.
    pub fn reflect_boundaries(&mut self, depth: usize) {
        assert!(depth <= self.halo, "reflection depth exceeds halo");
        let nx = self.nx as isize;
        let ny = self.ny as isize;
        let d = depth as isize;
        // X faces (interior rows only, then Y pass covers corners).
        for k in 0..ny {
            for i in 0..d {
                let left = self.at(i, k);
                self.set(-1 - i, k, left);
                let right = self.at(nx - 1 - i, k);
                self.set(nx + i, k, right);
            }
        }
        // Y faces including the freshly filled x-ghost columns.
        for i in 0..d {
            for j in -d..nx + d {
                let bottom = self.at(j, i);
                self.set(j, -1 - i, bottom);
                let top = self.at(j, ny - 1 - i);
                self.set(j, ny + i, top);
            }
        }
    }

    /// Euclidean norm over interior cells.
    pub fn interior_norm(&self) -> S {
        self.interior_dot(self).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed_with_padding() {
        let f = Field2D::new(4, 3, 2);
        assert_eq!(f.nx(), 4);
        assert_eq!(f.ny(), 3);
        assert_eq!(f.halo(), 2);
        assert_eq!(f.offset(0, 1) - f.offset(0, 0), 8, "row stride");
        assert_eq!(f.raw().len(), 8 * 7);
        assert!(f.raw().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn signed_indexing_reaches_ghosts() {
        let mut f = Field2D::new(3, 3, 1);
        f.set(-1, -1, 7.0);
        f.set(3, 3, 8.0);
        f.set(1, 1, 9.0);
        assert_eq!(f.at(-1, -1), 7.0);
        assert_eq!(f.at(3, 3), 8.0);
        assert_eq!(f.at(1, 1), 9.0);
    }

    #[test]
    #[cfg(debug_assertions)] // the bounds check is a debug_assert
    #[should_panic]
    fn out_of_range_panics_in_debug() {
        let f = Field2D::new(3, 3, 1);
        // two past the interior with halo=1 is out of the allocation
        let _ = f.at(4, 0);
    }

    #[test]
    fn row_slices_match_at() {
        let mut f = Field2D::new(5, 4, 2);
        for k in 0..4 {
            for j in 0..5 {
                f.set(j, k, (j * 10 + k) as f64);
            }
        }
        let r = f.row(2, 0, 5);
        for (j, &v) in r.iter().enumerate() {
            assert_eq!(v, f.at(j as isize, 2));
        }
        // slice can span into ghosts
        let g = f.row(1, -2, 7);
        assert_eq!(g.len(), 9);
        assert_eq!(g[2], f.at(0, 1));
    }

    #[test]
    fn fill_interior_preserves_ghosts() {
        let mut f = Field2D::filled(3, 3, 1, 5.0);
        f.fill_interior(1.0);
        assert_eq!(f.at(0, 0), 1.0);
        assert_eq!(f.at(-1, 0), 5.0);
        assert_eq!(f.at(3, 2), 5.0);
        assert_eq!(f.interior_sum(), 9.0);
    }

    #[test]
    fn copy_interior_between_different_halos() {
        let mut a = Field2D::new(4, 4, 1);
        let mut b = Field2D::new(4, 4, 3);
        for k in 0..4 {
            for j in 0..4 {
                b.set(j, k, (j + k) as f64);
            }
        }
        a.copy_interior_from(&b);
        for k in 0..4 {
            for j in 0..4 {
                assert_eq!(a.at(j, k), (j + k) as f64);
            }
        }
    }

    #[test]
    fn dot_and_norm() {
        let mut a = Field2D::new(2, 2, 1);
        let mut b = Field2D::new(2, 2, 1);
        a.fill_interior(2.0);
        b.fill_interior(3.0);
        assert_eq!(a.interior_dot(&b), 24.0);
        assert_eq!(a.interior_norm(), 4.0);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut f = Field2D::new(6, 5, 2);
        for k in -2..7isize {
            for j in -2..8isize {
                f.set(j, k, (j * 100 + k) as f64);
            }
        }
        let buf = f.pack_rect(-2, 2, 1, 4);
        assert_eq!(buf.len(), 4 * 3);
        let mut g = Field2D::new(6, 5, 2);
        g.unpack_rect(&buf, -2, 2, 1, 4);
        for k in 1..4isize {
            for j in -2..2isize {
                assert_eq!(g.at(j, k), f.at(j, k));
            }
        }
    }

    #[test]
    fn reflect_boundaries_mirrors_edges() {
        let mut f = Field2D::new(4, 3, 2);
        for k in 0..3 {
            for j in 0..4 {
                f.set(j, k, (1 + j + 10 * k) as f64);
            }
        }
        f.reflect_boundaries(2);
        // left ghosts mirror columns 0 and 1
        assert_eq!(f.at(-1, 1), f.at(0, 1));
        assert_eq!(f.at(-2, 1), f.at(1, 1));
        // right ghosts mirror columns 3 and 2
        assert_eq!(f.at(4, 0), f.at(3, 0));
        assert_eq!(f.at(5, 0), f.at(2, 0));
        // bottom/top
        assert_eq!(f.at(2, -1), f.at(2, 0));
        assert_eq!(f.at(2, 3), f.at(2, 2));
        assert_eq!(f.at(2, 4), f.at(2, 1));
        // corner: double reflection
        assert_eq!(f.at(-1, -1), f.at(0, 0));
    }

    #[test]
    fn max_rel_diff_uses_reference_scale_with_floor() {
        let mut a = Field2D::new(2, 2, 0);
        let mut b = Field2D::new(2, 2, 0);
        b.fill_interior(100.0);
        a.fill_interior(100.0);
        a.set(0, 0, 101.0); // 1% off the reference
        assert!((a.interior_max_rel_diff(&b) - 0.01).abs() < 1e-12);
        // a zero reference cell compares absolutely against the floor
        let mut c = Field2D::new(2, 2, 0);
        c.set(1, 1, 1e-13);
        let z = Field2D::new(2, 2, 0);
        assert!((c.interior_max_rel_diff(&z) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_abs() {
        let mut f = Field2D::new(3, 3, 0);
        f.set(1, 2, -9.5);
        f.set(0, 0, 4.0);
        assert_eq!(f.interior_max_abs(), 9.5);
    }

    #[test]
    fn iter_interior_visits_all_cells_once() {
        let mut f = Field2D::new(3, 2, 1);
        f.fill_interior(1.0);
        let cells: Vec<_> = f.iter_interior().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], (0, 0, 1.0));
        assert_eq!(cells[5], (2, 1, 1.0));
    }

    #[test]
    fn f32_fields_work_like_f64_fields() {
        let mut f = Field2F::new(4, 4, 1);
        f.set(1, 2, 3.5);
        f.set(-1, -1, 0.25);
        assert_eq!(f.at(1, 2), 3.5f32);
        assert_eq!(f.at(-1, -1), 0.25f32);
        assert_eq!(f.interior_sum(), 3.5f32);
        assert_eq!(f.interior_norm(), 3.5f32);
    }

    #[test]
    fn convert_roundtrip_and_rounding() {
        let mut f = Field2D::new(3, 3, 1);
        for k in -1..4isize {
            for j in -1..4isize {
                f.set(j, k, (j * 10 + k) as f64 + 0.5);
            }
        }
        let g: Field2F = f.convert();
        assert_eq!(g.halo(), 1);
        // dyadic values survive the round trip, ghosts included
        let back: Field2D = g.convert();
        assert_eq!(back, f);
        // non-dyadic values round
        let mut h = Field2D::new(2, 2, 0);
        h.set(0, 0, 1.0 + 1e-12);
        let h32: Field2F = h.convert();
        assert_eq!(h32.at(0, 0), 1.0f32);
    }

    #[test]
    #[should_panic]
    fn convert_into_rejects_mismatched_halo() {
        let f = Field2D::new(3, 3, 1);
        let mut g = Field2F::new(3, 3, 2);
        f.convert_into(&mut g);
    }
}
