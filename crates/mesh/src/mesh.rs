//! Mesh metadata: physical extents, spacing and per-rank tile geometry.
//!
//! TeaLeaf meshes are uniform rectangular grids. A [`Mesh2D`] couples the
//! global physical description (extent, cell counts) with one rank's
//! [`Subdomain`] so kernels can map local signed indices to global physical
//! coordinates, which is what the state/geometry initialisation needs.

use crate::decomp::{Decomposition2D, Subdomain};

/// Physical bounding box of the global domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extent2D {
    /// Minimum x coordinate.
    pub x_min: f64,
    /// Maximum x coordinate.
    pub x_max: f64,
    /// Minimum y coordinate.
    pub y_min: f64,
    /// Maximum y coordinate.
    pub y_max: f64,
}

impl Extent2D {
    /// A unit-square extent `[0,1] x [0,1]`.
    pub fn unit() -> Self {
        Extent2D {
            x_min: 0.0,
            x_max: 1.0,
            y_min: 0.0,
            y_max: 1.0,
        }
    }

    /// A square extent `[0,s] x [0,s]`.
    pub fn square(s: f64) -> Self {
        assert!(s > 0.0);
        Extent2D {
            x_min: 0.0,
            x_max: s,
            y_min: 0.0,
            y_max: s,
        }
    }

    /// Physical width.
    pub fn width(&self) -> f64 {
        self.x_max - self.x_min
    }

    /// Physical height.
    pub fn height(&self) -> f64 {
        self.y_max - self.y_min
    }
}

/// One rank's view of the global uniform mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh2D {
    global_nx: usize,
    global_ny: usize,
    extent: Extent2D,
    sub: Subdomain,
    dx: f64,
    dy: f64,
}

impl Mesh2D {
    /// Builds the mesh view for `rank` of `decomp` over `extent`.
    pub fn new(decomp: &Decomposition2D, rank: usize, extent: Extent2D) -> Self {
        let (gnx, gny) = decomp.global_cells();
        let sub = decomp.subdomain(rank);
        Mesh2D {
            global_nx: gnx,
            global_ny: gny,
            extent,
            sub,
            dx: extent.width() / gnx as f64,
            dy: extent.height() / gny as f64,
        }
    }

    /// A serial (single-tile) mesh covering the whole domain.
    pub fn serial(nx: usize, ny: usize, extent: Extent2D) -> Self {
        let d = Decomposition2D::with_grid(nx, ny, 1, 1);
        Self::new(&d, 0, extent)
    }

    /// Global cell counts.
    pub fn global_cells(&self) -> (usize, usize) {
        (self.global_nx, self.global_ny)
    }

    /// Physical extent of the global domain.
    pub fn extent(&self) -> Extent2D {
        self.extent
    }

    /// This rank's tile.
    pub fn subdomain(&self) -> &Subdomain {
        &self.sub
    }

    /// Local interior cells in x.
    pub fn nx(&self) -> usize {
        self.sub.nx
    }

    /// Local interior cells in y.
    pub fn ny(&self) -> usize {
        self.sub.ny
    }

    /// Cell spacing in x.
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Cell spacing in y.
    pub fn dy(&self) -> f64 {
        self.dy
    }

    /// Uniform cell volume (area in 2D).
    pub fn cell_volume(&self) -> f64 {
        self.dx * self.dy
    }

    /// Physical centre of local cell `(j, k)` (signed; ghosts allowed).
    pub fn cell_center(&self, j: isize, k: isize) -> (f64, f64) {
        let gx = self.sub.offset.0 as f64 + j as f64;
        let gy = self.sub.offset.1 as f64 + k as f64;
        (
            self.extent.x_min + (gx + 0.5) * self.dx,
            self.extent.y_min + (gy + 0.5) * self.dy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_mesh_geometry() {
        let m = Mesh2D::serial(10, 5, Extent2D::square(10.0));
        assert_eq!(m.dx(), 1.0);
        assert_eq!(m.dy(), 2.0);
        assert_eq!(m.cell_volume(), 2.0);
        assert_eq!(m.cell_center(0, 0), (0.5, 1.0));
        assert_eq!(m.cell_center(9, 4), (9.5, 9.0));
    }

    #[test]
    fn decomposed_tiles_share_global_coordinates() {
        let d = Decomposition2D::with_grid(8, 8, 2, 2);
        let e = Extent2D::unit();
        let m0 = Mesh2D::new(&d, 0, e);
        let m1 = Mesh2D::new(&d, 1, e);
        // rank 1's first column is rank 0's column 4
        assert_eq!(m1.cell_center(0, 0), m0.cell_center(4, 0));
        // ghost of rank 1 at j=-1 coincides with rank 0 interior j=3
        assert_eq!(m1.cell_center(-1, 0), m0.cell_center(3, 0));
    }

    #[test]
    fn extent_helpers() {
        let e = Extent2D::square(4.0);
        assert_eq!(e.width(), 4.0);
        assert_eq!(e.height(), 4.0);
        let u = Extent2D::unit();
        assert_eq!(u.width(), 1.0);
    }
}
