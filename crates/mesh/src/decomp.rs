//! Domain decomposition of the global structured grid over ranks.
//!
//! TeaLeaf decomposes the global `nx x ny` cell grid into rectangular
//! subdomains, one per MPI rank, choosing the process-grid factorisation
//! that minimises the total cut surface (and therefore halo traffic).
//! Remainder cells are distributed to the lowest-coordinate tiles so no
//! two tiles differ by more than one cell per dimension.

use serde::{Deserialize, Serialize};

/// Cardinal neighbour directions of a 2D tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dir {
    /// Negative x neighbour.
    West,
    /// Positive x neighbour.
    East,
    /// Negative y neighbour.
    South,
    /// Positive y neighbour.
    North,
}

/// One rank's rectangular tile of the global grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subdomain {
    /// Owning rank.
    pub rank: usize,
    /// Tile coordinates in the process grid.
    pub coords: (usize, usize),
    /// Global cell offset of this tile's first interior cell.
    pub offset: (usize, usize),
    /// Interior cells in x.
    pub nx: usize,
    /// Interior cells in y.
    pub ny: usize,
}

impl Subdomain {
    /// Global index range covered in x: `[offset.0, offset.0 + nx)`.
    pub fn x_range(&self) -> std::ops::Range<usize> {
        self.offset.0..self.offset.0 + self.nx
    }

    /// Global index range covered in y.
    pub fn y_range(&self) -> std::ops::Range<usize> {
        self.offset.1..self.offset.1 + self.ny
    }

    /// Number of interior cells.
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }
}

/// A balanced 2D block decomposition of a global grid over `px * py` ranks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decomposition2D {
    global_nx: usize,
    global_ny: usize,
    px: usize,
    py: usize,
}

/// Splits extent `n` into `parts` nearly equal pieces; piece `idx` gets
/// `(offset, len)`. The first `n % parts` pieces are one cell longer.
pub fn split_extent(n: usize, parts: usize, idx: usize) -> (usize, usize) {
    assert!(parts > 0, "cannot split into zero parts");
    assert!(idx < parts, "piece index out of range");
    let base = n / parts;
    let rem = n % parts;
    let len = base + usize::from(idx < rem);
    let offset = idx * base + idx.min(rem);
    (offset, len)
}

/// Enumerates all ordered factor pairs `(a, b)` with `a * b == p`.
fn factor_pairs(p: usize) -> Vec<(usize, usize)> {
    assert!(p > 0);
    let mut out = Vec::new();
    let mut a = 1;
    while a * a <= p {
        if p.is_multiple_of(a) {
            out.push((a, p / a));
            if a != p / a {
                out.push((p / a, a));
            }
        }
        a += 1;
    }
    out.sort_unstable();
    out
}

/// Chooses the process-grid shape `(px, py)` for `ranks` ranks over an
/// `nx x ny` grid by minimising the total interior cut length
/// `(px - 1) * ny + (py - 1) * nx`, i.e. the halo exchange surface.
/// Ties break towards the squarer grid (smaller `max(px, py)`),
/// then towards wider-than-tall (`px >= py`) to match TeaLeaf.
pub fn choose_process_grid(ranks: usize, nx: usize, ny: usize) -> (usize, usize) {
    assert!(ranks > 0);
    let mut best = (usize::MAX, usize::MAX, (ranks, 1));
    for (px, py) in factor_pairs(ranks) {
        if px > nx || py > ny {
            continue;
        }
        let cut = (px - 1) * ny + (py - 1) * nx;
        let sq = px.max(py);
        // deterministic lexicographic preference; px >= py wins ties because
        // factor_pairs is sorted and strict `<` keeps the first minimum
        let key = (cut, sq, (px, py));
        if key.0 < best.0 || (key.0 == best.0 && key.1 < best.1) {
            best = key;
        }
    }
    if best.0 == usize::MAX {
        // degenerate: more ranks than cells along each axis; fall back to a
        // column of ranks, clamped by the caller's validation
        (ranks.min(nx), 1)
    } else {
        best.2
    }
}

impl Decomposition2D {
    /// Builds a decomposition with an automatically chosen process grid.
    pub fn new(global_nx: usize, global_ny: usize, ranks: usize) -> Self {
        let (px, py) = choose_process_grid(ranks, global_nx, global_ny);
        Self::with_grid(global_nx, global_ny, px, py)
    }

    /// Builds a decomposition with an explicit `px x py` process grid.
    ///
    /// # Panics
    /// Panics if the grid is empty or has more ranks along an axis than
    /// cells.
    pub fn with_grid(global_nx: usize, global_ny: usize, px: usize, py: usize) -> Self {
        assert!(global_nx > 0 && global_ny > 0, "empty global grid");
        assert!(px > 0 && py > 0, "empty process grid");
        assert!(
            px <= global_nx,
            "more x ranks ({px}) than cells ({global_nx})"
        );
        assert!(
            py <= global_ny,
            "more y ranks ({py}) than cells ({global_ny})"
        );
        Decomposition2D {
            global_nx,
            global_ny,
            px,
            py,
        }
    }

    /// Global grid extent.
    pub fn global_cells(&self) -> (usize, usize) {
        (self.global_nx, self.global_ny)
    }

    /// Total rank count.
    pub fn ranks(&self) -> usize {
        self.px * self.py
    }

    /// Rank of process-grid coordinates (row-major: x fastest).
    fn rank_of(&self, cx: usize, cy: usize) -> usize {
        assert!(cx < self.px && cy < self.py, "coords out of process grid");
        cy * self.px + cx
    }

    /// Process-grid coordinates of `rank`.
    fn coords_of(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.ranks(), "rank out of range");
        (rank % self.px, rank / self.px)
    }

    /// The tile owned by `rank`.
    pub fn subdomain(&self, rank: usize) -> Subdomain {
        let (cx, cy) = self.coords_of(rank);
        let (x_off, nx) = split_extent(self.global_nx, self.px, cx);
        let (y_off, ny) = split_extent(self.global_ny, self.py, cy);
        Subdomain {
            rank,
            coords: (cx, cy),
            offset: (x_off, y_off),
            nx,
            ny,
        }
    }

    /// Neighbour rank of `rank` in direction `dir`, `None` at the domain
    /// boundary.
    pub fn neighbor(&self, rank: usize, dir: Dir) -> Option<usize> {
        let (cx, cy) = self.coords_of(rank);
        let (nx, ny) = (self.px, self.py);
        let (tx, ty) = match dir {
            Dir::West => (cx.checked_sub(1)?, cy),
            Dir::East => {
                if cx + 1 >= nx {
                    return None;
                }
                (cx + 1, cy)
            }
            Dir::South => (cx, cy.checked_sub(1)?),
            Dir::North => {
                if cy + 1 >= ny {
                    return None;
                }
                (cx, cy + 1)
            }
        };
        Some(self.rank_of(tx, ty))
    }

    /// Iterates every subdomain in rank order.
    pub fn subdomains(&self) -> impl Iterator<Item = Subdomain> + '_ {
        (0..self.ranks()).map(|r| self.subdomain(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dir {
        /// All four directions in TeaLeaf's exchange order (x pass then y pass).
        const ALL: [Dir; 4] = [Dir::West, Dir::East, Dir::South, Dir::North];

        /// The opposite direction (a message sent `East` arrives `West`).
        fn opposite(self) -> Dir {
            match self {
                Dir::West => Dir::East,
                Dir::East => Dir::West,
                Dir::South => Dir::North,
                Dir::North => Dir::South,
            }
        }
    }

    #[test]
    fn split_extent_covers_exactly() {
        for n in [1usize, 7, 16, 100, 4001] {
            for parts in 1..=n.min(13) {
                let mut covered = 0;
                let mut next = 0;
                for i in 0..parts {
                    let (off, len) = split_extent(n, parts, i);
                    assert_eq!(off, next, "pieces must be contiguous");
                    assert!(len >= n / parts && len <= n / parts + 1);
                    covered += len;
                    next = off + len;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn factor_pairs_complete() {
        assert_eq!(factor_pairs(12).len(), 6);
        assert!(factor_pairs(12).contains(&(3, 4)));
        assert!(factor_pairs(12).contains(&(12, 1)));
        assert_eq!(factor_pairs(1), vec![(1, 1)]);
        assert_eq!(factor_pairs(7), vec![(1, 7), (7, 1)]);
    }

    #[test]
    fn square_grid_gets_square_process_grid() {
        assert_eq!(choose_process_grid(4, 100, 100), (2, 2));
        assert_eq!(choose_process_grid(16, 100, 100), (4, 4));
        assert_eq!(choose_process_grid(64, 4000, 4000), (8, 8));
    }

    #[test]
    fn elongated_grid_prefers_matching_split() {
        // 400 x 100 grid with 4 ranks: cutting x into 4 costs 3*100=300;
        // 2x2 costs 100+400=500; so (4,1) wins.
        assert_eq!(choose_process_grid(4, 400, 100), (4, 1));
        assert_eq!(choose_process_grid(4, 100, 400), (1, 4));
    }

    #[test]
    fn subdomains_tile_global_grid() {
        let d = Decomposition2D::new(101, 67, 6);
        let (px, py) = (d.px, d.py);
        assert_eq!(px * py, 6);
        let mut covered = vec![false; 101 * 67];
        for s in d.subdomains() {
            for gy in s.y_range() {
                for gx in s.x_range() {
                    let idx = gy * 101 + gx;
                    assert!(!covered[idx], "tiles overlap at ({gx},{gy})");
                    covered[idx] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "tiles must cover the grid");
    }

    #[test]
    fn neighbors_are_symmetric() {
        let d = Decomposition2D::with_grid(64, 64, 4, 2);
        for r in 0..d.ranks() {
            for dir in Dir::ALL {
                if let Some(n) = d.neighbor(r, dir) {
                    assert_eq!(d.neighbor(n, dir.opposite()), Some(r));
                }
            }
        }
    }

    #[test]
    fn boundary_tiles_have_no_outside_neighbors() {
        let d = Decomposition2D::with_grid(64, 64, 2, 2);
        assert_eq!(d.neighbor(0, Dir::West), None);
        assert_eq!(d.neighbor(0, Dir::South), None);
        assert_eq!(d.neighbor(3, Dir::East), None);
        assert_eq!(d.neighbor(3, Dir::North), None);
        assert_eq!(d.neighbor(0, Dir::East), Some(1));
        assert_eq!(d.neighbor(0, Dir::North), Some(2));
    }

    #[test]
    fn rank_coords_roundtrip() {
        let d = Decomposition2D::with_grid(100, 100, 5, 4);
        for r in 0..20 {
            let (cx, cy) = d.coords_of(r);
            assert_eq!(d.rank_of(cx, cy), r);
        }
    }

    #[test]
    #[should_panic]
    fn too_many_ranks_along_axis_panics() {
        let _ = Decomposition2D::with_grid(4, 4, 8, 1);
    }

    #[test]
    fn load_balance_within_one_row() {
        let d = Decomposition2D::new(4000, 4000, 32);
        let min = d.subdomains().map(|s| s.cells()).min().unwrap();
        let max = d.subdomains().map(|s| s.cells()).max().unwrap();
        // tiles differ by at most one row/column
        assert!(max - min <= 4000 / 4 + 1);
        let total: usize = d.subdomains().map(|s| s.cells()).sum();
        assert_eq!(total, 4000 * 4000);
    }
}
