//! Multigrid solve traces.
//!
//! The V-cycle touches every level per cycle: smoothing sweeps, residual
//! and transfer operators, and (on a distributed machine) one halo
//! exchange per level sweep plus the coarse-solve gather. [`MgTrace`]
//! extends the flat `tea-core` trace with the per-level structure the
//! performance model needs to reproduce BoomerAMG's strong-scaling
//! collapse: coarse levels have almost no cells per rank, so each sweep
//! there is pure latency.

use std::collections::BTreeMap;
use tea_core::SolveTrace;

/// Protocol record of an AMG-preconditioned solve.
#[derive(Debug, Clone, Default)]
pub struct MgTrace {
    /// Outer-CG protocol on the finest grid (reductions, fine-grid spmv,
    /// fine halo exchanges).
    pub outer: SolveTrace,
    /// Kernel sweeps per level (smoothing + residual + transfers), each
    /// of which implies one depth-1 halo exchange at that level's tile
    /// size on a distributed run.
    pub level_sweeps: BTreeMap<u32, u64>,
    /// Per-level global shapes `(nx, ny)`, finest first.
    pub level_shapes: Vec<(usize, usize)>,
    /// V-cycles executed.
    pub vcycles: u64,
    /// Coarsest-level direct solves (a gather + broadcast on a
    /// distributed run).
    pub coarse_solves: u64,
    /// Cells touched building the hierarchy, summed over the builds —
    /// one per `prepare`: every time step under the reference driver,
    /// once per session on the serving path.
    pub setup_cells: u64,
}

impl MgTrace {
    /// Records one kernel sweep on `level`.
    pub fn record_level_sweep(&mut self, level: usize) {
        *self.level_sweeps.entry(level as u32).or_insert(0) += 1;
    }

    /// Total sweeps across all levels.
    pub fn total_level_sweeps(&self) -> u64 {
        self.level_sweeps.values().sum()
    }

    /// Sweeps on one level.
    pub fn sweeps_at(&self, level: usize) -> u64 {
        self.level_sweeps.get(&(level as u32)).copied().unwrap_or(0)
    }

    /// Accumulates another trace (multi-step driver runs).
    pub fn merge(&mut self, other: &MgTrace) {
        self.outer.merge(&other.outer);
        for (&l, &n) in &other.level_sweeps {
            *self.level_sweeps.entry(l).or_insert(0) += n;
        }
        if self.level_shapes.is_empty() {
            self.level_shapes = other.level_shapes.clone();
        }
        self.vcycles += other.vcycles;
        self.coarse_solves += other.coarse_solves;
        self.setup_cells += other.setup_cells;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_sweep_accounting() {
        let mut t = MgTrace::default();
        t.record_level_sweep(0);
        t.record_level_sweep(0);
        t.record_level_sweep(3);
        assert_eq!(t.total_level_sweeps(), 3);
        assert_eq!(t.sweeps_at(0), 2);
        assert_eq!(t.sweeps_at(3), 1);
        assert_eq!(t.sweeps_at(1), 0);
    }
}
