//! Shared solver infrastructure: the per-rank [`Tile`] bundle, reusable
//! [`Workspace`] fields, solve options, and the traced communication
//! helpers every solver uses.

use crate::control::SolveControls;
use crate::ops::TileOperator;
use crate::trace::SolveTrace;
use tea_comms::{exchange_halo_many, Communicator, HaloLayout, WireScalar};
use tea_mesh::{Field2, Field2D};

/// Everything one rank needs to run a solver on its tile.
pub struct Tile<'a, C: Communicator + ?Sized> {
    /// The assembled matrix-free operator.
    pub op: &'a TileOperator,
    /// Halo-exchange neighbour map.
    pub layout: &'a HaloLayout,
    /// The rank's communicator.
    pub comm: &'a C,
    /// Optional cancellation/probe hooks checked at iteration
    /// boundaries. Defaults to disarmed (two `None` checks per outer
    /// iteration) everywhere except serving paths that arm it.
    pub controls: SolveControls<'a>,
}

impl<'a, C: Communicator + ?Sized> Tile<'a, C> {
    /// Bundles the three references, with disarmed controls.
    pub fn new(op: &'a TileOperator, layout: &'a HaloLayout, comm: &'a C) -> Self {
        Tile {
            op,
            layout,
            comm,
            controls: SolveControls::default(),
        }
    }

    /// [`Tile::new`] with an armed control bundle (serving paths with
    /// deadlines, cancellation, or fault probes).
    pub fn with_controls(
        op: &'a TileOperator,
        layout: &'a HaloLayout,
        comm: &'a C,
        controls: SolveControls<'a>,
    ) -> Self {
        Tile {
            op,
            layout,
            comm,
            controls,
        }
    }

    /// Exchanges halos of `fields` at `depth`, recording the protocol
    /// event (recorded even on single-rank runs: the trace captures the
    /// *protocol*, which is decomposition-independent). Generic over the
    /// field precision: `Field2<f32>` halos travel the wire at 4
    /// bytes/element natively, with no staging conversion.
    pub fn exchange<S: WireScalar>(
        &self,
        fields: &mut [&mut Field2<S>],
        depth: usize,
        trace: &mut SolveTrace,
    ) {
        trace.record_halo(depth, fields.len());
        exchange_halo_many(fields, self.layout, self.comm, depth);
    }

    /// Globally reduces one scalar *in its own precision*, recording one
    /// reduction event of one element: an `f32` local travels (and
    /// folds) at 4 bytes, so reduced-precision solvers stop widening
    /// their reduction traffic to f64.
    pub fn reduce_sum_native<S: WireScalar>(&self, local: S, trace: &mut SolveTrace) -> S {
        trace.record_reduction(1);
        let folded = self
            .comm
            .allreduce_sum_payload(S::into_payload(vec![local]));
        folded
            .try_into_vec::<S>()
            .expect("reduction preserves the deposited wire precision")[0]
    }
}

/// Convergence and iteration-cap options shared by all solvers.
#[derive(Debug, Clone, Copy)]
pub struct SolveOpts {
    /// Relative residual-reduction target (TeaLeaf `tl_eps`).
    pub eps: f64,
    /// Outer-iteration cap (TeaLeaf `tl_max_iters`).
    pub max_iters: u64,
}

impl Default for SolveOpts {
    fn default() -> Self {
        SolveOpts {
            eps: 1e-10,
            max_iters: 10_000,
        }
    }
}

impl SolveOpts {
    /// Options with a custom tolerance.
    pub fn with_eps(eps: f64) -> Self {
        SolveOpts {
            eps,
            ..Default::default()
        }
    }
}

/// Scratch fields reused across solves (one allocation per time-stepping
/// run instead of per solve): six fields, and no role among them is
/// read before a solve has written it, so a solve never depends on what
/// an earlier one left behind.
#[derive(Debug)]
pub struct Workspace {
    /// Search direction.
    pub p: Field2D,
    /// Residual.
    pub r: Field2D,
    /// Operator output `A·p`, and the preconditioned residual `M⁻¹r` once
    /// the update has consumed `A·p` (the two never live at once; see
    /// [`crate::recurrence::Krylov::wz`]).
    pub w: Field2D,
    /// Chebyshev smoothing direction.
    pub sd: Field2D,
    /// Inner-solve residual copy (matrix powers).
    pub rr: Field2D,
    /// General scratch (preconditioned inner residual, temporaries).
    pub tmp: Field2D,
}

impl Workspace {
    /// Allocates all scratch fields for an `nx x ny` tile with `halo`
    /// ghost layers (use the matrix-powers depth for PPCG).
    pub fn new(nx: usize, ny: usize, halo: usize) -> Self {
        let f = || Field2D::new(nx, ny, halo.max(1));
        Workspace {
            p: f(),
            r: f(),
            w: f(),
            sd: f(),
            rr: f(),
            tmp: f(),
        }
    }

    /// Halo depth the workspace fields carry.
    pub fn halo(&self) -> usize {
        self.p.halo()
    }

    /// The shape contract of a solve's operands, checked where a solve
    /// enters: `u` and `b` have `op`'s tile and this workspace's halo.
    /// The fused sweeps cut `u`'s rows and the workspace's `r` at one
    /// shared stride, so a mismatch would otherwise go unnoticed on one
    /// worker and index out of range on several.
    ///
    /// # Panics
    /// When `u` or `b` is shaped otherwise, naming it.
    pub(crate) fn check_operands(&self, op: &TileOperator, u: &Field2D, b: &Field2D) {
        let (nx, ny) = op.bounds.tile();
        let want = (nx, ny, self.halo());
        for (name, f) in [("u", u), ("b", b)] {
            assert_eq!(
                (f.nx(), f.ny(), f.halo()),
                want,
                "{name} must have the operator's tile and the workspace's halo (nx, ny, halo)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts() {
        let o = SolveOpts::default();
        assert_eq!(o.eps, 1e-10);
        assert_eq!(o.max_iters, 10_000);
        assert_eq!(SolveOpts::with_eps(1e-6).eps, 1e-6);
    }

    #[test]
    fn workspace_allocates_requested_halo() {
        let w = Workspace::new(8, 4, 3);
        assert_eq!(w.halo(), 3);
        assert_eq!(w.p.nx(), 8);
        assert_eq!(w.rr.ny(), 4);
        // halo floors at 1 (the operator needs one ghost layer)
        assert_eq!(Workspace::new(4, 4, 0).halo(), 1);
    }
}
