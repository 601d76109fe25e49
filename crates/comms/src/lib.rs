//! # tea-comms — simulated distributed message-passing runtime
//!
//! TeaLeaf's evaluation ran on MPI machines (Titan, Piz Daint, Spruce).
//! This crate substitutes a faithful in-process runtime: every rank is a
//! real thread with its own tile, point-to-point messages travel over
//! channels, and global reductions are deterministic (summed in rank
//! order, independent of thread scheduling). The same [`Communicator`]
//! trait also has a trivial serial backend so solvers are written once.
//!
//! On top of the raw primitives sit the TeaLeaf-specific collectives:
//! depth-*n* [`halo`] exchange (the x-then-y two-phase pattern whose
//! second phase carries the corner data, exactly as the Fortran
//! `update_halo` does) and field [`gather`] for diagnostics/output.
//!
//! The wire format is **precision-native**: point-to-point messages
//! carry a typed [`Payload`] of `f64` *or* `f32` elements, and the
//! collectives are generic over [`WireScalar`], so an `f32` field's
//! halo travels at 4 bytes per element with no staging conversion. A
//! mismatched send/recv precision pair fails loudly (the message tag
//! encodes the element width, and decoding checks it — see
//! [`WireError`]).
//!
//! Every operation is counted ([`CommStats`]), with payload volume
//! accounted in real bytes by element width, so the performance model in
//! `tea-perfmodel` can replay a run's exact communication structure on a
//! modelled machine.
//!
//! ## Example: four ranks summing their ranks
//!
//! ```
//! use tea_comms::{run_threaded, Communicator};
//!
//! let results = run_threaded(4, |comm| comm.allreduce_sum(comm.rank() as f64));
//! assert!(results.iter().all(|&r| r == 6.0));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod gather;
pub mod halo;
pub mod serial;
pub mod stats;
pub mod sync;
pub mod threaded;
pub mod wire;

pub use gather::gather_to_root;
pub use halo::{exchange_halo, exchange_halo_many, HaloLayout};
pub use serial::SerialComm;
pub use stats::{CommStats, StatsSnapshot};
pub use sync::lock_tolerant;
pub use threaded::{run_threaded, ThreadedComm};
pub use wire::{Payload, WireError, WireScalar};

/// A rank's handle onto the simulated machine.
///
/// Mirrors the slice of MPI that TeaLeaf uses: rank/size introspection,
/// deterministic allreduce, point-to-point sends for halo data, and a
/// barrier. All collectives must be called by every rank in the same
/// order (as in MPI).
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Total number of ranks.
    fn size(&self) -> usize;

    /// Global sum of one value per rank. Deterministic: contributions are
    /// combined in rank order regardless of arrival order.
    fn allreduce_sum(&self, local: f64) -> f64 {
        self.allreduce_sum_many(&[local])[0]
    }

    /// Fused global sum of several values (one latency for many dot
    /// products — the optimisation the paper's future-work section
    /// describes). Deterministic like [`Communicator::allreduce_sum`]:
    /// an `f64` [`Communicator::allreduce_sum_payload`].
    fn allreduce_sum_many(&self, locals: &[f64]) -> Vec<f64> {
        self.allreduce_sum_payload(Payload::F64(locals.to_vec()))
            .try_into_vec()
            .expect("f64 deposit folds to an f64 result")
    }

    /// Precision-native fused global sum: the reduction analogue of the
    /// typed point-to-point path. An `F32` payload travels (and is
    /// accounted) at 4 bytes per element; every rank must deposit the
    /// same width, and the fold runs in the payload's own precision so
    /// single-rank results are exactly the local values.
    fn allreduce_sum_payload(&self, locals: Payload) -> Payload;

    /// Blocks until every rank reaches the barrier.
    fn barrier(&self);

    /// Non-blocking ordered send of a typed `data` payload to rank `to`.
    /// `tag` must match the receiver's expectation; the runtime asserts
    /// protocol agreement. Raw `Vec<f64>` / `Vec<f32>` buffers convert
    /// with `.into()`.
    fn send(&self, to: usize, tag: u64, data: Payload);

    /// Receives the next message from rank `from`, asserting it carries
    /// `tag`. Blocks until the message arrives. The payload keeps the
    /// precision the sender packed; decode with
    /// [`Payload::try_into_vec`].
    fn recv(&self, from: usize, tag: u64) -> Payload;

    /// Communication counters for this rank.
    fn stats(&self) -> &CommStats;

    /// This communicator as a type-erased trait object — the form the
    /// `IterativeSolver` trait objects in `tea-core` are written
    /// against. Implementations return `self`.
    fn as_dyn(&self) -> &dyn Communicator;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn serial_default_allreduce_uses_many() {
        let c = SerialComm::new();
        assert_eq!(c.allreduce_sum(2.5), 2.5);
        assert_eq!(c.allreduce_sum_many(&[1.0, 2.0]), vec![1.0, 2.0]);
    }
}
