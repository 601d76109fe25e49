//! Single-rank communicator.
//!
//! All collectives are identities and point-to-point messaging is a
//! protocol error (a single tile has no neighbours). Lets the solver
//! stack run without threads, which is also the configuration used for
//! reference solutions in tests.

use crate::stats::CommStats;
use crate::wire::Payload;
use crate::Communicator;

/// The trivial one-rank communicator.
#[derive(Debug, Default)]
pub struct SerialComm {
    stats: CommStats,
}

impl SerialComm {
    /// Creates a serial communicator.
    pub fn new() -> Self {
        SerialComm {
            stats: CommStats::new(),
        }
    }
}

impl Communicator for SerialComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn allreduce_sum_payload(&self, locals: Payload) -> Payload {
        // identity, but width-accounted: an f32 reduction is counted at
        // 4 bytes/element here exactly as on the threaded backend
        self.stats.count_reduction_payload(&locals);
        locals
    }

    fn barrier(&self) {
        self.stats.count_barrier();
    }

    fn send(&self, to: usize, _tag: u64, _data: Payload) {
        panic!("SerialComm cannot send (to rank {to}): a single tile has no neighbours");
    }

    fn recv(&self, from: usize, _tag: u64) -> Payload {
        panic!("SerialComm cannot recv (from rank {from}): a single tile has no neighbours");
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn as_dyn(&self) -> &dyn Communicator {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_collectives() {
        let c = SerialComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        assert_eq!(c.allreduce_sum(3.25), 3.25);
        c.barrier();
        let s = c.stats().snapshot();
        assert_eq!(s.reductions, 1);
        assert_eq!(s.barriers, 1);
    }

    #[test]
    fn payload_reduction_is_identity_and_width_accounted() {
        let c = SerialComm::new();
        let out = c.allreduce_sum_payload(Payload::F32(vec![1.5, -2.0]));
        assert_eq!(out, Payload::F32(vec![1.5, -2.0]));
        let out = c.allreduce_sum_payload(Payload::F64(vec![0.25]));
        assert_eq!(out, Payload::F64(vec![0.25]));
        let s = c.stats().snapshot();
        assert_eq!(s.reductions, 2);
        assert_eq!(s.reduction_elems_f32, 2);
        assert_eq!(s.reduction_elems_f64, 1);
    }

    #[test]
    #[should_panic]
    fn send_panics() {
        SerialComm::new().send(0, 0, Payload::F64(vec![]));
    }

    #[test]
    #[should_panic]
    fn recv_panics() {
        let _ = SerialComm::new().recv(0, 0);
    }
}
