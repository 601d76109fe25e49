//! Communication counters.
//!
//! Every primitive on a [`crate::Communicator`] bumps these counters.
//! Point-to-point payload volume is accounted **by element width**: a
//! [`crate::Payload`] of `f64` elements counts 8 bytes each, an `f32`
//! payload 4 — real accounting, not an assumed wire format. They serve
//! two purposes: validation (tests assert the matrix-powers kernel
//! really sends fewer, larger messages, and that `f32` halos really
//! halve the byte volume) and calibration input for the `tea-perfmodel`
//! scaling simulator.

use crate::wire::Payload;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic per-rank communication counters (interior mutability so the
/// communicator can be shared immutably).
#[derive(Debug, Default)]
pub struct CommStats {
    msgs_sent: AtomicU64,
    elems_sent_f64: AtomicU64,
    elems_sent_f32: AtomicU64,
    msgs_received: AtomicU64,
    elems_received_f64: AtomicU64,
    elems_received_f32: AtomicU64,
    reductions: AtomicU64,
    reduction_elems_f64: AtomicU64,
    reduction_elems_f32: AtomicU64,
    barriers: AtomicU64,
}

/// A point-in-time copy of [`CommStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// `f64` payload elements sent (8 wire bytes each).
    pub elems_sent_f64: u64,
    /// `f32` payload elements sent (4 wire bytes each).
    pub elems_sent_f32: u64,
    /// Point-to-point messages received.
    pub msgs_received: u64,
    /// `f64` payload elements received.
    pub elems_received_f64: u64,
    /// `f32` payload elements received.
    pub elems_received_f32: u64,
    /// Number of allreduce operations (fused counts once).
    pub reductions: u64,
    /// `f64` scalar elements reduced (8 wire bytes each).
    pub reduction_elems_f64: u64,
    /// `f32` scalar elements reduced (4 wire bytes each).
    pub reduction_elems_f32: u64,
    /// Barrier operations.
    pub barriers: u64,
}

impl StatsSnapshot {
    /// Total payload elements sent, any width.
    pub fn elems_sent(&self) -> u64 {
        self.elems_sent_f64 + self.elems_sent_f32
    }

    /// Total payload elements received, any width.
    pub fn elems_received(&self) -> u64 {
        self.elems_received_f64 + self.elems_received_f32
    }

    /// Total scalar elements reduced, any width.
    pub fn reduction_elements(&self) -> u64 {
        self.reduction_elems_f64 + self.reduction_elems_f32
    }

    /// Reduction traffic in bytes, accounted by element width — one
    /// contribution per rank per element (what each rank puts on the
    /// wire, matching the point-to-point accounting).
    pub fn reduction_bytes(&self) -> u64 {
        self.reduction_elems_f64 * 8 + self.reduction_elems_f32 * 4
    }

    /// Payload bytes sent, accounted by element width (8 per `f64`
    /// element, 4 per `f32`).
    pub fn bytes_sent(&self) -> u64 {
        self.elems_sent_f64 * 8 + self.elems_sent_f32 * 4
    }

    /// Payload bytes received, accounted by element width.
    pub fn bytes_received(&self) -> u64 {
        self.elems_received_f64 * 8 + self.elems_received_f32 * 4
    }

    /// Mean payload bytes per element sent — 8.0 for pure-`f64` traffic,
    /// 4.0 for pure-`f32`, in between for mixed runs. `NaN`-free: returns
    /// 0.0 when nothing was sent.
    pub fn mean_bytes_per_elem_sent(&self) -> f64 {
        let elems = self.elems_sent();
        if elems == 0 {
            0.0
        } else {
            self.bytes_sent() as f64 / elems as f64
        }
    }

    /// Adds every counter of `other` into this snapshot — the one way to
    /// aggregate per-rank snapshots into machine-wide totals.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        let StatsSnapshot {
            msgs_sent,
            elems_sent_f64,
            elems_sent_f32,
            msgs_received,
            elems_received_f64,
            elems_received_f32,
            reductions,
            reduction_elems_f64,
            reduction_elems_f32,
            barriers,
        } = other;
        self.msgs_sent += msgs_sent;
        self.elems_sent_f64 += elems_sent_f64;
        self.elems_sent_f32 += elems_sent_f32;
        self.msgs_received += msgs_received;
        self.elems_received_f64 += elems_received_f64;
        self.elems_received_f32 += elems_received_f32;
        self.reductions += reductions;
        self.reduction_elems_f64 += reduction_elems_f64;
        self.reduction_elems_f32 += reduction_elems_f32;
        self.barriers += barriers;
    }
}

impl CommStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sent message, attributing its elements to the payload's
    /// width bucket.
    pub fn count_send(&self, payload: &Payload) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        let n = payload.len() as u64;
        match payload {
            Payload::F64(_) => self.elems_sent_f64.fetch_add(n, Ordering::Relaxed),
            Payload::F32(_) => self.elems_sent_f32.fetch_add(n, Ordering::Relaxed),
        };
    }

    /// Records a received message, attributing its elements to the
    /// payload's width bucket.
    pub fn count_recv(&self, payload: &Payload) {
        self.msgs_received.fetch_add(1, Ordering::Relaxed);
        let n = payload.len() as u64;
        match payload {
            Payload::F64(_) => self.elems_received_f64.fetch_add(n, Ordering::Relaxed),
            Payload::F32(_) => self.elems_received_f32.fetch_add(n, Ordering::Relaxed),
        };
    }

    /// Records one allreduce, attributing its elements to the payload's
    /// width bucket.
    pub fn count_reduction_payload(&self, locals: &Payload) {
        self.reductions.fetch_add(1, Ordering::Relaxed);
        let n = locals.len() as u64;
        match locals {
            Payload::F64(_) => self.reduction_elems_f64.fetch_add(n, Ordering::Relaxed),
            Payload::F32(_) => self.reduction_elems_f32.fetch_add(n, Ordering::Relaxed),
        };
    }

    /// Records a barrier.
    pub fn count_barrier(&self) {
        self.barriers.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            elems_sent_f64: self.elems_sent_f64.load(Ordering::Relaxed),
            elems_sent_f32: self.elems_sent_f32.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            elems_received_f64: self.elems_received_f64.load(Ordering::Relaxed),
            elems_received_f32: self.elems_received_f32.load(Ordering::Relaxed),
            reductions: self.reductions.load(Ordering::Relaxed),
            reduction_elems_f64: self.reduction_elems_f64.load(Ordering::Relaxed),
            reduction_elems_f32: self.reduction_elems_f32.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::new();
        s.count_send(&Payload::F64(vec![0.0; 100]));
        s.count_send(&Payload::F64(vec![0.0; 50]));
        s.count_recv(&Payload::F64(vec![0.0; 100]));
        s.count_reduction_payload(&Payload::F64(vec![0.0; 3]));
        s.count_reduction_payload(&Payload::F32(vec![0.0; 2]));
        s.count_barrier();
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent, 2);
        assert_eq!(snap.elems_sent_f64, 150);
        assert_eq!(snap.elems_sent(), 150);
        assert_eq!(snap.bytes_sent(), 1200);
        assert_eq!(snap.msgs_received, 1);
        assert_eq!(snap.reductions, 2);
        assert_eq!(snap.reduction_elems_f64, 3);
        assert_eq!(snap.reduction_elems_f32, 2);
        assert_eq!(snap.reduction_elements(), 5);
        assert_eq!(snap.reduction_bytes(), 3 * 8 + 2 * 4);
        assert_eq!(snap.barriers, 1);
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = CommStats::new();
        a.count_send(&Payload::F64(vec![0.0; 4]));
        a.count_recv(&Payload::F32(vec![0.0; 6]));
        a.count_reduction_payload(&Payload::F64(vec![0.0; 2]));
        a.count_barrier();
        let b = CommStats::new();
        b.count_send(&Payload::F32(vec![0.0; 10]));
        b.count_recv(&Payload::F64(vec![0.0; 3]));
        b.count_reduction_payload(&Payload::F32(vec![0.0; 4]));
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.msgs_sent, 2);
        assert_eq!(total.elems_sent_f64, 4);
        assert_eq!(total.elems_sent_f32, 10);
        assert_eq!(total.msgs_received, 2);
        assert_eq!(total.elems_received_f64, 3);
        assert_eq!(total.elems_received_f32, 6);
        assert_eq!(total.reductions, 2);
        assert_eq!(total.reduction_elems_f64, 2);
        assert_eq!(total.reduction_elems_f32, 4);
        assert_eq!(total.reduction_elements(), 6);
        assert_eq!(total.barriers, 1);
        assert_eq!(total.bytes_sent(), 4 * 8 + 10 * 4);
    }

    #[test]
    fn bytes_account_by_element_width() {
        let s = CommStats::new();
        s.count_send(&Payload::F64(vec![0.0; 10]));
        s.count_send(&Payload::F32(vec![0.0; 10]));
        s.count_recv(&Payload::F32(vec![0.0; 6]));
        let snap = s.snapshot();
        assert_eq!(snap.elems_sent_f64, 10);
        assert_eq!(snap.elems_sent_f32, 10);
        // 10 doubles + 10 singles: 80 + 40 bytes, not 160
        assert_eq!(snap.bytes_sent(), 120);
        assert_eq!(snap.bytes_received(), 24);
        assert_eq!(snap.mean_bytes_per_elem_sent(), 6.0);
        assert_eq!(StatsSnapshot::default().mean_bytes_per_elem_sent(), 0.0);
    }
}
