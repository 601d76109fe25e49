//! External solve control: cancellation tokens, deadlines, and
//! iteration probes.
//!
//! A serving queue needs two things the solver loops did not have:
//!
//! * a way to *stop* a running solve — either explicitly (a client
//!   cancelled) or via a per-job deadline — without waiting for the
//!   iteration cap; and
//! * a way to *observe and perturb* a running solve, which is how the
//!   deterministic fault-injection layer (`tea-fault`) poisons fields
//!   at a chosen iteration without any `cfg` plumbing in the kernels.
//!
//! Both hooks are carried by [`SolveControls`], an optional bundle on
//! [`crate::Tile`]. A disarmed bundle (the default everywhere) costs a
//! `None` check per outer iteration — nothing allocates, nothing reads
//! the clock — so production paths pay effectively nothing when no
//! plan or deadline is armed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tea_comms::WireScalar;
use tea_mesh::{Field2, Field2D, Field2F};

/// Shared cancellation state behind a [`StopHandle`].
#[derive(Debug)]
struct StopInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cancellation token with an optional wall-clock deadline.
///
/// Cloned handles share state: cancelling one cancels the solve seen
/// through all of them, so a serving worker can hold one end while the
/// queue holds the other. A default-constructed handle is *disarmed* —
/// it never stops anything and never reads the clock.
#[derive(Debug, Clone, Default)]
pub struct StopHandle {
    inner: Option<Arc<StopInner>>,
}

impl StopHandle {
    /// An armed handle with no deadline: stops only when
    /// [`StopHandle::cancel`] is called.
    pub fn new() -> Self {
        StopHandle {
            inner: Some(Arc::new(StopInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// An armed handle that expires `budget` from now. A zero budget
    /// expires immediately — useful for deterministic timeout tests; a
    /// budget past the end of the clock never expires.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadlines are tea-core's one sanctioned clock read: only armed serve-path \
                  handles reach here, and a deadline shifts when a solve stops, never the \
                  arithmetic of an iteration it runs"
    )]
    pub fn with_deadline(budget: Duration) -> Self {
        StopHandle {
            inner: Some(Arc::new(StopInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            })),
        }
    }

    /// A disarmed handle (same as `Default`): [`StopHandle::should_stop`]
    /// is always false and costs one `Option` check.
    pub fn disarmed() -> Self {
        StopHandle::default()
    }

    /// Requests cancellation; every solve checking this handle (or a
    /// clone of it) stops at its next iteration boundary. No-op on a
    /// disarmed handle.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Whether a solve observing this handle should stop now — because
    /// [`StopHandle::cancel`] ran or the deadline passed.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline expiry check; disarmed handles, which every non-serving path \
                  holds, return in the `None` arm and never read the clock"
    )]
    pub fn should_stop(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.cancelled.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }
}

/// An iteration observer a solve calls once per outer iteration, with
/// mutable access to the iterate and residual. The fault-injection
/// layer implements this to poison fields at a chosen iteration; the
/// hook is deliberately powerful enough to perturb a solve, not just
/// watch it.
///
/// Reduced-precision solvers whose working set is `f32` call the
/// `_f32` variant instead; the default implementation is a no-op so
/// probes that only care about `f64` solves need not implement it.
pub trait SolveProbe: Sync {
    /// Called at the top of each outer iteration of an `f64` solve.
    fn on_iteration(&self, iteration: u64, u: &mut Field2D, r: &mut Field2D);

    /// Called at the top of each outer iteration of a fully-`f32`
    /// solve (`cg_f32`). Default: no-op.
    fn on_iteration_f32(&self, iteration: u64, u: &mut Field2F, r: &mut Field2F) {
        let _ = (iteration, u, r);
    }
}

/// A scalar a [`SolveProbe`] has an iteration hook for — what lets one
/// loop, generic over its working precision, reach the right hook.
pub trait Probed: WireScalar {
    /// Calls `probe`'s hook for this precision.
    fn probe(probe: &dyn SolveProbe, iteration: u64, u: &mut Field2<Self>, r: &mut Field2<Self>);
}

impl Probed for f64 {
    fn probe(probe: &dyn SolveProbe, iteration: u64, u: &mut Field2D, r: &mut Field2D) {
        probe.on_iteration(iteration, u, r);
    }
}

impl Probed for f32 {
    fn probe(probe: &dyn SolveProbe, iteration: u64, u: &mut Field2F, r: &mut Field2F) {
        probe.on_iteration_f32(iteration, u, r);
    }
}

/// The optional control bundle a [`crate::Tile`] carries into a solve:
/// a cancellation/deadline token and an iteration probe. The default
/// (both `None`) is what every non-serving path uses, and costs two
/// `Option` checks per outer iteration.
#[derive(Clone, Copy, Default)]
pub struct SolveControls<'a> {
    /// Cancellation token checked at every outer iteration boundary.
    pub stop: Option<&'a StopHandle>,
    /// Iteration probe invoked at the top of every outer iteration.
    pub probe: Option<&'a dyn SolveProbe>,
}

impl std::fmt::Debug for SolveControls<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveControls")
            .field("stop", &self.stop)
            .field("probe", &self.probe.map(|_| "dyn SolveProbe"))
            .finish()
    }
}

impl<'a> SolveControls<'a> {
    /// Controls carrying only a stop handle.
    pub fn stopping(stop: &'a StopHandle) -> Self {
        SolveControls {
            stop: Some(stop),
            probe: None,
        }
    }

    /// Whether the solve should stop at this iteration boundary.
    pub fn should_stop(&self) -> bool {
        self.stop.is_some_and(StopHandle::should_stop)
    }

    /// Invokes the probe (if any) for a solve iteration in precision
    /// `S`.
    pub fn poke<S: Probed>(&self, iteration: u64, u: &mut Field2<S>, r: &mut Field2<S>) {
        if let Some(probe) = self.probe {
            S::probe(probe, iteration, u, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_handle_never_stops() {
        let h = StopHandle::disarmed();
        assert!(!h.should_stop());
        h.cancel(); // no-op
        assert!(!h.should_stop());
        assert!(!SolveControls::default().should_stop());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let h = StopHandle::new();
        let other = h.clone();
        assert!(!other.should_stop());
        h.cancel();
        assert!(other.should_stop());
        assert!(SolveControls::stopping(&other).should_stop());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let h = StopHandle::with_deadline(Duration::ZERO);
        assert!(h.should_stop());
        // a generous deadline does not
        let h = StopHandle::with_deadline(Duration::from_secs(3600));
        assert!(!h.should_stop());
        // nor does one the clock cannot represent (was an overflow panic)
        let h = StopHandle::with_deadline(Duration::MAX);
        assert!(!h.should_stop());
    }

    #[test]
    fn probe_fires_through_controls() {
        use std::sync::atomic::AtomicU64;
        struct Count(AtomicU64);
        impl SolveProbe for Count {
            fn on_iteration(&self, _: u64, _: &mut Field2D, _: &mut Field2D) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let probe = Count(AtomicU64::new(0));
        let controls = SolveControls {
            stop: None,
            probe: Some(&probe),
        };
        let mut u = Field2D::new(4, 4, 1);
        let mut r = Field2D::new(4, 4, 1);
        controls.poke(1, &mut u, &mut r);
        controls.poke(2, &mut u, &mut r);
        assert_eq!(probe.0.load(Ordering::Relaxed), 2);
        // the default f32 hook is a no-op but must be callable
        let mut uf = Field2F::new(4, 4, 1);
        let mut rf = Field2F::new(4, 4, 1);
        controls.poke(1, &mut uf, &mut rf);
        assert_eq!(probe.0.load(Ordering::Relaxed), 2);
    }
}
