//! The one poison-tolerant locking helper every crate shares.
//!
//! `std`'s [`Mutex::lock`] returns a [`PoisonError`] when another
//! thread panicked while holding the guard. In this workspace a panic
//! inside a lock's critical section is always a *job*-scoped failure —
//! the serving queue catches it, classifies it and keeps draining — so
//! cascading that panic into every other thread that touches the same
//! mutex (which is what `.lock().unwrap()` does) would turn one lost
//! job into a lost queue.
//!
//! [`lock_tolerant`] is the sanctioned spelling: it takes the guard
//! whether or not the mutex is poisoned. All shared state guarded this
//! way must therefore stay valid under mid-update abandonment — the
//! workspace convention is to keep critical sections to single
//! push/pop/insert operations, which the standard collections make
//! panic-atomic in practice.
//!
//! Clippy enforces this workspace-wide: the root `clippy.toml` lists
//! `std::sync::Mutex::lock` under `disallowed-methods`, so any other
//! call to it, split chain or not, fails the lint. The helper lives
//! here, in the lowest crate that locks (the threaded runtime's
//! reduction rendezvous), and tea-core re-exports it as
//! `tea_core::lock_tolerant`, the name `clippy.toml` points at.
//!
//! [`PoisonError`]: std::sync::PoisonError

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, tolerating poisoning: if a previous holder panicked, the
/// guard is recovered and the lock proceeds.
///
/// ```
/// use std::sync::Mutex;
///
/// let counter = Mutex::new(0_u64);
/// *tea_comms::lock_tolerant(&counter) += 1;
/// assert_eq!(*tea_comms::lock_tolerant(&counter), 1);
/// ```
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned Mutex::lock: it recovers a poisoned guard instead of panicking"
)]
pub fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn locks_a_healthy_mutex() {
        let m = Mutex::new(vec![1, 2]);
        lock_tolerant(&m).push(3);
        assert_eq!(*lock_tolerant(&m), vec![1, 2, 3]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "poisoning the mutex needs a guard held by a panicking thread"
    )]
    fn recovers_a_poisoned_mutex() {
        let m = Mutex::new(7_u64);
        // Poison it: panic while holding the guard on another thread.
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = m.lock();
                std::panic::panic_any("poison");
            })
            .join()
            .is_err()
        });
        assert!(poisoned);
        assert!(m.is_poisoned());
        assert_eq!(*lock_tolerant(&m), 7);
        *lock_tolerant(&m) = 8;
        assert_eq!(*lock_tolerant(&m), 8);
    }
}
