//! # tea-fault — deterministic fault injection for TeaLeaf-rs
//!
//! Robustness claims are only testable if faults are *reproducible*.
//! This crate provides a seeded, wall-clock-free [`FaultPlan`] that
//! decides — purely from a seed and a job index — whether a served job
//! is faulted and how:
//!
//! * [`FaultKind::PoisonNan`] plants `NaN` into the iterate and
//!   residual of a running solve at a chosen outer iteration, through
//!   the [`tea_core::SolveProbe`] hook ([`NanPoison`]).
//! * [`FaultKind::PanicWorker`] makes the serving worker executing the
//!   job panic mid-job (the serve layer's `catch_unwind` isolation is
//!   what's under test).
//!
//! Everything is derived with splitmix64 from `seed ^ index` — no
//! clocks, no global RNG state — so the same plan replayed at any
//! worker count faults exactly the same jobs the same way.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use tea_core::SolveProbe;
use tea_mesh::{Field2D, Field2F};

/// splitmix64: the canonical 64-bit finalizer-style mixer. One round is
/// enough to decorrelate adjacent job indices.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One way a job can be made to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Plant `NaN` in the iterate and residual at outer iteration
    /// `iteration` of the job's first solve attempt.
    PoisonNan {
        /// Outer iteration (1-based) at which the poison lands.
        iteration: u64,
    },
    /// Panic the worker thread mid-job.
    PanicWorker,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::PoisonNan { iteration } => {
                write!(f, "poison-nan@iter{iteration}")
            }
            FaultKind::PanicWorker => write!(f, "panic-worker"),
        }
    }
}

/// A seeded, deterministic assignment of faults to job indices.
///
/// `fault_for(job)` is a pure function of `(seed, job)`: roughly
/// `rate` of all jobs are faulted, and a faulted job's [`FaultKind`]
/// and parameters are fixed by the same hash — replaying the plan at a
/// different worker count or interleaving reproduces it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Fault probability in thousandths (0..=1000).
    rate_per_mille: u32,
}

impl FaultPlan {
    /// A plan faulting about `rate` (0.0..=1.0) of a serving queue's
    /// jobs with the two kinds the serve layer can both cause and
    /// observe per job: [`FaultKind::PoisonNan`] and
    /// [`FaultKind::PanicWorker`].
    pub fn serving(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate_per_mille: (rate.clamp(0.0, 1.0) * 1000.0).round() as u32,
        }
    }

    /// Parses the CLI form `seed:rate`, e.g. `42:0.2`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (seed, rate) = s
            .split_once(':')
            .ok_or_else(|| format!("fault plan `{s}` is not of the form seed:rate"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|e| format!("fault plan seed `{seed}` is not a u64: {e}"))?;
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|e| format!("fault plan rate `{rate}` is not a number: {e}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault plan rate {rate} is outside 0.0..=1.0"));
        }
        Ok(FaultPlan::serving(seed, rate))
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault this plan assigns to job `job`, if any. Pure: same
    /// plan + same index ⇒ same answer, on any thread at any time.
    pub fn fault_for(&self, job: usize) -> Option<FaultKind> {
        let h = splitmix64(self.seed ^ splitmix64(job as u64));
        if (h % 1000) as u32 >= self.rate_per_mille {
            return None;
        }
        let pick = splitmix64(h);
        Some(match pick % 2 {
            0 => FaultKind::PoisonNan {
                iteration: pick >> 8 & 0xF | 1, // 1..=15, early enough to land
            },
            _ => FaultKind::PanicWorker,
        })
    }
}

/// A [`SolveProbe`] that plants `NaN` into the center of the iterate
/// and residual at one chosen outer iteration — the probe form of
/// [`FaultKind::PoisonNan`]. Works on both `f64` and fully-`f32`
/// solves.
#[derive(Debug, Clone, Copy)]
pub struct NanPoison {
    /// The outer iteration (1-based) to poison.
    pub iteration: u64,
}

impl NanPoison {
    fn center(nx: usize, ny: usize) -> (isize, isize) {
        ((nx / 2) as isize, (ny / 2) as isize)
    }
}

impl SolveProbe for NanPoison {
    fn on_iteration(&self, iteration: u64, u: &mut Field2D, r: &mut Field2D) {
        if iteration == self.iteration {
            let (j, k) = Self::center(u.nx(), u.ny());
            u.set(j, k, f64::NAN);
            r.set(j, k, f64::NAN);
        }
    }

    fn on_iteration_f32(&self, iteration: u64, u: &mut Field2F, r: &mut Field2F) {
        if iteration == self.iteration {
            let (j, k) = Self::center(u.nx(), u.ny());
            u.set(j, k, f32::NAN);
            r.set(j, k, f32::NAN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::serving(42, 0.2);
        let a: Vec<_> = (0..1000).map(|j| plan.fault_for(j)).collect();
        let b: Vec<_> = (0..1000).map(|j| plan.fault_for(j)).collect();
        assert_eq!(a, b, "fault_for must be a pure function of (seed, job)");
        let faulted = a.iter().filter(|f| f.is_some()).count();
        // 20% nominal; allow generous slack for hash noise.
        assert!((100..=300).contains(&faulted), "faulted {faulted}/1000");
        // a different seed faults a different set
        let other = FaultPlan::serving(43, 0.2);
        assert!((0..1000).any(|j| plan.fault_for(j) != other.fault_for(j)));
    }

    #[test]
    fn poison_lands_within_the_first_fifteen_iterations() {
        let plan = FaultPlan::serving(7, 1.0);
        for j in 0..500 {
            if let Some(FaultKind::PoisonNan { iteration }) = plan.fault_for(j) {
                assert!((1..=15).contains(&iteration))
            }
        }
    }

    #[test]
    fn serving_plan_answers_are_pinned() {
        // recorded at the commit before the non-serving mode was removed
        use FaultKind::{PanicWorker, PoisonNan};
        let plan = FaultPlan::serving(42, 0.4);
        let answers: Vec<_> = (0..24).map(|j| plan.fault_for(j)).collect();
        let poison = |iteration| Some(PoisonNan { iteration });
        #[rustfmt::skip]
        let pinned = [
            Some(PanicWorker), None, None, poison(3), None, poison(5),
            Some(PanicWorker), None, None, None, Some(PanicWorker), Some(PanicWorker),
            poison(7), None, None, poison(7), poison(15), None,
            None, None, poison(7), Some(PanicWorker), None, None,
        ];
        assert_eq!(answers, pinned);
    }

    #[test]
    fn zero_and_full_rates_are_honoured() {
        let none = FaultPlan::serving(1, 0.0);
        assert!((0..200).all(|j| none.fault_for(j).is_none()));
        let all = FaultPlan::serving(1, 1.0);
        assert!((0..200).all(|j| all.fault_for(j).is_some()));
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse("42:0.25").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rate_per_mille, 250);
        assert!(FaultPlan::parse("42").is_err());
        assert!(FaultPlan::parse("x:0.5").is_err());
        assert!(FaultPlan::parse("42:nope").is_err());
        assert!(FaultPlan::parse("42:1.5").is_err());
    }

    #[test]
    fn nan_poison_fires_only_at_its_iteration() {
        let probe = NanPoison { iteration: 3 };
        let mut u = Field2D::new(8, 8, 1);
        let mut r = Field2D::new(8, 8, 1);
        probe.on_iteration(2, &mut u, &mut r);
        assert!(u.raw().iter().all(|x| x.is_finite()));
        probe.on_iteration(3, &mut u, &mut r);
        assert!(u.at(4, 4).is_nan());
        assert!(r.at(4, 4).is_nan());
        // f32 variant too
        let mut uf = Field2F::new(8, 8, 1);
        let mut rf = Field2F::new(8, 8, 1);
        probe.on_iteration_f32(3, &mut uf, &mut rf);
        assert!(uf.at(4, 4).is_nan());
        assert!(rf.at(4, 4).is_nan());
    }
}
