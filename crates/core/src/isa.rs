//! Run-time instruction-set dispatch: every hot row kernel is written
//! once and compiled twice.
//!
//! The release build targets baseline x86-64, where LLVM can vectorize
//! a stencil or elementwise row loop only two `f64` (four `f32`) lanes
//! wide. The matrix-powers block pass keeps its rows resident in L2, so
//! it is bound by the instructions it issues, not by memory, and 256-bit
//! registers halve that count. [`twins!`] takes a group of kernels and
//! emits, from each one body:
//!
//! * a **baseline** copy, compiled for the crate's target;
//! * an **AVX2** copy, the same tokens under
//!   `#[target_feature(enable = "avx2")]` (x86-64 only);
//! * the **dispatcher** under the kernel's own name and signature, which
//!   asks [`wide`] once per call — `is_x86_feature_detected!("avx2")`,
//!   which std caches after the first query — and runs the copy the
//!   host supports. Hosts without AVX2, and other architectures, run
//!   the baseline copy, which is the code every build ran before.
//!
//! A sweep, a CG update or a whole matrix-powers block is one call, so
//! the check is paid once per sweep or per block, never per row.
//!
//! # Where the twin is made
//!
//! rustc gives a closure the target features of the function it is
//! *written* in, and LLVM never inlines a wider function into a
//! narrower one. A row closure written in a baseline function stays a
//! baseline function even when every call above it runs wide, so the
//! copies are made of the functions that write the row closures (the
//! bodies handed to `vector::for_rows*` and `vector::for_rows_block`).
//! The `#[inline(always)]` helpers they call — the [`crate::vector::lanes`]
//! row bodies, the 5-point stencil — have no features of their own and
//! inline into whichever copy calls them. Within a group, and through
//! the other groups' kernels a group imports, a copy calls its siblings
//! of the same width directly: the AVX2 block pass runs the AVX2 stencil
//! and recurrence rows with no further dispatch.
//!
//! The groups are `vector::kernels` (the axpy-class sweeps, `dot_local`
//! and CG's fused update), `ops::rows` (the stencil sweeps),
//! `precon::rows` (the block pass's preconditioner rows and the
//! block-Jacobi strip solve), `ppcg::block` (the matrix-powers block
//! pass) and `mixed::convert` (the `f32` demote and promote sweeps).
//!
//! A copy is only as wide as its loops let LLVM make it, so each row
//! body is written as loops the vectorizer takes whole: CG's fused
//! update is two elementwise sweeps and then its reduction, not one loop
//! doing all three (which stays scalar), and the strip solve runs its
//! whole 4-cell strips at a compile-time length, so each strip's
//! forward and backward chains unroll and neighbouring strips share
//! vector registers. The reductions themselves fold their sixteen lanes
//! in 128-bit registers in either copy.
//!
//! # Why the bits match
//!
//! Only the `avx2` feature is enabled — not `fma` — and Rust never
//! contracts `a*b + c` into a fused multiply-add, so every lane rounds
//! each `+`, `-`, `*`, `/` and conversion exactly as IEEE 754 says at
//! either width. LLVM does not reassociate floating-point adds, and the
//! one reduction shape (`lanes::tree_sum`: sixteen lane accumulators, a
//! fixed pairwise fold, remainder last) is written out in the source,
//! independent of register width. Both copies therefore produce the
//! same bits for every input; `agreement`'s tests compare them kernel by
//! kernel and solve by solve.
//!
//! # The unsafe budget
//!
//! Calling a `#[target_feature]` function from code compiled without
//! the feature is `unsafe`. The one such call is the dispatcher's, in
//! [`twins!`] below, guarded by the detection it cites; `tea-audit`'s
//! `crate_hygiene` rule pins this file as the only place in the
//! workspace an `unsafe` token may appear.

/// Emits the baseline copy, the AVX2 copy and the dispatcher of each
/// kernel in the group (module docs). `mod name;` names the module the
/// copies live in (`name::baseline`, `name::avx2`); an optional list,
/// `mod name(path { kernel, .. }, ..);`, imports kernels of other
/// groups (`path` is that group's module) so every copy calls the copy
/// of the same width. Copies see the enclosing module's items through
/// a glob import. Arguments are plain `name: Type` pairs, generics plain
/// `T: Bound` pairs.
macro_rules! twins {
    (
        mod $m:ident $(( $($($up:ident)::+ { $($un:ident),+ }),+ $(,)? ))?;
        $(
            $(#[$attr:meta])*
            $vis:vis fn $name:ident $(<$($g:ident : $b:path),+>)?
                ( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)? $body:block
        )+
    ) => {
        /// The compiled copies of this module's dispatched row kernels
        /// (see `crate::isa`).
        pub(crate) mod $m {
            /// Compiled for the crate's target.
            pub(crate) mod baseline {
                #[allow(unused_imports, reason = "a group's bodies need only some of the module's names")]
                use super::super::*;
                $($(use $($up)::+::baseline::{$($un),+};)+)?
                $(
                    $(#[$attr])*
                    pub(crate) fn $name $(<$($g: $b),+>)? ($($arg: $ty),*) $(-> $ret)? $body
                )+
            }
            /// The same bodies, compiled with AVX2 enabled.
            #[cfg(target_arch = "x86_64")]
            pub(crate) mod avx2 {
                #[allow(unused_imports, reason = "a group's bodies need only some of the module's names")]
                use super::super::*;
                $($(use $($up)::+::avx2::{$($un),+};)+)?
                $(
                    $(#[$attr])*
                    #[target_feature(enable = "avx2")]
                    pub(crate) fn $name $(<$($g: $b),+>)? ($($arg: $ty),*) $(-> $ret)? $body
                )+
            }
        }
        $(
            $(#[$attr])*
            #[cfg_attr(
                target_arch = "x86_64",
                expect(unsafe_code, reason = "the dispatcher's call into the AVX2 copy is the crate's one unsafe operation")
            )]
            $vis fn $name $(<$($g: $b),+>)? ($($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                if $crate::isa::wide() {
                    // SAFETY: the AVX2 copy's only precondition is that the
                    // CPU and OS support AVX2, and `wide()` is true only
                    // when `std::arch::is_x86_feature_detected!("avx2")`
                    // said so on this host.
                    return unsafe { $m::avx2::$name($($arg),*) };
                }
                $m::baseline::$name($($arg),*)
            }
        )+
    };
}
pub(crate) use twins;

/// Whether the dispatchers run the AVX2 copies on this thread: the host
/// has AVX2 (`is_x86_feature_detected!`, cached by std), unless a test
/// pinned the baseline path.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn wide() -> bool {
    #[cfg(test)]
    if let Some(forced) = path::FORCED.get() {
        return forced;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// The copy of the row kernels the dispatchers run on this host:
/// `"avx2"` or `"baseline"` (the module docs say what each is).
pub fn kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        return "avx2";
    }
    "baseline"
}

/// The test-only path selector: pins the dispatchers of the calling
/// thread to one copy, so a test can run the same kernel or solve once
/// on each and compare the bits.
#[cfg(test)]
pub(crate) mod path {
    use std::cell::Cell;

    thread_local! {
        /// `Some(wide)` overrides detection on this thread.
        pub(super) static FORCED: Cell<Option<bool>> = const { Cell::new(None) };
    }

    /// One compiled copy of the row kernels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Path {
        /// The copy compiled for the crate's target.
        Baseline,
        /// The AVX2 copy.
        Avx2,
    }

    /// Whether this host can run `path`.
    pub(crate) fn available(path: Path) -> bool {
        match path {
            Path::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Path::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Path::Avx2 => false,
        }
    }

    /// Runs `f` with this thread's dispatchers pinned to `path`, or
    /// returns `None` when the host cannot run it.
    pub(crate) fn on<R>(path: Path, f: impl FnOnce() -> R) -> Option<R> {
        if !available(path) {
            return None;
        }
        let before = FORCED.replace(Some(path == Path::Avx2));
        let out = f();
        FORCED.set(before);
        Some(out)
    }
}

#[cfg(test)]
mod agreement;
