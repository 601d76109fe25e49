//! Inert stand-ins for the retired kernel thread team.
//!
//! Kernels sweep rows on the calling thread; a run's parallelism is its
//! rank count (each simulated rank is one OS thread) and a serving
//! queue's is its worker count. These four functions keep the
//! signatures the repository benchmark (`benchmark/src`) still calls,
//! and change nothing: there is no worker count or threshold left to
//! set.

/// Worker threads a sweep uses: always 1. Read by the benchmark's
/// `isolated.rs` (`region_launch_s`), which saves and restores it.
pub fn num_threads() -> usize {
    1
}

/// Does nothing. Called by the benchmark's `deck_workload.rs`,
/// `serve_workload.rs` and `isolated.rs` with each workload's thread
/// count.
pub fn set_num_threads(_threads: usize) {}

/// Cells a sweep needs before it goes parallel: `usize::MAX`, since no
/// sweep does. Read by the benchmark's `deck_workload.rs` (its
/// `runtime.parallel_regions` count) and `isolated.rs`.
pub fn par_threshold() -> usize {
    usize::MAX
}

/// Does nothing. Called by the benchmark's `isolated.rs`
/// (`region_launch_s`).
pub fn set_par_threshold(_cells: usize) {}
