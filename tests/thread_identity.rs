//! The threaded runtime's determinism contract: every solver must
//! produce **bit-identical** results for any worker-thread count and any
//! parallel-threshold setting.
//!
//! Baseline: 1 thread with the threshold forced to `usize::MAX` — that
//! is exactly the pre-threading sequential behaviour (no `par_*` call
//! ever takes the parallel branch). Every other configuration, including
//! "every sweep parallel" (`threshold = 1`) on 2 and 4 workers, must
//! reproduce its temperature field, iteration counts, and solve trace to
//! the last bit.
//!
//! Everything runs inside a single `#[test]` because thread count and
//! threshold are process-global runtime knobs; concurrent tests mutating
//! them would still be *correct* (results are config-independent) but
//! the failure messages would attribute configs wrongly.

use tealeaf::app::{crooked_pipe_deck, run_serial, Deck};
use tealeaf::solvers as runtime;
use tealeaf::solvers::{PreconKind, SolveTrace};

fn deck(n: usize, solver: &str) -> Deck {
    let mut d = crooked_pipe_deck(n, solver);
    d.control.end_step = 1;
    d.control.summary_frequency = 0;
    // cap the work so unconverged configurations still compare equal
    // amounts of Krylov arithmetic quickly, even in debug builds
    d.control.opts.max_iters = 60;
    if solver.ends_with("ppcg") {
        d.control.ppcg_halo_depth = 4;
        d.control.ppcg_inner_steps = 8;
        d.control.opts.max_iters = 12;
    }
    d
}

/// Interior temperature field as raw bits: any reassociated reduction or
/// racy write shows up as an exact mismatch.
fn run_bits(deck: &Deck) -> (Vec<u64>, u64, SolveTrace) {
    let out = run_serial(deck).expect("deck runs");
    let u = out.final_u.expect("serial run gathers the field");
    let mut bits = Vec::with_capacity(u.nx() * u.ny());
    for k in 0..u.ny() as isize {
        for j in 0..u.nx() as isize {
            bits.push(u.at(j, k).to_bits());
        }
    }
    let iters = out.steps.iter().map(|s| s.iterations).sum();
    (bits, iters, out.trace)
}

#[test]
fn solvers_are_bit_identical_across_threads_and_thresholds() {
    let n = 48;
    // mixed_ppcg exercises the native-f32 halo exchange path (the inner
    // Chebyshev smoothing's deep-halo payloads travel at 4-byte width):
    // it must be exactly as thread-deterministic as the f64 solvers.
    // CG runs under every preconditioner: Identity and Diagonal fold
    // r·z into the fused u/r sweep (`for_rows2_sum`), block-Jacobi keeps
    // its strip solve and a separate 16-lane-tree dot.
    // The ppcg rows smooth at depth 4 and cross-check the two dispatches
    // of a block: one worker runs it as a time-skewed pass over the rows,
    // 2 and 4 workers (where the threshold lets them) as row-parallel
    // sweeps, level at a time — jac_diag adds the product fused into the
    // `sd` recurrence
    let solvers = [
        ("cg", PreconKind::None),
        ("cg", PreconKind::Diagonal),
        ("cg", PreconKind::BlockJacobi),
        ("ppcg", PreconKind::None),
        ("ppcg", PreconKind::Diagonal),
        ("chebyshev", PreconKind::None),
        ("mixed_ppcg", PreconKind::None),
    ];
    // thread counts the ISSUE pins, crossed with "everything parallel"
    // (1 and 64 cells), the default crossover, and "everything serial":
    // the reduction shape depends on the sweep bounds alone
    let thresholds = [1usize, 64, runtime::PAR_THRESHOLD, usize::MAX];
    let threads = [1usize, 2, 4];

    for (solver, precon) in solvers {
        let mut d = deck(n, solver);
        d.control.precon = precon;
        let solver = format!("{solver}/{}", precon.label());

        // today's behaviour, exactly: sequential branch everywhere
        runtime::set_num_threads(1);
        runtime::set_par_threshold(usize::MAX);
        let (base_bits, base_iters, base_trace) = run_bits(&d);
        assert!(base_iters > 0, "{solver} did no work");

        for &threshold in &thresholds {
            for &nthreads in &threads {
                runtime::set_par_threshold(threshold);
                runtime::set_num_threads(nthreads);
                let (bits, iters, trace) = run_bits(&d);
                assert_eq!(
                    iters, base_iters,
                    "{solver}: iteration count drifted at threads={nthreads}, threshold={threshold}"
                );
                assert_eq!(
                    trace, base_trace,
                    "{solver}: solve trace drifted at threads={nthreads}, threshold={threshold}"
                );
                assert!(
                    bits == base_bits,
                    "{solver}: temperature field not bit-identical at \
                     threads={nthreads}, threshold={threshold}"
                );
            }
        }
    }

    // leave the process-global knobs at their defaults
    runtime::set_par_threshold(runtime::PAR_THRESHOLD);
    runtime::set_num_threads(1);
}
