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
//! Thread count and threshold are process-global runtime knobs, so each
//! test holds [`KNOBS`] while it turns them: concurrent tests mutating
//! them would still be *correct* (results are config-independent) but
//! the failure messages would attribute configs wrongly.
//!
//! The contract includes failing alike: a solve whose operands are
//! shaped unlike its operator must fail the same way on one worker as
//! on four, not solve on one and index out of range on four.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use tealeaf::app::{crooked_pipe_deck, run_serial, Deck};
use tealeaf::mesh::Field2D;
use tealeaf::solvers as runtime;
use tealeaf::solvers::{
    crooked_pipe_system, lock_tolerant, PreconKind, SessionSpec, Solve, SolveSession, SolveTrace,
};

/// Held by every test that turns the runtime knobs.
static KNOBS: Mutex<()> = Mutex::new(());

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
    let _knobs = lock_tolerant(&KNOBS);
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

#[test]
fn a_misshapen_solve_fails_alike_at_every_thread_count() {
    let _knobs = lock_tolerant(&KNOBS);
    runtime::set_par_threshold(runtime::PAR_THRESHOLD);
    // a 256² tile is above the parallel threshold, where the fused u/r
    // sweep cuts both fields' rows at one stride: `u` one ghost layer
    // deeper than the halo-1 operator and workspace used to solve on
    // one worker and index out of range on more
    let (op, b) = crooked_pipe_system(256, 0.04, 1);
    let failure = |threads: usize, via_session: bool| -> String {
        runtime::set_num_threads(threads);
        let mut u = Field2D::new(256, 256, 2);
        u.copy_interior_from(&b);
        let err = catch_unwind(AssertUnwindSafe(|| {
            if via_session {
                let mut session = SolveSession::build(op.clone(), &SessionSpec::solver("cg"))
                    .expect("cg is registered");
                session.solve(&mut u, &b);
            } else {
                Solve::on(&op).run(&mut u, &b).expect("cg is registered");
            }
        }))
        .expect_err("a misshapen solve must fail");
        match err.downcast::<String>() {
            Ok(msg) => *msg,
            Err(_) => "a panic without a formatted message".into(),
        }
    };
    // the builder sizes its workspace from `u`, so `b` is the odd one
    // out there; a session's workspace has the solver's halo, so `u` is
    for (via_session, odd) in [(false, "b"), (true, "u")] {
        let (one, four) = (failure(1, via_session), failure(4, via_session));
        assert!(
            one.contains(&format!(
                "{odd} must have the operator's tile and the workspace's halo"
            )),
            "{one}"
        );
        assert_eq!(one, four, "the failure depends on the thread count");
    }
    runtime::set_num_threads(1);
}
