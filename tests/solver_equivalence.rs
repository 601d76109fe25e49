//! Cross-crate integration: every solver, serial and decomposed, must
//! produce the same physics.

use tealeaf::app::{crooked_pipe_deck, run_serial, run_threaded_ranks, Control, Deck};
use tealeaf::solvers::PreconKind;

fn deck(n: usize, solver: &str, steps: u64) -> Deck {
    let mut d = crooked_pipe_deck(n, solver);
    d.control = Control {
        solver: solver.into(),
        end_step: steps,
        summary_frequency: 1,
        ..Default::default()
    };
    d
}

fn max_rel_diff(a: &tealeaf::mesh::Field2D, b: &tealeaf::mesh::Field2D) -> f64 {
    let mut worst = 0.0f64;
    for k in 0..a.ny() as isize {
        for j in 0..a.nx() as isize {
            let (x, y) = (a.at(j, k), b.at(j, k));
            worst = worst.max((x - y).abs() / y.abs().max(1e-12));
        }
    }
    worst
}

#[test]
fn every_solver_reaches_the_same_temperature_field() {
    let n = 24;
    let reference = run_serial(&deck(n, "cg", 3)).expect("deck runs");
    let uref = reference.final_u.unwrap();
    for solver in ["jacobi", "chebyshev", "ppcg", "amg"] {
        let mut d = deck(n, solver, 3);
        if solver == "jacobi" {
            d.control.opts.max_iters = 500_000;
        }
        let out = run_serial(&d).expect("deck runs");
        assert!(
            out.steps.iter().all(|s| s.converged),
            "{solver} did not converge"
        );
        let diff = max_rel_diff(out.final_u.as_ref().unwrap(), &uref);
        assert!(diff < 2e-4, "{solver} diverged from CG reference by {diff}");
    }
}

#[test]
fn rank_counts_agree_for_cg() {
    let d = deck(30, "cg", 2);
    let serial = run_serial(&d).expect("deck runs");
    let us = serial.final_u.unwrap();
    for ranks in [2usize, 3, 4, 6] {
        let out = run_threaded_ranks(&d, ranks).expect("deck runs");
        let ut = out[0].final_u.as_ref().unwrap();
        let diff = max_rel_diff(ut, &us);
        assert!(diff < 1e-8, "{ranks} ranks differ from serial by {diff}");
        // non-root ranks gather nothing
        assert!(out[1..].iter().all(|o| o.final_u.is_none()));
    }
}

#[test]
fn matrix_powers_depths_agree_across_a_decomposition() {
    // PPCG-1 vs PPCG-2/4/8 on 4 real ranks: the matrix-powers kernel is a
    // communication schedule, not a different algorithm (paper Figs. 1-2)
    let n = 32;
    let mut reference_field = None;
    for depth in [1usize, 2, 4, 8] {
        let mut d = deck(n, "ppcg", 2);
        d.control.ppcg_halo_depth = depth;
        let out = run_threaded_ranks(&d, 4).expect("deck runs");
        assert!(out[0].steps.iter().all(|s| s.converged), "depth {depth}");
        let u = out[0].final_u.as_ref().unwrap().clone();
        match &reference_field {
            None => reference_field = Some(u),
            Some(uref) => {
                let diff = max_rel_diff(&u, uref);
                assert!(diff < 1e-7, "depth {depth} drifted from depth 1 by {diff}");
            }
        }
    }
}

#[test]
fn preconditioners_do_not_change_the_answer() {
    let n = 28;
    let mut fields = Vec::new();
    for precon in [
        PreconKind::None,
        PreconKind::Diagonal,
        PreconKind::BlockJacobi,
    ] {
        let mut d = deck(n, "cg", 2);
        d.control.precon = precon;
        let out = run_serial(&d).expect("deck runs");
        assert!(out.steps.iter().all(|s| s.converged));
        fields.push(out.final_u.unwrap());
    }
    assert!(max_rel_diff(&fields[1], &fields[0]) < 1e-6);
    assert!(max_rel_diff(&fields[2], &fields[0]) < 1e-6);
}

#[test]
fn heat_is_conserved_for_every_solver() {
    for solver in ["cg", "ppcg", "amg"] {
        let out = run_serial(&deck(20, solver, 5)).expect("deck runs");
        let t0 = out.steps[0].summary.unwrap().temperature;
        let t4 = out.steps[4].summary.unwrap().temperature;
        let drift = (t4 - t0).abs() / t0.abs();
        assert!(
            drift < 1e-7,
            "{solver} lost heat through insulated boundaries: {drift}"
        );
    }
}

#[test]
fn decomposed_ppcg_with_block_jacobi_depth1() {
    // the paper's PPCG-1 + block-Jacobi combination, on real ranks
    let n = 32;
    let mut d = deck(n, "ppcg", 2);
    d.control.precon = PreconKind::BlockJacobi;
    d.control.ppcg_halo_depth = 1;
    let serial = run_serial(&d).expect("deck runs");
    let threaded = run_threaded_ranks(&d, 4).expect("deck runs");
    let diff = max_rel_diff(
        threaded[0].final_u.as_ref().unwrap(),
        serial.final_u.as_ref().unwrap(),
    );
    assert!(diff < 1e-7, "block-Jacobi PPCG-1 decomposed drift {diff}");
}

#[test]
fn solver_traces_tell_the_communication_story() {
    // the paper's core quantitative claim, measured end-to-end through
    // the driver: CPPCG needs far fewer reductions per stencil sweep
    let cg = run_serial(&deck(48, "cg", 2)).expect("deck runs");
    let mut d = deck(48, "ppcg", 2);
    d.control.ppcg_halo_depth = 8;
    let pp = run_serial(&d).expect("deck runs");
    let cg_ratio = cg.trace.reductions as f64 / cg.trace.spmv.total() as f64;
    let pp_ratio = pp.trace.reductions as f64 / pp.trace.spmv.total() as f64;
    assert!(
        pp_ratio < 0.6 * cg_ratio,
        "CPPCG must slash reductions per sweep: {pp_ratio:.3} vs {cg_ratio:.3}"
    );
}

#[test]
fn cg_family_iteration_counts_stay_within_two_of_the_serial_chain_era() {
    // PR 12 changed every reduction's add order (fixed 16-lane tree) and
    // fused CG's update sweep; bits moved by design, convergence must
    // not. Counts measured at PR 11 on the crooked pipe, one step,
    // per (cells, [none, jac_diag, jac_block]); cg_f32 at eps 1e-5.
    let pins: [(usize, &str, [u64; 3]); 9] = [
        (32, "cg", [58, 53, 42]),
        (32, "mixed_cg", [58, 53, 42]),
        (32, "cg_f32", [28, 26, 21]),
        (48, "cg", [88, 79, 64]),
        (48, "mixed_cg", [88, 79, 64]),
        (48, "cg_f32", [41, 38, 30]),
        (64, "cg", [116, 106, 84]),
        (64, "mixed_cg", [116, 106, 84]),
        (64, "cg_f32", [52, 49, 39]),
    ];
    let precons = [
        PreconKind::None,
        PreconKind::Diagonal,
        PreconKind::BlockJacobi,
    ];
    for (n, solver, want) in pins {
        for (precon, want) in precons.into_iter().zip(want) {
            let mut d = deck(n, solver, 1);
            d.control.precon = precon;
            if solver == "cg_f32" {
                d.control.opts.eps = 1e-5;
            }
            let step = &run_serial(&d).expect("deck runs").steps[0];
            assert!(step.converged, "{solver}/{precon:?} at {n}^2 unconverged");
            assert!(
                step.iterations.abs_diff(want) <= 2,
                "{solver}/{precon:?} at {n}^2: {} iterations, PR 11 took {want}",
                step.iterations
            );
        }
    }
}
