//! End-to-end tests of the `tealeaf` binary's argument handling.
//!
//! Regression focus: `--quiet` must apply whether or not `--deck` is
//! given (it used to be applied only in the no-deck branch, so deck
//! runs kept computing and printing per-step summaries),
//! `--precision` must surface conflicts as errors, not panics, and a
//! run whose solves did not converge must say so and exit non-zero.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tealeaf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tealeaf"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_deck(name: &str, extra: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tealeaf-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(
        &path,
        format!(
            "*tea\n\
             state 1 density=100.0 energy=0.0001\n\
             state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=3.5 ymin=1.0 ymax=2.0\n\
             x_cells=24\ny_cells=24\n\
             end_step=3\n\
             summary_frequency=1\n\
             tl_eps=1e-8\n\
             {extra}\n\
             *endtea\n"
        ),
    )
    .unwrap();
    path
}

/// A per-step table row starts with a right-aligned step index; the
/// header names the columns.
fn has_step_table(stdout: &str) -> bool {
    stdout
        .lines()
        .any(|l| l.trim_start().starts_with("step") && l.contains("iters"))
}

#[test]
fn quiet_suppresses_per_step_output_with_a_deck() {
    let deck = write_deck("quiet.in", "tl_solver=cg");
    let deck = deck.to_str().unwrap();

    let loud = tealeaf(&["--deck", deck]);
    assert!(loud.status.success(), "{loud:?}");
    let loud_out = String::from_utf8_lossy(&loud.stdout).to_string();
    assert!(
        has_step_table(&loud_out),
        "non-quiet deck run must print the per-step table:\n{loud_out}"
    );

    // regression: --quiet used to be ignored when --deck was given
    let quiet = tealeaf(&["--deck", deck, "--quiet"]);
    assert!(quiet.status.success(), "{quiet:?}");
    let quiet_out = String::from_utf8_lossy(&quiet.stdout).to_string();
    assert!(
        !has_step_table(&quiet_out),
        "--deck --quiet must not print per-step lines:\n{quiet_out}"
    );
    assert!(
        quiet_out.contains("field summary"),
        "the final summary must survive --quiet:\n{quiet_out}"
    );
}

#[test]
fn quiet_works_without_a_deck_too() {
    let out = tealeaf(&["--cells", "16", "--steps", "2", "--quiet"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(!has_step_table(&stdout), "{stdout}");
    assert!(stdout.contains("field summary"), "{stdout}");
}

#[test]
fn deck_precision_mixed_runs_the_mixed_solver() {
    let deck = write_deck("mixed.in", "tl_solver=cg\ntl_precision=mixed");
    let out = tealeaf(&["--deck", deck.to_str().unwrap(), "--quiet"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("solver mixed_cg") && stdout.contains("precision mixed"),
        "banner must name the routed solver and precision:\n{stdout}"
    );
}

#[test]
fn precision_flag_overrides_the_deck_and_conflicts_error_cleanly() {
    let deck = write_deck("override.in", "tl_solver=ppcg");
    let out = tealeaf(&[
        "--deck",
        deck.to_str().unwrap(),
        "--precision",
        "mixed",
        "--quiet",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("solver mixed_ppcg"), "{stdout}");

    // solver × precision conflict: clean error, non-zero exit, no panic
    let bad = tealeaf(&[
        "--deck",
        deck.to_str().unwrap(),
        "--solver",
        "amg",
        "--ranks",
        "1",
        "--precision",
        "mixed",
    ]);
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr).to_string();
    assert!(
        stderr.contains("serial-only") && stderr.contains("amg"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn list_solvers_shows_precision_metadata() {
    let out = tealeaf(&["--list-solvers"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    for name in ["mixed_cg", "mixed_ppcg", "cg_f32"] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
    assert!(stdout.contains("precision=mixed"), "{stdout}");
    assert!(stdout.contains("precision=f32"), "{stdout}");
}

#[test]
fn unknown_precision_value_is_a_usage_error() {
    let out = tealeaf(&["--precision", "f16"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("unknown precision 'f16'"), "{stderr}");
}

#[test]
fn unconverged_steps_warn_and_exit_nonzero() {
    // regression: single-deck mode used to print the summary and exit 0
    // when every step hit the iteration cap
    let deck = write_deck("capped.in", "tl_solver=cg\ntl_max_iters=2");
    let out = tealeaf(&["--deck", deck.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("warning          3 of 3 steps did not converge (first: step 1)"),
        "{stdout}"
    );
    assert!(stdout.contains("field summary"), "{stdout}");
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let deck = write_deck("converged.in", "tl_solver=cg");
    let out = tealeaf(&["--deck", deck.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(!stdout.contains("did not converge"), "{stdout}");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn out_of_range_controls_are_errors_not_panics() {
    // regression: each of these reached a solver `assert!` (exit 101)
    // or, for the deep halo, aborted on a 320 GB allocation (exit 134)
    // or, for `--eps`, ran the whole iteration budget towards a target
    // no residual reaches
    let cases: [(&[&str], &str); 11] = [
        (&["--dt", "0"], "initial_timestep"),
        (&["--dt", "-0.04"], "initial_timestep"),
        (&["--dt", "nan"], "initial_timestep"),
        (&["--eps", "0"], "tl_eps"),
        (&["--eps", "-1"], "tl_eps"),
        (&["--eps", "nan"], "tl_eps"),
        (&["--depth", "0"], "tl_ppcg_halo_depth"),
        (&["--depth", "100000"], "tl_ppcg_halo_depth"),
        (&["--inner", "0"], "tl_ppcg_inner_steps"),
        (&["--inner", "18446744073709551615"], "tl_ppcg_inner_steps"),
        (
            &["--depth", "4", "--precon", "jac_block"],
            "tl_preconditioner_type=jac_block",
        ),
    ];
    for (flags, key) in cases {
        let args = [
            &["--cells", "16", "--steps", "1", "--solver", "ppcg"],
            flags,
        ]
        .concat();
        let out = tealeaf(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {out:?}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{flags:?}: {stderr}");
        assert!(errors[0].contains(key), "{flags:?}: {stderr}");
    }

    // the deck spelling takes the same road
    let deck = write_deck("zero_dt.in", "tl_solver=cg\ninitial_timestep=0");
    let out = tealeaf(&["--deck", deck.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr.contains("error:") && stderr.contains("initial_timestep"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn amg_on_a_singular_coarse_operator_diverges_typed() {
    // regression: the coarse Cholesky asserted on its pivot (exit 101)
    let out = tealeaf(&[
        "--cells", "16", "--steps", "1", "--solver", "amg", "--dt", "1e300",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("error: amg diverged (non-finite residual) at step 1, iteration 0"),
        "{stderr}"
    );
}

#[test]
fn serve_mode_answers_bad_deadlines_and_absurd_meshes_with_errors() {
    let good = write_deck("served.in", "tl_solver=cg");
    // regression: aborted the process in the allocator (exit 134),
    // taking the queue's other jobs with it
    let wide = write_deck("served_wide.in", "tl_solver=cg\nx_cells=99999999999");
    let joblist = good.with_file_name("jobs.txt");
    let (good, wide) = (good.to_str().unwrap(), wide.to_str().unwrap());
    std::fs::write(&joblist, format!("{good}\n{wide}\n{good}\n")).unwrap();
    let joblist = joblist.to_str().unwrap();

    // regression: `Duration::from_secs_f64` panicked on each (exit 101)
    for deadline in ["-1", "nan", "1e30"] {
        let out = tealeaf(&["--serve", joblist, "--deadline", deadline]);
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(1), "{deadline}: {out:?}");
        assert!(stderr.starts_with("error: --deadline: "), "{stderr}");
        assert!(stderr.contains("USAGE:"), "{stderr}");
    }

    // the absurd deck is refused when the joblist is loaded; the queue
    // drains the other two and the run still reports the failure
    let out = tealeaf(&["--serve", joblist, "--workers", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr.contains("served_wide.in: mesh of 99999999999 x 24 cells exceeds"),
        "{stderr}"
    );
    assert!(stdout.contains("jobs             2 (0 failed)"), "{stdout}");
}
