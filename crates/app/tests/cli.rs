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

/// The whole `--list-solvers` listing: every registered solver, its
/// aliases, summary and the defaults it runs with (`eigen_safety` and
/// the rest read the same constants the solvers do).
const LIST_SOLVERS: &str = "\
registered solvers:

  jacobi
      point-Jacobi iteration (the design-space floor)
  cg
      preconditioned conjugate gradient (the baseline)
      defaults: precon=none, tunable
  chebyshev (aliases: cheby)
      CG presteps + Chebyshev acceleration (no dot products)
      defaults: precon=none, presteps=30 eigen_safety=0.1, tunable
  ppcg (aliases: cppcg)
      Chebyshev polynomially preconditioned CG with matrix-powers deep halos
      defaults: precon=none, presteps=30 eigen_safety=0.1, halo_depth=1 inner_steps=16, tunable
  mixed_cg (aliases: mixed, cg_mixed)
      CG with f64 recurrence and the preconditioner applied in f32
      defaults: precon=none, tunable, precision=mixed
  mixed_ppcg (aliases: ppcg_mixed)
      CPPCG with the inner Chebyshev smoothing entirely in f32
      defaults: precon=none, presteps=30 eigen_safety=0.1, halo_depth=1 inner_steps=16, tunable, precision=mixed
  mixed_chebyshev (aliases: chebyshev_mixed, cheby_mixed)
      Chebyshev acceleration with the polynomial sweeps entirely in f32
      defaults: precon=none, presteps=30 eigen_safety=0.1, tunable, precision=mixed
  cg_f32 (aliases: f32_cg)
      fully single-precision CG (accuracy limited by f32 round-off; no demotion site, so no subnormal pedestal: its far field can run denormal)
      defaults: precon=none, precision=f32
  amg (aliases: boomeramg, amg_pcg)
      multigrid V-cycle preconditioned CG (the BoomerAMG-class baseline)
      defaults: serial-only
  auto (aliases: tune, autotune)
      auto-tuned: races the tunable methods, adopts the cheapest converged one
      defaults: precon=none, halo_depth=1 inner_steps=16, serial-only

select with --solver <name>, or tl_solver=<name> in a deck
'auto' races the solvers marked tunable and keeps the cheapest (--tune-seed)
";

#[test]
fn list_solvers_shows_precision_metadata() {
    let out = tealeaf(&["--list-solvers"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), LIST_SOLVERS);
}

#[test]
fn a_retired_solver_name_is_a_typed_unknown_solver_error() {
    let out = tealeaf(&["--cells", "8", "--steps", "1", "--solver", "richardson"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let want = "error: unknown solver 'richardson' (registered: jacobi, cg, chebyshev, ppcg, \
                mixed_cg, mixed_ppcg, mixed_chebyshev, cg_f32, amg, auto)";
    assert!(stderr.starts_with(want), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unknown_precision_value_is_a_usage_error() {
    let out = tealeaf(&["--precision", "f16"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("unknown precision 'f16'"), "{stderr}");
}

#[test]
fn precon_flag_accepts_exactly_the_deck_spellings() {
    // `diag` / `block` were undocumented CLI-only spellings the deck
    // refused; both roads now parse through `PreconKind::parse`
    let out = tealeaf(&["--precon", "diag"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let want = "error: unknown preconditioner 'diag' (accepted: none, jac_diag, jac_block)";
    assert!(stderr.starts_with(want), "{stderr}");
}

#[test]
fn precon_flag_folds_case_as_a_deck_line_does() {
    let out = tealeaf(&["--cells", "16", "--steps", "1", "--precon", "JAC_DIAG"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn a_malformed_flag_value_names_its_deck_key() {
    let out = tealeaf(&["--depth", "abc"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let want = "error: bad integer 'abc' for tl_ppcg_halo_depth";
    assert!(stderr.starts_with(want), "{stderr}");
}

#[test]
fn serve_refuses_flags_that_set_a_deck_key() {
    let deck = write_deck("served_refused.in", "tl_solver=cg");
    let joblist = deck.with_file_name("jobs_refused.txt");
    std::fs::write(&joblist, format!("{}\n", deck.to_str().unwrap())).unwrap();
    let out = tealeaf(&["--serve", joblist.to_str().unwrap(), "--solver", "ppcg"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(
        stderr,
        "error: --solver sets deck key tl_solver; --serve runs each job's deck as written\n"
    );
    assert!(out.stdout.is_empty(), "no job may run: {out:?}");
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

#[test]
fn the_retired_thread_options_are_unknown() {
    let out = tealeaf(&["--cells", "8", "--steps", "1", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.starts_with("error: unknown option '--threads'"),
        "{stderr}"
    );

    let deck = write_deck("threads.in", "tl_solver=cg\ntl_num_threads=2");
    let out = tealeaf(&["--deck", deck.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("unknown deck key 'tl_num_threads'"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
}

#[test]
fn zero_ranks_is_a_usage_error() {
    let out = tealeaf(&["--cells", "8", "--steps", "1", "--ranks", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.starts_with("error: --ranks must be at least 1\n"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
}

/// Runs `args` and asserts it is refused with exactly `want` on stderr
/// (one `error:` line per unread flag) and nothing run.
fn assert_refused(args: &[&str], want: &[&str]) {
    let out = tealeaf(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    let want: String = want.iter().map(|l| format!("error: {l}\n")).collect();
    assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may run: {out:?}");
}

#[test]
fn audit_refuses_every_other_flag() {
    assert_refused(
        &["--audit", "--solver", "bogus", "--quiet"],
        &[
            "--solver sets deck key tl_solver; --audit runs the semantic audits alone",
            "--quiet trims the report; --audit runs the semantic audits alone",
        ],
    );
}

#[test]
fn a_deck_run_refuses_cells_and_the_serve_flags() {
    let deck = write_deck("cells_refused.in", "tl_solver=cg");
    let deck = deck.to_str().unwrap();
    let why = "--deck runs one deck, its mesh as written";
    assert_refused(
        &["--deck", deck, "--cells", "32", "--workers", "2"],
        &[
            &format!("--cells sizes the built-in mesh; {why}"),
            &format!("--workers sets the serving worker count; {why}"),
        ],
    );
}

#[test]
fn a_built_in_run_refuses_the_serve_flags() {
    let why = "a run without --deck or --serve runs the built-in crooked pipe once";
    assert_refused(
        &[
            "--cells",
            "8",
            "--workers",
            "2",
            "--deadline",
            "1",
            "--retries",
            "1",
            "--fault-plan",
            "1:0.5",
        ],
        &[
            &format!("--workers sets the serving worker count; {why}"),
            &format!("--deadline sets the serving job deadline; {why}"),
            &format!("--retries sets the serving retry count; {why}"),
            &format!("--fault-plan arms serving fault injection; {why}"),
        ],
    );
}

#[test]
fn serve_refuses_the_single_run_flags() {
    let deck = write_deck("served_single.in", "tl_solver=cg");
    let joblist = deck.with_file_name("jobs_single.txt");
    std::fs::write(&joblist, format!("{}\n", deck.to_str().unwrap())).unwrap();
    let why = "--serve runs each job's deck as written";
    assert_refused(
        &[
            "--serve",
            joblist.to_str().unwrap(),
            "--deck",
            deck.to_str().unwrap(),
            "--cells",
            "8",
            "--ranks",
            "2",
            "--out",
            "field",
        ],
        &[
            &format!("--deck names the deck file; {why}"),
            &format!("--cells sizes the built-in mesh; {why}"),
            &format!("--ranks sets a single run's rank count; {why}"),
            &format!("--out names a single run's field files; {why}"),
        ],
    );
}

#[test]
fn a_closed_stdout_ends_the_report_not_the_run() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_tealeaf"))
        .args(["--cells", "16", "--steps", "40"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    // the reader goes away before the banner is written
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr, "", "a closed stdout is not an error");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
