//! The `figures` command line: one binary, ten subcommands, a bad
//! command line is a usage error (exit 2) and never a panic, a violated
//! paper claim exits 1 naming the claim, and only a subcommand that
//! writes a file creates its output directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `figures` with `args` from inside a fresh scratch directory.
fn figures(scratch: &str, args: &[&str]) -> (Output, PathBuf) {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join(scratch);
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("figures runs");
    (out, cwd)
}

#[test]
fn help_lists_all_ten_subcommands() {
    let (out, _) = figures("help", &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 usage");
    let listed = |name: &str| text.lines().any(|l| l.trim_start().starts_with(name));
    let names = "table1 fig3 fig4 fig5 fig6 fig7 fig8 \
                 claim_condition claim_iterations claim_weak_scaling";
    for name in names.split_whitespace() {
        assert!(listed(name), "{name} missing from:\n{text}");
    }
}

#[test]
fn a_bad_command_line_prints_usage_and_exits_2() {
    for args in [
        &[][..],
        &["fig9"],
        &["fig5", "--bogus"],
        &["fig5", "--cells", "many"],
        &["fig5", "--steps"],
        // fewer meshes than the claim compares or fits
        &["fig4", "--cells", "12", "--steps", "1"],
        &["claim_weak_scaling", "--cells", "40"],
    ] {
        let (out, cwd) = figures("usage", args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE: figures"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let littered = cwd.join("experiments").exists();
        assert!(!littered, "{args:?} left a directory behind");
    }
}

#[test]
fn a_violated_claim_exits_1_and_names_it() {
    // two meshes (24² and 32²) make Fig. 4's first refinement delta its
    // last, so "the last delta is smaller" cannot hold
    let (out, _) = figures("violated", &["fig4", "--cells", "16", "--steps", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: claim violated: Fig. 4"),
        "{stderr}"
    );
    assert!(stderr.contains("first delta"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn only_a_subcommand_that_writes_creates_the_output_directory() {
    let (out, cwd) = figures("claim", &["claim_condition", "--cells", "24"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!cwd.join("experiments").exists(), "a claim writes no file");

    let (out, cwd) = figures("fig3", &["fig3", "--cells", "16", "--steps", "1"]);
    assert!(out.status.success(), "{out:?}");
    for ext in ["ppm", "csv", "vtk"] {
        let file = cwd.join(format!("experiments/fig3_crooked_pipe.{ext}"));
        assert!(file.is_file(), "{} missing", file.display());
    }
}
