//! The `tea-audit` binary: run the textual linter (crate hygiene,
//! `dead_pub`, to-do markers, pragmas) plus the file-based semantic
//! audit over the workspace and exit nonzero on violations. The
//! per-line contracts are clippy's (see the root `clippy.toml`).
//!
//! ```text
//! cargo run -p tea-audit                # lint, advisory findings tolerated
//! cargo run -p tea-audit -- --deny-all  # advisory findings fail too (CI)
//! cargo run -p tea-audit -- --json      # machine-readable AuditReport
//! cargo run -p tea-audit -- --list-rules
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tea_audit::{deck_key_audit, scan_workspace, AuditReport, RULE_IDS};

const USAGE: &str = "\
tea-audit: first-party static analysis for the TeaLeaf-rs workspace

USAGE:
    cargo run -p tea-audit [-- OPTIONS]

OPTIONS:
    --root <dir>    workspace root to audit (default: auto-detected)
    --deny-all      advisory findings (todo_marker, dead_pub) also fail the run
    --json          print the machine-readable AuditReport to stdout
    --list-rules    print the textual rule ids and exit
    --help          this text
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny_all = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--json" => json = true,
            "--list-rules" => {
                for rule in RULE_IDS {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument '{other}'\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("error: could not locate the workspace root (pass --root <dir>)");
            return ExitCode::FAILURE;
        }
    };

    let mut report = AuditReport::new();
    match scan_workspace(&root) {
        Ok(findings) => report.record("textual", findings),
        Err(e) => {
            eprintln!("error: scanning {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    }
    match deck_key_audit(&root) {
        Ok(findings) => report.record("deck_keys", findings),
        Err(e) => {
            eprintln!("error: deck-key audit: {e}");
            return ExitCode::FAILURE;
        }
    }

    if json {
        print!("{}", report.to_json(deny_all));
    } else {
        for finding in &report.findings {
            println!("{}", finding.render());
        }
        let denied = report.findings.iter().filter(|f| !f.advisory).count();
        let advisory = report.findings.len() - denied;
        println!(
            "tea-audit: {} check(s), {denied} violation(s), {advisory} advisory",
            report.checks.len()
        );
    }
    if report.passed(deny_all) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory looking for the workspace root
/// (a `Cargo.toml` declaring `[workspace]` next to a `crates/` dir),
/// falling back to the source checkout this binary was built from.
fn find_workspace_root() -> Option<PathBuf> {
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            if is_workspace_root(&dir) {
                return Some(dir);
            }
            if !dir.pop() {
                break;
            }
        }
    }
    let built_from = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    is_workspace_root(&built_from).then_some(built_from)
}

fn is_workspace_root(dir: &Path) -> bool {
    dir.join("crates").is_dir()
        && std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
}
