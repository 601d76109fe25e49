//! The committed tree must be audit-clean: no textual findings of any
//! rule (a to-do marker or an unread `pub` item fails as surely as a
//! crate root without its attributes), no deck-key drift. These tests
//! are the audit: CI's audit job runs them with `cargo test -p
//! tea-audit`. They also pin the clippy configuration that carries the
//! per-line contracts, so deleting one of its entries fails here rather
//! than silently.

use std::path::{Path, PathBuf};
use tea_audit::{deck_key_audit, scan_workspace, Finding};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rendered(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(Finding::render)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn committed_tree_has_no_findings() {
    // park follow-ups in ROADMAP.md, not in to-do comments
    let findings = scan_workspace(&workspace_root()).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "committed tree violates its own contracts:\n{}",
        rendered(&findings)
    );
}

#[test]
fn deck_keys_match_the_readme_table() {
    let findings = deck_key_audit(&workspace_root()).expect("audit runs");
    assert!(
        findings.is_empty(),
        "deck-key drift:\n{}",
        rendered(&findings)
    );
}

/// Every per-line contract the root `clippy.toml` must carry.
const CLIPPY_CONTRACTS: &[&str] = &[
    r#"path = "std::time::Instant::now""#,
    r#"path = "std::time::SystemTime::now""#,
    r#"path = "std::sync::Mutex::lock""#,
    r#"path = "std::collections::HashMap""#,
    r#"path = "std::collections::HashSet""#,
    r#"path = "std::hash::RandomState""#,
    r#"path = "std::hash::DefaultHasher""#,
    "allow-unwrap-in-tests = true",
    "allow-expect-in-tests = true",
    "allow-panic-in-tests = true",
];

/// The crate roots under the panic contract, and the lint line each
/// must carry (whitespace-insensitive).
const PANIC_ROOTS: &[&str] = &[
    "crates/serve/src/lib.rs",
    "crates/app/src/lib.rs",
    "crates/app/src/bin/tealeaf.rs",
];
const PANIC_DENY: &str = "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                          clippy::unreachable,clippy::todo,clippy::unimplemented)]";

/// The lines of `rel` that are not comments (`#` in TOML, `//` in Rust),
/// so a commented-out entry does not count as present.
fn read_live(rel: &str) -> String {
    let text = std::fs::read_to_string(workspace_root().join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"));
    text.lines()
        .filter(|l| !l.trim_start().starts_with(['#', '/']) || l.trim_start().starts_with("#!["))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn clippy_config_carries_every_contract() {
    let config = read_live("clippy.toml");
    let missing: Vec<_> = CLIPPY_CONTRACTS
        .iter()
        .filter(|entry| !config.contains(*entry))
        .collect();
    assert!(missing.is_empty(), "clippy.toml lost {missing:?}");
    let lock = config
        .lines()
        .find(|l| l.contains("std::sync::Mutex::lock"))
        .unwrap_or_default();
    assert!(
        lock.contains("tea_core::lock_tolerant"),
        "the Mutex::lock ban must name its replacement: {lock}"
    );
    // clippy reads the nearest clippy.toml, so a per-crate copy would
    // replace the root contracts for that crate
    for dir in std::fs::read_dir(workspace_root().join("crates")).expect("crates/ lists") {
        let dir = dir.expect("crate dir").path();
        for name in ["clippy.toml", ".clippy.toml"] {
            assert!(
                !dir.join(name).exists(),
                "{} shadows the root config",
                dir.join(name).display()
            );
        }
    }
}

#[test]
fn serving_crate_roots_deny_the_panic_lints() {
    for root in PANIC_ROOTS {
        let source: String = read_live(root).split_whitespace().collect();
        assert!(
            source.contains(PANIC_DENY),
            "{root} lost its panic-lint deny line"
        );
    }
}
