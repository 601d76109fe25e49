//! The committed tree must be audit-clean: no denying textual
//! findings, no deck-key drift.
//! This is the same gate CI runs via `cargo run -p tea-audit`.

use std::path::{Path, PathBuf};
use tea_audit::{deck_key_audit, scan_workspace};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn committed_tree_has_no_denying_findings() {
    let findings = scan_workspace(&workspace_root()).expect("workspace scans");
    let denied: Vec<_> = findings.iter().filter(|f| !f.advisory).collect();
    assert!(
        denied.is_empty(),
        "committed tree violates its own contracts:\n{}",
        denied
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn committed_tree_has_no_advisory_findings_either() {
    // --deny-all is the CI posture; keep the tree free of to-do markers
    // (park follow-ups in ROADMAP.md instead).
    let findings = scan_workspace(&workspace_root()).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "advisory findings present:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn deck_keys_match_the_readme_table() {
    let findings = deck_key_audit(&workspace_root()).expect("audit runs");
    assert!(
        findings.is_empty(),
        "deck-key drift:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
