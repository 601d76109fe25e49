//! Linter test coverage over the violation fixtures: each fixture
//! carries exactly the defect its name says, and the scanner flags it
//! (or, for the clean and pragma-ok fixtures, stays silent).

use std::path::Path;
use tea_audit::scan::{check_crate_hygiene, dead_pub};
use tea_audit::{scan_file, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Loads a fixture and scans it as if it lived at
/// `crates/x/src/fixture.rs`.
fn scan_fixture(name: &str) -> Vec<Finding> {
    scan_file("crates/x/src/fixture.rs", &fixture(name))
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn crate_hygiene_fixture_misses_both_attributes() {
    let findings = check_crate_hygiene("crates/x/src/lib.rs", &fixture("crate_hygiene.rs"));
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "crate_hygiene"));
}

#[test]
fn dead_pub_fixture_flags_only_what_no_other_file_names() {
    let linted = [(
        "crates/x/src/fixture.rs".to_string(),
        fixture("dead_pub.rs"),
    )];
    let caller =
        "pub use x::{orphan, OnlyReexported};\nfn main() {\n    x::called_elsewhere();\n}\n";
    let findings = dead_pub(&linted, &[caller.to_string()]);
    assert_eq!(rules(&findings), ["dead_pub", "dead_pub"], "{findings:?}");
    assert!(findings[0].message.contains("`orphan`"), "{findings:?}");
    assert!(
        findings[1].message.contains("`OnlyReexported`"),
        "{findings:?}"
    );
    // alone in the workspace, the called item is an orphan too
    assert_eq!(dead_pub(&linted, &[]).len(), 3);
}

#[test]
fn pragma_without_reason_is_rejected_and_suppresses_nothing() {
    let findings = scan_fixture("pragma_no_reason.rs");
    assert_eq!(rules(&findings), ["pragma", "todo_marker"], "{findings:?}");
}

#[test]
fn pragma_with_unknown_rule_is_rejected() {
    let findings = scan_fixture("pragma_unknown_rule.rs");
    assert_eq!(rules(&findings), ["pragma"], "{findings:?}");
    assert!(findings[0].message.contains("wibble"));
}

#[test]
fn well_formed_pragma_suppresses_exactly_its_rule() {
    let findings = scan_fixture("pragma_ok.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn cfg_test_code_is_exempt_from_dead_pub() {
    let linted = [(
        "crates/x/src/fixture.rs".to_string(),
        fixture("test_exempt.rs"),
    )];
    let findings = dead_pub(&linted, &[]);
    assert_eq!(rules(&findings), ["dead_pub"], "{findings:?}");
    assert!(findings[0].message.contains("`real`"), "{findings:?}");
}

#[test]
fn clean_fixture_produces_no_findings() {
    let findings = scan_fixture("clean.rs");
    assert!(findings.is_empty(), "{findings:?}");
}
