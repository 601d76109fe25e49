//! Linter test coverage over the violation fixtures: each fixture
//! carries exactly the defect its name says, and the scanner flags it
//! (or, for the clean/pragma-ok/test-exempt fixtures, stays silent).

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
/// `crates/<crate>/src/fixture.rs`.
fn scan_fixture(name: &str, crate_name: &str) -> Vec<Finding> {
    let rel = format!("crates/{crate_name}/src/fixture.rs");
    scan_file(crate_name, &rel, &fixture(name))
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wall_clock_fixture_is_flagged_outside_the_allowlist() {
    let findings = scan_fixture("wall_clock.rs", "core");
    assert_eq!(rules(&findings), ["wall_clock"], "{findings:?}");
    // ... but the same source is sanctioned inside tea-serve.
    assert!(scan_fixture("wall_clock.rs", "serve").is_empty());
}

#[test]
fn nondeterminism_fixture_is_flagged() {
    let findings = scan_fixture("nondeterminism.rs", "core");
    assert!(!findings.is_empty());
    assert!(rules(&findings).iter().all(|r| *r == "nondeterminism"));
}

#[test]
fn panic_hygiene_fixture_is_flagged_only_in_scoped_crates() {
    let findings = scan_fixture("panic_hygiene.rs", "serve");
    assert_eq!(rules(&findings), ["panic_hygiene"], "{findings:?}");
    // tea-core handles panics via Result types + catch_unwind at the
    // boundary; the textual rule only covers serve/app.
    assert!(scan_fixture("panic_hygiene.rs", "core").is_empty());
}

#[test]
fn lock_hygiene_fixture_is_flagged_across_the_split_chain() {
    let findings = scan_fixture("lock_hygiene.rs", "core");
    assert_eq!(rules(&findings), ["lock_hygiene"], "{findings:?}");
    assert_eq!(findings[0].line, 5, "flagged on the .lock() line");
}

#[test]
fn crate_hygiene_fixture_misses_both_attributes() {
    let findings = check_crate_hygiene("x", "crates/x/src/lib.rs", &fixture("crate_hygiene.rs"));
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
    assert!(findings.iter().all(|f| f.advisory));
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
    let findings = scan_fixture("pragma_no_reason.rs", "core");
    let mut seen = rules(&findings);
    seen.sort_unstable();
    assert_eq!(seen, ["pragma", "wall_clock"], "{findings:?}");
}

#[test]
fn pragma_with_unknown_rule_is_rejected() {
    let findings = scan_fixture("pragma_unknown_rule.rs", "core");
    assert_eq!(rules(&findings), ["pragma"], "{findings:?}");
    assert!(findings[0].message.contains("wibble"));
}

#[test]
fn well_formed_pragma_suppresses_exactly_its_rule() {
    let findings = scan_fixture("pragma_ok.rs", "core");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn cfg_test_code_is_exempt_except_for_lock_hygiene() {
    let findings = scan_fixture("test_exempt.rs", "core");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn clean_fixture_produces_no_findings_in_any_crate() {
    for crate_name in ["core", "serve", "app", "tune", "fault"] {
        let findings = scan_fixture("clean.rs", crate_name);
        assert!(findings.is_empty(), "{crate_name}: {findings:?}");
    }
}
