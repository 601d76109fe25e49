//! The semantic audit behind `tealeaf --audit`: the two
//! cross-artefact contract checks combined into one [`AuditReport`].
//!
//! * **registry** — [`SolverRegistry::audit`] over the application's
//!   full registry (every tea-core builtin, tea-amg, the `auto`
//!   pseudo-solver): unique names/aliases, metadata consistency,
//!   well-formed precision families.
//! * **deck_keys** — `tea_audit::deck_key_audit`: every `tl_*` key the
//!   deck parser knows appears in the README table and vice versa.
//!
//! The textual linter is *not* run here — it wants source trees, not a
//! built binary, and stays `cargo run -p tea-audit`'s job. The
//! file-based check degrades gracefully when the binary runs outside a
//! source checkout (no deck.rs/README to read): it reports a finding
//! saying so rather than silently passing.
//!
//! [`SolverRegistry::audit`]: tea_core::SolverRegistry::audit

use std::path::{Path, PathBuf};
use tea_audit::{AuditReport, Finding};

/// Locates the source checkout this binary belongs to: the nearest
/// ancestor of the current directory (then the build-time manifest
/// path) that has both `crates/` and `README.md`.
pub fn find_repo_root() -> Option<PathBuf> {
    let looks_right = |d: &Path| d.join("crates").is_dir() && d.join("README.md").is_file();
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            if looks_right(&dir) {
                return Some(dir);
            }
            if !dir.pop() {
                break;
            }
        }
    }
    let built_from = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    looks_right(&built_from).then_some(built_from)
}

/// Runs the full semantic audit and returns the machine-readable
/// report. `root` is the source checkout; pass [`find_repo_root`]'s
/// result (a `None` root still audits the registry and reports the
/// missing checkout as a finding).
pub fn semantic_audit(root: Option<&Path>) -> AuditReport {
    let mut report = AuditReport::new();

    let registry_findings: Vec<Finding> = crate::solver_registry()
        .audit()
        .into_iter()
        .map(|msg| Finding::deny("registry", "<solver registry>", 0, msg))
        .collect();
    report.record("registry", registry_findings);

    match root {
        Some(root) => match tea_audit::deck_key_audit(root) {
            Ok(findings) => report.record("deck_keys", findings),
            Err(e) => report.record(
                "deck_keys",
                vec![Finding::deny(
                    "deck_keys",
                    "<repo root>",
                    0,
                    format!("audit could not read the checkout: {e}"),
                )],
            ),
        },
        None => report.record(
            "deck_keys",
            vec![Finding::deny(
                "deck_keys",
                "<repo root>",
                0,
                "no source checkout found — run from inside the repository \
                 (file-based audits need deck.rs and README.md)",
            )],
        ),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_registry_passes_its_own_audit() {
        let findings = crate::solver_registry().audit();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn semantic_audit_passes_on_the_checkout() {
        let root = find_repo_root().expect("tests run inside the checkout");
        let report = semantic_audit(Some(&root));
        assert!(
            report.passed(true),
            "{}",
            report
                .findings
                .iter()
                .map(|f| f.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.checks.len(), 2);
    }

    #[test]
    fn missing_checkout_is_a_finding_not_a_pass() {
        let report = semantic_audit(None);
        assert!(!report.passed(false));
        assert!(report.findings.iter().any(|f| f.rule == "deck_keys"));
    }
}
