//! Semantic audits: contracts between artefacts rather than within one
//! source line.
//!
//! * [`deck_key_audit`] — every `tl_*` deck key the parser in
//!   `crates/app/src/deck.rs` knows must appear in the README's deck-key
//!   table, and vice versa, so the documented design space and the
//!   parsed one cannot drift apart.
//!
//! The solver-registry audit is the other semantic check; it needs a
//! *live* registry, so it lives on `tea_core::SolverRegistry::audit`
//! and runs in tea-core's and tea-app's tests. This one runs in
//! `tests/tree_clean.rs`.

use crate::report::Finding;
use std::collections::BTreeSet;
use std::path::Path;

/// Extracts the normalized `tl_*` key set from deck-parser source
/// (test modules excluded — tests exercise *invalid* keys on purpose).
/// The `tl_use_<solver>` legacy alias family normalizes to `tl_use_*`.
fn deck_keys_in_source(deck_rs: &str) -> BTreeSet<String> {
    let non_test = deck_rs.split("#[cfg(test)]").next().unwrap_or(deck_rs);
    tl_tokens(non_test)
}

/// Extracts the normalized `tl_*` key set from README table rows
/// (lines starting with `|` whose cells contain backticked keys).
fn deck_keys_in_readme(readme: &str) -> BTreeSet<String> {
    let table_text: String = readme
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .collect::<Vec<_>>()
        .join("\n");
    tl_tokens(&table_text)
}

fn tl_tokens(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(at) = text[i..].find("tl_") {
        let start = i + at;
        // keys are whole identifiers: reject matches inside longer ones
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            i = start + 3;
            continue;
        }
        let mut end = start + 3;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let token = &text[start..end];
        if token == "tl_" {
            i = end;
            continue;
        }
        if token.starts_with("tl_use_") || token == "tl_use" {
            keys.insert("tl_use_*".to_string());
        } else {
            keys.insert(token.to_string());
        }
        i = end;
    }
    keys
}

/// Audits deck-key drift between `crates/app/src/deck.rs` and the
/// README's deck-key table under `root`.
///
/// # Errors
/// I/O errors reading either file.
pub fn deck_key_audit(root: &Path) -> std::io::Result<Vec<Finding>> {
    let deck_path = "crates/app/src/deck.rs";
    let deck_rs = std::fs::read_to_string(root.join(deck_path))?;
    let readme = std::fs::read_to_string(root.join("README.md"))?;
    let parsed = deck_keys_in_source(&deck_rs);
    let documented = deck_keys_in_readme(&readme);
    let mut findings = Vec::new();
    for key in parsed.difference(&documented) {
        findings.push(Finding::new(
            "deck_keys",
            deck_path,
            0,
            format!(
                "deck key `{key}` is parsed (or emitted) by deck.rs but missing from \
                 the README deck-key table"
            ),
        ));
    }
    for key in documented.difference(&parsed) {
        findings.push(Finding::new(
            "deck_keys",
            "README.md",
            0,
            format!(
                "deck key `{key}` is documented in the README table but unknown to \
                 deck.rs — remove the row or wire the key"
            ),
        ));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_keys_normalize_the_legacy_family_and_skip_tests() {
        let src = r#"
//! tl_use_ppcg
//! tl_eps=1e-10
match key {
    "tl_solver" => {}
    "tl_max_iters" => {}
    _ => {}
}
// legacy: tl_use_<name> aliases
#[cfg(test)]
mod tests {
    const BAD: &str = "tl_bogus_key_used_to_test_errors";
}
"#;
        let keys = deck_keys_in_source(src);
        assert!(keys.contains("tl_use_*"));
        assert!(keys.contains("tl_solver"));
        assert!(keys.contains("tl_eps"));
        assert!(keys.contains("tl_max_iters"));
        assert!(!keys.iter().any(|k| k.contains("bogus")), "{keys:?}");
    }

    #[test]
    fn readme_keys_come_from_table_rows_only() {
        let readme = "\
Prose mentioning tl_never_a_table_key here.\n\
| Key | Meaning |\n\
|---|---|\n\
| `tl_solver=<name>` | picks the method |\n\
| `tl_use_<solver>` | legacy alias |\n";
        let keys = deck_keys_in_readme(readme);
        assert_eq!(
            keys.into_iter().collect::<Vec<_>>(),
            vec!["tl_solver".to_string(), "tl_use_*".to_string()]
        );
    }
}
