// Fixture: violation-free code, including decoys inside strings and
// doc comments that a naive scanner would flag.

/// Mentions `audit:allow(wibble)` in docs only: pragmas are plain comments.
pub fn describe() -> String {
    let note = "TODO: FIXME audit:allow(wibble)";
    let raw = r#"// XXX"#;
    format!("{note}{raw}")
}
