//! The textual linter: a line/token scanner over the workspace's own
//! source trees — every member crate under `crates/`, plus the umbrella
//! package's top-level `src/`, `tests/` and `examples/` (see
//! [`scan_workspace`]; `vendor/` is exempt).
//!
//! It keeps only what a per-line, per-type linter cannot check: crate
//! roots, cross-file `pub` readers and comment markers. The per-line
//! contracts — no wall-clock reads, no hash-ordered containers, no
//! panics on the serving path, no bare `Mutex::lock` — are clippy's,
//! configured by the root `clippy.toml` and the serving crates'
//! `#![deny(clippy::...)]` roots, and exempted by
//! `#[expect(<lint>, reason = "...")]`.
//!
//! Every rule here is a string pattern over comment-stripped,
//! string-blanked source text, cheap enough to run on every push without
//! building the workspace. Its escape hatch is a
//! `// audit:allow(<rule>) — <reason>` pragma on (or immediately
//! before) the flagged line. A pragma **must** carry a reason; one
//! without a reason — or naming an unknown rule — is itself a
//! violation, so the allowlist stays self-documenting.
//!
//! | rule | scope | contract |
//! |---|---|---|
//! | `crate_hygiene` | every member crate's `lib.rs` | must carry `#![deny(missing_docs)]` and `#![forbid(unsafe_code)]` — or, for a crate in the unsafe budget (`UNSAFE_BUDGET`), `#![deny(unsafe_code)]`; `deny(unsafe_code)` anywhere else is flagged |
//! | `crate_hygiene` | everywhere | an `unsafe` token only in the budgeted file, at most its budgeted count, each under a `// SAFETY:` comment |
//! | `pragma` | everywhere | `audit:allow` pragmas must name a known rule and carry a reason |
//! | `todo_marker` | everywhere | to-do/fix-me markers left in comments belong in ROADMAP.md |
//! | `dead_pub` | `crates/*/src` and `src/`, tests exempt | every `pub` `fn`/`struct`/`enum`/`trait`/`const`/`static`/`type` is named by some *other* file of the workspace or `benchmark/src`: a capability without a caller is deleted or made private — the pragma names the test or document that reads it |

use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Every textual rule id the pragma grammar accepts.
const RULE_IDS: &[&str] = &["crate_hygiene", "pragma", "todo_marker", "dead_pub"];

/// Per-line views of one source file: `code[i]` is line `i` with
/// comments removed and string-literal *contents* blanked to spaces
/// (delimiters kept), `comments[i]` is the comment text of line `i`.
#[derive(Debug)]
struct SourceText {
    /// Comment-free, string-blanked code per line.
    code: Vec<String>,
    /// Comment contents per line (where pragmas and to-do markers live).
    comments: Vec<String>,
    /// Plain (non-doc) comment contents per line. Pragmas are parsed
    /// from here only, so rustdoc prose *describing* the pragma
    /// grammar is never mistaken for a directive.
    directives: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
}

/// Splits Rust source into per-line code and comment streams. Handles
/// line/doc comments, nested block comments, string/char/raw-string
/// literals and escapes; proc-macro exotica is out of scope for a
/// line linter.
fn split_source(source: &str) -> SourceText {
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut directives = Vec::new();
    let mut state = LexState::Normal;
    for line in source.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut code_line = String::with_capacity(line.len());
        let mut comment_line = String::new();
        let mut directive_line = String::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                LexState::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = LexState::Normal;
                        } else {
                            state = LexState::BlockComment(depth - 1);
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment_line.push(c);
                        directive_line.push(c);
                        i += 1;
                    }
                }
                LexState::Str { raw_hashes } => match raw_hashes {
                    None => {
                        if c == '\\' {
                            code_line.push(' ');
                            if next.is_some() {
                                code_line.push(' ');
                            }
                            i += 2;
                        } else if c == '"' {
                            code_line.push('"');
                            state = LexState::Normal;
                            i += 1;
                        } else {
                            code_line.push(' ');
                            i += 1;
                        }
                    }
                    Some(hashes) => {
                        if c == '"'
                            && chars[i + 1..]
                                .iter()
                                .take(hashes as usize)
                                .filter(|&&h| h == '#')
                                .count()
                                == hashes as usize
                        {
                            code_line.push('"');
                            for _ in 0..hashes {
                                code_line.push('#');
                            }
                            state = LexState::Normal;
                            i += 1 + hashes as usize;
                        } else {
                            code_line.push(' ');
                            i += 1;
                        }
                    }
                },
                LexState::Normal => {
                    if c == '/' && next == Some('/') {
                        let text: String = chars[i + 2..].iter().collect();
                        let is_doc = matches!(chars.get(i + 2), Some('/') | Some('!'));
                        if !is_doc {
                            directive_line.push_str(&text);
                        }
                        comment_line.push_str(&text);
                        i = chars.len();
                    } else if c == '/' && next == Some('*') {
                        state = LexState::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        code_line.push('"');
                        state = LexState::Str { raw_hashes: None };
                        i += 1;
                    } else if let Some((prefix_len, hashes)) = ((c == 'r' || c == 'b')
                        && !prev_is_ident(&code_line))
                    .then(|| raw_string_hashes(&chars[i..]))
                    .flatten()
                    {
                        for _ in 0..prefix_len {
                            code_line.push('r');
                        }
                        code_line.push('"');
                        state = LexState::Str {
                            raw_hashes: Some(hashes),
                        };
                        i += prefix_len + 1;
                    } else if c == '\'' {
                        // char literal vs lifetime: a literal closes with
                        // a quote after one (possibly escaped) scalar.
                        if next == Some('\\') {
                            // escaped char literal: skip to closing quote
                            let close = chars[i + 2..].iter().position(|&x| x == '\'');
                            let len = close.map(|p| p + 3).unwrap_or(1);
                            for _ in 0..len.min(chars.len() - i) {
                                code_line.push(' ');
                            }
                            i += len;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code_line.push_str("   ");
                            i += 3;
                        } else {
                            code_line.push('\'');
                            i += 1;
                        }
                    } else {
                        code_line.push(c);
                        i += 1;
                    }
                }
            }
        }
        code.push(code_line);
        comments.push(comment_line);
        directives.push(directive_line);
    }
    SourceText {
        code,
        comments,
        directives,
    }
}

fn prev_is_ident(code_line: &str) -> bool {
    code_line
        .chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `chars` starts a raw (byte) string literal (`r"`, `r#"`, `br##"`,
/// ...), returns `(prefix_len_before_quote, hash_count)`.
fn raw_string_hashes(chars: &[char]) -> Option<(usize, u32)> {
    let mut i = 0;
    if chars.get(i) == Some(&'b') {
        i += 1;
    }
    if chars.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) == Some(&'"') {
        Some((i, hashes))
    } else {
        None
    }
}

/// One parsed `audit:allow` pragma.
#[derive(Debug, Clone)]
struct Pragma {
    rule: String,
    reason_ok: bool,
    line: usize, // 0-based
}

/// Extracts `audit:allow(<rule>) — <reason>` pragmas from plain
/// (non-doc) comment text.
fn parse_pragmas(comments: &[String]) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (line, comment) in comments.iter().enumerate() {
        let mut rest = comment.as_str();
        while let Some(at) = rest.find("audit:allow(") {
            let after = &rest[at + "audit:allow(".len()..];
            let Some(close) = after.find(')') else {
                pragmas.push(Pragma {
                    rule: String::new(),
                    reason_ok: false,
                    line,
                });
                break;
            };
            let rule = after[..close].trim().to_string();
            let tail = after[close + 1..].trim_start();
            let reason = tail
                .strip_prefix('—')
                .or_else(|| tail.strip_prefix("--"))
                .or_else(|| tail.strip_prefix('-'))
                .or_else(|| tail.strip_prefix(':'))
                .map(str::trim)
                .unwrap_or("");
            pragmas.push(Pragma {
                rule,
                reason_ok: reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3,
                line,
            });
            rest = &after[close + 1..];
        }
    }
    pragmas
}

/// The `(line, rule)` pairs `pragmas` exempt. Only a pragma naming a
/// known rule and carrying a reason suppresses anything; it covers its
/// own line and the next code-bearing line (so a multi-line reason
/// comment still reaches the code).
fn suppressed_lines(code: &[String], pragmas: &[Pragma]) -> Vec<(usize, String)> {
    let mut suppressed = Vec::new();
    let valid = |p: &&Pragma| RULE_IDS.contains(&p.rule.as_str()) && p.reason_ok;
    for pragma in pragmas.iter().filter(valid) {
        suppressed.push((pragma.line, pragma.rule.clone()));
        if let Some(target) = (pragma.line + 1..code.len()).find(|&l| !code[l].trim().is_empty()) {
            suppressed.push((target, pragma.rule.clone()));
        }
    }
    suppressed
}

/// Whether line `line` (0-based) of `code` is inside a `#[cfg(test)]`
/// region, computed by brace tracking. Returned as a per-line mask.
fn test_mask(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut exempt_at: Option<i64> = None;
    let mut pending = false;
    for (i, line) in code.iter().enumerate() {
        let started_exempt = exempt_at.is_some();
        if line.contains("#[cfg(test)]") {
            pending = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && exempt_at.is_none() {
                        exempt_at = Some(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if exempt_at == Some(depth) {
                        exempt_at = None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        mask[i] = started_exempt || exempt_at.is_some() || pending;
    }
    mask
}

/// Is this path test/bench code by location alone?
///
/// Matches both member-crate trees (`crates/x/tests/...`) and the
/// workspace-root trees of the umbrella package (`tests/...`,
/// `examples/...`), which have no leading component before the marker.
fn path_is_test(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|m| p.contains(&format!("/{m}")) || p.starts_with(m))
}

/// Runs the per-file rules (`pragma`, `todo_marker`) over one file;
/// `rel_path` is workspace-root-relative and names the findings.
pub fn scan_file(rel_path: &str, source: &str) -> Vec<Finding> {
    let text = split_source(source);
    let pragmas = parse_pragmas(&text.directives);
    let mut findings = Vec::new();

    // Validate pragmas first: unknown rules and missing reasons are
    // violations in their own right (the escape hatch must stay
    // self-documenting), and only valid pragmas suppress anything.
    for pragma in &pragmas {
        if !RULE_IDS.contains(&pragma.rule.as_str()) {
            findings.push(Finding::new(
                "pragma",
                rel_path,
                pragma.line + 1,
                format!(
                    "audit:allow names unknown rule '{}' (known: {})",
                    pragma.rule,
                    RULE_IDS.join(", ")
                ),
            ));
        } else if !pragma.reason_ok {
            findings.push(Finding::new(
                "pragma",
                rel_path,
                pragma.line + 1,
                format!(
                    "audit:allow({}) carries no reason — write \
                     `audit:allow({}) — <why this line is exempt>`",
                    pragma.rule, pragma.rule
                ),
            ));
        }
    }
    findings.extend(check_unsafe_budget(rel_path, &text));
    let suppressed = suppressed_lines(&text.code, &pragmas);
    for (i, comment) in text.comments.iter().enumerate() {
        let allowed = suppressed
            .iter()
            .any(|(l, r)| *l == i && r == "todo_marker");
        let marker = ["TODO", "FIXME", "XXX"]
            .iter()
            .find(|m| comment.contains(**m));
        if let (Some(marker), false) = (marker, allowed) {
            findings.push(Finding::new(
                "todo_marker",
                rel_path,
                i + 1,
                format!("{marker} comment — file it in ROADMAP.md or resolve it"),
            ));
        }
    }
    findings
}

/// The workspace's `unsafe` budget, one row per crate allowed any:
/// `(crate directory, the one file that may hold it, unsafe tokens)`.
/// tea-core's run-time ISA dispatch calls its AVX2 kernel copies from
/// code compiled without AVX2, which only an `unsafe` block can do; its
/// root carries `#![deny(unsafe_code)]` so that one site can `#[expect]`
/// the lint. Every other crate keeps `#![forbid(unsafe_code)]`.
const UNSAFE_BUDGET: &[(&str, &str, usize)] = &[("crates/core", "crates/core/src/isa.rs", 1)];

/// The `crate_hygiene` rule at a crate root: every member crate's
/// `lib.rs` must deny missing docs and forbid `unsafe` — or, for a crate
/// in `UNSAFE_BUDGET`, deny it — and a crate outside the budget may
/// not weaken `forbid` to `deny`.
pub fn check_crate_hygiene(rel_path: &str, lib_rs: &str) -> Vec<Finding> {
    let text = split_source(lib_rs);
    let has = |attr: &str| {
        text.code
            .iter()
            .any(|l| l.split_whitespace().collect::<String>().contains(attr))
    };
    let crate_dir = rel_path.strip_suffix("/src/lib.rs").unwrap_or("");
    let budgeted = UNSAFE_BUDGET.iter().any(|&(dir, ..)| dir == crate_dir);
    let unsafe_attr = if budgeted {
        "#![deny(unsafe_code)]"
    } else {
        "#![forbid(unsafe_code)]"
    };
    let mut findings: Vec<Finding> = [unsafe_attr, "#![deny(missing_docs)]"]
        .into_iter()
        .filter(|attr| !has(attr))
        .map(|attr| {
            Finding::new(
                "crate_hygiene",
                rel_path,
                1,
                format!("crate root must carry {attr}"),
            )
        })
        .collect();
    if !budgeted && has("#![deny(unsafe_code)]") {
        findings.push(Finding::new(
            "crate_hygiene",
            rel_path,
            1,
            "crate root denies unsafe_code but is not in the unsafe budget (tea-audit's \
             UNSAFE_BUDGET) — forbid it, or budget the crate, its file and its count",
        ));
    }
    findings
}

/// Lines (0-based) of `code` holding an `unsafe` token, once per token.
fn unsafe_tokens(code: &[String]) -> Vec<usize> {
    let mut lines = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        lines.extend(words.filter(|w| *w == "unsafe").map(|_| i));
    }
    lines
}

/// Whether the comment on line `line`, or the comment block directly
/// above it, opens with a `SAFETY:` justification.
fn has_safety_comment(text: &SourceText, line: usize) -> bool {
    let safety = |l: usize| text.comments[l].trim_start().starts_with("SAFETY:");
    if safety(line) {
        return true;
    }
    let mut l = line;
    while l > 0 && text.code[l - 1].trim().is_empty() && !text.comments[l - 1].is_empty() {
        l -= 1;
        if safety(l) {
            return true;
        }
    }
    false
}

/// The `crate_hygiene` rule per file: an `unsafe` token is flagged
/// outside the file `UNSAFE_BUDGET` names, past the budgeted count
/// inside it, and wherever no `// SAFETY:` comment precedes it.
fn check_unsafe_budget(rel_path: &str, text: &SourceText) -> Vec<Finding> {
    let tokens = unsafe_tokens(&text.code);
    let Some(&(_, _, budget)) = UNSAFE_BUDGET.iter().find(|&&(_, file, _)| file == rel_path) else {
        return tokens
            .into_iter()
            .map(|line| {
                Finding::new(
                    "crate_hygiene",
                    rel_path,
                    line + 1,
                    "`unsafe` outside the unsafe budget (tea-audit's UNSAFE_BUDGET)",
                )
            })
            .collect();
    };
    let mut findings = Vec::new();
    if tokens.len() > budget {
        findings.push(Finding::new(
            "crate_hygiene",
            rel_path,
            tokens[budget] + 1,
            format!(
                "{} `unsafe` tokens where the unsafe budget allows {budget}",
                tokens.len()
            ),
        ));
    }
    for line in tokens {
        if !has_safety_comment(text, line) {
            findings.push(Finding::new(
                "crate_hygiene",
                rel_path,
                line + 1,
                "budgeted `unsafe` without a `// SAFETY:` comment before it",
            ));
        }
    }
    findings
}

/// The umbrella `tealeaf` package's workspace-root trees, each with
/// whether its `lib.rs` must carry the `crate_hygiene` attributes.
///
/// The workspace is wider than `crates/*`: the umbrella package keeps
/// its re-export façade in `src/`, its cross-crate integration suites
/// in `tests/` and its runnable documentation in `examples/`, all at
/// the top level. `vendor/` is deliberately absent: vendored
/// third-party sources are not held to this repository's contracts.
const UMBRELLA_TREES: &[(&str, bool)] = &[("src", true), ("tests", false), ("examples", false)];

/// Identifier tokens that can witness a caller of a `pub` item: every
/// token of `text.code` outside `use`/`pub use` statements (a re-export
/// is not a reader).
fn caller_tokens(text: &SourceText) -> BTreeSet<&str> {
    let mut tokens = BTreeSet::new();
    let mut in_use = false;
    for line in &text.code {
        let stmt = line.trim_start();
        let stmt = stmt.strip_prefix("pub ").unwrap_or(stmt);
        in_use |= stmt.starts_with("use ");
        if in_use {
            in_use = !line.contains(';');
            continue;
        }
        tokens.extend(
            line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|t| !t.is_empty()),
        );
    }
    tokens
}

/// The name a `pub fn|struct|enum|trait|const|static|type` line
/// declares (`pub(crate)` items are rustc's `dead_code` lint's job).
fn declared_pub_name(code: &str) -> Option<&str> {
    let (kind, rest) = code.trim_start().strip_prefix("pub ")?.split_once(' ')?;
    if !["fn", "struct", "enum", "trait", "const", "static", "type"].contains(&kind) {
        return None;
    }
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The `dead_pub` rule: a finding for every `pub` item
/// declared in non-test code of a `linted` file (`(rel_path, source)`)
/// whose name is a caller token of no *other* file — neither another
/// linted file nor one of `callers` (test, example and `benchmark/src`
/// sources, read as evidence only). Textual, so a common name, or a
/// cluster whose members name each other across files, goes unflagged.
pub fn dead_pub(linted: &[(String, String)], callers: &[String]) -> Vec<Finding> {
    let linted_texts: Vec<SourceText> = linted.iter().map(|(_, s)| split_source(s)).collect();
    let caller_texts: Vec<SourceText> = callers.iter().map(|s| split_source(s)).collect();
    // files naming each token; a declaring file always names its own items
    let mut named_in: BTreeMap<&str, usize> = BTreeMap::new();
    for text in linted_texts.iter().chain(&caller_texts) {
        for token in caller_tokens(text) {
            *named_in.entry(token).or_default() += 1;
        }
    }
    let mut findings = Vec::new();
    for ((rel_path, _), text) in linted.iter().zip(&linted_texts) {
        let tests = test_mask(&text.code);
        let suppressed = suppressed_lines(&text.code, &parse_pragmas(&text.directives));
        for (i, code) in text.code.iter().enumerate() {
            let Some(name) = declared_pub_name(code) else {
                continue;
            };
            let allowed = suppressed.iter().any(|(l, r)| *l == i && r == "dead_pub");
            if !tests[i] && !allowed && named_in.get(name) == Some(&1) {
                findings.push(Finding::new(
                    "dead_pub",
                    rel_path,
                    i + 1,
                    format!(
                        "pub item `{name}` is named by no other file of the workspace or \
                         benchmark/src — delete it, make it private, or name its reader \
                         with audit:allow(dead_pub)"
                    ),
                ));
            }
        }
    }
    findings
}

/// Scans every member crate under `root/crates` (src, tests and
/// benches trees) plus the umbrella package's top-level `src/`, `tests/` and
/// `examples/` trees (per the `UMBRELLA_TREES` manifest) with the
/// per-file rules plus `crate_hygiene`, then runs the cross-file
/// [`dead_pub`] rule with `benchmark/src` read as caller evidence.
/// Vendored sources under `vendor/` are exempt.
///
/// # Errors
/// I/O errors reading the tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file() && p.join("src/lib.rs").is_file())
        .collect();
    crate_dirs.sort();
    let mut trees = Vec::new();
    for crate_dir in crate_dirs {
        for sub in ["src", "tests", "benches"] {
            trees.push((crate_dir.join(sub), true));
        }
    }
    for &(tree, hygiene) in UMBRELLA_TREES {
        trees.push((root.join(tree), hygiene));
    }
    let mut findings = Vec::new();
    let mut linted = Vec::new();
    let mut callers = Vec::new();
    for (tree, hygiene) in trees {
        if !tree.is_dir() {
            continue;
        }
        for file in rust_files(&tree)? {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&file)?;
            findings.extend(scan_file(&rel, &source));
            if hygiene && rel.ends_with("src/lib.rs") {
                findings.extend(check_crate_hygiene(&rel, &source));
            }
            if path_is_test(&rel) {
                callers.push(source);
            } else {
                linted.push((rel, source));
            }
        }
    }
    let benchmark_src = root.join("benchmark/src");
    if benchmark_src.is_dir() {
        for file in rust_files(&benchmark_src)? {
            callers.push(std::fs::read_to_string(&file)?);
        }
    }
    findings.extend(dead_pub(&linted, &callers));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

fn rust_files(dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_not_comments() {
        let src = r##"
fn f() -> String {
    let s = "TODO audit:allow(wibble)";
    let r = r#"// FIXME"#; // raw string
    format!("{s}{r}")
}
"##;
        let findings = scan_file("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn char_literals_do_not_derail_the_lexer() {
        // a broken lexer reads the quote in '"' as opening a string, so it
        // misses the comment on line 2 and takes line 4's string for one
        let src = "fn f(s: &str) -> bool {\n    s.starts_with('\"') && s.ends_with('#') // TODO\n}\nconst S: &str = \"FIXME\";\n";
        let findings = scan_file("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn doc_comments_describing_the_grammar_are_not_pragmas() {
        let src = "/// Write `audit:allow(<rule>) — <reason>` to exempt a line.\n//! The `audit:allow(dead_pub)` escape hatch.\nfn f() {}\n";
        let findings = scan_file("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pragma_suppresses_only_its_rule() {
        let src =
            "// audit:allow(dead_pub) — read by the README; TODO name the section\npub fn f() {}\n";
        let findings = scan_file("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "todo_marker");
        let linted = [("crates/core/src/x.rs".to_string(), src.to_string())];
        assert!(dead_pub(&linted, &[]).is_empty());
    }

    #[test]
    fn pragma_reaches_past_its_own_comment_block() {
        let src = "// audit:allow(dead_pub) — reason line one\n// continues on a second comment line\npub fn f() {}\n";
        let linted = [("crates/core/src/x.rs".to_string(), src.to_string())];
        assert!(dead_pub(&linted, &[]).is_empty());
    }

    #[test]
    fn top_level_test_trees_are_location_exempt() {
        // the umbrella package's integration tests and examples sit at
        // the workspace root with no leading path component before the
        // marker — they must still count as test code by location
        for rel in [
            "tests/solver_equivalence.rs",
            "examples/quickstart.rs",
            "crates/core/tests/lane_identity.rs",
            "crates/bench/benches/kernels.rs",
        ] {
            assert!(path_is_test(rel), "{rel} should be test-scoped");
        }
        assert!(!path_is_test("crates/core/src/vector.rs"));
        assert!(!path_is_test("src/lib.rs"));
    }

    #[test]
    fn umbrella_manifest_covers_src_tests_examples_not_vendor() {
        // only the library façade is held to the root-attribute contract
        assert_eq!(
            UMBRELLA_TREES,
            [("src", true), ("tests", false), ("examples", false)]
        );
    }

    #[test]
    fn crate_hygiene_requires_both_attributes() {
        let findings = check_crate_hygiene("crates/x/src/lib.rs", "//! docs\n");
        assert_eq!(findings.len(), 2);
        let clean = check_crate_hygiene(
            "crates/x/src/lib.rs",
            "//! docs\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\n",
        );
        assert!(clean.is_empty());
    }

    #[test]
    fn budgeted_crate_root_denies_unsafe_code() {
        let root = "//! docs\n#![deny(missing_docs)]\n#![deny(unsafe_code)]\n";
        assert!(check_crate_hygiene("crates/core/src/lib.rs", root).is_empty());
        let forbid = "//! docs\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\n";
        let findings = check_crate_hygiene("crates/core/src/lib.rs", forbid);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("deny(unsafe_code)"));
    }

    #[test]
    fn deny_unsafe_code_outside_the_budget_is_flagged() {
        let root = "//! docs\n#![deny(missing_docs)]\n#![deny(unsafe_code)]\n";
        let findings = check_crate_hygiene("crates/mesh/src/lib.rs", root);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("not in the unsafe budget")));
    }

    #[test]
    fn unsafe_outside_the_budgeted_file_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid\n    unsafe { *p }\n}\n";
        let findings = scan_file("crates/core/src/vector.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), ("crate_hygiene", 3));
        // the lint name, comments and strings are not the token
        let quiet = "#![deny(unsafe_code)]\n// unsafe\nconst S: &str = \"unsafe\";\n";
        assert!(scan_file("crates/mesh/src/x.rs", quiet).is_empty());
    }

    #[test]
    fn unsafe_past_the_budgeted_count_is_flagged() {
        let one = "fn f() {\n    // SAFETY: detected\n    unsafe { g() }\n}\n";
        assert!(scan_file("crates/core/src/isa.rs", one).is_empty());
        let two = format!("{one}fn h() {{\n    // SAFETY: detected\n    unsafe {{ g() }}\n}}\n");
        let findings = scan_file("crates/core/src/isa.rs", &two);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 7);
        assert!(findings[0].message.contains("allows 1"));
    }

    #[test]
    fn budgeted_unsafe_needs_a_safety_comment() {
        let bare = "fn f() {\n    // detected above\n    unsafe { g() }\n}\n";
        let findings = scan_file("crates/core/src/isa.rs", bare);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("SAFETY"));
        // the justification may run over several comment lines
        let block =
            "fn f() {\n    // SAFETY: the detection\n    // said so\n    unsafe { g() }\n}\n";
        assert!(scan_file("crates/core/src/isa.rs", block).is_empty());
    }
}
