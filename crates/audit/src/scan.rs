//! The textual linter: a line/token scanner over the workspace's own
//! source trees — every member crate under `crates/`, plus the umbrella
//! package's top-level `src/`, `tests/` and `examples/` (see
//! [`scan_workspace`]; `vendor/` is exempt).
//!
//! Deliberately *not* a type-checker: every rule here is a string
//! pattern over comment-stripped, string-blanked source text, which is
//! enough to machine-enforce contracts that today live in review
//! comments, and cheap enough to run on every push without building
//! the workspace. Each rule documents its escape hatch: a
//! `// audit:allow(<rule>) — <reason>` pragma on (or immediately
//! before) the flagged line. A pragma **must** carry a reason; one
//! without a reason — or naming an unknown rule — is itself a
//! violation, so the allowlist stays self-documenting.
//!
//! | rule | scope | contract |
//! |---|---|---|
//! | `wall_clock` | all crates except `serve`, `app` | no `Instant::now`/`SystemTime::now`: solver, comms, tuning and fault paths must be bit-deterministic and replayable |
//! | `nondeterminism` | everywhere (tests exempt) | no `HashMap`/`HashSet`/`RandomState`/`DefaultHasher` in result-affecting paths: iteration order and hash seeds vary per process — use `BTreeMap`/`BTreeSet` or seeded splitmix64 |
//! | `panic_hygiene` | `serve` and `app` (tests exempt) | no `.unwrap()`/`.expect(`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`: the serving path must degrade through typed errors, never abort a worker |
//! | `lock_hygiene` | everywhere (tests included) | no bare `.lock().unwrap()`/`.lock().expect(`: use `tea_core::lock_tolerant`, which recovers poisoned mutexes instead of cascading one panic into every thread |
//! | `crate_hygiene` | every member crate's `lib.rs` | must carry `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` |
//! | `pragma` | everywhere | `audit:allow` pragmas must name a known rule and carry a reason |
//! | `todo_marker` | everywhere (advisory) | surfaces to-do/fix-me markers left in comments; they fail only under `--deny-all` |
//! | `dead_pub` | `crates/*/src` and `src/`, tests exempt (advisory) | every `pub` `fn`/`struct`/`enum`/`trait`/`const`/`static`/`type` is named by some *other* file of the workspace or `benchmark/src`: a capability without a caller is deleted or made private — the pragma names the test or document that reads it |

use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Crates where wall-clock reads are sanctioned: tea-serve (deadlines)
/// and tea-app (driver/CLI timing columns). Everywhere else
/// `Instant::now` needs a pragma; timing a run is the repo benchmark's
/// job (`benchmark/`, outside the scanned tree).
const WALL_CLOCK_ALLOWED_CRATES: &[&str] = &["serve", "app"];

/// Crates under the panic-hygiene contract: the serving queue and the
/// application driver path, where a panic loses a job (or a queue).
const PANIC_HYGIENE_CRATES: &[&str] = &["serve", "app"];

/// Every textual rule id the pragma grammar accepts.
pub const RULE_IDS: &[&str] = &[
    "wall_clock",
    "nondeterminism",
    "panic_hygiene",
    "lock_hygiene",
    "crate_hygiene",
    "pragma",
    "todo_marker",
    "dead_pub",
];

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

fn strip_ws(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Runs every textual rule over one file.
///
/// `crate_name` is the member-crate directory name (`"core"`,
/// `"serve"`, ...); `rel_path` is workspace-root-relative and is used
/// both for findings and for location-based test exemption.
pub fn scan_file(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    let text = split_source(source);
    let pragmas = parse_pragmas(&text.directives);
    let tests = test_mask(&text.code);
    let all_test = path_is_test(rel_path);
    let mut findings = Vec::new();

    // Validate pragmas first: unknown rules and missing reasons are
    // violations in their own right (the escape hatch must stay
    // self-documenting), and only valid pragmas suppress anything.
    for pragma in &pragmas {
        if !RULE_IDS.contains(&pragma.rule.as_str()) {
            findings.push(Finding::deny(
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
            findings.push(Finding::deny(
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
    let suppressed = suppressed_lines(&text.code, &pragmas);
    let is_suppressed =
        |line: usize, rule: &str| suppressed.iter().any(|(l, r)| *l == line && r == rule);

    let wall_clock_scoped = !WALL_CLOCK_ALLOWED_CRATES.contains(&crate_name);
    let panic_scoped = PANIC_HYGIENE_CRATES.contains(&crate_name);

    for (i, code) in text.code.iter().enumerate() {
        let line_no = i + 1;
        let in_test = all_test || tests[i];
        // Two-line window so split method chains (`.lock()\n.unwrap()`)
        // cannot dodge the token patterns; a match already present in
        // the next line alone is reported there, not here.
        let here = strip_ws(code);
        let next = text
            .code
            .get(i + 1)
            .map(|l| strip_ws(l))
            .unwrap_or_default();
        let window = format!("{here}{next}");
        let hits = |pattern: &str| {
            here.contains(pattern) || (window.contains(pattern) && !next.contains(pattern))
        };

        let lock_patterns = [".lock().unwrap()", ".lock().expect("];
        let lock_hit = lock_patterns.iter().any(|p| hits(p));
        if lock_hit && !is_suppressed(i, "lock_hygiene") {
            findings.push(Finding::deny(
                "lock_hygiene",
                rel_path,
                line_no,
                "bare .lock().unwrap()/.expect() cascades one panic into every thread \
                 sharing the mutex — use tea_core::lock_tolerant",
            ));
        }

        if wall_clock_scoped && !is_suppressed(i, "wall_clock") {
            for pattern in ["Instant::now", "SystemTime::now", "SystemTime::"] {
                if hits(pattern) {
                    findings.push(Finding::deny(
                        "wall_clock",
                        rel_path,
                        line_no,
                        format!(
                            "{pattern} in crate '{crate_name}' — wall-clock reads are \
                             quarantined to tea-serve/tea-app so solver, \
                             tuning and fault paths stay bit-deterministic"
                        ),
                    ));
                    break;
                }
            }
        }

        if !in_test && !is_suppressed(i, "nondeterminism") {
            for pattern in ["HashMap", "HashSet", "RandomState", "DefaultHasher"] {
                if hits(pattern) {
                    findings.push(Finding::deny(
                        "nondeterminism",
                        rel_path,
                        line_no,
                        format!(
                            "{pattern} iteration order / hash seeding varies per process — \
                             use BTreeMap/BTreeSet or a seeded splitmix64 so runs stay \
                             reproducible"
                        ),
                    ));
                    break;
                }
            }
        }

        if panic_scoped && !in_test && !lock_hit && !is_suppressed(i, "panic_hygiene") {
            let patterns = [
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ];
            if let Some(pattern) = patterns.iter().find(|p| hits(p)) {
                findings.push(Finding::deny(
                    "panic_hygiene",
                    rel_path,
                    line_no,
                    format!(
                        "{pattern} in the serving/driver path — a panic here loses the \
                         job (or the queue); return a typed error instead"
                    ),
                ));
            }
        }

        let comment = &text.comments[i];
        if !is_suppressed(i, "todo_marker") {
            if let Some(marker) = ["TODO", "FIXME", "XXX"]
                .iter()
                .find(|m| comment.contains(**m))
            {
                findings.push(Finding::advise(
                    "todo_marker",
                    rel_path,
                    line_no,
                    format!("{marker} comment — file it in ROADMAP.md or resolve it"),
                ));
            }
        }
    }
    findings
}

/// The `crate_hygiene` rule: every member crate's `lib.rs` must forbid
/// `unsafe` and deny missing docs at the crate root.
pub fn check_crate_hygiene(crate_name: &str, rel_path: &str, lib_rs: &str) -> Vec<Finding> {
    let text = split_source(lib_rs);
    let mut findings = Vec::new();
    let has = |attr: &str| text.code.iter().any(|l| strip_ws(l).contains(attr));
    if !has("#![forbid(unsafe_code)]") {
        findings.push(Finding::deny(
            "crate_hygiene",
            rel_path,
            1,
            format!("crate '{crate_name}' must carry #![forbid(unsafe_code)] at the root"),
        ));
    }
    if !has("#![deny(missing_docs)]") {
        findings.push(Finding::deny(
            "crate_hygiene",
            rel_path,
            1,
            format!(
                "crate '{crate_name}' must carry #![deny(missing_docs)] at the root \
                 (every public item documented)"
            ),
        ));
    }
    findings
}

/// One workspace-root tree of the umbrella `tealeaf` package and the
/// rule scope it is audited under.
///
/// The workspace is wider than `crates/*`: the umbrella package keeps
/// its re-export façade in `src/`, its cross-crate integration suites
/// in `tests/` and its runnable documentation in `examples/`, all at
/// the top level. Each entry names the crate-name scope the rule tables
/// key on and whether the tree's `lib.rs` must carry the
/// `crate_hygiene` attributes. `vendor/` is deliberately absent from
/// the manifest: vendored third-party sources are not held to this
/// repository's contracts.
struct TreeRules {
    /// Workspace-root-relative tree to walk.
    tree: &'static str,
    /// Crate-name scope for [`WALL_CLOCK_ALLOWED_CRATES`] /
    /// [`PANIC_HYGIENE_CRATES`] lookups.
    crate_name: &'static str,
    /// Require the `crate_hygiene` root attributes on `lib.rs` here.
    hygiene: bool,
}

/// The tree → rule-set manifest for everything outside `crates/*`.
const UMBRELLA_TREES: &[TreeRules] = &[
    TreeRules {
        tree: "src",
        crate_name: "tealeaf",
        hygiene: true,
    },
    TreeRules {
        tree: "tests",
        crate_name: "tealeaf",
        hygiene: false,
    },
    TreeRules {
        tree: "examples",
        crate_name: "tealeaf",
        hygiene: false,
    },
];

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

/// The `dead_pub` rule: an advisory finding for every `pub` item
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
                findings.push(Finding::advise(
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
/// `examples/` trees (per the `UMBRELLA_TREES` manifest) with all
/// textual rules plus `crate_hygiene`, then runs the cross-file
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
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        for sub in ["src", "tests", "benches"] {
            trees.push((crate_dir.join(sub), crate_name.clone(), true));
        }
    }
    for rules in UMBRELLA_TREES {
        trees.push((
            root.join(rules.tree),
            rules.crate_name.to_string(),
            rules.hygiene,
        ));
    }
    let mut findings = Vec::new();
    let mut linted = Vec::new();
    let mut callers = Vec::new();
    for (tree, crate_name, hygiene) in trees {
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
            findings.extend(scan_file(&crate_name, &rel, &source));
            if hygiene && rel.ends_with("src/lib.rs") {
                findings.extend(check_crate_hygiene(&crate_name, &rel, &source));
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
    fn strings_and_comments_do_not_trip_rules() {
        let src = r##"
/// Docs mentioning HashMap and Instant::now and .unwrap().
fn f() -> String {
    // a comment with panic! in it
    let s = "HashMap::new() .unwrap() Instant::now()";
    let r = r#"SystemTime::now()"#; // raw string
    format!("{s}{r}")
}
"##;
        let findings = scan_file("core", "crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn split_chains_are_still_caught() {
        let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock()\n        .unwrap()\n}\n";
        let findings = scan_file("core", "crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "lock_hygiene");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn char_literals_do_not_derail_the_lexer() {
        let src = "fn f(s: &str) -> bool {\n    s.starts_with('\"') && s.ends_with('#') // HashMap would be code after a broken lexer\n}\nuse std::collections::HashMap;\n";
        let findings = scan_file("core", "crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn doc_comments_describing_the_grammar_are_not_pragmas() {
        let src = "/// Write `audit:allow(<rule>) — <reason>` to exempt a line.\n//! The `audit:allow(wall_clock)` escape hatch.\nfn f() {}\n";
        let findings = scan_file("core", "crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pragma_suppresses_only_its_rule() {
        let src = "\n// audit:allow(wall_clock) — timing a sanctioned deadline check\nlet t = std::time::Instant::now();\nuse std::collections::HashMap;\n";
        let findings = scan_file("core", "crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "nondeterminism");
    }

    #[test]
    fn pragma_reaches_past_its_own_comment_block() {
        let src = "// audit:allow(wall_clock) — reason line one\n// continues on a second comment line\nlet t = std::time::Instant::now();\n";
        let findings = scan_file("core", "crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
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
        // nondeterminism is test-exempt, so a HashMap in top-level test
        // code (outside any #[cfg(test)] module) must not be flagged
        let src = "use std::collections::HashMap;\nfn helper() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n";
        let findings = scan_file("tealeaf", "tests/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        // ...but the same line in umbrella src/ is a violation
        let findings = scan_file("tealeaf", "src/x.rs", src);
        assert!(findings.iter().any(|f| f.rule == "nondeterminism"));
    }

    #[test]
    fn umbrella_manifest_covers_src_tests_examples_not_vendor() {
        let trees: Vec<_> = UMBRELLA_TREES.iter().map(|t| t.tree).collect();
        assert_eq!(trees, ["src", "tests", "examples"]);
        assert!(UMBRELLA_TREES.iter().all(|t| t.crate_name == "tealeaf"));
        // only the library façade is held to the root-attribute contract
        assert!(UMBRELLA_TREES
            .iter()
            .all(|t| t.hygiene == (t.tree == "src")));
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_panic_hygiene() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { real(); Some(1).unwrap(); }\n}\n";
        let findings = scan_file("serve", "crates/serve/src/lib.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != "panic_hygiene"),
            "{findings:?}"
        );
    }

    #[test]
    fn crate_hygiene_requires_both_attributes() {
        let findings = check_crate_hygiene("x", "crates/x/src/lib.rs", "//! docs\n");
        assert_eq!(findings.len(), 2);
        let clean = check_crate_hygiene(
            "x",
            "crates/x/src/lib.rs",
            "//! docs\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\n",
        );
        assert!(clean.is_empty());
    }

    #[test]
    fn todo_markers_are_advisory() {
        let src = "// TODO: finish this\nfn f() {}\n";
        let findings = scan_file("core", "crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].advisory);
    }
}
