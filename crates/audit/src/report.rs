//! Findings and the machine-readable audit report.

/// One contract violation (or advisory note) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`wall_clock`, `panic_hygiene`, `registry`, ...).
    pub rule: &'static str,
    /// Path relative to the workspace root (or a logical location like
    /// `<registry>` for audits with no file).
    pub file: String,
    /// 1-based line number; `0` when the finding has no line.
    pub line: usize,
    /// What is wrong and how to fix it.
    pub message: String,
    /// Advisory findings are reported but only fail under `--deny-all`.
    pub advisory: bool,
}

impl Finding {
    /// A denying finding at `file:line`.
    pub fn deny(rule: &'static str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
            advisory: false,
        }
    }

    /// An advisory finding at `file:line`.
    pub fn advise(rule: &'static str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding {
            advisory: true,
            ..Finding::deny(rule, file, line, message)
        }
    }

    /// `file:line [rule] message` (the human-readable line format).
    pub fn render(&self) -> String {
        let level = if self.advisory { "advice" } else { "deny" };
        if self.line == 0 {
            format!("{} [{}/{level}] {}", self.file, self.rule, self.message)
        } else {
            format!(
                "{}:{} [{}/{level}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// A named audit pass and how many findings it produced, so the report
/// records what *ran*, not just what failed.
#[derive(Debug, Clone, PartialEq, Eq)]
// audit:allow(dead_pub) — element of `AuditReport::checks`, which main.rs and tea-app's audit.rs count
pub struct CheckOutcome {
    /// Check name (`textual`, `registry`, `deck_keys`).
    pub name: String,
    /// Findings this check contributed.
    pub findings: usize,
}

/// The machine-readable audit report: every check that ran plus every
/// finding, serializable as a single JSON document for tooling (the
/// `DeckOutcome` of auditing).
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Checks that ran, in execution order.
    pub checks: Vec<CheckOutcome>,
    /// All findings from all checks.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> Self {
        AuditReport::default()
    }

    /// Records `findings` under the named check and appends them.
    pub fn record(&mut self, check: &str, findings: Vec<Finding>) {
        self.checks.push(CheckOutcome {
            name: check.to_string(),
            findings: findings.len(),
        });
        self.findings.extend(findings);
    }

    /// Whether the audit passed: no findings, or (when `deny_all` is
    /// false) only advisory ones.
    pub fn passed(&self, deny_all: bool) -> bool {
        self.findings.iter().all(|f| f.advisory && !deny_all)
    }

    /// Serializes the report as one JSON document.
    pub fn to_json(&self, deny_all: bool) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"audit\": \"tea-audit\",\n");
        out.push_str(&format!("  \"passed\": {},\n", self.passed(deny_all)));
        out.push_str("  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"findings\": {}}}",
                json_str(&c.name),
                c.findings
            ));
        }
        out.push_str(if self.checks.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"advisory\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                f.advisory,
                json_str(&f.message)
            ));
        }
        out.push_str(if self.findings.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_our_own_parser() {
        let mut report = AuditReport::new();
        report.record(
            "textual",
            vec![
                Finding::deny("wall_clock", "crates/x/src/lib.rs", 3, "Instant::now"),
                Finding::advise("todo_marker", "crates/x/src/lib.rs", 9, "TODO \"quoted\""),
            ],
        );
        report.record("registry", Vec::new());
        assert!(!report.passed(false));
        let json = report.to_json(false);
        let value = crate::json::parse(&json).expect("report must be valid JSON");
        let obj = value.as_object().expect("top level object");
        assert_eq!(
            obj.iter().find(|(k, _)| k == "passed").map(|(_, v)| v),
            Some(&crate::json::Value::Bool(false))
        );
        let findings = obj
            .iter()
            .find(|(k, _)| k == "findings")
            .and_then(|(_, v)| v.as_array())
            .expect("findings array");
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn advisory_only_passes_unless_deny_all() {
        let mut report = AuditReport::new();
        report.record(
            "textual",
            vec![Finding::advise("todo_marker", "f.rs", 1, "TODO")],
        );
        assert!(report.passed(false));
        assert!(!report.passed(true));
    }
}
