//! Findings, and the JSON string escaper the repo benchmark writes its
//! result documents with.

/// One contract violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`crate_hygiene`, `dead_pub`, `deck_keys`, ...).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number; `0` when the finding has no line.
    pub line: usize,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl Finding {
    /// A finding at `file:line`.
    pub fn new(rule: &'static str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }

    /// `file:line [rule] message` (the human-readable line format).
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{} [{}] {}", self.file, self.rule, self.message)
        } else {
            format!(
                "{}:{} [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
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
    fn json_str_round_trips_through_our_own_parser() {
        let s = "a \"quoted\" \\ path\n\ttab \u{1}";
        let value = crate::json::parse(&json_str(s)).expect("valid JSON");
        assert_eq!(value.as_str(), Some(s));
    }
}
