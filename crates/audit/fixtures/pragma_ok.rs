// Fixture: a well-formed pragma suppresses exactly its rule on the
// next code-bearing line.
// audit:allow(todo_marker) — fixture demonstrating a sanctioned exemption
pub fn stamp() {} // TODO is quoted prose here, not a marker
