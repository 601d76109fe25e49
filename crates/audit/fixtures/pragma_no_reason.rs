// Fixture: a pragma with no reason must itself be flagged, and must
// not suppress the finding it points at.
// audit:allow(todo_marker)
pub fn stamp() {} // TODO: stamp something
