// Fixture: `pub` items with and without a reader in another file. The
// test pairs this file with one caller that names `called_elsewhere`
// in code and `OnlyReexported` in a `use` line only.

/// Named by no other file: flagged.
pub fn orphan() {}

/// Called from the other file: live.
pub fn called_elsewhere() {}

/// Re-exported but never used: a `use` line is not a reader.
pub struct OnlyReexported;

/// Exempted by a pragma that names its reader.
// audit:allow(dead_pub) — read by the quickstart in the README
pub const DOCUMENTED: u32 = 1;

/// Crate-visible items are rustc's `dead_code` lint's job.
pub(crate) fn crate_visible() {}

#[cfg(test)]
mod tests {
    /// Test code is exempt.
    pub fn helper() {}
}
