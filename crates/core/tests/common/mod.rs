//! Shared by the integration tests and (via `#[path]`) `src/persist.rs`.

/// The committed fixture of format `version` (workspace `tests/fixtures/`):
/// the only source of old-format bytes now that nothing can write them.
pub fn fixture(version: u32) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../tests/fixtures/db_v{version}.fmdb"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}
