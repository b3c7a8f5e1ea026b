//! Shared by the integration tests and (via `#[path]`) `src/persist.rs`.

/// The committed fixture of format `version` (workspace `tests/fixtures/`):
/// the only source of old-format bytes now that nothing can write them.
pub fn fixture(version: u32) -> Vec<u8> {
    let name = match version {
        0 => "db_v0_bare.json".to_string(),
        v => format!("db_v{v}.fmdb"),
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}
