//! Shared by the integration tests and (via `#[path]`) `src/persist.rs`.

/// The committed fixture of the one format this build reads, v9
/// (workspace `tests/fixtures/`): a save of the canonical history.
pub fn fixture() -> Vec<u8> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/db_v9.fmdb");
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}
