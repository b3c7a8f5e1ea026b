//! Recurrence guard for the readers of outside bytes.
//!
//! A derived `Deserialize` builds a value without checking any of its
//! invariants, so a type keeps one only where a reader loads it. This
//! test scans every library and binary source under `crates/*/src` and
//! `src/` for `derive(... Deserialize ...)` and `impl Deserialize for`,
//! and fails when the set differs from the inventory below: a new reader
//! is added here, with its reason, on purpose.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// `(file under crates/, type, why a reader needs it)`.
#[rustfmt::skip]
const INVENTORY: &[(&str, &str, &str)] = &[
    // The `state` and `sharding` JSON sections.
    ("core/src/persist.rs", "State", "`state` section"),
    ("core/src/persist.rs", "QuantizationMode", "`state.quantization`"),
    ("core/src/persist.rs", "Sharding", "`sharding` section"),
    ("core/src/db.rs", "RefitPolicy", "`state.refit_policy`"),
    ("core/src/db.rs", "VacuumPolicy", "`state.vacuum_policy`"),
    // The `SvmModel` JSON layout.
    ("ml/src/svm.rs", "SvmModel", "validated by `from_wire`"),
    ("ml/src/svm.rs", "Kernel", "`SvmModel::kernel`"),
    // Hand-written readers, each through a validating constructor.
    ("ir/src/sparse.rs", "SparseVec", "`SvmModel::support`, validated by `from_wire`"),
    ("core/src/persist.rs", "EnvelopeHeader", "checked by `split_envelope`"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The source with every `//` comment blanked out, so prose that names
/// a derive is not mistaken for one.
fn code_of(source: &str) -> String {
    source
        .lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The name of the first `struct` or `enum` declared in `code`.
fn declared_type(code: &str) -> Option<&str> {
    let mut words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
    words.find(|&w| w == "struct" || w == "enum")?;
    words.find(|w| !w.is_empty())
}

/// Every type in `code` that derives or implements `Deserialize`.
fn deserialized_types(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("#[derive(") {
        rest = &rest[at + "#[derive(".len()..];
        let end = rest.find(")]").expect("a derive list closes");
        let derives = &rest[..end];
        if derives
            .split(',')
            .any(|d| d.trim().trim_start_matches("serde::") == "Deserialize")
        {
            found.push(
                declared_type(&rest[end..])
                    .expect("a derive precedes a type")
                    .to_string(),
            );
        }
    }
    let words: Vec<&str> = code.split_whitespace().collect();
    for window in words.windows(4) {
        let trait_name = window[1]
            .trim_start_matches("::")
            .trim_start_matches("serde::");
        if window[0].starts_with("impl") && trait_name == "Deserialize" && window[2] == "for" {
            found.push(window[3].trim_end_matches('{').to_string());
        }
    }
    found
}

#[test]
fn only_the_inventoried_types_deserialize() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut found = BTreeSet::new();
    for file in &files {
        let code = code_of(&fs::read_to_string(file).unwrap());
        let rel = file.strip_prefix(root.join("crates")).unwrap_or(file);
        let rel = rel.to_string_lossy().replace('\\', "/");
        for ty in deserialized_types(&code) {
            found.insert((rel.clone(), ty));
        }
    }
    let inventory: BTreeSet<(String, String)> = INVENTORY
        .iter()
        .map(|&(file, ty, _)| (file.to_string(), ty.to_string()))
        .collect();
    let unlisted: Vec<_> = found.difference(&inventory).collect();
    let gone: Vec<_> = inventory.difference(&found).collect();
    assert!(
        unlisted.is_empty(),
        "Deserialize outside the reader inventory: {unlisted:?}. Read through a \
         validating constructor and record the reader here, or drop the derive."
    );
    assert!(
        gone.is_empty(),
        "inventoried readers no longer found: {gone:?}"
    );
}

#[test]
fn the_scan_sees_derives_and_impls() {
    let code = code_of(
        "#[derive(Debug, Clone,\n    serde::Deserialize)]\n/// doc\npub(crate) struct A { x: u8 }\n\
         // #[derive(Deserialize)] struct B;\n\
         #[derive(Serialize)]\nenum C { D }\n\
         impl Deserialize for E {}\nimpl serde::Deserialize for F {",
    );
    assert_eq!(deserialized_types(&code), ["A", "E", "F"]);
}
