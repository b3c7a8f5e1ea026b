//! Recurrence guard for the writers and readers of JSON.
//!
//! A derived `Serialize` fixes a JSON layout that has to stay stable, so
//! a type keeps one only where a writer emits it. A derived
//! `Deserialize` builds a value without checking any of its invariants,
//! so a type keeps one only where a reader loads it. This test scans
//! every library and binary source under `crates/*/src` and `src/` for
//! `derive(... Serialize ...)`, `derive(... Deserialize ...)`,
//! `impl Serialize for` and `impl Deserialize for`, and fails when the
//! set differs from the inventory below: a new writer or reader is added
//! here, with its reason, on purpose.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const TRAITS: [&str; 2] = ["Deserialize", "Serialize"];

/// `(file under crates/, type, the JSON it is written to and read
/// from)`. Each of these types is both written and read, so each
/// implements both traits.
#[rustfmt::skip]
const INVENTORY: &[(&str, &str, &str)] = &[
    // The `state` and `sharding` JSON sections, written by `persist::save`.
    ("core/src/persist.rs", "State", "`state` section"),
    ("core/src/persist.rs", "QuantizationMode", "`state.quantization`"),
    ("core/src/persist.rs", "Sharding", "`sharding` section"),
    ("core/src/db.rs", "RefitPolicy", "`state.refit_policy`"),
    ("core/src/db.rs", "VacuumPolicy", "`state.vacuum_policy`"),
    // The `SvmModel` JSON layout.
    ("ml/src/svm.rs", "SvmModel", "a JSON model, read through `from_wire`"),
    // Read by hand, each through a validating constructor.
    ("ir/src/sparse.rs", "SparseVec", "`SvmModel::support`, also written by hand"),
    ("core/src/persist.rs", "EnvelopeHeader", "the header line, checked by `split_envelope`"),
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

/// The serde trait `path` names, if any.
fn serde_trait(path: &str) -> Option<&'static str> {
    let name = path
        .trim()
        .trim_start_matches("::")
        .trim_start_matches("serde::");
    TRAITS.into_iter().find(|&t| t == name)
}

/// Every `(trait, type)` in `code` where the type derives or implements
/// `Serialize` or `Deserialize`.
fn serde_impls(code: &str) -> Vec<(&'static str, String)> {
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("#[derive(") {
        rest = &rest[at + "#[derive(".len()..];
        let end = rest.find(")]").expect("a derive list closes");
        for trait_name in rest[..end].split(',').filter_map(serde_trait) {
            let ty = declared_type(&rest[end..]).expect("a derive precedes a type");
            found.push((trait_name, ty.to_string()));
        }
    }
    let words: Vec<&str> = code.split_whitespace().collect();
    for window in words.windows(4) {
        if let Some(trait_name) = serde_trait(window[1]) {
            if window[0].starts_with("impl") && window[2] == "for" {
                found.push((trait_name, window[3].trim_end_matches('{').to_string()));
            }
        }
    }
    found
}

#[test]
fn only_the_inventoried_types_use_serde() {
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
        for (trait_name, ty) in serde_impls(&code) {
            found.insert((rel.clone(), trait_name, ty));
        }
    }
    let inventory: BTreeSet<(String, &str, String)> = INVENTORY
        .iter()
        .flat_map(|&(file, ty, _)| TRAITS.map(|t| (file.to_string(), t, ty.to_string())))
        .collect();
    let unlisted: Vec<_> = found.difference(&inventory).collect();
    let gone: Vec<_> = inventory.difference(&found).collect();
    assert!(
        unlisted.is_empty(),
        "serde outside the inventory: {unlisted:?}. Serialize only what a writer \
         emits, read only through a validating constructor, and record the \
         writer or reader here; or drop the derive."
    );
    assert!(
        gone.is_empty(),
        "inventoried writers or readers no longer found: {gone:?}"
    );
}

#[test]
fn the_scan_sees_derives_and_impls() {
    let code = code_of(
        "#[derive(Debug, Clone,\n    serde::Deserialize)]\n/// doc\npub(crate) struct A { x: u8 }\n\
         // #[derive(Deserialize)] struct B;\n\
         #[derive(Serialize)]\nenum C { D }\n\
         impl Deserialize for E {}\nimpl serde::Deserialize for F {\n\
         #[derive(serde::Serialize, Deserialize, SerializeAs)]\nstruct G;\n\
         // impl Serialize for H {}\n\
         impl Serialize for I {}\nimpl SerializeMap for J {}",
    );
    assert_eq!(
        serde_impls(&code),
        [
            ("Deserialize", "A".to_string()),
            ("Serialize", "C".to_string()),
            ("Serialize", "G".to_string()),
            ("Deserialize", "G".to_string()),
            ("Deserialize", "E".to_string()),
            ("Deserialize", "F".to_string()),
            ("Serialize", "I".to_string()),
        ]
    );
}
