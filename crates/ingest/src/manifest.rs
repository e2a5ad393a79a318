//! The corpus manifest: the registered, serialized product of an ingest run.
//!
//! A manifest is a single deterministic JSON document: file list in sorted
//! order, per-file content hashes and unsafe counts, lowered MIR programs,
//! aggregate Table-1/Table-4-style scan statistics, and the full skip-reason
//! taxonomy (walk-, file-, and function-level). Ingesting the same tree
//! twice yields byte-identical manifests, so manifests can be diffed,
//! cached, and committed as artifacts.
//!
//! Consumers: `rstudy check --manifest` analyzes every lowered program, and
//! `rstudy-serve` serves entries by path.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use rstudy_scan::ScanStats;
use serde::{Deserialize, Serialize};

use crate::lower::LoweredFn;

/// Schema tag carried by every manifest.
pub const SCHEMA: &str = "rstudy-ingest/v1";

/// Headline counts of an ingest run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// `.rs` files scanned successfully.
    pub files_scanned: usize,
    /// `.rs` files skipped (unreadable, non-UTF-8, empty).
    pub files_skipped: usize,
    /// Total unsafe usages across all scanned files.
    pub unsafe_usages: usize,
    /// Function bodies lowered into MIR.
    pub fns_lowered: usize,
    /// Function bodies skipped by the lowerer.
    pub fns_skipped: usize,
}

/// One file's lowered program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweredUnit {
    /// Entry function name of the program.
    pub entry: String,
    /// Lowered functions in source order.
    pub functions: Vec<LoweredFn>,
    /// The program in the textual MIR dialect.
    pub program: String,
}

/// One scanned file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileEntry {
    /// Root-relative path, `/`-separated.
    pub path: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Content hash (`fnv1a64:<hex>`).
    pub hash: String,
    /// Unsafe usages found in this file.
    pub unsafe_usages: usize,
    /// Lowered MIR program, when at least one function lowered.
    pub lowered: Option<LoweredUnit>,
    /// Per-reason counts of functions the lowerer skipped in this file.
    pub fn_skips: BTreeMap<String, usize>,
}

/// A registered corpus: the output of `rstudy ingest`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Corpus name (defaults to the root directory's name).
    pub name: String,
    /// The root the walk started from, as given.
    pub root: String,
    /// Headline counts.
    pub summary: Summary,
    /// Why the walker pruned things (`target-dir`, `symlink`, ...).
    pub walk_skips: BTreeMap<String, usize>,
    /// Why whole files were skipped (`non-utf8`, `empty`, `unreadable`).
    pub file_skips: BTreeMap<String, usize>,
    /// Why functions were not lowered (`control-flow`, `generics`, ...).
    pub fn_skips: BTreeMap<String, usize>,
    /// Aggregate unsafe-usage statistics over all scanned files.
    pub stats: ScanStats,
    /// Every scanned file, sorted by path.
    pub files: Vec<FileEntry>,
}

impl Manifest {
    /// Serializes deterministically (pretty JSON, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("manifest serializes");
        s.push('\n');
        s
    }

    /// Parses a manifest, checking the schema tag.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse or schema mismatch.
    pub fn from_json(src: &str) -> Result<Manifest, String> {
        let m: Manifest = serde_json::from_str(src).map_err(|e| e.to_string())?;
        if m.schema != SCHEMA {
            return Err(format!(
                "unsupported manifest schema `{}` (want `{SCHEMA}`)",
                m.schema
            ));
        }
        Ok(m)
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a manifest from `path`.
    ///
    /// # Errors
    ///
    /// I/O errors pass through; parse failures become `InvalidData`.
    pub fn load(path: &Path) -> io::Result<Manifest> {
        let src = std::fs::read_to_string(path)?;
        Manifest::from_json(&src).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Iterates `(path, unit)` over every file that lowered a program.
    pub fn lowered_units(&self) -> impl Iterator<Item = (&str, &LoweredUnit)> {
        self.files
            .iter()
            .filter_map(|f| f.lowered.as_ref().map(|u| (f.path.as_str(), u)))
    }

    /// The lowered program for one file path, if any.
    pub fn find_program(&self, path: &str) -> Option<&LoweredUnit> {
        self.files
            .iter()
            .find(|f| f.path == path)
            .and_then(|f| f.lowered.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Manifest {
        Manifest {
            schema: SCHEMA.to_owned(),
            name: "tiny".to_owned(),
            root: "fixtures/tiny".to_owned(),
            summary: Summary {
                files_scanned: 1,
                files_skipped: 0,
                unsafe_usages: 2,
                fns_lowered: 1,
                fns_skipped: 1,
            },
            walk_skips: BTreeMap::new(),
            file_skips: BTreeMap::new(),
            fn_skips: BTreeMap::from([("control-flow".to_owned(), 1)]),
            stats: ScanStats::default(),
            files: vec![FileEntry {
                path: "lib.rs".to_owned(),
                bytes: 42,
                hash: "fnv1a64:0000000000000042".to_owned(),
                unsafe_usages: 2,
                lowered: Some(LoweredUnit {
                    entry: "f".to_owned(),
                    functions: vec![crate::lower::LoweredFn {
                        name: "f".to_owned(),
                        line: 1,
                    }],
                    program: "fn f() {\n  bb0: {\n    return;\n  }\n}\n".to_owned(),
                }),
                fn_skips: BTreeMap::from([("control-flow".to_owned(), 1)]),
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let m = tiny();
        let text = m.to_json();
        let back = Manifest::from_json(&text).unwrap();
        assert_eq!(m, back);
        // Determinism: serialize → parse → serialize is a fixpoint.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut m = tiny();
        m.schema = "rstudy-ingest/v0".to_owned();
        let err = Manifest::from_json(&m.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("rstudy-ingest-manifest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = tiny();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
    }

    #[test]
    fn lowered_units_and_lookup() {
        let m = tiny();
        let units: Vec<&str> = m.lowered_units().map(|(p, _)| p).collect();
        assert_eq!(units, vec!["lib.rs"]);
        assert!(m.find_program("lib.rs").is_some());
        assert!(m.find_program("missing.rs").is_none());
    }
}
