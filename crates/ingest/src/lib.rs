//! Real-Rust corpus ingestion: walk → scan → lower → register.
//!
//! The study's methodology is scanning and analyzing *real* Rust trees;
//! this crate is the front door that turns an arbitrary directory of Rust
//! source into a corpus the rest of the workspace can analyze:
//!
//! 1. [`walk`] visits every `.rs` file deterministically (sorted order,
//!    `target/` pruned, symlinks never followed);
//! 2. `rstudy-scan` counts and classifies every unsafe usage per file;
//! 3. [`lower`] turns the straight-line subset of real function bodies into
//!    the textual MIR dialect, skipping unsupported constructs with counted
//!    reasons;
//! 4. [`manifest`] registers the result as one deterministic JSON document
//!    consumable by `check`, the detector suite, and `rstudy-serve`.
//!
//! Nothing in the pipeline aborts on messy input: unreadable, non-UTF-8 and
//! empty files, unsupported language constructs, and unwalkable directory
//! entries all degrade into skip-reason counters recorded in the manifest.

#![warn(missing_docs)]
pub mod fnv;
pub mod lower;
pub mod manifest;
pub mod walk;

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use rstudy_scan::{read_rust_source, scan_source, ScanStats};

pub use fnv::content_hash;
pub use lower::{lower_source, FileLowering, LoweredFn};
pub use manifest::{FileEntry, LoweredUnit, Manifest, Summary, SCHEMA};
pub use walk::{walk_rust_files, WalkReport, WalkedFile};

/// Runs the full pipeline over `root`, producing a registered corpus.
///
/// # Errors
///
/// Only a missing/non-directory root is an error; every per-file and
/// per-function problem becomes a counted skip reason in the manifest.
pub fn ingest(root: &Path, name: &str) -> io::Result<Manifest> {
    let walk = walk_rust_files(root)?;
    let mut files = Vec::with_capacity(walk.files.len());
    let mut stats = ScanStats::default();
    let mut file_skips: BTreeMap<String, usize> = BTreeMap::new();
    let mut fn_skips: BTreeMap<String, usize> = BTreeMap::new();
    let mut summary = Summary::default();
    for f in &walk.files {
        let src = match read_rust_source(&f.path) {
            Ok(src) => src,
            Err(skip) => {
                *file_skips.entry(skip.key().to_owned()).or_insert(0) += 1;
                summary.files_skipped += 1;
                continue;
            }
        };
        let usages = scan_source(&src);
        stats.merge(&ScanStats::from_usages(&usages));
        let lowering = lower_source(&src);
        summary.files_scanned += 1;
        summary.unsafe_usages += usages.len();
        summary.fns_lowered += lowering.functions.len();
        for (reason, n) in &lowering.skipped {
            summary.fns_skipped += n;
            *fn_skips.entry(reason.clone()).or_insert(0) += n;
        }
        let lowered = match (lowering.program, lowering.entry) {
            (Some(program), Some(entry)) => Some(LoweredUnit {
                entry,
                functions: lowering.functions,
                program,
            }),
            _ => None,
        };
        files.push(FileEntry {
            path: f.rel.clone(),
            bytes: src.len() as u64,
            hash: content_hash(src.as_bytes()),
            unsafe_usages: usages.len(),
            lowered,
            fn_skips: lowering.skipped,
        });
    }
    Ok(Manifest {
        schema: SCHEMA.to_owned(),
        name: name.to_owned(),
        root: root.display().to_string(),
        summary,
        walk_skips: walk.skipped,
        file_skips,
        fn_skips,
        stats,
        files,
    })
}

/// Derives a corpus name from the root directory (`corpus` as fallback).
pub fn default_corpus_name(root: &Path) -> String {
    root.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .filter(|n| !n.is_empty() && n != "." && n != "..")
        .unwrap_or_else(|| "corpus".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("rstudy-ingest-lib-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingests_a_small_tree() {
        let dir = fixture("small");
        std::fs::write(
            dir.join("a.rs"),
            "fn double(x: i32) -> i32 { x * 2 }\n\
             fn uses_unsafe(p: *mut i32) { unsafe { *p = 1; } }\n",
        )
        .unwrap();
        std::fs::write(dir.join("b.rs"), "fn looped() { loop {} }\n").unwrap();
        std::fs::write(dir.join("empty.rs"), "").unwrap();
        let m = ingest(&dir, "small").unwrap();
        assert_eq!(m.summary.files_scanned, 2);
        assert_eq!(m.summary.files_skipped, 1);
        assert_eq!(m.file_skips.get("empty"), Some(&1));
        assert_eq!(m.summary.unsafe_usages, 1);
        assert_eq!(m.summary.fns_lowered, 2);
        assert_eq!(m.fn_skips.get("control-flow"), Some(&1));
        assert_eq!(m.files.len(), 2);
        assert!(m.files[0].hash.starts_with("fnv1a64:"));
    }

    #[test]
    fn ingest_is_deterministic() {
        let dir = fixture("deterministic");
        std::fs::write(dir.join("x.rs"), "fn f() { let a = 1; let _ = a; }").unwrap();
        std::fs::write(dir.join("y.rs"), "fn g(n: u8) -> u8 { n + 1 }").unwrap();
        let one = ingest(&dir, "d").unwrap();
        let two = ingest(&dir, "d").unwrap();
        assert_eq!(one.to_json(), two.to_json());
    }

    #[test]
    fn lowered_programs_parse_and_validate() {
        let dir = fixture("valid");
        std::fs::write(
            dir.join("m.rs"),
            "fn a(x: u32) -> u32 { let y = x + 1; y }\n\
             fn b() -> u32 { a(7) }\n",
        )
        .unwrap();
        let m = ingest(&dir, "valid").unwrap();
        let mut seen = 0;
        for (_, unit) in m.lowered_units() {
            let p = rstudy_mir::parse::parse_program(&unit.program).unwrap();
            assert!(rstudy_mir::validate::validate_program(&p).is_ok());
            assert_eq!(p.entry(), unit.entry);
            seen += 1;
        }
        assert_eq!(seen, 1);
    }

    #[test]
    fn default_names() {
        assert_eq!(default_corpus_name(Path::new("/tmp/mytree")), "mytree");
        assert_eq!(default_corpus_name(Path::new("/")), "corpus");
    }
}
