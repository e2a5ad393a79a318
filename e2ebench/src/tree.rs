//! The seeded synthetic Rust tree that `serve-manifest` ingests.
//!
//! Every function is straight-line code of the kind the lowerer handles
//! today (arithmetic `let`s, a same-file call, raw-pointer reads and writes
//! in `unsafe` blocks), so teaching the lowerer new constructs does not
//! grow the manifest. A quarter of the files plant a function that reads a
//! raw pointer after `drop` of its target, which lowers to a
//! use-after-free the detector suite reports; another quarter plant an
//! `async fn`, which the lowerer skips. Counts are fixed per file, so the
//! manifest's size is nearly the same for every seed.

use std::fmt::Write as _;

use crate::rng::Rng;

/// Files in the tree; each lowers to one manifest unit. With these
/// contents the manifest is about 90 KB and decodes about as slowly as
/// the one ingesting this repository's own `crates/` gives.
pub const FILES: usize = 48;

/// One generated source file and what ingesting it must produce.
pub struct SourceFile {
    /// Path relative to the tree root, `/`-separated.
    pub rel: String,
    pub text: String,
    /// Names of the functions that lower, in source order.
    pub lowered: Vec<String>,
    /// Functions the lowerer skips (`async fn`).
    pub skipped: usize,
    pub unsafe_usages: usize,
    /// Bug classes the suite reports on the lowered unit, sorted.
    pub classes: Vec<&'static str>,
}

const DIRS: [&str; 6] = ["core", "io", "net", "sync", "store", "util"];
const WORDS: [&str; 16] = [
    "arena", "batch", "cursor", "frame", "gate", "heap", "index", "ledger", "mesh", "node",
    "queue", "ring", "slab", "token", "vault", "window",
];

pub fn tree(seed: u64) -> Vec<SourceFile> {
    let mut rng = Rng::new(seed, 0x7EE);
    // Which files plant the use-after-free and which the async fn: a
    // seeded quarter each, disjoint.
    let mut roles: Vec<usize> = (0..FILES).collect();
    rng.shuffle(&mut roles);
    let mut files: Vec<SourceFile> = (0..FILES)
        .map(|i| {
            let role = roles[i] % 4;
            let dir = DIRS[rng.below(DIRS.len())];
            let word = WORDS[rng.below(WORDS.len())];
            let stem = format!("{word}{i:02}");
            file(
                &format!("src/{dir}/{stem}.rs"),
                &stem,
                role == 0,
                role == 1,
                &mut rng,
            )
        })
        .collect();
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    files
}

fn k(rng: &mut Rng) -> usize {
    2 + rng.below(250)
}

fn op(rng: &mut Rng) -> char {
    ['+', '*', '-'][rng.below(3)]
}

fn file(rel: &str, stem: &str, stale: bool, fetch: bool, rng: &mut Rng) -> SourceFile {
    let mut text = format!("//! {rel}: generated ingest input.\n");
    let mut lowered = Vec::new();
    let mut unsafe_usages = 0;
    let name = format!("{stem}_mix");
    let _ = write!(
        text,
        "\npub fn {name}(a: u32, b: u32) -> u32 {{\n    \
         let c = a {} b;\n    let d = c {} {};\n    d\n}}\n",
        op(rng),
        op(rng),
        k(rng),
    );
    lowered.push(name);
    let name = format!("{stem}_store");
    let _ = write!(
        text,
        "\npub fn {name}(p: *mut u32, v: u32) {{\n    let w = v + {};\n    \
         unsafe {{\n        *p = w;\n    }}\n}}\n",
        k(rng),
    );
    lowered.push(name);
    unsafe_usages += 1;
    let name = format!("{stem}_load");
    let _ = write!(
        text,
        "\npub fn {name}(p: *const u32) -> u32 {{\n    let v = unsafe {{ *p }};\n    \
         let w = {stem}_mix(v, {});\n    w\n}}\n",
        k(rng),
    );
    lowered.push(name);
    unsafe_usages += 1;
    let mut classes = Vec::new();
    if stale {
        let name = format!("{stem}_stale");
        let _ = write!(
            text,
            "\nfn {name}(v: u32) -> u32 {{\n    let x = v + {};\n    \
             let p = &x as *const u32;\n    drop(x);\n    let r = unsafe {{ *p }};\n    r\n}}\n",
            k(rng),
        );
        lowered.push(name);
        unsafe_usages += 1;
        classes.push("use-after-free");
    }
    let mut skipped = 0;
    if fetch {
        let _ = write!(
            text,
            "\npub async fn {stem}_fetch(v: u32) -> u32 {{\n    v + {}\n}}\n",
            k(rng),
        );
        skipped += 1;
    }
    SourceFile {
        rel: rel.to_owned(),
        text,
        lowered,
        skipped,
        unsafe_usages,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rust_safety_study::core::suite::DetectorSuite;
    use rust_safety_study::ingest::lower_source;
    use rust_safety_study::mir::parse::parse_program;
    use rust_safety_study::scan::scan_source;

    fn bytes(seed: u64) -> Vec<(String, String)> {
        tree(seed).into_iter().map(|f| (f.rel, f.text)).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(bytes(4), bytes(4));
        assert_ne!(bytes(4), bytes(5));
    }

    #[test]
    fn paths_are_unique_and_roles_are_a_quarter_each() {
        let files = tree(9);
        let mut paths: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        paths.dedup();
        assert_eq!(paths.len(), FILES);
        assert_eq!(
            files.iter().filter(|f| !f.classes.is_empty()).count(),
            FILES / 4
        );
        assert_eq!(files.iter().filter(|f| f.skipped > 0).count(), FILES / 4);
    }

    #[test]
    fn ingesting_a_file_gives_its_planted_counts_and_findings() {
        let suite = DetectorSuite::new().with_jobs(1);
        for seed in 0..8 {
            for f in tree(seed) {
                let lowering = lower_source(&f.text);
                let names: Vec<&str> = lowering.functions.iter().map(|l| l.name.as_str()).collect();
                assert_eq!(names, f.lowered, "{}", f.rel);
                assert_eq!(
                    lowering.skipped.values().sum::<usize>(),
                    f.skipped,
                    "{}",
                    f.rel
                );
                assert_eq!(scan_source(&f.text).len(), f.unsafe_usages, "{}", f.rel);
                let program = parse_program(&lowering.program.expect("the file lowers")).unwrap();
                let mut found: Vec<&str> = suite
                    .check_program(&program)
                    .diagnostics()
                    .iter()
                    .map(|d| d.bug_class.code())
                    .collect();
                found.sort_unstable();
                found.dedup();
                assert_eq!(found, f.classes, "{}", f.rel);
            }
        }
    }
}
