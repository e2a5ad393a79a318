//! DET-UAF / DET-DL / DET-COVERAGE — the §7 detector evaluation: print the
//! found/false-positive counts (the paper's headline 4 + 3FP / 6 + 0FP),
//! then benchmark detector throughput over the corpus.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rstudy_core::detectors::{Detector, DoubleLock, UseAfterFree};
use rstudy_core::suite::DetectorSuite;
use rstudy_core::{BugClass, DetectorConfig};
use rstudy_corpus::all_entries;
use rstudy_corpus::detector_eval::{DL_CLEAN, DL_TARGETS, UAF_FALSE_POSITIVES, UAF_TARGETS};

fn print_eval_once() {
    let precise = DetectorConfig::new();
    let naive = DetectorConfig::naive();

    let uaf_found = UAF_TARGETS
        .iter()
        .filter(|e| {
            UseAfterFree
                .check_program(&e.program(), &precise)
                .iter()
                .any(|d| d.bug_class == BugClass::UseAfterFree)
        })
        .count();
    let fp_naive = UAF_FALSE_POSITIVES
        .iter()
        .filter(|e| !UseAfterFree.check_program(&e.program(), &naive).is_empty())
        .count();
    let fp_precise = UAF_FALSE_POSITIVES
        .iter()
        .filter(|e| {
            !UseAfterFree
                .check_program(&e.program(), &precise)
                .is_empty()
        })
        .count();
    let dl_found = DL_TARGETS
        .iter()
        .filter(|e| {
            DoubleLock
                .check_program(&e.program(), &precise)
                .iter()
                .any(|d| d.bug_class == BugClass::DoubleLock)
        })
        .count();
    let dl_fp = DL_CLEAN
        .iter()
        .filter(|e| !DoubleLock.check_program(&e.program(), &precise).is_empty())
        .count();

    println!("\n== §7 detector evaluation ==");
    println!("use-after-free: {uaf_found}/4 seeded bugs found (paper: 4 previously unknown)");
    println!("use-after-free false positives: {fp_naive}/3 in naive interprocedural mode (paper: 3), {fp_precise} in precise mode");
    println!("double-lock:    {dl_found}/6 seeded bugs found (paper: 6 previously unknown)");
    println!("double-lock false positives: {dl_fp} (paper: 0)");

    // DET-COVERAGE: which buggy corpus entries each side catches.
    let suite = DetectorSuite::new();
    let buggy: Vec<_> = all_entries()
        .into_iter()
        .filter(|e| !e.static_bugs.is_empty())
        .collect();
    let caught = buggy
        .iter()
        .filter(|e| !suite.check_program(&e.program()).is_clean())
        .count();
    println!(
        "coverage: static suite reports on {caught}/{} statically-buggy corpus entries",
        buggy.len()
    );
}

fn bench_detectors(c: &mut Criterion) {
    print_eval_once();

    let programs: Vec<_> = all_entries().iter().map(|e| e.program()).collect();
    let suite = DetectorSuite::new();
    let config = DetectorConfig::new();

    let mut group = c.benchmark_group("detectors");
    group.bench_function("suite_full_corpus", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for p in &programs {
                total += suite.check_program(black_box(p)).len();
            }
            black_box(total)
        })
    });
    group.bench_function("uaf_eval_corpus", |b| {
        let eval: Vec<_> = UAF_TARGETS
            .iter()
            .chain(UAF_FALSE_POSITIVES)
            .map(|e| e.program())
            .collect();
        b.iter(|| {
            let mut total = 0usize;
            for p in &eval {
                total += UseAfterFree.check_program(black_box(p), &config).len();
            }
            black_box(total)
        })
    });
    group.bench_function("double_lock_eval_corpus", |b| {
        let eval: Vec<_> = DL_TARGETS
            .iter()
            .chain(DL_CLEAN)
            .map(|e| e.program())
            .collect();
        b.iter(|| {
            let mut total = 0usize;
            for p in &eval {
                total += DoubleLock.check_program(black_box(p), &config).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
