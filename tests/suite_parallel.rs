//! The detector suite's reports do not depend on how the work is spread:
//! `check_programs` gives the same diagnostics, byte for byte, at any
//! `--jobs` setting, and a single program's report is the same whether its
//! detectors share one analysis context or each run alone.

use rust_safety_study::core::config::DetectorConfig;
use rust_safety_study::core::detectors::{
    AnalysisContext, BlockingMisuse, BufferOverflow, Detector, DoubleFree, DoubleLock,
    InteriorMutability, InvalidFree, LockOrderInversion, NullDeref, UninitRead, UseAfterFree,
};
use rust_safety_study::core::suite::{DetectorSuite, Report};
use rust_safety_study::core::Diagnostic;
use rust_safety_study::corpus::all_entries;
use rust_safety_study::mir::Program;

/// Renders a report into comparable lines.
fn lines(report: &Report) -> Vec<String> {
    report.diagnostics().iter().map(|d| d.to_string()).collect()
}

fn rendered(program: &Program) -> Vec<String> {
    lines(&DetectorSuite::new().check_program(program))
}

#[test]
fn parallel_reports_match_sequential_over_the_whole_corpus() {
    let entries = all_entries();
    let programs: Vec<Program> = entries.iter().map(|e| e.program()).collect();
    let named: Vec<(&str, &Program)> = entries.iter().map(|e| e.name).zip(&programs).collect();
    let seq = DetectorSuite::new()
        .with_jobs(1)
        .check_programs(named.clone());
    let par = DetectorSuite::new().with_jobs(8).check_programs(named);
    assert_eq!(seq.len(), entries.len());
    assert_eq!(par.len(), entries.len());
    for (((entry, program), (seq_name, seq)), (par_name, par)) in
        entries.iter().zip(&programs).zip(&seq).zip(&par)
    {
        assert_eq!(seq_name, entry.name);
        assert_eq!(par_name, entry.name);
        let one = rendered(program);
        assert_eq!(
            lines(seq),
            one,
            "entry `{}` diverges at --jobs 1",
            entry.name
        );
        assert_eq!(
            lines(par),
            one,
            "entry `{}` diverges at --jobs 8",
            entry.name
        );
    }
}

#[test]
fn sharing_one_context_changes_nothing_but_speed() {
    // Every detector of the full suite, in its run order, each run alone
    // over a fresh context by `Detector::check_program`.
    let detectors: [&dyn Detector; 10] = [
        &UseAfterFree,
        &DoubleFree,
        &InvalidFree,
        &UninitRead,
        &NullDeref,
        &BufferOverflow,
        &DoubleLock,
        &LockOrderInversion,
        &BlockingMisuse,
        &InteriorMutability,
    ];
    let names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
    assert_eq!(names, DetectorSuite::all_detector_names());
    let config = DetectorConfig::new();
    // The suite's sort: stable, by source position, then detector.
    let position = |d: &Diagnostic| {
        (
            d.function.clone(),
            d.effect_span,
            d.effect_block,
            d.effect_index,
            d.detector.clone(),
        )
    };
    for entry in all_entries() {
        let program = entry.program();
        let mut alone: Vec<Diagnostic> = detectors
            .iter()
            .flat_map(|d| d.check_program(&program, &config))
            .collect();
        alone.sort_by_key(position);
        assert_eq!(
            DetectorSuite::new().check_program(&program).diagnostics(),
            alone,
            "entry `{}` diverges when its detectors share one context",
            entry.name
        );
    }
}

#[test]
fn detectors_sharing_a_body_hit_the_cache() {
    // Two detectors that both need points-to and heap facts for the same
    // body: the second must be served from the cache.
    let entry = all_entries()
        .into_iter()
        .find(|e| !e.is_statically_clean())
        .expect("corpus has buggy entries");
    let program = entry.program();
    let cx = AnalysisContext::new(&program);
    let config = DetectorConfig::new();
    for (name, body) in program.iter() {
        UseAfterFree.check_body(&cx, name, body, &config);
        DoubleFree.check_body(&cx, name, body, &config);
    }
    assert!(
        cx.cache().hits() > 0,
        "expected cache hits, got hits={} misses={}",
        cx.cache().hits(),
        cx.cache().misses()
    );
    assert!(cx.cache().misses() > 0, "something must have been computed");
}

#[test]
fn repeated_runs_on_one_shared_context_are_consistent() {
    // The same detector run twice against one memoized context must return
    // the same diagnostics as against a fresh context.
    for entry in all_entries().into_iter().take(8) {
        let program = entry.program();
        let config = DetectorConfig::new();
        let shared = AnalysisContext::new(&program);
        let first: Vec<String> = UseAfterFree
            .check_program(&program, &config)
            .iter()
            .map(|d| d.to_string())
            .collect();
        let mut second = Vec::new();
        for (name, body) in program.iter() {
            second.extend(
                UseAfterFree
                    .check_body(&shared, name, body, &config)
                    .iter()
                    .map(|d| d.to_string()),
            );
        }
        second.extend(
            UseAfterFree
                .check_global(&shared, &config)
                .iter()
                .map(|d| d.to_string()),
        );
        assert_eq!(first, second, "entry `{}`", entry.name);
    }
}
