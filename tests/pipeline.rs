//! Cross-crate pipeline tests: text → parse → validate → print → reparse,
//! and analyses running end-to-end over every corpus program.

use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::callgraph::CallGraph;
use rstudy_corpus::all_entries;
use rstudy_mir::parse::parse_program;
use rstudy_mir::pretty::program_to_string;
use rstudy_mir::validate::validate_program;

#[test]
fn corpus_round_trips_through_print_and_parse() {
    for entry in all_entries() {
        let program = entry.program();
        let printed = program_to_string(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{} fails to reparse: {e}\n{printed}", entry.name));
        let reprinted = program_to_string(&reparsed);
        assert_eq!(
            printed, reprinted,
            "{} is not a pretty-printing fixpoint",
            entry.name
        );
        assert!(validate_program(&reparsed).is_ok(), "{}", entry.name);
    }
}

#[test]
fn analyses_run_on_every_corpus_body() {
    // No analysis may panic or fail to converge on any corpus body.
    for entry in all_entries() {
        let program = entry.program();
        let cache = AnalysisCache::new(&program);
        cache.call_graph();
        for (name, _) in program.iter() {
            cache.points_to(name);
            cache.storage_dead(name);
            cache.maybe_freed(name);
            cache.maybe_invalid(name);
            cache.held_guards(name);
            cache.heap_state(name);
            cache.const_prop(name);
            cache.maybe_null(name);
            cache.maybe_uninit(name);
        }
    }
}

#[test]
fn call_graph_reaches_workers_through_spawn() {
    let entry = all_entries()
        .into_iter()
        .find(|e| e.name == "race_raw_pointer")
        .expect("corpus entry exists");
    let program = entry.program();
    let graph = CallGraph::build(&program);
    let reach = graph.reachable_from("main");
    assert!(reach.contains("bump"), "{reach:?}");
}

#[test]
fn reparsed_corpus_produces_identical_detector_reports() {
    use rstudy_core::suite::DetectorSuite;
    let suite = DetectorSuite::new();
    for entry in all_entries().into_iter().take(8) {
        let program = entry.program();
        let reparsed = parse_program(&program_to_string(&program)).expect("reparse");
        let a = suite.check_program(&program);
        let b = suite.check_program(&reparsed);
        let codes = |r: &rstudy_core::Report| {
            let mut v: Vec<String> = r
                .diagnostics()
                .iter()
                .map(|d| format!("{}:{}", d.function, d.bug_class))
                .collect();
            v.sort();
            v
        };
        assert_eq!(codes(&a), codes(&b), "{}", entry.name);
    }
}
