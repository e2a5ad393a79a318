//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **Interprocedural mode** — the §7.1 naive summary ("every pointer
//!   argument is dereferenced") vs the precise per-callee summary: the
//!   precision difference is printed (3 FPs vs 0), and the cost difference
//!   is measured.
//! * **Race detection** — interpreter throughput with the lockset monitor
//!   on vs off (the price of the dynamic-baseline's main feature).
//! * **MIR simplification** — detector throughput on raw vs simplified
//!   corpus bodies (cleanup passes as an analysis preconditioner).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rstudy_core::detectors::{Detector, UseAfterFree};
use rstudy_core::DetectorConfig;
use rstudy_corpus::all_entries;
use rstudy_corpus::detector_eval::{UAF_FALSE_POSITIVES, UAF_TARGETS};
use rstudy_interp::{Interpreter, InterpreterConfig, SchedulePolicy};
use rstudy_mir::transform::simplify;

fn print_precision_ablation() {
    let naive = DetectorConfig::naive();
    let precise = DetectorConfig::new();
    let count = |cfg: &DetectorConfig| -> (usize, usize) {
        let tp = UAF_TARGETS
            .iter()
            .filter(|e| !UseAfterFree.check_program(&e.program(), cfg).is_empty())
            .count();
        let fp = UAF_FALSE_POSITIVES
            .iter()
            .filter(|e| !UseAfterFree.check_program(&e.program(), cfg).is_empty())
            .count();
        (tp, fp)
    };
    let (tp_n, fp_n) = count(&naive);
    let (tp_p, fp_p) = count(&precise);
    println!("\n== ablation: interprocedural summary mode ==");
    println!("naive:   {tp_n}/4 targets found, {fp_n}/3 FP programs flagged");
    println!("precise: {tp_p}/4 targets found, {fp_p}/3 FP programs flagged");
}

fn bench_interproc_mode(c: &mut Criterion) {
    print_precision_ablation();
    let programs: Vec<_> = UAF_TARGETS
        .iter()
        .chain(UAF_FALSE_POSITIVES)
        .map(|e| e.program())
        .collect();
    let naive = DetectorConfig::naive();
    let precise = DetectorConfig::new();
    let mut group = c.benchmark_group("ablation_interproc");
    group.bench_function("uaf_naive_summaries", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for p in &programs {
                n += UseAfterFree.check_program(black_box(p), &naive).len();
            }
            black_box(n)
        })
    });
    group.bench_function("uaf_precise_summaries", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for p in &programs {
                n += UseAfterFree.check_program(black_box(p), &precise).len();
            }
            black_box(n)
        })
    });
    group.finish();
}

fn bench_race_detection_cost(c: &mut Criterion) {
    let entry = all_entries()
        .into_iter()
        .find(|e| e.name == "race_fixed_mutex")
        .expect("corpus entry");
    let program = entry.program();
    let mut group = c.benchmark_group("ablation_race_detection");
    for (label, detect) in [("lockset_on", true), ("lockset_off", false)] {
        let config = InterpreterConfig {
            max_steps: 200_000,
            policy: SchedulePolicy::RoundRobin,
            detect_races: detect,
            trace_tail: 0,
        };
        group.bench_function(label, |b| {
            b.iter(|| black_box(Interpreter::new(&program).with_config(config).run().steps))
        });
    }
    group.finish();
}

fn bench_simplify_preconditioning(c: &mut Criterion) {
    let raw: Vec<_> = all_entries().iter().map(|e| e.program()).collect();
    let simplified: Vec<_> = raw
        .iter()
        .map(|p| {
            let mut bodies: Vec<_> = p.bodies().cloned().collect();
            for b in &mut bodies {
                simplify(b);
            }
            rstudy_mir::Program::from_bodies(bodies)
        })
        .collect();
    let suite = rstudy_core::suite::DetectorSuite::new();
    let mut group = c.benchmark_group("ablation_simplify");
    group.bench_function("suite_on_raw_bodies", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for p in &raw {
                n += suite.check_program(black_box(p)).len();
            }
            black_box(n)
        })
    });
    group.bench_function("suite_on_simplified_bodies", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for p in &simplified {
                n += suite.check_program(black_box(p)).len();
            }
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interproc_mode,
    bench_race_detection_cost,
    bench_simplify_preconditioning
);
criterion_main!(benches);
