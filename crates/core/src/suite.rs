//! Running every detector over a program and aggregating the findings.
//!
//! One program is checked inline on the calling thread: each detector runs
//! over every body and then the whole program, all sharing one
//! [`AnalysisContext`], and the findings are stably sorted by source
//! position. [`DetectorSuite::check_programs`] is the one place that
//! spawns threads: its workers take whole programs, so a manifest's
//! reports are byte-identical at any `--jobs` setting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rstudy_mir::Program;
use serde::{Deserialize, Serialize};

use crate::config::DetectorConfig;
use crate::detectors::{
    AnalysisContext, BlockingMisuse, BufferOverflow, Detector, DoubleFree, DoubleLock,
    InteriorMutability, InvalidFree, LockOrderInversion, NullDeref, UninitRead, UseAfterFree,
};
use crate::diagnostics::{BugClass, Diagnostic};

/// The semantic version of the detector suite.
///
/// Bumped whenever a detector's findings can change for an unchanged input
/// program (new detector, changed precision, changed diagnostic text). The
/// analysis service includes it in its result-cache key, so stale cached
/// reports from an older suite are never replayed by a newer one.
pub const SUITE_VERSION: u32 = 4;

/// The aggregated findings of one suite run.
///
/// Serializes as `{"diagnostics": [...]}` — the canonical machine-readable
/// report form shared by `check --json` and the analysis service, which
/// compares byte-for-byte when produced from the same program.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// All diagnostics, detector by detector.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Diagnostics of one bug class.
    pub fn of_class(&self, class: BugClass) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.bug_class == class)
    }

    /// Number of diagnostics of one class.
    pub fn count(&self, class: BugClass) -> usize {
        self.of_class(class).count()
    }

    /// Returns `true` if nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Total number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Returns `true` if there are no findings (alias of [`Report::is_clean`]
    /// for the usual `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics grouped by the detector that produced them, detectors in
    /// name order and each group in the report's (source-position) order.
    pub fn by_detector(&self) -> BTreeMap<&str, Vec<&Diagnostic>> {
        let mut groups: BTreeMap<&str, Vec<&Diagnostic>> = BTreeMap::new();
        for d in &self.diagnostics {
            groups.entry(d.detector.as_str()).or_default().push(d);
        }
        groups
    }
}

/// Wall-clock and findings attribution for one detector within one
/// [`DetectorSuite::check_program_timed`] run. `wall_ns` is the detector's
/// time over every body plus its whole-program pass, measured inline, so
/// the timings of one run sum to at most its elapsed time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorTiming {
    /// The detector's [`Detector::name`].
    pub name: &'static str,
    /// Wall time of this detector's passes, nanoseconds.
    pub wall_ns: u64,
    /// Findings this detector contributed to the report.
    pub findings: u64,
}

/// Runs a configurable set of detectors over whole programs.
///
/// By default all ten detectors run with the precise interprocedural mode.
pub struct DetectorSuite {
    detectors: Vec<Box<dyn Detector>>,
    config: DetectorConfig,
    /// Programs analyzed at once by `check_programs`; `0` means auto-size.
    jobs: usize,
}

impl DetectorSuite {
    /// The full suite with default configuration.
    pub fn new() -> DetectorSuite {
        DetectorSuite {
            detectors: vec![
                Box::new(UseAfterFree),
                Box::new(DoubleFree),
                Box::new(InvalidFree),
                Box::new(UninitRead),
                Box::new(NullDeref),
                Box::new(BufferOverflow),
                Box::new(DoubleLock),
                Box::new(LockOrderInversion),
                Box::new(BlockingMisuse),
                Box::new(InteriorMutability),
            ],
            config: DetectorConfig::new(),
            jobs: 0,
        }
    }

    /// Every detector name the full suite knows, in canonical run order.
    pub fn all_detector_names() -> Vec<&'static str> {
        DetectorSuite::new().detector_names()
    }

    /// The full suite restricted to the named detectors.
    ///
    /// Names may come in any order and may repeat; the resulting suite
    /// always runs in canonical order, so reports (and service cache keys)
    /// are deterministic for a given detector *set*. An unknown name is an
    /// error listing the valid set.
    pub fn with_only<S: AsRef<str>>(names: &[S]) -> Result<DetectorSuite, String> {
        let mut suite = DetectorSuite::new();
        let known: Vec<&'static str> = suite.detectors.iter().map(|d| d.name()).collect();
        for n in names {
            if !known.contains(&n.as_ref()) {
                return Err(format!(
                    "unknown detector `{}` (valid: {})",
                    n.as_ref(),
                    known.join(", ")
                ));
            }
        }
        suite
            .detectors
            .retain(|d| names.iter().any(|n| n.as_ref() == d.name()));
        Ok(suite)
    }

    /// An empty suite to which detectors are added manually.
    pub fn empty() -> DetectorSuite {
        DetectorSuite {
            detectors: Vec::new(),
            config: DetectorConfig::new(),
            jobs: 0,
        }
    }

    /// Sets the number of programs analyzed at once by
    /// [`check_programs`](DetectorSuite::check_programs). `0` (the default)
    /// uses the machine's available parallelism; `1` checks them one after
    /// another on the calling thread. The reports are identical at any
    /// setting, and a single program is always checked inline.
    pub fn with_jobs(mut self, jobs: usize) -> DetectorSuite {
        self.jobs = jobs;
        self
    }

    fn effective_jobs(&self) -> usize {
        if self.jobs != 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Adds a detector.
    pub fn with_detector(mut self, d: Box<dyn Detector>) -> DetectorSuite {
        self.detectors.push(d);
        self
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: DetectorConfig) -> DetectorSuite {
        self.config = config;
        self
    }

    /// Names of the detectors in the suite, in run order.
    pub fn detector_names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Runs every detector over `program`.
    ///
    /// Diagnostics are sorted by source position — `(function, span, block,
    /// statement, detector)` — so reports are stable regardless of detector
    /// run order.
    pub fn check_program(&self, program: &Program) -> Report {
        self.check_program_timed(program).0
    }

    /// Runs the suite over many named programs, returning the reports in
    /// input order.
    ///
    /// Ingested corpora lower each source file to its own [`Program`]; this
    /// checks each one and pairs its report with the caller's name for it
    /// (typically the file path). Up to [`with_jobs`](DetectorSuite::with_jobs)
    /// workers pull programs off one shared cursor, and each program is
    /// checked inline by the worker that took it, so the reports are the
    /// same at any worker count.
    pub fn check_programs<'a, I>(&self, programs: I) -> Vec<(String, Report)>
    where
        I: IntoIterator<Item = (&'a str, &'a Program)>,
    {
        let programs: Vec<(&str, &Program)> = programs.into_iter().collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, program)) = programs.get(i) else {
                    return done;
                };
                done.push((i, self.check_program(program)));
            }
        };
        let workers = self.effective_jobs().min(programs.len());
        let mut done: Vec<(usize, Report)> = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        done.sort_unstable_by_key(|&(i, _)| i);
        programs
            .iter()
            .zip(done)
            .map(|((name, _), (_, report))| ((*name).to_owned(), report))
            .collect()
    }

    /// [`check_program`](DetectorSuite::check_program), additionally
    /// returning per-detector wall time and finding counts in suite run
    /// order. The timings are measured whether or not global telemetry is
    /// enabled — the analysis service feeds them into its always-on
    /// per-detector latency histograms — and the report is identical to
    /// `check_program`'s.
    ///
    /// Runs inline on the calling thread: detector by detector, each over
    /// every body in name order and then the whole program. Parallelism
    /// lives with the callers that own independent work — the service's
    /// workers across requests, [`check_programs`](DetectorSuite::check_programs)
    /// across programs.
    pub fn check_program_timed(&self, program: &Program) -> (Report, Vec<DetectorTiming>) {
        let _suite = rstudy_telemetry::span("suite");
        let cx = AnalysisContext::new(program);

        let mut diagnostics = Vec::new();
        let mut timings = Vec::with_capacity(self.detectors.len());
        for d in &self.detectors {
            let name = d.name();
            let before = diagnostics.len();
            let _span = rstudy_telemetry::span_with(|| format!("detector.{name}"));
            let start = Instant::now();
            for (function, body) in program.iter() {
                diagnostics.extend(d.check_body(&cx, function, body, &self.config));
            }
            diagnostics.extend(d.check_global(&cx, &self.config));
            let wall_ns = start.elapsed().as_nanos() as u64;
            let n = diagnostics.len() - before;
            timings.push(DetectorTiming {
                name,
                wall_ns,
                findings: n as u64,
            });
            rstudy_telemetry::counter_with(|| format!("detector.{name}.findings"), n as u64);
            rstudy_telemetry::trace(|| {
                format!("check: detector {name} finished with {n} finding(s)")
            });
        }
        drop(cx); // flushes the analysis.cache.{hits,misses} counters

        diagnostics.sort_by(|a, b| {
            (
                &a.function,
                a.effect_span,
                a.effect_block,
                a.effect_index,
                &a.detector,
            )
                .cmp(&(
                    &b.function,
                    b.effect_span,
                    b.effect_block,
                    b.effect_index,
                    &b.detector,
                ))
        });
        (Report { diagnostics }, timings)
    }
}

impl Default for DetectorSuite {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Intrinsic, Mutability, Operand, Place, Rvalue, Ty};

    #[test]
    fn clean_program_yields_clean_report() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.assign(Place::RETURN, Rvalue::Use(Operand::copy(x)));
        b.storage_dead(x);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let report = DetectorSuite::new().check_program(&program);
        assert!(report.is_clean(), "{:?}", report.diagnostics());
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
    }

    #[test]
    fn check_programs_pairs_each_report_with_its_name() {
        let clean = {
            let mut b = BodyBuilder::new("main", 0, Ty::Unit);
            b.ret();
            Program::from_bodies([b.finish()])
        };
        let buggy = {
            let mut b = BodyBuilder::new("main", 0, Ty::Int);
            let x = b.local("x", Ty::Int);
            let p = b.local("p", Ty::mut_ptr(Ty::Int));
            b.storage_live(x);
            b.assign(x, Rvalue::Use(Operand::int(42)));
            b.storage_live(p);
            b.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
            b.storage_dead(x);
            b.in_unsafe(|b| {
                b.assign(
                    Place::RETURN,
                    Rvalue::Use(Operand::copy(Place::from(p).deref())),
                );
            });
            b.storage_dead(p);
            b.ret();
            Program::from_bodies([b.finish()])
        };
        let suite = DetectorSuite::new();
        let reports = suite.check_programs([("a.rs", &clean), ("b.rs", &buggy)]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].0, "a.rs");
        assert!(reports[0].1.is_clean());
        assert_eq!(reports[1].0, "b.rs");
        assert!(!reports[1].1.is_clean());
    }

    #[test]
    fn suite_contains_all_ten_detectors() {
        let names = DetectorSuite::new().detector_names();
        assert_eq!(names.len(), 10);
        assert!(names.contains(&"use-after-free"));
        assert!(names.contains(&"double-lock"));
    }

    #[test]
    fn buggy_program_is_classified() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(42)));
        b.storage_live(p);
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.storage_dead(x);
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let report = DetectorSuite::new().check_program(&program);
        assert_eq!(report.count(BugClass::UseAfterFree), 1);
        assert_eq!(report.count(BugClass::DoubleLock), 0);
    }

    #[test]
    fn empty_suite_reports_nothing() {
        let program = Program::new();
        let report = DetectorSuite::empty().check_program(&program);
        assert!(report.is_clean());
    }

    /// A program that triggers two different detectors in two functions.
    fn two_bug_program() -> Program {
        // `use_uaf` has a use-after-free; `lock_twice` double-locks.
        let mut uaf = BodyBuilder::new("use_uaf", 0, Ty::Int);
        let x = uaf.local("x", Ty::Int);
        let p = uaf.local("p", Ty::mut_ptr(Ty::Int));
        uaf.storage_live(x);
        uaf.assign(x, Rvalue::Use(Operand::int(42)));
        uaf.storage_live(p);
        uaf.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
        uaf.storage_dead(x);
        uaf.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        uaf.ret();

        let mut dl = BodyBuilder::new("lock_twice", 0, Ty::Unit);
        let mutex_ty = Ty::Mutex(Box::new(Ty::Int));
        let m = dl.local("m", mutex_ty.clone());
        let r = dl.local("r", Ty::shared_ref(mutex_ty));
        let g1 = dl.local("g1", Ty::Guard(Box::new(Ty::Int)));
        let g2 = dl.local("g2", Ty::Guard(Box::new(Ty::Int)));
        dl.storage_live(m);
        dl.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        dl.storage_live(r);
        dl.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        dl.storage_live(g1);
        dl.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g1);
        dl.storage_live(g2);
        dl.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g2);
        dl.ret();

        Program::from_bodies([uaf.finish(), dl.finish()])
    }

    #[test]
    fn timed_run_attributes_findings_and_wall_time_per_detector() {
        let program = two_bug_program();
        let start = Instant::now();
        let (report, timings) = DetectorSuite::new().check_program_timed(&program);
        let elapsed = start.elapsed().as_nanos() as u64;
        let names: Vec<&str> = timings.iter().map(|t| t.name).collect();
        assert_eq!(names, DetectorSuite::all_detector_names());
        // Timings are measured regardless of the global telemetry flag,
        // and being inline they fit inside the run.
        assert!(timings.iter().all(|t| t.wall_ns > 0), "{timings:?}");
        let detectors: u64 = timings.iter().map(|t| t.wall_ns).sum();
        assert!(detectors <= elapsed, "{detectors} ns in a {elapsed} ns run");
        let total: u64 = timings.iter().map(|t| t.findings).sum();
        assert_eq!(total as usize, report.len());
        let groups = report.by_detector();
        for t in &timings {
            assert_eq!(
                groups.get(t.name).map_or(0, Vec::len) as u64,
                t.findings,
                "{t:?}"
            );
        }
        assert_eq!(
            report.diagnostics(),
            DetectorSuite::new().check_program(&program).diagnostics()
        );
    }

    #[test]
    fn by_detector_groups_findings() {
        let report = DetectorSuite::new().check_program(&two_bug_program());
        let groups = report.by_detector();
        assert!(groups.contains_key("use-after-free"), "{groups:?}");
        assert!(groups.contains_key("double-lock"), "{groups:?}");
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, report.len());
    }

    #[test]
    fn with_only_restricts_and_keeps_canonical_order() {
        let suite = DetectorSuite::with_only(&["double-lock", "use-after-free"]).unwrap();
        // Request order is reversed relative to the canonical order; the
        // suite still runs use-after-free first.
        assert_eq!(suite.detector_names(), ["use-after-free", "double-lock"]);
        // A repeated name runs once.
        let repeated =
            DetectorSuite::with_only(&["use-after-free", "double-lock", "double-lock"]).unwrap();
        assert_eq!(repeated.detector_names(), suite.detector_names());
        let report = suite.check_program(&two_bug_program());
        assert_eq!(report.count(BugClass::UseAfterFree), 1);
        assert_eq!(report.count(BugClass::DoubleLock), 1);

        let only_locks = DetectorSuite::with_only(&["double-lock"])
            .unwrap()
            .check_program(&two_bug_program());
        assert_eq!(only_locks.count(BugClass::UseAfterFree), 0);
        assert_eq!(only_locks.count(BugClass::DoubleLock), 1);
    }

    #[test]
    fn with_only_rejects_unknown_names() {
        let err = DetectorSuite::with_only(&["no-such-detector"])
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("no-such-detector"), "{err}");
        assert!(err.contains("use-after-free"), "{err}");
    }

    #[test]
    fn report_json_round_trips() {
        let report = DetectorSuite::new().check_program(&two_bug_program());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.starts_with("{\"diagnostics\":["), "{json}");
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.diagnostics(), report.diagnostics());
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let report = DetectorSuite::new().check_program(&two_bug_program());
        assert!(report.len() >= 2, "{:?}", report.diagnostics());
        let keys: Vec<_> = report
            .diagnostics()
            .iter()
            .map(|d| {
                (
                    d.function.clone(),
                    d.effect_span,
                    d.effect_block,
                    d.effect_index,
                    d.detector.clone(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
