//! A memoization layer over the per-body analyses: one table of facts per
//! function body.
//!
//! Every detector in the suite needs some mix of storage liveness,
//! maybe-freed/maybe-invalid/maybe-uninit facts, constants, nullness,
//! points-to sets, dereference sites, lock-guard ranges and the
//! whole-program call graph. Run standalone, each
//! detector recomputes those from scratch; run as a suite that is up to
//! tenfold duplicated work. An [`AnalysisCache`] computes each fact at most
//! once per body, on first use, and hands out shared references. A
//! detector reads a dataflow fact through [`AnalysisCache::cursor`], which
//! solves it on the first seek, so a fact no detector seeks is never
//! computed. Every solve of a body reuses the body's one [`Cfg`].
//!
//! Each computation runs inside an `analysis.<fact>` telemetry span, so a
//! `--profile` tree shows it under the detector that first needed it. The
//! cache keeps hit/miss tallies and flushes them to the
//! `analysis.cache.hits` / `analysis.cache.misses` telemetry counters when
//! dropped, so a `--profile` run shows how much recomputation was avoided.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rstudy_mir::{Body, Program};

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::const_prop::ConstProp;
use crate::dataflow::{solve, Analysis, Cursor, Results};
use crate::deref::{deref_sites, DerefSite, MaybeNull};
use crate::heap::{HeapModel, HeapState};
use crate::locks::{lock_acquisitions, Acquisition, HeldGuards};
use crate::points_to::PointsTo;
use crate::storage::{MaybeFreed, MaybeInvalid, MaybeStorageDead, MaybeUninit};

/// Lazily-computed facts for one function body.
#[derive(Default)]
struct BodyFacts {
    /// Built by the body's first solve and shared by the rest.
    cfg: OnceLock<Cfg>,
    points_to: OnceLock<Arc<PointsTo>>,
    storage_dead: OnceLock<Results<MaybeStorageDead>>,
    maybe_freed: OnceLock<Results<MaybeFreed>>,
    maybe_invalid: OnceLock<Results<MaybeInvalid>>,
    held_guards: OnceLock<Results<HeldGuards>>,
    acquisitions: OnceLock<Vec<Acquisition>>,
    deref_sites: OnceLock<Vec<DerefSite>>,
    heap_model: OnceLock<Arc<HeapModel>>,
    heap_state: OnceLock<Results<HeapState>>,
    const_prop: OnceLock<Results<ConstProp>>,
    maybe_null: OnceLock<Results<MaybeNull>>,
    maybe_uninit: OnceLock<Results<MaybeUninit>>,
}

/// Memoized per-body and whole-program analysis results for one [`Program`].
///
/// All accessors take `&self`; each underlying analysis runs at most once
/// per body.
pub struct AnalysisCache<'p> {
    program: &'p Program,
    bodies: BTreeMap<&'p str, BodyFacts>,
    call_graph: OnceLock<CallGraph<'p>>,
    hits: AtomicU64,
    misses: AtomicU64,
    solves: AtomicU64,
}

impl<'p> AnalysisCache<'p> {
    /// Creates an empty cache over `program`; nothing is computed up front.
    pub fn new(program: &'p Program) -> AnalysisCache<'p> {
        AnalysisCache {
            program,
            bodies: program
                .iter()
                .map(|(name, _)| (name, BodyFacts::default()))
                .collect(),
            call_graph: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            solves: AtomicU64::new(0),
        }
    }

    /// The program this cache covers.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Times a cached fact was served without recomputation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Times a fact had to be computed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Dataflow solves this cache has run, over every body: the number of
    /// per-body dataflow results some caller needed.
    pub fn solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    fn facts(&self, function: &str) -> (&BodyFacts, &'p Body) {
        let facts = self
            .bodies
            .get(function)
            .unwrap_or_else(|| panic!("analysis cache: unknown function `{function}`"));
        let body = self
            .program
            .function(function)
            .expect("cached function exists in the program");
        (facts, body)
    }

    /// Serves `slot`, computing it via `init` inside a telemetry span named
    /// `span` on first access, and tallies the hit or miss. A caller that
    /// finds the slot filled by another thread while it waited counts a
    /// hit: it ran no duplicate work.
    ///
    /// Layers that memoize facts derived from this cache (the detectors'
    /// whole-program facts) keep their slots beside it and fill them through
    /// this method, so every memoized fact lands in the same two counters.
    pub fn memo<'a, T>(
        &self,
        span: &'static str,
        slot: &'a OnceLock<T>,
        init: impl FnOnce() -> T,
    ) -> &'a T {
        if let Some(v) = slot.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let mut computed = false;
        let v = slot.get_or_init(|| {
            computed = true;
            let _span = rstudy_telemetry::span(span);
            init()
        });
        let tally = if computed { &self.misses } else { &self.hits };
        tally.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Serves `function`'s dataflow result in `slot`, solving `analysis()`
    /// over the body's one CFG on first access.
    fn dataflow<A: Analysis>(
        &self,
        span: &'static str,
        function: &str,
        slot: fn(&BodyFacts) -> &OnceLock<Results<A>>,
        analysis: impl FnOnce() -> A,
    ) -> &Results<A> {
        let (facts, body) = self.facts(function);
        self.memo(span, slot(facts), || {
            self.solves.fetch_add(1, Ordering::Relaxed);
            let cfg = facts.cfg.get_or_init(|| Cfg::new(body));
            solve(analysis(), body, cfg)
        })
    }

    /// A cursor over one of `function`'s dataflow results that solves it on
    /// its first seek. `results` is the accessor that serves it, such as
    /// [`AnalysisCache::storage_dead`]: a walk that finds no site never
    /// calls it, so the fact is never computed.
    pub fn cursor<'c, A: Analysis>(
        &'c self,
        function: &'c str,
        results: fn(&'c Self, &'c str) -> &'c Results<A>,
    ) -> Cursor<'c, A> {
        let (_, body) = self.facts(function);
        Cursor::on_demand(body, move || results(self, function))
    }

    /// Andersen-style points-to sets for `function`.
    pub fn points_to(&self, function: &str) -> Arc<PointsTo> {
        let (facts, body) = self.facts(function);
        Arc::clone(self.memo("analysis.points_to", &facts.points_to, || {
            Arc::new(PointsTo::analyze(body))
        }))
    }

    /// Storage-liveness (maybe-storage-dead) facts for `function`.
    pub fn storage_dead(&self, function: &str) -> &Results<MaybeStorageDead> {
        self.dataflow(
            "analysis.storage_dead",
            function,
            |f| &f.storage_dead,
            || MaybeStorageDead,
        )
    }

    /// Maybe-freed facts for `function`.
    pub fn maybe_freed(&self, function: &str) -> &Results<MaybeFreed> {
        self.dataflow(
            "analysis.maybe_freed",
            function,
            |f| &f.maybe_freed,
            || MaybeFreed,
        )
    }

    /// Maybe-invalidated facts for `function`.
    pub fn maybe_invalid(&self, function: &str) -> &Results<MaybeInvalid> {
        self.dataflow(
            "analysis.maybe_invalid",
            function,
            |f| &f.maybe_invalid,
            || MaybeInvalid,
        )
    }

    /// Lock-guard live ranges for `function`.
    pub fn held_guards(&self, function: &str) -> &Results<HeldGuards> {
        self.dataflow(
            "analysis.held_guards",
            function,
            |f| &f.held_guards,
            || HeldGuards,
        )
    }

    /// Lock acquisition sites of `function`, in body order.
    pub fn acquisitions(&self, function: &str) -> &[Acquisition] {
        let (facts, body) = self.facts(function);
        self.memo("analysis.acquisitions", &facts.acquisitions, || {
            lock_acquisitions(body)
        })
        .as_slice()
    }

    /// Every pointer-dereference site of `function`, in body order.
    pub fn deref_sites(&self, function: &str) -> &[DerefSite] {
        let (facts, body) = self.facts(function);
        self.memo("analysis.deref_sites", &facts.deref_sites, || {
            deref_sites(body)
        })
        .as_slice()
    }

    /// The allocation-site model for `function`.
    pub fn heap_model(&self, function: &str) -> Arc<HeapModel> {
        let (facts, body) = self.facts(function);
        Arc::clone(self.memo("analysis.heap_model", &facts.heap_model, || {
            Arc::new(HeapModel::collect(body))
        }))
    }

    /// Heap freed/written facts for `function` (built on the cached heap
    /// model and points-to sets).
    pub fn heap_state(&self, function: &str) -> &Results<HeapState> {
        self.dataflow(
            "analysis.heap_state",
            function,
            |f| &f.heap_state,
            || HeapState::new(self.heap_model(function), self.points_to(function)),
        )
    }

    /// Integer constants known at each point of `function`.
    pub fn const_prop(&self, function: &str) -> &Results<ConstProp> {
        self.dataflow(
            "analysis.const_prop",
            function,
            |f| &f.const_prop,
            || ConstProp,
        )
    }

    /// Maybe-null pointer facts for `function`.
    pub fn maybe_null(&self, function: &str) -> &Results<MaybeNull> {
        self.dataflow(
            "analysis.maybe_null",
            function,
            |f| &f.maybe_null,
            || MaybeNull,
        )
    }

    /// Maybe-uninitialized facts for `function`.
    pub fn maybe_uninit(&self, function: &str) -> &Results<MaybeUninit> {
        self.dataflow(
            "analysis.maybe_uninit",
            function,
            |f| &f.maybe_uninit,
            || MaybeUninit,
        )
    }

    /// The whole-program call graph.
    pub fn call_graph(&self) -> &CallGraph<'p> {
        self.memo("analysis.call_graph", &self.call_graph, || {
            CallGraph::build(self.program)
        })
    }
}

impl Drop for AnalysisCache<'_> {
    fn drop(&mut self) {
        rstudy_telemetry::counter("analysis.cache.hits", *self.hits.get_mut());
        rstudy_telemetry::counter("analysis.cache.misses", *self.misses.get_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::Ty;

    fn two_function_program() -> Program {
        let mut program = Program::new();
        for name in ["f", "g"] {
            let mut b = BodyBuilder::new(name, 0, Ty::Unit);
            let x = b.local("x", Ty::Int);
            b.storage_live(x);
            b.assign(
                rstudy_mir::Place::from_local(x),
                rstudy_mir::Rvalue::Use(rstudy_mir::Operand::int(1)),
            );
            b.ret();
            program.insert(b.finish());
        }
        program
    }

    #[test]
    fn repeated_lookups_hit_the_cache() {
        let program = two_function_program();
        let cache = AnalysisCache::new(&program);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let first = cache.points_to("f");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.points_to("f");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&first, &second));
        // A different body is a separate slot.
        cache.points_to("g");
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn cached_results_match_fresh_computation() {
        let program = two_function_program();
        let cache = AnalysisCache::new(&program);
        for (name, body) in program.iter() {
            assert_eq!(*cache.points_to(name), PointsTo::analyze(body));
            assert_eq!(
                cache.storage_dead(name).boundary,
                solve(MaybeStorageDead, body, &Cfg::new(body)).boundary
            );
            assert_eq!(
                cache.held_guards(name).boundary,
                solve(HeldGuards, body, &Cfg::new(body)).boundary
            );
        }
    }

    #[test]
    fn cursors_solve_on_their_first_seek_and_share_the_result() {
        let program = two_function_program();
        let cache = AnalysisCache::new(&program);
        let entry = rstudy_mir::visit::Location {
            block: rstudy_mir::BasicBlock(0),
            statement_index: 0,
        };
        drop(cache.cursor("f", AnalysisCache::storage_dead));
        assert_eq!(cache.solves(), 0, "taking a cursor solves nothing");
        let mut first = cache.cursor("f", AnalysisCache::storage_dead);
        first.seek_before(entry);
        assert_eq!(cache.solves(), 1);
        let mut second = cache.cursor("f", AnalysisCache::storage_dead);
        second.seek_before(entry);
        assert_eq!(
            cache.solves(),
            1,
            "the second cursor reads the cached result"
        );
        cache.maybe_freed("f");
        assert_eq!(cache.solves(), 2, "an accessor still solves when called");
    }

    #[test]
    fn deref_sites_are_memoized_per_function() {
        let program = two_function_program();
        let cache = AnalysisCache::new(&program);
        let first = cache.deref_sites("f").as_ptr();
        let hits = cache.hits();
        let second = cache.deref_sites("f").as_ptr();
        assert_eq!(first, second, "same slice served twice");
        assert_eq!(cache.hits(), hits + 1);
    }

    #[test]
    fn call_graph_is_computed_once() {
        let program = two_function_program();
        let cache = AnalysisCache::new(&program);
        let a = cache.call_graph() as *const CallGraph<'_>;
        let b = cache.call_graph() as *const CallGraph<'_>;
        assert_eq!(a, b);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn concurrent_access_computes_each_fact_once() {
        let program = two_function_program();
        let cache = AnalysisCache::new(&program);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (name, _) in program.iter() {
                        cache.points_to(name);
                        cache.heap_state(name);
                    }
                });
            }
        });
        // 4 threads × 2 bodies × (points_to + heap_model + points_to-inside
        // -heap_state + heap_state) lookups; every fact computed at most once.
        assert!(cache.misses() <= 8, "misses = {}", cache.misses());
        assert!(cache.hits() >= 8, "hits = {}", cache.hits());
    }
}
