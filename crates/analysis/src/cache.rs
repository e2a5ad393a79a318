//! A memoization layer over the per-body analyses: one table of facts per
//! function body.
//!
//! Every detector in the suite needs some mix of storage liveness,
//! maybe-freed/maybe-invalid facts, points-to sets, dereference sites,
//! lock-guard ranges and the whole-program call graph. Run standalone, each
//! detector recomputes those from scratch; run as a suite that is up to
//! tenfold duplicated work. An [`AnalysisCache`] computes each fact at most
//! once per body, on first use, and hands out shared references.
//!
//! The cache keeps hit/miss tallies and flushes them to the
//! `analysis.cache.hits` / `analysis.cache.misses` telemetry counters when
//! dropped, so a `--profile` run shows how much recomputation was avoided.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rstudy_mir::{Body, Program};

use crate::callgraph::CallGraph;
use crate::dataflow::Results;
use crate::deref::{deref_sites, DerefSite};
use crate::heap::{HeapModel, HeapState};
use crate::locks::{lock_acquisitions, Acquisition, HeldGuards};
use crate::points_to::PointsTo;
use crate::storage::{MaybeFreed, MaybeInvalid, MaybeStorageDead};

/// Lazily-computed facts for one function body.
#[derive(Default)]
struct BodyFacts {
    points_to: OnceLock<Arc<PointsTo>>,
    storage_dead: OnceLock<Results<MaybeStorageDead>>,
    maybe_freed: OnceLock<Results<MaybeFreed>>,
    maybe_invalid: OnceLock<Results<MaybeInvalid>>,
    held_guards: OnceLock<Results<HeldGuards>>,
    acquisitions: OnceLock<Vec<Acquisition>>,
    deref_sites: OnceLock<Vec<DerefSite>>,
    heap_model: OnceLock<Arc<HeapModel>>,
    heap_state: OnceLock<Results<HeapState>>,
}

/// Memoized per-body and whole-program analysis results for one [`Program`].
///
/// All accessors take `&self`; each underlying analysis runs at most once
/// per body.
pub struct AnalysisCache<'p> {
    program: &'p Program,
    bodies: BTreeMap<&'p str, BodyFacts>,
    call_graph: OnceLock<CallGraph>,
    hits: AtomicU64,
    misses: AtomicU64,
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

    /// Serves `slot`, computing it via `init` on first access, and tallies
    /// the hit or miss. A caller that finds the slot filled by another
    /// thread while it waited counts a hit: it ran no duplicate work.
    ///
    /// Layers that memoize facts derived from this cache (the detectors'
    /// whole-program facts) keep their slots beside it and fill them through
    /// this method, so every memoized fact lands in the same two counters.
    pub fn memo<'a, T>(&self, slot: &'a OnceLock<T>, init: impl FnOnce() -> T) -> &'a T {
        if let Some(v) = slot.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let mut computed = false;
        let v = slot.get_or_init(|| {
            computed = true;
            init()
        });
        let tally = if computed { &self.misses } else { &self.hits };
        tally.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Andersen-style points-to sets for `function`.
    pub fn points_to(&self, function: &str) -> Arc<PointsTo> {
        let (facts, body) = self.facts(function);
        Arc::clone(self.memo(&facts.points_to, || Arc::new(PointsTo::analyze(body))))
    }

    /// Storage-liveness (maybe-storage-dead) facts for `function`.
    pub fn storage_dead(&self, function: &str) -> &Results<MaybeStorageDead> {
        let (facts, body) = self.facts(function);
        self.memo(&facts.storage_dead, || MaybeStorageDead::solve(body))
    }

    /// Maybe-freed facts for `function`.
    pub fn maybe_freed(&self, function: &str) -> &Results<MaybeFreed> {
        let (facts, body) = self.facts(function);
        self.memo(&facts.maybe_freed, || MaybeFreed::solve(body))
    }

    /// Maybe-invalidated facts for `function`.
    pub fn maybe_invalid(&self, function: &str) -> &Results<MaybeInvalid> {
        let (facts, body) = self.facts(function);
        self.memo(&facts.maybe_invalid, || MaybeInvalid::solve(body))
    }

    /// Lock-guard live ranges for `function`.
    pub fn held_guards(&self, function: &str) -> &Results<HeldGuards> {
        let (facts, body) = self.facts(function);
        self.memo(&facts.held_guards, || HeldGuards::solve(body))
    }

    /// Lock acquisition sites of `function`, in body order.
    pub fn acquisitions(&self, function: &str) -> &[Acquisition] {
        let (facts, body) = self.facts(function);
        self.memo(&facts.acquisitions, || lock_acquisitions(body))
            .as_slice()
    }

    /// Every pointer-dereference site of `function`, in body order.
    pub fn deref_sites(&self, function: &str) -> &[DerefSite] {
        let (facts, body) = self.facts(function);
        self.memo(&facts.deref_sites, || deref_sites(body))
            .as_slice()
    }

    /// The allocation-site model for `function`.
    pub fn heap_model(&self, function: &str) -> Arc<HeapModel> {
        let (facts, body) = self.facts(function);
        Arc::clone(self.memo(&facts.heap_model, || Arc::new(HeapModel::collect(body))))
    }

    /// Heap freed/written facts for `function` (built on the cached heap
    /// model and points-to sets).
    pub fn heap_state(&self, function: &str) -> &Results<HeapState> {
        let (facts, body) = self.facts(function);
        self.memo(&facts.heap_state, || {
            HeapState::new(self.heap_model(function), self.points_to(function)).solve(body)
        })
    }

    /// The whole-program call graph.
    pub fn call_graph(&self) -> &CallGraph {
        self.memo(&self.call_graph, || CallGraph::build(self.program))
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
                MaybeStorageDead::solve(body).boundary
            );
            assert_eq!(
                cache.held_guards(name).boundary,
                HeldGuards::solve(body).boundary
            );
        }
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
        let a = cache.call_graph() as *const CallGraph;
        let b = cache.call_graph() as *const CallGraph;
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
