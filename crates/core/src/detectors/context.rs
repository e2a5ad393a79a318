//! The per-run analysis context handed to every detector.
//!
//! An [`AnalysisContext`] wraps an [`AnalysisCache`] (the per-body facts
//! from `rstudy_analysis`) and adds the whole-program facts several
//! detectors share: interprocedural dereference summaries, lock facts and
//! the set of dangling-returning functions. Each is memoized through the
//! cache's [`AnalysisCache::memo`], so it is computed at most once per
//! program and its hits and misses land in the cache's counters.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::points_to::MemRoot;
use rstudy_mir::{Local, Program};

use crate::detectors::common::DerefSummaries;
use crate::detectors::double_lock::LockFacts;

/// Shared analysis facts for one program under detection.
///
/// Detectors receive `&AnalysisContext` in
/// [`Detector::check_body`](crate::detectors::Detector::check_body) and
/// [`Detector::check_global`](crate::detectors::Detector::check_global);
/// per-body facts come from [`AnalysisContext::cache`].
pub struct AnalysisContext<'p> {
    cache: AnalysisCache<'p>,
    summaries: OnceLock<DerefSummaries>,
    lock_facts: OnceLock<LockFacts>,
    dangling_returners: OnceLock<BTreeSet<String>>,
    pub(super) summary_visits: AtomicU64,
}

impl<'p> AnalysisContext<'p> {
    /// Creates an empty context over `program`; nothing is computed up front.
    pub fn new(program: &'p Program) -> AnalysisContext<'p> {
        AnalysisContext {
            cache: AnalysisCache::new(program),
            summaries: OnceLock::new(),
            lock_facts: OnceLock::new(),
            dangling_returners: OnceLock::new(),
            summary_visits: AtomicU64::new(0),
        }
    }

    /// The program this context covers.
    pub fn program(&self) -> &'p Program {
        self.cache.program()
    }

    /// The underlying per-body analysis cache.
    pub fn cache(&self) -> &AnalysisCache<'p> {
        &self.cache
    }

    /// Interprocedural which-arguments-are-dereferenced summaries.
    pub fn summaries(&self) -> &DerefSummaries {
        self.cache
            .memo("analysis.deref_summaries", &self.summaries, || {
                DerefSummaries::compute(self)
            })
    }

    /// Whole-program lock facts (acquisition sites, resolved identities).
    pub(crate) fn lock_facts(&self) -> &LockFacts {
        self.cache
            .memo("analysis.lock_facts", &self.lock_facts, || {
                LockFacts::compute(self)
            })
    }

    /// Function visits the summary driver has made so far, over every
    /// summary computed in this context: the summaries' work count.
    pub fn summary_visits(&self) -> u64 {
        self.summary_visits.load(Ordering::Relaxed)
    }

    /// Functions whose return value may point into their own (dead) frame.
    pub fn dangling_returners(&self) -> &BTreeSet<String> {
        let find = || {
            let mut out = BTreeSet::new();
            for (name, body) in self.program().iter() {
                if !body.local_decl(Local::RETURN).ty.is_pointer_like() {
                    continue;
                }
                let pt = self.cache.points_to(name);
                if pt
                    .targets(Local::RETURN)
                    .iter()
                    .any(|r| matches!(r, MemRoot::Local(l) if !body.is_arg(*l)))
                {
                    out.insert(name.to_owned());
                }
            }
            out
        };
        self.cache.memo(
            "analysis.dangling_returners",
            &self.dangling_returners,
            find,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Mutability, Operand, Place, Rvalue, Ty};

    fn dangling_program() -> Program {
        // `make` returns a pointer to its own local; `clean` does not.
        let mut make = BodyBuilder::new("make", 0, Ty::mut_ptr(Ty::Int));
        let x = make.local("x", Ty::Int);
        make.storage_live(x);
        make.assign(x, Rvalue::Use(Operand::int(1)));
        make.assign(Place::RETURN, Rvalue::AddrOf(Mutability::Mut, x.into()));
        make.ret();

        let mut clean = BodyBuilder::new("clean", 0, Ty::Int);
        clean.assign(Place::RETURN, Rvalue::Use(Operand::int(0)));
        clean.ret();

        Program::from_bodies([make.finish(), clean.finish()])
    }

    #[test]
    fn dangling_returners_finds_the_right_functions() {
        let program = dangling_program();
        let cx = AnalysisContext::new(&program);
        let dangling = cx.dangling_returners();
        assert!(dangling.contains("make"));
        assert!(!dangling.contains("clean"));
        // Second call serves the memoized set.
        let again = cx.dangling_returners() as *const BTreeSet<String>;
        assert_eq!(again, dangling as *const _);
    }
}
