//! A flow-sensitive model of heap allocations: which allocation sites may
//! already be freed, and which have been initialized, at each program point.
//!
//! Shared by the use-after-free, double-free, invalid-free and
//! uninitialized-read detectors. The analysis owns its [`HeapModel`] and
//! [`PointsTo`] inputs behind [`Arc`]s so solved
//! [`Results`](crate::dataflow::Results) carry no body
//! lifetime and can live in the shared [`crate::cache::AnalysisCache`].

use std::sync::Arc;

use crate::bitset::BitSet;
use crate::dataflow::Analysis;
use crate::points_to::{MemRoot, PointsTo};
use rstudy_mir::visit::Location;
use rstudy_mir::{
    Body, Callee, Intrinsic, Local, Operand, Statement, StatementKind, Terminator, TerminatorKind,
};

/// The allocation sites (`alloc` call locations) of one body, indexed densely.
#[derive(Debug, Clone, Default)]
pub struct HeapModel {
    sites: Vec<Location>,
}

impl HeapModel {
    /// Collects all `alloc` call sites in `body`.
    pub fn collect(body: &Body) -> HeapModel {
        let mut sites = Vec::new();
        for bb in body.block_indices() {
            let data = body.block(bb);
            if let Some(term) = &data.terminator {
                if let TerminatorKind::Call {
                    func: Callee::Intrinsic(Intrinsic::Alloc),
                    ..
                } = &term.kind
                {
                    sites.push(Location {
                        block: bb,
                        statement_index: data.statements.len(),
                    });
                }
            }
        }
        HeapModel { sites }
    }

    /// Number of allocation sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Returns `true` if the body performs no heap allocation.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The dense index of an allocation site, if `loc` is one.
    pub fn index_of(&self, loc: Location) -> Option<usize> {
        self.sites.iter().position(|&s| s == loc)
    }

    /// The allocation site at dense index `i`.
    pub fn site(&self, i: usize) -> Location {
        self.sites[i]
    }

    /// Dense indices of the sites a pointer may reference.
    pub fn sites_of_pointer(&self, pt: &PointsTo, ptr: Local) -> Vec<usize> {
        pt.targets(ptr)
            .iter()
            .filter_map(|root| match root {
                MemRoot::Heap(loc) => self.index_of(*loc),
                _ => None,
            })
            .collect()
    }
}

/// Per-point heap facts: allocation sites that may be freed and sites that
/// may have been written (initialized).
#[derive(Debug, PartialEq, Eq)]
pub struct HeapFacts {
    /// Sites whose memory may already be deallocated.
    pub freed: BitSet,
    /// Sites whose memory may have been initialized by some write.
    pub written: BitSet,
}

impl Clone for HeapFacts {
    fn clone(&self) -> HeapFacts {
        HeapFacts {
            freed: self.freed.clone(),
            written: self.written.clone(),
        }
    }

    /// Reuses both sets' words, as the dataflow solver and cursors do.
    fn clone_from(&mut self, source: &HeapFacts) {
        self.freed.clone_from(&source.freed);
        self.written.clone_from(&source.written);
    }
}

/// The dataflow problem computing [`HeapFacts`].
#[derive(Debug, Clone)]
pub struct HeapState {
    model: Arc<HeapModel>,
    points_to: Arc<PointsTo>,
}

impl HeapState {
    /// Creates the analysis over a body's heap model and points-to results.
    pub fn new(model: Arc<HeapModel>, points_to: Arc<PointsTo>) -> HeapState {
        HeapState { model, points_to }
    }

    fn mark(&self, set: &mut BitSet, ptr: Local) {
        for i in self.model.sites_of_pointer(&self.points_to, ptr) {
            set.insert(i);
        }
    }
}

fn arg_local(args: &[Operand], idx: usize) -> Option<Local> {
    args.get(idx)
        .and_then(Operand::place)
        .filter(|p| p.is_local())
        .map(|p| p.local)
}

impl Analysis for HeapState {
    type Domain = HeapFacts;

    fn bottom(&self, _body: &Body) -> HeapFacts {
        HeapFacts {
            freed: BitSet::new(self.model.len()),
            written: BitSet::new(self.model.len()),
        }
    }

    fn join(&self, into: &mut HeapFacts, from: &HeapFacts) -> bool {
        let a = into.freed.union_with(&from.freed);
        let b = into.written.union_with(&from.written);
        a || b
    }

    fn apply_statement(&self, state: &mut HeapFacts, stmt: &Statement, _loc: Location) {
        // A plain `(*p) = v` initializes the pointee (and, when overwriting
        // a live value, drops it — the invalid-free detector looks at the
        // pre-state of exactly these statements).
        if let StatementKind::Assign(place, _) = &stmt.kind {
            if place.has_deref() {
                self.mark(&mut state.written, place.local);
            }
        }
    }

    fn apply_terminator(&self, state: &mut HeapFacts, term: &Terminator, loc: Location) {
        if let TerminatorKind::Call {
            func: Callee::Intrinsic(i),
            args,
            ..
        } = &term.kind
        {
            match i {
                Intrinsic::Alloc => {
                    // A fresh allocation from this site: reset its facts.
                    if let Some(idx) = self.model.index_of(loc) {
                        state.freed.remove(idx);
                        state.written.remove(idx);
                    }
                }
                Intrinsic::Dealloc => {
                    if let Some(p) = arg_local(args, 0) {
                        self.mark(&mut state.freed, p);
                    }
                }
                Intrinsic::PtrWrite => {
                    if let Some(p) = arg_local(args, 0) {
                        self.mark(&mut state.written, p);
                    }
                }
                Intrinsic::PtrCopyNonoverlapping => {
                    if let Some(p) = arg_local(args, 1) {
                        self.mark(&mut state.written, p);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dataflow::{self, Results};
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{BasicBlock, Ty};

    fn solve(body: &Body) -> (Arc<HeapModel>, Results<HeapState>) {
        let model = Arc::new(HeapModel::collect(body));
        let pt = Arc::new(PointsTo::analyze(body));
        let results = dataflow::solve(
            HeapState::new(Arc::clone(&model), pt),
            body,
            &Cfg::new(body),
        );
        (model, results)
    }

    /// The heap facts before statement `i` of `block`.
    fn facts_before(body: &Body, results: &Results<HeapState>, block: u32, i: usize) -> HeapFacts {
        let loc = Location {
            block: BasicBlock(block),
            statement_index: i,
        };
        results.cursor(body).seek_before(loc).clone()
    }

    /// alloc; ptr::write; dealloc; then observe facts at each stage.
    #[test]
    fn tracks_write_then_free() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let unit = b.temp(Ty::Unit);
        b.storage_live(p);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        b.storage_live(unit);
        b.call_intrinsic_cont(
            Intrinsic::PtrWrite,
            vec![Operand::copy(p), Operand::int(5)],
            unit,
        );
        b.call_intrinsic_cont(Intrinsic::Dealloc, vec![Operand::copy(p)], unit);
        b.nop();
        b.ret();
        let body = b.finish();

        let (model, results) = solve(&body);
        assert_eq!(model.len(), 1);

        // Right after the write (start of bb2): written, not freed.
        let after_write = facts_before(&body, &results, 2, 0);
        assert!(after_write.written.contains(0));
        assert!(!after_write.freed.contains(0));

        // After the dealloc (start of bb3): freed.
        let after_free = facts_before(&body, &results, 3, 0);
        assert!(after_free.freed.contains(0));
    }

    #[test]
    fn plain_deref_assign_counts_as_write() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        b.in_unsafe(|b| {
            b.assign(
                rstudy_mir::Place::from_local(p).deref(),
                rstudy_mir::Rvalue::Use(Operand::int(9)),
            )
        });
        b.nop();
        b.ret();
        let body = b.finish();
        let (_, results) = solve(&body);
        let after = facts_before(&body, &results, 1, 2);
        assert!(after.written.contains(0));
    }

    #[test]
    fn realloc_in_loop_resets_facts() {
        // loop { p = alloc(1); dealloc(p) } — at the alloc the site is fresh.
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let unit = b.temp(Ty::Unit);
        b.storage_live(p);
        b.storage_live(unit);
        let header = b.goto_cont();
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        let after_alloc = b.current_block();
        b.call_intrinsic_cont(Intrinsic::Dealloc, vec![Operand::copy(p)], unit);
        b.goto(header);
        let body = b.finish();
        let (_, results) = solve(&body);
        // Right after the alloc (entry of the following block), the site is
        // not freed even though the loop's previous iteration freed it.
        let state = facts_before(&body, &results, after_alloc.0, 0);
        assert!(!state.freed.contains(0));
    }
}
