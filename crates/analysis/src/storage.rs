//! Storage- and initialization-tracking dataflow analyses.
//!
//! These mirror the facts the paper's use-after-free detector extracts from
//! MIR: a local's storage window (`StorageLive`..`StorageDead`) and whether
//! its value may have been invalidated (dropped, moved out, or never
//! initialized).

use rstudy_mir::visit::Location;
use rstudy_mir::{
    Body, Callee, Intrinsic, Operand, Statement, StatementKind, Terminator, TerminatorKind,
};

use crate::bitset::BitSet;
use crate::dataflow::{self, Analysis, Results};

/// Forward *may* analysis: bit set ⇒ the local's storage may be dead here.
///
/// Before its `StorageLive` a local has no storage, so all non-argument
/// locals start dead at the function entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaybeStorageDead;

impl MaybeStorageDead {
    /// Solves the analysis for `body`.
    pub fn solve(body: &Body) -> Results<MaybeStorageDead> {
        dataflow::solve(MaybeStorageDead, body)
    }
}

impl Analysis for MaybeStorageDead {
    type Domain = BitSet;

    fn bottom(&self, body: &Body) -> BitSet {
        BitSet::new(body.locals.len())
    }

    fn initialize(&self, body: &Body, state: &mut BitSet) {
        for l in body.local_indices() {
            if l != rstudy_mir::Local::RETURN && !body.is_arg(l) {
                state.insert(l.index());
            }
        }
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn apply_statement(&self, state: &mut BitSet, stmt: &Statement, _loc: Location) {
        match &stmt.kind {
            StatementKind::StorageLive(l) => {
                state.remove(l.index());
            }
            StatementKind::StorageDead(l) => {
                state.insert(l.index());
            }
            _ => {}
        }
    }

    fn apply_terminator(&self, _state: &mut BitSet, _term: &Terminator, _loc: Location) {}
}

/// Forward *may* analysis: bit set ⇒ the local's **value** may be invalid —
/// uninitialized, moved out, explicitly dropped, or storage-dead.
///
/// This is the core fact behind use-after-free, double-free, and
/// invalid-free reasoning: dereferencing a pointer whose pointee is in this
/// set, or dropping a value in this set, is suspicious.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaybeInvalid;

impl MaybeInvalid {
    /// Solves the analysis for `body`.
    pub fn solve(body: &Body) -> Results<MaybeInvalid> {
        dataflow::solve(MaybeInvalid, body)
    }
}

fn invalidate_moves(state: &mut BitSet, op: &Operand) {
    if let Operand::Move(place) = op {
        if place.is_local() {
            state.insert(place.local.index());
        }
    }
}

impl Analysis for MaybeInvalid {
    type Domain = BitSet;

    fn bottom(&self, body: &Body) -> BitSet {
        BitSet::new(body.locals.len())
    }

    fn initialize(&self, body: &Body, state: &mut BitSet) {
        // Arguments arrive initialized; everything else starts invalid.
        for l in body.local_indices() {
            if !body.is_arg(l) {
                state.insert(l.index());
            }
        }
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn apply_statement(&self, state: &mut BitSet, stmt: &Statement, _loc: Location) {
        match &stmt.kind {
            StatementKind::Assign(place, rv) => {
                for op in rv.operands() {
                    invalidate_moves(state, op);
                }
                if place.is_local() {
                    state.remove(place.local.index());
                }
            }
            StatementKind::StorageDead(l) => {
                state.insert(l.index());
            }
            StatementKind::StorageLive(_) | StatementKind::Nop => {}
        }
    }

    fn apply_terminator(&self, state: &mut BitSet, term: &Terminator, _loc: Location) {
        match &term.kind {
            TerminatorKind::Drop { place, .. } if place.is_local() => {
                state.insert(place.local.index());
            }
            TerminatorKind::Call {
                func,
                args,
                destination,
                ..
            } => {
                for a in args {
                    invalidate_moves(state, a);
                }
                // `mem::drop(x)` and `mem::forget(x)` consume by value even
                // when written with a copy operand.
                if let Callee::Intrinsic(Intrinsic::MemDrop | Intrinsic::MemForget) = func {
                    if let Some(Operand::Copy(p) | Operand::Move(p)) = args.first() {
                        if p.is_local() {
                            state.insert(p.local.index());
                        }
                    }
                }
                if destination.is_local() {
                    state.remove(destination.local.index());
                }
            }
            _ => {}
        }
    }
}

/// Forward *may* analysis: bit set ⇒ the local's value may have been
/// **freed** — explicitly dropped, moved out, consumed by `mem::drop`, or
/// storage-dead. Unlike [`MaybeInvalid`], never-initialized locals are *not*
/// in the set, so this is the right input for use-after-free reasoning
/// (reading an uninitialized local is a different bug class).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaybeFreed;

impl MaybeFreed {
    /// Solves the analysis for `body`.
    pub fn solve(body: &Body) -> Results<MaybeFreed> {
        dataflow::solve(MaybeFreed, body)
    }
}

impl Analysis for MaybeFreed {
    type Domain = BitSet;

    fn bottom(&self, body: &Body) -> BitSet {
        BitSet::new(body.locals.len())
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn apply_statement(&self, state: &mut BitSet, stmt: &Statement, _loc: Location) {
        match &stmt.kind {
            StatementKind::Assign(place, rv) => {
                for op in rv.operands() {
                    invalidate_moves(state, op);
                }
                if place.is_local() {
                    state.remove(place.local.index());
                }
            }
            StatementKind::StorageDead(l) => {
                state.insert(l.index());
            }
            StatementKind::StorageLive(_) | StatementKind::Nop => {}
        }
    }

    fn apply_terminator(&self, state: &mut BitSet, term: &Terminator, _loc: Location) {
        match &term.kind {
            TerminatorKind::Drop { place, .. } if place.is_local() => {
                state.insert(place.local.index());
            }
            TerminatorKind::Call {
                func,
                args,
                destination,
                ..
            } => {
                for a in args {
                    invalidate_moves(state, a);
                }
                if let Callee::Intrinsic(Intrinsic::MemDrop) = func {
                    if let Some(Operand::Copy(p) | Operand::Move(p)) = args.first() {
                        if p.is_local() {
                            state.insert(p.local.index());
                        }
                    }
                }
                if destination.is_local() {
                    state.remove(destination.local.index());
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::visit::Location;
    use rstudy_mir::{BasicBlock, Operand, Rvalue, Ty};

    fn loc(block: u32, i: usize) -> Location {
        Location {
            block: BasicBlock(block),
            statement_index: i,
        }
    }

    #[test]
    fn storage_window_tracks_live_and_dead() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        b.nop(); // 0: before StorageLive
        b.storage_live(x); // 1
        b.nop(); // 2: inside window
        b.storage_dead(x); // 3
        b.nop(); // 4: after StorageDead
        b.ret();
        let body = b.finish();
        let r = MaybeStorageDead::solve(&body);
        assert!(r.state_before(&body, loc(0, 0)).contains(x.index()));
        assert!(!r.state_before(&body, loc(0, 2)).contains(x.index()));
        assert!(r.state_before(&body, loc(0, 4)).contains(x.index()));
    }

    #[test]
    fn arguments_start_with_storage() {
        let mut b = BodyBuilder::new("f", 1, Ty::Unit);
        let a = b.arg("a", Ty::Int);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = MaybeStorageDead::solve(&body);
        assert!(!r.state_before(&body, loc(0, 0)).contains(a.index()));
    }

    #[test]
    fn assignment_validates_and_move_invalidates() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Named("S".into()));
        let y = b.local("y", Ty::Named("S".into()));
        b.storage_live(x); // 0
        b.storage_live(y); // 1
        b.assign(x, Rvalue::Use(Operand::int(1))); // 2
        b.assign(y, Rvalue::Use(Operand::mov(x))); // 3: moves x out
        b.nop(); // 4
        b.ret();
        let body = b.finish();
        let r = MaybeInvalid::solve(&body);
        assert!(r.state_before(&body, loc(0, 2)).contains(x.index()));
        assert!(!r.state_before(&body, loc(0, 3)).contains(x.index()));
        let after_move = r.state_before(&body, loc(0, 4));
        assert!(after_move.contains(x.index()), "moved-out x is invalid");
        assert!(!after_move.contains(y.index()));
    }

    #[test]
    fn drop_terminator_invalidates() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Named("S".into()));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.drop_cont(x);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = MaybeInvalid::solve(&body);
        assert!(r.state_before(&body, loc(1, 0)).contains(x.index()));
    }

    #[test]
    fn mem_drop_call_invalidates_argument() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let g = b.local("g", Ty::Guard(Box::new(Ty::Int)));
        let unit = b.temp(Ty::Unit);
        b.storage_live(g);
        b.assign(g, Rvalue::Use(Operand::int(0)));
        b.storage_live(unit);
        b.call_intrinsic_cont(rstudy_mir::Intrinsic::MemDrop, vec![Operand::mov(g)], unit);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = MaybeInvalid::solve(&body);
        assert!(r.state_before(&body, loc(1, 0)).contains(g.index()));
    }

    #[test]
    fn maybe_freed_excludes_uninitialized() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        b.storage_live(x); // 0
        b.nop(); // 1: x uninitialized but NOT freed
        b.assign(x, Rvalue::Use(Operand::int(1))); // 2
        b.storage_dead(x); // 3
        b.nop(); // 4: x freed
        b.ret();
        let body = b.finish();
        let r = MaybeFreed::solve(&body);
        assert!(!r.state_before(&body, loc(0, 1)).contains(x.index()));
        assert!(r.state_before(&body, loc(0, 4)).contains(x.index()));
    }

    #[test]
    fn branches_may_invalidate() {
        // One arm drops x: after the join x is *maybe* invalid.
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Named("S".into()));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        let (t, e) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(t);
        b.drop_place(x, join);
        b.switch_to(e);
        b.goto(join);
        b.switch_to(join);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = MaybeInvalid::solve(&body);
        assert!(r
            .state_before(
                &body,
                Location {
                    block: join,
                    statement_index: 0
                }
            )
            .contains(x.index()));
    }
}
