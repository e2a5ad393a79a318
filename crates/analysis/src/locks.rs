//! Lock-guard lifetime analysis.
//!
//! Rust releases a lock when the guard returned by `lock()`/`read()`/
//! `write()` is dropped — at `StorageDead`, an explicit `drop`, or a move.
//! The paper identifies misjudging that implicit release point as the root
//! cause of most double-lock bugs (§6.1) and builds its double-lock detector
//! on exactly this analysis (§7.2): compute each guard's live range and
//! check whether the same lock is re-acquired inside it.

use rstudy_mir::visit::Location;
use rstudy_mir::{
    Body, Callee, Intrinsic, Local, Operand, Statement, StatementKind, Terminator, TerminatorKind,
};

use crate::bitset::BitSet;
use crate::dataflow::{self, Analysis, Results};

/// How a lock is acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AcquireKind {
    /// `mutex::lock` — exclusive.
    Mutex,
    /// `rwlock::read` — shared.
    Read,
    /// `rwlock::write` — exclusive.
    Write,
}

impl AcquireKind {
    /// Returns `true` if two acquisitions of this kind conflict with each
    /// other on the same lock (read/read does not deadlock; everything
    /// else does for a non-reentrant lock).
    pub fn conflicts_with(self, other: AcquireKind) -> bool {
        !(self == AcquireKind::Read && other == AcquireKind::Read)
    }
}

/// One lock acquisition site in a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquisition {
    /// Where the `lock()` call happens.
    pub location: Location,
    /// The guard local the call returns.
    pub guard: Local,
    /// The operand holding `&lock` (a reference to the lock object).
    pub lock_ref: Option<Local>,
    /// Mutex lock, rwlock read, or rwlock write.
    pub kind: AcquireKind,
}

/// Extracts every lock-acquisition call site from `body`.
pub fn lock_acquisitions(body: &Body) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        if let TerminatorKind::Call {
            func: Callee::Intrinsic(i),
            args,
            destination,
            ..
        } = &term.kind
        {
            let kind = match i {
                Intrinsic::MutexLock => AcquireKind::Mutex,
                Intrinsic::RwLockRead => AcquireKind::Read,
                Intrinsic::RwLockWrite => AcquireKind::Write,
                _ => continue,
            };
            let guard = destination.local;
            let lock_ref = args.first().and_then(Operand::place).map(|p| p.local);
            out.push(Acquisition {
                location: Location {
                    block: bb,
                    statement_index: data.statements.len(),
                },
                guard,
                lock_ref,
                kind,
            });
        }
    }
    out
}

/// Forward *may* analysis: bit set ⇒ the local currently holds a live lock
/// guard (the lock may still be held here).
///
/// A guard becomes held at its acquiring call and is released when it is
/// `StorageDead`-ed, dropped (`Drop` terminator or `mem::drop`), moved out,
/// overwritten, or consumed by `condvar::wait` (which releases the lock
/// while waiting and returns a fresh guard).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeldGuards;

impl HeldGuards {
    /// Solves the analysis for `body`.
    pub fn solve(body: &Body) -> Results<HeldGuards> {
        dataflow::solve(HeldGuards, body)
    }
}

impl Analysis for HeldGuards {
    type Domain = BitSet;

    fn bottom(&self, body: &Body) -> BitSet {
        BitSet::new(body.locals.len())
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn apply_statement(&self, state: &mut BitSet, stmt: &Statement, _loc: Location) {
        match &stmt.kind {
            StatementKind::StorageDead(l) => {
                state.remove(l.index());
            }
            StatementKind::Assign(place, rv) => {
                // Moving the guard elsewhere transfers (not releases) the
                // lock; conservatively track the new holder as held too,
                // and stop tracking an overwritten guard local.
                for op in rv.operands() {
                    if let Operand::Move(p) = op {
                        if p.is_local() && state.contains(p.local.index()) {
                            state.remove(p.local.index());
                            if place.is_local() {
                                state.insert(place.local.index());
                            }
                        }
                    }
                }
                if place.is_local() && !rv.operands().iter().any(|o| o.is_move()) {
                    state.remove(place.local.index());
                }
            }
            _ => {}
        }
    }

    fn apply_terminator(&self, state: &mut BitSet, term: &Terminator, _loc: Location) {
        match &term.kind {
            TerminatorKind::Drop { place, .. } if place.is_local() => {
                state.remove(place.local.index());
            }
            TerminatorKind::Call {
                func,
                args,
                destination,
                ..
            } => {
                match func {
                    Callee::Intrinsic(Intrinsic::MemDrop) => {
                        if let Some(Operand::Copy(p) | Operand::Move(p)) = args.first() {
                            if p.is_local() {
                                state.remove(p.local.index());
                            }
                        }
                    }
                    Callee::Intrinsic(Intrinsic::CondvarWait) => {
                        // wait(cv, guard) releases the guard and returns a
                        // reacquired one into the destination.
                        if let Some(Operand::Copy(p) | Operand::Move(p)) = args.get(1) {
                            if p.is_local() {
                                state.remove(p.local.index());
                            }
                        }
                        if destination.is_local() {
                            state.insert(destination.local.index());
                        }
                        return;
                    }
                    Callee::Intrinsic(i) if i.acquires_lock() => {
                        if destination.is_local() {
                            state.insert(destination.local.index());
                        }
                        return;
                    }
                    _ => {}
                }
                // Moved-away guards stop being tracked under their old name.
                for a in args {
                    if let Operand::Move(p) = a {
                        if p.is_local() {
                            state.remove(p.local.index());
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
    use rstudy_mir::{Mutability, Place, Rvalue, Ty};

    fn mutex_ty() -> Ty {
        Ty::Mutex(Box::new(Ty::Int))
    }

    /// Builds: m = mutex::new(0); r = &m; g = mutex::lock(r);
    /// Returns (builder, m, r, g) with the cursor after the lock call.
    fn locked_body() -> (BodyBuilder, Local, Local, Local) {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let m = b.local("m", mutex_ty());
        let r = b.local("r", Ty::shared_ref(mutex_ty()));
        let g = b.local("g", Ty::Guard(Box::new(Ty::Int)));
        b.storage_live(m);
        b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        b.storage_live(r);
        b.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        b.storage_live(g);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g);
        (b, m, r, g)
    }

    #[test]
    fn acquisitions_are_extracted() {
        let (mut b, _m, r, g) = locked_body();
        b.ret();
        let body = b.finish();
        let acqs = lock_acquisitions(&body);
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].guard, g);
        assert_eq!(acqs[0].lock_ref, Some(r));
        assert_eq!(acqs[0].kind, AcquireKind::Mutex);
    }

    #[test]
    fn guard_is_held_until_storage_dead() {
        let (mut b, _m, _r, g) = locked_body();
        b.nop(); // held here
        b.storage_dead(g);
        b.nop(); // released here
        b.ret();
        let body = b.finish();
        let r = HeldGuards::solve(&body);
        let bb = rstudy_mir::BasicBlock(2);
        let held_at = |i| {
            r.state_before(
                &body,
                Location {
                    block: bb,
                    statement_index: i,
                },
            )
            .contains(g.index())
        };
        assert!(held_at(0), "held right after lock()");
        assert!(held_at(1), "held before StorageDead");
        assert!(!held_at(2), "released after StorageDead");
    }

    #[test]
    fn mem_drop_releases_guard() {
        let (mut b, _m, _r, g) = locked_body();
        let unit = b.temp(Ty::Unit);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::MemDrop, vec![Operand::mov(g)], unit);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = HeldGuards::solve(&body);
        let after = r.state_before(
            &body,
            Location {
                block: rstudy_mir::BasicBlock(3),
                statement_index: 0,
            },
        );
        assert!(!after.contains(g.index()));
    }

    #[test]
    fn condvar_wait_releases_and_reacquires() {
        let (mut b, _m, _r, g) = locked_body();
        let cv = b.local("cv", Ty::Condvar);
        let cvr = b.local("cvr", Ty::shared_ref(Ty::Condvar));
        let g2 = b.local("g2", Ty::Guard(Box::new(Ty::Int)));
        b.storage_live(cv);
        b.call_intrinsic_cont(Intrinsic::CondvarNew, vec![], cv);
        b.storage_live(cvr);
        b.assign(cvr, Rvalue::Ref(Mutability::Not, cv.into()));
        b.storage_live(g2);
        b.call_intrinsic_cont(
            Intrinsic::CondvarWait,
            vec![Operand::copy(cvr), Operand::mov(g)],
            g2,
        );
        b.nop();
        b.ret();
        let body = b.finish();
        let r = HeldGuards::solve(&body);
        let last_bb = rstudy_mir::BasicBlock((body.blocks.len() - 1) as u32);
        let state = r.state_before(
            &body,
            Location {
                block: last_bb,
                statement_index: 0,
            },
        );
        assert!(!state.contains(g.index()), "old guard released by wait");
        assert!(state.contains(g2.index()), "wait returns a held guard");
    }

    #[test]
    fn moving_a_guard_transfers_holding() {
        let (mut b, _m, _r, g) = locked_body();
        let g2 = b.local("g2", Ty::Guard(Box::new(Ty::Int)));
        b.storage_live(g2);
        b.assign(g2, Rvalue::Use(Operand::mov(g)));
        b.nop();
        b.ret();
        let body = b.finish();
        let r = HeldGuards::solve(&body);
        let bb = rstudy_mir::BasicBlock(2);
        let state = r.state_before(
            &body,
            Location {
                block: bb,
                statement_index: 3,
            },
        );
        assert!(!state.contains(g.index()));
        assert!(state.contains(g2.index()));
    }

    #[test]
    fn branches_join_held_sets() {
        // Lock only on one arm; at the join the guard *may* be held.
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let m = b.local("m", mutex_ty());
        let r = b.local("r", Ty::shared_ref(mutex_ty()));
        let g = b.local("g", Ty::Guard(Box::new(Ty::Int)));
        b.storage_live(m);
        b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        b.storage_live(r);
        b.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        b.storage_live(g);
        let (t, e) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(t);
        b.call(
            Callee::Intrinsic(Intrinsic::MutexLock),
            vec![Operand::copy(r)],
            Place::from_local(g),
            Some(join),
        );
        b.switch_to(e);
        b.goto(join);
        b.switch_to(join);
        b.nop();
        b.ret();
        let body = b.finish();
        let res = HeldGuards::solve(&body);
        assert!(res
            .state_before(
                &body,
                Location {
                    block: join,
                    statement_index: 0
                }
            )
            .contains(g.index()));
    }
}
