//! A generic forward dataflow engine.
//!
//! Analyses implement [`Analysis`]; [`solve`] iterates block transfer
//! functions from the entry to a fixpoint over a body's [`Cfg`], visiting
//! only blocks whose entry state changed, and returns each block's entry
//! state in a [`Results`]. A [`Cursor`] over those results recovers the
//! state before any [`Location`]: it walks forward within a block and
//! restarts from the block's entry state on any other seek, so visiting a
//! body's sites in location order costs one transfer per statement. A
//! cursor made by [`Cursor::on_demand`] solves on its first seek, so a
//! walk that finds no site solves nothing.

use std::sync::atomic::{AtomicU64, Ordering};

use rstudy_mir::visit::Location;
use rstudy_mir::{BasicBlock, Body, Statement, Terminator};

use crate::cfg::Cfg;

/// A forward dataflow problem over a single body.
pub trait Analysis {
    /// The abstract state tracked per program point. The solver and cursors
    /// overwrite one scratch state with `clone_from`, so a domain that owns
    /// buffers should reuse them there.
    type Domain: Clone + PartialEq;

    /// The least element (state assumed before anything is known).
    fn bottom(&self, body: &Body) -> Self::Domain;

    /// Adjusts the entry block's boundary state. Defaults to no adjustment.
    fn initialize(&self, _body: &Body, _state: &mut Self::Domain) {}

    /// Joins `from` into `into`; returns `true` if `into` changed.
    ///
    /// A join may only move `into` up a lattice of finite height (a bitset
    /// union, or a map that can only lose entries once it exists). [`solve`]
    /// has no pass limit: that bound is what makes it terminate.
    fn join(&self, into: &mut Self::Domain, from: &Self::Domain) -> bool;

    /// Applies one statement's transfer function.
    fn apply_statement(&self, state: &mut Self::Domain, stmt: &Statement, loc: Location);

    /// Applies one terminator's transfer function.
    fn apply_terminator(&self, state: &mut Self::Domain, term: &Terminator, loc: Location);
}

/// Fixpoint results: one entry state per block.
#[derive(Debug)]
pub struct Results<A: Analysis> {
    /// The analysis instance (kept to replay transfers).
    pub analysis: A,
    /// Per-block entry state, indexed by block.
    pub boundary: Vec<A::Domain>,
    /// Transfers applied so far: the solve's, then every cursor's.
    work: AtomicU64,
}

impl<A: Analysis> Results<A> {
    /// The entry state of `bb`.
    pub fn boundary_state(&self, bb: BasicBlock) -> &A::Domain {
        &self.boundary[bb.index()]
    }

    /// A cursor over these results for `body`, the body they were solved on.
    pub fn cursor<'r>(&'r self, body: &'r Body) -> Cursor<'r, A> {
        Cursor::on_demand(body, move || self)
    }

    /// The statement and terminator transfers made for these results: the
    /// solve's passes plus every cursor walk so far.
    pub fn work(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }
}

/// Reads the state before each location of one body, after rustc's
/// `ResultsCursor`: it moves forward within a block and restarts from the
/// block's entry state on any other seek, so its answers never depend on
/// the order of seeks, and seeks in location order cost one transfer per
/// statement.
pub struct Cursor<'r, A: Analysis> {
    /// The results, once the first seek has called `solve`.
    results: Option<&'r Results<A>>,
    solve: Option<Box<dyn FnOnce() -> &'r Results<A> + 'r>>,
    body: &'r Body,
    /// The state before `at`, once a seek set it.
    state: Option<A::Domain>,
    at: Option<Location>,
}

impl<'r, A: Analysis> Cursor<'r, A> {
    /// A cursor over `body` whose results `solve` returns when the first
    /// seek needs them; a cursor that never seeks never calls it.
    pub fn on_demand(body: &'r Body, solve: impl FnOnce() -> &'r Results<A> + 'r) -> Cursor<'r, A> {
        Cursor {
            results: None,
            solve: Some(Box::new(solve)),
            body,
            state: None,
            at: None,
        }
    }

    /// The state *before* the instruction at `loc` executes.
    pub fn seek_before(&mut self, loc: Location) -> &A::Domain {
        let results = match self.results {
            Some(results) => results,
            None => {
                let solve = self
                    .solve
                    .take()
                    .expect("an unsolved cursor keeps its solver");
                *self.results.insert(solve())
            }
        };
        let from = match self.at {
            Some(at) if at.block == loc.block && at.statement_index <= loc.statement_index => {
                at.statement_index
            }
            _ => {
                let entry = results.boundary_state(loc.block);
                match &mut self.state {
                    Some(state) => state.clone_from(entry),
                    None => self.state = Some(entry.clone()),
                }
                0
            }
        };
        let state = self
            .state
            .as_mut()
            .expect("the state is set before the first walk");
        let applied = transfer(
            &results.analysis,
            self.body,
            loc.block,
            state,
            from,
            loc.statement_index,
        );
        results.work.fetch_add(applied, Ordering::Relaxed);
        self.at = Some(loc);
        state
    }
}

/// Runs `analysis` on `body`, whose control-flow graph is `cfg`, to its
/// least fixpoint.
///
/// Blocks are visited round-robin in reverse post-order, but only those
/// whose entry state changed since their last visit: every reachable block
/// on the first pass, then only the successors a join changed. A block
/// whose entry state is unchanged would produce the same exit state, and
/// joining that again changes nothing, so skipping it reaches the fixpoint
/// a visit to every block on every pass reaches.
pub fn solve<A: Analysis>(analysis: A, body: &Body, cfg: &Cfg) -> Results<A> {
    let n = body.blocks.len();
    let mut boundary: Vec<A::Domain> = (0..n).map(|_| analysis.bottom(body)).collect();
    if n > 0 {
        analysis.initialize(body, &mut boundary[0]);
    }
    let order = cfg.reverse_postorder();
    let mut dirty = vec![false; n];
    for &bb in order {
        dirty[bb.index()] = true;
    }
    let mut pending = order.len();
    // One scratch state holds each visited block's exit state in turn.
    let mut exit = analysis.bottom(body);

    // Telemetry accumulates locally and flushes once per solve so the hot
    // loop never touches the registry lock.
    let mut iterations = 0usize;
    let mut block_visits = 0u64;
    let mut joins_changed = 0u64;
    let mut work = 0u64;
    while pending > 0 {
        iterations += 1;
        for &bb in order {
            if !std::mem::take(&mut dirty[bb.index()]) {
                continue;
            }
            pending -= 1;
            block_visits += 1;
            exit.clone_from(&boundary[bb.index()]);
            work += transfer(&analysis, body, bb, &mut exit, 0, usize::MAX);
            for &next in cfg.successors(bb) {
                if analysis.join(&mut boundary[next.index()], &exit) {
                    joins_changed += 1;
                    if !std::mem::replace(&mut dirty[next.index()], true) {
                        pending += 1;
                    }
                }
            }
        }
    }

    rstudy_telemetry::counter("analysis.dataflow.solves", 1);
    rstudy_telemetry::counter("analysis.dataflow.block_visits", block_visits);
    rstudy_telemetry::counter("analysis.dataflow.worklist_pushes", joins_changed);
    rstudy_telemetry::record("analysis.dataflow.iterations", iterations as u64);

    Results {
        analysis,
        boundary,
        work: AtomicU64::new(work),
    }
}

/// Applies the transfers of `bb`'s instructions `from..to` to `state`, in
/// program order, and returns how many it applied. Index
/// `statements.len()` is the terminator, so any larger `to` ends after it.
fn transfer<A: Analysis>(
    analysis: &A,
    body: &Body,
    bb: BasicBlock,
    state: &mut A::Domain,
    from: usize,
    to: usize,
) -> u64 {
    let data = body.block(bb);
    let end = to.min(data.statements.len());
    let loc = |statement_index| Location {
        block: bb,
        statement_index,
    };
    let mut applied = 0;
    for (i, stmt) in data.statements.iter().enumerate().take(end).skip(from) {
        analysis.apply_statement(state, stmt, loc(i));
        applied += 1;
    }
    if let Some(term) = data.terminator.as_ref().filter(|_| from <= end && end < to) {
        analysis.apply_terminator(state, term, loc(end));
        applied += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::const_prop::{ConstMap, ConstProp};
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{BinOp, Operand, Rvalue, StatementKind, Ty};

    /// Forward "has been assigned" analysis used to exercise the engine.
    struct Assigned;

    impl Analysis for Assigned {
        type Domain = BitSet;

        fn bottom(&self, body: &Body) -> BitSet {
            BitSet::new(body.locals.len())
        }

        fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
            into.union_with(from)
        }

        fn apply_statement(&self, state: &mut BitSet, stmt: &Statement, _loc: Location) {
            if let StatementKind::Assign(place, _) = &stmt.kind {
                if place.is_local() {
                    state.insert(place.local.index());
                }
            }
        }

        fn apply_terminator(&self, _state: &mut BitSet, _term: &Terminator, _loc: Location) {}
    }

    #[test]
    fn forward_facts_merge_at_joins() {
        // bb0: branch; bb1 assigns _1; bb2 assigns _2; bb3 joins.
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        let y = b.local("y", Ty::Int);
        let (t, e) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(t);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.goto(join);
        b.switch_to(e);
        b.assign(y, Rvalue::Use(Operand::int(2)));
        b.goto(join);
        b.switch_to(join);
        b.ret();
        let body = b.finish();

        let results = solve(Assigned, &body, &Cfg::new(&body));
        let at_join = results.boundary_state(rstudy_mir::BasicBlock(3));
        // May-analysis: both arms' facts are unioned.
        assert!(at_join.contains(x.index()));
        assert!(at_join.contains(y.index()));
        let at_entry = results.boundary_state(rstudy_mir::BasicBlock(0));
        assert!(at_entry.is_empty());
    }

    #[test]
    fn cursor_walks_forward_and_restarts_on_a_backward_seek() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        let y = b.local("y", Ty::Int);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.assign(y, Rvalue::Use(Operand::int(2)));
        b.ret();
        let body = b.finish();
        let results = solve(Assigned, &body, &Cfg::new(&body));
        // One pass over the block's two statements and its terminator.
        assert_eq!(results.work(), 3);
        let at = |statement_index| Location {
            block: rstudy_mir::BasicBlock(0),
            statement_index,
        };
        let mut cursor = results.cursor(&body);
        assert!(cursor.seek_before(at(0)).is_empty());
        assert!(!cursor.seek_before(at(1)).contains(y.index()));
        assert!(cursor.seek_before(at(2)).contains(y.index()));
        assert_eq!(
            results.work(),
            3 + 2,
            "forward seeks apply each statement once"
        );
        // Seeking backward starts again from the block's entry state.
        let before_y = cursor.seek_before(at(1));
        assert!(before_y.contains(x.index()) && !before_y.contains(y.index()));
        assert_eq!(results.work(), 3 + 2 + 1);
    }

    #[test]
    fn loops_reach_fixpoint() {
        // A loop whose body assigns _1; the fact must flow around the back edge.
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        let header = b.goto_cont();
        let body_bb = b.new_block();
        let exit = b.new_block();
        b.switch_int(Operand::int(0), vec![(0, body_bb)], exit);
        b.switch_to(body_bb);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.goto(header);
        b.switch_to(exit);
        b.ret();
        let body = b.finish();
        let results = solve(Assigned, &body, &Cfg::new(&body));
        // After one trip through the loop the fact reaches the header.
        assert!(results.boundary_state(header).contains(x.index()));
        assert!(results.boundary_state(exit).contains(x.index()));
        // The first pass visits all four blocks (five transfers); the back
        // edge then changes only the header, and the header the loop body
        // and the exit (four more). A full pass per change would take 15.
        assert_eq!(results.work(), 9);
    }

    #[test]
    fn an_on_demand_cursor_solves_at_its_first_seek() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.ret();
        let body = b.finish();
        let cfg = Cfg::new(&body);
        let slot = std::cell::OnceCell::new();
        let solved = || slot.get_or_init(|| solve(Assigned, &body, &cfg));
        drop(Cursor::on_demand(&body, solved));
        assert!(
            slot.get().is_none(),
            "a cursor that never seeks solves nothing"
        );
        let mut cursor = Cursor::on_demand(&body, solved);
        let after = Location {
            block: rstudy_mir::BasicBlock(0),
            statement_index: 1,
        };
        assert!(cursor.seek_before(after).contains(x.index()));
        assert_eq!(slot.get().map(Results::work), Some(2 + 1));
    }

    #[test]
    fn constant_chains_around_a_loop_converge() {
        // bb0 sets `flag` and a chain of K locals to 0; bb1 branches on
        // `flag`; bb2 shifts the chain down one (`c0 = c1; …`), bumps the
        // last link and loops. Each pass forgets one more constant, so the
        // solve takes about K passes over only four blocks.
        const K: usize = 40;
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let flag = b.local("flag", Ty::Int);
        let chain: Vec<_> = (0..K).map(|i| b.local(format!("c{i}"), Ty::Int)).collect();
        for &l in std::iter::once(&flag).chain(&chain) {
            b.assign(l, Rvalue::Use(Operand::int(0)));
        }
        let header = b.goto_cont();
        let (loop_bb, exit) = (b.new_block(), b.new_block());
        b.switch_int(Operand::copy(flag), vec![(0, exit)], loop_bb);
        b.switch_to(loop_bb);
        for pair in chain.windows(2) {
            b.assign(pair[0], Rvalue::Use(Operand::copy(pair[1])));
        }
        let last = chain[K - 1];
        b.assign(
            last,
            Rvalue::BinaryOp(BinOp::Add, Operand::copy(last), Operand::int(1)),
        );
        b.goto(header);
        b.switch_to(exit);
        b.ret();
        let body = b.finish();

        let results = solve(ConstProp, &body, &Cfg::new(&body));
        let expected: ConstMap = [(flag, 0)].into_iter().collect();
        assert_eq!(results.boundary_state(header), &Some(expected));
    }
}
