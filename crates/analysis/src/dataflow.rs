//! A generic forward dataflow engine.
//!
//! Analyses implement [`Analysis`]; [`solve`] iterates block transfer
//! functions from the entry to a fixpoint and returns each block's entry
//! state in a [`Results`], which can replay transfers to recover the state
//! before any individual [`Location`].

use rstudy_mir::visit::Location;
use rstudy_mir::{BasicBlock, Body, Statement, Terminator};

use crate::cfg::Cfg;

/// A forward dataflow problem over a single body.
pub trait Analysis {
    /// The abstract state tracked per program point.
    type Domain: Clone + PartialEq;

    /// Short name used for telemetry keys (`analysis.<name>.*`).
    fn name(&self) -> &'static str {
        "dataflow"
    }

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
#[derive(Debug, Clone)]
pub struct Results<A: Analysis> {
    /// The analysis instance (kept to replay transfers).
    pub analysis: A,
    /// Per-block entry state, indexed by block.
    pub boundary: Vec<A::Domain>,
}

impl<A: Analysis> Results<A> {
    /// The entry state of `bb`.
    pub fn boundary_state(&self, bb: BasicBlock) -> &A::Domain {
        &self.boundary[bb.index()]
    }

    /// The state *before* the instruction at `loc` executes.
    pub fn state_before(&self, body: &Body, loc: Location) -> A::Domain {
        let data = body.block(loc.block);
        let mut state = self.boundary[loc.block.index()].clone();
        for (i, stmt) in data.statements.iter().enumerate().take(loc.statement_index) {
            self.analysis.apply_statement(
                &mut state,
                stmt,
                Location {
                    block: loc.block,
                    statement_index: i,
                },
            );
        }
        state
    }
}

/// Runs `analysis` on `body` to a fixpoint.
pub fn solve<A: Analysis>(analysis: A, body: &Body) -> Results<A> {
    let cfg = Cfg::new(body);
    let n = body.blocks.len();
    let mut boundary: Vec<A::Domain> = (0..n).map(|_| analysis.bottom(body)).collect();
    if n > 0 {
        analysis.initialize(body, &mut boundary[0]);
    }
    let order = cfg.reverse_postorder();

    // Chaotic iteration in reverse post-order until no block changes.
    // Telemetry accumulates locally and flushes once per solve so the hot
    // loop never touches the registry lock.
    let mut changed = true;
    let mut iterations = 0usize;
    let mut block_visits = 0u64;
    let mut joins_changed = 0u64;
    while changed {
        changed = false;
        iterations += 1;
        for &bb in &order {
            // Compute this block's exit state by replaying its transfers.
            block_visits += 1;
            let out = block_exit_state(&analysis, body, bb, &boundary[bb.index()]);
            for &next in cfg.successors(bb) {
                if analysis.join(&mut boundary[next.index()], &out) {
                    changed = true;
                    joins_changed += 1;
                }
            }
        }
    }

    // The lazy-name variants only build their `format!` strings when
    // telemetry is enabled, so this block costs one atomic load per solve
    // on unprofiled runs.
    let name = analysis.name();
    rstudy_telemetry::counter_with(|| format!("analysis.{name}.solves"), 1);
    rstudy_telemetry::counter_with(|| format!("analysis.{name}.block_visits"), block_visits);
    rstudy_telemetry::counter_with(|| format!("analysis.{name}.worklist_pushes"), joins_changed);
    rstudy_telemetry::record_with(|| format!("analysis.{name}.iterations"), iterations as u64);

    Results { analysis, boundary }
}

/// Applies all of `bb`'s transfers, in program order, to `input`.
fn block_exit_state<A: Analysis>(
    analysis: &A,
    body: &Body,
    bb: BasicBlock,
    input: &A::Domain,
) -> A::Domain {
    let data = body.block(bb);
    let mut state = input.clone();
    for (i, stmt) in data.statements.iter().enumerate() {
        analysis.apply_statement(
            &mut state,
            stmt,
            Location {
                block: bb,
                statement_index: i,
            },
        );
    }
    if let Some(term) = &data.terminator {
        analysis.apply_terminator(
            &mut state,
            term,
            Location {
                block: bb,
                statement_index: data.statements.len(),
            },
        );
    }
    state
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

        let results = solve(Assigned, &body);
        let at_join = results.boundary_state(rstudy_mir::BasicBlock(3));
        // May-analysis: both arms' facts are unioned.
        assert!(at_join.contains(x.index()));
        assert!(at_join.contains(y.index()));
        let at_entry = results.boundary_state(rstudy_mir::BasicBlock(0));
        assert!(at_entry.is_empty());
    }

    #[test]
    fn state_before_replays_statements() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.ret();
        let body = b.finish();
        let results = solve(Assigned, &body);
        let loc = Location {
            block: rstudy_mir::BasicBlock(0),
            statement_index: 0,
        };
        assert!(!results.state_before(&body, loc).contains(x.index()));
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
        let results = solve(Assigned, &body);
        // After one trip through the loop the fact reaches the header.
        assert!(results.boundary_state(header).contains(x.index()));
        assert!(results.boundary_state(exit).contains(x.index()));
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

        let results = ConstProp::solve(&body);
        let expected: ConstMap = [(flag, 0)].into_iter().collect();
        assert_eq!(results.boundary_state(header), &Some(expected));
    }
}
