//! Simple intraprocedural constant propagation.
//!
//! The study found that 17 of 21 buffer-overflow bugs share one shape: the
//! index is *computed in safe code* and the out-of-bounds access happens
//! *later in unsafe code*. Propagating integer constants through the body is
//! what lets the buffer-overflow detector connect the two sites.

use std::collections::BTreeMap;

use rstudy_mir::visit::Location;
use rstudy_mir::{
    BinOp, Body, Const, Local, Operand, Rvalue, Statement, StatementKind, Terminator,
    TerminatorKind, UnOp,
};

use crate::dataflow::{self, Analysis, Results};

/// The flat constant lattice: unknown (⊥ / ⊤ collapsed) or a known value.
///
/// Absent from the map ⇒ unknown. The join of two different constants is
/// unknown, so the map only keeps locals that are the *same* constant on
/// every path.
pub type ConstMap = BTreeMap<Local, i64>;

/// The constant-propagation dataflow problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstProp;

impl ConstProp {
    /// Solves constant propagation for `body`.
    pub fn solve(body: &Body) -> Results<ConstProp> {
        dataflow::solve(ConstProp, body)
    }
}

/// Evaluates an operand under a constant environment.
pub fn eval_operand(state: &ConstMap, op: &Operand) -> Option<i64> {
    match op {
        Operand::Const(Const::Int(v)) => Some(*v),
        Operand::Const(Const::Bool(b)) => Some(i64::from(*b)),
        Operand::Copy(p) | Operand::Move(p) if p.is_local() => state.get(&p.local).copied(),
        _ => None,
    }
}

fn eval_rvalue(state: &ConstMap, rv: &Rvalue) -> Option<i64> {
    match rv {
        Rvalue::Use(op) | Rvalue::Cast(op, _) => eval_operand(state, op),
        Rvalue::UnaryOp(UnOp::Neg, op) => eval_operand(state, op).map(|v| -v),
        Rvalue::UnaryOp(UnOp::Not, op) => eval_operand(state, op).map(|v| i64::from(v == 0)),
        Rvalue::BinaryOp(op, a, b) => {
            let (a, b) = (eval_operand(state, a)?, eval_operand(state, b)?);
            Some(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_div(b)
                }
                BinOp::Rem => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_rem(b)
                }
                BinOp::Eq => i64::from(a == b),
                BinOp::Ne => i64::from(a != b),
                BinOp::Lt => i64::from(a < b),
                BinOp::Le => i64::from(a <= b),
                BinOp::Gt => i64::from(a > b),
                BinOp::Ge => i64::from(a >= b),
                BinOp::And => i64::from(a != 0 && b != 0),
                BinOp::Or => i64::from(a != 0 || b != 0),
                BinOp::Offset => return None,
            })
        }
        _ => None,
    }
}

impl Analysis for ConstProp {
    /// `None` = unreached (the must-analysis top); `Some(map)` = the locals
    /// known to hold the same constant on every path reaching this point.
    type Domain = Option<ConstMap>;

    fn bottom(&self, _body: &Body) -> Option<ConstMap> {
        None
    }

    fn initialize(&self, _body: &Body, state: &mut Option<ConstMap>) {
        *state = Some(ConstMap::new());
    }

    fn join(&self, into: &mut Option<ConstMap>, from: &Option<ConstMap>) -> bool {
        let Some(from) = from else { return false };
        match into {
            None => {
                *into = Some(from.clone());
                true
            }
            Some(map) => {
                let before = map.len();
                map.retain(|l, v| from.get(l) == Some(v));
                map.len() != before
            }
        }
    }

    fn apply_statement(&self, state: &mut Option<ConstMap>, stmt: &Statement, _loc: Location) {
        let Some(map) = state else { return };
        if let StatementKind::Assign(place, rv) = &stmt.kind {
            if place.is_local() {
                match eval_rvalue(map, rv) {
                    Some(v) => {
                        map.insert(place.local, v);
                    }
                    None => {
                        map.remove(&place.local);
                    }
                }
            }
        }
    }

    fn apply_terminator(&self, state: &mut Option<ConstMap>, term: &Terminator, _loc: Location) {
        let Some(map) = state else { return };
        if let TerminatorKind::Call { destination, .. } = &term.kind {
            if destination.is_local() {
                map.remove(&destination.local);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{BasicBlock, Ty};

    fn loc(block: u32, i: usize) -> Location {
        Location {
            block: BasicBlock(block),
            statement_index: i,
        }
    }

    #[test]
    fn straightline_arithmetic_folds() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        let y = b.local("y", Ty::Int);
        b.assign(x, Rvalue::Use(Operand::int(5)));
        b.assign(
            y,
            Rvalue::BinaryOp(BinOp::Mul, Operand::copy(x), Operand::int(3)),
        );
        b.nop();
        b.ret();
        let body = b.finish();
        let r = ConstProp::solve(&body);
        let state = r.state_before(&body, loc(0, 2)).expect("reachable");
        assert_eq!(state.get(&x), Some(&5));
        assert_eq!(state.get(&y), Some(&15));
    }

    #[test]
    fn disagreeing_branches_lose_the_constant() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        let (t, e) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(t);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.goto(join);
        b.switch_to(e);
        b.assign(x, Rvalue::Use(Operand::int(2)));
        b.goto(join);
        b.switch_to(join);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = ConstProp::solve(&body);
        let state = r
            .state_before(
                &body,
                Location {
                    block: join,
                    statement_index: 0,
                },
            )
            .expect("reachable");
        assert_eq!(state.get(&x), None);
    }

    #[test]
    fn agreeing_branches_keep_the_constant() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        b.assign(x, Rvalue::Use(Operand::int(7)));
        let (t, e) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(t);
        b.goto(join);
        b.switch_to(e);
        b.goto(join);
        b.switch_to(join);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = ConstProp::solve(&body);
        let state = r
            .state_before(
                &body,
                Location {
                    block: join,
                    statement_index: 0,
                },
            )
            .expect("reachable");
        assert_eq!(state.get(&x), Some(&7));
    }

    #[test]
    fn calls_clobber_destinations() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.call_intrinsic_cont(rstudy_mir::Intrinsic::AtomicNew, vec![Operand::int(0)], x);
        b.nop();
        b.ret();
        let body = b.finish();
        let r = ConstProp::solve(&body);
        let state = r.state_before(&body, loc(1, 0)).expect("reachable");
        assert_eq!(state.get(&x), None);
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        b.assign(
            x,
            Rvalue::BinaryOp(BinOp::Div, Operand::int(1), Operand::int(0)),
        );
        b.nop();
        b.ret();
        let body = b.finish();
        let r = ConstProp::solve(&body);
        assert_eq!(
            r.state_before(&body, loc(0, 1)).expect("reachable").get(&x),
            None
        );
    }
}
