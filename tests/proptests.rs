//! Property-based tests across crates: parser/printer round trips on
//! generated bodies, interpreter safety on generated safe programs, and
//! true fixpoints of every shipped forward dataflow analysis on generated
//! branchy, looping bodies.

use std::fmt::Debug;

use proptest::prelude::*;
use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::cfg::Cfg;
use rstudy_analysis::const_prop::ConstProp;
use rstudy_analysis::dataflow::{Analysis, Results};
use rstudy_analysis::locks::HeldGuards;
use rstudy_analysis::storage::{MaybeFreed, MaybeInvalid, MaybeStorageDead};
use rstudy_interp::Interpreter;
use rstudy_mir::build::BodyBuilder;
use rstudy_mir::parse::parse_body;
use rstudy_mir::pretty::body_to_string;
use rstudy_mir::validate::validate_body;
use rstudy_mir::visit::Location;
use rstudy_mir::{
    BasicBlock, BinOp, Body, Callee, Intrinsic, Local, Mutability, Operand, Place, Program, Rvalue,
    Ty,
};

/// One generated straight-line operation on int locals.
#[derive(Debug, Clone)]
enum Op {
    Const(i64),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Copy(usize),
}

fn op_strategy(n_prev: usize) -> impl Strategy<Value = Op> {
    if n_prev == 0 {
        (-100i64..100).prop_map(Op::Const).boxed()
    } else {
        prop_oneof![
            (-100i64..100).prop_map(Op::Const),
            (0..n_prev, 0..n_prev).prop_map(|(a, b)| Op::Add(a, b)),
            (0..n_prev, 0..n_prev).prop_map(|(a, b)| Op::Sub(a, b)),
            (0..n_prev, 0..n_prev).prop_map(|(a, b)| Op::Mul(a, b)),
            (0..n_prev).prop_map(Op::Copy),
        ]
        .boxed()
    }
}

/// A sequence of ops where each may reference earlier results.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    (1usize..12).prop_flat_map(|len| {
        let mut strat = Just(Vec::with_capacity(len)).boxed();
        for i in 0..len {
            strat = (strat, op_strategy(i))
                .prop_map(|(mut v, op)| {
                    v.push(op);
                    v
                })
                .boxed();
        }
        strat
    })
}

/// Builds a straight-line body computing the ops; returns the body and the
/// reference result (i64 semantics mirror the interpreter's wrapping ops).
fn build_program(ops: &[Op]) -> (Program, i64) {
    let mut b = BodyBuilder::new("main", 0, Ty::Int);
    let mut locals: Vec<Local> = Vec::new();
    let mut values: Vec<i64> = Vec::new();
    for op in ops {
        let l = b.local(format!("v{}", locals.len()), Ty::Int);
        b.storage_live(l);
        let (rv, val) = match op {
            Op::Const(c) => (Rvalue::Use(Operand::int(*c)), *c),
            Op::Add(x, y) => (
                Rvalue::BinaryOp(
                    BinOp::Add,
                    Operand::copy(locals[*x]),
                    Operand::copy(locals[*y]),
                ),
                values[*x].wrapping_add(values[*y]),
            ),
            Op::Sub(x, y) => (
                Rvalue::BinaryOp(
                    BinOp::Sub,
                    Operand::copy(locals[*x]),
                    Operand::copy(locals[*y]),
                ),
                values[*x].wrapping_sub(values[*y]),
            ),
            Op::Mul(x, y) => (
                Rvalue::BinaryOp(
                    BinOp::Mul,
                    Operand::copy(locals[*x]),
                    Operand::copy(locals[*y]),
                ),
                values[*x].wrapping_mul(values[*y]),
            ),
            Op::Copy(x) => (Rvalue::Use(Operand::copy(locals[*x])), values[*x]),
        };
        b.assign(l, rv);
        locals.push(l);
        values.push(val);
    }
    let last = *locals.last().expect("at least one op");
    let result = *values.last().expect("at least one value");
    b.assign(Place::RETURN, Rvalue::Use(Operand::copy(last)));
    b.ret();
    (Program::from_bodies([b.finish()]), result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Printing and reparsing a generated body is a fixpoint, and the
    /// reparsed body validates.
    #[test]
    fn print_parse_roundtrip(ops in ops_strategy()) {
        let (program, _) = build_program(&ops);
        let body = program.entry_body().unwrap();
        let printed = body_to_string(body);
        let reparsed = parse_body(&printed).expect("reparse");
        prop_assert_eq!(body_to_string(&reparsed), printed);
        prop_assert!(validate_body(&reparsed).is_ok());
    }

    /// Generated safe programs execute cleanly and compute the reference
    /// value — the interpreter's arithmetic agrees with i64 semantics and
    /// its memory model never faults on initialized straight-line code.
    #[test]
    fn interpreter_agrees_with_reference(ops in ops_strategy()) {
        let (program, expected) = build_program(&ops);
        let outcome = Interpreter::new(&program).run();
        prop_assert!(outcome.is_clean(), "{:?}", outcome);
        prop_assert_eq!(outcome.return_int(), Some(expected));
    }

    /// The static suite never reports anything on generated safe programs
    /// (false-positive hygiene on the easiest population).
    #[test]
    fn detectors_are_quiet_on_safe_programs(ops in ops_strategy()) {
        let (program, _) = build_program(&ops);
        let report = rstudy_core::suite::DetectorSuite::new().check_program(&program);
        prop_assert!(report.is_clean(), "{:#?}", report.diagnostics());
    }
}

/// One generated statement: a kind code and two local picks.
type GenStmt = (u8, usize, usize);

/// One generated block: its statements, and how it leaves when it has a
/// single successor (a goto or one of the heap, lock and drop calls).
type GenBlock = (Vec<GenStmt>, u8);

fn block_strategy() -> impl Strategy<Value = GenBlock> {
    (
        proptest::collection::vec((0u8..8, 0usize..8, 0usize..8), 0..5),
        0u8..7,
    )
}

/// Builds an 8-block body whose edges come from `edges`: a block with no
/// out-edge returns, one with a single out-edge leaves through its block's
/// exit kind, and one with more switches on `a` to its first two targets.
/// Statements mark storage live or dead, assign constants and sums, copy,
/// move, borrow the mutex and write through a pointer, over int, pointer,
/// mutex and guard locals.
fn branchy_body(edges: &[(u32, u32)], blocks: &[GenBlock]) -> Body {
    let mut b = BodyBuilder::new("f", 0, Ty::Unit);
    let mutex = Ty::Mutex(Box::new(Ty::Int));
    let a = b.local("a", Ty::Int);
    let c = b.local("c", Ty::Int);
    let p = b.local("p", Ty::mut_ptr(Ty::Int));
    let q = b.local("q", Ty::mut_ptr(Ty::Int));
    let m = b.local("m", mutex.clone());
    let r = b.local("r", Ty::shared_ref(mutex));
    let g = b.local("g", Ty::Guard(Box::new(Ty::Int)));
    let h = b.local("h", Ty::Guard(Box::new(Ty::Int)));
    let unit = b.local("u", Ty::Unit);
    let locals = [a, c, p, q, m, r, g, h];
    let ints = [a, c];
    let copies = [(a, c), (c, a), (p, q), (q, p)];
    let moves = [(a, c), (q, p), (h, g), (g, h)];
    for _ in 1..8 {
        b.new_block();
    }
    for (i, (stmts, exit)) in (0u32..).zip(blocks) {
        b.switch_to(BasicBlock(i));
        for &(kind, x, y) in stmts {
            match kind {
                0 => b.storage_live(locals[x]),
                1 => b.storage_dead(locals[x]),
                2 => b.assign(ints[x % 2], Rvalue::Use(Operand::int(y as i64 % 3))),
                3 => b.assign(
                    ints[x % 2],
                    Rvalue::BinaryOp(BinOp::Add, Operand::copy(ints[y % 2]), Operand::int(1)),
                ),
                4 => {
                    let (to, from) = copies[x % copies.len()];
                    b.assign(to, Rvalue::Use(Operand::copy(from)));
                }
                5 => {
                    let (to, from) = moves[x % moves.len()];
                    b.assign(to, Rvalue::Use(Operand::mov(from)));
                }
                6 => b.assign(r, Rvalue::Ref(Mutability::Not, m.into())),
                _ => b.assign(Place::from_local(p).deref(), Rvalue::Use(Operand::int(1))),
            }
        }
        let outs: Vec<BasicBlock> = edges
            .iter()
            .filter(|(from, _)| *from == i)
            .map(|(_, to)| BasicBlock(*to))
            .collect();
        match (outs.as_slice(), exit) {
            ([], _) => b.ret(),
            ([t, otherwise, ..], _) => b.switch_int(Operand::copy(a), vec![(0, *t)], *otherwise),
            ([t], 0) => b.goto(*t),
            ([t], 6) => b.drop_place(h, *t),
            ([t], kind) => {
                let (intrinsic, args, dest) = match kind {
                    1 => (Intrinsic::Alloc, vec![Operand::int(1)], p),
                    2 => (Intrinsic::Dealloc, vec![Operand::copy(p)], unit),
                    3 => (
                        Intrinsic::PtrWrite,
                        vec![Operand::copy(q), Operand::int(1)],
                        unit,
                    ),
                    4 => (Intrinsic::MutexLock, vec![Operand::copy(r)], g),
                    _ => (Intrinsic::MemDrop, vec![Operand::mov(g)], unit),
                };
                b.call(Callee::Intrinsic(intrinsic), args, dest, Some(*t));
            }
        }
    }
    b.finish()
}

/// Checks that `first` is a true fixpoint of its analysis on `body`:
/// solving again (`second`) gives the same boundaries, the entry boundary
/// holds what `initialize` sets, and no reachable edge would change its
/// target's boundary if propagated once more.
fn assert_fixpoint<A: Analysis>(
    body: &Body,
    first: &Results<A>,
    second: &Results<A>,
) -> Result<(), String>
where
    A::Domain: Debug,
{
    let analysis = &first.analysis;
    prop_assert_eq!(&first.boundary, &second.boundary, "solving twice differs");
    let mut init = analysis.bottom(body);
    analysis.initialize(body, &mut init);
    let mut entry = first.boundary[0].clone();
    prop_assert!(
        !analysis.join(&mut entry, &init),
        "the entry boundary lacks the initial state"
    );
    let cfg = Cfg::new(body);
    for bb in cfg.reverse_postorder() {
        let data = body.block(bb);
        let at_terminator = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        let mut exit = first.state_before(body, at_terminator);
        if let Some(term) = &data.terminator {
            analysis.apply_terminator(&mut exit, term, at_terminator);
        }
        for &succ in cfg.successors(bb) {
            let mut target = first.boundary[succ.index()].clone();
            prop_assert!(
                !analysis.join(&mut target, &exit),
                "edge {:?} -> {:?} changes its target",
                bb,
                succ
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every shipped forward analysis reaches a true fixpoint on random
    /// 8-block CFGs with branches, loops and unreachable blocks.
    #[test]
    fn forward_analyses_reach_a_true_fixpoint(
        edges in proptest::collection::vec((0u32..8, 0u32..8), 1..16),
        blocks in proptest::collection::vec(block_strategy(), 8..9)
    ) {
        let body = branchy_body(&edges, &blocks);
        assert_fixpoint(&body, &MaybeStorageDead::solve(&body), &MaybeStorageDead::solve(&body))?;
        assert_fixpoint(&body, &MaybeInvalid::solve(&body), &MaybeInvalid::solve(&body))?;
        assert_fixpoint(&body, &MaybeFreed::solve(&body), &MaybeFreed::solve(&body))?;
        assert_fixpoint(&body, &HeldGuards::solve(&body), &HeldGuards::solve(&body))?;
        assert_fixpoint(&body, &ConstProp::solve(&body), &ConstProp::solve(&body))?;
        let program = Program::from_bodies([body]);
        let body = program.function("f").expect("generated body");
        let (first, second) = (AnalysisCache::new(&program), AnalysisCache::new(&program));
        assert_fixpoint(body, first.heap_state("f"), second.heap_state("f"))?;
    }
}
