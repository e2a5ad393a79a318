//! The one driver of the interprocedural summaries, the per-function
//! dereference summaries shared by the detectors that reason about
//! pointers passed across calls, and the one data-dependence closure.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;

use rstudy_analysis::bitset::BitSet;
use rstudy_analysis::cache::AnalysisCache;
use rstudy_mir::{Body, Callee, Local, StatementKind, TerminatorKind};

use crate::detectors::AnalysisContext;

/// Runs one interprocedural summary to its least fixpoint, bottom-up over
/// `cx`'s call graph, counting each call of `step` in
/// [`AnalysisContext::summary_visits`].
///
/// `step(f, body)` adds to `f`'s summary what its body and its callees'
/// current summaries imply, and returns whether the summary grew. It reads
/// no other summary and never shrinks one, so the fixpoint does not depend
/// on the order of visits. Every function is queued once, callees first,
/// and again only when a callee's summary grew: an acyclic program is
/// visited once per function; recursion iterates only where one changed.
pub(crate) fn summarize(cx: &AnalysisContext<'_>, mut step: impl FnMut(&str, &Body) -> bool) {
    let graph = cx.cache().call_graph();
    let mut queue: VecDeque<&str> = graph.bottom_up().iter().copied().collect();
    let mut queued: BTreeSet<&str> = queue.iter().copied().collect();
    while let Some(f) = queue.pop_front() {
        queued.remove(f);
        cx.summary_visits.fetch_add(1, Ordering::Relaxed);
        let body = cx
            .program()
            .function(f)
            .expect("the call graph lists program functions");
        if step(f, body) {
            for caller in graph.callers(f) {
                if queued.insert(caller) {
                    queue.push_back(caller);
                }
            }
        }
    }
}

/// Which of each function's pointer arguments may be dereferenced,
/// transitively through calls — the interprocedural summary of §7.1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DerefSummaries {
    /// Per function: 1-based argument positions that may be dereferenced.
    map: BTreeMap<String, BTreeSet<usize>>,
}

impl DerefSummaries {
    /// Computes the summaries of every function in `cx`'s program: an
    /// argument is summarized as dereferenced if the function derefs it
    /// directly or forwards it to an argument position a callee
    /// dereferences.
    pub(crate) fn compute(cx: &AnalysisContext<'_>) -> DerefSummaries {
        let mut summaries = DerefSummaries::default();
        summarize(cx, |f, body| summaries.step(cx.cache(), f, body));
        summaries
    }

    /// Adds to `function`'s summary the arguments it dereferences, from the
    /// cache's deref sites, and those it passes to a position its callee
    /// dereferences; returns whether the summary grew.
    fn step(&mut self, cache: &AnalysisCache<'_>, function: &str, body: &Body) -> bool {
        let mut found: Vec<usize> = cache
            .deref_sites(function)
            .iter()
            .filter(|site| body.is_arg(site.pointer))
            .map(|site| site.pointer.index())
            .collect();
        for data in &body.blocks {
            let Some(TerminatorKind::Call {
                func: Callee::Fn(callee),
                args,
                ..
            }) = data.terminator.as_ref().map(|t| &t.kind)
            else {
                continue;
            };
            for (i, a) in args.iter().enumerate() {
                let forwarded = a.place().filter(|p| p.is_local() && body.is_arg(p.local));
                if let Some(p) = forwarded.filter(|_| self.derefs_arg(callee, i + 1)) {
                    found.push(p.local.index());
                }
            }
        }
        if found.is_empty() {
            return false;
        }
        let summary = self.map.entry(function.to_owned()).or_default();
        let before = summary.len();
        summary.extend(found);
        summary.len() > before
    }

    /// Returns `true` if `function` may dereference its `arg_pos`-th
    /// (1-based) argument.
    pub fn derefs_arg(&self, function: &str, arg_pos: usize) -> bool {
        self.map.get(function).is_some_and(|s| s.contains(&arg_pos))
    }
}

/// The locals data-dependent on `seeds`, seeds included: the closure of
/// every local assignment whose rvalue reads a dependent local, regardless
/// of where in the body it sits. Each local's readers are indexed once and
/// each reached local is visited once.
pub(crate) fn data_dependents(body: &Body, seeds: impl IntoIterator<Item = Local>) -> BitSet {
    let mut reached = BitSet::new(body.locals.len());
    let mut todo: Vec<Local> = seeds.into_iter().collect();
    todo.retain(|l| reached.insert(l.index()));
    if todo.is_empty() {
        return reached;
    }
    let mut readers: Vec<Vec<Local>> = vec![Vec::new(); body.locals.len()];
    for stmt in body.blocks.iter().flat_map(|data| &data.statements) {
        let StatementKind::Assign(place, rv) = &stmt.kind else {
            continue;
        };
        if !place.is_local() {
            continue;
        }
        for op in rv.operands() {
            if let Some(p) = op.place().filter(|p| p.is_local()) {
                readers[p.local.index()].push(place.local);
            }
        }
    }
    while let Some(l) = todo.pop() {
        for &r in &readers[l.index()] {
            if reached.insert(r.index()) {
                todo.push(r);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::double_lock::LockFacts;
    use crate::detectors::lock_order::{order_edges, order_step, FnEdges};
    use proptest::prelude::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Const, Intrinsic, Local, Mutability, Operand, Place, Program, Rvalue, Ty};

    /// The name-order sweep [`summarize`] replaced: visit every function in
    /// name order until a whole pass grows no summary. Kept as the fact
    /// oracle for the bottom-up driver; it runs the same steps.
    fn sweep(program: &Program, mut step: impl FnMut(&str, &Body) -> bool) {
        let mut grew = true;
        while grew {
            grew = false;
            for (name, body) in program.iter() {
                grew |= step(name, body);
            }
        }
    }

    #[test]
    fn summaries_propagate_through_wrappers() {
        // sink(p) derefs its arg; wrapper(p) forwards to sink; clean(p) ignores.
        let mut sink = BodyBuilder::new("sink", 1, Ty::Int);
        let p = sink.arg("p", Ty::mut_ptr(Ty::Int));
        sink.assign(
            Place::RETURN,
            Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
        );
        sink.ret();

        let mut wrapper = BodyBuilder::new("wrapper", 1, Ty::Int);
        let q = wrapper.arg("q", Ty::mut_ptr(Ty::Int));
        wrapper.call_fn_cont("sink", vec![Operand::copy(q)], Place::RETURN);
        wrapper.ret();

        let mut clean = BodyBuilder::new("clean", 1, Ty::Int);
        let _r = clean.arg("r", Ty::mut_ptr(Ty::Int));
        clean.assign(Place::RETURN, Rvalue::Use(Operand::int(0)));
        clean.ret();

        let program = Program::from_bodies([sink.finish(), wrapper.finish(), clean.finish()]);
        let cx = AnalysisContext::new(&program);
        let s = cx.summaries();
        assert!(s.derefs_arg("sink", 1));
        assert!(s.derefs_arg("wrapper", 1), "transitive deref");
        assert!(!s.derefs_arg("clean", 1));
        assert!(!s.derefs_arg("missing", 1));
        assert_eq!(cx.summary_visits(), 3, "one visit per function");
    }

    /// One generated operation of a function body. Operand indices pick
    /// from `[_1, _2, _3, rm]`: the pointer argument, the two `&Mutex`
    /// arguments and a reference to the function's own mutex. Function
    /// indices are taken modulo the function count.
    #[derive(Debug, Clone)]
    enum Op {
        Deref(usize),
        Lock(usize),
        Release,
        Call(usize, [usize; 3]),
        Spawn(usize, usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..4).prop_map(Op::Deref),
            (0usize..4).prop_map(Op::Lock),
            Just(Op::Release),
            (0usize..8, 0usize..4, 0usize..4, 0usize..4)
                .prop_map(|(f, x, y, z)| Op::Call(f, [x, y, z])),
            (0usize..8, 0usize..4).prop_map(|(f, a)| Op::Spawn(f, a)),
        ]
    }

    /// `fns.len()` functions `f0`, `f1`, … taking `(_1: *const int,
    /// _2: &Mutex<int>, _3: &Mutex<int>)`, each running its ops in order.
    /// Calls pass any of the four operands in any order, so arguments are
    /// permuted, duplicated and replaced by a local lock; a call may
    /// target the function itself or close a cycle through others.
    fn generated_program(fns: &[Vec<Op>]) -> Program {
        let mutex = || Ty::Mutex(Box::new(Ty::Int));
        let bodies = fns.iter().enumerate().map(|(i, ops)| {
            let mut b = BodyBuilder::new(format!("f{i}"), 3, Ty::Unit);
            let mut values = vec![
                b.arg("p", Ty::const_ptr(Ty::Int)),
                b.arg("a", Ty::shared_ref(mutex())),
                b.arg("b", Ty::shared_ref(mutex())),
            ];
            let (m, rm) = (
                b.local("m", mutex()),
                b.local("rm", Ty::shared_ref(mutex())),
            );
            let v = b.local("v", Ty::Int);
            let h = b.local("h", Ty::JoinHandle(Box::new(Ty::Unit)));
            values.push(rm);
            b.storage_live(m);
            b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
            b.storage_live(rm);
            b.assign(rm, Rvalue::Ref(Mutability::Not, m.into()));
            let mut held: Vec<Local> = Vec::new();
            let name = |f: usize| format!("f{}", f % fns.len());
            for (k, op) in ops.iter().enumerate() {
                match *op {
                    Op::Deref(x) => {
                        let pointee = Place::from_local(values[x]).deref();
                        b.assign(v, Rvalue::Use(Operand::Copy(pointee)));
                    }
                    Op::Lock(x) => {
                        let g = b.local(format!("g{k}"), Ty::Guard(Box::new(Ty::Int)));
                        b.storage_live(g);
                        let lock = vec![Operand::copy(values[x])];
                        b.call_intrinsic_cont(Intrinsic::MutexLock, lock, g);
                        held.push(g);
                    }
                    Op::Release => {
                        if let Some(g) = held.pop() {
                            b.storage_dead(g);
                        }
                    }
                    Op::Call(f, args) => {
                        let args = args.iter().map(|&x| Operand::copy(values[x])).collect();
                        b.call_fn_cont(name(f), args, Place::RETURN);
                    }
                    Op::Spawn(f, x) => {
                        let f = Operand::Const(Const::Fn(name(f)));
                        let args = vec![f, Operand::copy(values[x])];
                        b.call_intrinsic_cont(Intrinsic::ThreadSpawn, args, h);
                    }
                }
            }
            b.ret();
            b.finish()
        });
        Program::from_bodies(bodies)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bottom-up driver reaches exactly the name-order sweep's
        /// fixpoint for all three summaries: deref summaries, each
        /// function's acquired locks, and lock-order edges.
        #[test]
        fn bottom_up_driver_matches_the_name_order_sweep(
            fns in proptest::collection::vec(proptest::collection::vec(op_strategy(), 0..8), 2..9)
        ) {
            let program = generated_program(&fns);
            let cx = AnalysisContext::new(&program);

            let mut derefs = DerefSummaries::default();
            sweep(&program, |f, body| derefs.step(cx.cache(), f, body));
            prop_assert_eq!(cx.summaries(), &derefs, "{:?}", fns);

            let mut locks = LockFacts::direct(&cx);
            sweep(&program, |f, body| locks.step(&cx, f, body));
            for (name, info) in &cx.lock_facts().per_fn {
                prop_assert_eq!(&info.acquired, &locks.per_fn[name].acquired, "{} in {:?}", name, fns);
            }

            let mut edges = FnEdges::new();
            sweep(&program, |f, body| order_step(&cx, &locks, &mut edges, f, body));
            prop_assert_eq!(order_edges(&cx), edges, "{:?}", fns);
        }
    }
}
