//! Call graph over a whole program.
//!
//! Both detectors in the paper perform interprocedural analysis; the call
//! graph provides the edges, including functions passed by name to
//! `thread::spawn` and `once::call_once`, and the callee-first order in
//! which summaries are computed.

use std::collections::{BTreeMap, BTreeSet};

use rstudy_mir::{Callee, Const, Intrinsic, Operand, Program, TerminatorKind};

/// The program's call graph, over function names borrowed from it.
#[derive(Debug, Clone, Default)]
pub struct CallGraph<'p> {
    callees: BTreeMap<&'p str, BTreeSet<&'p str>>,
    callers: BTreeMap<&'p str, BTreeSet<&'p str>>,
    bottom_up: Vec<&'p str>,
}

impl<'p> CallGraph<'p> {
    /// Builds the call graph of `program`.
    pub fn build(program: &'p Program) -> CallGraph<'p> {
        let mut g = CallGraph::default();
        for (name, body) in program.iter() {
            for data in &body.blocks {
                let Some(TerminatorKind::Call { func, args, .. }) =
                    data.terminator.as_ref().map(|t| &t.kind)
                else {
                    continue;
                };
                match func {
                    Callee::Fn(callee) => g.add_edge(name, callee.as_str()),
                    Callee::Intrinsic(Intrinsic::ThreadSpawn | Intrinsic::OnceCallOnce) => {
                        for a in args {
                            if let Operand::Const(Const::Fn(callee)) = a {
                                g.add_edge(name, callee.as_str());
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        g.bottom_up = g.postorder(program);
        g
    }

    fn add_edge(&mut self, caller: &'p str, callee: &'p str) {
        self.callees.entry(caller).or_default().insert(callee);
        self.callers.entry(callee).or_default().insert(caller);
    }

    /// A depth-first postorder over the program's functions, rooted at each
    /// in name order. An explicit stack keeps a deep call chain off the
    /// thread's stack.
    fn postorder(&self, program: &'p Program) -> Vec<&'p str> {
        let mut order = Vec::with_capacity(program.len());
        let mut seen = BTreeSet::new();
        for (root, _) in program.iter() {
            if !seen.insert(root) {
                continue;
            }
            let mut stack = vec![(root, self.callees(root))];
            while let Some((f, callees)) = stack.last_mut() {
                let unseen = callees.find(|c| program.function(c).is_some() && seen.insert(*c));
                match unseen {
                    Some(c) => stack.push((c, self.callees(c))),
                    None => {
                        order.push(*f);
                        stack.pop();
                    }
                }
            }
        }
        order
    }

    /// Functions called (directly or via spawn) by `name`.
    pub fn callees(&self, name: &str) -> impl Iterator<Item = &'p str> + '_ {
        self.callees.get(name).into_iter().flatten().copied()
    }

    /// Functions that call `name`.
    pub fn callers(&self, name: &str) -> impl Iterator<Item = &'p str> + '_ {
        self.callers.get(name).into_iter().flatten().copied()
    }

    /// Every function of the program, each after all of its callees except
    /// those it reaches back through a cycle of calls.
    pub fn bottom_up(&self) -> &[&'p str] {
        &self.bottom_up
    }

    /// Functions reachable from `root` (including `root` itself).
    pub fn reachable_from<'a>(&'a self, root: &'a str) -> BTreeSet<&'a str> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(f) = stack.pop() {
            if seen.insert(f) {
                stack.extend(self.callees(f).filter(|c| !seen.contains(c)));
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Place, Ty};

    fn leaf(name: &str) -> rstudy_mir::Body {
        let mut b = BodyBuilder::new(name, 0, Ty::Unit);
        b.ret();
        b.finish()
    }

    fn caller(name: &str, callee: &str) -> rstudy_mir::Body {
        let mut b = BodyBuilder::new(name, 0, Ty::Unit);
        b.call_fn_cont(callee, vec![], Place::RETURN);
        b.ret();
        b.finish()
    }

    #[test]
    fn direct_edges_and_reachability() {
        let p = Program::from_bodies([caller("main", "a"), caller("a", "b"), leaf("b"), leaf("c")]);
        let g = CallGraph::build(&p);
        assert_eq!(g.callees("main").collect::<Vec<_>>(), vec!["a"]);
        assert_eq!(g.callers("b").collect::<Vec<_>>(), vec!["a"]);
        let reach = g.reachable_from("main");
        assert!(reach.contains("b"));
        assert!(!reach.contains("c"));
    }

    #[test]
    fn spawn_creates_closure_edges() {
        let mut b = BodyBuilder::new("main", 0, Ty::Unit);
        let h = b.local("h", Ty::JoinHandle(Box::new(Ty::Unit)));
        b.storage_live(h);
        b.call_intrinsic_cont(
            Intrinsic::ThreadSpawn,
            vec![Operand::Const(Const::Fn("worker".into())), Operand::int(0)],
            h,
        );
        b.ret();
        let p = Program::from_bodies([b.finish(), leaf("worker")]);
        let g = CallGraph::build(&p);
        assert_eq!(g.callees("main").collect::<Vec<_>>(), vec!["worker"]);
        assert!(g.reachable_from("main").contains("worker"));
    }

    #[test]
    fn bottom_up_lists_callees_first_and_each_function_once() {
        // a → b → c → a is a cycle entered at a; main → a; d is alone;
        // `extern_fn` is called but has no body.
        let p = Program::from_bodies([
            caller("main", "a"),
            caller("a", "b"),
            caller("b", "c"),
            caller("c", "a"),
            caller("d", "extern_fn"),
        ]);
        let g = CallGraph::build(&p);
        assert_eq!(g.bottom_up(), ["c", "b", "a", "d", "main"]);
    }

    #[test]
    fn bottom_up_walks_a_deep_chain_without_recursion() {
        let n = 20_000;
        let name = |i: usize| format!("f{i:05}");
        let p = Program::from_bodies((0..n).map(|i| {
            if i + 1 < n {
                caller(&name(i), &name(i + 1))
            } else {
                leaf(&name(i))
            }
        }));
        let g = CallGraph::build(&p);
        assert_eq!(g.bottom_up().len(), n);
        assert_eq!(g.bottom_up()[0], name(n - 1));
        assert_eq!(g.bottom_up()[n - 1], name(0));
    }
}
