//! Per-function dereference summaries, shared by the detectors that
//! reason about pointers passed across calls.

use std::collections::BTreeMap;

use rstudy_analysis::cache::AnalysisCache;
use rstudy_mir::{Callee, TerminatorKind};

/// Which of each function's pointer arguments may be dereferenced,
/// transitively through calls — the interprocedural summary of §7.1.
#[derive(Debug, Clone, Default)]
pub struct DerefSummaries {
    /// Per function: 1-based argument positions that may be dereferenced.
    map: BTreeMap<String, Vec<usize>>,
}

impl DerefSummaries {
    /// Computes summaries for every function in the cache's program by
    /// fixpoint over the call graph: an argument is summarized as
    /// dereferenced if the function derefs it directly or forwards it to an
    /// argument position another function dereferences. Each body's deref
    /// sites come from `cache`, so the fixpoint never re-extracts them.
    pub fn compute(cache: &AnalysisCache<'_>) -> DerefSummaries {
        let program = cache.program();
        let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (name, _) in program.iter() {
            map.insert(name.to_owned(), Vec::new());
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (name, body) in program.iter() {
                let mut derefed: Vec<usize> = map[name].clone();
                // Direct dereferences of argument locals.
                for site in cache.deref_sites(name) {
                    if body.is_arg(site.pointer) {
                        let pos = site.pointer.0 as usize;
                        if !derefed.contains(&pos) {
                            derefed.push(pos);
                        }
                    }
                }
                // Arguments forwarded to callee positions that deref them.
                for bb in body.block_indices() {
                    if let Some(term) = &body.block(bb).terminator {
                        if let TerminatorKind::Call {
                            func: Callee::Fn(callee),
                            args,
                            ..
                        } = &term.kind
                        {
                            let callee_derefs = map.get(callee).cloned().unwrap_or_default();
                            for (i, a) in args.iter().enumerate() {
                                if !callee_derefs.contains(&(i + 1)) {
                                    continue;
                                }
                                if let Some(p) = a.place().filter(|p| p.is_local()) {
                                    if body.is_arg(p.local) {
                                        let pos = p.local.0 as usize;
                                        if !derefed.contains(&pos) {
                                            derefed.push(pos);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                derefed.sort_unstable();
                if map[name] != derefed {
                    map.insert(name.to_owned(), derefed);
                    changed = true;
                }
            }
        }
        DerefSummaries { map }
    }

    /// Returns `true` if `function` may dereference its `arg_pos`-th
    /// (1-based) argument.
    pub fn derefs_arg(&self, function: &str, arg_pos: usize) -> bool {
        self.map.get(function).is_some_and(|v| v.contains(&arg_pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Operand, Place, Program, Rvalue, Ty};

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
        let s = DerefSummaries::compute(&AnalysisCache::new(&program));
        assert!(s.derefs_arg("sink", 1));
        assert!(s.derefs_arg("wrapper", 1), "transitive deref");
        assert!(!s.derefs_arg("clean", 1));
        assert!(!s.derefs_arg("missing", 1));
    }
}
