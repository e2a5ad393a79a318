//! The double-lock detector (paper §7.2).
//!
//! Rust's `lock()` returns a guard that releases the lock when *its
//! lifetime* ends — and the study found that misjudging where that implicit
//! release happens causes most double locks (30 of 38 `Mutex`/`RwLock`
//! blocking bugs). The paper's detector:
//!
//! 1. identifies all `lock()` call sites and the variable receiving each
//!    guard,
//! 2. computes the guard's live range (the implicit unlock point), and
//! 3. reports a bug if the same lock is acquired again inside that range —
//!    including across function boundaries, via interprocedural analysis.
//!
//! This module implements exactly that on top of
//! [`rstudy_analysis::locks::HeldGuards`] (guard live ranges) and
//! [`rstudy_analysis::points_to`] (lock identity), plus a whole-program
//! summary of the locks each function may acquire. It also flags the
//! study's recursive `call_once` deadlock.

use std::collections::{BTreeMap, BTreeSet};

use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::dataflow::Cursor;
use rstudy_analysis::locks::{AcquireKind, Acquisition, HeldGuards};
use rstudy_analysis::points_to::{MemRoot, PointsTo};
use rstudy_analysis::BitSet;
use rstudy_mir::visit::Location;
use rstudy_mir::{Body, Callee, Const, Intrinsic, Local, Operand, TerminatorKind};

use crate::config::DetectorConfig;
use crate::detectors::common::summarize;
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// Per-function lock facts, shared with the lock-order detector.
#[derive(Debug, Default, Clone)]
pub(crate) struct FnLockInfo {
    /// Every acquisition in the function with its resolved identity roots.
    pub acquisitions: Vec<(Acquisition, BTreeSet<MemRoot>)>,
    /// All (root, kind) pairs this function may acquire, directly or via
    /// callees, expressed in this function's own root space.
    pub acquired: BTreeSet<(MemRoot, AcquireKind)>,
    /// Indices into `acquisitions`, by the index of their guard local.
    by_guard: BTreeMap<usize, Vec<usize>>,
}

impl FnLockInfo {
    /// The acquisitions whose guard may be held before `loc`, read from
    /// `held`, this function's held-guards cursor. A function that acquires
    /// nothing holds no guard, so it never seeks (and never solves); else
    /// only the held state's members are visited, so a site costs the
    /// guards held there, not every acquisition of the function.
    pub fn held_at<'a>(
        &'a self,
        held: &'a mut Cursor<'_, HeldGuards>,
        loc: Location,
    ) -> impl Iterator<Item = &'a (Acquisition, BTreeSet<MemRoot>)> {
        let state = (!self.acquisitions.is_empty()).then(|| held.seek_before(loc));
        state
            .into_iter()
            .flat_map(BitSet::iter)
            .filter_map(|guard| self.by_guard.get(&guard))
            .flatten()
            .map(|&i| &self.acquisitions[i])
    }
}

/// Whole-program lock facts.
#[derive(Debug, Default)]
pub(crate) struct LockFacts {
    pub per_fn: BTreeMap<String, FnLockInfo>,
}

impl LockFacts {
    /// Computes per-function acquisition sets with interprocedural
    /// propagation (callee arg-pointee roots substituted by caller actuals).
    pub fn compute(cx: &AnalysisContext<'_>) -> LockFacts {
        let mut facts = LockFacts::direct(cx);
        summarize(cx, |f, body| facts.step(cx, f, body));
        facts
    }

    /// Each function's own acquisitions, with identity roots from the
    /// cache's points-to sets, so other detectors reuse the same results.
    pub(crate) fn direct(cx: &AnalysisContext<'_>) -> LockFacts {
        let mut facts = LockFacts::default();
        for (name, _) in cx.program().iter() {
            let pt = cx.cache().points_to(name);
            let mut info = FnLockInfo::default();
            for acq in cx.cache().acquisitions(name) {
                let roots = acq.lock_ref.map(|r| pt.targets(r).clone());
                let roots = roots.unwrap_or_default();
                info.acquired.extend(roots.iter().map(|r| (*r, acq.kind)));
                let index = info.acquisitions.len();
                info.by_guard
                    .entry(acq.guard.index())
                    .or_default()
                    .push(index);
                info.acquisitions.push((acq.clone(), roots));
            }
            facts.per_fn.insert(name.to_owned(), info);
        }
        facts
    }

    /// Pulls the acquisitions of `function`'s callees into its own root
    /// space; returns whether its acquired set grew.
    pub(crate) fn step(&mut self, cx: &AnalysisContext<'_>, function: &str, body: &Body) -> bool {
        let pt = cx.cache().points_to(function);
        let mut pulled = BTreeSet::new();
        for (_, callee, args) in calls(body) {
            if let Some(callee_info) = self.per_fn.get(callee) {
                pulled.extend(resolve_roots(&callee_info.acquired, args, &pt));
            }
        }
        let info = self.per_fn.get_mut(function).expect("info computed");
        let before = info.acquired.len();
        info.acquired.extend(pulled);
        info.acquired.len() > before
    }
}

/// The call sites of `body` that run another function, with their
/// locations and the operands bound to the callee's parameters: `f(args…)`,
/// and `thread::spawn(f, args…)`, which runs `f` with `args…`.
pub(crate) fn calls(body: &Body) -> impl Iterator<Item = (Location, &str, &[Operand])> {
    body.block_indices().filter_map(move |bb| {
        let data = body.block(bb);
        let TerminatorKind::Call { func, args, .. } = &data.terminator.as_ref()?.kind else {
            return None;
        };
        let (callee, args) = match func {
            Callee::Fn(f) => (f, &args[..]),
            Callee::Intrinsic(Intrinsic::ThreadSpawn) => match args.split_first()? {
                (Operand::Const(Const::Fn(f)), rest) => (f, rest),
                _ => return None,
            },
            _ => return None,
        };
        let location = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        Some((location, callee.as_str(), args))
    })
}

/// What the operand a call binds to parameter `param` may point to, in the
/// caller's root space: the callee's `ArgPointee(param)` at that call.
pub(crate) fn actual_pointees<'a>(
    param: Local,
    args: &'a [Operand],
    caller_pt: &'a PointsTo,
) -> impl Iterator<Item = MemRoot> + 'a {
    // param is `_i`; the matching actual is args[i-1].
    let actual = args.get((param.0 as usize).saturating_sub(1));
    let local = actual.and_then(Operand::place).filter(|p| p.is_local());
    local
        .into_iter()
        .flat_map(|p| caller_pt.targets(p.local).iter().copied())
}

/// Maps callee-space roots to caller-space roots at one call site.
pub(crate) fn resolve_roots(
    callee_roots: &BTreeSet<(MemRoot, AcquireKind)>,
    args: &[Operand],
    caller_pt: &PointsTo,
) -> BTreeSet<(MemRoot, AcquireKind)> {
    let mut out = BTreeSet::new();
    for &(root, kind) in callee_roots {
        match root {
            MemRoot::ArgPointee(param) => {
                out.extend(actual_pointees(param, args, caller_pt).map(|r| (r, kind)));
            }
            MemRoot::Unknown => {
                out.insert((MemRoot::Unknown, kind));
            }
            // A lock local to the callee (or its heap) cannot alias
            // anything the caller holds.
            MemRoot::Local(_) | MemRoot::Heap(_) => {}
        }
    }
    out
}

/// The double-lock detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleLock;

impl Detector for DoubleLock {
    fn name(&self) -> &'static str {
        "double-lock"
    }

    fn check_body(
        &self,
        cx: &AnalysisContext<'_>,
        function: &str,
        body: &Body,
        _config: &DetectorConfig,
    ) -> Vec<Diagnostic> {
        let facts = cx.lock_facts();
        let mut out = Vec::new();
        let name = function;
        let info = &facts.per_fn[name];
        let pt = cx.cache().points_to(name);
        let mut held = cx.cache().cursor(name, AnalysisCache::held_guards);

        // Identity roots of every guard that may be held at `loc`.
        let mut held_roots = |loc: Location| -> BTreeSet<(MemRoot, AcquireKind)> {
            info.held_at(&mut held, loc)
                .flat_map(|(acq, roots)| roots.iter().map(|r| (*r, acq.kind)))
                .collect()
        };

        // 1. Intraprocedural: a second acquisition of a held lock.
        for (acq, roots) in &info.acquisitions {
            let held_now = held_roots(acq.location);
            // Exclude the guard being produced by this very call.
            for (root, held_kind) in &held_now {
                if matches!(root, MemRoot::Unknown) {
                    continue;
                }
                if roots.contains(root) && held_kind.conflicts_with(acq.kind) {
                    let term = body.block(acq.location.block).terminator();
                    out.push(
                        Diagnostic::new(
                            self.name(),
                            BugClass::DoubleLock,
                            Severity::Error,
                            name,
                            acq.location,
                            term.source_info.span,
                            term.source_info.safety,
                            format!(
                                "lock {root} is acquired here while a guard for it is still alive \
                                 (the implicit unlock has not happened yet)"
                            ),
                        )
                        .with_cause_safety(term.source_info.safety),
                    );
                    break;
                }
            }
        }

        // 2. Interprocedural: calling a function that acquires a lock
        //    we currently hold.
        for bb in body.block_indices() {
            let data = body.block(bb);
            let Some(term) = &data.terminator else {
                continue;
            };
            let loc = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            let TerminatorKind::Call {
                func: Callee::Fn(callee),
                args,
                ..
            } = &term.kind
            else {
                continue;
            };
            let Some(callee_info) = facts.per_fn.get(callee) else {
                continue;
            };
            let callee_acquires = resolve_roots(&callee_info.acquired, args, &pt);
            if callee_acquires.is_empty() {
                continue;
            }
            let held_now = held_roots(loc);
            for (root, held_kind) in &held_now {
                if matches!(root, MemRoot::Unknown) {
                    continue;
                }
                let conflict = callee_acquires
                    .iter()
                    .any(|(r, k)| r == root && held_kind.conflicts_with(*k));
                if conflict {
                    out.push(
                        Diagnostic::new(
                            self.name(),
                            BugClass::DoubleLock,
                            Severity::Error,
                            name,
                            loc,
                            term.source_info.span,
                            term.source_info.safety,
                            format!("`{callee}` may acquire lock {root}, which is still held here"),
                        )
                        .with_cause_safety(term.source_info.safety),
                    );
                    break;
                }
            }
        }

        // 3. Recursive call_once: the initializer reaches call_once again.
        recursive_once(cx, name, body, &mut out);
        out
    }
}

/// Finds `once::call_once` initializers in `body` that (transitively) call
/// `once::call_once` again — the study's guaranteed deadlock.
fn recursive_once(cx: &AnalysisContext<'_>, name: &str, body: &Body, out: &mut Vec<Diagnostic>) {
    let program = cx.program();
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        let TerminatorKind::Call {
            func: Callee::Intrinsic(Intrinsic::OnceCallOnce),
            args,
            ..
        } = &term.kind
        else {
            continue;
        };
        let Some(Operand::Const(Const::Fn(init))) = args.get(1) else {
            continue;
        };
        // Does the initializer reach another call_once?
        let reach = cx.cache().call_graph().reachable_from(init);
        let calls_once_again = reach.iter().any(|f| {
            program.function(f).is_some_and(|b| {
                b.block_indices().any(|bb| {
                    matches!(
                        b.block(bb).terminator.as_ref().map(|t| &t.kind),
                        Some(TerminatorKind::Call {
                            func: Callee::Intrinsic(Intrinsic::OnceCallOnce),
                            ..
                        })
                    )
                })
            })
        });
        if calls_once_again {
            let loc = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            out.push(Diagnostic::new(
                "double-lock",
                BugClass::RecursiveOnce,
                Severity::Error,
                name,
                loc,
                term.source_info.span,
                term.source_info.safety,
                format!(
                    "initializer `{init}` passed to call_once reaches another \
                     call_once; recursive initialization deadlocks"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Mutability, Place, Program, Rvalue, Ty};

    fn run(program: &Program) -> Vec<Diagnostic> {
        DoubleLock.check_program(program, &DetectorConfig::new())
    }

    fn mutex_ty() -> Ty {
        Ty::Mutex(Box::new(Ty::Int))
    }

    /// m locked twice with the first guard still alive (paper Fig. 8 shape).
    fn double_lock_body(release_first: bool) -> rstudy_mir::Body {
        let mut b = BodyBuilder::new("do_request", 0, Ty::Unit);
        let m = b.local("m", mutex_ty());
        let r = b.local("r", Ty::shared_ref(mutex_ty()));
        let g1 = b.local("g1", Ty::Guard(Box::new(Ty::Int)));
        let g2 = b.local("g2", Ty::Guard(Box::new(Ty::Int)));
        b.storage_live(m);
        b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        b.storage_live(r);
        b.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        b.storage_live(g1);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g1);
        if release_first {
            b.storage_dead(g1); // the patch: end g1's lifetime early
        }
        b.storage_live(g2);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g2);
        b.ret();
        b.finish()
    }

    #[test]
    fn detects_intraprocedural_double_lock() {
        let program = Program::from_bodies([double_lock_body(false)]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::DoubleLock);
    }

    #[test]
    fn released_guard_allows_relock() {
        let program = Program::from_bodies([double_lock_body(true)]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn two_different_locks_are_fine() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let m1 = b.local("m1", mutex_ty());
        let m2 = b.local("m2", mutex_ty());
        let r1 = b.local("r1", Ty::shared_ref(mutex_ty()));
        let r2 = b.local("r2", Ty::shared_ref(mutex_ty()));
        let g1 = b.local("g1", Ty::Guard(Box::new(Ty::Int)));
        let g2 = b.local("g2", Ty::Guard(Box::new(Ty::Int)));
        for l in [m1, m2] {
            b.storage_live(l);
        }
        b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m1);
        b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m2);
        b.storage_live(r1);
        b.assign(r1, Rvalue::Ref(Mutability::Not, m1.into()));
        b.storage_live(r2);
        b.assign(r2, Rvalue::Ref(Mutability::Not, m2.into()));
        b.storage_live(g1);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r1)], g1);
        b.storage_live(g2);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r2)], g2);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn rwlock_read_read_is_fine_but_read_write_is_not() {
        let rw = Ty::RwLock(Box::new(Ty::Int));
        let build = |second: Intrinsic| {
            let mut b = BodyBuilder::new("f", 0, Ty::Unit);
            let l = b.local("l", rw.clone());
            let r = b.local("r", Ty::shared_ref(rw.clone()));
            let g1 = b.local("g1", Ty::Guard(Box::new(Ty::Int)));
            let g2 = b.local("g2", Ty::Guard(Box::new(Ty::Int)));
            b.storage_live(l);
            b.call_intrinsic_cont(Intrinsic::RwLockNew, vec![Operand::int(0)], l);
            b.storage_live(r);
            b.assign(r, Rvalue::Ref(Mutability::Not, l.into()));
            b.storage_live(g1);
            b.call_intrinsic_cont(Intrinsic::RwLockRead, vec![Operand::copy(r)], g1);
            b.storage_live(g2);
            b.call_intrinsic_cont(second, vec![Operand::copy(r)], g2);
            b.ret();
            Program::from_bodies([b.finish()])
        };
        assert!(
            run(&build(Intrinsic::RwLockRead)).is_empty(),
            "read+read ok"
        );
        assert_eq!(
            run(&build(Intrinsic::RwLockWrite)).len(),
            1,
            "read+write deadlocks"
        );
    }

    /// The TiKV bug shape (Fig. 8): read guard alive in a match while the
    /// write lock is taken in the arm — here as cross-function re-lock.
    #[test]
    fn detects_interprocedural_double_lock() {
        // helper(&m) locks m; main locks m then calls helper(&m).
        let mut helper = BodyBuilder::new("helper", 1, Ty::Unit);
        let rm = helper.arg("rm", Ty::shared_ref(mutex_ty()));
        let hg = helper.local("hg", Ty::Guard(Box::new(Ty::Int)));
        helper.storage_live(hg);
        helper.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(rm)], hg);
        helper.storage_dead(hg);
        helper.ret();

        let mut main = BodyBuilder::new("main", 0, Ty::Unit);
        let m = main.local("m", mutex_ty());
        let r = main.local("r", Ty::shared_ref(mutex_ty()));
        let g = main.local("g", Ty::Guard(Box::new(Ty::Int)));
        main.storage_live(m);
        main.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        main.storage_live(r);
        main.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        main.storage_live(g);
        main.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g);
        main.call_fn_cont("helper", vec![Operand::copy(r)], Place::RETURN);
        main.storage_dead(g);
        main.ret();

        let program = Program::from_bodies([helper.finish(), main.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("helper"), "{}", diags[0].message);
        assert_eq!(diags[0].function, "main");
    }

    #[test]
    fn interprocedural_clean_when_guard_released_before_call() {
        let mut helper = BodyBuilder::new("helper", 1, Ty::Unit);
        let rm = helper.arg("rm", Ty::shared_ref(mutex_ty()));
        let hg = helper.local("hg", Ty::Guard(Box::new(Ty::Int)));
        helper.storage_live(hg);
        helper.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(rm)], hg);
        helper.storage_dead(hg);
        helper.ret();

        let mut main = BodyBuilder::new("main", 0, Ty::Unit);
        let m = main.local("m", mutex_ty());
        let r = main.local("r", Ty::shared_ref(mutex_ty()));
        let g = main.local("g", Ty::Guard(Box::new(Ty::Int)));
        main.storage_live(m);
        main.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        main.storage_live(r);
        main.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        main.storage_live(g);
        main.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g);
        main.storage_dead(g); // release before calling helper
        main.call_fn_cont("helper", vec![Operand::copy(r)], Place::RETURN);
        main.ret();

        let program = Program::from_bodies([helper.finish(), main.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn detects_recursive_call_once() {
        // init() calls once::call_once(o2, init2) where init2 also uses
        // call_once — modelled directly: init calls call_once again.
        let mut init = BodyBuilder::new("init", 1, Ty::Unit);
        let _arg = init.arg("o", Ty::shared_ref(Ty::Once));
        let o2 = init.local("o2", Ty::Once);
        let r2 = init.local("r2", Ty::shared_ref(Ty::Once));
        init.storage_live(o2);
        init.call_intrinsic_cont(Intrinsic::OnceNew, vec![], o2);
        init.storage_live(r2);
        init.assign(r2, Rvalue::Ref(Mutability::Not, o2.into()));
        init.call_intrinsic_cont(
            Intrinsic::OnceCallOnce,
            vec![Operand::copy(r2), Operand::Const(Const::Fn("init".into()))],
            Place::RETURN,
        );
        init.ret();

        let mut main = BodyBuilder::new("main", 0, Ty::Unit);
        let o = main.local("o", Ty::Once);
        let r = main.local("r", Ty::shared_ref(Ty::Once));
        main.storage_live(o);
        main.call_intrinsic_cont(Intrinsic::OnceNew, vec![], o);
        main.storage_live(r);
        main.assign(r, Rvalue::Ref(Mutability::Not, o.into()));
        main.call_intrinsic_cont(
            Intrinsic::OnceCallOnce,
            vec![Operand::copy(r), Operand::Const(Const::Fn("init".into()))],
            Place::RETURN,
        );
        main.ret();

        let program = Program::from_bodies([init.finish(), main.finish()]);
        let diags = run(&program);
        assert!(
            diags.iter().any(|d| d.bug_class == BugClass::RecursiveOnce),
            "{diags:?}"
        );
    }

    #[test]
    fn lock_identity_uses_points_to_not_variable_names() {
        // Two refs to the SAME mutex: still a double lock.
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let m = b.local("m", mutex_ty());
        let r1 = b.local("r1", Ty::shared_ref(mutex_ty()));
        let r2 = b.local("r2", Ty::shared_ref(mutex_ty()));
        let g1 = b.local("g1", Ty::Guard(Box::new(Ty::Int)));
        let g2 = b.local("g2", Ty::Guard(Box::new(Ty::Int)));
        b.storage_live(m);
        b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        b.storage_live(r1);
        b.assign(r1, Rvalue::Ref(Mutability::Not, m.into()));
        b.storage_live(r2);
        b.assign(r2, Rvalue::Ref(Mutability::Not, m.into()));
        b.storage_live(g1);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r1)], g1);
        b.storage_live(g2);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r2)], g2);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert_eq!(run(&program).len(), 1);
        let _ = Local(0); // keep import used
    }
}
