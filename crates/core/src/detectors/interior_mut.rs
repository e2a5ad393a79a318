//! The interior-mutability misuse detector (paper §6.2, Fig. 9 and
//! Suggestion 8 / Insight 10).
//!
//! The paper proposes: *"When a struct is sharable (e.g., implementing the
//! Sync trait) and has a method immutably borrowing `self`, we can analyze
//! whether `self` is modified in the method and whether the modification is
//! unsynchronized. If so, we can report a potential bug."* Two checks:
//!
//! 1. **Unsynchronized `&self` mutation** — a method writes through its
//!    shared-reference receiver (possibly laundered through raw-pointer
//!    casts, as in the paper's Fig. 4 `TestCell::set`) with no lock held.
//! 2. **Atomic check-then-act** — the Fig. 9 `generate_seal` bug: an
//!    atomic is loaded, a branch taken on the result, and the atomic
//!    stored, instead of one `compare_and_swap`.

use std::collections::BTreeSet;

use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::points_to::MemRoot;
use rstudy_mir::visit::Location;
use rstudy_mir::{Body, Callee, Intrinsic, Local, Mutability, Operand, TerminatorKind, Ty};

use crate::config::DetectorConfig;
use crate::detectors::common::data_dependents;
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// The interior-mutability misuse detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct InteriorMutability;

impl Detector for InteriorMutability {
    fn name(&self) -> &'static str {
        "interior-mutability"
    }

    fn check_body(
        &self,
        cx: &AnalysisContext<'_>,
        function: &str,
        body: &Body,
        _config: &DetectorConfig,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_shared_self_mutation(self.name(), cx, function, body, &mut out);
        check_atomic_check_then_act(self.name(), cx, function, body, &mut out);
        out
    }
}

/// Shared-reference receivers of a method-shaped function.
fn shared_ref_args(body: &Body) -> Vec<Local> {
    body.args()
        .filter(|&a| matches!(body.local_decl(a).ty, Ty::Ref(Mutability::Not, _)))
        .collect()
}

fn check_shared_self_mutation(
    detector: &str,
    cx: &AnalysisContext<'_>,
    name: &str,
    body: &Body,
    out: &mut Vec<Diagnostic>,
) {
    let shared_args = shared_ref_args(body);
    if shared_args.is_empty() {
        return;
    }
    let pt = cx.cache().points_to(name);
    let mut held = cx.cache().cursor(name, AnalysisCache::held_guards);
    for site in cx.cache().deref_sites(name) {
        if !site.is_write {
            continue;
        }
        let targets = pt.targets(site.pointer);
        let through_shared: Option<Local> = shared_args
            .iter()
            .copied()
            .find(|a| targets.contains(&MemRoot::ArgPointee(*a)));
        let Some(arg) = through_shared else { continue };
        // A held guard means the write is under some lock; the paper's
        // pattern is the *unsynchronized* one.
        if !held.seek_before(site.location).is_empty() {
            continue;
        }
        out.push(
            Diagnostic::new(
                detector,
                BugClass::UnsynchronizedInteriorMutation,
                Severity::Warning,
                name,
                site.location,
                site.source_info.span,
                site.source_info.safety,
                format!(
                    "writes through shared reference {arg} without holding a lock; \
                     if the owning struct is shared across threads (Sync), this is a race"
                ),
            )
            .with_cause_safety(site.source_info.safety),
        );
    }
}

fn check_atomic_check_then_act(
    detector: &str,
    cx: &AnalysisContext<'_>,
    name: &str,
    body: &Body,
    out: &mut Vec<Diagnostic>,
) {
    let pt = cx.cache().points_to(name);
    // Collect loads (dest, roots, loc) and stores (roots, loc).
    let mut loads: Vec<(Local, BTreeSet<MemRoot>, Location)> = Vec::new();
    let mut stores: Vec<(BTreeSet<MemRoot>, Location)> = Vec::new();
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        let loc = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        if let TerminatorKind::Call {
            func: Callee::Intrinsic(i),
            args,
            destination,
            ..
        } = &term.kind
        {
            let roots = |op: Option<&Operand>| -> BTreeSet<MemRoot> {
                let Some(p) = op.and_then(Operand::place).filter(|p| p.is_local()) else {
                    return BTreeSet::new();
                };
                let targets = pt.targets(p.local);
                if targets.is_empty() {
                    // Atomics passed by value have no pointer targets; the
                    // local itself is the identity.
                    BTreeSet::from([MemRoot::Local(p.local)])
                } else {
                    targets.clone()
                }
            };
            match i {
                Intrinsic::AtomicLoad if destination.is_local() => {
                    loads.push((destination.local, roots(args.first()), loc));
                }
                Intrinsic::AtomicStore => {
                    stores.push((roots(args.first()), loc));
                }
                _ => {}
            }
        }
    }
    if loads.is_empty() || stores.is_empty() {
        return;
    }
    // A branch on a load-derived value, with a later store to the same
    // atomic: the classic lost-update window.
    for (dest, load_roots, _load_loc) in &loads {
        let taint = data_dependents(body, [*dest]);
        let branches_on_load = body.block_indices().any(|bb| {
            matches!(
                body.block(bb).terminator.as_ref().map(|t| &t.kind),
                Some(TerminatorKind::SwitchInt { discr, .. })
                    if discr
                        .place()
                        .filter(|p| p.is_local())
                        .is_some_and(|p| taint.contains(p.local.index()))
            )
        });
        if !branches_on_load {
            continue;
        }
        for (store_roots, store_loc) in &stores {
            if load_roots.intersection(store_roots).next().is_some() {
                let term = body.block(store_loc.block).terminator();
                out.push(
                    Diagnostic::new(
                        detector,
                        BugClass::UnsynchronizedInteriorMutation,
                        Severity::Warning,
                        name,
                        *store_loc,
                        term.source_info.span,
                        term.source_info.safety,
                        "atomic is loaded, branched on, then stored — another thread can \
                         interleave between the check and the store; use compare_and_swap"
                            .to_owned(),
                    )
                    .with_cause_safety(term.source_info.safety),
                );
                return; // one report per function is enough
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Place, Program, Rvalue};

    fn run(program: &Program) -> Vec<Diagnostic> {
        InteriorMutability.check_program(program, &DetectorConfig::new())
    }

    /// The paper's Fig. 4: `fn set(&self, i)` casting `&self.value` to a
    /// mutable raw pointer and writing through it.
    #[test]
    fn detects_write_through_shared_self() {
        let cell = Ty::Named("TestCell".into());
        let mut b = BodyBuilder::new("set", 2, Ty::Unit);
        let self_ = b.arg("self", Ty::shared_ref(cell));
        let i = b.arg("i", Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        // p = &self.value as *const i32 as *mut i32 — modelled as a cast of
        // the shared reference itself.
        b.assign(p, Rvalue::Cast(Operand::copy(self_), Ty::mut_ptr(Ty::Int)));
        b.in_unsafe(|b| b.assign(Place::from_local(p).deref(), Rvalue::Use(Operand::copy(i))));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::UnsynchronizedInteriorMutation);
    }

    #[test]
    fn mutable_receiver_is_fine() {
        let cell = Ty::Named("TestCell".into());
        let mut b = BodyBuilder::new("set", 2, Ty::Unit);
        let self_ = b.arg("self", Ty::mut_ref(cell));
        let i = b.arg("i", Ty::Int);
        b.assign(
            Place::from_local(self_).deref(),
            Rvalue::Use(Operand::copy(i)),
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty(), "&mut self is compiler-checked");
    }

    #[test]
    fn lock_protected_write_is_fine() {
        let cell = Ty::Named("TestCell".into());
        let mutex_ty = Ty::Mutex(Box::new(Ty::Int));
        let mut b = BodyBuilder::new("set", 2, Ty::Unit);
        let self_ = b.arg("self", Ty::shared_ref(cell));
        let i = b.arg("i", Ty::Int);
        let m = b.local("m", mutex_ty.clone());
        let r = b.local("r", Ty::shared_ref(mutex_ty));
        let g = b.local("g", Ty::Guard(Box::new(Ty::Int)));
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(m);
        b.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
        b.storage_live(r);
        b.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        b.storage_live(g);
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g);
        b.storage_live(p);
        b.assign(p, Rvalue::Cast(Operand::copy(self_), Ty::mut_ptr(Ty::Int)));
        b.in_unsafe(|b| b.assign(Place::from_local(p).deref(), Rvalue::Use(Operand::copy(i))));
        b.storage_dead(g);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(
            run(&program).is_empty(),
            "writes under a lock are synchronized"
        );
    }

    /// The paper's Fig. 9: load `proposed`, branch, store — lost update.
    #[test]
    fn detects_atomic_check_then_act() {
        let mut b = BodyBuilder::new("generate_seal", 1, Ty::Int);
        let self_ = b.arg("self", Ty::shared_ref(Ty::AtomicInt));
        let v = b.local("v", Ty::Int);
        let unit = b.temp(Ty::Unit);
        b.storage_live(v);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::AtomicLoad, vec![Operand::copy(self_)], v);
        let (not_proposed, proposed) = b.branch_bool(Operand::copy(v));
        b.switch_to(proposed);
        b.assign(Place::RETURN, Rvalue::Use(Operand::int(0))); // Seal::None
        b.ret();
        b.switch_to(not_proposed);
        b.call_intrinsic_cont(
            Intrinsic::AtomicStore,
            vec![Operand::copy(self_), Operand::int(1)],
            unit,
        );
        b.assign(Place::RETURN, Rvalue::Use(Operand::int(1))); // Seal::Regular
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("compare_and_swap"));
    }

    /// The paper's fix for Fig. 9: one compare_and_swap, no window.
    #[test]
    fn cas_version_is_clean() {
        let mut b = BodyBuilder::new("generate_seal", 1, Ty::Int);
        let self_ = b.arg("self", Ty::shared_ref(Ty::AtomicInt));
        let old = b.local("old", Ty::Int);
        b.storage_live(old);
        b.call_intrinsic_cont(
            Intrinsic::AtomicCas,
            vec![Operand::copy(self_), Operand::int(0), Operand::int(1)],
            old,
        );
        let (was_false, was_true) = b.branch_bool(Operand::copy(old));
        b.switch_to(was_true);
        b.assign(Place::RETURN, Rvalue::Use(Operand::int(0)));
        b.ret();
        b.switch_to(was_false);
        b.assign(Place::RETURN, Rvalue::Use(Operand::int(1)));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn load_without_branch_is_clean() {
        // Monitoring reads don't create a check-then-act window by themselves.
        let mut b = BodyBuilder::new("peek", 1, Ty::Int);
        let self_ = b.arg("self", Ty::shared_ref(Ty::AtomicInt));
        let unit = b.temp(Ty::Unit);
        b.storage_live(unit);
        b.call_intrinsic_cont(
            Intrinsic::AtomicLoad,
            vec![Operand::copy(self_)],
            Place::RETURN,
        );
        b.call_intrinsic_cont(
            Intrinsic::AtomicStore,
            vec![Operand::copy(self_), Operand::int(1)],
            unit,
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }
}
