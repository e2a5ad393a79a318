//! The use-after-free detector (paper §7.1).
//!
//! The paper's detector "maintains the state of each variable (alive or
//! dead) by monitoring when MIR calls `StorageLive` or `StorageDead`",
//! runs a points-to analysis for every pointer/reference, and reports a bug
//! when a dereferenced pointer's target is dead. This module implements that
//! algorithm plus the interprocedural extension, in two modes:
//!
//! * [`InterprocMode::Precise`] uses per-function summaries of which
//!   arguments are actually dereferenced;
//! * [`InterprocMode::Naive`] assumes every pointer argument is
//!   dereferenced — reproducing the false-positive behaviour the paper
//!   reports for its "current (unoptimized) way of performing
//!   inter-procedural analysis" (3 FPs).

use rstudy_analysis::points_to::MemRoot;
use rstudy_mir::visit::Location;
use rstudy_mir::{Body, Callee, Intrinsic, Local, Safety, StatementKind, TerminatorKind, Ty};

use crate::config::{DetectorConfig, InterprocMode};
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// The use-after-free detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct UseAfterFree;

impl Detector for UseAfterFree {
    fn name(&self) -> &'static str {
        "use-after-free"
    }

    fn check_body(
        &self,
        cx: &AnalysisContext<'_>,
        function: &str,
        body: &Body,
        config: &DetectorConfig,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_one_body(self.name(), cx, function, body, config, &mut out);
        check_dangling_call_results(self.name(), cx, function, body, &mut out);
        out
    }
}

/// Finds the safety context of a statement/terminator that invalidates
/// `target` (its `StorageDead`, `Drop`, move-out, or an aliasing `dealloc`).
fn invalidation_safety(body: &Body, target: Local) -> Option<Safety> {
    for bb in body.block_indices() {
        let data = body.block(bb);
        for stmt in &data.statements {
            if let StatementKind::StorageDead(l) = &stmt.kind {
                if *l == target {
                    return Some(stmt.source_info.safety);
                }
            }
        }
        if let Some(term) = &data.terminator {
            if let TerminatorKind::Drop { place, .. } = &term.kind {
                if place.is_local() && place.local == target {
                    return Some(term.source_info.safety);
                }
            }
        }
    }
    None
}

fn dealloc_safety(body: &Body) -> Option<Safety> {
    for bb in body.block_indices() {
        if let Some(term) = &body.block(bb).terminator {
            if let TerminatorKind::Call {
                func: Callee::Intrinsic(Intrinsic::Dealloc),
                ..
            } = &term.kind
            {
                return Some(term.source_info.safety);
            }
        }
    }
    None
}

fn check_one_body(
    detector: &str,
    cx: &AnalysisContext<'_>,
    name: &str,
    body: &Body,
    config: &DetectorConfig,
    out: &mut Vec<Diagnostic>,
) {
    let program = cx.program();
    let summaries = cx.summaries();
    let points_to = cx.cache().points_to(name);
    let storage_dead = cx.cache().storage_dead(name);
    let freed = cx.cache().maybe_freed(name);
    let heap_model = cx.cache().heap_model(name);
    let heap = cx.cache().heap_state(name);

    // 1. Direct dereferences whose pointee may be dead.
    for site in cx.cache().deref_sites(name) {
        // The dealloc "deref" is double-free territory, not UAF.
        if is_dealloc_site(body, site.location) {
            continue;
        }
        let dead = storage_dead.state_before(body, site.location);
        let freed_locals = freed.state_before(body, site.location);
        let heap_facts = heap.state_before(body, site.location);
        for root in points_to.targets(site.pointer) {
            match root {
                MemRoot::Local(l)
                    if (dead.contains(l.index()) || freed_locals.contains(l.index())) =>
                {
                    let mut d = Diagnostic::new(
                        detector,
                        BugClass::UseAfterFree,
                        Severity::Error,
                        name,
                        site.location,
                        site.source_info.span,
                        site.source_info.safety,
                        format!(
                            "pointer {} dereferenced after the lifetime of its target {l} ended",
                            site.pointer
                        ),
                    );
                    if let Some(s) = invalidation_safety(body, *l) {
                        d = d.with_cause_safety(s);
                    }
                    out.push(d);
                    break;
                }
                MemRoot::Heap(_) => {
                    let site_ids = heap_model.sites_of_pointer(&points_to, site.pointer);
                    if site_ids.iter().any(|&i| heap_facts.freed.contains(i)) {
                        let mut d = Diagnostic::new(
                            detector,
                            BugClass::UseAfterFree,
                            Severity::Error,
                            name,
                            site.location,
                            site.source_info.span,
                            site.source_info.safety,
                            format!(
                                "pointer {} dereferenced after its heap allocation was freed",
                                site.pointer
                            ),
                        );
                        if let Some(s) = dealloc_safety(body) {
                            d = d.with_cause_safety(s);
                        }
                        out.push(d);
                        break;
                    }
                }
                _ => {}
            }
        }
    }

    // 2. Dangling returns: `_0` may point to one of our own locals.
    if body.local_decl(Local::RETURN).ty.is_pointer_like() {
        for root in points_to.targets(Local::RETURN) {
            if let MemRoot::Local(l) = root {
                if !body.is_arg(*l) {
                    // Find the return terminator for a location to report.
                    if let Some(loc) = return_location(body) {
                        out.push(Diagnostic::new(
                            detector,
                            BugClass::DanglingReturn,
                            Severity::Error,
                            name,
                            loc,
                            body.block(loc.block).terminator().source_info.span,
                            body.block(loc.block).terminator().source_info.safety,
                            format!("function returns a pointer to its own local {l}"),
                        ));
                    }
                }
            }
        }
    }

    // 3. Interprocedural: passing a maybe-dangling pointer to a callee that
    //    dereferences it (precise mode) or might (naive mode).
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        let TerminatorKind::Call {
            func: Callee::Fn(callee),
            args,
            ..
        } = &term.kind
        else {
            continue;
        };
        let location = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        let dead = storage_dead.state_before(body, location);
        let freed_locals = freed.state_before(body, location);
        for (i, arg) in args.iter().enumerate() {
            let Some(p) = arg.place().filter(|p| p.is_local()) else {
                continue;
            };
            let is_ptr = body.local_decl(p.local).ty.is_pointer_like();
            if !is_ptr {
                continue;
            }
            let naive_would_flag = program.function(callee).is_some();
            let callee_derefs = match config.interproc {
                InterprocMode::Precise => summaries.derefs_arg(callee, i + 1),
                InterprocMode::Naive => naive_would_flag,
            };
            if !callee_derefs {
                // Precise summaries suppressing a report naive mode would
                // have raised is the paper's §7.1 false-positive fix; count
                // those suppressions when the argument really is dangling.
                if naive_would_flag
                    && config.interproc == InterprocMode::Precise
                    && points_to.targets(p.local).iter().any(|root| {
                        matches!(root, MemRoot::Local(l)
                            if dead.contains(l.index()) || freed_locals.contains(l.index()))
                    })
                {
                    rstudy_telemetry::counter("detector.use-after-free.suppressions", 1);
                }
                continue;
            }
            for root in points_to.targets(p.local) {
                if let MemRoot::Local(l) = root {
                    if dead.contains(l.index()) || freed_locals.contains(l.index()) {
                        let severity = match config.interproc {
                            InterprocMode::Precise => Severity::Error,
                            InterprocMode::Naive => Severity::Warning,
                        };
                        let mut d = Diagnostic::new(
                            detector,
                            BugClass::UseAfterFree,
                            severity,
                            name,
                            location,
                            term.source_info.span,
                            term.source_info.safety,
                            format!(
                                "dangling pointer {} (target {l} is dead) passed to `{callee}`, which may dereference it",
                                p.local
                            ),
                        );
                        if let Some(s) = invalidation_safety(body, *l) {
                            d = d.with_cause_safety(s);
                        }
                        out.push(d);
                        break;
                    }
                }
            }
        }
    }
}

/// Reports dereferences of pointers obtained from a dangling-returning
/// callee: the pointee's frame died when the callee returned, so every
/// such dereference is a use after free.
fn check_dangling_call_results(
    detector: &str,
    cx: &AnalysisContext<'_>,
    name: &str,
    body: &Body,
    out: &mut Vec<Diagnostic>,
) {
    let dangling = cx.dangling_returners();
    if dangling.is_empty() {
        return;
    }
    // Locals holding a dangling result: call destinations plus the closure
    // of direct copies/casts. (The returner itself is not special-cased —
    // it has no calls to a dangling returner unless it is also a caller.)
    let mut tainted: std::collections::BTreeSet<Local> = Default::default();
    for bb in body.block_indices() {
        if let Some(term) = &body.block(bb).terminator {
            if let TerminatorKind::Call {
                func: Callee::Fn(callee),
                destination,
                ..
            } = &term.kind
            {
                if dangling.contains(callee) && destination.is_local() {
                    tainted.insert(destination.local);
                }
            }
        }
    }
    if tainted.is_empty() {
        return;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for bb in body.block_indices() {
            for stmt in &body.block(bb).statements {
                if let rstudy_mir::StatementKind::Assign(place, rv) = &stmt.kind {
                    if !place.is_local() {
                        continue;
                    }
                    let from_tainted = rv.operands().iter().any(|op| {
                        op.place()
                            .filter(|p| p.is_local())
                            .is_some_and(|p| tainted.contains(&p.local))
                    });
                    if from_tainted && tainted.insert(place.local) {
                        changed = true;
                    }
                }
            }
        }
    }
    for site in cx.cache().deref_sites(name) {
        if tainted.contains(&site.pointer) {
            out.push(
                Diagnostic::new(
                    detector,
                    BugClass::UseAfterFree,
                    Severity::Error,
                    name,
                    site.location,
                    site.source_info.span,
                    site.source_info.safety,
                    format!(
                        "pointer {} came from a callee that returns the address of its                          own local; its target died when the callee returned",
                        site.pointer
                    ),
                )
                .with_cause_safety(rstudy_mir::Safety::Safe),
            );
        }
    }
}

fn is_dealloc_site(body: &Body, loc: Location) -> bool {
    let data = body.block(loc.block);
    if loc.statement_index != data.statements.len() {
        return false;
    }
    matches!(
        data.terminator.as_ref().map(|t| &t.kind),
        Some(TerminatorKind::Call {
            func: Callee::Intrinsic(Intrinsic::Dealloc),
            ..
        })
    )
}

fn return_location(body: &Body) -> Option<Location> {
    for bb in body.block_indices() {
        let data = body.block(bb);
        if matches!(
            data.terminator.as_ref().map(|t| &t.kind),
            Some(TerminatorKind::Return)
        ) {
            return Some(Location {
                block: bb,
                statement_index: data.statements.len(),
            });
        }
    }
    None
}

/// Returns `true` if `ty` is a type whose value owns heap state (so UAF on
/// it is meaningful even without an explicit pointer).
#[allow(dead_code)]
fn owns_resources(ty: &Ty) -> bool {
    matches!(ty, Ty::Named(_) | Ty::Mutex(_) | Ty::Channel(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Mutability, Operand, Place, Program, Rvalue};

    fn run(program: &Program) -> Vec<Diagnostic> {
        UseAfterFree.check_program(program, &DetectorConfig::new())
    }

    /// The paper's Fig. 7 shape: pointer created, pointee dropped, pointer used.
    #[test]
    fn detects_deref_after_storage_dead() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(42)));
        b.storage_live(p);
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.storage_dead(x);
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::UseAfterFree);
        assert!(diags[0].effect_safety.is_unsafe());
        assert_eq!(diags[0].cause_safety, Some(Safety::Safe));
    }

    #[test]
    fn no_report_when_use_precedes_death() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(42)));
        b.storage_live(p);
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        b.storage_dead(x);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn detects_heap_use_after_dealloc() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let unit = b.temp(Ty::Unit);
        b.storage_live(p);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        b.call_intrinsic_cont(Intrinsic::Dealloc, vec![Operand::copy(p)], unit);
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("heap"));
    }

    #[test]
    fn detects_dangling_return() {
        let mut b = BodyBuilder::new("make", 0, Ty::mut_ptr(Ty::Int));
        let x = b.local("x", Ty::Int);
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.assign(Place::RETURN, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.storage_dead(x);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert!(diags
            .iter()
            .any(|d| d.bug_class == BugClass::DanglingReturn));
    }

    fn dangling_call_program(callee_derefs: bool) -> Program {
        // callee(p) optionally derefs p; main passes a dead pointer.
        let mut callee = BodyBuilder::new("callee", 1, Ty::Int);
        let p = callee.arg("p", Ty::mut_ptr(Ty::Int));
        if callee_derefs {
            callee.in_unsafe(|b| {
                b.assign(
                    Place::RETURN,
                    Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
                )
            });
        } else {
            callee.assign(Place::RETURN, Rvalue::Use(Operand::int(0)));
        }
        callee.ret();

        let mut main = BodyBuilder::new("main", 0, Ty::Int);
        let x = main.local("x", Ty::Int);
        let q = main.local("q", Ty::mut_ptr(Ty::Int));
        main.storage_live(x);
        main.assign(x, Rvalue::Use(Operand::int(7)));
        main.storage_live(q);
        main.assign(q, Rvalue::AddrOf(Mutability::Mut, x.into()));
        main.storage_dead(x);
        main.call_fn_cont("callee", vec![Operand::copy(q)], Place::RETURN);
        main.ret();
        Program::from_bodies([callee.finish(), main.finish()])
    }

    #[test]
    fn interprocedural_uaf_found_when_callee_derefs() {
        let program = dangling_call_program(true);
        let diags = run(&program);
        assert!(
            diags
                .iter()
                .any(|d| d.function == "main" && d.message.contains("callee")),
            "{diags:?}"
        );
    }

    #[test]
    fn precise_mode_suppresses_non_deref_callee() {
        let program = dangling_call_program(false);
        let diags = run(&program);
        assert!(
            diags.iter().all(|d| d.function != "main"),
            "precise mode must not warn: {diags:?}"
        );
    }

    #[test]
    fn naive_mode_reproduces_the_papers_false_positive() {
        let program = dangling_call_program(false);
        let diags = UseAfterFree.check_program(&program, &DetectorConfig::naive());
        let fp: Vec<_> = diags.iter().filter(|d| d.function == "main").collect();
        assert_eq!(fp.len(), 1, "naive interprocedural mode warns: {diags:?}");
        assert_eq!(fp[0].severity, Severity::Warning);
    }

    #[test]
    fn drop_then_use_is_reported() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let s = b.local("s", Ty::Named("BioSlice".into()));
        let p = b.local("p", Ty::const_ptr(Ty::Named("BioSlice".into())));
        b.storage_live(s);
        b.assign(s, Rvalue::Use(Operand::int(0)));
        b.storage_live(p);
        b.assign(p, Rvalue::AddrOf(Mutability::Not, s.into()));
        b.drop_cont(s); // lifetime of the object ends (paper Fig. 7)
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::UseAfterFree);
    }
}
