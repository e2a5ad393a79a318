//! The uninitialized-read detector (paper §5.1).
//!
//! All seven uninitialized-read bugs in the study are "unsafe → safe":
//! unsafe code creates an uninitialized buffer (or calls
//! `mem::uninitialized`), and safe code later reads it. Two patterns are
//! checked:
//!
//! 1. reads through a pointer into heap memory no write has reached, and
//! 2. reads of locals that were never assigned (including those "assigned"
//!    by `mem::uninitialized()`).

use rstudy_analysis::cache::AnalysisCache;
use rstudy_mir::visit::Location;
use rstudy_mir::{Body, Callee, Intrinsic, StatementKind, TerminatorKind};

use crate::config::DetectorConfig;
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// The uninitialized-read detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct UninitRead;

impl Detector for UninitRead {
    fn name(&self) -> &'static str {
        "uninit-read"
    }

    fn check_body(
        &self,
        cx: &AnalysisContext<'_>,
        function: &str,
        body: &Body,
        _config: &DetectorConfig,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_one_body(self.name(), cx, function, body, &mut out);
        out
    }
}

fn check_one_body(
    detector: &str,
    cx: &AnalysisContext<'_>,
    name: &str,
    body: &Body,
    out: &mut Vec<Diagnostic>,
) {
    let points_to = cx.cache().points_to(name);
    let heap_model = cx.cache().heap_model(name);
    let mut heap = cx.cache().cursor(name, AnalysisCache::heap_state);
    let mut uninit = cx.cache().cursor(name, AnalysisCache::maybe_uninit);

    // 1. Reads through pointers into never-written heap allocations.
    for site in cx.cache().deref_sites(name) {
        if site.is_write {
            continue;
        }
        // Skip the dealloc pseudo-deref: freeing uninitialized memory is
        // fine (it is the *drop* of garbage that is not, which the
        // invalid-free detector covers).
        if is_dealloc(body, site.location) {
            continue;
        }
        let sites = heap_model.sites_of_pointer(&points_to, site.pointer);
        if sites.is_empty() {
            continue;
        }
        let facts = heap.seek_before(site.location);
        if sites
            .iter()
            .any(|&s| !facts.written.contains(s) && !facts.freed.contains(s))
        {
            out.push(
                Diagnostic::new(
                    detector,
                    BugClass::UninitializedRead,
                    Severity::Error,
                    name,
                    site.location,
                    site.source_info.span,
                    site.source_info.safety,
                    format!(
                        "read through {} from heap memory that no write has reached",
                        site.pointer
                    ),
                )
                .with_cause_safety(alloc_safety(body).unwrap_or(site.source_info.safety)),
            );
        }
    }

    // 2. Reads of locals that may never have been assigned. Restricted to
    //    locals whose value actually flows somewhere (operand reads), to
    //    stay quiet on storage markers and drops.
    for bb in body.block_indices() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let StatementKind::Assign(_, rv) = &stmt.kind else {
                continue;
            };
            let location = Location {
                block: bb,
                statement_index: i,
            };
            for op in rv.operands() {
                let Some(p) = op.place().filter(|p| p.is_local()) else {
                    continue;
                };
                if uninit.seek_before(location).contains(p.local.index()) {
                    out.push(
                        Diagnostic::new(
                            detector,
                            BugClass::UninitializedRead,
                            Severity::Error,
                            name,
                            location,
                            stmt.source_info.span,
                            stmt.source_info.safety,
                            format!("{} may be read before initialization", p.local),
                        )
                        .with_cause_safety(uninit_cause_safety(body, p.local)),
                    );
                }
            }
        }
    }
}

fn is_dealloc(body: &Body, loc: Location) -> bool {
    let data = body.block(loc.block);
    loc.statement_index == data.statements.len()
        && matches!(
            data.terminator.as_ref().map(|t| &t.kind),
            Some(TerminatorKind::Call {
                func: Callee::Intrinsic(Intrinsic::Dealloc),
                ..
            })
        )
}

fn alloc_safety(body: &Body) -> Option<rstudy_mir::Safety> {
    for bb in body.block_indices() {
        if let Some(term) = &body.block(bb).terminator {
            if let TerminatorKind::Call {
                func: Callee::Intrinsic(Intrinsic::Alloc),
                ..
            } = &term.kind
            {
                return Some(term.source_info.safety);
            }
        }
    }
    None
}

/// The cause of an uninitialized local is its `mem::uninitialized` site if
/// one exists, otherwise its `StorageLive` (safe).
fn uninit_cause_safety(body: &Body, local: rstudy_mir::Local) -> rstudy_mir::Safety {
    for bb in body.block_indices() {
        if let Some(term) = &body.block(bb).terminator {
            if let TerminatorKind::Call {
                func: Callee::Intrinsic(Intrinsic::MemUninitialized),
                destination,
                ..
            } = &term.kind
            {
                if destination.is_local() && destination.local == local {
                    return term.source_info.safety;
                }
            }
        }
    }
    rstudy_mir::Safety::Safe
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Operand, Place, Program, Rvalue, Safety, Ty};

    fn run(program: &Program) -> Vec<Diagnostic> {
        UninitRead.check_program(program, &DetectorConfig::new())
    }

    #[test]
    fn detects_read_of_unwritten_heap() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        b.in_unsafe(|b| b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p));
        // Safe-looking read of the uninitialized buffer (unsafe→safe shape).
        b.assign(
            Place::RETURN,
            Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::UninitializedRead);
        assert_eq!(diags[0].cause_safety, Some(Safety::Unsafe));
        assert!(!diags[0].effect_safety.is_unsafe());
    }

    #[test]
    fn written_heap_is_clean() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let unit = b.temp(Ty::Unit);
        b.storage_live(p);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        b.call_intrinsic_cont(
            Intrinsic::PtrWrite,
            vec![Operand::copy(p), Operand::int(3)],
            unit,
        );
        b.assign(
            Place::RETURN,
            Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn detects_read_of_never_assigned_local() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        b.storage_live(x);
        b.assign(Place::RETURN, Rvalue::Use(Operand::copy(x)));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn detects_mem_uninitialized_value_read() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        b.storage_live(x);
        b.in_unsafe(|b| b.call_intrinsic_cont(Intrinsic::MemUninitialized, vec![], x));
        b.assign(Place::RETURN, Rvalue::Use(Operand::copy(x)));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].cause_safety, Some(Safety::Unsafe));
    }

    #[test]
    fn assigned_local_is_clean() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.assign(Place::RETURN, Rvalue::Use(Operand::copy(x)));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn partially_initializing_branch_is_reported() {
        // Only one branch assigns x before the read.
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        b.storage_live(x);
        let (t, e) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(t);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.goto(join);
        b.switch_to(e);
        b.goto(join);
        b.switch_to(join);
        b.assign(Place::RETURN, Rvalue::Use(Operand::copy(x)));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
