//! The double-free detector.
//!
//! Covers the two shapes the study reports (§5.1):
//!
//! 1. a heap allocation deallocated twice along one path, and
//! 2. the Rust-unique `t2 = ptr::read(&t1)` pattern that duplicates
//!    ownership without moving, so that both owners drop the same value
//!    ("unsafe → safe" in Table 2 — the unsafe read is the cause, the safe
//!    implicit drops are the effect).

use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::points_to::MemRoot;
use rstudy_mir::visit::Location;
use rstudy_mir::{Body, Callee, Intrinsic, Local, Operand, SourceInfo, TerminatorKind};

use crate::config::DetectorConfig;
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// The double-free detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleFree;

impl Detector for DoubleFree {
    fn name(&self) -> &'static str {
        "double-free"
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

/// A drop event of a bare local: `Drop(_x)` or `mem::drop(_x)`.
#[derive(Debug, Clone, Copy)]
struct DropEvent {
    local: Local,
    location: Location,
    source_info: SourceInfo,
}

fn drop_events(body: &Body) -> Vec<DropEvent> {
    let mut out = Vec::new();
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        let location = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        match &term.kind {
            TerminatorKind::Drop { place, .. } if place.is_local() => out.push(DropEvent {
                local: place.local,
                location,
                source_info: term.source_info,
            }),
            TerminatorKind::Call {
                func: Callee::Intrinsic(Intrinsic::MemDrop),
                args,
                ..
            } => {
                if let Some(Operand::Copy(p) | Operand::Move(p)) = args.first() {
                    if p.is_local() {
                        out.push(DropEvent {
                            local: p.local,
                            location,
                            source_info: term.source_info,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
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

    // 1. dealloc on memory that may already be freed.
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        if let TerminatorKind::Call {
            func: Callee::Intrinsic(Intrinsic::Dealloc),
            args,
            ..
        } = &term.kind
        {
            let location = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            let Some(p) = args
                .first()
                .and_then(Operand::place)
                .filter(|p| p.is_local())
            else {
                continue;
            };
            let sites = heap_model.sites_of_pointer(&points_to, p.local);
            if sites.is_empty() {
                continue;
            }
            let facts = heap.seek_before(location);
            if sites.iter().any(|&s| facts.freed.contains(s)) {
                out.push(
                    Diagnostic::new(
                        detector,
                        BugClass::DoubleFree,
                        Severity::Error,
                        name,
                        location,
                        term.source_info.span,
                        term.source_info.safety,
                        format!(
                            "allocation reached through {} may already be freed when deallocated here",
                            p.local
                        ),
                    )
                    .with_cause_safety(term.source_info.safety),
                );
            }
        }
    }

    // 2. Ownership duplicated by `ptr::read`, both owners dropped.
    let drops = drop_events(body);
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        let TerminatorKind::Call {
            func: Callee::Intrinsic(Intrinsic::PtrRead),
            args,
            destination,
            ..
        } = &term.kind
        else {
            continue;
        };
        if !destination.is_local() {
            continue;
        }
        let duplicate = destination.local;
        let Some(src_ptr) = args
            .first()
            .and_then(Operand::place)
            .filter(|p| p.is_local())
        else {
            continue;
        };
        let originals: Vec<Local> = points_to
            .targets(src_ptr.local)
            .iter()
            .filter_map(|r| match r {
                MemRoot::Local(l) => Some(*l),
                _ => None,
            })
            .collect();
        let dup_drop = drops.iter().find(|d| d.local == duplicate);
        let orig_drop = drops.iter().find(|d| originals.contains(&d.local));
        if let (Some(dup), Some(orig)) = (dup_drop, orig_drop) {
            out.push(
                Diagnostic::new(
                    detector,
                    BugClass::DoubleFree,
                    Severity::Error,
                    name,
                    dup.location,
                    dup.source_info.span,
                    dup.source_info.safety,
                    format!(
                        "{} duplicates the value owned by {} via ptr::read; both are dropped (second drop here, first at bb{}[{}])",
                        duplicate, orig.local, orig.location.block.0, orig.location.statement_index
                    ),
                )
                .with_cause_safety(term.source_info.safety),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Mutability, Program, Rvalue, Safety, Ty};

    fn run(program: &Program) -> Vec<Diagnostic> {
        DoubleFree.check_program(program, &DetectorConfig::new())
    }

    #[test]
    fn detects_two_deallocs_of_one_allocation() {
        let mut b = BodyBuilder::new("main", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let unit = b.temp(Ty::Unit);
        b.storage_live(p);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        b.in_unsafe(|b| b.call_intrinsic_cont(Intrinsic::Dealloc, vec![Operand::copy(p)], unit));
        b.in_unsafe(|b| b.call_intrinsic_cont(Intrinsic::Dealloc, vec![Operand::copy(p)], unit));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::DoubleFree);
    }

    #[test]
    fn single_dealloc_is_clean() {
        let mut b = BodyBuilder::new("main", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let unit = b.temp(Ty::Unit);
        b.storage_live(p);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        b.call_intrinsic_cont(Intrinsic::Dealloc, vec![Operand::copy(p)], unit);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    /// The paper's `t2 = ptr::read::<T>(&t1)` example.
    #[test]
    fn detects_ptr_read_ownership_duplication() {
        let s_ty = Ty::Named("T".into());
        let mut b = BodyBuilder::new("main", 0, Ty::Unit);
        let t1 = b.local("t1", s_ty.clone());
        let t2 = b.local("t2", s_ty.clone());
        let r = b.local("r", Ty::const_ptr(s_ty));
        b.storage_live(t1);
        b.assign(t1, Rvalue::Use(Operand::int(1)));
        b.storage_live(r);
        b.assign(r, Rvalue::AddrOf(Mutability::Not, t1.into()));
        b.storage_live(t2);
        b.in_unsafe(|b| b.call_intrinsic_cont(Intrinsic::PtrRead, vec![Operand::copy(r)], t2));
        b.drop_cont(t2);
        b.drop_cont(t1);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::DoubleFree);
        // Cause is the unsafe ptr::read; effect is a safe implicit drop.
        assert_eq!(diags[0].cause_safety, Some(Safety::Unsafe));
        assert!(!diags[0].effect_safety.is_unsafe());
    }

    #[test]
    fn ptr_read_with_single_owner_dropped_is_clean() {
        // t2 = ptr::read(&t1); mem::forget-like: only t2 dropped.
        let s_ty = Ty::Named("T".into());
        let mut b = BodyBuilder::new("main", 0, Ty::Unit);
        let t1 = b.local("t1", s_ty.clone());
        let t2 = b.local("t2", s_ty.clone());
        let r = b.local("r", Ty::const_ptr(s_ty));
        b.storage_live(t1);
        b.assign(t1, Rvalue::Use(Operand::int(1)));
        b.storage_live(r);
        b.assign(r, Rvalue::AddrOf(Mutability::Not, t1.into()));
        b.storage_live(t2);
        b.in_unsafe(|b| b.call_intrinsic_cont(Intrinsic::PtrRead, vec![Operand::copy(r)], t2));
        b.drop_cont(t2);
        // t1 is never dropped (e.g. forgotten) — no double free.
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn mem_drop_counts_as_drop_event() {
        let s_ty = Ty::Named("T".into());
        let mut b = BodyBuilder::new("main", 0, Ty::Unit);
        let t1 = b.local("t1", s_ty.clone());
        let t2 = b.local("t2", s_ty.clone());
        let r = b.local("r", Ty::const_ptr(s_ty));
        let unit = b.temp(Ty::Unit);
        b.storage_live(t1);
        b.assign(t1, Rvalue::Use(Operand::int(1)));
        b.storage_live(r);
        b.assign(r, Rvalue::AddrOf(Mutability::Not, t1.into()));
        b.storage_live(t2);
        b.storage_live(unit);
        b.in_unsafe(|b| b.call_intrinsic_cont(Intrinsic::PtrRead, vec![Operand::copy(r)], t2));
        b.call_intrinsic_cont(Intrinsic::MemDrop, vec![Operand::mov(t2)], unit);
        b.call_intrinsic_cont(Intrinsic::MemDrop, vec![Operand::mov(t1)], unit);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn fixed_version_with_move_is_clean() {
        // The paper's fix: `t2 = t1` (a move) instead of ptr::read.
        let s_ty = Ty::Named("T".into());
        let mut b = BodyBuilder::new("main", 0, Ty::Unit);
        let t1 = b.local("t1", s_ty.clone());
        let t2 = b.local("t2", s_ty);
        b.storage_live(t1);
        b.assign(t1, Rvalue::Use(Operand::int(1)));
        b.storage_live(t2);
        b.assign(t2, Rvalue::Use(Operand::mov(t1)));
        b.drop_cont(t2);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }
}
