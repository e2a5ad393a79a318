//! The invalid-free detector (paper §5.1, Fig. 6).
//!
//! The study's signature invalid-free shape is unique to Rust: a struct is
//! allocated with `alloc`, and a whole new value is assigned through the raw
//! pointer (`*f = FILE{..}`). The assignment first *drops* the previous
//! value — but the memory is uninitialized garbage, so the drop frees wild
//! pointers. The fix is `ptr::write`, which does not drop. This detector
//! reports plain deref-assignments of droppable values into uninitialized
//! heap memory, and `Drop`s of locals that are still uninitialized.

use rstudy_analysis::cache::AnalysisCache;
use rstudy_mir::visit::Location;
use rstudy_mir::{Body, StatementKind, TerminatorKind, Ty};

use crate::config::DetectorConfig;
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// The invalid-free detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct InvalidFree;

/// Returns `true` if dropping a value of `ty` runs meaningful drop glue
/// (so dropping garbage of this type is dangerous).
fn has_drop_glue(ty: &Ty) -> bool {
    match ty {
        Ty::Named(_) | Ty::Mutex(_) | Ty::RwLock(_) | Ty::Guard(_) | Ty::Channel(_) => true,
        Ty::Array(t, _) => has_drop_glue(t),
        Ty::Tuple(ts) => ts.iter().any(has_drop_glue),
        _ => false,
    }
}

impl Detector for InvalidFree {
    fn name(&self) -> &'static str {
        "invalid-free"
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

    // 1. `*f = value` into never-written heap memory, where the pointee type
    //    has drop glue (Fig. 6).
    for bb in body.block_indices() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let StatementKind::Assign(place, _) = &stmt.kind else {
                continue;
            };
            if !place.has_deref() {
                continue;
            }
            let ptr = place.local;
            let pointee_has_drop = body
                .local_decl(ptr)
                .ty
                .pointee()
                .map(has_drop_glue)
                .unwrap_or(false);
            if !pointee_has_drop {
                continue;
            }
            let location = Location {
                block: bb,
                statement_index: i,
            };
            let sites = heap_model.sites_of_pointer(&points_to, ptr);
            if sites.is_empty() {
                continue;
            }
            let facts = heap.seek_before(location);
            if sites.iter().any(|&s| !facts.written.contains(s)) {
                out.push(
                    Diagnostic::new(
                        detector,
                        BugClass::InvalidFree,
                        Severity::Error,
                        name,
                        location,
                        stmt.source_info.span,
                        stmt.source_info.safety,
                        format!(
                            "assignment through {ptr} drops the previous value, but the \
                             memory is uninitialized; use ptr::write instead"
                        ),
                    )
                    .with_cause_safety(stmt.source_info.safety),
                );
            }
        }
    }

    // 2. Dropping a local that was never initialized.
    let mut invalid = cx.cache().cursor(name, AnalysisCache::maybe_invalid);
    let mut freed = cx.cache().cursor(name, AnalysisCache::maybe_freed);
    for bb in body.block_indices() {
        let data = body.block(bb);
        let Some(term) = &data.terminator else {
            continue;
        };
        let TerminatorKind::Drop { place, .. } = &term.kind else {
            continue;
        };
        if !place.is_local() {
            continue;
        }
        let l = place.local;
        if !has_drop_glue(&body.local_decl(l).ty) {
            continue;
        }
        let location = Location {
            block: bb,
            statement_index: data.statements.len(),
        };
        // Invalid but not freed ⇒ never initialized on some path.
        if invalid.seek_before(location).contains(l.index())
            && !freed.seek_before(location).contains(l.index())
        {
            out.push(
                Diagnostic::new(
                    detector,
                    BugClass::InvalidFree,
                    Severity::Error,
                    name,
                    location,
                    term.source_info.span,
                    term.source_info.safety,
                    format!("{l} may be dropped while still uninitialized"),
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
    use rstudy_mir::{Intrinsic, Operand, Place, Program, Rvalue};

    fn run(program: &Program) -> Vec<Diagnostic> {
        InvalidFree.check_program(program, &DetectorConfig::new())
    }

    /// The paper's Fig. 6 (Redox `_fdopen`): `*f = FILE{..}` on fresh alloc.
    #[test]
    fn detects_assign_into_uninitialized_alloc() {
        let file_ty = Ty::Named("FILE".into());
        let mut b = BodyBuilder::new("_fdopen", 0, Ty::Unit);
        b.unsafe_fn();
        let f = b.local("f", Ty::mut_ptr(file_ty));
        b.storage_live(f);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(2)], f);
        b.assign(
            Place::from_local(f).deref(),
            Rvalue::Use(Operand::int(0)), // stands in for `FILE { buf: vec![..] }`
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::InvalidFree);
        assert!(diags[0].message.contains("ptr::write"));
    }

    /// The paper's fix: `ptr::write(f, FILE{..})` does not drop.
    #[test]
    fn ptr_write_into_fresh_alloc_is_clean() {
        let file_ty = Ty::Named("FILE".into());
        let mut b = BodyBuilder::new("_fdopen", 0, Ty::Unit);
        b.unsafe_fn();
        let f = b.local("f", Ty::mut_ptr(file_ty));
        let unit = b.temp(Ty::Unit);
        b.storage_live(f);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(2)], f);
        b.call_intrinsic_cont(
            Intrinsic::PtrWrite,
            vec![Operand::copy(f), Operand::int(0)],
            unit,
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn second_assignment_is_clean() {
        // After ptr::write initialized the memory, `*f = v` is a valid drop.
        let file_ty = Ty::Named("FILE".into());
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let f = b.local("f", Ty::mut_ptr(file_ty));
        let unit = b.temp(Ty::Unit);
        b.storage_live(f);
        b.storage_live(unit);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(2)], f);
        b.call_intrinsic_cont(
            Intrinsic::PtrWrite,
            vec![Operand::copy(f), Operand::int(0)],
            unit,
        );
        b.in_unsafe(|b| b.assign(Place::from_local(f).deref(), Rvalue::Use(Operand::int(1))));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn plain_int_pointee_has_no_drop_glue() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(1)], p);
        b.in_unsafe(|b| b.assign(Place::from_local(p).deref(), Rvalue::Use(Operand::int(1))));
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty(), "ints have no drop glue");
    }

    #[test]
    fn detects_drop_of_uninitialized_local() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Named("S".into()));
        b.storage_live(x);
        b.drop_cont(x); // never initialized
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("uninitialized"));
    }

    #[test]
    fn drop_of_initialized_local_is_clean() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Named("S".into()));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(1)));
        b.drop_cont(x);
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }
}
