//! The null-pointer-dereference detector (paper §5.1).
//!
//! Every null-dereference bug in the study dereferences, in unsafe code, a
//! pointer that was produced as null in safe code (often
//! `ptr::null_mut()` kept past a `match`, as in the RustSec bug of Fig. 7's
//! sibling). The cache's [`MaybeNull`](rstudy_analysis::deref::MaybeNull)
//! tracks "may be null" as a forward dataflow fact seeded by constant-zero
//! pointer assignments, and the detector reports dereferences of maybe-null
//! pointers.

use rstudy_analysis::cache::AnalysisCache;
use rstudy_mir::Body;

use crate::config::DetectorConfig;
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// The null-dereference detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullDeref;

impl Detector for NullDeref {
    fn name(&self) -> &'static str {
        "null-deref"
    }

    fn check_body(
        &self,
        cx: &AnalysisContext<'_>,
        function: &str,
        body: &Body,
        _config: &DetectorConfig,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut nullness = cx.cache().cursor(function, AnalysisCache::maybe_null);
        for site in cx.cache().deref_sites(function) {
            if !body.local_decl(site.pointer).ty.is_raw_ptr() {
                continue;
            }
            if nullness
                .seek_before(site.location)
                .contains(site.pointer.index())
            {
                out.push(
                    Diagnostic::new(
                        self.name(),
                        BugClass::NullPointerDereference,
                        Severity::Error,
                        function,
                        site.location,
                        site.source_info.span,
                        site.source_info.safety,
                        format!("{} may be null when dereferenced", site.pointer),
                    )
                    .with_cause_safety(rstudy_mir::Safety::Safe),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Mutability, Operand, Place, Program, Rvalue, Ty};

    fn run(program: &Program) -> Vec<Diagnostic> {
        NullDeref.check_program(program, &DetectorConfig::new())
    }

    #[test]
    fn detects_deref_of_constant_null() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        // p = ptr::null_mut() modelled as a 0-to-pointer cast (safe code).
        b.assign(p, Rvalue::Cast(Operand::int(0), Ty::mut_ptr(Ty::Int)));
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
        assert_eq!(diags[0].bug_class, BugClass::NullPointerDereference);
        assert!(diags[0].effect_safety.is_unsafe());
    }

    #[test]
    fn nullness_propagates_through_copies() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let q = b.local("q", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        b.storage_live(q);
        b.assign(p, Rvalue::Cast(Operand::int(0), Ty::mut_ptr(Ty::Int)));
        b.assign(q, Rvalue::Use(Operand::copy(p)));
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(q).deref())),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert_eq!(run(&program).len(), 1);
    }

    #[test]
    fn reassigned_pointer_is_clean() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(5)));
        b.storage_live(p);
        b.assign(p, Rvalue::Cast(Operand::int(0), Ty::mut_ptr(Ty::Int)));
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn maybe_null_from_one_branch_is_reported() {
        // match-like shape of the RustSec bug: one arm yields null.
        let mut b = BodyBuilder::new("sign", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(5)));
        b.storage_live(p);
        let (some_arm, none_arm) = b.branch_bool(Operand::int(1));
        let join = b.new_block();
        b.switch_to(some_arm);
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.goto(join);
        b.switch_to(none_arm);
        b.assign(p, Rvalue::Cast(Operand::int(0), Ty::mut_ptr(Ty::Int)));
        b.goto(join);
        b.switch_to(join);
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(p).deref())),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert_eq!(run(&program).len(), 1);
    }

    #[test]
    fn references_are_never_null() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let x = b.local("x", Ty::Int);
        let r = b.local("r", Ty::shared_ref(Ty::Int));
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::int(0)));
        b.storage_live(r);
        b.assign(r, Rvalue::Ref(Mutability::Not, x.into()));
        b.assign(
            Place::RETURN,
            Rvalue::Use(Operand::copy(Place::from_local(r).deref())),
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }
}
