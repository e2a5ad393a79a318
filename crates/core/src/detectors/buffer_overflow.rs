//! The buffer-overflow detector (paper §5.1).
//!
//! The dominant pattern in the study (17 of 21 bugs): the index or size is
//! computed in *safe* code and the out-of-bounds access happens later in
//! *unsafe* code (`get_unchecked`, pointer arithmetic). The detector
//! propagates integer constants, resolves pointers to array-typed objects,
//! and reports accesses whose index is provably outside the array.

use std::collections::BTreeMap;

use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::const_prop::{eval_operand, ConstMap};
use rstudy_analysis::points_to::MemRoot;
use rstudy_mir::visit::Location;
use rstudy_mir::{BinOp, Body, Local, Operand, ProjElem, Rvalue, Safety, StatementKind, Ty};

use crate::config::DetectorConfig;
use crate::detectors::{AnalysisContext, Detector};
use crate::diagnostics::{BugClass, Diagnostic, Severity};

/// The buffer-overflow detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferOverflow;

impl Detector for BufferOverflow {
    fn name(&self) -> &'static str {
        "buffer-overflow"
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

fn array_len(ty: &Ty) -> Option<u64> {
    match ty {
        Ty::Array(_, n) => Some(*n),
        _ => None,
    }
}

/// Where the index local was computed, for cause-site safety attribution.
fn index_def_safety(body: &Body, index: Local) -> Safety {
    for bb in body.block_indices() {
        for stmt in &body.block(bb).statements {
            if let StatementKind::Assign(place, _) = &stmt.kind {
                if place.is_local() && place.local == index {
                    return stmt.source_info.safety;
                }
            }
        }
    }
    Safety::Safe
}

fn check_one_body(
    detector: &str,
    cx: &AnalysisContext<'_>,
    name: &str,
    body: &Body,
    out: &mut Vec<Diagnostic>,
) {
    let mut consts = cx.cache().cursor(name, AnalysisCache::const_prop);
    let unreached = ConstMap::new();
    let points_to = cx.cache().points_to(name);

    // 1. Direct indexing of array-typed places: `arr[i]` / `arr[7]`. Only
    //    an assignment that indexes some place needs the constants.
    for bb in body.block_indices() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let StatementKind::Assign(place, rv) = &stmt.kind else {
                continue;
            };
            let places = || {
                let based = match rv {
                    Rvalue::Ref(_, p) | Rvalue::AddrOf(_, p) | Rvalue::Len(p) => Some(p),
                    _ => None,
                };
                std::iter::once(place)
                    .chain(rv.operands().filter_map(Operand::place))
                    .chain(based)
            };
            if !places().any(rstudy_mir::Place::has_index) {
                continue;
            }
            let location = Location {
                block: bb,
                statement_index: i,
            };
            let env = consts.seek_before(location).as_ref().unwrap_or(&unreached);
            for p in places() {
                check_place_indexing(
                    detector,
                    name,
                    body,
                    p,
                    env,
                    location,
                    stmt.source_info,
                    out,
                );
            }
        }
    }

    // 2. Pointer-offset arithmetic past the end of the pointee array:
    //    `q = p offset k; ... *q`. Offsets are grouped by their result `q`
    //    in body order, so each dereference reads only its own pointer's.
    // q -> [(p, k, k's local if it has one, the offset's safety)]. Where
    // k's local was computed is looked up only for a finding, as in part 1.
    type Offsets = BTreeMap<Local, Vec<(Local, i64, Option<Local>, Safety)>>;
    let mut offsets = Offsets::new();
    for bb in body.block_indices() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let StatementKind::Assign(place, Rvalue::BinaryOp(BinOp::Offset, base, amount)) =
                &stmt.kind
            else {
                continue;
            };
            if !place.is_local() {
                continue;
            }
            let location = Location {
                block: bb,
                statement_index: i,
            };
            let Some(p) = base.place().filter(|p| p.is_local()).map(|p| p.local) else {
                continue;
            };
            let env = consts.seek_before(location).as_ref().unwrap_or(&unreached);
            let Some(k) = eval_operand(env, amount) else {
                continue;
            };
            let amount = amount.place().filter(|p| p.is_local()).map(|p| p.local);
            offsets
                .entry(place.local)
                .or_default()
                .push((p, k, amount, stmt.source_info.safety));
        }
    }
    for site in cx.cache().deref_sites(name) {
        let q = site.pointer;
        for &(p, k, amount, safety) in offsets.get(&q).into_iter().flatten() {
            for root in points_to.targets(p) {
                let MemRoot::Local(l) = root else { continue };
                let Some(len) = array_len(&body.local_decl(*l).ty) else {
                    continue;
                };
                if k < 0 || k as u64 >= len {
                    out.push(
                        Diagnostic::new(
                            detector,
                            BugClass::BufferOverflow,
                            Severity::Error,
                            name,
                            site.location,
                            site.source_info.span,
                            site.source_info.safety,
                            format!(
                                "pointer {} = {} offset {} accesses element {} of {} ([_; {}])",
                                q, p, k, k, l, len
                            ),
                        )
                        .with_cause_safety(amount.map_or(safety, |a| index_def_safety(body, a))),
                    );
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_place_indexing(
    detector: &str,
    name: &str,
    body: &Body,
    place: &rstudy_mir::Place,
    env: &ConstMap,
    location: Location,
    source_info: rstudy_mir::SourceInfo,
    out: &mut Vec<Diagnostic>,
) {
    // Walk the projection, tracking the current type where we can.
    let mut ty = Some(body.local_decl(place.local).ty.clone());
    for elem in &place.projection {
        match elem {
            ProjElem::Deref => {
                ty = ty.as_ref().and_then(|t| t.pointee().cloned());
            }
            ProjElem::Field(_) => {
                ty = None; // named-struct fields are untyped in this IR
            }
            ProjElem::ConstIndex(n) => {
                if let Some(len) = ty.as_ref().and_then(array_len) {
                    if *n >= len {
                        out.push(
                            Diagnostic::new(
                                detector,
                                BugClass::BufferOverflow,
                                Severity::Error,
                                name,
                                location,
                                source_info.span,
                                source_info.safety,
                                format!("index {n} is out of bounds for array of length {len}"),
                            )
                            .with_cause_safety(source_info.safety),
                        );
                    }
                    ty = match ty {
                        Some(Ty::Array(elem_ty, _)) => Some(*elem_ty),
                        other => other,
                    };
                }
            }
            ProjElem::Index(idx) => {
                if let Some(len) = ty.as_ref().and_then(array_len) {
                    if let Some(v) = env.get(idx) {
                        if *v < 0 || *v as u64 >= len {
                            out.push(
                                Diagnostic::new(
                                    detector,
                                    BugClass::BufferOverflow,
                                    Severity::Error,
                                    name,
                                    location,
                                    source_info.span,
                                    source_info.safety,
                                    format!(
                                        "index {idx} = {v} is out of bounds for array of length {len}"
                                    ),
                                )
                                .with_cause_safety(index_def_safety(body, *idx)),
                            );
                        }
                    }
                    ty = match ty {
                        Some(Ty::Array(elem_ty, _)) => Some(*elem_ty),
                        other => other,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{Mutability, Operand, Place, Program};

    fn run(program: &Program) -> Vec<Diagnostic> {
        BufferOverflow.check_program(program, &DetectorConfig::new())
    }

    fn arr_ty(n: u64) -> Ty {
        Ty::Array(Box::new(Ty::Int), n)
    }

    #[test]
    fn detects_constant_index_out_of_bounds() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let a = b.local("a", arr_ty(4));
        b.storage_live(a);
        b.assign(a, Rvalue::Aggregate(vec![Operand::int(0); 4]));
        b.assign(
            Place::RETURN,
            Rvalue::Use(Operand::copy(Place::from_local(a).const_index(4))),
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].bug_class, BugClass::BufferOverflow);
    }

    #[test]
    fn in_bounds_constant_index_is_clean() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let a = b.local("a", arr_ty(4));
        b.storage_live(a);
        b.assign(a, Rvalue::Aggregate(vec![Operand::int(0); 4]));
        b.assign(
            Place::RETURN,
            Rvalue::Use(Operand::copy(Place::from_local(a).const_index(3))),
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    /// The paper's dominant shape: index computed in safe code, access in
    /// unsafe code (modelling `get_unchecked`).
    #[test]
    fn detects_safe_computed_index_used_unsafely() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let a = b.local("a", arr_ty(4));
        let i = b.local("i", Ty::Int);
        b.storage_live(a);
        b.assign(a, Rvalue::Aggregate(vec![Operand::int(0); 4]));
        b.storage_live(i);
        // Safe code computes i = 2 + 3 (a wrong size calculation).
        b.assign(
            i,
            Rvalue::BinaryOp(BinOp::Add, Operand::int(2), Operand::int(3)),
        );
        // Unsafe unchecked access.
        b.in_unsafe(|b| {
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(a).index(i))),
            )
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].effect_safety.is_unsafe());
        assert_eq!(diags[0].cause_safety, Some(Safety::Safe));
    }

    #[test]
    fn detects_pointer_offset_past_end() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let a = b.local("a", arr_ty(4));
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let q = b.local("q", Ty::mut_ptr(Ty::Int));
        b.storage_live(a);
        b.assign(a, Rvalue::Aggregate(vec![Operand::int(0); 4]));
        b.storage_live(p);
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, a.into()));
        b.storage_live(q);
        b.in_unsafe(|b| {
            b.assign(
                q,
                Rvalue::BinaryOp(BinOp::Offset, Operand::copy(p), Operand::int(4)),
            );
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(q).deref())),
            );
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        let diags = run(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("offset"));
    }

    #[test]
    fn in_bounds_offset_is_clean() {
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let a = b.local("a", arr_ty(4));
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let q = b.local("q", Ty::mut_ptr(Ty::Int));
        b.storage_live(a);
        b.assign(a, Rvalue::Aggregate(vec![Operand::int(0); 4]));
        b.storage_live(p);
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, a.into()));
        b.storage_live(q);
        b.in_unsafe(|b| {
            b.assign(
                q,
                Rvalue::BinaryOp(BinOp::Offset, Operand::copy(p), Operand::int(3)),
            );
            b.assign(
                Place::RETURN,
                Rvalue::Use(Operand::copy(Place::from_local(q).deref())),
            );
        });
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }

    #[test]
    fn unknown_index_is_not_reported() {
        // Index comes from a call — no constant, no report (conservative).
        let mut b = BodyBuilder::new("main", 0, Ty::Int);
        let a = b.local("a", arr_ty(4));
        let i = b.local("i", Ty::Int);
        b.storage_live(a);
        b.assign(a, Rvalue::Aggregate(vec![Operand::int(0); 4]));
        b.storage_live(i);
        b.call_intrinsic_cont(rstudy_mir::Intrinsic::AtomicNew, vec![Operand::int(0)], i);
        b.assign(
            Place::RETURN,
            Rvalue::Use(Operand::copy(Place::from_local(a).index(i))),
        );
        b.ret();
        let program = Program::from_bodies([b.finish()]);
        assert!(run(&program).is_empty());
    }
}
