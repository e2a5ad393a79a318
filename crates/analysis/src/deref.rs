//! Pointer-dereference sites: every place a body reads or writes memory
//! through a pointer local.

use rstudy_mir::visit::Location;
use rstudy_mir::{
    Body, Callee, Intrinsic, Local, Operand, Place, Rvalue, SourceInfo, StatementKind,
    TerminatorKind,
};

/// One spot where memory behind a pointer local is accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerefSite {
    /// Where the access happens.
    pub location: Location,
    /// The pointer local whose pointee is accessed.
    pub pointer: Local,
    /// Source info of the accessing node.
    pub source_info: SourceInfo,
    /// `true` if the access writes the pointee.
    pub is_write: bool,
}

fn place_deref(place: &Place) -> Option<Local> {
    place.has_deref().then_some(place.local)
}

fn operand_ptr(op: &Operand) -> Option<Local> {
    op.place().filter(|p| p.is_local()).map(|p| p.local)
}

/// Extracts every pointer-dereference site in `body`, including the
/// pointer-consuming intrinsics (`ptr::read`, `ptr::write`,
/// `ptr::copy_nonoverlapping`, `dealloc`).
pub fn deref_sites(body: &Body) -> Vec<DerefSite> {
    let mut out = Vec::new();
    for bb in body.block_indices() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let location = Location {
                block: bb,
                statement_index: i,
            };
            if let StatementKind::Assign(place, rv) = &stmt.kind {
                if let Some(ptr) = place_deref(place) {
                    out.push(DerefSite {
                        location,
                        pointer: ptr,
                        source_info: stmt.source_info,
                        is_write: true,
                    });
                }
                let mut reads: Vec<Local> = Vec::new();
                match rv {
                    Rvalue::Use(op) | Rvalue::UnaryOp(_, op) | Rvalue::Cast(op, _) => {
                        if let Some(p) = op.place() {
                            reads.extend(place_deref(p));
                        }
                    }
                    Rvalue::BinaryOp(_, a, b) => {
                        for op in [a, b] {
                            if let Some(p) = op.place() {
                                reads.extend(place_deref(p));
                            }
                        }
                    }
                    Rvalue::Ref(_, p) | Rvalue::AddrOf(_, p) | Rvalue::Len(p) => {
                        // Taking `&(*p).field` reads through p's pointee
                        // address but not its value; still record it as a
                        // (non-writing) use — dereferencing a dangling
                        // pointer to form a reference is UB in Rust.
                        reads.extend(place_deref(p));
                    }
                    Rvalue::Aggregate(ops) => {
                        for op in ops {
                            if let Some(p) = op.place() {
                                reads.extend(place_deref(p));
                            }
                        }
                    }
                }
                for ptr in reads {
                    out.push(DerefSite {
                        location,
                        pointer: ptr,
                        source_info: stmt.source_info,
                        is_write: false,
                    });
                }
            }
        }
        if let Some(term) = &data.terminator {
            let location = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            if let TerminatorKind::Call {
                func: Callee::Intrinsic(i),
                args,
                ..
            } = &term.kind
            {
                let ptr_args: &[(usize, bool)] = match i {
                    Intrinsic::PtrRead => &[(0, false)],
                    Intrinsic::PtrWrite => &[(0, true)],
                    Intrinsic::PtrCopyNonoverlapping => &[(0, false), (1, true)],
                    Intrinsic::Dealloc => &[(0, false)],
                    _ => &[],
                };
                for &(idx, is_write) in ptr_args {
                    if let Some(ptr) = args.get(idx).and_then(operand_ptr) {
                        out.push(DerefSite {
                            location,
                            pointer: ptr,
                            source_info: term.source_info,
                            is_write,
                        });
                    }
                }
            }
            // Dereferences in the discriminee / arguments of any terminator.
            match &term.kind {
                TerminatorKind::SwitchInt { discr, .. } => {
                    if let Some(p) = discr.place() {
                        if let Some(ptr) = place_deref(p) {
                            out.push(DerefSite {
                                location,
                                pointer: ptr,
                                source_info: term.source_info,
                                is_write: false,
                            });
                        }
                    }
                }
                TerminatorKind::Call {
                    args, destination, ..
                } => {
                    for a in args {
                        if let Some(p) = a.place() {
                            if let Some(ptr) = place_deref(p) {
                                out.push(DerefSite {
                                    location,
                                    pointer: ptr,
                                    source_info: term.source_info,
                                    is_write: false,
                                });
                            }
                        }
                    }
                    if let Some(ptr) = place_deref(destination) {
                        out.push(DerefSite {
                            location,
                            pointer: ptr,
                            source_info: term.source_info,
                            is_write: true,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::Ty;

    #[test]
    fn finds_read_write_and_intrinsic_derefs() {
        let mut b = BodyBuilder::new("f", 1, Ty::Int);
        let p = b.arg("p", Ty::mut_ptr(Ty::Int));
        let x = b.local("x", Ty::Int);
        b.storage_live(x);
        b.assign(x, Rvalue::Use(Operand::copy(Place::from_local(p).deref()))); // read deref
        b.assign(Place::from_local(p).deref(), Rvalue::Use(Operand::int(1))); // write deref
        let t = b.temp(Ty::Int);
        b.storage_live(t);
        b.call_intrinsic_cont(Intrinsic::PtrRead, vec![Operand::copy(p)], t); // intrinsic deref
        b.ret();
        let body = b.finish();
        let sites = deref_sites(&body);
        assert_eq!(sites.len(), 3);
        assert!(!sites[0].is_write);
        assert!(sites[1].is_write);
        assert_eq!(sites[2].pointer, p);
    }
}
