//! IDE-style lints from the paper's suggestions.
//!
//! * **Suggestion 6** — "Future IDEs should add plug-ins to highlight the
//!   location of Rust's implicit unlock": [`critical_sections`] computes,
//!   for every lock acquisition, the program points where the guard's
//!   lifetime (and thus the critical section) ends.
//! * §6.1's channel-deadlock case ("one thread holds a lock while waiting
//!   for data from a channel"): [`blocking_in_critical_section`] flags
//!   potentially-blocking calls made while a guard is held.
//! * **Suggestion 8** — "Internal mutual exclusion must be carefully
//!   reviewed for interior mutability functions": [`interior_mutability_calls`]
//!   lists call sites of functions that mutate through a shared-reference
//!   receiver, so a reviewer (or plug-in) can annotate them.

use rstudy_analysis::cache::AnalysisCache;
use rstudy_analysis::locks::lock_acquisitions;
use rstudy_analysis::points_to::MemRoot;
use rstudy_mir::visit::Location;
use rstudy_mir::{
    Body, Callee, Intrinsic, Local, Mutability, Span, StatementKind, TerminatorKind, Ty,
};

/// One critical section: where the lock is taken and where it is released.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalSection {
    /// The guard local carrying the lock.
    pub guard: Local,
    /// The acquiring call site.
    pub acquired_at: Location,
    /// Every point at which the guard's lifetime can end (the paper's
    /// "implicit unlock" locations — `StorageDead`, `Drop`, `mem::drop`,
    /// moves, `condvar::wait`).
    pub released_at: Vec<Location>,
}

/// Computes the critical sections of one body.
pub fn critical_sections(body: &Body) -> Vec<CriticalSection> {
    let mut sections: Vec<CriticalSection> = lock_acquisitions(body)
        .into_iter()
        .map(|acq| CriticalSection {
            guard: acq.guard,
            acquired_at: acq.location,
            released_at: Vec::new(),
        })
        .collect();
    if sections.is_empty() {
        return sections;
    }
    for bb in body.block_indices() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let loc = Location {
                block: bb,
                statement_index: i,
            };
            match &stmt.kind {
                StatementKind::StorageDead(l) => mark_release(&mut sections, *l, loc),
                StatementKind::Assign(_, rv) => {
                    for op in rv.operands() {
                        if let rstudy_mir::Operand::Move(p) = op {
                            if p.is_local() {
                                mark_release(&mut sections, p.local, loc);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(term) = &data.terminator {
            let loc = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            match &term.kind {
                TerminatorKind::Drop { place, .. } if place.is_local() => {
                    mark_release(&mut sections, place.local, loc)
                }
                TerminatorKind::Call {
                    func: Callee::Intrinsic(Intrinsic::MemDrop | Intrinsic::CondvarWait),
                    args,
                    ..
                } => {
                    for a in args {
                        if let Some(p) = a.place().filter(|p| p.is_local()) {
                            mark_release(&mut sections, p.local, loc);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    sections
}

fn mark_release(sections: &mut [CriticalSection], local: Local, loc: Location) {
    for s in sections.iter_mut() {
        if s.guard == local && !s.released_at.contains(&loc) {
            s.released_at.push(loc);
        }
    }
}

/// A potentially-blocking operation performed while a lock is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingInSection {
    /// The function containing the hazard.
    pub function: String,
    /// The blocking call.
    pub location: Location,
    /// Source span of the call.
    pub span: Span,
    /// The intrinsic that may block.
    pub operation: Intrinsic,
}

/// Flags blocking intrinsics (channel send/recv, join, nested lock
/// acquisitions are the double-lock detector's job and are excluded)
/// executed while a guard may be held — the shape of the §6.1 bug where a
/// thread "holds a lock while waiting for data from a channel".
pub fn blocking_in_critical_section(cache: &AnalysisCache<'_>) -> Vec<BlockingInSection> {
    let mut out = Vec::new();
    for (name, body) in cache.program().iter() {
        let mut held = cache.cursor(name, AnalysisCache::held_guards);
        for bb in body.block_indices() {
            let data = body.block(bb);
            let Some(term) = &data.terminator else {
                continue;
            };
            let TerminatorKind::Call {
                func: Callee::Intrinsic(i),
                ..
            } = &term.kind
            else {
                continue;
            };
            let relevant = matches!(
                i,
                Intrinsic::ChannelRecv | Intrinsic::ChannelSend | Intrinsic::ThreadJoin
            );
            if !relevant {
                continue;
            }
            let loc = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            if !held.seek_before(loc).is_empty() {
                out.push(BlockingInSection {
                    function: name.to_owned(),
                    location: loc,
                    span: term.source_info.span,
                    operation: *i,
                });
            }
        }
    }
    out
}

/// A call site of a function that mutates through a `&self`-style shared
/// reference (the Suggestion 8 annotation points).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteriorMutCall {
    /// The calling function.
    pub caller: String,
    /// The interior-mutability function being invoked.
    pub callee: String,
    /// The call site.
    pub location: Location,
}

/// Finds call sites of interior-mutability functions: callees that write
/// through memory reached from a shared-reference argument.
pub fn interior_mutability_calls(cache: &AnalysisCache<'_>) -> Vec<InteriorMutCall> {
    let program = cache.program();
    // Which functions mutate through a shared-ref arg?
    let mut mutators: Vec<String> = Vec::new();
    for (name, body) in program.iter() {
        let shared: Vec<Local> = body
            .args()
            .filter(|&a| matches!(body.local_decl(a).ty, Ty::Ref(Mutability::Not, _)))
            .collect();
        if shared.is_empty() {
            continue;
        }
        let pt = cache.points_to(name);
        let mutates = cache.deref_sites(name).iter().any(|site| {
            site.is_write
                && shared
                    .iter()
                    .any(|a| pt.targets(site.pointer).contains(&MemRoot::ArgPointee(*a)))
        });
        if mutates {
            mutators.push(name.to_owned());
        }
    }
    // Collect their call sites.
    let mut out = Vec::new();
    for (name, body) in program.iter() {
        for bb in body.block_indices() {
            let data = body.block(bb);
            if let Some(term) = &data.terminator {
                if let TerminatorKind::Call {
                    func: Callee::Fn(callee),
                    ..
                } = &term.kind
                {
                    if mutators.contains(callee) {
                        out.push(InteriorMutCall {
                            caller: name.to_owned(),
                            callee: callee.clone(),
                            location: Location {
                                block: bb,
                                statement_index: data.statements.len(),
                            },
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstudy_mir::parse::parse_program;

    const LOCKED_RECV: &str = r#"
fn main() -> int {
    let _1 as m: Mutex<int>;
    let _2 as r: &Mutex<int>;
    let _3 as g: Guard<int>;
    let _4 as ch: Channel<int>;

    bb0: {
        StorageLive(_1);
        _1 = call mutex::new(const 0) -> bb1;
    }

    bb1: {
        StorageLive(_4);
        _4 = call channel::unbounded() -> bb2;
    }

    bb2: {
        StorageLive(_2);
        _2 = &_1;
        StorageLive(_3);
        _3 = call mutex::lock(_2) -> bb3;
    }

    bb3: {
        _0 = call channel::recv(_4) -> bb4;
    }

    bb4: {
        StorageDead(_3);
        return;
    }
}
"#;

    #[test]
    fn critical_sections_find_acquisition_and_release() {
        let program = parse_program(LOCKED_RECV).unwrap();
        let body = program.entry_body().unwrap();
        let sections = critical_sections(body);
        assert_eq!(sections.len(), 1);
        let s = &sections[0];
        assert_eq!(s.acquired_at.block.0, 2);
        assert_eq!(s.released_at.len(), 1, "{s:?}");
        assert_eq!(s.released_at[0].block.0, 4);
    }

    #[test]
    fn recv_under_lock_is_flagged() {
        let program = parse_program(LOCKED_RECV).unwrap();
        let hazards = blocking_in_critical_section(&AnalysisCache::new(&program));
        assert_eq!(hazards.len(), 1, "{hazards:?}");
        assert_eq!(hazards[0].operation, Intrinsic::ChannelRecv);
        assert_eq!(hazards[0].location.block.0, 3);
    }

    #[test]
    fn recv_after_release_is_not_flagged() {
        let src = LOCKED_RECV
            .replace("_0 = call channel::recv(_4) -> bb4;", "goto -> bb4;")
            .replace(
                "StorageDead(_3);\n        return;",
                "StorageDead(_3);\n        _0 = call channel::recv(_4) -> bb5;\n    }\n\n    bb5: {\n        return;",
            );
        let program = parse_program(&src).unwrap();
        assert!(blocking_in_critical_section(&AnalysisCache::new(&program)).is_empty());
    }

    #[test]
    fn interior_mutability_callsites_are_listed() {
        let entry = rstudy_corpus_like_program();
        let calls = interior_mutability_calls(&AnalysisCache::new(&entry));
        assert_eq!(calls.len(), 1, "{calls:?}");
        assert_eq!(calls[0].callee, "set");
        assert_eq!(calls[0].caller, "main");
    }

    fn rstudy_corpus_like_program() -> rstudy_mir::Program {
        parse_program(
            r#"
fn set(_1 as self: &Cell, _2 as i: int) -> unit {
    let _3 as p: *mut int;

    bb0: {
        StorageLive(_3);
        _3 = _1 as *mut int;
        unsafe (*_3) = _2;
        return;
    }
}

fn main() -> unit {
    let _1 as c: Cell;
    let _2 as r: &Cell;

    bb0: {
        StorageLive(_1);
        _1 = const 0;
        StorageLive(_2);
        _2 = &_1;
        _0 = call set(_2, const 9) -> bb1;
    }

    bb1: {
        return;
    }
}
"#,
        )
        .unwrap()
    }
}
