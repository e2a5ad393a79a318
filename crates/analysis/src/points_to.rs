//! Flow-insensitive, field-insensitive Andersen-style points-to analysis,
//! computed per function.
//!
//! The paper's use-after-free detector "conduct[s] a points-to analysis to
//! maintain which variable [each pointer] points to"; this module is that
//! component. Pointer-typed arguments receive a symbolic
//! [`MemRoot::ArgPointee`] so callers can substitute actuals during
//! interprocedural resolution, and lock guards inherit the points-to set of
//! the lock reference they were created from — which is exactly the lock
//! identity the double-lock detector needs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rstudy_mir::visit::Location;
use rstudy_mir::{
    Body, Callee, Intrinsic, Local, Operand, Place, Rvalue, StatementKind, TerminatorKind,
};

/// An abstract memory object a pointer may reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemRoot {
    /// The stack slot of a local in this function.
    Local(Local),
    /// A heap allocation, identified by its `alloc` call site.
    Heap(Location),
    /// The unknown memory behind a pointer-typed argument.
    ArgPointee(Local),
    /// Anything (result of unmodelled operations).
    Unknown,
}

impl std::fmt::Display for MemRoot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemRoot::Local(l) => write!(f, "{l}"),
            MemRoot::Heap(loc) => write!(f, "heap@{loc}"),
            MemRoot::ArgPointee(l) => write!(f, "*{l}"),
            MemRoot::Unknown => f.write_str("?"),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Constraint {
    /// `dst ⊇ {root}`
    AddrOf(Local, MemRoot),
    /// `dst ⊇ src`
    Copy(Local, Local),
    /// `dst ⊇ pts(t) for t in src` (i.e. `dst = *src`)
    Load(Local, Local),
    /// `pts(t) ⊇ src for t in dst` (i.e. `*dst = src`)
    Store(Local, Local),
    /// `pts(t) ⊇ {root} for t in dst` (i.e. `*dst = &root`)
    StoreRoot(Local, MemRoot),
}

/// Points-to results for one body.
#[derive(Debug, Clone)]
pub struct PointsTo {
    /// Per-local points-to sets.
    locals: Vec<BTreeSet<MemRoot>>,
    /// Points-to sets of memory roots (what the memory *contains*), for
    /// roots that hold pointers. A set is created by its first insertion,
    /// so none is empty.
    cells: BTreeMap<MemRoot, BTreeSet<MemRoot>>,
    /// Set insertions the solve attempted.
    work: u64,
}

/// Compares facts only: two solves that reach the same sets are equal
/// however much work each took.
impl PartialEq for PointsTo {
    fn eq(&self, other: &PointsTo) -> bool {
        self.locals == other.locals && self.cells == other.cells
    }
}

impl Eq for PointsTo {}

impl PointsTo {
    /// Computes points-to sets for `body`.
    ///
    /// Solved by difference propagation over the constraint graph: every
    /// new (node, root) fact is pushed along its node's edges exactly once,
    /// so the cost is linear in the facts and edges rather than in the
    /// facts times the number of sweeps a chaotic iteration would need.
    pub fn analyze(body: &Body) -> PointsTo {
        let constraints = collect_constraints(body);
        let mut solver = Solver::new(body.locals.len(), &constraints);
        // Seed pointer-typed arguments with symbolic pointees.
        for arg in body.args() {
            if body.local_decl(arg).ty.is_pointer_like() {
                solver.insert(Node::Local(arg), MemRoot::ArgPointee(arg));
            }
        }
        for c in &constraints {
            if let Constraint::AddrOf(dst, root) = c {
                solver.insert(Node::Local(*dst), *root);
            }
        }
        solver.propagate();
        let pt = solver.pt;
        if rstudy_telemetry::enabled() {
            rstudy_telemetry::counter("analysis.points-to.solves", 1);
            rstudy_telemetry::counter("analysis.points-to.constraints", constraints.len() as u64);
            rstudy_telemetry::record("analysis.points-to.iterations", pt.work);
            let set_sizes: u64 = pt.locals.iter().map(|s| s.len() as u64).sum();
            rstudy_telemetry::record("analysis.points-to.target_sets_total", set_sizes);
        }
        pt
    }

    /// The set insertions this solve attempted: one per fact, plus one each
    /// time an edge delivered a root its destination already held. A
    /// per-call count of the solver's work, for scaling checks.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// The memory objects `local` may point to.
    pub fn targets(&self, local: Local) -> &BTreeSet<MemRoot> {
        &self.locals[local.index()]
    }

    /// What a memory root may contain (for roots that store pointers).
    pub fn cell_contents(&self, root: MemRoot) -> &BTreeSet<MemRoot> {
        static EMPTY: std::sync::OnceLock<BTreeSet<MemRoot>> = std::sync::OnceLock::new();
        self.cells
            .get(&root)
            .unwrap_or_else(|| EMPTY.get_or_init(BTreeSet::new))
    }

    /// Returns `true` if `a` and `b` may alias (share any target).
    pub fn may_alias(&self, a: Local, b: Local) -> bool {
        let (ta, tb) = (self.targets(a), self.targets(b));
        ta.contains(&MemRoot::Unknown)
            || tb.contains(&MemRoot::Unknown)
            || ta.iter().any(|t| tb.contains(t))
    }

    /// Inserts `root` into `node`'s set, counting the attempt; returns
    /// whether it is new.
    fn insert(&mut self, node: Node, root: MemRoot) -> bool {
        self.work += 1;
        match node {
            Node::Local(l) => self.locals[l.index()].insert(root),
            Node::Cell(c) => self.cells.entry(c).or_default().insert(root),
        }
    }
}

impl Constraint {
    /// The local whose new targets this constraint acts on; `None` for the
    /// seeds.
    fn trigger(&self) -> Option<Local> {
        match *self {
            Constraint::AddrOf(..) => None,
            Constraint::Copy(_, src) | Constraint::Load(_, src) => Some(src),
            Constraint::Store(ptr, _) | Constraint::StoreRoot(ptr, _) => Some(ptr),
        }
    }
}

/// A node of the constraint graph: a local, or the memory cell of a root
/// that is loaded from or stored into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Node {
    Local(Local),
    Cell(MemRoot),
}

/// Difference propagation over the constraint graph.
///
/// When a local gains a target `r`, each constraint it triggers acts on
/// `r` alone: a copy inserts `r` into its destination, a load adds the edge
/// cell(`r`) → destination, a store adds the edge source → cell(`r`), and a
/// root store inserts its root into cell(`r`). A new edge carries its
/// source's whole current set once; after that the source's new facts flow
/// along it as they are propagated. A fact is queued only when it is new,
/// so cycles need no special handling.
struct Solver<'c> {
    constraints: &'c [Constraint],
    /// `triggered[first[l]..first[l + 1]]` indexes the constraints that
    /// local `l` triggers.
    first: Vec<usize>,
    triggered: Vec<usize>,
    /// The sets being solved.
    pt: PointsTo,
    /// Facts inserted but not yet propagated, oldest first.
    pending: VecDeque<(Node, MemRoot)>,
    /// Edges added for loads and stores, as `(from, to)`. Each joins a
    /// local and a cell.
    edges: BTreeSet<(Node, Node)>,
}

impl<'c> Solver<'c> {
    fn new(locals: usize, constraints: &'c [Constraint]) -> Solver<'c> {
        // Counting sort of the constraints by the local that triggers them.
        let mut first = vec![0usize; locals + 2];
        for l in constraints.iter().filter_map(Constraint::trigger) {
            first[l.index() + 2] += 1;
        }
        for i in 2..first.len() {
            first[i] += first[i - 1];
        }
        let mut triggered = vec![0usize; first[locals + 1]];
        for (i, c) in constraints.iter().enumerate() {
            if let Some(l) = c.trigger() {
                triggered[first[l.index() + 1]] = i;
                first[l.index() + 1] += 1;
            }
        }
        first.pop();
        Solver {
            constraints,
            first,
            triggered,
            pt: PointsTo {
                locals: vec![BTreeSet::new(); locals],
                cells: BTreeMap::new(),
                work: 0,
            },
            pending: VecDeque::new(),
            edges: BTreeSet::new(),
        }
    }

    fn insert(&mut self, node: Node, root: MemRoot) {
        if self.pt.insert(node, root) {
            self.pending.push_back((node, root));
        }
    }

    fn add_edge(&mut self, from: Node, to: Node) {
        if !self.edges.insert((from, to)) {
            return;
        }
        let pt = &mut self.pt;
        let (carried, dst) = match (from, to) {
            (Node::Local(l), Node::Cell(c)) => {
                let src = &pt.locals[l.index()];
                if src.is_empty() {
                    return;
                }
                (src, pt.cells.entry(c).or_default())
            }
            (Node::Cell(c), Node::Local(l)) => match pt.cells.get(&c) {
                Some(src) => (src, &mut pt.locals[l.index()]),
                None => return,
            },
            _ => unreachable!("edges join a local and a cell"),
        };
        for &root in carried {
            pt.work += 1;
            if dst.insert(root) {
                self.pending.push_back((to, root));
            }
        }
    }

    fn propagate(&mut self) {
        while let Some((node, root)) = self.pending.pop_front() {
            if let Node::Local(l) = node {
                for i in self.first[l.index()]..self.first[l.index() + 1] {
                    match self.constraints[self.triggered[i]] {
                        Constraint::Copy(dst, _) => self.insert(Node::Local(dst), root),
                        Constraint::Load(dst, _) => {
                            self.add_edge(Node::Cell(root), Node::Local(dst));
                        }
                        Constraint::Store(_, src) => {
                            self.add_edge(Node::Local(src), Node::Cell(root));
                        }
                        Constraint::StoreRoot(_, stored) => self.insert(Node::Cell(root), stored),
                        Constraint::AddrOf(..) => unreachable!("seeds trigger nothing"),
                    }
                }
            }
            // `Node::Local(Local(0))` is the least node, so this range starts
            // at `node`'s first added edge.
            let from_node = (node, Node::Local(Local(0)))..;
            for &(_, to) in self
                .edges
                .range(from_node)
                .take_while(|(from, _)| *from == node)
            {
                if self.pt.insert(to, root) {
                    self.pending.push_back((to, root));
                }
            }
        }
    }
}

fn place_base_value(place: &Place) -> PlaceShape {
    if place.has_deref() {
        PlaceShape::ThroughPointer(place.local)
    } else {
        PlaceShape::Direct(place.local)
    }
}

enum PlaceShape {
    /// The place is (part of) the local itself.
    Direct(Local),
    /// The place is behind a pointer held in the local.
    ThroughPointer(Local),
}

fn collect_constraints(body: &Body) -> Vec<Constraint> {
    let mut cs = Vec::new();
    for bb in body.block_indices() {
        let data = body.block(bb);
        for (i, stmt) in data.statements.iter().enumerate() {
            let _loc = Location {
                block: bb,
                statement_index: i,
            };
            if let StatementKind::Assign(place, rv) = &stmt.kind {
                collect_assign(body, place, rv, &mut cs);
            }
        }
        if let Some(term) = &data.terminator {
            let loc = Location {
                block: bb,
                statement_index: data.statements.len(),
            };
            if let TerminatorKind::Call {
                func,
                args,
                destination,
                ..
            } = &term.kind
            {
                collect_call(body, func, args, destination, loc, &mut cs);
            }
        }
    }
    cs
}

fn collect_assign(body: &Body, place: &Place, rv: &Rvalue, cs: &mut Vec<Constraint>) {
    match place_base_value(place) {
        PlaceShape::Direct(dst) => match rv {
            Rvalue::Ref(_, p) | Rvalue::AddrOf(_, p) => match place_base_value(p) {
                // &x — points directly at x's slot.
                PlaceShape::Direct(x) => cs.push(Constraint::AddrOf(dst, MemRoot::Local(x))),
                // &(*q).f — interior pointer into whatever q points to.
                PlaceShape::ThroughPointer(q) => cs.push(Constraint::Copy(dst, q)),
            },
            Rvalue::Use(op) | Rvalue::Cast(op, _) => {
                if let Some(p) = op.place() {
                    match place_base_value(p) {
                        PlaceShape::Direct(src) => {
                            if pointerish(body, src) || pointerish(body, dst) {
                                cs.push(Constraint::Copy(dst, src));
                            }
                        }
                        PlaceShape::ThroughPointer(src) => cs.push(Constraint::Load(dst, src)),
                    }
                }
            }
            Rvalue::Aggregate(ops) => {
                for op in ops {
                    if let Some(p) = op.place() {
                        if let PlaceShape::Direct(src) = place_base_value(p) {
                            if pointerish(body, src) {
                                cs.push(Constraint::Copy(dst, src));
                            }
                        }
                    }
                }
            }
            Rvalue::BinaryOp(op, a, _) if *op == rstudy_mir::BinOp::Offset => {
                // Pointer arithmetic stays within the same object.
                if let Some(p) = a.place() {
                    if let PlaceShape::Direct(src) = place_base_value(p) {
                        cs.push(Constraint::Copy(dst, src));
                    }
                }
            }
            _ => {}
        },
        PlaceShape::ThroughPointer(dst_ptr) => match rv {
            Rvalue::Ref(_, p) | Rvalue::AddrOf(_, p) => match place_base_value(p) {
                PlaceShape::Direct(x) => cs.push(Constraint::StoreRoot(dst_ptr, MemRoot::Local(x))),
                PlaceShape::ThroughPointer(_) => {
                    cs.push(Constraint::StoreRoot(dst_ptr, MemRoot::Unknown))
                }
            },
            Rvalue::Use(op) | Rvalue::Cast(op, _) => {
                if let Some(p) = op.place() {
                    if let PlaceShape::Direct(src) = place_base_value(p) {
                        if pointerish(body, src) {
                            cs.push(Constraint::Store(dst_ptr, src));
                        }
                    }
                }
            }
            _ => {}
        },
    }
}

fn collect_call(
    body: &Body,
    func: &Callee,
    args: &[Operand],
    destination: &Place,
    loc: Location,
    cs: &mut Vec<Constraint>,
) {
    let dst = match place_base_value(destination) {
        PlaceShape::Direct(d) => d,
        PlaceShape::ThroughPointer(p) => {
            // Result stored through a pointer: be conservative.
            cs.push(Constraint::StoreRoot(p, MemRoot::Unknown));
            return;
        }
    };
    match func {
        Callee::Intrinsic(Intrinsic::Alloc | Intrinsic::ArcNew) => {
            cs.push(Constraint::AddrOf(dst, MemRoot::Heap(loc)));
        }
        Callee::Intrinsic(Intrinsic::ArcClone) => {
            if let Some(p) = args.first().and_then(Operand::place) {
                match place_base_value(p) {
                    PlaceShape::Direct(src) => cs.push(Constraint::Copy(dst, src)),
                    PlaceShape::ThroughPointer(src) => cs.push(Constraint::Load(dst, src)),
                }
            }
        }
        Callee::Intrinsic(
            Intrinsic::MutexLock | Intrinsic::RwLockRead | Intrinsic::RwLockWrite,
        ) => {
            // The guard's identity is the lock it guards.
            if let Some(p) = args.first().and_then(Operand::place) {
                match place_base_value(p) {
                    PlaceShape::Direct(src) => cs.push(Constraint::Copy(dst, src)),
                    PlaceShape::ThroughPointer(src) => cs.push(Constraint::Load(dst, src)),
                }
            }
        }
        Callee::Intrinsic(Intrinsic::PtrRead) => {
            if let Some(p) = args.first().and_then(Operand::place) {
                if let PlaceShape::Direct(src) = place_base_value(p) {
                    cs.push(Constraint::Load(dst, src));
                }
            }
        }
        Callee::Intrinsic(Intrinsic::PtrWrite) => {
            if let (Some(ptr), Some(val)) = (
                args.first().and_then(Operand::place),
                args.get(1).and_then(Operand::place),
            ) {
                if let (PlaceShape::Direct(d), PlaceShape::Direct(s)) =
                    (place_base_value(ptr), place_base_value(val))
                {
                    if pointerish(body, s) {
                        cs.push(Constraint::Store(d, s));
                    }
                }
            }
        }
        Callee::Intrinsic(_) => {
            if pointerish(body, dst) {
                cs.push(Constraint::AddrOf(dst, MemRoot::Unknown));
            }
        }
        Callee::Fn(_) | Callee::Ptr(_) => {
            if pointerish(body, dst) {
                cs.push(Constraint::AddrOf(dst, MemRoot::Unknown));
            }
        }
    }
}

fn pointerish(body: &Body, local: Local) -> bool {
    let ty = &body.local_decl(local).ty;
    ty.is_pointer_like()
        || ty.is_guard()
        || matches!(ty, rstudy_mir::Ty::Named(_) | rstudy_mir::Ty::Arc(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rstudy_mir::build::BodyBuilder;
    use rstudy_mir::{BinOp, Mutability, Operand, Rvalue, Ty};

    /// The chaotic-iteration solver difference propagation replaced: sweep
    /// every constraint until a whole pass changes nothing. Kept as the
    /// fact oracle for [`PointsTo::analyze`].
    fn reference(body: &Body) -> PointsTo {
        let constraints = collect_constraints(body);
        let mut pt = PointsTo {
            locals: vec![BTreeSet::new(); body.locals.len()],
            cells: BTreeMap::new(),
            work: 0,
        };
        for arg in body.args() {
            if body.local_decl(arg).ty.is_pointer_like() {
                pt.locals[arg.index()].insert(MemRoot::ArgPointee(arg));
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for c in &constraints {
                match c {
                    Constraint::AddrOf(dst, root) => {
                        changed |= pt.locals[dst.index()].insert(*root);
                    }
                    Constraint::Copy(dst, src) => {
                        let add: Vec<MemRoot> = pt.locals[src.index()].iter().copied().collect();
                        for r in add {
                            changed |= pt.locals[dst.index()].insert(r);
                        }
                    }
                    Constraint::Load(dst, src) => {
                        let roots: Vec<MemRoot> = pt.locals[src.index()].iter().copied().collect();
                        for root in roots {
                            let add: Vec<MemRoot> =
                                pt.cell_contents(root).iter().copied().collect();
                            for r in add {
                                changed |= pt.locals[dst.index()].insert(r);
                            }
                        }
                    }
                    Constraint::Store(dst, src) => {
                        let roots: Vec<MemRoot> = pt.locals[dst.index()].iter().copied().collect();
                        let add: Vec<MemRoot> = pt.locals[src.index()].iter().copied().collect();
                        for root in roots {
                            let cell = pt.cells.entry(root).or_default();
                            for &r in &add {
                                changed |= cell.insert(r);
                            }
                        }
                    }
                    Constraint::StoreRoot(dst, root) => {
                        let targets: Vec<MemRoot> =
                            pt.locals[dst.index()].iter().copied().collect();
                        for t in targets {
                            changed |= pt.cells.entry(t).or_default().insert(*root);
                        }
                    }
                }
            }
        }
        pt
    }

    /// One generated statement over local indices (taken modulo the local
    /// count). Calls end their block.
    #[derive(Debug, Clone)]
    enum Op {
        Ref(usize, usize),
        RawRef(usize, usize),
        Copy(usize, usize),
        Load(usize, usize),
        Store(usize, usize),
        StoreRef(usize, usize),
        PtrRead(usize, usize),
        PtrWrite(usize, usize),
        Alloc(usize),
        Lock(usize, usize),
        Extern(usize),
        Offset(usize, usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let pair = || (0usize..64, 0usize..64);
        prop_oneof![
            pair().prop_map(|(a, b)| Op::Ref(a, b)),
            pair().prop_map(|(a, b)| Op::RawRef(a, b)),
            pair().prop_map(|(a, b)| Op::Copy(a, b)),
            pair().prop_map(|(a, b)| Op::Load(a, b)),
            pair().prop_map(|(a, b)| Op::Store(a, b)),
            pair().prop_map(|(a, b)| Op::StoreRef(a, b)),
            pair().prop_map(|(a, b)| Op::PtrRead(a, b)),
            pair().prop_map(|(a, b)| Op::PtrWrite(a, b)),
            (0usize..64).prop_map(Op::Alloc),
            pair().prop_map(|(a, b)| Op::Lock(a, b)),
            (0usize..64).prop_map(Op::Extern),
            pair().prop_map(|(a, b)| Op::Offset(a, b)),
        ]
    }

    /// A body of 1–6 blocks over pointer arguments and about a dozen
    /// locals of the types the constraints distinguish, with `ops` in the
    /// given order and a block boundary before each op listed in `cuts`.
    fn generated_body(args: usize, types: &[usize], ops: &[Op], cuts: &[usize]) -> Body {
        let tys = [
            Ty::Int,
            Ty::const_ptr(Ty::Int),
            Ty::mut_ptr(Ty::mut_ptr(Ty::Int)),
            Ty::shared_ref(Ty::Mutex(Box::new(Ty::Int))),
            Ty::Guard(Box::new(Ty::Int)),
        ];
        let mut b = BodyBuilder::new("f", args, Ty::Unit);
        let mut locals: Vec<Local> = (0..args)
            .map(|i| b.arg(format!("a{i}"), tys[1 + i % 2].clone()))
            .collect();
        locals.extend(
            types
                .iter()
                .enumerate()
                .map(|(i, &t)| b.local(format!("l{i}"), tys[t % tys.len()].clone())),
        );
        let at = |i: usize| locals[i % locals.len()];
        let deref = |i: usize| Place::from_local(at(i)).deref();
        let mut blocks = 1;
        for (i, op) in ops.iter().enumerate() {
            if blocks < 6 && cuts.contains(&i) {
                b.goto_cont();
                blocks += 1;
            }
            let is_call = matches!(
                op,
                Op::PtrRead(..) | Op::PtrWrite(..) | Op::Alloc(_) | Op::Lock(..) | Op::Extern(_)
            );
            if is_call && blocks == 6 {
                continue;
            }
            match *op {
                Op::Ref(d, x) => b.assign(at(d), Rvalue::Ref(Mutability::Not, at(x).into())),
                Op::RawRef(d, x) => b.assign(at(d), Rvalue::AddrOf(Mutability::Mut, at(x).into())),
                Op::Copy(d, s) => b.assign(at(d), Rvalue::Use(Operand::copy(at(s)))),
                Op::Load(d, p) => b.assign(at(d), Rvalue::Use(Operand::Copy(deref(p)))),
                Op::Store(p, s) => b.assign_place(deref(p), Rvalue::Use(Operand::copy(at(s)))),
                Op::StoreRef(p, x) => {
                    b.assign_place(deref(p), Rvalue::Ref(Mutability::Not, at(x).into()))
                }
                Op::Offset(d, p) => b.assign(
                    at(d),
                    Rvalue::BinaryOp(BinOp::Offset, Operand::copy(at(p)), Operand::int(1)),
                ),
                Op::PtrRead(d, p) => {
                    b.call_intrinsic_cont(Intrinsic::PtrRead, vec![Operand::copy(at(p))], at(d));
                }
                Op::PtrWrite(p, s) => {
                    let args = vec![Operand::copy(at(p)), Operand::copy(at(s))];
                    b.call_intrinsic_cont(Intrinsic::PtrWrite, args, Local::RETURN);
                }
                Op::Alloc(d) => {
                    b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(8)], at(d));
                }
                Op::Lock(g, m) => {
                    b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(at(m))], at(g));
                }
                Op::Extern(d) => {
                    b.call_intrinsic_cont(Intrinsic::ExternCall, vec![], at(d));
                }
            }
            if is_call {
                blocks += 1;
            }
        }
        b.ret();
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Difference propagation reaches exactly the reference solver's
        /// sets: every local's targets, and the contents of every root
        /// either side holds.
        #[test]
        fn difference_propagation_matches_the_reference(
            args in 0usize..3,
            types in proptest::collection::vec(0usize..5, 10..14),
            ops in proptest::collection::vec(op_strategy(), 0..40),
            cuts in proptest::collection::vec(0usize..40, 0..8)
        ) {
            let body = generated_body(args, &types, &ops, &cuts);
            prop_assert!(body.blocks.len() <= 6, "{} blocks", body.blocks.len());
            let (got, want) = (PointsTo::analyze(&body), reference(&body));
            for l in body.local_indices() {
                prop_assert_eq!(got.targets(l), want.targets(l), "targets of {} in {:?}", l, ops);
            }
            let roots: BTreeSet<MemRoot> = got.cells.keys().chain(want.cells.keys()).copied().collect();
            for root in roots {
                prop_assert_eq!(
                    got.cell_contents(root),
                    want.cell_contents(root),
                    "contents of {} in {:?}",
                    root,
                    ops
                );
            }
        }
    }

    #[test]
    fn address_of_and_copy() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let q = b.local("q", Ty::mut_ptr(Ty::Int));
        b.storage_live(x);
        b.storage_live(p);
        b.storage_live(q);
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.assign(q, Rvalue::Use(Operand::copy(p)));
        b.ret();
        let pt = PointsTo::analyze(&b.finish());
        assert!(pt.targets(p).contains(&MemRoot::Local(x)));
        assert!(pt.targets(q).contains(&MemRoot::Local(x)));
        assert!(pt.may_alias(p, q));
    }

    #[test]
    fn heap_allocations_are_distinguished_by_site() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let q = b.local("q", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        b.storage_live(q);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(4)], p);
        b.call_intrinsic_cont(Intrinsic::Alloc, vec![Operand::int(4)], q);
        b.ret();
        let pt = PointsTo::analyze(&b.finish());
        assert_eq!(pt.targets(p).len(), 1);
        assert_eq!(pt.targets(q).len(), 1);
        assert!(!pt.may_alias(p, q), "distinct alloc sites do not alias");
    }

    #[test]
    fn guard_points_to_its_lock() {
        let mutex_ty = Ty::Mutex(Box::new(Ty::Int));
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let m = b.local("m", mutex_ty.clone());
        let r = b.local("r", Ty::shared_ref(mutex_ty));
        let g = b.local("g", Ty::Guard(Box::new(Ty::Int)));
        b.storage_live(m);
        b.storage_live(r);
        b.storage_live(g);
        b.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(r)], g);
        b.ret();
        let pt = PointsTo::analyze(&b.finish());
        assert!(
            pt.targets(g).contains(&MemRoot::Local(m)),
            "guard identity resolves to the mutex local: {:?}",
            pt.targets(g)
        );
    }

    #[test]
    fn argument_pointers_get_symbolic_pointees() {
        let mut b = BodyBuilder::new("f", 1, Ty::Unit);
        let a = b.arg("a", Ty::mut_ptr(Ty::Int));
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        b.assign(p, Rvalue::Use(Operand::copy(a)));
        b.ret();
        let pt = PointsTo::analyze(&b.finish());
        assert!(pt.targets(p).contains(&MemRoot::ArgPointee(a)));
    }

    #[test]
    fn store_and_load_through_pointer() {
        // s = &x; *pp = s; t = *pp  ⇒ t may point to x.
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let x = b.local("x", Ty::Int);
        let s = b.local("s", Ty::mut_ptr(Ty::Int));
        let cell = b.local("cell", Ty::mut_ptr(Ty::Int));
        let pp = b.local("pp", Ty::mut_ptr(Ty::mut_ptr(Ty::Int)));
        let t = b.local("t", Ty::mut_ptr(Ty::Int));
        for l in [x, s, cell, pp, t] {
            b.storage_live(l);
        }
        b.assign(s, Rvalue::AddrOf(Mutability::Mut, x.into()));
        b.assign(pp, Rvalue::AddrOf(Mutability::Mut, cell.into()));
        b.assign(
            rstudy_mir::Place::from_local(pp).deref(),
            Rvalue::Use(Operand::copy(s)),
        );
        b.assign(
            t,
            Rvalue::Use(Operand::copy(rstudy_mir::Place::from_local(pp).deref())),
        );
        b.ret();
        let pt = PointsTo::analyze(&b.finish());
        assert!(
            pt.targets(t).contains(&MemRoot::Local(x)),
            "{:?}",
            pt.targets(t)
        );
    }

    #[test]
    fn unknown_results_from_opaque_calls() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        b.storage_live(p);
        b.call_intrinsic_cont(Intrinsic::ExternCall, vec![], p);
        b.ret();
        let pt = PointsTo::analyze(&b.finish());
        assert!(pt.targets(p).contains(&MemRoot::Unknown));
    }

    #[test]
    fn offset_stays_in_object() {
        let mut b = BodyBuilder::new("f", 0, Ty::Unit);
        let arr = b.local("arr", Ty::Array(Box::new(Ty::Int), 4));
        let p = b.local("p", Ty::mut_ptr(Ty::Int));
        let q = b.local("q", Ty::mut_ptr(Ty::Int));
        for l in [arr, p, q] {
            b.storage_live(l);
        }
        b.assign(p, Rvalue::AddrOf(Mutability::Mut, arr.into()));
        b.assign(
            q,
            Rvalue::BinaryOp(rstudy_mir::BinOp::Offset, Operand::copy(p), Operand::int(1)),
        );
        b.ret();
        let pt = PointsTo::analyze(&b.finish());
        assert!(pt.targets(q).contains(&MemRoot::Local(arr)));
    }
}
