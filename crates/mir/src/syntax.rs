//! Core IR syntax: locals, places, operands, rvalues, statements,
//! terminators, basic blocks, and function bodies.
//!
//! The shape intentionally mirrors rustc's MIR. Each function body is a list
//! of basic blocks over a flat list of locals; `_0` is the return place and
//! `_1..=_argc` are the arguments.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::intrinsics::Intrinsic;
use crate::source::SourceInfo;
use crate::ty::Ty;

/// Index of a local variable within a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Local(pub u32);

impl Local {
    /// The return place `_0`.
    pub const RETURN: Local = Local(0);

    /// The position of this local in the body's `locals` vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Local {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_{}", self.0)
    }
}

/// Index of a basic block within a [`Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BasicBlock(pub u32);

impl BasicBlock {
    /// The entry block `bb0`.
    pub const ENTRY: BasicBlock = BasicBlock(0);

    /// The position of this block in the body's `blocks` vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Whether a binding or pointer permits mutation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Mutability {
    /// Immutable (`&T`, `*const T`).
    #[default]
    Not,
    /// Mutable (`&mut T`, `*mut T`).
    Mut,
}

impl Mutability {
    /// Returns `true` for [`Mutability::Mut`].
    pub fn is_mut(self) -> bool {
        matches!(self, Mutability::Mut)
    }
}

/// Declaration of one local variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LocalDecl {
    /// Human-readable name, if the local corresponds to a source variable.
    pub name: Option<String>,
    /// Declared type.
    pub ty: Ty,
}

impl LocalDecl {
    /// A named local of the given type.
    pub fn named(name: impl Into<String>, ty: Ty) -> LocalDecl {
        LocalDecl {
            name: Some(name.into()),
            ty,
        }
    }

    /// An anonymous temporary of the given type.
    pub fn temp(ty: Ty) -> LocalDecl {
        LocalDecl { name: None, ty }
    }
}

/// One projection step applied to a base local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProjElem {
    /// `*place` — dereference a reference or raw pointer.
    Deref,
    /// `place.N` — select tuple/struct field `N`.
    Field(u32),
    /// `place[local]` — index by a runtime value.
    Index(Local),
    /// `place[N]` — index by a compile-time constant.
    ConstIndex(u64),
}

/// A memory location: a base local plus a projection path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Place {
    /// The base variable.
    pub local: Local,
    /// Projections applied left to right.
    pub projection: Vec<ProjElem>,
}

impl Place {
    /// The return place `_0` with no projections.
    pub const RETURN: Place = Place {
        local: Local::RETURN,
        projection: Vec::new(),
    };

    /// A place that is just a bare local.
    pub fn from_local(local: Local) -> Place {
        Place {
            local,
            projection: Vec::new(),
        }
    }

    /// `*self` — this place behind one dereference.
    pub fn deref(mut self) -> Place {
        self.projection.push(ProjElem::Deref);
        self
    }

    /// `self.field` — project a field.
    pub fn field(mut self, f: u32) -> Place {
        self.projection.push(ProjElem::Field(f));
        self
    }

    /// `self[idx]` — index by a local.
    pub fn index(mut self, idx: Local) -> Place {
        self.projection.push(ProjElem::Index(idx));
        self
    }

    /// `self[n]` — index by a constant.
    pub fn const_index(mut self, n: u64) -> Place {
        self.projection.push(ProjElem::ConstIndex(n));
        self
    }

    /// Returns `true` if this place is a bare local with no projections.
    pub fn is_local(&self) -> bool {
        self.projection.is_empty()
    }

    /// Returns `true` if any projection step dereferences a pointer.
    pub fn has_deref(&self) -> bool {
        self.projection.contains(&ProjElem::Deref)
    }

    /// Returns `true` if any projection step indexes into an array.
    pub fn has_index(&self) -> bool {
        self.projection
            .iter()
            .any(|p| matches!(p, ProjElem::Index(_) | ProjElem::ConstIndex(_)))
    }
}

impl From<Local> for Place {
    fn from(local: Local) -> Place {
        Place::from_local(local)
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for elem in &self.projection {
            if matches!(elem, ProjElem::Deref) {
                f.write_str("(*")?;
            }
        }
        write!(f, "{}", self.local)?;
        for elem in &self.projection {
            match elem {
                ProjElem::Deref => f.write_str(")")?,
                ProjElem::Field(n) => write!(f, ".{n}")?,
                ProjElem::Index(l) => write!(f, "[{l}]")?,
                ProjElem::ConstIndex(n) => write!(f, "[{n}]")?,
            }
        }
        Ok(())
    }
}

/// A compile-time constant value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Const {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// The name of a function, used for indirect calls / fn pointers.
    Fn(String),
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Unit => f.write_str("()"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Int(i) => write!(f, "{i}"),
            Const::Fn(name) => write!(f, "fn {name}"),
        }
    }
}

/// A value read by a statement: a copy, a move, or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read the place, leaving it initialized.
    Copy(Place),
    /// Read the place and end its initialization (ownership moves out).
    Move(Place),
    /// A literal.
    Const(Const),
}

impl Operand {
    /// Copy of a bare local or place.
    pub fn copy(place: impl Into<Place>) -> Operand {
        Operand::Copy(place.into())
    }

    /// Move out of a bare local or place.
    pub fn mov(place: impl Into<Place>) -> Operand {
        Operand::Move(place.into())
    }

    /// A constant operand.
    pub fn constant(c: Const) -> Operand {
        Operand::Const(c)
    }

    /// Integer-literal shorthand.
    pub fn int(i: i64) -> Operand {
        Operand::Const(Const::Int(i))
    }

    /// The place read by this operand, if any.
    pub fn place(&self) -> Option<&Place> {
        match self {
            Operand::Copy(p) | Operand::Move(p) => Some(p),
            Operand::Const(_) => None,
        }
    }

    /// Returns `true` if this operand moves ownership out of its place.
    pub fn is_move(&self) -> bool {
        matches!(self, Operand::Move(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Copy(p) => write!(f, "{p}"),
            Operand::Move(p) => write!(f, "move {p}"),
            Operand::Const(c) => write!(f, "const {c}"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&` (bitwise and logical and — the IR has one integer type)
    And,
    /// `|`
    Or,
    /// Pointer offset: `ptr + n` elements (an unsafe operation in Rust).
    Offset,
}

impl BinOp {
    /// The surface token used by the textual format.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Offset => "offset",
        }
    }

    /// Returns `true` for comparison operators producing `bool`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical / bitwise negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Rvalue {
    /// Read an operand.
    Use(Operand),
    /// Take a borrow of a place: `&place` / `&mut place`.
    Ref(Mutability, Place),
    /// Take the raw address of a place: `&raw const place` / `&raw mut place`.
    AddrOf(Mutability, Place),
    /// Apply a binary operator.
    BinaryOp(BinOp, Operand, Operand),
    /// Apply a unary operator.
    UnaryOp(UnOp, Operand),
    /// Cast an operand to a type (e.g. `&T as *const T`).
    Cast(Operand, Ty),
    /// The length of an array place.
    Len(Place),
    /// Build an aggregate (tuple/array) from element operands.
    Aggregate(Vec<Operand>),
}

impl Rvalue {
    /// All operands read by this rvalue, in order, without allocating.
    pub fn operands(&self) -> impl Iterator<Item = &Operand> {
        let (first, second, rest): (Option<&Operand>, Option<&Operand>, &[Operand]) = match self {
            Rvalue::Use(op) | Rvalue::UnaryOp(_, op) | Rvalue::Cast(op, _) => (Some(op), None, &[]),
            Rvalue::BinaryOp(_, a, b) => (Some(a), Some(b), &[]),
            Rvalue::Ref(..) | Rvalue::AddrOf(..) | Rvalue::Len(_) => (None, None, &[]),
            Rvalue::Aggregate(ops) => (None, None, ops),
        };
        first.into_iter().chain(second).chain(rest)
    }

    /// The place borrowed or addressed, if this rvalue creates a pointer.
    pub fn pointer_base(&self) -> Option<&Place> {
        match self {
            Rvalue::Ref(_, p) | Rvalue::AddrOf(_, p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Rvalue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rvalue::Use(op) => write!(f, "{op}"),
            Rvalue::Ref(Mutability::Not, p) => write!(f, "&{p}"),
            Rvalue::Ref(Mutability::Mut, p) => write!(f, "&mut {p}"),
            Rvalue::AddrOf(Mutability::Not, p) => write!(f, "&raw const {p}"),
            Rvalue::AddrOf(Mutability::Mut, p) => write!(f, "&raw mut {p}"),
            Rvalue::BinaryOp(op, a, b) => write!(f, "{a} {} {b}", op.token()),
            Rvalue::UnaryOp(UnOp::Not, a) => write!(f, "!{a}"),
            Rvalue::UnaryOp(UnOp::Neg, a) => write!(f, "-{a}"),
            Rvalue::Cast(op, ty) => write!(f, "{op} as {ty}"),
            Rvalue::Len(p) => write!(f, "len({p})"),
            Rvalue::Aggregate(ops) => {
                f.write_str("[")?;
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{op}")?;
                }
                f.write_str("]")
            }
        }
    }
}

/// The operation performed by a [`Statement`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StatementKind {
    /// `place = rvalue`.
    Assign(Place, Rvalue),
    /// Begin the storage (and lifetime) of a local.
    StorageLive(Local),
    /// End the storage of a local; its value is dropped/invalidated.
    StorageDead(Local),
    /// No operation (placeholder produced by transformations).
    Nop,
}

/// One non-terminator instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Statement {
    /// The operation.
    pub kind: StatementKind,
    /// Location and safety context.
    pub source_info: SourceInfo,
}

impl Statement {
    /// A statement with synthetic, safe source info.
    pub fn new(kind: StatementKind) -> Statement {
        Statement {
            kind,
            source_info: SourceInfo::SAFE,
        }
    }

    /// A statement marked as sitting inside an unsafe region.
    pub fn new_unsafe(kind: StatementKind) -> Statement {
        Statement {
            kind,
            source_info: SourceInfo::UNSAFE,
        }
    }
}

/// The function (or intrinsic) invoked by a call terminator.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Callee {
    /// A user function in the enclosing [`crate::Program`], by name.
    Fn(String),
    /// A modelled library/synchronization intrinsic.
    Intrinsic(Intrinsic),
    /// An indirect call through a function-valued local.
    Ptr(Local),
}

impl fmt::Display for Callee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Callee::Fn(name) => f.write_str(name),
            Callee::Intrinsic(i) => write!(f, "{i}"),
            Callee::Ptr(l) => write!(f, "(*{l})"),
        }
    }
}

/// How a [`BasicBlockData`] transfers control.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TerminatorKind {
    /// Unconditional jump.
    Goto {
        /// Jump target.
        target: BasicBlock,
    },
    /// Multi-way branch on an integer/boolean discriminant.
    SwitchInt {
        /// The value switched on.
        discr: Operand,
        /// `(value, target)` arms.
        targets: Vec<(i64, BasicBlock)>,
        /// Fallthrough target when no arm matches.
        otherwise: BasicBlock,
    },
    /// Call a function; control resumes at `target` (if `Some`).
    Call {
        /// What is invoked.
        func: Callee,
        /// Argument operands.
        args: Vec<Operand>,
        /// Where the return value is stored.
        destination: Place,
        /// Continuation block; `None` for diverging calls.
        target: Option<BasicBlock>,
    },
    /// Drop the value in a place (runs its destructor; releases guards).
    Drop {
        /// What is dropped.
        place: Place,
        /// Continuation block.
        target: BasicBlock,
    },
    /// Return from the function; the value is in `_0`.
    Return,
    /// Control can never reach here.
    Unreachable,
}

impl TerminatorKind {
    /// All successor blocks, in arm order.
    pub fn successors(&self) -> Vec<BasicBlock> {
        match self {
            TerminatorKind::Goto { target } => vec![*target],
            TerminatorKind::SwitchInt {
                targets, otherwise, ..
            } => {
                let mut out: Vec<BasicBlock> = targets.iter().map(|(_, b)| *b).collect();
                out.push(*otherwise);
                out
            }
            TerminatorKind::Call { target, .. } => target.iter().copied().collect(),
            TerminatorKind::Drop { target, .. } => vec![*target],
            TerminatorKind::Return | TerminatorKind::Unreachable => vec![],
        }
    }
}

/// A block-ending instruction with source info.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Terminator {
    /// The control transfer performed.
    pub kind: TerminatorKind,
    /// Location and safety context.
    pub source_info: SourceInfo,
}

impl Terminator {
    /// A terminator with synthetic, safe source info.
    pub fn new(kind: TerminatorKind) -> Terminator {
        Terminator {
            kind,
            source_info: SourceInfo::SAFE,
        }
    }
}

/// A straight-line sequence of statements ending in a terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BasicBlockData {
    /// The block's statements, executed in order.
    pub statements: Vec<Statement>,
    /// The block's terminator. `None` only transiently during construction.
    pub terminator: Option<Terminator>,
}

impl BasicBlockData {
    /// An empty block with no terminator yet.
    pub fn new() -> BasicBlockData {
        BasicBlockData {
            statements: Vec::new(),
            terminator: None,
        }
    }

    /// The terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block is still under construction.
    pub fn terminator(&self) -> &Terminator {
        self.terminator
            .as_ref()
            .expect("basic block has no terminator")
    }
}

impl Default for BasicBlockData {
    fn default() -> Self {
        Self::new()
    }
}

/// A function body: locals plus a CFG of basic blocks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Body {
    /// The function's name, unique within a [`crate::Program`].
    pub name: String,
    /// Number of leading locals (after `_0`) that are arguments.
    pub arg_count: usize,
    /// All locals; `_0` is the return place.
    pub locals: Vec<LocalDecl>,
    /// All basic blocks; `bb0` is the entry.
    pub blocks: Vec<BasicBlockData>,
    /// Whether the function is declared `unsafe fn`.
    pub is_unsafe_fn: bool,
}

impl Body {
    /// Iterator over all local indices.
    pub fn local_indices(&self) -> impl Iterator<Item = Local> {
        (0..self.locals.len() as u32).map(Local)
    }

    /// Iterator over all block indices.
    pub fn block_indices(&self) -> impl Iterator<Item = BasicBlock> {
        (0..self.blocks.len() as u32).map(BasicBlock)
    }

    /// The declaration of a local.
    ///
    /// # Panics
    ///
    /// Panics if the local is out of range.
    pub fn local_decl(&self, local: Local) -> &LocalDecl {
        &self.locals[local.index()]
    }

    /// The data of a block.
    ///
    /// # Panics
    ///
    /// Panics if the block is out of range.
    pub fn block(&self, bb: BasicBlock) -> &BasicBlockData {
        &self.blocks[bb.index()]
    }

    /// The argument locals `_1..=_argc`.
    pub fn args(&self) -> impl Iterator<Item = Local> {
        (1..=self.arg_count as u32).map(Local)
    }

    /// Returns `true` if the named local is an argument.
    pub fn is_arg(&self, local: Local) -> bool {
        local.0 >= 1 && (local.0 as usize) <= self.arg_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(l: u32) -> Place {
        Place::from_local(Local(l))
    }

    #[test]
    fn place_display_matches_mir_style() {
        assert_eq!(place(3).to_string(), "_3");
        assert_eq!(place(1).deref().to_string(), "(*_1)");
        assert_eq!(place(1).field(2).to_string(), "_1.2");
        assert_eq!(place(1).index(Local(2)).to_string(), "_1[_2]");
        assert_eq!(place(1).const_index(7).to_string(), "_1[7]");
        assert_eq!(place(1).deref().field(0).to_string(), "(*_1).0");
    }

    #[test]
    fn place_predicates() {
        assert!(place(1).is_local());
        assert!(!place(1).deref().is_local());
        assert!(place(1).deref().has_deref());
        assert!(place(1).const_index(0).has_index());
        assert!(!place(1).field(0).has_index());
    }

    #[test]
    fn operand_display() {
        assert_eq!(Operand::copy(Local(2)).to_string(), "_2");
        assert_eq!(Operand::mov(Local(2)).to_string(), "move _2");
        assert_eq!(Operand::int(5).to_string(), "const 5");
        assert_eq!(
            Operand::constant(Const::Fn("f".into())).to_string(),
            "const fn f"
        );
    }

    #[test]
    fn rvalue_display() {
        let rv = Rvalue::BinaryOp(BinOp::Add, Operand::copy(Local(1)), Operand::int(1));
        assert_eq!(rv.to_string(), "_1 + const 1");
        assert_eq!(
            Rvalue::Ref(Mutability::Mut, place(4)).to_string(),
            "&mut _4"
        );
        assert_eq!(
            Rvalue::AddrOf(Mutability::Not, place(4)).to_string(),
            "&raw const _4"
        );
        assert_eq!(
            Rvalue::Cast(Operand::copy(Local(1)), Ty::mut_ptr(Ty::Int)).to_string(),
            "_1 as *mut int"
        );
        assert_eq!(Rvalue::Len(place(2)).to_string(), "len(_2)");
    }

    #[test]
    fn successors_cover_all_terminators() {
        let goto = TerminatorKind::Goto {
            target: BasicBlock(1),
        };
        assert_eq!(goto.successors(), vec![BasicBlock(1)]);

        let sw = TerminatorKind::SwitchInt {
            discr: Operand::int(0),
            targets: vec![(0, BasicBlock(1)), (1, BasicBlock(2))],
            otherwise: BasicBlock(3),
        };
        assert_eq!(
            sw.successors(),
            vec![BasicBlock(1), BasicBlock(2), BasicBlock(3)]
        );

        let call = TerminatorKind::Call {
            func: Callee::Fn("f".into()),
            args: vec![],
            destination: Place::RETURN,
            target: Some(BasicBlock(4)),
        };
        assert_eq!(call.successors(), vec![BasicBlock(4)]);
        assert!(TerminatorKind::Return.successors().is_empty());
        assert!(TerminatorKind::Unreachable.successors().is_empty());
    }

    #[test]
    fn rvalue_operands_are_enumerated() {
        let rv = Rvalue::BinaryOp(BinOp::Mul, Operand::copy(Local(1)), Operand::copy(Local(2)));
        let read: Vec<&Operand> = rv.operands().collect();
        assert_eq!(read, [&Operand::copy(Local(1)), &Operand::copy(Local(2))]);
        let agg = Rvalue::Aggregate(vec![Operand::int(1), Operand::int(2), Operand::int(3)]);
        assert_eq!(agg.operands().count(), 3);
        assert_eq!(Rvalue::Ref(Mutability::Not, place(1)).operands().count(), 0);
    }

    #[test]
    fn body_arg_helpers() {
        let body = Body {
            name: "f".into(),
            arg_count: 2,
            locals: vec![
                LocalDecl::temp(Ty::Unit),
                LocalDecl::named("a", Ty::Int),
                LocalDecl::named("b", Ty::Int),
                LocalDecl::temp(Ty::Int),
            ],
            blocks: vec![],
            is_unsafe_fn: false,
        };
        assert!(body.is_arg(Local(1)));
        assert!(body.is_arg(Local(2)));
        assert!(!body.is_arg(Local(0)));
        assert!(!body.is_arg(Local(3)));
        assert_eq!(body.args().collect::<Vec<_>>(), vec![Local(1), Local(2)]);
    }
}
