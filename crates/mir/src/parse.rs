//! Parser for the textual MIR format produced by [`crate::pretty`].
//!
//! The grammar is line-oriented only in spirit; tokens carry positions so
//! diagnostics and statement spans point back into the source text.

use std::fmt;

use crate::intrinsics::Intrinsic;
use crate::program::Program;
use crate::source::{Safety, SourceInfo, Span};
use crate::syntax::{
    BasicBlock, BasicBlockData, BinOp, Body, Callee, Const, Local, LocalDecl, Mutability, Operand,
    Place, Rvalue, Statement, StatementKind, Terminator, TerminatorKind, UnOp,
};
use crate::ty::Ty;

/// A parse failure with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the failure was detected.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole program (entry directive plus function definitions).
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending token.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut program = Program::new();
    if p.eat_ident("entry") {
        let name = p.expect_any_ident("entry function name")?.to_owned();
        p.expect_punct(";")?;
        program.set_entry(name);
    }
    while !p.at_end() {
        let body = p.parse_fn()?;
        program.insert(body);
    }
    Ok(program)
}

/// Parses a single function body.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending token.
pub fn parse_body(src: &str) -> Result<Body, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let body = p.parse_fn()?;
    if !p.at_end() {
        return Err(p.error_here("trailing input after function body"));
    }
    Ok(body)
}

// --- lexer --------------------------------------------------------------

/// A token; identifiers borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKind<'a> {
    Ident(&'a str),
    Int(i64),
    Punct(&'static str),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token<'a> {
    kind: TokenKind<'a>,
    span: Span,
}

/// The punctuation token that `rest` starts with, longest match first.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let next = rest.get(1).copied().unwrap_or(0);
    Some(match (rest[0], next) {
        (b'-', b'>') => "->",
        (b':', b':') => "::",
        (b'=', b'=') => "==",
        (b'!', b'=') => "!=",
        (b'<', b'=') => "<=",
        (b'>', b'=') => ">=",
        (b'&', b'&') => "&&",
        (b'|', b'|') => "||",
        (b'(', _) => "(",
        (b')', _) => ")",
        (b'[', _) => "[",
        (b']', _) => "]",
        (b'{', _) => "{",
        (b'}', _) => "}",
        (b',', _) => ",",
        (b';', _) => ";",
        (b':', _) => ":",
        (b'.', _) => ".",
        (b'=', _) => "=",
        (b'<', _) => "<",
        (b'>', _) => ">",
        (b'&', _) => "&",
        (b'*', _) => "*",
        (b'!', _) => "!",
        (b'-', _) => "-",
        (b'+', _) => "+",
        (b'/', _) => "/",
        (b'%', _) => "%",
        _ => return None,
    })
}

fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let span = Span::new(line, col);
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            col += 1;
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            col += (i - start) as u32;
            tokens.push(Token {
                kind: TokenKind::Ident(&src[start..i]),
                span,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let text = &src[start..i];
            col += (i - start) as u32;
            let value: i64 = text.parse().map_err(|_| ParseError {
                span,
                message: format!("integer literal `{text}` out of range"),
            })?;
            tokens.push(Token {
                kind: TokenKind::Int(value),
                span,
            });
            continue;
        }
        // Matched on bytes: slicing `src` here could split a multibyte char.
        if let Some(p) = punct(&bytes[i..]) {
            tokens.push(Token {
                kind: TokenKind::Punct(p),
                span,
            });
            i += p.len();
            col += p.len() as u32;
            continue;
        }
        // Every token and skip above ends on an ASCII byte, so `i` is on a
        // char boundary; report the whole char, not its first byte.
        let c = src[i..].chars().next().expect("i < src.len()");
        return Err(ParseError {
            span,
            message: format!("unexpected character `{c}`"),
        });
    }
    Ok(tokens)
}

// --- parser ------------------------------------------------------------

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Safety applied to nodes without an explicit `unsafe` prefix
    /// (set while parsing the body of an `unsafe fn`).
    ambient_safety: Safety,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token<'a>>) -> Parser<'a> {
        Parser {
            tokens,
            pos: 0,
            ambient_safety: Safety::Safe,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<TokenKind<'a>> {
        self.tokens.get(self.pos).map(|t| t.kind)
    }

    fn here(&self) -> Span {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.span)
            .unwrap_or(Span::SYNTHETIC)
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            span: self.here(),
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(TokenKind::Punct(q)) if q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected `{p}`")))
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(TokenKind::Ident(s)) if s == word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, word: &str) -> Result<(), ParseError> {
        if self.eat_ident(word) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected `{word}`")))
        }
    }

    fn expect_any_ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error_here(format!("expected {what}"))),
        }
    }

    /// A function name, possibly `::`-separated (`mutex::lock`).
    fn expect_path(&mut self) -> Result<String, ParseError> {
        let mut path = self.expect_any_ident("function name")?.to_owned();
        while self.eat_punct("::") {
            path.push_str("::");
            path.push_str(self.expect_any_ident("path segment")?);
        }
        Ok(path)
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.peek() {
            Some(TokenKind::Int(v)) => {
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.error_here("expected integer")),
        }
    }

    fn expect_local(&mut self) -> Result<Local, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) if s.starts_with('_') => {
                let digits = &s[1..];
                if let Ok(n) = digits.parse::<u32>() {
                    self.pos += 1;
                    return Ok(Local(n));
                }
                Err(self.error_here(format!("malformed local `{s}`")))
            }
            _ => Err(self.error_here("expected local (like `_1`)")),
        }
    }

    fn expect_bb(&mut self) -> Result<BasicBlock, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) if s.starts_with("bb") => {
                if let Ok(n) = s[2..].parse::<u32>() {
                    self.pos += 1;
                    return Ok(BasicBlock(n));
                }
                Err(self.error_here(format!("malformed block label `{s}`")))
            }
            _ => Err(self.error_here("expected block label (like `bb0`)")),
        }
    }

    // --- functions -----------------------------------------------------

    fn parse_fn(&mut self) -> Result<Body, ParseError> {
        let is_unsafe_fn = self.eat_ident("unsafe");
        self.expect_ident("fn")?;
        self.ambient_safety = if is_unsafe_fn {
            Safety::Unsafe
        } else {
            Safety::Safe
        };
        let name = self.expect_any_ident("function name")?.to_owned();
        self.expect_punct("(")?;
        let mut params: Vec<LocalDecl> = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let local = self.expect_local()?;
                if local.index() != params.len() + 1 {
                    return Err(self.error_here(format!(
                        "argument locals must be consecutive starting at _1, got {local}"
                    )));
                }
                let pname = if self.eat_ident("as") {
                    Some(self.expect_any_ident("parameter name")?.to_owned())
                } else {
                    None
                };
                self.expect_punct(":")?;
                let ty = self.parse_ty()?;
                params.push(LocalDecl { name: pname, ty });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct("->")?;
        let ret_ty = self.parse_ty()?;
        self.expect_punct("{")?;

        let mut locals = vec![LocalDecl::temp(ret_ty)];
        let arg_count = params.len();
        locals.extend(params);

        while self.eat_ident("let") {
            let local = self.expect_local()?;
            if local.index() != locals.len() {
                return Err(self.error_here(format!(
                    "local declarations must be consecutive, expected _{} got {local}",
                    locals.len()
                )));
            }
            let name = if self.eat_ident("as") {
                Some(self.expect_any_ident("local name")?.to_owned())
            } else {
                None
            };
            self.expect_punct(":")?;
            let ty = self.parse_ty()?;
            self.expect_punct(";")?;
            locals.push(LocalDecl { name, ty });
        }

        let mut blocks: Vec<BasicBlockData> = Vec::new();
        while !self.eat_punct("}") {
            let bb = self.expect_bb()?;
            if bb.index() != blocks.len() {
                return Err(self.error_here(format!(
                    "blocks must be consecutive, expected bb{} got {bb}",
                    blocks.len()
                )));
            }
            self.expect_punct(":")?;
            self.expect_punct("{")?;
            let mut data = BasicBlockData::new();
            while !self.eat_punct("}") {
                if data.terminator.is_some() {
                    return Err(self.error_here(format!("statement after terminator in {bb}")));
                }
                self.parse_instruction(&mut data)?;
            }
            blocks.push(data);
        }

        Ok(Body {
            name,
            arg_count,
            locals,
            blocks,
            is_unsafe_fn,
        })
    }

    /// Parses one `;`-terminated statement or terminator into `data`.
    fn parse_instruction(&mut self, data: &mut BasicBlockData) -> Result<(), ParseError> {
        let span = self.here();
        let safety = if self.eat_ident("unsafe") {
            Safety::Unsafe
        } else {
            self.ambient_safety
        };
        let info = SourceInfo::new(span, safety);

        // Keyword-led statements / terminators.
        if self.eat_ident("StorageLive") {
            self.expect_punct("(")?;
            let l = self.expect_local()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            data.statements.push(Statement {
                kind: StatementKind::StorageLive(l),
                source_info: info,
            });
            return Ok(());
        }
        if self.eat_ident("StorageDead") {
            self.expect_punct("(")?;
            let l = self.expect_local()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            data.statements.push(Statement {
                kind: StatementKind::StorageDead(l),
                source_info: info,
            });
            return Ok(());
        }
        if self.eat_ident("nop") {
            self.expect_punct(";")?;
            data.statements.push(Statement {
                kind: StatementKind::Nop,
                source_info: info,
            });
            return Ok(());
        }
        if self.eat_ident("goto") {
            self.expect_punct("->")?;
            let target = self.expect_bb()?;
            self.expect_punct(";")?;
            data.terminator = Some(Terminator {
                kind: TerminatorKind::Goto { target },
                source_info: info,
            });
            return Ok(());
        }
        if self.eat_ident("return") {
            self.expect_punct(";")?;
            data.terminator = Some(Terminator {
                kind: TerminatorKind::Return,
                source_info: info,
            });
            return Ok(());
        }
        if self.eat_ident("unreachable") {
            self.expect_punct(";")?;
            data.terminator = Some(Terminator {
                kind: TerminatorKind::Unreachable,
                source_info: info,
            });
            return Ok(());
        }
        if self.eat_ident("switchInt") {
            self.expect_punct("(")?;
            let discr = self.parse_operand()?;
            self.expect_punct(")")?;
            self.expect_punct("->")?;
            self.expect_punct("[")?;
            let mut targets = Vec::new();
            let otherwise;
            loop {
                if self.eat_ident("otherwise") {
                    self.expect_punct(":")?;
                    otherwise = self.expect_bb()?;
                    self.expect_punct("]")?;
                    break;
                }
                let neg = self.eat_punct("-");
                let mut v = self.expect_int()?;
                if neg {
                    v = -v;
                }
                self.expect_punct(":")?;
                let bb = self.expect_bb()?;
                targets.push((v, bb));
                self.expect_punct(",")?;
            }
            self.expect_punct(";")?;
            data.terminator = Some(Terminator {
                kind: TerminatorKind::SwitchInt {
                    discr,
                    targets,
                    otherwise,
                },
                source_info: info,
            });
            return Ok(());
        }
        if self.eat_ident("drop") {
            self.expect_punct("(")?;
            let place = self.parse_place()?;
            self.expect_punct(")")?;
            self.expect_punct("->")?;
            let target = self.expect_bb()?;
            self.expect_punct(";")?;
            data.terminator = Some(Terminator {
                kind: TerminatorKind::Drop { place, target },
                source_info: info,
            });
            return Ok(());
        }

        // Assignment or call: `place = ...`.
        let place = self.parse_place()?;
        self.expect_punct("=")?;
        if self.eat_ident("call") {
            let func = self.parse_callee()?;
            self.expect_punct("(")?;
            let mut args = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    args.push(self.parse_operand()?);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            self.expect_punct("->")?;
            let target = if self.eat_punct("!") {
                None
            } else {
                Some(self.expect_bb()?)
            };
            self.expect_punct(";")?;
            data.terminator = Some(Terminator {
                kind: TerminatorKind::Call {
                    func,
                    args,
                    destination: place,
                    target,
                },
                source_info: info,
            });
            return Ok(());
        }
        let rv = self.parse_rvalue()?;
        self.expect_punct(";")?;
        data.statements.push(Statement {
            kind: StatementKind::Assign(place, rv),
            source_info: info,
        });
        Ok(())
    }

    fn parse_callee(&mut self) -> Result<Callee, ParseError> {
        if self.eat_punct("(") {
            self.expect_punct("*")?;
            let l = self.expect_local()?;
            self.expect_punct(")")?;
            return Ok(Callee::Ptr(l));
        }
        let path = self.expect_path()?;
        match path.parse::<Intrinsic>() {
            Ok(i) => Ok(Callee::Intrinsic(i)),
            Err(_) => Ok(Callee::Fn(path)),
        }
    }

    fn parse_place(&mut self) -> Result<Place, ParseError> {
        let mut place = if self.eat_punct("(") {
            self.expect_punct("*")?;
            let inner = self.parse_place()?;
            self.expect_punct(")")?;
            inner.deref()
        } else {
            Place::from_local(self.expect_local()?)
        };
        loop {
            if self.eat_punct(".") {
                let f = self.expect_int()?;
                place = place.field(f as u32);
            } else if self.eat_punct("[") {
                match self.peek() {
                    Some(TokenKind::Int(_)) => {
                        let n = self.expect_int()?;
                        place = place.const_index(n as u64);
                    }
                    _ => {
                        let l = self.expect_local()?;
                        place = place.index(l);
                    }
                }
                self.expect_punct("]")?;
            } else {
                return Ok(place);
            }
        }
    }

    fn parse_operand(&mut self) -> Result<Operand, ParseError> {
        if self.eat_ident("const") {
            return Ok(Operand::Const(self.parse_const()?));
        }
        if self.eat_ident("move") {
            return Ok(Operand::Move(self.parse_place()?));
        }
        Ok(Operand::Copy(self.parse_place()?))
    }

    fn parse_const(&mut self) -> Result<Const, ParseError> {
        if self.eat_punct("-") {
            let v = self.expect_int()?;
            return Ok(Const::Int(-v));
        }
        if let Some(TokenKind::Int(v)) = self.peek() {
            self.pos += 1;
            return Ok(Const::Int(v));
        }
        if self.eat_ident("true") {
            return Ok(Const::Bool(true));
        }
        if self.eat_ident("false") {
            return Ok(Const::Bool(false));
        }
        if self.eat_punct("(") {
            self.expect_punct(")")?;
            return Ok(Const::Unit);
        }
        if self.eat_ident("fn") {
            return Ok(Const::Fn(self.expect_path()?));
        }
        Err(self.error_here("expected constant"))
    }

    fn parse_rvalue(&mut self) -> Result<Rvalue, ParseError> {
        if self.eat_punct("&") {
            if self.eat_ident("raw") {
                let mutbl = if self.eat_ident("mut") {
                    Mutability::Mut
                } else {
                    self.expect_ident("const")?;
                    Mutability::Not
                };
                return Ok(Rvalue::AddrOf(mutbl, self.parse_place()?));
            }
            let mutbl = if self.eat_ident("mut") {
                Mutability::Mut
            } else {
                Mutability::Not
            };
            return Ok(Rvalue::Ref(mutbl, self.parse_place()?));
        }
        if self.eat_ident("len") {
            self.expect_punct("(")?;
            let p = self.parse_place()?;
            self.expect_punct(")")?;
            return Ok(Rvalue::Len(p));
        }
        if self.eat_punct("[") {
            let mut ops = Vec::new();
            if !self.eat_punct("]") {
                loop {
                    ops.push(self.parse_operand()?);
                    if self.eat_punct("]") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            return Ok(Rvalue::Aggregate(ops));
        }
        if self.eat_punct("!") {
            return Ok(Rvalue::UnaryOp(UnOp::Not, self.parse_operand()?));
        }
        if self.eat_punct("-") {
            return Ok(Rvalue::UnaryOp(UnOp::Neg, self.parse_operand()?));
        }
        let lhs = self.parse_operand()?;
        if self.eat_ident("as") {
            let ty = self.parse_ty()?;
            return Ok(Rvalue::Cast(lhs, ty));
        }
        if self.eat_ident("offset") {
            let rhs = self.parse_operand()?;
            return Ok(Rvalue::BinaryOp(BinOp::Offset, lhs, rhs));
        }
        let op = match self.peek() {
            Some(TokenKind::Punct("+")) => Some(BinOp::Add),
            Some(TokenKind::Punct("-")) => Some(BinOp::Sub),
            Some(TokenKind::Punct("*")) => Some(BinOp::Mul),
            Some(TokenKind::Punct("/")) => Some(BinOp::Div),
            Some(TokenKind::Punct("%")) => Some(BinOp::Rem),
            Some(TokenKind::Punct("==")) => Some(BinOp::Eq),
            Some(TokenKind::Punct("!=")) => Some(BinOp::Ne),
            Some(TokenKind::Punct("<")) => Some(BinOp::Lt),
            Some(TokenKind::Punct("<=")) => Some(BinOp::Le),
            Some(TokenKind::Punct(">")) => Some(BinOp::Gt),
            Some(TokenKind::Punct(">=")) => Some(BinOp::Ge),
            Some(TokenKind::Punct("&&")) => Some(BinOp::And),
            Some(TokenKind::Punct("||")) => Some(BinOp::Or),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_operand()?;
            return Ok(Rvalue::BinaryOp(op, lhs, rhs));
        }
        Ok(Rvalue::Use(lhs))
    }

    fn parse_ty(&mut self) -> Result<Ty, ParseError> {
        if self.eat_punct("&") {
            let mutbl = if self.eat_ident("mut") {
                Mutability::Mut
            } else {
                Mutability::Not
            };
            return Ok(Ty::Ref(mutbl, Box::new(self.parse_ty()?)));
        }
        if self.eat_punct("*") {
            let mutbl = if self.eat_ident("mut") {
                Mutability::Mut
            } else {
                self.expect_ident("const")?;
                Mutability::Not
            };
            return Ok(Ty::RawPtr(mutbl, Box::new(self.parse_ty()?)));
        }
        if self.eat_punct("[") {
            let elem = self.parse_ty()?;
            self.expect_punct(";")?;
            let n = self.expect_int()?;
            self.expect_punct("]")?;
            return Ok(Ty::Array(Box::new(elem), n as u64));
        }
        if self.eat_punct("(") {
            let mut elems = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    elems.push(self.parse_ty()?);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            return Ok(Ty::Tuple(elems));
        }
        let name = self.expect_any_ident("type")?;
        let ty = match name {
            "unit" => Ty::Unit,
            "bool" => Ty::Bool,
            "int" => Ty::Int,
            "Condvar" => Ty::Condvar,
            "Once" => Ty::Once,
            "AtomicInt" => Ty::AtomicInt,
            "Mutex" | "RwLock" | "Guard" | "Channel" | "JoinHandle" | "Arc" => {
                self.expect_punct("<")?;
                let inner = Box::new(self.parse_ty()?);
                self.expect_punct(">")?;
                match name {
                    "Mutex" => Ty::Mutex(inner),
                    "RwLock" => Ty::RwLock(inner),
                    "Guard" => Ty::Guard(inner),
                    "Channel" => Ty::Channel(inner),
                    "Arc" => Ty::Arc(inner),
                    _ => Ty::JoinHandle(inner),
                }
            }
            _ => Ty::Named(name.to_owned()),
        };
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty;
    use crate::syntax::ProjElem;

    const SIMPLE: &str = r#"
fn add_one(_1 as x: int) -> int {
    let _2: int;

    bb0: {
        StorageLive(_2);
        _2 = _1 + const 1;
        _0 = move _2;
        StorageDead(_2);
        return;
    }
}
"#;

    #[test]
    fn parses_simple_function() {
        let body = parse_body(SIMPLE).expect("parse");
        assert_eq!(body.name, "add_one");
        assert_eq!(body.arg_count, 1);
        assert_eq!(body.locals.len(), 3);
        assert_eq!(body.blocks.len(), 1);
        assert_eq!(body.block(BasicBlock(0)).statements.len(), 4);
    }

    #[test]
    fn simple_function_round_trips() {
        let body = parse_body(SIMPLE).expect("parse");
        let printed = pretty::body_to_string(&body);
        let reparsed = parse_body(&printed).expect("reparse");
        assert_eq!(pretty::body_to_string(&reparsed), printed);
    }

    #[test]
    fn parses_locks_channels_and_calls() {
        let src = r#"
fn main() -> unit {
    let _1 as m: Mutex<int>;
    let _2 as g: Guard<int>;
    let _3: &Mutex<int>;

    bb0: {
        StorageLive(_1);
        _1 = call mutex::new(const 0) -> bb1;
    }

    bb1: {
        StorageLive(_3);
        _3 = &_1;
        StorageLive(_2);
        _2 = call mutex::lock(_3) -> bb2;
    }

    bb2: {
        drop(_2) -> bb3;
    }

    bb3: {
        StorageDead(_2);
        StorageDead(_3);
        StorageDead(_1);
        return;
    }
}
"#;
        let body = parse_body(src).expect("parse");
        assert!(matches!(
            &body.block(BasicBlock(0)).terminator().kind,
            TerminatorKind::Call {
                func: Callee::Intrinsic(Intrinsic::MutexNew),
                ..
            }
        ));
        assert!(matches!(
            &body.block(BasicBlock(2)).terminator().kind,
            TerminatorKind::Drop { .. }
        ));
    }

    #[test]
    fn parses_unsafe_markers_and_raw_pointers() {
        let src = r#"
fn f() -> unit {
    let _1 as p: *mut int;
    let _2 as x: int;

    bb0: {
        StorageLive(_2);
        _2 = const 7;
        StorageLive(_1);
        _1 = &raw mut _2;
        unsafe (*_1) = const 9;
        return;
    }
}
"#;
        let body = parse_body(src).expect("parse");
        let stmts = &body.block(BasicBlock(0)).statements;
        assert!(stmts[4].source_info.safety.is_unsafe());
        assert!(!stmts[3].source_info.safety.is_unsafe());
        assert!(matches!(
            &stmts[3].kind,
            StatementKind::Assign(_, Rvalue::AddrOf(Mutability::Mut, _))
        ));
    }

    #[test]
    fn unsafe_fn_bodies_are_ambiently_unsafe() {
        let src = r#"
unsafe fn f(_1 as p: *mut int) -> unit {
    bb0: {
        (*_1) = const 1;
        return;
    }
}
"#;
        let body = parse_body(src).expect("parse");
        assert!(body.is_unsafe_fn);
        assert!(body.block(BasicBlock(0)).statements[0]
            .source_info
            .safety
            .is_unsafe());
    }

    #[test]
    fn parses_switch_and_program_entry() {
        let src = r#"
entry start;

fn start() -> unit {
    let _1: int;

    bb0: {
        StorageLive(_1);
        _1 = const 2;
        switchInt(_1) -> [0: bb1, 2: bb2, otherwise: bb1];
    }

    bb1: {
        unreachable;
    }

    bb2: {
        return;
    }
}
"#;
        let program = parse_program(src).expect("parse");
        assert_eq!(program.entry(), "start");
        let body = program.entry_body().unwrap();
        match &body.block(BasicBlock(0)).terminator().kind {
            TerminatorKind::SwitchInt { targets, .. } => assert_eq!(targets.len(), 2),
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse_body("fn broken( -> unit {}").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("expected"), "{err}");
    }

    #[test]
    fn rejects_statement_after_terminator() {
        let src = r#"
fn f() -> unit {
    bb0: {
        return;
        nop;
    }
}
"#;
        let err = parse_body(src).unwrap_err();
        assert!(err.message.contains("after terminator"), "{err}");
    }

    #[test]
    fn parses_nested_deref_places() {
        let src = r#"
fn f(_1 as p: *mut *mut int) -> unit {
    bb0: {
        unsafe (*(*_1)).0[3] = const 1;
        return;
    }
}
"#;
        // Exercise the place grammar: deref-of-deref, field, const index.
        let body = parse_body(src).expect("parse");
        match &body.block(BasicBlock(0)).statements[0].kind {
            StatementKind::Assign(place, _) => {
                assert_eq!(
                    place.projection,
                    vec![
                        ProjElem::Deref,
                        ProjElem::Deref,
                        ProjElem::Field(0),
                        ProjElem::ConstIndex(3)
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_table_covers_each_syntax_failure() {
        // (source, expected substring of the error message)
        let cases: &[(&str, &str)] = &[
            ("fn f() -> unit { bb0: { return } }", "expected `;`"),
            ("fn f() -> unit { bb0: { retur; } }", "expected"),
            (
                "fn f() -> unit { bb1: { return; } }",
                "blocks must be consecutive",
            ),
            (
                "fn f() -> unit { let _2: int; bb0: { return; } }",
                "local declarations must be consecutive",
            ),
            (
                "fn f(_2: int) -> unit { bb0: { return; } }",
                "argument locals must be consecutive",
            ),
            (
                "fn f() -> unit { bb0: { goto -> ; } }",
                "expected block label",
            ),
            (
                "fn f() -> unit { bb0: { _0 = const @; } }",
                "unexpected character",
            ),
            // Non-ASCII chars are reported whole, never split mid-char.
            ("é", "unexpected character `é`"),
            (
                "fn f() -> unit { bb0: { _0 = const €; } }",
                "unexpected character `€`",
            ),
            ("fn f() -😀", "unexpected character `😀`"),
            (
                "fn f() -> unit { bb0: { _0 = const 99999999999999999999; } }",
                "out of range",
            ),
            ("fn f() -> nosuch< { bb0: { return; } }", "expected"),
            // Adjacent punctuation lexes longest match first: `->` is one
            // token, so the type is what is missing.
            ("fn f() ->-<=<:: unit", "expected type"),
            (
                "fn f() -> unit { bb0: { StorageLive(x); } }",
                "expected local",
            ),
            (
                "fn f() -> unit { bb0: { switchInt(_0) -> [bb1]; } }",
                "expected",
            ),
        ];
        for (src, want) in cases {
            let err = parse_body(src).expect_err(src);
            assert!(
                err.message.contains(want),
                "source {src:?}: expected {want:?} in {err}"
            );
        }
    }

    #[test]
    fn lexer_takes_the_longest_punctuation_first() {
        let kinds: Vec<TokenKind> = lex("->-<=<::||").map_or_else(
            |e| panic!("{e}"),
            |tokens| tokens.iter().map(|t| t.kind).collect(),
        );
        assert_eq!(
            kinds,
            ["->", "-", "<=", "<", "::", "||"]
                .map(TokenKind::Punct)
                .to_vec()
        );
    }

    #[test]
    fn program_with_trailing_garbage_is_rejected() {
        let err = parse_body("fn f() -> unit { bb0: { return; } } extra").unwrap_err();
        assert!(err.message.contains("trailing input"), "{err}");
    }

    #[test]
    fn parses_negative_consts_and_unary_ops() {
        let src = r#"
fn f() -> int {
    let _1: int;
    let _2: bool;

    bb0: {
        _1 = const -5;
        _2 = !const true;
        _0 = -_1;
        return;
    }
}
"#;
        let body = parse_body(src).expect("parse");
        let stmts = &body.block(BasicBlock(0)).statements;
        assert!(matches!(
            &stmts[0].kind,
            StatementKind::Assign(_, Rvalue::Use(Operand::Const(Const::Int(-5))))
        ));
        assert!(matches!(
            &stmts[1].kind,
            StatementKind::Assign(_, Rvalue::UnaryOp(UnOp::Not, _))
        ));
        assert!(matches!(
            &stmts[2].kind,
            StatementKind::Assign(_, Rvalue::UnaryOp(UnOp::Neg, _))
        ));
    }
}
