//! Seeded synthetic MIR programs for `check-scale`.
//!
//! Six shapes stress the per-body analyses in different ways: forward and
//! reverse pointer-copy chains (points-to), diamonds (dataflow joins),
//! nested loops (back edges), lock acquire/release sequences (guard
//! liveness and lock order) and call fans (the call graph and
//! interprocedural lock summaries). Each program either is clean or plants
//! exactly one bug, so its expected bug-class set is exact.
//!
//! Sizes are stratified over the statement range: a pool holds, for every
//! shape, one program per size stratum, at a seeded point inside the
//! stratum. Every seed therefore covers the whole range evenly, and the
//! pool's cost distribution barely moves between seeds while the programs
//! themselves differ.

use std::fmt::Write as _;

use crate::rng::Rng;

/// Smallest and largest program size, in MIR statements (terminators not
/// counted).
pub const MIN_STATEMENTS: usize = 250;
pub const MAX_STATEMENTS: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    ForwardChain,
    ReverseChain,
    Diamonds,
    NestedLoops,
    LockSequence,
    CallFan,
}

impl Shape {
    pub const ALL: [Shape; 6] = [
        Shape::ForwardChain,
        Shape::ReverseChain,
        Shape::Diamonds,
        Shape::NestedLoops,
        Shape::LockSequence,
        Shape::CallFan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::ForwardChain => "forward-chain",
            Shape::ReverseChain => "reverse-chain",
            Shape::Diamonds => "diamonds",
            Shape::NestedLoops => "nested-loops",
            Shape::LockSequence => "lock-sequence",
            Shape::CallFan => "call-fan",
        }
    }
}

/// One generated program and its known answer.
pub struct ScaleProgram {
    pub shape: Shape,
    /// Statements over all bodies, terminators not counted.
    pub statements: usize,
    pub text: String,
    /// The exact bug-class codes the detector suite must report, sorted.
    pub expected: Vec<&'static str>,
}

/// Size strata per shape in one pool.
pub const STRATA: usize = 32;

/// The `check-scale` pool for `seed`: `STRATA` programs of every shape, in
/// an order whose every prefix covers shapes and sizes evenly (so a run cut
/// off mid-pass is not biased toward small or large programs).
pub fn pool(seed: u64) -> Vec<ScaleProgram> {
    let mut rng = Rng::new(seed, 0x5CA1E);
    let mut shapes = Shape::ALL;
    rng.shuffle(&mut shapes);
    let bits = STRATA.trailing_zeros();
    let span = (MAX_STATEMENTS - MIN_STATEMENTS) as f64;
    let mut out = Vec::with_capacity(STRATA * shapes.len());
    for i in 0..STRATA {
        // Bit-reversed stratum order: any prefix of 2^k strata is spread
        // evenly over the size range.
        let stratum = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        for (si, &shape) in shapes.iter().enumerate() {
            let at = (stratum as f64 + rng.unit()) / STRATA as f64;
            let target = MIN_STATEMENTS + (span * at) as usize;
            // Half of each shape's strata plant a bug, alternating by
            // stratum, with a seeded phase per shape.
            let buggy = (stratum + si + (seed as usize & 1)).is_multiple_of(2);
            out.push(generate(shape, target, buggy, &mut rng));
        }
    }
    out
}

/// One program of `shape` with about `target` statements.
pub fn generate(shape: Shape, target: usize, buggy: bool, rng: &mut Rng) -> ScaleProgram {
    let (fns, expected): (Vec<FnText>, Vec<&'static str>) = match shape {
        Shape::ForwardChain => chain(target, false, buggy, rng),
        Shape::ReverseChain => chain(target, true, buggy, rng),
        Shape::Diamonds => diamonds(target, buggy, rng),
        Shape::NestedLoops => nested_loops(target, buggy, rng),
        Shape::LockSequence => lock_sequence(target, buggy, rng),
        Shape::CallFan => call_fan(target, buggy, rng),
    };
    let mut text = String::with_capacity(target * 40);
    let entry = &fns.last().expect("every shape emits a body").name;
    let _ = writeln!(text, "entry {entry};");
    for f in &fns {
        text.push('\n');
        f.render(&mut text);
    }
    ScaleProgram {
        shape,
        statements: fns.iter().map(FnText::statements).sum(),
        text,
        expected,
    }
}

/// A function body under construction, rendered as textual MIR.
struct FnText {
    name: String,
    params: Vec<(&'static str, &'static str)>,
    ret: &'static str,
    locals: Vec<(&'static str, &'static str)>,
    blocks: Vec<(Vec<String>, String)>,
}

impl FnText {
    fn new(name: String, params: &[(&'static str, &'static str)], ret: &'static str) -> FnText {
        FnText {
            name,
            params: params.to_vec(),
            ret,
            locals: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Declares a local and returns its place (`_k`).
    fn local(&mut self, name: &'static str, ty: &'static str) -> String {
        self.locals.push((name, ty));
        format!("_{}", self.params.len() + self.locals.len())
    }

    fn block(&mut self) -> usize {
        self.blocks.push((Vec::new(), String::new()));
        self.blocks.len() - 1
    }

    fn push(&mut self, block: usize, stmt: impl Into<String>) {
        self.blocks[block].0.push(stmt.into());
    }

    /// Ends `block` with a terminator.
    fn end(&mut self, block: usize, terminator: impl Into<String>) {
        self.blocks[block].1 = terminator.into();
    }

    /// Statements, not counting terminators.
    fn statements(&self) -> usize {
        self.blocks.iter().map(|(s, _)| s.len()).sum()
    }

    fn render(&self, out: &mut String) {
        let params: Vec<String> = self
            .params
            .iter()
            .enumerate()
            .map(|(i, (n, t))| format!("_{} as {n}: {t}", i + 1))
            .collect();
        let _ = writeln!(
            out,
            "fn {}({}) -> {} {{",
            self.name,
            params.join(", "),
            self.ret
        );
        for (i, (n, t)) in self.locals.iter().enumerate() {
            let k = self.params.len() + i + 1;
            if n.is_empty() {
                let _ = writeln!(out, "    let _{k}: {t};");
            } else {
                let _ = writeln!(out, "    let _{k} as {n}: {t};");
            }
        }
        for (b, (stmts, terminator)) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "\n    bb{b}: {{");
            for s in stmts {
                let _ = writeln!(out, "        {s};");
            }
            let _ = writeln!(out, "        {terminator};");
            out.push_str("    }\n");
        }
        out.push_str("}\n");
    }
}

fn konst(rng: &mut Rng) -> usize {
    1 + rng.below(97)
}

/// A raw-pointer copy chain `p1 = p0; p2 = p1; ...`, one link per block.
/// Reverse chains list the blocks opposite to their execution order, so a
/// flow-insensitive solver meets every copy before the one feeding it,
/// while every read still follows its write on the executed path. The bug
/// ends the target's storage before the final dereference.
fn chain(
    target: usize,
    reverse: bool,
    buggy: bool,
    rng: &mut Rng,
) -> (Vec<FnText>, Vec<&'static str>) {
    let links = target.saturating_sub(6).max(2);
    let mut f = FnText::new("main".to_owned(), &[], "int");
    let x = f.local("x", "int");
    let ptrs: Vec<String> = (0..=links).map(|_| f.local("", "*const int")).collect();
    let r = f.local("r", "int");
    let entry = f.block();
    let link_blocks: Vec<usize> = (0..links).map(|_| f.block()).collect();
    let exit = f.block();
    // Link `i` executes i-th; reverse chains place it at the mirrored block.
    let at = |i: usize| {
        if reverse {
            link_blocks[links - 1 - i]
        } else {
            link_blocks[i]
        }
    };
    f.push(entry, format!("StorageLive({x})"));
    f.push(entry, format!("{x} = const {}", konst(rng)));
    f.push(entry, format!("{} = &raw const {x}", ptrs[0]));
    f.end(entry, format!("goto -> bb{}", at(0)));
    for i in 0..links {
        let b = at(i);
        f.push(b, format!("{} = {}", ptrs[i + 1], ptrs[i]));
        let next = if i + 1 < links { at(i + 1) } else { exit };
        f.end(b, format!("goto -> bb{next}"));
    }
    if buggy {
        f.push(exit, format!("StorageDead({x})"));
    }
    f.push(exit, format!("unsafe {r} = (*{})", ptrs[links]));
    f.push(exit, format!("_0 = {r}"));
    f.end(exit, "return");
    (vec![f], expect(buggy, "use-after-free"))
}

/// A run of if/else diamonds, each taking the address of one of two
/// locals and reading through it after the join. The bug ends one local's
/// storage on one branch of one diamond.
fn diamonds(target: usize, buggy: bool, rng: &mut Rng) -> (Vec<FnText>, Vec<&'static str>) {
    let count = (target.saturating_sub(3) / 11).max(1);
    let bad = rng.below(count);
    let mut f = FnText::new("run".to_owned(), &[("c", "int")], "int");
    let x = f.local("x", "int");
    let y = f.local("y", "int");
    let p = f.local("p", "*const int");
    let t = f.local("t", "int");
    let v = f.local("v", "int");
    let acc = f.local("acc", "int");
    let entry = f.block();
    f.push(entry, format!("StorageLive({acc})"));
    f.push(entry, format!("{acc} = const 0"));
    let mut prev = entry;
    for k in 0..count {
        let (a, then, other, join) = (f.block(), f.block(), f.block(), f.block());
        f.end(prev, format!("goto -> bb{a}"));
        f.push(a, format!("StorageLive({x})"));
        f.push(a, format!("{x} = const {}", konst(rng)));
        f.push(a, format!("StorageLive({y})"));
        f.push(a, format!("{y} = const {}", konst(rng)));
        f.push(a, format!("{t} = _1 + const {k}"));
        f.end(
            a,
            format!("switchInt({t}) -> [0: bb{then}, otherwise: bb{other}]"),
        );
        f.push(then, format!("{p} = &raw const {x}"));
        f.end(then, format!("goto -> bb{join}"));
        f.push(other, format!("{p} = &raw const {y}"));
        let planted = buggy && k == bad;
        if planted {
            f.push(other, format!("StorageDead({y})"));
        }
        f.end(other, format!("goto -> bb{join}"));
        f.push(join, format!("unsafe {v} = (*{p})"));
        f.push(join, format!("{acc} = {acc} + {v}"));
        f.push(join, format!("StorageDead({x})"));
        if !planted {
            f.push(join, format!("StorageDead({y})"));
        }
        prev = join;
    }
    f.push(prev, format!("_0 = {acc}"));
    f.end(prev, "return");
    (vec![f], expect(buggy, "use-after-free"))
}

/// A sequence of two-deep counting loops whose inner bodies mix
/// arithmetic with writes through a raw pointer. The bug acquires a mutex
/// inside one inner loop without releasing it, so the next iteration locks
/// it again.
fn nested_loops(target: usize, buggy: bool, rng: &mut Rng) -> (Vec<FnText>, Vec<&'static str>) {
    let body = 12 + rng.below(8);
    let nests = (target.saturating_sub(12) / (body + 7)).max(1);
    let bad = rng.below(nests);
    let mut f = FnText::new("run".to_owned(), &[("n", "int")], "int");
    let i = f.local("i", "int");
    let j = f.local("j", "int");
    let t = f.local("t", "bool");
    let a = f.local("a", "int");
    let b = f.local("b", "int");
    let q = f.local("q", "*mut int");
    let m = f.local("m", "Mutex<int>");
    let r = f.local("r", "&Mutex<int>");
    let g = f.local("g", "Guard<int>");
    let entry = f.block();
    f.push(entry, format!("StorageLive({a})"));
    f.push(entry, format!("{a} = const {}", konst(rng)));
    f.push(entry, format!("StorageLive({b})"));
    f.push(entry, format!("{b} = const {}", konst(rng)));
    f.push(entry, format!("StorageLive({m})"));
    let made = f.block();
    f.end(entry, format!("{m} = call mutex::new(const 0) -> bb{made}"));
    f.push(made, format!("StorageLive({r})"));
    f.push(made, format!("{r} = &{m}"));
    f.push(made, format!("StorageLive({g})"));
    let mut prev = made;
    for k in 0..nests {
        let (pre, head, ipre, ihead, ibody, iexit) = (
            f.block(),
            f.block(),
            f.block(),
            f.block(),
            f.block(),
            f.block(),
        );
        let exit = f.block();
        f.end(prev, format!("goto -> bb{pre}"));
        f.push(pre, format!("{i} = const 0"));
        f.end(pre, format!("goto -> bb{head}"));
        f.push(head, format!("{t} = {i} < _1"));
        f.end(
            head,
            format!("switchInt({t}) -> [0: bb{exit}, otherwise: bb{ipre}]"),
        );
        f.push(ipre, format!("{j} = const 0"));
        f.end(ipre, format!("goto -> bb{ihead}"));
        f.push(ihead, format!("{t} = {j} < const {}", 2 + rng.below(6)));
        f.end(
            ihead,
            format!("switchInt({t}) -> [0: bb{iexit}, otherwise: bb{ibody}]"),
        );
        let mut cur = ibody;
        if buggy && k == bad {
            let locked = f.block();
            f.end(cur, format!("{g} = call mutex::lock({r}) -> bb{locked}"));
            cur = locked;
        }
        for s in 0..body {
            let stmt = match (s + k) % 4 {
                0 => format!("{a} = {a} + {b}"),
                1 => format!("{b} = {b} * const {}", konst(rng)),
                2 => format!("{q} = &raw mut {a}"),
                _ => format!("unsafe (*{q}) = {b} + const {}", konst(rng)),
            };
            f.push(cur, stmt);
        }
        f.push(cur, format!("{j} = {j} + const 1"));
        f.end(cur, format!("goto -> bb{ihead}"));
        f.push(iexit, format!("{i} = {i} + const 1"));
        f.end(iexit, format!("goto -> bb{head}"));
        prev = exit;
    }
    f.push(prev, format!("StorageDead({g})"));
    f.push(prev, format!("_0 = {a}"));
    f.end(prev, "return");
    (vec![f], expect(buggy, "double-lock"))
}

/// Nested acquisitions of mutex pairs, always lower index first, each with
/// its own guards released before the next. The bug either locks one mutex
/// twice or takes the first step's pair in the opposite order.
fn lock_sequence(target: usize, buggy: bool, rng: &mut Rng) -> (Vec<FnText>, Vec<&'static str>) {
    const MUTEXES: usize = 6;
    let steps = (target.saturating_sub(4 * MUTEXES + 3) / 7).max(2);
    // The bug never hits step 0, whose pair an inversion reverses.
    let bad = 1 + rng.below(steps - 1);
    let inversion = rng.below(2) == 0;
    let mut f = FnText::new("run".to_owned(), &[], "int");
    let ms: Vec<String> = (0..MUTEXES).map(|_| f.local("", "Mutex<int>")).collect();
    let rs: Vec<String> = (0..MUTEXES).map(|_| f.local("", "&Mutex<int>")).collect();
    let v = f.local("v", "int");
    let acc = f.local("acc", "int");
    let mut cur = f.block();
    f.push(cur, format!("StorageLive({acc})"));
    f.push(cur, format!("{acc} = const 0"));
    for (k, m) in ms.iter().enumerate() {
        let next = f.block();
        f.push(cur, format!("StorageLive({m})"));
        f.end(cur, format!("{m} = call mutex::new(const {k}) -> bb{next}"));
        cur = next;
    }
    for (m, r) in ms.iter().zip(&rs) {
        f.push(cur, format!("StorageLive({r})"));
        f.push(cur, format!("{r} = &{m}"));
    }
    let mut first_pair = (0, 1);
    for s in 0..steps {
        let lo = rng.below(MUTEXES - 1);
        let hi = lo + 1 + rng.below(MUTEXES - 1 - lo);
        if s == 0 {
            first_pair = (lo, hi);
        }
        let (first, second) = match (buggy && s == bad, inversion) {
            (true, true) => (first_pair.1, first_pair.0),
            (true, false) => (lo, lo),
            _ => (lo, hi),
        };
        let g1 = f.local("", "Guard<int>");
        let g2 = f.local("", "Guard<int>");
        let (one, two) = (f.block(), f.block());
        f.push(cur, format!("StorageLive({g1})"));
        f.end(
            cur,
            format!("{g1} = call mutex::lock({}) -> bb{one}", rs[first]),
        );
        f.push(one, format!("StorageLive({g2})"));
        f.end(
            one,
            format!("{g2} = call mutex::lock({}) -> bb{two}", rs[second]),
        );
        f.push(two, format!("{v} = (*{g1})"));
        f.push(two, format!("(*{g2}) = {v} + const {}", konst(rng)));
        f.push(two, format!("{acc} = {acc} + {v}"));
        f.push(two, format!("StorageDead({g2})"));
        f.push(two, format!("StorageDead({g1})"));
        cur = two;
    }
    f.push(cur, format!("_0 = {acc}"));
    f.end(cur, "return");
    let class = if inversion {
        "lock-order-inversion"
    } else {
        "double-lock"
    };
    (vec![f], expect(buggy, class))
}

/// A caller fanning out to many helpers that each lock a shared mutex,
/// update it, release it and compute on their argument. The bug holds the
/// mutex in the caller across one helper call.
fn call_fan(target: usize, buggy: bool, rng: &mut Rng) -> (Vec<FnText>, Vec<&'static str>) {
    let work = 6 + rng.below(8);
    let helpers = (target.saturating_sub(6) / (work + 6)).max(1);
    let bad = rng.below(helpers);
    let mut fns = Vec::with_capacity(helpers + 1);
    for h in 0..helpers {
        let mut f = FnText::new(
            format!("helper{h}"),
            &[("r", "&Mutex<int>"), ("v", "int")],
            "int",
        );
        let g = f.local("g", "Guard<int>");
        let w = f.local("w", "int");
        let (b0, b1) = (f.block(), f.block());
        f.push(b0, format!("StorageLive({g})"));
        f.end(b0, format!("{g} = call mutex::lock(_1) -> bb{b1}"));
        f.push(b1, format!("{w} = (*{g})"));
        f.push(b1, format!("(*{g}) = {w} + _2"));
        f.push(b1, format!("StorageDead({g})"));
        for s in 0..work {
            let stmt = if s % 2 == 0 {
                format!("{w} = {w} + const {}", konst(rng))
            } else {
                format!("{w} = {w} * _2")
            };
            f.push(b1, stmt);
        }
        f.push(b1, format!("_0 = {w}"));
        f.end(b1, "return");
        fns.push(f);
    }
    let mut f = FnText::new("main".to_owned(), &[], "int");
    let m = f.local("m", "Mutex<int>");
    let r = f.local("r", "&Mutex<int>");
    let acc = f.local("acc", "int");
    let ret = f.local("ret", "int");
    let g = f.local("g", "Guard<int>");
    let (b0, b1) = (f.block(), f.block());
    f.push(b0, format!("StorageLive({m})"));
    f.end(b0, format!("{m} = call mutex::new(const 0) -> bb{b1}"));
    f.push(b1, format!("StorageLive({r})"));
    f.push(b1, format!("{r} = &{m}"));
    f.push(b1, format!("{acc} = const {}", konst(rng)));
    let mut cur = b1;
    for h in 0..helpers {
        let planted = buggy && h == bad;
        if planted {
            let locked = f.block();
            f.push(cur, format!("StorageLive({g})"));
            f.end(cur, format!("{g} = call mutex::lock({r}) -> bb{locked}"));
            cur = locked;
        }
        let next = f.block();
        f.end(
            cur,
            format!("{ret} = call helper{h}({r}, {acc}) -> bb{next}"),
        );
        cur = next;
        if planted {
            f.push(cur, format!("StorageDead({g})"));
        }
        f.push(cur, format!("{acc} = {acc} + {ret}"));
    }
    f.push(cur, format!("_0 = {acc}"));
    f.end(cur, "return");
    fns.push(f);
    (fns, expect(buggy, "double-lock"))
}

fn expect(buggy: bool, class: &'static str) -> Vec<&'static str> {
    if buggy {
        vec![class]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rust_safety_study::core::suite::DetectorSuite;
    use rust_safety_study::mir::parse::parse_program;
    use rust_safety_study::mir::validate::validate_program;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let texts = |seed| -> Vec<String> { pool(seed).into_iter().map(|p| p.text).collect() };
        let one = texts(21);
        assert_eq!(one, texts(21));
        let other = texts(22);
        assert_eq!(one.len(), other.len());
        assert!(one.iter().zip(&other).all(|(a, b)| a != b));
    }

    #[test]
    fn the_pool_covers_every_shape_over_the_whole_size_range() {
        let pool = pool(3);
        assert_eq!(pool.len(), STRATA * Shape::ALL.len());
        for shape in Shape::ALL {
            let sizes: Vec<usize> = pool
                .iter()
                .filter(|p| p.shape == shape)
                .map(|p| p.statements)
                .collect();
            assert_eq!(sizes.len(), STRATA);
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(
                *lo < MIN_STATEMENTS + 120,
                "{}: smallest {lo}",
                shape.name()
            );
            assert!(*hi > MAX_STATEMENTS - 120, "{}: largest {hi}", shape.name());
            assert!(*hi < MAX_STATEMENTS + 60, "{}: largest {hi}", shape.name());
            let buggy = pool
                .iter()
                .filter(|p| p.shape == shape && !p.expected.is_empty())
                .count();
            assert_eq!(buggy, STRATA / 2, "{}", shape.name());
        }
    }

    #[test]
    fn every_shape_gets_exactly_its_expected_verdict() {
        let suite = DetectorSuite::new().with_jobs(1);
        for seed in 0..16 {
            let mut rng = Rng::new(seed, 1);
            for shape in Shape::ALL {
                for buggy in [false, true] {
                    let p = generate(shape, MIN_STATEMENTS + 10 * seed as usize, buggy, &mut rng);
                    let program = parse_program(&p.text).unwrap();
                    validate_program(&program).unwrap();
                    let mut found: Vec<&str> = suite
                        .check_program(&program)
                        .diagnostics()
                        .iter()
                        .map(|d| d.bug_class.code())
                        .collect();
                    found.sort_unstable();
                    found.dedup();
                    assert_eq!(
                        found,
                        p.expected,
                        "{} buggy={buggy} seed={seed}",
                        shape.name()
                    );
                }
            }
        }
    }
}
