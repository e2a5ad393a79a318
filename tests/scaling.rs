//! Scaling gates that count work, not time.
//!
//! The points-to solver reports the set insertions each solve attempted
//! (`PointsTo::work`), an `AnalysisContext` the function visits its
//! interprocedural summaries made (`summary_visits`), and each dataflow
//! result the transfers its solve and its cursors applied
//! (`Results::work`). Counts are exact and show growth at small sizes, so
//! these gates run in a debug build without timing noise: a solver that
//! goes quadratic on a chain reads ~16× from n to 4n instead of ~4×, and
//! one that re-sends whole sets exceeds the bound on useful work.

use std::collections::BTreeSet;

use rust_safety_study::analysis::points_to::{MemRoot, PointsTo};
use rust_safety_study::core::config::DetectorConfig;
use rust_safety_study::core::detectors::{
    AnalysisContext, BlockingMisuse, BufferOverflow, Detector, DoubleFree, DoubleLock,
    InteriorMutability, InvalidFree, LockOrderInversion, NullDeref, UninitRead, UseAfterFree,
};
use rust_safety_study::core::suite::DetectorSuite;
use rust_safety_study::mir::build::BodyBuilder;
use rust_safety_study::mir::{
    BinOp, Body, Intrinsic, Local, Mutability, Operand, Place, Program, Rvalue, Ty,
};

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `p1 = p0` … `pn = pn-1` listed last link first, after `p0 = &x`.
    ReverseCopyChain,
    /// The same chain listed in execution order.
    ForwardCopyChain,
    /// Per link, last link first: `c = &m; (*c) = p; p' = (*c)`.
    ReverseStoreLoadChain,
    /// A forward copy chain whose head is also assigned `p0 = &xj` once
    /// every ten links, so every link ends up with n/10 targets.
    FanIn,
}

const CHAINS: [Shape; 3] = [
    Shape::ReverseCopyChain,
    Shape::ForwardCopyChain,
    Shape::ReverseStoreLoadChain,
];
const SIZES: [usize; 2] = [250, 1_000];

fn build(shape: Shape, n: usize) -> Body {
    let ptr = || Ty::const_ptr(Ty::Int);
    let mut b = BodyBuilder::new(format!("{shape:?}"), 0, Ty::Unit);
    let x = b.local("x", Ty::Int);
    let links: Vec<Local> = (0..=n).map(|i| b.local(format!("p{i}"), ptr())).collect();
    let copy = |b: &mut BodyBuilder, i: usize| {
        b.assign(links[i + 1], Rvalue::Use(Operand::copy(links[i])));
    };
    if !matches!(shape, Shape::FanIn) {
        b.assign(links[0], Rvalue::AddrOf(Mutability::Not, x.into()));
    }
    match shape {
        Shape::ReverseCopyChain => (0..n).rev().for_each(|i| copy(&mut b, i)),
        Shape::ForwardCopyChain => (0..n).for_each(|i| copy(&mut b, i)),
        Shape::ReverseStoreLoadChain => {
            for i in (0..n).rev() {
                let m = b.local(format!("m{i}"), ptr());
                let c = b.local(format!("c{i}"), Ty::mut_ptr(ptr()));
                let through_c = Place::from_local(c).deref();
                b.assign(c, Rvalue::AddrOf(Mutability::Mut, m.into()));
                b.assign_place(through_c.clone(), Rvalue::Use(Operand::copy(links[i])));
                b.assign(links[i + 1], Rvalue::Use(Operand::Copy(through_c)));
            }
        }
        Shape::FanIn => {
            for i in 0..n {
                if i % 10 == 0 {
                    let xj = b.local(format!("x{}", i / 10), Ty::Int);
                    b.assign(links[0], Rvalue::AddrOf(Mutability::Not, xj.into()));
                }
                copy(&mut b, i);
            }
        }
    }
    b.ret();
    b.finish()
}

/// Σ|targets| over every local plus Σ|cell_contents| over every root a
/// local may point to: the facts any solver must insert at least once.
fn facts(body: &Body, pt: &PointsTo) -> u64 {
    let roots: BTreeSet<MemRoot> = body
        .local_indices()
        .flat_map(|l| pt.targets(l).iter().copied())
        .collect();
    let targets: usize = body.local_indices().map(|l| pt.targets(l).len()).sum();
    let contents: usize = roots.iter().map(|&r| pt.cell_contents(r).len()).sum();
    (targets + contents) as u64
}

fn statements(body: &Body) -> u64 {
    body.blocks.iter().map(|b| b.statements.len() as u64).sum()
}

#[test]
fn points_to_work_on_chains_grows_linearly() {
    for shape in CHAINS {
        let [small, large] = SIZES.map(|n| PointsTo::analyze(&build(shape, n)).work());
        assert!(
            large <= 5 * small,
            "{shape:?}: {small} insertions at n = {} but {large} at n = {}",
            SIZES[0],
            SIZES[1]
        );
    }
}

#[test]
fn points_to_work_is_bounded_by_facts_and_statements() {
    for shape in [CHAINS.as_slice(), &[Shape::FanIn]].concat() {
        for n in SIZES {
            let body = build(shape, n);
            let pt = PointsTo::analyze(&body);
            let (facts, statements) = (facts(&body, &pt), statements(&body));
            assert!(
                pt.work() <= 2 * (facts + statements),
                "{shape:?} at n = {n}: {} insertions for {facts} facts and {statements} statements",
                pt.work()
            );
        }
    }
}

/// The interprocedural probes: a chain of `n` functions below `main`, each
/// passing its arguments on to the next.
#[derive(Debug, Clone, Copy)]
enum ChainShape {
    /// `fK(p: *const int) -> int`; the last one reads `(*p)`, and `main`
    /// passes `&raw const` of a local.
    Call,
    /// `fK(p: &Mutex<int>)`; the last one locks `p` and drops the guard.
    Lock,
    /// `fK(a: &Mutex<int>, b: &Mutex<int>)`; the last one locks `a`, then
    /// `b` with `a` held. `main` calls the head with `(&m, &n)` and again
    /// with `(&n, &m)`: one lock-order inversion.
    LockOrder,
}

/// The chain named `f00000`, `f00001`, … from its head, so that callers
/// sort before their callees; `reversed` numbers it from the tail.
fn chain(shape: ChainShape, n: usize, reversed: bool) -> Program {
    let name = |k: usize| format!("f{:05}", if reversed { n - 1 - k } else { k });
    let mutex = || Ty::Mutex(Box::new(Ty::Int));
    let guard = || Ty::Guard(Box::new(Ty::Int));
    let (arity, ret) = match shape {
        ChainShape::Call => (1, Ty::Int),
        ChainShape::Lock => (1, Ty::Unit),
        ChainShape::LockOrder => (2, Ty::Unit),
    };
    let mut bodies: Vec<Body> = (0..n)
        .map(|k| {
            let mut b = BodyBuilder::new(name(k), arity, ret.clone());
            let params: Vec<Local> = (0..arity)
                .map(|i| match shape {
                    ChainShape::Call => b.arg("p", Ty::const_ptr(Ty::Int)),
                    _ => b.arg(format!("a{i}"), Ty::shared_ref(mutex())),
                })
                .collect();
            if k + 1 < n {
                let args = params.iter().map(|&p| Operand::copy(p)).collect();
                b.call_fn_cont(name(k + 1), args, Place::RETURN);
            } else if let ChainShape::Call = shape {
                let pointee = Place::from_local(params[0]).deref();
                b.in_unsafe(|b| b.assign(Place::RETURN, Rvalue::Use(Operand::Copy(pointee))));
            } else {
                let guards: Vec<Local> = params
                    .iter()
                    .map(|&p| {
                        let g = b.local(format!("g{}", p.index()), guard());
                        b.storage_live(g);
                        b.call_intrinsic_cont(Intrinsic::MutexLock, vec![Operand::copy(p)], g);
                        g
                    })
                    .collect();
                guards.iter().rev().for_each(|&g| b.storage_dead(g));
            }
            b.ret();
            b.finish()
        })
        .collect();
    let head = name(0);
    let mut main = BodyBuilder::new("main", 0, Ty::Int);
    if let ChainShape::Call = shape {
        let x = main.local("x", Ty::Int);
        let p = main.local("p", Ty::const_ptr(Ty::Int));
        main.storage_live(x);
        main.assign(x, Rvalue::Use(Operand::int(7)));
        main.storage_live(p);
        main.assign(p, Rvalue::AddrOf(Mutability::Not, x.into()));
        main.call_fn_cont(head, vec![Operand::copy(p)], Place::RETURN);
    } else {
        let refs: Vec<Local> = (0..arity)
            .map(|i| {
                let m = main.local(format!("m{i}"), mutex());
                let r = main.local(format!("r{i}"), Ty::shared_ref(mutex()));
                main.storage_live(m);
                main.call_intrinsic_cont(Intrinsic::MutexNew, vec![Operand::int(0)], m);
                main.storage_live(r);
                main.assign(r, Rvalue::Ref(Mutability::Not, m.into()));
                r
            })
            .collect();
        let args: Vec<Operand> = refs.iter().map(|&r| Operand::copy(r)).collect();
        main.call_fn_cont(head.clone(), args.clone(), Place::RETURN);
        if arity == 2 {
            let swapped = args.into_iter().rev().collect();
            main.call_fn_cont(head, swapped, Place::RETURN);
        }
    }
    main.ret();
    bodies.push(main.finish());
    Program::from_bodies(bodies)
}

/// `n` functions `fK(p: *const int) -> int` in a cycle, each passing `p`
/// on to the next; `f00000` also reads `(*p)`, so the fact travels once
/// around the ring.
fn ring(n: usize) -> Program {
    Program::from_bodies((0..n).map(|k| {
        let mut b = BodyBuilder::new(format!("f{k:05}"), 1, Ty::Int);
        let p = b.arg("p", Ty::const_ptr(Ty::Int));
        if k == 0 {
            let pointee = Place::from_local(p).deref();
            b.in_unsafe(|b| b.assign(Place::RETURN, Rvalue::Use(Operand::Copy(pointee))));
        }
        let next = format!("f{:05}", (k + 1) % n);
        b.call_fn_cont(next, vec![Operand::copy(p)], Place::RETURN);
        b.ret();
        b.finish()
    }))
}

/// The summary driver's function visits on `program`: for the deref
/// summaries, and for the lock facts and lock-order edges together. Also
/// returns the lock-order findings.
fn summary_visits(program: &Program) -> (u64, u64, usize) {
    let cx = AnalysisContext::new(program);
    cx.summaries();
    let derefs = cx.summary_visits();
    let inversions = LockOrderInversion.check_global(&cx, &DetectorConfig::new());
    (derefs, cx.summary_visits() - derefs, inversions.len())
}

#[test]
fn summaries_visit_each_function_once_on_call_chains() {
    for shape in [ChainShape::Call, ChainShape::Lock, ChainShape::LockOrder] {
        for reversed in [false, true] {
            for n in SIZES {
                let program = chain(shape, n, reversed);
                let fns = program.len() as u64;
                let (derefs, locks, inversions) = summary_visits(&program);
                let label = format!("{shape:?} (reversed: {reversed}) at n = {n}");
                assert!(
                    derefs <= fns && locks <= 2 * fns,
                    "{label}: {derefs} deref and {locks} lock visits for {fns} functions"
                );
                let expected = usize::from(matches!(shape, ChainShape::LockOrder));
                assert_eq!(inversions, expected, "{label}");
            }
        }
    }
}

#[test]
fn summary_visits_on_a_ring_grow_linearly() {
    let [small, large] = SIZES.map(|n| {
        let (derefs, locks, _) = summary_visits(&ring(n));
        derefs + locks
    });
    assert!(
        large <= 5 * small,
        "{small} visits at n = {} but {large} at n = {}",
        SIZES[0],
        SIZES[1]
    );
}

/// The per-body dataflow probes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DataflowShape {
    /// One block that, for each of n locals, runs `StorageLive(x)`,
    /// `x = const c`, `p = &raw const x` and `unsafe r = (*p)`.
    StraightLine,
    /// A loop whose body shifts n constants down one link per trip, so
    /// constant propagation forgets one constant per solver pass.
    LoopConstantChain,
}

/// Shapes whose dataflow work grows more than 5× from n to 4n. The gate
/// asserts that each still does, so the list cannot go stale: the change
/// that makes one linear removes it here, and none may be added.
const KNOWN_SUPERLINEAR: [DataflowShape; 1] = [DataflowShape::LoopConstantChain];

fn dataflow_probe(shape: DataflowShape, n: usize) -> Program {
    let mut b = BodyBuilder::new("main", 0, Ty::Unit);
    match shape {
        DataflowShape::StraightLine => {
            for i in 0..n {
                let x = b.local(format!("x{i}"), Ty::Int);
                let p = b.local(format!("p{i}"), Ty::const_ptr(Ty::Int));
                let r = b.local(format!("r{i}"), Ty::Int);
                b.storage_live(x);
                b.assign(x, Rvalue::Use(Operand::int(i as i64)));
                b.assign(p, Rvalue::AddrOf(Mutability::Not, x.into()));
                let pointee = Operand::Copy(Place::from_local(p).deref());
                b.in_unsafe(|b| b.assign(r, Rvalue::Use(pointee)));
            }
            b.ret();
        }
        DataflowShape::LoopConstantChain => {
            let flag = b.local("flag", Ty::Int);
            let chain: Vec<Local> = (0..n).map(|i| b.local(format!("c{i}"), Ty::Int)).collect();
            for &l in std::iter::once(&flag).chain(&chain) {
                b.assign(l, Rvalue::Use(Operand::int(0)));
            }
            let header = b.goto_cont();
            let (body, exit) = (b.new_block(), b.new_block());
            b.switch_int(Operand::copy(flag), vec![(0, exit)], body);
            b.switch_to(body);
            for pair in chain.windows(2) {
                b.assign(pair[0], Rvalue::Use(Operand::copy(pair[1])));
            }
            let last = chain[n - 1];
            let bump = Rvalue::BinaryOp(BinOp::Add, Operand::copy(last), Operand::int(1));
            b.assign(last, bump);
            b.goto(header);
            b.switch_to(exit);
            b.ret();
        }
    }
    Program::from_bodies([b.finish()])
}

/// Runs all ten detectors on one context over `program`.
fn run_all_detectors(program: &Program) -> AnalysisContext<'_> {
    let detectors: [&dyn Detector; 10] = [
        &UseAfterFree,
        &DoubleFree,
        &InvalidFree,
        &UninitRead,
        &NullDeref,
        &BufferOverflow,
        &DoubleLock,
        &LockOrderInversion,
        &BlockingMisuse,
        &InteriorMutability,
    ];
    let mut names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
    let mut all = DetectorSuite::all_detector_names();
    names.sort_unstable();
    all.sort_unstable();
    assert_eq!(names, all, "the gate runs every detector");

    let cx = AnalysisContext::new(program);
    let config = DetectorConfig::new();
    for d in detectors {
        for (name, body) in program.iter() {
            d.check_body(&cx, name, body, &config);
        }
        d.check_global(&cx, &config);
    }
    cx
}

/// Runs all ten detectors on one context over `program`, then sums the
/// work of every function's eight dataflow results (solving any that no
/// detector sought).
fn dataflow_work(program: &Program) -> u64 {
    let cx = run_all_detectors(program);
    let cache = cx.cache();
    program
        .iter()
        .map(|(f, _)| {
            cache.storage_dead(f).work()
                + cache.maybe_freed(f).work()
                + cache.maybe_invalid(f).work()
                + cache.held_guards(f).work()
                + cache.heap_state(f).work()
                + cache.const_prop(f).work()
                + cache.maybe_null(f).work()
                + cache.maybe_uninit(f).work()
        })
        .sum()
}

#[test]
fn dataflow_work_grows_linearly_except_on_known_shapes() {
    for shape in [
        DataflowShape::StraightLine,
        DataflowShape::LoopConstantChain,
    ] {
        let [small, large] = SIZES.map(|n| dataflow_work(&dataflow_probe(shape, n)));
        let known = KNOWN_SUPERLINEAR.contains(&shape);
        assert_eq!(
            large > 5 * small,
            known,
            "{shape:?} (known superlinear: {known}): {small} transfers at n = {} but {large} at n = {}",
            SIZES[0],
            SIZES[1]
        );
    }
}

/// The `check-scale` chain: `p0 = &raw const x` in the entry block, one
/// `p(i+1) = p(i)` per block, and one `unsafe r = (*pn)` in the exit block.
fn block_chain(links: usize) -> Program {
    let mut b = BodyBuilder::new("main", 0, Ty::Int);
    let x = b.local("x", Ty::Int);
    let ptrs: Vec<Local> = (0..=links)
        .map(|i| b.local(format!("p{i}"), Ty::const_ptr(Ty::Int)))
        .collect();
    let r = b.local("r", Ty::Int);
    b.storage_live(x);
    b.assign(x, Rvalue::Use(Operand::int(7)));
    b.assign(ptrs[0], Rvalue::AddrOf(Mutability::Not, x.into()));
    for pair in ptrs.windows(2) {
        b.goto_cont();
        b.assign(pair[1], Rvalue::Use(Operand::copy(pair[0])));
    }
    b.goto_cont();
    let pointee = Operand::Copy(Place::from_local(ptrs[links]).deref());
    b.in_unsafe(|b| b.assign(r, Rvalue::Use(pointee)));
    b.assign(Place::RETURN, Rvalue::Use(Operand::copy(r)));
    b.ret();
    Program::from_bodies([b.finish()])
}

/// A detector solves a dataflow fact only when it seeks it at a site, so
/// the cache's solve count is the number of facts some verdict read.
#[test]
fn detectors_solve_only_the_facts_they_seek() {
    // No site: nothing reads a local, dereferences, indexes, locks or drops.
    let mut b = BodyBuilder::new("main", 0, Ty::Int);
    let x = b.local("x", Ty::Int);
    b.storage_live(x);
    b.assign(x, Rvalue::Use(Operand::int(1)));
    b.assign(Place::RETURN, Rvalue::Use(Operand::int(2)));
    b.storage_dead(x);
    b.ret();
    let program = Program::from_bodies([b.finish()]);
    assert_eq!(run_all_detectors(&program).cache().solves(), 0);

    // The chain's one dereference reads storage liveness and maybe-freed
    // (use-after-free) and maybe-null (null-deref); its copies read
    // maybe-uninit (uninit-read). Heap state, constants, guards and
    // maybe-invalid are never sought.
    let program = block_chain(250);
    let cx = run_all_detectors(&program);
    assert_eq!(cx.cache().solves(), 4);
    assert_eq!(
        DetectorSuite::new().check_program(&program).len(),
        0,
        "the chain is clean"
    );
}
