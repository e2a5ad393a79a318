//! Scaling gates that count work, not time.
//!
//! The points-to solver reports the set insertions each solve attempted
//! (`PointsTo::work`). Counts are exact and show growth at small sizes, so
//! these gates run in a debug build without timing noise: a solver that
//! goes quadratic on a chain reads ~16× from n to 4n instead of ~4×, and
//! one that re-sends whole sets exceeds the bound on useful work.

use std::collections::BTreeSet;

use rust_safety_study::analysis::points_to::{MemRoot, PointsTo};
use rust_safety_study::mir::build::BodyBuilder;
use rust_safety_study::mir::{Body, Local, Mutability, Operand, Place, Rvalue, Ty};

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
