//! Static analyses over [`rstudy_mir`] bodies.
//!
//! This crate hosts the analysis machinery the PLDI 2020 study's detectors
//! are built on:
//!
//! * a generic forward worklist [`dataflow`] engine over the [`cfg`]'s
//!   successors in reverse post-order,
//! * [`storage`] (storage-liveness and maybe-invalid/maybe-freed tracking —
//!   the facts rustc's `StorageLive`/`StorageDead` markers expose and the
//!   paper's use-after-free detector consumes), [`heap`] allocation state and
//!   [`const_prop`],
//! * [`points_to`] (flow-insensitive Andersen-style, per function, with
//!   symbolic argument pointees for interprocedural resolution, solved by
//!   difference propagation so each fact is pushed along each edge once)
//!   and [`deref`] sites,
//! * [`callgraph`] over a whole [`rstudy_mir::Program`],
//! * [`locks`] (lock-guard live ranges, the double-lock detector's input),
//! * and the [`cache`] that computes each of those facts once per body.

#![warn(missing_docs)]
pub mod bitset;
pub mod cache;
pub mod callgraph;
pub mod cfg;
pub mod const_prop;
pub mod dataflow;
pub mod deref;
pub mod heap;
pub mod locks;
pub mod points_to;
pub mod storage;

pub use bitset::BitSet;
pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use dataflow::{Analysis, Results};
