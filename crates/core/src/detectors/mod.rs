//! The individual bug detectors.
//!
//! Each detector implements [`Detector`]: per-body checks
//! ([`Detector::check_body`]) plus whole-program checks
//! ([`Detector::check_global`]), both reading shared analysis facts from an
//! [`AnalysisContext`]. Run them all with [`crate::suite::DetectorSuite`]
//! (which runs every detector over one program inline, and many programs
//! at once through `check_programs`), or individually via the provided
//! [`Detector::check_program`].

mod blocking_misuse;
mod buffer_overflow;
mod common;
mod context;
mod double_free;
mod double_lock;
mod interior_mut;
mod invalid_free;
mod lock_order;
mod null_deref;
mod uninit_read;
mod use_after_free;

pub use blocking_misuse::BlockingMisuse;
pub use buffer_overflow::BufferOverflow;
pub use common::DerefSummaries;
pub use context::AnalysisContext;
pub use double_free::DoubleFree;
pub use double_lock::DoubleLock;
pub use interior_mut::InteriorMutability;
pub use invalid_free::InvalidFree;
pub use lock_order::LockOrderInversion;
pub use null_deref::NullDeref;
pub use rstudy_analysis::heap::{HeapModel, HeapState};
pub use uninit_read::UninitRead;
pub use use_after_free::UseAfterFree;

use rstudy_mir::{Body, Program};

use crate::config::DetectorConfig;
use crate::diagnostics::Diagnostic;

/// A static bug detector.
///
/// A detector contributes per-body findings, whole-program findings, or
/// both; the defaults return nothing so implementations override only the
/// granularity they need. `Sync` is a supertrait because the suite shares
/// one detector instance across worker threads.
pub trait Detector: Sync {
    /// Stable detector name (used in diagnostics).
    fn name(&self) -> &'static str;

    /// Checks one function body. Only diagnostics attributed to `function`
    /// should be returned, so per-body tasks can run in any order.
    fn check_body(
        &self,
        _cx: &AnalysisContext<'_>,
        _function: &str,
        _body: &Body,
        _config: &DetectorConfig,
    ) -> Vec<Diagnostic> {
        Vec::new()
    }

    /// Checks whole-program properties that do not decompose per body.
    fn check_global(&self, _cx: &AnalysisContext<'_>, _config: &DetectorConfig) -> Vec<Diagnostic> {
        Vec::new()
    }

    /// Checks a whole program and returns every finding: every body in name
    /// order, then the global pass, over a fresh [`AnalysisContext`].
    fn check_program(&self, program: &Program, config: &DetectorConfig) -> Vec<Diagnostic> {
        let cx = AnalysisContext::new(program);
        let mut out = Vec::new();
        for (name, body) in program.iter() {
            out.extend(self.check_body(&cx, name, body, config));
        }
        out.extend(self.check_global(&cx, config));
        out
    }
}
