//! Experiment harness reproducing every table and figure of the DATE 2018
//! buffer-aware MPB paper.
//!
//! # Module map (code ↔ paper)
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table2`] | Tables I & II (didactic example, §V), incl. the `R^sim` offset sweep |
//! | [`fig4`] | Figure 4(a)/(b): % schedulable flow sets vs set size |
//! | [`fig5`] | Figure 5: AV benchmark across 26 topologies |
//! | [`buffer_sweep`] | §VI remark: schedulability vs buffer depth 2..100 |
//! | [`scaling`] | extension: breakdown-factor comparison (continuous tightness) |
//! | [`runner`] | deterministic thread-parallel map (`NOC_MPB_THREADS` workers), re-exported from `noc-analysis` |
//! | [`table`], [`chart`] | text rendering of the paper's rows/series |
//!
//! Each experiment exposes a `Config` (with the paper's parameters as the
//! default constructor and a `reduced()` scaler for quick runs), a `run`
//! function returning plain-data results, and a `render` function printing
//! the same rows/series the paper reports. Runner binaries live in
//! `src/bin/`; scale them with the environment variables documented there
//! (and tabulated in the repository README).
//!
//! # Shared analysis context
//!
//! Every harness derives the interference structure of a flow set **once**
//! as an [`noc_analysis::AnalysisContext`] and runs all analyses — and all
//! buffer-depth/period-scale variants, via
//! [`noc_analysis::AnalysisContext::rebase`] — against it. The
//! `context_equivalence` integration test pins this cached path bit-for-bit
//! against per-call derivation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer_sweep;
pub mod chart;
pub mod fig4;
pub mod fig5;
pub mod scaling;
pub mod table;
pub mod table2;

pub use noc_analysis::runner;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::buffer_sweep::{self, BufferSweepConfig};
    pub use crate::chart::{render_curves, Series};
    pub use crate::fig4::{self, Fig4Config};
    pub use crate::fig5::{self, Fig5Config};
    pub use crate::runner::{default_threads, par_map_indexed};
    pub use crate::scaling::{self, breakdown_factor, breakdown_factor_with, ScalingConfig};
    pub use crate::table::TextTable;
    pub use crate::table2;
}
