//! # lis-timing — decoupled timing-simulator organizations
//!
//! Working implementations of every microarchitectural simulator
//! organization in the paper's taxonomy (Figure 1), each built on a
//! synthesized functional simulator with exactly the interface detail its
//! organization requires:
//!
//! * [`run_integrated`] — timing mixed with functionality (the baseline);
//! * [`run_functional_first`] — functional simulator produces a trace,
//!   timing consumes it (`block-decode` interface);
//! * [`run_timing_directed`] — timing drives each step of each instruction
//!   (`step-all` interface, scoreboard from operand identifiers);
//! * [`run_timing_first`] — timing implements functionality, checked
//!   per-instruction by a minimal functional simulator, flush-and-reload on
//!   mismatch;
//! * [`run_speculative_functional_first`] — functional runs ahead under
//!   checkpoints; timing corrects memory and rolls back on divergence
//!   (`block-decode-spec` interface);
//! * [`run_functional_first_ooo`] — a SimpleScalar/Zesto-style out-of-order
//!   consumer of the same functional-first trace.
//!
//! The shared substrate — a set-associative [`Cache`], a pluggable
//! [`BranchPredictor`], and the in-order [`CoreModel`] — keeps cycle
//! accounting identical across organizations so their reports are
//! comparable.
//!
//! The microarchitectural components themselves sit behind ChampSim-style
//! seams (see [`components`]): branch prediction, cache replacement, and
//! prefetching are each an enum over several shipped implementations, so
//! every access is an inlined `match` rather than a virtual call, selected
//! by a named [`TimingConfig`] preset. The functional specification never
//! changes across presets — only the timing side varies, which is the
//! paper's single-specification principle at work.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod components;
mod model;
mod ooo;
mod orgs;
mod predict;
mod report;
mod scoreboard;

pub use cache::{Cache, CacheConfig};
pub use components::{
    BranchPredictor, FifoPolicy, Gshare, LruPolicy, NotTaken, PredictorKind, PrefetchKind,
    Prefetcher, RandomPolicy, ReplacementKind, ReplacementPolicy, StridePrefetcher, TimingConfig,
};
pub use model::CoreModel;
pub use ooo::{run_functional_first_ooo, OooConfig, OooCore};
pub use orgs::{
    run_functional_first, run_integrated, run_speculative_functional_first, run_timing_directed,
    run_timing_first, MemOverride,
};
pub use predict::Predictor;
pub use report::{CoreConfig, TimingReport};
