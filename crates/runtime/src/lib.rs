//! # lis-runtime — simulator synthesis engine
//!
//! Takes a single ISA specification (an [`lis_core::IsaSpec`]) and a derived
//! interface definition (an [`lis_core::BuildsetDef`]) and *synthesizes* a
//! functional simulator — [`Simulator`] — exposing exactly that interface:
//!
//! * `block-*` buildsets expose [`Simulator::next_block`] (one call per
//!   basic block),
//! * `one-*` buildsets expose [`Simulator::next_inst`] (one call per
//!   instruction),
//! * `step-*` buildsets expose [`Simulator::step_inst`] (seven calls per
//!   instruction: fetch, decode, operand fetch, evaluate, memory,
//!   writeback, exception),
//! * `*-spec` buildsets additionally expose
//!   [`Simulator::checkpoint`]/[`Simulator::rollback`]/[`Simulator::commit`].
//!
//! Interfaces are validated against the specification's declared dataflow at
//! construction time, so the paper's "typical interface specification error"
//! (hiding a value that must cross a call boundary) is caught before any
//! instruction executes.
//!
//! The [`Backend`] selects between the compiled (translated superblocks, the
//! binary-translation analog) and interpreted execution styles.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod artifact;
mod compile;
mod decode;
mod engine;
mod error;
mod stats;
pub mod toy;

pub use artifact::{ArtifactKey, ArtifactStore, Artifacts, SeedError, StoreStats};
pub use compile::synthesize_view;
pub use decode::{DecodeTable, PcHashBuilder, PcHasher, PcMap};
pub use engine::{
    Backend, CheckpointId, DemotionEvent, DemotionReason, Simulator, DEFAULT_MAX_BLOCK, STACK_TOP,
};
pub use error::{BuildError, IfaceError, SimStop};
// Chaos vocabulary, re-exported so harness code needs only this crate.
pub use lis_mem::{ChaosEvent, ChaosPlan, ChaosRng, ChaosState};
pub use stats::{RunSummary, SimStats};
