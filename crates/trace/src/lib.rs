//! # lis-trace — record once, replay anywhere
//!
//! The paper's single-specification principle, lifted to data: the
//! instruction semantics are specified once at maximum detail and every
//! lower-detail interface is *derived* — so the dynamic instruction stream
//! is **recorded** once at maximum detail and every lower-detail trace is
//! derived by [projection](TraceRecord::project), instead of re-running the
//! functional simulator per interface.
//!
//! * **Format** — a versioned streaming binary container: magic + version,
//!   a self-describing header ([`TraceMeta`]: ISA, buildset, visibility,
//!   kernel, seed, field dictionary), ~64 KiB data chunks with per-chunk
//!   CRC32 and per-chunk delta-encoding state, and a footer
//!   ([`TraceFooter`]) carrying the whole-run ground truth (final
//!   [`SimStats`](lis_runtime::SimStats), exit code, stdout).
//! * **Record** — [`record`] hooks the engine's retirement path
//!   ([`Simulator::run_with_sink`](lis_runtime::Simulator::run_with_sink))
//!   and streams every published record through [`TraceWriter`].
//! * **Read** — [`Trace`] loads a file, verifying every CRC, and keeps
//!   the chunks encoded for random access; each record decodes straight
//!   into a reused [`DynInst`](lis_core::DynInst), projected as it goes,
//!   and [`TraceRecord`] is the owned, comparable copy for tests and
//!   checkers. Every decoder is hostile-input-safe (typed
//!   [`TraceError`]s, never a panic).
//! * **Replay** — [`replay_ooo`] drives the same [`OooCore`] consumer the
//!   execute-driven frontend uses, so single-shard replay is bit-identical
//!   to live simulation; sharded replay splits chunks across threads with
//!   overlap warm-up and merges the reports.
//!
//! [`OooCore`]: lis_timing::OooCore

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod format;
mod reader;
mod record;
mod recorder;
mod replay;
mod wire;
mod writer;

/// Current trace format version. Version 2 extended the footer with the
/// publication-work counters (`published_values`, `published_opsets`,
/// `undo_records`) that the sweep's detail-cost metric is built from.
pub const VERSION: u32 = 2;

pub use error::{RecordError, TraceError};
pub use format::{TraceFooter, TraceMeta, CHUNK_TARGET, MAGIC, MAX_PAYLOAD};
pub use reader::{decode_chunk, Trace, TraceInfo};
pub use record::TraceRecord;
pub use recorder::{meta_for, record, RecordOptions, RecordSummary};
pub use replay::{replay_ooo, ReplayConfig};
pub use wire::{crc32, Cursor};
pub use writer::TraceWriter;
