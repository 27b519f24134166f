//! # lis-serve — the multi-session simulation service
//!
//! A long-running daemon (`lis serve --listen <addr>`) that accepts
//! concurrent client sessions over a line-delimited JSON protocol and
//! executes simulation work — runs, verification, chaos campaigns, sweep
//! cells, trace replays — on a bounded worker-pool scheduler. The paper's
//! single-specification principle makes this shape natural: because every
//! simulator is generated from the same interface specification, their
//! *translation artifacts* (predecoded blocks, compiled superblocks) are
//! plain data keyed only by `(ISA, image content, buildset, backend)`, so a
//! daemon can share one content-addressed [`lis_runtime::ArtifactStore`]
//! across every session and warm-start later sessions from earlier ones.
//!
//! Layering, bottom up:
//!
//! * [`json`] — a dependency-free strict JSON parser for request frames
//!   (hostile input is a parse error, never a panic);
//! * [`protocol`] — versioned frames, typed rejection errors, and the
//!   response envelope whose `status` field reuses the CLI exit-code
//!   vocabulary;
//! * [`scheduler`] — the bounded job pool (sweep's worker-pool pattern as a
//!   service): panic-isolated jobs, a queue cap against flooding clients,
//!   and a deadline-bounded drain that reports abandoned work;
//! * [`exec`] — request handlers over the existing toolkit, including the
//!   shared-store warm-start/publish policy and its taint gating;
//! * [`server`] — the accept loop, session threads, signal handling, and
//!   graceful shutdown with exit code [`EXIT_ABANDONED`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod json;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use exec::{execute, Ctx, Outcome};
pub use protocol::{
    parse_frame, write_frame, Frame, ProtocolError, Request, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use scheduler::{DrainReport, Scheduler, SchedulerStats, SubmitError, QUEUE_LIMIT};
pub use server::{ServeConfig, Server, EXIT_ABANDONED};
