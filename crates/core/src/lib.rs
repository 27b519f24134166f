//! # lis-core — the single-specification ADL core
//!
//! This crate is the heart of the LIS toolkit, a reproduction of the ISPASS
//! 2011 paper *"A Single-Specification Principle for Functional-to-Timing
//! Simulator Interface Design"*. It defines the architecture-description
//! model in which an instruction set is specified **exactly once**, at the
//! highest level of semantic and informational detail, and from which every
//! lower-detail functional-to-timing interface is derived:
//!
//! * [`InstDef`] — one instruction's encoding, operands, per-step semantic
//!   [`ActionFn`]s, and inter-step dataflow (the single specification);
//! * [`FieldId`]/[`Frame`] — named intermediate values (the paper's
//!   `field` construct) and the working frame they live in;
//! * [`Operands`]/[`RegClassDef`] — decoded operand identifiers and the
//!   accessors that route them to architectural state;
//! * [`BuildsetDef`] — a derived interface: semantic detail × visibility ×
//!   speculation (the paper's `buildset` construct), definable in a dozen
//!   lines with [`buildset!`];
//! * [`check_interface`] — a static dataflow lint that catches the paper's
//!   "typical interface specification error" (hiding a value that must cross
//!   an interface-call boundary) before a single instruction is simulated;
//! * [`DynInst`] — the published dynamic-instruction record the timing
//!   simulator consumes;
//! * [`UndoLog`] — rollback support for speculative interfaces.
//!
//! The execution engines that *synthesize* simulators from these
//! descriptions live in `lis-runtime`; the ISA descriptions themselves live
//! in `lis-isa-alpha`, `lis-isa-arm`, and `lis-isa-ppc`.
//!
//! ## Example: deriving a new interface
//!
//! ```
//! use lis_core::{buildset, BuildsetDef, Visibility, FieldSet, F_EFF_ADDR};
//!
//! buildset! {
//!     /// A trace interface: block calls, effective addresses only.
//!     pub const ADDR_TRACE: BuildsetDef = {
//!         name: "addr-trace",
//!         semantic: Block,
//!         visibility: Visibility::MIN.plus(FieldSet::of(&[F_EFF_ADDR])),
//!         speculation: false,
//!     };
//! }
//! assert_eq!(ADDR_TRACE.describe(), "block/custom/nospec");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buildset;
mod dyninst;
mod exec;
mod fault;
mod field;
mod frame;
mod inst;
mod isa;
mod json;
mod lint;
mod operand;
mod os;
mod state;
mod stats;
mod step;
mod syntax;
mod undo;

pub use buildset::{
    find_buildset, BuildsetDef, InfoLevel, Semantic, Visibility, BLOCK_ALL, BLOCK_ALL_SPEC,
    BLOCK_DECODE, BLOCK_DECODE_SPEC, BLOCK_MIN, ONE_ALL, ONE_ALL_SPEC, ONE_DECODE, ONE_DECODE_SPEC,
    ONE_MIN, STANDARD_BUILDSETS, STEP_ALL, STEP_ALL_SPEC,
};
pub use dyninst::DynInst;
pub use exec::{
    generic_operand_fetch, generic_writeback, Exec, InstHeader, DEST_FIELDS, SRC_FIELDS,
};
pub use fault::Fault;
pub use field::{
    FieldDesc, FieldId, FieldSet, COMMON_FIELDS, DECODE_FIELDS, FIRST_ISA_FIELD, F_ALU_OUT,
    F_BR_TAKEN, F_BR_TARGET, F_COND, F_DEST1, F_DEST2, F_EFF_ADDR, F_IMM, F_MEM_DATA, F_OPCODE,
    F_SRC1, F_SRC2, F_SRC3, MAX_FIELDS,
};
pub use frame::Frame;
pub use inst::{flow, ActionFn, Flow, FlowItem, InstClass, InstDef, StepActions};
pub use isa::IsaSpec;
pub use json::{write_json_str, JsonObj};
pub use lint::{check_interface, render_report, LintDiag};
pub use operand::{
    OperandDir, OperandRef, OperandSpec, Operands, RegBacking, RegClass, RegClassDef, MAX_DEST,
    MAX_SRC,
};
pub use os::{decode_syscall, nr, OsMark, OsState, SysCall};
pub use state::{ArchState, NUM_GPR, NUM_SPR};
pub use stats::{count_lines, count_macro_blocks, LineStats, SpecStats};
pub use step::Step;
pub use syntax::{Field, Slot, Suffix};
pub use undo::{UndoLog, UndoMark, UndoRec};
