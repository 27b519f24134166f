//! Instruction definitions — the single specification.
//!
//! Each [`InstDef`] captures *everything* about one instruction exactly once:
//! its encoding, its declared operands, its assembly syntax, its per-step
//! semantic actions, and its inter-step dataflow. Every interface, at every level of detail, is
//! derived from these definitions; no instruction behaviour is ever written
//! twice.

use crate::exec::Exec;
use crate::fault::Fault;
use crate::field::{
    FieldId, F_BR_TAKEN, F_BR_TARGET, F_DEST1, F_DEST2, F_EFF_ADDR, F_IMM, F_SRC1, F_SRC2, F_SRC3,
};
use crate::operand::OperandSpec;
use crate::step::Step;
use crate::syntax::Slot;
use std::fmt;

/// A semantic action: the code the specification attaches to one step of one
/// instruction (the paper's `action` construct).
///
/// # Errors
///
/// Actions return the architectural [`Fault`], if any, raised by the step.
pub type ActionFn = fn(&mut Exec<'_>) -> Result<(), Fault>;

/// The per-step actions of one instruction.
///
/// `fetch` has no slot: instruction fetch is identical for every instruction
/// and is provided by the engine. A `None` slot means the step does nothing
/// for this instruction (e.g. `memory` for an ALU operation).
#[derive(Clone, Copy, Default)]
pub struct StepActions {
    /// Extracts operand identifiers, immediates, and the opcode field.
    pub decode: Option<ActionFn>,
    /// Reads source operands through their accessors.
    pub operand_fetch: Option<ActionFn>,
    /// Computes results, effective addresses, and branch resolution.
    pub evaluate: Option<ActionFn>,
    /// Performs loads and stores.
    pub memory: Option<ActionFn>,
    /// Writes destination operands through their accessors.
    pub writeback: Option<ActionFn>,
    /// Raises traps and emulates system calls.
    pub exception: Option<ActionFn>,
}

impl StepActions {
    /// No actions at all (every slot `None`); the base for
    /// [`step_actions!`](crate::step_actions!).
    pub const NONE: StepActions = StepActions {
        decode: None,
        operand_fetch: None,
        evaluate: None,
        memory: None,
        writeback: None,
        exception: None,
    };

    /// The action for `step`, if any (`Fetch` always returns `None`; it is
    /// engine-provided).
    #[inline]
    pub fn action(&self, step: Step) -> Option<ActionFn> {
        match step {
            Step::Fetch => None,
            Step::Decode => self.decode,
            Step::OperandFetch => self.operand_fetch,
            Step::Evaluate => self.evaluate,
            Step::Memory => self.memory,
            Step::Writeback => self.writeback,
            Step::Exception => self.exception,
        }
    }

    /// The execution-time slots (operand fetch → exception) in step order —
    /// the chain every post-decode replay path runs. Decode is excluded: its
    /// results are pure functions of the instruction bits and are captured
    /// once at predecode time.
    #[inline]
    pub const fn exec_slots(&self) -> [Option<ActionFn>; 5] {
        [self.operand_fetch, self.evaluate, self.memory, self.writeback, self.exception]
    }

    /// Flattens the present execution-time actions into a dense array in
    /// step order, returning the filled prefix length. This is the
    /// direct-threaded chain a compiled backend dispatches over: absent
    /// slots are filtered out once at build time instead of being
    /// branch-tested on every execution.
    #[inline]
    pub fn flatten_exec(&self) -> ([ActionFn; 5], u8) {
        // The filler is never invoked (dispatch is bounded by the returned
        // length); it only keeps the array dense and `Copy`.
        fn unreached(_: &mut Exec<'_>) -> Result<(), Fault> {
            Ok(())
        }
        let mut chain: [ActionFn; 5] = [unreached; 5];
        let mut n = 0u8;
        for a in self.exec_slots().into_iter().flatten() {
            chain[n as usize] = a;
            n += 1;
        }
        (chain, n)
    }
}

impl fmt::Debug for StepActions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("StepActions");
        for step in Step::ALL {
            if step != Step::Fetch {
                d.field(step.name(), &self.action(step).is_some());
            }
        }
        d.finish()
    }
}

/// Broad behavioural class of an instruction.
///
/// The class determines the *default* inter-step dataflow used by the
/// interface lint and gives timing simulators a coarse handle for modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Register/immediate computation.
    Alu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump or call (may link).
    Jump,
    /// System call or trap.
    Syscall,
    /// No architectural effect.
    Nop,
}

impl InstClass {
    /// Short name for traces and stats.
    pub const fn name(self) -> &'static str {
        match self {
            InstClass::Alu => "alu",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Jump => "jump",
            InstClass::Syscall => "syscall",
            InstClass::Nop => "nop",
        }
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a dataflow edge carries between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowItem {
    /// A named field value.
    Field(FieldId),
    /// The decoded operand identifiers (class + index).
    OperandIds,
}

impl fmt::Display for FlowItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowItem::Field(id) => match crate::field::COMMON_FIELDS.iter().find(|d| d.id == *id) {
                Some(d) => write!(f, "field `{}`", d.name),
                None => write!(f, "field {id}"),
            },
            FlowItem::OperandIds => f.write_str("operand identifiers"),
        }
    }
}

/// One inter-step dataflow edge: `item` is defined in step `def` and used in
/// step `used`. If a buildset places `def` and `used` in different interface
/// calls, `item` must be visible — the interface lint enforces exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flow {
    /// What flows.
    pub item: FlowItem,
    /// Step that produces it.
    pub def: Step,
    /// Step that consumes it.
    pub used: Step,
}

/// Convenience constructor for flow tables.
pub const fn flow(item: FlowItem, def: Step, used: Step) -> Flow {
    Flow { item, def, used }
}

/// Builds a [`StepActions`] value naming only the steps an instruction uses.
///
/// ```
/// use lis_core::{step_actions, generic_operand_fetch, generic_writeback, StepActions};
///
/// const A: StepActions = step_actions! {
///     operand_fetch: generic_operand_fetch,
///     writeback: generic_writeback,
/// };
/// assert!(A.decode.is_none());
/// assert!(A.writeback.is_some());
/// ```
#[macro_export]
macro_rules! step_actions {
    ($($slot:ident: $f:expr),* $(,)?) => {
        $crate::StepActions {
            $($slot: Some($f),)*
            ..$crate::StepActions::NONE
        }
    };
}

const ALU_FLOWS: &[Flow] = &[
    flow(FlowItem::OperandIds, Step::Decode, Step::OperandFetch),
    flow(FlowItem::OperandIds, Step::Decode, Step::Writeback),
    flow(FlowItem::Field(F_IMM), Step::Decode, Step::Evaluate),
    flow(FlowItem::Field(F_SRC1), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_SRC2), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_SRC3), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_DEST1), Step::Evaluate, Step::Writeback),
    flow(FlowItem::Field(F_DEST2), Step::Evaluate, Step::Writeback),
];

const LOAD_FLOWS: &[Flow] = &[
    flow(FlowItem::OperandIds, Step::Decode, Step::OperandFetch),
    flow(FlowItem::OperandIds, Step::Decode, Step::Writeback),
    flow(FlowItem::Field(F_IMM), Step::Decode, Step::Evaluate),
    flow(FlowItem::Field(F_SRC1), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_SRC2), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_EFF_ADDR), Step::Evaluate, Step::Memory),
    flow(FlowItem::Field(F_DEST1), Step::Memory, Step::Writeback),
    flow(FlowItem::Field(F_DEST2), Step::Evaluate, Step::Writeback),
];

const STORE_FLOWS: &[Flow] = &[
    flow(FlowItem::OperandIds, Step::Decode, Step::OperandFetch),
    flow(FlowItem::OperandIds, Step::Decode, Step::Writeback),
    flow(FlowItem::Field(F_IMM), Step::Decode, Step::Evaluate),
    flow(FlowItem::Field(F_SRC1), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_SRC2), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_SRC3), Step::OperandFetch, Step::Memory),
    flow(FlowItem::Field(F_EFF_ADDR), Step::Evaluate, Step::Memory),
    flow(FlowItem::Field(F_DEST2), Step::Evaluate, Step::Writeback),
];

const BRANCH_FLOWS: &[Flow] = &[
    flow(FlowItem::OperandIds, Step::Decode, Step::OperandFetch),
    flow(FlowItem::Field(F_IMM), Step::Decode, Step::Evaluate),
    flow(FlowItem::Field(F_SRC1), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_SRC2), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_BR_TAKEN), Step::Evaluate, Step::Evaluate),
    flow(FlowItem::Field(F_BR_TARGET), Step::Evaluate, Step::Evaluate),
];

const JUMP_FLOWS: &[Flow] = &[
    flow(FlowItem::OperandIds, Step::Decode, Step::OperandFetch),
    flow(FlowItem::OperandIds, Step::Decode, Step::Writeback),
    flow(FlowItem::Field(F_IMM), Step::Decode, Step::Evaluate),
    flow(FlowItem::Field(F_SRC1), Step::OperandFetch, Step::Evaluate),
    flow(FlowItem::Field(F_DEST1), Step::Evaluate, Step::Writeback),
];

const SYSCALL_FLOWS: &[Flow] = &[
    flow(FlowItem::OperandIds, Step::Decode, Step::OperandFetch),
    flow(FlowItem::OperandIds, Step::Decode, Step::Writeback),
    flow(FlowItem::Field(F_SRC1), Step::OperandFetch, Step::Exception),
    flow(FlowItem::Field(F_SRC2), Step::OperandFetch, Step::Exception),
    flow(FlowItem::Field(F_SRC3), Step::OperandFetch, Step::Exception),
    flow(FlowItem::Field(F_DEST1), Step::Exception, Step::Exception),
];

impl InstClass {
    /// The default inter-step dataflow for instructions of this class.
    pub const fn flows(self) -> &'static [Flow] {
        match self {
            InstClass::Alu => ALU_FLOWS,
            InstClass::Load => LOAD_FLOWS,
            InstClass::Store => STORE_FLOWS,
            InstClass::Branch => BRANCH_FLOWS,
            InstClass::Jump => JUMP_FLOWS,
            InstClass::Syscall => SYSCALL_FLOWS,
            InstClass::Nop => &[],
        }
    }
}

/// The complete, single specification of one instruction.
#[derive(Clone, Copy)]
pub struct InstDef {
    /// Mnemonic.
    pub name: &'static str,
    /// Behavioural class.
    pub class: InstClass,
    /// Encoding: an instruction word matches when `word & mask == bits`.
    pub mask: u32,
    /// Encoding match value (see `mask`).
    pub bits: u32,
    /// Declared operands (for documentation, stats, and the lint).
    pub operands: &'static [OperandSpec],
    /// Assembly syntax: mnemonic suffixes, then operand slots in source
    /// order. The assembler and disassembler read it; the runtime does not.
    pub syntax: &'static [Slot],
    /// Per-step semantic actions.
    pub actions: StepActions,
    /// Extra inter-step dataflow beyond the class defaults.
    pub extra_flows: &'static [Flow],
}

impl InstDef {
    /// Whether `word` matches this instruction's encoding.
    #[inline]
    pub fn matches(&self, word: u32) -> bool {
        word & self.mask == self.bits
    }

    /// All inter-step dataflow edges: class defaults plus extras.
    pub fn flows(&self) -> impl Iterator<Item = Flow> + '_ {
        self.class.flows().iter().chain(self.extra_flows).copied()
    }
}

impl fmt::Debug for InstDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstDef")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("mask", &format_args!("{:#010x}", self.mask))
            .field("bits", &format_args!("{:#010x}", self.bits))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_match() {
        let def = InstDef {
            name: "t",
            class: InstClass::Alu,
            mask: 0xfc00_0000,
            bits: 0x1000_0000,
            operands: &[],
            actions: StepActions::default(),
            syntax: &[],
            extra_flows: &[],
        };
        assert!(def.matches(0x1000_0000));
        assert!(def.matches(0x13ff_ffff));
        assert!(!def.matches(0x2000_0000));
    }

    #[test]
    fn class_flows_are_ordered() {
        for class in [
            InstClass::Alu,
            InstClass::Load,
            InstClass::Store,
            InstClass::Branch,
            InstClass::Jump,
            InstClass::Syscall,
        ] {
            for f in class.flows() {
                assert!(f.def <= f.used, "{class}: def after use");
            }
        }
        assert!(InstClass::Nop.flows().is_empty());
    }

    #[test]
    fn flows_include_extras() {
        const EXTRA: &[Flow] = &[flow(FlowItem::Field(F_SRC1), Step::Decode, Step::Memory)];
        let def = InstDef {
            name: "t",
            class: InstClass::Nop,
            mask: 0,
            bits: 0,
            operands: &[],
            actions: StepActions::default(),
            syntax: &[],
            extra_flows: EXTRA,
        };
        assert_eq!(def.flows().count(), 1);
    }

    #[test]
    fn step_actions_debug_lists_steps() {
        let txt = format!("{:?}", StepActions::default());
        assert!(txt.contains("writeback"));
    }
}
