//! Structured divergence reports and retired-instruction ring buffers.

use lis_core::Fault;
use lis_mem::MemDelta;
use lis_runtime::Backend;
use std::collections::VecDeque;
use std::fmt;

/// Depth of the retired-instruction history kept for crash reports.
pub const RING_LEN: usize = 64;

/// One retired (or faulted) instruction as remembered by the ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInst {
    /// Position in the dynamic instruction stream (0-based).
    pub index: u64,
    /// Architectural PC.
    pub pc: u64,
    /// Raw instruction word (0 when the fetch itself faulted).
    pub bits: u32,
    /// PC of the following instruction.
    pub next_pc: u64,
    /// Fault reported for this instruction, if any.
    pub fault: Option<Fault>,
}

/// Fixed-depth history of the last [`RING_LEN`] retired instructions.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    entries: VecDeque<RetiredInst>,
}

impl Ring {
    /// Creates an empty ring.
    pub fn new() -> Ring {
        Ring { entries: VecDeque::with_capacity(RING_LEN) }
    }

    /// Appends one record, evicting the oldest when full.
    pub fn push(&mut self, r: RetiredInst) {
        if self.entries.len() == RING_LEN {
            self.entries.pop_front();
        }
        self.entries.push_back(r);
    }

    /// Snapshot of the current contents, oldest first.
    pub fn to_vec(&self) -> Vec<RetiredInst> {
        self.entries.iter().copied().collect()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One register whose value differs between the two simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegDelta {
    /// Register class name (`gpr`, `cr`, ...), from the ISA's accessor table.
    pub class: &'static str,
    /// Index within the class.
    pub index: u16,
    /// Value in the reference simulator.
    pub reference: u64,
    /// Value in the subject simulator.
    pub subject: u64,
}

impl fmt::Display for RegDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: reference {:#x}, subject {:#x}",
            self.class, self.index, self.reference, self.subject
        )
    }
}

/// Everything known about one cross-interface divergence: where the two
/// simulators disagreed, how their architectural state differs, and the last
/// [`RING_LEN`] instructions each side retired leading up to the disagreement.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// ISA name.
    pub isa: &'static str,
    /// Buildset of the subject simulator.
    pub buildset: &'static str,
    /// Backend of the subject simulator.
    pub backend: Backend,
    /// Dynamic instruction index at which the divergence was detected.
    pub inst_index: u64,
    /// PC of the instruction implicated.
    pub pc: u64,
    /// Disassembly of that instruction.
    pub disasm: String,
    /// One-line classification of the disagreement.
    pub cause: String,
    /// Registers that differ (reference vs subject).
    pub reg_deltas: Vec<RegDelta>,
    /// Memory bytes that differ (lhs = subject, rhs = reference), capped.
    pub mem_deltas: Vec<MemDelta>,
    /// Last instructions retired by the reference simulator.
    pub reference_ring: Vec<RetiredInst>,
    /// Last instructions retired by the subject simulator.
    pub subject_ring: Vec<RetiredInst>,
    /// Rendered architectural state of the reference at detection time.
    pub reference_state: String,
    /// Rendered architectural state of the subject at detection time.
    pub subject_state: String,
    /// The ISA's disassembler, for rendering ring entries.
    pub disasm_fn: fn(u32, u64) -> String,
}

fn write_ring(
    f: &mut fmt::Formatter<'_>,
    title: &str,
    ring: &[RetiredInst],
    disasm: fn(u32, u64) -> String,
) -> fmt::Result {
    writeln!(f, "  {title} (last {} retired):", ring.len())?;
    for r in ring {
        write!(f, "    #{:<8} {:#010x}: {:08x}  {}", r.index, r.pc, r.bits, disasm(r.bits, r.pc))?;
        if let Some(fault) = r.fault {
            write!(f, "  !! {fault}")?;
        }
        writeln!(f)?;
    }
    Ok(())
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence: {} {} ({}) at inst #{} pc {:#x}",
            self.isa,
            self.buildset,
            self.backend.name(),
            self.inst_index,
            self.pc
        )?;
        writeln!(f, "  inst:  {}", self.disasm)?;
        writeln!(f, "  cause: {}", self.cause)?;
        if !self.reg_deltas.is_empty() {
            writeln!(f, "  register deltas:")?;
            for d in &self.reg_deltas {
                writeln!(f, "    {d}")?;
            }
        }
        if !self.mem_deltas.is_empty() {
            writeln!(f, "  memory deltas (subject vs reference, capped):")?;
            for d in &self.mem_deltas {
                writeln!(
                    f,
                    "    [{:#010x}] subject {:#04x}, reference {:#04x}",
                    d.addr, d.lhs, d.rhs
                )?;
            }
        }
        write_ring(f, "reference ring", &self.reference_ring, self.disasm_fn)?;
        write_ring(f, "subject ring", &self.subject_ring, self.disasm_fn)?;
        Ok(())
    }
}

impl DivergenceReport {
    /// Full crash-snapshot text: the report plus both rendered architectural
    /// states. This is what `lis verify` writes next to a failing run.
    pub fn snapshot(&self) -> String {
        format!(
            "{self}\n--- reference state ---\n{}\n--- subject state ---\n{}",
            self.reference_state, self.subject_state
        )
    }
}
