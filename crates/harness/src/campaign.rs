//! Seeded chaos campaigns: run a workload under deterministic fault
//! injection and classify how the simulator holds up.
//!
//! The campaign drives the simulator through its own interface with a
//! minimal "operating system" reaction to faults: an injected (or induced)
//! architectural fault is recorded and the faulting instruction skipped, the
//! way a fault handler would advance past an emulated trap. Runs are fully
//! reproducible: the same `(seed, plan)` yields the same event log, the same
//! instruction count, and the same outcome.

use crate::driver::advance;
use crate::lockstep::{retired, HarnessError};
use crate::report::{RetiredInst, Ring};
use crate::watchdog::Watchdog;
use lis_core::{BuildsetDef, DynInst, IsaSpec};
use lis_mem::Image;
use lis_runtime::{Backend, ChaosEvent, ChaosPlan, SimStats, Simulator};
use std::fmt;
use std::time::Duration;

/// Tunables for one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Stop after this many dynamic instructions (retired or faulted).
    pub max_insts: u64,
    /// Abort as a fault storm after this many architectural faults.
    pub max_faults: u64,
    /// Abort as a fault storm after this many consecutive faults at the
    /// same PC (the program is wedged; skipping is not helping).
    pub max_streak: u32,
    /// Optional wall-clock limit for the whole run.
    pub deadline: Option<Duration>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig { max_insts: 500_000, max_faults: 256, max_streak: 8, deadline: None }
    }
}

/// How a chaos run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The program exited despite the injected faults.
    Halted {
        /// Guest exit code.
        exit_code: i64,
    },
    /// The instruction budget ran out (the program survived that long).
    Budget,
    /// Fault storm: the fault budget or the same-PC streak limit tripped.
    Storm,
    /// The wall-clock deadline expired.
    Deadline,
}

/// The full record of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRunReport {
    /// ISA name.
    pub isa: &'static str,
    /// Subject buildset name.
    pub buildset: &'static str,
    /// Subject backend.
    pub backend: Backend,
    /// The injection plan that was executed.
    pub plan: ChaosPlan,
    /// Classification of the run.
    pub outcome: ChaosOutcome,
    /// Dynamic instructions processed (retired or faulted).
    pub insts: u64,
    /// Architectural faults observed (injected or induced by injection).
    pub faults: u64,
    /// Every injection event, in order, with instruction indices.
    pub events: Vec<ChaosEvent>,
    /// Engine statistics, including graceful-degradation fallbacks.
    pub stats: SimStats,
    /// The last instructions processed before the run ended.
    pub ring: Vec<RetiredInst>,
    /// Rendered architectural state at the end of the run.
    pub final_state: String,
}

impl fmt::Display for ChaosRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos {} {} ({}) seed {:#x}: {:?} after {} insts, {} faults, {} events, {} fallback blocks",
            self.isa,
            self.buildset,
            self.backend.name(),
            self.plan.seed,
            self.outcome,
            self.insts,
            self.faults,
            self.events.len(),
            self.stats.fallback_blocks
        )
    }
}

impl ChaosRunReport {
    /// Full crash-snapshot text: summary, event log, ring buffer, and final
    /// architectural state. `lis chaos` writes this on abnormal exits.
    pub fn snapshot(&self) -> String {
        use fmt::Write;
        let mut out = format!("{self}\n");
        out.push_str("--- injection events ---\n");
        for e in &self.events {
            let _ = writeln!(out, "  {e}");
        }
        out.push_str("--- last instructions ---\n");
        for r in &self.ring {
            let _ = write!(out, "  #{:<8} {:#010x}: {:08x}", r.index, r.pc, r.bits);
            if let Some(fault) = r.fault {
                let _ = write!(out, "  !! {fault}");
            }
            out.push('\n');
        }
        out.push_str("--- final state ---\n");
        out.push_str(&self.final_state);
        out
    }
}

/// Runs `image` on `(bs, backend)` under the chaos `plan`.
///
/// Cache verification (graceful degradation) is switched on for the run, so
/// the compiled backend falls back to one-shot rebuilds rather than
/// executing stale superblocks after an unmap.
///
/// # Errors
///
/// Construction and load errors only; chaotic behavior is an outcome, not an
/// error.
pub fn chaos_run(
    spec: &'static IsaSpec,
    image: &Image,
    bs: BuildsetDef,
    backend: Backend,
    plan: ChaosPlan,
    cfg: &ChaosConfig,
) -> Result<ChaosRunReport, HarnessError> {
    let mut sim = Simulator::new(spec, bs).map_err(HarnessError::Build)?;
    sim.set_backend(backend);
    sim.set_cache_verify(true);
    sim.set_chaos(plan);
    sim.load_program(image).map_err(HarnessError::Load)?;

    // Chaos iterations advance whole blocks, so every iteration can afford
    // a clock read; the stride-1 watchdog keeps deadline behavior identical
    // to the old inline check.
    let mut watchdog = Watchdog::with_stride(cfg.deadline, 1);
    let mut ring = Ring::new();
    let mut buf: Vec<DynInst> = Vec::new();
    let mut seen = 0u64;
    let mut faults = 0u64;
    let mut last_fault_pc = u64::MAX;
    let mut streak = 0u32;

    let outcome = loop {
        if sim.state.halted {
            break ChaosOutcome::Halted { exit_code: sim.state.exit_code };
        }
        if seen >= cfg.max_insts {
            break ChaosOutcome::Budget;
        }
        if watchdog.expired() {
            break ChaosOutcome::Deadline;
        }
        let n = advance(&mut sim, &mut buf).map_err(HarnessError::Iface)?;
        for rec in &buf[..n] {
            ring.push(retired(seen, rec));
            seen += 1;
        }
        if let Some(fault_rec) = buf[..n].last().filter(|r| r.fault.is_some()) {
            faults += 1;
            let fpc = fault_rec.header.pc;
            if fpc == last_fault_pc {
                streak += 1;
            } else {
                last_fault_pc = fpc;
                streak = 1;
            }
            if faults >= cfg.max_faults || streak >= cfg.max_streak {
                break ChaosOutcome::Storm;
            }
            // Minimal fault handler: skip the faulting instruction.
            sim.redirect(fpc.wrapping_add(4));
        }
    };

    let events = sim.take_chaos().map(|c| c.events().to_vec()).unwrap_or_default();
    Ok(ChaosRunReport {
        isa: spec.name,
        buildset: bs.name,
        backend,
        plan,
        outcome,
        insts: seen,
        faults,
        events,
        stats: sim.stats,
        ring: ring.to_vec(),
        final_state: sim.state.to_string(),
    })
}
