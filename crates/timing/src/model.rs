//! The shared in-order core timing model.
//!
//! All five organizations price instructions the same way — one cycle per
//! instruction plus cache and branch-prediction penalties — so their cycle
//! counts are comparable and the differences between organizations show up
//! where the paper says they do: in interface traffic, checking, and
//! recovery mechanics.

use crate::cache::Cache;
use crate::components::BranchPredictor;
use crate::report::{CoreConfig, TimingReport};
use lis_core::{
    DynInst, InstClass, InstDef, IsaSpec, F_BR_TAKEN, F_BR_TARGET, F_EFF_ADDR, F_OPCODE,
};

/// The definition of a record's opcode. `None` when the record publishes no
/// opcode or one outside `isa`'s table: both read as unpublished, so a
/// hostile record degrades instead of indexing out of bounds or being
/// truncated onto another opcode.
pub(crate) fn inst_def<'a>(isa: &'a IsaSpec, di: &DynInst) -> Option<&'a InstDef> {
    isa.insts.get(usize::try_from(di.field(F_OPCODE)?).ok()?)
}

/// Cycle accounting for an in-order core.
#[derive(Debug)]
pub struct CoreModel {
    /// Instruction cache.
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
    /// Branch predictor.
    pub pred: BranchPredictor,
    /// Accumulated cycles.
    pub cycles: u64,
    mispredict_penalty: u64,
}

impl CoreModel {
    /// Builds the model from a configuration; `cfg.timing` selects the
    /// predictor, replacement policy, and prefetcher implementations.
    pub fn new(cfg: &CoreConfig) -> CoreModel {
        let t = cfg.timing;
        CoreModel {
            icache: Cache::with_components(cfg.icache, t.replacement, t.prefetcher),
            dcache: Cache::with_components(cfg.dcache, t.replacement, t.prefetcher),
            pred: t.predictor.build(cfg.predictor_entries),
            cycles: 0,
            mispredict_penalty: cfg.mispredict_penalty,
        }
    }

    /// Accounts for one retired instruction described by a published record.
    ///
    /// Uses only information available at the `Decode` level: the opcode
    /// index (for the class), the effective address, and branch resolution.
    /// An opcode outside `isa`'s table counts as unpublished, like a record
    /// without one: the instruction costs its fetch and nothing else.
    pub fn retire(&mut self, isa: &IsaSpec, di: &DynInst) {
        self.cycles += 1 + self.icache.access(di.header.phys_pc);
        let Some(def) = inst_def(isa, di) else { return };
        match def.class {
            InstClass::Load | InstClass::Store => {
                if let Some(ea) = di.field(F_EFF_ADDR) {
                    self.cycles += self.dcache.access(ea);
                }
            }
            InstClass::Branch | InstClass::Jump => {
                let taken = di.field(F_BR_TAKEN).unwrap_or(0) != 0;
                let target = di.field(F_BR_TARGET).unwrap_or(di.header.next_pc);
                if !self.pred.update(di.header.pc, taken, target) {
                    self.cycles += self.mispredict_penalty;
                }
            }
            _ => {}
        }
    }

    /// Folds the model's counters into a report.
    pub fn fill(&self, report: &mut TimingReport) {
        report.cycles = self.cycles;
        report.icache_misses = self.icache.misses;
        report.dcache_misses = self.dcache.misses;
        report.mispredicts = self.pred.mispredicts();
    }
}
