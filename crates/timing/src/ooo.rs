//! A trace-driven out-of-order core model.
//!
//! The paper's functional-first examples — SimpleScalar and Zesto — are
//! out-of-order timing simulators fed by a functional instruction stream.
//! This model shows that the `block-decode` interface carries everything
//! such a consumer needs: opcode indices (for latencies), operand
//! identifiers (for the dependence graph), effective addresses (for the
//! cache), and branch resolution (for the predictor).
//!
//! The model is a classic dataflow-limit estimator with structural bounds:
//! fetch/commit width, a reorder-buffer occupancy window, per-class
//! execution latencies, cache penalties, and mispredict-driven fetch
//! redirection.
//!
//! [`OooCore`] is the consumer itself: it is fed one published [`DynInst`]
//! at a time and never touches a functional simulator, so the *same* core
//! can run execute-driven (fed by [`run_functional_first_ooo`]) or
//! trace-driven (fed by a recorded instruction stream, see `lis-trace`).
//! Feeding it the same record stream produces the same report, bit for bit
//! — which is what makes record-once/replay-anywhere verifiable.

use crate::cache::Cache;
use crate::components::BranchPredictor;
use crate::report::{CoreConfig, TimingReport};
use crate::scoreboard::Scoreboard;
use lis_core::{
    DynInst, InstClass, InstDef, IsaSpec, F_BR_TAKEN, F_BR_TARGET, F_EFF_ADDR, F_OPCODE,
};
use lis_mem::Image;
use lis_runtime::{SimStop, Simulator};
use std::collections::VecDeque;

/// Structural parameters of the out-of-order core.
#[derive(Debug, Clone, Copy)]
pub struct OooConfig {
    /// Instructions fetched/committed per cycle.
    pub width: u64,
    /// Reorder-buffer entries.
    pub rob: usize,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig { width: 4, rob: 64 }
    }
}

/// Execution latency of one instruction, by class and mnemonic.
fn latency(def: &InstDef) -> u64 {
    match def.class {
        InstClass::Load | InstClass::Store => 2,
        InstClass::Alu if def.name.contains("div") => 12,
        InstClass::Alu if def.name.contains("mul") => 3,
        _ => 1,
    }
}

/// Baseline counters captured by [`OooCore::mark_measurement_start`] so a
/// warmed-up core reports only the measured region. Hits and correct
/// predictions are baselined alongside misses and mispredicts: a rate over
/// the measured region needs both sides of each ratio, or warm-up hits
/// dilute every post-warm-up rate.
#[derive(Debug, Clone, Copy, Default)]
struct Baseline {
    cycles: u64,
    insts: u64,
    icache_misses: u64,
    icache_hits: u64,
    dcache_misses: u64,
    dcache_hits: u64,
    mispredicts: u64,
    correct: u64,
}

/// The out-of-order timing consumer, decoupled from any instruction source.
///
/// Feed it published records in program order with [`OooCore::feed`]; read
/// the result with [`OooCore::report`]. The core is a pure function of the
/// fed record stream — it holds no reference to a functional simulator —
/// so an execute-driven run and a trace replay of the same stream produce
/// identical reports.
#[derive(Debug)]
pub struct OooCore {
    /// `(latency, class)` per opcode of the ISA, built once.
    op_table: Box<[(u64, InstClass)]>,
    ooo: OooConfig,
    mispredict_penalty: u64,
    icache: Cache,
    dcache: Cache,
    pred: BranchPredictor,
    /// Cycle at which each architectural register's value becomes available.
    reg_ready: Scoreboard,
    /// Completion cycles of the last `rob` instructions, oldest first.
    window: VecDeque<u64>,
    fetch_cycle: u64,
    last_commit: u64,
    committed_in_cycle: u64,
    /// Instructions fed so far (warm-up included).
    fed: u64,
    base: Baseline,
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl OooCore {
    /// Builds a cold core. Degenerate structural parameters are clamped to
    /// their minimum legal values (a 1-wide front end, a 1-entry ROB) so a
    /// hostile or fuzzed configuration can model a tiny machine but never a
    /// crashing one. `cfg.timing` selects the predictor, replacement
    /// policy, and prefetcher implementations.
    pub fn new(isa: &'static IsaSpec, cfg: &CoreConfig, ooo: &OooConfig) -> OooCore {
        let t = cfg.timing;
        OooCore {
            op_table: isa.insts.iter().map(|def| (latency(def), def.class)).collect(),
            ooo: OooConfig { width: ooo.width.max(1), rob: ooo.rob.max(1) },
            mispredict_penalty: cfg.mispredict_penalty,
            icache: Cache::with_components(cfg.icache, t.replacement, t.prefetcher),
            dcache: Cache::with_components(cfg.dcache, t.replacement, t.prefetcher),
            pred: t.predictor.build(cfg.predictor_entries),
            reg_ready: Scoreboard::new(isa),
            window: VecDeque::new(),
            fetch_cycle: 0,
            last_commit: 0,
            committed_in_cycle: 0,
            fed: 0,
            base: Baseline::default(),
        }
    }

    /// Current simulated cycle count (warm-up included).
    fn cycles_now(&self) -> u64 {
        self.last_commit.max(self.fetch_cycle)
    }

    /// Marks the end of a warm-up region: everything fed so far keeps its
    /// microarchitectural effect (cache contents, predictor state, register
    /// readiness) but is excluded from the reported instruction, cycle,
    /// miss, and rate accounting. Sharded replay uses this for overlap
    /// warm-up.
    pub fn mark_measurement_start(&mut self) {
        self.base = Baseline {
            cycles: self.cycles_now(),
            insts: self.fed,
            icache_misses: self.icache.misses,
            icache_hits: self.icache.hits,
            dcache_misses: self.dcache.misses,
            dcache_hits: self.dcache.hits,
            mispredicts: self.pred.mispredicts(),
            correct: self.pred.correct(),
        };
    }

    /// Instruction-cache miss rate over the measured region only.
    pub fn icache_miss_rate(&self) -> f64 {
        let misses = self.icache.misses - self.base.icache_misses;
        let hits = self.icache.hits - self.base.icache_hits;
        rate(misses, misses + hits)
    }

    /// Data-cache miss rate over the measured region only.
    pub fn dcache_miss_rate(&self) -> f64 {
        let misses = self.dcache.misses - self.base.dcache_misses;
        let hits = self.dcache.hits - self.base.dcache_hits;
        rate(misses, misses + hits)
    }

    /// Branch misprediction rate over the measured region only.
    pub fn mispredict_rate(&self) -> f64 {
        let mis = self.pred.mispredicts() - self.base.mispredicts;
        let ok = self.pred.correct() - self.base.correct;
        rate(mis, mis + ok)
    }

    /// Feeds one published record.
    ///
    /// # Errors
    ///
    /// Returns the record's architectural fault, if it carries one — the
    /// stream ends at a fault, exactly as execute-driven simulation does.
    pub fn feed(&mut self, di: &DynInst) -> Result<(), lis_core::Fault> {
        if let Some(f) = di.fault {
            return Err(f);
        }
        self.fed += 1;
        // Fetch: bandwidth-limited, plus icache misses stall the front end.
        self.fetch_cycle += self.icache.access(di.header.phys_pc);
        // ROB: an instruction cannot enter until the oldest of the
        // previous `rob` instructions has completed. The pop is defensive
        // (`>=` plus `if let`, never an `expect`): a record stream this core
        // does not control — a projected trace, a truncated chunk, a
        // reconfigured core fed mid-stream — must degrade, not abort a
        // whole sweep cell.
        while self.window.len() >= self.ooo.rob {
            let Some(oldest_done) = self.window.pop_front() else { break };
            self.fetch_cycle = self.fetch_cycle.max(oldest_done);
        }
        // Issue when sources are ready.
        let mut ready = self.fetch_cycle + 1;
        if let Some(ops) = di.operands() {
            for &s in ops.srcs() {
                ready = ready.max(self.reg_ready.get(s));
            }
        }
        // A record without an opcode, or with one outside the ISA's table,
        // has no latency or class: it costs fetch bandwidth only.
        let Some(&(latency, class)) =
            di.field(F_OPCODE).and_then(|op| self.op_table.get(usize::try_from(op).ok()?))
        else {
            return Ok(());
        };
        let mut done = ready + latency;
        if matches!(class, InstClass::Load | InstClass::Store) {
            if let Some(ea) = di.field(F_EFF_ADDR) {
                done += self.dcache.access(ea);
            }
        }
        if let Some(ops) = di.operands() {
            for &d in ops.dests() {
                self.reg_ready.set(d, done);
            }
        }
        // Branches redirect fetch when mispredicted, at resolution time.
        if matches!(class, InstClass::Branch | InstClass::Jump) {
            let taken = di.field(F_BR_TAKEN).unwrap_or(0) != 0;
            let target = di.field(F_BR_TARGET).unwrap_or(di.header.next_pc);
            if !self.pred.update(di.header.pc, taken, target) {
                self.fetch_cycle = self.fetch_cycle.max(done + self.mispredict_penalty);
            }
        }
        self.window.push_back(done);
        // In-order commit, at most `width` per cycle: an instruction
        // retires at its completion cycle, pushed one cycle later when this
        // commit cycle's bandwidth is already spent.
        let earliest = if self.committed_in_cycle < self.ooo.width {
            self.last_commit
        } else {
            self.last_commit + 1
        };
        let commit = done.max(earliest);
        if commit > self.last_commit {
            self.last_commit = commit;
            self.committed_in_cycle = 1;
        } else {
            self.committed_in_cycle += 1;
        }
        // Fetch bandwidth.
        if self.fed.is_multiple_of(self.ooo.width) {
            self.fetch_cycle += 1;
        }
        Ok(())
    }

    /// The report for everything fed since the last
    /// [`OooCore::mark_measurement_start`] (or since construction).
    /// Interface-call counts, exit codes, and stdout belong to the
    /// instruction *source*, so the frontend fills those in.
    pub fn report(&self, organization: &'static str) -> TimingReport {
        TimingReport {
            organization,
            cycles: self.cycles_now() - self.base.cycles,
            insts: self.fed - self.base.insts,
            icache_misses: self.icache.misses - self.base.icache_misses,
            dcache_misses: self.dcache.misses - self.base.dcache_misses,
            mispredicts: self.pred.mispredicts() - self.base.mispredicts,
            ..Default::default()
        }
    }
}

/// Runs the out-of-order model over a functional-first trace.
///
/// # Errors
///
/// Returns [`SimStop`] on faults or budget exhaustion.
pub fn run_functional_first_ooo(
    isa: &'static IsaSpec,
    image: &Image,
    cfg: &CoreConfig,
    ooo: &OooConfig,
) -> Result<TimingReport, SimStop> {
    let mut sim = Simulator::new(isa, lis_core::BLOCK_DECODE).expect("block-decode is valid");
    sim.load_program(image).map_err(SimStop::Fault)?;
    let mut core = OooCore::new(isa, cfg, ooo);
    let mut trace: Vec<DynInst> = Vec::new();

    while !sim.state.halted {
        if sim.stats.insts >= 200_000_000 {
            return Err(SimStop::MaxInsts);
        }
        sim.next_block(&mut trace)?;
        for di in &trace {
            core.feed(di).map_err(SimStop::Fault)?;
        }
    }
    let mut report = core.report("functional-first-ooo");
    report.interface_calls = sim.stats.calls;
    report.fallback_blocks = sim.stats.fallback_blocks;
    report.exit_code = sim.state.exit_code;
    report.stdout = sim.stdout().to_vec();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{FieldSet, Frame, Operands, RegClass};

    /// An ALU opcode with unit latency in the toy ISA.
    fn alu_op(isa: &IsaSpec) -> u16 {
        (0..isa.num_insts() as u16)
            .find(|&op| {
                let def = isa.inst(op);
                matches!(def.class, InstClass::Alu)
                    && !def.name.contains("mul")
                    && !def.name.contains("div")
            })
            .expect("toy ISA has a simple ALU instruction")
    }

    /// A published record at `pc` carrying only an opcode (and optionally
    /// one source and one destination register).
    fn rec(op: u16, pc: u64, src: Option<u16>, dest: Option<u16>) -> DynInst {
        let mut frame = Frame::new();
        frame.set(F_OPCODE, u64::from(op));
        let mut ops = Operands::new();
        if let Some(s) = src {
            ops.push_src(RegClass(0), s);
        }
        if let Some(d) = dest {
            ops.push_dest(RegClass(0), d);
        }
        let mut di = DynInst::new();
        di.header.pc = pc;
        di.header.phys_pc = pc;
        di.header.next_pc = pc + 4;
        di.publish(&frame, FieldSet::of(&[F_OPCODE]), &ops, true);
        di
    }

    /// A taken branch at `pc` with a destination register, publishing
    /// `op` as its opcode (or no opcode at all).
    fn taken_branch(op: Option<u64>, pc: u64) -> DynInst {
        let mut frame = Frame::new();
        frame.set(F_BR_TAKEN, 1);
        frame.set(F_BR_TARGET, pc + 0x40);
        let mut fields = vec![F_BR_TAKEN, F_BR_TARGET];
        if let Some(op) = op {
            frame.set(F_OPCODE, op);
            fields.push(F_OPCODE);
        }
        let mut ops = Operands::new();
        ops.push_dest(RegClass(0), 3);
        let mut di = DynInst::new();
        di.header.pc = pc;
        di.header.phys_pc = pc;
        di.header.next_pc = pc + 4;
        di.publish(&frame, FieldSet::of(&fields), &ops, true);
        di
    }

    /// A conditional branch of `isa`, and opcodes outside its table. A cast
    /// `as u16` truncates 65 539 and 65 536 + the branch onto in-range ones.
    fn branch_and_hostile_opcodes(isa: &IsaSpec) -> (u64, [u64; 4]) {
        let branch = (0..isa.num_insts() as u16)
            .find(|&op| isa.inst(op).class == InstClass::Branch)
            .map(u64::from)
            .expect("the ISA has a conditional branch");
        (branch, [9_999, 65_539, 65_536 + branch, u64::MAX])
    }

    #[test]
    fn out_of_range_opcode_reads_as_unpublished() {
        // Regression: `feed` indexed the ISA's instruction table with the
        // opcode cast `as u16`, so a well-formed trace carrying opcode 9999
        // panicked every replay. An opcode outside the table must cost
        // exactly what a record without an opcode costs.
        let isa = lis_isa_alpha::spec();
        let cfg = CoreConfig::default();
        let run = |op: Option<u64>| {
            let mut core = OooCore::new(isa, &cfg, &OooConfig::default());
            for i in 0..16 {
                core.feed(&taken_branch(op, 0x1000 + i * 4)).unwrap();
            }
            core.report("t").to_json()
        };
        let (branch, hostile) = branch_and_hostile_opcodes(isa);
        let bare = run(None);
        assert_ne!(run(Some(branch)), bare, "an in-range branch is timed");
        for op in hostile {
            assert_eq!(run(Some(op)), bare, "opcode {op}");
        }
    }

    #[test]
    fn core_model_reads_out_of_range_opcode_as_unpublished() {
        // The same rule for the in-order model: `retire` indexed the table
        // with the opcode cast `as u16` too.
        let isa = lis_isa_alpha::spec();
        let run = |op: Option<u64>| {
            let mut model = crate::model::CoreModel::new(&CoreConfig::default());
            for i in 0..16 {
                model.retire(isa, &taken_branch(op, 0x1000 + i * 4));
            }
            let mut report = TimingReport::default();
            model.fill(&mut report);
            report.to_json()
        };
        let (branch, hostile) = branch_and_hostile_opcodes(isa);
        let bare = run(None);
        assert_ne!(run(Some(branch)), bare, "an in-range branch is timed");
        for op in hostile {
            assert_eq!(run(Some(op)), bare, "opcode {op}");
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = OooConfig::default();
        assert!(c.width >= 1 && c.rob >= c.width as usize);
    }

    #[test]
    fn measurement_baseline_subtracts() {
        // A core that marks measurement start immediately after construction
        // reports exactly what an unmarked core reports.
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let mut a = OooCore::new(isa, &cfg, &OooConfig::default());
        let mut b = OooCore::new(isa, &cfg, &OooConfig::default());
        b.mark_measurement_start();
        let mut di = DynInst::new();
        di.header.pc = 0x1000;
        di.header.phys_pc = 0x1000;
        di.header.next_pc = 0x1004;
        a.feed(&di).unwrap();
        b.feed(&di).unwrap();
        let (ra, rb) = (a.report("t"), b.report("t"));
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.insts, rb.insts);
    }

    #[test]
    fn commit_width_is_enforced() {
        // Regression: the seed accounting reset `committed_in_cycle` to 1
        // whenever `done > last_commit`, so completion times that keep
        // increasing were never bandwidth-limited, and the width-th commit
        // in a cycle pushed `last_commit` forward by an extra cycle even
        // when nothing else retired. Discriminator: a burst of exactly
        // `width` independent unit-latency instructions must cost the same
        // cycles on a width-4 core as on a width-8 core (the burst fits one
        // commit cycle either way); the seed reported one extra cycle on
        // the width-4 core.
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let op = alu_op(isa);
        let burst: Vec<DynInst> = (0..4).map(|i| rec(op, 0x1000 + i * 4, None, None)).collect();
        let mut narrow = OooCore::new(isa, &cfg, &OooConfig { width: 4, rob: 64 });
        let mut wide = OooCore::new(isa, &cfg, &OooConfig { width: 8, rob: 64 });
        for di in &burst {
            narrow.feed(di).unwrap();
            wide.feed(di).unwrap();
        }
        assert_eq!(
            narrow.report("t").cycles,
            wide.report("t").cycles,
            "a width-sized burst fits one commit cycle on both cores"
        );
    }

    #[test]
    fn narrow_commit_costs_cycles_on_ilp_heavy_streams() {
        // With abundant ILP (independent unit-latency instructions), commit
        // and fetch bandwidth are the only limits: a width-1 core must
        // report strictly more cycles than a width-4 core.
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let op = alu_op(isa);
        let mut w1 = OooCore::new(isa, &cfg, &OooConfig { width: 1, rob: 64 });
        let mut w4 = OooCore::new(isa, &cfg, &OooConfig { width: 4, rob: 64 });
        for i in 0..256u64 {
            let di = rec(op, 0x1000 + i * 4, None, None);
            w1.feed(&di).unwrap();
            w4.feed(&di).unwrap();
        }
        let (r1, r4) = (w1.report("t"), w4.report("t"));
        assert!(
            r1.cycles > r4.cycles,
            "width-1 ({} cycles) must be slower than width-4 ({} cycles)",
            r1.cycles,
            r4.cycles
        );
    }

    #[test]
    fn dependent_chain_is_not_width_limited() {
        // A serial dependence chain commits one instruction per completion
        // cycle regardless of width; widening must not change the total.
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let op = alu_op(isa);
        let mut w1 = OooCore::new(isa, &cfg, &OooConfig { width: 1, rob: 64 });
        let mut w4 = OooCore::new(isa, &cfg, &OooConfig { width: 4, rob: 64 });
        for i in 0..64u64 {
            // Each instruction reads and writes r7: a pure serial chain.
            let di = rec(op, 0x1000 + i * 4, Some(7), Some(7));
            w1.feed(&di).unwrap();
            w4.feed(&di).unwrap();
        }
        // The chain's dataflow limit dominates; the width-4 core can only
        // be faster through fetch bandwidth, never slower.
        assert!(w4.report("t").cycles <= w1.report("t").cycles);
    }

    #[test]
    fn warmed_rates_equal_cold_rates() {
        // Regression: `mark_measurement_start` baselined misses and
        // mispredicts but not hits and correct predictions, so rates on a
        // warmed core mixed warm-up hits into the measured denominator.
        // Warm one core with hit-heavy traffic in a disjoint tag range
        // (same sets, different tags — the measured stream's cache outcomes
        // are identical warm or cold), then measure both cores over the
        // same stream and require identical rates.
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let op = alu_op(isa);
        let mut warmed = OooCore::new(isa, &cfg, &OooConfig::default());
        let mut cold = OooCore::new(isa, &cfg, &OooConfig::default());
        // Warm-up: 64 re-touches of 4 lines at 0x10000 — mostly icache
        // hits, no branches.
        for i in 0..64u64 {
            warmed.feed(&rec(op, 0x10000 + (i % 4) * 32, None, None)).unwrap();
        }
        warmed.mark_measurement_start();
        cold.mark_measurement_start();
        // Measured stream: tags in 0x20000-space never collide with the
        // warm-up's 0x10000-space tags, so both cores miss identically.
        for i in 0..32u64 {
            let di = rec(op, 0x20000 + i * 4, None, None);
            warmed.feed(&di).unwrap();
            cold.feed(&di).unwrap();
        }
        assert_eq!(
            warmed.report("t").icache_misses,
            cold.report("t").icache_misses,
            "disjoint tag ranges: measured misses are identical"
        );
        assert!(
            (warmed.icache_miss_rate() - cold.icache_miss_rate()).abs() < 1e-12,
            "warmed {} vs cold {}",
            warmed.icache_miss_rate(),
            cold.icache_miss_rate()
        );
        assert!((warmed.dcache_miss_rate() - cold.dcache_miss_rate()).abs() < 1e-12);
        assert!((warmed.mispredict_rate() - cold.mispredict_rate()).abs() < 1e-12);
        assert!(cold.icache_miss_rate() > 0.0, "the measured stream does miss");
    }

    #[test]
    fn zero_sized_rob_cannot_panic() {
        // Regression: the retire path used `pop_front().expect()`, which a
        // rob=0 configuration turned into a panic on the first fed record.
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let mut core = OooCore::new(isa, &cfg, &OooConfig { width: 0, rob: 0 });
        let mut di = DynInst::new();
        di.header.pc = 0x1000;
        di.header.phys_pc = 0x1000;
        di.header.next_pc = 0x1004;
        for _ in 0..8 {
            core.feed(&di).unwrap();
        }
        assert_eq!(core.report("t").insts, 8);
    }

    #[test]
    fn short_and_empty_streams_report_cleanly() {
        // A projected/truncated stream may carry records with no published
        // fields at all; the core must accept them and an empty stream must
        // produce an all-zero report rather than aborting.
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let core = OooCore::new(isa, &cfg, &OooConfig::default());
        assert_eq!(core.report("t").insts, 0);
        assert_eq!(core.mispredict_rate(), 0.0);
        assert_eq!(core.icache_miss_rate(), 0.0);
        let mut core = OooCore::new(isa, &cfg, &OooConfig { width: 1, rob: 1 });
        let bare = DynInst::new(); // no opcode, no operands, no fields
        for _ in 0..3 {
            core.feed(&bare).unwrap();
        }
        assert_eq!(core.report("t").insts, 3);
    }

    #[test]
    fn feed_returns_fault() {
        let isa = lis_runtime::toy::spec();
        let cfg = CoreConfig::default();
        let mut core = OooCore::new(isa, &cfg, &OooConfig::default());
        let mut di = DynInst::new();
        di.fault = Some(lis_core::Fault::ArithOverflow);
        assert!(core.feed(&di).is_err());
        assert_eq!(core.report("t").insts, 0);
    }

    #[test]
    fn presets_change_the_numbers_but_stay_deterministic() {
        // Feeding the same stream to two cores built from the same preset
        // must produce identical reports; distinct presets are allowed (and
        // here arranged) to differ.
        let isa = lis_runtime::toy::spec();
        let op = alu_op(isa);
        let stream: Vec<DynInst> =
            (0..128u64).map(|i| rec(op, 0x1000 + (i % 64) * 64, None, None)).collect();
        let run = |t: crate::components::TimingConfig| {
            let cfg = CoreConfig { timing: t, ..CoreConfig::default() };
            let mut core = OooCore::new(isa, &cfg, &OooConfig::default());
            for di in &stream {
                core.feed(di).unwrap();
            }
            core.report("t")
        };
        for preset in crate::components::TimingConfig::PRESETS {
            let (a, b) = (run(preset), run(preset));
            assert_eq!(a.cycles, b.cycles, "{}", preset.name);
            assert_eq!(a.icache_misses, b.icache_misses, "{}", preset.name);
        }
    }
}
