//! Execution statistics.

use std::fmt;

/// Counters kept by a synthesized simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Dynamic instructions completed.
    pub insts: u64,
    /// Interface calls made (all entry points).
    pub calls: u64,
    /// Basic blocks executed (block-semantic interfaces only).
    pub blocks: u64,
    /// Faults reported.
    pub faults: u64,
    /// Basic blocks predecoded (superblock-cache misses for the compiled
    /// backend; every block call for the interpreted backend).
    pub blocks_built: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Cached superblocks found stale by cache verification and re-executed
    /// via a one-shot rebuild (graceful degradation) instead of aborting the
    /// run.
    pub fallback_blocks: u64,
    /// Field values copied across the interface boundary by the publication
    /// loop (informational-detail work, counted per published field store).
    pub published_values: u64,
    /// Publications that carried operand identifiers.
    pub published_opsets: u64,
    /// Undo records retired (speculation bookkeeping work). Zero on
    /// non-speculative buildsets.
    pub undo_records: u64,
    /// Backend demotions taken mid-run by the supervision ladder
    /// (Compiled → Interpreted). Zero unless demotion is enabled
    /// and a trust violation or deadline pressure forced a downgrade.
    /// Excluded from [`detail_units`](Self::detail_units): a demotion is a
    /// supervision action, not interface work.
    pub demotions: u64,
    /// Predecoded blocks and compiled superblocks seeded from a shared
    /// artifact store instead of being built by this simulator (warm start).
    /// Excluded from [`detail_units`](Self::detail_units): seeding amortizes
    /// build work, it is not interface work.
    pub seeded_blocks: u64,
}

impl SimStats {
    /// Interface calls per instruction, the paper's semantic-detail cost
    /// metric.
    pub fn calls_per_inst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.calls as f64 / self.insts as f64
        }
    }

    /// Mean basic-block length observed.
    pub fn mean_block_len(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.insts as f64 / self.blocks as f64
        }
    }

    /// Deterministic interface-work units for this run: every interface
    /// call, every published field store, every operand-set publication, and
    /// every undo record costs one unit. This is the detail-cost measure the
    /// sweep normalizes — unlike wall-clock it is a pure function of the
    /// (program, buildset, backend) triple, so ratio tables are bit-identical
    /// across hosts, job counts, and repeated runs.
    pub fn detail_units(&self) -> u64 {
        self.calls + self.published_values + self.published_opsets + self.undo_records
    }

    /// Renders every counter as one flat JSON object (see `--stats-json`),
    /// including `fallback_blocks`, which the text display only shows when
    /// nonzero.
    pub fn to_json(&self) -> String {
        let mut o = lis_core::JsonObj::new();
        o.u64("insts", self.insts)
            .u64("calls", self.calls)
            .u64("blocks", self.blocks)
            .u64("faults", self.faults)
            .u64("blocks_built", self.blocks_built)
            .u64("checkpoints", self.checkpoints)
            .u64("rollbacks", self.rollbacks)
            .u64("fallback_blocks", self.fallback_blocks)
            .u64("published_values", self.published_values)
            .u64("published_opsets", self.published_opsets)
            .u64("undo_records", self.undo_records)
            .u64("demotions", self.demotions)
            .u64("seeded_blocks", self.seeded_blocks)
            .f64("calls_per_inst", self.calls_per_inst())
            .f64("mean_block_len", self.mean_block_len());
        o.finish()
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insts, {} calls ({:.2}/inst), {} blocks, {} faults",
            self.insts,
            self.calls,
            self.calls_per_inst(),
            self.blocks,
            self.faults
        )
    }
}

/// Summary returned by [`Simulator::run_to_halt`](crate::Simulator::run_to_halt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Dynamic instructions executed during this run call.
    pub insts: u64,
    /// Whether the program exited.
    pub halted: bool,
    /// Exit code if halted.
    pub exit_code: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats { insts: 100, calls: 700, blocks: 10, ..Default::default() };
        assert!((s.calls_per_inst() - 7.0).abs() < 1e-9);
        assert!((s.mean_block_len() - 10.0).abs() < 1e-9);
        assert_eq!(SimStats::default().calls_per_inst(), 0.0);
        assert_eq!(SimStats::default().mean_block_len(), 0.0);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn json_has_every_counter() {
        let s =
            SimStats { insts: 3, fallback_blocks: 2, published_values: 9, ..Default::default() };
        let j = s.to_json();
        assert!(j.contains("\"insts\":3"));
        assert!(j.contains("\"fallback_blocks\":2"));
        assert!(j.contains("\"published_values\":9"));
        assert!(j.contains("\"published_opsets\":0"));
        assert!(j.contains("\"undo_records\":0"));
        assert!(j.contains("\"demotions\":0"));
        assert!(j.contains("\"seeded_blocks\":0"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn detail_units_sums_interface_work() {
        let s = SimStats {
            calls: 10,
            published_values: 20,
            published_opsets: 5,
            undo_records: 7,
            demotions: 3,
            seeded_blocks: 4,
            ..Default::default()
        };
        assert_eq!(s.detail_units(), 42, "demotions/seeding are not interface work");
        assert_eq!(SimStats::default().detail_units(), 0);
    }
}
