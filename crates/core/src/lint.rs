//! The interface dataflow lint.
//!
//! The paper observes (§IV-B, §V-D) that "nearly all errors at this stage
//! occur because some intermediate value or operand that needs to be visible
//! is hidden in the interface or because a step of instruction execution was
//! left out", and that such errors only surface at run time, a few hundred
//! instructions into a benchmark. Because every instruction declares its
//! inter-step dataflow once, we can do better: check statically that every
//! value crossing an interface-call boundary is visible.
//!
//! The lint mechanically derives the paper's pairing constraint — step-level
//! semantic detail requires all-level informational detail — rather than
//! hard-coding it.
//!
//! This module is the *primitive* shared with `lis-analyze`, which wraps it
//! as pass `LIS001` of the full multi-pass interface verifier (speculation
//! safety, over-detail, derivability, ISA self-checks, stable diagnostic
//! codes, SARIF output). New code should prefer `lis_analyze::analyze`;
//! [`check_interface`] stays as a thin shim because `lis-core` sits below
//! `lis-analyze` in the dependency graph and the runtime needs a pre-flight
//! check without depending upward.

use crate::buildset::BuildsetDef;
use crate::inst::{Flow, FlowItem};
use crate::isa::IsaSpec;
use std::collections::HashSet;
use std::fmt;

/// One interface-specification error found by the lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintDiag {
    /// Instruction whose dataflow is broken by the interface.
    pub inst: &'static str,
    /// The offending dataflow edge.
    pub flow: Flow,
}

impl fmt::Display for LintDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} is produced in the `{}` call but consumed in the `{}` call and is hidden by the interface",
            self.inst, self.flow.item, self.flow.def, self.flow.used
        )
    }
}

/// Checks that `buildset` is a valid interface for `isa`.
///
/// For every instruction, every dataflow edge whose producing and consuming
/// steps land in *different* interface calls must be visible; otherwise the
/// value would be lost at the call boundary and simulation would go wrong —
/// exactly the class of bug the paper reports as the typical interface
/// specification error.
///
/// # Errors
///
/// Returns every violated edge. Duplicate diagnostics for instructions
/// sharing a class are collapsed to the first instruction of each
/// `(class, flow)` pair to keep reports readable.
pub fn check_interface(isa: &IsaSpec, buildset: &BuildsetDef) -> Result<(), Vec<LintDiag>> {
    let mut diags: Vec<LintDiag> = Vec::new();
    let mut seen: HashSet<(&'static str, Flow)> = HashSet::new();
    for def in isa.insts {
        for flow in def.flows() {
            let def_call = buildset.semantic.call_of(flow.def);
            let use_call = buildset.semantic.call_of(flow.used);
            if def_call == use_call {
                continue;
            }
            let visible = match flow.item {
                FlowItem::Field(id) => buildset.visibility.fields.contains(id),
                FlowItem::OperandIds => buildset.visibility.operand_ids,
            };
            if !visible && seen.insert((def.class.name(), flow)) {
                diags.push(LintDiag { inst: def.name, flow });
            }
        }
    }
    if diags.is_empty() {
        Ok(())
    } else {
        Err(diags)
    }
}

/// Renders a lint report for human consumption.
pub fn render_report(buildset: &BuildsetDef, diags: &[LintDiag]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "interface `{}` ({}) is invalid: {} dataflow violation(s)",
        buildset.name,
        buildset.describe(),
        diags.len()
    );
    for d in diags {
        let _ = writeln!(out, "  - {d}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buildset::{Semantic, Visibility, ONE_MIN, STEP_ALL};
    use crate::inst::{InstClass, InstDef, StepActions};
    use crate::step::Step;
    use lis_mem::Endian;

    const INSTS: &[InstDef] = &[InstDef {
        name: "ld",
        class: InstClass::Load,
        mask: 0xff00_0000,
        bits: 0x0100_0000,
        operands: &[],
        actions: StepActions {
            decode: None,
            operand_fetch: None,
            evaluate: None,
            memory: None,
            writeback: None,
            exception: None,
        },
        syntax: &[],
        extra_flows: &[],
    }];

    fn isa() -> IsaSpec {
        IsaSpec {
            name: "t",
            word_bits: 32,
            endian: Endian::Little,
            insts: INSTS,
            reg_classes: &[],
            isa_fields: &[],
            disasm: |_, _| String::new(),
            pc_mask: u32::MAX as u64,
            sp_gpr: 30,
        }
    }

    #[test]
    fn one_call_interfaces_always_pass() {
        // All steps share one call, so nothing crosses a boundary.
        assert!(check_interface(&isa(), &ONE_MIN).is_ok());
    }

    #[test]
    fn step_all_passes() {
        assert!(check_interface(&isa(), &STEP_ALL).is_ok());
    }

    #[test]
    fn step_min_fails_with_diagnostics() {
        let bs = BuildsetDef {
            name: "step-min",
            semantic: Semantic::Step,
            visibility: Visibility::MIN,
            speculation: false,
        };
        let diags = check_interface(&isa(), &bs).unwrap_err();
        assert!(!diags.is_empty());
        // The classic error: the effective address is computed at evaluate
        // and consumed at memory, but hidden.
        let report = render_report(&bs, &diags);
        assert!(report.contains("eff_addr") || report.contains("field"), "{report}");
        assert!(report.contains("step-min"));
    }

    const NO_ACTIONS: StepActions = StepActions {
        decode: None,
        operand_fetch: None,
        evaluate: None,
        memory: None,
        writeback: None,
        exception: None,
    };

    /// Two loads and an ALU op: same-class duplicates must collapse, the
    /// distinct class must not.
    const MIXED_INSTS: &[InstDef] = &[
        InstDef {
            name: "ld1",
            class: InstClass::Load,
            mask: 0xff00_0000,
            bits: 0x0100_0000,
            operands: &[],
            actions: NO_ACTIONS,
            syntax: &[],
            extra_flows: &[],
        },
        InstDef {
            name: "ld2",
            class: InstClass::Load,
            mask: 0xff00_0000,
            bits: 0x0200_0000,
            operands: &[],
            actions: NO_ACTIONS,
            syntax: &[],
            extra_flows: &[],
        },
        InstDef {
            name: "add",
            class: InstClass::Alu,
            mask: 0xff00_0000,
            bits: 0x0300_0000,
            operands: &[],
            actions: NO_ACTIONS,
            syntax: &[],
            extra_flows: &[],
        },
    ];

    #[test]
    fn duplicate_diags_collapse_per_class_and_flow() {
        let mut s = isa();
        s.insts = MIXED_INSTS;
        let bs = BuildsetDef {
            name: "step-min",
            semantic: Semantic::Step,
            visibility: Visibility::MIN,
            speculation: false,
        };
        let diags = check_interface(&s, &bs).unwrap_err();
        // Every diagnostic names the *first* instruction of its class: the
        // second load contributes nothing new.
        assert!(diags.iter().all(|d| d.inst != "ld2"), "{diags:?}");
        assert!(diags.iter().any(|d| d.inst == "ld1"));
        assert!(diags.iter().any(|d| d.inst == "add"));
        // Each (class, flow) pair appears exactly once.
        let mut keys: Vec<_> = diags.iter().map(|d| (d.inst, d.flow)).collect();
        let n = keys.len();
        keys.sort_by_key(|(i, f)| (*i, format!("{f:?}")));
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate (inst, flow) diagnostics");
        // Both classes share e.g. the src1 OF->EV flow, so the same flow
        // must be reported once *per class*.
        let src1_hits = diags
            .iter()
            .filter(|d| matches!(d.flow.item, FlowItem::Field(f) if f == crate::field::F_SRC1))
            .count();
        assert_eq!(src1_hits, 2, "one src1 diagnostic per class: {diags:?}");
    }

    /// Pins the exact `render_report` format: downstream tooling greps it.
    #[test]
    fn render_report_golden() {
        let bs = BuildsetDef {
            name: "step-min",
            semantic: Semantic::Step,
            visibility: Visibility::MIN,
            speculation: false,
        };
        let diags = vec![
            LintDiag {
                inst: "ld",
                flow: crate::inst::flow(
                    FlowItem::Field(crate::field::F_EFF_ADDR),
                    Step::Evaluate,
                    Step::Memory,
                ),
            },
            LintDiag {
                inst: "ld",
                flow: crate::inst::flow(FlowItem::OperandIds, Step::Decode, Step::OperandFetch),
            },
        ];
        let report = render_report(&bs, &diags);
        assert_eq!(
            report,
            "interface `step-min` (step/min/nospec) is invalid: 2 dataflow violation(s)\n\
             \x20 - ld: field `eff_addr` is produced in the `evaluate` call but consumed in \
             the `memory` call and is hidden by the interface\n\
             \x20 - ld: operand identifiers is produced in the `decode` call but consumed in \
             the `operand_fetch` call and is hidden by the interface\n"
        );
    }

    #[test]
    fn step_decode_fails_on_operand_values() {
        let bs = BuildsetDef {
            name: "step-decode",
            semantic: Semantic::Step,
            visibility: Visibility::DECODE,
            speculation: false,
        };
        // Decode info shows operand ids and eff_addr, but operand *values*
        // (src1..) still cross from operand-fetch to evaluate.
        let diags = check_interface(&isa(), &bs).unwrap_err();
        assert!(diags
            .iter()
            .any(|d| matches!(d.flow.item, FlowItem::Field(f) if f == crate::field::F_SRC1)));
    }
}
