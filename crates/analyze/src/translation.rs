//! The translation-soundness passes (LIS006–LIS010).
//!
//! Where `passes` checks the *interface* (spec × buildset), these passes
//! check the *translation*: the static synthesis decisions the compiled
//! superblock backend bakes into each (ISA, buildset) cell. They consume
//! the analyzable IR of [`crate::tir`] — produced side-effect-free by
//! `lis_runtime::synthesize_view` — and prove, without executing anything,
//! that every elision, lowering, undo decision, link rule, and chain
//! specialization is a faithful projection of the single specification.
//!
//! [`analyze_translation`] runs all five for one cell;
//! [`preflight_translation`] is the error-only gate `Simulator::new` and
//! the CLI's pre-run lint use.

use crate::diag::{Diagnostic, Severity, LIS006, LIS007, LIS008, LIS009, LIS010};
use crate::passes::field_name;
use crate::tir::{TirAccess, TirInst, TranslationView};
use lis_core::{
    ArchState, BuildsetDef, FieldSet, FlowItem, InstClass, InstDef, IsaSpec, RegBacking, Step,
    F_OPCODE, NUM_GPR, NUM_SPR, SRC_FIELDS,
};

/// The probe patterns [`lis_core::RegClassDef::validate_backing`] uses —
/// reused here so the exhaustive pass and the runtime assert agree on what
/// "divergence" means.
const PATS: [u64; 2] = [0xA5A5_5A5A_DEAD_BEEF, 0x0123_4567_89AB_CDEF];

/// The specification entry a translated instruction claims to come from.
fn spec_of<'a>(isa: &'a IsaSpec, t: &TirInst) -> Option<&'a InstDef> {
    isa.insts.iter().find(|d| d.name == t.name)
}

/// Whether `class` terminates a superblock (its deferred PC store must land
/// exactly at the chain boundary).
fn ends_block(class: InstClass) -> bool {
    matches!(class, InstClass::Branch | InstClass::Jump | InstClass::Syscall)
}

/// LIS006 — elision soundness.
///
/// Abstract-interprets each translated chain to the set of values it can
/// materialize (replayed decode captures, staged source fields, every flow
/// item produced by a step still in the chain) and proves that whenever the
/// translator elides the publication walk, the visibility mask observes
/// none of them. Also pins the translator's private copies of the
/// visibility decision to the buildset they were synthesized from.
pub fn pass_elision(isa: &IsaSpec, bs: &BuildsetDef, view: &TranslationView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mk = |severity, inst, message: String, help: &str| Diagnostic {
        code: LIS006,
        severity,
        isa: isa.name,
        buildset: Some(bs.name),
        inst,
        step: None,
        message,
        help: help.into(),
    };

    if view.vis_fields != bs.visibility.fields || view.vis_operand_ids != bs.visibility.operand_ids
    {
        out.push(mk(
            Severity::Error,
            None,
            "translator's visibility copy diverged from the buildset's precomputed mask".into(),
            "re-synthesize the translation from the buildset definition; the elision decision \
             must be a pure function of the visibility mask",
        ));
    }

    if view.elides_publish {
        // The claim under test is the translator's; the observability truth
        // it is judged against is the buildset's, so a skewed elision
        // decision is caught even when the copies drifted too.
        if bs.visibility.operand_ids {
            out.push(mk(
                Severity::Error,
                None,
                "publication walk elided although operand identifiers are published".into(),
                "keep the publication walk whenever `operand_ids` is visible",
            ));
        }
        for t in &view.insts {
            let Some(def) = spec_of(isa, t) else { continue };
            let mut obs = t.captured;
            if t.has_fetch {
                for &f in &SRC_FIELDS[..t.srcs.len()] {
                    obs = obs.with(f);
                }
            }
            for fl in def.flows() {
                let produced = match fl.def {
                    // Header values exist for every dynamic instruction.
                    Step::Fetch => true,
                    // A non-fallback decode's output *is* the capture set,
                    // already counted; fallback re-runs decode in full.
                    Step::Decode => t.fallback,
                    s => t.chain_steps.contains(&s),
                };
                if produced {
                    if let FlowItem::Field(id) = fl.item {
                        obs = obs.with(id);
                    }
                }
            }
            let leaked = FieldSet(bs.visibility.fields.0 & obs.0);
            if !leaked.is_empty() {
                let names: Vec<String> = leaked.iter().map(|id| field_name(isa, id)).collect();
                out.push(mk(
                    Severity::Error,
                    Some(t.name),
                    format!(
                        "chain materializes visible field(s) `{}` while the publication walk \
                         is elided",
                        names.join("`, `")
                    ),
                    "the compiled backend may only skip publication for header-only \
                     interfaces; values the visibility observes must be walked",
                ));
            }
        }
    } else if bs.visibility.header_only() {
        out.push(mk(
            Severity::Warning,
            None,
            "publication walk retained although the interface is header-only".into(),
            "elide the walk for header-only visibility; publishing nothing through it is \
             pure per-call overhead",
        ));
    }
    out
}

/// LIS007 — reg-backing consistency.
///
/// Two halves. First, `validate_backing` promoted from a sparse runtime
/// assert to an exhaustive located diagnostic: every index of every backed
/// class is probed through the accessor functions against the declared
/// slot and write mask. Second, every lowered direct access the translator
/// baked into a specialized chain is checked against the declaration it
/// must have come from — right variant, in-range non-special index,
/// matching baked mask.
pub fn pass_backing(isa: &IsaSpec, bs: &BuildsetDef, view: &TranslationView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mk = |inst, message: String, help: &str| Diagnostic {
        code: LIS007,
        severity: Severity::Error,
        isa: isa.name,
        buildset: Some(bs.name),
        inst,
        step: None,
        message,
        help: help.into(),
    };

    for def in isa.reg_classes {
        let Some(backing) = def.backing else { continue };
        let mut st = ArchState::new(isa.endian);
        // Report the first divergent index per class; one is proof enough
        // and keeps wide register files from flooding the output.
        'class: {
            match backing {
                RegBacking::Gpr { special, write_mask } => {
                    if def.count as usize > NUM_GPR {
                        out.push(mk(
                            None,
                            format!(
                                "class `{}`: gpr backing but count {} exceeds the register file",
                                def.name, def.count
                            ),
                            "shrink the class or drop the backing declaration",
                        ));
                        break 'class;
                    }
                    for idx in 0..def.count {
                        if Some(idx) == special {
                            continue;
                        }
                        for pat in PATS {
                            (def.write)(&mut st, idx, pat);
                            if st.gpr[idx as usize] != pat & write_mask {
                                out.push(mk(
                                    None,
                                    format!(
                                        "class `{}`: write accessor disagrees with the declared \
                                         gpr backing at index {idx}",
                                        def.name
                                    ),
                                    "fix the accessor, the write mask, or declare the index as \
                                     the class's `special` so it is never lowered",
                                ));
                                break 'class;
                            }
                            if (def.read)(&st, idx) != st.gpr[idx as usize] {
                                out.push(mk(
                                    None,
                                    format!(
                                        "class `{}`: read accessor disagrees with the declared \
                                         gpr backing at index {idx}",
                                        def.name
                                    ),
                                    "fix the accessor or declare the index as `special`",
                                ));
                                break 'class;
                            }
                        }
                    }
                }
                RegBacking::Spr { slot, write_mask } => {
                    if slot as usize >= NUM_SPR {
                        out.push(mk(
                            None,
                            format!(
                                "class `{}`: spr backing slot {slot} exceeds the register file",
                                def.name
                            ),
                            "pick an in-range slot or drop the backing declaration",
                        ));
                        break 'class;
                    }
                    for idx in 0..def.count {
                        for pat in PATS {
                            (def.write)(&mut st, idx, pat);
                            if st.spr[slot as usize] != pat & write_mask {
                                out.push(mk(
                                    None,
                                    format!(
                                        "class `{}`: write accessor disagrees with spr slot \
                                         {slot} at index {idx}",
                                        def.name
                                    ),
                                    "fix the accessor or the declared slot/write mask",
                                ));
                                break 'class;
                            }
                            if (def.read)(&st, idx) != st.spr[slot as usize] {
                                out.push(mk(
                                    None,
                                    format!(
                                        "class `{}`: read accessor disagrees with spr slot \
                                         {slot} at index {idx}",
                                        def.name
                                    ),
                                    "fix the accessor or the declared slot",
                                ));
                                break 'class;
                            }
                        }
                    }
                }
            }
        }
    }

    for t in &view.insts {
        let accesses = t
            .srcs
            .iter()
            .map(|a| ("source read", a))
            .chain(t.dests.iter().map(|a| ("destination write", a)));
        for (what, acc) in accesses {
            let Some(def) = isa.reg_classes.get(acc.class() as usize) else {
                out.push(mk(
                    Some(t.name),
                    format!("lowered {what} names undeclared register class {}", acc.class()),
                    "decode must only emit operand references into declared classes",
                ));
                continue;
            };
            let covered = match (*acc, def.backing) {
                (TirAccess::Accessor { .. }, _) => true,
                (
                    TirAccess::Gpr { index, mask, .. },
                    Some(RegBacking::Gpr { special, write_mask }),
                ) => {
                    special != Some(index)
                        && index < def.count
                        && (index as usize) < NUM_GPR
                        && mask.is_none_or(|m| m == write_mask)
                }
                (
                    TirAccess::Spr { slot, mask, .. },
                    Some(RegBacking::Spr { slot: s, write_mask }),
                ) => slot == s && (slot as usize) < NUM_SPR && mask.is_none_or(|m| m == write_mask),
                _ => false,
            };
            if !covered {
                out.push(mk(
                    Some(t.name),
                    format!(
                        "lowered {what} of class `{}` is not covered by its RegBacking \
                         declaration (variant, index range, special index, or write mask)",
                        def.name
                    ),
                    "a direct register-file access may only be synthesized from a matching \
                     RegBacking declaration; anything else must stay an accessor call",
                ));
            }
        }
    }
    out
}

/// LIS008 — specialized undo coverage.
///
/// The static analog of LIS002 for translated code, checked in both
/// directions: a speculative cell must wire an undo log and keep the
/// generic (accessor-routed, undo-capturing) writeback for every
/// specialized instruction that still writes architectural state; a
/// non-speculative cell must carry zero undo plumbing.
pub fn pass_undo(isa: &IsaSpec, bs: &BuildsetDef, view: &TranslationView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mk = |inst, message: String, help: &str| Diagnostic {
        code: LIS008,
        severity: Severity::Error,
        isa: isa.name,
        buildset: Some(bs.name),
        inst,
        step: Some(Step::Writeback),
        message,
        help: help.into(),
    };

    if view.speculation != bs.speculation {
        out.push(mk(
            None,
            "translator's speculation copy diverged from the buildset".into(),
            "re-synthesize the translation from the buildset definition",
        ));
        return out;
    }
    if bs.speculation && !view.undo_wired {
        out.push(mk(
            None,
            "speculative cell synthesized without an undo log".into(),
            "wire `Exec::undo` for speculative buildsets; rollback needs every write captured",
        ));
    }
    if !bs.speculation && view.undo_wired {
        out.push(mk(
            None,
            "non-speculative cell retains undo plumbing".into(),
            "non-speculative buildsets elide undo entirely (`elides_undo`); stray plumbing \
             breaks the elision contract and its performance claim",
        ));
    }
    if bs.speculation {
        for t in &view.insts {
            if t.has_wb && !t.dests.is_empty() && !t.wb_is_generic {
                out.push(mk(
                    Some(t.name),
                    format!(
                        "specialized writeback of {} destination(s) no longer routes through \
                         the generic accessor path; its UndoRec capture is lost",
                        t.dests.len()
                    ),
                    "keep the specification's generic writeback in the chain under \
                     speculation — only it records the undo entries rollback replays",
                ));
            }
        }
    }
    out
}

/// LIS009 — chain-link validity.
///
/// Superblock successor links are hints, never trusted: following one must
/// re-validate the target block's entry PC, imported translations must
/// start with cold links, and every control-transfer instruction must
/// terminate its block so the deferred PC store lands exactly at the chain
/// boundary.
pub fn pass_links(isa: &IsaSpec, bs: &BuildsetDef, view: &TranslationView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mk = |inst, message: String, help: &str| Diagnostic {
        code: LIS009,
        severity: Severity::Error,
        isa: isa.name,
        buildset: Some(bs.name),
        inst,
        step: None,
        message,
        help: help.into(),
    };

    if !view.links_validated {
        out.push(mk(
            None,
            "link following does not re-validate the target block's entry PC".into(),
            "treat successor links as hints: a stale link must miss, never execute a block \
             whose entry state is incompatible",
        ));
    }
    if !view.import_links_cold {
        out.push(mk(
            None,
            "superblocks rebuilt from exported parts start with live successor links".into(),
            "links are per-simulator flow observations; imported translations must start \
             cold and re-learn them",
        ));
    }
    for t in &view.insts {
        if ends_block(t.class) && !t.ends_block {
            out.push(mk(
                Some(t.name),
                format!(
                    "{:?}-class instruction does not terminate its superblock; the deferred \
                     PC store would escape the chain boundary",
                    t.class
                ),
                "end the block at every control transfer so the batched PC store commits \
                 before the next chain link is followed",
            ));
        }
    }
    out
}

/// LIS010 — demotion totality.
///
/// The supervision ladder (Compiled → Interpreted) is only safe if both
/// rungs execute identical semantics: the view must cover exactly the
/// specification's instruction table, each translation's chain must be the
/// spec's own flattened chain partitioned without gaps, each decode replay
/// must be complete, and the ladder itself must lead from the compiled top
/// to the interpreted bottom.
pub fn pass_demotion(isa: &IsaSpec, bs: &BuildsetDef, view: &TranslationView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mk = |inst, message: String, help: &str| Diagnostic {
        code: LIS010,
        severity: Severity::Error,
        isa: isa.name,
        buildset: Some(bs.name),
        inst,
        step: None,
        message,
        help: help.into(),
    };

    if view.isa != isa.name || view.buildset != bs.name {
        out.push(mk(
            None,
            format!("view was synthesized for `{}/{}`, not this cell", view.isa, view.buildset),
            "analyze each cell against its own synthesized view",
        ));
        return out;
    }
    if view.insts.len() != isa.insts.len()
        || view.insts.iter().zip(isa.insts).any(|(t, d)| t.name != d.name)
    {
        out.push(mk(
            None,
            format!(
                "translation covers {} instruction(s); the specification defines {}",
                view.insts.len(),
                isa.insts.len()
            ),
            "the compiled cell must translate exactly the specification's instruction table",
        ));
        return out;
    }

    if view.ladder != ["compiled", "interpreted"] {
        out.push(mk(
            None,
            format!(
                "demotion ladder `{}` does not lead from compiled to interpreted",
                view.ladder.join(" -> ")
            ),
            "every compiled cell needs a reachable Interpreted equivalent so supervision \
             never demotes into a hole",
        ));
    }

    for t in &view.insts {
        if !t.chain_matches_spec {
            out.push(mk(
                Some(t.name),
                "translated action chain is not the specification's own flattened chain".into(),
                "the compiled backend may reorder dispatch, not semantics: demoting to \
                 interpreted must re-execute the identical actions",
            ));
        }
        let partition_ok = t.pre_hi <= t.mid_lo
            && t.mid_lo <= t.mid_hi
            && t.mid_hi <= t.chain_len
            && if t.has_fetch { t.mid_lo == t.pre_hi + 1 } else { t.pre_hi == 0 && t.mid_lo == 0 }
            && if t.has_wb { t.mid_hi + 1 == t.chain_len } else { t.mid_hi == t.chain_len };
        if !partition_ok {
            out.push(mk(
                Some(t.name),
                format!(
                    "specialized ranges [0,{}) fetch [{},{}) wb do not reassemble the \
                     {}-action chain",
                    t.pre_hi, t.mid_lo, t.mid_hi, t.chain_len
                ),
                "the dispatched ranges plus the inlined fetch/writeback must cover every \
                 chain slot exactly once",
            ));
        }
        if !t.fallback && !t.captured.contains(F_OPCODE) {
            out.push(mk(
                Some(t.name),
                "decode replay does not restore the opcode field".into(),
                "append the opcode capture so a demoted backend sees the full decode frame",
            ));
        }
    }
    out
}

/// Runs every translation-soundness pass (LIS006–LIS010) for one cell's
/// synthesized view.
pub fn analyze_translation(
    isa: &IsaSpec,
    bs: &BuildsetDef,
    view: &TranslationView,
) -> Vec<Diagnostic> {
    let mut out = pass_elision(isa, bs, view);
    out.extend(pass_backing(isa, bs, view));
    out.extend(pass_undo(isa, bs, view));
    out.extend(pass_links(isa, bs, view));
    out.extend(pass_demotion(isa, bs, view));
    out
}

/// The translation leg of the pre-run gate: every translation pass, errors
/// only. `Simulator::new` runs this on the view it synthesizes, so an
/// unsound translation is refused at build time, mirroring
/// [`crate::preflight`] for the interface passes.
///
/// # Errors
///
/// Returns all error-severity diagnostics for the cell, sorted by code.
pub fn preflight_translation(
    isa: &IsaSpec,
    bs: &BuildsetDef,
    view: &TranslationView,
) -> Result<(), Vec<Diagnostic>> {
    let mut errs: Vec<Diagnostic> = analyze_translation(isa, bs, view)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    if errs.is_empty() {
        Ok(())
    } else {
        errs.sort_by_key(|d| d.code);
        Err(errs)
    }
}
