//! Golden diagnostic tests: one seeded-broken fixture per stable code,
//! the shipped-matrix-lints-clean acceptance check, and pinned renderer
//! output (text, line-delimited JSON, SARIF).

use lis_analyze::{
    analyze, analyze_isa, analyze_translation, has_errors, pass_derivability, pass_isa,
    pass_over_detail, pass_speculation, pass_visibility, preflight, preflight_translation,
    render_json, render_sarif, render_text, Diagnostic, Severity, ViewMutation, LIS001, LIS002,
    LIS003, LIS004, LIS005, LIS006, LIS007, LIS008, LIS009, LIS010,
};
use lis_core::{
    flow, BuildsetDef, Exec, Fault, FieldId, FieldSet, Flow, FlowItem, InstClass, InstDef, IsaSpec,
    OperandDir, OperandSpec, RegClass, Semantic, Step, StepActions, Visibility, F_ALU_OUT,
    STANDARD_BUILDSETS, STEP_ALL,
};
use lis_mem::Endian;
use lis_runtime::synthesize_view;

fn act(_: &mut Exec<'_>) -> Result<(), Fault> {
    Ok(())
}

fn fixture(insts: &'static [InstDef]) -> IsaSpec {
    IsaSpec {
        name: "fix",
        word_bits: 32,
        endian: Endian::Little,
        insts,
        reg_classes: &[],
        isa_fields: &[],
        disasm: |_, _| String::new(),
        pc_mask: u32::MAX as u64,
        sp_gpr: 30,
    }
}

const fn inst(
    name: &'static str,
    class: InstClass,
    bits: u32,
    actions: StepActions,
    extra_flows: &'static [Flow],
) -> InstDef {
    InstDef {
        name,
        class,
        mask: 0xff00_0000,
        bits: bits << 24,
        operands: &[],
        syntax: &[],
        actions,
        extra_flows,
    }
}

const fn bs(name: &'static str, semantic: Semantic, visibility: Visibility) -> BuildsetDef {
    BuildsetDef { name, semantic, visibility, speculation: false }
}

// ---------------------------------------------------------------- LIS001

const LOAD_ONLY: &[InstDef] = &[inst("ld", InstClass::Load, 1, StepActions::NONE, &[])];

#[test]
fn lis001_hidden_flow_under_step_min() {
    let isa = fixture(LOAD_ONLY);
    let cell = bs("step-min", Semantic::Step, Visibility::MIN);
    let diags = pass_visibility(&isa, &cell);
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.code == LIS001 && d.severity == Severity::Error));
    let ea = diags
        .iter()
        .find(|d| d.message.contains("eff_addr"))
        .expect("hidden eff_addr flow reported");
    assert_eq!(ea.inst, Some("ld"));
    assert_eq!(ea.step, Some(Step::Evaluate));
    assert!(ea.help.contains("publish `eff_addr`"), "{}", ea.help);
    // The same cell under a one-call semantic is clean.
    assert!(pass_visibility(&isa, &bs("one-min", Semantic::One, Visibility::MIN)).is_empty());
}

// ---------------------------------------------------------------- LIS002

const SPEC_UNSAFE: &[InstDef] = &[
    // An ALU op with a memory-step action: raw stores, no UndoRec::Mem path.
    inst("aluwr", InstClass::Alu, 1, StepActions { memory: Some(act), ..StepActions::NONE }, &[]),
    // A branch with an exception-step action: OS effects outside OsMark.
    inst(
        "brx",
        InstClass::Branch,
        2,
        StepActions { exception: Some(act), ..StepActions::NONE },
        &[],
    ),
];

#[test]
fn lis002_uncovered_writes_under_speculation() {
    let isa = fixture(SPEC_UNSAFE);
    let spec = BuildsetDef {
        name: "one-all-spec",
        semantic: Semantic::One,
        visibility: Visibility::ALL,
        speculation: true,
    };
    let diags = pass_speculation(&isa, &spec);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.code == LIS002 && d.severity == Severity::Error));
    assert_eq!(diags[0].step, Some(Step::Memory));
    assert!(diags[0].message.contains("UndoRec"));
    assert_eq!(diags[1].step, Some(Step::Exception));
    assert!(diags[1].message.contains("OsMark"));
    // Without speculation the same interface is acceptable.
    let nospec = BuildsetDef { speculation: false, ..spec };
    assert!(pass_speculation(&isa, &nospec).is_empty());
}

// ---------------------------------------------------------------- LIS003

#[test]
fn lis003_wasted_detail_under_step_all() {
    let isa = fixture(LOAD_ONLY);
    let diags = pass_over_detail(&isa, &STEP_ALL);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, LIS003);
    assert_eq!(d.severity, Severity::Warning);
    // A pure-load ISA never produces branch resolution or an ALU result:
    // publishing them at step granularity is waste.
    assert!(d.message.contains("br_taken"), "{}", d.message);
    assert!(d.message.contains("alu_out"), "{}", d.message);
    // The minimal sufficient visibility still names what the loads DO carry.
    assert!(d.help.contains("eff_addr"), "{}", d.help);
    assert!(d.help.contains("operand_ids=true"), "{}", d.help);
    // One-call semantics publish one record per instruction for the external
    // consumer; no static waste claim is possible.
    assert!(pass_over_detail(&isa, &bs("one-all", Semantic::One, Visibility::ALL)).is_empty());
}

// ---------------------------------------------------------------- LIS004

#[test]
fn lis004_visibility_outside_lattice() {
    let isa = fixture(LOAD_ONLY);
    let rogue =
        bs("rogue", Semantic::One, Visibility { fields: FieldSet(1 << 40), operand_ids: true });
    let diags = pass_derivability(&isa, &rogue);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, LIS004);
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("bit 40"), "{}", diags[0].message);
}

#[test]
fn lis004_undeclared_slot_warns() {
    let isa = fixture(LOAD_ONLY);
    // Slot 20 is representable (< MAX_FIELDS) but this ISA declares no
    // ISA-specific fields, so a custom mask naming it is suspicious.
    let odd = bs("odd", Semantic::One, Visibility { fields: FieldSet(1 << 20), operand_ids: true });
    let diags = pass_derivability(&isa, &odd);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, LIS004);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("f20"), "{}", diags[0].message);
    // The ALL preset deliberately covers every representable slot: exempt.
    assert!(pass_derivability(&isa, &bs("all", Semantic::One, Visibility::ALL)).is_empty());
}

// ---------------------------------------------------------------- LIS005

const NO_EXC_SYSCALL: &[InstDef] = &[inst("sys", InstClass::Syscall, 1, StepActions::NONE, &[])];

const BACKWARDS: &[Flow] = &[flow(FlowItem::Field(F_ALU_OUT), Step::Memory, Step::Evaluate)];
const BACKWARDS_FLOW: &[InstDef] = &[inst("bad", InstClass::Alu, 1, StepActions::NONE, BACKWARDS)];

const DEAD_STEP: &[InstDef] = &[inst(
    "aluwr",
    InstClass::Alu,
    1,
    StepActions { memory: Some(act), ..StepActions::NONE },
    &[],
)];

const UNDECLARED: &[Flow] = &[flow(FlowItem::Field(FieldId(20)), Step::Decode, Step::Evaluate)];
const UNDECLARED_FLOW: &[InstDef] =
    &[inst("odd", InstClass::Alu, 1, StepActions::NONE, UNDECLARED)];

const GPR: RegClass = RegClass(0);
const TWO_SRC: &[OperandSpec] = &[
    OperandSpec { name: "ra", dir: OperandDir::Src, class: GPR },
    OperandSpec { name: "rb", dir: OperandDir::Src, class: GPR },
];

#[test]
fn lis005_syscall_without_exception_action() {
    let diags = pass_isa(&fixture(NO_EXC_SYSCALL));
    let d = diags
        .iter()
        .find(|d| d.step == Some(Step::Exception))
        .expect("missing-exception diagnostic");
    assert_eq!(d.code, LIS005);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("never be emulated"), "{}", d.message);
}

#[test]
fn lis005_backwards_flow() {
    let diags = pass_isa(&fixture(BACKWARDS_FLOW));
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error && d.message.contains("backwards")),
        "{diags:?}"
    );
}

#[test]
fn lis005_dead_step_warns() {
    let diags = pass_isa(&fixture(DEAD_STEP));
    let d = diags
        .iter()
        .find(|d| d.message.contains("no dataflow edge touches"))
        .expect("dead-step diagnostic");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.step, Some(Step::Memory));
}

#[test]
fn lis005_undeclared_field_in_flow_warns() {
    let diags = pass_isa(&fixture(UNDECLARED_FLOW));
    assert!(
        diags.iter().any(|d| d.severity == Severity::Warning && d.message.contains("f20")),
        "{diags:?}"
    );
}

#[test]
fn lis005_operand_count_exceeds_flow_coverage() {
    // A jump carries one source value in its dataflow; declaring two source
    // operands means one can never cross a step boundary.
    static JUMP2: &[InstDef] = &[InstDef {
        name: "j2",
        class: InstClass::Jump,
        mask: 0xff00_0000,
        bits: 0x0100_0000,
        operands: TWO_SRC,
        actions: StepActions::NONE,
        syntax: &[],
        extra_flows: &[],
    }];
    let diags = pass_isa(&fixture(JUMP2));
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error
            && d.message.contains("2 source operands")
            && d.message.contains("1 source value(s)")),
        "{diags:?}"
    );
}

#[test]
fn lis005_invalid_encoding_via_validate() {
    let diags = pass_isa(&fixture(&[]));
    assert!(
        diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("encoding validation")),
        "{diags:?}"
    );
}

// ----------------------------------- LIS006–LIS010 (translation passes)
//
// Each translation pass gets a real located finding on a *mutated* view of
// a shipped specification: `synthesize_view` produces the honest synthesis
// decisions, `ViewMutation` skews exactly the one decision the pass
// guards, and the matching code — only — must fire with an anchor.

fn mutated_diags(bs_name: &str, m: ViewMutation) -> Vec<Diagnostic> {
    let isa = lis_isa_alpha::spec();
    let cell = lis_core::find_buildset(bs_name).unwrap();
    let view = synthesize_view(isa, cell).mutated(m);
    analyze_translation(isa, cell, &view)
}

#[test]
fn lis006_observed_but_elided_publish() {
    // Claiming elision under a max-detail visibility must produce a located
    // error for every instruction whose chain materializes visible values,
    // plus the copy-drift and operand-id findings at cell level.
    let diags = mutated_diags("block-all", ViewMutation::ElideObservedPublish);
    assert!(diags.iter().all(|d| d.code == LIS006 && d.severity == Severity::Error), "{diags:?}");
    let located = diags.iter().find(|d| d.inst.is_some()).expect("located finding");
    assert!(
        located.message.contains("while the publication walk is elided"),
        "{}",
        located.message
    );
    assert_eq!(located.buildset, Some("block-all"));
    assert!(diags.iter().any(|d| d.message.contains("operand identifiers")), "{diags:?}");
    // The honest view of the same cell is clean.
    assert!(mutated_diags("block-all", ViewMutation::SkewChain).iter().all(|d| d.code != LIS006));
}

#[test]
fn lis007_skewed_backing_mask() {
    let diags = mutated_diags("one-all", ViewMutation::SkewBackingMask);
    assert_eq!(diags.iter().filter(|d| d.code == LIS007).count(), 1, "{diags:?}");
    let d = diags.iter().find(|d| d.code == LIS007).unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.inst.is_some(), "backing finding must be anchored to the lowered instruction");
    assert!(d.message.contains("not covered by its RegBacking"), "{}", d.message);
}

#[test]
fn lis008_both_directions() {
    // Direction 1: a speculative cell whose specialized writeback lost its
    // undo capture.
    let diags = mutated_diags("one-all-spec", ViewMutation::StripUndoCapture);
    let d = diags.iter().find(|d| d.code == LIS008).expect("lost-capture finding");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.inst.is_some());
    assert_eq!(d.step, Some(Step::Writeback));
    assert!(d.message.contains("UndoRec capture is lost"), "{}", d.message);
    // Direction 2: a non-speculative cell that still wires undo.
    let diags = mutated_diags("one-all", ViewMutation::FlipUndoWiring);
    let d = diags.iter().find(|d| d.code == LIS008).expect("stray-plumbing finding");
    assert!(d.message.contains("retains undo plumbing"), "{}", d.message);
    // And the speculative cell missing its log entirely.
    let diags = mutated_diags("one-all-spec", ViewMutation::FlipUndoWiring);
    assert!(diags.iter().any(|d| d.code == LIS008 && d.message.contains("without an undo log")));
}

#[test]
fn lis009_leaked_chain_boundary() {
    let diags = mutated_diags("block-all", ViewMutation::LeakChainBoundary);
    let hits: Vec<_> = diags.iter().filter(|d| d.code == LIS009).collect();
    assert!(!hits.is_empty(), "{diags:?}");
    // Every control-transfer instruction of the spec is flagged, anchored.
    let n_ctrl = lis_isa_alpha::spec()
        .insts
        .iter()
        .filter(|d| matches!(d.class, InstClass::Branch | InstClass::Jump | InstClass::Syscall))
        .count();
    assert_eq!(hits.len(), n_ctrl);
    assert!(hits.iter().all(|d| d.inst.is_some() && d.severity == Severity::Error));
    assert!(hits[0].message.contains("escape the chain boundary"), "{}", hits[0].message);
}

#[test]
fn lis010_skewed_chain_and_truncated_ladder() {
    let diags = mutated_diags("one-min", ViewMutation::SkewChain);
    let d = diags.iter().find(|d| d.code == LIS010).expect("chain-drift finding");
    assert_eq!(d.inst, Some(lis_isa_alpha::spec().insts[0].name));
    assert!(d.message.contains("not the specification's own flattened chain"), "{}", d.message);

    let diags = mutated_diags("one-min", ViewMutation::TruncateLadder);
    let d = diags.iter().find(|d| d.code == LIS010).expect("ladder finding");
    assert_eq!(d.inst, None);
    assert!(d.message.contains("does not lead from compiled to interpreted"), "{}", d.message);
}

// Pinned renderer output for a translation finding — fully deterministic
// (no instruction anchor, message built only from the mutated ladder).
#[test]
fn translation_finding_render_golden() {
    let diags = mutated_diags("one-min", ViewMutation::TruncateLadder);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        render_text(&diags),
        "LIS010 error [alpha/one-min] demotion ladder `compiled` does not lead from \
         compiled to interpreted\n\
         \x20 = help: every compiled cell needs a reachable Interpreted equivalent so \
         supervision never demotes into a hole\n"
    );
    assert_eq!(
        render_json(&diags),
        "{\"code\":\"LIS010\",\"severity\":\"error\",\"isa\":\"alpha\",\
         \"buildset\":\"one-min\",\"message\":\"demotion ladder `compiled` does not lead \
         from compiled to interpreted\",\"help\":\"every compiled cell needs a reachable \
         Interpreted equivalent so supervision never demotes into a hole\"}\n"
    );
}

#[test]
fn preflight_translation_accepts_honest_views_rejects_mutants() {
    let isa = lis_isa_alpha::spec();
    let cell = lis_core::find_buildset("block-all").unwrap();
    let view = synthesize_view(isa, cell);
    assert!(preflight_translation(isa, cell, &view).is_ok());
    let errs = preflight_translation(isa, cell, &view.mutated(ViewMutation::LeakChainBoundary))
        .unwrap_err();
    assert!(errs.iter().all(|d| d.severity == Severity::Error));
    assert!(errs.iter().any(|d| d.code == LIS009));
}

// ------------------------------------------------- shipped matrix is clean

#[test]
fn shipped_matrix_lints_clean() {
    let isas = [lis_isa_alpha::spec(), lis_isa_arm::spec(), lis_isa_ppc::spec()];
    assert_eq!(STANDARD_BUILDSETS.len(), 12);
    for isa in &isas {
        assert!(
            !has_errors(&analyze_isa(isa)),
            "{}: ISA self-check errors: {:?}",
            isa.name,
            analyze_isa(isa)
        );
        for cell in STANDARD_BUILDSETS.iter() {
            let diags = analyze(isa, cell);
            assert!(!has_errors(&diags), "{}/{}: {:?}", isa.name, cell.name, diags);
            assert!(preflight(isa, cell).is_ok(), "{}/{}", isa.name, cell.name);
            // The translation passes are clean on every honest synthesis.
            let view = synthesize_view(isa, cell);
            let tdiags = analyze_translation(isa, cell, &view);
            assert!(!has_errors(&tdiags), "{}/{}: {:?}", isa.name, cell.name, tdiags);
            assert!(preflight_translation(isa, cell, &view).is_ok(), "{}/{}", isa.name, cell.name);
        }
    }
}

#[test]
fn preflight_rejects_broken_cell_errors_only() {
    let isa = fixture(LOAD_ONLY);
    let cell = bs("step-min", Semantic::Step, Visibility::MIN);
    let errs = preflight(&isa, &cell).unwrap_err();
    assert!(errs.iter().all(|d| d.severity == Severity::Error));
    assert!(errs.iter().any(|d| d.code == LIS001));
    // Warnings (here: LIS003 over-detail on step-all) never block the gate.
    assert!(preflight(&isa, &STEP_ALL).is_ok());
}

// ------------------------------------------------------- renderer goldens

fn sample_diags() -> Vec<Diagnostic> {
    vec![
        Diagnostic {
            code: LIS001,
            severity: Severity::Error,
            isa: "toy",
            buildset: Some("step-min"),
            inst: Some("ld"),
            step: Some(Step::Evaluate),
            message: "field `eff_addr` is hidden".into(),
            help: "publish it".into(),
        },
        Diagnostic {
            code: LIS005,
            severity: Severity::Warning,
            isa: "toy",
            buildset: None,
            inst: None,
            step: None,
            message: "a \"quoted\" note".into(),
            help: "h2".into(),
        },
    ]
}

#[test]
fn render_text_golden() {
    assert_eq!(
        render_text(&sample_diags()),
        "LIS001 error [toy/step-min/ld] field `eff_addr` is hidden\n\
         \x20 = help: publish it\n\
         LIS005 warning [toy] a \"quoted\" note\n\
         \x20 = help: h2\n"
    );
}

#[test]
fn render_json_golden() {
    assert_eq!(
        render_json(&sample_diags()),
        "{\"code\":\"LIS001\",\"severity\":\"error\",\"isa\":\"toy\",\
         \"buildset\":\"step-min\",\"inst\":\"ld\",\"step\":\"evaluate\",\
         \"message\":\"field `eff_addr` is hidden\",\"help\":\"publish it\"}\n\
         {\"code\":\"LIS005\",\"severity\":\"warning\",\"isa\":\"toy\",\
         \"message\":\"a \\\"quoted\\\" note\",\"help\":\"h2\"}\n"
    );
}

#[test]
fn sarif_is_valid_json_with_rules_and_results() {
    let sarif = render_sarif(&sample_diags());
    json_check(&sarif).expect("SARIF output must be valid JSON");
    assert!(sarif.contains("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
    assert!(sarif.contains("\"version\":\"2.1.0\""));
    for code in ["LIS001", "LIS002", "LIS003", "LIS004", "LIS005"] {
        assert!(sarif.contains(&format!("\"id\":\"{code}\"")), "rule {code} missing");
    }
    assert!(sarif.contains("\"ruleId\":\"LIS001\""));
    assert!(sarif.contains("\"level\":\"error\""));
    assert!(sarif.contains("\"fullyQualifiedName\":\"toy/step-min/ld\""));
    // An empty report is still a valid document with all rule metadata.
    let empty = render_sarif(&[]);
    json_check(&empty).expect("empty SARIF must be valid JSON");
    assert!(empty.contains("\"results\":[]"));
}

#[test]
fn json_lines_are_each_valid() {
    let isa = fixture(LOAD_ONLY);
    let cell = bs("step-min", Semantic::Step, Visibility::MIN);
    let out = render_json(&analyze(&isa, &cell));
    assert!(!out.is_empty());
    for line in out.lines() {
        json_check(line).unwrap_or_else(|e| panic!("bad JSON line {line}: {e}"));
    }
}

// A minimal RFC 8259 syntax checker, so "emits valid JSON/SARIF" is an
// actual test rather than a substring hope.
fn json_check(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                string(b, i)?;
                skip_ws(b, i);
                expect(b, i, b':')?;
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    c => return Err(format!("expected , or }} at {i:?}, got {c:?}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    c => return Err(format!("expected , or ] at {i:?}, got {c:?}")),
                }
            }
        }
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *i += 1;
            while *i < b.len()
                && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *i += 1;
            }
            Ok(())
        }
        c => Err(format!("unexpected {c:?} at {i:?}")),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'"')?;
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return Ok(()),
            b'\\' => {
                let esc = b.get(*i).ok_or("eof in escape")?;
                *i += 1;
                match esc {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                    b'u' => {
                        for _ in 0..4 {
                            let h = b.get(*i).ok_or("eof in \\u")?;
                            if !h.is_ascii_hexdigit() {
                                return Err("bad \\u digit".into());
                            }
                            *i += 1;
                        }
                    }
                    _ => return Err(format!("bad escape \\{}", *esc as char)),
                }
            }
            c if c < 0x20 => return Err("raw control char in string".into()),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at {i:?}"))
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*i) == Some(&c) {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected {} at {i:?}", c as char))
    }
}
