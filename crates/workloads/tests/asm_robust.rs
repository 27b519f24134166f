//! The assemblers reject what they cannot encode, and never panic.
//!
//! `asm_reject.txt` lists, per ISA, lines each assembler must reject, and
//! `asm_reject_errors.txt` pins the full error text of each rejection.
//! Regenerate the latter (only for an intended change to a message) with
//! `cargo test -p lis-workloads --test asm_robust -- --ignored`. The
//! property tests throw every mnemonic an assembler knows — each `INSTS`
//! name with its suffix variants, and each pseudo-instruction — at it with
//! zero to five operands of every shape, and require an answer (`Ok` or
//! `Err`), never a panic.

use lis_workloads::{assemble_source, spec_of, ISAS};
use proptest::prelude::*;

/// `(isa, line)` for every line of `asm_reject.txt`.
fn corpus() -> Vec<(&'static str, &'static str)> {
    let mut isa = "";
    let mut out = Vec::new();
    for line in include_str!("asm_reject.txt").lines() {
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            isa = ISAS.into_iter().find(|i| *i == name).expect("a known ISA header");
        } else if !line.is_empty() && !line.starts_with('#') {
            out.push((isa, line));
        }
    }
    out
}

#[test]
fn corpus_lines_are_rejected_on_their_own_line() {
    let lines = corpus();
    for isa in ISAS {
        assert!(lines.iter().filter(|(i, _)| *i == isa).count() > 20, "{isa} corpus");
    }
    for (isa, line) in lines {
        let src = format!("x: nop\n{line}\nnop\n");
        match assemble_source(isa, &src) {
            Ok(_) => panic!("{isa}: `{line}` assembled"),
            Err(e) => assert_eq!(e.line, 2, "{isa}: `{line}`: {e}"),
        }
    }
}

/// One line per corpus line: the ISA, the line, and the error it gets.
fn render_errors() -> String {
    let mut out = String::new();
    for (isa, line) in corpus() {
        let src = format!("x: nop\n{line}\nnop\n");
        let err = assemble_source(isa, &src).err().map_or("assembled".into(), |e| e.to_string());
        out.push_str(&format!("{isa} | {line} | {err}\n"));
    }
    out
}

fn errors_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/asm_reject_errors.txt")
}

#[test]
fn corpus_error_texts_match_golden() {
    let want = std::fs::read_to_string(errors_path()).expect("asm_reject_errors.txt is committed");
    let got = render_errors();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "asm_reject_errors.txt line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "asm_reject_errors.txt line count");
}

#[test]
#[ignore = "rewrites tests/asm_reject_errors.txt; run only for an intended message change"]
fn regenerate_error_golden() {
    std::fs::write(errors_path(), render_errors()).expect("asm_reject_errors.txt is writable");
}

/// Pseudo-instructions per ISA (the assemblers' only hand-written names).
fn pseudos(isa: &str) -> &'static [&'static str] {
    match isa {
        "alpha" => &["nop", "unop", "mov", "clr", "negq", "ret", "jsr"],
        "arm" => &["nop", "nopeq", "nops"],
        _ => &[
            "li", "lis", "la", "subi", "mr", "mr.", "not", "not.", "slwi", "srwi.", "nop", "blr",
            "blrl", "bctr", "bctrl", "bdnz", "bdz", "mflr", "mtctr", "mfxer", "beq", "bns", "li.",
        ],
    }
}

/// Suffixes appended to every `INSTS` name.
fn suffixes(isa: &str) -> &'static [&'static str] {
    match isa {
        "alpha" => &["", "."],
        "arm" => &["", "eq", "s", "eqs", "al", "hs", "nv", "b"],
        _ => &["", ".", "l", ".l"],
    }
}

/// Every mnemonic the property test draws from.
fn mnemonics(isa: &str) -> Vec<String> {
    let names = spec_of(isa).insts.iter().map(|d| d.name);
    let mut out: Vec<String> =
        names.flat_map(|n| suffixes(isa).iter().map(move |s| format!("{n}{s}"))).collect();
    out.extend(pseudos(isa).iter().map(|p| p.to_string()));
    out
}

/// One operand of every shape the operand parser produces: registers,
/// immediates, labels, `disp(base)`, bracketed memory, and shift pairs,
/// plus the two constant expressions whose 64-bit result overflows.
const OPERANDS: &[&str] = &[
    "r0",
    "r1",
    "r31",
    "sp",
    "lr",
    "pc",
    "zero",
    "cr1",
    "cr7",
    "0",
    "7",
    "-1",
    "255",
    "256",
    "4095",
    "32768",
    "-32769",
    "0x1000001",
    "#4",
    "#-4",
    "#0x101",
    "x",
    "x+4",
    "x+2",
    "8(r2)",
    "(r1)",
    "-4(sp)",
    "0(r0)",
    "99999(r2)",
    "[r1]",
    "[r1, #4]!",
    "[r1, r2, lsl #2]",
    "[r1, -4]",
    "[r1, r2, r3, r4]",
    "[pc]",
    "lsl #2",
    "asr r3",
    "ror #40",
    "lsr #32",
    "0x8000000000000000 / -1",
    "#0x8000000000000000 % -1",
];

/// Assembles `mn` with the operands `ops` indexes; `Ok` and `Err` are both
/// answers, a panic is not.
fn answers(isa: &str, mn: &str, ops: &[usize]) -> Result<(), TestCaseError> {
    let ops: Vec<&str> = ops.iter().map(|&i| OPERANDS[i]).collect();
    let src = format!("x: {mn} {}\n", ops.join(", "));
    let run = std::panic::catch_unwind(|| assemble_source(isa, &src).map(|_| ()));
    prop_assert!(run.is_ok(), "{isa}: `{}` panicked", src.trim_end());
    Ok(())
}

fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(3000)
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn alpha_assembler_never_panics(
        mn in proptest::sample::select(mnemonics("alpha")),
        ops in proptest::collection::vec(0..OPERANDS.len(), 0..6),
    ) {
        answers("alpha", &mn, &ops)?;
    }

    #[test]
    fn arm_assembler_never_panics(
        mn in proptest::sample::select(mnemonics("arm")),
        ops in proptest::collection::vec(0..OPERANDS.len(), 0..6),
    ) {
        answers("arm", &mn, &ops)?;
    }

    #[test]
    fn ppc_assembler_never_panics(
        mn in proptest::sample::select(mnemonics("ppc")),
        ops in proptest::collection::vec(0..OPERANDS.len(), 0..6),
    ) {
        answers("ppc", &mn, &ops)?;
    }
}
