//! Every `INSTS` entry assembles under its own name, by its own syntax.
//!
//! For each entry of each ISA's instruction table, the property tests build
//! a line from the entry's declared syntax with random in-range operands,
//! assemble it, and require that the word decodes to that entry and that the
//! disassembler prints the line back. Custom operands (ARM's shifter and
//! addressing modes, PowerPC's CR field and SPR number) are generated per
//! ISA; the SPR is the one operand that prints differently from how it is
//! written, inside the mnemonic (`mfspr r3, 8` prints as `mflr r3`).

use lis_core::{InstDef, Slot};
use lis_workloads::{assemble_source, spec_of};
use proptest::prelude::*;

const PC: u64 = 0x1000;

/// A small deterministic generator seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// An instruction line under construction: what to assemble and what the
/// disassembler must print.
#[derive(Default)]
struct Text {
    mn_in: String,
    mn_out: String,
    ops_in: Vec<String>,
    ops_out: Vec<String>,
}

impl Text {
    fn both(&mut self, op: String) {
        self.ops_in.push(op.clone());
        self.ops_out.push(op);
    }

    fn lines(&self) -> (String, String) {
        let join = |mn: &str, ops: &[String]| {
            if ops.is_empty() {
                mn.to_string()
            } else {
                format!("{mn} {}", ops.join(", "))
            }
        };
        (join(&self.mn_in, &self.ops_in), join(&self.mn_out, &self.ops_out))
    }
}

fn reg_name(isa: &str, n: u64) -> String {
    match isa {
        "alpha" => lis_isa_alpha::regs::reg_name(n as u16),
        "arm" => lis_isa_arm::regs::reg_name(n as u16),
        _ => lis_isa_ppc::regs::reg_name(n as u16),
    }
}

fn signed(g: &mut Gen, width: u8) -> i64 {
    let half = 1i64 << (width - 1);
    g.range(-half, half - 1)
}

/// ARM's custom operands.
fn arm_custom(kind: u8, g: &mut Gen, t: &mut Text) {
    use lis_isa_arm::semantics::{ADDR, ADDR_H, MOVE_RD, SHIFTER};
    let reg = |g: &mut Gen| reg_name("arm", g.below(16));
    let shift = |g: &mut Gen| ["lsl", "lsr", "asr", "ror"][g.below(4) as usize];
    match kind {
        SHIFTER => match g.below(4) {
            0 => {
                let value = (g.below(256) as u32).rotate_right(2 * g.below(16) as u32);
                t.both(format!("#{value}"));
            }
            1 => t.both(reg(g)),
            2 => {
                let rm = reg(g);
                t.both(rm);
                t.both(format!("{} #{}", shift(g), g.range(1, 31)));
            }
            _ => {
                let rm = reg(g);
                t.both(rm);
                let rs = reg(g);
                t.both(format!("{} {rs}", shift(g)));
            }
        },
        MOVE_RD => t.both(reg_name("arm", g.below(15))),
        ADDR | ADDR_H => {
            let rn = reg(g);
            let limit = if kind == ADDR_H { 255 } else { 4095 };
            let off = g.range(-limit, limit);
            let imm = if off < 0 { format!("#-{}", -off) } else { format!("#{off}") };
            let rm = reg(g);
            let offset = match g.below(3) {
                0 => imm,
                1 if kind == ADDR => format!("{rm}, {} #{}", shift(g), g.range(1, 31)),
                _ => rm,
            };
            if g.coin() {
                let wb = if g.coin() { "!" } else { "" };
                t.both(format!("[{rn}, {offset}]{wb}"));
            } else if offset.contains(',') {
                t.both(format!("[{rn}]"));
                t.both(reg(g));
            } else {
                t.both(format!("[{rn}]"));
                t.both(offset);
            }
        }
        _ => unreachable!("ARM custom slot {kind}"),
    }
}

/// PowerPC's custom operands.
fn ppc_custom(kind: u8, g: &mut Gen, t: &mut Text) {
    use lis_isa_ppc::regs::SPRS;
    use lis_isa_ppc::semantics::{CR_FIELD, SPR};
    match kind {
        CR_FIELD => t.both(format!("cr{}", g.below(8))),
        SPR => {
            let n = if g.coin() { SPRS[g.below(3) as usize].1 as u64 } else { g.below(1024) };
            t.ops_in.push(n.to_string());
            match SPRS.iter().find(|spr| u64::from(spr.1) == n) {
                Some(spr) => t.mn_out = t.mn_out.replace("spr", spr.0),
                None => t.ops_out.push(n.to_string()),
            }
        }
        _ => unreachable!("PowerPC custom slot {kind}"),
    }
}

/// A random line in `def`'s syntax: `(source, expected disassembly)`.
fn random_line(isa: &str, def: &InstDef, g: &mut Gen) -> (String, String) {
    let mut t = Text { mn_in: def.name.into(), mn_out: def.name.into(), ..Text::default() };
    for slot in def.syntax {
        match *slot {
            Slot::Suffix(s) if s.field.mask() & def.mask == 0 => {
                let spellings: Vec<(&str, u32)> = (s.names.iter().enumerate())
                    .map(|(v, n)| (*n, v as u32))
                    .chain(s.aliases.iter().copied())
                    .filter(|&(_, v)| s.print_only & (1 << v) == 0)
                    .collect();
                let (spelling, value) = spellings[g.below(spellings.len() as u64) as usize];
                t.mn_in.push_str(spelling);
                t.mn_out.push_str(s.names[value as usize]);
            }
            Slot::Suffix(_) => {}
            Slot::Reg(f) | Slot::OptReg(f, _) => t.both(reg_name(isa, g.below(f.max() as u64 + 1))),
            Slot::Indirect(f) => {
                t.both(format!("({})", reg_name(isa, g.below(f.max() as u64 + 1))))
            }
            Slot::SImm(f) | Slot::HImm(f) => t.both(signed(g, f.width).to_string()),
            Slot::UImm(f) => t.both(g.below(f.max() as u64 + 1).to_string()),
            Slot::RegOrLit { reg, lit, .. } => {
                let text = if g.coin() {
                    reg_name(isa, g.below(reg.max() as u64 + 1))
                } else {
                    g.below(lit.max() as u64 + 1).to_string()
                };
                t.both(text);
            }
            Slot::Disp { disp, base, zero, update } => {
                let b = loop {
                    let b = g.below(base.max() as u64 + 1);
                    if !update || b != u64::from(zero) {
                        break b;
                    }
                };
                t.both(format!("{}({})", signed(g, disp.width), reg_name(isa, b)));
            }
            Slot::Target { field, scale, bias, .. } => {
                let off = signed(g, field.width) << scale;
                let target = PC.wrapping_add(u64::from(bias)).wrapping_add(off as u64);
                t.both(format!("{target:#x}"));
            }
            Slot::Custom(kind) if isa == "arm" => arm_custom(kind, g, &mut t),
            Slot::Custom(kind) => ppc_custom(kind, g, &mut t),
        }
    }
    t.lines()
}

fn check_entry(isa: &str, idx: usize, seed: u64) -> Result<(), TestCaseError> {
    let spec = spec_of(isa);
    let idx = idx % spec.insts.len();
    let (line, want) = random_line(isa, &spec.insts[idx], &mut Gen(seed));
    let image = assemble_source(isa, &format!("_start: {line}\n"));
    prop_assert!(image.is_ok(), "{isa}: `{line}`: {}", image.unwrap_err());
    let image = image.unwrap();
    let bytes: [u8; 4] = image.sections[0].bytes[0..4].try_into().unwrap();
    let word = match spec.endian {
        lis_mem::Endian::Big => u32::from_be_bytes(bytes),
        lis_mem::Endian::Little => u32::from_le_bytes(bytes),
    };
    prop_assert_eq!(spec.decode(word), Some(idx as u16), "{}: `{}` -> {:#010x}", isa, line, word);
    prop_assert_eq!((spec.disasm)(word, PC), want, "{}: `{}` -> {:#010x}", isa, line, word);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn every_alpha_entry_assembles_by_its_syntax(idx in 0usize..1000, seed in any::<u64>()) {
        check_entry("alpha", idx, seed)?;
    }

    #[test]
    fn every_arm_entry_assembles_by_its_syntax(idx in 0usize..1000, seed in any::<u64>()) {
        check_entry("arm", idx, seed)?;
    }

    #[test]
    fn every_ppc_entry_assembles_by_its_syntax(idx in 0usize..1000, seed in any::<u64>()) {
        check_entry("ppc", idx, seed)?;
    }
}

/// The property above is not vacuous: every entry of every table is drawn.
#[test]
fn every_entry_has_a_line() {
    for isa in lis_workloads::ISAS {
        for (idx, def) in spec_of(isa).insts.iter().enumerate() {
            for seed in 0..8 {
                check_entry(isa, idx, seed).unwrap_or_else(|e| panic!("{}: {e:?}", def.name));
            }
        }
    }
}
