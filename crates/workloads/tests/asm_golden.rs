//! Pins the assemblers' and disassemblers' output.
//!
//! For every suite kernel this records the assembled image's
//! [`Image::content_hash`], a hash of its disassembly listing (one line per
//! `.text` word, in the format `lis disasm` prints) and a hash of its symbol
//! table. For fifty generated programs per ISA it records the image and
//! symbol hashes. A change to an assembler or a disassembler that is meant
//! to be behavior-preserving must leave the committed `asm_golden.txt`
//! unchanged.
//!
//! Regenerate the file (only for an intended encoding or syntax change) with
//! `cargo test -p lis-workloads --test asm_golden -- --ignored`.

use lis_mem::{Endian, FxHasher, Image};
use lis_workloads::{assemble_source, gen, spec_of, suite_of, ISAS};
use std::fmt::Write as _;
use std::hash::Hasher as _;

const SEEDS: u64 = 50;
const GEN_LEN: usize = 2000;

/// The `.text` listing of `image`, one `lis disasm` line per word.
fn listing(isa: &str, image: &Image) -> String {
    let spec = spec_of(isa);
    let mut out = String::new();
    for sec in image.sections.iter().filter(|s| s.name == ".text") {
        for (i, chunk) in sec.bytes.chunks_exact(4).enumerate() {
            let pc = sec.addr + 4 * i as u64;
            let bytes: [u8; 4] = chunk.try_into().unwrap();
            let word = match spec.endian {
                Endian::Big => u32::from_be_bytes(bytes),
                Endian::Little => u32::from_le_bytes(bytes),
            };
            writeln!(out, "{pc:#010x}: {word:08x}  {}", (spec.disasm)(word, pc)).unwrap();
        }
    }
    out
}

fn hash(text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// A hash of `image`'s symbols as sorted `name=addr` lines:
/// [`Image::content_hash`] leaves them out.
fn symbols(image: &Image) -> u64 {
    let mut syms: Vec<_> = image.symbols.iter().collect();
    syms.sort();
    hash(&syms.iter().map(|(name, addr)| format!("{name}={addr:#x}\n")).collect::<String>())
}

/// One line per suite kernel, then one per generated program.
fn render() -> String {
    let mut out = String::new();
    for isa in ISAS {
        for w in suite_of(isa) {
            let image = w.assemble().expect("suite kernel assembles");
            let text = listing(isa, &image);
            writeln!(
                out,
                "kernel {isa} {} image={:016x} listing={:016x} words={} symbols={:016x}",
                w.name,
                image.content_hash(),
                hash(&text),
                text.lines().count(),
                symbols(&image)
            )
            .unwrap();
        }
    }
    for isa in ISAS {
        for seed in 0..SEEDS {
            let src = gen::random_program(isa, seed, GEN_LEN);
            let image = assemble_source(isa, &src).expect("generated program assembles");
            let (image_hash, syms) = (image.content_hash(), symbols(&image));
            writeln!(out, "random {isa} {seed} image={image_hash:016x} symbols={syms:016x}")
                .unwrap();
        }
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/asm_golden.txt")
}

#[test]
fn assembly_and_disassembly_match_golden() {
    let want = std::fs::read_to_string(golden_path()).expect("asm_golden.txt is committed");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "asm_golden.txt line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "asm_golden.txt line count");
}

#[test]
#[ignore = "rewrites tests/asm_golden.txt; run only for an intended encoding change"]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).expect("asm_golden.txt is writable");
}
