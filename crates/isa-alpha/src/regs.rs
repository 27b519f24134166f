//! Alpha register classes and accessors.
//!
//! One register class: 32 64-bit integer registers, with `r31` hardwired to
//! zero (reads return 0, writes are discarded — the accessor enforces this,
//! so no instruction semantics ever special-case it).

use lis_core::{ArchState, RegBacking, RegClass, RegClassDef};

/// The integer register class.
pub const GPR: RegClass = RegClass(0);

fn read_gpr(st: &ArchState, idx: u16) -> u64 {
    if idx == 31 {
        0
    } else {
        st.gpr[idx as usize]
    }
}

fn write_gpr(st: &mut ArchState, idx: u16, val: u64) {
    if idx != 31 {
        st.gpr[idx as usize] = val;
    }
}

/// Register classes of the Alpha description. The backing declares the
/// flat-file mapping (with `r31` as the special zero register) so compiled
/// backends can lower ordinary operands to direct register-file accesses.
pub const REG_CLASSES: &[RegClassDef] = &[RegClassDef {
    name: "gpr",
    count: 32,
    read: read_gpr,
    write: write_gpr,
    backing: Some(RegBacking::Gpr { special: Some(31), write_mask: u64::MAX }),
}];

/// Software register-name aliases, in index order (`$0`..`$31` and `rN` also
/// accepted by the assembler).
pub const REG_NAMES: &[&str] = &[
    "v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5", "fp",
    "a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9", "t10", "t11", "ra", "pv", "at", "gp", "sp",
    "zero",
];

/// A name of at most four bytes packed with its length into one integer,
/// as [`ALIAS_KEYS`] holds the aliases.
const fn alias_key(name: &[u8]) -> Option<u64> {
    if name.len() > 4 {
        return None;
    }
    let mut key = (name.len() as u64) << 32;
    let mut i = 0;
    while i < name.len() {
        key |= (name[i] as u64) << (8 * i);
        i += 1;
    }
    Some(key)
}

/// [`REG_NAMES`], packed: one compare per alias.
const ALIAS_KEYS: [u64; 32] = {
    let mut keys = [0; 32];
    let mut i = 0;
    while i < 32 {
        keys[i] = match alias_key(REG_NAMES[i].as_bytes()) {
            Some(key) => key,
            None => panic!("register aliases fit in four bytes"),
        };
        i += 1;
    }
    keys
};

/// Parses a register name (already lower-cased): `rN`, `$N`, or an alias.
pub fn parse_reg(name: &str) -> Option<u16> {
    if let Some(n) = name.strip_prefix('r').or_else(|| name.strip_prefix('$')) {
        if let Ok(v) = n.parse::<u16>() {
            if v < 32 {
                return Some(v);
            }
        }
    }
    let key = alias_key(name.as_bytes())?;
    ALIAS_KEYS.iter().position(|&k| k == key).map(|i| i as u16)
}

/// The canonical display name for register `idx`.
pub fn reg_name(idx: u16) -> String {
    format!("r{idx}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_mem::Endian;

    #[test]
    fn r31_is_hardwired_zero() {
        let mut st = ArchState::new(Endian::Little);
        (REG_CLASSES[0].write)(&mut st, 31, 0xdead);
        assert_eq!((REG_CLASSES[0].read)(&st, 31), 0);
        (REG_CLASSES[0].write)(&mut st, 5, 0xdead);
        assert_eq!((REG_CLASSES[0].read)(&st, 5), 0xdead);
    }

    #[test]
    fn names_parse() {
        assert_eq!(parse_reg("r0"), Some(0));
        assert_eq!(parse_reg("$17"), Some(17));
        assert_eq!(parse_reg("sp"), Some(30));
        assert_eq!(parse_reg("zero"), Some(31));
        assert_eq!(parse_reg("ra"), Some(26));
        assert_eq!(parse_reg("r32"), None);
        assert_eq!(parse_reg("x1"), None);
        assert_eq!(REG_NAMES.len(), 32);
        for (i, name) in REG_NAMES.iter().enumerate() {
            assert_eq!(parse_reg(name), Some(i as u16), "{name}");
        }
        // An empty name packs like no alias; a longer one is none.
        assert_eq!(parse_reg(""), None);
        assert_eq!(parse_reg("zero0"), None);
        assert_eq!(parse_reg("t1\0"), None);
    }
}
