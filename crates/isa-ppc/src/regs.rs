//! PowerPC register classes and accessors.

use lis_core::{ArchState, RegBacking, RegClass, RegClassDef};

/// General-purpose registers (`r0`..`r31`).
pub const GPR: RegClass = RegClass(0);
/// The condition register (eight 4-bit fields).
pub const CR: RegClass = RegClass(1);
/// The link register.
pub const LR: RegClass = RegClass(2);
/// The count register.
pub const CTR: RegClass = RegClass(3);
/// The fixed-point exception register (CA bit used here).
pub const XER: RegClass = RegClass(4);

/// XER carry bit.
pub const XER_CA: u64 = 1 << 29;

fn read_gpr(st: &ArchState, idx: u16) -> u64 {
    st.gpr[idx as usize]
}

fn write_gpr(st: &mut ArchState, idx: u16, val: u64) {
    st.gpr[idx as usize] = val & 0xffff_ffff;
}

macro_rules! spr_class {
    ($read:ident, $write:ident, $slot:expr) => {
        fn $read(st: &ArchState, _idx: u16) -> u64 {
            st.spr[$slot]
        }
        fn $write(st: &mut ArchState, _idx: u16, val: u64) {
            st.spr[$slot] = val & 0xffff_ffff;
        }
    };
}

spr_class!(read_cr, write_cr, 0);
spr_class!(read_xer, write_xer, 1);
spr_class!(read_lr, write_lr, 2);
spr_class!(read_ctr, write_ctr, 3);

/// Register classes of the PowerPC description. Backings declare the
/// flat-file mapping (slot numbers match the `spr_class!` expansions above)
/// so compiled backends can lower ordinary operands to direct accesses.
pub const REG_CLASSES: &[RegClassDef] = &[
    RegClassDef {
        name: "gpr",
        count: 32,
        read: read_gpr,
        write: write_gpr,
        backing: Some(RegBacking::Gpr { special: None, write_mask: 0xffff_ffff }),
    },
    RegClassDef {
        name: "cr",
        count: 1,
        read: read_cr,
        write: write_cr,
        backing: Some(RegBacking::Spr { slot: 0, write_mask: 0xffff_ffff }),
    },
    RegClassDef {
        name: "lr",
        count: 1,
        read: read_lr,
        write: write_lr,
        backing: Some(RegBacking::Spr { slot: 2, write_mask: 0xffff_ffff }),
    },
    RegClassDef {
        name: "ctr",
        count: 1,
        read: read_ctr,
        write: write_ctr,
        backing: Some(RegBacking::Spr { slot: 3, write_mask: 0xffff_ffff }),
    },
    RegClassDef {
        name: "xer",
        count: 1,
        read: read_xer,
        write: write_xer,
        backing: Some(RegBacking::Spr { slot: 1, write_mask: 0xffff_ffff }),
    },
];

/// The special-purpose registers `mfspr`/`mtspr` reach: name, SPR number,
/// and register class.
pub const SPRS: &[(&str, u16, RegClass)] = &[("xer", 1, XER), ("lr", 8, LR), ("ctr", 9, CTR)];

/// Parses a general-register name (already lower-cased): `rN` or `sp`.
pub fn parse_reg(name: &str) -> Option<u16> {
    if name == "sp" {
        return Some(1);
    }
    let n = name.strip_prefix('r')?;
    let v = n.parse::<u16>().ok()?;
    (v < 32).then_some(v)
}

/// Parses a condition-register field name `cr0`..`cr7`.
pub fn parse_crf(name: &str) -> Option<u16> {
    let n = name.strip_prefix("cr")?;
    let v = n.parse::<u16>().ok()?;
    (v < 8).then_some(v)
}

/// Canonical display name.
pub fn reg_name(idx: u16) -> String {
    format!("r{idx}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_mem::Endian;

    #[test]
    fn gprs_are_32_bit() {
        let mut st = ArchState::new(Endian::Big);
        write_gpr(&mut st, 3, 0xf_0000_0001);
        assert_eq!(read_gpr(&st, 3), 1);
    }

    #[test]
    fn spr_slots_are_distinct() {
        let mut st = ArchState::new(Endian::Big);
        write_cr(&mut st, 0, 1);
        write_xer(&mut st, 0, 2);
        write_lr(&mut st, 0, 3);
        write_ctr(&mut st, 0, 4);
        assert_eq!(
            (read_cr(&st, 0), read_xer(&st, 0), read_lr(&st, 0), read_ctr(&st, 0)),
            (1, 2, 3, 4)
        );
    }

    #[test]
    fn names() {
        assert_eq!(parse_reg("r31"), Some(31));
        assert_eq!(parse_reg("sp"), Some(1));
        assert_eq!(parse_reg("r32"), None);
        assert_eq!(parse_crf("cr7"), Some(7));
        assert_eq!(parse_crf("cr8"), None);
        assert_eq!(parse_crf("r1"), None);
    }
}
