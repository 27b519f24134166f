//! A dense register scoreboard shared by the timing consumers.
//!
//! Every consumer that tracks register dependences asks one question per
//! operand: at which cycle does this register's value become available?
//! The answer lives in one flat array, one slot per architectural register,
//! laid out class after class at offsets taken from
//! [`IsaSpec::reg_classes`] — the shipped ISAs need at most 36 slots — so a
//! lookup is an index, not a hash.

use lis_core::{IsaSpec, OperandRef};

/// Cycle at which each architectural register's value becomes available.
///
/// A register never written reads 0: it is ready from the start. An operand
/// outside the ISA's register file — a class past the last one, or an index
/// at or past its class's count — reads as ready, and a write to it is
/// dropped. A hostile or projected record therefore degrades; it never
/// panics and never aliases another register.
#[derive(Debug, Clone)]
pub(crate) struct Scoreboard {
    /// Per class: its first slot in `ready` and its register count.
    classes: Box<[(usize, u16)]>,
    ready: Box<[u64]>,
}

impl Scoreboard {
    /// An all-ready scoreboard covering every register class of `isa`.
    pub(crate) fn new(isa: &IsaSpec) -> Scoreboard {
        let mut slots = 0;
        let classes = isa
            .reg_classes
            .iter()
            .map(|c| {
                let base = slots;
                slots += usize::from(c.count);
                (base, c.count)
            })
            .collect();
        Scoreboard { classes, ready: vec![0; slots].into_boxed_slice() }
    }

    #[inline]
    fn slot(&self, r: OperandRef) -> Option<usize> {
        let &(base, count) = self.classes.get(usize::from(r.class))?;
        (r.index < count).then(|| base + usize::from(r.index))
    }

    /// The cycle at which `r` is ready (0 if never written or out of range).
    #[inline]
    pub(crate) fn get(&self, r: OperandRef) -> u64 {
        self.slot(r).map_or(0, |i| self.ready[i])
    }

    /// Records that `r` becomes ready at `cycle`; dropped if `r` is out of
    /// range.
    #[inline]
    pub(crate) fn set(&mut self, r: OperandRef, cycle: u64) {
        if let Some(i) = self.slot(r) {
            self.ready[i] = cycle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isas() -> [&'static IsaSpec; 4] {
        [lis_runtime::toy::spec(), lis_isa_alpha::spec(), lis_isa_arm::spec(), lis_isa_ppc::spec()]
    }

    /// Every in-range register of `isa`, class by class.
    fn in_range(isa: &IsaSpec) -> Vec<OperandRef> {
        (0..isa.reg_classes.len())
            .flat_map(|c| {
                (0..isa.reg_classes[c].count).map(move |i| OperandRef { class: c as u8, index: i })
            })
            .collect()
    }

    #[test]
    fn registers_are_distinct_and_start_ready() {
        for isa in isas() {
            let mut sb = Scoreboard::new(isa);
            let regs = in_range(isa);
            assert!(regs.len() <= 36, "{}: {} slots", isa.name, regs.len());
            assert!(regs.iter().all(|&r| sb.get(r) == 0), "{}: never written reads 0", isa.name);
            for (n, &r) in regs.iter().enumerate() {
                sb.set(r, 100 + n as u64);
            }
            for (n, &r) in regs.iter().enumerate() {
                assert_eq!(sb.get(r), 100 + n as u64, "{}: {r:?} aliases", isa.name);
            }
        }
    }

    #[test]
    fn out_of_range_registers_read_ready_and_never_panic() {
        for isa in isas() {
            let sb = Scoreboard::new(isa);
            let classes = isa.reg_classes.len() as u8;
            for class in [classes, classes.saturating_add(1), u8::MAX] {
                for index in [0, 1, u16::MAX] {
                    assert_eq!(sb.get(OperandRef { class, index }), 0, "{}", isa.name);
                }
            }
            for (c, def) in isa.reg_classes.iter().enumerate() {
                for index in [def.count, def.count.saturating_add(1), u16::MAX] {
                    assert_eq!(sb.get(OperandRef { class: c as u8, index }), 0, "{}", isa.name);
                }
            }
        }
    }

    #[test]
    fn out_of_range_writes_leave_every_register_unchanged() {
        for isa in isas() {
            let mut sb = Scoreboard::new(isa);
            let regs = in_range(isa);
            for (n, &r) in regs.iter().enumerate() {
                sb.set(r, 7 + n as u64);
            }
            let before: Vec<u64> = regs.iter().map(|&r| sb.get(r)).collect();
            let classes = isa.reg_classes.len() as u8;
            // One past each class's last register (which a flat layout
            // would alias to the next class's first), and classes past the
            // last one.
            for (c, def) in isa.reg_classes.iter().enumerate() {
                sb.set(OperandRef { class: c as u8, index: def.count }, 9_999);
                sb.set(OperandRef { class: c as u8, index: u16::MAX }, 9_999);
            }
            for class in [classes, u8::MAX] {
                sb.set(OperandRef { class, index: 0 }, 9_999);
                assert_eq!(sb.get(OperandRef { class, index: 0 }), 0, "write was dropped");
            }
            let after: Vec<u64> = regs.iter().map(|&r| sb.get(r)).collect();
            assert_eq!(before, after, "{}: an out-of-range write changed a register", isa.name);
        }
    }
}
