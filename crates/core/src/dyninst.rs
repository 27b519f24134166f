//! The published dynamic-instruction record.
//!
//! [`DynInst`] is the data structure the timing simulator sees (the paper's
//! `dynamic_instr` in Figure 2). Which of its slots are filled depends
//! entirely on the active buildset's visibility: hidden fields are never
//! copied out of the working frame, so low-informational-detail interfaces
//! pay for exactly what they expose.

use crate::exec::InstHeader;
use crate::fault::Fault;
use crate::field::{FieldId, FieldSet, MAX_FIELDS};
use crate::frame::Frame;
use crate::operand::Operands;

/// Information about one executed dynamic instruction, as exposed through
/// the functional-to-timing interface.
///
/// The header (PC, raw bits, next PC) and fault slot are always published —
/// they are the paper's `Min` informational level, the minimum needed to
/// control the simulator. Everything else is masked by the buildset.
#[derive(Debug, Clone, Copy)]
pub struct DynInst {
    /// Always-published header.
    pub header: InstHeader,
    /// Fault raised by this instruction, if any.
    pub fault: Option<Fault>,
    /// Published field values (only slots in `fields_valid` are meaningful).
    fields: [u64; MAX_FIELDS],
    /// Which fields were published.
    fields_valid: FieldSet,
    /// Decoded operand identifiers, when the interface exposes them.
    ops: Operands,
    /// Whether `ops` was published.
    ops_valid: bool,
}

impl Default for DynInst {
    fn default() -> Self {
        Self::new()
    }
}

impl DynInst {
    /// Creates an empty record.
    pub fn new() -> DynInst {
        DynInst {
            header: InstHeader::default(),
            fault: None,
            fields: [0; MAX_FIELDS],
            fields_valid: FieldSet::EMPTY,
            ops: Operands::new(),
            ops_valid: false,
        }
    }

    /// Clears the record for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.header = InstHeader::default();
        self.fault = None;
        self.fields_valid = FieldSet::EMPTY;
        self.ops_valid = false;
    }

    /// Reads a published field.
    ///
    /// Returns `None` when the field was not visible in the interface that
    /// produced this record *or* was never computed — the timing simulator
    /// cannot tell the difference, by design.
    #[inline]
    pub fn field(&self, id: FieldId) -> Option<u64> {
        self.fields_valid.contains(id).then(|| self.fields[id.index()])
    }

    /// The set of published fields.
    #[inline]
    pub fn fields_valid(&self) -> FieldSet {
        self.fields_valid
    }

    /// The published operand identifiers, if the interface exposed them.
    #[inline]
    pub fn operands(&self) -> Option<&Operands> {
        self.ops_valid.then_some(&self.ops)
    }

    /// Publishes a header-only record: the `Min` fast path. Equivalent to
    /// [`DynInst::publish`] with an empty visibility mask (the field and
    /// operand slots are marked invalid, nothing is copied), so backends
    /// whose buildset hides everything can skip the mask walk.
    #[inline]
    pub fn publish_header(&mut self, header: InstHeader, fault: Option<Fault>) {
        self.header = header;
        self.fault = fault;
        self.fields_valid = FieldSet::EMPTY;
        self.ops_valid = false;
    }

    /// Publishes the working frame into this record under a visibility mask.
    ///
    /// Copies exactly the fields that are both *computed* and *visible*;
    /// everything else stays in the frame. This is the single point where
    /// informational detail costs time, which is what makes low-detail
    /// interfaces fast.
    #[inline]
    pub fn publish(&mut self, frame: &Frame, visible: FieldSet, ops: &Operands, ops_visible: bool) {
        let mask = FieldSet(frame.valid().0 & visible.0);
        self.fields_valid = mask;
        for id in mask.iter() {
            self.fields[id.index()] = frame.raw(id.index());
        }
        if ops_visible {
            self.ops = *ops;
            self.ops_valid = true;
        }
    }

    /// Publishes one field value: a decoder filling the record without a
    /// working frame calls this after [`DynInst::publish_header`].
    #[inline]
    pub fn set_field(&mut self, id: FieldId, v: u64) {
        self.fields[id.index()] = v;
        self.fields_valid = self.fields_valid.with(id);
    }

    /// Publishes the operand identifiers, or marks them unpublished.
    #[inline]
    pub fn set_operands(&mut self, ops: Option<Operands>) {
        if let Some(ops) = ops {
            self.ops = ops;
        }
        self.ops_valid = ops.is_some();
    }

    /// Reloads the published fields back into a working frame — used at
    /// step-level call boundaries, where the record is the only channel
    /// carrying values between interface calls.
    #[inline]
    pub fn reload(&self, frame: &mut Frame, ops: &mut Operands) {
        frame.clear();
        for id in self.fields_valid.iter() {
            frame.set(id, self.fields[id.index()]);
        }
        if self.ops_valid {
            *ops = self.ops;
        } else {
            ops.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{F_EFF_ADDR, F_SRC1, F_SRC2};
    use crate::operand::RegClass;

    #[test]
    fn publish_masks_hidden_fields() {
        let mut frame = Frame::new();
        frame.set(F_SRC1, 11);
        frame.set(F_EFF_ADDR, 0x2000);
        let ops = Operands::new();
        let mut di = DynInst::new();
        di.publish(&frame, FieldSet::of(&[F_EFF_ADDR]), &ops, false);
        assert_eq!(di.field(F_EFF_ADDR), Some(0x2000));
        assert_eq!(di.field(F_SRC1), None);
        assert!(di.operands().is_none());
    }

    #[test]
    fn publish_skips_uncomputed_fields() {
        let frame = Frame::new();
        let ops = Operands::new();
        let mut di = DynInst::new();
        di.publish(&frame, FieldSet::ALL, &ops, true);
        assert!(di.fields_valid().is_empty());
        assert!(di.operands().is_some());
    }

    #[test]
    fn reload_round_trips() {
        let mut frame = Frame::new();
        frame.set(F_SRC1, 1);
        frame.set(F_SRC2, 2);
        let mut ops = Operands::new();
        ops.push_src(RegClass(0), 9);
        let mut di = DynInst::new();
        di.publish(&frame, FieldSet::ALL, &ops, true);

        let mut frame2 = Frame::new();
        let mut ops2 = Operands::new();
        di.reload(&mut frame2, &mut ops2);
        assert_eq!(frame2.get(F_SRC1), 1);
        assert_eq!(frame2.get(F_SRC2), 2);
        assert_eq!(ops2.srcs()[0].index, 9);
    }

    #[test]
    fn reload_without_ops_clears_ops() {
        let frame = Frame::new();
        let ops = Operands::new();
        let mut di = DynInst::new();
        di.publish(&frame, FieldSet::EMPTY, &ops, false);
        let mut frame2 = Frame::new();
        let mut ops2 = Operands::new();
        ops2.push_src(RegClass(0), 1);
        di.reload(&mut frame2, &mut ops2);
        assert_eq!(ops2.n_srcs(), 0);
    }

    #[test]
    fn set_field_and_operands_publish_like_a_frame() {
        let mut frame = Frame::new();
        frame.set(F_EFF_ADDR, 0x2000);
        let mut ops = Operands::new();
        ops.push_dest(RegClass(0), 4);
        let mut published = DynInst::new();
        published.publish(&frame, FieldSet::ALL, &ops, true);

        let mut di = DynInst::new();
        di.publish_header(InstHeader::default(), None);
        di.set_field(F_EFF_ADDR, 0x2000);
        di.set_operands(Some(ops));
        assert_eq!(di.fields_valid(), published.fields_valid());
        assert_eq!(di.field(F_EFF_ADDR), Some(0x2000));
        assert_eq!(di.operands(), published.operands());
        di.set_operands(None);
        assert!(di.operands().is_none());
    }

    #[test]
    fn clear_resets() {
        let mut di = DynInst::new();
        di.fault = Some(Fault::ArithOverflow);
        di.header.pc = 0x100;
        di.clear();
        assert!(di.fault.is_none());
        assert_eq!(di.header.pc, 0);
    }
}
