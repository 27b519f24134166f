//! The record wire codec, and the owned record that tests compare.
//!
//! [`encode`] writes one published [`DynInst`]; [`decode`] parses one
//! record straight into a reused [`DynInst`], projecting it to a
//! visibility as it goes. They are the trace's only record codec: the
//! writer, replay and the integrity scan call them directly, and
//! [`TraceRecord`] — the serializable, comparable twin of [`DynInst`] that
//! tests and checkers hold in `Vec`s — goes through them too.
//!
//! ## Wire encoding (one record)
//!
//! ```text
//! flags:u8  [pc Δ]  [phys Δ]  bits  [next Δ]  mask  values…  [ops]  [fault]
//! ```
//!
//! * `flags` — bit 0 fault present, bit 1 operands present, bit 2 PC equals
//!   the previous record's `next_pc` (the common case: no encoded PC at
//!   all), bit 3 `next_pc == pc + 4` (sequential flow), bit 4
//!   `phys_pc == pc` (identity translation).
//! * PC deltas are zigzag varints against the previous record's `next_pc`;
//!   the delta state resets at every chunk boundary so chunks decode
//!   independently — that independence is what makes sharded replay
//!   possible.
//! * `mask` is the published [`FieldSet`] as a varint; `values` are the
//!   published field values in ascending field-index order.
//! * `ops` (when present) packs source/dest counts into one byte, then each
//!   operand as a class byte and an index varint.
//! * `fault` (when present) is a tag byte plus that variant's payload.

use crate::error::TraceError;
use crate::wire::{put_iv, put_uv, Cursor};
use lis_core::{
    DynInst, Fault, FieldId, FieldSet, InstHeader, Operands, RegClass, Visibility, MAX_DEST,
    MAX_FIELDS, MAX_SRC,
};

const FLAG_FAULT: u8 = 1 << 0;
const FLAG_OPS: u8 = 1 << 1;
const FLAG_PC_SEQ: u8 = 1 << 2;
const FLAG_NEXT_SEQ: u8 = 1 << 3;
const FLAG_PHYS_EQ: u8 = 1 << 4;
const FLAG_KNOWN: u8 = FLAG_FAULT | FLAG_OPS | FLAG_PC_SEQ | FLAG_NEXT_SEQ | FLAG_PHYS_EQ;

/// Appends the wire encoding of one published record. `prev_next_pc` is
/// the previous record's `next_pc` in the same chunk (0 at a chunk start).
pub(crate) fn encode(di: &DynInst, out: &mut Vec<u8>, prev_next_pc: u64) {
    let h = &di.header;
    let ops = di.operands();
    let mut flags = 0u8;
    if di.fault.is_some() {
        flags |= FLAG_FAULT;
    }
    if ops.is_some() {
        flags |= FLAG_OPS;
    }
    if h.pc == prev_next_pc {
        flags |= FLAG_PC_SEQ;
    }
    if h.next_pc == h.pc.wrapping_add(4) {
        flags |= FLAG_NEXT_SEQ;
    }
    if h.phys_pc == h.pc {
        flags |= FLAG_PHYS_EQ;
    }
    out.push(flags);
    if flags & FLAG_PC_SEQ == 0 {
        put_iv(out, h.pc.wrapping_sub(prev_next_pc) as i64);
    }
    if flags & FLAG_PHYS_EQ == 0 {
        put_iv(out, h.phys_pc.wrapping_sub(h.pc) as i64);
    }
    put_uv(out, u64::from(h.instr_bits));
    if flags & FLAG_NEXT_SEQ == 0 {
        put_iv(out, h.next_pc.wrapping_sub(h.pc.wrapping_add(4)) as i64);
    }
    let mask = di.fields_valid();
    put_uv(out, mask.0);
    for id in mask.iter() {
        put_uv(out, di.field(id).unwrap_or(0));
    }
    if let Some(ops) = ops {
        debug_assert!(ops.n_srcs() <= MAX_SRC && ops.n_dests() <= MAX_DEST);
        out.push((ops.n_srcs() as u8) | ((ops.n_dests() as u8) << 4));
        for r in ops.srcs().iter().chain(ops.dests()) {
            out.push(r.class);
            put_uv(out, u64::from(r.index));
        }
    }
    if let Some(fault) = di.fault {
        encode_fault(out, fault);
    }
}

/// Decodes one record into `di`, advancing `cur`. `prev_next_pc` mirrors
/// [`encode`].
///
/// Every byte is parsed and checked, hidden fields and operands included;
/// only what `vis` hides is not stored, so `di` ends up holding the record
/// projected to `vis` (the header and fault always survive). On an error
/// `di` is left partly written.
///
/// # Errors
///
/// [`TraceError::Truncated`] or [`TraceError::Corrupt`] on any byte
/// stream that could not have been produced by the encoder.
pub(crate) fn decode(
    cur: &mut Cursor<'_>,
    prev_next_pc: u64,
    vis: Visibility,
    di: &mut DynInst,
) -> Result<(), TraceError> {
    let flags = cur.u8()?;
    if flags & !FLAG_KNOWN != 0 {
        return Err(TraceError::Corrupt("unknown record flags"));
    }
    let pc = if flags & FLAG_PC_SEQ != 0 {
        prev_next_pc
    } else {
        prev_next_pc.wrapping_add(cur.iv()? as u64)
    };
    let phys_pc = if flags & FLAG_PHYS_EQ != 0 { pc } else { pc.wrapping_add(cur.iv()? as u64) };
    let bits = cur.uv()?;
    if bits > u64::from(u32::MAX) {
        return Err(TraceError::Corrupt("instruction bits exceed 32 bits"));
    }
    let next_pc = if flags & FLAG_NEXT_SEQ != 0 {
        pc.wrapping_add(4)
    } else {
        pc.wrapping_add(4).wrapping_add(cur.iv()? as u64)
    };
    di.publish_header(InstHeader { pc, phys_pc, instr_bits: bits as u32, next_pc }, None);
    let mask = cur.uv()?;
    if mask & !FieldSet::ALL.0 != 0 {
        return Err(TraceError::Corrupt("field mask has bits beyond MAX_FIELDS"));
    }
    for id in FieldSet(mask).iter() {
        let v = cur.uv()?;
        if vis.fields.contains(id) {
            di.set_field(id, v);
        }
    }
    if flags & FLAG_OPS != 0 {
        let counts = cur.u8()?;
        let (nsrc, ndest) = ((counts & 0x0f) as usize, (counts >> 4) as usize);
        if nsrc > MAX_SRC || ndest > MAX_DEST {
            return Err(TraceError::Corrupt("operand count out of range"));
        }
        let mut ops = Operands::new();
        for i in 0..nsrc + ndest {
            let class = cur.u8()?;
            let index = cur.uv()?;
            if index > u64::from(u16::MAX) {
                return Err(TraceError::Corrupt("operand index exceeds u16"));
            }
            if i < nsrc {
                ops.push_src(RegClass(class), index as u16);
            } else {
                ops.push_dest(RegClass(class), index as u16);
            }
        }
        if vis.operand_ids {
            di.set_operands(Some(ops));
        }
    }
    if flags & FLAG_FAULT != 0 {
        di.fault = Some(decode_fault(cur)?);
    }
    Ok(())
}

/// One recorded dynamic-instruction record, owned and comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The always-published header.
    pub header: InstHeader,
    /// Fault raised by this instruction, if any.
    pub fault: Option<Fault>,
    /// Published field values; slots outside `fields_valid` are zero.
    pub fields: [u64; MAX_FIELDS],
    /// Which fields were published.
    pub fields_valid: FieldSet,
    /// Published operand identifiers, when the interface exposed them.
    pub ops: Option<Operands>,
}

impl Default for TraceRecord {
    fn default() -> Self {
        TraceRecord {
            header: InstHeader::default(),
            fault: None,
            fields: [0; MAX_FIELDS],
            fields_valid: FieldSet::EMPTY,
            ops: None,
        }
    }
}

impl TraceRecord {
    /// Captures a published [`DynInst`] losslessly.
    pub fn from_dyninst(di: &DynInst) -> TraceRecord {
        let mut fields = [0u64; MAX_FIELDS];
        for id in di.fields_valid().iter() {
            fields[id.index()] = di.field(id).expect("valid field");
        }
        TraceRecord {
            header: di.header,
            fault: di.fault,
            fields,
            fields_valid: di.fields_valid(),
            ops: di.operands().copied(),
        }
    }

    /// Rebuilds the [`DynInst`] a consumer would have received.
    pub fn to_dyninst(&self) -> DynInst {
        let mut di = DynInst::new();
        di.publish_header(self.header, self.fault);
        for id in self.fields_valid.iter() {
            di.set_field(id, self.fields[id.index()]);
        }
        di.set_operands(self.ops);
        di
    }

    /// Derives the record a lower-detail interface would have published:
    /// fields outside `vis.fields` are dropped (and their slots zeroed),
    /// operand identifiers are dropped unless `vis.operand_ids`. The header
    /// and fault always survive — they are the paper's `Min` level.
    ///
    /// Projecting with the visibility the trace was recorded at is the
    /// identity.
    pub fn project(&self, vis: Visibility) -> TraceRecord {
        let mask = FieldSet(self.fields_valid.0 & vis.fields.0);
        let mut fields = [0u64; MAX_FIELDS];
        for id in mask.iter() {
            fields[id.index()] = self.fields[id.index()];
        }
        TraceRecord {
            header: self.header,
            fault: self.fault,
            fields,
            fields_valid: mask,
            ops: if vis.operand_ids { self.ops } else { None },
        }
    }

    /// Appends this record's wire encoding. `prev_next_pc` is the previous
    /// record's `next_pc` in the same chunk (0 at a chunk start).
    pub fn encode(&self, out: &mut Vec<u8>, prev_next_pc: u64) {
        encode(&self.to_dyninst(), out, prev_next_pc);
    }

    /// Decodes one record, advancing `cur`. `prev_next_pc` mirrors
    /// [`TraceRecord::encode`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] or [`TraceError::Corrupt`] on any byte
    /// stream that could not have been produced by the encoder.
    pub fn decode(cur: &mut Cursor<'_>, prev_next_pc: u64) -> Result<TraceRecord, TraceError> {
        let mut di = DynInst::new();
        decode(cur, prev_next_pc, Visibility::ALL, &mut di)?;
        Ok(TraceRecord::from_dyninst(&di))
    }

    /// Reads a field value, mirroring [`DynInst::field`].
    pub fn field(&self, id: FieldId) -> Option<u64> {
        self.fields_valid.contains(id).then(|| self.fields[id.index()])
    }
}

fn encode_fault(out: &mut Vec<u8>, fault: Fault) {
    match fault {
        Fault::IllegalInstruction { pc, bits } => {
            out.push(0);
            put_uv(out, pc);
            put_uv(out, u64::from(bits));
        }
        Fault::InstrAccess { addr } => {
            out.push(1);
            put_uv(out, addr);
        }
        Fault::DataAccess { addr } => {
            out.push(2);
            put_uv(out, addr);
        }
        Fault::Unaligned { addr } => {
            out.push(3);
            put_uv(out, addr);
        }
        Fault::ArithOverflow => out.push(4),
        Fault::DivideByZero => out.push(5),
        Fault::SyscallError { num } => {
            out.push(6);
            put_uv(out, num);
        }
        Fault::Breakpoint { pc } => {
            out.push(7);
            put_uv(out, pc);
        }
    }
}

fn decode_fault(cur: &mut Cursor<'_>) -> Result<Fault, TraceError> {
    Ok(match cur.u8()? {
        0 => {
            let pc = cur.uv()?;
            let bits = cur.uv()?;
            if bits > u64::from(u32::MAX) {
                return Err(TraceError::Corrupt("fault bits exceed 32 bits"));
            }
            Fault::IllegalInstruction { pc, bits: bits as u32 }
        }
        1 => Fault::InstrAccess { addr: cur.uv()? },
        2 => Fault::DataAccess { addr: cur.uv()? },
        3 => Fault::Unaligned { addr: cur.uv()? },
        4 => Fault::ArithOverflow,
        5 => Fault::DivideByZero,
        6 => Fault::SyscallError { num: cur.uv()? },
        7 => Fault::Breakpoint { pc: cur.uv()? },
        _ => return Err(TraceError::Corrupt("unknown fault tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{F_EFF_ADDR, F_OPCODE};

    fn sample() -> TraceRecord {
        let mut r = TraceRecord {
            header: InstHeader { pc: 0x1000, phys_pc: 0x1000, instr_bits: 0xDEAD, next_pc: 0x1004 },
            ..Default::default()
        };
        r.fields_valid = FieldSet::of(&[F_OPCODE, F_EFF_ADDR]);
        r.fields[F_OPCODE.index()] = 17;
        r.fields[F_EFF_ADDR.index()] = 0x8000_0000;
        let mut ops = Operands::new();
        ops.push_src(RegClass(0), 2);
        ops.push_dest(RegClass(0), 5);
        r.ops = Some(ops);
        r
    }

    #[test]
    fn encode_decode_round_trip() {
        for (rec, prev) in [
            (sample(), 0u64),
            (sample(), 0x1000), // pc_seq path
            (
                TraceRecord {
                    header: InstHeader {
                        pc: 0x2000,
                        phys_pc: 0x9_2000,
                        instr_bits: 1,
                        next_pc: 0x1f00,
                    },
                    fault: Some(Fault::DataAccess { addr: 0xbad }),
                    ..Default::default()
                },
                0,
            ),
        ] {
            let mut buf = Vec::new();
            rec.encode(&mut buf, prev);
            let mut cur = Cursor::new(&buf);
            let back = TraceRecord::decode(&mut cur, prev).unwrap();
            assert!(cur.at_end());
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn sequential_record_is_tiny() {
        // pc chains and next is sequential: flags + bits + mask = 3-ish bytes.
        let rec = TraceRecord {
            header: InstHeader { pc: 0x1004, phys_pc: 0x1004, instr_bits: 7, next_pc: 0x1008 },
            ..Default::default()
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf, 0x1004);
        assert!(buf.len() <= 3, "got {} bytes", buf.len());
    }

    #[test]
    fn dyninst_round_trip() {
        let rec = sample();
        let di = rec.to_dyninst();
        assert_eq!(di.field(F_OPCODE), Some(17));
        assert_eq!(di.operands().unwrap().n_srcs(), 1);
        assert_eq!(TraceRecord::from_dyninst(&di), rec);
    }

    #[test]
    fn projection_masks_and_full_is_identity() {
        let rec = sample();
        assert_eq!(rec.project(Visibility::ALL), rec);
        let min = rec.project(Visibility::MIN);
        assert_eq!(min.header, rec.header);
        assert!(min.fields_valid.is_empty());
        assert!(min.ops.is_none());
        assert_eq!(min.fields, [0u64; MAX_FIELDS], "hidden slots must zero");
        let dec = rec.project(Visibility::DECODE);
        assert_eq!(dec.field(F_OPCODE), Some(17));
        assert!(dec.ops.is_some());
    }

    #[test]
    fn all_fault_variants_round_trip() {
        for fault in [
            Fault::IllegalInstruction { pc: 8, bits: 9 },
            Fault::InstrAccess { addr: 1 },
            Fault::DataAccess { addr: 2 },
            Fault::Unaligned { addr: 3 },
            Fault::ArithOverflow,
            Fault::DivideByZero,
            Fault::SyscallError { num: 4 },
            Fault::Breakpoint { pc: 5 },
        ] {
            let rec = TraceRecord { fault: Some(fault), ..Default::default() };
            let mut buf = Vec::new();
            rec.encode(&mut buf, 0);
            let back = TraceRecord::decode(&mut Cursor::new(&buf), 0).unwrap();
            assert_eq!(back.fault, Some(fault));
        }
    }

    #[test]
    fn projected_decode_is_decode_then_project() {
        let mut faulting = sample();
        faulting.fault = Some(Fault::Unaligned { addr: 3 });
        for rec in [sample(), faulting] {
            let mut buf = Vec::new();
            rec.encode(&mut buf, 0);
            for vis in [Visibility::ALL, Visibility::DECODE, Visibility::MIN] {
                let mut di = DynInst::new();
                let mut cur = Cursor::new(&buf);
                decode(&mut cur, 0, vis, &mut di).unwrap();
                assert!(cur.at_end(), "hidden bytes are consumed");
                assert_eq!(TraceRecord::from_dyninst(&di), rec.project(vis));
            }
        }
    }

    #[test]
    fn reused_dyninst_keeps_nothing_from_the_previous_record() {
        let mut buf = Vec::new();
        sample().encode(&mut buf, 0);
        let bare = TraceRecord { header: sample().header, ..Default::default() };
        bare.encode(&mut buf, 0);
        let mut cur = Cursor::new(&buf);
        let mut di = DynInst::new();
        decode(&mut cur, 0, Visibility::ALL, &mut di).unwrap();
        decode(&mut cur, 0, Visibility::ALL, &mut di).unwrap();
        assert_eq!(TraceRecord::from_dyninst(&di), bare);
    }

    #[test]
    fn hidden_fields_and_operands_are_still_checked() {
        // Min visibility stores neither, but a truncated field value or an
        // oversized operand index is the same error as at full visibility.
        let mut buf = Vec::new();
        sample().encode(&mut buf, 0);
        let mut di = DynInst::new();
        for cut in 1..buf.len() {
            let full = decode(&mut Cursor::new(&buf[..cut]), 0, Visibility::ALL, &mut di);
            let min = decode(&mut Cursor::new(&buf[..cut]), 0, Visibility::MIN, &mut di);
            assert!(matches!(full, Err(TraceError::Truncated)), "cut {cut}");
            assert!(matches!(min, Err(TraceError::Truncated)), "cut {cut}");
        }
        let mut rec = sample();
        let mut ops = Operands::new();
        ops.push_src(RegClass(0), u16::MAX);
        rec.ops = Some(ops);
        let mut buf = Vec::new();
        rec.encode(&mut buf, 0);
        // The index varint of u16::MAX is the last three bytes; bump it past u16.
        let n = buf.len();
        buf[n - 1] = 0x07;
        for vis in [Visibility::ALL, Visibility::MIN] {
            assert!(matches!(
                decode(&mut Cursor::new(&buf), 0, vis, &mut di),
                Err(TraceError::Corrupt("operand index exceeds u16"))
            ));
        }
    }

    #[test]
    fn hostile_bytes_do_not_panic() {
        // Unknown flags, bad fault tag, oversized counts: typed errors only.
        assert!(TraceRecord::decode(&mut Cursor::new(&[0xE0]), 0).is_err());
        assert!(TraceRecord::decode(&mut Cursor::new(&[]), 0).is_err());
        let mut buf = Vec::new();
        TraceRecord { fault: Some(Fault::ArithOverflow), ..Default::default() }.encode(&mut buf, 0);
        *buf.last_mut().unwrap() = 99; // fault tag
        assert!(matches!(
            TraceRecord::decode(&mut Cursor::new(&buf), 0),
            Err(TraceError::Corrupt(_))
        ));
    }
}
