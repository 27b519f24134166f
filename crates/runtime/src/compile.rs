//! The compiled superblock backend.
//!
//! [`Backend::Compiled`](crate::Backend::Compiled) is the toolkit's
//! binary-translation analog: basic blocks are predecoded once, translated,
//! cached, and chained. Per (ISA, buildset) it synthesizes a translation
//! layer from the same single specification:
//!
//! * **Flattened action chains.** Each instruction's present actions are
//!   filtered into a dense array once at block-build time
//!   ([`lis_core::StepActions::flatten_exec`]), so execution dispatches
//!   direct-threaded over the chain with no per-step `Option` tests.
//! * **Superblock chaining.** Every block records the arena index of its
//!   observed fall-through and taken-branch successors. Hot loops follow
//!   those links instead of re-entering the PC index, so steady-state
//!   execution does one hash lookup per *chain*, not per block.
//! * **Mask-driven elision.** The buildset's precomputed visibility mask is
//!   consulted at synthesis time: header-only interfaces skip the
//!   publication walk, the unobserved driver builds no records at all, and
//!   non-speculative buildsets run with no undo plumbing (the engine wires
//!   `Exec::undo` to `None` once, at synthesis).
//!
//! Links are *hints*, never trusted: each traversal validates that the
//! linked block actually starts at the wanted PC, so stale links after an
//! invalidation are harmless — they miss and get repatched. A chaos-poisoned
//! build is returned as a one-shot block that is never inserted (and
//! therefore never linkable), and unmap events drop the whole compiled
//! cache.

use crate::decode::PcMap;
use crate::engine::{Backend, Block, PredecInst};
use lis_analyze::tir::{TirAccess, TirInst, TranslationView};
use lis_core::{
    generic_operand_fetch, generic_writeback, ActionFn, ArchState, BuildsetDef, Exec, FieldId,
    FieldSet, Frame, InstClass, InstDef, InstHeader, IsaSpec, OperandRef, Operands, OsState,
    RegBacking, Step, F_OPCODE, MAX_DEST, MAX_SRC, SRC_FIELDS,
};
use std::cell::Cell;
use std::rc::Rc;

/// "No successor recorded" marker for superblock links and the chain
/// cursor.
pub(crate) const NO_LINK: u32 = u32::MAX;

/// "Generic action not present in the chain" marker used while locating
/// the fetch/writeback slots during translation.
pub(crate) const NO_STEP: u8 = u8::MAX;

fn read_nothing(_: &ArchState, _: u16) -> u64 {
    0
}

fn write_nothing(_: &mut ArchState, _: u16, _: u64) {}

/// A lowered source-operand read. Classes whose [`RegBacking`] admits it
/// become direct register-file loads; everything else stays an accessor
/// call.
#[derive(Clone, Copy)]
pub(crate) enum SrcOp {
    /// Accessor call (opaque backing or the class's special index).
    Call(fn(&ArchState, u16) -> u64, u16),
    /// Direct `gpr[i]` load.
    Gpr(u16),
    /// Direct `spr[slot]` load.
    Spr(u8),
}

/// A lowered destination-operand write, with the backing's write mask baked
/// in for the direct forms.
#[derive(Clone, Copy)]
pub(crate) enum DestOp {
    /// Accessor call (opaque backing or the class's special index).
    Call(fn(&mut ArchState, u16, u64), u16),
    /// Direct masked `gpr[i]` store.
    Gpr(u16, u64),
    /// Direct masked `spr[slot]` store.
    Spr(u8, u64),
}

fn lower_src(isa: &IsaSpec, r: OperandRef) -> SrcOp {
    let def = &isa.reg_classes[r.class as usize];
    match def.backing {
        Some(RegBacking::Gpr { special, .. }) if special != Some(r.index) => SrcOp::Gpr(r.index),
        Some(RegBacking::Spr { slot, .. }) => SrcOp::Spr(slot),
        _ => SrcOp::Call(def.read, r.index),
    }
}

fn lower_dest(isa: &IsaSpec, r: OperandRef) -> DestOp {
    let def = &isa.reg_classes[r.class as usize];
    match def.backing {
        Some(RegBacking::Gpr { special, write_mask }) if special != Some(r.index) => {
            DestOp::Gpr(r.index, write_mask)
        }
        Some(RegBacking::Spr { slot, write_mask }) => DestOp::Spr(slot, write_mask),
        _ => DestOp::Call(def.write, r.index),
    }
}

/// One instruction in a compiled superblock: the predecoded replay data
/// plus its flattened direct-threaded action chain.
///
/// When an instruction uses the specification's *generic* operand-fetch or
/// writeback actions in the canonical positions (fetch first, writeback
/// last), translation strips them from the dispatched range (`mid_lo` /
/// `mid_hi`) and resolves each operand's register-class accessor once,
/// here. The fast execution loop then runs the lowered operand list as
/// straight-line code around the remaining actions — no action call, no
/// runtime walk of the operand table, no per-slot position tests. The
/// unspecialized `chain` is kept as-is for the observing and speculative
/// drivers, whose writeback must capture undo records.
#[derive(Clone, Copy)]
pub(crate) struct CompiledInst {
    /// Instruction index, or [`crate::engine::ILLEGAL`].
    pub(crate) op: u16,
    /// Raw instruction word.
    pub(crate) bits: u32,
    /// Captured operand identifiers.
    pub(crate) ops: Operands,
    /// Captured decode-time field values plus the opcode field, so one
    /// replay restores the whole decode frame. They are stored in
    /// increasing field-id order, one per field of `valid`, so the mask
    /// doubles as the id list.
    pub(crate) field_vals: [u64; 5],
    /// The captured fields — assigning it as the frame's validity mask
    /// replaces the per-field mask updates of a set-by-set replay.
    pub(crate) valid: FieldSet,
    /// True when the decode action must re-run at execution time.
    pub(crate) fallback: bool,
    /// Dense execution chain (absent action slots filtered out at build).
    pub(crate) chain: [ActionFn; 5],
    /// Number of live entries in `chain`.
    pub(crate) chain_len: u8,
    /// End of the chain range dispatched *before* the inlined generic
    /// fetch (actions such as a predicate check that precede operand
    /// fetch; usually empty).
    pub(crate) pre_hi: u8,
    /// Run the lowered source reads between the pre and mid ranges.
    pub(crate) has_fetch: bool,
    /// Start of the chain range dispatched after the inlined fetch.
    pub(crate) mid_lo: u8,
    /// End of the dispatched chain range (stops before an inlined trailing
    /// generic writeback).
    pub(crate) mid_hi: u8,
    /// Run the lowered destination writes after the dispatched range.
    pub(crate) has_wb: bool,
    /// Lowered source-operand reads, one per `ops` source.
    pub(crate) src_read: [SrcOp; MAX_SRC],
    /// Lowered destination-operand writes, one per `ops` destination.
    pub(crate) dest_write: [DestOp; MAX_DEST],
}

impl CompiledInst {
    fn compile(e: &PredecInst, isa: &IsaSpec) -> CompiledInst {
        let (chain, chain_len) = e.actions.flatten_exec();
        let mut fetch_at = NO_STEP;
        let mut wb_at = NO_STEP;
        if !e.fallback {
            // Fallback instructions re-decode at execution time, so their
            // operands are not translate-time constants.
            for (i, &a) in chain[..chain_len as usize].iter().enumerate() {
                if std::ptr::fn_addr_eq(a, generic_operand_fetch as ActionFn) {
                    fetch_at = i as u8;
                } else if std::ptr::fn_addr_eq(a, generic_writeback as ActionFn) {
                    wb_at = i as u8;
                }
            }
        }
        // Specialize the canonical layout: fetch anywhere before a
        // trailing writeback (predicate checks may precede the fetch).
        // Anything else keeps the full chain in the dispatched ranges,
        // where the generic actions still run correctly as actions.
        let mut pre_hi = 0u8;
        let mut mid_lo = 0u8;
        let mut mid_hi = chain_len;
        let mut has_fetch = false;
        let mut has_wb = false;
        let wb_ok = wb_at == NO_STEP
            || (chain_len > 0
                && wb_at == chain_len - 1
                && (fetch_at == NO_STEP || fetch_at < wb_at));
        if wb_ok {
            if fetch_at != NO_STEP {
                has_fetch = true;
                pre_hi = fetch_at;
                mid_lo = fetch_at + 1;
            }
            if wb_at != NO_STEP {
                has_wb = true;
                mid_hi = chain_len - 1;
            }
        }
        let captured = &e.fields[..e.nfields as usize];
        let valid =
            captured.iter().fold(FieldSet::EMPTY.with(F_OPCODE), |s, &(f, _)| s.with(FieldId(f)));
        debug_assert_eq!(valid.len() as usize, captured.len() + 1, "decode set the opcode field");
        let mut field_vals = [0u64; 5];
        for (slot, f) in valid.iter().enumerate() {
            // The one field decode did not capture is the appended opcode.
            field_vals[slot] = match captured.iter().find(|&&(id, _)| id == f.0) {
                Some(&(_, v)) => v,
                None => u64::from(e.op),
            };
        }
        let mut src_read = [SrcOp::Call(read_nothing, 0); MAX_SRC];
        for (slot, &r) in src_read.iter_mut().zip(e.ops.srcs()) {
            *slot = lower_src(isa, r);
        }
        let mut dest_write = [DestOp::Call(write_nothing, 0); MAX_DEST];
        for (slot, &r) in dest_write.iter_mut().zip(e.ops.dests()) {
            *slot = lower_dest(isa, r);
        }
        CompiledInst {
            op: e.op,
            bits: e.bits,
            ops: e.ops,
            field_vals,
            valid,
            fallback: e.fallback,
            chain,
            chain_len,
            pre_hi,
            has_fetch,
            mid_lo,
            mid_hi,
            has_wb,
            src_read,
            dest_write,
        }
    }

    /// The live lowered source reads.
    #[inline]
    pub(crate) fn src_reads(&self) -> &[SrcOp] {
        &self.src_read[..self.ops.srcs().len()]
    }

    /// The live lowered destination writes.
    #[inline]
    pub(crate) fn dest_writes(&self) -> &[DestOp] {
        &self.dest_write[..self.ops.dests().len()]
    }

    /// Validity mask for the staged source fields
    /// (`SRC_FIELDS[..src_reads().len()]`).
    #[inline]
    pub(crate) fn src_mask(&self) -> FieldSet {
        SRC_MASKS[self.ops.srcs().len()]
    }
}

/// `SRC_FIELDS[..n]` as a mask, indexed by `n`.
const SRC_MASKS: [FieldSet; MAX_SRC + 1] = {
    let mut masks = [FieldSet::EMPTY; MAX_SRC + 1];
    let mut n = 1;
    while n <= MAX_SRC {
        masks[n] = FieldSet(masks[n - 1].0 | 1u64 << SRC_FIELDS[n - 1].0);
        n += 1;
    }
    masks
};

impl std::fmt::Debug for CompiledInst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledInst")
            .field("op", &self.op)
            .field("bits", &format_args!("{:#010x}", self.bits))
            .field("chain_len", &self.chain_len)
            .finish_non_exhaustive()
    }
}

/// A compiled basic block with successor links.
pub(crate) struct Superblock {
    /// First instruction's PC.
    pub(crate) entry: u64,
    /// The compiled instructions.
    pub(crate) insts: Box<[CompiledInst]>,
    /// Arena index of the sequential (fall-through) successor.
    fallthrough: Cell<u32>,
    /// Arena index of the last observed taken-flow successor.
    taken: Cell<u32>,
    /// Entry PC the `taken` link leads to.
    taken_pc: Cell<u64>,
}

impl Superblock {
    pub(crate) fn compile(entry: u64, block: &Block, isa: &IsaSpec) -> Superblock {
        Superblock {
            entry,
            insts: block.insts.iter().map(|e| CompiledInst::compile(e, isa)).collect(),
            fallthrough: Cell::new(NO_LINK),
            taken: Cell::new(NO_LINK),
            taken_pc: Cell::new(0),
        }
    }

    /// Rebuilds a superblock from exported snapshot parts. Successor links
    /// start cold ([`NO_LINK`]) — they are per-simulator observations of
    /// control flow, never part of the shareable translation.
    pub(crate) fn from_parts(entry: u64, insts: Box<[CompiledInst]>) -> Superblock {
        Superblock {
            entry,
            insts,
            fallthrough: Cell::new(NO_LINK),
            taken: Cell::new(NO_LINK),
            taken_pc: Cell::new(0),
        }
    }

    /// PC of the instruction after this block (the sequential successor's
    /// entry).
    #[inline]
    pub(crate) fn fallthrough_pc(&self, pc_mask: u64) -> u64 {
        self.entry.wrapping_add(4 * self.insts.len() as u64) & pc_mask
    }

    /// Corrupts this translation from the raw chaos draws — the
    /// translate-fault channel's payload, modeling a silent translator bug.
    ///
    /// Two halves. The successor link hints are scrambled, which is
    /// *provably harmless*: link following re-validates the target's entry
    /// PC on every hop, so the worst case is a wasted probe (this half
    /// documents that hints are never trusted). One captured decode value
    /// is then bit-flipped, which is the dangerous half: the replayed
    /// decode state no longer matches the stored instruction bits, and
    /// since the stored bits are what every first-word freshness probe
    /// compares, no cache-verification pass can see it — only lockstep
    /// against a reference can. The victim selection is a pure function of
    /// `(idx, bit)` and the translation, so a scripted replay with the same
    /// draws poisons the same capture.
    pub(crate) fn poison(&mut self, idx: u32, bit: u8) {
        self.fallthrough.set(idx ^ 0x5a5a);
        self.taken.set(idx ^ 0xa5a5);
        self.taken_pc.set(self.entry ^ (u64::from(bit) << 2));
        let n = self.insts.len();
        if n == 0 {
            return;
        }
        // Prefer a real decode capture (an immediate, a shift amount);
        // settle for the opcode capture when the block holds nothing
        // richer. Decode captures are counted in capture order (increasing
        // field id), and the victim's value sits at its rank in `valid`.
        for wants_decode in [true, false] {
            for off in 0..n {
                let e = &mut self.insts[(idx as usize + off) % n];
                let decode = FieldSet(e.valid.0 & !F_OPCODE.bit());
                if e.fallback || (wants_decode && decode.is_empty()) {
                    continue;
                }
                let victim = if wants_decode {
                    decode.iter().nth(bit as usize % decode.len() as usize).expect("in range")
                } else {
                    F_OPCODE
                };
                let rank = (e.valid.0 & (victim.bit() - 1)).count_ones() as usize;
                e.field_vals[rank] ^= 1u64 << (bit % 64);
                return;
            }
        }
    }
}

impl std::fmt::Debug for Superblock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Superblock")
            .field("entry", &format_args!("{:#x}", self.entry))
            .field("len", &self.insts.len())
            .field("fallthrough", &self.fallthrough.get())
            .field("taken", &self.taken.get())
            .finish_non_exhaustive()
    }
}

/// The per-simulator compiled-code cache: an arena of superblocks plus a PC
/// index and the chain-patching cursor. Links are arena indices into the
/// arena vector; clearing the arena invalidates every link at once because
/// traversal always bounds-checks and validates the target entry PC.
#[derive(Debug)]
pub(crate) struct CompiledCache {
    arena: Vec<Rc<Superblock>>,
    index: PcMap<u32>,
    /// Arena index of the most recently executed cached block, used to
    /// patch successor links as control flow is observed.
    pub(crate) last: u32,
}

impl Default for CompiledCache {
    fn default() -> Self {
        CompiledCache { arena: Vec::new(), index: PcMap::default(), last: NO_LINK }
    }
}

impl CompiledCache {
    /// Drops every superblock, link, and the cursor.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.index.clear();
        self.last = NO_LINK;
    }

    /// Number of cached superblocks.
    pub(crate) fn len(&self) -> usize {
        self.arena.len()
    }

    /// Snapshots every indexed superblock as plain `(entry PC, instructions)`
    /// data, sorted by PC. Link hints are deliberately not exported (they
    /// are per-simulator flow observations); one-shot blocks were never
    /// indexed and so never escape.
    pub(crate) fn export(&self) -> Vec<(u64, Box<[CompiledInst]>)> {
        let mut out: Vec<(u64, Box<[CompiledInst]>)> = self
            .index
            .iter()
            .map(|(&pc, &idx)| (pc, self.arena[idx as usize].insts.clone()))
            .collect();
        out.sort_unstable_by_key(|&(pc, _)| pc);
        out
    }

    /// Index lookup by entry PC.
    pub(crate) fn lookup(&self, pc: u64) -> Option<(Rc<Superblock>, u32)> {
        let &idx = self.index.get(&pc)?;
        Some((Rc::clone(&self.arena[idx as usize]), idx))
    }

    /// Inserts a block, returning its arena index ([`NO_LINK`] if the arena
    /// is implausibly full, in which case the block stays one-shot).
    pub(crate) fn insert(&mut self, pc: u64, sb: Rc<Superblock>) -> u32 {
        if self.arena.len() >= NO_LINK as usize {
            return NO_LINK;
        }
        let idx = self.arena.len() as u32;
        self.arena.push(sb);
        self.index.insert(pc, idx);
        idx
    }

    /// Records that control flowed from block `from` into the block at `pc`
    /// (arena index `to`), patching the matching successor link.
    pub(crate) fn patch(&self, from: u32, to: u32, pc: u64, pc_mask: u64) {
        let Some(prev) = self.arena.get(from as usize) else { return };
        if pc == prev.fallthrough_pc(pc_mask) {
            prev.fallthrough.set(to);
        } else {
            prev.taken.set(to);
            prev.taken_pc.set(pc);
        }
    }

    /// Follows a successor link of block `from` toward `pc`. Returns the
    /// linked block only when the hint exists and the target really starts
    /// at `pc` — stale or missing links simply miss.
    #[inline]
    pub(crate) fn follow(&self, from: u32, pc: u64, pc_mask: u64) -> Option<(Rc<Superblock>, u32)> {
        let prev = self.arena.get(from as usize)?;
        let hint = if pc == prev.fallthrough_pc(pc_mask) {
            prev.fallthrough.get()
        } else if pc == prev.taken_pc.get() {
            prev.taken.get()
        } else {
            NO_LINK
        };
        let sb = self.arena.get(hint as usize)?;
        (sb.entry == pc).then(|| (Rc::clone(sb), hint))
    }

    /// [`CompiledCache::follow`] without the `Rc` traffic: returns the
    /// linked block's arena index for callers that borrow blocks through
    /// [`CompiledCache::peek`] instead of holding them. The chain loop
    /// follows links this way — two refcount updates per basic block add
    /// up when hot blocks are two instructions long.
    #[inline]
    pub(crate) fn follow_idx(&self, from: u32, pc: u64, pc_mask: u64) -> Option<u32> {
        let prev = self.arena.get(from as usize)?;
        let hint = if pc == prev.fallthrough_pc(pc_mask) {
            prev.fallthrough.get()
        } else if pc == prev.taken_pc.get() {
            prev.taken.get()
        } else {
            NO_LINK
        };
        let sb = self.arena.get(hint as usize)?;
        (sb.entry == pc).then_some(hint)
    }

    /// Borrows an arena block by index.
    #[inline]
    pub(crate) fn peek(&self, idx: u32) -> Option<&Superblock> {
        self.arena.get(idx as usize).map(|rc| &**rc)
    }
}

// ----------------------------------------------------------------------
// The analyzable-IR seam: side-effect-free synthesis introspection
// ----------------------------------------------------------------------

/// Predecodes `def`'s canonical encoding on scratch state, mirroring the
/// engine's predecode rule exactly — same 4-slot capture buffer, same
/// fallback on a decode fault or capture overflow — without constructing a
/// simulator or touching any counters.
fn predecode_canonical(isa: &'static IsaSpec, op: u16, def: &InstDef) -> PredecInst {
    let actions = def.actions;
    let fallback = PredecInst {
        op,
        bits: def.bits,
        ops: Operands::new(),
        fields: [(0, 0); 4],
        nfields: 0,
        fallback: true,
        actions,
    };
    let mut frame = Frame::new();
    let mut ops = Operands::new();
    let mut header = InstHeader { instr_bits: def.bits, ..InstHeader::default() };
    let mut state = ArchState::new(isa.endian);
    let mut os = OsState::new(0);
    if let Some(dec) = actions.decode {
        let mut ex = Exec {
            isa,
            frame: &mut frame,
            ops: &mut ops,
            header: &mut header,
            opcode: op,
            state: &mut state,
            os: &mut os,
            undo: None,
            chaos: None,
        };
        if dec(&mut ex).is_err() {
            return fallback;
        }
    }
    let mut fields = [(0u8, 0u64); 4];
    let mut n = 0usize;
    for f in frame.valid().iter() {
        if n == fields.len() {
            return fallback;
        }
        fields[n] = (f.0, frame.raw(f.index()));
        n += 1;
    }
    PredecInst { op, bits: def.bits, ops, fields, nfields: n as u8, fallback: false, actions }
}

fn tir_src(op: SrcOp, r: OperandRef) -> TirAccess {
    match op {
        SrcOp::Call(_, index) => TirAccess::Accessor { class: r.class, index },
        SrcOp::Gpr(index) => TirAccess::Gpr { class: r.class, index, mask: None },
        SrcOp::Spr(slot) => TirAccess::Spr { class: r.class, slot, mask: None },
    }
}

fn tir_dest(op: DestOp, r: OperandRef) -> TirAccess {
    match op {
        DestOp::Call(_, index) => TirAccess::Accessor { class: r.class, index },
        DestOp::Gpr(index, mask) => TirAccess::Gpr { class: r.class, index, mask: Some(mask) },
        DestOp::Spr(slot, mask) => TirAccess::Spr { class: r.class, slot, mask: Some(mask) },
    }
}

/// Probes, on scratch structures, that link following really re-validates
/// the target block's entry PC: a deliberately stale hint (right arena
/// index, wrong claimed PC) must miss, and a truthful hint must resolve.
/// This is `validate_backing`'s philosophy applied to the chaining rules —
/// the view reports what the code *does*, not what a comment promises.
fn probe_link_validation() -> bool {
    let mut cache = CompiledCache::default();
    let a = cache.insert(0x1000, Rc::new(Superblock::from_parts(0x1000, Box::from([]))));
    let c = cache.insert(0x4000, Rc::new(Superblock::from_parts(0x4000, Box::from([]))));
    // Plant a stale taken hint on A: arena index of C, but claiming it
    // leads to 0x2000. Following toward 0x2000 must reject it.
    cache.patch(a, c, 0x2000, u64::MAX);
    let stale_misses = cache.follow(a, 0x2000, u64::MAX).is_none()
        && cache.follow_idx(a, 0x2000, u64::MAX).is_none();
    // Repatch truthfully; the hint must now resolve to C.
    cache.patch(a, c, 0x4000, u64::MAX);
    stale_misses && cache.follow_idx(a, 0x4000, u64::MAX) == Some(c)
}

/// Probes that superblocks rebuilt from exported snapshot parts start with
/// cold successor links.
fn probe_import_links_cold() -> bool {
    let sb = Superblock::from_parts(0x1000, Box::from([]));
    sb.fallthrough.get() == NO_LINK && sb.taken.get() == NO_LINK && sb.taken_pc.get() == 0
}

/// Order of [`lis_core::StepActions::exec_slots`], used to recover which
/// step contributed each flattened-chain action.
const EXEC_STEPS: [Step; 5] =
    [Step::OperandFetch, Step::Evaluate, Step::Memory, Step::Writeback, Step::Exception];

fn tir_inst(isa: &'static IsaSpec, op: u16, def: &'static InstDef) -> TirInst {
    let pred = predecode_canonical(isa, op, def);
    let ci = CompiledInst::compile(&pred, isa);
    let (spec_chain, spec_len) = def.actions.flatten_exec();
    let chain_matches_spec = spec_len == ci.chain_len
        && spec_chain[..spec_len as usize]
            .iter()
            .zip(&ci.chain[..ci.chain_len as usize])
            .all(|(a, b)| std::ptr::fn_addr_eq(*a, *b));
    let wb_is_generic = ci.has_wb
        && std::ptr::fn_addr_eq(ci.chain[ci.mid_hi as usize], generic_writeback as ActionFn);
    TirInst {
        name: def.name,
        class: def.class,
        fallback: ci.fallback,
        chain_len: ci.chain_len,
        pre_hi: ci.pre_hi,
        mid_lo: ci.mid_lo,
        mid_hi: ci.mid_hi,
        has_fetch: ci.has_fetch,
        has_wb: ci.has_wb,
        wb_is_generic,
        chain_steps: def
            .actions
            .exec_slots()
            .iter()
            .zip(EXEC_STEPS)
            .filter_map(|(a, s)| a.map(|_| s))
            .collect(),
        srcs: ci.src_reads().iter().zip(pred.ops.srcs()).map(|(&s, &r)| tir_src(s, r)).collect(),
        dests: ci
            .dest_writes()
            .iter()
            .zip(pred.ops.dests())
            .map(|(&d, &r)| tir_dest(d, r))
            .collect(),
        captured: ci.valid,
        chain_matches_spec,
        // Mirrors the block builder's termination rule exactly.
        ends_block: matches!(def.class, InstClass::Branch | InstClass::Jump | InstClass::Syscall),
    }
}

/// Synthesizes the compiled backend's translation decisions for one
/// (ISA, buildset) cell as plain, analyzable data — the input to
/// `lis_analyze`'s translation-soundness passes (LIS006–LIS010).
///
/// This is a *pure introspection* of the same code paths the compiled
/// backend executes: each instruction's canonical encoding is predecoded
/// and compiled exactly as a real block build would (same capture rule,
/// same chain specialization, same operand lowering), the elision and undo
/// decisions are copied from the buildset the way the engine copies them,
/// and the link-validation guarantees are *probed* on scratch structures
/// rather than asserted. It allocates only the returned view — no caches,
/// no counters, no translation output is perturbed.
pub fn synthesize_view(isa: &'static IsaSpec, bs: &BuildsetDef) -> TranslationView {
    let ladder = std::iter::successors(Some(Backend::Compiled), |b| b.demoted())
        .map(Backend::name)
        .collect();
    TranslationView {
        isa: isa.name,
        buildset: bs.name,
        elides_publish: bs.elides_publish(),
        vis_fields: bs.visibility.fields,
        vis_operand_ids: bs.visibility.operand_ids,
        speculation: bs.speculation,
        // Exactly the engine's wiring rule: `Exec::undo` is Some iff the
        // buildset speculates.
        undo_wired: bs.speculation,
        links_validated: probe_link_validation(),
        import_links_cold: probe_import_links_cold(),
        ladder,
        insts: isa
            .insts
            .iter()
            .enumerate()
            .map(|(op, def)| tir_inst(isa, op as u16, def))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn compiled_inst_is_208_bytes() {
        // Every instruction of a translated block pays this, so cold code
        // scales with it: the capture keeps ids and values in separate
        // arrays (no per-pair padding), and the capture count, operand
        // counts, and source mask are derived rather than stored.
        assert_eq!(std::mem::size_of::<CompiledInst>(), 208);
    }

    #[test]
    fn src_masks_are_the_source_field_prefixes() {
        for (n, mask) in SRC_MASKS.iter().enumerate() {
            let want = SRC_FIELDS[..n].iter().fold(FieldSet::EMPTY, |s, &f| s.with(f));
            assert_eq!(*mask, want, "{n} sources");
        }
    }
}
