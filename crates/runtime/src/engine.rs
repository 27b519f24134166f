//! The synthesis engine: one simulator per (ISA, buildset).
//!
//! [`Simulator`] is the functional simulator the toolkit *synthesizes* from a
//! single ISA specification and one [`BuildsetDef`]. The buildset selects
//! which entry points exist ([`Simulator::next_block`],
//! [`Simulator::next_inst`], or [`Simulator::step_inst`]), which fields are
//! published at every call boundary, and whether rollback is supported.
//!
//! Specialization happens in three places, mirroring the paper's synthesis:
//!
//! * **Semantic detail** decides how much per-call bookkeeping (header
//!   copies, publication, dispatch) is paid per instruction: once per block,
//!   once per instruction, or seven times per instruction.
//! * **Informational detail** decides how many field stores the publication
//!   loop performs; hidden fields never leave the working frame.
//! * **Speculation** decides whether every architectural write captures an
//!   undo record.
//!
//! The [`Backend`] choice is the analog of the paper's binary translation:
//! the compiled backend translates basic blocks once and reuses them, while
//! the interpreted backend re-fetches and re-decodes every time (the paper's
//! footnote 5 comparison).

use crate::compile::{CompiledCache, CompiledInst, DestOp, SrcOp, Superblock, NO_LINK};
use crate::decode::{DecodeTable, PcMap};
use crate::error::{invalid_interface, BuildError, IfaceError, SimStop};
use crate::stats::{RunSummary, SimStats};
use lis_core::{
    check_interface, ArchState, BuildsetDef, DynInst, Exec, Fault, FieldSet, Frame, InstClass,
    InstHeader, IsaSpec, Operands, OsMark, OsState, Semantic, Step, UndoLog, UndoMark, DEST_FIELDS,
    F_OPCODE, SRC_FIELDS,
};
use lis_mem::{ChaosPlan, ChaosState, Image};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Marker for an undecodable word inside a predecoded block.
pub(crate) const ILLEGAL: u16 = u16::MAX;

/// Maximum predecoded basic-block length in instructions.
pub const DEFAULT_MAX_BLOCK: usize = 64;

/// Default stack top used by [`Simulator::load_program`]; the assembler
/// keeps every image below it.
pub use lis_mem::STACK_TOP;

/// Execution backend (the binary-translation analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Re-fetch and re-decode every instruction on every execution.
    Interpreted,
    /// Translate superblocks once and cache them: flattened
    /// direct-threaded action chains, chained block successors, and
    /// buildset-specialized elision of publish/undo work (the
    /// binary-translation analog; see [`crate::compile`](self)). On one-
    /// and step-semantic interfaces it keeps a per-PC decode cache.
    #[default]
    Compiled,
}

impl Backend {
    /// Every backend, in matrix order.
    pub const ALL: [Backend; 2] = [Backend::Interpreted, Backend::Compiled];

    /// Short lower-case name, for CLI flags, protocol fields, plan files,
    /// report headers, and job labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interpreted => "interpreted",
            Backend::Compiled => "compiled",
        }
    }

    /// Resolves a multi-backend selector: one backend name, or `all`.
    ///
    /// # Errors
    ///
    /// The [`std::str::FromStr`] message when `s` is neither.
    pub fn select(s: &str) -> Result<Vec<Backend>, String> {
        if s == "all" {
            return Ok(Backend::ALL.to_vec());
        }
        s.parse().map(|b| vec![b]).map_err(|e| format!("{e}, or `all`"))
    }

    /// The next rung down the supervision ladder (Compiled → Interpreted).
    /// `None` at the bottom — the interpreted backend re-fetches and
    /// re-decodes everything and keeps no state a fault could poison, so
    /// there is nothing safer to demote to.
    pub fn demoted(self) -> Option<Backend> {
        match self {
            Backend::Compiled => Some(Backend::Interpreted),
            Backend::Interpreted => None,
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        Backend::ALL.into_iter().find(|b| b.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
            format!("unknown backend `{s}` ({})", names.join("|"))
        })
    }
}

/// Why the supervision ladder demoted the backend mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemotionReason {
    /// A cache-verification freshness probe found a stale cached
    /// superblock (stale code after an unmap, self-modifying text, or a
    /// corrupted cache).
    CacheVerify,
    /// A block build was observed to be chaos-corrupted (transient fetch
    /// poisoning) — the backend's predecoded state is under attack.
    PoisonedBuild,
    /// A supervised (paranoid) lockstep spot-check caught the backend
    /// diverging from the reference.
    SpotCheck,
    /// Wall-clock pressure: the supervisor chose a cheaper-to-trust backend
    /// before the watchdog expired.
    Deadline,
    /// Explicitly requested by the host (tests, `lis verify --demote`).
    Requested,
}

impl std::fmt::Display for DemotionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DemotionReason::CacheVerify => "cache-verify",
            DemotionReason::PoisonedBuild => "poisoned-build",
            DemotionReason::SpotCheck => "spot-check",
            DemotionReason::Deadline => "deadline",
            DemotionReason::Requested => "requested",
        })
    }
}

/// One structured record of a mid-run backend demotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemotionEvent {
    /// Retired-instruction index when the demotion was taken.
    pub inst: u64,
    /// Backend before the demotion.
    pub from: Backend,
    /// Backend after the demotion.
    pub to: Backend,
    /// What forced the downgrade.
    pub reason: DemotionReason,
}

impl std::fmt::Display for DemotionEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst {}: demoted {:?} -> {:?} ({})", self.inst, self.from, self.to, self.reason)
    }
}

/// One predecoded instruction inside a block.
///
/// Decode actions are, by contract, pure functions of the instruction bits
/// (they read no architectural state), so their results — the operand
/// identifiers and decode-time fields — can be captured once when the block
/// is built and replayed on every execution. This hoisting is the toolkit's
/// analog of the paper's binary-translation optimization scope: work moves
/// out of the per-execution loop at block granularity.
#[derive(Clone, Copy)]
pub(crate) struct PredecInst {
    /// Instruction index, or [`ILLEGAL`].
    pub(crate) op: u16,
    /// Raw instruction word.
    pub(crate) bits: u32,
    /// Captured operand identifiers.
    pub(crate) ops: Operands,
    /// Captured decode-time `(field, value)` pairs.
    pub(crate) fields: [(u8, u64); 4],
    /// Number of valid entries in `fields`.
    pub(crate) nfields: u8,
    /// True when the decode action must re-run at execution time (it
    /// faulted or produced more fields than the capture buffer holds).
    pub(crate) fallback: bool,
    /// The instruction's resolved action pointers, so the block loop
    /// dispatches without re-walking the instruction table.
    pub(crate) actions: lis_core::StepActions,
}

impl std::fmt::Debug for PredecInst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredecInst")
            .field("op", &self.op)
            .field("bits", &format_args!("{:#010x}", self.bits))
            .field("fallback", &self.fallback)
            .finish_non_exhaustive()
    }
}

/// A predecoded basic block: what the translator compiles and what the
/// interpreted backend executes directly, rebuilt on every call.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) insts: Vec<PredecInst>,
}

/// A speculation checkpoint.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    undo: UndoMark,
    pc: u64,
    os: OsMark,
    halted: bool,
    exit_code: i64,
}

/// Identifier of an open checkpoint, returned by [`Simulator::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointId(usize);

/// A synthesized functional simulator with one derived interface.
///
/// # Examples
///
/// ```
/// use lis_runtime::{toy, Simulator};
/// use lis_core::{ONE_ALL, DynInst};
/// use lis_mem::{Image, Section};
///
/// let image = Image {
///     entry: 0x1000,
///     sections: vec![Section {
///         name: ".text".into(),
///         addr: 0x1000,
///         bytes: [toy::addi(1, 0, 1 /* exit */), toy::addi(2, 0, 42), toy::sys()]
///             .iter()
///             .flat_map(|w| w.to_le_bytes())
///             .collect(),
///     }],
///     symbols: Default::default(),
/// };
/// let mut sim = Simulator::new(toy::spec(), ONE_ALL)?;
/// sim.load_program(&image)?;
/// let summary = sim.run_to_halt(1000)?;
/// assert_eq!(summary.exit_code, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    isa: &'static IsaSpec,
    bs: BuildsetDef,
    backend: Backend,
    /// Architectural state (public for loaders, checkers, and tests).
    pub state: ArchState,
    /// OS emulation state (captured stdout, heap break, tick counter).
    pub os: OsState,
    undo: UndoLog,
    table: DecodeTable,
    frame: Frame,
    ops: Operands,
    header: InstHeader,
    opcode: u16,
    expected: Step,
    inst_fault: bool,
    inst_cache: PcMap<(u16, u32)>,
    /// Compiled-backend superblock cache (arena + PC index + chain links).
    compiled: CompiledCache,
    checkpoints: Vec<Checkpoint>,
    /// Execution statistics.
    pub stats: SimStats,
    chaos: Option<ChaosState>,
    /// Sticky: set the moment fault injection is armed, never cleared. A
    /// tainted simulator refuses to export its caches — a translate-fault
    /// superblock is cached poisoned by design, and no probe short of
    /// lockstep can prove a chaos-era cache clean.
    tainted: bool,
    /// Whether the word delivered by the latest fetch was chaos-corrupted
    /// (such words must never enter the predecode caches — the corruption
    /// is transient by contract).
    inst_flipped: bool,
    verify_cache: bool,
    /// Whether trust violations demote the backend mid-run instead of
    /// merely falling back block-by-block.
    demote: bool,
    /// Structured log of every demotion taken (see [`DemotionEvent`]).
    demotion_log: Vec<DemotionEvent>,
    deadline: Option<Duration>,
    /// Published-field mask, resolved from the buildset once at synthesis
    /// time so the publication loop reads one word instead of chasing the
    /// buildset struct on every call.
    vis_fields: FieldSet,
    /// Whether publications carry operand identifiers (same hoisting).
    vis_ops: bool,
    /// Whether the buildset publishes nothing beyond the header, resolved
    /// once at synthesis time: publication then skips the mask walk
    /// entirely (the mask-driven elision the compiled backend leans on,
    /// shared by every backend since the publish path is common).
    hdr_only: bool,
    /// Reusable block-publication buffer for the driver loop; taken and
    /// restored by [`Simulator::run_with_sink`] so repeated drive calls
    /// never re-grow a fresh `Vec`.
    scratch: Vec<DynInst>,
}

impl Simulator {
    /// Synthesizes a simulator for `isa` with the interface `buildset`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidInterface`] when the interface lint
    /// rejects the buildset (a value would be lost at a call boundary),
    /// [`BuildError::InvalidSpec`] when the ISA description is inconsistent,
    /// or [`BuildError::Lint`] when the full static analyzer's pre-flight
    /// finds other error-level diagnostics (speculation safety,
    /// derivability, specification self-checks, translation soundness).
    pub fn new(isa: &'static IsaSpec, buildset: BuildsetDef) -> Result<Simulator, BuildError> {
        isa.validate().map_err(BuildError::InvalidSpec)?;
        check_interface(isa, &buildset).map_err(|d| invalid_interface(&buildset, d))?;
        lis_analyze::preflight(isa, &buildset)
            .map_err(|diags| BuildError::Lint { buildset: buildset.name, diags })?;
        // The translation leg of the gate: synthesize the compiled
        // backend's decisions for this cell as plain data and refuse to
        // build if they are not a sound projection of the specification.
        // Every simulator passes it — the backend is switchable at any
        // time, so an unsound translation must be refused up front, not
        // when `set_backend(Compiled)` happens to be called.
        let view = crate::compile::synthesize_view(isa, &buildset);
        lis_analyze::preflight_translation(isa, &buildset, &view)
            .map_err(|diags| BuildError::Lint { buildset: buildset.name, diags })?;
        Ok(Simulator::build(isa, buildset))
    }

    /// Synthesizes a simulator *without* the analyzer pre-flight, keeping
    /// only encoding validation (the decode table needs a well-formed
    /// instruction table). This is the engine-level escape hatch behind the
    /// CLI's `--no-lint`: harness experiments use it to run a deliberately
    /// rejected interface and watch it actually misbehave.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidSpec`] when the ISA description is
    /// inconsistent.
    pub fn new_unchecked(
        isa: &'static IsaSpec,
        buildset: BuildsetDef,
    ) -> Result<Simulator, BuildError> {
        isa.validate().map_err(BuildError::InvalidSpec)?;
        Ok(Simulator::build(isa, buildset))
    }

    fn build(isa: &'static IsaSpec, buildset: BuildsetDef) -> Simulator {
        Simulator {
            isa,
            bs: buildset,
            backend: Backend::Compiled,
            state: ArchState::new(isa.endian),
            os: OsState::new(0),
            undo: UndoLog::new(),
            table: DecodeTable::build(isa),
            frame: Frame::new(),
            ops: Operands::new(),
            header: InstHeader::default(),
            opcode: ILLEGAL,
            expected: Step::Fetch,
            inst_fault: false,
            inst_cache: PcMap::default(),
            compiled: CompiledCache::default(),
            checkpoints: Vec::new(),
            stats: SimStats::default(),
            chaos: None,
            tainted: false,
            inst_flipped: false,
            verify_cache: false,
            demote: false,
            demotion_log: Vec::new(),
            deadline: None,
            vis_fields: buildset.visibility.fields,
            vis_ops: buildset.visibility.operand_ids,
            hdr_only: buildset.elides_publish(),
            scratch: Vec::new(),
        }
    }

    /// Selects the execution backend (default: [`Backend::Compiled`]).
    pub fn set_backend(&mut self, backend: Backend) -> &mut Self {
        self.backend = backend;
        self.clear_caches();
        self
    }

    /// Arms deterministic fault injection. The campaign starts fresh: any
    /// previous chaos state (including its event log) is discarded, and
    /// predecoded state is dropped so injection timing never depends on
    /// what an earlier run left in the caches.
    pub fn set_chaos(&mut self, plan: ChaosPlan) -> &mut Self {
        self.chaos = Some(ChaosState::new(plan));
        self.tainted = true;
        self.clear_caches();
        self
    }

    /// Arms a prepared chaos state directly — the scripted-replay entry
    /// point: a [`ChaosState::scripted`] built from a recorded event log
    /// replays that campaign verbatim (the minimizer probes sublists this
    /// way, and the supervised reference executes the subject's log).
    /// Procedural states work too and behave exactly like
    /// [`Simulator::set_chaos`].
    pub fn set_chaos_state(&mut self, state: ChaosState) -> &mut Self {
        self.chaos = Some(state);
        self.tainted = true;
        self.clear_caches();
        self
    }

    /// Disarms fault injection and returns the final chaos state (its event
    /// log records everything injected), if a campaign was armed.
    pub fn take_chaos(&mut self) -> Option<ChaosState> {
        self.chaos.take()
    }

    /// The running chaos campaign, if one is armed.
    pub fn chaos(&self) -> Option<&ChaosState> {
        self.chaos.as_ref()
    }

    /// Mutable access to the running chaos campaign — the supervised
    /// harness uses this to feed a scripted reference additional events as
    /// its subject logs them.
    pub fn chaos_mut(&mut self) -> Option<&mut ChaosState> {
        self.chaos.as_mut()
    }

    /// Enables compiled-backend self-verification: on every superblock-cache
    /// hit the first instruction word is refetched and compared against the
    /// cached copy. A mismatch (stale code after an unmap, self-modifying
    /// text, a corrupted cache) does not abort the run — the superblock
    /// cache is dropped, the block is rebuilt from memory without
    /// re-caching, and the degradation is counted in
    /// [`SimStats::fallback_blocks`].
    pub fn set_cache_verify(&mut self, on: bool) -> &mut Self {
        self.verify_cache = on;
        self
    }

    /// Enables the backend demotion ladder: when a trust violation is
    /// detected mid-run — a cache-verification freshness failure or a
    /// chaos-poisoned build — the engine demotes itself one rung
    /// (Compiled → Interpreted) and *continues* instead of only
    /// degrading block-by-block. Each demotion is recorded in
    /// [`Simulator::demotion_events`] and counted in
    /// [`SimStats::demotions`]. External supervisors (spot-check lockstep,
    /// watchdog pressure) can force a rung down at any time with
    /// [`Simulator::demote_now`], which works whether or not this flag is
    /// set.
    pub fn set_demote(&mut self, on: bool) -> &mut Self {
        self.demote = on;
        self
    }

    /// Whether the automatic demotion ladder is enabled.
    pub fn demote_enabled(&self) -> bool {
        self.demote
    }

    /// Every backend demotion taken so far, in order.
    pub fn demotion_events(&self) -> &[DemotionEvent] {
        &self.demotion_log
    }

    /// Demotes the backend one rung down the ladder right now, recording a
    /// structured [`DemotionEvent`] and dropping all predecoded/compiled
    /// state (the demotion exists precisely because that state is no longer
    /// trusted). Returns the new backend, or `None` when already at the
    /// bottom (Interpreted), in which case nothing changes.
    pub fn demote_now(&mut self, reason: DemotionReason) -> Option<Backend> {
        let from = self.backend;
        let to = from.demoted()?;
        self.demotion_log.push(DemotionEvent { inst: self.stats.insts, from, to, reason });
        self.stats.demotions += 1;
        self.backend = to;
        self.clear_caches();
        Some(to)
    }

    /// Adopts `state`/`os` as this simulator's architectural truth — the
    /// supervised-recovery path: after a spot-check divergence the subject
    /// resynchronizes from the reference simulator and continues on a
    /// demoted backend. All speculative state (undo log, checkpoints) and
    /// predecoded state is discarded; statistics are kept (they describe
    /// work actually performed).
    pub fn adopt_state(&mut self, state: &ArchState, os: &OsState) {
        self.state = state.clone();
        self.os = os.clone();
        self.undo.clear();
        self.checkpoints.clear();
        self.expected = Step::Fetch;
        self.opcode = ILLEGAL;
        self.clear_caches();
    }

    /// Sets a wall-clock deadline for [`Simulator::run_to_halt`]; when
    /// exceeded the driver stops with [`SimStop::Deadline`] instead of
    /// looping forever on a wedged or livelocked workload.
    pub fn set_deadline(&mut self, limit: Duration) -> &mut Self {
        self.deadline = Some(limit);
        self
    }

    /// Clears the wall-clock deadline.
    pub fn clear_deadline(&mut self) -> &mut Self {
        self.deadline = None;
        self
    }

    /// The ISA this simulator executes.
    pub fn isa(&self) -> &'static IsaSpec {
        self.isa
    }

    /// The buildset (interface) this simulator was synthesized for.
    pub fn buildset(&self) -> &BuildsetDef {
        &self.bs
    }

    /// The active backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Discards all predecoded and compiled state (needed after loading new
    /// code).
    pub fn clear_caches(&mut self) {
        self.inst_cache.clear();
        self.compiled.clear();
    }

    /// Number of superblocks currently in the compiled-code cache (test and
    /// diagnostics hook; zero unless the backend is [`Backend::Compiled`]).
    pub fn compiled_blocks(&self) -> usize {
        self.compiled.len()
    }

    /// Whether fault injection was ever armed on this simulator. Sticky:
    /// disarming ([`Simulator::take_chaos`]) does not clear it, because
    /// artifacts built during the campaign may still be cached (a
    /// translate-fault superblock is cached poisoned by design).
    pub fn tainted(&self) -> bool {
        self.tainted
    }

    /// Snapshots the translation caches as shareable plain data:
    /// decode-cache entries and compiled superblocks, each sorted by PC.
    /// Returns `None` for a [tainted](Simulator::tainted) simulator —
    /// nothing a chaos run built may escape into a shared store.
    pub fn export_artifacts(&self) -> Option<crate::Artifacts> {
        if self.tainted {
            return None;
        }
        let mut insts: Vec<(u64, (u16, u32))> =
            self.inst_cache.iter().map(|(&pc, &e)| (pc, e)).collect();
        insts.sort_unstable_by_key(|&(pc, _)| pc);
        Some(crate::Artifacts {
            isa: self.isa.name,
            buildset: self.bs.name,
            backend: self.backend,
            insts,
            compiled: self.compiled.export(),
        })
    }

    /// Seeds the translation caches from a snapshot, so this simulator
    /// starts warm with blocks another simulator already built. Must be
    /// called after [`Simulator::load_program`] and
    /// [`Simulator::set_backend`] (both clear the caches). Counts every
    /// adopted block in [`SimStats::seeded_blocks`] and returns the count.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::SeedError`] when the snapshot does not describe
    /// this simulator (different ISA, buildset, or backend) or
    /// when this simulator is [tainted](Simulator::tainted) — a chaos
    /// session's caches follow per-session invalidation rules and must stay
    /// private.
    pub fn seed_artifacts(&mut self, art: &crate::Artifacts) -> Result<usize, crate::SeedError> {
        use crate::SeedError;
        if self.tainted {
            return Err(SeedError::Tainted);
        }
        if art.isa != self.isa.name {
            return Err(SeedError::IsaMismatch);
        }
        if art.buildset != self.bs.name {
            return Err(SeedError::BuildsetMismatch);
        }
        if art.backend != self.backend {
            return Err(SeedError::BackendMismatch);
        }
        let mut seeded = 0usize;
        if self.backend == Backend::Compiled {
            for (pc, insts) in &art.compiled {
                let sb = Rc::new(Superblock::from_parts(*pc, insts.clone()));
                self.compiled.insert(*pc, sb);
                seeded += 1;
            }
        }
        for &(pc, entry) in &art.insts {
            self.inst_cache.insert(pc, entry);
        }
        self.stats.seeded_blocks += seeded as u64;
        Ok(seeded)
    }

    /// Loads a program image, points the PC at its entry, sets up the stack
    /// pointer and heap break.
    ///
    /// # Errors
    ///
    /// Returns the architectural fault if the image does not fit in memory.
    pub fn load_program(&mut self, image: &Image) -> Result<(), Fault> {
        let entry = self.state.mem.load_image(image)?;
        self.state.pc = entry & self.isa.pc_mask;
        let sp = STACK_TOP & self.isa.pc_mask;
        self.state.gpr[self.isa.sp_gpr as usize] = sp;
        let brk = (image.high_water() + 0xfff) & !0xfff;
        self.os.brk = brk;
        self.clear_caches();
        Ok(())
    }

    /// Re-runs the same program from scratch: architectural and OS state are
    /// reset and the image is reloaded, but predecoded blocks are *kept* —
    /// they describe the same text section, and keeping them lets repeated
    /// runs amortize predecode cost exactly the way the paper's binary
    /// translation amortizes over long simulations.
    ///
    /// # Errors
    ///
    /// Returns the architectural fault if the image does not fit in memory.
    pub fn reset_program(&mut self, image: &Image) -> Result<(), Fault> {
        self.state = ArchState::new(self.isa.endian);
        self.os = OsState::new(0);
        self.undo.clear();
        self.checkpoints.clear();
        self.expected = Step::Fetch;
        self.opcode = ILLEGAL;
        let entry = self.state.mem.load_image(image)?;
        self.state.pc = entry & self.isa.pc_mask;
        self.state.gpr[self.isa.sp_gpr as usize] = STACK_TOP & self.isa.pc_mask;
        self.os.brk = (image.high_water() + 0xfff) & !0xfff;
        Ok(())
    }

    /// Captured program stdout so far.
    pub fn stdout(&self) -> &[u8] {
        &self.os.stdout
    }

    /// Redirects the PC (e.g. after a timing simulator resolves a
    /// mispredicted branch differently).
    pub fn redirect(&mut self, pc: u64) {
        self.state.pc = pc & self.isa.pc_mask;
        self.expected = Step::Fetch;
    }

    // ------------------------------------------------------------------
    // Speculation control
    // ------------------------------------------------------------------

    /// Opens a checkpoint. All architectural effects after this point can be
    /// rolled back.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError::SpeculationDisabled`] unless the buildset
    /// enables speculation.
    pub fn checkpoint(&mut self) -> Result<CheckpointId, IfaceError> {
        if !self.bs.speculation {
            return Err(IfaceError::SpeculationDisabled);
        }
        let cp = Checkpoint {
            undo: self.undo.mark(),
            pc: self.state.pc,
            os: self.os.mark(),
            halted: self.state.halted,
            exit_code: self.state.exit_code,
        };
        self.checkpoints.push(cp);
        self.stats.checkpoints += 1;
        Ok(CheckpointId(self.checkpoints.len() - 1))
    }

    /// Rolls architectural state, OS state, and the PC back to `id`,
    /// discarding it and every newer checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError::BadCheckpoint`] if `id` was already consumed.
    pub fn rollback(&mut self, id: CheckpointId) -> Result<(), IfaceError> {
        if id.0 >= self.checkpoints.len() {
            return Err(IfaceError::BadCheckpoint);
        }
        let cp = self.checkpoints[id.0];
        self.undo.rollback(cp.undo, &mut self.state);
        self.os.rollback(cp.os);
        self.state.pc = cp.pc;
        self.state.halted = cp.halted;
        self.state.exit_code = cp.exit_code;
        self.checkpoints.truncate(id.0);
        self.expected = Step::Fetch;
        self.stats.rollbacks += 1;
        Ok(())
    }

    /// Confirms the speculation begun at `id`: the checkpoint (and every
    /// newer one) can no longer be rolled back to.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError::BadCheckpoint`] if `id` was already consumed.
    pub fn commit(&mut self, id: CheckpointId) -> Result<(), IfaceError> {
        if id.0 >= self.checkpoints.len() {
            return Err(IfaceError::BadCheckpoint);
        }
        self.checkpoints.truncate(id.0);
        if self.checkpoints.is_empty() {
            self.stats.undo_records += self.undo.len() as u64;
            self.undo.clear();
        }
        Ok(())
    }

    /// Overrides a memory value (the speculative-functional-first recovery
    /// channel). The write is undo-captured when a checkpoint is open.
    ///
    /// # Errors
    ///
    /// Returns memory faults for invalid addresses.
    pub fn poke_mem(&mut self, addr: u64, size: u8, val: u64) -> Result<(), Fault> {
        let mut ex = self.exec(ILLEGAL);
        ex.store(addr, size, val)
    }

    // ------------------------------------------------------------------
    // Engine internals
    // ------------------------------------------------------------------

    #[inline]
    fn exec(&mut self, opcode: u16) -> Exec<'_> {
        Exec {
            isa: self.isa,
            frame: &mut self.frame,
            ops: &mut self.ops,
            header: &mut self.header,
            opcode,
            state: &mut self.state,
            os: &mut self.os,
            undo: if self.bs.speculation { Some(&mut self.undo) } else { None },
            chaos: self.chaos.as_mut(),
        }
    }

    #[inline]
    fn begin_inst(&mut self, pc: u64) {
        self.frame.clear();
        self.ops.clear();
        self.header.pc = pc;
        self.header.phys_pc = pc; // identity address translation
        self.header.next_pc = pc.wrapping_add(4) & self.isa.pc_mask;
        self.header.instr_bits = 0;
        self.inst_fault = false;
        self.inst_flipped = false;
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.begin_inst(self.stats.insts);
        }
    }

    /// Routes a fetched word through the chaos injector, remembering whether
    /// it was corrupted so callers keep corrupted words out of the caches.
    #[inline]
    fn chaos_flip(&mut self, pc: u64, bits: u32) -> u32 {
        match self.chaos.as_mut() {
            Some(chaos) => {
                let word = chaos.maybe_flip_fetch(pc, bits);
                if word != bits {
                    self.inst_flipped = true;
                }
                word
            }
            None => bits,
        }
    }

    #[inline]
    fn fetch(&mut self) -> Result<(), Fault> {
        let bits = self.state.mem.fetch_u32(self.header.phys_pc, self.isa.endian)?;
        self.header.instr_bits = self.chaos_flip(self.header.phys_pc, bits);
        Ok(())
    }

    #[inline]
    fn run_action(&mut self, opcode: u16, step: Step) -> Result<(), Fault> {
        let def = self.isa.inst(opcode);
        if let Some(action) = def.actions.action(step) {
            let mut ex = self.exec(opcode);
            action(&mut ex)?;
        }
        Ok(())
    }

    /// Runs the post-decode steps (operand fetch → exception) through cached
    /// action pointers, in step order. This is the *single* interpreted
    /// invocation sequence behind `next_block`, `fast_forward`, and the
    /// predecode-fallback path; the compiled backend's flattened chains
    /// ([`CompiledInst`]) are its pre-filtered counterpart.
    #[inline]
    fn run_exec_actions(
        &mut self,
        opcode: u16,
        actions: &lis_core::StepActions,
    ) -> Result<(), Fault> {
        let mut ex = self.exec(opcode);
        actions.exec_slots().into_iter().flatten().try_for_each(|a| a(&mut ex))
    }

    /// Runs decode..exception for a decoded instruction (One/Block paths).
    #[inline]
    fn run_all_actions(&mut self, opcode: u16) -> Result<(), Fault> {
        self.frame.set(F_OPCODE, opcode as u64);
        let actions = self.isa.inst(opcode).actions;
        if let Some(a) = actions.decode {
            let mut ex = self.exec(opcode);
            a(&mut ex)?;
        }
        self.run_exec_actions(opcode, &actions)
    }

    /// Replays a predecoded instruction: captured decode results back into
    /// the working frame, then the shared execution chain. Falls back to
    /// the full decode-inclusive path when the capture overflowed or the
    /// decode action faulted at build time.
    #[inline]
    fn exec_predec(&mut self, e: &PredecInst, ipc: u64) -> Result<(), Fault> {
        if e.op == ILLEGAL {
            return Err(Fault::IllegalInstruction { pc: ipc, bits: e.bits });
        }
        if e.fallback {
            return self.run_all_actions(e.op);
        }
        self.ops = e.ops;
        for &(f, v) in &e.fields[..e.nfields as usize] {
            self.frame.set(lis_core::FieldId(f), v);
        }
        self.frame.set(F_OPCODE, e.op as u64);
        self.run_exec_actions(e.op, &e.actions)
    }

    /// Executes one compiled instruction: the same replay as
    /// [`Simulator::exec_predec`], but dispatching direct-threaded over the
    /// flattened chain — no per-step `Option` tests at run time.
    #[inline]
    fn exec_compiled(&mut self, e: &CompiledInst, ipc: u64) -> Result<(), Fault> {
        if e.op == ILLEGAL {
            return Err(Fault::IllegalInstruction { pc: ipc, bits: e.bits });
        }
        if e.fallback {
            return self.run_all_actions(e.op);
        }
        self.ops = e.ops;
        self.frame.replay(&e.field_vals, e.valid);
        let mut ex = self.exec(e.op);
        for a in &e.chain[..e.chain_len as usize] {
            a(&mut ex)?;
        }
        Ok(())
    }

    /// The single publication path for every entry point. Uses the
    /// synthesis-time `vis_fields`/`vis_ops` copies and charges the
    /// deterministic detail counters: one `published_values` unit per field
    /// store that crosses the boundary, one `published_opsets` unit per
    /// operand-set copy.
    #[inline]
    fn publish(&mut self, di: &mut DynInst, fault: Option<Fault>) {
        if self.hdr_only {
            // The mask excludes every field and the operand identifiers:
            // nothing to walk, nothing to charge (an empty-mask publish
            // counts zero published_values and zero published_opsets).
            di.publish_header(self.header, fault);
            return;
        }
        di.header = self.header;
        di.fault = fault;
        di.publish(&self.frame, self.vis_fields, &self.ops, self.vis_ops);
        self.stats.published_values += u64::from(di.fields_valid().len());
        self.stats.published_opsets += u64::from(self.vis_ops);
    }

    /// Charges the publication detail counters without building a record —
    /// the unobserved compiled driver's statically elided publish. The
    /// charges are exactly what [`Simulator::publish`] would have counted,
    /// keeping `detail_units` a pure function of (program, buildset,
    /// backend) whether or not anyone observes the records.
    #[inline]
    fn charge_publish(&mut self) {
        self.stats.published_values +=
            u64::from((self.frame.valid().0 & self.vis_fields.0).count_ones());
        self.stats.published_opsets += u64::from(self.vis_ops);
    }

    /// End-of-instruction housekeeping shared by all semantic levels.
    #[inline]
    fn retire(&mut self) {
        self.state.pc = self.header.next_pc;
        self.stats.insts += 1;
        if self.bs.speculation && self.checkpoints.is_empty() {
            self.stats.undo_records += self.undo.len() as u64;
            self.undo.clear();
        }
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.begin_inst(self.stats.insts);
            if chaos.maybe_unmap(&mut self.state.mem) {
                // Discarded code may be cached; predecoded state is now
                // unreliable (the chaos fault-storm invalidation path).
                // Superblock chains go with it: links into a cleared arena
                // can never validate.
                self.inst_cache.clear();
                self.compiled.clear();
            }
        }
    }

    #[inline]
    fn check_semantic(&self, wanted: Semantic) -> Result<(), IfaceError> {
        if self.bs.semantic != wanted {
            return Err(IfaceError::WrongSemantic { active: self.bs.semantic, wanted });
        }
        if self.state.halted {
            return Err(IfaceError::Halted);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Entry point: one call per instruction
    // ------------------------------------------------------------------

    /// Executes one instruction and publishes it into `di`.
    ///
    /// On an architectural fault, `di.fault` is set and the PC is left at
    /// the faulting instruction; the timing simulator decides what happens
    /// next.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError`] for wrong-semantic or post-exit calls.
    pub fn next_inst(&mut self, di: &mut DynInst) -> Result<(), IfaceError> {
        self.check_semantic(Semantic::One)?;
        self.stats.calls += 1;
        let pc = self.state.pc & self.isa.pc_mask;
        self.begin_inst(pc);

        let result = (|| -> Result<(), Fault> {
            // One-semantic interfaces have no blocks to compile; the
            // compiled backend degenerates to the decode cache here.
            let opcode = if self.backend != Backend::Interpreted {
                if let Some(&(op, bits)) = self.inst_cache.get(&pc) {
                    // The decode cache replaces the fetch, so the chaos flip
                    // channel applies to the delivered word here; a corrupted
                    // delivery decodes fresh and leaves the cache clean.
                    let word = self.chaos_flip(pc, bits);
                    self.header.instr_bits = word;
                    if self.inst_flipped {
                        self.table
                            .decode(self.isa, word)
                            .ok_or(Fault::IllegalInstruction { pc, bits: word })?
                    } else {
                        op
                    }
                } else {
                    self.fetch()?;
                    let op = self
                        .table
                        .decode(self.isa, self.header.instr_bits)
                        .ok_or(Fault::IllegalInstruction { pc, bits: self.header.instr_bits })?;
                    if !self.inst_flipped {
                        self.inst_cache.insert(pc, (op, self.header.instr_bits));
                    }
                    op
                }
            } else {
                self.fetch()?;
                self.table
                    .decode(self.isa, self.header.instr_bits)
                    .ok_or(Fault::IllegalInstruction { pc, bits: self.header.instr_bits })?
            };
            self.run_all_actions(opcode)
        })();

        match result {
            Ok(()) => {
                self.publish(di, None);
                self.retire();
            }
            Err(fault) => {
                self.publish(di, Some(fault));
                self.stats.faults += 1;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Entry point: fast-forward
    // ------------------------------------------------------------------

    /// Executes up to `n` instructions with **no** published information at
    /// all — the paper's fast-forward interface for sampled simulation
    /// ("perhaps one call to execute N instructions", §II-C). Returns the
    /// number of instructions executed (fewer than `n` if the program exits
    /// or a fault occurs; the fault will re-occur on the next regular call).
    ///
    /// Available on block-semantic interfaces, where the paper places the
    /// fast-forward path.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError`] for wrong-semantic or post-exit calls.
    pub fn fast_forward(&mut self, n: u64) -> Result<u64, IfaceError> {
        self.check_semantic(Semantic::Block)?;
        self.stats.calls += 1;
        let mut done = 0u64;
        'outer: while done < n && !self.state.halted {
            let pc = self.state.pc & self.isa.pc_mask;
            if self.backend == Backend::Compiled {
                let Ok((sb, _)) = self.lookup_compiled(pc) else { break };
                self.stats.blocks += 1;
                for (i, e) in sb.insts.iter().enumerate() {
                    let ipc = (pc.wrapping_add(4 * i as u64)) & self.isa.pc_mask;
                    self.begin_inst(ipc);
                    self.header.instr_bits = e.bits;
                    if self.exec_compiled(e, ipc).is_err() {
                        // Leave the PC at the faulting instruction; a
                        // regular interface call will reproduce it.
                        break 'outer;
                    }
                    self.retire();
                    done += 1;
                    if self.state.halted
                        || done == n
                        || self.header.next_pc != ipc.wrapping_add(4) & self.isa.pc_mask
                    {
                        continue 'outer;
                    }
                }
                continue 'outer;
            }
            let Ok(block) = self.interpret_block(pc) else { break };
            self.stats.blocks += 1;
            for (i, e) in block.insts.iter().enumerate() {
                let ipc = (pc.wrapping_add(4 * i as u64)) & self.isa.pc_mask;
                self.begin_inst(ipc);
                self.header.instr_bits = e.bits;
                if self.exec_predec(e, ipc).is_err() {
                    // Leave the PC at the faulting instruction; a regular
                    // interface call will reproduce and report the fault.
                    break 'outer;
                }
                self.retire();
                done += 1;
                if self.state.halted
                    || done == n
                    || self.header.next_pc != ipc.wrapping_add(4) & self.isa.pc_mask
                {
                    continue 'outer;
                }
            }
        }
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Entry point: one call per basic block
    // ------------------------------------------------------------------

    /// Executes one basic block, publishing one record per instruction into
    /// `out` (cleared first). Returns the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError`] for wrong-semantic or post-exit calls.
    pub fn next_block(&mut self, out: &mut Vec<DynInst>) -> Result<usize, IfaceError> {
        self.check_semantic(Semantic::Block)?;
        self.stats.calls += 1;
        self.stats.blocks += 1;
        if self.backend == Backend::Compiled {
            return self.next_block_compiled(out);
        }
        let pc = self.state.pc & self.isa.pc_mask;
        // `out` slots are reused across calls: existing records are
        // overwritten in place, so the per-instruction cost is the
        // publication itself, not buffer construction.
        let mut count = 0usize;

        let block = match self.interpret_block(pc) {
            Ok(b) => b,
            Err(fault) => {
                self.publish_head_fault(out, pc, fault);
                return Ok(0);
            }
        };

        for (i, e) in block.insts.iter().enumerate() {
            let ipc = (pc.wrapping_add(4 * i as u64)) & self.isa.pc_mask;
            self.begin_inst(ipc);
            self.header.instr_bits = e.bits;
            // Replay the captured decode results and run the remaining
            // steps through the shared action-chain helper.
            let result = self.exec_predec(e, ipc);
            if out.len() == count {
                out.push(DynInst::new());
            }
            let di = &mut out[count];
            di.clear();
            count += 1;
            match result {
                Ok(()) => {
                    self.publish(di, None);
                    self.retire();
                    if self.state.halted {
                        break;
                    }
                    if self.header.next_pc != ipc.wrapping_add(4) & self.isa.pc_mask {
                        break; // taken control flow ends the block
                    }
                }
                Err(fault) => {
                    self.publish(di, Some(fault));
                    self.stats.faults += 1;
                    break;
                }
            }
        }
        out.truncate(count);
        Ok(count)
    }

    /// Publishes the single faulting record a block call produces when the
    /// very first fetch of the block faults.
    fn publish_head_fault(&mut self, out: &mut Vec<DynInst>, pc: u64, fault: Fault) {
        self.begin_inst(pc);
        if out.is_empty() {
            out.push(DynInst::new());
        }
        out[0].clear();
        let (head, _) = out.split_at_mut(1);
        self.publish(&mut head[0], Some(fault));
        self.stats.faults += 1;
        out.truncate(1);
    }

    /// [`Simulator::next_block`] on the compiled backend: same one block
    /// per call, same publication contract, but execution dispatches over
    /// flattened chains and block lookup prefers the previous block's
    /// successor links to the PC index.
    fn next_block_compiled(&mut self, out: &mut Vec<DynInst>) -> Result<usize, IfaceError> {
        let pc = self.state.pc & self.isa.pc_mask;
        let mut count = 0usize;
        let sb = match self.lookup_compiled(pc) {
            Ok((sb, _)) => sb,
            Err(fault) => {
                self.publish_head_fault(out, pc, fault);
                return Ok(0);
            }
        };
        for (i, e) in sb.insts.iter().enumerate() {
            let ipc = (pc.wrapping_add(4 * i as u64)) & self.isa.pc_mask;
            self.begin_inst(ipc);
            self.header.instr_bits = e.bits;
            let result = self.exec_compiled(e, ipc);
            if out.len() == count {
                out.push(DynInst::new());
            }
            let di = &mut out[count];
            di.clear();
            count += 1;
            match result {
                Ok(()) => {
                    self.publish(di, None);
                    self.retire();
                    if self.state.halted {
                        break;
                    }
                    if self.header.next_pc != ipc.wrapping_add(4) & self.isa.pc_mask {
                        break; // taken control flow ends the block
                    }
                }
                Err(fault) => {
                    self.publish(di, Some(fault));
                    self.stats.faults += 1;
                    break;
                }
            }
        }
        out.truncate(count);
        Ok(count)
    }

    /// Whether a scripted chaos replay has a fetch-corrupting event due:
    /// block and decode caches must be bypassed so the injection hooks see
    /// the fetch at the recorded site instead of a cache hit swallowing it.
    #[inline]
    fn scripted_bypass(&self) -> bool {
        self.chaos.as_ref().is_some_and(|c| c.scripted_fetch_due())
    }

    /// The interpreted backend's block: predecoded afresh on every call and
    /// never cached, so nothing it runs can outlive the memory it came from.
    fn interpret_block(&mut self, pc: u64) -> Result<Block, Fault> {
        let (block, _) = self.build_block(pc)?;
        self.stats.blocks_built += 1;
        Ok(block)
    }

    /// Looks up (or builds) the compiled superblock starting at `pc`,
    /// preferring the previous block's successor links over the PC index
    /// and patching links as control flow is observed. The returned arena
    /// index is [`NO_LINK`] for one-shot blocks (stale rebuilds and
    /// chaos-poisoned builds), which are never cached and never linkable.
    fn lookup_compiled(&mut self, pc: u64) -> Result<(Rc<Superblock>, u32), Fault> {
        let prev = self.compiled.last;
        let hit = if self.scripted_bypass() {
            None
        } else {
            self.compiled.follow(prev, pc, self.isa.pc_mask).or_else(|| self.compiled.lookup(pc))
        };
        if let Some((sb, idx)) = hit {
            if !self.verify_cache || self.superblock_is_fresh(pc, &sb) {
                self.compiled.patch(prev, idx, pc, self.isa.pc_mask);
                self.compiled.last = idx;
                return Ok((sb, idx));
            }
            // Graceful degradation: the cached superblock no longer matches
            // memory (stale after an unmap, self-modifying text, or a
            // corrupted cache). Chained successors may be equally stale, so
            // the whole compiled cache is dropped and a one-shot rebuild
            // runs instead of stale code — and, on the demotion ladder, this
            // backend stops being trusted altogether.
            self.compiled.clear();
            self.stats.fallback_blocks += 1;
            if self.demote {
                self.demote_now(DemotionReason::CacheVerify);
            }
            let (block, _) = self.build_block(pc)?;
            self.stats.blocks_built += 1;
            return Ok((Rc::new(self.translate(pc, &block)), NO_LINK));
        }
        let (block, poisoned) = self.build_block(pc)?;
        self.stats.blocks_built += 1;
        let sb = Rc::new(self.translate(pc, &block));
        if poisoned {
            // A chaos-corrupted build stays transient: not cached, not
            // linkable, and the chain cursor is dropped so no later block
            // links back through it.
            self.compiled.last = NO_LINK;
            if self.demote {
                self.demote_now(DemotionReason::PoisonedBuild);
            }
            return Ok((sb, NO_LINK));
        }
        let idx = self.compiled.insert(pc, Rc::clone(&sb));
        if idx != NO_LINK {
            self.compiled.patch(prev, idx, pc, self.isa.pc_mask);
        }
        self.compiled.last = idx;
        Ok((sb, idx))
    }

    /// Compiles a superblock, routing the build through the chaos
    /// translate-fault channel: when the channel fires, one captured decode
    /// value is corrupted and the link hints scrambled
    /// ([`Superblock::poison`]). Unlike fetch flips, a translation fault is
    /// *not* flagged as poisoned — it models a silent translator bug, so
    /// the corrupt superblock is cached and chained like an honest one.
    /// First-word freshness probes cannot see it (the stored bits are
    /// correct); only supervised lockstep can.
    fn translate(&mut self, pc: u64, block: &Block) -> Superblock {
        let mut sb = Superblock::compile(pc, block, self.isa);
        if let Some(chaos) = self.chaos.as_mut() {
            if let Some((idx, bit)) = chaos.maybe_translate_fault(pc) {
                sb.poison(idx, bit);
            }
        }
        sb
    }

    /// Whether a cached superblock's first word still matches memory,
    /// probed on every block entry (linked or indexed) when cache
    /// verification is on. The check reads memory directly — it is an
    /// integrity probe, not an architectural fetch, so chaos injection does
    /// not apply.
    fn superblock_is_fresh(&self, pc: u64, sb: &Superblock) -> bool {
        let Some(first) = sb.insts.first() else { return false };
        match self.state.mem.fetch_u32(pc & self.isa.pc_mask, self.isa.endian) {
            Ok(word) => word == first.bits,
            Err(_) => false,
        }
    }

    /// Captures an instruction's decode results for replay; falls back to
    /// exec-time decoding when the decode action faults or produces more
    /// fields than the capture buffer holds.
    fn predecode(&mut self, op: u16, bits: u32, pc: u64) -> PredecInst {
        let actions = self.isa.inst(op).actions;
        let fallback = PredecInst {
            op,
            bits,
            ops: Operands::new(),
            fields: [(0, 0); 4],
            nfields: 0,
            fallback: true,
            actions,
        };
        self.begin_inst(pc);
        self.header.instr_bits = bits;
        if let Some(dec) = self.isa.inst(op).actions.decode {
            let mut ex = self.exec(op);
            if dec(&mut ex).is_err() {
                return fallback;
            }
        }
        let mut fields = [(0u8, 0u64); 4];
        let mut n = 0usize;
        for f in self.frame.valid().iter() {
            if n == fields.len() {
                return fallback;
            }
            fields[n] = (f.0, self.frame.raw(f.index()));
            n += 1;
        }
        PredecInst { op, bits, ops: self.ops, fields, nfields: n as u8, fallback: false, actions }
    }

    /// Predecodes the block starting at `pc`. The second return is whether
    /// any word was chaos-corrupted during the build (such blocks must not
    /// be cached).
    fn build_block(&mut self, pc: u64) -> Result<(Block, bool), Fault> {
        let mut insts: Vec<PredecInst> = Vec::new();
        let mut poisoned = false;
        let mut p = pc;
        loop {
            let fetched = match self.state.mem.fetch_u32(p & self.isa.pc_mask, self.isa.endian) {
                Ok(b) => b,
                Err(f) => {
                    if insts.is_empty() {
                        return Err(f.into());
                    }
                    break;
                }
            };
            let bits = self.chaos_flip(p & self.isa.pc_mask, fetched);
            poisoned |= bits != fetched;
            match self.table.decode(self.isa, bits) {
                Some(op) => {
                    insts.push(self.predecode(op, bits, p));
                    let class = self.isa.inst(op).class;
                    if matches!(class, InstClass::Branch | InstClass::Jump | InstClass::Syscall) {
                        break;
                    }
                }
                None => {
                    insts.push(PredecInst {
                        op: ILLEGAL,
                        bits,
                        ops: Operands::new(),
                        fields: [(0, 0); 4],
                        nfields: 0,
                        fallback: false,
                        actions: lis_core::StepActions::NONE,
                    });
                    break;
                }
            }
            if insts.len() >= DEFAULT_MAX_BLOCK {
                break;
            }
            p = p.wrapping_add(4);
        }
        Ok((Block { insts }, poisoned))
    }

    // ------------------------------------------------------------------
    // Entry point: seven calls per instruction
    // ------------------------------------------------------------------

    /// Executes one step of the current instruction, publishing visible
    /// state into `di` at the call boundary. Values hidden by the interface
    /// genuinely do not survive between calls — the engine reloads its
    /// working frame from `di` at the start of each step, which is what
    /// makes the interface lint's visibility requirements real.
    ///
    /// Between the `OperandFetch` and `Exception` calls the timing simulator
    /// may freely modify operand-value fields in `di` (bypass injection);
    /// the modified values are what the following steps consume.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError::OutOfOrderStep`] if steps are called out of
    /// order, and the usual wrong-semantic/halted errors.
    pub fn step_inst(&mut self, step: Step, di: &mut DynInst) -> Result<(), IfaceError> {
        self.check_semantic(Semantic::Step)?;
        if step != self.expected {
            return Err(IfaceError::OutOfOrderStep { expected: self.expected, got: step });
        }
        self.stats.calls += 1;

        let result: Result<(), Fault> = (|| match step {
            Step::Fetch => {
                let pc = self.state.pc & self.isa.pc_mask;
                self.begin_inst(pc);
                self.opcode = ILLEGAL;
                self.fetch()
            }
            Step::Decode => {
                self.reload(di);
                let pc = self.header.pc;
                let bits = self.header.instr_bits;
                let op = if self.backend != Backend::Interpreted && !self.inst_flipped {
                    match self.inst_cache.get(&pc) {
                        Some(&(op, _)) => op,
                        None => {
                            let op = self
                                .table
                                .decode(self.isa, bits)
                                .ok_or(Fault::IllegalInstruction { pc, bits })?;
                            self.inst_cache.insert(pc, (op, bits));
                            op
                        }
                    }
                } else {
                    self.table
                        .decode(self.isa, bits)
                        .ok_or(Fault::IllegalInstruction { pc, bits })?
                };
                self.opcode = op;
                self.frame.set(F_OPCODE, op as u64);
                self.run_action(op, Step::Decode)
            }
            _ => {
                self.reload(di);
                let op = self.opcode;
                debug_assert_ne!(op, ILLEGAL, "step after decode fault");
                self.run_action(op, step)
            }
        })();

        match result {
            Ok(()) => {
                self.publish(di, None);
                if step == Step::Exception {
                    self.retire();
                    self.expected = Step::Fetch;
                } else {
                    self.expected = step.next().unwrap_or(Step::Fetch);
                }
            }
            Err(fault) => {
                // The instruction is aborted; the next call starts a fresh
                // fetch at the (unadvanced) PC.
                self.publish(di, Some(fault));
                self.stats.faults += 1;
                self.expected = Step::Fetch;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Per-operand control (timing-directed bypass support)
    // ------------------------------------------------------------------

    /// Re-reads source operand `i` from *current* architectural state and
    /// republishes its value into `di` — the paper's individual operand-read
    /// call, letting a timing-directed simulator choose exactly when each
    /// source is fetched (e.g. after an older in-flight instruction's
    /// writeback). Legal on step-level interfaces between the `Decode` and
    /// `Evaluate` calls; returns the value read, or `None` if the
    /// instruction has no such source operand.
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError::WrongSemantic`] off step-level interfaces and
    /// [`IfaceError::OutOfOrderStep`] outside the decode→evaluate window.
    pub fn fetch_src_operand(
        &mut self,
        di: &mut DynInst,
        i: usize,
    ) -> Result<Option<u64>, IfaceError> {
        if self.bs.semantic != Semantic::Step {
            return Err(IfaceError::WrongSemantic {
                active: self.bs.semantic,
                wanted: Semantic::Step,
            });
        }
        if !matches!(self.expected, Step::OperandFetch | Step::Evaluate) {
            return Err(IfaceError::OutOfOrderStep {
                expected: self.expected,
                got: Step::OperandFetch,
            });
        }
        self.reload(di);
        let Some(&r) = di.operands().and_then(|o| o.srcs().get(i)) else {
            return Ok(None);
        };
        let v = (self.isa.reg_classes[r.class as usize].read)(&self.state, r.index);
        self.frame.set(lis_core::SRC_FIELDS[i], v);
        self.publish(di, di.fault);
        Ok(Some(v))
    }

    /// Writes destination operand `i` from the value published in `di` to
    /// architectural state *now* — the paper's individual operand-write
    /// call. Legal on step-level interfaces after `Evaluate`; returns
    /// whether a value was written (false when the instruction did not
    /// produce that destination, e.g. a squashed conditional).
    ///
    /// # Errors
    ///
    /// Returns [`IfaceError::WrongSemantic`] off step-level interfaces and
    /// [`IfaceError::OutOfOrderStep`] before the evaluate call has run.
    pub fn write_dest_operand(&mut self, di: &DynInst, i: usize) -> Result<bool, IfaceError> {
        if self.bs.semantic != Semantic::Step {
            return Err(IfaceError::WrongSemantic {
                active: self.bs.semantic,
                wanted: Semantic::Step,
            });
        }
        if !matches!(self.expected, Step::Memory | Step::Writeback | Step::Exception) {
            return Err(IfaceError::OutOfOrderStep {
                expected: self.expected,
                got: Step::Writeback,
            });
        }
        let Some(&r) = di.operands().and_then(|o| o.dests().get(i)) else {
            return Ok(false);
        };
        let Some(v) = di.field(lis_core::DEST_FIELDS[i]) else {
            return Ok(false);
        };
        let def = &self.isa.reg_classes[r.class as usize];
        if self.bs.speculation {
            let old = (def.read)(&self.state, r.index);
            self.undo.push(lis_core::UndoRec::Reg { write: def.write, idx: r.index, old });
        }
        (def.write)(&mut self.state, r.index, v);
        Ok(true)
    }

    #[inline]
    fn reload(&mut self, di: &DynInst) {
        self.header = di.header;
        di.reload(&mut self.frame, &mut self.ops);
    }

    // ------------------------------------------------------------------
    // Driver
    // ------------------------------------------------------------------

    /// Drives the simulator until the program exits, a fault occurs, or
    /// `max_insts` instructions have executed. The driving loop uses the
    /// buildset's own semantic level.
    ///
    /// # Errors
    ///
    /// Returns [`SimStop::Fault`] on an architectural fault,
    /// [`SimStop::MaxInsts`] when the budget runs out, and
    /// [`SimStop::Deadline`] when a wall-clock deadline set with
    /// [`Simulator::set_deadline`] expires.
    pub fn run_to_halt(&mut self, max_insts: u64) -> Result<RunSummary, SimStop> {
        let start = self.stats.insts;
        // Dispatch loop, not a single dispatch: a mid-run demotion makes the
        // compiled driver hand back cleanly (halted = false), and the rest
        // of the budget continues on whatever backend the ladder left
        // active. The generic driver re-dispatches per call on its own, so
        // only the compiled fast driver ever returns here early.
        loop {
            let left = max_insts - (self.stats.insts - start);
            let summary =
                if self.backend == Backend::Compiled && self.bs.semantic == Semantic::Block {
                    self.run_compiled(left)?
                } else {
                    self.run_with_sink(left, |_| {})?
                };
            if summary.halted {
                return Ok(RunSummary {
                    insts: self.stats.insts - start,
                    halted: true,
                    exit_code: summary.exit_code,
                });
            }
        }
    }

    /// The compiled backend's unobserved block driver: chains superblocks
    /// with no record construction at all. With no sink there is nobody to
    /// observe the publication buffers, so the work the visibility mask
    /// would govern is statically elided — only the deterministic detail
    /// charges remain ([`Simulator::charge_publish`]), keeping every
    /// counter identical to the record-publishing drivers.
    fn run_compiled(&mut self, max_insts: u64) -> Result<RunSummary, SimStop> {
        let start = self.stats.insts;
        let started_at = self.deadline.map(|limit| (Instant::now(), limit));
        let mut ticks = 0u32;
        // The hot configuration: nobody injecting faults, no undo log to
        // drain. Every per-instruction effect then lands in the execution
        // frame, the header, the architectural state, or the stats counters,
        // so the superblock can run on one Exec context built per *block*
        // (not per instruction) over split field borrows.
        let fast = self.chaos.is_none() && !self.bs.speculation;
        while !self.state.halted {
            // Budget first: the block whose lookup demoted the backend has
            // already run to its end and may have crossed the budget, and a
            // hand-back must leave `run_to_halt` a nonnegative remainder.
            if self.stats.insts - start >= max_insts {
                return Err(SimStop::MaxInsts);
            }
            if self.backend != Backend::Compiled {
                // The demotion ladder fired inside a lookup: this driver's
                // translations are no longer trusted, so hand the rest of
                // the run back to `run_to_halt` for re-dispatch.
                break;
            }
            if let Some((t0, limit)) = started_at {
                if ticks & 0x3f == 0 && t0.elapsed() >= limit {
                    return Err(SimStop::Deadline);
                }
                ticks = ticks.wrapping_add(1);
            }
            self.stats.calls += 1;
            self.stats.blocks += 1;
            let pc = self.state.pc & self.isa.pc_mask;
            let (sb, idx) = match self.lookup_compiled(pc) {
                Ok(hit) => hit,
                Err(fault) => {
                    // Mirror the block call's head-fault record accounting.
                    self.begin_inst(pc);
                    self.charge_publish();
                    self.stats.faults += 1;
                    return Err(SimStop::Fault(fault));
                }
            };
            if fast {
                let left = max_insts - (self.stats.insts - start);
                self.run_superchain_fast(sb, idx, pc, left, started_at)?;
                continue;
            }
            for (i, e) in sb.insts.iter().enumerate() {
                let ipc = (pc.wrapping_add(4 * i as u64)) & self.isa.pc_mask;
                self.begin_inst(ipc);
                self.header.instr_bits = e.bits;
                match self.exec_compiled(e, ipc) {
                    Ok(()) => {
                        self.charge_publish();
                        self.retire();
                        if self.state.halted {
                            break;
                        }
                        if self.header.next_pc != ipc.wrapping_add(4) & self.isa.pc_mask {
                            break; // taken control flow ends the block
                        }
                    }
                    Err(fault) => {
                        self.charge_publish();
                        self.stats.faults += 1;
                        return Err(SimStop::Fault(fault));
                    }
                }
            }
        }
        Ok(RunSummary {
            insts: self.stats.insts - start,
            halted: self.state.halted,
            exit_code: self.state.exit_code,
        })
    }

    /// Superblock-chain execution on the unobserved fast path: chaos-free
    /// and non-speculative by precondition, so a single [`Exec`] context
    /// serves the whole chain and the per-instruction work reduces to the
    /// frame reset, the decode replay, the flattened chain, and the
    /// deterministic stat charges (accumulated in locals and flushed at
    /// every exit). When a block ends, execution follows the superblock's
    /// successor links *inline* — steady-state hot loops never leave this
    /// function, paying the driver's lookup/dispatch cost only on a link
    /// miss. Counter-for-counter identical to the slow loop: each embedded
    /// block charges one call and one block, exactly like a driver entry.
    fn run_superchain_fast(
        &mut self,
        sb: Rc<Superblock>,
        mut idx: u32,
        mut pc: u64,
        insts_left: u64,
        started_at: Option<(Instant, Duration)>,
    ) -> Result<(), SimStop> {
        let isa = self.isa;
        let mask = isa.pc_mask;
        let vis = self.vis_fields.0;
        let vis_ops = u64::from(self.vis_ops);
        // Freshness probes (cache verification) live in the driver's lookup,
        // so inline chaining would skip them; chain only when it is off.
        let may_chain = !self.verify_cache;
        let Simulator { frame, ops, header, state, os, stats, compiled, .. } = self;
        let mut ex =
            Exec { isa, frame, ops, header, opcode: 0, state, os, undo: None, chaos: None };
        // Local accumulators keep the per-instruction counter traffic in
        // registers; flushed on every path out of the chain.
        let mut insts = 0u64;
        let mut pv = 0u64;
        let mut po = 0u64;
        let mut links = 0u64;
        let mut ticks = 0u32;
        // The entry block is held by `Rc` (one-shot blocks never enter the
        // arena); chained successors are borrowed from the arena by index,
        // avoiding two refcount updates per basic block.
        let mut cur: &Superblock = &sb;
        'chain: loop {
            let mut fault = None;
            for (i, e) in cur.insts.iter().enumerate() {
                let ipc = pc.wrapping_add(4 * i as u64) & mask;
                ex.header.pc = ipc;
                ex.header.phys_pc = ipc; // identity address translation
                ex.header.next_pc = ipc.wrapping_add(4) & mask;
                ex.header.instr_bits = e.bits;
                ex.opcode = e.op;
                let result = if e.op == ILLEGAL {
                    ex.frame.clear();
                    Err(Fault::IllegalInstruction { pc: ipc, bits: e.bits })
                } else if e.fallback {
                    // Rare: the predecode capture overflowed, so decode
                    // reruns.
                    ex.frame.clear();
                    ex.ops.clear();
                    ex.frame.set(F_OPCODE, e.op as u64);
                    let actions = isa.inst(e.op).actions;
                    match actions.decode.map_or(Ok(()), |a| a(&mut ex)) {
                        Ok(()) => {
                            actions.exec_slots().into_iter().flatten().try_for_each(|a| a(&mut ex))
                        }
                        Err(fault) => Err(fault),
                    }
                } else {
                    *ex.ops = e.ops;
                    ex.frame.replay(&e.field_vals, e.valid);
                    let mut r = Ok(());
                    for a in &e.chain[..e.pre_hi as usize] {
                        r = a(&mut ex);
                        if r.is_err() {
                            break;
                        }
                    }
                    if r.is_ok() {
                        if e.has_fetch {
                            // Generic operand fetch, specialized at
                            // translation: operands whose class declares a
                            // register-file backing were lowered to direct
                            // loads; the rest keep their resolved
                            // accessor. Values are staged and the validity
                            // mask updated once for the batch.
                            for (j, src) in e.src_reads().iter().enumerate() {
                                let v = match *src {
                                    SrcOp::Gpr(i) => ex.state.gpr[i as usize],
                                    SrcOp::Spr(s) => ex.state.spr[s as usize],
                                    SrcOp::Call(read, i) => read(ex.state, i),
                                };
                                ex.frame.stage(SRC_FIELDS[j], v);
                            }
                            ex.frame.mark_valid(e.src_mask());
                        }
                        for a in &e.chain[e.mid_lo as usize..e.mid_hi as usize] {
                            r = a(&mut ex);
                            if r.is_err() {
                                break;
                            }
                        }
                    }
                    if r.is_ok() && e.has_wb {
                        // Generic writeback, likewise; the fast path runs
                        // without an undo log by precondition, so the
                        // write is unconditional once the value field
                        // exists.
                        for (j, dest) in e.dest_writes().iter().enumerate() {
                            if let Some(v) = ex.frame.try_get(DEST_FIELDS[j]) {
                                match *dest {
                                    DestOp::Gpr(i, m) => ex.state.gpr[i as usize] = v & m,
                                    DestOp::Spr(s, m) => ex.state.spr[s as usize] = v & m,
                                    DestOp::Call(write, i) => write(ex.state, i, v),
                                }
                            }
                        }
                    }
                    r
                };
                pv += u64::from((ex.frame.valid().0 & vis).count_ones());
                po += vis_ops;
                match result {
                    Ok(()) => {
                        insts += 1;
                        if ex.state.halted {
                            break;
                        }
                        if ex.header.next_pc != ipc.wrapping_add(4) & mask {
                            break; // taken control flow ends the block
                        }
                    }
                    Err(f) => {
                        // The architectural PC stays at the faulting
                        // instruction, exactly as the per-instruction
                        // drivers leave it.
                        ex.state.pc = ipc;
                        fault = Some(f);
                        break;
                    }
                }
            }
            // The per-instruction PC store is deferred to the block exits:
            // every non-fault path leaves the last executed instruction's
            // successor in `header.next_pc`.
            if fault.is_none() {
                ex.state.pc = ex.header.next_pc;
            }
            if let Some(f) = fault {
                compiled.last = idx;
                stats.insts += insts;
                stats.published_values += pv;
                stats.published_opsets += po;
                stats.calls += links;
                stats.blocks += links;
                stats.faults += 1;
                return Err(SimStop::Fault(f));
            }
            if ex.state.halted || !may_chain || insts >= insts_left {
                break 'chain;
            }
            if let Some((t0, limit)) = started_at {
                // Same stride as the driver's deadline probe; a miss here
                // just surfaces at the driver's own check.
                if ticks & 0x3f == 0 && t0.elapsed() >= limit {
                    break 'chain;
                }
                ticks = ticks.wrapping_add(1);
            }
            let next_pc = ex.state.pc & mask;
            match compiled.follow_idx(idx, next_pc, mask) {
                Some(nidx) => {
                    idx = nidx;
                    pc = next_pc;
                    links += 1;
                    cur = compiled.peek(nidx).expect("follow_idx returned a live index");
                }
                None => break 'chain,
            }
        }
        // The driver's next lookup patches successor links from this block.
        compiled.last = idx;
        stats.insts += insts;
        stats.published_values += pv;
        stats.published_opsets += po;
        stats.calls += links;
        stats.blocks += links;
        Ok(())
    }

    /// Like [`Simulator::run_to_halt`], but calls `sink` with every
    /// published [`DynInst`] record as it retires — including a final
    /// faulting record, which the sink sees before the fault is returned.
    ///
    /// This is the engine's retirement hook: a trace recorder (or any other
    /// stream consumer) observes exactly the record stream the buildset's
    /// interface publishes, with no engine-side knowledge of the consumer.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run_to_halt`].
    pub fn run_with_sink(
        &mut self,
        max_insts: u64,
        mut sink: impl FnMut(&DynInst),
    ) -> Result<RunSummary, SimStop> {
        // The block buffer is engine-owned scratch: taking it out (and
        // putting it back on every exit path) means repeated drive calls —
        // the sweep runs thousands of them — publish into already-grown
        // storage instead of reallocating per call.
        let mut buf = std::mem::take(&mut self.scratch);
        if buf.capacity() < DEFAULT_MAX_BLOCK {
            buf.reserve(DEFAULT_MAX_BLOCK - buf.len());
        }
        let result = self.drive(max_insts, &mut sink, &mut buf);
        self.scratch = buf;
        result
    }

    fn drive(
        &mut self,
        max_insts: u64,
        sink: &mut impl FnMut(&DynInst),
        buf: &mut Vec<DynInst>,
    ) -> Result<RunSummary, SimStop> {
        let start = self.stats.insts;
        let started_at = self.deadline.map(|limit| (Instant::now(), limit));
        let mut ticks = 0u32;
        let mut di = DynInst::new();
        while !self.state.halted {
            if self.stats.insts - start >= max_insts {
                return Err(SimStop::MaxInsts);
            }
            if let Some((t0, limit)) = started_at {
                // Checking the clock every iteration would tax the One and
                // Step drivers; a 64-iteration stride keeps the watchdog
                // responsive without measurable overhead.
                if ticks & 0x3f == 0 && t0.elapsed() >= limit {
                    return Err(SimStop::Deadline);
                }
                ticks = ticks.wrapping_add(1);
            }
            match self.bs.semantic {
                Semantic::One => {
                    self.next_inst(&mut di)?;
                    sink(&di);
                    if let Some(f) = di.fault {
                        return Err(SimStop::Fault(f));
                    }
                }
                Semantic::Block => {
                    self.next_block(buf)?;
                    for d in buf.iter() {
                        sink(d);
                    }
                    if let Some(f) = buf.last().and_then(|d| d.fault) {
                        return Err(SimStop::Fault(f));
                    }
                }
                Semantic::Step => {
                    for step in Step::ALL {
                        self.step_inst(step, &mut di)?;
                        if let Some(f) = di.fault {
                            sink(&di);
                            return Err(SimStop::Fault(f));
                        }
                    }
                    sink(&di);
                }
            }
        }
        Ok(RunSummary {
            insts: self.stats.insts - start,
            halted: self.state.halted,
            exit_code: self.state.exit_code,
        })
    }
}
