//! Lockstep execution of a subject simulator against the reference.
//!
//! The reference is always the simplest derivation of the same single
//! specification: the `one-min` buildset on the interpreted backend — no
//! block cache, no predecode, no speculation machinery. Any disagreement
//! between the subject and the reference is therefore a bug in the richer
//! interface's synthesis, not in the specification.

use crate::compare::{compare_retired, RetiredCmp};
use crate::driver::advance;
use crate::report::{DivergenceReport, RegDelta, RetiredInst, Ring};
use lis_core::{BuildsetDef, DynInst, Fault, IsaSpec, ONE_MIN};
use lis_mem::Image;
use lis_runtime::{Backend, BuildError, IfaceError, Simulator};
use std::fmt;

/// Tunables for one lockstep run.
#[derive(Debug, Clone, Copy)]
pub struct LockstepConfig {
    /// Stop (successfully) after this many instructions.
    pub max_insts: u64,
    /// Full-memory comparison interval, in interface units. Registers, PC,
    /// and stdout are compared after every unit; sweeping all resident pages
    /// that often would dominate the run, so memory gets a periodic sweep
    /// plus a final one at halt.
    pub mem_check_stride: u64,
    /// Maximum memory deltas collected into a report.
    pub mem_delta_cap: usize,
    /// Arm the subject's demotion ladder: cache verification on plus
    /// automatic demotion, so a verify pass additionally asserts that a run
    /// surviving a mid-run backend demotion still matches the reference.
    pub demote: bool,
}

impl Default for LockstepConfig {
    fn default() -> LockstepConfig {
        LockstepConfig {
            max_insts: 2_000_000,
            mem_check_stride: 1024,
            mem_delta_cap: 16,
            demote: false,
        }
    }
}

/// How a lockstep run ended when no divergence was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockstepOutcome {
    /// Both simulators ran the program to exit in agreement.
    Halted {
        /// Program exit code.
        exit_code: i64,
        /// Dynamic instructions compared.
        insts: u64,
        /// Captured stdout (identical on both sides).
        stdout: Vec<u8>,
    },
    /// Both simulators reported the same architectural fault and stopped.
    Faulted {
        /// The agreed fault.
        fault: Fault,
        /// Dynamic instructions compared before the fault.
        insts: u64,
    },
    /// The instruction budget ran out with the simulators still in agreement.
    MaxInsts {
        /// Dynamic instructions compared.
        insts: u64,
    },
}

/// Why a harness run could not complete.
#[derive(Debug)]
pub enum HarnessError {
    /// The subject (or reference) simulator could not be constructed.
    Build(BuildError),
    /// The program image failed to load.
    Load(Fault),
    /// A derived interface was used incorrectly — a harness or engine bug.
    Iface(IfaceError),
    /// The subject and reference disagreed.
    Divergence(Box<DivergenceReport>),
    /// The run completed but its result was wrong (golden-output mismatch,
    /// unexpected fault, budget exhaustion where a clean exit was expected).
    Unexpected(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Build(e) => write!(f, "build error: {e}"),
            HarnessError::Load(e) => write!(f, "image load fault: {e}"),
            HarnessError::Iface(e) => write!(f, "interface error: {e}"),
            HarnessError::Divergence(r) => write!(f, "{r}"),
            HarnessError::Unexpected(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Runs `image` on the subject `(bs, backend)` simulator in lockstep with
/// the reference, using default settings and no perturbation.
///
/// # Errors
///
/// [`HarnessError::Divergence`] when the two simulators disagree, plus the
/// construction/load errors.
pub fn lockstep(
    spec: &'static IsaSpec,
    image: &Image,
    bs: BuildsetDef,
    backend: Backend,
) -> Result<LockstepOutcome, HarnessError> {
    lockstep_with(spec, image, bs, backend, &LockstepConfig::default(), None)
}

/// Mutable hook called after every interface unit with the instruction count
/// and the subject simulator; see [`lockstep_with`].
pub type PerturbHook<'a> = &'a mut dyn FnMut(u64, &mut Simulator);

/// Full-control lockstep: explicit configuration plus an optional
/// perturbation hook, called after every interface unit (before the state
/// comparison) with the current instruction count and mutable access to the
/// subject. Tests use the hook to corrupt the subject mid-run and prove the
/// detector fires; pass `None` for a plain verification run.
///
/// # Errors
///
/// See [`lockstep`].
pub fn lockstep_with(
    spec: &'static IsaSpec,
    image: &Image,
    bs: BuildsetDef,
    backend: Backend,
    cfg: &LockstepConfig,
    mut perturb: Option<PerturbHook<'_>>,
) -> Result<LockstepOutcome, HarnessError> {
    let mut subject = Simulator::new(spec, bs).map_err(HarnessError::Build)?;
    subject.set_backend(backend);
    if cfg.demote {
        subject.set_cache_verify(true);
        subject.set_demote(true);
    }
    subject.load_program(image).map_err(HarnessError::Load)?;

    let mut reference = Simulator::new(spec, ONE_MIN).map_err(HarnessError::Build)?;
    reference.set_backend(Backend::Interpreted);
    reference.load_program(image).map_err(HarnessError::Load)?;

    let mut ls =
        Lockstep { spec, bs, backend, cfg, sub_ring: Ring::new(), ref_ring: Ring::new(), insts: 0 };
    let mut sub_buf: Vec<DynInst> = Vec::new();
    let mut ref_di = DynInst::new();
    let mut units = 0u64;

    while !subject.state.halted {
        if ls.insts >= cfg.max_insts {
            ls.check(&subject, &reference, true)?;
            return Ok(LockstepOutcome::MaxInsts { insts: ls.insts });
        }
        let n = advance(&mut subject, &mut sub_buf).map_err(HarnessError::Iface)?;
        for s in &sub_buf[..n] {
            ref_di.clear();
            reference.next_inst(&mut ref_di).map_err(HarnessError::Iface)?;
            ls.sub_ring.push(retired(ls.insts, s));
            ls.ref_ring.push(retired(ls.insts, &ref_di));
            match compare_retired((&s.header, s.fault), (&ref_di.header, ref_di.fault)) {
                RetiredCmp::Agree => {}
                RetiredCmp::AgreedFault(fault) => {
                    // Agreed fault: neither side can make progress past it,
                    // so verify final agreement and stop here.
                    ls.check(&subject, &reference, true)?;
                    return Ok(LockstepOutcome::Faulted { fault, insts: ls.insts });
                }
                RetiredCmp::Diverge(cause) => {
                    return Err(ls.diverged(&subject, &reference, s, cause));
                }
            }
            ls.insts += 1;
        }
        if let Some(p) = perturb.as_deref_mut() {
            p(ls.insts, &mut subject);
        }
        units += 1;
        ls.check(&subject, &reference, units.is_multiple_of(cfg.mem_check_stride))?;
    }

    ls.check(&subject, &reference, true)?;
    Ok(LockstepOutcome::Halted {
        exit_code: subject.state.exit_code,
        insts: ls.insts,
        stdout: subject.stdout().to_vec(),
    })
}

/// Per-run bookkeeping shared by the comparison helpers.
struct Lockstep<'a> {
    spec: &'static IsaSpec,
    bs: BuildsetDef,
    backend: Backend,
    cfg: &'a LockstepConfig,
    sub_ring: Ring,
    ref_ring: Ring,
    insts: u64,
}

impl Lockstep<'_> {
    /// Boundary comparison: registers, PC, halt status, and stdout after
    /// every unit; resident memory too when `deep`.
    fn check(
        &self,
        subject: &Simulator,
        reference: &Simulator,
        deep: bool,
    ) -> Result<(), HarnessError> {
        let regs_ok = subject.state.regs_eq(&reference.state);
        let stdout_ok = subject.stdout() == reference.stdout();
        let mem_deltas = if deep || !regs_ok || !stdout_ok {
            subject.state.mem.diff(&reference.state.mem, self.cfg.mem_delta_cap)
        } else {
            Vec::new()
        };
        if regs_ok && stdout_ok && mem_deltas.is_empty() {
            return Ok(());
        }
        let cause = if let Some(d) = reference.state.first_diff(&subject.state) {
            format!("state disagreement (reference vs subject) — {d}")
        } else if !stdout_ok {
            format!(
                "stdout disagreement: reference {} bytes, subject {} bytes",
                reference.stdout().len(),
                subject.stdout().len()
            )
        } else {
            format!("memory disagreement: {} byte(s) differ", mem_deltas.len())
        };
        let last = self.sub_ring.to_vec().last().copied();
        let (pc, bits) = last.map_or((subject.state.pc, 0), |r| (r.pc, r.bits));
        Err(self.report(subject, reference, pc, bits, cause, mem_deltas))
    }

    /// Divergence detected on a published record (fault or header mismatch).
    fn diverged(
        &self,
        subject: &Simulator,
        reference: &Simulator,
        s: &DynInst,
        cause: String,
    ) -> HarnessError {
        let mem = subject.state.mem.diff(&reference.state.mem, self.cfg.mem_delta_cap);
        self.report(subject, reference, s.header.pc, s.header.instr_bits, cause, mem)
    }

    fn report(
        &self,
        subject: &Simulator,
        reference: &Simulator,
        pc: u64,
        bits: u32,
        cause: String,
        mem_deltas: Vec<lis_mem::MemDelta>,
    ) -> HarnessError {
        let mut reg_deltas = Vec::new();
        for class in self.spec.reg_classes {
            for i in 0..class.count {
                let r = (class.read)(&reference.state, i);
                let s = (class.read)(&subject.state, i);
                if r != s {
                    reg_deltas.push(RegDelta {
                        class: class.name,
                        index: i,
                        reference: r,
                        subject: s,
                    });
                }
            }
        }
        HarnessError::Divergence(Box::new(DivergenceReport {
            isa: self.spec.name,
            buildset: self.bs.name,
            backend: self.backend,
            inst_index: self.insts,
            pc,
            disasm: (self.spec.disasm)(bits, pc),
            cause,
            reg_deltas,
            mem_deltas,
            reference_ring: self.ref_ring.to_vec(),
            subject_ring: self.sub_ring.to_vec(),
            reference_state: reference.state.to_string(),
            subject_state: subject.state.to_string(),
            disasm_fn: self.spec.disasm,
        }))
    }
}

pub(crate) fn retired(index: u64, di: &DynInst) -> RetiredInst {
    RetiredInst {
        index,
        pc: di.header.pc,
        bits: di.header.instr_bits,
        next_pc: di.header.next_pc,
        fault: di.fault,
    }
}

/// Short human label for a lockstep job, used by `lis verify` output.
pub fn job_label(isa: &str, bs: &BuildsetDef, backend: Backend, workload: &str) -> String {
    format!("{isa}/{}/{}/{workload}", bs.name, backend.name())
}
