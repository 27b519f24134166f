//! Supervised execution: a chaos campaign with a shadow reference and a
//! demotion ladder instead of an abort.
//!
//! [`supervised_run`] drives the subject simulator through its own interface
//! under a chaos plan, exactly like [`crate::chaos_run`] — but a reference
//! simulator (`one-min`, interpreted) shadows it, replaying the subject's
//! own injection log as a script ([`lis_runtime::ChaosState::scripted`]).
//! Every retired record is compared, and every `spot_stride` interface units
//! the full architectural state (registers, stdout, and all of memory) is
//! spot-checked — the paranoid lockstep that catches what no cache probe
//! can, such as a silently poisoned translation.
//!
//! What happens on a divergence is the point of the module: with
//! [`SuperviseConfig::demote`] set, the subject walks one rung down the
//! backend demotion ladder ([`lis_runtime::Simulator::demote_now`]), adopts
//! the reference's architectural state, and *continues*. The run completes
//! with a structured demotion log instead of aborting, and the final state
//! is lockstep-equal to the reference by construction. Without `demote`, the
//! first divergence ends the run with [`SuperviseOutcome::Diverged`] — the
//! probe mode the plan minimizer uses.

use crate::compare::{compare_retired, RetiredCmp};
use crate::driver::advance;
use crate::lockstep::{retired, HarnessError};
use crate::report::{RetiredInst, Ring};
use crate::watchdog::Watchdog;
use lis_core::{BuildsetDef, DynInst, IsaSpec, ONE_MIN};
use lis_mem::Image;
use lis_runtime::{
    Backend, ChaosEvent, ChaosPlan, ChaosState, DemotionEvent, DemotionReason, SimStats, Simulator,
};
use std::fmt;
use std::time::Duration;

/// Tunables for one supervised run.
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Stop after this many compared records (retired or faulted).
    pub max_insts: u64,
    /// Interface units between full spot checks (registers, stdout, and all
    /// of memory). Record headers are compared on every unit regardless.
    pub spot_stride: u64,
    /// Recover from divergences (demote + resync + continue) instead of
    /// stopping at the first one.
    pub demote: bool,
    /// Optional wall-clock limit for the whole run.
    pub deadline: Option<Duration>,
    /// Fraction of the deadline after which the supervisor proactively
    /// demotes one rung (once), trading speed for trust before the watchdog
    /// fires. Only meaningful with a deadline and `demote`.
    pub deadline_frac: f64,
    /// Abort as a fault storm after this many architectural faults.
    pub max_faults: u64,
    /// Abort as a fault storm after this many consecutive faults at one PC.
    pub max_streak: u32,
    /// Maximum memory deltas sampled when describing a divergence.
    pub mem_delta_cap: usize,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            max_insts: 500_000,
            spot_stride: 64,
            demote: false,
            deadline: None,
            deadline_frac: 0.9,
            max_faults: 256,
            max_streak: 8,
            mem_delta_cap: 16,
        }
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperviseOutcome {
    /// The program exited (faults and recoveries notwithstanding).
    Halted {
        /// Guest exit code.
        exit_code: i64,
    },
    /// The instruction budget ran out with the pair still in agreement.
    Budget,
    /// Fault storm: the fault budget or the same-PC streak limit tripped.
    Storm,
    /// The wall-clock deadline expired.
    Deadline,
    /// A divergence was found and recovery was off (`demote = false`).
    Diverged,
}

/// The full record of one supervised run.
#[derive(Debug, Clone)]
pub struct SuperviseReport {
    /// ISA name.
    pub isa: &'static str,
    /// Subject buildset name.
    pub buildset: &'static str,
    /// The backend the subject started on.
    pub backend: Backend,
    /// The backend the subject ended on (lower when the ladder fired).
    pub final_backend: Backend,
    /// Campaign seed (plan seed, or the recorded seed for replays).
    pub seed: u64,
    /// Classification of the run.
    pub outcome: SuperviseOutcome,
    /// Compared records (retired or faulted), identical on both sides.
    pub insts: u64,
    /// Architectural faults observed (always agreed between the pair).
    pub faults: u64,
    /// Every injection event the subject logged, in order.
    pub events: Vec<ChaosEvent>,
    /// Every demotion the subject took, in order.
    pub demotions: Vec<DemotionEvent>,
    /// Cause of each divergence found (recovered ones included).
    pub divergences: Vec<String>,
    /// Whether the final architectural state (registers, stdout, memory)
    /// matches the reference exactly.
    pub verified: bool,
    /// Subject engine statistics (includes the demotion counter).
    pub stats: SimStats,
    /// The last records processed before the run ended.
    pub ring: Vec<RetiredInst>,
    /// Rendered subject state at the end of the run.
    pub final_state: String,
}

impl fmt::Display for SuperviseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "supervised {} {} ({} -> {}) seed {:#x}: {:?} after {} insts, {} faults, \
             {} events, {} demotion(s), {} divergence(s), verified={}",
            self.isa,
            self.buildset,
            self.backend.name(),
            self.final_backend.name(),
            self.seed,
            self.outcome,
            self.insts,
            self.faults,
            self.events.len(),
            self.demotions.len(),
            self.divergences.len(),
            self.verified
        )
    }
}

impl SuperviseReport {
    /// Full crash-snapshot text: summary, injection log, demotion log,
    /// divergence causes, ring buffer, and final state.
    pub fn snapshot(&self) -> String {
        use fmt::Write;
        let mut out = format!("{self}\n");
        out.push_str("--- injection events ---\n");
        for e in &self.events {
            let _ = writeln!(out, "  {e}");
        }
        out.push_str("--- demotions ---\n");
        for d in &self.demotions {
            let _ = writeln!(out, "  {d}");
        }
        out.push_str("--- divergences ---\n");
        for d in &self.divergences {
            let _ = writeln!(out, "  {d}");
        }
        out.push_str("--- last instructions ---\n");
        for r in &self.ring {
            let _ = write!(out, "  #{:<8} {:#010x}: {:08x}", r.index, r.pc, r.bits);
            if let Some(fault) = r.fault {
                let _ = write!(out, "  !! {fault}");
            }
            out.push('\n');
        }
        out.push_str("--- final state ---\n");
        out.push_str(&self.final_state);
        out
    }
}

/// Runs `image` on `(bs, backend)` under the procedural chaos `plan`,
/// supervised by a shadow reference. See the module docs.
///
/// # Errors
///
/// Construction and load errors only; divergence is an outcome here, not an
/// error — that is the whole point of supervision.
pub fn supervised_run(
    spec: &'static IsaSpec,
    image: &Image,
    bs: BuildsetDef,
    backend: Backend,
    plan: ChaosPlan,
    cfg: &SuperviseConfig,
) -> Result<SuperviseReport, HarnessError> {
    run_supervised(spec, image, bs, backend, ChaosState::new(plan), plan.seed, cfg)
}

/// Replays a recorded event log as the subject's campaign (scripted mode)
/// under supervision — the probe the plan minimizer and the regression
/// corpus use. `seed` only labels the run.
///
/// # Errors
///
/// See [`supervised_run`].
pub fn supervised_replay(
    spec: &'static IsaSpec,
    image: &Image,
    bs: BuildsetDef,
    backend: Backend,
    seed: u64,
    events: &[ChaosEvent],
    cfg: &SuperviseConfig,
) -> Result<SuperviseReport, HarnessError> {
    let script = ChaosState::scripted(seed, events.iter().copied());
    run_supervised(spec, image, bs, backend, script, seed, cfg)
}

/// Rewrites an event's instruction stamp down by `skew` — the number of
/// subject instructions discarded by adoptions so far. The subject stamps
/// events with *its* retired count; after a resync the subject runs ahead of
/// the reference by exactly the discarded work, so un-skewing the stamp
/// makes the event due when the reference reaches the same architectural
/// point.
fn unskewed(ev: ChaosEvent, skew: u64) -> ChaosEvent {
    let shift = |inst: u64| inst.saturating_sub(skew);
    match ev {
        ChaosEvent::BitFlip { inst, pc, bit, before, after } => {
            ChaosEvent::BitFlip { inst: shift(inst), pc, bit, before, after }
        }
        ChaosEvent::DataFault { inst, addr, kind } => {
            ChaosEvent::DataFault { inst: shift(inst), addr, kind }
        }
        ChaosEvent::PageUnmap { inst, base } => ChaosEvent::PageUnmap { inst: shift(inst), base },
        ChaosEvent::TranslateFault { inst, pc, idx, bit } => {
            ChaosEvent::TranslateFault { inst: shift(inst), pc, idx, bit }
        }
    }
}

/// Forwards every subject event logged since the last call to the
/// reference's script, architectural ones only (the reference performs no
/// translation, so translate faults have no site there).
fn feed_reference(subject: &Simulator, reference: &mut Simulator, fed: &mut usize, skew: u64) {
    let Some(events) = subject.chaos().map(|c| c.events()) else { return };
    let new = &events[*fed..];
    *fed = events.len();
    if new.is_empty() {
        return;
    }
    let script = reference.chaos_mut().expect("reference script armed");
    for ev in new {
        if ev.architectural() {
            script.push_event(unskewed(*ev, skew));
        }
    }
}

/// Full-state spot check: registers and PC, stdout, and all of memory.
/// Returns the rendered cause of the first disagreement, `None` on
/// agreement.
fn spot_check(subject: &Simulator, reference: &Simulator, cap: usize) -> Option<String> {
    if let Some(d) = reference.state.first_diff(&subject.state) {
        return Some(format!("state disagreement (reference vs subject) — {d}"));
    }
    if subject.stdout() != reference.stdout() {
        return Some(format!(
            "stdout disagreement: reference {} bytes, subject {} bytes",
            reference.stdout().len(),
            subject.stdout().len()
        ));
    }
    let deltas = subject.state.mem.diff(&reference.state.mem, cap);
    if !deltas.is_empty() {
        return Some(format!("memory disagreement: {} byte(s) differ", deltas.len()));
    }
    None
}

fn run_supervised(
    spec: &'static IsaSpec,
    image: &Image,
    bs: BuildsetDef,
    backend: Backend,
    chaos: ChaosState,
    seed: u64,
    cfg: &SuperviseConfig,
) -> Result<SuperviseReport, HarnessError> {
    let mut subject = Simulator::new(spec, bs).map_err(HarnessError::Build)?;
    subject.set_backend(backend);
    subject.set_cache_verify(true);
    subject.set_demote(cfg.demote);
    subject.set_chaos_state(chaos);
    subject.load_program(image).map_err(HarnessError::Load)?;

    let mut reference = Simulator::new(spec, ONE_MIN).map_err(HarnessError::Build)?;
    reference.set_backend(Backend::Interpreted);
    reference.set_chaos_state(ChaosState::scripted(seed, []));
    reference.load_program(image).map_err(HarnessError::Load)?;

    let mut watchdog = Watchdog::with_stride(cfg.deadline, 1);
    let mut ring = Ring::new();
    let mut buf: Vec<DynInst> = Vec::new();
    let mut ref_di = DynInst::new();
    let mut seen = 0u64;
    let mut faults = 0u64;
    let mut last_fault_pc = u64::MAX;
    let mut streak = 0u32;
    let mut units = 0u64;
    let mut fed = 0usize;
    // Subject instructions discarded by resyncs so far; see `unskewed`.
    let mut skew = 0u64;
    let mut divergences: Vec<String> = Vec::new();
    let mut deadline_demoted = false;

    let outcome = 'run: loop {
        if subject.state.halted {
            break ChaosOutcomeLocal::Halted;
        }
        if seen >= cfg.max_insts {
            break ChaosOutcomeLocal::Budget;
        }
        if watchdog.expired() {
            break ChaosOutcomeLocal::Deadline;
        }
        if cfg.demote && !deadline_demoted && watchdog.near(cfg.deadline_frac) {
            // One proactive rung before the deadline fires — not a spiral:
            // further pressure is the watchdog's business.
            deadline_demoted = true;
            subject.demote_now(DemotionReason::Deadline);
        }

        let n = advance(&mut subject, &mut buf).map_err(HarnessError::Iface)?;
        feed_reference(&subject, &mut reference, &mut fed, skew);

        let mut diverged: Option<String> = None;
        for s in &buf[..n] {
            ref_di.clear();
            reference.next_inst(&mut ref_di).map_err(HarnessError::Iface)?;
            ring.push(retired(seen, s));
            seen += 1;
            match compare_retired((&s.header, s.fault), (&ref_di.header, ref_di.fault)) {
                RetiredCmp::Agree => {}
                RetiredCmp::AgreedFault(_) => {
                    // Both sides trapped identically: count it and skip the
                    // faulting instruction on both, campaign-style.
                    faults += 1;
                    let fpc = s.header.pc;
                    if fpc == last_fault_pc {
                        streak += 1;
                    } else {
                        last_fault_pc = fpc;
                        streak = 1;
                    }
                    if faults >= cfg.max_faults || streak >= cfg.max_streak {
                        break 'run ChaosOutcomeLocal::Storm;
                    }
                    subject.redirect(fpc.wrapping_add(4));
                    reference.redirect(fpc.wrapping_add(4));
                    break; // a fault ends the interface unit
                }
                RetiredCmp::Diverge(cause) => {
                    diverged = Some(cause);
                    break;
                }
            }
        }

        units += 1;
        if diverged.is_none() && units.is_multiple_of(cfg.spot_stride) {
            diverged = spot_check(&subject, &reference, cfg.mem_delta_cap);
        }
        if let Some(cause) = diverged {
            divergences.push(format!("inst {seen}: {cause}"));
            if !cfg.demote {
                break ChaosOutcomeLocal::Diverged;
            }
            // Recovery: the subject's execution is no longer trusted, so
            // walk one rung down (when there is one) and resynchronize from
            // the reference — which is the architectural truth by the
            // single-specification premise. Events pending on the
            // reference's script belong to the discarded timeline.
            subject.demote_now(DemotionReason::SpotCheck);
            skew = subject.stats.insts.saturating_sub(reference.stats.insts);
            subject.adopt_state(&reference.state, &reference.os);
            if let Some(script) = reference.chaos_mut() {
                script.clear_pending();
            }
        }
    };

    let outcome = match outcome {
        ChaosOutcomeLocal::Halted => {
            SuperviseOutcome::Halted { exit_code: subject.state.exit_code }
        }
        ChaosOutcomeLocal::Budget => SuperviseOutcome::Budget,
        ChaosOutcomeLocal::Storm => SuperviseOutcome::Storm,
        ChaosOutcomeLocal::Deadline => SuperviseOutcome::Deadline,
        ChaosOutcomeLocal::Diverged => SuperviseOutcome::Diverged,
    };
    let verified = spot_check(&subject, &reference, cfg.mem_delta_cap).is_none();
    let events = subject.chaos().map(|c| c.events().to_vec()).unwrap_or_default();
    Ok(SuperviseReport {
        isa: spec.name,
        buildset: bs.name,
        backend,
        final_backend: subject.backend(),
        seed,
        outcome,
        insts: seen,
        faults,
        events,
        demotions: subject.demotion_events().to_vec(),
        divergences,
        verified,
        stats: subject.stats,
        ring: ring.to_vec(),
        final_state: subject.state.to_string(),
    })
}

/// Loop-local outcome tag, converted to [`SuperviseOutcome`] after the
/// subject is no longer borrowed (the exit-code read needs it).
enum ChaosOutcomeLocal {
    Halted,
    Budget,
    Storm,
    Deadline,
    Diverged,
}
