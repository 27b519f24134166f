//! The `.chaosplan` file: a replayable, human-readable chaos repro.
//!
//! A minimized divergence is only worth anything if it can be committed and
//! replayed forever, so the minimizer's output is serialized into a small
//! line-oriented text file: a header pinning the cell (ISA, buildset,
//! backend, kernel, seed, supervision limits) plus one line per injection
//! event, exactly the scripted-replay input. `expect diverge` plans are
//! regression repros (the replay must still find the divergence);
//! `expect survive` plans pin recoveries (the replay must complete verified
//! under demotion). [`ChaosPlanFile::replay`] evaluates either kind and is
//! what both `lis chaos --replay` and the committed corpus test run.

use crate::lockstep::HarnessError;
use crate::supervise::{supervised_replay, SuperviseConfig, SuperviseOutcome, SuperviseReport};
use lis_mem::AccessKind;
use lis_runtime::{Backend, ChaosEvent};
use std::fmt;

/// Magic first line of every plan file.
pub const CHAOSPLAN_MAGIC: &str = "lis-chaosplan v1";

/// What a replay of the plan is expected to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanExpect {
    /// The scripted replay must diverge from the reference (demotion off).
    Diverge,
    /// The scripted replay must complete with a verified final state
    /// (demotion on) — a pinned recovery.
    Survive,
}

/// A parsed (or about-to-be-written) `.chaosplan` file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlanFile {
    /// ISA name (`alpha`, `arm`, `ppc`).
    pub isa: String,
    /// Subject buildset name.
    pub buildset: String,
    /// Subject starting backend.
    pub backend: Backend,
    /// Suite kernel name.
    pub kernel: String,
    /// Campaign seed the events were recorded under (labels the replay).
    pub seed: u64,
    /// Record budget for the replay.
    pub max_insts: u64,
    /// Spot-check stride for the replay.
    pub spot_stride: u64,
    /// Expected replay verdict.
    pub expect: PlanExpect,
    /// The injection script, in firing order.
    pub events: Vec<ChaosEvent>,
}

/// Outcome of replaying a plan file.
#[derive(Debug)]
pub struct PlanReplay {
    /// Whether the replay matched the plan's `expect` line.
    pub matched: bool,
    /// The full supervised report, for diagnostics.
    pub report: SuperviseReport,
}

impl fmt::Display for ChaosPlanFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{CHAOSPLAN_MAGIC}")?;
        writeln!(f, "isa {}", self.isa)?;
        writeln!(f, "buildset {}", self.buildset)?;
        writeln!(f, "backend {}", self.backend.name())?;
        writeln!(f, "kernel {}", self.kernel)?;
        writeln!(f, "seed {:#x}", self.seed)?;
        writeln!(f, "max-insts {}", self.max_insts)?;
        writeln!(f, "spot-stride {}", self.spot_stride)?;
        let expect = match self.expect {
            PlanExpect::Diverge => "diverge",
            PlanExpect::Survive => "survive",
        };
        writeln!(f, "expect {expect}")?;
        for ev in &self.events {
            match *ev {
                ChaosEvent::BitFlip { inst, pc, bit, before, after } => writeln!(
                    f,
                    "event flip inst={inst} pc={pc:#x} bit={bit} \
                     before={before:#010x} after={after:#010x}"
                )?,
                ChaosEvent::DataFault { inst, addr, kind } => {
                    let kind = match kind {
                        AccessKind::Load => "load",
                        AccessKind::Store => "store",
                        AccessKind::Fetch => "fetch",
                    };
                    writeln!(f, "event data-fault inst={inst} addr={addr:#x} kind={kind}")?;
                }
                ChaosEvent::PageUnmap { inst, base } => {
                    writeln!(f, "event unmap inst={inst} base={base:#x}")?;
                }
                ChaosEvent::TranslateFault { inst, pc, idx, bit } => writeln!(
                    f,
                    "event translate-fault inst={inst} pc={pc:#x} idx={idx:#x} bit={bit}"
                )?,
            }
        }
        Ok(())
    }
}

fn int(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse::<u64>()
    };
    parsed.map_err(|_| format!("bad integer {s:?}"))
}

/// Parses `key=value` fields of an `event` line into (key, value) pairs.
fn fields(rest: &str) -> Result<Vec<(&str, &str)>, String> {
    rest.split_whitespace()
        .map(|tok| tok.split_once('=').ok_or_else(|| format!("bad field {tok:?}")))
        .collect()
}

fn field<'a>(pairs: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    pairs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing field {key}"))
}

impl ChaosPlanFile {
    /// Renders the plan in `.chaosplan` v1 text form (the [`fmt::Display`]
    /// impl, named for discoverability).
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    /// Parses `.chaosplan` v1 text.
    ///
    /// # Errors
    ///
    /// Returns a line-prefixed message for any malformed or missing line;
    /// unknown header keys and event kinds are errors, not warnings — a
    /// repro file that is silently half-understood is worse than a rejected
    /// one.
    pub fn parse(text: &str) -> Result<ChaosPlanFile, String> {
        let mut lines = text.lines().enumerate();
        let (_, magic) = lines.next().ok_or("empty plan file")?;
        if magic.trim() != CHAOSPLAN_MAGIC {
            return Err(format!("bad magic {magic:?} (want {CHAOSPLAN_MAGIC:?})"));
        }
        let mut isa = None;
        let mut buildset = None;
        let mut backend = None;
        let mut kernel = None;
        let mut seed = None;
        let mut max_insts = 500_000u64;
        let mut spot_stride = 64u64;
        let mut expect = None;
        let mut events = Vec::new();
        for (idx, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |m: String| format!("line {}: {m}", idx + 1);
            let (key, rest) =
                line.split_once(char::is_whitespace).ok_or_else(|| at(format!("bare {line:?}")))?;
            let rest = rest.trim();
            match key {
                "isa" => isa = Some(rest.to_string()),
                "buildset" => buildset = Some(rest.to_string()),
                "backend" => backend = Some(rest.parse().map_err(at)?),
                "kernel" => kernel = Some(rest.to_string()),
                "seed" => seed = Some(int(rest).map_err(at)?),
                "max-insts" => max_insts = int(rest).map_err(at)?,
                "spot-stride" => spot_stride = int(rest).map_err(at)?,
                "expect" => {
                    expect = Some(match rest {
                        "diverge" => PlanExpect::Diverge,
                        "survive" => PlanExpect::Survive,
                        other => return Err(at(format!("bad expect {other:?}"))),
                    });
                }
                "event" => {
                    let (kind, body) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
                    let pairs = fields(body).map_err(&at)?;
                    let get = |k: &str| field(&pairs, k).and_then(int);
                    let ev = match kind {
                        "flip" => ChaosEvent::BitFlip {
                            inst: get("inst").map_err(&at)?,
                            pc: get("pc").map_err(&at)?,
                            bit: get("bit").map_err(&at)? as u8,
                            before: get("before").map_err(&at)? as u32,
                            after: get("after").map_err(&at)? as u32,
                        },
                        "data-fault" => ChaosEvent::DataFault {
                            inst: get("inst").map_err(&at)?,
                            addr: get("addr").map_err(&at)?,
                            kind: match field(&pairs, "kind").map_err(&at)? {
                                "load" => AccessKind::Load,
                                "store" => AccessKind::Store,
                                "fetch" => AccessKind::Fetch,
                                other => return Err(at(format!("bad kind {other:?}"))),
                            },
                        },
                        "unmap" => ChaosEvent::PageUnmap {
                            inst: get("inst").map_err(&at)?,
                            base: get("base").map_err(&at)?,
                        },
                        "translate-fault" => ChaosEvent::TranslateFault {
                            inst: get("inst").map_err(&at)?,
                            pc: get("pc").map_err(&at)?,
                            idx: get("idx").map_err(&at)? as u32,
                            bit: get("bit").map_err(&at)? as u8,
                        },
                        other => return Err(at(format!("unknown event kind {other:?}"))),
                    };
                    events.push(ev);
                }
                other => return Err(at(format!("unknown key {other:?}"))),
            }
        }
        Ok(ChaosPlanFile {
            isa: isa.ok_or("missing isa line")?,
            buildset: buildset.ok_or("missing buildset line")?,
            backend: backend.ok_or("missing backend line")?,
            kernel: kernel.ok_or("missing kernel line")?,
            seed: seed.ok_or("missing seed line")?,
            max_insts,
            spot_stride,
            expect: expect.ok_or("missing expect line")?,
            events,
        })
    }

    /// Replays the plan's event script in supervised mode and judges the
    /// outcome against the `expect` line. `diverge` plans probe with
    /// demotion off; `survive` plans run with demotion on and must end
    /// verified with no outstanding divergence.
    ///
    /// # Errors
    ///
    /// `Err` for unknown ISA/buildset/kernel names or harness errors; a
    /// replay that runs but contradicts `expect` is `Ok` with
    /// `matched == false`.
    pub fn replay(&self) -> Result<PlanReplay, String> {
        let known_isa = lis_workloads::ISAS.contains(&self.isa.as_str());
        if !known_isa {
            return Err(format!("unknown isa {:?}", self.isa));
        }
        let spec = lis_workloads::spec_of(&self.isa);
        let bs = *lis_core::find_buildset(&self.buildset)
            .ok_or_else(|| format!("unknown buildset {:?}", self.buildset))?;
        let workload = lis_workloads::kernel(&self.isa, &self.kernel)
            .ok_or_else(|| format!("unknown kernel {:?}", self.kernel))?;
        let image = workload.assemble().map_err(|e| format!("assemble: {e}"))?;
        let cfg = SuperviseConfig {
            max_insts: self.max_insts,
            spot_stride: self.spot_stride,
            demote: self.expect == PlanExpect::Survive,
            ..SuperviseConfig::default()
        };
        let report =
            supervised_replay(spec, &image, bs, self.backend, self.seed, &self.events, &cfg)
                .map_err(|e: HarnessError| e.to_string())?;
        let matched = match self.expect {
            PlanExpect::Diverge => report.outcome == SuperviseOutcome::Diverged,
            PlanExpect::Survive => report.verified && report.outcome != SuperviseOutcome::Diverged,
        };
        Ok(PlanReplay { matched, report })
    }
}
