//! The shared diagnostic model: stable codes, severities, and locations.
//!
//! Every pass of the analyzer reports through one [`Diagnostic`] shape so
//! that all three renderers (human text, line-delimited JSON, SARIF) and the
//! CI gate can treat findings uniformly. Codes are *stable*: `LIS001` means
//! the same thing in every release, scripts may match on it.

use lis_core::Step;
use std::fmt;

/// A stable diagnostic code (`LIS001`, `LIS002`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LIS{:03}", self.0)
    }
}

/// Visibility dataflow: a value crossing an interface-call boundary is
/// hidden by the buildset.
pub const LIS001: Code = Code(1);
/// Speculation safety: an architectural write reachable under a speculative
/// buildset is not provably covered by an `UndoRec` variant.
pub const LIS002: Code = Code(2);
/// Over-detail: the buildset publishes items no inter-step flow consumes
/// across any of its call boundaries.
pub const LIS003: Code = Code(3);
/// Derivability: the buildset is not a genuine projection of the single
/// specification (bad step partition or visibility outside the max-detail
/// lattice).
pub const LIS004: Code = Code(4);
/// ISA self-check: the single specification itself is inconsistent
/// (encodings, operands vs. flows, dead steps, missing exception handling).
pub const LIS005: Code = Code(5);
/// Elision soundness: the compiled backend statically elides a publish the
/// buildset's visibility mask still observes.
pub const LIS006: Code = Code(6);
/// Reg-backing consistency: a lowered direct register access is not covered
/// by a `RegBacking` declaration that matches the accessor functions.
pub const LIS007: Code = Code(7);
/// Specialized undo coverage: a speculative cell's translation loses an
/// undo capture, or a non-speculative cell still carries undo plumbing.
pub const LIS008: Code = Code(8);
/// Chain-link validity: superblock successor hints are trusted without
/// entry-PC validation, or a deferred PC store escapes a chain boundary.
pub const LIS009: Code = Code(9);
/// Demotion totality: a compiled cell has no faithful Interpreted
/// equivalent for the supervision ladder to demote into.
pub const LIS010: Code = Code(10);

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not known-broken; `--deny-warnings` escalates.
    Warning,
    /// The interface or specification is wrong; simulation would misbehave.
    Error,
}

impl Severity {
    /// Lower-case name, matching the SARIF `level` values.
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code identifying the pass and rule.
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// ISA the finding applies to.
    pub isa: &'static str,
    /// Buildset the finding applies to (`None` for ISA-level findings).
    pub buildset: Option<&'static str>,
    /// Instruction the finding is anchored to, when one is.
    pub inst: Option<&'static str>,
    /// Step the finding is anchored to, when one is.
    pub step: Option<Step>,
    /// What is wrong.
    pub message: String,
    /// Suggested fix.
    pub help: String,
}

impl Diagnostic {
    /// Logical location `isa[/buildset][/inst]`, used by every renderer.
    pub fn location(&self) -> String {
        let mut loc = String::from(self.isa);
        if let Some(bs) = self.buildset {
            loc.push('/');
            loc.push_str(bs);
        }
        if let Some(inst) = self.inst {
            loc.push('/');
            loc.push_str(inst);
        }
        loc
    }

    /// Stable suppression fingerprint, used by `lis lint --baseline`.
    ///
    /// **Stability rule:** the fingerprint hashes exactly the code, the
    /// logical location (`isa[/buildset][/inst]`), and the step anchor —
    /// nothing else. Message and help text may be reworded freely without
    /// invalidating a baseline; a finding moving to a new instruction,
    /// buildset, or step counts as *new*. Multiple findings sharing one
    /// (code, location, step) anchor deliberately share a fingerprint.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, 64-bit: tiny, dependency-free, and stable across
        // platforms and releases (unlike the std hasher).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        eat(self.code.to_string().as_bytes());
        eat(b"\0");
        eat(self.location().as_bytes());
        eat(b"\0");
        if let Some(step) = self.step {
            eat(step.name().as_bytes());
        }
        h
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}] {}", self.code, self.severity, self.location(), self.message)
    }
}

/// Whether any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Number of diagnostics at `severity`.
pub fn count(diags: &[Diagnostic], severity: Severity) -> usize {
    diags.iter().filter(|d| d.severity == severity).count()
}

/// Registry entry describing one pass, for SARIF rule metadata and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassInfo {
    /// The pass's stable code.
    pub code: Code,
    /// Short kebab-case pass name.
    pub name: &'static str,
    /// One-line description (SARIF `shortDescription`).
    pub short: &'static str,
    /// What the pass guarantees when it reports nothing (SARIF `help`).
    pub help: &'static str,
    /// Severities the pass can emit, most severe first (`"error"`,
    /// `"warning"`, or `"error, warning"`). The first entry doubles as the
    /// SARIF rule's default level.
    pub levels: &'static str,
}

/// Every pass the analyzer runs, in code order.
pub const PASSES: &[PassInfo] = &[
    PassInfo {
        code: LIS001,
        name: "visibility-dataflow",
        short: "a value crossing an interface-call boundary must be visible",
        help: "Every inter-step dataflow edge whose producing and consuming steps land in \
               different interface calls must be published by the buildset's visibility; \
               otherwise the value is lost at the boundary and simulation diverges.",
        levels: "error",
    },
    PassInfo {
        code: LIS002,
        name: "speculation-safety",
        short: "architectural writes under speculation must be undo-covered",
        help: "Under a speculative buildset every architectural write must be captured by an \
               UndoRec variant (Reg via operand accessors, Mem via Exec::store, OS effects via \
               the checkpoint's OsMark) so rollback is provably sound. Actions at steps whose \
               class gives them no accessor-routed write path cannot be proven covered.",
        levels: "error",
    },
    PassInfo {
        code: LIS003,
        name: "over-detail",
        short: "published items no flow consumes across a call boundary are wasted",
        help: "A field or operand set published by a step-semantic buildset that no \
               instruction's dataflow consumes across any of its call boundaries is pure \
               informational-detail cost (one published value per producing call, cf. \
               SimStats::detail_units) with no intra-simulator consumer.",
        levels: "warning",
    },
    PassInfo {
        code: LIS004,
        name: "derivability",
        short: "every buildset must be a projection of the single specification",
        help: "The semantic grouping must be an ordered contiguous partition of the seven \
               steps and the visibility a sub-lattice of the max-detail field set; anything \
               else is not derivable from the single specification.",
        levels: "error, warning",
    },
    PassInfo {
        code: LIS005,
        name: "isa-self-check",
        short: "the single specification must be internally consistent",
        help: "Encodings must be reachable and well-formed, declared operands must fit the \
               engine limits and be carried by the instruction's dataflow, steps with actions \
               must appear in the dataflow, and syscall-class instructions must handle the \
               exception step.",
        levels: "error, warning",
    },
    PassInfo {
        code: LIS006,
        name: "elision-soundness",
        short: "the compiled backend may only elide publishes the visibility cannot observe",
        help: "The compiled backend skips the publication walk when it believes the buildset's \
               interface is header-only. Abstract interpretation of every translated action \
               chain must show that no field the visibility mask names — and no published \
               operand identifier — is produced by the chain while the walk is elided; an \
               observed-but-elided value silently disappears from the interface.",
        levels: "error, warning",
    },
    PassInfo {
        code: LIS007,
        name: "reg-backing-consistency",
        short: "lowered register accesses must match a validated RegBacking declaration",
        help: "Every direct register-file load/store the translator bakes into a specialized \
               chain must be covered by the class's RegBacking declaration — right variant, \
               in-range index, special index excluded, declared write mask — and the \
               declaration itself must agree with the accessor functions at every index \
               (exhaustive probe, promoting the sparse runtime assert to a located \
               diagnostic).",
        levels: "error",
    },
    PassInfo {
        code: LIS008,
        name: "specialized-undo-coverage",
        short: "specialization must preserve undo capture exactly when speculation needs it",
        help: "On speculative buildsets every architectural write surviving specialization \
               must retain its undo record, so translations keep the generic writeback (the \
               accessor-routed undo path) in the chain. Non-speculative buildsets must carry \
               zero undo plumbing. Both directions are checked: a lost capture breaks \
               rollback, stray plumbing breaks the elision contract.",
        levels: "error",
    },
    PassInfo {
        code: LIS009,
        name: "chain-link-validity",
        short: "superblock link hints must re-validate and PC stores must end at boundaries",
        help: "Superblock successor links are hints: every traversal must validate that the \
               target block really starts at the wanted PC (stale links miss, never execute \
               the wrong block), imported translations must start with cold links, and every \
               control-transfer instruction must terminate its block so the deferred PC \
               store cannot escape a chain boundary.",
        levels: "error",
    },
    PassInfo {
        code: LIS010,
        name: "demotion-totality",
        short: "every compiled cell must have a faithful Interpreted equivalent",
        help: "The supervision ladder demotes Compiled to Interpreted; that is only safe if \
               each translated instruction replays to the same decode frame and dispatches \
               the specification's own action chain, so the rung below executes identical \
               semantics. A chain that drifts from the spec, an incomplete decode replay, or \
               a ladder with a missing rung would demote into a hole.",
        levels: "error",
    },
];

/// Looks up the registry entry for `code`.
pub fn pass_info(code: Code) -> Option<&'static PassInfo> {
    PASSES.iter().find(|p| p.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code, severity: Severity) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            isa: "alpha",
            buildset: Some("step-min"),
            inst: Some("ldq"),
            step: Some(Step::Memory),
            message: "m".into(),
            help: "h".into(),
        }
    }

    #[test]
    fn code_formats_three_digits() {
        assert_eq!(LIS001.to_string(), "LIS001");
        assert_eq!(Code(42).to_string(), "LIS042");
    }

    #[test]
    fn location_joins_present_parts() {
        let mut d = diag(LIS001, Severity::Error);
        assert_eq!(d.location(), "alpha/step-min/ldq");
        d.inst = None;
        assert_eq!(d.location(), "alpha/step-min");
        d.buildset = None;
        assert_eq!(d.location(), "alpha");
    }

    #[test]
    fn counts_and_errors() {
        let ds = vec![diag(LIS001, Severity::Error), diag(LIS003, Severity::Warning)];
        assert!(has_errors(&ds));
        assert_eq!(count(&ds, Severity::Warning), 1);
        assert!(!has_errors(&ds[1..]));
    }

    #[test]
    fn registry_covers_all_codes_in_order() {
        let codes: Vec<_> = PASSES.iter().map(|p| p.code).collect();
        assert_eq!(
            codes,
            vec![LIS001, LIS002, LIS003, LIS004, LIS005, LIS006, LIS007, LIS008, LIS009, LIS010]
        );
        assert!(pass_info(LIS004).unwrap().name.contains("deriv"));
        assert!(pass_info(LIS007).unwrap().name.contains("backing"));
        assert!(pass_info(Code(99)).is_none());
    }

    #[test]
    fn levels_name_valid_severities_most_severe_first() {
        for p in PASSES {
            assert!(
                matches!(p.levels, "error" | "warning" | "error, warning"),
                "{}: bad levels `{}`",
                p.code,
                p.levels
            );
        }
    }

    #[test]
    fn fingerprint_ignores_wording_but_not_location() {
        let a = diag(LIS007, Severity::Error);
        let mut b = a.clone();
        b.message = "completely reworded".into();
        b.help = "other help".into();
        b.severity = Severity::Warning;
        assert_eq!(a.fingerprint(), b.fingerprint(), "wording must not perturb the fingerprint");

        let mut c = a.clone();
        c.inst = Some("stq");
        assert_ne!(a.fingerprint(), c.fingerprint(), "a new anchor is a new finding");
        let mut d = a.clone();
        d.code = LIS008;
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = a.clone();
        e.step = Some(Step::Writeback);
        assert_ne!(a.fingerprint(), e.fingerprint());
    }
}
