//! `lis-analyze` — the multi-pass static interface verifier.
//!
//! The paper's central claim is that one specification should drive every
//! functional/timing interface a simulator exposes. The corollary this
//! crate exploits: because the specification declares each instruction's
//! inter-step dataflow *once*, whole classes of interface bugs that
//! otherwise surface hundreds of instructions into a benchmark run can be
//! rejected statically, before a simulator is even built.
//!
//! Ten passes, each with a stable diagnostic code. LIS001–LIS005 verify
//! the *interface* (spec × buildset); LIS006–LIS010 verify the
//! *translation* — the compiled backend's static synthesis decisions,
//! analyzed through the plain-data IR of [`tir`]:
//!
//! | code     | pass                      | severity | question answered |
//! |----------|---------------------------|----------|-------------------|
//! | `LIS001` | visibility-dataflow       | error    | does every value crossing a call boundary stay visible? |
//! | `LIS002` | speculation-safety        | error    | is every architectural write rollback-covered under speculation? |
//! | `LIS003` | over-detail               | warning  | does the interface publish detail nothing consumes? |
//! | `LIS004` | derivability              | mixed    | is the buildset a genuine projection of the one spec? |
//! | `LIS005` | isa-self-check            | mixed    | is the specification itself consistent? |
//! | `LIS006` | elision-soundness         | mixed    | is every statically elided publish provably unobservable? |
//! | `LIS007` | reg-backing-consistency   | error    | is every lowered register access covered by a validated backing? |
//! | `LIS008` | specialized-undo-coverage | error    | does specialization keep undo exactly when speculation needs it? |
//! | `LIS009` | chain-link-validity       | error    | are link hints re-validated and PC stores chain-bounded? |
//! | `LIS010` | demotion-totality         | error    | can every compiled cell demote to a faithful interpreted rung? |
//!
//! Entry points: [`analyze`] (buildset-level passes for one matrix cell),
//! [`analyze_isa`] (specification self-check), [`analyze_translation`]
//! (translation passes over a synthesized [`tir::TranslationView`]), and
//! the errors-only gates [`preflight`] / [`preflight_translation`] the
//! runtime and CLI run before simulating. Renderers: [`render_text`],
//! [`render_json`] (line-delimited), [`render_sarif`] (SARIF 2.1.0 for
//! code scanning).

pub mod diag;
pub mod passes;
pub mod render;
pub mod tir;
pub mod translation;

pub use diag::{
    count, has_errors, pass_info, Code, Diagnostic, PassInfo, Severity, LIS001, LIS002, LIS003,
    LIS004, LIS005, LIS006, LIS007, LIS008, LIS009, LIS010, PASSES,
};
pub use passes::{
    analyze, analyze_isa, pass_derivability, pass_isa, pass_over_detail, pass_speculation,
    pass_visibility, preflight,
};
pub use render::{render_json, render_sarif, render_text};
pub use tir::{TirAccess, TirInst, TranslationView, ViewMutation};
pub use translation::{
    analyze_translation, pass_backing, pass_demotion, pass_elision, pass_links, pass_undo,
    preflight_translation,
};
