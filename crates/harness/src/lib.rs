//! # lis-harness — chaos and lockstep robustness harness
//!
//! Two ways of stress-testing the synthesized simulators, both built on the
//! single-specification premise that every derived interface must agree with
//! every other:
//!
//! * **Lockstep verification** ([`lockstep`], [`verify_all`]): run any
//!   buildset × backend combination instruction-by-instruction against the
//!   reference (`one-min`, interpreted). After every retired instruction the
//!   published headers must match; at every interface-call boundary the
//!   architectural registers, stdout, and (periodically) all of memory must
//!   match. A disagreement produces a structured [`DivergenceReport`]
//!   carrying the faulting PC, its disassembly, register and memory deltas,
//!   and ring buffers of the last [`RING_LEN`] instructions from both sides.
//!
//! * **Chaos campaigns** ([`chaos_run`]): run a workload under the
//!   deterministic fault injector ([`lis_runtime::ChaosPlan`]) — bit flips
//!   in fetched words, transient data faults, pages unmapped mid-run — with
//!   a minimal skip-on-fault handler, and classify the result (survived,
//!   fault storm, deadline). Same `(seed, plan)` ⇒ same event log, same
//!   outcome, exactly.
//!
//! * **Trace equivalence** ([`check_trace_against_reference`]): replay a
//!   recorded [`lis_trace::Trace`] against the live reference and verify
//!   every recorded instruction with the same per-instruction judgment
//!   ([`compare_retired`]) the lockstep harness uses.
//!
//! * **Supervised execution** ([`supervised_run`], [`minimize_plan`],
//!   [`ChaosPlanFile`]): drive a chaos campaign in lockstep with the
//!   reference, recover from divergences by walking the backend demotion
//!   ladder, delta-debug a diverging event log to a 1-minimal script, and
//!   serialize it as a replayable `.chaosplan` repro. [`catch_cell`] and
//!   [`run_with_retry`] give sweep/verify cells panic isolation with
//!   deterministic, bounded retry.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod chaosplan;
mod compare;
mod driver;
mod isolate;
mod lockstep;
mod minimize;
mod report;
mod supervise;
mod verify;
mod watchdog;

pub use campaign::{chaos_run, ChaosConfig, ChaosOutcome, ChaosRunReport};
pub use chaosplan::{ChaosPlanFile, PlanExpect, PlanReplay, CHAOSPLAN_MAGIC};
pub use compare::{check_trace_against_reference, compare_retired, RetiredCmp};
pub use isolate::{backoff_delay, catch_cell, resolve_jobs, run_with_retry};
pub use lockstep::{
    job_label, lockstep, lockstep_with, HarnessError, LockstepConfig, LockstepOutcome, PerturbHook,
};
pub use minimize::{minimize_plan, MinimizeOutcome};
pub use report::{DivergenceReport, RegDelta, RetiredInst, Ring, RING_LEN};
pub use supervise::{
    supervised_replay, supervised_run, SuperviseConfig, SuperviseOutcome, SuperviseReport,
};
pub use verify::{verify_all, verify_isa, VerifyConfig, VerifyFailure, VerifyReport};
pub use watchdog::{Watchdog, DEFAULT_STRIDE};

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{BLOCK_MIN, ONE_ALL, ONE_MIN, STANDARD_BUILDSETS, STEP_ALL};
    use lis_mem::Image;
    use lis_runtime::{Backend, ChaosPlan};

    fn kernel(isa: &str, name: &str) -> Image {
        lis_workloads::kernel(isa, name)
            .expect("kernel exists")
            .assemble()
            .expect("kernel assembles")
    }

    #[test]
    fn lockstep_clean_across_buildsets() {
        let spec = lis_workloads::spec_of("alpha");
        let image = kernel("alpha", "strrev");
        for bs in STANDARD_BUILDSETS {
            for backend in Backend::ALL {
                match lockstep(spec, &image, bs, backend) {
                    Ok(LockstepOutcome::Halted { exit_code, insts, .. }) => {
                        assert_eq!(exit_code, 0, "{}: bad exit", bs.name);
                        assert!(insts > 0);
                    }
                    other => panic!("{} {:?}: {:?}", bs.name, backend, other.map(|_| ())),
                }
            }
        }
    }

    #[test]
    fn detector_catches_register_corruption() {
        let spec = lis_workloads::spec_of("arm");
        let image = kernel("arm", "strrev");
        let mut fired = false;
        let mut perturb = |insts: u64, sim: &mut lis_runtime::Simulator| {
            if insts == 100 && !fired {
                fired = true;
                sim.state.gpr[3] ^= 0x40;
            }
        };
        let err = lockstep_with(
            spec,
            &image,
            ONE_ALL,
            Backend::Compiled,
            &LockstepConfig::default(),
            Some(&mut perturb),
        )
        .expect_err("corruption must be detected");
        let HarnessError::Divergence(report) = err else {
            panic!("expected divergence, got {err}");
        };
        assert!(report.inst_index >= 100);
        assert!(
            report.reg_deltas.iter().any(|d| d.class == "gpr" && d.index == 3),
            "report: {report}"
        );
        assert!(!report.subject_ring.is_empty() && !report.reference_ring.is_empty());
        assert!(report.subject_ring.len() <= RING_LEN);
        assert!(!report.disasm.is_empty());
        // The snapshot must be self-contained renderable text.
        assert!(report.snapshot().contains("--- subject state ---"));
    }

    #[test]
    fn detector_catches_memory_corruption() {
        let spec = lis_workloads::spec_of("ppc");
        let image = kernel("ppc", "strrev");
        let mut done = false;
        let mut perturb = |insts: u64, sim: &mut lis_runtime::Simulator| {
            if insts >= 50 && !done {
                done = true;
                // A dirty byte in a page the program never touches: only the
                // memory sweep can see it.
                sim.poke_mem(0x0030_0000, 1, 0xAA).expect("poke");
            }
        };
        let cfg = LockstepConfig { mem_check_stride: 1, ..LockstepConfig::default() };
        let err =
            lockstep_with(spec, &image, BLOCK_MIN, Backend::Compiled, &cfg, Some(&mut perturb))
                .expect_err("memory corruption must be detected");
        let HarnessError::Divergence(report) = err else {
            panic!("expected divergence, got {err}");
        };
        assert!(
            report.mem_deltas.iter().any(|d| d.addr == 0x0030_0000 && d.lhs == 0xAA),
            "report: {report}"
        );
    }

    #[test]
    fn step_semantic_locksteps_too() {
        let spec = lis_workloads::spec_of("alpha");
        let image = kernel("alpha", "hash31");
        let out = lockstep(spec, &image, STEP_ALL, Backend::Interpreted).expect("clean run");
        assert!(matches!(out, LockstepOutcome::Halted { exit_code: 0, .. }));
    }

    #[test]
    fn chaos_run_is_reproducible() {
        let spec = lis_workloads::spec_of("alpha");
        let image = kernel("alpha", "hash31");
        let plan = ChaosPlan::uniform(0xDECAF, 300);
        let cfg = ChaosConfig::default();
        let a = chaos_run(spec, &image, BLOCK_MIN, Backend::Compiled, plan, &cfg).expect("run");
        let b = chaos_run(spec, &image, BLOCK_MIN, Backend::Compiled, plan, &cfg).expect("run");
        assert!(!a.events.is_empty(), "plan should inject something");
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.ring, b.ring);
        assert!(!a.snapshot().is_empty());
    }

    #[test]
    fn chaos_quiet_plan_matches_plain_run() {
        // A plan that injects nothing must not perturb execution at all.
        let spec = lis_workloads::spec_of("arm");
        let image = kernel("arm", "strrev");
        let quiet = chaos_run(
            spec,
            &image,
            ONE_MIN,
            Backend::Interpreted,
            ChaosPlan::quiet(1),
            &ChaosConfig::default(),
        )
        .expect("run");
        assert!(quiet.events.is_empty());
        assert_eq!(quiet.outcome, ChaosOutcome::Halted { exit_code: 0 });
        let clean = lockstep(spec, &image, ONE_MIN, Backend::Interpreted).expect("clean");
        let LockstepOutcome::Halted { insts, .. } = clean else { panic!("halted") };
        assert_eq!(quiet.insts, insts);
    }

    #[test]
    fn compare_retired_verdicts() {
        use lis_core::{Fault, InstHeader};
        let h = InstHeader { pc: 0x1000, instr_bits: 0xAB, next_pc: 0x1004, ..Default::default() };
        assert_eq!(compare_retired((&h, None), (&h, None)), RetiredCmp::Agree);
        let f = Fault::DivideByZero;
        assert_eq!(compare_retired((&h, Some(f)), (&h, Some(f))), RetiredCmp::AgreedFault(f));
        let mut h2 = h;
        h2.next_pc = 0x2000;
        let RetiredCmp::Diverge(msg) = compare_retired((&h2, None), (&h, None)) else {
            panic!("header mismatch must diverge");
        };
        assert!(msg.contains("header disagreement"), "{msg}");
        let RetiredCmp::Diverge(msg) = compare_retired((&h, Some(f)), (&h, None)) else {
            panic!("fault mismatch must diverge");
        };
        assert!(msg.contains("fault disagreement"), "{msg}");
    }

    #[test]
    fn recorded_trace_matches_reference() {
        let spec = lis_workloads::spec_of("alpha");
        let image = kernel("alpha", "strrev");
        let mut bytes = Vec::new();
        let opts = lis_trace::RecordOptions { kernel: "strrev".into(), ..Default::default() };
        lis_trace::record(spec, &image, &mut bytes, &opts).expect("records");
        let trace = lis_trace::Trace::read_from(bytes.as_slice()).expect("reads");
        let n = check_trace_against_reference(spec, &image, &trace).expect("trace agrees");
        assert_eq!(n, trace.insts());
    }

    #[test]
    fn trace_check_catches_a_doctored_record() {
        let spec = lis_workloads::spec_of("alpha");
        let image = kernel("alpha", "strrev");
        let mut bytes = Vec::new();
        let opts = lis_trace::RecordOptions { kernel: "strrev".into(), ..Default::default() };
        lis_trace::record(spec, &image, &mut bytes, &opts).expect("records");
        let trace = lis_trace::Trace::read_from(bytes.as_slice()).expect("reads");

        // Re-encode the stream with one header lie in the middle.
        let mut records = trace.records(None).expect("decodes");
        let mid = records.len() / 2;
        records[mid].header.next_pc ^= 4;
        let mut w = lis_trace::TraceWriter::new(Vec::new(), &trace.meta).expect("writer");
        for rec in &records {
            w.push(rec).expect("encodes");
        }
        let doctored = w.finish(&trace.footer).expect("finishes");
        let doctored = lis_trace::Trace::read_from(doctored.as_slice()).expect("reads");

        let err = check_trace_against_reference(spec, &image, &doctored)
            .expect_err("the lie must be caught");
        let HarnessError::Unexpected(msg) = err else { panic!("unexpected kind: {err}") };
        assert!(msg.contains("header disagreement"), "{msg}");
    }

    #[test]
    fn verify_single_kernel_matrix_passes() {
        let cfg = VerifyConfig {
            kernels: vec!["strrev"],
            random_seeds: vec![],
            random_len: 0,
            backends: Backend::ALL.to_vec(),
            lockstep: LockstepConfig::default(),
        };
        let report = verify_isa("alpha", &cfg);
        assert_eq!(report.jobs, STANDARD_BUILDSETS.len() * Backend::ALL.len());
        let msgs: Vec<String> =
            report.failures.iter().map(|f| format!("{}: {}", f.job, f.error)).collect();
        assert!(report.ok(), "failures: {msgs:?}");
        assert!(report.insts > 0);
        assert!(!report.to_string().is_empty());
    }
}
