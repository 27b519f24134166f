//! Supervised execution end-to-end: the demotion ladder recovering a run
//! that a plain campaign would abort, ddmin plan minimization, and the
//! `.chaosplan` repro format.

use lis_core::{BuildsetDef, IsaSpec, BLOCK_ALL};
use lis_harness::{
    minimize_plan, supervised_replay, supervised_run, ChaosPlanFile, PlanExpect, SuperviseConfig,
    SuperviseOutcome,
};
use lis_mem::Image;
use lis_runtime::{Backend, ChaosEvent, ChaosPlan, DemotionReason};
use lis_workloads::spec_of;

fn kernel(isa: &str, name: &str) -> Image {
    lis_workloads::kernel(isa, name).expect("kernel exists").assemble().expect("kernel assembles")
}

/// A quiet plan with only the translate-fault channel armed: the injected
/// bug is a silently poisoned superblock translation, which no cache
/// freshness probe can see — only the supervisor's lockstep shadow.
fn translate_plan(seed: u64) -> ChaosPlan {
    ChaosPlan { translate_fault_period: Some(2), max_events: 2, ..ChaosPlan::quiet(seed) }
}

/// Finds a seed whose translate-fault campaign provably diverges on the
/// compiled backend (probe mode: demotion off). Deterministic: the scan
/// order and all runs are fixed by code and seeds.
fn diverging_seed(
    spec: &'static IsaSpec,
    image: &Image,
    bs: BuildsetDef,
    cfg: &SuperviseConfig,
) -> u64 {
    for seed in 0..64 {
        let report = supervised_run(spec, image, bs, Backend::Compiled, translate_plan(seed), cfg)
            .expect("supervised run");
        if report.outcome == SuperviseOutcome::Diverged {
            return seed;
        }
    }
    panic!("no diverging translate-fault seed in 0..64");
}

#[test]
fn demotion_recovers_a_run_that_aborts_without_it() {
    let spec = spec_of("alpha");
    let image = kernel("alpha", "hash31");
    let cfg = SuperviseConfig::default();
    let seed = diverging_seed(spec, &image, BLOCK_ALL, &cfg);

    // Without demotion the run ends at the divergence — the old abort.
    let probe =
        supervised_run(spec, &image, BLOCK_ALL, Backend::Compiled, translate_plan(seed), &cfg)
            .expect("probe run");
    assert_eq!(probe.outcome, SuperviseOutcome::Diverged);
    assert!(!probe.divergences.is_empty());
    assert!(probe.demotions.is_empty(), "probe mode must not demote");

    // With demotion the same campaign completes: the supervisor demotes the
    // subject off the poisoned compiled backend, resyncs from the reference,
    // and the final state is lockstep-equal to it.
    let recovered = supervised_run(
        spec,
        &image,
        BLOCK_ALL,
        Backend::Compiled,
        translate_plan(seed),
        &SuperviseConfig { demote: true, ..cfg },
    )
    .expect("recovered run");
    assert_eq!(recovered.outcome, SuperviseOutcome::Halted { exit_code: 0 });
    assert!(recovered.verified, "final state must match the reference");
    assert!(!recovered.divergences.is_empty(), "the divergence was found, then survived");
    assert_eq!(recovered.demotions[0].reason, DemotionReason::SpotCheck);
    assert_eq!(recovered.demotions[0].from, Backend::Compiled);
    assert_eq!(recovered.demotions[0].to, Backend::Interpreted);
    assert!(recovered.stats.demotions >= 1);
    assert_eq!(recovered.final_backend, recovered.demotions.last().unwrap().to);
}

#[test]
fn supervised_replay_reproduces_the_procedural_divergence() {
    let spec = spec_of("alpha");
    let image = kernel("alpha", "hash31");
    let cfg = SuperviseConfig::default();
    let seed = diverging_seed(spec, &image, BLOCK_ALL, &cfg);
    let procedural =
        supervised_run(spec, &image, BLOCK_ALL, Backend::Compiled, translate_plan(seed), &cfg)
            .expect("procedural run");
    assert!(!procedural.events.is_empty());

    let replay = supervised_replay(
        spec,
        &image,
        BLOCK_ALL,
        Backend::Compiled,
        seed,
        &procedural.events,
        &cfg,
    )
    .expect("scripted replay");
    assert_eq!(replay.outcome, SuperviseOutcome::Diverged, "script must reproduce");
    assert_eq!(replay.events, procedural.events, "replay fires the same events");
}

#[test]
fn minimizer_shrinks_the_event_log_and_the_repro_still_fires() {
    use lis_mem::AccessKind;
    let spec = spec_of("alpha");
    let image = kernel("alpha", "hash31");
    let cfg = SuperviseConfig::default();
    let seed = diverging_seed(spec, &image, BLOCK_ALL, &cfg);
    let run =
        supervised_run(spec, &image, BLOCK_ALL, Backend::Compiled, translate_plan(seed), &cfg)
            .expect("diverging campaign");
    assert_eq!(run.outcome, SuperviseOutcome::Diverged);

    // Pad the real log with noise events whose sites are never reached —
    // exactly what a longer campaign accumulates — so the minimizer has
    // something to strip.
    let mut noisy = run.events.clone();
    noisy.push(ChaosEvent::DataFault { inst: 1_000_000, addr: 0x40, kind: AccessKind::Load });
    noisy.push(ChaosEvent::PageUnmap { inst: 1_000_001, base: 0 });
    noisy.push(ChaosEvent::DataFault { inst: 1_000_002, addr: 0x48, kind: AccessKind::Store });

    let outcome = minimize_plan(spec, &image, BLOCK_ALL, Backend::Compiled, seed, &noisy, &cfg)
        .expect("minimization probes run")
        .expect("baseline replay diverges");
    assert_eq!(outcome.initial, noisy.len());
    assert!(outcome.minimal.len() < outcome.initial, "the padding must be stripped");
    assert!(!outcome.minimal.is_empty());
    assert!(outcome.probes >= 2, "ddmin must actually probe");
    assert!(
        outcome.minimal.iter().all(|e| run.events.contains(e)),
        "nothing outside the real log survives"
    );

    // The minimal script still reproduces, and is 1-minimal: dropping any
    // single remaining event loses the repro... which ddmin already probed;
    // re-assert the headline property directly.
    let replay =
        supervised_replay(spec, &image, BLOCK_ALL, Backend::Compiled, seed, &outcome.minimal, &cfg)
            .expect("minimal replay");
    assert_eq!(replay.outcome, SuperviseOutcome::Diverged);
}

#[test]
fn minimize_refuses_a_plan_that_does_not_reproduce() {
    let spec = spec_of("alpha");
    let image = kernel("alpha", "hash31");
    let cfg = SuperviseConfig::default();
    let out = minimize_plan(spec, &image, BLOCK_ALL, Backend::Compiled, 1, &[], &cfg)
        .expect("probe runs");
    assert!(out.is_none(), "an empty script on a clean backend cannot diverge");
}

#[test]
fn deadline_pressure_demotes_proactively_before_the_watchdog_fires() {
    let spec = spec_of("alpha");
    let image = kernel("alpha", "hash31");
    // A generous deadline with fraction 0 is "near" immediately: the
    // supervisor must take exactly one proactive Deadline rung and the run
    // must still complete verified.
    let cfg = SuperviseConfig {
        demote: true,
        deadline: Some(std::time::Duration::from_secs(3600)),
        deadline_frac: 0.0,
        ..SuperviseConfig::default()
    };
    let report =
        supervised_run(spec, &image, BLOCK_ALL, Backend::Compiled, ChaosPlan::quiet(0), &cfg)
            .expect("supervised run");
    assert_eq!(report.outcome, SuperviseOutcome::Halted { exit_code: 0 });
    assert!(report.verified);
    let deadline_rungs: Vec<_> =
        report.demotions.iter().filter(|d| d.reason == DemotionReason::Deadline).collect();
    assert_eq!(deadline_rungs.len(), 1, "one proactive rung, not a spiral");
    assert_eq!(deadline_rungs[0].from, Backend::Compiled);
    assert_eq!(report.final_backend, Backend::Interpreted);
}

#[test]
fn chaosplan_text_round_trips_and_replays() {
    let spec = spec_of("alpha");
    let image = kernel("alpha", "hash31");
    let cfg = SuperviseConfig::default();
    let seed = diverging_seed(spec, &image, BLOCK_ALL, &cfg);
    let run =
        supervised_run(spec, &image, BLOCK_ALL, Backend::Compiled, translate_plan(seed), &cfg)
            .expect("campaign");
    assert_eq!(run.outcome, SuperviseOutcome::Diverged);

    let plan = ChaosPlanFile {
        isa: "alpha".to_string(),
        buildset: "block-all".to_string(),
        backend: Backend::Compiled,
        kernel: "hash31".to_string(),
        seed,
        max_insts: cfg.max_insts,
        spot_stride: cfg.spot_stride,
        expect: PlanExpect::Diverge,
        events: run.events.clone(),
    };
    let text = plan.to_text();
    let parsed = ChaosPlanFile::parse(&text).expect("own output parses");
    assert_eq!(parsed, plan, "text form round-trips exactly");

    let replay = parsed.replay().expect("plan replays");
    assert!(replay.matched, "expect diverge holds: {}", replay.report);
}

#[test]
fn chaosplan_parser_rejects_malformed_input() {
    assert!(ChaosPlanFile::parse("").is_err(), "empty");
    assert!(ChaosPlanFile::parse("not a plan\n").is_err(), "bad magic");
    let missing = "lis-chaosplan v1\nisa alpha\n";
    assert!(ChaosPlanFile::parse(missing).is_err(), "missing header lines");
    let bad_event = "lis-chaosplan v1\nisa alpha\nbuildset block-all\nbackend compiled\n\
                     kernel hash31\nseed 1\nexpect diverge\nevent warp inst=1\n";
    let err = ChaosPlanFile::parse(bad_event).unwrap_err();
    assert!(err.contains("unknown event kind"), "{err}");
    let bad_field = "lis-chaosplan v1\nisa alpha\nbuildset block-all\nbackend compiled\n\
                     kernel hash31\nseed 1\nexpect diverge\nevent unmap inst=1\n";
    let err = ChaosPlanFile::parse(bad_field).unwrap_err();
    assert!(err.contains("missing field base"), "{err}");
    // The retired predecode-cache backend is no longer a plan backend.
    let cached = "lis-chaosplan v1\nisa alpha\nbuildset block-all\nbackend cached\n\
                  kernel hash31\nseed 1\nexpect diverge\n";
    let err = ChaosPlanFile::parse(cached).unwrap_err();
    assert!(err.contains("line 4: unknown backend `cached`"), "{err}");
}

#[test]
fn chaosplan_event_lines_cover_every_kind() {
    use lis_mem::AccessKind;
    let plan = ChaosPlanFile {
        isa: "arm".to_string(),
        buildset: "one-min".to_string(),
        backend: Backend::Interpreted,
        kernel: "gcd".to_string(),
        seed: 0xFEED,
        max_insts: 1000,
        spot_stride: 8,
        expect: PlanExpect::Survive,
        events: vec![
            ChaosEvent::BitFlip {
                inst: 3,
                pc: 0x1000,
                bit: 5,
                before: 0xDEAD_BEEF,
                after: 0xDEAD_BECF,
            },
            ChaosEvent::DataFault { inst: 9, addr: 0x2000, kind: AccessKind::Store },
            ChaosEvent::PageUnmap { inst: 12, base: 0x3000 },
            ChaosEvent::TranslateFault { inst: 20, pc: 0x1010, idx: 0x1A2B, bit: 63 },
        ],
    };
    let parsed = ChaosPlanFile::parse(&plan.to_text()).expect("parses");
    assert_eq!(parsed, plan);
}
