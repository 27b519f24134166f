//! The compiled (superblock-translating) backend must be observationally
//! identical to the interpreted backend everywhere the single-specification
//! principle reaches:
//!
//! * **Lockstep**: every standard buildset on every ISA, over sampled suite
//!   kernels and generated programs, agrees with the `one-min` interpreted
//!   reference instruction by instruction (proptest-sampled).
//! * **Deterministic stats**: the detail-unit scoreboard — the metric
//!   `BENCH_sweep.json` is built from — is identical between the
//!   interpreted and compiled backends, so the backend axis cannot perturb
//!   the sweep's bit-identical output.
//! * **Chaos**: data-fault and page-unmap campaigns (unmaps must drop
//!   superblock chains) produce the same event log and outcome as the
//!   interpreted backend, and corrupted (poisoned) builds never enter the
//!   superblock cache.

use lis_core::{DynInst, STANDARD_BUILDSETS};
use lis_harness::{chaos_run, lockstep, ChaosConfig, LockstepOutcome};
use lis_mem::Image;
use lis_runtime::{Backend, ChaosPlan, Simulator};
use lis_workloads::{spec_of, suite_of, ISAS};
use proptest::prelude::*;

/// Kernels sampled by the property tests: small enough to keep the matrix
/// affordable, diverse enough to cover loops, branches, and memory traffic.
const SAMPLED_KERNELS: [&str; 4] = ["strrev", "hash31", "gcd", "sort"];

fn kernel_image(isa: &str, name: &str) -> Image {
    suite_of(isa)
        .iter()
        .find(|w| w.name == name)
        .expect("kernel exists")
        .assemble()
        .expect("kernel assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Compiled ≡ interpreted reference, sampled over the full
    /// 12-buildset × 3-ISA × kernel matrix.
    #[test]
    fn compiled_locksteps_clean_across_matrix(
        isa_idx in 0usize..3,
        bs_idx in 0usize..12,
        kernel_idx in 0usize..SAMPLED_KERNELS.len(),
    ) {
        let isa = ISAS[isa_idx];
        let bs = STANDARD_BUILDSETS[bs_idx];
        let image = kernel_image(isa, SAMPLED_KERNELS[kernel_idx]);
        match lockstep(spec_of(isa), &image, bs, Backend::Compiled) {
            Ok(LockstepOutcome::Halted { exit_code, insts, .. }) => {
                prop_assert_eq!(exit_code, 0, "{}/{}: bad exit", isa, bs.name);
                prop_assert!(insts > 0);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "{}/{}: {:?}", isa, bs.name, other.map(|_| ())
                )));
            }
        }
    }
}

/// The sweep metric is backend-invariant: interpreted and compiled runs
/// retire the same instructions and charge the same detail units on every
/// standard buildset, so `--backends all` sweeps stay bit-identical.
#[test]
fn detail_units_match_interpreted_backend_exactly() {
    for isa in ISAS {
        let image = kernel_image(isa, "gcd");
        for bs in STANDARD_BUILDSETS {
            let run = |backend: Backend| {
                let mut sim = Simulator::new(spec_of(isa), bs).expect("build");
                sim.set_backend(backend);
                sim.load_program(&image).expect("load");
                let summary = sim.run_to_halt(10_000_000).expect("halts");
                assert_eq!(summary.exit_code, 0, "{isa}/{}: bad exit", bs.name);
                sim.stats
            };
            let interpreted = run(Backend::Interpreted);
            let compiled = run(Backend::Compiled);
            assert_eq!(interpreted.insts, compiled.insts, "{isa}/{}: insts", bs.name);
            assert_eq!(interpreted.calls, compiled.calls, "{isa}/{}: calls", bs.name);
            assert_eq!(
                interpreted.detail_units(),
                compiled.detail_units(),
                "{isa}/{}: detail units diverge between backends",
                bs.name
            );
        }
    }
}

/// Chaos campaigns — data faults and page unmaps — observe the same events
/// and reach the same outcome on the compiled backend as on the interpreted
/// one. Unmaps in particular must invalidate superblock chains: a chain that
/// survived an unmap would execute code from a page that is gone and diverge
/// here. (Bit flips are left out: they fire at the next instruction fetch,
/// and the interpreted backend fetches on every execution where the
/// compiled one fetches only to translate, so the two draw different flip
/// schedules by design.)
#[test]
fn chaos_campaign_matches_interpreted_backend() {
    for isa in ISAS {
        let spec = spec_of(isa);
        let image = kernel_image(isa, "hash31");
        let plan = ChaosPlan {
            seed: 0xC0DE ^ isa.len() as u64,
            flip_period: None,
            data_fault_period: Some(300),
            unmap_period: Some(900),
            translate_fault_period: None,
            start: 0,
            max_events: 12,
        };
        let cfg = ChaosConfig::default();
        let bs = lis_core::BLOCK_MIN;
        let interpreted =
            chaos_run(spec, &image, bs, Backend::Interpreted, plan, &cfg).expect("run");
        let compiled = chaos_run(spec, &image, bs, Backend::Compiled, plan, &cfg).expect("run");
        assert!(
            compiled.events.iter().any(|e| matches!(e, lis_runtime::ChaosEvent::PageUnmap { .. })),
            "{isa}: the campaign must unmap a page"
        );
        assert_eq!(interpreted.events, compiled.events, "{isa}: event logs differ");
        assert_eq!(interpreted.outcome, compiled.outcome, "{isa}: outcomes differ");
        assert_eq!(interpreted.insts, compiled.insts, "{isa}: instruction counts differ");
        assert_eq!(interpreted.faults, compiled.faults, "{isa}: fault counts differ");
        assert_eq!(interpreted.ring, compiled.ring, "{isa}: rings differ");
    }
}

/// A compiled campaign is exactly reproducible, like every other backend.
#[test]
fn compiled_chaos_campaign_is_reproducible() {
    let spec = spec_of("alpha");
    let image = kernel_image("alpha", "strrev");
    let plan = ChaosPlan::uniform(0xFACE, 250);
    let cfg = ChaosConfig::default();
    let a =
        chaos_run(spec, &image, lis_core::BLOCK_MIN, Backend::Compiled, plan, &cfg).expect("run");
    let b =
        chaos_run(spec, &image, lis_core::BLOCK_MIN, Backend::Compiled, plan, &cfg).expect("run");
    assert!(!a.events.is_empty(), "plan should inject something");
    assert_eq!(a.events, b.events);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.stats, b.stats);
}

/// Bit flips observed while a superblock is being translated poison that
/// build: it runs once and is never cached. After chaos is removed, the
/// program must run perfectly — a flipped word that leaked into the
/// superblock cache would fault on every later iteration.
#[test]
fn poisoned_superblocks_are_never_cached() {
    let spec = spec_of("alpha");
    let image = kernel_image("alpha", "hash31");
    let mut sim = Simulator::new(spec, lis_core::BLOCK_MIN).expect("build");
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.load_program(&image).expect("load");
    sim.set_chaos(ChaosPlan {
        seed: 7,
        flip_period: Some(16),
        data_fault_period: None,
        unmap_period: None,
        translate_fault_period: None,
        start: 0,
        max_events: 0,
    });
    let mut buf: Vec<DynInst> = Vec::new();
    let mut units = 0;
    while !sim.state.halted && units < 600 {
        sim.next_block(&mut buf).expect("interface survives chaos");
        if let Some(d) = buf.last().filter(|d| d.fault.is_some()) {
            let pc = d.header.pc;
            sim.redirect(pc.wrapping_add(4));
        }
        units += 1;
    }
    let injected = sim.take_chaos().expect("chaos set").injected();
    assert!(injected > 0, "flips must have fired");

    // Clean re-run on the same simulator: whatever the chaos phase cached
    // must be translations of the *true* program text.
    sim.reset_program(&image).expect("reset");
    let summary = sim.run_to_halt(10_000_000).expect("clean rerun");
    assert_eq!(summary.exit_code, 0, "a poisoned superblock leaked into the cache");
}
