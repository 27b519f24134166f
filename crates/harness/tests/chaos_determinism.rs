//! Chaos campaigns must be exactly reproducible on every ISA: the same
//! `(seed, plan)` yields the same event log, the same run summary, and the
//! same final state, independent of wall clock and allocation order.

use lis_core::{BLOCK_MIN, ONE_MIN};
use lis_harness::{chaos_run, ChaosConfig};
use lis_runtime::{Backend, ChaosPlan, SimStop, Simulator};
use lis_workloads::{spec_of, suite_of, ISAS};

fn kernel_image(isa: &str, name: &str) -> lis_mem::Image {
    suite_of(isa)
        .iter()
        .find(|w| w.name == name)
        .expect("kernel exists")
        .assemble()
        .expect("kernel assembles")
}

#[test]
fn same_seed_same_campaign_on_every_isa() {
    for isa in ISAS {
        let spec = spec_of(isa);
        let image = kernel_image(isa, "hash31");
        let plan = ChaosPlan::uniform(0x51EE7 ^ plan_salt(isa), 250);
        let cfg = ChaosConfig::default();
        let a = chaos_run(spec, &image, BLOCK_MIN, Backend::Compiled, plan, &cfg).expect("run");
        let b = chaos_run(spec, &image, BLOCK_MIN, Backend::Compiled, plan, &cfg).expect("run");
        assert_eq!(a.events, b.events, "{isa}: event logs differ");
        assert_eq!(a.outcome, b.outcome, "{isa}: outcomes differ");
        assert_eq!(a.insts, b.insts, "{isa}: instruction counts differ");
        assert_eq!(a.faults, b.faults, "{isa}: fault counts differ");
        assert_eq!(a.stats, b.stats, "{isa}: stats differ");
        assert_eq!(a.ring, b.ring, "{isa}: ring buffers differ");
        assert_eq!(a.final_state, b.final_state, "{isa}: final states differ");
        assert!(!a.events.is_empty(), "{isa}: plan should inject something");
    }
}

#[test]
fn run_summary_is_reproducible_through_run_to_halt() {
    // The engine-level driver too: same (seed, plan) on a fresh simulator
    // gives the same RunSummary-or-fault and the same event log.
    for isa in ISAS {
        let spec = spec_of(isa);
        let image = kernel_image(isa, "strrev");
        let run = || {
            let mut sim = Simulator::new(spec, ONE_MIN).expect("build");
            sim.set_backend(Backend::Interpreted);
            sim.load_program(&image).expect("load");
            sim.set_chaos(ChaosPlan::uniform(42, 400));
            let result: Result<_, SimStop> = sim.run_to_halt(100_000);
            let events = sim.take_chaos().expect("chaos set").events().to_vec();
            (result, events, sim.stats)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "{isa}: run results differ");
        assert_eq!(a.1, b.1, "{isa}: event logs differ");
        assert_eq!(a.2, b.2, "{isa}: stats differ");
    }
}

fn plan_salt(isa: &str) -> u64 {
    isa.bytes().map(u64::from).sum()
}
