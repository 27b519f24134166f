//! Property: speculation rollback restores the exact pre-checkpoint
//! architectural state even when chaos injection aborts instructions
//! mid-flight between the checkpoint and the rollback.
//!
//! Only the transient channels (bit flips, data faults) are enabled: they
//! abort an instruction partway through its steps, which is precisely the
//! case the undo log must handle. Page unmaps are a persistent environmental
//! change (the page is gone), so they are out of scope for rollback.

use lis_core::{DynInst, ONE_ALL_SPEC};
use lis_runtime::{Backend, ChaosPlan, Simulator};
use lis_workloads::suite_of;
use proptest::prelude::*;
use std::sync::OnceLock;

fn strrev_image() -> &'static lis_mem::Image {
    static IMAGE: OnceLock<lis_mem::Image> = OnceLock::new();
    IMAGE.get_or_init(|| {
        suite_of("alpha")
            .iter()
            .find(|w| w.name == "strrev")
            .expect("strrev exists")
            .assemble()
            .expect("strrev assembles")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn rollback_restores_pre_checkpoint_state(
        seed in 0u64..10_000,
        warmup in 1u64..60,
        period in 3u64..40,
        extra in 20u64..200,
    ) {
        let spec = lis_workloads::spec_of("alpha");
        let mut sim = Simulator::new(spec, ONE_ALL_SPEC).expect("build");
        sim.set_backend(Backend::Compiled);
        sim.load_program(strrev_image()).expect("load");

        // Run clean for a bit, then snapshot and checkpoint.
        let mut di = DynInst::new();
        for _ in 0..warmup {
            sim.next_inst(&mut di).expect("iface");
            prop_assert!(di.fault.is_none(), "clean warmup faulted: {:?}", di.fault);
        }
        let snap = sim.state.clone();
        let snap_stdout = sim.stdout().to_vec();
        let cp = sim.checkpoint().expect("checkpoint");

        // Chaos on: transient faults abort instructions mid-flight; the
        // driver skips past each fault like a minimal handler would.
        sim.set_chaos(ChaosPlan {
            seed,
            flip_period: Some(period),
            data_fault_period: Some(period),
            unmap_period: None,
            translate_fault_period: None,
            start: 0,
            max_events: 0,
        });
        let mut faults = 0u32;
        for _ in 0..extra {
            if sim.state.halted {
                break;
            }
            sim.next_inst(&mut di).expect("iface");
            if di.fault.is_some() {
                faults += 1;
                sim.redirect(di.header.pc.wrapping_add(4));
            }
        }
        sim.take_chaos();

        // Rollback: every register, the PC, stdout, and every byte of
        // memory must be exactly as captured at the checkpoint.
        sim.rollback(cp).expect("rollback");
        prop_assert!(
            sim.state.regs_eq(&snap),
            "registers differ after rollback ({} chaos faults): {:?}",
            faults,
            sim.state.first_diff(&snap)
        );
        let mem_deltas = sim.state.mem.diff(&snap.mem, 8);
        prop_assert!(
            mem_deltas.is_empty(),
            "memory differs after rollback: {mem_deltas:?}"
        );
        prop_assert_eq!(sim.stdout(), &snap_stdout[..], "stdout not rolled back");

        // And the rolled-back simulator still runs the program correctly.
        let summary = sim.run_to_halt(1_000_000).expect("clean rerun");
        prop_assert_eq!(summary.exit_code, 0);
    }
}
