//! Robustness features of the engine: the wall-clock watchdog, graceful
//! degradation of the block cache, deterministic chaos injection, and the
//! interface errors the harness depends on.

use lis_core::{nr, DynInst, Step, BLOCK_MIN, ONE_ALL, STEP_ALL};
use lis_mem::{Image, Section};
use lis_runtime::{
    toy, Backend, ChaosPlan, ChaosState, DemotionReason, IfaceError, SimStop, Simulator,
};
use std::time::Duration;

fn image(words: &[u32]) -> Image {
    Image {
        entry: 0x1000,
        sections: vec![Section {
            name: ".text".into(),
            addr: 0x1000,
            bytes: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        }],
        symbols: Default::default(),
    }
}

/// sum(1..=10), print, exit 7 — the same program the engine tests use.
fn loop_program() -> Image {
    image(&[
        toy::addi(2, 0, 0),
        toy::addi(3, 0, 10),
        toy::addi(4, 0, 0),
        toy::add(2, 2, 3),
        toy::addi(3, 3, -1),
        toy::bne(3, 4, -3),
        toy::addi(1, 0, nr::PUTUDEC as i16),
        toy::add(2, 2, 0),
        toy::sys(),
        toy::addi(1, 0, nr::EXIT as i16),
        toy::addi(2, 0, 7),
        toy::sys(),
    ])
}

#[test]
fn deadline_stops_runaway_program() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&image(&[toy::jmp(-1)])).unwrap();
    sim.set_deadline(Duration::ZERO);
    let err = sim.run_to_halt(u64::MAX).unwrap_err();
    assert!(matches!(err, SimStop::Deadline));
    // The simulator is still usable: clear the deadline, keep running.
    sim.clear_deadline();
    assert!(matches!(sim.run_to_halt(10), Err(SimStop::MaxInsts)));
}

#[test]
fn deadline_far_away_does_not_fire() {
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.load_program(&loop_program()).unwrap();
    sim.set_deadline(Duration::from_secs(3600));
    let summary = sim.run_to_halt(10_000).unwrap();
    assert_eq!(summary.exit_code, 7);
}

#[test]
fn without_cache_verify_stale_blocks_keep_running() {
    // The contrast case: verification off (the default) executes the cached
    // copy, which is exactly why `lis chaos` switches verification on.
    let prog = image(&[toy::addi(2, 2, 1), toy::jmp(-2)]);
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.load_program(&prog).unwrap();
    let mut buf = Vec::new();
    sim.next_block(&mut buf).unwrap();
    sim.poke_mem(0x1000, 4, toy::addi(2, 2, 100) as u64).unwrap();
    sim.next_block(&mut buf).unwrap();
    assert_eq!(sim.state.gpr[2], 2, "stale cached code still executes");
    assert_eq!(sim.stats.fallback_blocks, 0);
}

#[test]
fn stale_compiled_superblock_falls_back_and_drops_the_cache() {
    // r2 += 1 forever; the whole loop is one cached superblock. Cache
    // verification catches the changed word, the whole superblock cache is
    // dropped (chain links may dangle into it), and a one-shot uncached
    // rebuild runs the fresh code instead of the stale translation.
    let prog = image(&[toy::addi(2, 2, 1), toy::jmp(-2)]);
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.load_program(&prog).unwrap();

    let mut buf = Vec::new();
    sim.next_block(&mut buf).unwrap();
    assert_eq!(sim.state.gpr[2], 1);
    assert_eq!(sim.stats.fallback_blocks, 0);
    assert!(sim.compiled_blocks() > 0, "the superblock is cached");

    sim.poke_mem(0x1000, 4, toy::addi(2, 2, 100) as u64).unwrap();
    sim.next_block(&mut buf).unwrap();
    assert_eq!(sim.state.gpr[2], 101, "the rebuilt superblock must run the new code");
    assert_eq!(sim.stats.fallback_blocks, 1);
    assert_eq!(sim.compiled_blocks(), 0, "stale translations are dropped, not patched");

    // The one-shot rebuild was not cached; the next call re-translates the
    // fresh text and caching resumes with no further fallbacks.
    sim.next_block(&mut buf).unwrap();
    assert_eq!(sim.state.gpr[2], 201);
    assert_eq!(sim.stats.fallback_blocks, 1);
    assert!(sim.compiled_blocks() > 0);
}

#[test]
fn chaos_page_unmap_drops_compiled_superblock_chains() {
    // Drive the compiled backend block by block under an unmap-only plan.
    // The moment an unmap fires, every superblock (and every chain link into
    // the arena) must be gone: a surviving chain would keep executing a
    // translation of a page that no longer exists.
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.load_program(&loop_program()).unwrap();
    sim.set_chaos(ChaosPlan {
        seed: 11,
        flip_period: None,
        data_fault_period: None,
        unmap_period: Some(6),
        translate_fault_period: None,
        start: 0,
        max_events: 1,
    });
    let mut buf = Vec::new();
    let mut units = 0;
    let mut seen_unmap = false;
    while !sim.state.halted && units < 300 {
        let before = sim.chaos().map_or(0, |c| c.injected());
        sim.next_block(&mut buf).expect("interface survives chaos");
        let after = sim.chaos().map_or(0, |c| c.injected());
        if after > before && !seen_unmap {
            seen_unmap = true;
            assert_eq!(
                sim.compiled_blocks(),
                0,
                "the unmap must clear the superblock cache before the call returns"
            );
        }
        if let Some(f) = buf.last().and_then(|d| d.fault) {
            let _ = f;
            let pc = buf.last().unwrap().header.pc;
            sim.redirect(pc.wrapping_add(4));
        }
        units += 1;
    }
    assert!(seen_unmap, "a period of 6 must unmap within 300 blocks");
}

#[test]
fn chaos_runs_are_deterministic_and_logged() {
    let run = |seed: u64| {
        let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
        sim.load_program(&loop_program()).unwrap();
        sim.set_chaos(ChaosPlan::uniform(seed, 8));
        let mut di = DynInst::new();
        // Drive with a skip-on-fault handler so injection cannot wedge the
        // loop; bound the run since skipping may break the program logic.
        let mut units = 0;
        while !sim.state.halted && units < 500 {
            sim.next_inst(&mut di).unwrap();
            if let Some(f) = di.fault {
                let _ = f;
                let pc = di.header.pc;
                sim.redirect(pc.wrapping_add(4));
            }
            units += 1;
        }
        let events = sim.take_chaos().unwrap().events().to_vec();
        (events, sim.stats, sim.state.gpr, sim.state.pc)
    };
    let a = run(0xFEED);
    let b = run(0xFEED);
    assert_eq!(a, b, "same (seed, plan) must replay exactly");
    assert!(!a.0.is_empty(), "a period of 8 must inject within 500 units");
    // Event indices are recorded in nondecreasing instruction order.
    let indices: Vec<u64> = a.0.iter().map(|e| e.inst()).collect();
    assert!(indices.windows(2).all(|w| w[0] <= w[1]), "{indices:?}");
    let c = run(0xBEEF);
    assert_ne!(a.0, c.0, "different seeds must explore different schedules");
}

#[test]
fn chaos_bit_flips_never_poison_the_cache() {
    // Run the same program twice on one compiled simulator: once under
    // heavy flip injection, then with chaos removed. The second run must be
    // fault-free — any flipped word that leaked into the decode cache would
    // keep faulting forever.
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.load_program(&loop_program()).unwrap();
    sim.set_chaos(ChaosPlan {
        seed: 3,
        flip_period: Some(4),
        data_fault_period: None,
        unmap_period: None,
        translate_fault_period: None,
        start: 0,
        max_events: 0,
    });
    let mut di = DynInst::new();
    let mut units = 0;
    while !sim.state.halted && units < 500 {
        sim.next_inst(&mut di).unwrap();
        if let Some(fault) = di.fault {
            let _ = fault;
            sim.redirect(di.header.pc.wrapping_add(4));
        }
        units += 1;
    }
    let injected = sim.take_chaos().unwrap().injected();
    assert!(injected > 0, "flips must have fired");

    sim.reset_program(&loop_program()).unwrap();
    let summary = sim.run_to_halt(10_000).unwrap();
    assert_eq!(summary.exit_code, 7);
    assert_eq!(String::from_utf8_lossy(sim.stdout()), "55\n");
}

#[test]
fn halted_simulator_rejects_every_entry_point() {
    let mut one = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    one.load_program(&loop_program()).unwrap();
    one.run_to_halt(10_000).unwrap();
    let mut di = DynInst::new();
    assert!(matches!(one.next_inst(&mut di), Err(IfaceError::Halted)));

    let mut block = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    block.load_program(&loop_program()).unwrap();
    block.run_to_halt(10_000).unwrap();
    let mut buf = Vec::new();
    assert!(matches!(block.next_block(&mut buf), Err(IfaceError::Halted)));
    assert!(matches!(block.fast_forward(1), Err(IfaceError::Halted)));

    let mut step = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    step.load_program(&loop_program()).unwrap();
    step.run_to_halt(10_000).unwrap();
    assert!(matches!(step.step_inst(Step::Fetch, &mut di), Err(IfaceError::Halted)));
}

#[test]
fn step_sequence_recovers_after_out_of_order_call() {
    let mut sim = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut di = DynInst::new();
    sim.step_inst(Step::Fetch, &mut di).unwrap();
    // Skipping decode is rejected and does not advance the sequence...
    let err = sim.step_inst(Step::Evaluate, &mut di).unwrap_err();
    assert!(matches!(
        err,
        IfaceError::OutOfOrderStep { expected: Step::Decode, got: Step::Evaluate }
    ));
    // ...so the legal next step still works.
    sim.step_inst(Step::Decode, &mut di).unwrap();
    for s in [Step::OperandFetch, Step::Evaluate, Step::Memory, Step::Writeback, Step::Exception] {
        sim.step_inst(s, &mut di).unwrap();
    }
    assert_eq!(sim.state.pc, 0x1004);
}

#[test]
fn chaos_page_unmap_is_survivable_with_cache_verify() {
    // Unmap-heavy plan on the compiled backend with verification on: the
    // run may fault (the handler skips), but the engine must neither panic
    // nor execute stale blocks.
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.load_program(&loop_program()).unwrap();
    sim.set_chaos(ChaosPlan {
        seed: 11,
        flip_period: None,
        data_fault_period: None,
        unmap_period: Some(6),
        translate_fault_period: None,
        start: 0,
        max_events: 4,
    });
    let mut buf = Vec::new();
    let mut units = 0;
    while !sim.state.halted && units < 300 {
        match sim.next_block(&mut buf) {
            Ok(_) => {}
            Err(e) => panic!("interface error under chaos: {e}"),
        }
        if let Some(f) = buf.last().and_then(|d| d.fault) {
            let _ = f;
            let pc = buf.last().unwrap().header.pc;
            sim.redirect(pc.wrapping_add(4));
        }
        units += 1;
    }
    let chaos = sim.take_chaos().unwrap();
    assert!(chaos.injected() <= 4, "event budget respected");
}

#[test]
fn demotion_ladder_walks_compiled_to_interpreted() {
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.load_program(&loop_program()).unwrap();
    assert_eq!(sim.demote_now(DemotionReason::Requested), Some(Backend::Interpreted));
    assert_eq!(
        sim.demote_now(DemotionReason::Requested),
        None,
        "the ladder ends at the reference interpreter"
    );
    assert_eq!(sim.backend(), Backend::Interpreted);
    assert_eq!(sim.stats.demotions, 1);
    let log = sim.demotion_events();
    assert_eq!(log.len(), 1);
    assert_eq!((log[0].from, log[0].to), (Backend::Compiled, Backend::Interpreted));
    assert_eq!(log[0].reason, DemotionReason::Requested);
    // The program still completes on the fully demoted backend.
    let summary = sim.run_to_halt(10_000).unwrap();
    assert_eq!(summary.exit_code, 7);
    assert_eq!(String::from_utf8_lossy(sim.stdout()), "55\n");
}

#[test]
fn run_to_halt_re_dispatches_after_a_cache_verify_demotion() {
    // Enter the hot loop on the compiled backend, then change the loop body
    // underneath the superblock cache — to a different encoding of the same
    // computation, so the program's meaning is preserved. With the ladder
    // armed, the freshness probe must demote Compiled -> Interpreted
    // *mid-run* and `run_to_halt` must finish the program on the demoted
    // backend.
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.set_demote(true);
    sim.load_program(&loop_program()).unwrap();

    let mut buf = Vec::new();
    sim.next_block(&mut buf).unwrap(); // 0x1000..: falls into the loop
    sim.next_block(&mut buf).unwrap(); // 0x100c..: one loop iteration, cached
    assert!(sim.compiled_blocks() > 0);

    // add r2, r2, r3 becomes add r2, r3, r2: same sum, different bits.
    sim.poke_mem(0x100c, 4, toy::add(2, 3, 2) as u64).unwrap();
    let summary = sim.run_to_halt(100_000).unwrap();
    assert_eq!(summary.exit_code, 7);
    assert_eq!(String::from_utf8_lossy(sim.stdout()), "55\n");
    assert_eq!(sim.backend(), Backend::Interpreted, "one rung down, not an abort");
    assert_eq!(sim.stats.demotions, 1);
    let log = sim.demotion_events();
    assert_eq!(log.len(), 1);
    assert!(matches!(log[0].reason, DemotionReason::CacheVerify));
    assert_eq!((log[0].from, log[0].to), (Backend::Compiled, Backend::Interpreted));
}

#[test]
fn demotion_mid_block_past_the_budget_stops_at_max_insts() {
    // A four-instruction loop: one superblock. After a warm-up that caches
    // it, its first word changes, so the next lookup demotes the backend —
    // but the one-shot rebuild still runs all four instructions, crossing a
    // budget of two. The run must stop with `MaxInsts`, not hand a negative
    // remainder back to `run_to_halt`.
    let prog = image(&[toy::addi(2, 2, 1), toy::addi(3, 3, 1), toy::addi(4, 4, 1), toy::jmp(-4)]);
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.set_demote(true);
    sim.load_program(&prog).unwrap();
    assert!(matches!(sim.run_to_halt(4), Err(SimStop::MaxInsts)));
    assert_eq!(sim.stats.insts, 4);

    sim.poke_mem(0x1000, 4, toy::addi(2, 2, 100) as u64).unwrap();
    assert!(matches!(sim.run_to_halt(2), Err(SimStop::MaxInsts)));
    assert_eq!(sim.stats.insts, 8, "the demoting block ran to its end");
    assert_eq!(sim.backend(), Backend::Interpreted);
    assert_eq!(sim.stats.demotions, 1);
    assert_eq!(sim.state.gpr[2], 101, "the rebuilt block ran the new code");
}

#[test]
fn demotion_is_opt_in_for_automatic_triggers() {
    // Without `set_demote(true)` the stale-cache probe falls back one block
    // at a time (the pre-ladder behavior) and never changes the backend.
    let prog = image(&[toy::addi(2, 2, 1), toy::jmp(-2)]);
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.load_program(&prog).unwrap();
    let mut buf = Vec::new();
    sim.next_block(&mut buf).unwrap();
    sim.poke_mem(0x1000, 4, toy::addi(2, 2, 100) as u64).unwrap();
    sim.next_block(&mut buf).unwrap();
    assert_eq!(sim.stats.fallback_blocks, 1);
    assert_eq!(sim.backend(), Backend::Compiled, "no ladder without opt-in");
    assert_eq!(sim.stats.demotions, 0);
    assert!(sim.demotion_events().is_empty());
}

#[test]
fn translate_faults_are_silent_and_survive_the_freshness_probe() {
    // A translation fault models a silent translator bug: the corrupted
    // superblock is cached like an honest one, the stored first word still
    // matches memory (so cache verification cannot see it), and no demotion
    // fires even with the ladder armed. Only lockstep against a reference
    // can catch the divergence — which is exactly the supervised harness's
    // job.
    let mut reference = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    reference.load_program(&loop_program()).unwrap();
    reference.run_to_halt(10_000).unwrap();
    let ref_stdout = reference.stdout().to_vec();

    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.set_backend(Backend::Compiled);
    sim.set_cache_verify(true);
    sim.set_demote(true);
    sim.load_program(&loop_program()).unwrap();
    sim.set_chaos(ChaosPlan {
        seed: 5,
        flip_period: None,
        data_fault_period: None,
        unmap_period: None,
        translate_fault_period: Some(2),
        start: 0,
        max_events: 1,
    });
    let mut buf = Vec::new();
    let mut units = 0;
    while !sim.state.halted && units < 500 {
        sim.next_block(&mut buf).expect("interface survives a translate fault");
        if let Some(d) = buf.last().filter(|d| d.fault.is_some()) {
            let pc = d.header.pc;
            sim.redirect(pc.wrapping_add(4));
        }
        units += 1;
    }
    assert!(sim.chaos().unwrap().injected() > 0, "the translate channel must fire");
    assert_eq!(sim.stats.demotions, 0, "no probe can see a silent translation bug");
    assert_eq!(sim.stats.fallback_blocks, 0, "the stored bits are correct: probes pass");
    assert!(sim.compiled_blocks() > 0, "the poisoned superblock is cached");
    let diverged =
        !sim.state.halted || sim.state.exit_code != 7 || sim.stdout() != ref_stdout.as_slice();
    assert!(diverged, "a poisoned decode capture must change the program's behavior");
}

#[test]
fn scripted_replay_reproduces_a_procedural_chaos_run() {
    // Record the events of a procedural chaos run, then replay them verbatim
    // through a scripted state on a fresh simulator: every observable must
    // match. This is the engine half of the supervised-reference contract.
    let drive = |mut sim: Simulator| {
        let mut di = DynInst::new();
        let mut units = 0;
        while !sim.state.halted && units < 500 {
            sim.next_inst(&mut di).unwrap();
            if di.fault.is_some() {
                sim.redirect(di.header.pc.wrapping_add(4));
            }
            units += 1;
        }
        sim
    };
    let mut subject = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    subject.load_program(&loop_program()).unwrap();
    subject.set_chaos(ChaosPlan::uniform(0xFEED, 8));
    let subject = drive(subject);
    let events = subject.chaos().unwrap().events().to_vec();
    assert!(!events.is_empty(), "the recording run must inject something");

    let mut replay = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    replay.load_program(&loop_program()).unwrap();
    replay.set_chaos_state(ChaosState::scripted(0xFEED, events.iter().cloned()));
    let replay = drive(replay);
    assert_eq!(replay.state.gpr, subject.state.gpr);
    assert_eq!(replay.state.pc, subject.state.pc);
    assert_eq!(replay.stats.faults, subject.stats.faults);
    assert_eq!(replay.chaos().unwrap().events(), events.as_slice());
    assert_eq!(replay.chaos().unwrap().pending(), 0, "every scripted event replayed");
}
