//! Export/seed round-trips for the shared-artifact path: a warm-started
//! simulator must behave bit-for-bit like the cold one that built the
//! caches, build nothing itself, and refuse to share across chaos or
//! configuration boundaries.

use lis_core::{nr, BLOCK_ALL, ONE_ALL};
use lis_mem::{ChaosPlan, Image, Section};
use lis_runtime::{toy, ArtifactKey, ArtifactStore, Backend, SeedError, Simulator};
use std::sync::Arc;

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

/// sum(1..=10) in a loop, printed, exit 7 — enough blocks to make caching
/// visible.
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

fn run_cold(backend: Backend) -> (Simulator, lis_runtime::Artifacts) {
    let mut sim = Simulator::new(toy::spec(), BLOCK_ALL).expect("builds");
    sim.set_backend(backend);
    sim.load_program(&loop_program()).expect("loads");
    let summary = sim.run_to_halt(10_000).expect("runs");
    assert!(summary.halted && summary.exit_code == 7);
    assert!(sim.stats.blocks_built > 0, "cold run builds blocks");
    assert_eq!(sim.stats.seeded_blocks, 0, "cold run seeds nothing");
    let art = sim.export_artifacts().expect("clean sim exports");
    assert!(!art.is_empty(), "{backend:?}: export carries translations");
    (sim, art)
}

#[test]
fn warm_start_matches_cold_and_builds_nothing() {
    let (cold, art) = run_cold(Backend::Compiled);

    let mut warm = Simulator::new(toy::spec(), BLOCK_ALL).expect("builds");
    warm.set_backend(Backend::Compiled);
    warm.load_program(&loop_program()).expect("loads");
    let seeded = warm.seed_artifacts(&art).expect("seeds");
    assert_eq!(seeded, art.len(), "every translation adopted");
    let summary = warm.run_to_halt(10_000).expect("runs");
    assert!(summary.halted && summary.exit_code == 7);

    assert_eq!(warm.stdout(), cold.stdout(), "same output");
    assert_eq!(warm.stats.blocks_built, 0, "warm run builds nothing");
    assert_eq!(warm.stats.seeded_blocks, seeded as u64);
    assert_eq!(warm.stats.insts, cold.stats.insts);
    assert_eq!(
        warm.stats.detail_units(),
        cold.stats.detail_units(),
        "seeding is build amortization, not interface work"
    );
    // A second export round-trips to the same content.
    let again = warm.export_artifacts().expect("warm sim exports");
    assert_eq!(again.len(), art.len());
}

#[test]
fn one_semantic_decode_cache_round_trips() {
    let mut cold = Simulator::new(toy::spec(), ONE_ALL).expect("builds");
    cold.load_program(&loop_program()).expect("loads");
    cold.run_to_halt(10_000).expect("runs");
    let art = cold.export_artifacts().expect("exports");

    let mut warm = Simulator::new(toy::spec(), ONE_ALL).expect("builds");
    warm.load_program(&loop_program()).expect("loads");
    warm.seed_artifacts(&art).expect("seeds");
    let summary = warm.run_to_halt(10_000).expect("runs");
    assert!(summary.halted);
    assert_eq!(warm.stdout(), cold.stdout());
    assert_eq!(warm.stats.insts, cold.stats.insts);
    assert_eq!(warm.stats.detail_units(), cold.stats.detail_units());
}

#[test]
fn chaos_taints_export_and_seed_forever() {
    let mut sim = Simulator::new(toy::spec(), BLOCK_ALL).expect("builds");
    sim.load_program(&loop_program()).expect("loads");
    assert!(!sim.tainted());
    sim.set_chaos(ChaosPlan::quiet(1));
    assert!(sim.tainted());
    sim.run_to_halt(10_000).expect("runs");
    assert!(sim.export_artifacts().is_none(), "tainted sims never export");

    // Disarming does not launder the caches.
    sim.take_chaos();
    assert!(sim.tainted());
    assert!(sim.export_artifacts().is_none());

    // Nor may a tainted sim adopt shared artifacts: its invalidation rules
    // are per-session.
    let (_, art) = run_cold(Backend::Compiled);
    sim.load_program(&loop_program()).expect("loads");
    assert_eq!(sim.seed_artifacts(&art), Err(SeedError::Tainted));
}

#[test]
fn seed_rejects_mismatched_configurations() {
    let (_, art) = run_cold(Backend::Compiled);

    let mut wrong_backend = Simulator::new(toy::spec(), BLOCK_ALL).expect("builds");
    wrong_backend.set_backend(Backend::Interpreted);
    wrong_backend.load_program(&loop_program()).expect("loads");
    assert_eq!(wrong_backend.seed_artifacts(&art), Err(SeedError::BackendMismatch));

    let mut wrong_bs = Simulator::new(toy::spec(), ONE_ALL).expect("builds");
    wrong_bs.load_program(&loop_program()).expect("loads");
    assert_eq!(wrong_bs.seed_artifacts(&art), Err(SeedError::BuildsetMismatch));
}

#[test]
fn store_shares_across_simulators_by_content() {
    let store = ArtifactStore::new();
    let img = loop_program();
    let key = ArtifactKey::new("toy", &img, BLOCK_ALL.name, Backend::Compiled);

    assert!(store.get(&key).is_none(), "cold miss");
    let (_, art) = run_cold(Backend::Compiled);
    assert!(store.insert(key.clone(), Arc::new(art)));

    // A second session with the same content hits.
    let same_key = ArtifactKey::new("toy", &loop_program(), BLOCK_ALL.name, Backend::Compiled);
    assert_eq!(same_key, key);
    let shared = store.get(&same_key).expect("warm hit");

    let mut warm = Simulator::new(toy::spec(), BLOCK_ALL).expect("builds");
    warm.set_backend(Backend::Compiled);
    warm.load_program(&img).expect("loads");
    warm.seed_artifacts(&shared).expect("seeds");
    let summary = warm.run_to_halt(10_000).expect("runs");
    assert!(summary.halted && summary.exit_code == 7);
    assert_eq!(warm.stats.blocks_built, 0);
    assert!(warm.compiled_blocks() > 0);

    // A different image is a different address.
    let other = image(&[toy::addi(1, 0, nr::EXIT as i16), toy::addi(2, 0, 0), toy::sys()]);
    let other_key = ArtifactKey::new("toy", &other, BLOCK_ALL.name, Backend::Compiled);
    assert_ne!(other_key, key);
    assert!(store.get(&other_key).is_none());

    let s = store.stats();
    assert_eq!(s.entries, 1);
    assert_eq!(s.inserts, 1);
    assert!(s.hits >= 1 && s.misses >= 2);
}
