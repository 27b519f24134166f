//! Shared translation artifacts: exportable snapshots of a simulator's
//! decode and compiled-code caches, plus a thread-safe content-addressed
//! store that amortizes build work across simulators.
//!
//! The per-simulator caches hold `Rc<Superblock>` with interior `Cell` link
//! state — deliberately single-threaded. What *is* shareable is
//! the plain data those caches were built from: [`crate::Simulator`]
//! instructions are `Copy` structs of captured decode state and action
//! function pointers, all `Send + Sync`. [`Artifacts`] is that plain-data
//! snapshot, sorted by PC for determinism;
//! [`Simulator::export_artifacts`](crate::Simulator::export_artifacts)
//! produces one and
//! [`Simulator::seed_artifacts`](crate::Simulator::seed_artifacts) rebuilds
//! fresh `Rc` caches from one (link hints start cold — they re-warm as
//! control flow is observed, and are never trusted anyway).
//!
//! The [`ArtifactStore`] keys snapshots by
//! `(ISA, image content hash, buildset, backend)` so a long-running service
//! can hand the second session of a key the first session's translations.
//! Chaos-integrity rules are enforced at the export side: a simulator that
//! ever had fault injection armed is tainted and refuses to export (a
//! translate-fault superblock is cached poisoned by design — see
//! [`crate::compile`] — so nothing a chaos run built may escape it).

use crate::compile::CompiledInst;
use crate::engine::Backend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A plain-data snapshot of one simulator's translation caches: the
/// single-instruction decode cache and compiled superblocks.
/// `Send + Sync` (asserted by test), so it can sit behind an `Arc` in a
/// shared store and seed simulators on any thread.
pub struct Artifacts {
    /// ISA name the caches were built for.
    pub(crate) isa: &'static str,
    /// Buildset name the caches were built for.
    pub(crate) buildset: &'static str,
    /// Backend the caches were built by (seeding checks equality: the
    /// interpreted backend keeps no caches to seed).
    pub(crate) backend: Backend,
    /// Single-instruction decode cache entries `(pc, (op, bits))`, sorted.
    pub(crate) insts: Vec<(u64, (u16, u32))>,
    /// Compiled superblocks, sorted by entry PC.
    pub(crate) compiled: Vec<(u64, Box<[CompiledInst]>)>,
}

impl Artifacts {
    /// Total translations carried: compiled superblocks (the unit
    /// [`SimStats::seeded_blocks`](crate::SimStats::seeded_blocks) counts).
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// Whether the snapshot carries no translations at all (it may still
    /// carry decode-cache entries).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// ISA name the snapshot was built for.
    pub fn isa(&self) -> &'static str {
        self.isa
    }

    /// Buildset name the snapshot was built for.
    pub fn buildset(&self) -> &'static str {
        self.buildset
    }

    /// Backend the snapshot was built by.
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

impl std::fmt::Debug for Artifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifacts")
            .field("isa", &self.isa)
            .field("buildset", &self.buildset)
            .field("backend", &self.backend)
            .field("insts", &self.insts.len())
            .field("compiled", &self.compiled.len())
            .finish()
    }
}

/// Content address of a set of translation artifacts: same key ⇒ the caches
/// are interchangeable (same decode tables, same loadable bytes, same
/// interface elisions, same backend representation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// ISA name.
    pub isa: String,
    /// [`lis_mem::Image::content_hash`] of the program image.
    pub image_hash: u64,
    /// Buildset name.
    pub buildset: String,
    /// Execution backend.
    pub backend: Backend,
}

impl ArtifactKey {
    /// Builds the key for running `image` on `(isa, buildset, backend)`.
    pub fn new(isa: &str, image: &lis_mem::Image, buildset: &str, backend: Backend) -> ArtifactKey {
        ArtifactKey {
            isa: isa.to_string(),
            image_hash: image.content_hash(),
            buildset: buildset.to_string(),
            backend,
        }
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{:?}@{:016x}", self.isa, self.buildset, self.backend, self.image_hash)
    }
}

/// Monotonic usage counters for an [`ArtifactStore`], read without locking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups that found a snapshot.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Snapshots inserted (first-wins; replaced entries are not counted).
    pub inserts: u64,
    /// Current number of stored snapshots.
    pub entries: u64,
}

/// A thread-safe, content-addressed store of translation snapshots shared by
/// every session of a long-running service. First insert wins: once a key is
/// populated, later (identical, by content addressing) snapshots are
/// dropped, so hit counters measure genuine cross-session reuse.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    map: Mutex<HashMap<ArtifactKey, Arc<Artifacts>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl ArtifactStore {
    /// Creates an empty store.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Looks up the snapshot for `key`, counting a hit or a miss.
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<Artifacts>> {
        let found = self.map.lock().expect("artifact store poisoned").get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts `art` under `key` unless the key is already populated.
    /// Returns whether the snapshot was stored.
    pub fn insert(&self, key: ArtifactKey, art: Arc<Artifacts>) -> bool {
        let mut map = self.map.lock().expect("artifact store poisoned");
        if map.contains_key(&key) {
            return false;
        }
        map.insert(key, art);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Current usage counters.
    pub fn stats(&self) -> StoreStats {
        let entries = self.map.lock().expect("artifact store poisoned").len() as u64;
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Seeding can fail only for a reason worth reporting; everything here means
/// "these caches do not describe that simulator".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedError {
    /// The snapshot was built for a different ISA.
    IsaMismatch,
    /// The snapshot was built for a different buildset.
    BuildsetMismatch,
    /// The snapshot was built by a different backend.
    BackendMismatch,
    /// The target simulator has (or had) fault injection armed; its caches
    /// follow chaos invalidation rules and must stay private.
    Tainted,
}

impl std::fmt::Display for SeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            SeedError::IsaMismatch => "ISA mismatch",
            SeedError::BuildsetMismatch => "buildset mismatch",
            SeedError::BackendMismatch => "backend mismatch",
            SeedError::Tainted => "simulator is chaos-tainted",
        };
        f.write_str(what)
    }
}

impl std::error::Error for SeedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Artifacts>();
        assert_send_sync::<ArtifactStore>();
    }

    #[test]
    fn store_counts_hits_misses_and_first_insert_wins() {
        let store = ArtifactStore::new();
        let key = ArtifactKey {
            isa: "alpha".into(),
            image_hash: 7,
            buildset: "block-all".into(),
            backend: Backend::Compiled,
        };
        assert!(store.get(&key).is_none());
        let art = Arc::new(Artifacts {
            isa: "alpha",
            buildset: "block-all",
            backend: Backend::Compiled,
            insts: vec![],
            compiled: vec![],
        });
        assert!(store.insert(key.clone(), Arc::clone(&art)));
        assert!(!store.insert(key.clone(), art), "first insert wins");
        assert!(store.get(&key).is_some());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert!(key.to_string().contains("alpha/block-all"));
    }
}
