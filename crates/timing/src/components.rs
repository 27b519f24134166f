//! Pluggable timing components behind ChampSim-style seams.
//!
//! The paper's premise is that the timing side is the part you *vary* while
//! the single functional specification stays fixed. This module provides the
//! variation points: a [`BranchPredictor`] seam, a [`ReplacementPolicy`] seam
//! consulted by [`Cache`](crate::Cache), and a [`Prefetcher`] hook — each an
//! enum over the two or three implementations that ship, selected by a
//! [`TimingConfig`] that flows from the CLI and the serve protocol into every
//! core model.
//!
//! The seams are enums, not trait objects, because they sit on the hottest
//! path of every timing consumer: each cache access and branch update is a
//! `match` the compiler inlines, not a virtual call — the way ChampSim wires
//! its modules in at build time. Adding a component is one struct with the
//! seam's methods, one variant, and one arm per seam method and in the
//! kind's `build`.
//!
//! All implementations are deterministic (the "random" replacement policy is
//! a fixed-seed xorshift), so sweeps and trace replays remain byte-identical
//! across job counts and machines.

use crate::predict::Predictor;

// -------------------------------------------------------------------------
// Branch prediction
// -------------------------------------------------------------------------

/// The branch-prediction seam: direction plus (when taken) target.
///
/// Every implementation keeps its own correct/mispredict counters so a core
/// can report rates over a measured region by snapshotting both.
#[derive(Debug, Clone)]
pub enum BranchPredictor {
    /// Two-bit bimodal counters with a direct-mapped BTB.
    Bimodal(Predictor),
    /// Global-history gshare with the same BTB.
    Gshare(Gshare),
    /// Static always-not-taken.
    NotTaken(NotTaken),
}

impl BranchPredictor {
    /// Predicts the branch at `pc`: `(taken, predicted_target)`.
    pub fn predict(&self, pc: u64) -> (bool, Option<u64>) {
        match self {
            BranchPredictor::Bimodal(p) => p.predict(pc),
            BranchPredictor::Gshare(p) => p.predict(pc),
            BranchPredictor::NotTaken(p) => p.predict(pc),
        }
    }

    /// Updates with the architectural outcome; returns whether the earlier
    /// prediction was fully correct (direction and, when taken, target).
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        match self {
            BranchPredictor::Bimodal(p) => p.update(pc, taken, target),
            BranchPredictor::Gshare(p) => p.update(pc, taken, target),
            BranchPredictor::NotTaken(p) => p.update(pc, taken, target),
        }
    }

    /// Correct predictions so far.
    pub fn correct(&self) -> u64 {
        match self {
            BranchPredictor::Bimodal(p) => p.correct,
            BranchPredictor::Gshare(p) => p.correct,
            BranchPredictor::NotTaken(p) => p.correct,
        }
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        match self {
            BranchPredictor::Bimodal(p) => p.mispredicts,
            BranchPredictor::Gshare(p) => p.mispredicts,
            BranchPredictor::NotTaken(p) => p.mispredicts,
        }
    }

    /// Misprediction rate over everything seen so far.
    pub fn mispredict_rate(&self) -> f64 {
        let total = self.correct() + self.mispredicts();
        if total == 0 {
            0.0
        } else {
            self.mispredicts() as f64 / total as f64
        }
    }
}

/// A gshare predictor: two-bit counters indexed by the PC XOR a global
/// history register, with the same direct-mapped BTB as the bimodal
/// predictor. Correlated branches that alias in a bimodal table separate
/// under distinct history contexts.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    mask: usize,
    history: u64,
    /// Correct predictions.
    pub correct: u64,
    /// Mispredictions (direction or target).
    pub mispredicts: u64,
}

impl Gshare {
    /// Builds a gshare predictor with `entries` counters/BTB slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Gshare {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Gshare {
            counters: vec![1; entries], // weakly not-taken
            btb_tags: vec![u64::MAX; entries],
            btb_targets: vec![0; entries],
            mask: entries - 1,
            history: 0,
            correct: 0,
            mispredicts: 0,
        }
    }

    #[inline]
    fn dir_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) & self.mask
    }

    #[inline]
    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    /// Predicts the branch at `pc`: `(taken, predicted_target)`.
    pub fn predict(&self, pc: u64) -> (bool, Option<u64>) {
        let taken = self.counters[self.dir_index(pc)] >= 2;
        let b = self.btb_index(pc);
        let target = (self.btb_tags[b] == pc).then(|| self.btb_targets[b]);
        (taken, target)
    }

    /// Updates with the architectural outcome; returns whether the earlier
    /// prediction was fully correct.
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        let (pred_taken, pred_target) = self.predict(pc);
        let ok = pred_taken == taken && (!taken || pred_target == Some(target));
        if ok {
            self.correct += 1;
        } else {
            self.mispredicts += 1;
        }
        let i = self.dir_index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
            let b = self.btb_index(pc);
            self.btb_tags[b] = pc;
            self.btb_targets[b] = target;
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | u64::from(taken);
        ok
    }
}

/// The degenerate static predictor: every branch is predicted not-taken.
/// The pessimistic floor a real predictor must beat.
#[derive(Debug, Clone, Default)]
pub struct NotTaken {
    /// Correct predictions (not-taken outcomes).
    pub correct: u64,
    /// Mispredictions (taken outcomes).
    pub mispredicts: u64,
}

impl NotTaken {
    /// Builds the static not-taken predictor.
    pub fn new() -> NotTaken {
        NotTaken::default()
    }

    /// Predicts not-taken, with no target.
    pub fn predict(&self, _pc: u64) -> (bool, Option<u64>) {
        (false, None)
    }

    /// Counts the outcome; returns whether it was not-taken.
    pub fn update(&mut self, _pc: u64, taken: bool, _target: u64) -> bool {
        if taken {
            self.mispredicts += 1;
        } else {
            self.correct += 1;
        }
        !taken
    }
}

// -------------------------------------------------------------------------
// Cache replacement
// -------------------------------------------------------------------------

/// The replacement seam: the cache owns tags and fills invalid ways itself;
/// the policy is told about hits and fills and is consulted for a victim
/// only when a set is full.
#[derive(Debug, Clone)]
pub enum ReplacementPolicy {
    /// True LRU.
    Lru(LruPolicy),
    /// First-in first-out.
    Fifo(FifoPolicy),
    /// Seeded pseudo-random.
    Random(RandomPolicy),
}

impl ReplacementPolicy {
    /// A demand access hit `way` of `set`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self {
            ReplacementPolicy::Lru(p) => p.on_hit(set, way),
            ReplacementPolicy::Fifo(p) => p.on_hit(set, way),
            ReplacementPolicy::Random(p) => p.on_hit(set, way),
        }
    }

    /// A line was installed into `way` of `set` (demand fill or prefetch).
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self {
            ReplacementPolicy::Lru(p) => p.on_fill(set, way),
            ReplacementPolicy::Fifo(p) => p.on_fill(set, way),
            ReplacementPolicy::Random(p) => p.on_fill(set, way),
        }
    }

    /// Chooses the way to evict from a full `set`.
    pub fn victim(&mut self, set: usize) -> usize {
        match self {
            ReplacementPolicy::Lru(p) => p.victim(set),
            ReplacementPolicy::Fifo(p) => p.victim(set),
            ReplacementPolicy::Random(p) => p.victim(set),
        }
    }
}

/// True-LRU replacement: every hit and fill refreshes a recency stamp; the
/// victim is the least recently stamped way.
#[derive(Debug, Clone)]
pub struct LruPolicy {
    stamps: Vec<u64>,
    ways: usize,
    tick: u64,
}

impl LruPolicy {
    /// Builds an LRU policy for `sets` × `ways` lines.
    pub fn new(sets: usize, ways: usize) -> LruPolicy {
        LruPolicy { stamps: vec![0; sets * ways], ways, tick: 0 }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.stamps[set * self.ways + way] = self.tick;
    }

    /// A hit refreshes the way's recency.
    pub fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    /// A fill refreshes the way's recency.
    pub fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    /// The least recently used way of `set`.
    pub fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways).min_by_key(|&w| self.stamps[base + w]).expect("ways > 0")
    }
}

/// FIFO replacement: stamps advance only on fills, so the victim is the way
/// that has been resident longest regardless of hits.
#[derive(Debug, Clone)]
pub struct FifoPolicy {
    stamps: Vec<u64>,
    ways: usize,
    tick: u64,
}

impl FifoPolicy {
    /// Builds a FIFO policy for `sets` × `ways` lines.
    pub fn new(sets: usize, ways: usize) -> FifoPolicy {
        FifoPolicy { stamps: vec![0; sets * ways], ways, tick: 0 }
    }

    /// Hits do not change the eviction order.
    pub fn on_hit(&mut self, _set: usize, _way: usize) {}

    /// A fill stamps the way as the newest resident.
    pub fn on_fill(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.stamps[set * self.ways + way] = self.tick;
    }

    /// The longest-resident way of `set`.
    pub fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways).min_by_key(|&w| self.stamps[base + w]).expect("ways > 0")
    }
}

/// Seeded pseudo-random replacement: a fixed-seed xorshift64 picks the
/// victim, so two caches built the same way evict identically — determinism
/// is part of the contract, "random" refers only to the eviction pattern.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    state: u64,
    ways: usize,
}

impl RandomPolicy {
    /// Builds a random policy for sets of `ways` lines.
    pub fn new(ways: usize) -> RandomPolicy {
        RandomPolicy { state: 0x9E37_79B9_7F4A_7C15, ways }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Hits do not change the eviction order.
    pub fn on_hit(&mut self, _set: usize, _way: usize) {}

    /// Fills do not change the eviction order.
    pub fn on_fill(&mut self, _set: usize, _way: usize) {}

    /// The next pseudo-random way.
    pub fn victim(&mut self, _set: usize) -> usize {
        (self.next() % self.ways as u64) as usize
    }
}

// -------------------------------------------------------------------------
// Prefetching
// -------------------------------------------------------------------------

/// The prefetch hook: observes every demand access (in line-number space)
/// and may name one line to install. Prefetch fills go through the
/// replacement policy but never touch the hit/miss counters — only the
/// [`Cache::prefetches`](crate::Cache::prefetches) count.
#[derive(Debug, Clone)]
pub enum Prefetcher {
    /// No prefetching — the classic configuration.
    None,
    /// Next-line prefetching: every demand miss pulls in the sequentially
    /// next line. Wins on streaming code and instruction fetch.
    NextLine,
    /// Global-stride prefetching.
    Stride(StridePrefetcher),
}

impl Prefetcher {
    /// Observes a demand access to `line`; returns a line to prefetch.
    #[inline]
    pub fn observe(&mut self, line: u64, hit: bool) -> Option<u64> {
        match self {
            Prefetcher::None => None,
            Prefetcher::NextLine => (!hit).then(|| line.wrapping_add(1)),
            Prefetcher::Stride(s) => s.observe(line, hit),
        }
    }
}

/// Global-stride prefetching: tracks the delta between successive demand
/// lines and, when the same non-zero delta repeats, prefetches one stride
/// ahead. Catches strided array walks next-line misses on.
#[derive(Debug, Clone, Default)]
pub struct StridePrefetcher {
    last_line: u64,
    last_delta: u64,
    primed: bool,
}

impl StridePrefetcher {
    /// Observes a demand access to `line`; returns a line to prefetch.
    pub fn observe(&mut self, line: u64, _hit: bool) -> Option<u64> {
        let delta = line.wrapping_sub(self.last_line);
        let matched = self.primed && delta != 0 && delta == self.last_delta;
        self.last_delta = delta;
        self.last_line = line;
        self.primed = true;
        matched.then(|| line.wrapping_add(delta))
    }
}

// -------------------------------------------------------------------------
// Selection
// -------------------------------------------------------------------------

/// Which [`BranchPredictor`] implementation a core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Two-bit bimodal counters with a direct-mapped BTB (the seed model).
    Bimodal,
    /// Global-history gshare with the same BTB.
    Gshare,
    /// Static always-not-taken.
    NotTaken,
}

impl PredictorKind {
    /// Builds the selected predictor with `entries` table slots.
    pub fn build(self, entries: usize) -> BranchPredictor {
        match self {
            PredictorKind::Bimodal => BranchPredictor::Bimodal(Predictor::new(entries)),
            PredictorKind::Gshare => BranchPredictor::Gshare(Gshare::new(entries)),
            PredictorKind::NotTaken => BranchPredictor::NotTaken(NotTaken::new()),
        }
    }

    /// The kind's name as it appears in presets and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Gshare => "gshare",
            PredictorKind::NotTaken => "not-taken",
        }
    }
}

/// Which [`ReplacementPolicy`] implementation a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True LRU (the seed model).
    Lru,
    /// First-in first-out.
    Fifo,
    /// Seeded pseudo-random.
    Random,
}

impl ReplacementKind {
    /// Builds the selected policy for a `sets` × `ways` cache.
    pub fn build(self, sets: usize, ways: usize) -> ReplacementPolicy {
        match self {
            ReplacementKind::Lru => ReplacementPolicy::Lru(LruPolicy::new(sets, ways)),
            ReplacementKind::Fifo => ReplacementPolicy::Fifo(FifoPolicy::new(sets, ways)),
            ReplacementKind::Random => ReplacementPolicy::Random(RandomPolicy::new(ways)),
        }
    }

    /// The kind's name as it appears in presets and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementKind::Lru => "lru",
            ReplacementKind::Fifo => "fifo",
            ReplacementKind::Random => "random",
        }
    }
}

/// Which [`Prefetcher`] implementation a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchKind {
    /// No prefetching (the seed model).
    None,
    /// Next-line on demand miss.
    NextLine,
    /// Global-stride.
    Stride,
}

impl PrefetchKind {
    /// Builds the selected prefetcher.
    pub fn build(self) -> Prefetcher {
        match self {
            PrefetchKind::None => Prefetcher::None,
            PrefetchKind::NextLine => Prefetcher::NextLine,
            PrefetchKind::Stride => Prefetcher::Stride(StridePrefetcher::default()),
        }
    }

    /// The kind's name as it appears in presets and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PrefetchKind::None => "none",
            PrefetchKind::NextLine => "next-line",
            PrefetchKind::Stride => "stride",
        }
    }
}

/// One named selection of timing components — the unit the sweep's timing
/// axis and `lis trace replay --timing` iterate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Preset name as used on the command line and in sweep JSON.
    pub name: &'static str,
    /// Branch predictor selection.
    pub predictor: PredictorKind,
    /// Cache replacement selection (both caches).
    pub replacement: ReplacementKind,
    /// Prefetcher selection (both caches).
    pub prefetcher: PrefetchKind,
}

impl TimingConfig {
    /// The seed components: bimodal predictor, LRU replacement, no
    /// prefetching. Byte-identical behavior to the pre-seam models.
    pub const CLASSIC: TimingConfig = TimingConfig {
        name: "classic",
        predictor: PredictorKind::Bimodal,
        replacement: ReplacementKind::Lru,
        prefetcher: PrefetchKind::None,
    };

    /// Gshare prediction with next-line prefetching over LRU caches.
    pub const AGGRESSIVE: TimingConfig = TimingConfig {
        name: "aggressive",
        predictor: PredictorKind::Gshare,
        replacement: ReplacementKind::Lru,
        prefetcher: PrefetchKind::NextLine,
    };

    /// Bimodal prediction with FIFO replacement and stride prefetching.
    pub const STREAM: TimingConfig = TimingConfig {
        name: "stream",
        predictor: PredictorKind::Bimodal,
        replacement: ReplacementKind::Fifo,
        prefetcher: PrefetchKind::Stride,
    };

    /// The floor: not-taken prediction, random replacement, no prefetching.
    pub const MINIMAL: TimingConfig = TimingConfig {
        name: "minimal",
        predictor: PredictorKind::NotTaken,
        replacement: ReplacementKind::Random,
        prefetcher: PrefetchKind::None,
    };

    /// Every named preset, in catalog order.
    pub const PRESETS: [TimingConfig; 4] =
        [Self::CLASSIC, Self::AGGRESSIVE, Self::STREAM, Self::MINIMAL];

    /// Looks a preset up by name.
    pub fn named(name: &str) -> Option<TimingConfig> {
        Self::PRESETS.into_iter().find(|p| p.name == name)
    }

    /// Comma-separated preset names, for error messages and usage text.
    pub fn preset_names() -> String {
        Self::PRESETS.map(|p| p.name).join(", ")
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::CLASSIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_catalog_is_complete_and_unique() {
        // The catalog must cross all three dimensions: every implementation
        // of every component appears in at least one preset.
        assert!(TimingConfig::PRESETS.len() >= 3);
        for kind in [PredictorKind::Bimodal, PredictorKind::Gshare, PredictorKind::NotTaken] {
            assert!(TimingConfig::PRESETS.iter().any(|p| p.predictor == kind), "{kind:?}");
        }
        for kind in [ReplacementKind::Lru, ReplacementKind::Fifo, ReplacementKind::Random] {
            assert!(TimingConfig::PRESETS.iter().any(|p| p.replacement == kind), "{kind:?}");
        }
        for kind in [PrefetchKind::None, PrefetchKind::NextLine, PrefetchKind::Stride] {
            assert!(TimingConfig::PRESETS.iter().any(|p| p.prefetcher == kind), "{kind:?}");
        }
        let mut names: Vec<_> = TimingConfig::PRESETS.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), TimingConfig::PRESETS.len(), "duplicate preset name");
        assert_eq!(TimingConfig::named("classic"), Some(TimingConfig::CLASSIC));
        assert_eq!(TimingConfig::named("no-such"), None);
        assert_eq!(TimingConfig::default(), TimingConfig::CLASSIC);
    }

    #[test]
    fn gshare_separates_correlated_branches() {
        // Two branches whose low PC bits alias but whose outcomes depend on
        // history: gshare learns both; bimodal thrashes one counter.
        let mut g = PredictorKind::Gshare.build(16);
        let mut b = PredictorKind::Bimodal.build(16);
        // Alternating taken/not-taken at one pc: bimodal oscillates around
        // the weakly-not-taken boundary, gshare keys off the history bit.
        for i in 0..64u64 {
            let taken = i % 2 == 0;
            g.update(0x1000, taken, 0x2000);
            b.update(0x1000, taken, 0x2000);
        }
        assert!(
            g.mispredicts() < b.mispredicts(),
            "gshare {} vs bimodal {}",
            g.mispredicts(),
            b.mispredicts()
        );
    }

    #[test]
    fn not_taken_counts_outcomes() {
        let mut p = PredictorKind::NotTaken.build(16);
        assert!(p.update(0x10, false, 0));
        assert!(!p.update(0x10, true, 0x20));
        assert_eq!((p.correct(), p.mispredicts()), (1, 1));
        assert_eq!(p.predict(0x10), (false, None));
    }

    #[test]
    fn random_policy_is_deterministic() {
        let mut a = RandomPolicy::new(4);
        let mut b = RandomPolicy::new(4);
        let va: Vec<usize> = (0..32).map(|_| a.victim(0)).collect();
        let vb: Vec<usize> = (0..32).map(|_| b.victim(0)).collect();
        assert_eq!(va, vb);
        assert!(va.iter().all(|&w| w < 4));
        assert!(va.windows(2).any(|w| w[0] != w[1]), "should vary");
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut f = FifoPolicy::new(1, 2);
        f.on_fill(0, 0);
        f.on_fill(0, 1);
        f.on_hit(0, 0); // does not refresh
        assert_eq!(f.victim(0), 0, "way 0 is still the oldest fill");
        let mut l = LruPolicy::new(1, 2);
        l.on_fill(0, 0);
        l.on_fill(0, 1);
        l.on_hit(0, 0); // refreshes
        assert_eq!(l.victim(0), 1, "way 1 is now least recent");
    }

    #[test]
    fn stride_prefetcher_locks_onto_strides() {
        let mut s = StridePrefetcher::default();
        assert_eq!(s.observe(10, false), None, "first access: no history");
        assert_eq!(s.observe(14, false), None, "first delta: not yet repeated");
        assert_eq!(s.observe(18, false), Some(22), "stride 4 confirmed");
        assert_eq!(s.observe(22, true), Some(26), "hits keep the stream going");
        assert_eq!(s.observe(5, false), None, "stride break resets");
    }

    #[test]
    fn next_line_only_fires_on_miss() {
        let mut n = PrefetchKind::NextLine.build();
        assert_eq!(n.observe(7, false), Some(8));
        assert_eq!(n.observe(7, true), None);
    }
}
