//! A set-associative cache model with pluggable replacement and prefetch.

use crate::components::{PrefetchKind, Prefetcher, ReplacementKind, ReplacementPolicy};

/// Static configuration of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Miss penalty in cycles.
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// A small L1 instruction cache (16 KiB, 2-way, 32-byte lines).
    pub const L1I: CacheConfig =
        CacheConfig { size: 16 * 1024, ways: 2, line: 32, miss_penalty: 10 };
    /// A small L1 data cache (16 KiB, 4-way, 32-byte lines).
    pub const L1D: CacheConfig =
        CacheConfig { size: 16 * 1024, ways: 4, line: 32, miss_penalty: 12 };
}

/// A set-associative cache with a pluggable [`ReplacementPolicy`] and
/// [`Prefetcher`] (see [`Cache::with_components`]; [`Cache::new`] selects
/// LRU with no prefetching, the seed behavior). Tracks hits and misses;
/// timing simulators convert misses into stall cycles.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    policy: ReplacementPolicy,
    prefetcher: Prefetcher,
    /// Hit count.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
    /// Lines installed by the prefetcher (not counted as hits or misses).
    pub prefetches: u64,
}

impl Cache {
    /// Builds a cache with LRU replacement and no prefetching.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two arrangement.
    pub fn new(cfg: CacheConfig) -> Cache {
        Cache::with_components(cfg, ReplacementKind::Lru, PrefetchKind::None)
    }

    /// Builds a cache with the selected replacement policy and prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two arrangement.
    pub fn with_components(
        cfg: CacheConfig,
        replacement: ReplacementKind,
        prefetch: PrefetchKind,
    ) -> Cache {
        assert!(cfg.line.is_power_of_two() && cfg.ways > 0, "bad cache geometry");
        let lines = cfg.size / cfg.line;
        assert!(lines.is_multiple_of(cfg.ways), "size must divide into ways");
        let sets = lines / cfg.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            cfg,
            sets,
            line_shift: cfg.line.trailing_zeros(),
            tags: vec![u64::MAX; lines],
            policy: replacement.build(sets, cfg.ways),
            prefetcher: prefetch.build(),
            hits: 0,
            misses: 0,
            prefetches: 0,
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Installs `line` into its set: an invalid way if one exists, else the
    /// policy's victim. Returns the way filled.
    fn install(&mut self, line: u64) -> usize {
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.cfg.ways;
        let ways = &self.tags[base..base + self.cfg.ways];
        let way = match ways.iter().position(|&t| t == u64::MAX) {
            Some(w) => w,
            None => self.policy.victim(set),
        };
        self.tags[base + way] = line;
        self.policy.on_fill(set, way);
        way
    }

    /// Performs one demand access; returns the added latency (0 on hit,
    /// `miss_penalty` on miss, after filling the line and running the
    /// prefetch hook).
    pub fn access(&mut self, addr: u64) -> u64 {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.cfg.ways;
        let hit = self.tags[base..base + self.cfg.ways].iter().position(|&t| t == line);
        let penalty = if let Some(w) = hit {
            self.policy.on_hit(set, w);
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            self.install(line);
            self.cfg.miss_penalty
        };
        if let Some(p) = self.prefetcher.observe(line, hit.is_some()) {
            let pset = (p as usize) & (self.sets - 1);
            let pbase = pset * self.cfg.ways;
            if !self.tags[pbase..pbase + self.cfg.ways].contains(&p) {
                self.install(p);
                self.prefetches += 1;
            }
        }
        penalty
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::L1D);
        assert_eq!(c.access(0x1000), CacheConfig::L1D.miss_penalty);
        assert_eq!(c.access(0x1004), 0, "same line");
        assert_eq!(c.access(0x1020), CacheConfig::L1D.miss_penalty, "next line");
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
        assert_eq!(c.prefetches, 0);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Tiny cache: 2 sets, 2 ways, 16-byte lines.
        let cfg = CacheConfig { size: 64, ways: 2, line: 16, miss_penalty: 5 };
        let mut c = Cache::new(cfg);
        // Three distinct lines mapping to set 0 (stride = line * sets = 32).
        c.access(0x000);
        c.access(0x020);
        c.access(0x000); // refresh line 0
        assert_eq!(c.access(0x040), 5, "miss fills set");
        // 0x020 was LRU and must have been evicted; 0x000 must survive.
        assert_eq!(c.access(0x000), 0);
        assert_eq!(c.access(0x020), 5);
    }

    #[test]
    fn fifo_evicts_first_filled() {
        // Same traffic as `lru_evicts_oldest`, but under FIFO the hit on
        // 0x000 does not refresh it, so 0x000 (first in) is evicted.
        let cfg = CacheConfig { size: 64, ways: 2, line: 16, miss_penalty: 5 };
        let mut c = Cache::with_components(cfg, ReplacementKind::Fifo, PrefetchKind::None);
        c.access(0x000);
        c.access(0x020);
        c.access(0x000);
        assert_eq!(c.access(0x040), 5, "miss fills set");
        assert_eq!(c.access(0x020), 0, "0x020 survives under FIFO");
        assert_eq!(c.access(0x000), 5, "0x000 was first in, first out");
    }

    #[test]
    fn next_line_prefetch_hides_sequential_misses() {
        let mut c =
            Cache::with_components(CacheConfig::L1D, ReplacementKind::Lru, PrefetchKind::NextLine);
        c.access(0x1000); // miss; prefetches line of 0x1020
        assert_eq!(c.access(0x1020), 0, "prefetched line hits");
        assert_eq!(c.misses, 1);
        assert!(c.prefetches >= 1);
    }

    #[test]
    fn stride_prefetch_hides_strided_misses() {
        let mut c =
            Cache::with_components(CacheConfig::L1D, ReplacementKind::Lru, PrefetchKind::Stride);
        // Stride of 2 lines (64 bytes): next-line would miss every access.
        c.access(0x1000);
        c.access(0x1040);
        c.access(0x1080); // stride confirmed; prefetches 0x10c0's line
        assert_eq!(c.access(0x10c0), 0, "strided line was prefetched");
        assert_eq!(c.misses, 3);
    }

    #[test]
    fn prefetch_fills_do_not_count_as_demand_traffic() {
        let mut c =
            Cache::with_components(CacheConfig::L1I, ReplacementKind::Lru, PrefetchKind::NextLine);
        c.access(0x2000);
        assert_eq!(c.hits + c.misses, 1, "one demand access, one counter bump");
        assert_eq!(c.prefetches, 1);
    }

    #[test]
    fn miss_rate_sane() {
        let mut c = Cache::new(CacheConfig::L1I);
        for pc in (0x1000..0x1100).step_by(4) {
            c.access(pc);
        }
        // 64 accesses over 8 lines: 8 misses.
        assert!((c.miss_rate() - 8.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig { size: 64, ways: 0, line: 16, miss_penalty: 1 });
    }
}
