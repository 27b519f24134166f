//! Cold-vs-warm artifact-store benchmark (`lis serve --bench-warm`).
//!
//! Measures what the service's shared translation cache buys a second
//! session: every cell runs a kernel twice on fresh simulators — cold
//! (translating everything, publishing its artifacts) and warm (seeding
//! compiled superblocks from the store) — and proves the two runs
//! byte-equal before reporting. The JSON scoreboard (`BENCH_serve.json`) is
//! deterministic by construction; the wall-clock cost of a cold session is
//! the repository benchmark's `serve.cold_x`.

use lis_core::JsonObj;
use lis_runtime::{ArtifactKey, ArtifactStore, Backend, Simulator, StoreStats};
use lis_workloads::{spec_of, ISAS};
use std::sync::Arc;

/// The one backend with reusable translation state.
const BACKEND: Backend = Backend::Compiled;

/// What to measure.
#[derive(Debug, Clone)]
pub struct WarmConfig {
    /// Kernel names (each must exist on every ISA).
    pub kernels: Vec<String>,
    /// Buildset names.
    pub buildsets: Vec<String>,
    /// Instruction budget per run.
    pub max_insts: u64,
}

impl Default for WarmConfig {
    fn default() -> WarmConfig {
        WarmConfig {
            kernels: vec!["gcd".to_string(), "strrev".to_string()],
            buildsets: vec!["block-all".to_string(), "block-min".to_string()],
            max_insts: 100_000_000,
        }
    }
}

/// One (ISA, buildset, kernel) cell on the compiled backend, run cold then
/// warm.
#[derive(Debug, Clone)]
pub struct WarmCell {
    /// ISA name.
    pub isa: &'static str,
    /// Buildset name.
    pub buildset: &'static str,
    /// Kernel name.
    pub kernel: String,
    /// Instructions retired (identical cold and warm, asserted).
    pub insts: u64,
    /// Blocks the cold run translated.
    pub cold_blocks_built: u64,
    /// Blocks the warm run translated (0 when sharing works).
    pub warm_blocks_built: u64,
    /// Cache entries the warm run adopted from the store.
    pub seeded: u64,
    /// Whether cold and warm agreed on stdout, exit code, instruction
    /// count, and detail units.
    pub equal: bool,
}

/// The whole scoreboard.
#[derive(Debug, Clone)]
pub struct WarmReport {
    /// Every cell, in deterministic (ISA, buildset, kernel) order.
    pub cells: Vec<WarmCell>,
    /// Store counters after the run (hits == cells when sharing works).
    pub store: StoreStats,
    /// The budget each run got.
    pub max_insts: u64,
}

impl WarmReport {
    /// Whether every cell matched cold-vs-warm and adopted the cache.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.equal && c.warm_blocks_built == 0 && c.seeded > 0)
    }
}

/// Runs the cold-vs-warm matrix against one fresh [`ArtifactStore`].
///
/// # Errors
///
/// A usage-level message (unknown kernel/buildset, assembly failure) or a
/// broken invariant (a cold run refusing to export, a store miss right
/// after publishing, cold/warm divergence).
pub fn run_warm(cfg: &WarmConfig) -> Result<WarmReport, String> {
    let store = ArtifactStore::new();
    let mut cells = Vec::new();
    for isa in ISAS {
        for bs_name in &cfg.buildsets {
            let bs = *lis_core::find_buildset(bs_name)
                .ok_or_else(|| format!("unknown buildset `{bs_name}`"))?;
            for kname in &cfg.kernels {
                let w = lis_workloads::kernel(isa, kname)
                    .ok_or_else(|| format!("unknown kernel `{kname}` on {isa}"))?;
                let image = w.assemble().map_err(|e| e.to_string())?;
                let label = format!("{isa}/{bs_name}/{kname}/{}", BACKEND.name());
                let key = ArtifactKey::new(isa, &image, bs.name, BACKEND);

                let mut cold = Simulator::new(spec_of(isa), bs).map_err(|e| e.to_string())?;
                cold.set_backend(BACKEND);
                cold.load_program(&image).map_err(|e| e.to_string())?;
                let cs =
                    cold.run_to_halt(cfg.max_insts).map_err(|e| format!("{label}: cold: {e}"))?;
                let art = cold
                    .export_artifacts()
                    .ok_or_else(|| format!("{label}: cold run refused to export"))?;
                store.insert(key.clone(), Arc::new(art));

                let mut warm = Simulator::new(spec_of(isa), bs).map_err(|e| e.to_string())?;
                warm.set_backend(BACKEND);
                warm.load_program(&image).map_err(|e| e.to_string())?;
                let shared =
                    store.get(&key).ok_or_else(|| format!("{label}: store miss after publish"))?;
                let seeded = warm.seed_artifacts(&shared).map_err(|e| format!("{label}: {e}"))?;
                let ws =
                    warm.run_to_halt(cfg.max_insts).map_err(|e| format!("{label}: warm: {e}"))?;

                let equal = cs.exit_code == ws.exit_code
                    && cs.insts == ws.insts
                    && cold.stdout() == warm.stdout()
                    && cold.stats.detail_units() == warm.stats.detail_units();
                if !equal {
                    return Err(format!("{label}: cold and warm runs diverged"));
                }
                cells.push(WarmCell {
                    isa,
                    buildset: bs.name,
                    kernel: kname.clone(),
                    insts: cs.insts,
                    cold_blocks_built: cold.stats.blocks_built,
                    warm_blocks_built: warm.stats.blocks_built,
                    seeded: seeded as u64,
                    equal,
                });
            }
        }
    }
    Ok(WarmReport { cells, store: store.stats(), max_insts: cfg.max_insts })
}

/// Renders the scoreboard (`BENCH_serve.json`). Deterministic by
/// construction.
pub fn to_json(r: &WarmReport) -> String {
    let mut o = JsonObj::new();
    o.str("schema", "lis-serve-warm-v1");
    o.u64("max_insts", r.max_insts);
    o.bool("ok", r.ok());
    let mut st = JsonObj::new();
    st.u64("hits", r.store.hits)
        .u64("misses", r.store.misses)
        .u64("inserts", r.store.inserts)
        .u64("entries", r.store.entries);
    o.raw("store", &st.finish());
    let mut cells = String::from("[");
    for (i, c) in r.cells.iter().enumerate() {
        if i > 0 {
            cells.push(',');
        }
        let mut co = JsonObj::new();
        co.str("isa", c.isa)
            .str("buildset", c.buildset)
            .str("kernel", &c.kernel)
            .str("backend", BACKEND.name())
            .u64("insts", c.insts)
            .u64("cold_blocks_built", c.cold_blocks_built)
            .u64("warm_blocks_built", c.warm_blocks_built)
            .u64("seeded", c.seeded)
            .bool("equal", c.equal);
        cells.push_str(&co.finish());
    }
    cells.push(']');
    o.raw("cells", &cells);
    o.finish()
}

/// Human-oriented summary for the terminal.
pub fn render(r: &WarmReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cold-vs-warm: {} cells, store {} hits / {} misses / {} entries",
        r.cells.len(),
        r.store.hits,
        r.store.misses,
        r.store.entries
    );
    for c in &r.cells {
        let _ = writeln!(
            out,
            "  {:<34} cold built {:>4} blocks, warm seeded {:>4}, built {}",
            format!("{}/{}/{}/{}", c.isa, c.buildset, c.kernel, BACKEND.name()),
            c.cold_blocks_built,
            c.seeded,
            c.warm_blocks_built
        );
    }
    let _ = writeln!(out, "all cells cold==warm: {}", if r.ok() { "yes" } else { "NO" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_runs_adopt_everything_and_match_cold() {
        let cfg = WarmConfig {
            kernels: vec!["gcd".to_string()],
            buildsets: vec!["block-all".to_string()],
            ..WarmConfig::default()
        };
        let report = run_warm(&cfg).expect("matrix runs");
        assert_eq!(report.cells.len(), 3, "one cell per ISA");
        assert!(report.ok(), "{report:?}");
        for c in &report.cells {
            assert!(c.cold_blocks_built > 0, "{c:?}");
            assert_eq!(c.warm_blocks_built, 0, "{c:?}");
            assert!(c.seeded > 0, "{c:?}");
        }
        assert_eq!(report.store.hits as usize, report.cells.len());
        let json = to_json(&report);
        assert!(json.contains(r#""schema":"lis-serve-warm-v1""#));
        assert!(json.contains(r#""ok":true"#));
        assert!(!json.contains("cold_secs"), "no wall-clock in the scoreboard");
        // Deterministic: the same matrix renders byte-identically.
        let again = to_json(&run_warm(&cfg).expect("matrix reruns"));
        assert_eq!(json, again);
    }
}
