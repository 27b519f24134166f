//! Trace-driven replay of the out-of-order timing consumer.
//!
//! Replay feeds recorded records to [`OooCore`] — the same consumer the
//! execute-driven frontend uses — so a single-shard replay of a trace is
//! bit-identical to running the functional simulator live. Sharded replay
//! splits the trace at chunk boundaries across threads: each worker warms
//! its core on the chunks preceding its shard (overlap warm-up), marks the
//! measurement start, feeds its own chunks, and the per-shard reports are
//! summed. Instruction counts merge exactly; cycle counts are near — not
//! bit — identical to single-shard, because a warmed core is an
//! approximation of the full prefix state.

use crate::error::TraceError;
use crate::reader::{decode_each, Trace};
use lis_core::{DynInst, IsaSpec, Visibility};
use lis_timing::{CoreConfig, OooConfig, OooCore, TimingReport};

/// Options for one replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Worker threads. 1 = exact sequential replay.
    pub shards: usize,
    /// Chunks of overlap warm-up fed to each shard before measurement.
    pub warmup_chunks: usize,
    /// Core parameters (must match the execute-driven run being compared).
    pub core: CoreConfig,
    /// Out-of-order parameters.
    pub ooo: OooConfig,
    /// The visibility records are decoded at. Fields and operand
    /// identifiers it hides are parsed and checked but never stored, so the
    /// core is fed the records a direct recording at this visibility would
    /// hold. Default [`Visibility::DECODE`] — what the execute-driven
    /// functional-first consumer sees.
    pub projection: Visibility,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            shards: 1,
            warmup_chunks: 4,
            core: CoreConfig::default(),
            ooo: OooConfig::default(),
            projection: Visibility::DECODE,
        }
    }
}

/// Feeds the chunk range `[from, to)` of `trace` into a fresh core;
/// measurement starts after the `warmup` chunks preceding `from`. Each
/// record is decoded, already projected, into the one `DynInst` the core
/// is fed from.
fn run_shard(
    spec: &'static IsaSpec,
    trace: &Trace,
    cfg: &ReplayConfig,
    from: usize,
    to: usize,
) -> Result<TimingReport, TraceError> {
    let mut core = OooCore::new(spec, &cfg.core, &cfg.ooo);
    let warm_from = from.saturating_sub(cfg.warmup_chunks);
    let mut di = DynInst::new();
    let mut measuring = false;
    for (i, (payload, ninsts)) in trace.chunks[warm_from..to].iter().enumerate() {
        if warm_from + i == from {
            core.mark_measurement_start();
            measuring = true;
        }
        // A recorded fault ends the stream; the shard's report covers
        // everything measured up to it, same as the execute-driven run.
        // The rest of the faulting chunk is still decoded and checked.
        let mut faulted = false;
        decode_each(payload, *ninsts, cfg.projection, &mut di, |di| {
            faulted = faulted || core.feed(di).is_err();
        })?;
        if faulted {
            if !measuring {
                core.mark_measurement_start();
            }
            return Ok(core.report("trace-ooo"));
        }
    }
    if !measuring {
        // Empty measured range (can only happen with more shards than
        // chunks): report zero work rather than the warm-up.
        core.mark_measurement_start();
    }
    Ok(core.report("trace-ooo"))
}

/// Replays `trace` through the out-of-order consumer.
///
/// With `cfg.shards == 1` the resulting [`TimingReport`] is bit-identical
/// to [`lis_timing::run_functional_first_ooo`] on the same program and
/// configuration (the golden-equality property). With more shards, the
/// trace's chunks are partitioned contiguously across `std::thread` workers
/// and the per-shard reports are merged.
///
/// # Errors
///
/// [`TraceError::Corrupt`] if a chunk fails to decode.
pub fn replay_ooo(
    spec: &'static IsaSpec,
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<TimingReport, TraceError> {
    let shards = cfg.shards.max(1).min(trace.chunks.len().max(1));
    let mut merged = if shards <= 1 {
        run_shard(spec, trace, cfg, 0, trace.chunks.len())?
    } else {
        // Contiguous chunk ranges, remainder spread over the first shards.
        let n = trace.chunks.len();
        let base = n / shards;
        let extra = n % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            ranges.push((start, start + len));
            start += len;
        }
        let results: Vec<Result<TimingReport, TraceError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&(from, to)| scope.spawn(move || run_shard(spec, trace, cfg, from, to)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
        });
        let mut merged = TimingReport { organization: "trace-ooo", ..Default::default() };
        for r in results {
            merged.merge(&r?);
        }
        merged
    };
    // Whole-run facts come from the footer — the recorded ground truth.
    // `fallback_blocks` in particular must come from here: mid-block cache
    // degradation is an engine-side event the record stream itself never
    // shows, so replay copies the engine's run-granularity count exactly as
    // the live frontend does.
    merged.interface_calls = trace.footer.stats.calls;
    merged.fallback_blocks = trace.footer.stats.fallback_blocks;
    merged.exit_code = trace.footer.exit_code;
    merged.stdout = trace.footer.stdout.clone();
    Ok(merged)
}
