//! The in-memory trace reader and the chunk decoder.

use crate::error::TraceError;
use crate::format::{
    read_frame, TraceFooter, TraceMeta, KIND_DATA, KIND_FOOTER, KIND_HEADER, MAGIC,
};
use crate::record::{decode, TraceRecord};
use crate::wire::Cursor;
use lis_core::{DynInst, Visibility};
use std::io::Read;

/// Decodes the `ninsts` records of one chunk payload, one at a time, into
/// `di`, projected to `vis`, and hands each to `f`. Nothing is allocated:
/// every record reuses `di`.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the payload holds more bytes than the
/// declared records, [`TraceError::Truncated`] when it holds fewer, or on
/// any malformed record. Records before the bad one have been handed out.
pub(crate) fn decode_each(
    payload: &[u8],
    ninsts: u32,
    vis: Visibility,
    di: &mut DynInst,
    mut f: impl FnMut(&DynInst),
) -> Result<(), TraceError> {
    let mut cur = Cursor::new(payload);
    let mut prev_next_pc = 0u64;
    for _ in 0..ninsts {
        decode(&mut cur, prev_next_pc, vis, di)?;
        prev_next_pc = di.header.next_pc;
        f(di);
    }
    if !cur.at_end() {
        return Err(TraceError::Corrupt("chunk has trailing bytes after last record"));
    }
    Ok(())
}

/// Decodes the records of one chunk payload, appending them to `out` as
/// owned [`TraceRecord`]s.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the payload holds bytes past the declared
/// records or a malformed record, [`TraceError::Truncated`] when it ends
/// before them. Records before the bad one have been appended.
pub fn decode_chunk(
    payload: &[u8],
    ninsts: u32,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    decode_each(payload, ninsts, Visibility::ALL, &mut DynInst::new(), |di| {
        out.push(TraceRecord::from_dyninst(di));
    })
}

/// A fully loaded trace: header, raw (CRC-verified) chunk payloads, footer.
///
/// Chunk payloads are kept encoded so sharded replay can hand disjoint
/// chunk ranges to worker threads, each decoding its own share — decoding
/// is the expensive part, and this is what parallelizes it.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The trace header.
    pub meta: TraceMeta,
    /// Raw data-chunk payloads with their record counts.
    pub chunks: Vec<(Vec<u8>, u32)>,
    /// The trace footer.
    pub footer: TraceFooter,
}

impl Trace {
    /// Reads a whole trace into memory, verifying every CRC.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] or [`TraceError::UnsupportedVersion`] on a
    /// foreign file; [`TraceError::Truncated`] when the stream ends before
    /// the footer; CRC, frame and header/footer decode failures.
    pub fn read_from(mut r: impl Read) -> Result<Trace, TraceError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(|_| TraceError::BadMagic)?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut ver = [0u8; 4];
        r.read_exact(&mut ver).map_err(|_| TraceError::Truncated)?;
        let version = u32::from_le_bytes(ver);
        if version != crate::VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let frame = read_frame(&mut r, 0)?.ok_or(TraceError::Truncated)?;
        if frame.kind != KIND_HEADER {
            return Err(TraceError::Corrupt("first frame is not a header"));
        }
        let meta = TraceMeta::decode(&frame.payload)?;
        let mut chunks = Vec::new();
        let mut total = 0u64;
        let mut index = 1usize;
        loop {
            let Some(frame) = read_frame(&mut r, index)? else {
                return Err(TraceError::Truncated);
            };
            index += 1;
            match frame.kind {
                KIND_DATA => {
                    total += u64::from(frame.ninsts);
                    chunks.push((frame.payload, frame.ninsts));
                }
                KIND_FOOTER => {
                    let footer = TraceFooter::decode(&frame.payload)?;
                    if footer.insts != total {
                        return Err(TraceError::Corrupt(
                            "footer record count disagrees with chunks",
                        ));
                    }
                    return Ok(Trace { meta, chunks, footer });
                }
                _ => return Err(TraceError::Corrupt("unexpected extra header frame")),
            }
        }
    }

    /// Total records in the trace.
    pub fn insts(&self) -> u64 {
        self.footer.insts
    }

    /// Decodes every record, optionally projecting to a lower visibility.
    /// The result grows with the records decoded, never with the counts the
    /// file claims.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] or [`TraceError::Truncated`] on a malformed
    /// chunk (possible only if the trace was built by hand — `read_from`
    /// already verified CRCs).
    pub fn records(&self, project: Option<Visibility>) -> Result<Vec<TraceRecord>, TraceError> {
        let vis = project.unwrap_or(Visibility::ALL);
        let mut out = Vec::new();
        let mut di = DynInst::new();
        for (payload, ninsts) in &self.chunks {
            decode_each(payload, *ninsts, vis, &mut di, |di| {
                out.push(TraceRecord::from_dyninst(di));
            })?;
        }
        Ok(out)
    }
}

/// Summary facts for `lis trace info`.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// The trace header.
    pub meta: TraceMeta,
    /// The trace footer.
    pub footer: TraceFooter,
    /// Number of data chunks.
    pub chunks: usize,
    /// Total encoded record bytes (sum of data payloads).
    pub data_bytes: u64,
}

impl TraceInfo {
    /// Streams a trace, verifying all CRCs and decoding every record, and
    /// returns the summary. This is the integrity check behind
    /// `lis trace info`.
    ///
    /// # Errors
    ///
    /// Any integrity or decode failure anywhere in the file.
    pub fn scan(r: impl Read) -> Result<TraceInfo, TraceError> {
        let trace = Trace::read_from(r)?;
        let data_bytes = trace.chunks.iter().map(|(p, _)| p.len() as u64).sum();
        // Decode everything: `info` certifies the trace is fully readable,
        // not just CRC-clean. Every byte is still checked at `MIN`, which
        // only skips storing the fields and operands.
        let mut di = DynInst::new();
        for (payload, ninsts) in &trace.chunks {
            decode_each(payload, *ninsts, Visibility::MIN, &mut di, |_| {})?;
        }
        Ok(TraceInfo {
            chunks: trace.chunks.len(),
            data_bytes,
            meta: trace.meta,
            footer: trace.footer,
        })
    }
}

impl std::fmt::Display for TraceInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "isa {}  buildset {}  kernel {}  seed {}",
            self.meta.isa, self.meta.buildset, self.meta.kernel, self.meta.seed
        )?;
        writeln!(
            f,
            "records {}  chunks {}  halted {}  exit {}",
            self.footer.insts, self.chunks, self.footer.halted, self.footer.exit_code
        )?;
        write!(
            f,
            "stats: {} insts, {} calls, {} blocks, {} faults",
            self.footer.stats.insts,
            self.footer.stats.calls,
            self.footer.stats.blocks,
            self.footer.stats.faults
        )
    }
}
