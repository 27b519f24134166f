//! Streaming trace writer.

use crate::error::TraceError;
use crate::format::{
    write_frame, TraceFooter, TraceMeta, CHUNK_TARGET, KIND_DATA, KIND_FOOTER, KIND_HEADER, MAGIC,
};
use crate::record::{encode, TraceRecord};
use lis_core::DynInst;
use std::io::Write;

/// Writes a trace incrementally: header first, then records (chunked
/// automatically), then the footer via [`TraceWriter::finish`].
///
/// The chunk flush rule — emit a data frame as soon as the accumulated
/// payload reaches the chunk target — depends only on the record stream, so
/// writing the same records always produces the same bytes.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    payload: Vec<u8>,
    ninsts_in_chunk: u32,
    /// Records written so far.
    total: u64,
    prev_next_pc: u64,
    chunk_target: usize,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace: writes the magic, version, and header frame.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    pub fn new(w: W, meta: &TraceMeta) -> Result<TraceWriter<W>, TraceError> {
        Self::with_chunk_target(w, meta, CHUNK_TARGET)
    }

    /// Like [`TraceWriter::new`] with an explicit chunk target (tests use
    /// tiny chunks to exercise boundary handling).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    pub fn with_chunk_target(
        mut w: W,
        meta: &TraceMeta,
        chunk_target: usize,
    ) -> Result<TraceWriter<W>, TraceError> {
        w.write_all(MAGIC)?;
        w.write_all(&crate::VERSION.to_le_bytes())?;
        write_frame(&mut w, KIND_HEADER, 0, &meta.encode())?;
        Ok(TraceWriter {
            w,
            payload: Vec::with_capacity(chunk_target + 256),
            ninsts_in_chunk: 0,
            total: 0,
            prev_next_pc: 0,
            chunk_target: chunk_target.max(1),
        })
    }

    /// Appends one published [`DynInst`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when a full chunk fails to flush.
    pub fn push_dyninst(&mut self, di: &DynInst) -> Result<(), TraceError> {
        encode(di, &mut self.payload, self.prev_next_pc);
        self.prev_next_pc = di.header.next_pc;
        self.ninsts_in_chunk += 1;
        self.total += 1;
        if self.payload.len() >= self.chunk_target {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends one owned record.
    ///
    /// # Errors
    ///
    /// See [`TraceWriter::push_dyninst`].
    pub fn push(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        self.push_dyninst(&rec.to_dyninst())
    }

    /// Records written so far.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no records have been written.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.ninsts_in_chunk == 0 {
            return Ok(());
        }
        write_frame(&mut self.w, KIND_DATA, self.ninsts_in_chunk, &self.payload)?;
        self.payload.clear();
        self.ninsts_in_chunk = 0;
        // Chunks decode independently: the delta state resets with them.
        self.prev_next_pc = 0;
        Ok(())
    }

    /// Flushes the final partial chunk, writes the footer frame, and returns
    /// the underlying writer.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    pub fn finish(mut self, footer: &TraceFooter) -> Result<W, TraceError> {
        self.flush_chunk()?;
        write_frame(&mut self.w, KIND_FOOTER, 0, &footer.encode())?;
        self.w.flush()?;
        Ok(self.w)
    }
}
