//! Low-level wire primitives: LEB128 varints, zigzag deltas, and CRC32.
//!
//! Everything in the trace format reduces to these three encodings. The
//! decoders are hostile-input-safe: every read is bounds-checked against
//! the buffer and returns a typed [`TraceError`] instead of panicking.

use crate::error::TraceError;

/// Appends `v` as an unsigned LEB128 varint (1–10 bytes).
pub fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Appends `v` zigzag-mapped so small magnitudes of either sign stay short.
pub fn put_iv(out: &mut Vec<u8>, v: i64) {
    put_uv(out, zigzag(v));
}

/// Maps a signed value to an unsigned one with small absolute values first.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked cursor over one decoded payload.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole buffer.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or(TraceError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] at end of buffer; [`TraceError::Corrupt`]
    /// when the varint runs past 10 bytes or overflows 64 bits.
    pub fn uv(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(TraceError::Corrupt("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Corrupt("varint too long"));
            }
        }
    }

    /// Reads a zigzag varint.
    ///
    /// # Errors
    ///
    /// See [`Cursor::uv`].
    pub fn iv(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.uv()?))
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string (length capped at 4 KiB — far
    /// above any legitimate name, far below an allocation attack).
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] on an oversized length or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, TraceError> {
        let len = self.uv()?;
        if len > 4096 {
            return Err(TraceError::Corrupt("string length out of range"));
        }
        let raw = self.bytes(len as usize)?;
        String::from_utf8(raw.to_vec()).map_err(|_| TraceError::Corrupt("invalid UTF-8"))
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uv(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// CRC-32 lookup tables for slicing-by-8, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight lookups
/// advance the CRC by eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE, reflected, polynomial `0xEDB88320`) over `data`, eight
/// bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_uv(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for &v in &vals {
            assert_eq!(c.uv().unwrap(), v);
        }
        assert!(c.at_end());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn truncated_and_overlong_varints_error() {
        let mut c = Cursor::new(&[0x80]);
        assert!(matches!(c.uv(), Err(TraceError::Truncated)));
        let mut c = Cursor::new(&[0xff; 11]);
        assert!(matches!(c.uv(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the sliced one must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the per-byte loop on every length up to 300
        /// and at every start offset within an eight-byte word.
        #[test]
        fn crc32_slicing_matches_bytewise(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..308),
        ) {
            for start in 0..8.min(bytes.len() + 1) {
                let data = &bytes[start..];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data), "start {}", start);
            }
        }
    }

    #[test]
    fn string_round_trip_and_caps() {
        let mut buf = Vec::new();
        put_str(&mut buf, "alpha");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.str().unwrap(), "alpha");
        let mut huge = Vec::new();
        put_uv(&mut huge, 1 << 40);
        let mut c = Cursor::new(&huge);
        assert!(matches!(c.str(), Err(TraceError::Corrupt(_))));
    }
}
