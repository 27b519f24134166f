//! Hostile-input safety: a trace reader fed truncated, bit-flipped, or
//! mislabeled bytes must return a typed [`TraceError`] — never panic, never
//! loop, never hand back silently-wrong records. A well-formed trace whose
//! records carry values no recording produces must replay, not panic.

use lis_core::F_OPCODE;
use lis_trace::{
    replay_ooo, RecordOptions, ReplayConfig, Trace, TraceError, TraceFooter, TraceInfo, TraceWriter,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One valid recorded trace (alpha sieve, small chunks), shared by every case.
fn valid_trace() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let spec = lis_workloads::spec_of("alpha");
        let image = lis_workloads::kernel("alpha", "sieve")
            .expect("sieve exists")
            .assemble()
            .expect("kernel assembles");
        let mut bytes = Vec::new();
        let opts =
            RecordOptions { kernel: "sieve".to_string(), chunk_target: 2048, ..Default::default() };
        lis_trace::record(spec, &image, &mut bytes, &opts).expect("recording succeeds");
        bytes
    })
}

#[test]
fn empty_and_tiny_inputs_are_typed_errors() {
    assert!(matches!(Trace::read_from(&b""[..]), Err(TraceError::BadMagic)));
    assert!(matches!(Trace::read_from(&b"LIS"[..]), Err(TraceError::BadMagic)));
    // Correct magic, then nothing.
    assert!(matches!(Trace::read_from(&b"LISTRACE"[..]), Err(TraceError::Truncated)));
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = valid_trace().to_vec();
    bytes[0] ^= 0xFF;
    assert!(matches!(Trace::read_from(bytes.as_slice()), Err(TraceError::BadMagic)));
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = valid_trace().to_vec();
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    assert!(matches!(Trace::read_from(bytes.as_slice()), Err(TraceError::UnsupportedVersion(999))));
    assert!(matches!(TraceInfo::scan(bytes.as_slice()), Err(TraceError::UnsupportedVersion(999))));
}

#[test]
fn flipped_chunk_payload_byte_is_a_crc_error() {
    let bytes = valid_trace();
    // The header frame starts right after magic + version; its payload
    // length names where the first data frame (and its payload) begin.
    let hdr_len = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
    let data_frame = 12 + 13 + hdr_len;
    let data_payload = data_frame + 13;
    let mut corrupt = bytes.to_vec();
    corrupt[data_payload] ^= 0x01;
    match Trace::read_from(corrupt.as_slice()) {
        Err(TraceError::BadCrc { frame, .. }) => assert_eq!(frame, 1),
        other => panic!("expected BadCrc on frame 1, got {other:?}"),
    }
}

#[test]
fn garbage_after_valid_header_is_rejected() {
    let bytes = valid_trace();
    let hdr_len = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
    let mut corrupt = bytes[..12 + 13 + hdr_len].to_vec();
    corrupt.extend_from_slice(&[0xAB; 40]);
    assert!(Trace::read_from(corrupt.as_slice()).is_err());
}

#[test]
fn inflated_record_count_is_truncated_not_an_allocation() {
    // Regression: the header and first data frame of a valid trace, with
    // the frame's record count and a re-sealed footer's both claiming
    // u32::MAX records. Every CRC is valid and the counts agree, so the
    // file reads; `records` sized its `Vec` from the footer and aborted
    // the process on a 1.4 TB allocation (`lis trace info` exited 134).
    // Decoding runs out of payload long before the claimed count.
    let bytes = valid_trace();
    let pristine = Trace::read_from(bytes).expect("pristine reads");
    let hdr_len = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
    let data_frame = 12 + 13 + hdr_len;
    let data_len =
        u32::from_le_bytes(bytes[data_frame + 1..data_frame + 5].try_into().unwrap()) as usize;
    let mut crafted = bytes[..data_frame + 13 + data_len].to_vec();
    crafted[data_frame + 9..data_frame + 13].copy_from_slice(&u32::MAX.to_le_bytes());
    let footer = TraceFooter { insts: u64::from(u32::MAX), ..pristine.footer };
    let payload = footer.encode();
    crafted.push(b'F');
    crafted.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    crafted.extend_from_slice(&lis_trace::crc32(&payload).to_le_bytes());
    crafted.extend_from_slice(&0u32.to_le_bytes());
    crafted.extend_from_slice(&payload);

    let trace = Trace::read_from(crafted.as_slice()).expect("CRCs and counts agree");
    assert_eq!(trace.insts(), u64::from(u32::MAX));
    assert!(matches!(TraceInfo::scan(crafted.as_slice()), Err(TraceError::Truncated)));
    assert!(trace.records(None).is_err());
    let spec = lis_workloads::spec_of("alpha");
    assert!(matches!(
        replay_ooo(spec, &trace, &ReplayConfig::default()),
        Err(TraceError::Truncated)
    ));
}

/// `valid_trace()` re-written through the public writer, with the opcode
/// of record `i` replaced by `op` (or unpublished, for `None`) for each
/// `(i, op)` in `edits`. Every frame gets a fresh CRC, so the result is a
/// well-formed trace.
fn with_opcodes(edits: &[(usize, Option<u64>)]) -> Trace {
    let pristine = Trace::read_from(valid_trace()).expect("pristine reads");
    let mut records = pristine.records(None).expect("decodes");
    for &(i, op) in edits {
        let rec = &mut records[i];
        assert!(rec.fields_valid.contains(F_OPCODE), "record {i} publishes an opcode");
        rec.fields[F_OPCODE.index()] = op.unwrap_or(0);
        if op.is_none() {
            rec.fields_valid = rec.fields_valid.without(F_OPCODE);
        }
    }
    let mut w = TraceWriter::new(Vec::new(), &pristine.meta).expect("in-memory writer");
    for rec in &records {
        w.push(rec).expect("in-memory push");
    }
    let bytes = w.finish(&pristine.footer).expect("in-memory finish");
    Trace::read_from(bytes.as_slice()).expect("every CRC is valid")
}

#[test]
fn out_of_range_opcode_replays_as_unpublished() {
    // Regression: the out-of-order consumer indexed the ISA's instruction
    // table with the opcode cast `as u16`, so this well-formed trace
    // panicked `replay_ooo` (and `lis trace replay`) on opcode 9999, and
    // timed opcode 65 539 as opcode 3. Both must read as unpublished.
    let spec = lis_workloads::spec_of("alpha");
    let cfg = ReplayConfig::default();
    let hostile = with_opcodes(&[(10, Some(9_999)), (500, Some(65_539))]);
    let bare = with_opcodes(&[(10, None), (500, None)]);
    let got = replay_ooo(spec, &hostile, &cfg).expect("a well-formed trace replays");
    let want = replay_ooo(spec, &bare, &cfg).expect("a well-formed trace replays");
    assert_eq!(got.to_json(), want.to_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every strict prefix of a valid trace is an error (the footer is
    /// missing at minimum) and must never panic.
    #[test]
    fn any_truncation_is_a_typed_error(cut in 0usize..1_000_000) {
        let bytes = valid_trace();
        let cut = cut % bytes.len();
        prop_assert!(Trace::read_from(&bytes[..cut]).is_err());
        prop_assert!(TraceInfo::scan(&bytes[..cut]).is_err());
    }

    /// Flipping any byte must never panic. Almost every flip is detected
    /// (magic, version, CRC-protected payloads, self-checking frame
    /// headers); the only bytes without a check are dead space whose flip
    /// cannot change what the reader returns — so on `Ok` the decoded
    /// trace must equal the pristine one.
    #[test]
    fn any_single_byte_flip_is_detected_or_inert(
        pos in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let bytes = valid_trace();
        let pos = pos % bytes.len();
        let mut corrupt = bytes.to_vec();
        corrupt[pos] ^= mask;
        match Trace::read_from(corrupt.as_slice()) {
            Err(_) => {}
            Ok(trace) => {
                let pristine = Trace::read_from(bytes).expect("pristine reads");
                prop_assert_eq!(
                    trace.records(None).expect("decodes"),
                    pristine.records(None).expect("decodes"),
                    "an undetected flip must not change the records"
                );
                prop_assert_eq!(trace.footer.stats.insts, pristine.footer.stats.insts);
                prop_assert_eq!(trace.footer.stdout, pristine.footer.stdout);
            }
        }
        // The info scan takes the same path; it must not panic either.
        let _ = TraceInfo::scan(corrupt.as_slice());
    }

    /// Random garbage with a valid preamble grafted on: typed error, no
    /// panic, regardless of content.
    #[test]
    fn random_bytes_never_panic(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut bytes = b"LISTRACE".to_vec();
        bytes.extend_from_slice(&lis_trace::VERSION.to_le_bytes());
        bytes.extend_from_slice(&body);
        prop_assert!(Trace::read_from(bytes.as_slice()).is_err());
    }
}
