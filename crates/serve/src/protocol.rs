//! The line-delimited JSON protocol: versioned request frames in, one
//! response frame per request out.
//!
//! A request is one line: `{"lis":1,"id":<n>,"cmd":"<name>",...}` where
//! `lis` is the protocol version, `id` is an opaque client-chosen echo, and
//! `cmd` selects the operation. A response is one line:
//! `{"lis":1,"id":<n>,"ok":<bool>,"status":<code>,...}` where `status`
//! mirrors the CLI exit-code vocabulary (0 clean, 1 error, 2 usage or
//! divergence, 3 fault-storm/deadline, 4 corrupt trace). Malformed frames
//! get an `ok:false` response with a typed error string and `status` 2; the
//! connection stays usable — a garbage line must never take the session
//! down, let alone the daemon.

use crate::json::{self, Value};
use std::io::Write;

/// Protocol version spoken (and required) by this daemon.
pub const PROTOCOL_VERSION: u64 = 1;

/// Longest accepted request line in bytes; longer lines are hostile.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Client-chosen request identifier, echoed in the response.
    pub id: u64,
    /// The operation to perform.
    pub req: Request,
}

/// Every operation the service accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Assemble and run a kernel (or inline source) under one interface,
    /// warm-starting from the shared artifact store when possible.
    Run {
        /// ISA name.
        isa: String,
        /// Suite kernel name (exclusive with `src`).
        kernel: Option<String>,
        /// Inline assembly source (exclusive with `kernel`).
        src: Option<String>,
        /// Buildset name (default `one-all`, as for `lis run`).
        buildset: String,
        /// Backend name (default `compiled`).
        backend: String,
        /// Instruction budget (default 100M, as for `lis run`).
        max: u64,
    },
    /// Lockstep verification (the `lis verify` matrix).
    Verify {
        /// Restrict to one ISA; empty means all three.
        isa: String,
        /// Full kernel suite instead of the quick subset.
        full: bool,
    },
    /// A seeded chaos campaign. Chaos sessions never touch the shared
    /// artifact store — their caches follow per-session invalidation rules.
    Chaos {
        /// ISA name.
        isa: String,
        /// Suite kernel name (default `strrev`).
        kernel: String,
        /// Buildset name (default `block-all`).
        buildset: String,
        /// Backend name (default `compiled`).
        backend: String,
        /// First campaign seed.
        seed: u64,
        /// Mean instructions between injections.
        period: u64,
        /// Seeded runs in the campaign.
        runs: u64,
        /// Also unmap pages.
        unmap: bool,
        /// Also poison superblock translations.
        translate: bool,
    },
    /// One sweep sub-matrix, byte-identical to `lis sweep` over the same
    /// kernels/backends (the service path must not perturb the scoreboard).
    SweepCell {
        /// Kernel subset; empty means the full suite.
        kernels: Vec<String>,
        /// Backend set: one backend name, or `all` (default `compiled`).
        backends: String,
        /// Timing-preset names to cross with the matrix; empty means
        /// `classic` only.
        timings: Vec<String>,
        /// Per-cell instruction budget (default 100M, the CLI default).
        max: u64,
    },
    /// Replay a server-local trace file through the ooo timing consumer.
    TraceReplay {
        /// Path to the trace, resolved on the server.
        path: String,
        /// Worker shards.
        shards: usize,
        /// Timing-preset names to re-time the recording under; empty means
        /// `classic` only.
        timings: Vec<String>,
    },
    /// Daemon status: scheduler, sessions, shared-store counters.
    Status,
    /// Begin graceful shutdown: drain in-flight work, then exit.
    Shutdown,
}

impl Request {
    /// The frame's `cmd` string (for logs and responses).
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Run { .. } => "run",
            Request::Verify { .. } => "verify",
            Request::Chaos { .. } => "chaos",
            Request::SweepCell { .. } => "sweep-cell",
            Request::TraceReplay { .. } => "trace-replay",
            Request::Status => "status",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Every way a request line can be rejected before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line is not JSON at all.
    Json(json::JsonError),
    /// The line parses but is not an object.
    NotObject,
    /// The line is longer than [`MAX_FRAME_LEN`].
    FrameTooLong(usize),
    /// `lis` is missing or not this daemon's [`PROTOCOL_VERSION`].
    BadVersion,
    /// A required field is missing or has the wrong type.
    BadField(&'static str),
    /// `cmd` names no operation.
    UnknownCommand(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Json(e) => write!(f, "protocol: malformed JSON at {e}"),
            ProtocolError::NotObject => write!(f, "protocol: frame is not an object"),
            ProtocolError::FrameTooLong(n) => {
                write!(f, "protocol: frame of {n} bytes exceeds {MAX_FRAME_LEN}")
            }
            ProtocolError::BadVersion => {
                write!(
                    f,
                    "protocol: missing or unsupported `lis` version (want {PROTOCOL_VERSION})"
                )
            }
            ProtocolError::BadField(k) => write!(f, "protocol: missing or mistyped field `{k}`"),
            ProtocolError::UnknownCommand(c) => write!(f, "protocol: unknown cmd `{c}`"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn str_field(v: &Value, key: &str, default: &str) -> Result<String, ProtocolError> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(f) => f.as_str().map(str::to_string).ok_or(ProtocolError::BadField(leak_key(key))),
    }
}

fn u64_field(v: &Value, key: &str, default: u64) -> Result<u64, ProtocolError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f.as_u64().ok_or(ProtocolError::BadField(leak_key(key))),
    }
}

fn bool_field(v: &Value, key: &str) -> Result<bool, ProtocolError> {
    match v.get(key) {
        None => Ok(false),
        Some(f) => f.as_bool().ok_or(ProtocolError::BadField(leak_key(key))),
    }
}

/// An optional JSON array of strings; absent means empty.
fn str_list_field(v: &Value, key: &str) -> Result<Vec<String>, ProtocolError> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(arr) => {
            let items = arr.as_arr().ok_or(ProtocolError::BadField(leak_key(key)))?;
            items
                .iter()
                .map(|k| {
                    k.as_str().map(str::to_string).ok_or(ProtocolError::BadField(leak_key(key)))
                })
                .collect()
        }
    }
}

/// Maps a field name to its `&'static` twin for error payloads. The
/// protocol's field vocabulary is closed, so this never actually leaks.
fn leak_key(key: &str) -> &'static str {
    const KEYS: &[&str] = &[
        "lis",
        "id",
        "cmd",
        "isa",
        "kernel",
        "kernels",
        "src",
        "buildset",
        "backend",
        "backends",
        "max",
        "full",
        "seed",
        "period",
        "runs",
        "unmap",
        "translate",
        "path",
        "shards",
        "timings",
    ];
    KEYS.iter().find(|k| **k == key).copied().unwrap_or("?")
}

/// Parses one request line into a [`Frame`].
///
/// # Errors
///
/// A typed [`ProtocolError`]; the caller turns it into an `ok:false`
/// response and keeps the connection open.
pub fn parse_frame(line: &str) -> Result<Frame, ProtocolError> {
    if line.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLong(line.len()));
    }
    let v = json::parse(line).map_err(ProtocolError::Json)?;
    if !matches!(v, Value::Obj(_)) {
        return Err(ProtocolError::NotObject);
    }
    let version = v.get("lis").and_then(Value::as_u64).ok_or(ProtocolError::BadVersion)?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion);
    }
    let id = v.get("id").and_then(Value::as_u64).ok_or(ProtocolError::BadField("id"))?;
    let cmd = v.get("cmd").and_then(Value::as_str).ok_or(ProtocolError::BadField("cmd"))?;

    let req = match cmd {
        "run" => {
            let isa = v
                .get("isa")
                .and_then(Value::as_str)
                .ok_or(ProtocolError::BadField("isa"))?
                .to_string();
            let kernel = match v.get("kernel") {
                None => None,
                Some(k) => Some(k.as_str().ok_or(ProtocolError::BadField("kernel"))?.to_string()),
            };
            let src = match v.get("src") {
                None => None,
                Some(s) => Some(s.as_str().ok_or(ProtocolError::BadField("src"))?.to_string()),
            };
            if kernel.is_none() == src.is_none() {
                // Exactly one program source, please.
                return Err(ProtocolError::BadField("kernel"));
            }
            Request::Run {
                isa,
                kernel,
                src,
                buildset: str_field(&v, "buildset", "one-all")?,
                backend: str_field(&v, "backend", "compiled")?,
                max: u64_field(&v, "max", 100_000_000)?,
            }
        }
        "verify" => {
            Request::Verify { isa: str_field(&v, "isa", "")?, full: bool_field(&v, "full")? }
        }
        "chaos" => Request::Chaos {
            isa: v
                .get("isa")
                .and_then(Value::as_str)
                .ok_or(ProtocolError::BadField("isa"))?
                .to_string(),
            kernel: str_field(&v, "kernel", "strrev")?,
            buildset: str_field(&v, "buildset", "block-all")?,
            backend: str_field(&v, "backend", "compiled")?,
            seed: u64_field(&v, "seed", 1)?,
            period: u64_field(&v, "period", 500)?.max(1),
            runs: u64_field(&v, "runs", 4)?.clamp(1, 64),
            unmap: bool_field(&v, "unmap")?,
            translate: bool_field(&v, "translate")?,
        },
        "sweep-cell" => Request::SweepCell {
            kernels: str_list_field(&v, "kernels")?,
            backends: str_field(&v, "backends", "compiled")?,
            timings: str_list_field(&v, "timings")?,
            max: u64_field(&v, "max", 100_000_000)?,
        },
        "trace-replay" => Request::TraceReplay {
            path: v
                .get("path")
                .and_then(Value::as_str)
                .ok_or(ProtocolError::BadField("path"))?
                .to_string(),
            shards: u64_field(&v, "shards", 1)?.clamp(1, 64) as usize,
            timings: str_list_field(&v, "timings")?,
        },
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        other => return Err(ProtocolError::UnknownCommand(other.to_string())),
    };
    Ok(Frame { id, req })
}

/// Sends one frame: the line and its newline in a single `write_all`, then
/// a flush. Splitting a frame over two writes lets Nagle's algorithm hold
/// the newline until the peer's delayed ACK, about 40 ms per round trip.
///
/// # Errors
///
/// Propagates the write or flush failure.
pub fn write_frame<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

/// Renders the common response envelope; handler payload fields are already
/// in `payload` (a rendered JSON object or the empty string).
pub fn response(id: u64, cmd: &str, status: u8, error: Option<&str>, payload: &str) -> String {
    let mut o = lis_core::JsonObj::new();
    o.u64("lis", PROTOCOL_VERSION)
        .u64("id", id)
        .str("cmd", cmd)
        .bool("ok", status == 0)
        .u64("status", u64::from(status));
    if let Some(e) = error {
        o.str("error", e);
    }
    if !payload.is_empty() {
        o.raw("result", payload);
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_run_frame_with_defaults() {
        let f = parse_frame(r#"{"lis":1,"id":3,"cmd":"run","isa":"alpha","kernel":"gcd"}"#)
            .expect("parses");
        assert_eq!(f.id, 3);
        let Request::Run { isa, kernel, src, buildset, backend, max } = f.req else {
            panic!("wrong request");
        };
        assert_eq!(isa, "alpha");
        assert_eq!(kernel.as_deref(), Some("gcd"));
        assert_eq!(src, None);
        assert_eq!(buildset, "one-all");
        assert_eq!(backend, "compiled");
        assert_eq!(max, 100_000_000);
    }

    #[test]
    fn version_and_id_are_mandatory() {
        assert_eq!(parse_frame(r#"{"id":1,"cmd":"status"}"#), Err(ProtocolError::BadVersion),);
        assert_eq!(
            parse_frame(r#"{"lis":2,"id":1,"cmd":"status"}"#),
            Err(ProtocolError::BadVersion),
        );
        assert_eq!(parse_frame(r#"{"lis":1,"cmd":"status"}"#), Err(ProtocolError::BadField("id")),);
        assert_eq!(
            parse_frame(r#"{"lis":1,"id":1,"cmd":"frobnicate"}"#),
            Err(ProtocolError::UnknownCommand("frobnicate".into())),
        );
    }

    #[test]
    fn run_needs_exactly_one_program_source() {
        assert!(parse_frame(r#"{"lis":1,"id":1,"cmd":"run","isa":"arm"}"#).is_err());
        assert!(parse_frame(
            r#"{"lis":1,"id":1,"cmd":"run","isa":"arm","kernel":"gcd","src":"halt"}"#
        )
        .is_err());
        assert!(parse_frame(r#"{"lis":1,"id":1,"cmd":"run","isa":"arm","src":".text"}"#).is_ok());
    }

    #[test]
    fn timing_presets_parse_as_string_arrays() {
        let f = parse_frame(
            r#"{"lis":1,"id":1,"cmd":"sweep-cell","kernels":["gcd"],"timings":["classic","stream"]}"#,
        )
        .expect("parses");
        let Request::SweepCell { kernels, timings, .. } = f.req else { panic!("wrong request") };
        assert_eq!(kernels, vec!["gcd"]);
        assert_eq!(timings, vec!["classic", "stream"]);

        let f = parse_frame(
            r#"{"lis":1,"id":2,"cmd":"trace-replay","path":"t.lst","timings":["minimal"]}"#,
        )
        .expect("parses");
        let Request::TraceReplay { timings, .. } = f.req else { panic!("wrong request") };
        assert_eq!(timings, vec!["minimal"]);

        // Absent means empty (the executor defaults to classic); mistyped is
        // a typed field error naming the key.
        let f = parse_frame(r#"{"lis":1,"id":3,"cmd":"sweep-cell"}"#).expect("parses");
        let Request::SweepCell { timings, .. } = f.req else { panic!("wrong request") };
        assert!(timings.is_empty());
        assert_eq!(
            parse_frame(r#"{"lis":1,"id":4,"cmd":"sweep-cell","timings":"classic"}"#),
            Err(ProtocolError::BadField("timings")),
        );
        assert_eq!(
            parse_frame(r#"{"lis":1,"id":5,"cmd":"trace-replay","path":"t","timings":[7]}"#),
            Err(ProtocolError::BadField("timings")),
        );
    }

    #[test]
    fn garbage_is_a_typed_error_never_a_panic() {
        for bad in [
            "",
            "run",
            "{",
            "[1,2,3]",
            "\"just a string\"",
            r#"{"lis":"one","id":1,"cmd":"status"}"#,
            r#"{"lis":1,"id":"x","cmd":"status"}"#,
            r#"{"lis":1,"id":1,"cmd":7}"#,
            r#"{"lis":1,"id":1,"cmd":"chaos"}"#,
            r#"{"lis":1,"id":1,"cmd":"sweep-cell","kernels":"gcd"}"#,
            r#"{"lis":1,"id":1,"cmd":"sweep-cell","kernels":[1]}"#,
            r#"{"lis":1,"id":1,"cmd":"trace-replay"}"#,
        ] {
            let err = parse_frame(bad).expect_err(bad);
            assert!(err.to_string().starts_with("protocol:"), "{err}");
        }
        let long =
            format!(r#"{{"lis":1,"id":1,"cmd":"status","pad":"{}"}}"#, "x".repeat(MAX_FRAME_LEN));
        assert!(matches!(parse_frame(&long), Err(ProtocolError::FrameTooLong(_))));
    }

    #[test]
    fn frame_parsing_is_linear_in_frame_length() {
        // Just under the cap: ASCII runs, escapes, and 2-, 3- and 4-byte
        // characters. A parser that rescans the rest of the input per
        // character needs minutes for this; a linear one, milliseconds.
        let unit = r#"  add r1, r2, r3 ; \"é€😀\"\n"#;
        let reps = (MAX_FRAME_LEN - 64) / unit.len();
        let frame =
            format!(r#"{{"lis":1,"id":1,"cmd":"run","isa":"arm","src":"{}"}}"#, unit.repeat(reps));
        assert!(frame.len() < MAX_FRAME_LEN && frame.len() > MAX_FRAME_LEN - 256);
        let (tx, rx) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || {
            let _ = tx.send(parse_frame(&frame));
        });
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a frame under the cap parses within 5 s");
        parser.join().expect("parser thread");
        let Request::Run { src: Some(src), .. } = parsed.expect("parses").req else {
            panic!("wrong request");
        };
        assert_eq!(src, "  add r1, r2, r3 ; \"é€😀\"\n".repeat(reps));
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_frame_sends_each_frame_in_one_write() {
        let mut w = CountingWriter::default();
        let line = response(1, "status", 0, None, r#"{"x":1}"#);
        write_frame(&mut w, &line).expect("write");
        assert_eq!((w.writes, w.flushes), (1, 1), "one write and one flush per frame");
        assert_eq!(w.bytes, format!("{line}\n").into_bytes());
        write_frame(&mut w, "{}").expect("write");
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, format!("{line}\n{{}}\n").into_bytes());
    }

    #[test]
    fn response_envelope_shape() {
        let ok = response(9, "status", 0, None, r#"{"x":1}"#);
        assert!(ok.contains(r#""id":9"#) && ok.contains(r#""ok":true"#));
        assert!(ok.contains(r#""result":{"x":1}"#));
        let err = response(9, "run", 2, Some("protocol: nope"), "");
        assert!(err.contains(r#""ok":false"#) && err.contains(r#""status":2"#));
        assert!(err.contains("protocol: nope") && !err.contains("result"));
        // Responses must themselves be parseable frames of our own JSON.
        crate::json::parse(&ok).expect("ok response is valid JSON");
        crate::json::parse(&err).expect("err response is valid JSON");
    }
}
