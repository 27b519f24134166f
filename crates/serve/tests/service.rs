//! End-to-end service tests over real sockets: a daemon on an ephemeral
//! port, scripted client sessions, and the isolation/sharing guarantees the
//! service exists to provide.

use lis_serve::json::{self, Value};
use lis_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Starts a daemon on an ephemeral port; returns its address and the thread
/// that will yield the exit code once the daemon shuts down.
fn start_server() -> (SocketAddr, std::thread::JoinHandle<u8>) {
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        jobs: 2,
        drain_deadline: Duration::from_secs(20),
        deadline: None,
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// One client session: line out, line in.
struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let out = TcpStream::connect(addr).expect("connect");
        // Generous: verify/sweep requests do real simulation work.
        out.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
        let reader = BufReader::new(out.try_clone().expect("clone"));
        Client { out, reader }
    }

    fn send(&mut self, frame: &str) -> Value {
        lis_serve::write_frame(&mut self.out, frame).expect("write frame");
        self.recv()
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "response is a complete line: {line:?}");
        json::parse(line.trim_end()).expect("response parses as JSON")
    }
}

fn status_of(v: &Value) -> u64 {
    v.get("status").and_then(Value::as_u64).expect("status field")
}

fn result_u64(v: &Value, key: &str) -> u64 {
    v.get("result")
        .and_then(|r| r.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("result.{key} in {v:?}"))
}

fn result_bool(v: &Value, key: &str) -> bool {
    v.get("result")
        .and_then(|r| r.get(key))
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("result.{key} in {v:?}"))
}

fn store_counter(status: &Value, key: &str) -> u64 {
    status
        .get("result")
        .and_then(|r| r.get("store"))
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("result.store.{key} in {status:?}"))
}

fn shutdown_and_join(addr: SocketAddr, handle: std::thread::JoinHandle<u8>) -> u8 {
    let mut c = Client::connect(addr);
    let resp = c.send(r#"{"lis":1,"id":999,"cmd":"shutdown"}"#);
    assert_eq!(status_of(&resp), 0);
    assert!(result_bool(&resp, "draining"));
    handle.join().expect("server thread")
}

#[test]
fn two_sessions_share_the_translation_cache() {
    let (addr, handle) = start_server();
    let run = r#"{"lis":1,"id":1,"cmd":"run","isa":"alpha","kernel":"gcd","buildset":"block-all","backend":"compiled"}"#;

    // Session one: cold — builds and publishes.
    let mut a = Client::connect(addr);
    let ra = a.send(run);
    assert_eq!(status_of(&ra), 0, "{ra:?}");
    assert!(!result_bool(&ra, "warm"));
    assert_eq!(result_u64(&ra, "seeded"), 0);

    // Session two (a different connection): warm — adopts, builds nothing.
    let mut b = Client::connect(addr);
    let rb = b.send(run);
    assert_eq!(status_of(&rb), 0, "{rb:?}");
    assert!(result_bool(&rb, "warm"), "second session warm-starts: {rb:?}");
    assert!(result_u64(&rb, "seeded") > 0, "seeded blocks prove reuse");
    let stats = rb.get("result").and_then(|r| r.get("stats")).expect("stats");
    assert_eq!(
        stats.get("blocks_built").and_then(Value::as_u64),
        Some(0),
        "warm run translated nothing"
    );

    // Both sessions computed the same thing.
    let stdout = |v: &Value| {
        v.get("result").and_then(|r| r.get("stdout")).and_then(Value::as_str).map(str::to_string)
    };
    assert_eq!(stdout(&ra), stdout(&rb));

    // The shared store agrees: one miss (cold), one hit (warm).
    let st = b.send(r#"{"lis":1,"id":2,"cmd":"status"}"#);
    assert_eq!(store_counter(&st, "misses"), 1, "{st:?}");
    assert_eq!(store_counter(&st, "hits"), 1, "{st:?}");
    assert_eq!(store_counter(&st, "entries"), 1, "{st:?}");

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn a_poisoned_chaos_session_never_leaks_into_siblings() {
    let (addr, handle) = start_server();

    // Session one runs a translate-fault chaos campaign: its superblock
    // cache is deliberately poisoned (that is what the campaign tests).
    let mut chaos = Client::connect(addr);
    let rc = chaos.send(
        r#"{"lis":1,"id":1,"cmd":"chaos","isa":"alpha","kernel":"strrev","buildset":"block-all","backend":"compiled","translate":true,"seed":7,"period":200,"runs":2}"#,
    );
    let cs = status_of(&rc);
    assert!(cs == 0 || cs == 3, "chaos completes or storms, never errors: {rc:?}");

    // The shared store saw none of it, in either direction.
    let st = chaos.send(r#"{"lis":1,"id":2,"cmd":"status"}"#);
    for k in ["hits", "misses", "inserts", "entries"] {
        assert_eq!(store_counter(&st, k), 0, "chaos must bypass the store: {st:?}");
    }

    // A sibling session on the same key runs clean and verifies clean.
    let mut clean = Client::connect(addr);
    let rr = clean.send(
        r#"{"lis":1,"id":3,"cmd":"run","isa":"alpha","kernel":"strrev","buildset":"block-all","backend":"compiled"}"#,
    );
    assert_eq!(status_of(&rr), 0, "{rr:?}");
    assert_eq!(rr.get("result").and_then(|r| r.get("exit_code")).and_then(Value::as_u64), Some(0));
    let rv = clean.send(r#"{"lis":1,"id":4,"cmd":"verify","isa":"alpha"}"#);
    assert_eq!(status_of(&rv), 0, "verification via the service is clean: {rv:?}");
    assert_eq!(result_u64(&rv, "divergences"), 0);

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn garbage_frames_get_typed_errors_and_the_session_survives() {
    let (addr, handle) = start_server();
    let mut c = Client::connect(addr);

    for garbage in [
        "not json at all",
        "{",
        "[1,2,3]",
        r#""a bare string""#,
        r#"{"no":"version"}"#,
        r#"{"lis":2,"id":1,"cmd":"status"}"#,
        r#"{"lis":1,"id":1}"#,
        r#"{"lis":1,"id":1,"cmd":"frobnicate"}"#,
        r#"{"lis":1,"id":1,"cmd":"run"}"#,
        r#"{"lis":1,"id":1,"cmd":"run","isa":7,"kernel":"gcd"}"#,
        "\u{0007}\u{0001}binary\u{0000}noise",
        r#"{"lis":1,"id":1,"cmd":"status","x":1e999}"#,
    ] {
        let resp = c.send(garbage);
        assert_eq!(status_of(&resp), 2, "garbage is status 2: {garbage:?} -> {resp:?}");
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        let err = resp.get("error").and_then(Value::as_str).expect("error string");
        assert!(!err.is_empty());
    }

    // The id is salvaged when the JSON parses but the frame is bad.
    let resp = c.send(r#"{"lis":1,"id":42,"cmd":"nonsense"}"#);
    assert_eq!(resp.get("id").and_then(Value::as_u64), Some(42));

    // After all that abuse, the same connection still serves real requests.
    let st = c.send(r#"{"lis":1,"id":5,"cmd":"status"}"#);
    assert_eq!(status_of(&st), 0, "{st:?}");

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn concurrent_sessions_make_progress_together() {
    let (addr, handle) = start_server();
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let frame = format!(
                    r#"{{"lis":1,"id":{i},"cmd":"run","isa":"arm","kernel":"gcd","backend":"compiled"}}"#
                );
                let resp = c.send(&frame);
                assert_eq!(status_of(&resp), 0, "{resp:?}");
                assert_eq!(resp.get("id").and_then(Value::as_u64), Some(i));
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let mut c = Client::connect(addr);
    let st = c.send(r#"{"lis":1,"id":9,"cmd":"status"}"#);
    assert_eq!(
        st.get("result").and_then(|r| r.get("sessions_total")).and_then(Value::as_u64),
        Some(5),
        "{st:?}"
    );
    // Four identical keys: one cold publish, three warm hits.
    assert_eq!(store_counter(&st, "entries"), 1, "{st:?}");
    assert_eq!(store_counter(&st, "misses") + store_counter(&st, "hits"), 4, "{st:?}");

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn retired_backend_names_are_usage_errors() {
    let (addr, handle) = start_server();
    let mut c = Client::connect(addr);
    for frame in [
        r#"{"lis":1,"id":1,"cmd":"run","isa":"alpha","kernel":"gcd","backend":"cached"}"#,
        r#"{"lis":1,"id":2,"cmd":"sweep-cell","kernels":["gcd"],"backends":"cached"}"#,
    ] {
        let resp = c.send(frame);
        assert_eq!(status_of(&resp), 2, "{resp:?}");
        let err = resp.get("error").and_then(Value::as_str).expect("error string");
        assert!(err.contains("unknown backend `cached`"), "{err}");
    }
    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn trace_replay_request_rejects_a_corrupt_file_without_dying() {
    let (addr, handle) = start_server();
    let dir = std::env::temp_dir().join("lis-serve-service-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("bad.lst");
    std::fs::write(&path, b"this is not a trace").expect("write");

    let mut c = Client::connect(addr);
    let frame = format!(r#"{{"lis":1,"id":1,"cmd":"trace-replay","path":"{}"}}"#, path.display());
    let resp = c.send(&frame);
    assert_eq!(status_of(&resp), 4, "corrupt trace is status 4: {resp:?}");

    // Session and daemon both survive.
    let st = c.send(r#"{"lis":1,"id":2,"cmd":"status"}"#);
    assert_eq!(status_of(&st), 0);

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

/// The length a `FrameTooLong` rejection reports.
fn reported_frame_len(resp: &Value) -> usize {
    assert_eq!(status_of(resp), 2, "{resp:?}");
    let err = resp.get("error").and_then(Value::as_str).expect("error string");
    let n = err.strip_prefix("protocol: frame of ").and_then(|rest| rest.split(' ').next());
    n.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("not a frame-length error: {err}"))
}

#[test]
fn an_unterminated_oversize_frame_is_refused_without_buffering_it() {
    let (addr, handle) = start_server();
    let mut c = Client::connect(addr);
    let mut w = c.out.try_clone().expect("clone");
    // 8 MiB with no newline, from a thread of its own: the daemon answers
    // while the stream is still coming. Write errors are fine once the
    // daemon has given up on the session.
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 << 10];
        for _ in 0..128 {
            if w.write_all(&chunk).is_err() {
                return;
            }
        }
    });
    let resp = c.recv();
    let held = reported_frame_len(&resp);
    assert!(held > lis_serve::MAX_FRAME_LEN, "{resp:?}");
    assert!(
        held <= lis_serve::MAX_FRAME_LEN + 1,
        "the daemon held at most one frame cap: {resp:?}"
    );
    writer.join().expect("writer thread");
    // The client went quiet inside the frame: the session ends.
    let mut rest = String::new();
    assert!(matches!(c.reader.read_line(&mut rest), Ok(0) | Err(_)), "session closed: {rest:?}");

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn an_oversize_frame_with_a_newline_is_refused_and_the_session_goes_on() {
    let (addr, handle) = start_server();
    let mut c = Client::connect(addr);
    let big = format!(
        r#"{{"lis":1,"id":1,"cmd":"status","pad":"{}"}}"#,
        "y".repeat(lis_serve::MAX_FRAME_LEN)
    );
    let resp = c.send(&big);
    assert!(reported_frame_len(&resp) > lis_serve::MAX_FRAME_LEN, "{resp:?}");
    let st = c.send(r#"{"lis":1,"id":2,"cmd":"status"}"#);
    assert_eq!(status_of(&st), 0, "{st:?}");
    assert_eq!(st.get("id").and_then(Value::as_u64), Some(2));

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn a_frame_that_is_not_utf8_is_a_typed_error_and_the_session_survives() {
    let (addr, handle) = start_server();
    let mut c = Client::connect(addr);
    c.out.write_all(b"{\"lis\":1,\"id\":1,\"cmd\":\"sta\xfftus\"}\n").expect("write");
    let resp = c.recv();
    assert_eq!(status_of(&resp), 2, "{resp:?}");
    let err = resp.get("error").and_then(Value::as_str).expect("error string");
    assert_eq!(err, "protocol: malformed JSON at byte 26: invalid UTF-8");
    let st = c.send(r#"{"lis":1,"id":2,"cmd":"status"}"#);
    assert_eq!(status_of(&st), 0, "{st:?}");

    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn a_hostile_source_fails_alone_and_the_session_survives() {
    let (addr, handle) = start_server();
    let mut c = Client::connect(addr);
    // Growing `.data` by 2^56 bytes once aborted the whole daemon on a
    // failed allocation, and so did nesting an expression or an operand
    // this deep, by overflowing a worker's stack; now the assembler
    // refuses the move, and stops at its nesting limit, first.
    let n = 100_000;
    let sources = [
        (
            ".data\\n.space 0x100000000000000".to_string(),
            ".data: location counter would pass the stack at 0xf00000",
        ),
        (format!("nop\\n.word {}1", "-".repeat(n)), "expression nested too deeply"),
        (
            format!("nop\\n.word {}1{}", "(".repeat(n), ")".repeat(n)),
            "expression nested too deeply",
        ),
        (
            format!("nop\\nldq r1, {}r2{}", "[".repeat(n), "]".repeat(n)),
            "operand nested too deeply",
        ),
    ];
    for (id, (src, want)) in sources.iter().enumerate() {
        let run = format!(
            r#"{{"lis":1,"id":{id},"cmd":"run","isa":"alpha","src":"_start: nop\n{src}\n"}}"#
        );
        let resp = c.send(&run);
        assert_eq!(status_of(&resp), 1, "{resp:?}");
        let err = resp.get("error").and_then(Value::as_str).expect("error string");
        assert_eq!(err, format!("line 3: {want}"));
    }
    let st = c.send(r#"{"lis":1,"id":9,"cmd":"status"}"#);
    assert_eq!(status_of(&st), 0, "{st:?}");
    assert_eq!(shutdown_and_join(addr, handle), 0);
}

#[test]
fn a_fresh_connection_is_answered_at_once() {
    let (addr, handle) = start_server();
    let started = std::time::Instant::now();
    for id in 0..10 {
        let mut c = Client::connect(addr);
        let st = c.send(&format!(r#"{{"lis":1,"id":{id},"cmd":"status"}}"#));
        assert_eq!(status_of(&st), 0, "{st:?}");
    }
    // An accept loop that slept 25 ms whenever no connection was waiting
    // took about 250 ms for these ten.
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "ten fresh connections took {took:?}");
    assert_eq!(shutdown_and_join(addr, handle), 0);
}
