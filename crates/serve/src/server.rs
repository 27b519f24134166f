//! The daemon: a TCP accept loop, one session thread per connection, a
//! shared [`ArtifactStore`] + [`Scheduler`] behind them, and a graceful
//! drain on `shutdown` frames or SIGTERM/SIGINT.
//!
//! The accept loop blocks in `accept`, so a new connection is served at
//! once. Whatever requests shutdown then wakes it by connecting to the
//! listener's own address: the `shutdown` handler, or the thread that
//! watches the signal flag.
//!
//! Blast-radius model, inside out: a panicking request is caught twice
//! (handler `catch_cell` and the worker's own) and becomes an `ok:false`
//! response; a malformed frame becomes a typed protocol error on the same
//! connection; a dead connection tears down one session thread; and only a
//! shutdown signal touches the daemon itself — which then stops accepting,
//! drains in-flight work under a deadline, snapshots whatever it had to
//! abandon, and exits [`EXIT_ABANDONED`] if that list was nonempty.

use crate::exec::{execute, Ctx, Outcome};
use crate::json::JsonError;
use crate::protocol::{self, parse_frame, write_frame, ProtocolError, Request};
use crate::scheduler::{Scheduler, SubmitError};
use lis_core::JsonObj;
use lis_runtime::ArtifactStore;
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Exit code when the drain deadline expired with work still queued or
/// running (distinct from every CLI failure code; documented in `lis help`).
pub const EXIT_ABANDONED: u8 = 6;

/// How a daemon is configured (the `lis serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on, e.g. `127.0.0.1:4915` or `127.0.0.1:0`.
    pub listen: String,
    /// Scheduler workers; 0 = one per available core (the shared `--jobs`
    /// policy from [`lis_harness::resolve_jobs`]).
    pub jobs: usize,
    /// How long a shutdown waits for in-flight work before abandoning it.
    pub drain_deadline: Duration,
    /// Optional per-request wall-clock deadline handed to each simulator.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:4915".to_string(),
            jobs: 0,
            drain_deadline: Duration::from_secs(10),
            deadline: None,
        }
    }
}

/// Daemon-wide shared state.
#[derive(Debug)]
struct ServerState {
    store: Arc<ArtifactStore>,
    sched: Arc<Scheduler>,
    deadline: Option<Duration>,
    /// Set by a `shutdown` frame or a termination signal; the session loops
    /// poll it, and the accept loop is woken to see it ([`wake`]).
    shutdown: AtomicBool,
    /// The listener's address, which [`wake`] connects to.
    addr: std::net::SocketAddr,
    sessions_total: AtomicU64,
    sessions_active: AtomicUsize,
    started: Instant,
}

/// Signal flag: set from the SIGTERM/SIGINT handler, watched by
/// [`watch_signals`]. Process-global by nature (signals are).
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_term_handler() {
    extern "C" fn on_term(_sig: i32) {
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGTERM=15, SIGINT=2 on every unix we run on; the libc constants are
    // not available without a crate, and these two values are POSIX-stable.
    unsafe {
        signal(15, on_term as extern "C" fn(i32) as usize);
        signal(2, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_term_handler() {}

/// A bound-but-not-yet-running daemon. Splitting bind from run lets tests
/// (and `--listen 127.0.0.1:0`) learn the actual port before serving.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    drain_deadline: Duration,
}

impl Server {
    /// Binds the listen address and builds the shared state.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, bad address, ...).
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let workers = lis_harness::resolve_jobs(cfg.jobs, crate::scheduler::QUEUE_LIMIT);
        let state = Arc::new(ServerState {
            store: Arc::new(ArtifactStore::new()),
            sched: Arc::new(Scheduler::new(workers)),
            deadline: cfg.deadline,
            shutdown: AtomicBool::new(false),
            addr,
            sessions_total: AtomicU64::new(0),
            sessions_active: AtomicUsize::new(0),
            started: Instant::now(),
        });
        Ok(Server { listener, state, drain_deadline: cfg.drain_deadline })
    }

    /// The daemon's actual listening address.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failure from the socket.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` frame or termination signal, then drains.
    /// Returns the process exit code: 0 for a clean drain, [`EXIT_ABANDONED`]
    /// if queued or in-flight work had to be abandoned (each abandoned job
    /// also leaves a `lis-serve-abandoned-*.txt` snapshot in the working
    /// directory).
    pub fn run(self) -> u8 {
        install_term_handler();
        let watcher = {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("lis-serve-signals".to_string())
                .spawn(move || watch_signals(&state))
        };
        loop {
            let accepted = self.listener.accept();
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _addr)) => {
                    let n = self.state.sessions_total.fetch_add(1, Ordering::SeqCst);
                    self.state.sessions_active.fetch_add(1, Ordering::SeqCst);
                    let state = Arc::clone(&self.state);
                    let _ = std::thread::Builder::new()
                        .name(format!("lis-serve-session-{n}"))
                        .spawn(move || {
                            session_loop(stream, &state);
                            state.sessions_active.fetch_sub(1, Ordering::SeqCst);
                        });
                }
                // Out of descriptors and the like: back off, then accept again.
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        if let Ok(watcher) = watcher {
            let _ = watcher.join();
        }
        // Drain: no new submissions, wait for the queue and in-flight jobs.
        let report = self.state.sched.drain(self.drain_deadline);
        for (i, label) in report
            .abandoned_queued
            .iter()
            .map(|l| (l, "queued"))
            .chain(report.abandoned_running.iter().map(|l| (l, "running")))
            .enumerate()
            .map(|(i, (l, k))| (i, format!("{k}: {l}")))
        {
            let path = format!("lis-serve-abandoned-{}-{i}.txt", std::process::id());
            let _ = std::fs::write(
                &path,
                format!("abandoned at shutdown (drain deadline expired)\n{label}\n"),
            );
        }
        // Brief grace so session threads can flush their last responses.
        std::thread::sleep(Duration::from_millis(300));
        if report.clean() {
            0
        } else {
            EXIT_ABANDONED
        }
    }
}

/// Wakes the accept loop after a shutdown request, by connecting to the
/// listener: `accept` returns, and the loop sees the shutdown flag.
fn wake(state: &ServerState) {
    let _ = TcpStream::connect_timeout(&state.addr, Duration::from_secs(1));
}

/// Turns a termination signal into a shutdown request that wakes the
/// accept loop; returns once the daemon is shutting down either way. The
/// signal handler itself may only set a flag, so this thread checks it.
fn watch_signals(state: &ServerState) {
    while !state.shutdown.load(Ordering::SeqCst) {
        if TERM_REQUESTED.load(Ordering::SeqCst) {
            state.shutdown.store(true, Ordering::SeqCst);
            wake(state);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Best-effort `id` recovery from a line that failed frame parsing, so the
/// error response still correlates when only a field (not the JSON) is bad.
fn salvage_id(line: &str) -> u64 {
    crate::json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(crate::json::Value::as_u64))
        .unwrap_or(0)
}

fn status_payload(state: &ServerState) -> String {
    let sched = state.sched.stats();
    let store = state.store.stats();
    let mut s = JsonObj::new();
    s.u64("workers", sched.workers as u64)
        .u64("executed", sched.executed)
        .u64("crashed", sched.crashed)
        .u64("queued", sched.queued as u64)
        .u64("active", sched.active as u64);
    let mut st = JsonObj::new();
    st.u64("hits", store.hits)
        .u64("misses", store.misses)
        .u64("inserts", store.inserts)
        .u64("entries", store.entries);
    let mut o = JsonObj::new();
    o.u64("uptime_ms", state.started.elapsed().as_millis() as u64)
        .u64("sessions_total", state.sessions_total.load(Ordering::SeqCst))
        .u64("sessions_active", state.sessions_active.load(Ordering::SeqCst) as u64)
        .bool("draining", state.shutdown.load(Ordering::SeqCst))
        .raw("scheduler", &s.finish())
        .raw("store", &st.finish());
    o.finish()
}

/// One connection: read frames, execute, respond — until EOF, a fatal socket
/// error, an oversized unterminated line, or daemon shutdown.
///
/// A session holds at most `MAX_FRAME_LEN + 1` bytes of a frame. A frame
/// that fills them with no newline is answered with `FrameTooLong` at once,
/// and the rest of it is read and dropped: up to its newline, after which
/// the session goes on, or until the client goes quiet or hangs up, which
/// ends the session.
fn session_loop(stream: TcpStream, state: &ServerState) {
    let mut out = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if stream.set_read_timeout(Some(Duration::from_millis(250))).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut frame = Vec::new();
    let mut dropping = false;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Never 0: a full buffer is either a frame (handled) or dropped.
        let room = (protocol::MAX_FRAME_LEN + 1 - frame.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut frame) {
            Ok(0) => return, // client hung up
            Ok(_) if frame.len() > protocol::MAX_FRAME_LEN && !frame.ends_with(b"\n") => {
                if !dropping && !reject(&mut out, 0, &ProtocolError::FrameTooLong(frame.len())) {
                    return;
                }
                dropping = true;
                frame.clear();
            }
            Ok(_) => {
                if !dropping && !handle_frame(&frame, &mut out, state) {
                    return;
                }
                dropping = false;
                frame.clear();
            }
            // Timeout mid-wait (or mid-frame: partial bytes stay in `frame`
            // and the next read continues the same frame). A client that
            // goes quiet inside an oversize frame cannot be resynced.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if dropping {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers a frame that was rejected before execution with its typed
/// `status` 2 error. Returns `false` when the socket died.
fn reject(out: &mut TcpStream, id: u64, e: &ProtocolError) -> bool {
    write_frame(out, &protocol::response(id, "?", 2, Some(&e.to_string()), "")).is_ok()
}

/// Handles one complete frame as read off the wire, newline included.
/// Bytes that are not UTF-8 are malformed JSON (RFC 8259 §8.1).
fn handle_frame(frame: &[u8], out: &mut TcpStream, state: &ServerState) -> bool {
    match std::str::from_utf8(frame) {
        Ok(text) => {
            let line = text.trim_end_matches(['\n', '\r']);
            line.trim().is_empty() || handle_line(line, out, state)
        }
        Err(e) => {
            let e = JsonError { offset: e.valid_up_to(), msg: "invalid UTF-8".to_string() };
            reject(out, 0, &ProtocolError::Json(e))
        }
    }
}

/// Handles one complete frame line. Returns `false` when the session should
/// close (shutdown acknowledged or the socket died).
fn handle_line(line: &str, out: &mut TcpStream, state: &ServerState) -> bool {
    let frame = match parse_frame(line) {
        Ok(f) => f,
        Err(e) => return reject(out, salvage_id(line), &e),
    };
    let cmd = frame.req.cmd();
    match frame.req {
        Request::Status => {
            let resp = protocol::response(frame.id, cmd, 0, None, &status_payload(state));
            write_frame(out, &resp).is_ok()
        }
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            wake(state);
            let mut o = JsonObj::new();
            o.bool("draining", true);
            let resp = protocol::response(frame.id, cmd, 0, None, &o.finish());
            let _ = write_frame(out, &resp);
            false
        }
        req => {
            let (tx, rx) = mpsc::channel::<Outcome>();
            let ctx = Ctx { store: Arc::clone(&state.store), deadline: state.deadline };
            let label = format!("{cmd}#{}", frame.id);
            let submitted = state.sched.submit(label, move || {
                let _ = tx.send(execute(&req, &ctx));
            });
            let outcome = match submitted {
                Ok(()) => match rx.recv() {
                    Ok(o) => o,
                    // Sender dropped without sending: the job panicked (the
                    // worker's catch_cell ate it) or was abandoned by drain.
                    Err(_) => Outcome {
                        status: 1,
                        payload: String::new(),
                        error: Some("request crashed or was abandoned (isolated)".to_string()),
                    },
                },
                Err(e @ (SubmitError::Draining | SubmitError::Full)) => {
                    Outcome { status: 1, payload: String::new(), error: Some(e.to_string()) }
                }
            };
            let resp = protocol::response(
                frame.id,
                cmd,
                outcome.status,
                outcome.error.as_deref(),
                &outcome.payload,
            );
            write_frame(out, &resp).is_ok()
        }
    }
}
