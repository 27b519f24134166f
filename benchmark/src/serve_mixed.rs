//! `serve-mixed`: the only workload that goes through `lis serve`, its wire
//! protocol and its shared artifact store. A daemon runs in a child process
//! (this binary's `daemon` mode: the same `lis_serve::Server` that
//! `lis serve --listen 127.0.0.1:0 --jobs 2` runs), and two client
//! connections drive it in a closed loop — each sends its next request only
//! after the previous response — with `TCP_NODELAY` and one write per frame.
//! Each connection works in rounds: every suite kernel once (repeated keys:
//! warm store hits), as many freshly generated programs (cold: assemble,
//! pre-flight, translate, store insert) and five `status` requests — about
//! 45/45/10 — in a seeded order, for a fixed number of rounds. Whole rounds
//! keep the mix the same on every seed, so the seed changes the order and
//! the programs but not the load.

use crate::common::{
    assemble, check_repeat, preflight_us, reference_stdout, repeat_setup, RunCfg, Sample, Work,
    MAX_INSTS,
};
use crate::outcome::{peak_rss_kb, Outcome};
use crate::spans::Span;
use crate::spec::num;
use crate::stats::{median, percentile, SplitMix64};
use lis_core::{JsonObj, ONE_ALL};
use lis_runtime::Simulator;
use lis_serve::json::{self, Value};
use lis_serve::{ServeConfig, Server};
use lis_workloads::{spec_of, suite_of, Workload, ISAS};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Timed rounds per connection: about `run_seconds` on the reference host.
pub const ROUNDS: usize = 4;

/// Client connections, one per host core.
const CONNS: usize = 2;

/// `status` requests per round.
const STATUS_PER_ROUND: usize = 5;

/// Static length of each generated program, in instructions.
const GEN_LEN: usize = 2000;

/// How long a client waits for one response before counting it failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// What one planned request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A suite kernel (index into the plan's kernel list).
    Kernel(usize),
    /// A generated program (index into the plan's generated sources).
    Cold(usize),
    /// Daemon status.
    Status,
}

/// The seeded request plan: per connection, the request kinds, ids and
/// frames, round after round.
#[derive(Debug)]
struct Plan {
    kernels: Vec<&'static Workload>,
    generated: Vec<(&'static str, String)>,
    conns: Vec<Vec<(Kind, u64, String)>>,
}

/// Requests in one round over `kernels` suite kernels: each kernel, as many
/// generated programs, and the `status` requests.
fn round_len(kernels: usize) -> usize {
    2 * kernels + STATUS_PER_ROUND
}

fn frame(id: u64, cmd: &str, fill: impl FnOnce(&mut JsonObj)) -> String {
    let mut o = JsonObj::new();
    o.u64("lis", 1).u64("id", id).str("cmd", cmd);
    fill(&mut o);
    let mut line = o.finish();
    line.push('\n');
    line
}

/// Builds the request plan of `rounds` rounds per connection for `seed`.
fn plan(seed: u64, kernels: Vec<&'static Workload>, rounds: usize) -> Plan {
    let mut generated = Vec::new();
    let round_len = round_len(kernels.len());
    let mut rng = SplitMix64::new(seed);
    let mut conns = vec![Vec::new(); CONNS];
    for (c, reqs) in conns.iter_mut().enumerate() {
        for _ in 0..rounds {
            let mut kinds: Vec<Kind> = (0..kernels.len()).map(Kind::Kernel).collect();
            for _ in 0..kernels.len() {
                let isa = ISAS[generated.len() % ISAS.len()];
                generated
                    .push((isa, lis_workloads::gen::random_program(isa, rng.next_u64(), GEN_LEN)));
                kinds.push(Kind::Cold(generated.len() - 1));
            }
            kinds.extend([Kind::Status; STATUS_PER_ROUND]);
            for i in rng.permutation(round_len) {
                let id = (c * rounds * round_len + reqs.len() + 1) as u64;
                let f = match kinds[i] {
                    Kind::Kernel(k) => frame(id, "run", |o| {
                        o.str("isa", kernels[k].isa).str("kernel", kernels[k].name);
                    }),
                    Kind::Cold(g) => frame(id, "run", |o| {
                        o.str("isa", generated[g].0).str("src", &generated[g].1);
                    }),
                    Kind::Status => frame(id, "status", |_| {}),
                };
                reqs.push((kinds[i], id, f));
            }
        }
    }
    Plan { kernels, generated, conns }
}

/// The daemon-side entry point: binds an ephemeral port, prints it, and
/// serves until a `shutdown` frame. Returns the daemon's exit code.
pub fn daemon_main() -> i32 {
    let cfg =
        ServeConfig { listen: "127.0.0.1:0".to_string(), jobs: CONNS, ..ServeConfig::default() };
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("daemon: bind {}: {e}", cfg.listen);
            return 1;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("{addr}"),
        Err(e) => {
            eprintln!("daemon: {e}");
            return 1;
        }
    }
    i32::from(server.run())
}

/// A running daemon child. Dropping it shuts the daemon down (killing it if
/// it does not exit) and waits for it.
#[derive(Debug)]
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        let out = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(out).read_line(&mut line);
        let mut d = Daemon { child: Some(child), addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        read.map_err(|e| format!("daemon address: {e}"))?;
        d.addr = line.trim().parse().map_err(|e| format!("daemon address {line:?}: {e}"))?;
        Ok(d)
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(RESPONSE_TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Sends `shutdown` and waits for the daemon to exit; returns its exit
    /// code.
    fn stop(&mut self) -> Result<i32, String> {
        let Some(mut child) = self.child.take() else { return Err("no daemon".into()) };
        let sent = self.connect().and_then(|s| request(&s, &frame(0, "shutdown", |_| {})));
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(st)) => break Ok(st),
                Ok(None) if sent.is_ok() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    break child.wait();
                }
            }
        };
        sent?;
        let status = status.map_err(|e| e.to_string())?;
        status.code().ok_or_else(|| format!("daemon ended by {status}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Sends one frame and reads the one-line answer.
fn request(s: &TcpStream, frame: &str) -> Result<String, String> {
    let mut w = s;
    w.write_all(frame.as_bytes()).map_err(|e| e.to_string())?;
    let mut line = String::new();
    match BufReader::new(s).read_line(&mut line) {
        Ok(n) if n > 0 => Ok(line),
        Ok(_) => Err("connection closed".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Sends `status` and returns the parsed answer if it reports success.
fn status(s: &TcpStream) -> Result<Value, String> {
    let line = request(s, &frame(0, "status", |_| {}))?;
    let v = json::parse(line.trim_end()).map_err(|e| e.to_string())?;
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(v),
        _ => Err(format!("status failed: {line}")),
    }
}

/// One answered request.
#[derive(Debug)]
struct Answer {
    start: u64,
    ns: u64,
    line: Result<String, String>,
}

/// One connection's closed loop: send, wait for the answer, repeat, until
/// every planned request is answered or one fails. Times are tracer-clock
/// nanoseconds since `origin`.
fn drive_conn(mut s: TcpStream, reqs: &[(Kind, u64, String)], origin: Instant) -> Vec<Answer> {
    let now = || origin.elapsed().as_nanos() as u64;
    let mut reader = match s.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(e) => return vec![Answer { start: now(), ns: 0, line: Err(e.to_string()) }],
    };
    let mut out = Vec::new();
    for (_, _, f) in reqs {
        let start = now();
        let mut line = String::new();
        let r = s.write_all(f.as_bytes()).and_then(|()| reader.read_line(&mut line));
        let ns = now() - start;
        let failed = !matches!(r, Ok(n) if n > 0);
        out.push(Answer { start, ns, line: r.map(|_| line).map_err(|e| e.to_string()) });
        if failed {
            break;
        }
    }
    out
}

/// The parts of a `run` response's counters that do not depend on whether
/// the store was warm, so repeats of one key must agree on them exactly.
fn sim_counters(stats: Option<&Value>) -> String {
    ["insts", "calls", "blocks", "faults", "published_values", "published_opsets", "undo_records"]
        .iter()
        .map(|k| {
            let v = stats.and_then(|s| s.get(k)).and_then(Value::as_u64);
            format!("{k}={}", v.map_or("?".to_string(), |v| v.to_string()))
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut o = Outcome::new(cfg.trace);
    let kernels: Vec<&'static Workload> = ISAS
        .iter()
        .flat_map(|&isa| suite_of(isa).iter())
        .filter(|w| cfg.kernels.as_ref().is_none_or(|k| k.contains(&w.name)))
        .collect();
    let plan = plan(cfg.seed, kernels, cfg.rounds);

    // Set-up: start the daemon, open the connections, and wait until each
    // answers a `status` request and runs a program (which also finishes the
    // daemon's lazy initialization).
    let warm_up = frame(0, "run", |o| {
        o.str("isa", plan.kernels[0].isa).str("kernel", plan.kernels[0].name);
    });
    let (setup_s, started) = repeat_setup(cfg, || {
        let d = Daemon::start()?;
        let conns = (0..CONNS).map(|_| d.connect()).collect::<Result<Vec<_>, _>>()?;
        for c in &conns {
            status(c)?;
            let line = request(c, &warm_up)?;
            if !line.contains(r#""ok":true"#) {
                return Err(format!("warm-up run failed: {line}"));
            }
        }
        Ok::<_, String>((d, conns))
    });
    o.setup_s = setup_s;
    let (mut daemon, conns) = match started {
        Ok(s) => s,
        Err(e) => {
            o.check(false, || format!("daemon start: {e}"));
            return o;
        }
    };

    // The measured window: both connections in a closed loop.
    let origin = o.tracer.origin();
    let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&plan.conns)
            .map(|(s, reqs)| scope.spawn(move || drive_conn(s, reqs, origin)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    // After the window: the daemon's peak memory, store counters, shutdown.
    o.rss_kb = daemon.pid().map_or(0, |pid| peak_rss_kb(Some(pid)));
    let after = daemon.connect().and_then(|s| status(&s));
    let exit = daemon.stop();
    o.check(matches!(exit, Ok(0)), || format!("daemon exit: {exit:?}"));
    let store = after.as_ref().ok().and_then(|v| v.get("result")).and_then(|r| r.get("store"));
    let counter = |k: &str| store.and_then(|s| s.get(k)).and_then(Value::as_u64).unwrap_or(0);
    let (hits, misses) = (counter("hits"), counter("misses"));
    o.check(after.is_ok(), || format!("status after the window: {:?}", after.as_ref().err()));

    // Verification, outside the window: every response against its
    // reference, computed in-process only for the programs actually sent.
    let mut cold_expected: HashMap<usize, Result<Vec<u8>, String>> = HashMap::new();
    let mut first: Vec<Option<String>> = vec![None; plan.kernels.len()];
    let (mut sim_insts, mut built) = (0u64, 0u64);
    let (mut warm_ms, mut cold_ms, mut status_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Warm-request latencies of untraced and traced requests.
    let mut warm_split: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Per connection round: simulated MIPS and requests per second.
    let (mut round_mips, mut round_rate) = (Vec::new(), Vec::new());
    let mut client_spans = Vec::new();
    let round_len = round_len(plan.kernels.len());
    for (c, conn) in answers.iter().enumerate() {
        let planned = plan.conns[c].len();
        o.check(conn.len() == planned, || {
            format!("connection {c} ended after {} of {planned} requests", conn.len())
        });
        let mut round_insts = 0;
        for (i, a) in conn.iter().enumerate() {
            let (kind, id, _) = &plan.conns[c][i];
            let traced = cfg.trace && i % 2 == 1;
            let resp = a
                .line
                .as_ref()
                .map_err(String::clone)
                .and_then(|l| json::parse(l.trim_end()).map_err(|e| format!("{e} in {l:?}")));
            let ok = resp.as_ref().is_ok_and(|v| {
                v.get("ok").and_then(Value::as_bool) == Some(true)
                    && v.get("status").and_then(Value::as_u64) == Some(0)
                    && v.get("id").and_then(Value::as_u64) == Some(*id)
            });
            let mut insts = 0;
            if o.check(ok, || format!("request {id} ({kind:?}): {resp:?}")) {
                let v = resp.as_ref().expect("checked");
                let result = v.get("result");
                let field = |k: &str| result.and_then(|r| r.get(k));
                let stats = field("stats");
                insts = stats.and_then(|s| s.get("insts")).and_then(Value::as_u64).unwrap_or(0);
                let stdout = field("stdout").and_then(Value::as_str).unwrap_or("");
                let exit = field("exit_code").and_then(num);
                let counters = sim_counters(stats);
                let expected = match *kind {
                    Kind::Kernel(k) => Some(Ok(plan.kernels[k].expected_stdout().into_bytes())),
                    Kind::Cold(g) => Some(
                        cold_expected
                            .entry(g)
                            .or_insert_with(|| {
                                let (isa, src) = &plan.generated[g];
                                lis_workloads::assemble_source(isa, src)
                                    .map_err(|e| e.to_string())
                                    .and_then(|img| reference_stdout(isa, &img))
                            })
                            .clone(),
                    ),
                    Kind::Status => None,
                };
                if let Some(expected) = expected {
                    let good = field("halted").and_then(Value::as_bool) == Some(true)
                        && exit == Some(0.0)
                        && expected.as_deref() == Ok(stdout.as_bytes());
                    o.check(good, || format!("request {id} ({kind:?}): exit {exit:?}, stdout {stdout:?}, want {expected:?}"));
                    if let Kind::Kernel(k) = *kind {
                        check_repeat(&mut o, &mut first[k], counters.clone(), plan.kernels[k].name);
                    }
                    let warm = field("warm").and_then(Value::as_bool) == Some(true);
                    let ms = a.ns as f64 / 1e6;
                    if warm {
                        warm_ms.push(ms);
                        warm_split[usize::from(traced)].push(ms);
                    } else {
                        cold_ms.push(ms);
                    }
                    built += stats
                        .and_then(|s| s.get("blocks_built"))
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    sim_insts += insts;
                } else {
                    status_ms.push(a.ns as f64 / 1e6);
                }
                o.digest(format!("{c}/{i}:{kind:?}:{exit:?}:{counters}:").as_bytes());
                o.digest(stdout.as_bytes());
            }
            o.op(a.ns, insts, traced);
            if !traced {
                // Requests are not repeated: latencies count as measured.
                o.op_ms.push(a.ns as f64 / 1e6);
            }
            round_insts += insts;
            if i % round_len == round_len - 1 {
                let first = &conn[i + 1 - round_len];
                let secs = (a.start + a.ns - first.start) as f64 / 1e9;
                round_mips.push(round_insts as f64 / secs / 1e6);
                round_rate.push(round_len as f64 / secs);
                round_insts = 0;
            }
            if traced {
                client_spans.push(Span {
                    name: "serve.request",
                    op: *id,
                    parent: None,
                    start_ns: a.start,
                    end_ns: a.start + a.ns,
                    busy_ns: a.ns,
                    calls: 1,
                    insts,
                });
            }
        }
    }
    o.tracer.extend(client_spans);
    // The service's rate is that of its connections together: the median
    // connection round, once per connection.
    let both = |v: Vec<f64>| v.iter().map(|x| x * CONNS as f64).collect::<Vec<_>>();
    o.sim_mips = Sample::of(&both(round_mips));
    o.ops_per_s = Sample::of(&both(round_rate));
    for (name, v) in [("status", &status_ms), ("warm", &warm_ms), ("cold", &cold_ms)] {
        o.detail(format!("{name}_p50_ms"), median(v), "ms");
        o.detail(format!("{name}_requests"), v.len() as f64, "count");
    }
    let hit_frac = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    o.detail("store_hit_frac", hit_frac, "%");
    // The tail: cold requests that waited on the wire more than once.
    let p95 = percentile(&o.op_ms, 95.0);
    o.detail("request_p95_ms", p95, "ms");

    if cfg.trace {
        let rtt_ms: Vec<f64> = warm_ms.iter().chain(&cold_ms).copied().collect();
        let inproc = in_process(&mut o, &plan, &answers);
        o.layers.push(("serve.overhead_x", median(&rtt_ms) / median(&inproc.0)));
        o.layers.push(("serve.cold_x", median(&cold_ms) / median(&warm_ms)));
        o.layers.push(("serve.p95_x", p95 / median(&o.op_ms)));
        o.layers.push(("serve.store_hit_frac", hit_frac));
        o.layers
            .push(("runtime.blocks_built_per_kinst", 1e3 * built as f64 / sim_insts.max(1) as f64));
        o.layers.push(inproc.1.layers()[1]);
        // Request spans are built from the timestamps every request takes,
        // so traced and untraced requests run the same client code; the
        // ratio of their warm-request medians shows it.
        let overhead = median(&warm_split[0]) / median(&warm_split[1]);
        o.layers.push(("bench.trace_overhead", overhead));
        let configs: Vec<_> = ISAS.iter().map(|&isa| (spec_of(isa), ONE_ALL)).collect();
        o.layers.push(("analyze.preflight_us", preflight_us(&configs)));
    }
    o
}

/// Runs every distinct program the window sent once in-process, the way the
/// daemon runs a cold `run` request (assemble, build a default `one-all`
/// simulator, run), with spans. Returns the milliseconds of each and the
/// simulators' work.
fn in_process(o: &mut Outcome, plan: &Plan, answers: &[Vec<Answer>]) -> (Vec<f64>, Work) {
    let mut seen = Vec::new();
    for (c, conn) in answers.iter().enumerate() {
        for (kind, _, _) in &plan.conns[c][..conn.len()] {
            if *kind != Kind::Status && !seen.contains(kind) {
                seen.push(*kind);
            }
        }
    }
    let (mut ms, mut work) = (Vec::new(), Work::default());
    for kind in seen {
        let (isa, src) = match kind {
            Kind::Kernel(k) => (plan.kernels[k].isa, plan.kernels[k].source),
            Kind::Cold(g) => (plan.generated[g].0, plan.generated[g].1.as_str()),
            Kind::Status => unreachable!("status requests run nothing"),
        };
        let t0 = o.tracer.now();
        let image = assemble(&mut o.tracer, isa, src);
        let t1 = o.tracer.now();
        let mut sim = Simulator::new(spec_of(isa), ONE_ALL).expect("one-all is valid");
        let loaded = sim.load_program(&image);
        let t2 = o.tracer.now();
        o.tracer.push("runtime.new", 0, None, t1, t2, 0);
        let ran = loaded
            .map_err(|f| f.to_string())
            .and_then(|()| sim.run_to_halt(MAX_INSTS).map_err(|e| e.to_string()));
        let t3 = o.tracer.now();
        o.tracer.push("runtime.run", 0, None, t2, t3, sim.stats.insts);
        o.check(ran.is_ok(), || format!("in-process {isa} run: {ran:?}"));
        work.add(&sim.stats);
        ms.push((t3 - t0) as f64 / 1e6);
    }
    (ms, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(p: &Plan) -> Vec<Vec<Kind>> {
        p.conns.iter().map(|c| c.iter().map(|r| r.0).collect()).collect()
    }

    #[test]
    fn the_plan_is_a_function_of_the_seed() {
        let kernels = || ISAS.iter().flat_map(|&isa| suite_of(isa).iter()).collect::<Vec<_>>();
        let (a, b, c) = (plan(3, kernels(), 2), plan(3, kernels(), 2), plan(4, kernels(), 2));
        assert_eq!(kinds(&a), kinds(&b));
        assert_eq!(a.generated, b.generated);
        assert_ne!(kinds(&a), kinds(&c));
        assert_ne!(a.generated, c.generated);
    }

    #[test]
    fn every_round_has_the_same_mix() {
        let kernels: Vec<_> = ISAS.iter().flat_map(|&isa| suite_of(isa).iter()).collect();
        let p = plan(1, kernels, ROUNDS);
        assert_eq!(round_len(p.kernels.len()), 53);
        for conn in kinds(&p) {
            assert_eq!(conn.len(), ROUNDS * round_len(p.kernels.len()));
            for round in conn.chunks(round_len(p.kernels.len())) {
                let mut ks: Vec<usize> = round
                    .iter()
                    .filter_map(|k| if let Kind::Kernel(i) = k { Some(*i) } else { None })
                    .collect();
                ks.sort_unstable();
                assert_eq!(ks, (0..24).collect::<Vec<_>>(), "every kernel once per round");
                assert_eq!(round.iter().filter(|k| matches!(k, Kind::Cold(_))).count(), 24);
                assert_eq!(round.iter().filter(|k| **k == Kind::Status).count(), STATUS_PER_ROUND);
            }
        }
        // Generated programs are never repeated, so each is a cold request.
        let cold: Vec<usize> = kinds(&p)
            .into_iter()
            .flatten()
            .filter_map(|k| if let Kind::Cold(g) = k { Some(g) } else { None })
            .collect();
        assert_eq!(cold.len(), p.generated.len());
        // Frames are single lines of protocol v1 with unique ids.
        let mut ids: Vec<u64> = p.conns.iter().flatten().map(|r| r.1).collect();
        assert!(p
            .conns
            .iter()
            .flatten()
            .all(|r| r.2.starts_with(r#"{"lis":1,"#) && r.2.matches('\n').count() == 1));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CONNS * ROUNDS * round_len(p.kernels.len()));
    }

    #[test]
    fn counters_ignore_cache_warmth() {
        let cold =
            json::parse(r#"{"insts":5,"calls":5,"blocks_built":3,"seeded_blocks":0}"#).unwrap();
        let warm =
            json::parse(r#"{"insts":5,"calls":5,"blocks_built":0,"seeded_blocks":3}"#).unwrap();
        assert_eq!(sim_counters(Some(&cold)), sim_counters(Some(&warm)));
        assert!(sim_counters(Some(&cold)).starts_with("insts=5;calls=5;"));
    }
}
