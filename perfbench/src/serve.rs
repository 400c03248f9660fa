//! The serving layers: the seeded request stream, and the traced run's
//! in-process replay and wire segments against fresh `ipassd`
//! processes.
//!
//! The seeded stream mixes `analyze` and single-directive `patch`
//! requests over `solution1..4`. Every answer, in-process or over the
//! wire, must equal byte for byte the answer rebuilt before timing from
//! the public calls `Engine::handle_line` makes; both verbs are pure
//! functions of the request.

use crate::stats::{self, Tally};
use crate::sys;
use crate::trace::Tracer;
use crate::{Outcome, Paths, Rng, Run, LOAD_THREADS};
use integrated_passives::gps::experiments;
use integrated_passives::moe::{PatchDirective, SlotKind};
use integrated_passives::report::json::{self, Json};
use integrated_passives::report::Artifact;
use integrated_passives::units::Probability;
use ipass_serve::{parse_request, Engine, FlowRegistry, Request};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Distinct request lines per seed. Each connection walks them
/// cyclically from its own seeded offset.
const POOL: usize = 2048;
/// Socket timeout: a response slower than this is a failed request.
const TIMEOUT: Duration = Duration::from_secs(5);
/// How long a server may take to exit after `shutdown`.
const EXIT_GRACE: Duration = Duration::from_secs(10);
/// Load time of each of the traced run's two wire segments.
const WIRE_TIME: Duration = Duration::from_secs(1);
/// In-process replays of the pool in the traced run.
const REPLAY_PASSES: usize = 3;
/// Fresh compiles of the four solution flows in the traced run.
const COMPILE_REPS: usize = 10;
const SHUTDOWN: &str = r#"{"verb":"shutdown"}"#;
const SHUTDOWN_OK: &str = r#"{"ok":true,"verb":"shutdown"}"#;

/// The seeded request stream with the hashes of its reference answers.
pub struct Stream {
    /// Request lines, without their newline.
    pub lines: Vec<String>,
    /// The FNV-1a hash of the answer each line is owed, rebuilt from
    /// the public calls `Engine::handle_line` makes; `None` when that
    /// answer is not `ok`, so such a request can only count as failed.
    /// Only hashes are kept, so a measuring process holds no copy of
    /// the answers.
    pub expected: Vec<Option<u64>>,
    /// One `analyze` per registered flow with its answer's hash: the
    /// set-up probe.
    pub probes: Vec<(String, Option<u64>)>,
}

/// The hash an answer is kept as.
fn answer_hash(answer: &str) -> u64 {
    stats::fnv1a(stats::FNV_OFFSET, answer.as_bytes())
}

/// Whether `answer` is the `ok` answer whose hash is `expected`.
pub fn owed(expected: Option<u64>, answer: &str) -> bool {
    expected == Some(answer_hash(answer))
}

/// The registry `ipassd` serves: the four committed solutions.
pub fn registry() -> Result<FlowRegistry, String> {
    let mut registry = FlowRegistry::new();
    let flows = experiments::solution_flows().map_err(|e| e.to_string())?;
    for (i, (_, flow)) in flows.into_iter().enumerate() {
        registry.register(format!("solution{}", i + 1), flow);
    }
    Ok(registry)
}

/// The slots of `flow` one directive can address (`slots()` also lists
/// labels shared by several ops, which `patch` refuses as ambiguous).
fn patchable_slots(registry: &FlowRegistry, flow: &str) -> Result<Vec<(String, SlotKind)>, String> {
    let compiled = registry.compiled(flow).map_err(|e| e.to_string())?;
    let neutral = Probability::new(0.95).expect("0.95 is a probability");
    let mut slots: Vec<(String, SlotKind)> = Vec::new();
    for (name, kind) in compiled.slots() {
        if slots.iter().any(|(n, k)| n == name && *k == kind) {
            continue;
        }
        let slot = name.to_owned();
        let probe = match kind {
            SlotKind::Cost => PatchDirective::ScaleCost { slot, factor: 1.0 },
            SlotKind::Yield => PatchDirective::SetYield { slot, p: neutral },
            SlotKind::Coverage => PatchDirective::SetCoverage { slot, p: neutral },
        };
        if compiled.patch().apply(&probe).is_ok() {
            slots.push((name.to_owned(), kind));
        }
    }
    Ok(slots)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// The `analyze` request line for `flow`.
pub fn analyze_line(flow: &str) -> String {
    format!(r#"{{"verb":"analyze","flow":{}}}"#, json_string(flow))
}

/// One seeded request: `analyze`, or a `patch` with one seeded
/// directive when `patch` is set.
fn request_line(rng: &mut Rng, flow: &str, slots: &[(String, SlotKind)], patch: bool) -> String {
    if slots.is_empty() || !patch {
        return analyze_line(flow);
    }
    let (slot, kind) = &slots[rng.below(slots.len())];
    let slot = json_string(slot);
    let directive = match kind {
        SlotKind::Cost => format!(
            r#"{{"scale":"cost","slot":{slot},"factor":{:.4}}}"#,
            rng.range(0.5, 1.5)
        ),
        SlotKind::Yield => format!(
            r#"{{"set":"yield","slot":{slot},"value":{:.5}}}"#,
            rng.range(0.9, 0.99999)
        ),
        SlotKind::Coverage => format!(
            r#"{{"set":"coverage","slot":{slot},"value":{:.4}}}"#,
            rng.range(0.8, 0.999)
        ),
    };
    format!(
        r#"{{"verb":"patch","flow":{},"directives":[{directive}]}}"#,
        json_string(flow)
    )
}

fn is_ok(response: &str) -> bool {
    response.starts_with(r#"{"ok":true"#)
}

/// The seeded stream and its reference answers.
pub fn stream(seed: u64) -> Result<Stream, String> {
    let registry = registry()?;
    let flows: Vec<String> = registry.names().into_iter().map(str::to_owned).collect();
    let slots = flows
        .iter()
        .map(|f| patchable_slots(&registry, f))
        .collect::<Result<Vec<_>, _>>()?;
    // Every seed gets the same mix (each flow a quarter of the lines,
    // each verb half of every flow's), so the seed moves slots, values
    // and order, never the amount of work.
    let mut rng = Rng::new(seed, 1);
    let mut lines: Vec<String> = (0..POOL)
        .map(|i| {
            let k = i % flows.len();
            let patch = (i / flows.len()) % 2 == 1;
            request_line(&mut rng, &flows[k], &slots[k], patch)
        })
        .collect();
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.below(i + 1));
    }
    let reference = |line: &str| match rebuilt(&registry, line, None) {
        Ok(answer) if is_ok(&answer) => Some(answer_hash(&answer)),
        other => {
            eprintln!("perfbench: no ok reference answer for {line}: {other:?}");
            None
        }
    };
    let expected = lines.iter().map(|l| reference(l)).collect();
    let probes = flows
        .iter()
        .map(|f| {
            let line = analyze_line(f);
            let answer = reference(&line);
            (line, answer)
        })
        .collect();
    Ok(Stream {
        lines,
        expected,
        probes,
    })
}

/// One protocol connection, line in / line out.
struct Conn {
    reader: BufReader<TcpStream>,
    request: String,
    answer: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            request: String::new(),
            answer: String::new(),
        })
    }

    /// Send one request line, framed with its newline in one write, and
    /// read the answer, newline stripped.
    fn request(&mut self, line: &str) -> io::Result<&str> {
        self.request.clear();
        self.request.push_str(line);
        self.request.push('\n');
        self.reader.get_ref().write_all(self.request.as_bytes())?;
        self.answer.clear();
        if self.reader.read_line(&mut self.answer)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.answer.trim_end_matches(['\n', '\r']))
    }
}

/// A running `ipassd` child with its stderr collected on a thread.
/// Dropped without [`Server::finish`] (an error path), it kills and
/// reaps the child.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Vec<String>,
    lines: mpsc::Receiver<String>,
    reader: Option<thread::JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Server {
    /// Spawn `ipassd` on an ephemeral port and wait for it to announce
    /// the address.
    fn spawn(paths: &Paths) -> Result<Server, String> {
        let mut child = Command::new(&paths.ipassd)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", paths.ipassd.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, lines) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Vec::new(),
            lines,
            reader: Some(reader),
        };
        loop {
            let Ok(line) = server.lines.recv_timeout(TIMEOUT) else {
                return Err(format!(
                    "ipassd announced no address; stderr: {:?}",
                    server.stderr
                ));
            };
            let addr = line
                .strip_prefix("info: ipassd serving on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok());
            server.stderr.push(line);
            if let Some(addr) = addr {
                server.addr = addr;
                return Ok(server);
            }
        }
    }

    /// Shut the server down over `conn` and check its hygiene: it
    /// answered `shutdown`, left no child process, exited 0 within the
    /// grace period and wrote only `info:` lines to stderr. Returns the
    /// breaches.
    fn finish(mut self, conn: Option<&mut Conn>) -> Vec<String> {
        let mut breaches = Vec::new();
        let pid = self.child.id();
        let orphans = sys::children_of(pid);
        if !orphans.is_empty() {
            breaches.push(format!("ipassd {pid} has child processes {orphans:?}"));
        }
        let answer = match conn {
            Some(conn) => conn.request(SHUTDOWN).map(str::to_owned),
            None => Conn::open(self.addr).and_then(|mut c| c.request(SHUTDOWN).map(str::to_owned)),
        };
        match answer {
            Ok(a) if a == SHUTDOWN_OK => {}
            other => breaches.push(format!("shutdown answered {other:?}")),
        }
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                _ => break None,
            }
        };
        match status {
            Some(s) if s.success() => {}
            Some(s) => breaches.push(format!("ipassd exited with {s}")),
            None => {
                breaches.push(format!("ipassd did not exit within {EXIT_GRACE:?}"));
                let _ = self.child.kill();
                let _ = self.child.wait();
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        self.stderr.extend(self.lines.try_iter());
        let stray: Vec<&String> = self
            .stderr
            .iter()
            .filter(|l| !l.starts_with("info:"))
            .collect();
        if !stray.is_empty() {
            breaches.push(format!("ipassd wrote non-info stderr lines {stray:?}"));
        }
        breaches
    }
}

/// How one segment drives its server.
struct Load<'a> {
    stream: &'a Stream,
    /// Where each connection starts in the pool.
    offsets: [usize; LOAD_THREADS],
    /// How long each connection sends.
    time: Duration,
    tracer: Option<&'a Tracer>,
    /// Ask for `stats` before shutting down.
    stats: bool,
}

/// One fresh-server segment's measurements.
struct Segment {
    latencies_ms: Vec<f64>,
    /// The `stats` answer, when asked for.
    stats: Option<String>,
}

/// Run one segment: spawn, probe every flow, drive the load on
/// `LOAD_THREADS` connections, then shut down and check hygiene.
/// Requests, the probe and the server's lifecycle each count as
/// operations in `tally`.
fn segment(paths: &Paths, load: &Load, tally: &mut Tally) -> Result<Segment, String> {
    let server = Server::spawn(paths)?;
    let mut conns = Vec::with_capacity(LOAD_THREADS);
    let mut probe = Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut probed = true;
    for (line, expected) in &load.stream.probes {
        probed &= probe.request(line).is_ok_and(|a| owed(*expected, a));
    }
    tally.record(probed);
    conns.push(probe);
    while conns.len() < LOAD_THREADS {
        conns.push(Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?);
    }

    let per_conn: Vec<(Vec<f64>, Tally)> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(load.offsets)
            .enumerate()
            .map(|(t, (conn, offset))| scope.spawn(move || drive(conn, load, t, offset)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let stats = if load.stats {
        conns[0]
            .request(r#"{"verb":"stats"}"#)
            .ok()
            .map(str::to_owned)
    } else {
        None
    };
    let breaches = server.finish(conns.first_mut());
    for b in &breaches {
        eprintln!("perfbench: segment hygiene: {b}");
    }
    tally.record(breaches.is_empty());

    let mut latencies_ms = Vec::new();
    for (lat, t) in per_conn {
        tally.add(t);
        latencies_ms.extend(lat);
    }
    Ok(Segment {
        latencies_ms,
        stats,
    })
}

/// One connection's closed loop: send, wait for the answer, compare.
/// A failed request is recorded as an infinite latency.
fn drive(conn: &mut Conn, load: &Load, thread: usize, offset: usize) -> (Vec<f64>, Tally) {
    let stream = load.stream;
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    let began = Instant::now();
    for n in 0.. {
        if began.elapsed() >= load.time {
            break;
        }
        let k = (offset + n) % POOL;
        let op = ((thread as u64) << 40) | n as u64;
        let span = load.tracer.map(|t| t.open("serve.round_trip", op, None));
        let sent = Instant::now();
        let answer = conn.request(&stream.lines[k]);
        let elapsed = sent.elapsed();
        if let (Some(t), Some(span)) = (load.tracer, span) {
            t.close(span);
        }
        let ok = matches!(answer, Ok(a) if owed(stream.expected[k], a));
        tally.record(ok);
        latencies.push(if ok {
            elapsed.as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        });
        if answer.is_err() {
            break;
        }
    }
    (latencies, tally)
}

/// Where a rebuilt request records its stages: the tracer, the
/// request id and the root span; `None` records nothing.
type Spans<'a> = Option<(&'a Tracer, u64, u64)>;

/// Run one stage of a request, inside a span when traced.
fn stage<T>(spans: Spans, name: &str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some((tracer, op, root)) => tracer.time(name, op, Some(root), |_| f()),
        None => f(),
    }
}

/// The answer `Engine::handle_line` owes `line`, rebuilt from the
/// public calls it makes: parse, registry lookup, walk, report table
/// and compact JSON. The reference every served answer is checked
/// against, and, traced, the stage split of one request.
fn rebuilt(registry: &FlowRegistry, line: &str, spans: Spans) -> Result<String, String> {
    let request =
        stage(spans, "protocol.parse", || parse_request(line)).map_err(|e| e.to_string())?;
    let (verb, flow, patch) = match request {
        Request::Analyze { flow } => ("analyze", flow, None),
        Request::Patch {
            flow,
            directives,
            volume,
        } => ("patch", flow, Some((directives, volume))),
        other => return Err(format!("unexpected request {other:?}")),
    };
    let compiled =
        stage(spans, "registry.lookup", || registry.compiled(&flow)).map_err(|e| e.to_string())?;
    let (report, extra) = match patch {
        None => {
            let report = stage(spans, "moe.analyze", || compiled.analyze());
            (report.map_err(|e| e.to_string())?, Vec::new())
        }
        Some((directives, volume)) => {
            let (report, writes) = stage(spans, "moe.patch_analyze", || {
                let mut patch = compiled.patch();
                for d in &directives {
                    patch.apply(d)?;
                }
                if let Some(v) = volume {
                    patch.set_volume(v);
                }
                patch.analyze().map(|r| (r, patch.writes()))
            })
            .map_err(|e| e.to_string())?;
            (report, vec![("writes", Json::Int(writes as i64))])
        }
    };
    // Each closure owns what it consumes, so freeing the report and
    // the tree counts in its stage, as it does inside `handle_line`.
    let tree = stage(spans, "report.table_json", move || {
        let mut members = vec![
            ("ok", Json::Bool(true)),
            ("verb", Json::str(verb)),
            ("flow", Json::str(flow.as_str())),
        ];
        members.extend(extra);
        members.push(("report", Artifact::Table(report.artifact_table()).to_json()));
        Json::obj(members)
    });
    Ok(stage(spans, "report.render_compact", move || {
        tree.render_compact()
    }))
}

/// The stages `rebuilt` splits a request into.
const STAGES: [&str; 6] = [
    "protocol.parse",
    "registry.lookup",
    "moe.analyze",
    "moe.patch_analyze",
    "report.table_json",
    "report.render_compact",
];

/// Per request of the stage split, the summed duration (ns) of its
/// stages.
fn stage_sums(tracer: &Tracer) -> Vec<f64> {
    let mut sums: HashMap<u64, f64> = HashMap::new();
    for span in tracer.spans() {
        if let Some(root) = span.parent.filter(|_| STAGES.contains(&span.name.as_str())) {
            *sums.entry(root).or_default() += span.ns();
        }
    }
    sums.into_values().collect()
}

fn median_us(tracer: &Tracer, names: &[&str]) -> f64 {
    let mut all = Vec::new();
    for name in names {
        all.extend(tracer.durations(name));
    }
    if all.is_empty() {
        return f64::NAN;
    }
    stats::median(&all) / 1e3
}

/// The traced serve layers. Returns the tracing overhead on the
/// in-process `handle_line` p50, in percent of the untraced p50.
pub fn trace(
    paths: &Paths,
    run: Run,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let stream = stream(run.seed)?;

    // In-process replay of the same seeded lines: a warm-up pass, then
    // passes in which each line is answered three times back to back, in
    // rotating order: without a span, with one span, and split into
    // stages. Drift in the host's speed then moves all three alike. The
    // first two, the traced one timed around the span's own bookkeeping,
    // give the tracing overhead.
    let engine = Engine::new(registry()?);
    let stage_registry = registry()?;
    for line in &stream.lines {
        std::hint::black_box(engine.handle_line(line));
    }
    let (mut bare, mut spanned) = (Vec::new(), Vec::new());
    for pass in 0..REPLAY_PASSES {
        for (k, line) in stream.lines.iter().enumerate() {
            let op = (pass * POOL + k) as u64;
            let expected = stream.expected[k];
            for call in (0..3).map(|c| (c + k) % 3) {
                let began = Instant::now();
                match call {
                    0 => {
                        std::hint::black_box(engine.handle_line(line));
                        bare.push(began.elapsed().as_nanos() as f64);
                    }
                    1 => {
                        let answer = tracer
                            .time("engine.handle_line", op, None, |_| engine.handle_line(line));
                        spanned.push(began.elapsed().as_nanos() as f64);
                        outcome.tally.record(owed(expected, &answer));
                    }
                    _ => {
                        let parts = tracer.time("engine.stages", op, None, |root| {
                            rebuilt(&stage_registry, line, Some((tracer, op, root)))
                        });
                        outcome
                            .tally
                            .record(matches!(&parts, Ok(p) if owed(expected, p)));
                    }
                }
            }
        }
    }

    // The wire: the same stream, untraced then traced, each on a fresh
    // server; the traced one also reports the server's counters.
    let mut rng = Rng::new(run.seed, 2);
    let offsets = [rng.below(POOL), rng.below(POOL)];
    let mut wire = |tracer: Option<&Tracer>| {
        let load = Load {
            stream: &stream,
            offsets,
            time: WIRE_TIME,
            tracer,
            stats: tracer.is_some(),
        };
        segment(paths, &load, &mut outcome.tally)
    };
    let plain = wire(None)?;
    let traced = wire(Some(tracer))?;
    outcome.metric(
        "serve.round_trip_untraced_us",
        stats::median(&plain.latencies_ms) * 1e3,
        "us",
    );

    for rep in 0..COMPILE_REPS as u64 {
        let flows = tracer
            .time("gps.solution_flows", rep, None, |_| {
                experiments::solution_flows()
            })
            .map_err(|e| e.to_string())?;
        for (_, flow) in &flows {
            let compiled = tracer.time("moe.compile", rep, None, |_| flow.compiled());
            outcome.tally.record(compiled.is_ok());
        }
    }

    let round_trip = median_us(tracer, &["serve.round_trip"]);
    let handle_line = median_us(tracer, &["engine.handle_line"]);
    let transport = round_trip - handle_line;
    let parse = median_us(tracer, &["protocol.parse"]);
    let lookup = median_us(tracer, &["registry.lookup"]);
    let walk = median_us(tracer, &["moe.analyze", "moe.patch_analyze"]);
    let table_json = median_us(tracer, &["report.table_json"]);
    let render = median_us(tracer, &["report.render_compact"]);
    outcome.metric("serve.round_trip_us", round_trip, "us");
    outcome.metric("engine.handle_line_us", handle_line, "us");
    outcome.metric("serve.transport_us", transport, "us");
    outcome.metric("protocol.parse_us", parse, "us");
    outcome.metric("registry.lookup_us", lookup, "us");
    outcome.metric("moe.analyze_us", median_us(tracer, &["moe.analyze"]), "us");
    outcome.metric(
        "moe.patch_analyze_us",
        median_us(tracer, &["moe.patch_analyze"]),
        "us",
    );
    outcome.metric("report.table_json_us", table_json, "us");
    outcome.metric("report.render_compact_us", render, "us");
    // ROADMAP's "stage timings that add up": the in-process stages of
    // each request, summed, must account for `handle_line` within 10 %;
    // transport is the rest of the wire round trip. A miss is a failure.
    let stage_sum = stats::median(&stage_sums(tracer)) / 1e3;
    let ratio = stage_sum / handle_line;
    outcome.metric("serve.stage_sum_ratio", ratio, "ratio");
    if !outcome.tally.record((ratio - 1.0).abs() <= 0.10) {
        eprintln!(
            "perfbench: serve stages add up to {stage_sum:.2} us, not within 10% \
             of handle_line {handle_line:.2} us (parse {parse:.2}, lookup {lookup:.2}, \
             walk {walk:.2}, table/json {table_json:.2}, render {render:.2})"
        );
    }
    outcome.metric("moe.compile_us", median_us(tracer, &["moe.compile"]), "us");
    outcome.metric(
        "gps.solution_flows_ms",
        median_us(tracer, &["gps.solution_flows"]) / 1e3,
        "ms",
    );

    let counters = traced.stats.ok_or("the traced server answered no stats")?;
    let counter = |section: &str, name: &str| {
        json::field_value(&counters, section)
            .and_then(|s| json::number_field(s, name))
            .ok_or(format!("stats has no {section}.{name}: {counters}"))
    };
    outcome.metric(
        "serve.batch_size",
        counter("serve", "batched_requests")? / counter("serve", "batches")?,
        "requests",
    );
    outcome.metric(
        "serve.bytes_out_per_req",
        counter("serve", "bytes_out")? / counter("serve", "requests")?,
        "B",
    );
    let (hits, misses) = (counter("cache", "hits")?, counter("cache", "misses")?);
    outcome.metric("registry.hit_ratio", hits / (hits + misses), "ratio");
    Ok((stats::median(&spanned) / stats::median(&bare) - 1.0) * 100.0)
}
