//! The served run: a real [`Service`] on loopback driven by one generator
//! with two threads and two connections.
//!
//! The main thread owns the ingest connection (`TICK`, `REGISTER`,
//! `UNREGISTER`, `STATS`) and writes the subscriber connection's few
//! requests (`SUBSCRIBE`, `PING`, `SNAPSHOT`, `QUIT`). A second thread
//! reads the subscriber connection: it parses every line, applies every
//! push to its mirror, and hands replies back over a channel.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tkm_common::{QueryId, Scored};
use tkm_datagen::QueryGen;
use tkm_service::{
    apply_push, parse_server_line, Push, Reply, Request, ServerLine, Service, ServiceConfig,
};

use crate::workload::{spec_of, Inputs, Op, Workload};

/// How long any blocking read may wait before the run is declared hung.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Requests written per pipelined batch during set-up.
const PIPELINE: usize = 256;

/// Reassembles `\n`-terminated lines from a socket.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            head: 0,
        }
    }

    /// Reads the next line into `out` (terminator stripped). `Ok(false)`
    /// when the socket's read timeout expired first.
    fn read_line(&mut self, out: &mut String) -> io::Result<bool> {
        loop {
            if let Some(pos) = self.buf[self.head..].iter().position(|&b| b == b'\n') {
                let end = self.head + pos;
                let text = std::str::from_utf8(&self.buf[self.head..end])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                out.clear();
                out.push_str(text);
                self.head = end + 1;
                return Ok(true);
            }
            self.buf.drain(..self.head);
            self.head = 0;
            let len = self.buf.len();
            self.buf.resize(len + (64 << 10), 0);
            let got = self.stream.read(&mut self.buf[len..]);
            self.buf.truncate(len + *got.as_ref().unwrap_or(&0));
            match got {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One `DELTA` the subscriber applied.
#[derive(Clone, Copy, Debug)]
pub struct DeltaSeen {
    /// The query it changed.
    pub query: QueryId,
    /// The tick it belongs to.
    pub at: u64,
    /// When its line was read off the socket.
    pub read: Instant,
    /// When it was applied to the mirror.
    pub applied: Instant,
    /// Line bytes, terminator included.
    pub bytes: u32,
    /// `parse_server_line` time, recorded while tracing (else 0).
    pub parse_ns: u32,
}

/// What the subscriber thread saw.
#[derive(Debug, Default)]
pub struct SubOutcome {
    /// Results rebuilt from `SNAPSHOT` baselines and `DELTA`s.
    pub mirror: BTreeMap<QueryId, Vec<Scored>>,
    /// Every `DELTA` applied, in arrival order.
    pub deltas: Vec<DeltaSeen>,
    /// `RESYNC` pushes.
    pub resyncs: u64,
    /// Lines that did not parse.
    pub garbled: u64,
}

fn subscriber_loop(
    mut reader: LineReader,
    replies: &Sender<Reply>,
    tracing: &AtomicBool,
) -> SubOutcome {
    let mut out = SubOutcome::default();
    let mut line = String::new();
    while let Ok(got) = reader.read_line(&mut line) {
        if !got {
            continue;
        }
        let read = Instant::now();
        let parsed = parse_server_line(&line);
        let parse_ns = if tracing.load(Ordering::Relaxed) {
            read.elapsed().as_nanos().max(1) as u32
        } else {
            0
        };
        match parsed {
            Ok(ServerLine::Push(push)) => {
                apply_push(&mut out.mirror, &push);
                let applied = Instant::now();
                match push {
                    Push::Delta { at, delta } => out.deltas.push(DeltaSeen {
                        query: delta.query,
                        at: at.0,
                        read,
                        applied,
                        bytes: line.len() as u32 + 1,
                        parse_ns,
                    }),
                    Push::Resync { .. } => out.resyncs += 1,
                    _ => {}
                }
            }
            Ok(ServerLine::Reply(reply)) => {
                let bye = reply == Reply::OkBye;
                if replies.send(reply).is_err() || bye {
                    break;
                }
            }
            Err(_) => out.garbled += 1,
        }
    }
    out
}

/// The subscriber connection: the main thread's writing half plus the
/// reading thread.
struct Subscriber {
    writer: TcpStream,
    replies: Receiver<Reply>,
    thread: JoinHandle<SubOutcome>,
    tracing: Arc<AtomicBool>,
    /// Requests sent.
    sent: u64,
}

impl Subscriber {
    fn connect(addr: SocketAddr) -> Result<Subscriber, String> {
        let writer = TcpStream::connect(addr).map_err(io_err("subscriber connect"))?;
        writer.set_nodelay(true).map_err(io_err("nodelay"))?;
        let reader = LineReader::new(writer.try_clone().map_err(io_err("clone"))?);
        let (tx, replies) = mpsc::channel();
        let tracing = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&tracing);
        let thread = std::thread::spawn(move || subscriber_loop(reader, &tx, &flag));
        Ok(Subscriber {
            writer,
            replies,
            thread,
            tracing,
            sent: 0,
        })
    }

    /// Sends `reqs` pipelined and returns their replies in order.
    fn call(&mut self, reqs: &[Request]) -> Result<Vec<Reply>, String> {
        let mut out = String::new();
        for r in reqs {
            out += &format!("{r}\n");
        }
        self.writer
            .write_all(out.as_bytes())
            .map_err(io_err("subscriber write"))?;
        self.sent += reqs.len() as u64;
        (0..reqs.len())
            .map(|_| {
                self.replies
                    .recv_timeout(WATCHDOG)
                    .map_err(|e| format!("subscriber reply: {e}"))
            })
            .collect()
    }

    /// Says `QUIT` and collects the thread's outcome and the count of
    /// requests sent.
    fn finish(mut self) -> Result<(SubOutcome, u64), String> {
        self.call(&[Request::Quit])?;
        let outcome = self
            .thread
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())?;
        Ok((outcome, self.sent))
    }
}

/// The reply a request on the ingest connection is owed.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Query(QueryId),
    Tick(u64),
    Stats,
}

/// The ingest/control connection and the script of what it sent.
struct Ingest<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    writer: TcpStream,
    reader: LineReader,
    out: Vec<u8>,
    polling: bool,
    expect: VecDeque<Expect>,
    script: Vec<Op>,
    /// Ticks sent so far (= the logical time the last one produces).
    ticks: u64,
    ticks_outstanding: usize,
    next_id: u64,
    churn: VecDeque<QueryId>,
    churn_gen: QueryGen,
    sent: u64,
    failures: u64,
    stats: Vec<(String, String)>,
    line: String,
}

impl<'a> Ingest<'a> {
    fn connect(addr: SocketAddr, w: &'a Workload, inputs: &'a Inputs) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(io_err("ingest connect"))?;
        writer.set_nodelay(true).map_err(io_err("nodelay"))?;
        writer
            .set_read_timeout(Some(WATCHDOG))
            .map_err(io_err("read timeout"))?;
        let reader = LineReader::new(writer.try_clone().map_err(io_err("clone"))?);
        Ok(Ingest {
            w,
            inputs,
            writer,
            reader,
            out: Vec::new(),
            polling: false,
            expect: VecDeque::new(),
            script: Vec::new(),
            ticks: 0,
            ticks_outstanding: 0,
            next_id: 0,
            churn: VecDeque::new(),
            churn_gen: inputs.churn_queries(w.dims).map_err(|e| e.to_string())?,
            sent: 0,
            failures: 0,
            stats: Vec::new(),
            line: String::new(),
        })
    }

    fn queue(&mut self, req: &Request, expect: Expect) {
        self.out.extend_from_slice(format!("{req}\n").as_bytes());
        self.expect.push_back(expect);
        self.sent += 1;
    }

    fn queue_register(&mut self, spec: tkm_service::QuerySpec) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let req = Request::Register {
            spec: spec.clone(),
            window: None,
        };
        self.queue(&req, Expect::Query(id));
        self.script.push(Op::Register(spec));
        id
    }

    fn queue_churn(&mut self) {
        for _ in 0..self.w.churn_pairs {
            let Some(old) = self.churn.pop_front() else {
                return;
            };
            self.queue(&Request::Unregister(old), Expect::Query(old));
            self.script.push(Op::Unregister(old));
            let spec = spec_of(&self.churn_gen.next_fn());
            let new = self.queue_register(spec);
            self.churn.push_back(new);
        }
    }

    /// Queues the next `TICK`; returns the logical time it produces.
    fn queue_tick(&mut self) -> u64 {
        let i = self.ticks as usize % self.inputs.tick_lines.len();
        self.out.extend_from_slice(&self.inputs.tick_lines[i]);
        self.ticks += 1;
        self.ticks_outstanding += 1;
        self.expect.push_back(Expect::Tick(self.ticks));
        self.sent += 1;
        self.script.push(Op::Tick(i));
        self.ticks
    }

    fn flush(&mut self) -> Result<(), String> {
        // Both halves share one file description, so polling reads would
        // make this write nonblocking too: write in blocking mode.
        let polling = self.polling;
        self.set_polling(false)?;
        self.writer
            .write_all(&self.out)
            .map_err(io_err("ingest write"))?;
        self.out.clear();
        self.set_polling(polling)
    }

    /// Switches the connection between blocking reads (bounded by the
    /// watchdog) and polling.
    fn set_polling(&mut self, on: bool) -> Result<(), String> {
        if on != self.polling {
            self.writer
                .set_nonblocking(on)
                .map_err(io_err("nonblocking"))?;
            self.polling = on;
        }
        Ok(())
    }

    /// Reads one reply, if one is there, and checks it against what its
    /// request was owed. `Ok(false)`: none arrived (at once when polling,
    /// within the watchdog otherwise).
    fn read_reply(&mut self) -> Result<bool, String> {
        if !self
            .reader
            .read_line(&mut self.line)
            .map_err(io_err("ingest read"))?
        {
            return Ok(false);
        }
        let expect = self
            .expect
            .pop_front()
            .ok_or_else(|| format!("unsolicited line on the ingest connection: {}", self.line))?;
        if let Expect::Tick(_) = expect {
            self.ticks_outstanding -= 1;
        }
        let ok = match (expect, parse_server_line(&self.line)) {
            (Expect::Query(q), Ok(ServerLine::Reply(Reply::OkQuery(r)))) => q == r,
            (Expect::Tick(at), Ok(ServerLine::Reply(Reply::OkTick { now, queued }))) => {
                now.0 == at && queued == self.w.rate
            }
            (Expect::Stats, Ok(ServerLine::Reply(Reply::OkStats(pairs)))) => {
                self.stats = pairs;
                true
            }
            _ => false,
        };
        if !ok {
            self.failures += 1;
            eprintln!("unexpected reply to {expect:?}: {}", self.line);
        }
        Ok(true)
    }

    /// Reads every owed reply.
    fn drain(&mut self) -> Result<(), String> {
        while !self.expect.is_empty() {
            if !self.read_reply()? {
                return Err("the service did not answer within the watchdog".into());
            }
        }
        Ok(())
    }

    /// One closed-loop tick: the tick's churn and its `TICK` written in
    /// one batch, then every reply read. Returns the tick's span.
    fn closed_tick(&mut self) -> Result<TickSpan, String> {
        self.queue_churn();
        let at = self.queue_tick();
        let write = Instant::now();
        self.flush()?;
        self.drain()?;
        Ok(TickSpan {
            at,
            write,
            ok: Instant::now(),
        })
    }
}

/// One closed-loop tick on the wire.
#[derive(Clone, Copy, Debug)]
pub struct TickSpan {
    /// The tick's logical time.
    pub at: u64,
    /// When its `TICK` write started.
    pub write: Instant,
    /// When its `OK` was read.
    pub ok: Instant,
}

/// One closed-loop block.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// Tuples acknowledged.
    pub tuples: u64,
    /// Wall seconds.
    pub secs: f64,
    /// CPU seconds every thread of the process ran: the service's and
    /// the generator's.
    pub cpu_secs: f64,
}

impl Block {
    /// Tuples acknowledged per wall second.
    pub fn rate(&self) -> f64 {
        self.tuples as f64 / self.secs
    }

    /// Tuples acknowledged per CPU second.
    pub fn cpu_rate(&self) -> f64 {
        self.tuples as f64 / self.cpu_secs
    }
}

/// CPU seconds the live threads of this process have run, from each
/// thread's `schedstat` (run time in ns; a guest kernel that accounts
/// steal time leaves out the time the host ran something else on the
/// vCPU). Every thread of a served run lives until the run ends, so the
/// difference between two readings is the run time in between.
pub fn process_cpu_secs() -> Result<f64, String> {
    let tasks = std::fs::read_dir("/proc/self/task").map_err(io_err("/proc/self/task"))?;
    let mut ns = 0u64;
    for task in tasks {
        let path = task
            .map_err(io_err("/proc/self/task"))?
            .path()
            .join("schedstat");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // the thread ended since the directory was read
        };
        ns += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: unreadable", path.display()))?;
    }
    Ok(ns as f64 / 1e9)
}

/// A service with both generator connections set up.
struct Served<'a> {
    service: Service,
    ingest: Ingest<'a>,
    sub: Subscriber,
}

/// Binds a service and brings it to the first measured tick: connect,
/// warm the window (warm workloads), register every query, subscribe the
/// followed ones, and turn the window over once (cold workloads).
fn set_up<'a>(w: &'a Workload, inputs: &'a Inputs) -> Result<Served<'a>, String> {
    let service = Service::bind("127.0.0.1:0", ServiceConfig::new(w.server_config()))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = service.local_addr();
    let mut ingest = Ingest::connect(addr, w, inputs)?;
    let mut sub = Subscriber::connect(addr)?;
    if !w.cold {
        for _ in 0..w.turnover_ticks() {
            ingest.closed_tick()?;
        }
    }
    for chunk in inputs.specs.chunks(PIPELINE) {
        for spec in chunk {
            ingest.queue_register(spec.clone());
        }
        ingest.flush()?;
        ingest.drain()?;
    }
    ingest
        .churn
        .extend((w.queries as u64..ingest.next_id).map(QueryId));
    for chunk in w.followed().chunks(PIPELINE) {
        let reqs: Vec<Request> = chunk.iter().map(|&q| Request::Subscribe(q)).collect();
        for (q, reply) in chunk.iter().zip(sub.call(&reqs)?) {
            if reply != Reply::OkQuery(*q) {
                ingest.failures += 1;
                eprintln!("SUBSCRIBE {q} answered {reply}");
            }
        }
    }
    ingest.script.push(Op::Follow);
    if w.cold {
        for _ in 0..w.turnover_ticks() {
            ingest.closed_tick()?;
        }
    }
    ingest.script.push(Op::Measure);
    Ok(Served {
        service,
        ingest,
        sub,
    })
}

/// Everything one served run measured and saw.
pub struct WireRun {
    /// CPU seconds of each set-up performed.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each set-up performed.
    pub setup_wall_s: Vec<f64>,
    /// The closed-loop blocks.
    pub blocks: Vec<Block>,
    /// Spans of the traced closed-loop ticks.
    pub spans: Vec<TickSpan>,
    /// Open-loop ticks, in order: logical time and scheduled send time.
    pub schedule: Vec<(u64, Instant)>,
    /// Open-loop lateness of each send behind its schedule, µs.
    pub late_us: Vec<f64>,
    /// Most ticks sent but not yet acknowledged during the open loop.
    pub max_backlog: usize,
    /// `STATS` at the end of the run.
    pub stats: BTreeMap<String, String>,
    /// The server's final `SNAPSHOT` of every followed query.
    pub snapshots: BTreeMap<QueryId, Vec<Scored>>,
    /// The subscriber thread's outcome.
    pub sub: SubOutcome,
    /// Engine-visible operations, in order.
    pub script: Vec<Op>,
    /// Requests sent over both connections.
    pub sent: u64,
    /// Replies that were `ERR` or not what their request was owed.
    pub failures: u64,
    /// Logical times of the measured ticks.
    pub measured: std::ops::RangeInclusive<u64>,
}

/// Phase lengths of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Set-ups performed: at least `.0`, and more until `.1` seconds went
    /// into them. The last one is measured.
    pub setups: (usize, f64),
    /// Closed-loop (capacity) phase length.
    pub closed: Duration,
    /// Closed-loop blocks (alternately untraced and traced when tracing).
    pub blocks: usize,
    /// Turns the closed and the open loop take.
    pub cycles: usize,
    /// Open-loop (freshness) phase length.
    pub open: Duration,
    /// Whether spans are recorded.
    pub traced: bool,
}

/// Runs the served part of a benchmark run.
pub fn run(w: &Workload, inputs: &Inputs, plan: Plan) -> Result<WireRun, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_wall_s: Vec<f64> = Vec::new();
    let mut served = None;
    let (mut earlier_sent, mut earlier_failures) = (0, 0);
    while setup_s.len() < plan.setups.0.max(1) || setup_wall_s.iter().sum::<f64>() < plan.setups.1 {
        if let Some(old) = served.take() {
            let (sent, failures) = close(old)?;
            earlier_sent += sent;
            earlier_failures += failures;
        }
        // The previous set-up's threads have all been joined, so every
        // thread that runs from here on is alive at the second reading.
        let cpu = process_cpu_secs()?;
        let t0 = Instant::now();
        served = Some(set_up(w, inputs)?);
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        setup_s.push(process_cpu_secs()? - cpu);
    }
    let Some(mut s) = served else {
        return Err("no set-up ran".into());
    };
    let first = s.ingest.ticks + 1;

    // The closed loop (capacity) and the open loop (freshness) take turns
    // in `plan.cycles` cycles, so both sample the whole run rather than
    // one stretch of it.
    let cycles = plan.cycles.max(1);
    let blocks_per_cycle = plan.blocks.div_ceil(cycles);
    let period = Duration::from_secs_f64(1.0 / w.paced_ticks_per_s);
    let per_cycle = (plan.open.as_secs_f64() * w.paced_ticks_per_s / cycles as f64)
        .round()
        .max(1.0) as usize;
    let mut blocks = Vec::with_capacity(blocks_per_cycle * cycles);
    let mut spans = Vec::new();
    let mut schedule = Vec::with_capacity(per_cycle * cycles);
    let mut late_us = Vec::with_capacity(per_cycle * cycles);
    let mut max_backlog = 0;
    for cycle in 0..cycles {
        // Capacity: closed loop, in blocks (alternately untraced and
        // traced when tracing, so the tracing overhead is measured in the
        // same run; the kind that goes first alternates between cycles,
        // because the first block after the open loop runs slower).
        for b in 0..blocks_per_cycle {
            let traced = plan.traced && (b + cycle) % 2 == 1;
            s.sub.tracing.store(traced, Ordering::Relaxed);
            let cpu = process_cpu_secs()?;
            let start = Instant::now();
            let until = start + plan.closed / (blocks_per_cycle * cycles) as u32;
            let mut tuples = 0u64;
            while Instant::now() < until {
                let span = s.ingest.closed_tick()?;
                tuples += w.rate as u64;
                if traced {
                    spans.push(span);
                }
            }
            blocks.push(Block {
                traced,
                tuples,
                secs: start.elapsed().as_secs_f64(),
                cpu_secs: process_cpu_secs()? - cpu,
            });
        }
        s.sub.tracing.store(plan.traced, Ordering::Relaxed);

        // Let the subscriber catch up before the open loop starts.
        if s.sub.call(&[Request::Ping])? != [Reply::OkPong] {
            s.ingest.failures += 1;
        }

        // Freshness: open loop on a fixed schedule. The generator spins
        // until each send is due, settling replies as they come and
        // yielding between polls: a sleeping generator wakes late, and an
        // idle vCPU wakes slowly.
        s.ingest.set_polling(true)?;
        let start = Instant::now() + Duration::from_millis(1);
        for i in 0..per_cycle {
            let due = start + period * i as u32;
            while Instant::now() < due {
                if s.ingest.expect.is_empty() || !s.ingest.read_reply()? {
                    std::thread::yield_now();
                }
            }
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            s.ingest.queue_churn();
            let at = s.ingest.queue_tick();
            s.ingest.flush()?;
            schedule.push((at, due));
            max_backlog = max_backlog.max(s.ingest.ticks_outstanding);
        }
        s.ingest.set_polling(false)?;
        s.ingest.drain()?;
    }
    let last = s.ingest.ticks;

    // Final state: the server's own snapshots (behind every push on the
    // subscriber connection), and its counters.
    let followed = w.followed();
    let reqs: Vec<Request> = followed.iter().map(|&q| Request::Snapshot(q)).collect();
    let mut snapshots = BTreeMap::new();
    for (q, reply) in followed.iter().zip(s.sub.call(&reqs)?) {
        match reply {
            Reply::OkSnapshot { query, entries, .. } if query == *q => {
                snapshots.insert(query, entries);
            }
            other => {
                s.ingest.failures += 1;
                eprintln!("SNAPSHOT {q} answered {other}");
            }
        }
    }
    s.ingest.queue(&Request::Stats, Expect::Stats);
    s.ingest.flush()?;
    s.ingest.drain()?;
    let stats = s.ingest.stats.iter().cloned().collect();
    let Served {
        service,
        ingest,
        sub,
    } = s;
    let finished = sub.finish();
    drop(ingest.writer);
    service.shutdown();
    let (outcome, sub_sent) = finished?;
    Ok(WireRun {
        setup_s,
        setup_wall_s,
        blocks,
        spans,
        schedule,
        late_us,
        max_backlog,
        stats,
        snapshots,
        sub: outcome,
        script: ingest.script,
        sent: earlier_sent + ingest.sent + sub_sent,
        failures: earlier_failures + ingest.failures,
        measured: first..=last,
    })
}

/// Tears a discarded set-up down; returns its requests sent and failed.
fn close(s: Served<'_>) -> Result<(u64, u64), String> {
    let Served {
        service,
        ingest,
        sub,
    } = s;
    let finished = sub.finish();
    service.shutdown();
    let (outcome, sub_sent) = finished?;
    let failures = ingest.failures + outcome.resyncs + outcome.garbled;
    Ok((ingest.sent + sub_sent, failures))
}
