//! The two loopback-TCP workloads against one `brokerd::net::BrokerServer`.
//!
//! * `tcp_rpc` — closed loop, one connection, one request outstanding:
//!   alternating `PUB`→ack and `FETCH`→retained packet over a few types,
//!   with a small subscription population on the same session.
//! * `tcp_stream` — open loop, one connection: a generator thread sends
//!   publishes on a fixed schedule at each rung of a rate ladder while
//!   the main thread reads acks and deliveries; a fleet-sized event and
//!   periodic subscription population is registered pipelined first.
//!
//! The server runs on a logical clock carried in every frame; both
//! workloads derive it from the request schedule, so which deliveries
//! are due is a function of the seed alone. Every expected delivery is
//! checked exactly once against the published value.

use crate::clock::{self, Stamp};
use crate::ledger::{Ledger, Verdict};
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::Outcome;
use brokerd::net::{BrokerServer, FETCH_SUB};
use brokerd::{BrokerId, ContextPacket, NodeConfig, PacketSeq, Request, Response, SubId, SubMode};
use simkit::{DetRng, SimDuration, SimTime};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

type Res<T> = Result<T, String>;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Far-future subscription expiry on the logical clock.
const SUB_EXPIRY: SimTime = SimTime::from_secs(1_000_000);
/// Lifetime of every published packet on the logical clock.
const PACKET_LIFETIME: SimDuration = SimDuration::from_secs(3_600);
/// Publisher origin stamped into every packet's sequence tag.
const ORIGIN: u64 = 1;
/// A blocking read that waits longer than this aborts the run.
const READ_PATIENCE: Duration = Duration::from_secs(10);

/// 64-bit mixer for the seeded workload inputs.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One client connection: a writer half and a line reader.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    partial: String,
}

impl Conn {
    fn open(server: &BrokerServer) -> Res<Conn> {
        let w = TcpStream::connect(server.addr()).map_err(io_err("connect"))?;
        // The benchmark's own sends go out at once; Nagle on the client
        // would add its delay to the server's.
        w.set_nodelay(true).map_err(io_err("nodelay"))?;
        let r = w.try_clone().map_err(io_err("clone"))?;
        Ok(Conn {
            w,
            r: BufReader::new(r),
            partial: String::new(),
        })
    }

    fn send(&mut self, frames: &str) -> Res<()> {
        self.w.write_all(frames.as_bytes()).map_err(io_err("write"))
    }

    /// The next raw frame; `None` when the read timed out first.
    fn poll_line(&mut self) -> Res<Option<String>> {
        match self.r.read_line(&mut self.partial) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) if self.partial.ends_with('\n') => {
                let mut line = std::mem::take(&mut self.partial);
                line.truncate(line.trim_end().len());
                Ok(Some(line))
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The next frame, waiting at most [`READ_PATIENCE`].
    fn recv_line(&mut self) -> Res<String> {
        self.r
            .get_ref()
            .set_read_timeout(Some(READ_PATIENCE))
            .map_err(io_err("timeout"))?;
        self.poll_line()?
            .ok_or_else(|| "server went silent".to_string())
    }
}

fn encode(req: &Request) -> Res<String> {
    let mut line = req.encode().map_err(|e| format!("encode: {e}"))?;
    line.push('\n');
    Ok(line)
}

fn sub_line(type_name: &str, mode: SubMode) -> Res<String> {
    encode(&Request::Sub {
        type_name: type_name.into(),
        mode,
        expires_at: SUB_EXPIRY,
        now: SimTime::from_secs(1),
    })
}

/// Registers `subs` pipelined (frames are written without waiting for
/// replies) and returns the ids in request order.
fn subscribe_all(conn: &mut Conn, subs: &[(String, SubMode)]) -> Res<Vec<SubId>> {
    let mut frames = String::new();
    for (t, mode) in subs {
        frames.push_str(&sub_line(t, *mode)?);
    }
    let mut w = conn.w.try_clone().map_err(io_err("clone"))?;
    // Replies are read while the frames are still going out, so neither
    // side's buffers hold the whole population.
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || w.write_all(frames.as_bytes()).map_err(io_err("write")));
        let mut ids = Vec::with_capacity(subs.len());
        while ids.len() < subs.len() {
            let line = conn.recv_line()?;
            match Response::decode(&line) {
                Ok(Response::Ok(tok)) => match tok.strip_prefix("sub").and_then(|n| n.parse().ok())
                {
                    Some(n) => ids.push(SubId(n)),
                    None => return Err(format!("bad SUB reply {tok:?}")),
                },
                other => return Err(format!("SUB refused: {other:?}")),
            }
        }
        writer
            .join()
            .map_err(|_| "SUB writer panicked".to_string())??;
        Ok(ids)
    })
}

/// `broker_shed_total` from the `STATS` verb.
fn shed_total(conn: &mut Conn, now: SimTime) -> Res<u64> {
    conn.send(&encode(&Request::Stats { now })?)?;
    loop {
        let line = conn.recv_line()?;
        if let Ok(Response::Stats(text)) = Response::decode(&line) {
            return text
                .lines()
                .find_map(|l| {
                    l.strip_prefix("broker_shed_total ")?
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
                .map(|v| v as u64)
                .ok_or_else(|| "STATS lacks broker_shed_total".to_string());
        }
    }
}

/// Spawns a broker and opens one session to it.
fn spawn() -> Res<(BrokerServer, Conn)> {
    let server =
        BrokerServer::spawn(BrokerId(0), NodeConfig::default()).map_err(io_err("spawn"))?;
    let conn = Conn::open(&server)?;
    Ok((server, conn))
}

/// Closes the session before the server so its threads wind down.
fn shut(server: BrokerServer, conn: Conn) {
    drop(conn);
    drop(server);
}

// ------------------------------------------------------------- tcp_rpc

/// Context types the RPC loop publishes and fetches.
const RPC_TYPES: usize = 8;
/// Event subscriptions per RPC type (on the benchmark's own session).
const RPC_EVENT_SUBS: usize = 2;
/// Event subscriptions on types the loop never publishes: the rest of
/// a small population every request's table scans walk.
const RPC_IDLE_SUBS: usize = 232;
/// Period of the one periodic subscription per RPC type.
const RPC_PERIOD: SimDuration = SimDuration::from_millis(50);
/// Logical time each request advances the clock by.
const RPC_STEP_US: u64 = 1_000;
/// Round trips run before timing starts.
const RPC_WARMUP: u64 = 8;
/// Set-ups timed per run (spawn, connect, subscribe).
const RPC_SETUPS: usize = 25;

/// The seeded request sequence of `tcp_rpc`: even requests publish a
/// fresh value to a drawn type, odd ones fetch a type already published.
pub struct RpcPlan {
    rng: DetRng,
    published: Vec<usize>,
}

/// One request of the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcOp {
    /// Publish `value` to type `t`.
    Pub { t: usize, value: i64 },
    /// Fetch type `t`.
    Fetch { t: usize },
}

impl RpcPlan {
    /// The plan of `seed`.
    pub fn new(seed: u64) -> RpcPlan {
        RpcPlan {
            rng: DetRng::derive(seed, 0x7c9_0001),
            published: Vec::new(),
        }
    }

    /// Request `k`.
    pub fn op(&mut self, k: u64) -> RpcOp {
        if k.is_multiple_of(2) || self.published.is_empty() {
            let t = self.rng.index(RPC_TYPES);
            if !self.published.contains(&t) {
                self.published.push(t);
            }
            RpcOp::Pub {
                t,
                value: (self.rng.next_u64() >> 2) as i64,
            }
        } else {
            let i = self.rng.index(self.published.len());
            RpcOp::Fetch {
                t: self.published.get(i).copied().unwrap_or_default(),
            }
        }
    }
}

fn rpc_type(t: usize) -> String {
    format!("rpc{t}")
}

/// The subscription roles of one RPC session.
struct RpcSubs {
    /// Event subscriptions per type.
    event: Vec<Vec<SubId>>,
    /// Periodic subscription → type.
    periodic: Vec<(SubId, usize)>,
}

fn rpc_setup() -> Res<(BrokerServer, Conn, RpcSubs)> {
    let (server, mut conn) = spawn()?;
    let mut wanted = Vec::new();
    for t in 0..RPC_TYPES {
        for _ in 0..RPC_EVENT_SUBS {
            wanted.push((rpc_type(t), SubMode::Event));
        }
        wanted.push((rpc_type(t), SubMode::Periodic(RPC_PERIOD)));
    }
    let roles = wanted.len();
    wanted.extend((0..RPC_IDLE_SUBS).map(|i| (format!("idle{i}"), SubMode::Event)));
    let ids = subscribe_all(&mut conn, &wanted)?;
    let mut subs = RpcSubs {
        event: vec![Vec::new(); RPC_TYPES],
        periodic: Vec::new(),
    };
    for (i, id) in ids.into_iter().take(roles).enumerate() {
        let t = i / (RPC_EVENT_SUBS + 1);
        if i % (RPC_EVENT_SUBS + 1) < RPC_EVENT_SUBS {
            subs.event[t].push(id);
        } else {
            subs.periodic.push((id, t));
        }
    }
    Ok((server, conn, subs))
}

/// `tcp_rpc`: on-demand queries, closed loop.
pub fn tcp_rpc(seed: u64, seconds: u64, tr: &mut Tracer) -> Res<Outcome> {
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..RPC_SETUPS {
        if let Some((server, conn, _)) = session.take() {
            shut(server, conn);
        }
        let id = tr.open("net.setup", 0);
        let (s, ns) = clock::timed(rpc_setup);
        tr.close(id, 1);
        session = Some(s?);
        setup_s.push(ns as f64 / 1e9);
    }
    let (server, mut conn, subs) = session.ok_or("no session")?;

    let traced_run = tr.on();
    let mut plan = RpcPlan::new(seed);
    let mut ledger = Ledger::default();
    let mut latest: Vec<Option<i64>> = vec![None; RPC_TYPES];
    let (mut rtt_untraced, mut rtt_traced) = (Vec::new(), Vec::new());
    let (mut requests, mut failed) = (0u64, 0u64);
    let start = clock::now();
    let budget_ns = seconds * 1_000_000_000;
    let mut k = 0u64;
    loop {
        let elapsed = start.elapsed_ns();
        if elapsed >= budget_ns && k > RPC_WARMUP {
            break;
        }
        // The traced run measures its first half untraced, for the
        // overhead ratio.
        let on = traced_run && elapsed >= budget_ns / 2;
        tr.set_on(on);
        let now = SimTime::from_micros(1_000_000 + k * RPC_STEP_US);
        let op = plan.op(k);
        let key = k + 1;
        let t0 = clock::now();
        let root = tr.open("net.rpc", 0);
        let req = match op {
            RpcOp::Pub { t, value } => {
                latest[t] = Some(value);
                for sub in &subs.event[t] {
                    ledger.expect(sub.0, key, value);
                }
                Request::Pub(
                    ContextPacket::new(rpc_type(t), value, now, PACKET_LIFETIME, "bench-rpc")
                        .with_seq(PacketSeq::new(ORIGIN, key)),
                )
            }
            RpcOp::Fetch { t } => Request::Fetch {
                type_name: rpc_type(t),
                now,
            },
        };
        let frame = tr.wrap("rpc.encode", root, 1, || encode(&req))?;
        tr.wrap("net.io", root, 1, || conn.send(&frame))?;
        // Deliveries pumped by this request arrive before its reply.
        loop {
            let line = tr.wrap("net.io", root, 1, || conn.recv_line())?;
            let resp = tr.wrap("rpc.decode", root, 1, || Response::decode(&line));
            let done = match (resp, &op) {
                (Ok(Response::Evt { sub, packet }), RpcOp::Fetch { t }) if sub == FETCH_SUB => {
                    failed += u64::from(
                        Some(packet.value_milli) != latest[*t] || packet.type_name != rpc_type(*t),
                    );
                    true
                }
                (Ok(Response::Evt { sub, packet }), _) => {
                    match subs.periodic.iter().find(|(id, _)| *id == sub) {
                        // A periodic delivery serves the latest retained value.
                        Some(&(_, t)) => failed += u64::from(Some(packet.value_milli) != latest[t]),
                        None => {
                            ledger.observe(sub.0, packet.seq.n, packet.value_milli);
                        }
                    }
                    false
                }
                (Ok(Response::Ok(tok)), RpcOp::Pub { .. }) => {
                    failed += u64::from(tok != "pub");
                    true
                }
                _ => {
                    failed += 1;
                    true
                }
            };
            if done {
                break;
            }
        }
        tr.close(root, 1);
        let rtt_us = t0.elapsed_ns() as f64 / 1e3;
        requests += 1;
        if k >= RPC_WARMUP {
            if on {
                rtt_traced.push(rtt_us)
            } else {
                rtt_untraced.push(rtt_us)
            }
        }
        k += 1;
    }
    tr.set_on(traced_run);
    let shed = shed_total(&mut conn, SimTime::from_micros(1_000_000 + k * RPC_STEP_US))?;
    shut(server, conn);

    let all: Vec<f64> = rtt_untraced.iter().chain(&rtt_traced).copied().collect();
    let latency = stats::summarize(&all).ok_or("no round trips")?;
    let (codec_ns, _) = tr.self_time("rpc.encode");
    let (decode_ns, _) = tr.self_time("rpc.decode");
    let (rpc_ns, _) = tr.self_time("net.rpc");
    let (io_ns, _) = tr.self_time("net.io");
    let rpc_total = (rpc_ns + io_ns + codec_ns + decode_ns).max(1) as f64;
    let failed = failed + ledger.failures() + ledger.missing();
    Ok(Outcome {
        attempted: requests + ledger.expected(),
        failed,
        setup_s,
        latency_us: latency,
        throughput_per_s: all.len() as f64 / (all.iter().sum::<f64>() / 1e6),
        peak_rss_mb: None,
        layers: vec![
            ("net.rpc_codec_share", (codec_ns + decode_ns) as f64 / rpc_total),
            ("net.backlog_max", 1.0),
            ("net.shed", shed as f64),
            ("bench.trace_overhead_ratio", stats::median(&rtt_traced) / stats::median(&rtt_untraced)),
        ],
        notes: vec![
            format!(
                "rpc: {RPC_TYPES} types, {} subscriptions, closed loop, 1 connection, 1 outstanding",
                RPC_TYPES * (RPC_EVENT_SUBS + 1) + RPC_IDLE_SUBS
            ),
            format!("round trip {}", latency.describe("us")),
            format!("requests {requests} (incl. {RPC_WARMUP} warm-up), deliveries expected {}, failed {failed}", ledger.expected()),
        ],
    })
}

// ---------------------------------------------------------- tcp_stream

/// Context types of the stream population.
pub const STREAM_TYPES: u64 = 4_096;
/// Event subscribers per type (the fan-out F).
pub const FANOUT: u64 = 4;
/// Periodic subscriptions, one each on the first types.
pub const PERIODIC_SUBS: u64 = 256;
/// Period of the periodic subscriptions (logical clock).
const STREAM_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Offered publish rates, pub/s. The first is the reference rate at
/// which delivery latency is reported; the ladder climbs until a rung
/// misses the limit.
const LADDER: [f64; 8] = [
    500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0,
];
/// Rungs of the up-down staircase run around the knee once the ladder
/// has bracketed it: each passing rung raises the rate by
/// [`STAIR_STEP`], each miss lowers it. Near the knee one short rung
/// passes or misses by chance; averaging a staircase steadies the
/// estimate.
const STAIR_RUNGS: usize = 16;
/// Rate factor between staircase rungs.
const STAIR_STEP: f64 = 1.12;
/// The latency limit on the delivery p99 (from due time).
pub const LATENCY_LIMIT_US: f64 = 100_000.0;
/// How long a rung waits for its stragglers after its schedule ends.
const DRAIN_LIMIT_NS: u64 = 10_000_000_000;
/// Set-ups timed per run (spawn, connect, register the population).
const STREAM_SETUPS: usize = 3;

/// The seeded publish sequence of `tcp_stream`: publish `k` goes to a
/// drawn type with a drawn value, both pure functions of `(seed, k)`.
#[derive(Clone, Copy, Debug)]
pub struct StreamPlan {
    seed: u64,
}

impl StreamPlan {
    /// The plan of `seed`.
    pub fn new(seed: u64) -> StreamPlan {
        StreamPlan {
            seed: mix(seed ^ 0x57_0000),
        }
    }

    /// Type index of publish `k`.
    pub fn type_of(self, k: u64) -> u64 {
        mix(self.seed ^ k.wrapping_mul(0x2545_F491_4F6C_DD1D)) % STREAM_TYPES
    }

    /// Value of publish `k`.
    pub fn value_of(self, k: u64) -> i64 {
        (mix(self.seed.rotate_left(29) ^ k) >> 2) as i64
    }

    /// Publish `k` as the packet it is, stamped `now` on the logical clock.
    pub fn packet(self, k: u64, now: SimTime) -> ContextPacket {
        ContextPacket::new(
            stream_type(self.type_of(k)),
            self.value_of(k),
            now,
            PACKET_LIFETIME,
            "bench-gen",
        )
        .with_seq(PacketSeq::new(ORIGIN, k + 1))
    }
}

/// Name of stream type `t`.
pub fn stream_type(t: u64) -> String {
    format!("s{t:04}")
}

/// The stream's subscription population, in registration order: F
/// event subscriptions per type, then the periodic ones.
pub fn stream_population() -> Vec<(String, SubMode)> {
    let mut subs = Vec::new();
    for t in 0..STREAM_TYPES {
        for _ in 0..FANOUT {
            subs.push((stream_type(t), SubMode::Event));
        }
    }
    for t in 0..PERIODIC_SUBS {
        subs.push((stream_type(t), SubMode::Periodic(STREAM_PERIOD)));
    }
    subs
}

/// Role of a subscription id in the stream session.
#[derive(Clone, Copy)]
enum Role {
    Event,
    Periodic(u64),
}

struct StreamSession {
    server: BrokerServer,
    conn: Conn,
    roles: Vec<Option<Role>>,
    event_subs: Vec<Vec<u64>>,
}

fn stream_setup() -> Res<StreamSession> {
    let (server, mut conn) = spawn()?;
    let population = stream_population();
    let ids = subscribe_all(&mut conn, &population)?;
    let mut roles = vec![None; ids.iter().map(|i| i.0 as usize + 1).max().unwrap_or(0)];
    let mut event_subs = vec![Vec::new(); STREAM_TYPES as usize];
    for (i, id) in ids.iter().enumerate() {
        let i = i as u64;
        let role = if i < STREAM_TYPES * FANOUT {
            let t = i / FANOUT;
            event_subs[t as usize].push(id.0);
            Role::Event
        } else {
            Role::Periodic(i - STREAM_TYPES * FANOUT)
        };
        roles[id.0 as usize] = Some(role);
    }
    Ok(StreamSession {
        server,
        conn,
        roles,
        event_subs,
    })
}

/// What one rung measured.
struct Rung {
    rate: f64,
    sent: u64,
    /// Publishes acked within the schedule, per second of schedule.
    achieved: f64,
    latency: Option<Summary>,
    /// Delivery p99, µs: what the latency limit applies to.
    p99_us: f64,
    late: Option<Summary>,
    late_p99_us: f64,
    backlog_max: u64,
    backlog_at_end: u64,
    failed: u64,
    attempted: u64,
}

impl Rung {
    /// Meets the latency limit with no growing backlog and every
    /// delivery in place.
    fn passes(&self) -> bool {
        let backlog_ok =
            self.backlog_at_end as f64 <= (self.rate * LATENCY_LIMIT_US / 1e6).max(16.0);
        let latency_ok = self.p99_us <= LATENCY_LIMIT_US;
        self.failed == 0 && backlog_ok && latency_ok
    }
}

/// Runs one rung: `n` publishes at `rate` from publish key `k0`, the
/// logical clock starting at `base_us`.
fn run_rung(
    s: &mut StreamSession,
    plan: StreamPlan,
    rate: f64,
    dur_ns: u64,
    k0: u64,
    base_us: u64,
) -> Res<Rung> {
    let n = ((rate * dur_ns as f64 / 1e9).round() as u64).max(1);
    let due_ns: Vec<u64> = (0..n).map(|i| (i as f64 * 1e9 / rate) as u64).collect();
    let mut ledger = Ledger::default();
    let mut frames = Vec::with_capacity(n as usize);
    for (i, &due) in due_ns.iter().enumerate() {
        let k = k0 + i as u64;
        let packet = plan.packet(k, SimTime::from_micros(base_us + due / 1_000));
        for &sub in &s.event_subs[plan.type_of(k) as usize] {
            ledger.expect(sub, k + 1, packet.value_milli);
        }
        frames.push(encode(&Request::Pub(packet))?);
    }
    let expected_events = ledger.expected();
    let sent = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let writer = s.conn.w.try_clone().map_err(io_err("clone"))?;
    let start: Stamp = clock::now().after_ns(1_000_000);
    s.conn
        .r
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(io_err("timeout"))?;

    let (gen, read) = std::thread::scope(|scope| {
        let gen = scope.spawn(|| generate(writer, &frames, &due_ns, start, &sent, &acked));
        let read = read_rung(
            s,
            plan,
            &mut ledger,
            RungWindow {
                k0,
                n,
                start,
                due_ns: &due_ns,
                expected_events,
            },
            &sent,
            &acked,
        );
        (gen.join(), read)
    });
    let gen = gen.map_err(|_| "generator panicked".to_string())??;
    let read = read?;
    let failed = read.failed + ledger.failures() + ledger.missing();
    Ok(Rung {
        rate,
        sent: n,
        achieved: read.acks_in_schedule as f64 * 1e9
            / due_ns.last().copied().unwrap_or(0).max(1) as f64,
        latency: stats::summarize(&read.latency_us),
        p99_us: stats::percentile(&read.latency_us, 990),
        late: stats::summarize(&gen.late_us),
        late_p99_us: stats::percentile(&gen.late_us, 990),
        backlog_max: read.backlog_max,
        backlog_at_end: gen.backlog_at_end,
        failed,
        attempted: n + expected_events,
    })
}

struct GenOut {
    late_us: Vec<f64>,
    backlog_at_end: u64,
}

/// The open-loop generator: sends every frame due, then sleeps until
/// the next is due. It never waits for replies.
fn generate(
    mut w: TcpStream,
    frames: &[String],
    due_ns: &[u64],
    start: Stamp,
    sent: &AtomicU64,
    acked: &AtomicU64,
) -> Res<GenOut> {
    let mut late_us = Vec::with_capacity(frames.len());
    let mut i = 0;
    let mut batch = String::new();
    while i < frames.len() {
        clock::sleep_until(start.after_ns(due_ns[i]));
        let now_ns = clock::now().ns_since(start);
        batch.clear();
        let first = i;
        while i < frames.len() && due_ns[i] <= now_ns {
            batch.push_str(&frames[i]);
            i += 1;
        }
        if i == first {
            continue;
        }
        w.write_all(batch.as_bytes()).map_err(io_err("write"))?;
        let sent_ns = clock::now().ns_since(start);
        for &due in &due_ns[first..i] {
            late_us.push(sent_ns.saturating_sub(due) as f64 / 1e3);
        }
        sent.store(i as u64, Ordering::SeqCst);
    }
    let backlog_at_end =
        frames.len() as u64 - acked.load(Ordering::SeqCst).min(frames.len() as u64);
    Ok(GenOut {
        late_us,
        backlog_at_end,
    })
}

struct RungWindow<'a> {
    k0: u64,
    n: u64,
    start: Stamp,
    due_ns: &'a [u64],
    expected_events: u64,
}

struct ReadOut {
    latency_us: Vec<f64>,
    backlog_max: u64,
    acks_in_schedule: u64,
    failed: u64,
}

/// Reads acks and deliveries until the rung is complete or has waited
/// [`DRAIN_LIMIT_NS`] past its schedule. While the rung runs, frames are
/// only timestamped and counted, so the reader takes little CPU from
/// the broker; they are decoded and checked afterwards.
fn read_rung(
    s: &mut StreamSession,
    plan: StreamPlan,
    ledger: &mut Ledger,
    win: RungWindow<'_>,
    sent: &AtomicU64,
    acked: &AtomicU64,
) -> Res<ReadOut> {
    let schedule_end = win.due_ns.last().copied().unwrap_or(0);
    let deadline = schedule_end + DRAIN_LIMIT_NS;
    let mut out = ReadOut {
        latency_us: Vec::with_capacity(win.expected_events as usize),
        backlog_max: 0,
        acks_in_schedule: 0,
        failed: 0,
    };
    let mut deliveries: Vec<(u64, String)> = Vec::with_capacity(win.expected_events as usize);
    let (mut acks, mut events) = (0u64, 0u64);
    while acks < win.n || events < win.expected_events {
        let Some(line) = s.conn.poll_line()? else {
            if win.start.elapsed_ns() > deadline {
                break;
            }
            continue;
        };
        let now_ns = clock::now().ns_since(win.start);
        if line == "OK pub" {
            acks += 1;
            acked.store(acks, Ordering::SeqCst);
            if now_ns <= schedule_end {
                out.acks_in_schedule += 1;
            }
            out.backlog_max = out
                .backlog_max
                .max(sent.load(Ordering::SeqCst).saturating_sub(acks));
        } else if line.starts_with("EVT ") {
            let sub = line.split(' ').nth(1).and_then(|t| t.parse::<usize>().ok());
            if let Some(Some(Role::Event)) = sub.and_then(|i| s.roles.get(i)) {
                events += 1;
            }
            deliveries.push((now_ns, line));
        } else {
            out.failed += 1;
        }
    }
    for (now_ns, line) in deliveries {
        let Ok(Response::Evt { sub, packet }) = Response::decode(&line) else {
            out.failed += 1;
            continue;
        };
        let k = packet.seq.n.wrapping_sub(1);
        match s.roles.get(sub.0 as usize).copied().flatten() {
            Some(Role::Event) => {
                if ledger.observe(sub.0, packet.seq.n, packet.value_milli) == Verdict::Ok {
                    if let Some(&due) = k
                        .checked_sub(win.k0)
                        .and_then(|i| win.due_ns.get(i as usize))
                    {
                        out.latency_us.push(now_ns.saturating_sub(due) as f64 / 1e3);
                    }
                }
            }
            // A periodic delivery re-serves some earlier publish of its
            // own type, unchanged.
            Some(Role::Periodic(t)) => {
                let ok = packet.seq.origin == ORIGIN
                    && k < win.k0 + win.n
                    && plan.type_of(k) == t
                    && packet.value_milli == plan.value_of(k);
                out.failed += u64::from(!ok);
            }
            None => out.failed += 1,
        }
    }
    Ok(out)
}

/// `tcp_stream`: the open-loop rate ladder.
pub fn tcp_stream(seed: u64, seconds: u64, tr: &mut Tracer) -> Res<Outcome> {
    // The session the run uses is the first set-up; the others are timed
    // after the ladder, so the memory peak below sees one broker only.
    let timed_setup = |tr: &mut Tracer| -> Res<(StreamSession, f64)> {
        let id = tr.open("net.setup", 0);
        let (s, ns) = clock::timed(stream_setup);
        tr.close(id, STREAM_TYPES * FANOUT + PERIODIC_SUBS);
        Ok((s?, ns as f64 / 1e9))
    };
    let (mut s, first_setup_s) = timed_setup(tr)?;
    let mut setup_s = vec![first_setup_s];
    let plan = StreamPlan::new(seed);
    // The run's time budget: a tenth for the reference rung, a
    // twentieth per ladder rung, a twenty-fourth per staircase rung.
    let budget_ns = seconds * 1_000_000_000;
    let traced_run = tr.on();
    let mut k0 = 0u64;
    let mut base_us = 2_000_000u64;
    let mut run = |s: &mut StreamSession, tr: &mut Tracer, rate: f64, dur_ns: u64| -> Res<Rung> {
        let id = tr.open("stream.rung", 0);
        let rung = run_rung(s, plan, rate, dur_ns, k0, base_us)?;
        tr.close(id, rung.sent);
        k0 += rung.sent;
        base_us += dur_ns / 1_000 + 1_000_000;
        Ok(rung)
    };

    // The traced run repeats the reference rung untraced first, for the
    // overhead ratio.
    let untraced_ref = if traced_run {
        tr.set_on(false);
        let r = run(&mut s, tr, LADDER[0], budget_ns / 10)?;
        tr.set_on(true);
        Some(r)
    } else {
        None
    };
    let reference = run(&mut s, tr, LADDER[0], budget_ns / 10)?;
    // Peak memory before any rung overloads the server: the overload
    // backlog a ladder miss builds up varies from run to run.
    let peak_rss_mb = crate::peak_rss_mb();
    let mut ladder = Vec::new();
    let mut miss = None;
    for rate in &LADDER[1..] {
        let rung = run(&mut s, tr, *rate, budget_ns / 20)?;
        let passed = rung.passes();
        ladder.push(rung);
        if !passed {
            miss = Some(*rate);
            break;
        }
    }
    let mut stairs = Vec::new();
    if let Some(hi) = miss {
        let mut rate = (hi * hi / 2.0).sqrt().round();
        for _ in 0..STAIR_RUNGS {
            let rung = run(&mut s, tr, rate, budget_ns / 24)?;
            rate = if rung.passes() {
                rate * STAIR_STEP
            } else {
                rate / STAIR_STEP
            }
            .round();
            stairs.push(rung);
        }
    }
    let shed = shed_total(&mut s.conn, SimTime::from_micros(base_us))?;
    shut(s.server, s.conn);
    for _ in 1..STREAM_SETUPS {
        let (extra, secs) = timed_setup(tr)?;
        shut(extra.server, extra.conn);
        setup_s.push(secs);
    }

    // Sustained rate: the median achieved rate of the staircase rungs from
    // its first reversal on, where it oscillates about the knee (the
    // best passing ladder rung when the ladder never missed).
    let first_reversal = stairs
        .windows(2)
        .position(|w| w[0].passes() != w[1].passes())
        .map_or(stairs.len(), |i| i + 1);
    let settled = stairs.get(first_reversal..).unwrap_or(&[]);
    let sustained = if settled.is_empty() {
        ladder
            .iter()
            .chain([&reference])
            .filter(|r| r.passes())
            .map(|r| r.achieved)
            .fold(0.0, f64::max)
    } else {
        stats::median(&settled.iter().map(|r| r.achieved).collect::<Vec<_>>())
    };
    let backlog_max = settled
        .iter()
        .filter(|r| r.passes())
        .map(|r| r.backlog_max)
        .max()
        .unwrap_or(0);
    let latency = reference
        .latency
        .ok_or("no deliveries at the reference rate")?;
    let mut notes = vec![format!(
        "stream: {STREAM_TYPES} types x {FANOUT} event subs + {PERIODIC_SUBS} periodic, 1 connection, generator + reader threads, limit: delivery p99 <= {LATENCY_LIMIT_US} us and no growing backlog"
    )];
    let rungs: Vec<&Rung> = untraced_ref
        .iter()
        .chain([&reference])
        .chain(&ladder)
        .chain(&stairs)
        .collect();
    for r in &rungs {
        notes.push(format!(
            "rung {:>7.0}/s: sent {} achieved {:.0}/s, delivery {}, late {}, backlog max {} at end {}, failed {} -> {}",
            r.rate,
            r.sent,
            r.achieved,
            r.latency.map_or("none".into(), |l| l.describe("us")),
            r.late.map_or("none".into(), |l| l.describe("us")),
            r.backlog_max,
            r.backlog_at_end,
            r.failed,
            if r.passes() { "pass" } else { "miss" }
        ));
    }
    notes.push(format!("sustained {sustained:.1} pub/s: median achieved over the {} staircase rungs after the first reversal", settled.len()));
    let overhead = untraced_ref
        .as_ref()
        .and_then(|u| Some(latency.p50 / u.latency?.p50))
        .unwrap_or(0.0);
    Ok(Outcome {
        attempted: rungs.iter().map(|r| r.attempted).sum(),
        failed: rungs.iter().map(|r| r.failed).sum(),
        setup_s,
        latency_us: latency,
        throughput_per_s: sustained,
        peak_rss_mb: Some(peak_rss_mb),
        layers: vec![
            ("net.backlog_max", backlog_max as f64),
            ("net.shed", shed as f64),
            ("gen.late_p99_us", reference.late_p99_us),
            ("bench.trace_overhead_ratio", overhead),
        ],
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_plan_is_a_function_of_the_seed() {
        let ops = |seed| {
            let mut p = RpcPlan::new(seed);
            (0..200).map(|k| p.op(k)).collect::<Vec<_>>()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
        // Every fetch names a type published earlier.
        let mut seen = Vec::new();
        for op in ops(7) {
            match op {
                RpcOp::Pub { t, .. } => seen.push(t),
                RpcOp::Fetch { t } => assert!(seen.contains(&t)),
            }
        }
    }

    #[test]
    fn stream_plan_is_a_function_of_the_seed() {
        let draws = |seed| {
            let p = StreamPlan::new(seed);
            (0..500)
                .map(|k| (p.type_of(k), p.value_of(k)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(11), draws(11));
        assert_ne!(draws(11), draws(12));
        assert!(draws(11).iter().all(|&(t, v)| t < STREAM_TYPES && v >= 0));
        let p = StreamPlan::new(11).packet(5, SimTime::from_secs(3));
        assert_eq!(
            (p.seq.n, p.value_milli),
            (6, StreamPlan::new(11).value_of(5))
        );
    }

    #[test]
    fn population_is_fleet_sized_with_fanout_per_type() {
        let pop = stream_population();
        assert_eq!(pop.len() as u64, STREAM_TYPES * FANOUT + PERIODIC_SUBS);
        assert!(pop.len() >= 10_000);
        assert_eq!(
            pop.iter()
                .filter(|(t, m)| t == "s0007" && *m == SubMode::Event)
                .count() as u64,
            FANOUT
        );
    }
}
