//! `serve-zipf`: an open loop of requests against an in-process daemon.
//!
//! The daemon is the program's own (`start_daemon`, or `Server::bind`
//! around a traced `CliHandler`) with a fresh cache directory, listening
//! on a Unix socket. The benchmark holds one connection: a writer thread
//! sends every request at its due time whatever the daemon is doing, and
//! a reader thread collects the events. Latency is timed from each
//! request's due time, so a stall also delays the requests queued behind
//! it — unless the writer itself woke late for a request it was idle
//! waiting to send (see [`Sent::origin`]).
//!
//! Phases, in order: warm-up (excluded from every figure), a low fixed
//! rate, a high fixed rate, then saturation: a rate the daemon cannot keep
//! up with, over which its answers per second are counted.
//!
//! Traffic: a hot head of suite files, all answered during warm-up, and a
//! cold tail of modules generated afresh for each request that draws it,
//! so the store serves hits on the head and takes puts on the tail for the
//! whole run. `WORKLOADS.md` says where each traffic parameter comes from.

use crate::idle::IdlePoll;
use crate::layers::{self, tracing_overhead, zero_all};
use crate::stats::{geo_mean, median, ms, peak_rss_mb, quantile, tail};
use crate::trace::{identity_key, Span, TracedHandler, Tracer};
use crate::{Options, Report, Scale};
use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_check::{observe, Behaviour, Limits};
use optinline_cli::serve::{start_daemon, CliHandler, ServeConfig};
use optinline_cli::{
    cmd_autotune_measured, cmd_optimize_measured, cmd_search_measured, EvalOptions, InitChoice,
    Objective, OptimizeOptions, StrategyChoice, TargetChoice,
};
use optinline_core::{space_size, try_build_inlining_tree};
use optinline_ir::{Linkage, Module};
use optinline_serve::proto::{decode_event, encode_request};
use optinline_serve::{
    Endpoint, Event, Reply, Request, RequestKind, ServeOptions, Server, ServerHandle,
};
use optinline_store::{LocalStore, StoreOptions};
use optinline_workloads::rng::StdRng;
use optinline_workloads::{generate_file, spec_suite, GenParams};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The low fixed rate, requests per second (about 15% of the rate the
/// seed commit sustains on the reference machine; `WORKLOADS.md` says why
/// the fixed rates sit below the 30% and 80% first intended).
pub const LOW_RPS: f64 = 30.0;
/// The high fixed rate (about 40% of the sustained rate). Its phase sends
/// enough requests for the tail to be the p99 of the whole phase.
pub const HIGH_RPS: f64 = 85.0;
/// The saturation phase's send rate: well above the 150–240 req/s the
/// daemon answers on the reference machine, so that it always has a
/// backlog and `ops_per_s` counts what it answers, not what it is sent.
pub const SATURATION_RPS: f64 = 450.0;
/// Share of the saturation phase that builds the backlog before answers
/// are counted.
pub const SATURATION_FILL: f64 = 0.15;
/// Consecutive segments of the high phase that `op_tail_ms` is taken
/// over: the median of their [`SEGMENT_TAIL`] latencies.
pub const TAIL_SEGMENTS: usize = 5;
/// Percentile of each segment's tail. A segment holds about 200 requests,
/// so the p95 has at least 10 samples beyond it.
pub const SEGMENT_TAIL: f64 = 0.95;
/// Zipf exponent of module popularity within the hot head (YCSB's default
/// request skew; an assumption, see `WORKLOADS.md`).
pub const ZIPF_S: f64 = 0.99;
/// Suite files in the hot head.
pub const HEAD_SUITE: usize = 24;
/// Share of module-carrying requests that go to the cold tail: a module
/// generated for that request alone (an assumption, see `WORKLOADS.md`).
pub const COLD_SHARE: f64 = 0.1;
/// Internal functions of a cold-tail module. One gives a search space of a
/// few points, so a cold answer costs about as much as a warm one and the
/// tail loads the store's put path rather than the compile path, which
/// search-suite measures.
const COLD_INTERNAL: usize = 1;
/// Seed of the fixed head: which suite files.
const HEAD_DRAW_SEED: u64 = 0x9e37_79b9;
/// `--bits` of every search request; every module fits under it.
pub const SEARCH_BITS: u32 = 7;
/// Request mix weights: ping, search, autotune, optimize. Search and
/// autotune, the kinds the daemon answers from its store, carry three
/// quarters of the traffic.
const MIX: [(Kind, u64); 4] =
    [(Kind::Ping, 5), (Kind::Search, 45), (Kind::Autotune, 30), (Kind::Optimize, 20)];
/// Share of evaluation requests under the speed or the pareto objective
/// (split evenly); the rest optimize size.
pub const CYCLES_SHARE: f64 = 0.2;
/// In-process reference runs per run (seeded sample of distinct requests).
const REFERENCE_SAMPLE: usize = 12;
/// How long the loop waits for stragglers after the last send.
const DRAIN_WAIT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Ping,
    Search,
    Autotune,
    Optimize,
}

/// Load phases; figures are computed per phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Warmup,
    Low,
    High,
    Saturation,
}

/// One module of the pool, as the text clients send.
#[derive(Debug)]
struct PoolModule {
    name: String,
    source: String,
    module: Module,
}

/// One scheduled request.
#[derive(Clone, Debug)]
struct Op {
    kind: Kind,
    module: usize,
    objective: Objective,
}

fn space_under(module: &Module, bits: u32) -> Option<u128> {
    let graph = InlineGraph::from_module(module);
    try_build_inlining_tree(&graph, PartitionStrategy::Paper, 1u128 << bits).map(|t| space_size(&t))
}

/// Whether `module` has a search space of more than one point under
/// [`SEARCH_BITS`].
fn searchable(module: &Module) -> bool {
    space_under(module, SEARCH_BITS).is_some_and(|s| s > 1)
}

fn pool_module(module: Module) -> PoolModule {
    PoolModule { name: module.name.clone(), source: module.to_string(), module }
}

/// Builds the hot head in popularity order (index 0 is the most popular):
/// a fixed draw of suite files searchable under [`SEARCH_BITS`]. The head
/// does not depend on the run's seed — the seed draws the request stream
/// and the cold tail — so runs with different seeds load the same head.
fn build_head(scale: Scale) -> Vec<PoolModule> {
    let suite_scale = match scale {
        Scale::Full => optinline_workloads::Scale::Full,
        Scale::Small => optinline_workloads::Scale::Small,
    };
    let n = head_len(scale);
    let mut suite: Vec<Module> =
        spec_suite(suite_scale).into_iter().flat_map(|b| b.files).filter(searchable).collect();
    let mut fixed = StdRng::seed_from_u64(HEAD_DRAW_SEED);
    let mut head = Vec::new();
    while head.len() < n && !suite.is_empty() {
        head.push(pool_module(suite.swap_remove(fixed.gen_range(0..suite.len()))));
    }
    head
}

/// Suite files in the hot head at `scale`.
fn head_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => HEAD_SUITE,
        Scale::Small => 8,
    }
}

/// Draws the request stream.
struct Draw {
    rng: StdRng,
    zipf_cdf: Vec<f64>,
    cold: u64,
}

impl Draw {
    fn new(seed: u64, head: usize) -> Draw {
        let weights: Vec<f64> = (1..=head).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Draw { rng: StdRng::seed_from_u64(seed ^ 0xd1ce_5eed), zipf_cdf, cold: 0 }
    }

    /// The next request. A cold-tail draw generates its module and appends
    /// it to `pool`.
    fn next(&mut self, pool: &mut Vec<PoolModule>) -> Op {
        let total: u64 = MIX.iter().map(|(_, w)| w).sum();
        let mut pick = self.rng.gen_range(0..total);
        let kind = MIX
            .iter()
            .find(|(_, w)| {
                let hit = pick < *w;
                pick = pick.saturating_sub(*w);
                hit
            })
            .map_or(Kind::Ping, |(k, _)| *k);
        let objective = if self.rng.gen_bool(CYCLES_SHARE) {
            if self.rng.gen_bool(0.5) {
                Objective::Speed
            } else {
                Objective::Pareto
            }
        } else {
            Objective::Size
        };
        let module = if kind == Kind::Ping {
            0
        } else if self.rng.gen_bool(COLD_SHARE) {
            pool.push(self.cold_module());
            pool.len() - 1
        } else {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            self.zipf_cdf.partition_point(|&c| c < u).min(self.zipf_cdf.len() - 1)
        };
        Op { kind, module, objective }
    }

    /// A small generated module no earlier request carried.
    fn cold_module(&mut self) -> PoolModule {
        loop {
            self.cold += 1;
            let params = GenParams {
                n_internal: COLD_INTERNAL,
                ..GenParams::named(format!("cold{}.ir", self.cold), self.rng.gen_range(0..u64::MAX))
            };
            let module = generate_file(&params);
            if searchable(&module) {
                return pool_module(module);
            }
        }
    }
}

fn request_kind(op: &Op, pool: &[PoolModule], stats: bool) -> RequestKind {
    let source = pool[op.module].source.clone();
    let target = "x86".to_string();
    let objective = op.objective.name().to_string();
    match op.kind {
        Kind::Ping => RequestKind::Ping,
        Kind::Search => RequestKind::Search {
            source,
            target,
            bits: SEARCH_BITS,
            full_eval: false,
            stats,
            pass_stats: false,
            objective,
        },
        Kind::Autotune => RequestKind::Autotune {
            source,
            target,
            rounds: 1,
            init: "both".into(),
            full_eval: false,
            stats,
            pass_stats: false,
            objective,
        },
        Kind::Optimize => RequestKind::Optimize {
            source,
            target,
            strategy: "heuristic".into(),
            full_sweep: false,
            pass_stats: false,
            objective,
        },
    }
}

/// What the reader saw for one request.
#[derive(Clone, Debug, Default)]
struct Seen {
    started: Option<Instant>,
    terminal: Option<Instant>,
    outcome: Option<Result<Reply, String>>,
}

/// One request as sent.
#[derive(Clone, Debug)]
struct Sent {
    op: Op,
    phase: Phase,
    identity: Option<u128>,
    due: Instant,
    /// Where its latency is timed from: the due time, or — when the writer
    /// was idle, waiting for the due time, and its timer woke it late —
    /// the moment it woke. That lateness is the load generator's own, not
    /// the daemon's, which cannot see a request before it is sent: the
    /// writer shares two CPUs with the daemon's threads and waits its turn
    /// to run, up to a few milliseconds (`loadgen.lag_p99_ms`). A writer
    /// that is late because a send blocked on the daemon's back-pressure
    /// was not idle at the due time, so that delay still counts.
    origin: Instant,
    sent: Instant,
    warm: bool,
}

#[derive(Default)]
struct Shared {
    sent: BTreeMap<u64, Sent>,
    seen: HashMap<u64, Seen>,
    done_identities: HashSet<u128>,
    finished: usize,
    reader_error: Option<String>,
}

struct Loop {
    shared: Mutex<Shared>,
    changed: Condvar,
}

impl Loop {
    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared.lock().expect("the load-generator reader panicked")
    }
}

fn read_events(stream: UnixStream, state: &Loop) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) => {
                state.lock().reader_error = Some(e.to_string());
                state.changed.notify_all();
                return;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let now = Instant::now();
        let event = match decode_event(line.trim_end()) {
            Ok(event) => event,
            Err(e) => {
                state.lock().reader_error = Some(format!("undecodable event: {e}"));
                continue;
            }
        };
        let mut s = state.lock();
        let (id, outcome) = match event {
            Event::Started { id, .. } => {
                s.seen.entry(id).or_default().started.get_or_insert(now);
                continue;
            }
            Event::Progress { id, note } => {
                if note.starts_with("evaluating") {
                    s.seen.entry(id).or_default().started.get_or_insert(now);
                }
                continue;
            }
            Event::Queued { .. } | Event::Stats { .. } | Event::ShuttingDown { .. } => continue,
            Event::Pong { id } => {
                (id, Ok(Reply { report: String::new(), module: None, measurement: None }))
            }
            Event::Done { id, report, module, measurement, .. } => {
                (id, Ok(Reply { report, module, measurement }))
            }
            Event::Error { id, message } => (id, Err(format!("error: {message}"))),
            Event::Rejected { id, reason } => (id, Err(format!("rejected: {reason}"))),
        };
        if let Some(identity) = s.sent.get(&id).and_then(|r| r.identity) {
            if outcome.is_ok() {
                s.done_identities.insert(identity);
            }
        }
        let seen = s.seen.entry(id).or_default();
        if seen.terminal.is_none() {
            seen.terminal = Some(now);
            seen.outcome = Some(outcome);
            s.finished += 1;
        }
        drop(s);
        state.changed.notify_all();
    }
}

/// Sleeps until `due` (coarse sleep, then a short spin).
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The running daemon and where its state lives.
struct Daemon {
    handle: ServerHandle,
    socket: PathBuf,
    cache: PathBuf,
}

fn start(dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Daemon, String> {
    let cache = dir.join("cache");
    let socket = dir.join("d.sock");
    let _ = std::fs::remove_dir_all(&cache);
    let endpoint = Endpoint::Unix(socket.clone());
    let handle = match tracer {
        None => start_daemon(ServeConfig {
            endpoint,
            cache_dir: Some(cache.clone()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the daemon: {e}"))?,
        Some(t) => {
            let handler = CliHandler::new(Some(cache.clone()), None)
                .map_err(|e| format!("opening the daemon store: {e}"))?;
            let handler = TracedHandler::new(handler, Arc::clone(t));
            Server::bind(endpoint, Box::new(handler), ServeOptions::default())
                .map_err(|e| format!("binding the daemon: {e}"))?
                .start()
        }
    };
    Ok(Daemon { handle, socket, cache })
}

/// A ping round trip on a fresh connection: the daemon is up.
fn ping(socket: &Path) -> Result<UnixStream, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("dialing the daemon: {e}"))?;
    let line = encode_request(&Request::new(0, RequestKind::Ping));
    stream.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    match decode_event(reply.trim_end()) {
        Ok(Event::Pong { id: 0 }) => Ok(stream),
        other => Err(format!("expected pong, got {other:?}")),
    }
}

fn stop(daemon: Daemon) -> Result<optinline_serve::ServerStats, String> {
    daemon.handle.drain();
    daemon.handle.join().map_err(|e| format!("daemon exited with {e}"))
}

/// The rate schedule after warm-up: `(phase, rate, duration)`.
fn fixed_phases(seconds: Duration) -> [(Phase, f64, Duration); 2] {
    let s = seconds.as_secs_f64();
    [
        (Phase::Low, LOW_RPS, Duration::from_secs_f64(0.1 * s)),
        (Phase::High, HIGH_RPS, Duration::from_secs_f64(0.6 * s)),
    ]
}

/// The saturation phase takes the rest of the run.
fn saturation_length(seconds: Duration) -> Duration {
    seconds.mul_f64(0.3)
}

/// Sends one request at `due` and records it.
#[allow(clippy::too_many_arguments)]
fn send(
    writer: &mut UnixStream,
    state: &Loop,
    id: u64,
    op: Op,
    phase: Phase,
    due: Instant,
    pool: &[PoolModule],
    stats: bool,
) -> Result<(), String> {
    let kind = request_kind(&op, pool, stats);
    let identity = kind.identity();
    let line = format!("{}\n", encode_request(&Request::new(id, kind)));
    let idle = Instant::now() < due;
    wait_until(due);
    let origin = if idle { Instant::now() } else { due };
    {
        let mut s = state.lock();
        // Only search and autotune answers come from the daemon's store.
        let stored = matches!(op.kind, Kind::Search | Kind::Autotune);
        let warm = stored && identity.is_some_and(|i| s.done_identities.contains(&i));
        s.sent.insert(id, Sent { op, phase, identity, due, origin, sent: Instant::now(), warm });
    }
    writer.write_all(line.as_bytes()).map_err(|e| format!("sending request {id}: {e}"))
}

/// Drives the open loop; returns when the saturation phase started and
/// ended.
fn drive(
    stream: UnixStream,
    state: &Loop,
    pool: &mut Vec<PoolModule>,
    opts: &Options,
) -> Result<(Instant, Instant), String> {
    let mut writer = stream;
    let mut draw = Draw::new(opts.seed, pool.len());
    let mut id = 1u64;
    // Warm-up: every request the head can produce, at once.
    let now = Instant::now();
    for module in 0..pool.len() {
        for kind in [Kind::Search, Kind::Autotune, Kind::Optimize] {
            for objective in [Objective::Size, Objective::Speed, Objective::Pareto] {
                let op = Op { kind, module, objective };
                send(&mut writer, state, id, op, Phase::Warmup, now, pool, opts.trace)?;
                id += 1;
            }
        }
    }
    {
        let mut s = state.lock();
        while s.finished < s.sent.len() && s.reader_error.is_none() {
            s = state.changed.wait_timeout(s, Duration::from_millis(50)).expect("reader").0;
        }
    }
    let mut at = Instant::now() + Duration::from_millis(5);
    for (phase, rate, len) in fixed_phases(opts.seconds) {
        let n = (rate * len.as_secs_f64()).round() as u64;
        for k in 0..n {
            let due = at + Duration::from_secs_f64(k as f64 / rate);
            let op = draw.next(pool);
            send(&mut writer, state, id, op, phase, due, pool, opts.trace)?;
            id += 1;
        }
        at += len;
    }
    // Saturation. While the daemon holds requests back, the writer blocks,
    // falls behind the schedule and, at the end of the phase, drops what it
    // has not sent yet.
    let end = at + saturation_length(opts.seconds);
    let n = (SATURATION_RPS * saturation_length(opts.seconds).as_secs_f64()).round() as u64;
    for k in 0..n {
        if Instant::now() >= end {
            break;
        }
        let due = at + Duration::from_secs_f64(k as f64 / SATURATION_RPS);
        let op = draw.next(pool);
        send(&mut writer, state, id, op, Phase::Saturation, due, pool, opts.trace)?;
        id += 1;
    }
    wait_until(end);
    Ok((at, end))
}

/// Runs `serve-zipf` and reports its metrics.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = opts.trace.then(|| Arc::new(Tracer::default()));
    // Dropped, so stopped and joined, on every way out of this function.
    let poll = IdlePoll::start();
    report.note(format!("idle polling on {} CPUs (see src/idle.rs)", poll.running()));

    // Set-up — inputs, a fresh store, the daemon, one ping — is timed seven
    // times: three throwaways before the run, the one the run uses, and
    // three throwaways after it, so the median samples both ends of the run.
    let mut setups = Vec::new();
    let mut set_up = || -> Result<(Vec<PoolModule>, Daemon, UnixStream), String> {
        let t = Instant::now();
        let pool = build_head(opts.scale);
        let daemon = start(&opts.work_dir, tracer.as_ref())?;
        let stream = ping(&daemon.socket)?;
        setups.push(t.elapsed().as_secs_f64());
        Ok((pool, daemon, stream))
    };
    let throwaway = |(_, daemon, stream): (Vec<PoolModule>, Daemon, UnixStream)| {
        drop(stream);
        stop(daemon).map(drop)
    };
    for _ in 0..3 {
        throwaway(set_up()?)?;
    }
    let (mut pool, daemon, stream) = set_up()?;

    let state = Loop { shared: Mutex::new(Shared::default()), changed: Condvar::new() };
    let reader_stream = stream.try_clone().map_err(|e| format!("cloning the socket: {e}"))?;
    let start = Instant::now();
    let (driven, waited) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_events(reader_stream, &state));
        let driven = drive(stream.try_clone().expect("socket clone"), &state, &mut pool, opts);
        // Wait for every terminal event (or give up on stragglers).
        let deadline = Instant::now() + DRAIN_WAIT;
        let mut s = state.lock();
        while s.finished < s.sent.len() && s.reader_error.is_none() && Instant::now() < deadline {
            s = state.changed.wait_timeout(s, Duration::from_millis(50)).expect("reader").0;
        }
        let waited = s.finished == s.sent.len();
        drop(s);
        let _ = stream.shutdown(std::net::Shutdown::Both);
        reader.join().expect("the load-generator reader panicked");
        (driven, waited)
    });
    let wall = start.elapsed();
    let (saturation_start, saturation_end) = driven?;
    let shared = state.shared.into_inner().expect("reader finished");
    if !waited {
        report.note(format!("{} requests never answered", shared.sent.len() - shared.finished));
    }
    if let Some(e) = &shared.reader_error {
        report.check(false, || format!("event stream: {e}"));
    }

    // Store counters are read before the drain closes the daemon's store.
    let store_stats = LocalStore::shared(&daemon.cache).map(|s| s.store_stats()).ok();
    let cache = daemon.cache.clone();
    let server = stop(daemon)?;

    // Correctness of every answer, then the gates.
    let mut replies: HashMap<u128, (u64, Reply)> = HashMap::new();
    for (id, sent) in &shared.sent {
        let seen = shared.seen.get(id);
        match seen.and_then(|s| s.outcome.clone()) {
            None => report.check(false, || format!("request {id} never answered")),
            Some(Err(e)) => report.check(false, || format!("request {id}: {e}")),
            Some(Ok(reply)) => {
                let Some(identity) = sent.identity else {
                    report.check(true, String::new);
                    continue;
                };
                let ok = reply.measurement.is_some();
                report
                    .check(ok, || format!("request {id} ({:?}) has no measurement", sent.op.kind));
                match replies.get(&identity) {
                    Some((first, prev)) => {
                        let same =
                            prev.measurement == reply.measurement && prev.module == reply.module;
                        report.check(same, || format!("requests {first} and {id} disagree"));
                    }
                    None => {
                        replies.insert(identity, (*id, reply));
                    }
                }
            }
        }
    }
    check_references(&shared, &replies, &pool, opts.seed, &mut report);
    check_optimized_behaviour(&shared, &replies, &pool, &mut report);
    match LocalStore::open(&cache, StoreOptions::default()).and_then(|s| s.verify()) {
        Ok(v) => report.check(v.clean(), || format!("store verify after drain: {v:?}")),
        Err(e) => report.check(false, || format!("store verify after drain: {e}")),
    }
    for _ in 0..3 {
        throwaway(set_up()?)?;
    }

    // Figures: latencies of answered evaluation requests matching `pred`.
    let timed = |pred: &dyn Fn(&Sent) -> bool| -> Vec<f64> {
        shared
            .sent
            .iter()
            .filter(|(_, s)| s.op.kind != Kind::Ping && pred(s))
            .filter_map(|(id, s)| shared.seen.get(id)?.terminal.map(|t| ms(t - s.origin)))
            .collect()
    };
    let measured = |s: &Sent| matches!(s.phase, Phase::Low | Phase::High);
    let stored = |s: &Sent| matches!(s.op.kind, Kind::Search | Kind::Autotune);
    let high = timed(&|s| s.phase == Phase::High);
    let low = timed(&|s| s.phase == Phase::Low);
    let warm = timed(&|s| s.warm && measured(s));
    let cold = timed(&|s| !s.warm && stored(s) && measured(s));
    let (high_level, high_tail) = tail(&high);
    let (low_level, low_tail) = tail(&low);
    // The tail of each fifth of the high phase, in send order. Their median
    // holds still when the shared host slows the machine for a second or
    // two, which moved the whole-phase p99 up to fivefold between runs of
    // one seed; a stall that recurs through the run still moves it, and the
    // worst segment and the whole-phase tail are kept as per-layer metrics.
    let segment = high.len().div_ceil(TAIL_SEGMENTS).max(1);
    let segments: Vec<f64> = high.chunks(segment).map(|c| quantile(c, SEGMENT_TAIL)).collect();
    let segment_p50s: Vec<f64> = high.chunks(segment).map(median).collect();
    // Answers per second once the backlog has built, and the backlog left
    // when the phase ended: if none was left, the daemon kept up and the
    // figure is only the send rate.
    let counted_from =
        saturation_start + (saturation_end - saturation_start).mul_f64(SATURATION_FILL);
    let evaluations = || shared.sent.iter().filter(|(_, s)| s.op.kind != Kind::Ping);
    let terminal = |id: &u64| shared.seen.get(id).and_then(|v| v.terminal);
    let answered = evaluations()
        .filter(|(id, _)| terminal(id).is_some_and(|t| t >= counted_from && t < saturation_end))
        .count();
    let rate = answered as f64 / (saturation_end - counted_from).as_secs_f64();
    let backlog = evaluations()
        .filter(|(id, s)| {
            s.sent < saturation_end && terminal(id).is_none_or(|t| t >= saturation_end)
        })
        .count();
    let lag: Vec<f64> = shared
        .sent
        .values()
        .filter(|s| s.phase == Phase::High)
        .map(|s| ms(s.origin.saturating_duration_since(s.due)))
        .collect();
    report.note(format!(
        "high phase: writer woke late by p50 {:.3} ms, p99 {:.3} ms (not counted as latency)",
        median(&lag),
        quantile(&lag, 0.99)
    ));
    report.note(format!(
        "high {HIGH_RPS} rps: {} samples, whole-phase tail p{:.0} (p90 {:.2} ms, p95 {:.2} ms, \
         p99 {:.2} ms); p{:.0} of {} segments of {segment}: {:.2?} ms, p50: {:.2?} ms; \
         low {LOW_RPS} rps: {} samples, tail p{:.0}",
        high.len(),
        high_level * 100.0,
        quantile(&high, 0.90),
        quantile(&high, 0.95),
        quantile(&high, 0.99),
        SEGMENT_TAIL * 100.0,
        segments.len(),
        segments,
        segment_p50s,
        low.len(),
        low_level * 100.0,
    ));
    report.note(format!(
        "low and high phases: {} warm search/autotune requests (store hits, p50 {:.1} ms), \
         {} cold ones (store puts, p50 {:.1} ms), {} cold-tail modules generated",
        warm.len(),
        median(&warm),
        cold.len(),
        median(&cold),
        pool.len() - head_len(opts.scale),
    ));
    report.note(format!(
        "saturation at {SATURATION_RPS} rps: {} requests sent, {answered} answered in the last \
         {:.0}% of the phase ({rate:.1} per second), {backlog} still in the daemon at its end{}",
        shared.sent.values().filter(|s| s.phase == Phase::Saturation).count(),
        (1.0 - SATURATION_FILL) * 100.0,
        if backlog == 0 {
            " — the daemon kept up, so the rate is only the send rate"
        } else {
            ""
        }
    ));
    report.note(format!("server: {server:?}"));
    report.note(format!("set-ups (s): {setups:.3?}"));
    report.set("setup_s", median(&setups));
    report.set("ops_per_s", rate);
    report.set("op_p50_ms", median(&high));
    report.set("op_tail_ms", median(&segments));
    report.set("warm_p50_ms", median(&warm));
    report.set("size_ratio_geo", size_ratio(&shared, &replies, &pool, head_len(opts.scale)));
    report.set("peak_rss_mb", peak_rss_mb());
    if let Some(t) = &tracer {
        zero_all(&mut report);
        serve_layers(&mut report, &shared, &server, store_stats, t);
        report.set("loadgen.low_p50_ms", median(&low));
        report.set("loadgen.low_p99_ms", low_tail);
        report.set("loadgen.high_tail_ms", high_tail);
        report.set("loadgen.worst_segment_p95_ms", quantile(&segments, 1.0));
        // The replay samples the hot head, whose modules every warm request
        // parses and analyses again.
        let head = &pool[..head_len(opts.scale)];
        let modules: Vec<Module> = head.iter().map(|p| p.module.clone()).collect();
        layers::replay(&modules, opts.seed, &mut report);
        tracing_overhead(t, wall, &mut report);
        let path =
            opts.work_dir.with_file_name(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
        t.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

/// Geometric mean, over the size-objective search and autotune answers on
/// the hot head, of answer size over the heuristic's size on the same
/// module. Warm-up asks every such question, so every run averages the
/// same answers whatever its seed.
fn size_ratio(
    shared: &Shared,
    replies: &HashMap<u128, (u64, Reply)>,
    pool: &[PoolModule],
    head: usize,
) -> f64 {
    let mut heuristic: HashMap<usize, u64> = HashMap::new();
    let mut ratios = Vec::new();
    for (sent, reply) in first_answers(shared, replies) {
        if sent.op.objective != Objective::Size
            || !matches!(sent.op.kind, Kind::Search | Kind::Autotune)
            || sent.op.module >= head
        {
            continue;
        }
        let h = *heuristic.entry(sent.op.module).or_insert_with(|| {
            let p = &pool[sent.op.module];
            let opts = OptimizeOptions::default();
            cmd_optimize_measured(&p.source, StrategyChoice::Heuristic, TargetChoice::X86, opts)
                .map_or(0, |(_, _, m)| m.size)
        });
        if let (Some(m), true) = (reply.measurement, h > 0) {
            ratios.push(m.size as f64 / h as f64);
        }
    }
    geo_mean(&ratios)
}

/// The first answer to each distinct request identity, in send order,
/// leaving out identities first sent in the saturation phase: how many
/// requests it sends depends on timing, so only the earlier phases are
/// the same for every run of a seed.
fn first_answers<'a>(
    shared: &'a Shared,
    replies: &'a HashMap<u128, (u64, Reply)>,
) -> Vec<(&'a Sent, &'a Reply)> {
    let mut firsts: Vec<(u64, &Reply)> = replies.values().map(|(id, r)| (*id, r)).collect();
    firsts.sort_by_key(|(id, _)| *id);
    firsts
        .into_iter()
        .filter_map(|(id, r)| Some((shared.sent.get(&id)?, r)))
        .filter(|(s, _)| s.phase != Phase::Saturation)
        .collect()
}

/// Recomputes a seeded sample of distinct answers in process, with no
/// cache, through the same `cmd_*_measured` functions the CLI runs.
fn check_references(
    shared: &Shared,
    replies: &HashMap<u128, (u64, Reply)>,
    pool: &[PoolModule],
    seed: u64,
    report: &mut Report,
) {
    let mut distinct = first_answers(shared, replies);
    distinct.retain(|(_, r)| r.measurement.is_some());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4ef5);
    for i in (1..distinct.len()).rev() {
        distinct.swap(i, rng.gen_range(0..i + 1));
    }
    for (sent, reply) in distinct.into_iter().take(REFERENCE_SAMPLE) {
        let op = &sent.op;
        let source = &pool[op.module].source;
        let eval = EvalOptions { objective: op.objective, ..EvalOptions::default() };
        let local = match op.kind {
            Kind::Search => cmd_search_measured(source, SEARCH_BITS, TargetChoice::X86, eval)
                .map(|(_, m)| (m, None)),
            Kind::Autotune => {
                cmd_autotune_measured(source, 1, InitChoice::Both, TargetChoice::X86, eval)
                    .map(|(_, m)| (m, None))
            }
            Kind::Optimize => cmd_optimize_measured(
                source,
                StrategyChoice::Heuristic,
                TargetChoice::X86,
                OptimizeOptions { objective: op.objective, ..OptimizeOptions::default() },
            )
            .map(|(_, module, m)| (Some(m), Some(module))),
            Kind::Ping => continue,
        };
        let name = &pool[op.module].name;
        match local {
            Ok((m, module)) => {
                let same = m == reply.measurement && (module.is_none() || module == reply.module);
                report.check(same, || {
                    format!("{:?} {name} served {:?}, in process {m:?}", op.kind, reply.measurement)
                });
            }
            Err(e) => report.check(false, || format!("{:?} {name} in process: {e}", op.kind)),
        }
    }
}

/// Every distinct optimized module must behave like its source on each
/// public entry (interpreted with all-zero and all-one arguments).
fn check_optimized_behaviour(
    shared: &Shared,
    replies: &HashMap<u128, (u64, Reply)>,
    pool: &[PoolModule],
    report: &mut Report,
) {
    let limits = Limits::default();
    let mut checked = HashSet::new();
    for sent in shared.sent.values().filter(|s| s.op.kind == Kind::Optimize) {
        let Some(identity) = sent.identity else { continue };
        let Some((_, reply)) = replies.get(&identity) else { continue };
        if !checked.insert(identity) {
            continue;
        }
        let source = &pool[sent.op.module];
        let optimized = match reply.module.as_deref().map(optinline_ir::parse::parse_module) {
            Some(Ok(m)) => m,
            other => {
                report.check(false, || {
                    format!("optimize {}: unusable module {other:?}", source.name)
                });
                continue;
            }
        };
        let mut ok = true;
        for (fid, f) in source.module.iter_funcs() {
            if f.linkage != Linkage::Public || source.module.is_extern_decl(fid) {
                continue;
            }
            let Some(oid) = optimized.func_by_name(&f.name) else {
                ok = false;
                continue;
            };
            for v in [0, 1] {
                let args = vec![v; f.params().len()];
                let want = observe(&source.module, fid, &args, &limits);
                let got = observe(&optimized, oid, &args, &limits);
                ok &= !(comparable(&want) && comparable(&got)) || want == got;
            }
        }
        report.check(ok, || {
            format!("optimize {}: optimized module behaves differently", source.name)
        });
    }
}

/// Whether an observation can be compared across optimization levels
/// (fuel or stack exhaustion cannot).
fn comparable(b: &Behaviour) -> bool {
    !matches!(b, Behaviour::Inconclusive)
}

/// Parses `<duration> compiling` out of a `stats: true` report's
/// evaluator line (Rust's `Debug` rendering of a `Duration`).
fn compile_ms(report: &str) -> Option<f64> {
    let line = report.lines().find(|l| l.trim_start().starts_with("evaluator:"))?;
    let before = line.split(" compiling").next()?;
    let token = before.rsplit([',', ' ']).next()?;
    let (num, scale) = if let Some(v) = token.strip_suffix("ms") {
        (v, 1.0)
    } else if let Some(v) = token.strip_suffix("µs") {
        (v, 1e-3)
    } else if let Some(v) = token.strip_suffix("ns") {
        (v, 1e-6)
    } else if let Some(v) = token.strip_suffix('s') {
        (v, 1e3)
    } else {
        return None;
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

/// Parses a counter that precedes `label` on the evaluator line.
fn counter(report: &str, label: &str) -> Option<f64> {
    let line = report.lines().find(|l| l.trim_start().starts_with("evaluator:"))?;
    let before = line.split(label).next()?;
    before.split_whitespace().last()?.trim_start_matches('(').parse().ok()
}

/// Per-layer figures of the traced serve run.
fn serve_layers(
    report: &mut Report,
    shared: &Shared,
    server: &optinline_serve::ServerStats,
    store: Option<optinline_store::StoreStats>,
    tracer: &Tracer,
) {
    // Client-side spans: send → evaluating (queue) and send → terminal, in
    // the fixed-rate phases: in the saturation phase every request waits
    // behind the backlog the phase builds on purpose.
    let fixed_rate = |s: &Sent| matches!(s.phase, Phase::Low | Phase::High);
    for (id, sent) in shared.sent.iter().filter(|(_, s)| fixed_rate(s)) {
        let Some(seen) = shared.seen.get(id) else { continue };
        let req = sent.identity.map_or(*id, identity_key);
        let root = tracer.reserve();
        if let Some(end) = seen.terminal {
            tracer.record(Span {
                id: root,
                parent: 0,
                req,
                name: "client.request",
                start_ns: tracer.at(sent.sent),
                end_ns: tracer.at(end),
            });
        }
        if let Some(started) = seen.started {
            tracer.record(Span {
                id: tracer.reserve(),
                parent: root,
                req,
                name: "serve.queue",
                start_ns: tracer.at(sent.sent),
                end_ns: tracer.at(started),
            });
        }
    }
    let spans = tracer.spans();
    let lens = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.len_ns() as f64 / 1e6).collect()
    };
    let queue = lens("serve.queue");
    report.set("serve.queue_wait_p50_ms", median(&queue));
    report.set("serve.queue_wait_p99_ms", tail(&queue).1);
    let handle = lens("cli.handle");
    report.set("cli.handle_ms", median(&handle));

    // Handler time minus compile time, from the `stats: true` reports of
    // evaluated search/autotune answers matched to their handler spans.
    let mut handler_by_req: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "cli.handle") {
        handler_by_req.insert(s.req, s.len_ns() as f64 / 1e6);
    }
    let mut self_ms = Vec::new();
    let (mut queries, mut compiles, mut hits, mut misses, mut fme, mut caps) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut busy, mut evaluated) = (0.0, 0.0);
    let mut seen_ids = HashSet::new();
    for (id, sent) in &shared.sent {
        let Some(identity) = sent.identity else { continue };
        if !seen_ids.insert(identity) {
            continue;
        }
        let Some(Ok(reply)) = shared.seen.get(id).and_then(|s| s.outcome.clone()) else { continue };
        let Some(c) = compile_ms(&reply.report) else { continue };
        evaluated += 1.0;
        busy += c / 1e3;
        queries += counter(&reply.report, " queries").unwrap_or(0.0);
        compiles += counter(&reply.report, " compiles").unwrap_or(0.0);
        hits += counter(&reply.report, " cache hits").unwrap_or(0.0);
        misses += counter(&reply.report, " misses").unwrap_or(0.0);
        fme += counter(&reply.report, " full-module equivalents").unwrap_or(0.0);
        caps += counter(&reply.report, " fixpoint cap hits").unwrap_or(0.0);
        if let Some(h) = handler_by_req.get(&identity_key(identity)) {
            self_ms.push((h - c).max(0.0));
        }
    }
    report.set("cli.handle_self_ms", median(&self_ms));
    if evaluated > 0.0 {
        report.set("core.eval.queries", queries / evaluated);
        report.set("core.eval.compiles", compiles / evaluated);
        report.set("core.eval.busy_s", busy / evaluated);
        report.set("core.eval.memo_hit_ratio", hits / (hits + misses).max(1.0));
        report.set("core.eval.fme_per_compile", fme / compiles.max(1.0));
        report.set("opt.cap_hits", caps / evaluated);
    }

    let pings: Vec<f64> = shared
        .sent
        .iter()
        .filter(|(_, s)| s.op.kind == Kind::Ping && fixed_rate(s))
        .filter_map(|(id, s)| shared.seen.get(id)?.terminal.map(|t| ms(t - s.sent) * 1e3))
        .collect();
    report.set("serve.transport_us", median(&pings));
    let lag: Vec<f64> = shared
        .sent
        .values()
        .filter(|s| fixed_rate(s))
        .map(|s| ms(s.sent.saturating_duration_since(s.due)))
        .collect();
    report.set("loadgen.lag_p99_ms", tail(&lag).1);
    let joined = server.dedup_joined as f64;
    report.set("serve.dedup_ratio", joined / (server.evaluations as f64 + joined).max(1.0));
    report
        .set("serve.wakeups_per_req", server.poll_wakeups as f64 / shared.sent.len().max(1) as f64);
    report.set("serve.shed", server.shed_deadline as f64);
    report.set("serve.rejected", server.rejected as f64);
    if let Some(st) = store {
        report.set("store.hit_ratio", st.hits as f64 / (st.hits + st.misses).max(1) as f64);
        report.set("store.lines_per_append", st.flushed_lines as f64 / st.appends.max(1) as f64);
        report.set("store.disk_mb", st.disk_bytes as f64 / (1024.0 * 1024.0));
    }
}
