//! The end-to-end run: the real release `gf-serve` over sockets, with
//! tracing off.
//!
//! Every run walks the same phases:
//!
//! 1. **boot** — [`SETUP_BOOTS`] cold boots on fresh data dirs
//!    (`setup_s` is their median); the last one serves the run;
//! 2. **warm-up** — [`WARMUP_RATINGS`] closed-loop ratings build every
//!    grouping's standing former (untimed);
//! 3. **fill** — [`FILL_EVENTS`] open-loop `/v1/feedback` writes fill the
//!    quality window while the other connection polls the read mix;
//! 4. **window** — the workload's timed load for `--seconds`;
//! 5. **gate** — counters, versions and the digest are checked;
//! 6. **recovery** — `kill -9`, then [`RECOVERIES`] warm restarts from
//!    copies of the crashed data dir (`recovery_s` is their median), each
//!    checked against the pre-kill digest.
//!
//! The *write phase* whose writes are timed is the window, or the fill
//! on `read_mix`, whose window has no writes.

use crate::http::{field_u64, Conn, Request, Route};
use crate::inputs::{write_corpus, Gen, Stream, Universe};
use crate::openloop::{self, Outcome, Planned, Reply};
use crate::server::{copy_dir, ServerProc};
use crate::stats::visible_lags;
use crate::workload::{
    Load, Workload, ELL, FILL_EVENTS, FILL_HZ, RECOVERIES, SETUP_BOOTS, WARMUP_RATINGS,
};
use gf_serve::Json;
use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where and how long a run works.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The release `gf-serve` binary.
    pub server_bin: PathBuf,
    /// This run's private directory (corpus, data dirs, logs).
    pub dir: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
}

/// Offered rate of the version polls while the window fills.
const FILL_POLL_HZ: f64 = 500.0;
/// How long a boot may take before the run fails.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Writes of one phase, for the visibility and batching figures.
#[derive(Debug, Clone, Default)]
pub struct WritePhase {
    /// Ack latency of each write, from its due time, ms.
    pub ack_ms: Vec<f64>,
    /// Accept→visible lag of each write, ms.
    pub visible_lag_ms: Vec<f64>,
    /// Writes acknowledged.
    pub writes: u64,
    /// Snapshot installs observed (distinct versions past the start).
    pub installs: u64,
    /// Largest journal depth a write's 202 reported.
    pub pending_max: u64,
}

impl WritePhase {
    /// Journal records per observed install.
    pub fn records_per_pass(&self) -> f64 {
        self.writes as f64 / self.installs.max(1) as f64
    }
}

/// Everything one end-to-end run measured.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Generated-corpus dimensions and groupings.
    pub universe: Universe,
    /// Cold boot times, s.
    pub setup_s: Vec<f64>,
    /// Warm restart times, s.
    pub recovery_s: Vec<f64>,
    /// The fill phase.
    pub fill: WritePhase,
    /// The window's writes (empty on `read_mix`).
    pub window: WritePhase,
    /// Window read latencies, µs (from the due time in open loops).
    pub read_us: Vec<f64>,
    /// Window read round trips per route, µs (from the actual send).
    pub round_trip_us: BTreeMap<Route, Vec<f64>>,
    /// Window reads that succeeded.
    pub reads_ok: u64,
    /// Time from the window's start to its last read reply, s.
    pub window_s: f64,
    /// Window requests sent (closed loop: how far the stream got).
    pub window_requests: usize,
    /// `VmHWM` at the end of the window, MB.
    pub rss_peak_mb: f64,
    /// Requests attempted over warm-up, fill and window.
    pub attempted: u64,
    /// Of those, the ones that succeeded.
    pub succeeded: u64,
    /// Sender lateness of every open-loop request, ms.
    pub late_ms: Vec<f64>,
    /// Correctness-gate violations.
    pub violations: Vec<String>,
}

impl E2e {
    /// The write phase whose writes the workload times.
    pub fn timed_writes(&self, wl: &Workload) -> &WritePhase {
        if wl.fill_is_timed() {
            &self.fill
        } else {
            &self.window
        }
    }
}

/// Per-connection version monotonicity plus request accounting.
struct Ledger {
    last_version: [u64; 2],
    rates_202: u64,
    feedback_202: u64,
    attempted: u64,
    succeeded: u64,
    violations: Vec<String>,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            last_version: [0; 2],
            rates_202: 0,
            feedback_202: 0,
            attempted: 0,
            succeeded: 0,
            violations: Vec::new(),
        }
    }

    fn version(&mut self, conn: usize, v: u64) {
        if v < self.last_version[conn] {
            self.violations.push(format!(
                "connection {conn} saw version {v} after {}",
                self.last_version[conn]
            ));
        }
        self.last_version[conn] = v;
    }

    fn outcome(&mut self, o: &Outcome) {
        self.attempted += 1;
        if o.ok() {
            self.succeeded += 1;
        }
        if let Some(r) = o.reply {
            if r.status == 202 {
                match o.route {
                    Route::Rate => self.rates_202 += 1,
                    Route::Feedback => self.feedback_202 += 1,
                    _ => {}
                }
            }
            if let Some(v) = r.version {
                self.version(o.conn, v);
            }
        }
    }
}

fn health() -> Request {
    Request {
        route: Route::Stats,
        method: "GET",
        path: "/v1/health".into(),
        query: String::new(),
        body: String::new(),
    }
}

fn get_json(conn: &mut Conn, path: &str) -> io::Result<(String, Json)> {
    let req = Request {
        path: path.into(),
        ..health()
    };
    let (status, body) = conn.call(&req)?;
    let text = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 body"))?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "GET {path} answered {status}: {text}"
        )));
    }
    let json = Json::parse(&text).map_err(|e| io::Error::other(format!("GET {path}: {e}")))?;
    Ok((text, json))
}

/// A `/v1/stats` counter; a missing one reads as `u64::MAX`, which no
/// client count can match.
fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// One closed-loop request on `conn` (connection number `conn_ix`),
/// timed from its send, relative to `origin`.
fn closed_call(
    conn: &mut Conn,
    conn_ix: usize,
    req: &Request,
    origin: Instant,
) -> io::Result<Outcome> {
    let sent = origin.elapsed().as_secs_f64();
    let (status, body) = conn.call(req)?;
    let done = origin.elapsed().as_secs_f64();
    Ok(Outcome {
        route: req.route,
        conn: conn_ix,
        due: sent,
        sent,
        reply: Some(Reply::new(req.route, status, done, &body)),
    })
}

/// Polls `/v1/health` on `conn` every 2 ms until `version >= target`
/// with nothing pending, recording each observation.
fn wait_applied(
    conn: &mut Conn,
    conn_ix: usize,
    target: u64,
    origin: Instant,
    obs: &mut Vec<(f64, u64)>,
    ledger: &mut Ledger,
) -> io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = conn.call(&health())?;
        let t = origin.elapsed().as_secs_f64();
        let version = field_u64(&body, "version").filter(|_| status == 200);
        let pending = field_u64(&body, "pending");
        let Some(v) = version else {
            return Err(io::Error::other(format!("/v1/health answered {status}")));
        };
        ledger.version(conn_ix, v);
        obs.push((t, v));
        if v >= target && pending == Some(0) {
            return Ok(());
        }
        if Instant::now() > give_up {
            return Err(io::Error::other(format!(
                "writes not applied within 30 s: version {v}, want {target}"
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A fixed-rate schedule of `count` requests on `conn`, starting at 0.
fn schedule(count: usize, hz: f64, conn: usize, mut next: impl FnMut() -> Request) -> Vec<Planned> {
    (0..count)
        .map(|i| Planned {
            due: Duration::from_secs_f64(i as f64 / hz),
            conn,
            req: next(),
        })
        .collect()
}

fn merge(mut a: Vec<Planned>, b: Vec<Planned>) -> Vec<Planned> {
    a.extend(b);
    a.sort_by_key(|p| (p.due, p.conn));
    a
}

/// The fill phase's schedule: feedback on connection 0, read-mix polls
/// on connection 1.
pub fn fill_plan(seed: u64, uni: &Universe) -> Vec<Planned> {
    let mut writes = Gen::new(seed, Stream::Fill, uni);
    let mut polls = Gen::new(seed, Stream::FillReads, uni);
    let span = FILL_EVENTS as f64 / FILL_HZ;
    merge(
        schedule(FILL_EVENTS, FILL_HZ, 0, || writes.feedback()),
        schedule((span * FILL_POLL_HZ) as usize, FILL_POLL_HZ, 1, || {
            polls.read()
        }),
    )
}

/// The window's open-loop schedule (`None` for the closed loop).
pub fn window_plan(wl: &Workload, seed: u64, uni: &Universe, seconds: f64) -> Option<Vec<Planned>> {
    let mut writes = Gen::new(seed, Stream::Writes, uni);
    let mut reads = Gen::new(seed, Stream::Reads, uni);
    match wl.load {
        Load::RateStream { write_hz, poll_hz } => Some(merge(
            schedule((seconds * write_hz) as usize, write_hz, 0, || writes.rate()),
            schedule((seconds * poll_hz) as usize, poll_hz, 1, || reads.read()),
        )),
        Load::WriteMix { write_hz, read_hz } => Some(merge(
            schedule((seconds * write_hz) as usize, write_hz, 0, || {
                writes.mixed_write()
            }),
            schedule((seconds * read_hz) as usize, read_hz, 1, || reads.read()),
        )),
        Load::ReadMix => None,
    }
}

/// The warm-up ratings.
pub fn warmup_requests(seed: u64, uni: &Universe) -> Vec<Request> {
    let mut g = Gen::new(seed, Stream::Warmup, uni);
    (0..WARMUP_RATINGS).map(|_| g.rate()).collect()
}

/// Writes the seeded corpus into the run directory and returns its path
/// and the universe requests may address.
pub fn prepare(ctx: &Ctx, wl: &Workload) -> io::Result<(PathBuf, Universe)> {
    std::fs::create_dir_all(&ctx.dir)?;
    let corpus = ctx.dir.join("corpus.tsv");
    let file = std::io::BufWriter::new(std::fs::File::create(&corpus)?);
    let counts = write_corpus(file, wl.users, wl.items, ctx.seed)?;
    let ell = ELL.min(counts.user_ratings.len());
    let uni = Universe::new(&counts, wl.grouping_names(), ell);
    Ok((corpus, uni))
}

fn server_args(ctx: &Ctx, wl: &Workload, corpus: &Path, data: &Path) -> Vec<String> {
    let mut args = wl.server_args(ctx.seconds);
    args.extend([
        "--data".into(),
        corpus.display().to_string(),
        "--data-dir".into(),
        data.display().to_string(),
    ]);
    args
}

/// Runs one open-loop phase and folds its writes into a [`WritePhase`].
fn open_phase(
    streams: &[TcpStream],
    conns: &mut [Conn],
    plan: &[Planned],
    ledger: &mut Ledger,
    e2e: &mut E2e,
) -> io::Result<(Vec<Outcome>, WritePhase)> {
    let v0 = field_u64(&conns[1].call(&health())?.1, "version").unwrap_or(0);
    let origin = Instant::now() + Duration::from_millis(5);
    let outcomes = openloop::run(streams, plan, origin, Duration::from_secs(20))?;
    let mut obs: Vec<(f64, u64)> = Vec::new();
    let mut phase = WritePhase::default();
    let mut acks = Vec::new();
    for o in &outcomes {
        ledger.outcome(o);
        e2e.late_ms.push((o.sent - o.due) * 1e3);
        if let Some(r) = o.reply {
            if let Some(v) = r.version {
                obs.push((r.done, v));
            }
            if o.route.is_write() && o.ok() {
                phase.writes += 1;
                phase.ack_ms.push((r.done - o.due) * 1e3);
                phase.pending_max = phase.pending_max.max(r.pending.unwrap_or(0));
                acks.push(r.done);
            }
        }
    }
    let target = v0 + phase.writes;
    wait_applied(&mut conns[1], 1, target, origin, &mut obs, ledger)?;
    obs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let lags = visible_lags(v0, &acks, &obs);
    if lags.iter().any(Option::is_none) {
        ledger
            .violations
            .push("a write never became visible".into());
    }
    phase.visible_lag_ms = lags.into_iter().flatten().map(|l| l * 1e3).collect();
    let mut installs: Vec<u64> = obs
        .iter()
        .map(|o| o.1)
        .filter(|&v| v > v0 && v <= target)
        .collect();
    installs.sort_unstable();
    installs.dedup();
    phase.installs = installs.len() as u64;
    Ok((outcomes, phase))
}

/// Runs the workload end to end. Gate violations are returned in
/// [`E2e::violations`]; I/O failures of the harness itself are errors.
pub fn run(ctx: &Ctx, wl: &Workload) -> io::Result<E2e> {
    let (corpus, uni) = prepare(ctx, wl)?;
    let mut e2e = E2e {
        universe: uni.clone(),
        ..E2e::default()
    };

    // 1. Boots.
    let mut server = None;
    let mut data = PathBuf::new();
    for b in 0..SETUP_BOOTS {
        data = ctx.dir.join(format!("data-{b}"));
        let log = ctx.dir.join(format!("boot-{b}.log"));
        let (proc, took) = ServerProc::start(
            &ctx.server_bin,
            &server_args(ctx, wl, &corpus, &data),
            &log,
            BOOT_TIMEOUT,
        )?;
        e2e.setup_s.push(took.as_secs_f64());
        if b + 1 < SETUP_BOOTS {
            proc.kill9();
            std::fs::remove_dir_all(&data)?;
        } else {
            server = Some(proc);
        }
    }
    let server = server.expect("at least one boot");
    let mut conns = [Conn::connect(server.addr)?, Conn::connect(server.addr)?];
    let mut ledger = Ledger::new();

    // 2. Warm-up: closed loop, then wait until applied.
    let v_start = field_u64(&conns[1].call(&health())?.1, "version").unwrap_or(0);
    let origin = Instant::now();
    for req in warmup_requests(ctx.seed, &uni) {
        let o = closed_call(&mut conns[0], 0, &req, origin)?;
        ledger.outcome(&o);
    }
    let mut obs = Vec::new();
    wait_applied(
        &mut conns[1],
        1,
        v_start + ledger.rates_202,
        origin,
        &mut obs,
        &mut ledger,
    )?;

    // The open-loop engine takes the raw streams; the closed-loop helpers
    // keep their buffered `Conn`s, and nothing is in flight between.
    let streams = [
        conns[0].stream().try_clone()?,
        conns[1].stream().try_clone()?,
    ];

    // 3. Fill.
    let plan = fill_plan(ctx.seed, &uni);
    let (_, fill) = open_phase(&streams, &mut conns, &plan, &mut ledger, &mut e2e)?;
    e2e.fill = fill;

    // 4. Window.
    match window_plan(wl, ctx.seed, &uni, ctx.seconds) {
        Some(plan) => {
            e2e.window_requests = plan.len();
            let (outcomes, window) =
                open_phase(&streams, &mut conns, &plan, &mut ledger, &mut e2e)?;
            e2e.window = window;
            for o in outcomes.iter().filter(|o| !o.route.is_write()) {
                if o.ok() {
                    e2e.reads_ok += 1;
                    let done = o.reply.expect("ok has a reply").done;
                    e2e.window_s = e2e.window_s.max(done);
                    e2e.read_us.push(o.latency().expect("ok has a reply") * 1e6);
                    e2e.round_trip_us
                        .entry(o.route)
                        .or_default()
                        .push(o.round_trip().expect("ok has a reply") * 1e6);
                }
            }
            // The peak so far; the drain inside `open_phase` adds no load.
            e2e.rss_peak_mb = server.rss_peak_mb()?;
        }
        None => {
            let mut reads = Gen::new(ctx.seed, Stream::Reads, &uni);
            let started = Instant::now();
            let stop = started + Duration::from_secs_f64(ctx.seconds);
            while Instant::now() < stop {
                let o = closed_call(&mut conns[1], 1, &reads.read(), started)?;
                ledger.outcome(&o);
                e2e.window_requests += 1;
                if o.ok() {
                    let us = o.latency().expect("ok has a reply") * 1e6;
                    e2e.reads_ok += 1;
                    e2e.read_us.push(us);
                    e2e.round_trip_us.entry(o.route).or_default().push(us);
                }
            }
            e2e.window_s = started.elapsed().as_secs_f64();
            e2e.rss_peak_mb = server.rss_peak_mb()?;
        }
    }
    drop(streams);

    // 5. Gates.
    let (_, stats) = get_json(&mut conns[1], "/v1/stats")?;
    for (key, client) in [
        ("rates_accepted", ledger.rates_202),
        ("rates_applied", ledger.rates_202),
        ("feedback_accepted", ledger.feedback_202),
        ("feedback_applied", ledger.feedback_202),
    ] {
        let server_count = counter(&stats, key);
        if server_count != client {
            ledger.violations.push(format!(
                "{key} = {server_count}, but the client counted {client} 202s"
            ));
        }
    }
    let (digest, _) = get_json(&mut conns[1], "/v1/digest")?;
    drop(conns);
    server.kill9();

    // 6. Recovery from copies of the crashed data dir.
    let copies: Vec<PathBuf> = (0..RECOVERIES)
        .map(|r| ctx.dir.join(format!("crashed-{r}")))
        .collect();
    for copy in &copies {
        copy_dir(&data, copy)?;
    }
    for (r, copy) in copies.iter().enumerate() {
        let log = ctx.dir.join(format!("recovery-{r}.log"));
        let (proc, took) = ServerProc::start(
            &ctx.server_bin,
            &server_args(ctx, wl, &corpus, copy),
            &log,
            BOOT_TIMEOUT,
        )?;
        e2e.recovery_s.push(took.as_secs_f64());
        let mut conn = Conn::connect(proc.addr)?;
        let (after, _) = get_json(&mut conn, "/v1/digest")?;
        if after != digest {
            ledger.violations.push(format!(
                "digest after kill -9 and warm restart {r} differs: {after} != {digest}"
            ));
        }
        drop(conn);
        proc.kill9();
        std::fs::remove_dir_all(copy)?;
    }

    e2e.attempted = ledger.attempted;
    e2e.succeeded = ledger.succeeded;
    e2e.violations = ledger.violations;
    Ok(e2e)
}
