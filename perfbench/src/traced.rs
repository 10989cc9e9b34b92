//! The traced run: the same generated inputs replayed in-process, with a
//! span around every call into a layer's public functions.
//!
//! The replay boots through `gf_serve::boot` on a fresh data dir from the
//! same corpus file and sends every request through
//! `gf_serve::http::route_full`, timing `Json::parse` and the rendering
//! of each answer on their own. Writes alternate between `route_full`
//! and a direct `ServeState::rate`/`feedback` call, so both layers are
//! timed while every record is still applied exactly once. The replay
//! calls `ServeState::process_pending` itself, at the batching the
//! end-to-end run measured, and before each pass repeats the pass's
//! stages on the same batch (`RatingMatrix::with_upserts`,
//! `PrefIndex::patched`, one `IncrementalFormer::refresh` per grouping,
//! `OnlineEval::observe`) so each stage gets its own span.
//!
//! Spans stay in memory and are written out once the replay ends.

use crate::e2e::{fill_plan, warmup_requests};
use crate::http::{Request, Route};
use crate::inputs::{Gen, Stream, Universe};
use crate::openloop::Planned;
use crate::server::{copy_dir, dir_bytes};
use crate::stats::Span;
use crate::workload::Workload;
use gf_core::{CandidateEngine, FeedbackEvent, IncrementalFormer, RatingDelta, RatingScale};
use gf_persist::checkpoint;
use gf_persist::wal::{SyncMode, Wal};
use gf_serve::http::route_full;
use gf_serve::{DurabilityOptions, HttpRequest, Json, ServeState};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span recorder. With recording off every call still runs; only the
/// clock reads and the span records are skipped.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (meaningless when off).
    fn begin(&mut self, name: &str, parent: Option<usize>, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, ix: usize) {
        if self.on {
            self.spans[ix].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    fn span<R>(&mut self, name: &str, parent: Option<usize>, req: u64, f: impl FnOnce() -> R) -> R {
        let ix = self.begin(name, parent, req);
        let out = f();
        self.end(ix);
        out
    }
}

/// What the traced run needs from the end-to-end run of the same inputs.
pub struct Plan<'a> {
    /// The workload.
    pub wl: &'a Workload,
    /// Input seed.
    pub seed: u64,
    /// Universe the inputs address.
    pub uni: &'a Universe,
    /// The corpus file.
    pub corpus: &'a Path,
    /// Scratch directory.
    pub dir: &'a Path,
    /// Records per pass the fill phase saw end to end.
    pub fill_rpp: f64,
    /// Records per pass the window saw end to end.
    pub window_rpp: f64,
    /// The window's open-loop schedule, or `None` for the closed loop.
    pub window: Option<Vec<Planned>>,
    /// Window requests the end-to-end run sent.
    pub window_requests: usize,
}

/// What one replay produced.
pub struct Replay {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Span index range of the fill phase.
    pub fill: Range<usize>,
    /// Span index range of the window phase.
    pub window: Range<usize>,
    /// Wall time of the fill and window replay, s.
    pub replay_s: f64,
    /// Window requests replayed.
    pub window_replayed: usize,
    /// Candidate lists served from the cache.
    pub cache_hits: u64,
    /// Candidate lists the cache had to fill.
    pub cache_fills: u64,
    /// Bytes of the probe WAL per record appended.
    pub wal_bytes_per_record: f64,
    /// Size of one checkpoint file.
    pub checkpoint_bytes: u64,
    /// Gate violations seen in-process.
    pub violations: Vec<String>,
}

fn http_request(req: &Request) -> HttpRequest {
    HttpRequest {
        method: req.method.to_string(),
        path: req.path.clone(),
        query: req.query.clone(),
        body: req.body.clone(),
        keep_alive: true,
    }
}

fn gf(e: gf_core::GfError) -> io::Error {
    io::Error::other(e.to_string())
}

/// One accepted record waiting for the next pass.
enum Pending {
    Rating(u32, u32, f64),
    Feedback(FeedbackEvent),
}

struct Replayer<'a> {
    tr: Tracer,
    state: Arc<ServeState>,
    wal_probe: Wal,
    wal_records: u64,
    shadows: BTreeMap<String, IncrementalFormer>,
    cached: BTreeMap<(String, usize), u64>,
    engine: CandidateEngine,
    hits: u64,
    fills: u64,
    batch: Vec<Pending>,
    credit: f64,
    writes: u64,
    next_id: u64,
    violations: &'a mut Vec<String>,
}

impl Replayer<'_> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn request(&mut self, req: &Request, rpp: f64) {
        let rid = self.id();
        let root = self.tr.begin("request", None, rid);
        if req.route.is_write() {
            self.write(req, rid, root);
        } else {
            self.read(req, rid, root);
        }
        self.tr.end(root);
        if req.route.is_write() {
            self.credit += 1.0;
            if self.credit >= rpp {
                self.credit -= rpp;
                self.pass();
            }
        }
    }

    fn write(&mut self, req: &Request, rid: u64, root: usize) {
        let body = self
            .tr
            .span("json.parse", Some(root), rid, || Json::parse(&req.body))
            .expect("generated bodies are valid JSON");
        let field = |k: &str| body.get(k).and_then(Json::as_u64).expect("generated field") as u32;
        let (user, item) = (field("user"), field("item"));
        let scope = body
            .get("grouping")
            .and_then(Json::as_str)
            .map(String::from);
        let score = body.get("rating").and_then(Json::as_f64).unwrap_or(0.0);
        let via_route = self.writes.is_multiple_of(2);
        self.writes += 1;
        let state = Arc::clone(&self.state);
        let ok = if via_route {
            let out = self.tr.span(
                &format!("http.route.{}", req.route.name()),
                Some(root),
                rid,
                || route_full(&state, &http_request(req)),
            );
            self.tr.span(
                &format!("json.render.{}", req.route.name()),
                Some(root),
                rid,
                || out.body.to_string(),
            );
            out.status == 202
        } else if req.route == Route::Rate {
            self.tr
                .span("state.rate", Some(root), rid, || {
                    state.rate(user, item, score)
                })
                .is_ok()
        } else {
            self.tr
                .span("state.feedback", Some(root), rid, || {
                    state.feedback(user, item, scope.as_deref())
                })
                .is_ok()
        };
        if !ok {
            self.violations
                .push(format!("in-process {} was refused", req.path));
        }
        let wal = &mut self.wal_probe;
        let appended = if req.route == Route::Rate {
            self.tr.span("wal.append", None, rid, || {
                wal.append(&[(user, item, score)])
            })
        } else {
            self.tr.span("wal.append", None, rid, || {
                wal.append_feedback(user, item, scope.as_deref())
            })
        };
        appended.expect("probe WAL append");
        self.wal_records += 1;
        self.batch.push(if req.route == Route::Rate {
            Pending::Rating(user, item, score)
        } else {
            Pending::Feedback(FeedbackEvent { user, item, scope })
        });
    }

    fn read(&mut self, req: &Request, rid: u64, root: usize) {
        let state = Arc::clone(&self.state);
        let snap = state.snapshot();
        let out = self.tr.span(
            &format!("http.route.{}", req.route.name()),
            Some(root),
            rid,
            || route_full(&state, &http_request(req)),
        );
        self.tr.span(
            &format!("json.render.{}", req.route.name()),
            Some(root),
            rid,
            || out.body.to_string(),
        );
        if out.status != 200 {
            self.violations
                .push(format!("in-process {} answered {}", req.path, out.status));
            return;
        }
        match req.route {
            Route::Recommend => {
                // The server's cache holds one list per (grouping, group)
                // until that grouping's version moves; mirror it to count
                // hits and fills, and time a fill on the same inputs.
                let mut parts = req.path.rsplit('/');
                let group: usize = parts.next().and_then(|g| g.parse().ok()).expect("group id");
                let name = parts.next().expect("grouping name").to_string();
                let g = snap.grouping(&name).expect("known grouping");
                let key = (name, group);
                if self.cached.get(&key) == Some(&g.version) {
                    self.hits += 1;
                } else {
                    self.fills += 1;
                    let members = &g.formation.grouping.groups[group].members;
                    let engine = &mut self.engine;
                    self.tr
                        .span("candidates.fill", None, rid, || {
                            engine.candidates_for_group(&snap.matrix, members)
                        })
                        .expect("members are rows of the snapshot");
                    self.cached.insert(key, g.version);
                }
            }
            Route::Stats => {
                // The quality block `/v1/stats` recomputes on every call.
                for (name, g) in &snap.groupings {
                    let items: Vec<Vec<u32>> = g
                        .formation
                        .grouping
                        .groups
                        .iter()
                        .map(|grp| grp.top_k.iter().map(|&(i, _)| i).collect())
                        .collect();
                    self.tr.span("online.evaluate", None, rid, || {
                        snap.feedback
                            .evaluate(name, &g.assignment, &items, g.config.k)
                    });
                }
            }
            _ => {}
        }
    }

    /// One background pass: the stages on the pending batch, then the
    /// real `process_pending` over the same batch.
    fn pass(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let pid = self.id();
        let root = self.tr.begin("pass", None, pid);
        let snap = self.state.snapshot();
        let mut ratings = Vec::new();
        let mut feedback = Vec::new();
        for p in self.batch.drain(..) {
            match p {
                Pending::Rating(u, i, s) => ratings.push((u, i, s)),
                Pending::Feedback(ev) => feedback.push(ev),
            }
        }
        if !ratings.is_empty() {
            let (matrix, outcomes) = self
                .tr
                .span("matrix.with_upserts", Some(root), pid, || {
                    snap.matrix.with_upserts(&ratings)
                })
                .expect("validated updates apply");
            let deltas: Vec<RatingDelta> = ratings
                .iter()
                .zip(outcomes)
                .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
                .collect();
            let mut dirty: Vec<u32> = ratings.iter().map(|&(u, _, _)| u).collect();
            dirty.sort_unstable();
            dirty.dedup();
            let prefs = self.tr.span("prefs.patched", Some(root), pid, || {
                snap.prefs.patched(&matrix, &dirty)
            });
            for (name, former) in self.shadows.iter_mut() {
                self.tr
                    .span(&format!("former.refresh.{name}"), Some(root), pid, || {
                        former.refresh(&matrix, &prefs, &deltas).map(|_| ())
                    })
                    .expect("shadow former refreshes");
            }
        }
        if !feedback.is_empty() {
            self.tr.span("online.observe", Some(root), pid, || {
                let mut window = (*snap.feedback).clone();
                for ev in feedback {
                    window = window.observe(ev);
                }
                window
            });
        }
        drop(snap);
        let state = Arc::clone(&self.state);
        let applied = self
            .tr
            .span("state.pass", Some(root), pid, || state.process_pending())
            .expect("pass applies validated records");
        if applied == 0 {
            self.violations.push("a pass applied nothing".into());
        }
        self.tr.end(root);
    }

    fn flush(&mut self) {
        self.pass();
        while self.state.pending_len() > 0 {
            self.state
                .process_pending()
                .expect("pass applies validated records");
        }
    }
}

/// Batching of the replayed warm-up.
const WARMUP_RECORDS_PER_PASS: f64 = 4.0;

fn durability(data: &Path) -> DurabilityOptions {
    DurabilityOptions {
        data_dir: data.to_path_buf(),
        sync: SyncMode::Always,
        checkpoint_interval: Duration::ZERO,
        retain_wal: false,
    }
}

/// Replays `plan` in-process. With `spans_on` off the same calls run
/// unrecorded, for the tracing overhead; `window_limit` caps the window
/// requests replayed, and `budget` stops the window replay early.
pub fn replay(
    plan: &Plan<'_>,
    spans_on: bool,
    budget: Duration,
    window_limit: Option<usize>,
) -> io::Result<Replay> {
    let tag = if spans_on { "traced" } else { "untraced" };
    let data = plan.dir.join(format!("{tag}-data"));
    let cfg = plan.wl.serve_config(plan.uni.n_users);
    let opts = durability(&data);
    let mut tr = Tracer::new(spans_on);
    let mut violations = Vec::new();

    // Boot, with the corpus load as a child span.
    let boot_ix = tr.begin("boot", None, 0);
    let mut loaded = None;
    let (state, report) = gf_serve::boot(cfg.clone(), &opts, || {
        let ix = tr.begin("boot.load", Some(boot_ix), 0);
        let file = std::fs::File::open(plan.corpus)
            .map_err(|e| gf_core::GfError::Persist(format!("open corpus: {e}")))?;
        let m = gf_datasets::io::read_tsv(BufReader::new(file), RatingScale::one_to_five())?.matrix;
        tr.end(ix);
        if spans_on {
            loaded = Some(m.clone());
        }
        Ok(m)
    })
    .map_err(gf)?;
    tr.end(boot_ix);
    if !report.cold_start {
        violations.push("traced boot was not cold".into());
    }
    let mut checkpoint_bytes = 0;
    if spans_on {
        // Boot's pieces, each on the same inputs: the initial formation,
        // and the checkpoint it wrote read back and written again.
        let matrix = loaded.take().expect("cold boot loaded the corpus");
        let formed = tr.span("boot.form", None, 0, || {
            ServeState::new(matrix, cfg.clone())
        });
        drop(formed.map_err(gf)?);
        let ck = tr
            .span("checkpoint.load", None, 0, || {
                checkpoint::load_latest(&data)
            })
            .map_err(|e| io::Error::other(e.to_string()))?
            .loaded
            .ok_or_else(|| io::Error::other("boot wrote no checkpoint"))?
            .0;
        let probe = plan.dir.join("checkpoint-probe");
        tr.span("checkpoint.write", None, 0, || {
            checkpoint::write(&probe, &ck)
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
        checkpoint_bytes = dir_bytes(&probe, "checkpoint-")?;
        std::fs::remove_dir_all(&probe)?;
    }
    drop(loaded);

    let wal_dir = plan.dir.join(format!("{tag}-wal-probe"));
    let (wal_probe, _) =
        Wal::open(&wal_dir, SyncMode::Always).map_err(|e| io::Error::other(e.to_string()))?;
    let mut r = Replayer {
        tr,
        state,
        wal_probe,
        wal_records: 0,
        shadows: BTreeMap::new(),
        cached: BTreeMap::new(),
        engine: CandidateEngine::new(),
        hits: 0,
        fills: 0,
        batch: Vec::new(),
        credit: 0.0,
        writes: 0,
        next_id: 0,
        violations: &mut violations,
    };

    // The shadow formers start from the booted snapshot; the warm-up
    // then builds the server's own standing formers, a few records per
    // pass so that every workload times its rating stages at least here.
    let snap = r.state.snapshot();
    for (name, g) in &snap.groupings {
        let former = IncrementalFormer::new(&snap.matrix, &snap.prefs, g.config).map_err(gf)?;
        r.shadows.insert(name.clone(), former);
    }
    drop(snap);
    for req in warmup_requests(plan.seed, plan.uni) {
        r.request(&req, WARMUP_RECORDS_PER_PASS);
    }
    r.flush();

    let started = Instant::now();
    let fill_start = r.tr.spans.len();
    for p in fill_plan(plan.seed, plan.uni) {
        r.request(&p.req, plan.fill_rpp);
    }
    r.flush();
    let window_start = r.tr.spans.len();
    let stop = started + budget;
    let cap = window_limit.unwrap_or(usize::MAX);
    // The closed loop's stream is regenerated from its seed, as far as
    // the end-to-end run got.
    let mut reads = Gen::new(plan.seed, Stream::Reads, plan.uni);
    let mut replayed = 0usize;
    while replayed < cap && (window_limit.is_some() || Instant::now() < stop) {
        let req = match &plan.window {
            Some(p) => match p.get(replayed) {
                Some(p) => p.req.clone(),
                None => break,
            },
            None if replayed < plan.window_requests => reads.read(),
            None => break,
        };
        r.request(&req, plan.window_rpp);
        replayed += 1;
    }
    r.flush();
    let window_end = r.tr.spans.len();
    let replay_s = started.elapsed().as_secs_f64();
    let digest = r.state.digest();
    let (cache_hits, cache_fills, wal_records) = (r.hits, r.fills, r.wal_records);
    let Replayer {
        mut tr,
        state,
        wal_probe,
        ..
    } = r;
    drop(wal_probe);
    let wal_bytes_per_record = dir_bytes(&wal_dir, "wal-")? as f64 / wal_records.max(1) as f64;
    std::fs::remove_dir_all(&wal_dir)?;
    drop(state);

    if spans_on {
        // Warm restart of the replayed data dir, then its pieces on a
        // copy: checkpoint load, state restore and the WAL scan.
        let crashed = plan.dir.join("traced-crashed");
        copy_dir(&data, &crashed)?;
        let warm = tr.begin("boot.warm", None, 0);
        let (state, report) = gf_serve::boot(cfg.clone(), &opts, || {
            Err(gf_core::GfError::Persist(
                "warm boot reloaded the corpus".into(),
            ))
        })
        .map_err(gf)?;
        tr.end(warm);
        if report.cold_start || state.digest() != digest {
            violations.push("in-process warm restart changed the digest".into());
        }
        drop(state);
        let ck = tr
            .span("checkpoint.load", None, 1, || {
                checkpoint::load_latest(&crashed)
            })
            .map_err(|e| io::Error::other(e.to_string()))?
            .loaded
            .ok_or_else(|| io::Error::other("no checkpoint to restore"))?
            .0;
        let restored = tr.span("boot.restore", None, 1, || {
            ServeState::restore_from(ck, cfg.clone())
        });
        drop(restored.map_err(gf)?);
        let scanned = tr.span("boot.wal_scan", None, 1, || {
            Wal::open(&crashed, SyncMode::Always)
        });
        drop(scanned.map_err(|e| io::Error::other(e.to_string()))?);
        std::fs::remove_dir_all(&crashed)?;
    }
    std::fs::remove_dir_all(&data)?;

    Ok(Replay {
        spans: tr.spans,
        fill: fill_start..window_start,
        window: window_start..window_end,
        replay_s,
        window_replayed: replayed,
        cache_hits,
        cache_fills,
        wal_bytes_per_record,
        checkpoint_bytes,
        violations,
    })
}

/// Writes spans as tab-separated `req name start_ns end_ns parent self_ns`.
pub fn write_spans(path: &PathBuf, spans: &[Span]) -> io::Result<()> {
    let own = crate::stats::self_times(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
    for (s, own) in spans.iter().zip(own) {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}\t{own}",
            s.req, s.name, s.start, s.end
        )?;
    }
    out.flush()
}
