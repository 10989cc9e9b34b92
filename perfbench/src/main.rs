//! `perfbench` — the gf-serve benchmark.
//!
//! ```text
//! perfbench --workload rate_stream|read_mix|write_mix --seed N --seconds S --trace 0|1 \
//!           --server PATH/TO/gf-serve --run-root DIR
//! ```
//!
//! With `--trace 0` it runs the workload end to end against the real
//! release binary and prints every end-to-end metric; with `--trace 1` it
//! runs the same end-to-end pass and then the traced in-process replay of
//! the same inputs, and prints every per-layer metric. Human-readable
//! lines (`metric NAME VALUE UNIT n=COUNT`) come first; the last line is
//! one JSON object. A failed correctness gate exits with status 1.
//! `run.py` builds both binaries and calls this; see `WORKLOADS.md`.

mod e2e;
mod http;
mod inputs;
mod layers;
mod openloop;
mod probe;
mod report;
mod server;
mod stats;
mod traced;
mod workload;

use report::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;
use workload::Workload;

/// The end-to-end metrics `BENCHMARK.json` gates, in the order the JSON
/// line carries them. Every other end-to-end metric is printed as a
/// `metric` line only; `WORKLOADS.md` records the spread that kept each
/// one out.
const END_TO_END: &[&str] = &["setup_s", "ok_ratio"];

/// The per-layer metrics of the JSON line: the ones every workload
/// measures. Per-grouping former lines are printed besides.
const PER_LAYER: &[&str] = &[
    "net.overhead_p50_us.group",
    "net.overhead_p50_us.recommend",
    "net.overhead_p50_us.stats",
    "http.route_p50_us.group",
    "http.route_p99_us.group",
    "http.route_p50_us.recommend",
    "http.route_p99_us.recommend",
    "http.route_p50_us.stats",
    "http.route_p99_us.stats",
    "http.route_p50_us.rate",
    "http.route_p99_us.rate",
    "http.route_p50_us.feedback",
    "http.route_p99_us.feedback",
    "json.render_p50_us.group",
    "json.render_p50_us.recommend",
    "json.render_p50_us.stats",
    "json.parse_p50_us",
    "online.evaluate_p50_us",
    "online.observe_us_per_chunk",
    "candidates.fill_p50_us",
    "candidates.hit_ratio",
    "state.rate_p50_us",
    "state.rate_p99_us",
    "state.feedback_p50_us",
    "state.feedback_p99_us",
    "wal.append_p50_us",
    "wal.append_p99_us",
    "wal.bytes_per_record",
    "state.pass_p50_ms",
    "state.pass_p99_ms",
    "state.passes",
    "state.records_per_pass",
    "state.pending_max",
    "state.queue_wait_p50_ms",
    "matrix.with_upserts_p50_ms",
    "prefs.patched_p50_ms",
    "former.refresh_p50_ms.default",
    "former.refresh_sum_p50_ms",
    "state.pass_residual_p50_ms",
    "state.stage_coverage_pct",
    "checkpoint.write_ms",
    "checkpoint.load_ms",
    "checkpoint.bytes",
    "boot.load_ms",
    "boot.form_ms",
    "boot.restore_ms",
    "boot.wal_scan_ms",
    "boot.replay_ms",
    "driver.late_p99_ms",
    "driver.probe_ms",
    "trace.overhead_pct",
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    run_root: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload rate_stream|read_mix|write_mix --seed N --seconds S \
         --trace 0|1 --server GF_SERVE --run-root DIR"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        kv.insert(flag, value);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {k}")))
    };
    let workload =
        workload::by_name(&get("--workload")).unwrap_or_else(|| usage("unknown workload"));
    Args {
        workload,
        seed: get("--seed")
            .parse()
            .unwrap_or_else(|_| usage("bad --seed")),
        seconds: get("--seconds")
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .unwrap_or_else(|| usage("bad --seconds")),
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace takes 0 or 1"),
        },
        server: PathBuf::from(get("--server")),
        run_root: PathBuf::from(get("--run-root")),
    }
}

fn end_to_end(wl: &Workload, e: &e2e::E2e, r: &mut Report) {
    r.median("setup_s", "s", &e.setup_s);
    r.median("recovery_s", "s", &e.recovery_s);
    let tw = e.timed_writes(wl);
    r.percentiles(
        "visible_lag_p50_ms",
        "visible_lag_p99_ms",
        "ms",
        tw.visible_lag_ms.clone(),
    );
    r.percentiles("ack_p50_ms", "ack_p99_ms", "ms", tw.ack_ms.clone());
    r.percentiles("read_p50_us", "read_p99_us", "us", e.read_us.clone());
    let reads = e.reads_ok as usize;
    r.put(
        "read_rps",
        e.reads_ok as f64 / e.window_s.max(1e-9),
        "1/s",
        reads,
    );
    r.put("rss_peak_mb", e.rss_peak_mb, "MB", 1);
    let attempted = e.attempted as usize;
    r.put(
        "ok_ratio",
        e.succeeded as f64 / e.attempted.max(1) as f64,
        "ratio",
        attempted,
    );
}

fn main() {
    let args = parse_args();
    let wl = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let probe_start = probe::machine_probe_ms();
    let dir = args.run_root.join(format!(
        "{}-seed{}-pid{}",
        wl.name,
        args.seed,
        std::process::id()
    ));
    let ctx = e2e::Ctx {
        server_bin: args.server.clone(),
        dir: dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match wl.load {
        workload::Load::RateStream { write_hz, poll_hz } => println!(
            "offered /v1/rate {write_hz}/s open loop; read-mix polls {poll_hz}/s"
        ),
        workload::Load::ReadMix => println!("offered read mix closed loop on one connection"),
        workload::Load::WriteMix { write_hz, read_hz } => println!(
            "offered writes {write_hz}/s (ratings:feedback 1:1) and reads {read_hz}/s, both open loop"
        ),
    }
    let e = match e2e::run(&ctx, wl) {
        Ok(e) => e,
        Err(err) => {
            eprintln!(
                "perfbench: end-to-end run failed: {err} (run dir kept: {})",
                dir.display()
            );
            exit(1);
        }
    };
    // A refused or lost request counts against `ok_ratio`; only a broken
    // gate (counters, versions, visibility, digest) fails the run.
    let mut violations = e.violations.clone();
    let failed = e.attempted - e.succeeded;
    let mut report = Report::default();
    if args.trace {
        let uni = &e.universe;
        let corpus = dir.join("corpus.tsv");
        let plan = traced::Plan {
            wl,
            seed: args.seed,
            uni,
            corpus: &corpus,
            dir: &dir,
            fill_rpp: e.fill.records_per_pass(),
            window_rpp: e.window.records_per_pass(),
            window: e2e::window_plan(wl, args.seed, uni, args.seconds),
            window_requests: e.window_requests,
        };
        let budget = Duration::from_secs_f64((args.seconds / 2.0).max(1.0));
        let traced = traced::replay(&plan, true, budget, None).and_then(|on| {
            let off = traced::replay(&plan, false, budget, Some(on.window_replayed))?;
            Ok((on, off))
        });
        match traced {
            Ok((on, off)) => {
                violations.extend(on.violations.iter().cloned());
                violations.extend(off.violations.iter().cloned());
                let spans_dir = args.run_root.join("spans");
                let path = spans_dir.join(format!("{}-seed{}.tsv", wl.name, args.seed));
                if let Err(err) = std::fs::create_dir_all(&spans_dir)
                    .and_then(|_| traced::write_spans(&path, &on.spans))
                {
                    eprintln!("perfbench: writing spans failed: {err}");
                    exit(1);
                }
                println!("spans {} ({} spans)", path.display(), on.spans.len());
                let probe_end = probe::machine_probe_ms();
                println!("probe_ms start {probe_start:.1} end {probe_end:.1}");
                layers::report(
                    wl,
                    &e,
                    &on,
                    &off,
                    (probe_start + probe_end) / 2.0,
                    &mut report,
                );
            }
            Err(err) => {
                eprintln!(
                    "perfbench: traced run failed: {err} (run dir kept: {})",
                    dir.display()
                );
                exit(1);
            }
        }
    } else {
        let probe_end = probe::machine_probe_ms();
        println!("probe_ms start {probe_start:.1} end {probe_end:.1}");
        let boots: Vec<String> = e.setup_s.iter().map(|s| format!("{s:.3}")).collect();
        println!("boots_s {}", boots.join(" "));
        end_to_end(wl, &e, &mut report);
    }
    let keys = if args.trace { PER_LAYER } else { END_TO_END };
    for key in keys.iter().filter(|k| report.get(k).is_none()) {
        violations.push(format!("metric {key} was not measured"));
    }
    for v in &violations {
        println!("violation {v}");
    }
    let correct = violations.is_empty();
    report.print(keys, correct, e.attempted, failed);
    if correct {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        eprintln!(
            "perfbench: correctness gate failed (run dir kept: {})",
            dir.display()
        );
        exit(1);
    }
}
