//! Per-layer metrics: the traced replay's spans, plus the counts the
//! end-to-end run of the same inputs observed.

use crate::e2e::E2e;
use crate::http::Route;
use crate::report::Report;
use crate::stats::{median, percentile, Span};
use crate::traced::Replay;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::ops::Range;

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Durations of the spans called `name` inside `range`, in ns / `unit`.
fn durations(spans: &[Span], range: Range<usize>, name: &str, unit: f64) -> Vec<f64> {
    spans[range]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / unit)
        .collect()
}

/// Derives every per-layer metric. `on` is the traced replay, `off` the
/// same replay with recording off.
pub fn report(wl: &Workload, e: &E2e, on: &Replay, off: &Replay, probe_ms: f64, r: &mut Report) {
    let spans = &on.spans;
    // Every replayed request from the warm-up on; the boot probes come
    // before the first one.
    let first_request = spans
        .iter()
        .position(|s| s.name == "request")
        .unwrap_or(on.fill.start);
    let replayed = first_request..on.window.end;
    let dur =
        |range: &Range<usize>, name: &str, unit: f64| durations(spans, range.clone(), name, unit);

    for route in Route::ALL {
        let n = route.name();
        let d = dur(&replayed, &format!("http.route.{n}"), US);
        r.percentiles(
            &format!("http.route_p50_us.{n}"),
            &format!("http.route_p99_us.{n}"),
            "us",
            d,
        );
    }
    for route in [Route::Group, Route::Recommend, Route::Stats] {
        let n = route.name();
        // Socket round trip minus in-process routing, both in the window.
        let rtt = e
            .round_trip_us
            .get(&route)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let routed = dur(&on.window, &format!("http.route.{n}"), US);
        if let (Some(rtt_p50), Some(route_p50)) = (median(rtt), median(&routed)) {
            r.put(
                format!("net.overhead_p50_us.{n}"),
                rtt_p50 - route_p50,
                "us",
                rtt.len(),
            );
        }
        r.median(
            &format!("json.render_p50_us.{n}"),
            "us",
            &dur(&replayed, &format!("json.render.{n}"), US),
        );
    }
    r.median("json.parse_p50_us", "us", &dur(&replayed, "json.parse", US));
    r.median(
        "online.evaluate_p50_us",
        "us",
        &dur(&replayed, "online.evaluate", US),
    );
    r.median(
        "online.observe_us_per_chunk",
        "us",
        &dur(&replayed, "online.observe", US),
    );
    r.median(
        "candidates.fill_p50_us",
        "us",
        &dur(&replayed, "candidates.fill", US),
    );
    let lookups = on.cache_hits + on.cache_fills;
    r.put(
        "candidates.hit_ratio",
        on.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    for key in ["state.rate", "state.feedback", "wal.append"] {
        r.percentiles(
            &format!("{key}_p50_us"),
            &format!("{key}_p99_us"),
            "us",
            dur(&replayed, key, US),
        );
    }
    let tw = e.timed_writes(wl);
    let writes = tw.writes as usize;
    r.put("wal.bytes_per_record", on.wal_bytes_per_record, "B", writes);

    // Passes of the timed write phase. `read_mix` rates only during its
    // warm-up, so its rating stages come from every replayed phase.
    let write_phase = if wl.fill_is_timed() {
        on.fill.clone()
    } else {
        on.window.clone()
    };
    let stages = if dur(&write_phase, "former.refresh.default", MS).is_empty() {
        replayed.clone()
    } else {
        write_phase.clone()
    };
    let pass = dur(&write_phase, "state.pass", MS);
    if let Some(pass_p50) = median(&pass) {
        let lag_p50 = median(&tw.visible_lag_ms).unwrap_or(0.0);
        r.put(
            "state.queue_wait_p50_ms",
            lag_p50 - pass_p50,
            "ms",
            tw.visible_lag_ms.len(),
        );
    }
    r.percentiles("state.pass_p50_ms", "state.pass_p99_ms", "ms", pass);
    r.put("state.passes", tw.installs as f64, "count", 1);
    r.put(
        "state.records_per_pass",
        tw.records_per_pass(),
        "ratio",
        tw.installs as usize,
    );
    r.put("state.pending_max", tw.pending_max as f64, "count", writes);
    r.median(
        "matrix.with_upserts_p50_ms",
        "ms",
        &dur(&stages, "matrix.with_upserts", MS),
    );
    r.median(
        "prefs.patched_p50_ms",
        "ms",
        &dur(&stages, "prefs.patched", MS),
    );
    for name in wl.grouping_names() {
        let d = dur(&stages, &format!("former.refresh.{name}"), MS);
        r.median(&format!("former.refresh_p50_ms.{name}"), "ms", &d);
    }
    // Per pass (its spans share the pass id): the stages' total, the
    // formers' part of it, and `process_pending` itself.
    let mut per_pass: BTreeMap<u64, [f64; 3]> = BTreeMap::new();
    for s in &spans[stages] {
        let d = (s.end - s.start) as f64 / MS;
        let slot = per_pass.entry(s.req).or_default();
        match s.name.as_str() {
            "state.pass" => slot[2] += d,
            "matrix.with_upserts" | "prefs.patched" | "online.observe" => slot[0] += d,
            n if n.starts_with("former.refresh.") => {
                slot[0] += d;
                slot[1] += d;
            }
            _ => {}
        }
    }
    let passes: Vec<[f64; 3]> = per_pass.into_values().filter(|p| p[2] > 0.0).collect();
    let refresh: Vec<f64> = passes.iter().map(|p| p[1]).filter(|&f| f > 0.0).collect();
    r.median("former.refresh_sum_p50_ms", "ms", &refresh);
    let residual: Vec<f64> = passes.iter().map(|p| p[2] - p[0]).collect();
    r.median("state.pass_residual_p50_ms", "ms", &residual);
    let stage_total: f64 = passes.iter().map(|p| p[0]).sum();
    let pass_total: f64 = passes.iter().map(|p| p[2]).sum();
    let coverage = 100.0 * stage_total / pass_total.max(1e-9);
    r.put("state.stage_coverage_pct", coverage, "%", passes.len());
    if coverage < 85.0 && !wl.fill_is_timed() {
        r.notes
            .push(format!("stage spans cover only {coverage:.1}% of the pass"));
    }

    // Boot and recovery pieces: request id 0 marks the cold boot's
    // probes, 1 the warm restart's. A missing span leaves its metric
    // unmeasured, which fails the run.
    let once = |name: &str, req: u64| {
        spans
            .iter()
            .find(|s| s.name == name && s.req == req)
            .map(|s| (s.end - s.start) as f64 / MS)
    };
    let mut put_once = |key: &str, name: &str, req: u64| {
        if let Some(ms) = once(name, req) {
            r.put(key, ms, "ms", 1);
        }
    };
    put_once("checkpoint.write_ms", "checkpoint.write", 0);
    put_once("checkpoint.load_ms", "checkpoint.load", 0);
    put_once("boot.load_ms", "boot.load", 0);
    put_once("boot.form_ms", "boot.form", 0);
    put_once("boot.restore_ms", "boot.restore", 1);
    put_once("boot.wal_scan_ms", "boot.wal_scan", 1);
    r.put("checkpoint.bytes", on.checkpoint_bytes as f64, "B", 1);
    // Replay is what the warm boot spent beyond its pieces, each timed
    // in a separate call; on a short tail their noise can exceed it.
    let pieces = [
        once("checkpoint.load", 1),
        once("boot.restore", 1),
        once("boot.wal_scan", 1),
        once("checkpoint.write", 0),
    ];
    if let (Some(warm), Some(pieces)) = (
        once("boot.warm", 0),
        pieces.into_iter().sum::<Option<f64>>(),
    ) {
        let replay = warm - pieces;
        r.put("boot.replay_ms", replay, "ms", 1);
        if replay < 0.0 {
            r.notes.push(format!(
                "boot.replay_ms is negative ({replay:.3} ms): the separately timed pieces \
                 exceeded the warm boot"
            ));
        }
    }

    let mut late = e.late_ms.clone();
    late.sort_by(f64::total_cmp);
    r.put(
        "driver.late_p99_ms",
        percentile(&late, 0.99).unwrap_or(0.0),
        "ms",
        late.len(),
    );
    r.put("driver.probe_ms", probe_ms, "ms", 2);
    r.put(
        "trace.overhead_pct",
        100.0 * (on.replay_s - off.replay_s) / off.replay_s.max(1e-9),
        "%",
        on.window_replayed,
    );
}
