//! Background-refresh cost vs grouping-registry size.
//!
//! A multi-grouping server rebuilds the matrix and preference index
//! **once** per pass and then fans the same delta batch out to every
//! named grouping's standing former. This bench pins how that fan-out
//! scales: the same 64-update batch driven through the real `ServeState`
//! machinery with 1, 2 and 4 registered groupings of *different*
//! aggregation semantics (least-misery, average, consensus,
//! leader-weighted), so EXPERIMENTS.md can record the marginal cost of
//! each extra grouping per PR.
//!
//! * `refresh_64_x1` — the registry is just `default` (LM/min); the
//!   baseline `incremental_refresh::refresh_64_incremental` shape.
//! * `refresh_64_x2` — + `av` (AV/sum).
//! * `refresh_64_x4` — + `cons` (consensus λ=0.5/min) and `ldr`
//!   (leader-weighted/max): the crash-harness registry plus one.
//! * `register_grouping` — `form_named` of one extra grouping on a
//!   standing state: what a live `POST /v1/grouping` pays at scale (a full
//!   formation; the matrix/prefs are shared, never copied).
//!
//! Sizes follow `incremental_refresh`: 50k users x 5k items at
//! `GF_BENCH_SCALE=paper`, 2k x 200 at `quick`.

use criterion::{criterion_group, criterion_main, Criterion};
use gf_bench::Scale;
use gf_core::{Aggregation, FormationConfig, RefreshMode, Semantics};
use gf_datasets::SynthConfig;
use gf_serve::{ServeConfig, ServeState};
use std::sync::Arc;
use std::time::Duration;

const BATCH: u32 = 64;

/// The registry the sweep grows through, in registration order.
fn extra_groupings(base: FormationConfig) -> [(&'static str, FormationConfig); 3] {
    let mut av = base;
    av.semantics = Semantics::AggregateVoting;
    av.aggregation = Aggregation::Sum;
    let mut cons = base;
    cons.semantics = Semantics::Consensus { lambda: 0.5 };
    let mut ldr = base;
    ldr.semantics = Semantics::LeaderWeighted;
    ldr.aggregation = Aggregation::Max;
    [("av", av), ("cons", cons), ("ldr", ldr)]
}

fn multi_grouping_refresh_benches(c: &mut Criterion) {
    let scale = Scale::from_env();
    let n_users = scale.shrink(50_000, 25) as u32;
    let n_items = scale.shrink(5_000, 25) as u32;
    let corpus = SynthConfig::yahoo_music()
        .with_users(n_users)
        .with_items(n_items)
        .generate();
    let base = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10)
        .with_threads(0)
        .with_refresh(RefreshMode::Incremental);

    let mut g = c.benchmark_group(format!("multi-grouping-refresh-{n_users}x{n_items}"));
    g.sample_size(10);

    // A deterministic update stream shared by all registry sizes.
    let mut cursor = 0u32;
    let mut next_update = move || {
        cursor = cursor.wrapping_add(7919);
        (
            cursor % n_users,
            cursor % n_items,
            1.0 + (cursor % 5) as f64,
        )
    };

    let extras = extra_groupings(base);
    for registry_size in [1usize, 2, 4] {
        let mut cfg = ServeConfig::new(base).with_batch_window(Duration::from_millis(2));
        for (name, fc) in extras.iter().take(registry_size - 1) {
            cfg = cfg.with_grouping(*name, *fc);
        }
        let state = ServeState::new(corpus.matrix.clone(), cfg).expect("initial formation");
        // Prime: every grouping's standing former initializes on the
        // first pass, outside the measured region.
        let (u, i, s) = next_update();
        state.rate(u, i, s).unwrap();
        state.flush().unwrap();
        g.bench_function(format!("refresh_64_x{registry_size}"), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let (u, i, s) = next_update();
                    state.rate(u, i, s).unwrap();
                }
                state.flush().unwrap();
            })
        });
    }

    // What a live `POST /v1/grouping` costs: one full formation of a new
    // named grouping over the standing (shared) matrix + prefs.
    {
        let state: Arc<ServeState> = ServeState::new(
            corpus.matrix.clone(),
            ServeConfig::new(base).with_batch_window(Duration::ZERO),
        )
        .expect("initial formation");
        let (_, register) = extras[0];
        g.bench_function("register_grouping", |b| {
            b.iter(|| state.form_named("extra", register).expect("form_named"))
        });
    }

    g.finish();
}

criterion_group!(benches, multi_grouping_refresh_benches);
criterion_main!(benches);
