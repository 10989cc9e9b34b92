//! Durability-layer costs: checkpoint encode/write, checkpoint load, and
//! WAL append under both sync modes, plus the replay-side scan rate.
//!
//! These price the three knobs `docs/OPERATIONS.md` asks operators to
//! trade off:
//!
//! * `checkpoint_write` — freeze-and-persist one full serving snapshot
//!   (encode + fsync + atomic rename); bounds how cheap a short
//!   `--checkpoint-interval-ms` can be.
//! * `checkpoint_load` — decode + verify the newest checkpoint; the fixed
//!   part of every warm restart.
//! * `wal_append_always` / `wal_append_interval` — the per-`/v1/rate` tax of
//!   `--wal-sync always` (fsync before ack) vs `interval` (buffered).
//! * `wal_scan_4096` — decode + CRC-check 4096 journal records; the
//!   variable part of a warm restart (replay applies on top of this).
//!
//! Sizes follow `incremental_refresh`: 50k users x 5k items at
//! `GF_BENCH_SCALE=paper`, 2k x 200 at `quick`. Group keys are distinct
//! from the `bench_guard.sh` hot-path keys on purpose.

use criterion::{criterion_group, criterion_main, Criterion};
use gf_bench::Scale;
use gf_core::{Aggregation, FormationConfig, Semantics};
use gf_datasets::SynthConfig;
use gf_persist::checkpoint::{self, CheckpointGrouping, CheckpointState};
use gf_persist::wal::{self, SyncMode, Wal};
use gf_serve::{ServeConfig, ServeState};
use std::path::PathBuf;
use std::time::Duration;

const SCAN_RECORDS: u64 = 4096;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gf-bench-persist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn persist_durability_benches(c: &mut Criterion) {
    let scale = Scale::from_env();
    let n_users = scale.shrink(50_000, 25) as u32;
    let n_items = scale.shrink(5_000, 25) as u32;
    let corpus = SynthConfig::yahoo_music()
        .with_users(n_users)
        .with_items(n_items)
        .generate();
    let formation =
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10).with_threads(0);
    // A real serving snapshot supplies the formation + prefs a live
    // checkpoint would carry.
    let state = ServeState::new(
        corpus.matrix.clone(),
        ServeConfig::new(formation).with_batch_window(Duration::ZERO),
    )
    .expect("initial formation");
    let snap = state.snapshot();
    let default = snap.default_grouping();
    let ck = CheckpointState {
        snapshot_version: snap.version,
        wal_seq: 0,
        applied: 0,
        users_admitted: 0,
        items_admitted: 0,
        matrix: corpus.matrix.clone(),
        prefs: (*snap.prefs).clone(),
        groupings: vec![CheckpointGrouping {
            name: "default".to_string(),
            version: default.version,
            config: default.config,
            formation: default.formation.clone(),
            former: None,
        }],
        feedback: gf_core::OnlineEval::default(),
    };

    let mut g = c.benchmark_group(format!("persist-durability-{n_users}x{n_items}"));
    g.sample_size(10);

    let ck_dir = tmpdir("checkpoint");
    g.bench_function("checkpoint_write", |b| {
        b.iter(|| checkpoint::write(&ck_dir, &ck).expect("write checkpoint"))
    });
    g.bench_function("checkpoint_load", |b| {
        b.iter(|| {
            checkpoint::load_latest(&ck_dir)
                .expect("load")
                .loaded
                .expect("checkpoint present")
        })
    });

    let mut cursor = 0u32;
    let mut next_update = move || {
        cursor = cursor.wrapping_add(7919);
        (
            cursor % n_users,
            cursor % n_items,
            1.0 + (cursor % 5) as f64,
        )
    };

    for (name, sync) in [
        ("wal_append_always", SyncMode::Always),
        (
            "wal_append_interval",
            SyncMode::Interval(Duration::from_millis(50)),
        ),
    ] {
        let dir = tmpdir(name);
        let (mut w, _) = Wal::open(&dir, sync).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| w.append(&[next_update()]).expect("append"))
        });
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let scan_dir = tmpdir("scan");
    let (mut w, _) = Wal::open(&scan_dir, SyncMode::Interval(Duration::from_secs(1))).unwrap();
    for _ in 0..SCAN_RECORDS {
        w.append(&[next_update()]).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    g.bench_function(format!("wal_scan_{SCAN_RECORDS}"), |b| {
        b.iter(|| {
            let scanned = wal::scan(&scan_dir).expect("scan");
            assert_eq!(scanned.records.len() as u64, SCAN_RECORDS);
            scanned
        })
    });
    let _ = std::fs::remove_dir_all(&scan_dir);
    let _ = std::fs::remove_dir_all(&ck_dir);

    g.finish();
}

criterion_group!(benches, persist_durability_benches);
criterion_main!(benches);
