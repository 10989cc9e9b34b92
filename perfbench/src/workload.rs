//! The three workloads: what each boots, what load it offers and which
//! phase's writes it times. `WORKLOADS.md` records why each exists.

use gf_core::{Aggregation, FormationConfig, Semantics};
use gf_serve::ServeConfig;

/// Top-`k` length of every grouping (`--k`).
pub const K: usize = 5;
/// Groups per grouping (`--ell`).
pub const ELL: usize = 10;
/// Set-up ratings that build every grouping's standing former.
pub const WARMUP_RATINGS: usize = 64;
/// Feedback events of the window fill: the whole default window.
pub const FILL_EVENTS: usize = 1024;
/// Offered rate of the window fill.
pub const FILL_HZ: f64 = 800.0;
/// Cold boots per run; `setup_s` is their median.
pub const SETUP_BOOTS: usize = 7;
/// Warm restarts per run; `recovery_s` is their median.
pub const RECOVERIES: usize = 2;

/// The load a workload offers in its timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open-loop `/v1/rate` on one connection; read-mix polls on the
    /// other at a fixed interval observe `version`.
    RateStream {
        /// Offered `/v1/rate` rate, 1/s.
        write_hz: f64,
        /// Offered poll rate, 1/s.
        poll_hz: f64,
    },
    /// A closed loop of read-mix requests on one connection; no writes.
    ReadMix,
    /// Open-loop, pipelined 1:1 rating/feedback writes on one connection
    /// beside open-loop read-mix reads on the other.
    WriteMix {
        /// Offered write rate, 1/s.
        write_hz: f64,
        /// Offered read rate, 1/s.
        read_hz: f64,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Corpus users.
    pub users: u32,
    /// Corpus items.
    pub items: u32,
    /// Groupings registered next to `default` (LM-MIN).
    pub groupings: &'static [&'static str],
    /// Checkpoint cadence as a share of the window (`None`: off). A share
    /// of 5/16 puts exactly three checkpoints inside every window that
    /// opens at most a quarter of a window after boot.
    pub checkpoint_share: Option<f64>,
    /// Timed-window load.
    pub load: Load,
}

impl Workload {
    /// Whether the window fill's writes are this workload's timed writes
    /// (`read_mix` has no writes in its window).
    pub fn fill_is_timed(&self) -> bool {
        matches!(self.load, Load::ReadMix)
    }

    /// Every grouping name, `default` first.
    pub fn grouping_names(&self) -> Vec<String> {
        std::iter::once("default")
            .chain(self.groupings.iter().copied())
            .map(String::from)
            .collect()
    }

    /// Checkpoint interval in ms for a window of `seconds` (0 = off).
    pub fn checkpoint_ms(&self, seconds: f64) -> u64 {
        self.checkpoint_share
            .map_or(0, |share| (seconds * share * 1e3).round() as u64)
    }

    /// `gf-serve` flags for this workload (corpus and data dir appended
    /// by the caller).
    pub fn server_args(&self, seconds: f64) -> Vec<String> {
        let mut args: Vec<String> = [
            "--port",
            "0",
            "--format",
            "tsv",
            "--scale",
            "one5",
            "--semantics",
            "lm",
            "--aggregation",
            "min",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(["--k".into(), K.to_string(), "--ell".into(), ELL.to_string()]);
        args.extend(["--wal-sync".into(), "always".into()]);
        args.extend([
            "--checkpoint-interval-ms".into(),
            self.checkpoint_ms(seconds).to_string(),
        ]);
        for name in self.groupings {
            args.extend(["--grouping".into(), grouping_spec(name).to_string()]);
        }
        args
    }

    /// The in-process configuration equal to [`Workload::server_args`].
    pub fn serve_config(&self, n_users: u32) -> ServeConfig {
        let ell = ELL.min(n_users as usize).max(1);
        let mut cfg = ServeConfig::new(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            K,
            ell,
        ));
        for name in self.groupings {
            let (semantics, aggregation) = grouping_kind(name);
            cfg = cfg.with_grouping(*name, FormationConfig::new(semantics, aggregation, K, ell));
        }
        cfg
    }
}

fn grouping_spec(name: &str) -> &'static str {
    match name {
        "av" => "av:semantics=av,agg=sum",
        "cons" => "cons:semantics=cons,lambda=0.5",
        "ldr" => "ldr:semantics=ldr",
        other => panic!("no grouping spec for {other:?}"),
    }
}

fn grouping_kind(name: &str) -> (Semantics, Aggregation) {
    match name {
        "av" => (Semantics::AggregateVoting, Aggregation::Sum),
        "cons" => (Semantics::Consensus { lambda: 0.5 }, Aggregation::Min),
        "ldr" => (Semantics::LeaderWeighted, Aggregation::Min),
        other => panic!("no grouping kind for {other:?}"),
    }
}

/// Every workload.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rate_stream",
        users: 50_000,
        items: 5_000,
        groupings: &[],
        checkpoint_share: None,
        load: Load::RateStream {
            write_hz: 50.0,
            poll_hz: 500.0,
        },
    },
    Workload {
        name: "read_mix",
        users: 50_000,
        items: 5_000,
        groupings: &["av"],
        checkpoint_share: None,
        load: Load::ReadMix,
    },
    Workload {
        name: "write_mix",
        users: 10_000,
        items: 1_000,
        groupings: &["av", "cons", "ldr"],
        checkpoint_share: Some(5.0 / 16.0),
        load: Load::WriteMix {
            write_hz: 1000.0,
            read_hz: 500.0,
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_checkpoints_fall_inside_every_window() {
        let w = by_name("write_mix").unwrap();
        // Before the window: the serving boot, the warm-up and the fill.
        // The fill alone takes FILL_EVENTS / FILL_HZ; allow a second for
        // the warm-up and the drains.
        let opens = FILL_EVENTS as f64 / FILL_HZ + 1.0;
        for seconds in [20.0, 30.0] {
            let interval = w.checkpoint_ms(seconds) as f64 / 1e3;
            // Ticks at k·interval after boot: three fit in a window that
            // opens at most W/4 after boot, a fourth does not.
            for offset in [0.0, opens, seconds / 4.0] {
                let inside = (1..10)
                    .map(|k| k as f64 * interval)
                    .filter(|t| *t >= offset && *t < offset + seconds)
                    .count();
                assert_eq!(inside, 3, "window {seconds} s, offset {offset} s");
            }
            // Later than that, a fourth tick falls inside.
            let late = seconds / 4.0 + 0.01;
            let inside = (1..10)
                .map(|k| k as f64 * interval)
                .filter(|t| *t >= late && *t < late + seconds)
                .count();
            assert_eq!(inside, 4, "window {seconds} s, offset {late} s");
        }
    }

    #[test]
    fn cli_and_in_process_configs_name_the_same_groupings() {
        for w in &WORKLOADS {
            let cfg = w.serve_config(50_000);
            let names: Vec<String> = cfg.groupings.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(names, w.grouping_names()[1..].to_vec());
            let flags = w
                .server_args(30.0)
                .iter()
                .filter(|a| *a == "--grouping")
                .count();
            assert_eq!(flags, w.groupings.len());
        }
    }
}
