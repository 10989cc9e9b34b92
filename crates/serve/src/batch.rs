//! Request coalescing for `/v1/form`.
//!
//! Formation is the expensive operation the serving layer exists to
//! amortize: when many clients ask for a (re-)formation at once, running
//! one `ShardedFormer` pass per request would melt the box for identical
//! answers. The (crate-private) `Batcher` coalesces concurrent requests with the *same*
//! [`FormationConfig`] arriving within a small window into one run: the
//! first request becomes the **leader**, sleeps out the window so
//! followers can join, executes once, and every member of the batch
//! returns the same installed snapshot. Requests with different
//! configurations never coalesce (they would produce different answers).
//!
//! A leader removes its slot *before* running, so requests arriving while
//! a long formation is executing open the next batch instead of latching
//! onto a stale one.

use crate::state::Snapshot;
use gf_core::{
    Aggregation, FormationConfig, FxHashMap, GfError, MissingPolicy, Result, Semantics,
    WeightScheme,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What a batched `/v1/form` call produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The snapshot installed by the batch's single formation run.
    pub snapshot: Arc<Snapshot>,
    /// How many requests this batch answered (1 = no coalescing).
    pub batch_size: u64,
    /// Whether this request executed the run (vs joining one).
    pub leader: bool,
}

/// Hashable identity of a formation request: the target grouping plus the
/// full formation configuration; two requests coalesce iff their keys are
/// equal. Requests for different groupings never coalesce even under the
/// same configuration — they install different registry entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BatchKey {
    grouping: String,
    /// Semantics discriminant; [`Semantics::Consensus`]'s `lambda` is
    /// keyed separately by bit pattern.
    semantics: u8,
    lambda: u64,
    agg: u8,
    k: usize,
    ell: usize,
    policy: u8,
    n_threads: usize,
}

impl BatchKey {
    fn of(grouping: &str, cfg: &FormationConfig) -> BatchKey {
        let (semantics, lambda) = match cfg.semantics {
            Semantics::LeastMisery => (0, 0.0),
            Semantics::AggregateVoting => (1, 0.0),
            Semantics::Consensus { lambda } => (2, lambda),
            Semantics::LeaderWeighted => (3, 0.0),
        };
        BatchKey {
            grouping: grouping.to_string(),
            semantics,
            lambda: lambda.to_bits(),
            // Full discriminant, not a tag prefix: "MIN"/"MAX" share a
            // first byte, and the weight scheme changes the answer too.
            agg: match cfg.aggregation {
                Aggregation::Min => 0,
                Aggregation::Max => 1,
                Aggregation::Sum => 2,
                Aggregation::WeightedSum(WeightScheme::Uniform) => 3,
                Aggregation::WeightedSum(WeightScheme::InversePosition) => 4,
                Aggregation::WeightedSum(WeightScheme::InverseLog2) => 5,
            },
            k: cfg.k,
            ell: cfg.ell,
            policy: match cfg.policy {
                MissingPolicy::Min => 0,
                MissingPolicy::UserMean => 1,
                MissingPolicy::Skip => 2,
            },
            n_threads: cfg.n_threads,
        }
    }
}

/// One in-flight batch; followers block on `done` until the leader
/// publishes into `result`.
struct Slot {
    result: Mutex<Option<Result<Arc<Snapshot>>>>,
    done: Condvar,
    members: AtomicU64,
}

/// Publishes an error to a slot if dropped during unwinding — armed while
/// the leader executes its run and disarmed (`mem::forget`) on normal
/// return, so a panicking formation never strands followers on the
/// condvar.
struct PublishOnUnwind<'a> {
    slot: &'a Slot,
}

impl Drop for PublishOnUnwind<'_> {
    fn drop(&mut self) {
        let mut published = match self.slot.result.lock() {
            Ok(p) => p,
            Err(poisoned) => poisoned.into_inner(),
        };
        *published = Some(Err(GfError::InvalidGrouping(
            "formation run panicked".to_string(),
        )));
        self.slot.done.notify_all();
    }
}

/// Coalesces same-configuration submissions within a time window.
pub(crate) struct Batcher {
    window: Duration,
    slots: Mutex<FxHashMap<BatchKey, Arc<Slot>>>,
}

impl Batcher {
    pub(crate) fn new(window: Duration) -> Batcher {
        Batcher {
            window,
            slots: Mutex::new(FxHashMap::default()),
        }
    }

    /// Submits a formation request. The first submitter for a key becomes
    /// the leader and executes `run` after waiting out the window; later
    /// same-key submitters block until the leader's result is published
    /// and share it.
    pub(crate) fn submit(
        &self,
        grouping: &str,
        cfg: FormationConfig,
        run: impl FnOnce() -> Result<Arc<Snapshot>>,
    ) -> Result<BatchOutcome> {
        let key = BatchKey::of(grouping, &cfg);
        let (slot, leader) = {
            let mut slots = self.slots.lock().expect("batch slots poisoned");
            match slots.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                        members: AtomicU64::new(0),
                    });
                    slots.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        slot.members.fetch_add(1, Ordering::Relaxed);

        if leader {
            if !self.window.is_zero() {
                std::thread::sleep(self.window);
            }
            // Close the batch before the (potentially long) run so new
            // arrivals start the next one.
            self.slots
                .lock()
                .expect("batch slots poisoned")
                .remove(&key);
            // If `run` panics the guard publishes an error instead, so
            // followers get a response rather than waiting forever.
            let guard = PublishOnUnwind { slot: &slot };
            let result = run();
            std::mem::forget(guard);
            let mut published = slot.result.lock().expect("batch result poisoned");
            *published = Some(result.clone());
            slot.done.notify_all();
            drop(published);
            result.map(|snapshot| BatchOutcome {
                snapshot,
                batch_size: slot.members.load(Ordering::Relaxed),
                leader: true,
            })
        } else {
            let mut published = slot.result.lock().expect("batch result poisoned");
            while published.is_none() {
                published = slot.done.wait(published).expect("batch result poisoned");
            }
            let result = published.as_ref().expect("published above").clone();
            drop(published);
            result.map(|snapshot| BatchOutcome {
                snapshot,
                batch_size: slot.members.load(Ordering::Relaxed),
                leader: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(agg: Aggregation) -> FormationConfig {
        FormationConfig::new(Semantics::LeastMisery, agg, 3, 5)
    }

    #[test]
    fn keys_distinguish_every_aggregation() {
        // Regression: Min and Max share a tag prefix ("MIN"/"MAX") and
        // must still never coalesce; weighted-sum schemes differ too.
        let aggs = [
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Sum,
            Aggregation::WeightedSum(WeightScheme::Uniform),
            Aggregation::WeightedSum(WeightScheme::InversePosition),
            Aggregation::WeightedSum(WeightScheme::InverseLog2),
        ];
        for (i, &a) in aggs.iter().enumerate() {
            for &b in &aggs[i + 1..] {
                assert_ne!(
                    BatchKey::of("default", &cfg(a)),
                    BatchKey::of("default", &cfg(b)),
                    "{a:?} {b:?}"
                );
            }
        }
        assert_eq!(
            BatchKey::of("default", &cfg(Aggregation::Min)),
            BatchKey::of("default", &cfg(Aggregation::Min))
        );
    }

    #[test]
    fn keys_distinguish_groupings_and_moment_semantics() {
        let c = cfg(Aggregation::Min);
        // Same configuration, different grouping: never coalesce.
        assert_ne!(BatchKey::of("a", &c), BatchKey::of("b", &c));
        // Consensus lambdas key by bit pattern.
        let cons =
            |lambda| FormationConfig::new(Semantics::Consensus { lambda }, Aggregation::Min, 3, 5);
        assert_ne!(BatchKey::of("a", &cons(0.5)), BatchKey::of("a", &cons(0.7)));
        assert_eq!(BatchKey::of("a", &cons(0.5)), BatchKey::of("a", &cons(0.5)));
        // The two moment semantics never collide with the paper pair.
        let ldr = FormationConfig::new(Semantics::LeaderWeighted, Aggregation::Min, 3, 5);
        let av = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Min, 3, 5);
        assert_ne!(BatchKey::of("a", &ldr), BatchKey::of("a", &av));
        assert_ne!(BatchKey::of("a", &ldr), BatchKey::of("a", &cons(0.0)));
    }

    #[test]
    fn followers_are_released_when_the_leader_panics() {
        // Window far larger than the follower's join delay so a slow CI
        // machine cannot promote the follower to leader of a new batch.
        let batcher = Arc::new(Batcher::new(Duration::from_millis(500)));
        let key_cfg = cfg(Aggregation::Min);
        let leader = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    batcher.submit("default", key_cfg, || panic!("formation blew up"))
                }));
                assert!(result.is_err(), "leader should propagate the panic");
            })
        };
        // Give the leader time to claim the slot, then join as follower.
        std::thread::sleep(Duration::from_millis(50));
        let follower = batcher.submit("default", key_cfg, || unreachable!("follower never runs"));
        match follower {
            Err(GfError::InvalidGrouping(message)) => {
                assert!(message.contains("panicked"), "{message}")
            }
            other => panic!("follower should see the panic error, got {other:?}"),
        }
        leader.join().unwrap();
    }
}
