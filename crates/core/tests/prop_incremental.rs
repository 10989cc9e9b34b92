//! Property suite for dirty-bucket incremental re-formation: for random
//! rating streams split into arbitrary dirty-set partitions,
//! [`IncrementalFormer`] must (a) keep the Step-1 bucket state bit-for-bit
//! equal to a cold `build_buckets` run after **every** batch and (b) emit
//! the exact cold [`GreedyFormer`] grouping.

use gf_core::alg::bucket::{build_buckets, canonical_buckets};
use gf_core::{
    Aggregation, FormationConfig, GreedyFormer, GroupFormer, IncrementalFormer, MissingPolicy,
    PrefIndex, RatingDelta, RatingMatrix, RatingScale, Semantics,
};
use proptest::prelude::*;

/// A random sparse instance on the 1..5 integer grid with at least one
/// rating (builders reject empty matrices).
#[derive(Debug, Clone)]
struct Instance {
    n: u32,
    m: u32,
    triples: Vec<(u32, u32, f64)>,
}

fn instance(max_users: u32, max_items: u32) -> impl Strategy<Value = Instance> {
    (2..=max_users, 2..=max_items)
        .prop_flat_map(|(n, m)| {
            let cell = (0..n, 0..m, 1..=5u8, any::<bool>());
            (
                Just(n),
                Just(m),
                proptest::collection::vec(cell, 1..(n as usize * m as usize).min(40)),
            )
        })
        .prop_map(|(n, m, cells)| {
            let mut seen = std::collections::HashSet::new();
            let mut triples = Vec::new();
            for (u, i, r, keep) in cells {
                if keep && seen.insert((u, i)) {
                    triples.push((u, i, r as f64));
                }
            }
            if triples.is_empty() {
                triples.push((0, 0, 3.0));
            }
            Instance { n, m, triples }
        })
}

fn matrix_of(inst: &Instance) -> RatingMatrix {
    RatingMatrix::from_triples(
        inst.n,
        inst.m,
        inst.triples.iter().copied(),
        RatingScale::one_to_five(),
    )
    .unwrap()
}

fn config(sem_lm: bool, agg_ix: usize, k: usize, ell: usize, policy_ix: usize) -> FormationConfig {
    let sem = if sem_lm {
        Semantics::LeastMisery
    } else {
        Semantics::AggregateVoting
    };
    let policy = [
        MissingPolicy::Min,
        MissingPolicy::Skip,
        MissingPolicy::UserMean,
    ][policy_ix];
    FormationConfig::new(sem, Aggregation::paper_set()[agg_ix], k, ell).with_policy(policy)
}

/// Applies one dirty batch through the batched core hooks and returns the
/// deltas the former needs.
fn apply_batch(
    matrix: &mut RatingMatrix,
    prefs: &mut PrefIndex,
    batch: &[(u32, u32, f64)],
) -> Vec<RatingDelta> {
    let outcomes = matrix.upsert_batch(batch).unwrap();
    let users: Vec<u32> = batch.iter().map(|&(u, _, _)| u).collect();
    prefs.patch_users(matrix, &users);
    batch
        .iter()
        .zip(outcomes)
        .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
        .collect()
}

/// Splits `updates` into batches of the given sizes (cycled); every
/// partition of the same stream must produce the same final state.
fn partition(updates: &[(u32, u32, f64)], sizes: &[usize]) -> Vec<Vec<(u32, u32, f64)>> {
    let mut batches = Vec::new();
    let mut rest = updates;
    let mut ix = 0usize;
    while !rest.is_empty() {
        let take = sizes[ix % sizes.len()].clamp(1, rest.len());
        batches.push(rest[..take].to_vec());
        rest = &rest[take..];
        ix += 1;
    }
    batches
}

fn assert_buckets_match_cold(
    former: &IncrementalFormer,
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    cfg: &FormationConfig,
) {
    let cold = canonical_buckets(build_buckets(
        matrix,
        prefs,
        cfg.semantics,
        cfg.aggregation,
        cfg.policy,
        cfg.k,
    ));
    assert_eq!(former.canonical_buckets(), cold);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Unbounded repair: after every dirty batch — however the stream is
    /// partitioned — buckets equal a cold Step 1 and the grouping equals a
    /// cold GreedyFormer run, exactly.
    #[test]
    fn incremental_equals_cold_over_any_partition(
        inst in instance(9, 7),
        updates in proptest::collection::vec((0u32..9, 0u32..7, 1u8..=5), 1..20),
        sizes in proptest::collection::vec(1usize..5, 1..4),
        (sem_lm, agg_ix, policy_ix) in (any::<bool>(), 0usize..3, 0usize..3),
        (k, ell) in (1usize..4, 1usize..5),
    ) {
        let cfg = config(sem_lm, agg_ix, k, ell, policy_ix);
        let mut matrix = matrix_of(&inst);
        let mut prefs = PrefIndex::build(&matrix);
        let mut former = IncrementalFormer::new(&matrix, &prefs, cfg).unwrap();
        let updates: Vec<(u32, u32, f64)> = updates
            .into_iter()
            .map(|(u, i, r)| (u % inst.n, i % inst.m, r as f64))
            .collect();
        for batch in partition(&updates, &sizes) {
            let deltas = apply_batch(&mut matrix, &mut prefs, &batch);
            former.refresh(&matrix, &prefs, &deltas).unwrap();
            assert_buckets_match_cold(&former, &matrix, &prefs, &cfg);
        }
        // Final state: the whole result (grouping order, top-k lists,
        // satisfactions, objective, bucket count) is the cold run's.
        let cold_prefs = PrefIndex::build(&matrix);
        for u in 0..inst.n {
            prop_assert_eq!(prefs.ranked_items(u), cold_prefs.ranked_items(u));
            prop_assert_eq!(prefs.ranked_scores(u), cold_prefs.ranked_scores(u));
        }
        let cold = GreedyFormer::new().form(&matrix, &cold_prefs, &cfg).unwrap();
        prop_assert_eq!(former.result(), &cold);
        former.result().grouping.validate(inst.n, cfg.ell).unwrap();
    }

    /// The batched hooks themselves: `upsert_batch` + `patch_users` agree
    /// with per-update `upsert` + a cold `PrefIndex::build`.
    #[test]
    fn batched_hooks_match_sequential(
        inst in instance(7, 6),
        updates in proptest::collection::vec((0u32..7, 0u32..6, 1u8..=5), 1..16),
    ) {
        let updates: Vec<(u32, u32, f64)> = updates
            .into_iter()
            .map(|(u, i, r)| (u % inst.n, i % inst.m, r as f64))
            .collect();
        let mut batched = matrix_of(&inst);
        let mut prefs = PrefIndex::build(&batched);
        let outcomes = batched.upsert_batch(&updates).unwrap();
        let users: Vec<u32> = updates.iter().map(|&(u, _, _)| u).collect();
        prefs.patch_users(&batched, &users);
        let mut sequential = matrix_of(&inst);
        for (ix, &(u, i, s)) in updates.iter().enumerate() {
            let outcome = sequential.upsert(u, i, s).unwrap();
            prop_assert_eq!(outcomes[ix], outcome, "update {}", ix);
        }
        prop_assert_eq!(&batched, &sequential);
        let cold = PrefIndex::build(&batched);
        for u in 0..inst.n {
            prop_assert_eq!(prefs.ranked_items(u), cold.ranked_items(u));
            prop_assert_eq!(prefs.ranked_scores(u), cold.ranked_scores(u));
        }
    }
}
