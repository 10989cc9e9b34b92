//! Raw-id serving (`--raw-ids`): a growable raw → dense id layer in
//! front of `/v1/rate`.
//!
//! Datasets arrive with arbitrary original ids (MovieLens user 71567,
//! Netflix movie 2_000_000) that the loaders densify through
//! [`gf_datasets::IdRemapper`]. Without this layer a serving client must
//! know the loader's dense indices; with it, `POST /v1/rate` accepts the
//! *original* ids: already-seen raw ids resolve to their dense row, and a
//! never-seen raw id is interned at the next free dense index — exactly
//! the index the admission pipeline will grow the matrix to — subject to
//! the same [`GrowthPolicy`] caps that gate dense-id admission.
//!
//! The table lives in memory and is re-seeded at boot (from the dataset
//! file's first-appearance order, or as the identity for synthetic
//! corpora). Raw ids interned *at serve time* are therefore forgotten by
//! a restart — persisting the table next to the checkpoint is a known
//! follow-up (see ROADMAP) — but the dense rows they occupied stay, so
//! re-interning after a restart reuses fresh indices rather than
//! corrupting existing rows.

use gf_core::{GfError, GrowthPolicy, Result};
use gf_datasets::IdRemapper;
use std::sync::Mutex;

/// Thread-safe raw → dense id tables for both axes.
#[derive(Debug, Default)]
pub struct RawIdLayer {
    users: Mutex<IdRemapper>,
    items: Mutex<IdRemapper>,
}

impl RawIdLayer {
    /// A layer over pre-seeded remappers (dataset boots: the loader's
    /// `user_ids`/`item_ids` in dense order).
    pub fn new(users: IdRemapper, items: IdRemapper) -> RawIdLayer {
        RawIdLayer {
            users: Mutex::new(users),
            items: Mutex::new(items),
        }
    }

    /// The identity seeding for corpora whose ids are already dense
    /// (synthetic boots, or a warm restart that has no id table to
    /// restore): raw id `x` maps to dense index `x` for every existing
    /// row, and genuinely new raw ids intern past the end as usual.
    pub fn identity(n_users: u32, n_items: u32) -> RawIdLayer {
        RawIdLayer::new(
            IdRemapper::from_ids((0..u64::from(n_users)).collect()),
            IdRemapper::from_ids((0..u64::from(n_items)).collect()),
        )
    }

    /// `(raw users known, raw items known)` — for `/v1/stats`.
    pub fn len(&self) -> (usize, usize) {
        (
            self.users.lock().expect("raw user table poisoned").len(),
            self.items.lock().expect("raw item table poisoned").len(),
        )
    }

    /// Resolves one `(raw_user, raw_item)` pair to dense indices under
    /// `growth`: known raw ids always resolve; never-seen ones intern at
    /// the next free dense index when the policy grows and its cap still
    /// has room, and fail like an out-of-range dense id otherwise.
    pub fn resolve(
        &self,
        raw_user: u64,
        raw_item: u64,
        growth: GrowthPolicy,
    ) -> Result<(u32, u32)> {
        // `Fixed` resolves but never interns: capping at the current
        // table size makes `intern_capped` a pure lookup.
        let (user_cap, item_cap) = match growth {
            GrowthPolicy::Fixed => (None, None),
            GrowthPolicy::Grow {
                max_users,
                max_items,
            } => (Some(max_users), Some(max_items)),
        };
        let user = {
            let mut users = self.users.lock().expect("raw user table poisoned");
            let n = users.len() as u32;
            users
                .intern_capped(raw_user, user_cap.unwrap_or(n))
                .ok_or(axis_error("user", raw_user, n, growth))?
        };
        let item = {
            let mut items = self.items.lock().expect("raw item table poisoned");
            let n = items.len() as u32;
            items
                .intern_capped(raw_item, item_cap.unwrap_or(n))
                .ok_or(axis_error("item", raw_item, n, growth))?
        };
        Ok((user, item))
    }
}

/// The error a raw id that cannot resolve maps to: unknown under a fixed
/// population reads as out-of-range (404 at the HTTP layer, like a bad
/// dense id); a cap refusing an admission reads as growth exhaustion
/// (409). Raw ids can exceed `u32` — they are clamped for the error
/// payload only, never for the mapping itself.
fn axis_error(axis: &'static str, raw: u64, known: u32, growth: GrowthPolicy) -> GfError {
    let id = raw.min(u64::from(u32::MAX)) as u32;
    match (axis, growth) {
        (
            _,
            GrowthPolicy::Grow {
                max_users,
                max_items,
            },
        ) => GfError::GrowthExhausted {
            axis,
            id,
            max: if axis == "user" { max_users } else { max_items },
        },
        ("user", GrowthPolicy::Fixed) => GfError::UserOutOfRange {
            user: id,
            n_users: known,
        },
        (_, GrowthPolicy::Fixed) => GfError::ItemOutOfRange {
            item: id,
            n_items: known,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_resolves_existing_ids_in_place() {
        let layer = RawIdLayer::identity(4, 3);
        assert_eq!(layer.resolve(2, 1, GrowthPolicy::Fixed).unwrap(), (2, 1));
        assert_eq!(layer.len(), (4, 3));
    }

    #[test]
    fn fixed_population_rejects_unknown_raw_ids() {
        let layer = RawIdLayer::identity(4, 3);
        assert!(matches!(
            layer.resolve(9, 0, GrowthPolicy::Fixed),
            Err(GfError::UserOutOfRange { .. })
        ));
        assert!(matches!(
            layer.resolve(0, 9, GrowthPolicy::Fixed),
            Err(GfError::ItemOutOfRange { .. })
        ));
        // Nothing was interned by the failures.
        assert_eq!(layer.len(), (4, 3));
    }

    #[test]
    fn growth_interns_at_the_next_dense_index_until_the_cap() {
        let layer = RawIdLayer::new(
            IdRemapper::from_ids(vec![100, 200]),
            IdRemapper::from_ids(vec![7]),
        );
        let grow = GrowthPolicy::Grow {
            max_users: 3,
            max_items: 2,
        };
        // Known raw ids resolve to their seeded dense rows.
        assert_eq!(layer.resolve(200, 7, grow).unwrap(), (1, 0));
        // A new raw user takes dense index 2 — the row admission grows to.
        assert_eq!(layer.resolve(555, 7, grow).unwrap(), (2, 0));
        // Re-rating the same raw id is stable.
        assert_eq!(layer.resolve(555, 7, grow).unwrap(), (2, 0));
        // The user cap is now exhausted; the item cap still has room.
        assert!(matches!(
            layer.resolve(556, 7, grow),
            Err(GfError::GrowthExhausted { axis: "user", .. })
        ));
        assert_eq!(layer.resolve(555, 9000, grow).unwrap(), (2, 1));
        assert!(matches!(
            layer.resolve(555, 9001, grow),
            Err(GfError::GrowthExhausted { axis: "item", .. })
        ));
    }
}
