//! Durable state for `gf-serve`: an fsync'd write-ahead log, binary
//! snapshot checkpoints, and state digests — on a zero-dependency codec.
//!
//! The serving layer journals every accepted rating batch (`POST /v1/rate`)
//! into the [`wal`] *before* acknowledging it, and a background worker
//! periodically freezes the immutable serving snapshot into a [`checkpoint`]
//! file. A warm restart loads the newest valid checkpoint, replays the WAL
//! tail through the incremental former, and resumes exactly where the
//! crashed process stopped — verified bit-for-bit by the crash harness in
//! `gf-serve` using [`digest::StateDigest`].
//!
//! Layering, bottom up:
//!
//! * [`mod@crc32`] — IEEE CRC-32, guarding every record and payload.
//! * [`codec`] — fixed-width little-endian primitives; the [`codec::Reader`]
//!   never trusts an on-disk length.
//! * [`wal`] — segmented, CRC-framed, fsync-controlled rating and
//!   feedback journal with torn-tail recovery.
//! * [`checkpoint`] — atomic, versioned, section-tagged snapshot files.
//! * [`digest`] — FNV-1a 64 fingerprints of restored state.
//!
//! The byte-level formats are specified in the [format
//! handbook](handbook::format_spec); day-2 operations (durability modes,
//! crash windows, recovery procedure) in the [operator's
//! runbook](handbook::operations).
//!
//! Everything here is dependency-free beyond `gf-core` and the standard
//! library, and `forbid(unsafe_code)` like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod crc32;
pub mod digest;
pub mod error;
pub mod wal;

/// The operator-facing handbook, embedded from `docs/` so `cargo doc`
/// ships the same pages the repository renders on its forge.
pub mod handbook {
    #[doc = include_str!("../../../docs/PERSISTENCE.md")]
    pub mod format_spec {}

    #[doc = include_str!("../../../docs/OPERATIONS.md")]
    pub mod operations {}

    #[doc = include_str!("../../../docs/ARCHITECTURE.md")]
    pub mod architecture {}
}

pub use checkpoint::{CheckpointGrouping, CheckpointState, LoadOutcome, CHECKPOINT_FORMAT_VERSION};
pub use crc32::crc32;
pub use digest::StateDigest;
pub use error::{PersistError, Result};
pub use wal::{SyncMode, TornTail, Wal, WalPayload, WalRecord, WalScan, WAL_FORMAT_VERSION};
