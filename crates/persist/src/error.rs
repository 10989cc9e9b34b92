//! Error type shared by the WAL, checkpoint and codec layers.

use std::fmt;
use std::io;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Everything that can go wrong while persisting or recovering state.
#[derive(Debug)]
pub enum PersistError {
    /// An OS-level I/O failure, with the operation that hit it.
    Io {
        /// What the crate was doing (e.g. `"append wal record"`).
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The bytes on disk do not decode: bad magic, CRC mismatch, impossible
    /// lengths, or restored state that fails `gf-core`'s validation.
    Corrupt(String),
    /// The file's format version is not the one this build reads — older
    /// or newer. Deliberately **not** skipped by recovery: an operator
    /// downgrading a binary, or booting a data dir written in a retired
    /// format, should see this, not a silent fall-back to an older
    /// checkpoint or an emptied log (see `docs/OPERATIONS.md`).
    UnsupportedVersion {
        /// The version found in the file header.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
}

impl PersistError {
    pub(crate) fn io(context: impl Into<String>) -> impl FnOnce(io::Error) -> PersistError {
        let context = context.into();
        move |source| PersistError::Io { context, source }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { context, source } => write!(f, "{context}: {source}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt persistent state: {msg}"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "format version {found} is unsupported (this build reads {supported})"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<gf_core::GfError> for PersistError {
    fn from(e: gf_core::GfError) -> Self {
        PersistError::Corrupt(format!("restored state failed validation: {e}"))
    }
}

impl From<PersistError> for gf_core::GfError {
    fn from(e: PersistError) -> Self {
        gf_core::GfError::Persist(e.to_string())
    }
}
