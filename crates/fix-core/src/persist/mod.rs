//! Database persistence: one self-contained file holding the collection
//! (documents + shared label table) and the index (options, edge
//! dictionary, B-tree entries, clustered copies).
//!
//! Two containers are written, selected by [`StorageMode`]: the fully
//! materialized v3 file (the default) and the paged v4 file — a page file
//! with a framed metadata tail, opened without reading the pages. Both are
//! sequences of the same CRC-framed sections; `format.rs` is the one place
//! that knows the framing and each container's frame order, and its
//! `walk` is what open, verify and salvage all consume (see `DESIGN.md`
//! §12/§14). v3 stays because it is the smaller image for small databases
//! (paged costs +8.2 % on TCMD, +1.2 % on Treebank at `--scale 4`).
//!
//! The unframed, checksum-less v2 format is no longer read: a v2 file is
//! refused with a typed `header` error saying how to migrate.
//!
//! [`StorageMode`]: crate::options::StorageMode

mod codec;
mod format;
mod open;
mod salvage;
mod save;
#[cfg(test)]
mod tests;
mod verify;

pub(crate) use open::load_any;
pub use salvage::{salvage_file, SalvageSummary};
pub use save::save_with_faults;
pub(crate) use save::{atomic_replace, save_impl};
pub use verify::{verify_bytes, verify_file, SectionReport, SectionStatus, VerifyReport};

use crate::error::FixError;

fn corrupt(section: &str, detail: impl Into<String>) -> FixError {
    FixError::Corrupt {
        section: section.to_string(),
        detail: detail.into(),
    }
}
