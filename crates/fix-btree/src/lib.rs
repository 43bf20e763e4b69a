//! A disk-resident B+-tree — the stand-in for the Berkeley DB B-tree the
//! paper builds FIX on.
//!
//! Fixed-length byte-string keys (length chosen at creation), `u64` values,
//! split-on-overflow insertion, and leaf-chained range scans. Keys are
//! compared as raw bytes, so callers use the order-preserving codecs in
//! [`keycodec`] to build composite `(root label, λ_max, λ_min, seq)` keys
//! whose byte order equals the intended numeric order.
//!
//! The B+-tree is FIX's only probe structure. The R-tree of the paper's
//! future-work section is an ablation baseline in `fix-bench`'s
//! `baselines` module, outside the engine.

pub mod keycodec;
pub mod levels;
pub mod run;
pub mod tree;

pub use keycodec::{decode_f64, encode_f64, KeyWriter};
pub use levels::{merge_runs, KMergeIter, LevelStats, MergeDetail, TieredRuns};
pub use run::SortedRun;
pub use tree::{BTree, BTreeStats, RangeScan, ScanStats};
