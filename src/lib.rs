//! # FIX — Feature-based Indexing for XML
//!
//! A from-scratch Rust reproduction of *FIX: Feature-based Indexing
//! Technique for XML Documents* (Zhang, Özsu, Ilyas, Aboulnaga;
//! University of Waterloo TR CS-2006-07 / VLDB 2006).
//!
//! FIX indexes XML twig patterns by **spectral features**: each indexable
//! unit is reduced to its bisimulation graph, encoded as a skew-symmetric
//! matrix, and keyed by `(λ_max, λ_min, root label)` in a B-tree.
//! Eigenvalue-range *containment* (Theorem 3) makes lookups sound — the
//! candidate set can contain false positives (removed by a refinement
//! pass) but never false negatives.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — the index itself: construction (Algorithm 1), query
//!   processing (Algorithm 2), clustered/unclustered variants, the value
//!   extension, and the Section 6.2 metrics.
//! * [`xml`] — XML data model, parser, serializer, event streams.
//! * [`xpath`] — the path-expression fragment, twig queries, and the
//!   Section 5 decomposition.
//! * [`bisim`] — bisimulation graphs and the depth-limited subpattern
//!   traveler.
//! * [`spectral`] — matrix translation, eigensolver, feature extraction.
//! * [`storage`] / [`btree`] — the paged-storage and B+-tree substrate.
//! * [`exec`] — query evaluators: NoK-style navigation (the refinement
//!   operator) and bottom-up twig matching (the oracle).
//! * [`datagen`] — deterministic synthetic corpora shaped like the
//!   paper's four data sets, plus the random query generator.
//! * [`obs`] — observability: the metrics registry, per-query stage
//!   traces, and Prometheus/JSON exposition.
//!
//! ## Quick start
//!
//! [`FixDatabase`] is the facade: open (or create) a database, add
//! documents, build, query. [`FixOptions::builder`] names every
//! construction knob; `threads(n)` parallelises the build pipeline with a
//! bit-identical result (0 = all cores), `query_threads(n)` does the same
//! for the refinement phase of query serving. Every failure is one
//! [`FixError`].
//!
//! ```
//! use fix::{FixDatabase, FixOptions};
//!
//! # fn main() -> Result<(), fix::FixError> {
//! let mut db = FixDatabase::in_memory();
//! db.add_xml("<bib><article><author/><ee/></article></bib>")?;
//! db.add_xml("<bib><book><author/></book></bib>")?;
//!
//! db.build(FixOptions::builder().depth_limit(6).threads(2).build())?;
//! let out = db.query("//article[author]/ee")?;
//! assert_eq!(out.results.len(), 1);
//! println!("pruning power: {:.2}", out.metrics.pp());
//! # Ok(())
//! # }
//! ```
//!
//! ## Concurrent serving
//!
//! [`QuerySession`] snapshots a database for shared-read serving: clone
//! it across threads, get plan caching (parse/decompose/eigen-features
//! memoized per normalized query) and parallel candidate refinement for
//! free — with results byte-identical to the sequential path.
//!
//! ```
//! use fix::{FixDatabase, FixOptions};
//!
//! # fn main() -> Result<(), fix::FixError> {
//! let mut db = FixDatabase::in_memory();
//! db.add_xml("<bib><article><author/><ee/></article></bib>")?;
//! db.build(FixOptions::builder().query_threads(2).build())?;
//! let session = db.session()?;
//! session.query("//article[author]/ee")?; // warm the shared plan cache
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let session = session.clone();
//!         s.spawn(move || session.query("//article[author]/ee").unwrap());
//!     }
//! });
//! assert!(session.cache_stats().hits >= 4);
//! # Ok(())
//! # }
//! ```
//!
//! The lower-level pieces stay available for code that wants to own them:
//!
//! ```
//! use fix::core::{Collection, FixIndex, FixOptions};
//!
//! let mut coll = Collection::new();
//! coll.add_xml("<bib><article><author/><ee/></article></bib>").unwrap();
//! let index = FixIndex::build(&mut coll, FixOptions::collection());
//! assert_eq!(index.query(&coll, "//article/author").unwrap().results.len(), 1);
//! ```

pub use fix_core as core;

// The facade types, re-exported at the root: most applications need
// nothing beyond these.
pub use fix_core::{
    BufferPool, Category, Durability, Event, EventRecorder, FieldValue, FixDatabase, FixError,
    FixOptions, LevelStats, PoolStats, QuerySession, Severity, ShardRouter, ShardTiming,
    ShardedDatabase, ShardedSession, StorageMode, WalStats, WriteBatch, WriteOp,
};

/// XML data model, parser, and event streams (`fix-xml`).
pub mod xml {
    pub use fix_xml::*;
}

/// Path expressions and twig queries (`fix-xpath`).
pub mod xpath {
    pub use fix_xpath::*;
}

/// Bisimulation graphs and the F&B baseline (`fix-bisim`).
pub mod bisim {
    pub use fix_bisim::*;
}

/// Spectral features (`fix-spectral`).
pub mod spectral {
    pub use fix_spectral::*;
}

/// Paged storage substrate (`fix-storage`).
pub mod storage {
    pub use fix_storage::*;
}

/// Disk B+-tree (`fix-btree`).
pub mod btree {
    pub use fix_btree::*;
}

/// Query evaluators and baselines (`fix-exec`).
pub mod exec {
    pub use fix_exec::*;
}

/// Synthetic data sets and random queries (`fix-datagen`).
pub mod datagen {
    pub use fix_datagen::*;
}

/// Observability: metrics registry, query traces, exposition (`fix-obs`).
pub mod obs {
    pub use fix_obs::*;
}
