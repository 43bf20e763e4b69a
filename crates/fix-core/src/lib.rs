//! FIX — the feature-based XML index (the paper's primary contribution).
//!
//! Construction (Section 4, Algorithm 1): every indexable unit — a whole
//! small document, or the depth-`k` subpattern rooted at each element of a
//! large document — is reduced to its bisimulation graph, translated to an
//! anti-symmetric matrix, and keyed by `(root label, λ_max, λ_min)` in a
//! B-tree. Query processing (Section 5, Algorithm 2): the twig query's own
//! features are computed and a *range containment* scan returns candidate
//! pointers, which a refinement operator (the NoK-style navigator from
//! `fix-exec`) validates against primary storage. The index never produces
//! false negatives (Theorems 3 & 5); false positives are what the
//! refinement phase and the Section 6.2 metrics are about.
//!
//! ```
//! use fix_core::{Collection, FixIndex, FixOptions};
//!
//! let mut coll = Collection::new();
//! coll.add_xml("<bib><article><author/><ee/></article></bib>").unwrap();
//! coll.add_xml("<bib><book><author/></book></bib>").unwrap();
//! let index = FixIndex::build(&mut coll, FixOptions::collection());
//! let out = index.query(&coll, "//article[author]/ee").unwrap();
//! assert_eq!(out.results.len(), 1);
//! assert!(out.metrics.candidates <= 2);
//! ```

pub mod batch;
pub mod builder;
pub mod collection;
pub mod database;
pub mod delta;
pub mod error;
pub mod explain;
pub mod key;
pub mod metrics;
pub mod options;
pub mod persist;
pub mod plan_cache;
pub mod query;
pub mod session;
pub mod shard;
pub mod values;

pub use batch::{WriteBatch, WriteOp};
pub use builder::{BuildStats, FixIndex};
pub use collection::{Collection, DocId};
pub use database::{FixDatabase, RepairReport};
pub use delta::DeltaStats;
pub use error::FixError;
pub use explain::{BlockExplain, Explain, ExplainAnalyze};
pub use fix_btree::LevelStats;
pub use fix_obs::{
    Category, Event, EventRecorder, FieldValue, MetricsRegistry, MetricsSnapshot, QueryTrace,
    Reportable, Severity, SnapshotDelta, Stage, StageRecord,
};
pub use fix_storage::{BufferPool, Durability, PageId, PoolStats, WalStats};
pub use key::{EntryPtr, IndexKey};
pub use metrics::{ground_truth, CacheStats, Metrics};
pub use options::{FixOptions, FixOptionsBuilder, StorageMode};
pub use persist::{
    salvage_file, save_with_faults, verify_bytes, verify_file, SalvageSummary, SectionReport,
    SectionStatus, VerifyReport,
};
pub use plan_cache::{PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
pub use query::{Candidate, QueryError, QueryHits, QueryOutcome, QueryPlan};
pub use session::QuerySession;
pub use shard::{ShardRouter, ShardTiming, ShardedDatabase, ShardedSession};
pub use values::ValueHasher;
