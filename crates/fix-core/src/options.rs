//! Index configuration.

use fix_spectral::FeatureExtractor;
use fix_storage::Durability;

/// Where a database's pages live.
///
/// The mode governs what [`FixDatabase::save`](crate::FixDatabase::save)
/// writes and how `open` behaves afterwards: an in-memory database saves
/// the framed v3 format (everything materialized at load), a paged one
/// saves the v4 page file — documents, clustered copies and B+-tree nodes
/// in fixed-size pages read on demand through a bounded buffer pool, with
/// only a small metadata tail parsed at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// Pages live in memory; persistence materializes the whole file.
    #[default]
    InMemory,
    /// Pages live in the database file and are demand-read through the
    /// buffer pool ([`FixOptions::pool_pages`] bounds residency).
    Paged,
}

/// Options controlling index construction and querying.
#[derive(Debug, Clone)]
pub struct FixOptions {
    /// Subpattern depth limit `k`. `0` means "index each document whole"
    /// (the collection-of-small-documents mode); a positive value
    /// enumerates the depth-`k` subpattern of *every element*
    /// (Section 4.4, the large-document mode).
    pub depth_limit: usize,
    /// Build a clustered index: subtree copies stored in feature-key order
    /// (Section 4.1, Figure 4). Costs space, buys sequential refinement
    /// I/O.
    pub clustered: bool,
    /// `Some(β)` enables the integrated value index (Section 4.6): text
    /// nodes are hashed into `β` synthetic labels and indexed like
    /// elements.
    pub value_beta: Option<u32>,
    /// Feature extraction knobs (eigensolver options, oversized-pattern
    /// fallback threshold).
    pub extractor: FeatureExtractor,
    /// Buffer-pool capacity in pages for the index storage.
    pub pool_pages: usize,
    /// Where the database's pages live (see [`StorageMode`]). Not part of
    /// the persisted options payload — it is derived from the file format
    /// at open time (a v4 page file opens `Paged`, everything else
    /// `InMemory`).
    pub storage: StorageMode,
    /// Use the extended σ₂ feature for pruning (ablation; see
    /// `Features::contains_extended` for the soundness caveat).
    pub extended_features: bool,
    /// Prune with the 64-bit edge-set Bloom fingerprint in addition to the
    /// eigenvalue range (the "other features" extension Section 3.4
    /// invites; sound for all matches). Off by default to keep the
    /// headline experiments paper-faithful; the value index (Figure 7) and
    /// the ablation bench turn it on.
    pub edge_bloom: bool,
    /// Enumerate subpatterns with the paper's literal `GEN-SUBPATTERN`
    /// (unfold the DAG through the traveler and re-minimize) instead of the
    /// memoized truncation. Exponential on recursive data — kept for the
    /// index-construction ablation that reproduces the paper's Treebank
    /// ICT blow-up.
    pub literal_gen_subpattern: bool,
    /// Worker threads for the parallel construction phases (document
    /// streaming and eigenvalue extraction). `1` builds sequentially;
    /// `0` means "use all available parallelism". The built index is
    /// bit-identical at every thread count (see `DESIGN.md`, "Parallel
    /// construction").
    pub threads: usize,
    /// Worker threads for the parallel candidate-refinement phase of query
    /// processing (the default for
    /// [`QuerySession`](crate::QuerySession)s). `1` refines sequentially;
    /// `0` means "use all available parallelism". Results are merged in
    /// document order, so the outcome is byte-identical at every thread
    /// count (see `DESIGN.md`, "Concurrent query serving").
    pub query_threads: usize,
    /// Maximum element nesting depth accepted when parsing documents into
    /// this database ([`fix_xml::DEFAULT_MAX_DEPTH`] by default;
    /// `usize::MAX` disables the check). Pathological nesting is rejected
    /// with a `ParseError` instead of growing every downstream stack
    /// without bound.
    pub max_parse_depth: usize,
    /// Delta-to-base size ratio at which `FixDatabase::add_xml`
    /// automatically compacts the delta run into the base B+-tree
    /// (`delta_entries ≥ compact_ratio × base_entries`; an empty base
    /// compacts at any nonzero delta). `0.0` disables auto-compaction —
    /// the delta grows until an explicit `compact()`. Persisted in the
    /// options frame (see `DESIGN.md` §12): a reopened database resumes
    /// the compaction policy it was saved with unless the caller
    /// overrides it.
    pub compact_ratio: f64,
    /// When an acknowledged mutation is actually on disk
    /// ([`Durability::Sync`] by default: every WAL commit is fsynced,
    /// concurrent committers share one group fsync). Like the thread
    /// knobs, a process policy — not persisted.
    pub durability: Durability,
    /// WAL segment seal threshold in bytes: a tail segment reaching this
    /// size is fsynced and closed, and the matching in-memory delta run
    /// freezes into the tier stack. Persisted in the options frame, so a
    /// reopened database keeps the sealing policy it was saved with.
    pub wal_seal_bytes: u64,
    /// Size-tier merge fanout: a delta level holding this many frozen
    /// runs folds into one run on the next level, bounding merged-scan
    /// read amplification at `fanout − 1` runs per level. Minimum 2.
    /// Persisted in the options frame.
    pub tier_fanout: usize,
    /// Flight-recorder event ring capacity (see
    /// [`EventRecorder`](fix_obs::EventRecorder)): how many structured
    /// engine events (`commit`, `wal.seal`, `tier.merge`, recovery
    /// anomalies, …) the database retains in memory. `0` disables the
    /// recorder entirely — hot paths then skip payload construction.
    /// Process policy — not persisted.
    pub event_capacity: usize,
    /// Slow-op threshold in nanoseconds: recorded spans (commits, saves,
    /// merges, compactions) at least this long are promoted to the
    /// retained slow-op log ([`FixDatabase::slow_ops`]). `u64::MAX`
    /// disables promotion. Process policy — not persisted.
    ///
    /// [`FixDatabase::slow_ops`]: crate::FixDatabase::slow_ops
    pub slow_op_ns: u64,
    /// Default deadline for every query issued through a
    /// [`QuerySession`](crate::QuerySession). `None` (the default) lets
    /// queries run to completion; `Some(d)` cancels a query cooperatively
    /// at the next scan or refinement chunk boundary once `d` has elapsed,
    /// surfacing [`FixError::DeadlineExceeded`](crate::FixError).
    /// Per-call deadlines
    /// ([`QuerySession::query_with_deadline`](crate::QuerySession::query_with_deadline))
    /// override this knob. Process policy — not persisted.
    pub query_timeout: Option<std::time::Duration>,
}

impl FixOptions {
    /// Collection-of-small-documents mode: one entry per document, no
    /// depth limit (the XBench TCMD configuration of Section 6.1).
    pub fn collection() -> Self {
        Self {
            depth_limit: 0,
            clustered: false,
            value_beta: None,
            extractor: FeatureExtractor::default(),
            pool_pages: 1024,
            storage: StorageMode::InMemory,
            extended_features: false,
            edge_bloom: false,
            literal_gen_subpattern: false,
            threads: 1,
            query_threads: 1,
            max_parse_depth: fix_xml::DEFAULT_MAX_DEPTH,
            compact_ratio: 0.5,
            durability: Durability::Sync,
            wal_seal_bytes: 1 << 20,
            tier_fanout: 4,
            event_capacity: 1024,
            slow_op_ns: 100_000_000,
            query_timeout: None,
        }
    }

    /// Large-document mode with subpattern depth limit `k` (the paper uses
    /// `k = 6` for DBLP/XMark/Treebank).
    pub fn large_document(k: usize) -> Self {
        assert!(k > 0, "large-document mode requires a positive depth limit");
        Self {
            depth_limit: k,
            ..Self::collection()
        }
    }

    /// Enables the clustered variant.
    pub fn clustered(mut self) -> Self {
        self.clustered = true;
        self
    }

    /// Switches to the paper-faithful skew-spectral feature key (see
    /// `fix_spectral::FeatureMode` for why the sound symmetric-norm key is
    /// the default).
    pub fn paper_mode(mut self) -> Self {
        self.extractor.mode = fix_spectral::FeatureMode::SkewSpectral;
        self
    }

    /// Enables edge-fingerprint pruning.
    pub fn with_edge_bloom(mut self) -> Self {
        self.edge_bloom = true;
        self
    }

    /// Enables the integrated value index with hash range `β`.
    pub fn with_values(mut self, beta: u32) -> Self {
        assert!(beta > 0, "β must be positive");
        self.value_beta = Some(beta);
        self
    }

    /// Sets the construction worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the refinement worker-thread count (`0` = all cores).
    pub fn with_query_threads(mut self, threads: usize) -> Self {
        self.query_threads = threads;
        self
    }

    /// Sets the maximum accepted element nesting depth for document
    /// parsing (`usize::MAX` disables the check).
    pub fn with_max_parse_depth(mut self, max_depth: usize) -> Self {
        assert!(max_depth > 0, "the parse depth limit must be positive");
        self.max_parse_depth = max_depth;
        self
    }

    /// Sets the auto-compaction trigger ratio (`0.0` disables).
    pub fn with_compact_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 0.0, "the compaction ratio cannot be negative");
        self.compact_ratio = ratio;
        self
    }

    /// Resolves [`FixOptions::threads`] to a concrete worker count
    /// (`0` → `std::thread::available_parallelism()`).
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// Resolves [`FixOptions::query_threads`] to a concrete worker count
    /// (`0` → `std::thread::available_parallelism()`).
    pub fn effective_query_threads(&self) -> usize {
        resolve_threads(self.query_threads)
    }

    /// Starts a fluent builder seeded with the collection-mode defaults.
    ///
    /// ```
    /// use fix_core::FixOptions;
    /// let opts = FixOptions::builder()
    ///     .depth_limit(6)
    ///     .clustered(true)
    ///     .values(64)
    ///     .threads(4)
    ///     .build();
    /// assert_eq!(opts.depth_limit, 6);
    /// assert!(opts.clustered);
    /// ```
    pub fn builder() -> FixOptionsBuilder {
        FixOptionsBuilder {
            opts: Self::collection(),
        }
    }
}

/// `0` means "all cores" in every thread-count knob.
pub(crate) fn resolve_threads(n: usize) -> usize {
    match n {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Fluent builder for [`FixOptions`] (see [`FixOptions::builder`]).
#[derive(Debug, Clone)]
pub struct FixOptionsBuilder {
    opts: FixOptions,
}

impl FixOptionsBuilder {
    /// Subpattern depth limit `k`; `0` selects collection mode (one entry
    /// per document).
    pub fn depth_limit(mut self, k: usize) -> Self {
        self.opts.depth_limit = k;
        self
    }

    /// Builds a clustered index (subtree copies in feature-key order).
    pub fn clustered(mut self, clustered: bool) -> Self {
        self.opts.clustered = clustered;
        self
    }

    /// Enables the integrated value index with hash range `β`.
    pub fn values(mut self, beta: u32) -> Self {
        assert!(beta > 0, "β must be positive");
        self.opts.value_beta = Some(beta);
        self
    }

    /// Construction worker-thread count (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Refinement worker-thread count for query serving (`0` = all cores).
    pub fn query_threads(mut self, threads: usize) -> Self {
        self.opts.query_threads = threads;
        self
    }

    /// Maximum accepted element nesting depth for document parsing
    /// (`usize::MAX` disables the check).
    pub fn max_parse_depth(mut self, max_depth: usize) -> Self {
        assert!(max_depth > 0, "the parse depth limit must be positive");
        self.opts.max_parse_depth = max_depth;
        self
    }

    /// Buffer-pool capacity in pages.
    pub fn pool_pages(mut self, pages: usize) -> Self {
        assert!(pages > 0, "the buffer pool needs at least one page");
        self.opts.pool_pages = pages;
        self
    }

    /// Storage mode: in-memory pages (the default) or an on-disk page
    /// file read on demand through the buffer pool.
    pub fn storage(mut self, mode: StorageMode) -> Self {
        self.opts.storage = mode;
        self
    }

    /// Switches to the paper-faithful skew-spectral feature key.
    pub fn paper_mode(mut self, on: bool) -> Self {
        self.opts.extractor.mode = if on {
            fix_spectral::FeatureMode::SkewSpectral
        } else {
            fix_spectral::FeatureMode::SymmetricNorm
        };
        self
    }

    /// Enables edge-fingerprint pruning.
    pub fn edge_bloom(mut self, on: bool) -> Self {
        self.opts.edge_bloom = on;
        self
    }

    /// Enables the extended σ₂ pruning feature.
    pub fn extended_features(mut self, on: bool) -> Self {
        self.opts.extended_features = on;
        self
    }

    /// Uses the paper-literal `GEN-SUBPATTERN` enumeration.
    pub fn literal_gen_subpattern(mut self, on: bool) -> Self {
        self.opts.literal_gen_subpattern = on;
        self
    }

    /// Oversized-pattern fallback threshold (max edges the eigensolver
    /// will accept).
    pub fn max_edges(mut self, max_edges: usize) -> Self {
        self.opts.extractor.max_edges = max_edges;
        self
    }

    /// Auto-compaction trigger ratio (`0.0` disables).
    pub fn compact_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 0.0, "the compaction ratio cannot be negative");
        self.opts.compact_ratio = ratio;
        self
    }

    /// Durability policy for acknowledged mutations (see [`Durability`]).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.opts.durability = durability;
        self
    }

    /// WAL segment seal threshold in bytes (also the delta run freeze
    /// point).
    pub fn wal_seal_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "the seal threshold must be positive");
        self.opts.wal_seal_bytes = bytes;
        self
    }

    /// Size-tier merge fanout for frozen delta runs (minimum 2).
    pub fn tier_fanout(mut self, fanout: usize) -> Self {
        assert!(fanout >= 2, "the tier fanout must be at least 2");
        self.opts.tier_fanout = fanout;
        self
    }

    /// Flight-recorder event ring capacity (`0` disables recording).
    pub fn event_capacity(mut self, events: usize) -> Self {
        self.opts.event_capacity = events;
        self
    }

    /// Slow-op promotion threshold in nanoseconds (`u64::MAX` disables).
    pub fn slow_op_ns(mut self, ns: u64) -> Self {
        self.opts.slow_op_ns = ns;
        self
    }

    /// Default query deadline (`None` = unbounded, the default).
    pub fn query_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.opts.query_timeout = timeout;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> FixOptions {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = FixOptions::collection();
        assert_eq!(c.depth_limit, 0);
        assert!(!c.clustered);
        let l = FixOptions::large_document(6).clustered().with_values(10);
        assert_eq!(l.depth_limit, 6);
        assert!(l.clustered);
        assert_eq!(l.value_beta, Some(10));
    }

    #[test]
    #[should_panic(expected = "positive depth limit")]
    fn zero_depth_large_mode_panics() {
        let _ = FixOptions::large_document(0);
    }

    #[test]
    fn builder_covers_every_knob() {
        let o = FixOptions::builder()
            .depth_limit(4)
            .clustered(true)
            .values(16)
            .threads(8)
            .query_threads(6)
            .pool_pages(64)
            .storage(StorageMode::Paged)
            .paper_mode(true)
            .edge_bloom(true)
            .extended_features(true)
            .literal_gen_subpattern(true)
            .max_edges(123)
            .max_parse_depth(99)
            .compact_ratio(0.25)
            .durability(Durability::Async)
            .wal_seal_bytes(4096)
            .tier_fanout(3)
            .event_capacity(2048)
            .slow_op_ns(5_000_000)
            .query_timeout(Some(std::time::Duration::from_millis(750)))
            .build();
        assert_eq!(o.depth_limit, 4);
        assert!(o.clustered);
        assert_eq!(o.value_beta, Some(16));
        assert_eq!(o.threads, 8);
        assert_eq!(o.query_threads, 6);
        assert_eq!(o.pool_pages, 64);
        assert_eq!(o.storage, StorageMode::Paged);
        assert_eq!(o.extractor.mode, fix_spectral::FeatureMode::SkewSpectral);
        assert!(o.edge_bloom);
        assert!(o.extended_features);
        assert!(o.literal_gen_subpattern);
        assert_eq!(o.extractor.max_edges, 123);
        assert_eq!(o.max_parse_depth, 99);
        assert_eq!(o.compact_ratio, 0.25);
        assert_eq!(o.durability, Durability::Async);
        assert_eq!(o.wal_seal_bytes, 4096);
        assert_eq!(o.tier_fanout, 3);
        assert_eq!(o.event_capacity, 2048);
        assert_eq!(o.slow_op_ns, 5_000_000);
        assert_eq!(o.query_timeout, Some(std::time::Duration::from_millis(750)));
    }

    #[test]
    fn parse_depth_defaults_and_override() {
        assert_eq!(
            FixOptions::collection().max_parse_depth,
            fix_xml::DEFAULT_MAX_DEPTH
        );
        assert_eq!(
            FixOptions::collection()
                .with_max_parse_depth(7)
                .max_parse_depth,
            7
        );
    }

    #[test]
    fn thread_resolution() {
        assert_eq!(FixOptions::collection().threads, 1);
        assert_eq!(FixOptions::collection().effective_threads(), 1);
        let auto = FixOptions::collection().with_threads(0);
        assert!(auto.effective_threads() >= 1);
        assert_eq!(FixOptions::collection().with_threads(7).threads, 7);
        assert_eq!(FixOptions::collection().query_threads, 1);
        let qauto = FixOptions::collection().with_query_threads(0);
        assert!(qauto.effective_query_threads() >= 1);
        assert_eq!(
            FixOptions::collection().with_query_threads(5).query_threads,
            5
        );
    }
}
