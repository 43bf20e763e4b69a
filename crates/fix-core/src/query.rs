//! Query processing — Algorithm 2 (`INDEX-PROCESSOR`).
//!
//! 1. Decompose the path expression into twig blocks (Section 5); the top
//!    block carries the pruning.
//! 2. Check that the index covers the block (depth-limit test).
//! 3. Convert the block to its twig pattern, translate to a matrix, and
//!    compute `(λ_max, λ_min)`.
//! 4. Range-scan the B-tree for entries whose stored range *contains* the
//!    query range (and whose root label matches when the probe is
//!    anchored).
//! 5. Refine every candidate with the configured operator, the leading
//!    `//` rewritten to `/` (candidates are rooted exactly at the anchor).

use std::fmt;
use std::time::{Duration, Instant};

use fix_bisim::{query_pattern_with_values, UnitInfo};
use fix_exec::{CancelToken, Refiner};
use fix_obs::{QueryTrace, Stage};
use fix_spectral::Features;
use fix_xml::NodeId;
use fix_xpath::{decompose, parse_path, Axis, PathExpr, TwigError, TwigQuery, XPathError};

use crate::builder::FixIndex;
use crate::collection::{Collection, DocId};
use crate::error::FixError;
use crate::key::{EntryPtr, IndexKey, KEY_LEN};
use crate::metrics::Metrics;

/// Cancellation context for the fallible query pipeline: the shared
/// [`CancelToken`] plus the query's start instant, so a tripped token
/// maps to [`FixError::DeadlineExceeded`] carrying the elapsed wall
/// time. Explicit cancellation (a caller tripping the token by hand)
/// reports through the same error.
#[derive(Debug)]
pub(crate) struct QueryCtl {
    token: CancelToken,
    started: Instant,
}

impl QueryCtl {
    /// A control block that never trips on its own (no deadline); its
    /// checkpoints cost one relaxed atomic load.
    pub(crate) fn unbounded() -> Self {
        Self::new(CancelToken::new())
    }

    /// Wraps an existing token; the elapsed clock starts now.
    pub(crate) fn new(token: CancelToken) -> Self {
        Self {
            token,
            started: Instant::now(),
        }
    }

    /// A control block whose token trips `timeout` from now.
    pub(crate) fn with_timeout(timeout: Duration) -> Self {
        Self::new(CancelToken::with_deadline(
            Instant::now().checked_add(timeout),
        ))
    }

    /// A per-worker clone: same shared token, fresh poll counter, same
    /// start instant (the deadline is a property of the query, not the
    /// worker).
    pub(crate) fn worker(&self) -> Self {
        Self {
            token: self.token.clone(),
            started: self.started,
        }
    }

    /// The loop-boundary poll: `Err(DeadlineExceeded)` once the token has
    /// tripped.
    pub(crate) fn checkpoint(&mut self) -> Result<(), FixError> {
        if self.token.should_stop() {
            Err(FixError::DeadlineExceeded {
                elapsed: self.started.elapsed(),
            })
        } else {
            Ok(())
        }
    }

    /// The query-start check: one unconditional clock read, so an
    /// already-expired deadline trips before any work — the loop polls
    /// above only consult the clock every `CHECK_INTERVAL` calls and
    /// could outrun a short scan otherwise.
    pub(crate) fn checkpoint_now(&self) -> Result<(), FixError> {
        if self.token.is_cancelled() {
            Err(FixError::DeadlineExceeded {
                elapsed: self.started.elapsed(),
            })
        } else {
            Ok(())
        }
    }
}

/// Why a query could not be processed through the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query string failed to parse.
    Parse(XPathError),
    /// The index's depth limit does not cover the query's top twig block —
    /// the optimizer must fall back to an unindexed plan (Section 4.4).
    NotCovered {
        /// Depth of the query's top block.
        query_depth: usize,
        /// The index's depth limit.
        depth_limit: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::NotCovered {
                query_depth,
                depth_limit,
            } => write!(
                f,
                "query depth {query_depth} exceeds the index depth limit {depth_limit}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<XPathError> for QueryError {
    fn from(e: XPathError) -> Self {
        QueryError::Parse(e)
    }
}

/// The outcome of one indexed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Final results: `(document, output node)` pairs in document order.
    pub results: Vec<(DocId, NodeId)>,
    /// The Section 6.2 counters for this query.
    pub metrics: Metrics,
}

impl QueryOutcome {
    /// Serializes each result's subtree back to XML (the
    /// "return the matched elements" consumer API).
    pub fn results_xml(&self, coll: &Collection) -> Vec<String> {
        self.results
            .iter()
            .map(|&(doc, node)| {
                let d = coll.doc(doc);
                let mut out = String::new();
                fix_xml::serialize::subtree_to_xml(d, &coll.labels, node, &mut out);
                out
            })
            .collect()
    }

    /// The concatenated text content of each result.
    pub fn results_text(&self, coll: &Collection) -> Vec<String> {
        self.results
            .iter()
            .map(|&(doc, node)| coll.doc(doc).text_content(node))
            .collect()
    }
}

/// One scan candidate: a decoded entry key, the B-tree (or delta-run)
/// value it maps to, and which of the two sorted sources produced it —
/// refinement resolves delta values against the delta's copy store for
/// clustered indexes, and the observability layer counts the delta's
/// share of the scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The decoded index entry key.
    pub key: IndexKey,
    /// The value stored under the key.
    pub value: u64,
    /// `true` when the entry came from the delta run.
    pub delta: bool,
}

/// A compiled query: the normalized path expression, its twig-block
/// decomposition, and the precomputed pruning features — steps 1–3 of
/// Algorithm 2, everything that depends only on the query string and the
/// index configuration. Plans are immutable and cheap to share
/// (`QuerySession`s keep them in an `Arc`-valued LRU cache); executing one
/// is [`FixIndex::scan_plan`] + refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The normalized path expression (see `fix_xpath::normalize`).
    pub(crate) path: PathExpr,
    /// Twig blocks from `fix_xpath::decompose`; the top block is first.
    pub(crate) blocks: Vec<PathExpr>,
    /// Pruning features of the top block; `None` when the block provably
    /// matches nothing (unknown label / edge pair / value bucket).
    pub(crate) top: Option<Features>,
    /// Features of the remaining blocks, aligned with `blocks[1..]`.
    /// Populated only in collection mode, where rest blocks prune
    /// (Section 5); empty otherwise.
    pub(crate) rest: Vec<Option<Features>>,
}

impl QueryPlan {
    /// The normalized path this plan evaluates.
    pub fn path(&self) -> &PathExpr {
        &self.path
    }

    /// The canonical spelling of the query — the string plans are cached
    /// under.
    pub fn normalized(&self) -> String {
        self.path.to_string()
    }

    /// Pruning features of the top twig block (`None` = provably empty).
    pub fn features(&self) -> Option<&Features> {
        self.top.as_ref()
    }
}

/// Wall-clock timings of one plan compilation, split along the stage
/// boundary the trace reports: `compile` (twig decomposition) versus
/// `eigen` (pruning-feature computation).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlanTiming {
    pub(crate) compile: Duration,
    pub(crate) eigen: Duration,
    /// Twig blocks the query decomposed into.
    pub(crate) blocks: u64,
}

/// Wall-clock timings of one refinement run.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefineTiming {
    pub(crate) wall: Duration,
    /// Per-worker wall times in chunk order; empty for the sequential
    /// path.
    pub(crate) workers: Vec<Duration>,
}

impl FixIndex {
    /// Parses and runs a query (see [`FixIndex::query_path`]).
    pub fn query(&self, coll: &Collection, query: &str) -> Result<QueryOutcome, QueryError> {
        let path = parse_path(query)?;
        self.query_path(coll, &path)
    }

    /// Runs a query with full stage tracing: every pipeline stage's wall
    /// time and item counts are captured in a [`QueryTrace`] alongside the
    /// ordinary [`QueryOutcome`]. The outcome is byte-identical to
    /// [`FixIndex::query`]; refinement fans across `threads` workers
    /// (`≤ 1` = sequential). There is no plan cache at this level, so the
    /// trace never contains a [`Stage::CacheProbe`] record — the session
    /// layer adds that.
    pub fn query_traced(
        &self,
        coll: &Collection,
        query: &str,
        threads: usize,
    ) -> Result<(QueryOutcome, QueryTrace), QueryError> {
        let t0 = Instant::now();
        let mut trace = QueryTrace::new(query);
        let parse_start = Instant::now();
        let path = parse_path(query)?;
        let normalized = fix_xpath::normalize(&path);
        trace.record(Stage::Parse, parse_start.elapsed());
        let (plan, pt) = self.plan_normalized_timed(coll, normalized)?;
        trace.record(Stage::Compile, pt.compile).items = Some(pt.blocks);
        trace.record(Stage::Eigen, pt.eigen);
        let scan_start = Instant::now();
        let candidates = self.scan_plan(&plan);
        trace.record(Stage::Scan, scan_start.elapsed()).items = Some(candidates.len() as u64);
        let (outcome, rt) = self.refine_with_threads_timed(coll, &plan.path, candidates, threads);
        let r = trace.record(Stage::Refine, rt.wall);
        r.items = Some(outcome.results.len() as u64);
        r.workers = rt.workers;
        trace.total = t0.elapsed();
        Ok((outcome, trace))
    }

    /// Runs a parsed path expression through prune + refine. The
    /// expression is normalized first (duplicate/implied predicates
    /// dropped; see `fix_xpath::normalize`) — a cheap logical rewrite that
    /// also canonicalizes the feature computation.
    pub fn query_path(
        &self,
        coll: &Collection,
        path: &PathExpr,
    ) -> Result<QueryOutcome, QueryError> {
        let plan = self.plan_path(coll, path)?;
        let candidates = self.scan_plan(&plan);
        Ok(self.refine(coll, &plan.path, candidates))
    }

    /// Compiles a query string into a reusable [`QueryPlan`] (steps 1–3 of
    /// Algorithm 2: parse, decompose, compute features).
    pub fn compile(&self, coll: &Collection, query: &str) -> Result<QueryPlan, QueryError> {
        let path = parse_path(query)?;
        self.plan_path(coll, &path)
    }

    /// Compiles a parsed path expression into a [`QueryPlan`].
    pub fn plan_path(&self, coll: &Collection, path: &PathExpr) -> Result<QueryPlan, QueryError> {
        self.plan_normalized(coll, fix_xpath::normalize(path))
    }

    /// Plan construction for an already-normalized path (callers that
    /// normalized up front to derive a cache key).
    pub(crate) fn plan_normalized(
        &self,
        coll: &Collection,
        path: PathExpr,
    ) -> Result<QueryPlan, QueryError> {
        self.plan_normalized_timed(coll, path).map(|(p, _)| p)
    }

    /// [`FixIndex::plan_normalized`] with per-stage wall clocks: the twig
    /// decomposition (the trace's `compile` stage) is timed separately
    /// from the eigenvalue work (`eigen`).
    pub(crate) fn plan_normalized_timed(
        &self,
        coll: &Collection,
        path: PathExpr,
    ) -> Result<(QueryPlan, PlanTiming), QueryError> {
        let compile_start = Instant::now();
        let blocks = decompose(&path);
        let compile = compile_start.elapsed();
        let eigen_start = Instant::now();
        // Pruning features of the top block.
        let top = self.block_features(coll, &blocks[0])?;
        // In collection mode the remaining blocks prune too: the document
        // must contain every block (Section 5). With a positive depth
        // limit they give no pruning power (only the top block is anchored
        // at the entry root), so skip the eigenwork. Rest blocks cannot
        // raise `NotCovered` (the depth test only applies when
        // `depth_limit > 0`), so eager computation is outcome-identical to
        // the old lazy path.
        let rest = if self.opts.depth_limit == 0 && blocks.len() > 1 && top.is_some() {
            blocks[1..]
                .iter()
                .map(|b| self.block_features(coll, b))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let timing = PlanTiming {
            compile,
            eigen: eigen_start.elapsed(),
            blocks: blocks.len() as u64,
        };
        Ok((
            QueryPlan {
                path,
                blocks,
                top,
                rest,
            },
            timing,
        ))
    }

    /// Step 4 of Algorithm 2: range-scan the B-tree — and, after inserts,
    /// every live delta run (frozen tiers plus the active tail) — with a
    /// compiled plan's features. Each source is scanned in key order and
    /// the streams are k-way merged on the raw key encoding (entry
    /// sequence numbers make keys unique), so the returned [`Candidate`]
    /// stream is byte-identical to the single scan a just-compacted or
    /// freshly rebuilt index would produce, however the delta is tiered.
    pub fn scan_plan(&self, plan: &QueryPlan) -> Vec<Candidate> {
        self.try_scan_plan(plan, &mut QueryCtl::unbounded())
            .unwrap_or_else(|e| panic!("invariant: index scan must succeed on this path: {e}"))
    }

    /// [`FixIndex::scan_plan`] with structured failure and cooperative
    /// cancellation: B-tree page failures (I/O errors, CRC mismatches,
    /// quarantined pages) surface as [`FixError`] naming the `"btree"`
    /// section, and the scan aborts with [`FixError::DeadlineExceeded`]
    /// at the next item boundary once `ctl`'s token trips.
    pub(crate) fn try_scan_plan(
        &self,
        plan: &QueryPlan,
        ctl: &mut QueryCtl,
    ) -> Result<Vec<Candidate>, FixError> {
        let Some(top_feat) = &plan.top else {
            return Ok(Vec::new());
        };
        // Anchored probes (every entry is rooted at a potential anchor):
        // large-document mode always; collection mode when the query is
        // rooted at the document root. Un-anchored probes scan the whole
        // tree: the pattern can root anywhere inside a document, so only
        // the eigenvalue range prunes (`check_root = anchored` below).
        let anchored = self.opts.depth_limit > 0 || plan.blocks[0].steps[0].axis == Axis::Child;
        let storage = |e| FixError::from_storage("btree", e);
        let mut scan = if anchored {
            self.btree
                .try_range(
                    &IndexKey::scan_start(top_feat),
                    Some(&IndexKey::scan_end(top_feat)),
                )
                .map_err(storage)?
        } else {
            self.btree.try_iter().map_err(storage)?
        };
        let mut base: Vec<Candidate> = Vec::new();
        let mut k = [0u8; KEY_LEN];
        loop {
            ctl.checkpoint()?;
            let Some(v) = scan.next_into(&mut k) else {
                break;
            };
            let c = Candidate {
                key: IndexKey::decode(&k),
                value: v,
                delta: false,
            };
            if self.entry_contains(&c.key, top_feat, anchored) {
                base.push(c);
            }
        }
        // A mid-scan leaf-chain failure parks on the iterator instead of
        // panicking; surface it here.
        if let Some(e) = scan.take_error() {
            return Err(storage(e));
        }
        drop(scan);
        let mut cands = if self.delta.is_empty() {
            base
        } else {
            let t0 = Instant::now();
            let map = |(k, v): (&[u8], u64)| Candidate {
                key: IndexKey::decode(k),
                value: v,
                delta: true,
            };
            // One candidate source per live run, base first: the k-way
            // merge tie-breaks toward earlier sources, preserving the old
            // base-before-delta order (ties cannot occur — keys are
            // unique — but the guarantee is kept total).
            let mut scanned = 0u64;
            let mut sources: Vec<Vec<Candidate>> = Vec::with_capacity(1 + self.delta.runs().len());
            sources.push(base);
            for run in self.delta.runs() {
                // Delta runs are in-memory — they cannot fail, but a slow
                // merged scan should still honor the deadline per run.
                ctl.checkpoint()?;
                let side: Vec<Candidate> = if anchored {
                    run.range(
                        &IndexKey::scan_start(top_feat),
                        Some(&IndexKey::scan_end(top_feat)),
                    )
                    .map(map)
                    .filter(|c| self.entry_contains(&c.key, top_feat, true))
                    .collect()
                } else {
                    run.iter()
                        .map(map)
                        .filter(|c| self.entry_contains(&c.key, top_feat, false))
                        .collect()
                };
                scanned += side.len() as u64;
                sources.push(side);
            }
            self.delta.note_scan(
                scanned,
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            fix_exec::merge_k_sorted(sources, |c: &Candidate| c.key.encode())
        };
        // Tombstoned documents never appear as candidates. (Clustered
        // values point into the copy stores; their document is resolved —
        // and filtered — during refinement instead.)
        if !self.removed.is_empty() && self.clustered.is_none() {
            cands.retain(|c| !self.removed.contains(&EntryPtr::from_u64(c.value).doc));
        }
        for bf in &plan.rest {
            if cands.is_empty() {
                break;
            }
            let Some(bf) = bf else {
                // A provably-empty rest block empties the whole conjunction.
                return Ok(Vec::new());
            };
            cands.retain(|c| self.entry_contains(&c.key, bf, false));
        }
        Ok(cands)
    }

    /// The pruning phase alone: [`Candidate`]s in key order. Exposed
    /// separately so the experiment harness can measure pruning power
    /// without paying for refinement. Equivalent to
    /// [`FixIndex::plan_path`] followed by [`FixIndex::scan_plan`].
    pub fn candidates(
        &self,
        coll: &Collection,
        path: &PathExpr,
    ) -> Result<Vec<Candidate>, QueryError> {
        Ok(self.scan_plan(&self.plan_path(coll, path)?))
    }

    /// Computes pruning features for one twig block; `Ok(None)` when the
    /// block provably matches nothing (unknown label, unknown edge pair,
    /// unknown value bucket).
    pub(crate) fn block_features(
        &self,
        coll: &Collection,
        block: &PathExpr,
    ) -> Result<Option<Features>, QueryError> {
        let twig = match TwigQuery::from_path(block, &coll.labels) {
            Ok(t) => t,
            Err(TwigError::UnknownLabel(_)) => return Ok(None),
            Err(TwigError::NotATwig) => unreachable!("decompose produces twig blocks"),
        };
        // If the index has no value labels, prune with the structural
        // skeleton; refinement checks the values.
        let twig = if twig.has_values() && self.hasher.is_none() {
            twig.strip_values()
        } else {
            twig
        };
        if self.opts.depth_limit > 0 && twig.depth() > self.opts.depth_limit {
            return Err(QueryError::NotCovered {
                query_depth: twig.depth(),
                depth_limit: self.opts.depth_limit,
            });
        }
        let (pattern, pinfo): (_, UnitInfo) = if twig.has_values() {
            let h = self.hasher.as_ref().expect("values imply a hasher");
            // All value buckets must exist, otherwise no indexed document
            // contains such a value.
            for node in &twig.nodes {
                if let Some(v) = &node.value {
                    if h.label(v, &coll.labels).is_none() {
                        return Ok(None);
                    }
                }
            }
            query_pattern_with_values(&twig, |v| h.label(v, &coll.labels).expect("checked above"))
        } else {
            fix_bisim::query_pattern(&twig)
        };
        let mut feat = match self
            .opts
            .extractor
            .extract_query(&pattern, pinfo.root, &self.encoder)
        {
            Some(f) => f,
            None => return Ok(None),
        };
        // Non-injective guard (SymmetricNorm mode only; SkewSpectral stays
        // paper-faithful). A query whose *tree* repeats a label admits
        // matches that are non-injective (two query nodes on one document
        // node) or non-homomorphic on the minimized pattern (two identical
        // query leaves collapse into one shared vertex, yet match document
        // nodes with different subtrees — a counterexample to the paper's
        // Theorem 2; see DESIGN.md §2). Either way spectral monotonicity
        // fails. The widest range that stays sound is the query's maximum
        // single edge weight: every entry matching the query contains that
        // edge, and a single non-negative edge already forces
        // λ_max ≥ weight (Perron). The duplicate test must run on the twig
        // *tree*, pre-collapse — the collapsed pattern can look
        // duplicate-free exactly in the failing cases.
        if self.opts.extractor.mode == fix_spectral::FeatureMode::SymmetricNorm {
            let mut seen = std::collections::HashSet::new();
            let mut dup = false;
            for node in &twig.nodes {
                if !seen.insert(node.label) {
                    dup = true;
                }
                if let (Some(v), Some(h)) = (&node.value, &self.hasher) {
                    if let Some(l) = h.label(v, &coll.labels) {
                        if !seen.insert(l) {
                            dup = true;
                        }
                    }
                }
            }
            if dup {
                let mut max_w = 0.0f64;
                for v in pattern.iter() {
                    for &c in pattern.children(v) {
                        let w = self
                            .encoder
                            .lookup(pattern.label(v), pattern.label(c))
                            .unwrap_or(0.0);
                        max_w = max_w.max(w);
                    }
                }
                feat.lmax = max_w;
                feat.lmin = -max_w;
                feat.sigma2 = 0.0;
                // `feat.bloom` stays: edge fingerprints are sound even for
                // non-injective matches (labeled edges are preserved by any
                // match).
            }
        }
        Ok(Some(feat))
    }

    /// Range-containment test against a stored entry key.
    fn entry_contains(&self, entry: &IndexKey, query: &Features, check_root: bool) -> bool {
        if check_root && entry.root != query.root {
            return false;
        }
        let eps = |v: f64| 1e-9 * (1.0 + v.abs());
        let base = query.lmax <= entry.lmax + eps(entry.lmax)
            && query.lmin >= entry.lmin - eps(entry.lmin);
        if !base {
            return false;
        }
        if self.opts.extended_features && query.sigma2 > entry.sigma2 + eps(entry.sigma2) {
            return false;
        }
        if self.opts.edge_bloom && query.bloom & !entry.bloom != 0 {
            return false;
        }
        true
    }

    /// The refinement phase: validate candidates and assemble results.
    pub fn refine(
        &self,
        coll: &Collection,
        path: &PathExpr,
        candidates: Vec<Candidate>,
    ) -> QueryOutcome {
        self.refine_with_threads(coll, path, candidates, 1)
    }

    /// Refinement fanned across `threads` workers. Candidates are split
    /// into contiguous chunks (preserving key order within each), refined
    /// concurrently, and the per-chunk results concatenated in chunk order
    /// before the final sort + dedup — the same multiset the sequential
    /// loop produces, so the [`QueryOutcome`] is byte-identical at every
    /// thread count. `threads ≤ 1` runs the plain sequential loop.
    pub fn refine_with_threads(
        &self,
        coll: &Collection,
        path: &PathExpr,
        candidates: Vec<Candidate>,
        threads: usize,
    ) -> QueryOutcome {
        self.refine_with_threads_timed(coll, path, candidates, threads)
            .0
    }

    /// [`FixIndex::refine_with_threads`] plus wall clocks: the stage's
    /// total wall time and (for the parallel path) each worker's wall
    /// time, collected in chunk order so the aggregation is deterministic.
    pub(crate) fn refine_with_threads_timed(
        &self,
        coll: &Collection,
        path: &PathExpr,
        candidates: Vec<Candidate>,
        threads: usize,
    ) -> (QueryOutcome, RefineTiming) {
        self.try_refine_with_threads_timed(coll, path, candidates, threads, &QueryCtl::unbounded())
            .unwrap_or_else(|e| panic!("invariant: refinement must succeed on this path: {e}"))
    }

    /// [`FixIndex::refine_with_threads_timed`] with structured failure and
    /// cooperative cancellation. Storage failures resolving candidates
    /// surface as [`FixError`] naming the section at fault (`"clustered"`
    /// for copy-heap fetches, `"documents"` for primary reads); a tripped
    /// deadline aborts at the next candidate boundary. On the parallel
    /// path the first failing chunk *in chunk order* wins, so the reported
    /// error is deterministic across thread scheduling.
    pub(crate) fn try_refine_with_threads_timed(
        &self,
        coll: &Collection,
        path: &PathExpr,
        candidates: Vec<Candidate>,
        threads: usize,
        ctl: &QueryCtl,
    ) -> Result<(QueryOutcome, RefineTiming), FixError> {
        let start = Instant::now();
        let cdt = candidates.len() as u64;
        let delta_cdt = candidates.iter().filter(|c| c.delta).count() as u64;
        let refiner = Refiner::new(&coll.labels, path, self.opts.depth_limit);
        let threads = threads.max(1).min(candidates.len().max(1));
        // One worker's output: its matches, producing count, and wall time.
        type ChunkPart = (Vec<(DocId, NodeId)>, u64, Duration);
        let (mut results, producing, workers) = if threads <= 1 {
            let mut wctl = ctl.worker();
            let (r, p) = self.try_refine_chunk(coll, &refiner, &candidates, &mut wctl)?;
            (r, p, Vec::new())
        } else {
            let chunk = candidates.len().div_ceil(threads);
            let parts: Vec<Result<ChunkPart, FixError>> = std::thread::scope(|s| {
                let handles: Vec<_> = candidates
                    .chunks(chunk)
                    .map(|part| {
                        let refiner = &refiner;
                        let mut wctl = ctl.worker();
                        s.spawn(move || {
                            let w0 = Instant::now();
                            self.try_refine_chunk(coll, refiner, part, &mut wctl)
                                .map(|(r, p)| (r, p, w0.elapsed()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("refinement worker panicked"))
                    .collect()
            });
            let mut results = Vec::new();
            let mut producing = 0u64;
            let mut workers = Vec::with_capacity(parts.len());
            for part in parts {
                let (r, p, w) = part?;
                results.extend(r);
                producing += p;
                workers.push(w);
            }
            (results, producing, workers)
        };
        results.sort_unstable();
        results.dedup();
        let outcome = QueryOutcome {
            results,
            metrics: Metrics {
                entries: self.entry_count(),
                candidates: cdt,
                delta_candidates: delta_cdt,
                producing,
            },
        };
        Ok((
            outcome,
            RefineTiming {
                wall: start.elapsed(),
                workers,
            },
        ))
    }

    /// Refines one contiguous run of candidates. `&self`-only — safe to
    /// call from any number of worker threads at once. Checks `ctl` at
    /// every candidate boundary.
    fn try_refine_chunk(
        &self,
        coll: &Collection,
        refiner: &Refiner<'_>,
        candidates: &[Candidate],
        ctl: &mut QueryCtl,
    ) -> Result<(Vec<(DocId, NodeId)>, u64), FixError> {
        let mut producing = 0u64;
        let mut results: Vec<(DocId, NodeId)> = Vec::new();
        for c in candidates {
            ctl.checkpoint()?;
            let Some(ptr) = self.try_resolve(c)? else {
                continue;
            };
            let rs = self.try_matches_at(coll, refiner, ptr)?;
            if !rs.is_empty() {
                producing += 1;
                results.extend(rs.into_iter().map(|n| (ptr.doc, n)));
            }
        }
        Ok((results, producing))
    }

    /// Resolves a candidate to the entry it points at; `None` when its
    /// document is tombstoned.
    fn try_resolve(&self, c: &Candidate) -> Result<Option<EntryPtr>, FixError> {
        let ptr = if self.clustered.is_some() {
            // Clustered: read the pointer off the head of the copy
            // (sequential I/O — candidates arrive in key order). Delta
            // values resolve against the delta's in-memory copy store
            // instead of the base heap, so only the base read can fail.
            if c.delta {
                self.delta.ptr(c.value)
            } else {
                self.try_clustered_ptr(c.value)?
            }
        } else {
            EntryPtr::from_u64(c.value)
        };
        Ok((!self.removed.contains(&ptr.doc)).then_some(ptr))
    }

    /// Validates the query at one resolved entry: reads its document,
    /// charges the primary-storage read, runs the refiner.
    fn try_matches_at(
        &self,
        coll: &Collection,
        refiner: &Refiner<'_>,
        ptr: EntryPtr,
    ) -> Result<Vec<NodeId>, FixError> {
        let doc = coll.try_doc(ptr.doc)?;
        // The whole (small) document in collection mode, the pattern
        // instance's subtree in large-document mode. The clustered
        // variant already paid for its copy instead.
        if self.clustered.is_none() {
            if self.opts.depth_limit == 0 {
                coll.touch_document(ptr.doc);
            } else {
                coll.touch_subtree(ptr.doc, NodeId(ptr.node));
            }
        }
        Ok(refiner.matches_at(doc, NodeId(ptr.node)))
    }

    /// Parses a query and returns a lazy iterator over its matches (see
    /// [`QueryHits`]).
    pub fn query_iter<'a>(
        &'a self,
        coll: &'a Collection,
        query: &str,
    ) -> Result<QueryHits<'a>, FixError> {
        let plan = self.compile(coll, query)?;
        self.hits(coll, &plan)
    }

    /// Executes a compiled plan as a lazy iterator. Pruning (the B-tree
    /// scan and, for the clustered variant, the copy-heap fetches) happens
    /// up front — a storage failure there is this call's `Err` —
    /// refinement is deferred and paid one *document* at a time as the
    /// iterator is advanced.
    pub fn hits<'a>(
        &'a self,
        coll: &'a Collection,
        plan: &QueryPlan,
    ) -> Result<QueryHits<'a>, FixError> {
        let candidates = self.try_scan_plan(plan, &mut QueryCtl::unbounded())?;
        let cdt = candidates.len() as u64;
        let delta_cdt = candidates.iter().filter(|c| c.delta).count() as u64;
        // Resolve pointers up front, in key order, so the clustered copy
        // heap still sees sequential I/O.
        let mut ptrs: Vec<EntryPtr> = Vec::with_capacity(candidates.len());
        for c in &candidates {
            ptrs.extend(self.try_resolve(c)?);
        }
        // Group candidates by document, ascending: the concatenation of
        // each document's sorted, deduplicated output then equals the
        // globally sorted result set the eager path produces.
        ptrs.sort_unstable();
        Ok(QueryHits {
            index: self,
            coll,
            refiner: Refiner::new(&coll.labels, &plan.path, self.opts.depth_limit),
            pending: ptrs.into_iter().peekable(),
            buf: Vec::new().into_iter(),
            metrics: Metrics {
                entries: self.entry_count(),
                candidates: cdt,
                delta_candidates: delta_cdt,
                producing: 0,
            },
        })
    }
}

/// A lazy stream of query matches, yielded in document order — the exact
/// sequence [`QueryOutcome::results`] would hold, without materializing it
/// up front. Refinement runs one document group at a time: consumers that
/// stop early (first match, top-N) skip the evaluation work for every
/// remaining candidate document. A document whose pages fail I/O or
/// checksum verification yields one `Err` in its place (its candidates
/// are consumed), never a panic.
pub struct QueryHits<'a> {
    index: &'a FixIndex,
    coll: &'a Collection,
    refiner: Refiner<'a>,
    /// Resolved candidate pointers, sorted by `(document, node)`.
    pending: std::iter::Peekable<std::vec::IntoIter<EntryPtr>>,
    /// The current document's matches, drained front to back.
    buf: std::vec::IntoIter<(DocId, NodeId)>,
    metrics: Metrics,
}

impl QueryHits<'_> {
    /// The Section 6.2 counters. `entries` and `candidates` are exact from
    /// construction; `producing` counts only the candidates refined so
    /// far, so it is complete once the iterator is exhausted.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drains the remaining matches into an eager [`QueryOutcome`], or
    /// the first failure met on the way.
    pub fn into_outcome(mut self) -> Result<QueryOutcome, FixError> {
        let results = self.by_ref().collect::<Result<Vec<_>, _>>()?;
        Ok(QueryOutcome {
            results,
            metrics: self.metrics,
        })
    }

    /// Refines the next document's candidate group into `buf`; `Ok(false)`
    /// when no candidates remain.
    fn refine_next_doc(&mut self) -> Result<bool, FixError> {
        let Some(doc_id) = self.pending.peek().map(|p| p.doc) else {
            return Ok(false);
        };
        // Consume the whole group first, so a failing document costs one
        // `Err` and the stream resumes at the next document.
        let group: Vec<EntryPtr> =
            std::iter::from_fn(|| self.pending.next_if(|p| p.doc == doc_id)).collect();
        let mut nodes: Vec<NodeId> = Vec::new();
        for ptr in group {
            let rs = self.index.try_matches_at(self.coll, &self.refiner, ptr)?;
            if !rs.is_empty() {
                self.metrics.producing += 1;
                nodes.extend(rs);
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        self.buf = nodes
            .into_iter()
            .map(|n| (doc_id, n))
            .collect::<Vec<_>>()
            .into_iter();
        Ok(true)
    }
}

impl Iterator for QueryHits<'_> {
    type Item = Result<(DocId, NodeId), FixError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(hit) = self.buf.next() {
                return Some(Ok(hit));
            }
            match self.refine_next_doc() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::FixOptions;

    fn bib_collection() -> Collection {
        let mut c = Collection::new();
        c.add_xml("<bib><article><author><email/></author><title>t1</title><ee/></article></bib>")
            .unwrap();
        c.add_xml("<bib><book><author><phone/></author><title>t2</title></book></bib>")
            .unwrap();
        c.add_xml(
            "<bib><article><author><phone/><email/></author><title>t3</title></article></bib>",
        )
        .unwrap();
        c
    }

    #[test]
    fn collection_query_end_to_end() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        let out = idx.query(&c, "//article[author]/ee").unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].0, DocId(0));
        assert_eq!(out.metrics.entries, 3);
        assert!(out.metrics.candidates >= 1);
        assert_eq!(out.metrics.producing, 1);
    }

    #[test]
    fn rooted_collection_query_uses_root_partition() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        let out = idx.query(&c, "/bib/book/author/phone").unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].0, DocId(1));
    }

    #[test]
    fn large_document_query_anchors_per_element() {
        let mut c = Collection::new();
        c.add_xml("<s><s><np/><s><np/><vp/></s></s><vp/><empty><s><np/></s></empty></s>")
            .unwrap();
        let idx = FixIndex::build(&mut c, FixOptions::large_document(4));
        let out = idx.query(&c, "//s[np][vp]").unwrap();
        assert_eq!(out.results.len(), 1);
        let out2 = idx.query(&c, "//empty/s/np").unwrap();
        assert_eq!(out2.results.len(), 1);
        // Results agree with the navigational baseline.
        let p = parse_path("//s/np").unwrap();
        let base = fix_exec::eval_path(c.doc(DocId(0)), &c.labels, &p);
        let via_index = idx.query(&c, "//s/np").unwrap();
        assert_eq!(via_index.results.len(), base.len());
    }

    #[test]
    fn not_covered_query_is_rejected() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::large_document(2));
        let err = idx.query(&c, "//bib/article/author/email").unwrap_err();
        assert!(matches!(
            err,
            QueryError::NotCovered {
                query_depth: 4,
                depth_limit: 2
            }
        ));
    }

    #[test]
    fn unknown_labels_yield_empty_without_error() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        let out = idx.query(&c, "//nonexistent/label").unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.metrics.candidates, 0);
    }

    #[test]
    fn interior_descendant_queries_decompose() {
        let mut c = Collection::new();
        c.add_xml(
            "<site><open_auction><seller/><annotation><description><price/></description></annotation></open_auction></site>",
        )
        .unwrap();
        c.add_xml("<site><closed_auction><price/></closed_auction></site>")
            .unwrap();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        let out = idx.query(&c, "//open_auction//price").unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].0, DocId(0));
    }

    #[test]
    fn clustered_and_unclustered_agree() {
        let mut c1 = bib_collection();
        let u = FixIndex::build(&mut c1, FixOptions::collection());
        let mut c2 = bib_collection();
        let cl = FixIndex::build(&mut c2, FixOptions::collection().clustered());
        for q in [
            "//article[author]/ee",
            "//author[phone][email]",
            "//book/title",
            "/bib/article/author",
        ] {
            let a = u.query(&c1, q).unwrap();
            let b = cl.query(&c2, q).unwrap();
            assert_eq!(a.results, b.results, "disagreement on {q}");
            assert_eq!(a.metrics, b.metrics, "metric disagreement on {q}");
        }
    }

    #[test]
    fn parallel_refinement_matches_sequential() {
        let mut c1 = bib_collection();
        let u = FixIndex::build(&mut c1, FixOptions::collection());
        let mut c2 = bib_collection();
        let cl = FixIndex::build(&mut c2, FixOptions::collection().clustered());
        for q in [
            "//article[author]/ee",
            "//author[phone][email]",
            "/bib/article/author",
            "//book/title",
            "//nonexistent/label",
        ] {
            for (idx, c) in [(&u, &c1), (&cl, &c2)] {
                let seq = idx.query(c, q).unwrap();
                let plan = idx.compile(c, q).unwrap();
                for t in [2, 3, 8] {
                    let par = idx.refine_with_threads(c, plan.path(), idx.scan_plan(&plan), t);
                    assert_eq!(seq, par, "thread count {t} diverged on {q}");
                }
            }
        }
    }

    #[test]
    fn query_iter_streams_the_eager_results() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        for q in [
            "//article[author]/ee",
            "//author[phone][email]",
            "//book/title",
            "//nonexistent/label",
        ] {
            let eager = idx.query(&c, q).unwrap();
            let lazy: Vec<_> = idx
                .query_iter(&c, q)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(eager.results, lazy, "stream diverged on {q}");
            let outcome = idx.query_iter(&c, q).unwrap().into_outcome().unwrap();
            assert_eq!(eager, outcome, "outcome diverged on {q}");
        }
    }

    #[test]
    fn query_iter_streams_large_document_mode() {
        let mut c = Collection::new();
        c.add_xml("<s><s><np/><s><np/><vp/></s></s><vp/><empty><s><np/></s></empty></s>")
            .unwrap();
        let idx = FixIndex::build(&mut c, FixOptions::large_document(4));
        for q in ["//s[np][vp]", "//s/np", "//empty/s/np"] {
            let eager = idx.query(&c, q).unwrap();
            let outcome = idx.query_iter(&c, q).unwrap().into_outcome().unwrap();
            assert_eq!(eager, outcome, "outcome diverged on {q}");
        }
    }

    #[test]
    fn traced_query_matches_untraced_and_records_all_stages() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        for q in ["//article[author]/ee", "//nonexistent/label"] {
            let plain = idx.query(&c, q).unwrap();
            let (traced, trace) = idx.query_traced(&c, q, 2).unwrap();
            assert_eq!(plain, traced, "traced outcome diverged on {q}");
            for s in [
                Stage::Parse,
                Stage::Compile,
                Stage::Eigen,
                Stage::Scan,
                Stage::Refine,
            ] {
                assert!(trace.stage(s).is_some(), "missing stage {s} on {q}");
            }
            // No plan cache at the index level — no probe record.
            assert!(trace.stage(Stage::CacheProbe).is_none());
            assert_eq!(
                trace.stage(Stage::Scan).unwrap().items,
                Some(traced.metrics.candidates),
                "scan items must equal the candidate count on {q}"
            );
            assert_eq!(
                trace.stage(Stage::Refine).unwrap().items,
                Some(traced.results.len() as u64)
            );
            assert!(trace.total >= trace.stage(Stage::Refine).unwrap().wall);
        }
    }

    #[test]
    fn plans_compile_once_and_rerun() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        let plan = idx.compile(&c, "//article[author]/ee").unwrap();
        assert!(plan.features().is_some());
        // The canonical spelling re-parses to the same plan (cache keys are
        // stable).
        let replanned = idx.compile(&c, &plan.normalized()).unwrap();
        assert_eq!(plan, replanned);
        let a = idx.refine(&c, plan.path(), idx.scan_plan(&plan));
        let b = idx.query(&c, "//article[author]/ee").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn value_queries_prune_through_the_value_index() {
        let mut c = Collection::new();
        c.add_xml("<dblp><proceedings><publisher>Springer</publisher><title>a</title></proceedings></dblp>").unwrap();
        c.add_xml(
            "<dblp><proceedings><publisher>ACM</publisher><title>b</title></proceedings></dblp>",
        )
        .unwrap();
        let idx = FixIndex::build(&mut c, FixOptions::large_document(3).with_values(64));
        let out = idx
            .query(&c, r#"//proceedings[publisher="Springer"][title]"#)
            .unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].0, DocId(0));
        // Pruning is containment-based, so the ACM entry may or may not
        // survive (its wider structural range can cover the query range);
        // the guarantee is only "no false negatives".
        assert!(out.metrics.candidates >= 1);
        assert_eq!(out.metrics.producing, 1);
        // A value that was never indexed short-circuits to empty.
        let out2 = idx
            .query(&c, r#"//proceedings[publisher="Elsevier"]"#)
            .unwrap();
        assert!(out2.results.is_empty());
    }

    #[test]
    fn structural_index_still_answers_value_queries() {
        let mut c = Collection::new();
        c.add_xml("<dblp><inproceedings><year>1998</year><title>x</title></inproceedings></dblp>")
            .unwrap();
        c.add_xml("<dblp><inproceedings><year>1999</year><title>y</title></inproceedings></dblp>")
            .unwrap();
        let idx = FixIndex::build(&mut c, FixOptions::large_document(3));
        let out = idx
            .query(&c, r#"//inproceedings[year="1998"]/title"#)
            .unwrap();
        assert_eq!(out.results.len(), 1);
        // Both inproceedings are candidates (structure identical) — the
        // value filter happens in refinement.
        assert_eq!(out.metrics.candidates, 2);
        assert_eq!(out.metrics.producing, 1);
    }

    #[test]
    fn parse_errors_surface() {
        let mut c = bib_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        assert!(matches!(
            idx.query(&c, "not a path"),
            Err(QueryError::Parse(_))
        ));
    }
}

#[cfg(test)]
mod outcome_tests {
    use crate::options::FixOptions;
    use crate::Collection;

    #[test]
    fn results_serialize_back_to_xml() {
        let mut c = Collection::new();
        c.add_xml("<bib><article><title>Holistic <i>Twig</i> Joins</title></article></bib>")
            .unwrap();
        let idx = crate::FixIndex::build(&mut c, FixOptions::large_document(4));
        let out = idx.query(&c, "//article/title").unwrap();
        let xml = out.results_xml(&c);
        assert_eq!(xml.len(), 1);
        assert_eq!(xml[0], "<title>Holistic <i>Twig</i> Joins</title>");
        let text = out.results_text(&c);
        assert_eq!(text[0], "Holistic Twig Joins");
    }
}
