//! [`QuerySession`] — a concurrent, snapshot-isolated query handle.
//!
//! A session pins the collection and index behind [`Arc`]s at creation
//! time: clone it freely and hand the clones to as many threads as the
//! workload needs — all state is shared and `&`-only. The owning
//! [`FixDatabase`](crate::FixDatabase) keeps working in parallel; its
//! mutating operations fail fast with
//! [`FixError::SnapshotInUse`] while
//! sessions are alive, and `vacuum` simply swaps in a new snapshot
//! underneath them.
//!
//! Each query runs Algorithm 2 with two serving-side accelerations, both
//! outcome-invisible:
//!
//! * **Plan caching** — steps 1–3 (parse, twig decomposition,
//!   eigen-features) are memoized in a bounded LRU keyed by the normalized
//!   query spelling, shared across clones. A warm hit goes straight to the
//!   B-tree range scan.
//! * **Parallel refinement** — candidates fan out across
//!   [`FixOptions::query_threads`](crate::FixOptions::query_threads)
//!   workers and merge back in document order, byte-identical to the
//!   sequential path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fix_obs::{Counter, Histogram, MetricsRegistry, QueryTrace, Stage};

use crate::builder::FixIndex;
use crate::collection::Collection;
use crate::error::FixError;
use crate::metrics::CacheStats;
use crate::options::resolve_threads;
use crate::plan_cache::{PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::query::{PlanTiming, QueryCtl, QueryHits, QueryOutcome, QueryPlan};

/// Fewest candidates per extra worker that make spawning it worthwhile.
/// Below this, per-candidate refinement is cheaper than thread start-up
/// and the session runs the sequential loop regardless of
/// [`QuerySession::threads`]. (The outcome is byte-identical either way;
/// this is purely a latency guard for highly selective queries.)
const MIN_CANDIDATES_PER_WORKER: usize = 128;

/// Pre-resolved registry handles for the per-query hot path. Resolving by
/// name takes the registry's read lock; doing it once at session creation
/// keeps query serving down to a handful of relaxed atomic adds.
struct SessionMetrics {
    /// `fix_queries_total`.
    queries: Arc<Counter>,
    /// `fix_query_wall_ns`.
    query_wall: Arc<Histogram>,
    /// Per-stage wall-time histograms, indexed by [`Stage::index`].
    stages: Vec<Arc<Histogram>>,
    /// `fix_refine_candidates_total`.
    candidates: Arc<Counter>,
    /// `fix_refine_producing_total`.
    producing: Arc<Counter>,
    /// `fix_query_timeouts_total` — queries cancelled at their deadline.
    timeouts: Arc<Counter>,
}

impl SessionMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            queries: registry.counter("fix_queries_total"),
            query_wall: registry.histogram("fix_query_wall_ns"),
            stages: Stage::ALL
                .iter()
                .map(|s| registry.histogram(s.metric_name()))
                .collect(),
            candidates: registry.counter("fix_refine_candidates_total"),
            producing: registry.counter("fix_refine_producing_total"),
            timeouts: registry.counter(fix_obs::names::QUERY_TIMEOUTS),
        }
    }

    fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }
}

/// What one plan lookup did and how long each part took. `parse` is
/// `None` on a raw-spelling hit (the repeat skipped the parse); `plan` is
/// `None` on any hit (compile/eigen only run on a full miss).
struct CachedPlanTiming {
    /// Both cache probes combined.
    probe: Duration,
    hit: bool,
    parse: Option<Duration>,
    plan: Option<PlanTiming>,
}

/// A shared-read query-serving handle over one database snapshot. Cheap to
/// clone (`Arc` bumps); clones share the snapshot, the plan cache, *and*
/// the metrics registry.
#[derive(Clone)]
pub struct QuerySession {
    coll: Arc<Collection>,
    index: Arc<FixIndex>,
    cache: Arc<PlanCache>,
    registry: Arc<MetricsRegistry>,
    metrics: Arc<SessionMetrics>,
    /// Resolved refinement worker count (≥ 1).
    threads: usize,
}

impl QuerySession {
    /// Snapshots the given collection/index pair. The worker count comes
    /// from the index's [`query_threads`](crate::FixOptions::query_threads)
    /// option; the plan cache starts empty at the default capacity.
    pub fn new(coll: Arc<Collection>, index: Arc<FixIndex>) -> Self {
        let threads = index.opts.effective_query_threads();
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Arc::new(SessionMetrics::resolve(&registry));
        Self {
            coll,
            index,
            cache: Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            registry,
            metrics,
            threads,
        }
    }

    /// Attaches the session to an existing metrics registry (e.g. the
    /// owning database's, so every session feeds one exposition surface).
    /// Handles are re-resolved; prior counts stay in the old registry.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Arc::new(SessionMetrics::resolve(&registry));
        self.registry = registry;
        self
    }

    /// Overrides the refinement worker count (`0` = all cores) for this
    /// handle and clones made from it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// Replaces the plan cache with a fresh one of the given capacity
    /// (`0` disables caching). Detaches from the cache shared with
    /// earlier clones; counters restart at zero.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Arc::new(PlanCache::new(capacity));
        self
    }

    /// Runs a query: cached plan → B-tree scan → parallel refinement.
    /// The [`QueryOutcome`] is byte-identical to
    /// [`FixIndex::query`](crate::FixIndex::query) on the same snapshot,
    /// for every thread count and cache state. Stage timings and work
    /// counts are recorded into the session's registry either way.
    pub fn query(&self, query: &str) -> Result<QueryOutcome, FixError> {
        self.query_inner(query, None, None)
    }

    /// [`QuerySession::query`] with an explicit per-call deadline,
    /// overriding the session default
    /// ([`FixOptions::query_timeout`](crate::FixOptions)). The query is
    /// cancelled cooperatively at the next scan or refinement chunk
    /// boundary after `timeout` elapses and reports
    /// [`FixError::DeadlineExceeded`] with the observed elapsed time;
    /// `fix_query_timeouts_total` counts every such cancellation.
    pub fn query_with_deadline(
        &self,
        query: &str,
        timeout: Duration,
    ) -> Result<QueryOutcome, FixError> {
        self.query_inner(query, None, Some(timeout))
    }

    /// [`QuerySession::query`] with a full [`QueryTrace`] of the stage
    /// pipeline: the cache probe (with its hit/miss outcome) comes first;
    /// a warm hit legitimately skips the parse/compile/eigen records.
    pub fn query_traced(&self, query: &str) -> Result<(QueryOutcome, QueryTrace), FixError> {
        let mut trace = QueryTrace::new(query);
        let outcome = self.query_inner(query, Some(&mut trace), None)?;
        Ok((outcome, trace))
    }

    /// [`QuerySession::query_with_deadline`] that always hands back the
    /// trace — on failure (including a deadline trip) it is *partial*,
    /// covering the stages that completed plus the stage that was
    /// interrupted, so callers can see where a timed-out query spent its
    /// budget.
    pub fn query_with_deadline_traced(
        &self,
        query: &str,
        timeout: Duration,
    ) -> (Result<QueryOutcome, FixError>, QueryTrace) {
        let mut trace = QueryTrace::new(query);
        let outcome = self.query_inner(query, Some(&mut trace), Some(timeout));
        (outcome, trace)
    }

    fn query_inner(
        &self,
        query: &str,
        mut trace: Option<&mut QueryTrace>,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, FixError> {
        let t0 = Instant::now();
        // Per-call deadline overrides the session default; neither means
        // the control block never trips on its own.
        let mut ctl = match deadline.or(self.index.opts.query_timeout) {
            Some(timeout) => QueryCtl::with_timeout(timeout),
            None => QueryCtl::unbounded(),
        };
        // An already-expired deadline trips here, before any work — the
        // in-loop polls only read the clock periodically and could outrun
        // a short scan.
        if let Err(e) = ctl.checkpoint_now() {
            return Err(self.query_failed(e, trace, Stage::Scan, Duration::ZERO));
        }
        let (plan, timing) = self.cached_plan_timed(query)?;
        let m = &*self.metrics;
        m.stage(Stage::CacheProbe).record_duration(timing.probe);
        if let Some(parse) = timing.parse {
            m.stage(Stage::Parse).record_duration(parse);
        }
        if let Some(pt) = timing.plan {
            m.stage(Stage::Compile).record_duration(pt.compile);
            m.stage(Stage::Eigen).record_duration(pt.eigen);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.record(Stage::CacheProbe, timing.probe).cache_hit = Some(timing.hit);
            if let Some(parse) = timing.parse {
                t.record(Stage::Parse, parse);
            }
            if let Some(pt) = timing.plan {
                t.record(Stage::Compile, pt.compile).items = Some(pt.blocks);
                t.record(Stage::Eigen, pt.eigen);
            }
        }
        let scan_start = Instant::now();
        let scanned = self.index.try_scan_plan(&plan, &mut ctl);
        let scan_wall = scan_start.elapsed();
        m.stage(Stage::Scan).record_duration(scan_wall);
        let candidates = match scanned {
            Ok(c) => c,
            Err(e) => return Err(self.query_failed(e, trace, Stage::Scan, scan_wall)),
        };
        if let Some(t) = trace.as_deref_mut() {
            t.record(Stage::Scan, scan_wall).items = Some(candidates.len() as u64);
        }
        // Scale the worker count to the candidate load: a query that the
        // index prunes down to a handful of candidates finishes faster on
        // one thread than it takes to start a second.
        let threads = self
            .threads
            .min(candidates.len() / MIN_CANDIDATES_PER_WORKER + 1);
        let refine_start = Instant::now();
        let (outcome, rt) = match self.index.try_refine_with_threads_timed(
            &self.coll,
            plan.path(),
            candidates,
            threads,
            &ctl,
        ) {
            Ok(v) => v,
            Err(e) => {
                let wall = refine_start.elapsed();
                m.stage(Stage::Refine).record_duration(wall);
                return Err(self.query_failed(e, trace, Stage::Refine, wall));
            }
        };
        m.stage(Stage::Refine).record_duration(rt.wall);
        m.candidates.add(outcome.metrics.candidates);
        m.producing.add(outcome.metrics.producing);
        m.queries.inc();
        m.query_wall.record_duration(t0.elapsed());
        if let Some(t) = trace {
            let r = t.record(Stage::Refine, rt.wall);
            r.items = Some(outcome.results.len() as u64);
            r.workers = rt.workers;
            t.total = t0.elapsed();
        }
        Ok(outcome)
    }

    /// Error-path bookkeeping: the interrupted stage still lands in the
    /// trace (callers of the `_traced` variants get a *partial* trace
    /// showing where the query stopped), and a deadline trip bumps
    /// `fix_query_timeouts_total`.
    fn query_failed(
        &self,
        e: FixError,
        trace: Option<&mut QueryTrace>,
        stage: Stage,
        wall: Duration,
    ) -> FixError {
        if let Some(t) = trace {
            t.record(stage, wall);
        }
        if matches!(e, FixError::DeadlineExceeded { .. }) {
            self.metrics.timeouts.inc();
        }
        e
    }

    /// Runs a query as a lazy iterator over matches in document order
    /// (the session-side analogue of
    /// [`FixDatabase::query_iter`](crate::FixDatabase::query_iter)); the
    /// plan cache still applies, refinement is sequential-on-demand.
    pub fn query_iter(&self, query: &str) -> Result<QueryHits<'_>, FixError> {
        let plan = self.cached_plan(query)?;
        self.index.hits(&self.coll, &plan)
    }

    /// Fetches or compiles the plan for `query`, tallying exactly one
    /// cache hit or miss (see [`QuerySession::cached_plan_timed`]).
    fn cached_plan(&self, query: &str) -> Result<Arc<QueryPlan>, FixError> {
        self.cached_plan_timed(query).map(|(plan, _)| plan)
    }

    /// Fetches or compiles the plan for `query`, tallying exactly one
    /// cache hit or miss. Two probes: the raw spelling first (an exact
    /// repeat skips even the parse), then the normalized spelling; on a
    /// miss the compiled plan is stored under both. The returned timing
    /// aggregates both probes into one `probe` wall clock and carries
    /// parse/compile/eigen clocks only for the work that actually ran.
    fn cached_plan_timed(
        &self,
        query: &str,
    ) -> Result<(Arc<QueryPlan>, CachedPlanTiming), FixError> {
        let probe_start = Instant::now();
        if let Some(plan) = self.cache.get(query) {
            self.cache.note_hit();
            return Ok((
                plan,
                CachedPlanTiming {
                    probe: probe_start.elapsed(),
                    hit: true,
                    parse: None,
                    plan: None,
                },
            ));
        }
        let probe1 = probe_start.elapsed();
        let parse_start = Instant::now();
        let path = fix_xpath::parse_path(query)?;
        let normalized = fix_xpath::normalize(&path);
        let key = normalized.to_string();
        let parse = parse_start.elapsed();
        let probe2_start = Instant::now();
        let probed = self.cache.get(&key);
        let probe = probe1 + probe2_start.elapsed();
        if let Some(plan) = probed {
            self.cache.note_hit();
            if query != key {
                // Alias this spelling so its next repeat skips the parse.
                self.cache.insert(query.to_string(), plan.clone());
            }
            return Ok((
                plan,
                CachedPlanTiming {
                    probe,
                    hit: true,
                    parse: Some(parse),
                    plan: None,
                },
            ));
        }
        self.cache.note_miss();
        let (plan, pt) = self.index.plan_normalized_timed(&self.coll, normalized)?;
        let plan = Arc::new(plan);
        if query != key {
            self.cache.insert(query.to_string(), plan.clone());
        }
        self.cache.insert(key, plan.clone());
        Ok((
            plan,
            CachedPlanTiming {
                probe,
                hit: false,
                parse: Some(parse),
                plan: Some(pt),
            },
        ))
    }

    /// Plan-cache effectiveness counters (shared across clones).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The metrics registry this session records into (the owning
    /// database's when created via
    /// [`FixDatabase::session`](crate::FixDatabase::session)).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Refreshes the registry's plan-cache gauges (`fix_plan_cache_*`)
    /// from the live cache counters. Gauges only move on report, so call
    /// this before rendering an exposition.
    pub fn report_cache_stats(&self) {
        use fix_obs::Reportable;
        self.cache.stats().report(&self.registry);
    }

    /// The resolved refinement worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The snapshotted collection.
    pub fn collection(&self) -> &Collection {
        &self.coll
    }

    /// The snapshotted index.
    pub fn index(&self) -> &FixIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::FixDatabase;
    use crate::options::FixOptions;

    fn serving_db() -> FixDatabase {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<bib><article><author><email/></author><ee/></article></bib>")
            .unwrap();
        db.add_xml("<bib><book><author><phone/></author></book></bib>")
            .unwrap();
        db.add_xml("<bib><article><author><phone/><email/></author></article></bib>")
            .unwrap();
        db.build(FixOptions::collection().with_query_threads(3))
            .unwrap();
        db
    }

    #[test]
    fn session_is_shareable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<QuerySession>();
    }

    #[test]
    fn session_matches_the_sequential_path() {
        let db = serving_db();
        let session = db.session().unwrap();
        assert_eq!(session.threads(), 3);
        for q in [
            "//article[author]/ee",
            "//author[phone][email]",
            "/bib/book/author/phone",
            "//nonexistent/label",
        ] {
            let seq = db.query(q).unwrap();
            // Cold (miss), warm (hit), and iterator paths all agree.
            assert_eq!(session.query(q).unwrap(), seq, "cold diverged on {q}");
            assert_eq!(session.query(q).unwrap(), seq, "warm diverged on {q}");
            let streamed: Vec<_> = session
                .query_iter(q)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(streamed, seq.results, "stream diverged on {q}");
        }
    }

    #[test]
    fn hits_and_misses_tally_once_per_query() {
        let db = serving_db();
        let session = db.session().unwrap();
        session.query("//article/author").unwrap();
        session.query("//article/author").unwrap();
        session.query("//article/author").unwrap();
        session.query("//book/author").unwrap();
        let s = session.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        // Clones share the cache — a clone's repeat is a hit.
        let clone = session.clone();
        clone.query("//book/author").unwrap();
        assert_eq!(session.cache_stats().hits, 3);
    }

    #[test]
    fn errors_flatten_through_the_session() {
        let db = serving_db();
        let session = db.session().unwrap();
        assert!(matches!(
            session.query("not a path"),
            Err(FixError::BadQuery(_))
        ));
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b><c/></b></a>").unwrap();
        db.build(FixOptions::large_document(2)).unwrap();
        let session = db.session().unwrap();
        assert!(matches!(
            session.query("//a/b/c"),
            Err(FixError::NotCovered { .. })
        ));
    }

    #[test]
    fn traced_queries_match_and_cover_the_pipeline() {
        use fix_obs::Stage;
        let db = serving_db();
        let session = db.session().unwrap();
        let q = "//article[author]/ee";
        let plain = db.query(q).unwrap();
        // Cold: the probe misses and every stage runs.
        let (cold, trace) = session.query_traced(q).unwrap();
        assert_eq!(cold, plain);
        assert_eq!(trace.cache_hit(), Some(false));
        assert_eq!(trace.stages[0].stage, Stage::CacheProbe, "probe is first");
        for s in Stage::ALL {
            assert!(trace.stage(s).is_some(), "cold trace missing {s}");
        }
        assert_eq!(
            trace.stage(Stage::Scan).unwrap().items,
            Some(cold.metrics.candidates)
        );
        // Warm: the hit skips parse/compile/eigen.
        let (warm, trace) = session.query_traced(q).unwrap();
        assert_eq!(warm, plain);
        assert_eq!(trace.cache_hit(), Some(true));
        assert!(trace.stage(Stage::Parse).is_none());
        assert!(trace.stage(Stage::Compile).is_none());
        assert!(trace.stage(Stage::Scan).is_some());
        assert!(trace.stage(Stage::Refine).is_some());
    }

    #[test]
    fn sessions_record_into_their_registry() {
        let db = serving_db();
        let session = db.session().unwrap();
        session.query("//article/author").unwrap();
        session.query("//article/author").unwrap();
        let snap = session.registry().snapshot();
        assert_eq!(snap.counter("fix_queries_total"), Some(2));
        assert_eq!(
            snap.histogram("fix_stage_scan_ns").map(|h| h.count),
            Some(2)
        );
        // The warm repeat skipped compile — one sample, not two.
        assert_eq!(
            snap.histogram("fix_stage_compile_ns").map(|h| h.count),
            Some(1)
        );
        assert!(snap.counter("fix_refine_candidates_total").unwrap() >= 1);
        // The session shares the owning database's registry.
        assert!(Arc::ptr_eq(session.registry(), db.metrics()));
        session.report_cache_stats();
        let snap = session.registry().snapshot();
        assert_eq!(snap.gauge("fix_plan_cache_hits"), Some(1));
        assert_eq!(snap.gauge("fix_plan_cache_misses"), Some(1));
        assert_eq!(snap.gauge("fix_plan_cache_evictions"), Some(0));
    }

    #[test]
    fn zero_capacity_session_still_answers() {
        let db = serving_db();
        let session = db.session().unwrap().with_cache_capacity(0);
        let a = session.query("//article[author]/ee").unwrap();
        let b = session.query("//article[author]/ee").unwrap();
        assert_eq!(a, b);
        let s = session.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn deadline_trips_cooperatively_and_counts() {
        let db = serving_db();
        let session = db.session().unwrap();
        // An already-expired deadline trips at the first checkpoint —
        // deterministic, no matter how fast the query would be.
        let err = session
            .query_with_deadline("//article/author", std::time::Duration::ZERO)
            .unwrap_err();
        assert!(
            matches!(err, FixError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
        let snap = session.registry().snapshot();
        assert_eq!(snap.counter("fix_query_timeouts_total"), Some(1));
        // A roomy deadline answers identically to the undeadlined query.
        let plain = session.query("//article/author").unwrap();
        let timed = session
            .query_with_deadline("//article/author", std::time::Duration::from_secs(60))
            .unwrap();
        assert_eq!(plain, timed);
        // The traced variant hands back the partial trace on a trip:
        // the interrupted stage is recorded.
        let (res, trace) =
            session.query_with_deadline_traced("//article/author", std::time::Duration::ZERO);
        assert!(matches!(res, Err(FixError::DeadlineExceeded { .. })));
        assert!(
            trace.stage(Stage::Scan).is_some() || trace.stage(Stage::Refine).is_some(),
            "partial trace names the interrupted stage"
        );
    }

    #[test]
    fn session_default_timeout_comes_from_options() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<bib><article><author/></article></bib>")
            .unwrap();
        db.build(
            FixOptions::builder()
                .query_timeout(Some(std::time::Duration::ZERO))
                .build(),
        )
        .unwrap();
        let session = db.session().unwrap();
        assert!(matches!(
            session.query("//article/author"),
            Err(FixError::DeadlineExceeded { .. })
        ));
        // A per-call deadline overrides the session default.
        assert!(session
            .query_with_deadline("//article/author", std::time::Duration::from_secs(60))
            .is_ok());
    }
}
