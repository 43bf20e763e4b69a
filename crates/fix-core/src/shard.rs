//! Collection sharding: N independent FIX indexes behind one facade.
//!
//! A [`ShardedDatabase`] partitions documents across `N` fully independent
//! `(Collection, FixIndex)` shards by a deterministic function of the
//! document's **global** arrival id ([`ShardRouter`]). Each shard builds its
//! own bisimulation graphs, eigenvalue encoders, and B-tree — shards share
//! nothing, so they can be queried in parallel and, later, served from
//! different machines.
//!
//! # Merge identity
//!
//! The headline guarantee is that sharding is invisible in the answer
//! stream: a query against a sharded database returns a hit stream
//! **byte-identical** to the unsharded engine over the same documents. The
//! argument:
//!
//! 1. The unsharded engine returns `Vec<(DocId, NodeId)>` sorted and
//!    deduplicated globally (refinement ends with `sort_unstable` +
//!    `dedup`).
//! 2. Each shard's result stream is sorted by its *local* `(DocId,
//!    NodeId)` for the same reason.
//! 3. Global ids are assigned in arrival order and routed immediately, so
//!    each shard's local→global map is strictly increasing: remapping a
//!    shard's stream to global ids preserves its sort order.
//! 4. Shards hold disjoint document sets, so the remapped streams are
//!    disjoint in their doc component.
//! 5. A k-way merge by global `(DocId, NodeId)`
//!    ([`fix_exec::merge_k_sorted`]) of sorted, disjoint streams is
//!    exactly the sorted union — i.e. the unsharded stream.
//!
//! Hits are true matches decided per document, so the *set* of hits is
//! trivially shard-invariant; the points above lift that to the exact byte
//! sequence. Candidate **counts** are *not* shard-invariant (each shard
//! discovers its own edge universe and eigenvalue encoder, so pruning
//! power differs), but `producing` — entries that yield ≥ 1 result — is a
//! shard-invariant sum by the soundness of the containment scan. The
//! differential oracle in `tests/differential.rs` asserts both.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fix_obs::MetricsRegistry;

use crate::builder::FixIndex;
use crate::collection::{Collection, DocId};
use crate::error::FixError;
use crate::metrics::Metrics;
use crate::options::FixOptions;
use crate::query::QueryOutcome;
use crate::session::QuerySession;

/// SplitMix64 finalizer — a full-avalanche mix so that consecutive global
/// ids spread uniformly across shards instead of striping.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic document → shard placement. Routing is a pure function
/// of the document's global arrival id, which is what lets
/// [`ShardedDatabase::open`] reconstruct every local→global map by
/// replaying the router instead of persisting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRouter {
    /// `splitmix64(global_id) % shards` — the production policy.
    Hash,
    /// Every document goes to shard `k % shards`. Exists to exercise the
    /// degenerate layouts (all documents on one shard, all other shards
    /// empty) in tests; not useful in production.
    Pinned(u32),
}

impl ShardRouter {
    /// The shard that owns global document `global` in an `shards`-way
    /// layout.
    pub fn route(&self, global: u32, shards: usize) -> usize {
        debug_assert!(shards > 0);
        match self {
            ShardRouter::Hash => (splitmix64(global as u64) % shards as u64) as usize,
            ShardRouter::Pinned(k) => *k as usize % shards,
        }
    }

    /// Manifest spelling (`hash` / `pinned <k>`).
    fn tag(&self) -> String {
        match self {
            ShardRouter::Hash => "hash".to_string(),
            ShardRouter::Pinned(k) => format!("pinned {k}"),
        }
    }

    /// Parses the manifest spelling produced by [`ShardRouter::tag`].
    fn parse(s: &str) -> Option<ShardRouter> {
        if s == "hash" {
            return Some(ShardRouter::Hash);
        }
        let rest = s.strip_prefix("pinned ")?;
        rest.trim().parse::<u32>().ok().map(ShardRouter::Pinned)
    }
}

/// One shard: an independent collection + index pair plus the monotone
/// map from its local document ids back to global ids.
struct Shard {
    coll: Arc<Collection>,
    index: Arc<FixIndex>,
    /// `local_to_global[local.0] == global.0`; strictly increasing.
    local_to_global: Vec<u32>,
}

/// Where a global document landed: `(shard, local id within it)`.
type Loc = (u32, u32);

/// A document collection partitioned across N independent [`FixIndex`]
/// shards, query-equivalent to the unsharded engine (see the module docs
/// for the merge-identity argument).
///
/// Mutations follow the same snapshot discipline as `FixDatabase`: they
/// need sole ownership of the target shard's `Arc`s and fail with
/// [`FixError::SnapshotInUse`] while a [`ShardedSession`] is alive.
pub struct ShardedDatabase {
    shards: Vec<Shard>,
    router: ShardRouter,
    /// Indexed by global id; never shrinks (removed documents keep their
    /// slot, exactly as in the unsharded engine before a vacuum).
    locs: Vec<Loc>,
    opts: FixOptions,
    metrics: Arc<MetricsRegistry>,
}

impl ShardedDatabase {
    /// Builds an `shards`-way sharded database from XML documents, routing
    /// document `i` with `router` and building every shard with the same
    /// `opts`. `shards` must be ≥ 1; shards left with zero documents
    /// still get a (trivial) index and answer queries with zero hits.
    pub fn build<S: AsRef<str>>(
        docs: &[S],
        shards: usize,
        router: ShardRouter,
        opts: FixOptions,
    ) -> Result<Self, FixError> {
        if shards == 0 {
            return Err(FixError::Corrupt {
                section: "shard manifest".into(),
                detail: "shard count must be at least 1".into(),
            });
        }
        let mut colls: Vec<Collection> = (0..shards).map(|_| Collection::new()).collect();
        let mut maps: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut locs = Vec::with_capacity(docs.len());
        for (global, xml) in docs.iter().enumerate() {
            let shard = router.route(global as u32, shards);
            let local = colls[shard].add_xml_limited(xml.as_ref(), opts.max_parse_depth)?;
            maps[shard].push(global as u32);
            locs.push((shard as u32, local.0));
        }
        let built: Vec<Shard> = colls
            .into_iter()
            .zip(maps)
            .map(|(mut coll, local_to_global)| {
                let index = FixIndex::build(&mut coll, opts.clone());
                Shard {
                    coll: Arc::new(coll),
                    index: Arc::new(index),
                    local_to_global,
                }
            })
            .collect();
        Ok(ShardedDatabase {
            shards: built,
            router,
            locs,
            opts,
            metrics: Arc::new(MetricsRegistry::new()),
        })
    }

    /// Re-shards an existing collection (e.g. a single-file database that
    /// should now be served sharded): re-serializes every document and
    /// routes it by its current id. Removed-but-unvacuumed documents are
    /// carried over verbatim; pass the unsharded index's removed set via
    /// `removed` so they stay invisible on the sharded side too.
    pub fn from_collection(
        coll: &Collection,
        removed: &[DocId],
        shards: usize,
        router: ShardRouter,
        opts: FixOptions,
    ) -> Result<Self, FixError> {
        let docs: Vec<String> = coll
            .iter()
            .map(|(_, d)| fix_xml::to_xml_string(d, &coll.labels))
            .collect();
        let mut db = Self::build(&docs, shards, router, opts)?;
        for &doc in removed {
            db.remove_document(doc)?;
        }
        Ok(db)
    }

    /// Opens `path` whichever kind of database it is: a sharded manifest
    /// (see [`ShardedDatabase::save`]) opens as-is, and an ordinary
    /// single-file database is resharded in memory across `shards` with
    /// `router` (carrying its build options and removed set over). This
    /// is what lets `fixd`/`fixdb serve` put any existing database behind
    /// the network with `--shards N`.
    pub fn open_any(path: &Path, shards: usize, router: ShardRouter) -> Result<Self, FixError> {
        if is_manifest(path) {
            return Self::open(path);
        }
        let db = crate::FixDatabase::open(path)?;
        let index = db.index().ok_or(FixError::NoIndex)?;
        let removed = index.removed_docs();
        let opts = index.options().clone();
        Self::from_collection(db.collection(), &removed, shards, router, opts)
    }

    /// Inserts a document post-build, routing it by the next global id.
    /// Returns the **global** document id. Fails with
    /// [`FixError::SnapshotInUse`] while sessions hold the target shard.
    pub fn add_xml(&mut self, xml: &str) -> Result<DocId, FixError> {
        let global = self.locs.len() as u32;
        let shard_no = self.router.route(global, self.shards.len());
        let shard = &mut self.shards[shard_no];
        // Take both Arcs up front so a half-applied insert can't happen.
        if Arc::get_mut(&mut shard.coll).is_none() || Arc::get_mut(&mut shard.index).is_none() {
            return Err(FixError::SnapshotInUse);
        }
        let coll = Arc::get_mut(&mut shard.coll).expect("checked above");
        let index = Arc::get_mut(&mut shard.index).expect("checked above");
        let local = index.insert_xml(coll, xml)?;
        shard.local_to_global.push(global);
        self.locs.push((shard_no as u32, local.0));
        Ok(DocId(global))
    }

    /// Removes a document by **global** id: the owning shard's index stops
    /// returning it immediately. The document keeps its id slot (exactly
    /// like the unsharded engine before a vacuum), and removing the last
    /// live document of a shard leaves a legal empty shard.
    pub fn remove_document(&mut self, doc: DocId) -> Result<(), FixError> {
        let (shard_no, local) = *self
            .locs
            .get(doc.0 as usize)
            .ok_or(FixError::NoSuchDocument { doc: doc.0 })?;
        let shard = &mut self.shards[shard_no as usize];
        let index = Arc::get_mut(&mut shard.index).ok_or(FixError::SnapshotInUse)?;
        index.remove_document(DocId(local));
        Ok(())
    }

    /// Folds every shard's delta run into its base tree. Purely an
    /// internal reorganization: answers are unchanged.
    pub fn compact(&mut self) -> Result<(), FixError> {
        for shard in &mut self.shards {
            if Arc::get_mut(&mut shard.index).is_none() {
                return Err(FixError::SnapshotInUse);
            }
        }
        for shard in &mut self.shards {
            let compacted = shard.index.compact();
            *Arc::get_mut(&mut shard.index).expect("checked above") = compacted;
        }
        Ok(())
    }

    /// Scatter-gather one query (convenience wrapper that builds a
    /// one-shot [`ShardedSession`]; hold a session for repeated queries so
    /// plan caches warm up).
    pub fn query(&self, query: &str) -> Result<QueryOutcome, FixError> {
        self.session().query(query)
    }

    /// Opens a scatter-gather snapshot across all shards. While it (or a
    /// clone) is alive, mutations fail with [`FixError::SnapshotInUse`].
    pub fn session(&self) -> ShardedSession {
        let shards = self
            .shards
            .iter()
            .map(|s| ShardLeg {
                session: QuerySession::new(s.coll.clone(), s.index.clone())
                    .with_registry(self.metrics.clone()),
                local_to_global: Arc::new(s.local_to_global.clone()),
            })
            .collect();
        ShardedSession {
            shards,
            registry: None,
            parallel_min_docs: DEFAULT_PARALLEL_MIN_DOCS,
        }
    }

    /// Number of shards in the layout.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total documents ever added (including removed-but-unvacuumed ones),
    /// i.e. the next global id.
    pub fn doc_count(&self) -> usize {
        self.locs.len()
    }

    /// Documents currently placed on each shard (including removed ones,
    /// which still occupy their local slots).
    pub fn shard_doc_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.local_to_global.len())
            .collect()
    }

    /// The routing policy this layout was built with.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The build options shared by every shard.
    pub fn options(&self) -> &FixOptions {
        &self.opts
    }

    /// The registry all shard sessions report into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Saves the layout as a text manifest at `base` plus one standard
    /// database file per shard at `<base>.shard-NNN.fixdb`. Shard files
    /// are ordinary single-shard databases — `fixdb verify` & co. work on
    /// them unchanged.
    pub fn save(&self, base: &Path) -> Result<(), FixError> {
        for (i, shard) in self.shards.iter().enumerate() {
            crate::persist::save_impl(&shard_path(base, i), &shard.coll, &shard.index)?;
        }
        // The manifest goes last and atomically: a crash mid-save leaves
        // the previous manifest (or none), never a torn one.
        let manifest = format!(
            "fix-sharded v1\nrouter {}\nshards {}\ndocs {}\n",
            self.router.tag(),
            self.shards.len(),
            self.locs.len()
        );
        crate::persist::atomic_replace(base, None, |_, out| out.write_all(manifest.as_bytes()))?;
        Ok(())
    }

    /// Opens a layout saved by [`ShardedDatabase::save`]: reads the
    /// manifest, loads each shard file, and reconstructs every
    /// local→global map by replaying the router over global ids `0..docs`
    /// (routing is a pure function of the id, so nothing else needs to be
    /// persisted). Fails with [`FixError::Corrupt`] if a shard's document
    /// count disagrees with the replay.
    pub fn open(base: &Path) -> Result<Self, FixError> {
        let manifest = std::fs::read_to_string(base)?;
        let mut router = None;
        let mut shards = None;
        let mut docs = None;
        let mut lines = manifest.lines();
        if lines.next() != Some("fix-sharded v1") {
            return Err(manifest_corrupt("missing `fix-sharded v1` header line"));
        }
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("router ") {
                router = Some(
                    ShardRouter::parse(rest)
                        .ok_or_else(|| manifest_corrupt(&format!("bad router `{rest}`")))?,
                );
            } else if let Some(rest) = line.strip_prefix("shards ") {
                shards = Some(
                    rest.parse::<usize>()
                        .map_err(|_| manifest_corrupt(&format!("bad shard count `{rest}`")))?,
                );
            } else if let Some(rest) = line.strip_prefix("docs ") {
                docs = Some(
                    rest.parse::<u32>()
                        .map_err(|_| manifest_corrupt(&format!("bad doc count `{rest}`")))?,
                );
            } else {
                return Err(manifest_corrupt(&format!("unrecognized line `{line}`")));
            }
        }
        let router = router.ok_or_else(|| manifest_corrupt("missing `router` line"))?;
        let nshards = shards.ok_or_else(|| manifest_corrupt("missing `shards` line"))?;
        let docs = docs.ok_or_else(|| manifest_corrupt("missing `docs` line"))?;
        if nshards == 0 {
            return Err(manifest_corrupt("shard count must be at least 1"));
        }

        // Nothing is sized from the manifest's numbers until the shard
        // files back them: load first (a shard count past the files on
        // disk fails at the first missing one), then require the document
        // total to match before the router replay allocates.
        let mut loaded = Vec::new();
        for i in 0..nshards {
            let path = shard_path(base, i);
            let (coll, index, _) = match crate::persist::load_any(&path, None) {
                Err(FixError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(manifest_corrupt(&format!(
                        "manifest lists {nshards} shards but {} is missing",
                        path.display()
                    )));
                }
                other => other?,
            };
            loaded.push(Shard {
                coll: Arc::new(coll),
                index: Arc::new(index),
                local_to_global: Vec::new(),
            });
        }
        let held: usize = loaded.iter().map(|s| s.coll.len()).sum();
        if held != docs as usize {
            return Err(manifest_corrupt(&format!(
                "manifest lists {docs} documents but the shard files hold {held}"
            )));
        }
        let mut locs = Vec::with_capacity(held);
        for global in 0..docs {
            let shard = router.route(global, nshards);
            let map = &mut loaded[shard].local_to_global;
            locs.push((shard as u32, map.len() as u32));
            map.push(global);
        }
        for (i, shard) in loaded.iter().enumerate() {
            if shard.coll.len() != shard.local_to_global.len() {
                return Err(manifest_corrupt(&format!(
                    "shard {i} holds {} documents but the router replay expects {}",
                    shard.coll.len(),
                    shard.local_to_global.len()
                )));
            }
        }
        let opts = loaded[0].index.options().clone();
        Ok(ShardedDatabase {
            shards: loaded,
            router,
            locs,
            opts,
            metrics: Arc::new(MetricsRegistry::new()),
        })
    }
}

/// True when `path` starts with the sharded-manifest header.
fn is_manifest(path: &Path) -> bool {
    let mut head = [0u8; 16];
    let n = std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read(&mut f, &mut head))
        .unwrap_or(0);
    head[..n].starts_with(b"fix-sharded v1")
}

fn manifest_corrupt(detail: &str) -> FixError {
    FixError::Corrupt {
        section: "shard manifest".into(),
        detail: detail.to_string(),
    }
}

/// `<base>.shard-NNN.fixdb` — the per-shard data file.
pub fn shard_path(base: &Path, shard: usize) -> PathBuf {
    let mut name = base
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    name.push(format!(".shard-{shard:03}.fixdb"));
    base.with_file_name(name)
}

/// One shard's leg of a scatter-gather session.
struct ShardLeg {
    session: QuerySession,
    local_to_global: Arc<Vec<u32>>,
}

/// Wall-clock spent in one shard during a scatter-gather query, for the
/// per-shard latency histograms.
#[derive(Debug, Clone, Copy)]
pub struct ShardTiming {
    /// Which shard.
    pub shard: usize,
    /// Time that shard's leg took (parallel legs overlap, so these do not
    /// sum to the query's wall-clock).
    pub elapsed: Duration,
    /// Hits this shard contributed.
    pub hits: usize,
}

/// Below this many total documents, shard legs run sequentially on the
/// caller's thread: per-query thread spawn costs tens of microseconds per
/// shard, which dwarfs the legs themselves on small collections (and under
/// a concurrent server the connection threads already provide the
/// parallelism). Above it, legs fan out to scoped threads so one huge
/// shard cannot serialize the others. Either path produces the identical
/// merged stream.
pub const DEFAULT_PARALLEL_MIN_DOCS: usize = 4096;

/// A consistent scatter-gather snapshot over every shard: queries fan out
/// to per-shard [`QuerySession`]s (in parallel once the collection is
/// large enough to amortize the spawns — see
/// [`DEFAULT_PARALLEL_MIN_DOCS`]), local hits are remapped to global
/// document ids, and the streams are k-way merged back into the exact
/// unsharded answer (see the module docs).
///
/// While any clone is alive, mutations on the owning [`ShardedDatabase`]
/// fail with [`FixError::SnapshotInUse`].
#[derive(Clone)]
pub struct ShardedSession {
    shards: Vec<ShardLeg>,
    registry: Option<Arc<MetricsRegistry>>,
    parallel_min_docs: usize,
}

impl Clone for ShardLeg {
    fn clone(&self) -> Self {
        ShardLeg {
            session: self.session.clone(),
            local_to_global: self.local_to_global.clone(),
        }
    }
}

impl ShardedSession {
    /// Reports per-shard query latency into `registry` as
    /// `fix_server_shard_query_ns_shard<k>` histograms.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Overrides the document-count threshold above which shard legs run
    /// on scoped threads instead of sequentially (`0` forces threads,
    /// `usize::MAX` forces sequential). The answer is identical either
    /// way; only latency changes.
    pub fn with_parallel_min_docs(mut self, docs: usize) -> Self {
        self.parallel_min_docs = docs;
        self
    }

    /// Number of shard legs in this session.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Scatter-gather one query; the returned hit stream is byte-identical
    /// to the unsharded engine's over the same documents.
    pub fn query(&self, query: &str) -> Result<QueryOutcome, FixError> {
        self.query_detailed(query).map(|(o, _)| o)
    }

    /// Like [`ShardedSession::query`] but also returns each shard's
    /// wall-clock and hit contribution.
    pub fn query_detailed(
        &self,
        query: &str,
    ) -> Result<(QueryOutcome, Vec<ShardTiming>), FixError> {
        let total_docs: usize = self
            .shards
            .iter()
            .map(|leg| leg.local_to_global.len())
            .sum();
        let fan_out = self.shards.len() > 1 && total_docs >= self.parallel_min_docs;
        let legs: Vec<Result<(QueryOutcome, Duration), FixError>> = if !fan_out {
            self.shards
                .iter()
                .map(|leg| timed_leg(leg, query))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|leg| scope.spawn(move || timed_leg(leg, query)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard query thread panicked"))
                    .collect()
            })
        };

        let mut streams = Vec::with_capacity(legs.len());
        let mut timings = Vec::with_capacity(legs.len());
        let mut metrics = Metrics::default();
        for (shard, leg) in legs.into_iter().enumerate() {
            let (outcome, elapsed) = leg?;
            metrics.entries += outcome.metrics.entries;
            metrics.candidates += outcome.metrics.candidates;
            metrics.delta_candidates += outcome.metrics.delta_candidates;
            metrics.producing += outcome.metrics.producing;
            timings.push(ShardTiming {
                shard,
                elapsed,
                hits: outcome.results.len(),
            });
            if let Some(reg) = &self.registry {
                reg.histogram(&format!("fix_server_shard_query_ns_shard{shard}"))
                    .record_duration(elapsed);
            }
            let map = &self.shards[shard].local_to_global;
            let remapped: Vec<(DocId, fix_xml::NodeId)> = outcome
                .results
                .into_iter()
                .map(|(local, node)| (DocId(map[local.0 as usize]), node))
                .collect();
            debug_assert!(remapped.windows(2).all(|w| w[0] < w[1]));
            streams.push(remapped);
        }
        let results = fix_exec::merge_k_sorted(streams, |&(d, n)| (d, n));
        Ok((QueryOutcome { results, metrics }, timings))
    }
}

fn timed_leg(leg: &ShardLeg, query: &str) -> Result<(QueryOutcome, Duration), FixError> {
    let start = Instant::now();
    let outcome = leg.session.query(query)?;
    Ok((outcome, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCS: &[&str] = &[
        "<a><b><c/></b></a>",
        "<a><c/></a>",
        "<a><b><c/><c/></b></a>",
        "<d><b><c/></b></d>",
        "<a><b/></a>",
    ];

    fn unsharded(docs: &[&str]) -> QuerySession {
        let mut coll = Collection::new();
        for d in docs {
            coll.add_xml(d).unwrap();
        }
        let idx = FixIndex::build(&mut coll, FixOptions::collection());
        QuerySession::new(Arc::new(coll), Arc::new(idx))
    }

    #[test]
    fn router_is_deterministic_and_in_range() {
        for shards in 1..=8usize {
            for id in 0..256u32 {
                let a = ShardRouter::Hash.route(id, shards);
                assert_eq!(a, ShardRouter::Hash.route(id, shards));
                assert!(a < shards);
                assert_eq!(ShardRouter::Pinned(2).route(id, shards), 2 % shards);
            }
        }
    }

    #[test]
    fn router_tags_round_trip() {
        for r in [
            ShardRouter::Hash,
            ShardRouter::Pinned(0),
            ShardRouter::Pinned(7),
        ] {
            assert_eq!(ShardRouter::parse(&r.tag()), Some(r));
        }
        assert_eq!(ShardRouter::parse("bogus"), None);
        assert_eq!(ShardRouter::parse("pinned x"), None);
    }

    #[test]
    fn sharded_matches_unsharded_on_smoke_docs() {
        let reference = unsharded(DOCS);
        for shards in [1, 2, 3, 8] {
            let db =
                ShardedDatabase::build(DOCS, shards, ShardRouter::Hash, FixOptions::collection())
                    .unwrap();
            // Both execution paths: sequential legs (the default at this
            // size) and forced thread fan-out must produce the same bytes.
            let threaded = db.session().with_parallel_min_docs(0);
            for q in ["//a/b", "//b/c", "//a", "//d//c", "//nothing"] {
                let want = reference.query(q).unwrap();
                let got = db.query(q).unwrap();
                assert_eq!(got.results, want.results, "q={q} shards={shards}");
                assert_eq!(got.metrics.producing, want.metrics.producing);
                let fanned = threaded.query(q).unwrap();
                assert_eq!(
                    fanned.results, want.results,
                    "threaded q={q} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn zero_shards_rejected() {
        let err = ShardedDatabase::build(DOCS, 0, ShardRouter::Hash, FixOptions::collection());
        assert!(matches!(err, Err(FixError::Corrupt { .. })));
    }

    #[test]
    fn mutation_blocked_while_session_alive() {
        let mut db =
            ShardedDatabase::build(DOCS, 3, ShardRouter::Hash, FixOptions::collection()).unwrap();
        let session = db.session();
        assert!(matches!(
            db.add_xml("<a><b/></a>"),
            Err(FixError::SnapshotInUse)
        ));
        assert!(matches!(db.compact(), Err(FixError::SnapshotInUse)));
        drop(session);
        db.add_xml("<a><b/></a>").unwrap();
        db.compact().unwrap();
    }

    #[test]
    fn save_open_round_trip() {
        let base = std::env::temp_dir().join(format!(
            "fix-shard-roundtrip-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut db =
            ShardedDatabase::build(DOCS, 3, ShardRouter::Hash, FixOptions::collection()).unwrap();
        db.add_xml("<a><b><c/></b></a>").unwrap();
        db.remove_document(DocId(1)).unwrap();
        db.save(&base).unwrap();
        let reopened = ShardedDatabase::open(&base).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.doc_count(), db.doc_count());
        for q in ["//a/b", "//b/c", "//a//c"] {
            assert_eq!(
                reopened.query(q).unwrap().results,
                db.query(q).unwrap().results,
                "q={q}"
            );
        }
        let _ = std::fs::remove_file(&base);
        for i in 0..3 {
            let _ = std::fs::remove_file(shard_path(&base, i));
        }
    }

    #[test]
    fn open_rejects_bad_manifests() {
        let dir = std::env::temp_dir();
        let base = dir.join(format!("fix-shard-badmanifest-{}", std::process::id()));
        // A real one-shard, two-document layout, so the count checks are
        // reached with the shard file in place.
        ShardedDatabase::build(&DOCS[..2], 1, ShardRouter::Hash, FixOptions::collection())
            .unwrap()
            .save(&base)
            .unwrap();
        assert_eq!(ShardedDatabase::open(&base).unwrap().doc_count(), 2);
        for bad in [
            "",
            "fix-sharded v2\nrouter hash\nshards 1\ndocs 2\n",
            "fix-sharded v1\nrouter bogus\nshards 1\ndocs 2\n",
            "fix-sharded v1\nrouter hash\nshards 0\ndocs 2\n",
            "fix-sharded v1\nrouter hash\nshards 1\n",
            "fix-sharded v1\nrouter hash\nshards 1\ndocs 2\nwat\n",
            // Counts nothing on disk backs must not size an allocation.
            "fix-sharded v1\nrouter hash\nshards 1000000000000000000\ndocs 2\n",
            "fix-sharded v1\nrouter hash\nshards 1\ndocs 4000000000\n",
        ] {
            std::fs::write(&base, bad).unwrap();
            assert!(
                matches!(
                    ShardedDatabase::open(&base),
                    Err(FixError::Corrupt { ref section, .. }) if section == "shard manifest"
                ),
                "manifest should be rejected: {bad:?}"
            );
        }
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(shard_path(&base, 0));
    }
}
