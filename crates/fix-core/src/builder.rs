//! Index construction — Algorithm 1 (`CONSTRUCT-INDEX`,
//! `CONSTRUCT-ENTRIES`, `GEN-SUBPATTERN`, `BTREE-INSERT`).
//!
//! Collection mode (`depth_limit == 0`): one entry per document, keyed by
//! the features of the document's full bisimulation pattern.
//!
//! Large-document mode (`depth_limit == k > 0`): one entry per *element*
//! (Theorem 4), keyed by the features of the depth-`k` subpattern rooted
//! at that element's bisimulation vertex. Features are memoized per vertex,
//! so eigenvalues are computed once per distinct pattern, not once per
//! element. (Deviation from the paper's Algorithm 1: we do not switch
//! shallow documents to whole-document entries inside large-document mode —
//! mixing entry granularities would let a root-label probe miss
//! whole-document entries; enumerating per element keeps Theorem 5 intact
//! at the cost of a few extra entries.)

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use fix_bisim::{BisimBuilder, BisimGraph, SubpatternForest, VertexId};
use fix_btree::BTree;
use fix_spectral::{EdgeEncoder, Features};
use fix_storage::{BufferPool, HeapFile, IoStats, PageSpace, RecordId};
use fix_xml::{Document, LabelId, LabelTable, NodeId, NodeKind, TreeEventSource};

use crate::collection::{Collection, DocId};
use crate::delta::{DeltaIndex, DeltaStats};
use crate::error::FixError;
use crate::key::{EntryPtr, IndexKey, KEY_LEN};
use crate::options::FixOptions;
use crate::values::ValueHasher;

/// Construction statistics (the Table 1 columns on the index side).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Number of B-tree entries.
    pub entries: u64,
    /// Distinct patterns whose eigenvalues were actually computed.
    pub distinct_patterns: u64,
    /// Entries stored with the `[0, ∞]` oversized-pattern fallback.
    pub fallbacks: u64,
    /// Wall-clock construction time (the paper's ICT column).
    pub build_time: Duration,
    /// Vertices in the shared bisimulation graph.
    pub bisim_vertices: usize,
    /// Edges in the shared bisimulation graph.
    pub bisim_edges: usize,
    /// B-tree size in bytes (unclustered index size).
    pub btree_bytes: u64,
    /// Clustered copy size in bytes (0 for unclustered indexes).
    pub clustered_bytes: u64,
    /// Worker threads the construction pipeline ran with.
    pub threads: usize,
    /// Phase 1: streaming documents into the bisimulation graph.
    pub stream_time: Duration,
    /// Phase 2: sequential subpattern enumeration and edge discovery.
    pub discover_time: Duration,
    /// Phase 3: eigenvalue extraction (parallel across distinct patterns).
    pub extract_time: Duration,
    /// Phase 4: key sort plus bottom-up B-tree bulk load.
    pub load_time: Duration,
}

impl BuildStats {
    /// Total index size: B-tree plus (for clustered indexes) the copies.
    pub fn index_bytes(&self) -> u64 {
        self.btree_bytes + self.clustered_bytes
    }
}

impl fix_obs::Reportable for BuildStats {
    /// Sets the construction gauges (idempotent — build stats are levels;
    /// rebuilding reports the new values over the old).
    fn report(&self, registry: &fix_obs::MetricsRegistry) {
        let ns = |d: Duration| i64::try_from(d.as_nanos()).unwrap_or(i64::MAX);
        registry.gauge("fix_build_entries").set(self.entries as i64);
        registry
            .gauge("fix_build_distinct_patterns")
            .set(self.distinct_patterns as i64);
        registry
            .gauge("fix_build_fallbacks")
            .set(self.fallbacks as i64);
        registry.gauge("fix_build_threads").set(self.threads as i64);
        registry
            .gauge("fix_build_bisim_vertices")
            .set(self.bisim_vertices as i64);
        registry
            .gauge("fix_build_bisim_edges")
            .set(self.bisim_edges as i64);
        registry
            .gauge("fix_build_btree_bytes")
            .set(self.btree_bytes as i64);
        registry
            .gauge("fix_build_clustered_bytes")
            .set(self.clustered_bytes as i64);
        registry.gauge("fix_build_wall_ns").set(ns(self.build_time));
        registry
            .gauge("fix_build_stream_ns")
            .set(ns(self.stream_time));
        registry
            .gauge("fix_build_discover_ns")
            .set(ns(self.discover_time));
        registry
            .gauge("fix_build_extract_ns")
            .set(ns(self.extract_time));
        registry.gauge("fix_build_load_ns").set(ns(self.load_time));
    }
}

/// The mutable construction state that incremental insertion keeps alive:
/// the shared bisimulation graph, the truncation forest, and the feature
/// memo. A freshly built index carries its construction state over, and
/// compaction clones it into the compacted index. An index loaded from
/// disk has no state; its first insert *warms* one by replaying the
/// graph/forest construction over the existing collection
/// (`FixIndex::insert_xml`) — the eigensolver's certified bounds depend
/// on the forest's vertex enumeration order, so the forest must be
/// rebuilt in exactly the order a batch build would use for incremental
/// keys to stay byte-identical to a rebuild's.
#[derive(Clone)]
pub(crate) struct IncrementalState {
    graph: BisimGraph,
    forest: SubpatternForest,
    feat_memo: HashMap<VertexId, (Features, bool)>,
    value_labels: HashSet<LabelId>,
    /// Patterns reconstructed by a warm-up replay: they are already
    /// accounted for in the base stats (`base_distinct`, `fallbacks`), so
    /// re-extracting one must not bump those counters again.
    warm_patterns: HashSet<VertexId>,
    seq: u32,
    fallbacks: u64,
    /// Stats baselines for resumed states: distinct patterns / bisim graph
    /// sizes already accounted for by the base index, so reported levels
    /// never shrink when the memo restarts empty.
    base_distinct: u64,
    base_vertices: usize,
    base_edges: usize,
}

impl IncrementalState {
    fn new() -> Self {
        Self {
            graph: BisimGraph::new(),
            forest: SubpatternForest::new(),
            feat_memo: HashMap::new(),
            value_labels: HashSet::new(),
            warm_patterns: HashSet::new(),
            seq: 0,
            fallbacks: 0,
            base_distinct: 0,
            base_vertices: 0,
            base_edges: 0,
        }
    }

    /// A state resuming insertion on an index whose construction state is
    /// gone (loaded from disk, or rebuilt by compaction). `next_seq` must
    /// be past every sequence number in use; entry numbering is dense, so
    /// the entry count is exactly that.
    fn resume(next_seq: u64, stats: &BuildStats) -> Self {
        Self {
            seq: u32::try_from(next_seq).expect("entry space exhausted"),
            fallbacks: stats.fallbacks,
            base_distinct: stats.distinct_patterns,
            base_vertices: stats.bisim_vertices,
            base_edges: stats.bisim_edges,
            ..Self::new()
        }
    }
}

/// The FIX index over a [`Collection`].
pub struct FixIndex {
    pub(crate) opts: FixOptions,
    pub(crate) btree: BTree,
    pub(crate) encoder: EdgeEncoder,
    pub(crate) hasher: Option<ValueHasher>,
    /// Clustered copies (subtree serializations in key order).
    pub(crate) clustered: Option<HeapFile>,
    pub(crate) pool: PageSpace,
    pub(crate) stats: BuildStats,
    pub(crate) incremental: Option<IncrementalState>,
    /// Entries accepted since the last build or compaction; scans merge
    /// this run with the base tree (see `FixIndex::scan_plan`).
    pub(crate) delta: DeltaIndex,
    /// Tombstoned documents: their entries stay in the B-tree but are
    /// filtered out of candidate sets until [`FixIndex::vacuum`].
    pub(crate) removed: std::collections::HashSet<DocId>,
    /// Compactions folded into this index's lineage, and their cumulative
    /// wall time (telemetry only; not persisted).
    pub(crate) compactions: u64,
    pub(crate) compact_ns: u64,
}

/// Builds an index with its pages in a `FileBackend` at `path` (backing
/// implementation of `FixDatabase::build_on_disk`).
pub(crate) fn build_on_disk_impl(
    coll: &mut Collection,
    opts: FixOptions,
    path: &std::path::Path,
) -> std::io::Result<FixIndex> {
    let backend = fix_storage::FileBackend::create(path)?;
    let pool = BufferPool::shared(opts.pool_pages).attach(Box::new(backend));
    Ok(FixIndex::build_on(coll, opts, pool))
}

/// One streamed document: its root unit plus (in large-document mode) the
/// per-element units, with vertex ids in the *shared* bisimulation graph.
struct StreamedDoc {
    root: VertexId,
    root_ptr: u64,
    closed: Vec<(VertexId, u64)>,
}

/// Streams one document into `graph` (no value hashing).
fn stream_document(graph: &mut BisimGraph, doc: &Document, record_all: bool) -> StreamedDoc {
    let builder = BisimBuilder::new(graph);
    let builder = if record_all {
        builder.record_all_elements()
    } else {
        builder
    };
    let info = builder.run(&mut TreeEventSource::whole(doc));
    StreamedDoc {
        root: info.root,
        root_ptr: info.root_ptr,
        closed: info.closed,
    }
}

/// Streams one document into the shared bisimulation graph and truncates
/// each of its indexable units to its depth-limited pattern in the
/// forest, returning `(pattern root, storage ptr)` per unit in document
/// order. Shared between live insertion ([`index_document`]) and the
/// cold-resume warm-up replay (`FixIndex::insert_xml`): the forest's
/// vertex numbering — and with it the eigensolver's matrix enumeration
/// order — depends on the order patterns are first truncated, so both
/// paths must replay the batch build's exact sequence.
fn stream_units(
    doc: &Document,
    labels: &mut LabelTable,
    opts: &FixOptions,
    state: &mut IncrementalState,
    hasher: &Option<ValueHasher>,
) -> Vec<(VertexId, u64)> {
    let depth_limit = opts.depth_limit;
    let builder = BisimBuilder::new(&mut state.graph);
    let builder = if depth_limit > 0 {
        builder.record_all_elements()
    } else {
        builder
    };
    let info = match hasher {
        Some(h) => {
            let vl: &mut HashSet<LabelId> = &mut state.value_labels;
            let mut src = TreeEventSource::whole(doc).with_value_labels(|t| {
                let l = h.label_interning(t, labels);
                vl.insert(l);
                l
            });
            builder.run(&mut src)
        }
        None => builder.run(&mut TreeEventSource::whole(doc)),
    };
    let unit_entries: Vec<(VertexId, u64)> = if depth_limit == 0 {
        vec![(info.root, info.root_ptr)]
    } else {
        info.closed
            .iter()
            .copied()
            .filter(|&(v, _)| !state.value_labels.contains(&state.graph.label(v)))
            .collect()
    };
    let limit = if depth_limit == 0 {
        usize::MAX
    } else {
        depth_limit
    };
    unit_entries
        .into_iter()
        .map(|(vertex, ptr)| {
            let pat_root = if opts.literal_gen_subpattern {
                // Paper-literal path: unfold + re-minimize, then merge the
                // standalone pattern into the forest graph so the feature
                // memo still dedups identical patterns.
                let (pat, pinfo) = fix_bisim::subpattern(&state.graph, vertex, limit);
                state.forest.adopt(&pat, pinfo.root)
            } else {
                state.forest.truncate(&state.graph, vertex, limit)
            };
            (pat_root, ptr)
        })
        .collect()
}

/// Incrementally indexes one document into an already-built index:
/// streams it into the shared bisimulation graph and appends one
/// `(key, ptr)` entry per indexable unit to the delta run (clustered
/// indexes store the subtree copy alongside, in the base heap's record
/// format). Bulk construction goes through the phased pipeline in
/// `FixIndex::build_on` instead; both assign identical keys.
#[allow(clippy::too_many_arguments)]
fn index_document(
    doc_id: DocId,
    doc: &Document,
    labels: &mut LabelTable,
    opts: &FixOptions,
    state: &mut IncrementalState,
    encoder: &mut EdgeEncoder,
    hasher: &Option<ValueHasher>,
    delta: &mut DeltaIndex,
) {
    let depth_limit = opts.depth_limit;
    let limit = if depth_limit == 0 {
        usize::MAX
    } else {
        depth_limit
    };
    for (pat_root, ptr) in stream_units(doc, labels, opts, state, hasher) {
        // `fallbacks` counts *distinct* oversized patterns (the quantity
        // the paper reports), so bump it only on a fresh memo insertion —
        // and not for warm-replayed patterns the base stats already count.
        if !state.feat_memo.contains_key(&pat_root) {
            let extracted =
                opts.extractor
                    .extract_interning(state.forest.graph(), pat_root, encoder);
            if extracted.1 && !state.warm_patterns.contains(&pat_root) {
                state.fallbacks += 1;
            }
            state.feat_memo.insert(pat_root, extracted);
        }
        let (features, _) = state.feat_memo[&pat_root];
        let key = IndexKey::new(&features, state.seq).encode();
        state.seq = state.seq.checked_add(1).expect("entry space exhausted");
        let entry = EntryPtr {
            doc: doc_id,
            node: ptr as u32,
        };
        if delta.is_clustered() {
            let xml = serialize_truncated(doc, labels, NodeId(entry.node), limit);
            let mut record = Vec::with_capacity(8 + xml.len());
            record.extend_from_slice(&entry.to_u64().to_le_bytes());
            record.extend_from_slice(xml.as_bytes());
            delta.push_record(&key, record);
        } else {
            delta.push(&key, entry.to_u64());
        }
    }
}

impl FixIndex {
    /// Builds the index per Algorithm 1. The collection's label table is
    /// extended with value labels when the value extension is enabled.
    pub fn build(coll: &mut Collection, opts: FixOptions) -> FixIndex {
        let pool = PageSpace::in_memory(opts.pool_pages);
        Self::build_on(coll, opts, pool)
    }

    /// The four-phase construction pipeline. Phases 1 and 3 fan out across
    /// `opts.threads` scoped workers; phases 2 and 4 are sequential, which
    /// is what pins down the label/edge encodings and entry sequence
    /// numbers — the built index is bit-identical at every thread count.
    pub(crate) fn build_on(coll: &mut Collection, opts: FixOptions, pool: PageSpace) -> FixIndex {
        let start = Instant::now();
        let threads = opts.effective_threads();
        let mut encoder = EdgeEncoder::new();
        let hasher = opts.value_beta.map(ValueHasher::new);
        let mut state = IncrementalState::new();
        let depth_limit = opts.depth_limit;
        let record_all = depth_limit > 0;

        // Phase 1 — stream documents into the shared bisimulation graph.
        // Workers stream disjoint document ranges into thread-local graphs;
        // absorbing those graphs in document order replays the sequential
        // intern order exactly (see `BisimGraph::absorb`), so the shared
        // vertex numbering matches the single-threaded build. Value mode
        // interns labels *while* streaming and therefore stays sequential.
        let (labels, docs) = coll.split_mut();
        let mut streamed: Vec<StreamedDoc> = Vec::with_capacity(docs.len());
        if threads > 1 && hasher.is_none() && docs.len() > 1 {
            let chunk = docs.len().div_ceil(threads);
            let locals: Vec<(BisimGraph, Vec<StreamedDoc>)> = std::thread::scope(|s| {
                let handles: Vec<_> = docs
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            let mut g = BisimGraph::new();
                            let infos = part
                                .iter()
                                .map(|d| stream_document(&mut g, d, record_all))
                                .collect::<Vec<_>>();
                            (g, infos)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("streaming worker panicked"))
                    .collect()
            });
            for (local, infos) in &locals {
                let map = state.graph.absorb(local);
                for info in infos {
                    streamed.push(StreamedDoc {
                        root: map[info.root.index()],
                        root_ptr: info.root_ptr,
                        closed: info
                            .closed
                            .iter()
                            .map(|&(v, p)| (map[v.index()], p))
                            .collect(),
                    });
                }
            }
        } else {
            for doc in docs.iter() {
                match &hasher {
                    Some(h) => {
                        let vl: &mut HashSet<LabelId> = &mut state.value_labels;
                        let mut src = TreeEventSource::whole(doc).with_value_labels(|t| {
                            let l = h.label_interning(t, labels);
                            vl.insert(l);
                            l
                        });
                        let builder = BisimBuilder::new(&mut state.graph);
                        let builder = if record_all {
                            builder.record_all_elements()
                        } else {
                            builder
                        };
                        let info = builder.run(&mut src);
                        streamed.push(StreamedDoc {
                            root: info.root,
                            root_ptr: info.root_ptr,
                            closed: info.closed,
                        });
                    }
                    None => streamed.push(stream_document(&mut state.graph, doc, record_all)),
                }
            }
        }
        let stream_time = start.elapsed();

        // Phase 2 (sequential) — enumerate indexable units, truncate each
        // to its depth-k pattern, and intern every pattern edge into the
        // encoder in first-seen order. After this sweep the encoder is
        // frozen: extraction only reads it.
        let t_discover = Instant::now();
        let limit = if depth_limit == 0 {
            usize::MAX
        } else {
            depth_limit
        };
        let mut units: Vec<(DocId, VertexId, u64)> = Vec::new();
        let mut new_patterns: Vec<VertexId> = Vec::new();
        let mut discovered: HashSet<VertexId> = HashSet::new();
        for (i, info) in streamed.iter().enumerate() {
            let doc_units: Vec<(VertexId, u64)> = if depth_limit == 0 {
                vec![(info.root, info.root_ptr)]
            } else {
                info.closed
                    .iter()
                    .copied()
                    .filter(|&(v, _)| !state.value_labels.contains(&state.graph.label(v)))
                    .collect()
            };
            for (vertex, ptr) in doc_units {
                let pat_root = if opts.literal_gen_subpattern {
                    let (pat, pinfo) = fix_bisim::subpattern(&state.graph, vertex, limit);
                    state.forest.adopt(&pat, pinfo.root)
                } else {
                    state.forest.truncate(&state.graph, vertex, limit)
                };
                if discovered.insert(pat_root) {
                    opts.extractor
                        .discover_edges(state.forest.graph(), pat_root, &mut encoder);
                    new_patterns.push(pat_root);
                }
                units.push((DocId(i as u32), pat_root, ptr));
            }
        }
        let discover_time = t_discover.elapsed();

        // Phase 3 — eigendecomposition once per distinct pattern, fanned
        // out across workers against the frozen encoder (workers share
        // only `&` state; results land in a map, so arrival order is
        // irrelevant).
        let t_extract = Instant::now();
        {
            let graph = state.forest.graph();
            let enc = &encoder;
            let extractor = &opts.extractor;
            let extracted: Vec<Vec<(VertexId, (Features, bool))>> =
                if threads > 1 && new_patterns.len() > 1 {
                    let chunk = new_patterns.len().div_ceil(threads);
                    std::thread::scope(|s| {
                        let handles: Vec<_> = new_patterns
                            .chunks(chunk)
                            .map(|part| {
                                s.spawn(move || {
                                    part.iter()
                                        .map(|&p| (p, extractor.extract_frozen(graph, p, enc)))
                                        .collect::<Vec<_>>()
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("extraction worker panicked"))
                            .collect()
                    })
                } else {
                    vec![new_patterns
                        .iter()
                        .map(|&p| (p, extractor.extract_frozen(graph, p, enc)))
                        .collect()]
                };
            for (p, res) in extracted.into_iter().flatten() {
                if res.1 {
                    state.fallbacks += 1;
                }
                state.feat_memo.insert(p, res);
            }
        }
        let extract_time = t_extract.elapsed();

        // Phase 4 (sequential) — assign sequence numbers in document
        // order, sort the (unique) keys once, and bulk-load the B-tree
        // bottom-up. Clustered mode additionally copies each entry's
        // truncated subtree into the heap in key order first, so
        // refinement I/O stays sequential.
        let t_load = Instant::now();
        let mut entries: Vec<([u8; KEY_LEN], EntryPtr)> = Vec::with_capacity(units.len());
        for (doc, pat_root, ptr) in units {
            let (features, _) = state.feat_memo[&pat_root];
            let key = IndexKey::new(&features, state.seq).encode();
            state.seq = state.seq.checked_add(1).expect("entry space exhausted");
            entries.push((
                key,
                EntryPtr {
                    doc,
                    node: ptr as u32,
                },
            ));
        }
        entries.sort_unstable_by_key(|e| e.0);
        let (btree, clustered) = if opts.clustered {
            let mut heap = HeapFile::new(pool.clone());
            let mut loaded = Vec::with_capacity(entries.len());
            for (key, ptr) in &entries {
                let doc = coll.doc(ptr.doc);
                let xml = serialize_truncated(doc, &coll.labels, NodeId(ptr.node), limit);
                let mut record = Vec::with_capacity(8 + xml.len());
                record.extend_from_slice(&ptr.to_u64().to_le_bytes());
                record.extend_from_slice(xml.as_bytes());
                loaded.push((key.to_vec(), heap.append(&record).to_u64()));
            }
            (BTree::bulk_load(pool.clone(), KEY_LEN, loaded), Some(heap))
        } else {
            (
                BTree::bulk_load(
                    pool.clone(),
                    KEY_LEN,
                    entries.iter().map(|(k, p)| (k.to_vec(), p.to_u64())),
                ),
                None,
            )
        };
        let load_time = t_load.elapsed();

        let stats = BuildStats {
            entries: btree.len(),
            distinct_patterns: state.feat_memo.len() as u64,
            fallbacks: state.fallbacks,
            build_time: start.elapsed(),
            bisim_vertices: state.graph.len(),
            bisim_edges: state.graph.edge_count(),
            btree_bytes: btree.stats().size_bytes,
            clustered_bytes: clustered.as_ref().map(HeapFile::size_bytes).unwrap_or(0),
            threads,
            stream_time,
            discover_time,
            extract_time,
            load_time,
        };
        let delta = DeltaIndex::new(opts.clustered, opts.tier_fanout);
        FixIndex {
            opts,
            btree,
            encoder,
            hasher,
            clustered,
            pool,
            stats,
            incremental: Some(state),
            delta,
            removed: std::collections::HashSet::new(),
            compactions: 0,
            compact_ns: 0,
        }
    }

    /// Tombstones a document: its entries stop appearing in candidate sets
    /// immediately; the B-tree space is reclaimed by [`FixIndex::vacuum`].
    pub fn remove_document(&mut self, doc: DocId) {
        self.removed.insert(doc);
    }

    /// True if `doc` has been tombstoned.
    pub fn is_removed(&self, doc: DocId) -> bool {
        self.removed.contains(&doc)
    }

    /// Number of tombstoned documents.
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }

    /// Rebuilds the database without tombstoned documents. Document ids
    /// are re-assigned densely; returns the fresh `(collection, index)`
    /// pair.
    pub fn vacuum(&self, coll: &Collection) -> (Collection, FixIndex) {
        let mut fresh = Collection::new();
        for (id, d) in coll.iter() {
            if !self.removed.contains(&id) {
                let xml = fix_xml::to_xml_string(d, &coll.labels);
                fresh.add_xml(&xml).expect("re-serialized document parses");
            }
        }
        let idx = FixIndex::build(&mut fresh, self.opts.clone());
        (fresh, idx)
    }

    /// Incrementally indexes a new document: feature-extracts just this
    /// document and appends its entries to the side delta run, which scans
    /// merge with the base tree — answers are identical to a full rebuild
    /// at all times. Returns the new document's id.
    ///
    /// This is the update story the clustering indexes lack (the paper's
    /// Section 1 criticism of F&B: "updating … could be expensive"): an
    /// insert streams only the new document, reusing the shared
    /// bisimulation graph and feature memo when this index was built or
    /// compacted in this process. An index loaded from disk has no such
    /// state, so the first insert warms one by replaying the graph and
    /// forest construction over the existing collection (no eigenwork) —
    /// the eigensolver's certified bounds are sensitive to the forest's
    /// vertex enumeration order, so a cold forest built from just the new
    /// document would assign *different key bytes* than a rebuild.
    /// Either way, incremental keys are byte-identical to a full
    /// rebuild's.
    pub fn insert_xml(
        &mut self,
        coll: &mut Collection,
        xml: &str,
    ) -> Result<DocId, fix_xml::ParseError> {
        let doc_id = coll.add_xml_limited(xml, self.opts.max_parse_depth)?;
        let (labels, docs) = coll.split_mut();
        if self.incremental.is_none() {
            let next_seq = self.btree.len() + self.delta.len();
            let mut state = IncrementalState::resume(next_seq, &self.stats);
            for doc in &docs[..doc_id.0 as usize] {
                for (pat_root, _) in stream_units(doc, labels, &self.opts, &mut state, &self.hasher)
                {
                    state.warm_patterns.insert(pat_root);
                }
            }
            // The warmed graph holds the whole collection's structure, so
            // the resumed baselines would double-count it.
            state.base_vertices = 0;
            state.base_edges = 0;
            state.base_distinct = state.warm_patterns.len() as u64;
            self.incremental = Some(state);
        }
        let state = self.incremental.as_mut().expect("resumed above");
        index_document(
            doc_id,
            &docs[doc_id.0 as usize],
            labels,
            &self.opts,
            state,
            &mut self.encoder,
            &self.hasher,
            &mut self.delta,
        );
        self.stats.entries = self.btree.len() + self.delta.len();
        self.stats.distinct_patterns = state.base_distinct
            + state
                .feat_memo
                .keys()
                .filter(|p| !state.warm_patterns.contains(p))
                .count() as u64;
        self.stats.fallbacks = state.fallbacks;
        self.stats.bisim_vertices = state.base_vertices + state.graph.len();
        self.stats.bisim_edges = state.base_edges + state.graph.edge_count();
        self.stats.btree_bytes = self.btree.stats().size_bytes;
        Ok(doc_id)
    }

    /// Folds the delta run into the base B+-tree, returning a fresh index
    /// whose key sequence and (for clustered indexes) copy-heap record
    /// order are byte-identical to a full rebuild over the same logical
    /// collection — insertion replays the batch build's graph/forest
    /// construction order (so each entry's feature bytes match the
    /// rebuild's), and both paths assign dense sequence numbers in
    /// document order, so a two-way merge of the two sorted sources equals
    /// the rebuild's single sorted load. Tombstones carry over; the result
    /// has an empty delta. `&self`-only, so live snapshot readers are
    /// never blocked — callers swap the result in under the same
    /// discipline as [`FixIndex::vacuum`].
    pub fn compact(&self) -> FixIndex {
        let start = Instant::now();
        let pool = PageSpace::in_memory(self.opts.pool_pages);
        let merged = fix_exec::merge_sorted(
            self.btree.iter().map(|(k, v)| (k, v, false)).collect(),
            self.delta
                .iter()
                .map(|(k, v)| (k.to_vec(), v, true))
                .collect(),
            |(k, _, _): &(Vec<u8>, u64, bool)| k.clone(),
        );
        let (btree, clustered) = if let Some(heap_src) = &self.clustered {
            // Move copy records verbatim: documents are immutable, so the
            // stored serializations are exactly what a rebuild would write,
            // and appending in merged key order replays its heap layout.
            let mut heap = HeapFile::new(pool.clone());
            let mut loaded = Vec::with_capacity(merged.len());
            for (key, value, from_delta) in merged {
                let record: Vec<u8> = if from_delta {
                    self.delta.record(value).to_vec()
                } else {
                    heap_src.get(RecordId::from_u64(value))
                };
                loaded.push((key, heap.append(&record).to_u64()));
            }
            (BTree::bulk_load(pool.clone(), KEY_LEN, loaded), Some(heap))
        } else {
            (
                BTree::bulk_load(
                    pool.clone(),
                    KEY_LEN,
                    merged.into_iter().map(|(k, v, _)| (k, v)),
                ),
                None,
            )
        };
        let mut stats = self.stats;
        stats.entries = btree.len();
        stats.btree_bytes = btree.stats().size_bytes;
        stats.clustered_bytes = clustered.as_ref().map(HeapFile::size_bytes).unwrap_or(0);
        let delta = DeltaIndex::new(self.opts.clustered, self.opts.tier_fanout);
        delta.carry_scan_history(&self.delta.stats());
        FixIndex {
            opts: self.opts.clone(),
            btree,
            encoder: self.encoder.clone(),
            hasher: self.hasher,
            clustered,
            pool,
            stats,
            // Carry the construction state: later inserts keep extending
            // the same graph/forest, so their forest vertex numbering —
            // and hence their key bytes — match a batch rebuild's. (A
            // compacted index that was itself loaded from disk stays
            // stateless; the first insert warms a state, see
            // `FixIndex::insert_xml`.)
            incremental: self.incremental.clone(),
            delta,
            removed: self.removed.clone(),
            compactions: self.compactions + 1,
            compact_ns: self.compact_ns
                + u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Documents removed since build but not yet vacuumed away, in
    /// ascending id order (the set queries are filtering out). Lets a
    /// re-sharding pass carry removals over without a vacuum.
    pub fn removed_docs(&self) -> Vec<DocId> {
        let mut v: Vec<DocId> = self.removed.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Entries currently in the delta run.
    pub fn delta_len(&self) -> u64 {
        self.delta.len()
    }

    /// Resident bytes of the delta run (plus clustered copies).
    pub fn delta_bytes(&self) -> u64 {
        self.delta.size_bytes()
    }

    /// Cumulative delta counters (size levels and scan work).
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta.stats()
    }

    /// Freezes the active delta run into the frozen tier stack — called
    /// when the WAL segment mirroring the active run seals, so the run
    /// boundary on disk and in memory coincide. Returns `false` when the
    /// active run was empty.
    pub fn seal_delta(&mut self) -> bool {
        self.delta.seal()
    }

    /// [`FixIndex::seal_delta`] with flight-recorder detail: the frozen
    /// run's entry count and each cascade merge the freeze triggered.
    /// `None` when the active run was empty (nothing froze).
    pub(crate) fn seal_delta_detailed(&mut self) -> Option<crate::delta::SealDetail> {
        self.delta.seal_detailed()
    }

    /// Per-level shapes of the frozen delta tier stack (level 0 first).
    pub fn delta_level_stats(&self) -> Vec<fix_btree::LevelStats> {
        self.delta.level_stats()
    }

    /// Compactions folded into this index's lineage and their cumulative
    /// wall time in nanoseconds.
    pub fn compaction_stats(&self) -> (u64, u64) {
        (self.compactions, self.compact_ns)
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Shape statistics of the underlying B-tree.
    pub fn btree_stats(&self) -> fix_btree::BTreeStats {
        self.btree.stats()
    }

    /// Cumulative B-tree scan-work counters (range scans started, entries
    /// yielded) since the index was built or loaded.
    pub fn scan_stats(&self) -> fix_btree::ScanStats {
        self.btree.scan_stats()
    }

    /// The index configuration.
    pub fn options(&self) -> &FixOptions {
        &self.opts
    }

    /// Number of index entries (`ent` in the Section 6.2 metrics): base
    /// tree plus delta run.
    pub fn entry_count(&self) -> u64 {
        self.btree.len() + self.delta.len()
    }

    /// Iterates all index entries — base tree and delta run merged — as
    /// `(decoded key, value)` in global key order (statistics and
    /// diagnostics; persistence writes the two sources separately).
    pub fn entries(&self) -> impl Iterator<Item = (crate::key::IndexKey, u64)> + '_ {
        fix_exec::merge_sorted(
            self.btree.iter().collect(),
            self.delta.iter().map(|(k, v)| (k.to_vec(), v)).collect(),
            |(k, _): &(Vec<u8>, u64)| k.clone(),
        )
        .into_iter()
        .map(|(k, v)| (crate::key::IndexKey::decode(&k), v))
    }

    /// Clustered copy records — base heap and delta copies merged — in
    /// global key order, or `None` for unclustered indexes. Diagnostic:
    /// two clustered indexes over the same logical collection are
    /// byte-identical iff their `entries()` and `clustered_records()`
    /// streams agree.
    pub fn clustered_records(&self) -> Option<Vec<(crate::key::IndexKey, Vec<u8>)>> {
        self.clustered.as_ref()?;
        Some(
            self.entries_with_origin()
                .map(|(k, v, from_delta)| {
                    let record = if from_delta {
                        self.delta.record(v).to_vec()
                    } else {
                        self.clustered
                            .as_ref()
                            .expect("checked above")
                            .get(RecordId::from_u64(v))
                    };
                    (k, record)
                })
                .collect(),
        )
    }

    /// Merged entries tagged with their source (`true` = delta).
    fn entries_with_origin(&self) -> impl Iterator<Item = (crate::key::IndexKey, u64, bool)> + '_ {
        fix_exec::merge_sorted(
            self.btree.iter().map(|(k, v)| (k, v, false)).collect(),
            self.delta
                .iter()
                .map(|(k, v)| (k.to_vec(), v, true))
                .collect(),
            |(k, _, _): &(Vec<u8>, u64, bool)| k.clone(),
        )
        .into_iter()
        .map(|(k, v, d)| (crate::key::IndexKey::decode(&k), v, d))
    }

    /// Snapshot of the index storage's I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Buffer-pool statistics (shared across every space attached to the
    /// pool this index's pages live in).
    pub fn pool_stats(&self) -> fix_storage::PoolStats {
        self.pool.pool_stats()
    }

    /// Resets the index storage's I/O counters (between experiment runs).
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Resolves a clustered B-tree value to the entry pointer heading its
    /// copy record, read under the heap page's guard without copying the
    /// record out. Heap-page I/O errors and CRC mismatches surface as
    /// [`FixError`] (section `"clustered"`).
    pub(crate) fn try_clustered_ptr(&self, value: u64) -> Result<EntryPtr, FixError> {
        let heap = self
            .clustered
            .as_ref()
            .expect("invariant: clustered fetch requires a clustered index");
        let mut ptr = [0u8; 8];
        let len = heap
            .try_read_prefix(RecordId::from_u64(value), &mut ptr)
            .map_err(|e| FixError::from_storage("clustered", e))?;
        if len < ptr.len() {
            return Err(FixError::Corrupt {
                section: "clustered".to_string(),
                detail: format!(
                    "copy record {value:#x} is {len} bytes, shorter than its 8-byte pointer"
                ),
            });
        }
        Ok(EntryPtr::from_u64(u64::from_le_bytes(ptr)))
    }
}

/// Serializes the subtree of `node` truncated to `depth` element levels
/// (the clustered index stores the pattern instance, which is depth-bounded
/// exactly like the index entries themselves).
pub(crate) fn serialize_truncated(
    doc: &Document,
    labels: &LabelTable,
    node: NodeId,
    depth: usize,
) -> String {
    fn rec(doc: &Document, labels: &LabelTable, n: NodeId, depth: usize, out: &mut String) {
        match doc.kind(n) {
            NodeKind::Text(_) => {
                for c in doc.text(n).expect("text node").chars() {
                    match c {
                        '&' => out.push_str("&amp;"),
                        '<' => out.push_str("&lt;"),
                        '>' => out.push_str("&gt;"),
                        _ => out.push(c),
                    }
                }
            }
            NodeKind::Element(l) => {
                let name = labels.resolve(l);
                out.push('<');
                out.push_str(name);
                if depth <= 1 || doc.first_child(n).is_none() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for c in doc.children(n) {
                    rec(doc, labels, c, depth - 1, out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
    }
    let mut out = String::new();
    rec(doc, labels, node, depth, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_collection() -> Collection {
        let mut c = Collection::new();
        c.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        c.add_xml("<bib><book><author/></book></bib>").unwrap();
        c.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        c
    }

    #[test]
    fn collection_mode_one_entry_per_document() {
        let mut c = small_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        assert_eq!(idx.entry_count(), 3);
        // Docs 0 and 2 are identical → one distinct pattern each for the
        // two distinct structures.
        assert_eq!(idx.stats().distinct_patterns, 2);
        assert_eq!(idx.stats().fallbacks, 0);
        assert!(idx.stats().btree_bytes > 0);
        assert_eq!(idx.stats().clustered_bytes, 0);
    }

    #[test]
    fn large_document_mode_one_entry_per_element() {
        let mut c = Collection::new();
        c.add_xml("<a><b><c/></b><b><c/></b><d/></a>").unwrap();
        let idx = FixIndex::build(&mut c, FixOptions::large_document(2));
        // 6 elements → 6 entries (Theorem 4).
        assert_eq!(idx.entry_count(), 6);
        // Distinct depth-2 patterns: c, b{c}, d, a{b,d} → 4.
        assert_eq!(idx.stats().distinct_patterns, 4);
    }

    #[test]
    fn clustered_build_stores_copies() {
        let mut c = small_collection();
        let idx = FixIndex::build(&mut c, FixOptions::collection().clustered());
        assert_eq!(idx.entry_count(), 3);
        assert!(idx.stats().clustered_bytes > 0);
        // Every B-tree value resolves to a parseable record.
        let heap = idx.clustered.as_ref().unwrap();
        for (_, v) in idx.btree.iter() {
            let record = heap.get(RecordId::from_u64(v));
            let ptr = idx.try_clustered_ptr(v).unwrap();
            assert_eq!(ptr.to_u64().to_le_bytes(), record[..8]);
            assert!(ptr.doc.0 < 3);
            assert!(std::str::from_utf8(&record[8..])
                .unwrap()
                .starts_with("<bib>"));
        }
    }

    #[test]
    fn damaged_clustered_values_are_typed_errors() {
        let mut c = small_collection();
        let mut idx = FixIndex::build(&mut c, FixOptions::collection().clustered());
        let heap = idx.clustered.as_mut().unwrap();
        let short = heap.append(b"1234567");
        let empty = heap.append(b"");
        let dangling = RecordId { slot: 999, ..short };
        let off_the_end = RecordId {
            page: fix_storage::PageId(short.page.0 + 1000),
            slot: 0,
        };
        for (rid, what) in [
            (short, "is 7 bytes, shorter than its 8-byte pointer"),
            (empty, "is 0 bytes, shorter than its 8-byte pointer"),
            (dangling, "dangling record id"),
            (off_the_end, "out of range"),
        ] {
            match idx.try_clustered_ptr(rid.to_u64()) {
                Err(FixError::Corrupt { section, detail }) => {
                    assert_eq!(section, "clustered");
                    assert!(detail.contains(what), "{detail}");
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn value_mode_indexes_value_labels_but_not_their_entries() {
        let mut c = Collection::new();
        c.add_xml("<dblp><proceedings><publisher>Springer</publisher></proceedings></dblp>")
            .unwrap();
        let idx = FixIndex::build(&mut c, FixOptions::large_document(3).with_values(8));
        // Entries: dblp, proceedings, publisher — value nodes excluded.
        assert_eq!(idx.entry_count(), 3);
        // The value label exists in the shared table.
        assert!(c.labels.iter().any(|(_, n)| n.starts_with("#v")));
        assert!(idx.hasher.is_some());
    }

    #[test]
    fn truncated_serialization() {
        let mut c = Collection::new();
        let id = c.add_xml("<a><b><c><d/></c></b>t</a>").unwrap();
        let doc = c.doc(id);
        let root = doc.root();
        assert_eq!(
            serialize_truncated(doc, &c.labels, root, usize::MAX),
            "<a><b><c><d/></c></b>t</a>"
        );
        assert_eq!(serialize_truncated(doc, &c.labels, root, 2), "<a><b/>t</a>");
        assert_eq!(serialize_truncated(doc, &c.labels, root, 1), "<a/>");
    }

    #[test]
    fn oversized_patterns_fall_back() {
        let mut c = Collection::new();
        c.add_xml("<a><b/><c/><d/><e/></a>").unwrap();
        let mut opts = FixOptions::collection();
        opts.extractor.max_edges = 2;
        let idx = FixIndex::build(&mut c, opts);
        assert_eq!(idx.stats().fallbacks, 1);
    }

    #[test]
    fn identical_documents_share_memoized_features() {
        let mut c = Collection::new();
        for _ in 0..50 {
            c.add_xml("<a><b/><c/></a>").unwrap();
        }
        let idx = FixIndex::build(&mut c, FixOptions::collection());
        assert_eq!(idx.entry_count(), 50);
        assert_eq!(idx.stats().distinct_patterns, 1);
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::metrics::ground_truth;
    use fix_xpath::parse_path;

    #[test]
    fn insert_matches_fresh_build() {
        // Index built incrementally must answer exactly like one built
        // from scratch over the same documents.
        let docs = [
            "<bib><article><author/><ee/></article></bib>",
            "<bib><book><author><phone/></author></book></bib>",
            "<bib><article><author><email/></author><title>t</title></article></bib>",
            "<bib><inproceedings><url/><title><i/></title></inproceedings></bib>",
        ];
        let mut all = Collection::new();
        for d in &docs {
            all.add_xml(d).unwrap();
        }
        let fresh = FixIndex::build(&mut all, FixOptions::large_document(4));

        let mut coll = Collection::new();
        coll.add_xml(docs[0]).unwrap();
        let mut inc = FixIndex::build(&mut coll, FixOptions::large_document(4));
        for (i, d) in docs[1..].iter().enumerate() {
            let id = inc.insert_xml(&mut coll, d).unwrap();
            assert_eq!(id, DocId(i as u32 + 1));
        }
        assert_eq!(inc.entry_count(), fresh.entry_count());
        for q in [
            "//article[author]/ee",
            "//author/phone",
            "//inproceedings[url]/title/i",
            "//bib/article/title",
        ] {
            let a = inc.query(&coll, q).unwrap();
            let b = fresh.query(&all, q).unwrap();
            assert_eq!(a.results, b.results, "disagreement on {q}");
            // No false negatives after inserts.
            let truth = ground_truth(&coll, &parse_path(q).unwrap(), 4);
            assert_eq!(a.metrics.producing, truth, "false negative on {q}");
        }
    }

    #[test]
    fn clustered_indexes_absorb_inserts_via_delta_copies() {
        let mut coll = Collection::new();
        coll.add_xml("<a><b/></a>").unwrap();
        let mut idx = FixIndex::build(&mut coll, FixOptions::collection().clustered());
        let id = idx.insert_xml(&mut coll, "<a><c/></a>").unwrap();
        assert_eq!(id, DocId(1));
        assert_eq!(idx.entry_count(), 2);
        assert_eq!(idx.delta_len(), 1);
        let out = idx.query(&coll, "//a/c").unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].0, DocId(1));
        // The delta copy refines without touching primary storage, exactly
        // like a base heap record.
        let out2 = idx.query(&coll, "//a/b").unwrap();
        assert_eq!(out2.results.len(), 1);
        assert_eq!(out2.results[0].0, DocId(0));
    }

    #[test]
    fn compaction_is_byte_identical_to_a_fresh_build() {
        let docs = [
            "<bib><article><author/><ee/></article></bib>",
            "<bib><book><author><phone/></author></book></bib>",
            "<bib><article><author><email/></author><title>t</title></article></bib>",
        ];
        for clustered in [false, true] {
            let opts = if clustered {
                FixOptions::large_document(4).clustered()
            } else {
                FixOptions::large_document(4)
            };
            let mut all = Collection::new();
            for d in &docs {
                all.add_xml(d).unwrap();
            }
            let fresh = FixIndex::build(&mut all, opts.clone());

            let mut coll = Collection::new();
            coll.add_xml(docs[0]).unwrap();
            let mut inc = FixIndex::build(&mut coll, opts);
            for d in &docs[1..] {
                inc.insert_xml(&mut coll, d).unwrap();
            }
            let compacted = inc.compact();
            assert_eq!(compacted.delta_len(), 0);
            assert_eq!(compacted.compaction_stats().0, 1);
            let a: Vec<_> = compacted.entries().collect();
            let b: Vec<_> = fresh.entries().collect();
            assert_eq!(a, b, "clustered={clustered}: keys/values must match");
            assert_eq!(
                compacted.clustered_records(),
                fresh.clustered_records(),
                "clustered={clustered}: heap records must match"
            );
            let q = "//article[author]/ee";
            assert_eq!(
                compacted.query(&coll, q).unwrap(),
                fresh.query(&all, q).unwrap()
            );
        }
    }

    #[test]
    fn inserts_resume_after_compaction() {
        // Compaction drops the construction state; the next insert resumes
        // with a cold memo and must still assign rebuild-identical keys.
        let mut coll = Collection::new();
        coll.add_xml("<a><b/><c/></a>").unwrap();
        let mut idx = FixIndex::build(&mut coll, FixOptions::collection());
        idx.insert_xml(&mut coll, "<a><b/></a>").unwrap();
        let mut idx = idx.compact();
        idx.insert_xml(&mut coll, "<a><b/><c/></a>").unwrap();
        assert_eq!(idx.entry_count(), 3);
        assert_eq!(idx.delta_len(), 1);

        let mut all = Collection::new();
        for d in ["<a><b/><c/></a>", "<a><b/></a>", "<a><b/><c/></a>"] {
            all.add_xml(d).unwrap();
        }
        let fresh = FixIndex::build(&mut all, FixOptions::collection());
        let a: Vec<_> = idx.entries().collect();
        let b: Vec<_> = fresh.entries().collect();
        assert_eq!(a, b, "resumed insert diverged from a fresh build");
        // Stats levels never shrink across the resume.
        assert!(idx.stats().distinct_patterns >= fresh.stats().distinct_patterns);
    }

    #[test]
    fn inserts_share_memoized_patterns() {
        let mut coll = Collection::new();
        coll.add_xml("<a><b/><c/></a>").unwrap();
        let mut idx = FixIndex::build(&mut coll, FixOptions::collection());
        let before = idx.stats().distinct_patterns;
        idx.insert_xml(&mut coll, "<a><b/><c/></a>").unwrap();
        assert_eq!(
            idx.stats().distinct_patterns,
            before,
            "identical doc reuses pattern"
        );
        assert_eq!(idx.entry_count(), 2);
    }

    #[test]
    fn value_index_inserts_hash_new_values() {
        let mut coll = Collection::new();
        coll.add_xml("<d><p><pub>Springer</pub></p></d>").unwrap();
        let mut idx = FixIndex::build(&mut coll, FixOptions::large_document(3).with_values(32));
        idx.insert_xml(&mut coll, "<d><p><pub>Elsevier</pub></p></d>")
            .unwrap();
        let out = idx.query(&coll, r#"//p[pub="Elsevier"]"#).unwrap();
        assert_eq!(out.results.len(), 1);
    }
}

#[cfg(test)]
mod tombstone_tests {
    use super::*;

    fn coll3() -> Collection {
        let mut c = Collection::new();
        c.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        c.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        c.add_xml("<bib><book><author/></book></bib>").unwrap();
        c
    }

    #[test]
    fn removed_documents_disappear_from_results() {
        let mut c = coll3();
        let mut idx = FixIndex::build(&mut c, FixOptions::collection());
        assert_eq!(
            idx.query(&c, "//article[author]/ee").unwrap().results.len(),
            2
        );
        idx.remove_document(DocId(0));
        let out = idx.query(&c, "//article[author]/ee").unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].0, DocId(1));
        assert!(idx.is_removed(DocId(0)));
        assert_eq!(idx.removed_count(), 1);
    }

    #[test]
    fn clustered_indexes_filter_in_refinement() {
        let mut c = coll3();
        let mut idx = FixIndex::build(&mut c, FixOptions::collection().clustered());
        idx.remove_document(DocId(1));
        let out = idx.query(&c, "//article[author]/ee").unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].0, DocId(0));
    }

    #[test]
    fn vacuum_rebuilds_without_tombstones() {
        let mut c = coll3();
        let mut idx = FixIndex::build(&mut c, FixOptions::collection());
        idx.remove_document(DocId(0));
        let (fresh_coll, fresh_idx) = idx.vacuum(&c);
        assert_eq!(fresh_coll.len(), 2);
        assert_eq!(fresh_idx.entry_count(), 2);
        assert_eq!(fresh_idx.removed_count(), 0);
        // Same answers as the tombstoned original.
        let a = idx.query(&c, "//article[author]/ee").unwrap().results.len();
        let b = fresh_idx
            .query(&fresh_coll, "//article[author]/ee")
            .unwrap()
            .results
            .len();
        assert_eq!(a, b);
    }

    #[test]
    fn tombstones_survive_persistence() {
        let mut c = coll3();
        let mut idx = FixIndex::build(&mut c, FixOptions::collection());
        idx.remove_document(DocId(2));
        let dir = std::env::temp_dir().join(format!("fix-tomb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fixdb");
        crate::persist::save_impl(&path, &c, &idx).unwrap();
        let (lc, li, _) = crate::persist::load_any(&path, None).unwrap();
        assert!(li.is_removed(DocId(2)));
        assert!(li.query(&lc, "//book/author").unwrap().results.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod disk_tests {
    use super::*;

    #[test]
    fn on_disk_build_answers_identically() {
        let dir = std::env::temp_dir().join(format!("fix-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pages = dir.join("index.pages");

        let mut c1 = Collection::new();
        let mut c2 = Collection::new();
        for xml in [
            "<bib><article><author/><ee/></article></bib>",
            "<bib><book><author><phone/></author></book></bib>",
            "<bib><article><author><email/></author><title>t</title></article></bib>",
        ] {
            c1.add_xml(xml).unwrap();
            c2.add_xml(xml).unwrap();
        }
        let mem = FixIndex::build(&mut c1, FixOptions::large_document(4));
        let disk = build_on_disk_impl(&mut c2, FixOptions::large_document(4), &pages).unwrap();
        assert!(pages.exists());
        assert!(std::fs::metadata(&pages).unwrap().len() > 0);
        for q in [
            "//article[author]/ee",
            "//author/phone",
            "//bib/article/title",
        ] {
            let a = mem.query(&c1, q).unwrap();
            let b = disk.query(&c2, q).unwrap();
            assert_eq!(a.results, b.results, "mem/disk disagree on {q}");
            assert_eq!(a.metrics, b.metrics);
        }
        // The disk pool really does physical reads under pressure.
        disk.reset_io_stats();
        let _ = disk.query(&c2, "//author").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_clustered_build() {
        let dir = std::env::temp_dir().join(format!("fix-diskc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pages = dir.join("clustered.pages");
        let mut coll = Collection::new();
        coll.add_xml("<a><b><c/></b><b/></a>").unwrap();
        let idx = build_on_disk_impl(&mut coll, FixOptions::large_document(3).clustered(), &pages)
            .unwrap();
        let out = idx.query(&coll, "//b/c").unwrap();
        assert_eq!(out.results.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
