//! Opening a database: walk the container's frames, refuse at the first
//! one that is not intact, decode each payload once, assemble.

use std::collections::HashSet;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use fix_btree::BTree;
use fix_spectral::EdgeEncoder;
use fix_storage::{BufferPool, FileBackend, HeapFile, PageId, PageSpace, RecordId, PAGE_SIZE};

use super::codec::{self, decode_whole, SliceReader};
use super::corrupt;
use super::format::{
    container, decode_superblock, walk, Container, Kind, Layout, Row, MAGIC_V4, SUPERBLOCK_LEN, V3,
    V4_META,
};
use crate::builder::{BuildStats, FixIndex};
use crate::collection::{Collection, DocId};
use crate::delta::DeltaIndex;
use crate::error::FixError;
use crate::key::KEY_LEN;
use crate::options::{FixOptions, StorageMode};
use crate::values::ValueHasher;

/// Loads a database of either container, optionally attaching a paged
/// file to an existing shared buffer pool. Returns the collection, the
/// index, and the bytes physically read at open — for a v4 file that is
/// the superblock plus the metadata tail only (pages are demand-read
/// later), which is what makes paged cold-start independent of file size.
pub(crate) fn load_any(
    path: &Path,
    pool: Option<&Arc<BufferPool>>,
) -> Result<(Collection, FixIndex, u64), FixError> {
    let mut magic = [0u8; 8];
    let peeked = {
        let mut f = std::fs::File::open(path)?;
        f.read_exact(&mut magic).is_ok()
    };
    if peeked && &magic == MAGIC_V4 {
        return open_paged(path, pool);
    }
    let mut data = std::fs::read(path)?;
    // Injected-read-fault boundary (fault-domain testing): a torn fault
    // here damages framed, CRC-checked territory and must surface as
    // `Corrupt`, never as a wrong answer.
    fix_storage::fault::read_boundary(&mut data)?;
    let bytes = data.len() as u64;
    let (coll, idx) = load_bytes(&data)?;
    Ok((coll, idx, bytes))
}

/// Opens a v3 image held in memory.
pub(crate) fn load_bytes(data: &[u8]) -> Result<(Collection, FixIndex), FixError> {
    match container(data).map_err(|d| corrupt("header", d))? {
        Container::V3 => open_v3(data),
        Container::V4 => Err(corrupt(
            "header",
            "paged (v4) databases attach to their file and must be opened from a path",
        )),
    }
}

/// A region's frames, every one of them (and the footer) intact.
struct Frames<'a>(Vec<Row<'a>>);

impl<'a> Frames<'a> {
    /// Walks `region`, refusing with [`FixError::Corrupt`] naming the
    /// first frame that is not intact.
    fn intact(region: &'a [u8], base: u64, layout: &Layout) -> Result<Self, FixError> {
        let rows = walk(region, base, layout);
        match rows.iter().find_map(|r| Some((r.name, r.status.detail()?))) {
            Some((name, detail)) => Err(corrupt(name, detail)),
            None => Ok(Frames(rows)),
        }
    }

    /// Decodes the `kind` frame, `None` when the region has none (only
    /// the optional delta frame can be absent).
    fn get<T>(
        &self,
        kind: Kind,
        f: impl FnOnce(&mut SliceReader<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, FixError> {
        self.0
            .iter()
            .find(|r| r.kind == Some(kind))
            .map(|r| decode_whole(r.payload, f).map_err(|d| corrupt(kind.name(), d)))
            .transpose()
    }

    /// Decodes a mandatory frame.
    fn decode<T>(
        &self,
        kind: Kind,
        f: impl FnOnce(&mut SliceReader<'a>) -> Result<T, String>,
    ) -> Result<T, FixError> {
        Ok(self
            .get(kind, f)?
            .expect("layout frame present after an intact walk"))
    }
}

fn open_v3(data: &[u8]) -> Result<(Collection, FixIndex), FixError> {
    let frames = Frames::intact(data, 0, &V3)?;
    let docs = frames.decode(Kind::Documents, codec::decode_documents)?;
    let entries = frames.decode(Kind::BTree, codec::decode_btree)?;
    let heap = frames.decode(Kind::Heap, codec::decode_heap)?;
    assemble(&frames, StorageMode::InMemory, |opts, coll| {
        // Documents were depth-checked when first added; never reject
        // previously persisted data on reload.
        for xml in &docs {
            coll.add_xml_limited(xml, usize::MAX)
                .map_err(|e| corrupt("documents", format!("document reparse: {e}")))?;
        }
        // Replay heap appends *before* loading the B-tree: construction
        // allocates heap pages first and B-tree pages second, so replaying
        // in the same order reproduces the record ids the stored B-tree
        // values point at (the heap's append is deterministic).
        let pool = PageSpace::in_memory(opts.pool_pages);
        let clustered = heap.map(|records| {
            let mut heap = HeapFile::new(pool.clone());
            for record in &records {
                heap.append(record);
            }
            heap
        });
        let btree = BTree::bulk_load(pool.clone(), KEY_LEN, entries);
        Ok((pool, btree, clustered))
    })
}

/// Opens a paged database: superblock + CRC-verified metadata tail only.
/// Pages attach to `shared` (several databases then compete for the same
/// bounded frame budget) or to a fresh pool sized by the saved
/// `pool_pages`. Documents become lazy heap-backed slots; the B+-tree and
/// clustered heap attach over the file's pages without reading them.
fn open_paged(
    path: &Path,
    shared: Option<&Arc<BufferPool>>,
) -> Result<(Collection, FixIndex, u64), FixError> {
    let mut file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut sb_buf = [0u8; SUPERBLOCK_LEN];
    file.read_exact(&mut sb_buf)
        .map_err(|_| corrupt("superblock", "file shorter than the superblock"))?;
    fix_storage::fault::read_boundary(&mut sb_buf)?;
    let sb = decode_superblock(&sb_buf, file_len).map_err(|d| corrupt("superblock", d))?;
    let mut meta = vec![0u8; sb.meta_len as usize];
    file.seek(SeekFrom::Start(sb.meta_off))?;
    file.read_exact(&mut meta)?;
    // Injected-read-fault boundary: a torn metadata tail must fail the
    // frame/footer CRCs below, never decode into a wrong index.
    fix_storage::fault::read_boundary(&mut meta)?;

    let frames = Frames::intact(&meta, sb.meta_off, &V4_META)?;
    let doc_rids: Vec<RecordId> = frames.decode(Kind::DocDir, codec::decode_doc_dir)?;
    let (root, height, entries, pages) =
        frames.decode(Kind::BTreeMeta, codec::decode_btree_meta)?;
    let (docs_dir, clustered_dir) = frames.decode(Kind::HeapDirs, codec::decode_heap_dirs)?;
    let crcs = frames.decode(Kind::PageCrcs, codec::decode_page_crcs)?;

    // Cross-checks: everything that names a page must stay inside the
    // page region the superblock declared.
    if crcs.len() as u64 != sb.page_count {
        return Err(corrupt(
            "page-crcs",
            format!("{} checksums for {} pages", crcs.len(), sb.page_count),
        ));
    }
    let page_ok = |p: u64| p < sb.page_count;
    if !page_ok(root) {
        return Err(corrupt("btree-meta", "root page out of range"));
    }
    for dir in std::iter::once(&docs_dir).chain(clustered_dir.iter()) {
        if dir.data_pages.iter().any(|p| !page_ok(p.0)) {
            return Err(corrupt("heap-dirs", "heap data page out of range"));
        }
    }
    if doc_rids.iter().any(|r| !page_ok(r.page.0)) {
        return Err(corrupt("docdir", "document record page out of range"));
    }

    let (coll, idx) = assemble(&frames, StorageMode::Paged, |opts, coll| {
        let backend = FileBackend::open_at(path, PAGE_SIZE as u64, sb.page_count)?;
        let pool_arc = match shared {
            Some(p) => Arc::clone(p),
            None => BufferPool::shared(opts.pool_pages),
        };
        let pool = pool_arc.attach_verified(Box::new(backend), crcs);
        coll.attach_lazy_docs(HeapFile::attach(pool.clone(), docs_dir), doc_rids);
        let clustered = clustered_dir.map(|d| HeapFile::attach(pool.clone(), d));
        let btree = BTree::attach(pool.clone(), KEY_LEN, PageId(root), height, entries, pages);
        Ok((pool, btree, clustered))
    })?;
    Ok((coll, idx, SUPERBLOCK_LEN as u64 + sb.meta_len))
}

/// The materialization both containers share: options, label table, edge
/// dictionary, delta run, tombstones and stats come from the frames both
/// layouts list; `storage` supplies what differs — how documents enter
/// the collection and where the B-tree and clustered heap live.
fn assemble(
    frames: &Frames,
    mode: StorageMode,
    storage: impl FnOnce(
        &FixOptions,
        &mut Collection,
    ) -> Result<(PageSpace, BTree, Option<HeapFile>), FixError>,
) -> Result<(Collection, FixIndex), FixError> {
    let mut opts = frames.decode(Kind::Options, codec::decode_options)?;
    opts.storage = mode;
    // Label table: intern in saved order so ids are reproduced exactly
    // (and before any document is parsed against it).
    let mut coll = Collection::new();
    let labels = frames.decode(Kind::Labels, codec::decode_labels)?;
    for (i, name) in labels.iter().enumerate() {
        if coll.labels.intern(name).0 as usize != i {
            return Err(corrupt("labels", "label table out of order"));
        }
    }
    let mut encoder = EdgeEncoder::new();
    for (a, b, w) in frames.decode(Kind::Edges, codec::decode_edges)? {
        encoder.restore(a, b, w);
    }
    let removed: HashSet<DocId> = frames
        .decode(Kind::Tombstones, codec::decode_tombstones)?
        .into_iter()
        .map(DocId)
        .collect();
    let delta = match frames.get(Kind::Delta, codec::decode_delta)? {
        None => DeltaIndex::new(opts.clustered, opts.tier_fanout),
        Some((entries, copies)) => {
            if copies.is_some() != opts.clustered {
                return Err(corrupt(
                    "delta",
                    "delta clustering disagrees with the options section",
                ));
            }
            DeltaIndex::from_sorted(entries, copies, opts.tier_fanout)
        }
    };
    let (pool, btree, clustered) = storage(&opts, &mut coll)?;
    let stats = BuildStats {
        entries: btree.len() + delta.len(),
        btree_bytes: btree.stats().size_bytes,
        clustered_bytes: clustered.as_ref().map(HeapFile::size_bytes).unwrap_or(0),
        ..Default::default()
    };
    let hasher = opts.value_beta.map(ValueHasher::new);
    let index = FixIndex {
        opts,
        btree,
        encoder,
        hasher,
        clustered,
        pool,
        stats,
        incremental: None,
        delta,
        removed,
        compactions: 0,
        compact_ns: 0,
    };
    Ok((coll, index))
}
