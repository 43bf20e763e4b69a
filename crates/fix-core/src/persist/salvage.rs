//! `fixdb verify --salvage`: keep the source-of-truth frames that the
//! walk found intact, rebuild everything derived.

use std::fmt;
use std::path::Path;

use fix_storage::{BufferPool, FileBackend, HeapDirectory, HeapFile, RecordId, PAGE_SIZE};

use super::codec::{self, decode_whole};
use super::corrupt;
use super::format::{
    container, decode_superblock, walk, Container, Kind, Row, Status, Superblock, V3, V4_META,
};
use super::save::save_impl;
use crate::builder::FixIndex;
use crate::collection::{Collection, DocId};
use crate::error::FixError;
use crate::options::{FixOptions, StorageMode};

/// What [`salvage_file`] recovered.
#[derive(Debug, Clone, Default)]
pub struct SalvageSummary {
    /// Documents recovered and re-indexed.
    pub documents: usize,
    /// Recovered document payloads that no longer parse (skipped).
    pub skipped_documents: usize,
    /// Tombstones carried over.
    pub tombstones: usize,
    /// Whether the options section survived (defaults are used otherwise).
    pub options_recovered: bool,
    /// Sections dropped as corrupt or unreachable, with reasons.
    pub dropped: Vec<String>,
    /// Index entries in the rebuilt output database.
    pub entries: u64,
}

impl fmt::Display for SalvageSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "salvaged {} document(s) ({} unparseable skipped), {} tombstone(s); options {}; index rebuilt with {} entries",
            self.documents,
            self.skipped_documents,
            self.tombstones,
            if self.options_recovered {
                "recovered"
            } else {
                "defaulted"
            },
            self.entries
        )?;
        for d in &self.dropped {
            writeln!(f, "  dropped {d}")?;
        }
        Ok(())
    }
}

/// Recovers what it can from a damaged database at `src` into a fresh,
/// fully consistent database at `dst`.
///
/// Source-of-truth frames (options, documents — or, paged, the document
/// directory and page checksums that lead to them — and tombstones) are
/// kept where they verify; the derived ones (labels, edge dictionary,
/// B-tree, clustered heap, delta run) are *always* rebuilt from the
/// recovered documents — carrying over a derived frame whose inputs may
/// have changed would produce a subtly inconsistent index, so salvage
/// trades a rebuild for a guarantee. The output is written fully
/// materialized (v3): maximally portable and independent of the damaged
/// layout.
pub fn salvage_file(src: &Path, dst: &Path) -> Result<SalvageSummary, FixError> {
    let data = std::fs::read(src)?;
    let mut summary = SalvageSummary::default();
    let kept = match container(&data).map_err(|d| corrupt("header", d))? {
        Container::V3 => keep(walk(&data, 0, &V3), &mut summary),
        Container::V4 => match decode_superblock(&data, data.len() as u64) {
            Ok(sb) => {
                let rows = walk(&data[sb.meta_off as usize..], sb.meta_off, &V4_META);
                let mut kept = keep(rows, &mut summary);
                fetch_paged_docs(src, &sb, &mut kept, &mut summary);
                kept
            }
            Err(d) => {
                summary.dropped.push(format!("superblock: {d}"));
                summary
                    .dropped
                    .push("documents: unreachable without a superblock".to_string());
                Kept::default()
            }
        },
    };
    summary.options_recovered = kept.opts.is_some();
    let mut opts = kept.opts.unwrap_or_else(FixOptions::collection);
    opts.storage = StorageMode::InMemory;

    let mut coll = Collection::new();
    for xml in &kept.docs {
        match coll.add_xml_limited(xml, usize::MAX) {
            Ok(_) => summary.documents += 1,
            Err(_) => summary.skipped_documents += 1,
        }
    }
    let mut idx = FixIndex::build(&mut coll, opts);
    for t in &kept.tombstones {
        if (*t as usize) < coll.len() {
            idx.removed.insert(DocId(*t));
            summary.tombstones += 1;
        }
    }
    summary.entries = idx.btree.len();
    save_impl(dst, &coll, &idx)?;
    Ok(summary)
}

/// The source-of-truth frames a walk found intact and decodable.
#[derive(Default)]
struct Kept {
    opts: Option<FixOptions>,
    docs: Vec<String>,
    doc_rids: Vec<RecordId>,
    tombstones: Vec<u32>,
    page_crcs: Option<Vec<u32>>,
}

/// Keeps what verifies; every frame that does not is reported as dropped.
/// Intact derived frames are rebuilt regardless — nothing to keep.
fn keep(rows: Vec<Row>, summary: &mut SalvageSummary) -> Kept {
    let mut kept = Kept::default();
    for row in rows {
        let Some(kind) = row.kind else { continue };
        let failure = match row.status {
            Status::Ok => match kind {
                Kind::Options => decode_whole(row.payload, codec::decode_options)
                    .map(|o| kept.opts = Some(o))
                    .err(),
                Kind::Documents => decode_whole(row.payload, codec::decode_documents)
                    .map(|d| kept.docs = d)
                    .err(),
                Kind::DocDir => decode_whole(row.payload, codec::decode_doc_dir)
                    .map(|r| kept.doc_rids = r)
                    .err(),
                Kind::Tombstones => decode_whole(row.payload, codec::decode_tombstones)
                    .map(|t| kept.tombstones = t)
                    .err(),
                Kind::PageCrcs => decode_whole(row.payload, codec::decode_page_crcs)
                    .map(|c| kept.page_crcs = Some(c))
                    .err(),
                _ => None,
            },
            status => status.detail().map(str::to_string),
        };
        if let Some(d) = failure {
            summary.dropped.push(format!("{}: {d}", row.name));
        }
    }
    kept
}

/// Fetches a v4 file's documents record-by-record through a CRC-verified
/// buffer pool, so a torn data page loses exactly the records on it
/// (reported per document) instead of the whole file.
fn fetch_paged_docs(src: &Path, sb: &Superblock, kept: &mut Kept, summary: &mut SalvageSummary) {
    if kept.doc_rids.is_empty() {
        return;
    }
    let backend = match FileBackend::open_at(src, PAGE_SIZE as u64, sb.page_count) {
        Ok(backend) => Box::new(backend),
        Err(e) => {
            summary
                .dropped
                .push(format!("documents: cannot reopen the page file: {e}"));
            return;
        }
    };
    let pool_arc = BufferPool::shared(64);
    let pool = match kept.page_crcs.take() {
        Some(c) if c.len() as u64 == sb.page_count => pool_arc.attach_verified(backend, c),
        _ => {
            summary
                .dropped
                .push("page-crcs: unavailable; documents read unverified".to_string());
            pool_arc.attach(backend)
        }
    };
    // Point reads need only the pool; the directory is for scans, so an
    // empty one is fine here.
    let heap = HeapFile::attach(
        pool,
        HeapDirectory {
            data_pages: Vec::new(),
            records: 0,
            overflow_pages: 0,
        },
    );
    for (i, rid) in kept.doc_rids.iter().enumerate() {
        let failure = match heap.try_get(*rid) {
            Ok(bytes) => match String::from_utf8(bytes) {
                Ok(xml) => {
                    kept.docs.push(xml);
                    continue;
                }
                Err(_) => "not valid UTF-8".to_string(),
            },
            Err(e) => e.to_string(),
        };
        summary.dropped.push(format!("document {i}: {failure}"));
        summary.skipped_documents += 1;
    }
}
