//! Frame payloads: one encoder arm and one bounds-checked decoder per
//! [`Kind`]. Framing, ordering and checksums live in `format.rs`.
//!
//! The B-tree is persisted *logically* in v3 (sorted key/value pairs,
//! rebuilt by a bottom-up bulk load), which keeps that container
//! independent of page-layout details; v4 persists the pages themselves
//! and its frames only point into them.

use fix_btree::BTree;
use fix_spectral::FeatureMode;
use fix_storage::{HeapDirectory, PageId, RecordId};
use fix_xml::LabelId;

use super::format::Kind;
use crate::builder::FixIndex;
use crate::collection::Collection;
use crate::key::KEY_LEN;
use crate::options::FixOptions;

/// Plausibility caps applied to decoded options before they can size
/// anything. A corrupted field that slips past the CRCs is rejected here
/// instead of driving an allocation.
const MAX_DEPTH_LIMIT: usize = 1 << 16;
const MAX_POOL_PAGES: usize = 1 << 28;
const MAX_MAX_EDGES: usize = 1 << 28;

// ---------------------------------------------------------------- encoding

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// What the v4-only frames describe: where the freshly written page file
/// put the documents, the clustered copies and the B+-tree.
pub(super) struct PagedParts<'a> {
    pub doc_rids: &'a [RecordId],
    pub btree: &'a BTree,
    pub docs_dir: HeapDirectory,
    pub clustered_dir: Option<HeapDirectory>,
    pub page_crcs: &'a [u32],
}

/// Encodes one frame's payload. `paged` must be present for the frames
/// only [`super::format::V4_META`] lists.
pub(super) fn encode(
    kind: Kind,
    coll: &Collection,
    idx: &FixIndex,
    paged: Option<&PagedParts>,
) -> Vec<u8> {
    let paged = || paged.expect("a v4-only frame is encoded from the written page file");
    let mut out = Vec::new();
    match kind {
        Kind::Options => {
            let o = idx.options();
            put_u32(&mut out, o.depth_limit as u32);
            put_u32(&mut out, u32::from(o.clustered));
            put_u32(&mut out, o.value_beta.unwrap_or(0));
            put_u32(&mut out, o.pool_pages as u32);
            put_u32(
                &mut out,
                match o.extractor.mode {
                    FeatureMode::SymmetricNorm => 0,
                    FeatureMode::SkewSpectral => 1,
                },
            );
            put_u32(&mut out, o.extractor.max_edges as u32);
            let flags = u32::from(o.extended_features) | (u32::from(o.edge_bloom) << 1);
            put_u32(&mut out, flags);
            // u32::MAX encodes "unlimited" (usize::MAX); saturate.
            let d = u32::try_from(o.max_parse_depth).unwrap_or(u32::MAX);
            put_u32(&mut out, d);
            // Mutation-policy knobs, appended by current writers. Older
            // files simply end at the parse depth and decode with the
            // process defaults.
            put_u64(&mut out, o.wal_seal_bytes);
            put_u32(&mut out, o.tier_fanout as u32);
            put_f64(&mut out, o.compact_ratio);
        }
        Kind::Labels => {
            // Ids are the positions.
            put_u32(&mut out, coll.labels.len() as u32);
            for (_, name) in coll.labels.iter() {
                put_bytes(&mut out, name.as_bytes());
            }
        }
        Kind::Documents => {
            // Serialized XML in id order.
            put_u32(&mut out, coll.len() as u32);
            for (_, d) in coll.iter() {
                put_bytes(&mut out, fix_xml::to_xml_string(d, &coll.labels).as_bytes());
            }
        }
        Kind::DocDir => {
            let rids = paged().doc_rids;
            put_u32(&mut out, rids.len() as u32);
            for r in rids {
                put_u64(&mut out, r.to_u64());
            }
        }
        Kind::Edges => {
            // Edge dictionary (sorted for determinism).
            let mut edges: Vec<((LabelId, LabelId), f64)> = idx.encoder.iter().collect();
            edges.sort_by_key(|((a, b), _)| (a.0, b.0));
            put_u32(&mut out, edges.len() as u32);
            for ((a, b), weight) in edges {
                put_u32(&mut out, a.0);
                put_u32(&mut out, b.0);
                put_f64(&mut out, weight);
            }
        }
        Kind::BTree => {
            // Entries in key order.
            put_u64(&mut out, idx.btree.len());
            for (k, v) in idx.btree.iter() {
                out.extend_from_slice(&k);
                put_u64(&mut out, v);
            }
        }
        Kind::BTreeMeta => {
            let t = paged().btree;
            let s = t.stats();
            put_u64(&mut out, t.root_page().0);
            put_u64(&mut out, s.height as u64);
            put_u64(&mut out, s.entries);
            put_u64(&mut out, s.pages);
        }
        Kind::Heap => {
            // Clustered heap records in insertion order; u64::MAX marks
            // "no clustered heap".
            match &idx.clustered {
                Some(heap) => {
                    put_u64(&mut out, heap.len());
                    for (_, record) in heap.scan() {
                        put_bytes(&mut out, &record);
                    }
                }
                None => put_u64(&mut out, u64::MAX),
            }
        }
        Kind::HeapDirs => {
            let p = paged();
            put_heap_dir(&mut out, &p.docs_dir);
            match &p.clustered_dir {
                Some(dir) => {
                    put_u32(&mut out, 1);
                    put_heap_dir(&mut out, dir);
                }
                None => put_u32(&mut out, 0),
            }
        }
        Kind::Tombstones => {
            let mut removed: Vec<u32> = idx.removed.iter().map(|d| d.0).collect();
            removed.sort_unstable();
            put_u32(&mut out, removed.len() as u32);
            for d in removed {
                put_u32(&mut out, d);
            }
        }
        Kind::PageCrcs => {
            let crcs = paged().page_crcs;
            put_u64(&mut out, crcs.len() as u64);
            for c in crcs {
                put_u32(&mut out, *c);
            }
        }
        Kind::Delta => {
            // Delta run entries in key order, then (for clustered
            // indexes) the copy records the run's values index into;
            // u64::MAX marks "no copy records" (unclustered).
            put_u64(&mut out, idx.delta.len());
            for (k, v) in idx.delta.iter() {
                out.extend_from_slice(k);
                put_u64(&mut out, v);
            }
            match idx.delta.copies() {
                Some(copies) => {
                    put_u64(&mut out, copies.len() as u64);
                    for record in copies {
                        put_bytes(&mut out, record);
                    }
                }
                None => put_u64(&mut out, u64::MAX),
            }
        }
    }
    out
}

fn put_heap_dir(out: &mut Vec<u8>, dir: &HeapDirectory) {
    put_u64(out, dir.records);
    put_u64(out, dir.overflow_pages);
    put_u64(out, dir.data_pages.len() as u64);
    for p in &dir.data_pages {
        put_u64(out, p.0);
    }
}

// ---------------------------------------------------------------- decoding

/// A bounds-checked cursor over an in-memory byte slice. Every read —
/// including the length-prefixed [`SliceReader::bytes`] — validates
/// against the bytes actually remaining, so a corrupted length field
/// yields an error string (wrapped into `FixError::Corrupt` by the
/// caller), never an attempt to allocate the claimed size.
pub(super) struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "need {n} bytes at offset {:#x}, only {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u64-length-prefixed byte string, length validated first.
    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let at = self.pos;
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(format!(
                "length prefix {n} at offset {at:#x} exceeds the {} bytes remaining",
                self.remaining()
            ));
        }
        self.take(n as usize)
    }

    /// A u32-counted list of length-prefixed UTF-8 strings.
    fn strings(&mut self, what: &str) -> Result<Vec<String>, String> {
        let n = self.u32()?;
        let mut out = Vec::new();
        for _ in 0..n {
            let at = self.pos;
            let s = String::from_utf8(self.bytes()?.to_vec())
                .map_err(|_| format!("{what} at offset {at:#x} is not valid UTF-8"))?;
            out.push(s);
        }
        Ok(out)
    }
}

/// Runs a decoder over a whole payload, requiring full consumption.
pub(super) fn decode_whole<'a, T>(
    payload: &'a [u8],
    f: impl FnOnce(&mut SliceReader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut r = SliceReader {
        buf: payload,
        pos: 0,
    };
    let v = f(&mut r)?;
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes in section", r.remaining()));
    }
    Ok(v)
}

pub(super) fn decode_options(r: &mut SliceReader) -> Result<FixOptions, String> {
    let depth_limit = r.u32()? as usize;
    if depth_limit > MAX_DEPTH_LIMIT {
        return Err(format!("implausible depth limit {depth_limit}"));
    }
    let clustered = r.u32()? != 0;
    let value_beta = match r.u32()? {
        0 => None,
        b => Some(b),
    };
    let pool_pages = r.u32()? as usize;
    if pool_pages > MAX_POOL_PAGES {
        return Err(format!("implausible buffer-pool size {pool_pages}"));
    }
    let mode = match r.u32()? {
        0 => FeatureMode::SymmetricNorm,
        1 => FeatureMode::SkewSpectral,
        m => return Err(format!("unknown feature mode {m}")),
    };
    let max_edges = r.u32()? as usize;
    if max_edges > MAX_MAX_EDGES {
        return Err(format!("implausible max-edges threshold {max_edges}"));
    }
    let flags = r.u32()?;
    let max_parse_depth = match r.u32()? {
        u32::MAX => usize::MAX,
        0 => return Err("zero parse depth limit".to_string()),
        d => d as usize,
    };
    let mut opts = if depth_limit == 0 {
        FixOptions::collection()
    } else {
        FixOptions::large_document(depth_limit)
    };
    opts.clustered = clustered;
    opts.value_beta = value_beta;
    opts.pool_pages = pool_pages.max(1);
    opts.extractor.mode = mode;
    opts.extractor.max_edges = max_edges;
    opts.extended_features = flags & 1 != 0;
    opts.edge_bloom = flags & 2 != 0;
    opts.max_parse_depth = max_parse_depth;
    // Mutation-policy knobs: present in files written by current code,
    // absent in older ones (the frame then ends at the parse depth, and
    // `decode_whole`'s full-consumption check still holds either way).
    if r.remaining() > 0 {
        opts.wal_seal_bytes = r.u64()?;
        if opts.wal_seal_bytes == 0 {
            return Err("zero WAL seal threshold".to_string());
        }
        opts.tier_fanout = r.u32()? as usize;
        if opts.tier_fanout < 2 {
            return Err(format!("implausible tier fanout {}", opts.tier_fanout));
        }
        opts.compact_ratio = r.f64()?;
        if !opts.compact_ratio.is_finite() || opts.compact_ratio < 0.0 {
            return Err(format!(
                "implausible compaction ratio {}",
                opts.compact_ratio
            ));
        }
    }
    Ok(opts)
}

pub(super) fn decode_labels(r: &mut SliceReader) -> Result<Vec<String>, String> {
    r.strings("label")
}

pub(super) fn decode_documents(r: &mut SliceReader) -> Result<Vec<String>, String> {
    r.strings("document")
}

pub(super) fn decode_doc_dir(r: &mut SliceReader) -> Result<Vec<RecordId>, String> {
    let n = r.u32()?;
    let mut rids = Vec::new();
    for _ in 0..n {
        rids.push(RecordId::from_u64(r.u64()?));
    }
    Ok(rids)
}

pub(super) fn decode_edges(r: &mut SliceReader) -> Result<Vec<(LabelId, LabelId, f64)>, String> {
    let n = r.u32()?;
    let mut edges = Vec::new();
    for _ in 0..n {
        let a = LabelId(r.u32()?);
        let b = LabelId(r.u32()?);
        let w = r.f64()?;
        edges.push((a, b, w));
    }
    Ok(edges)
}

/// `n` fixed-width key/value pairs, required to be in strict key order.
fn sorted_entries(r: &mut SliceReader, n: u64, what: &str) -> Result<Vec<(Vec<u8>, u64)>, String> {
    let mut entries = Vec::new();
    for _ in 0..n {
        let k = r.take(KEY_LEN)?.to_vec();
        let v = r.u64()?;
        entries.push((k, v));
    }
    if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(format!("{what} entries out of order"));
    }
    Ok(entries)
}

/// `n` length-prefixed records.
fn records(r: &mut SliceReader, n: u64) -> Result<Vec<Vec<u8>>, String> {
    let mut records = Vec::new();
    for _ in 0..n {
        records.push(r.bytes()?.to_vec());
    }
    Ok(records)
}

pub(super) fn decode_btree(r: &mut SliceReader) -> Result<Vec<(Vec<u8>, u64)>, String> {
    let n = r.u64()?;
    sorted_entries(r, n, "B-tree")
}

/// `(root, height, entries, pages)` of the persisted tree.
pub(super) type BTreeMeta = (u64, usize, u64, u64);

pub(super) fn decode_btree_meta(r: &mut SliceReader) -> Result<BTreeMeta, String> {
    let root = r.u64()?;
    let height = r.u64()?;
    if height > 64 {
        return Err(format!("implausible B-tree height {height}"));
    }
    let entries = r.u64()?;
    let pages = r.u64()?;
    Ok((root, height as usize, entries, pages))
}

pub(super) fn decode_heap(r: &mut SliceReader) -> Result<Option<Vec<Vec<u8>>>, String> {
    match r.u64()? {
        u64::MAX => Ok(None),
        n => records(r, n).map(Some),
    }
}

fn decode_heap_dir(r: &mut SliceReader) -> Result<HeapDirectory, String> {
    let records = r.u64()?;
    let overflow_pages = r.u64()?;
    let n = r.u64()?;
    let mut data_pages = Vec::new();
    for _ in 0..n {
        data_pages.push(PageId(r.u64()?));
    }
    Ok(HeapDirectory {
        data_pages,
        records,
        overflow_pages,
    })
}

pub(super) fn decode_heap_dirs(
    r: &mut SliceReader,
) -> Result<(HeapDirectory, Option<HeapDirectory>), String> {
    let docs = decode_heap_dir(r)?;
    let clustered = match r.u32()? {
        0 => None,
        1 => Some(decode_heap_dir(r)?),
        f => return Err(format!("bad clustered-heap flag {f}")),
    };
    Ok((docs, clustered))
}

pub(super) fn decode_tombstones(r: &mut SliceReader) -> Result<Vec<u32>, String> {
    let n = r.u32()?;
    let mut removed = Vec::new();
    for _ in 0..n {
        removed.push(r.u32()?);
    }
    Ok(removed)
}

pub(super) fn decode_page_crcs(r: &mut SliceReader) -> Result<Vec<u32>, String> {
    let n = r.u64()?;
    if n > r.remaining() as u64 / 4 {
        return Err(format!("page-CRC count {n} exceeds the bytes remaining"));
    }
    let mut crcs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        crcs.push(r.u32()?);
    }
    Ok(crcs)
}

/// Decoded delta content: key-ordered run entries plus (for clustered
/// indexes) the copy records the values index into.
pub(super) type DeltaParts = (Vec<(Vec<u8>, u64)>, Option<Vec<Vec<u8>>>);

pub(super) fn decode_delta(r: &mut SliceReader) -> Result<DeltaParts, String> {
    let n = r.u64()?;
    let entries = sorted_entries(r, n, "delta")?;
    let copies = match r.u64()? {
        u64::MAX => None,
        m => Some(records(r, m)?),
    };
    if let Some(c) = &copies {
        if entries.iter().any(|&(_, v)| v >= c.len() as u64) {
            return Err("delta value points past the copy records".to_string());
        }
    }
    Ok((entries, copies))
}
