//! The writers: both containers' frames are driven from the layouts in
//! `format.rs`, and every replacement of a file on disk goes through
//! [`atomic_replace`].

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fix_btree::BTree;
use fix_storage::{crc32, BufferPool, FaultFile, FaultPlan, FileBackend, HeapFile, PAGE_SIZE};

use super::codec::{encode, PagedParts};
use super::format::{encode_superblock, CrcWriter, Kind, Layout, Superblock, V3, V4_META};
use crate::builder::FixIndex;
use crate::collection::Collection;
use crate::key::KEY_LEN;
use crate::options::StorageMode;

/// The temp file's writer: buffered, with the optional injected fault
/// *outside* the buffer so one caller write stays one fault boundary.
pub(crate) type TmpWriter<'a> = FaultFile<BufWriter<&'a File>>;

/// Atomically replaces `path` with whatever `write_tmp` produces: write a
/// sibling temp file (sequentially through the handed writer, or by path
/// for writers that need random access), flush, `fsync`, `rename` over
/// `path`, `fsync` the directory. A crash — or the injected `plan`, the
/// crash-matrix test hook — at *any* write boundary leaves either the
/// complete old file or the complete new one, never a torn mix; on any
/// failure the temp file is removed and `path` is untouched.
pub(crate) fn atomic_replace(
    path: &Path,
    plan: Option<FaultPlan>,
    write_tmp: impl FnOnce(&Path, &mut TmpWriter) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_path(path);
    let write = || {
        let file = File::create(&tmp)?;
        let mut out = FaultFile::new(BufWriter::new(&file), plan);
        write_tmp(&tmp, &mut out)?;
        out.flush()?;
        drop(out);
        // fsync is per-inode, so this also covers by-path writers.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path)
}

fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "fixdb".to_string());
    path.with_file_name(format!("{name}.tmp{}", std::process::id()))
}

/// Fsyncs the directory holding `path` so the rename itself is durable.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

pub(crate) fn save_impl(path: &Path, coll: &Collection, idx: &FixIndex) -> io::Result<()> {
    match idx.options().storage {
        StorageMode::Paged => atomic_replace(path, None, |tmp, _| write_paged(tmp, coll, idx)),
        StorageMode::InMemory => save_with_faults(path, coll, idx, None),
    }
}

/// The atomic v3 save with an optional injected write fault (the
/// crash-matrix test hook; `None` is the production path).
pub fn save_with_faults(
    path: &Path,
    coll: &Collection,
    idx: &FixIndex,
    plan: Option<FaultPlan>,
) -> io::Result<()> {
    atomic_replace(path, plan, |_, out| {
        write_region(&mut CrcWriter::new(out), &V3, coll, idx, None)
    })
}

/// Writes one region: `layout`'s prefix and frames, the delta frame when
/// there is delta content, and the footer.
fn write_region<W: Write>(
    w: &mut CrcWriter<W>,
    layout: &Layout,
    coll: &Collection,
    idx: &FixIndex,
    paged: Option<&PagedParts>,
) -> io::Result<()> {
    w.put(layout.prefix)?;
    let delta = (!idx.delta.is_empty()).then_some(Kind::Delta);
    for &kind in layout.frames.iter().chain(&delta) {
        w.put_frame(kind, &encode(kind, coll, idx, paged))?;
    }
    w.put_footer()
}

fn storage_io(e: fix_storage::StorageError) -> io::Error {
    io::Error::other(e)
}

/// Builds the v4 page file at `tmp` by deterministic replay into a fresh
/// backend: document heap appends in id order, clustered copies in
/// insertion order, then a B+-tree bulk load. Record ids in the fresh file
/// differ from the live in-memory ones, so clustered B-tree values are
/// remapped through the replay's old→new table — the written file is
/// self-consistent by construction rather than by trusting the source
/// layout.
fn write_paged(tmp: &Path, coll: &Collection, idx: &FixIndex) -> io::Result<()> {
    let opts = idx.options();
    let backend = FileBackend::create_at(tmp, PAGE_SIZE as u64)?;
    let pool = BufferPool::shared(opts.pool_pages.max(8)).attach(Box::new(backend));

    // (1) Documents, in id order.
    let mut docs_heap = HeapFile::new(pool.clone());
    let mut doc_rids = Vec::with_capacity(coll.len());
    for (_, d) in coll.iter() {
        let xml = fix_xml::to_xml_string(d, &coll.labels);
        doc_rids.push(docs_heap.append(xml.as_bytes()));
    }

    // (2) Clustered copies, replayed in insertion order.
    let mut remap: HashMap<u64, u64> = HashMap::new();
    let clustered_dir = idx.clustered.as_ref().map(|heap| {
        let mut out = HeapFile::new(pool.clone());
        for (old, record) in heap.scan() {
            let new = out.append(&record);
            remap.insert(old.to_u64(), new.to_u64());
        }
        out.directory()
    });

    // (3) B-tree over remapped values (unclustered values are packed
    // entry pointers, not record ids — those pass through untouched).
    let entries: Vec<(Vec<u8>, u64)> = idx
        .btree
        .iter()
        .map(|(k, v)| {
            let v = if clustered_dir.is_some() {
                *remap
                    .get(&v)
                    .expect("clustered B-tree value has no heap record")
            } else {
                v
            };
            (k, v)
        })
        .collect();
    let btree = BTree::bulk_load(pool.clone(), KEY_LEN, entries);
    pool.flush().map_err(storage_io)?;
    let page_count = pool.num_pages();

    // Per-page CRCs, the metadata tail and the superblock go through a
    // second handle onto the same inode.
    let mut file = OpenOptions::new().read(true).write(true).open(tmp)?;
    let mut page_crcs = Vec::with_capacity(page_count as usize);
    file.seek(SeekFrom::Start(PAGE_SIZE as u64))?;
    let mut buf = vec![0u8; PAGE_SIZE];
    for _ in 0..page_count {
        file.read_exact(&mut buf)?;
        page_crcs.push(crc32(&buf));
    }
    let parts = PagedParts {
        doc_rids: &doc_rids,
        btree: &btree,
        docs_dir: docs_heap.directory(),
        clustered_dir,
        page_crcs: &page_crcs,
    };
    let meta_off = PAGE_SIZE as u64 * (1 + page_count);
    file.seek(SeekFrom::Start(meta_off))?;
    let mut w = CrcWriter::new(BufWriter::new(&mut file));
    write_region(&mut w, &V4_META, coll, idx, Some(&parts))?;
    let meta_len = w.count();
    w.into_inner().flush()?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&encode_superblock(&Superblock {
        page_count,
        meta_off,
        meta_len,
    }))
}
