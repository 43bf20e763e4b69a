//! The one place that knows what a frame is and in which order each
//! container holds them (`DESIGN.md` §12/§14 mirror this file).
//!
//! ```text
//! frame:   id:u8  len:u64le  payload[len]  crc32(payload):u32le
//! footer:  0xFF   offset:u64le  crc32(region[..offset]):u32le
//!
//! v3 file: "FIXDB\0\x03\0"  frames of [`V3`]  [delta]  footer
//!          (region = the whole file, so the footer checksums all of it)
//! v4 file: superblock (40 B in the first page):
//!            "FIXDB\0\x04\0"  page_size:u32le  page_count:u64le
//!            meta_off:u64le   meta_len:u64le   crc32(first 36 bytes):u32le
//!          data pages: page_count × PAGE_SIZE starting at byte PAGE_SIZE
//!          metadata tail at meta_off = PAGE_SIZE × (1 + page_count):
//!            frames of [`V4_META`]  [delta]  footer
//!          (region = the tail only, which keeps open O(metadata))
//! ```
//!
//! Every length is validated against the bytes actually remaining before
//! anything is allocated, every payload carries its own CRC-32, and the
//! footer checksums its region — a flipped bit or a truncation surfaces
//! as a [`Status`] naming the frame at fault, never as a panic or an
//! over-allocation. [`walk`] is the only function that advances a frame
//! cursor; open, verify and salvage consume its rows.

use std::io::{self, Write};

use fix_storage::{crc32, Crc32, PAGE_SIZE};

use super::codec::{self, decode_whole};

pub(super) const MAGIC_V3: &[u8; 8] = b"FIXDB\x00\x03\x00";
pub(super) const MAGIC_V4: &[u8; 8] = b"FIXDB\x00\x04\x00";
/// Section id of the footer pseudo-frame.
const FOOTER_ID: u8 = 0xFF;
/// Footer wire size: id byte + u64 offset + u32 region CRC.
const FOOTER_LEN: usize = 13;
/// Frame header wire size: id byte + u64 payload length.
pub(super) const FRAME_HEADER_LEN: usize = 9;
/// v4 superblock wire size.
pub(super) const SUPERBLOCK_LEN: usize = 40;

/// Which container a file's first eight bytes announce.
pub(super) enum Container {
    V3,
    V4,
}

/// Classifies a file by its magic, or says why its `header` cannot be
/// accepted.
pub(super) fn container(data: &[u8]) -> Result<Container, String> {
    match data.get(..8) {
        None => Err(format!(
            "file is {} bytes, shorter than the 8-byte magic",
            data.len()
        )),
        Some(m) if m == MAGIC_V3 => Ok(Container::V3),
        Some(m) if m == MAGIC_V4 => Ok(Container::V4),
        Some(b"FIXDB\x00\x02\x00") => Err(
            "format v2 (unframed, unchecksummed) is no longer supported; \
             open the file with the previous release and save() it to migrate"
                .to_string(),
        ),
        Some(_) => Err("bad magic".to_string()),
    }
}

/// The payload-bearing frame kinds of both containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    Options,
    Labels,
    Documents,
    DocDir,
    Edges,
    BTree,
    BTreeMeta,
    Heap,
    HeapDirs,
    Tombstones,
    PageCrcs,
    Delta,
}

/// A payload's structure check.
type Check = fn(&[u8]) -> Result<(), String>;

impl Kind {
    /// The frame table: wire id, report name, structure check. The v4-only
    /// kinds reuse the ids of the v3 frames they replace (whose payloads
    /// inline the page data the v4 frames merely point at).
    fn row(self) -> (u8, &'static str, Check) {
        /// A full decode of the payload whose value is dropped.
        macro_rules! check {
            ($decode:expr) => {
                |p| decode_whole(p, $decode).map(drop)
            };
        }
        match self {
            Kind::Options => (0, "options", check!(codec::decode_options)),
            Kind::Labels => (1, "labels", check!(codec::decode_labels)),
            Kind::Documents => (2, "documents", check!(codec::decode_documents)),
            Kind::DocDir => (2, "docdir", check!(codec::decode_doc_dir)),
            Kind::Edges => (3, "edges", check!(codec::decode_edges)),
            Kind::BTree => (4, "btree", check!(codec::decode_btree)),
            Kind::BTreeMeta => (4, "btree-meta", check!(codec::decode_btree_meta)),
            Kind::Heap => (5, "heap", check!(codec::decode_heap)),
            Kind::HeapDirs => (5, "heap-dirs", check!(codec::decode_heap_dirs)),
            Kind::Tombstones => (6, "tombstones", check!(codec::decode_tombstones)),
            Kind::Delta => (7, "delta", check!(codec::decode_delta)),
            Kind::PageCrcs => (8, "page-crcs", check!(codec::decode_page_crcs)),
        }
    }

    pub(super) fn id(self) -> u8 {
        self.row().0
    }

    pub(super) fn name(self) -> &'static str {
        self.row().1
    }

    /// Structure-checks one payload without building anything.
    pub(super) fn check(self, payload: &[u8]) -> Result<(), String> {
        (self.row().2)(payload)
    }
}

/// One container's mandatory frames, in file order. Both may be followed
/// by one optional [`Kind::Delta`] frame, written only when the index
/// carries a non-empty delta run — so files saved without post-build
/// inserts stay byte-identical to the pre-delta layout.
pub(super) struct Layout {
    /// What the region holds ahead of its first frame: the magic for v3,
    /// nothing for the v4 tail (its magic is in the superblock).
    pub prefix: &'static [u8],
    pub frames: &'static [Kind],
}

/// The whole-file (materialized) container.
pub(super) const V3: Layout = Layout {
    prefix: MAGIC_V3,
    frames: &[
        Kind::Options,
        Kind::Labels,
        Kind::Documents,
        Kind::Edges,
        Kind::BTree,
        Kind::Heap,
        Kind::Tombstones,
    ],
};

/// The paged container's metadata tail.
pub(super) const V4_META: Layout = Layout {
    prefix: &[],
    frames: &[
        Kind::Options,
        Kind::Labels,
        Kind::DocDir,
        Kind::Edges,
        Kind::BTreeMeta,
        Kind::HeapDirs,
        Kind::Tombstones,
        Kind::PageCrcs,
    ],
};

/// What [`walk`] found at one frame position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Status {
    /// Framing intact and the checksum matches.
    Ok,
    /// The frame is delimited but its payload fails its CRC.
    CrcMismatch(String),
    /// The frame header cannot be walked (truncated, wrong id, length
    /// overrunning the region), or the footer's shape is wrong. The walk
    /// cannot resync past it.
    Structural(String),
    /// A mandatory frame behind a structural failure.
    Unreachable,
}

impl Status {
    /// The failure text, `None` for [`Status::Ok`].
    pub(super) fn detail(&self) -> Option<&str> {
        match self {
            Status::Ok => None,
            Status::CrcMismatch(d) | Status::Structural(d) => Some(d),
            Status::Unreachable => Some("unreachable after a structural failure"),
        }
    }
}

/// One row of a [`walk`]: a frame (or the footer, `kind: None`).
pub(super) struct Row<'a> {
    pub kind: Option<Kind>,
    pub name: &'static str,
    /// Absolute file offset of the frame header.
    pub offset: u64,
    /// The payload (the footer's own bytes; empty when unwalkable).
    pub payload: &'a [u8],
    pub status: Status,
}

/// Walks `region` against `layout`: every mandatory frame, the optional
/// trailing delta frame, then the footer. `base` is the region's offset
/// in the file (reported offsets are absolute; offsets inside detail
/// strings stay region-relative, like the footer's own offset field).
/// After a structural failure the remaining mandatory frames are listed
/// as [`Status::Unreachable`] and the walk ends.
pub(super) fn walk<'a>(region: &'a [u8], base: u64, layout: &Layout) -> Vec<Row<'a>> {
    let mut rows = Vec::with_capacity(layout.frames.len() + 2);
    let mut pos = layout.prefix.len();
    let mut kinds = layout.frames.iter().copied().chain([Kind::Delta]);
    while let Some(kind) = kinds.next() {
        if kind == Kind::Delta && region.get(pos) != Some(&kind.id()) {
            break;
        }
        let row = |payload, status| Row {
            kind: Some(kind),
            name: kind.name(),
            offset: base + pos as u64,
            payload,
            status,
        };
        match read_frame(region, pos, kind.id()) {
            Ok((payload, status)) => {
                rows.push(row(payload, status));
                pos += FRAME_HEADER_LEN + payload.len() + 4;
            }
            Err(d) => {
                rows.push(row(&[], Status::Structural(d)));
                let offset = base + pos as u64;
                rows.extend(kinds.filter(|k| *k != Kind::Delta).map(|k| Row {
                    kind: Some(k),
                    name: k.name(),
                    offset,
                    payload: &[],
                    status: Status::Unreachable,
                }));
                return rows;
            }
        }
    }
    rows.push(Row {
        kind: None,
        name: "footer",
        offset: base + pos as u64,
        payload: &region[pos..],
        status: check_footer(region, pos),
    });
    rows
}

/// Delimits the frame at `pos` and checksums its payload; `Err` when the
/// header itself cannot be trusted.
fn read_frame(region: &[u8], pos: usize, expect: u8) -> Result<(&[u8], Status), String> {
    let avail = region.len() - pos;
    if avail < FRAME_HEADER_LEN {
        return Err(format!(
            "truncated frame header at offset {pos:#x} ({avail} bytes remain, need {FRAME_HEADER_LEN})"
        ));
    }
    let id = region[pos];
    if id != expect {
        return Err(format!(
            "expected section id {expect} at offset {pos:#x}, found {id}"
        ));
    }
    let len = u64::from_le_bytes(region[pos + 1..pos + 9].try_into().unwrap());
    if len > (avail - FRAME_HEADER_LEN).saturating_sub(4) as u64 {
        return Err(format!(
            "section length {len} at offset {pos:#x} overruns the file"
        ));
    }
    let start = pos + FRAME_HEADER_LEN;
    let end = start + len as usize;
    let payload = &region[start..end];
    let stored = u32::from_le_bytes(region[end..end + 4].try_into().unwrap());
    let computed = crc32(payload);
    let status = if stored == computed {
        Status::Ok
    } else {
        Status::CrcMismatch(format!(
            "checksum mismatch at offset {pos:#x} (stored {stored:#010x}, computed {computed:#010x})"
        ))
    };
    Ok((payload, status))
}

fn check_footer(region: &[u8], pos: usize) -> Status {
    let rest = &region[pos..];
    if rest.len() != FOOTER_LEN {
        return Status::Structural(format!(
            "expected a {FOOTER_LEN}-byte footer at offset {pos:#x}, found {} bytes",
            rest.len()
        ));
    }
    if rest[0] != FOOTER_ID {
        return Status::Structural(format!(
            "bad footer marker {:#04x} at offset {pos:#x}",
            rest[0]
        ));
    }
    let off = u64::from_le_bytes(rest[1..9].try_into().unwrap());
    if off != pos as u64 {
        return Status::Structural(format!(
            "footer offset field {off:#x} does not match footer position {pos:#x}"
        ));
    }
    let stored = u32::from_le_bytes(rest[9..13].try_into().unwrap());
    let computed = crc32(&region[..pos]);
    if stored != computed {
        return Status::CrcMismatch(format!(
            "file checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        ));
    }
    Status::Ok
}

// ------------------------------------------------------------------ writing

/// Byte counter + running CRC over everything written to one region; the
/// footer's offset and checksum fall out of the state at footer time.
pub(super) struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
    count: u64,
}

impl<W: Write> CrcWriter<W> {
    pub(super) fn new(inner: W) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
            count: 0,
        }
    }

    pub(super) fn put(&mut self, b: &[u8]) -> io::Result<()> {
        self.inner.write_all(b)?;
        self.crc.update(b);
        self.count += b.len() as u64;
        Ok(())
    }

    /// Bytes written so far.
    pub(super) fn count(&self) -> u64 {
        self.count
    }

    pub(super) fn into_inner(self) -> W {
        self.inner
    }

    pub(super) fn put_frame(&mut self, kind: Kind, payload: &[u8]) -> io::Result<()> {
        self.put(&[kind.id()])?;
        self.put(&(payload.len() as u64).to_le_bytes())?;
        self.put(payload)?;
        self.put(&crc32(payload).to_le_bytes())
    }

    pub(super) fn put_footer(&mut self) -> io::Result<()> {
        // Snapshot offset + region CRC *before* the footer's own bytes.
        let offset = self.count;
        let crc = self.crc.finalize();
        self.put(&[FOOTER_ID])?;
        self.put(&offset.to_le_bytes())?;
        self.put(&crc.to_le_bytes())
    }
}

// --------------------------------------------------------------- superblock

/// Decoded v4 superblock (`page_size` is validated during decode).
pub(super) struct Superblock {
    pub page_count: u64,
    pub meta_off: u64,
    pub meta_len: u64,
}

pub(super) fn encode_superblock(sb: &Superblock) -> [u8; SUPERBLOCK_LEN] {
    let mut out = [0u8; SUPERBLOCK_LEN];
    out[..8].copy_from_slice(MAGIC_V4);
    out[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    out[12..20].copy_from_slice(&sb.page_count.to_le_bytes());
    out[20..28].copy_from_slice(&sb.meta_off.to_le_bytes());
    out[28..36].copy_from_slice(&sb.meta_len.to_le_bytes());
    let crc = crc32(&out[..36]);
    out[36..40].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and cross-checks a superblock against the file length. The
/// caller has already matched the magic.
pub(super) fn decode_superblock(buf: &[u8], file_len: u64) -> Result<Superblock, String> {
    if buf.len() < SUPERBLOCK_LEN {
        return Err(format!(
            "file is {} bytes, shorter than the {SUPERBLOCK_LEN}-byte superblock",
            buf.len()
        ));
    }
    let stored = u32::from_le_bytes(buf[36..40].try_into().unwrap());
    let computed = crc32(&buf[..36]);
    if stored != computed {
        return Err(format!(
            "superblock checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        ));
    }
    let page_size = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if page_size as usize != PAGE_SIZE {
        return Err(format!(
            "page size {page_size} does not match this build's {PAGE_SIZE}"
        ));
    }
    let page_count = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let meta_off = u64::from_le_bytes(buf[20..28].try_into().unwrap());
    let meta_len = u64::from_le_bytes(buf[28..36].try_into().unwrap());
    let want_off = page_count
        .checked_add(1)
        .and_then(|n| n.checked_mul(PAGE_SIZE as u64));
    if want_off != Some(meta_off) {
        return Err(format!(
            "metadata offset {meta_off:#x} does not follow {page_count} pages"
        ));
    }
    if meta_off.checked_add(meta_len) != Some(file_len) {
        return Err(format!(
            "metadata region ({meta_off:#x}+{meta_len}) does not end at the file end ({file_len} bytes)"
        ));
    }
    if (meta_len as usize) < FOOTER_LEN {
        return Err(format!(
            "metadata region shorter than the {FOOTER_LEN}-byte footer"
        ));
    }
    Ok(Superblock {
        page_count,
        meta_off,
        meta_len,
    })
}
