//! `fixdb verify`: every row of the container's walk becomes a
//! [`SectionReport`]; for a paged file, so does every data page.

use std::fmt;
use std::io;
use std::path::Path;

use fix_storage::{crc32, PAGE_SIZE};

use super::codec::{decode_page_crcs, decode_whole};
use super::format::{
    container, decode_superblock, walk, Container, Kind, Row, Status, SUPERBLOCK_LEN, V3, V4_META,
};

/// Health of one verified section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionStatus {
    /// Frame intact: checksum matches and the payload decodes.
    Ok,
    /// The section failed validation; the string says how and where.
    Corrupt(String),
}

/// One section's verification outcome (a row of `fixdb verify` output).
#[derive(Debug, Clone)]
pub struct SectionReport {
    /// Section name (`"options"`, …, `"footer"`, or the `"header"`,
    /// `"superblock"`, `"pages"` / `"page N"` pseudo-sections).
    pub section: String,
    /// Byte offset of the section's frame in the file.
    pub offset: u64,
    /// Payload length in bytes (0 when the frame itself is unreadable).
    pub len: u64,
    /// Verification outcome.
    pub status: SectionStatus,
}

impl SectionReport {
    fn new(section: impl Into<String>, offset: u64, len: u64, failure: Option<String>) -> Self {
        SectionReport {
            section: section.into(),
            offset,
            len,
            status: failure.map_or(SectionStatus::Ok, SectionStatus::Corrupt),
        }
    }
}

/// The full fsck report for one database file (see [`verify_file`]).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Format version: 4 (paged), 3, or 0 (not an openable FIX database).
    pub version: u8,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Per-section outcomes, in file order.
    pub sections: Vec<SectionReport>,
}

impl VerifyReport {
    /// True when every section verified clean.
    pub fn is_ok(&self) -> bool {
        self.corrupt_count() == 0
    }

    /// Number of sections that failed verification.
    pub fn corrupt_count(&self) -> usize {
        self.sections
            .iter()
            .filter(|s| matches!(s.status, SectionStatus::Corrupt(_)))
            .count()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.version {
            4 => writeln!(f, "format v4 (paged), {} bytes", self.file_len)?,
            3 => writeln!(f, "format v3, {} bytes", self.file_len)?,
            _ => writeln!(f, "not an openable FIX database ({} bytes)", self.file_len)?,
        }
        for s in &self.sections {
            match &s.status {
                SectionStatus::Ok => writeln!(
                    f,
                    "  {:<10} @{:#08x} {:>10} B  ok",
                    s.section, s.offset, s.len
                )?,
                SectionStatus::Corrupt(d) => writeln!(
                    f,
                    "  {:<10} @{:#08x} {:>10} B  CORRUPT: {d}",
                    s.section, s.offset, s.len
                )?,
            }
        }
        match self.corrupt_count() {
            0 => write!(f, "ok"),
            n => write!(f, "{n} corrupt section(s)"),
        }
    }
}

/// Verifies a database file without loading it into memory structures:
/// walks every frame, checks every checksum and every decodable length,
/// and reports per-section status with byte offsets. I/O errors reading
/// the file surface as `Err`; corruption is *data*, not an error.
pub fn verify_file(path: &Path) -> io::Result<VerifyReport> {
    let mut data = std::fs::read(path)?;
    // Injected-read-fault boundary: an Error/Short fault surfaces as the
    // `Err` I/O case; a Torn fault lands in checksummed territory and is
    // reported as per-section corruption like any real bit rot.
    fix_storage::fault::read_boundary(&mut data)?;
    Ok(verify_bytes(&data))
}

/// [`verify_file`] over an in-memory image.
pub fn verify_bytes(data: &[u8]) -> VerifyReport {
    let file_len = data.len() as u64;
    let (version, sections) = match container(data) {
        Ok(Container::V3) => (3, walk(data, 0, &V3).iter().map(report).collect()),
        Ok(Container::V4) => (4, verify_v4(data)),
        Err(detail) => {
            let header = SectionReport::new("header", 0, file_len.min(8), Some(detail));
            (0, vec![header])
        }
    };
    VerifyReport {
        version,
        file_len,
        sections,
    }
}

/// One walked row as a report row: an intact frame must also decode.
fn report(row: &Row) -> SectionReport {
    let failure = match (&row.status, row.kind) {
        (Status::Ok, Some(kind)) => kind.check(row.payload).err(),
        (status, _) => status.detail().map(str::to_string),
    };
    SectionReport::new(row.name, row.offset, row.payload.len() as u64, failure)
}

/// Page-granular fsck of a v4 file: the superblock, every metadata frame,
/// the metadata footer, and then every data page against its stored
/// CRC-32. A torn page shows up as its own `page N` row while every other
/// section (and every other page) still verifies clean — corruption is
/// isolated, not fatal.
fn verify_v4(data: &[u8]) -> Vec<SectionReport> {
    let file_len = data.len() as u64;
    let sb = match decode_superblock(data, file_len) {
        Ok(sb) => sb,
        Err(d) => {
            let len = file_len.min(SUPERBLOCK_LEN as u64);
            return vec![SectionReport::new("superblock", 0, len, Some(d))];
        }
    };
    let mut sections = vec![SectionReport::new(
        "superblock",
        0,
        SUPERBLOCK_LEN as u64,
        None,
    )];
    let rows = walk(&data[sb.meta_off as usize..], sb.meta_off, &V4_META);
    sections.extend(rows.iter().map(report));

    // Data pages, each against its stored checksum.
    let crcs = rows
        .iter()
        .find(|r| r.kind == Some(Kind::PageCrcs) && r.status == Status::Ok)
        .and_then(|r| decode_whole(r.payload, decode_page_crcs).ok());
    let pages = |failure| {
        let len = sb.page_count * PAGE_SIZE as u64;
        SectionReport::new("pages", PAGE_SIZE as u64, len, failure)
    };
    match crcs {
        Some(crcs) if crcs.len() as u64 == sb.page_count => {
            let clean = sections.len();
            for (i, stored) in crcs.iter().enumerate() {
                let start = PAGE_SIZE * (1 + i);
                let computed = crc32(&data[start..start + PAGE_SIZE]);
                if computed != *stored {
                    sections.push(SectionReport::new(
                        format!("page {i}"),
                        start as u64,
                        PAGE_SIZE as u64,
                        Some(format!(
                            "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                        )),
                    ));
                }
            }
            if sections.len() == clean {
                sections.push(pages(None));
            }
        }
        Some(crcs) => sections.push(pages(Some(format!(
            "{} checksums for {} pages",
            crcs.len(),
            sb.page_count
        )))),
        None => sections.push(pages(Some(
            "unverifiable: the page-crcs frame is damaged".to_string(),
        ))),
    }
    sections
}
