//! Heap files: variable-length records on slotted pages.
//!
//! Primary storage for serialized documents/subtrees. Records larger than
//! a page spill into a chain of overflow pages. Record ids are stable
//! (`(page, slot)`), which is exactly what the unclustered FIX index stores
//! as its B-tree values.

use crate::page::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64, PageId, PAGE_SIZE};
use crate::pool::{PageSpace, StorageError};

/// Page header: `u16 slot_count`, `u16 data_start` (data grows downward).
const HDR: usize = 4;
/// Per-slot entry: `u16 offset`, `u16 len`.
const SLOT: usize = 4;
/// Slot length sentinel marking an overflow record.
const OVERFLOW: u16 = u16::MAX;
/// Overflow slot payload: `u64 first_page`, `u32 total_len`.
const OVERFLOW_PAYLOAD: usize = 12;
/// Overflow page header: `u64 next_page` (`u64::MAX` = end of chain).
const OV_HDR: usize = 8;

/// Stable address of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// The slotted page holding the record (or its overflow stub).
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

impl RecordId {
    /// Packs into a `u64` (for storing as a B-tree value / storage ptr).
    pub fn to_u64(self) -> u64 {
        (self.page.0 << 16) | self.slot as u64
    }

    /// Unpacks from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        RecordId {
            page: PageId(v >> 16),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// The durable shape of a heap: everything [`HeapFile::attach`] needs to
/// reconstruct one over an existing page region (the persistence layer
/// serializes this next to the pages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapDirectory {
    /// Slotted data pages, in allocation order (scan order).
    pub data_pages: Vec<PageId>,
    /// Total records appended.
    pub records: u64,
    /// Overflow pages allocated.
    pub overflow_pages: u64,
}

/// An append-only heap of variable-length records.
pub struct HeapFile {
    pool: PageSpace,
    /// Slotted data pages, in allocation order (scan order).
    data_pages: Vec<PageId>,
    /// Total records appended.
    records: u64,
    /// Overflow pages allocated (size accounting).
    overflow_pages: u64,
}

impl HeapFile {
    /// Creates an empty heap on `pool`.
    pub fn new(pool: PageSpace) -> Self {
        Self {
            pool,
            data_pages: Vec::new(),
            records: 0,
            overflow_pages: 0,
        }
    }

    /// Reconstructs a heap over pages that already exist in `pool`'s
    /// backend (the paged-open path; no page is read until a record is).
    pub fn attach(pool: PageSpace, dir: HeapDirectory) -> Self {
        Self {
            pool,
            data_pages: dir.data_pages,
            records: dir.records,
            overflow_pages: dir.overflow_pages,
        }
    }

    /// The heap's durable shape (see [`HeapDirectory`]).
    pub fn directory(&self) -> HeapDirectory {
        HeapDirectory {
            data_pages: self.data_pages.clone(),
            records: self.records,
            overflow_pages: self.overflow_pages,
        }
    }

    /// Number of records appended.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True if no record was appended.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Total pages owned (data + overflow) — index/storage size accounting.
    pub fn page_count(&self) -> u64 {
        self.data_pages.len() as u64 + self.overflow_pages
    }

    /// Size in bytes (page-granular).
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    fn fresh_page(&mut self) -> PageId {
        let id = self.pool.allocate();
        self.pool.with_page_mut(id, |b| {
            put_u16(b, 0, 0);
            put_u16(b, 2, PAGE_SIZE as u16);
        });
        self.data_pages.push(id);
        id
    }

    /// Appends a record, returning its id.
    pub fn append(&mut self, bytes: &[u8]) -> RecordId {
        self.records += 1;
        let inline_max = PAGE_SIZE - HDR - SLOT;
        if bytes.len() > inline_max {
            return self.append_overflow(bytes);
        }
        let need = bytes.len() + SLOT;
        let page = match self.data_pages.last().copied() {
            Some(p) if self.free_space(p) >= need => p,
            _ => self.fresh_page(),
        };
        let slot = self.pool.with_page_mut(page, |b| {
            let slot_count = get_u16(b, 0);
            let data_start = get_u16(b, 2) as usize;
            let off = data_start - bytes.len();
            b[off..data_start].copy_from_slice(bytes);
            let slot_off = HDR + slot_count as usize * SLOT;
            put_u16(b, slot_off, off as u16);
            put_u16(b, slot_off + 2, bytes.len() as u16);
            put_u16(b, 0, slot_count + 1);
            put_u16(b, 2, off as u16);
            slot_count
        });
        RecordId { page, slot }
    }

    fn append_overflow(&mut self, bytes: &[u8]) -> RecordId {
        // Write the chain first.
        let chunk = PAGE_SIZE - OV_HDR;
        let n_pages = bytes.len().div_ceil(chunk);
        let pages: Vec<PageId> = (0..n_pages).map(|_| self.pool.allocate()).collect();
        self.overflow_pages += n_pages as u64;
        for (i, &pid) in pages.iter().enumerate() {
            let next = pages.get(i + 1).map(|p| p.0).unwrap_or(u64::MAX);
            let start = i * chunk;
            let end = (start + chunk).min(bytes.len());
            self.pool.with_page_mut(pid, |b| {
                put_u64(b, 0, next);
                b[OV_HDR..OV_HDR + (end - start)].copy_from_slice(&bytes[start..end]);
            });
        }
        // Then the stub slot.
        let need = OVERFLOW_PAYLOAD + SLOT;
        let page = match self.data_pages.last().copied() {
            Some(p) if self.free_space(p) >= need => p,
            _ => self.fresh_page(),
        };
        let first = pages[0].0;
        let total = bytes.len() as u32;
        let slot = self.pool.with_page_mut(page, |b| {
            let slot_count = get_u16(b, 0);
            let data_start = get_u16(b, 2) as usize;
            let off = data_start - OVERFLOW_PAYLOAD;
            put_u64(b, off, first);
            put_u32(b, off + 8, total);
            let slot_off = HDR + slot_count as usize * SLOT;
            put_u16(b, slot_off, off as u16);
            put_u16(b, slot_off + 2, OVERFLOW);
            put_u16(b, 0, slot_count + 1);
            put_u16(b, 2, off as u16);
            slot_count
        });
        RecordId { page, slot }
    }

    fn free_space(&self, page: PageId) -> usize {
        self.pool.with_page(page, |b| {
            let slot_count = get_u16(b, 0) as usize;
            let data_start = get_u16(b, 2) as usize;
            data_start.saturating_sub(HDR + slot_count * SLOT)
        })
    }

    /// Fetches a record.
    ///
    /// # Panics
    /// Panics on a dangling record id or an unreadable/corrupt page. Use
    /// [`HeapFile::try_get`] where torn pages must be survivable.
    pub fn get(&self, id: RecordId) -> Vec<u8> {
        self.try_get(id).unwrap_or_else(|e| {
            panic!("invariant: heap record {id:?} must be readable on this path: {e}")
        })
    }

    /// Fetches a record, surfacing page-level failures (out-of-range ids,
    /// CRC mismatches from a verified attach, I/O errors) as
    /// [`StorageError`] instead of panicking — the salvage path reads every
    /// record this way so one torn page loses one record, not the file.
    pub fn try_get(&self, id: RecordId) -> Result<Vec<u8>, StorageError> {
        let mut out = Vec::new();
        self.read(id, usize::MAX, |chunk| out.extend_from_slice(chunk))?;
        Ok(out)
    }

    /// Copies the first `out.len()` bytes of a record into `out` (fewer
    /// when the record is shorter) and returns the record's full length.
    /// Nothing is allocated and only the pages holding the prefix are
    /// pinned — the clustered index reads its 8-byte entry pointers this
    /// way. Failures are [`HeapFile::try_get`]'s.
    pub fn try_read_prefix(&self, id: RecordId, out: &mut [u8]) -> Result<usize, StorageError> {
        let mut filled = 0;
        self.read(id, out.len(), |chunk| {
            out[filled..filled + chunk.len()].copy_from_slice(chunk);
            filled += chunk.len();
        })
    }

    /// Feeds the first `limit` bytes of record `id` to `sink`, one pinned
    /// page at a time, and returns the record's full length. The slot
    /// page is pinned once: slot lookup and inline data happen under a
    /// single page guard, and only overflow records touch further pages
    /// (one pin per chain hop that `limit` reaches).
    fn read(
        &self,
        id: RecordId,
        limit: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<usize, StorageError> {
        let corrupt = |detail: String| StorageError::Corrupt {
            page: id.page,
            detail,
        };
        let (first, total) = {
            let guard = self.pool.try_pin(id.page)?;
            let b = guard.data();
            let slot_count = get_u16(&b, 0);
            if id.slot >= slot_count {
                return Err(corrupt(format!(
                    "dangling record id (slot {} of {slot_count})",
                    id.slot
                )));
            }
            let slot_off = HDR + id.slot as usize * SLOT;
            let off = get_u16(&b, slot_off) as usize;
            let len = get_u16(&b, slot_off + 2);
            if len == OVERFLOW {
                if off + OVERFLOW_PAYLOAD > PAGE_SIZE {
                    return Err(corrupt("overflow stub out of bounds".into()));
                }
                (get_u64(&b, off), get_u32(&b, off + 8) as usize)
            } else {
                let len = len as usize;
                if off + len > PAGE_SIZE {
                    return Err(corrupt("record slot out of bounds".into()));
                }
                sink(&b[off..off + len.min(limit)]);
                return Ok(len);
            }
        };
        let want = total.min(limit);
        let mut done = 0;
        let mut page = first;
        while page != u64::MAX && done < want {
            let take = (want - done).min(PAGE_SIZE - OV_HDR);
            let guard = self.pool.try_pin(PageId(page))?;
            let b = guard.data();
            sink(&b[OV_HDR..OV_HDR + take]);
            done += take;
            page = get_u64(&b, 0);
        }
        if done != want {
            return Err(corrupt(format!(
                "truncated overflow chain ({done} of {total} bytes)"
            )));
        }
        Ok(total)
    }

    /// Scans all records in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = (RecordId, Vec<u8>)> + '_ {
        self.data_pages.iter().flat_map(move |&page| {
            let slots = self.pool.with_page(page, |b| get_u16(b, 0));
            (0..slots).map(move |slot| {
                let id = RecordId { page, slot };
                (id, self.get(id))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> HeapFile {
        HeapFile::new(PageSpace::in_memory(16))
    }

    #[test]
    fn append_and_get() {
        let mut h = heap();
        let a = h.append(b"hello");
        let b = h.append(b"world!");
        assert_eq!(h.get(a), b"hello");
        assert_eq!(h.get(b), b"world!");
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn record_id_packs() {
        let id = RecordId {
            page: PageId(123456),
            slot: 42,
        };
        assert_eq!(RecordId::from_u64(id.to_u64()), id);
    }

    #[test]
    fn spills_to_new_pages() {
        let mut h = heap();
        let payload = vec![7u8; 1000];
        let ids: Vec<_> = (0..20).map(|_| h.append(&payload)).collect();
        assert!(h.page_count() >= 3);
        for id in ids {
            assert_eq!(h.get(id).len(), 1000);
        }
    }

    #[test]
    fn overflow_records_round_trip() {
        let mut h = heap();
        let big: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        let small = h.append(b"tiny");
        let ov = h.append(&big);
        let small2 = h.append(b"post");
        assert_eq!(h.get(ov), big);
        assert_eq!(h.get(small), b"tiny");
        assert_eq!(h.get(small2), b"post");
        assert!(h.page_count() > 6);
    }

    #[test]
    fn exact_page_boundary_overflow() {
        let mut h = heap();
        let exactly_chunk = vec![1u8; PAGE_SIZE - OV_HDR];
        let id = h.append(&exactly_chunk);
        assert_eq!(h.get(id), exactly_chunk);
        let two_chunks = vec![2u8; 2 * (PAGE_SIZE - OV_HDR)];
        let id2 = h.append(&two_chunks);
        assert_eq!(h.get(id2), two_chunks);
    }

    #[test]
    fn scan_yields_insertion_order() {
        let mut h = heap();
        let payload: Vec<Vec<u8>> = (0..100u32)
            .map(|i| i.to_le_bytes().repeat(i as usize % 7 + 1))
            .collect();
        let ids: Vec<_> = payload.iter().map(|p| h.append(p)).collect();
        let scanned: Vec<_> = h.scan().collect();
        assert_eq!(scanned.len(), 100);
        for ((id, data), (want_id, want)) in scanned.iter().zip(ids.iter().zip(&payload)) {
            assert_eq!(id, want_id);
            assert_eq!(data, want);
        }
    }

    #[test]
    fn empty_record_is_fine() {
        let mut h = heap();
        let id = h.append(b"");
        assert_eq!(h.get(id), b"");
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::pool::PageSpace;

    #[test]
    fn record_exactly_at_inline_maximum() {
        let mut h = HeapFile::new(PageSpace::in_memory(8));
        let max_inline = PAGE_SIZE - 4 /*HDR*/ - 4 /*SLOT*/;
        let payload = vec![9u8; max_inline];
        let id = h.append(&payload);
        assert_eq!(h.get(id), payload);
        // One byte more must take the overflow path and still round-trip.
        let over = vec![7u8; max_inline + 1];
        let id2 = h.append(&over);
        assert_eq!(h.get(id2), over);
    }

    #[test]
    fn tiny_pool_still_round_trips_overflow_chains() {
        // A single-frame pool forces every chain hop to evict.
        let mut h = HeapFile::new(PageSpace::in_memory(1));
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 255) as u8).collect();
        let small = h.append(b"before");
        let id = h.append(&big);
        let after = h.append(b"after");
        assert_eq!(h.get(id), big);
        assert_eq!(h.get(small), b"before");
        assert_eq!(h.get(after), b"after");
    }

    /// Inline (shorter than, equal to and longer than the prefix),
    /// zero-length and overflow-chain records, in one heap.
    fn mixed_records(h: &mut HeapFile) -> Vec<(RecordId, Vec<u8>)> {
        [0usize, 3, 8, 9, 700, 20_000, 8, 0]
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let payload: Vec<u8> = (0..len).map(|j| (i * 37 + j) as u8).collect();
                (h.append(&payload), payload)
            })
            .collect()
    }

    #[test]
    fn prefix_agrees_with_the_full_read() {
        let mut h = HeapFile::new(PageSpace::in_memory(4));
        for (id, want) in mixed_records(&mut h) {
            // 8 bytes is the clustered pointer; 10 000 crosses a chain hop.
            for cap in [0usize, 8, 10_000] {
                let mut out = vec![0xEEu8; cap];
                let len = h.try_read_prefix(id, &mut out).unwrap();
                assert_eq!(len, want.len());
                let n = cap.min(len);
                assert_eq!(out[..n], h.try_get(id).unwrap()[..n]);
                assert!(out[n..].iter().all(|&b| b == 0xEE), "wrote past the record");
            }
        }
        let dangling = RecordId {
            page: PageId(0),
            slot: 999,
        };
        assert_eq!(
            h.try_read_prefix(dangling, &mut [0u8; 8])
                .unwrap_err()
                .to_string(),
            h.try_get(dangling).unwrap_err().to_string()
        );
    }

    #[test]
    fn prefix_fails_exactly_like_the_full_read_under_read_faults() {
        use crate::fault::{set_read_fault, ReadFaultKind, ReadFaultPlan};
        use crate::pool::{BufferPool, FileBackend};
        let dir = std::env::temp_dir().join(format!("fix-heap-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.pages");
        let (heap_dir, records, crcs) = {
            let pool = BufferPool::shared(64).attach(Box::new(FileBackend::create(&path).unwrap()));
            let mut h = HeapFile::new(pool.clone());
            let records = mixed_records(&mut h);
            pool.flush().unwrap();
            let crcs: Vec<u32> = (0..pool.num_pages())
                .map(|i| pool.with_page(PageId(i), crate::crc::crc32))
                .collect();
            (h.directory(), records, crcs)
        };
        // A fresh verified pool per probe: every read is physical, and a
        // quarantine from one probe cannot leak into the next.
        let open = || {
            let pool = BufferPool::shared(64)
                .attach_verified(Box::new(FileBackend::open(&path).unwrap()), crcs.clone());
            HeapFile::attach(pool, heap_dir.clone())
        };
        for kind in [
            ReadFaultKind::Error,
            ReadFaultKind::Short,
            ReadFaultKind::Torn { keep: 10 },
        ] {
            for (id, want) in &records {
                // Boundary 0 is the slot page, 1 the first chain page: the
                // pages an 8-byte prefix needs. A fault further down the
                // chain fails only the read that goes there.
                for nth in 0..3 {
                    let full = {
                        let h = open();
                        set_read_fault(Some(ReadFaultPlan::new(nth, kind)));
                        let r = h.try_get(*id);
                        set_read_fault(None);
                        r.map(|rec| rec.len()).map_err(|e| e.to_string())
                    };
                    let prefix = {
                        let h = open();
                        let mut out = [0u8; 8];
                        set_read_fault(Some(ReadFaultPlan::new(nth, kind)));
                        let r = h.try_read_prefix(*id, &mut out);
                        set_read_fault(None);
                        r.map_err(|e| e.to_string())
                    };
                    if nth < 2 {
                        assert_eq!(prefix, full, "{kind:?} at boundary {nth}, {id:?}");
                    } else {
                        assert_eq!(prefix, Ok(want.len()), "prefix read past its pages");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interleaved_small_and_overflow_records() {
        let mut h = HeapFile::new(PageSpace::in_memory(4));
        let mut ids = Vec::new();
        for i in 0..30usize {
            let len = if i % 5 == 4 { 20_000 } else { i * 17 % 900 };
            let payload: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
            ids.push((h.append(&payload), payload));
        }
        for (id, want) in ids {
            assert_eq!(h.get(id), want);
        }
    }
}
