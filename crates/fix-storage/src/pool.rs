//! Storage backends, the shared buffer pool, and pinned page guards.
//!
//! The pool is the single point every page access goes through. It is
//! *shared*: one [`BufferPool`] can cache pages for several independent
//! page spaces at once (several open databases, or one database's index
//! plus its document heap), each attached as a tenant with its own
//! [`StorageBackend`] and its own [`IoStats`]. The global frame budget —
//! [`BufferPool::shared`]'s `capacity` — bounds resident pages across all
//! tenants, which is what makes a multi-tenant deployment's memory
//! footprint a configuration knob instead of a function of data size.
//!
//! Access is guard-based: [`PageSpace::pin`] returns a [`PageGuard`] that
//! holds a pin count on the frame for as long as the caller keeps it.
//! Pinned frames are never evicted; everything else is fair game for the
//! LRU sweep. The closure helpers [`PageSpace::with_page`] /
//! [`PageSpace::with_page_mut`] are thin wrappers that pin for exactly
//! the closure's duration.
//!
//! A tenant attached with [`BufferPool::attach_verified`] carries a
//! per-page CRC32 table; every physical read is checked against it, so a
//! torn or bit-flipped page surfaces as [`StorageError::Corrupt`] at the
//! page that was actually damaged instead of as silently wrong bytes.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::ops::{Deref, DerefMut};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use fix_obs::event::{Category, EventRecorder, FieldValue, Severity};
use parking_lot::Mutex;

use crate::crc::crc32;
use crate::page::{PageId, PAGE_SIZE};

/// A structured storage failure. The pool's panicking accessors
/// (`with_page`, `pin`) treat any of these as fail-stop; the `try_`
/// variants surface them to callers that can isolate the damage (the
/// verifier, salvage, and the paged open path).
#[derive(Debug)]
pub enum StorageError {
    /// A page id outside the backend's allocated range.
    OutOfRange {
        /// The requested page.
        page: PageId,
        /// Number of pages the backend actually holds.
        pages: u64,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Page contents failed checksum verification.
    Corrupt {
        /// The damaged page.
        page: PageId,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfRange { page, pages } => {
                write!(f, "page {} out of range (backend has {pages})", page.0)
            }
            StorageError::Io(e) => write!(f, "page I/O error: {e}"),
            StorageError::Corrupt { page, detail } => {
                write!(f, "page {} corrupt: {detail}", page.0)
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Fixed-size page I/O.
pub trait StorageBackend: Send {
    /// Reads page `id` into `buf` (`buf.len() == PAGE_SIZE`).
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError>;
    /// Writes `buf` to page `id`.
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StorageError>;
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&mut self) -> Result<PageId, StorageError>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
}

/// In-memory backend (the default for tests and experiments; the buffer
/// pool still simulates the I/O pattern, which is what the metrics need).
#[derive(Debug, Default)]
pub struct MemBackend {
    pages: Vec<Box<[u8]>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds-checks `id`, returning the structured error the
    /// [`StorageBackend`] contract requires for unallocated pages.
    fn check(&self, id: PageId) -> Result<usize, StorageError> {
        let idx = id.0 as usize;
        if idx >= self.pages.len() {
            return Err(StorageError::OutOfRange {
                page: id,
                pages: self.pages.len() as u64,
            });
        }
        Ok(idx)
    }
}

impl StorageBackend for MemBackend {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        let idx = self.check(id)?;
        buf.copy_from_slice(&self.pages[idx]);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        let idx = self.check(id)?;
        self.pages[idx].copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        let id = PageId(self.pages.len() as u64);
        self.pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
        Ok(id)
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }
}

/// File-backed pages. Page 0 lives at byte `base` in the file, which lets
/// the v4 paged database format reserve a superblock (and lets the page
/// region coexist with a metadata tail after it). Every page transfer is
/// one positioned `pread`/`pwrite`; the file cursor is never used.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    base: u64,
    pages: u64,
}

impl FileBackend {
    /// Creates (truncating) a page file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Self::create_at(path, 0)
    }

    /// Creates (truncating) a page file whose page 0 starts at byte
    /// `base`.
    pub fn create_at(path: &Path, base: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            base,
            pages: 0,
        })
    }

    /// Opens an existing page file (whole file = page region).
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            base: 0,
            pages: len / PAGE_SIZE as u64,
        })
    }

    /// Opens an existing file whose page region is `pages` pages starting
    /// at byte `base` (read-only page access; the file may hold other data
    /// outside the region).
    pub fn open_at(path: &Path, base: u64, pages: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).open(path)?;
        Ok(Self { file, base, pages })
    }

    fn check(&self, id: PageId) -> Result<u64, StorageError> {
        if id.0 >= self.pages {
            return Err(StorageError::OutOfRange {
                page: id,
                pages: self.pages,
            });
        }
        Ok(self.base + id.offset())
    }
}

impl StorageBackend for FileBackend {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        let off = self.check(id)?;
        self.file.read_exact_at(buf, off)?;
        // One page fetch = one injectable read boundary (no-op unless a
        // test armed a plan via `fault::set_read_fault`).
        crate::fault::read_boundary(buf)?;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        let off = self.check(id)?;
        self.file.write_all_at(buf, off)?;
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        let id = PageId(self.pages);
        self.pages += 1;
        self.file
            .write_all_at(&[0u8; PAGE_SIZE], self.base + id.offset())?;
        Ok(id)
    }

    fn num_pages(&self) -> u64 {
        self.pages
    }
}

/// Per-tenant I/O and cache counters. `random_reads` counts cache-miss
/// reads whose page id is not the successor of the previously missed id —
/// the proxy for the random-vs-sequential distinction driving the
/// clustered/unclustered tradeoff (Section 4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (physical page reads).
    pub misses: u64,
    /// Physical page writes (evictions of dirty pages + flushes).
    pub writes: u64,
    /// Misses that were not sequential with the previous miss.
    pub random_reads: u64,
}

/// Pool-wide cache statistics, across all tenants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frame budget (maximum unpinned-resident pages).
    pub capacity: usize,
    /// Pages currently resident in the pool.
    pub resident: usize,
    /// Resident pages currently pinned by live guards.
    pub pinned: usize,
    /// Cache hits across all tenants.
    pub hits: u64,
    /// Cache misses (physical reads) across all tenants.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back (evictions + explicit flushes).
    pub flushes: u64,
    /// Physical reads rejected by per-page CRC verification.
    pub crc_failures: u64,
    /// Pages currently quarantined after a failed physical read.
    pub quarantined: usize,
}

impl PoolStats {
    /// Fraction of page accesses served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

impl fix_obs::Reportable for PoolStats {
    /// Sets the `fix_pool_*` gauges (levels — re-reporting overwrites
    /// with the latest snapshot).
    fn report(&self, registry: &fix_obs::MetricsRegistry) {
        registry
            .gauge("fix_pool_capacity_pages")
            .set(self.capacity as i64);
        registry
            .gauge("fix_pool_resident_pages")
            .set(self.resident as i64);
        registry
            .gauge("fix_pool_pinned_pages")
            .set(self.pinned as i64);
        registry.gauge("fix_pool_hits").set(self.hits as i64);
        registry.gauge("fix_pool_misses").set(self.misses as i64);
        registry
            .gauge("fix_pool_evictions")
            .set(self.evictions as i64);
        registry.gauge("fix_pool_flushes").set(self.flushes as i64);
        registry
            .gauge("fix_pool_crc_failures")
            .set(self.crc_failures as i64);
        registry
            .gauge(fix_obs::names::POOL_QUARANTINED)
            .set(self.quarantined as i64);
    }
}

/// One resident page. The cell is shared between the pool's frame table
/// and any outstanding [`PageGuard`]s; the pin count is what keeps the
/// eviction sweep away while guards are alive.
struct FrameCell {
    tenant: u32,
    page: PageId,
    data: RwLock<Box<[u8]>>,
    pins: AtomicU32,
    dirty: AtomicBool,
    tick: AtomicU64,
}

struct Tenant {
    backend: Box<dyn StorageBackend>,
    stats: IoStats,
    last_miss: Option<PageId>,
    /// Expected per-page CRC32s (verified attach); updated on write-back
    /// so the table tracks what is actually on the backend.
    crcs: Option<Vec<u32>>,
}

struct Inner {
    tenants: Vec<Tenant>,
    frames: HashMap<(u32, PageId), Arc<FrameCell>>,
    tick: u64,
    evictions: u64,
    flushes: u64,
    crc_failures: u64,
    /// Pages whose physical read failed (I/O error or CRC mismatch).
    /// Later pins fail fast with [`StorageError::Corrupt`] instead of
    /// re-reading, so one bad page degrades only the operations that
    /// touch it. Cleared per page by [`PageSpace::clear_quarantine`]
    /// after a repair rewrites the backing store.
    quarantined: HashSet<(u32, PageId)>,
}

/// A shared LRU buffer pool over one or more [`StorageBackend`]s.
///
/// Create with [`BufferPool::shared`], then [`attach`](BufferPool::attach)
/// each backend to get a [`PageSpace`] handle — the page-space is what the
/// B+-tree and heap files hold. Multiple databases attached to one pool
/// compete for the same frame budget.
pub struct BufferPool {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Flight recorder for evictions and CRC failures; empty until
    /// [`BufferPool::attach_events`].
    events: OnceLock<Arc<EventRecorder>>,
}

impl BufferPool {
    /// Creates a pool with room for `capacity` pages, ready for tenants.
    pub fn shared(capacity: usize) -> Arc<Self> {
        assert!(capacity >= 1, "pool needs at least one frame");
        Arc::new(Self {
            inner: Mutex::new(Inner {
                tenants: Vec::new(),
                frames: HashMap::new(),
                tick: 0,
                evictions: 0,
                flushes: 0,
                crc_failures: 0,
                quarantined: HashSet::new(),
            }),
            capacity,
            events: OnceLock::new(),
        })
    }

    /// Attaches a flight recorder: evictions are narrated at `Debug`, CRC
    /// failures at `Error` (the retained list keeps the latter past ring
    /// churn). Call once; later calls are ignored.
    pub fn attach_events(&self, events: Arc<EventRecorder>) {
        let _ = self.events.set(events);
    }

    /// Attaches `backend` as a new tenant and returns its page space.
    pub fn attach(self: &Arc<Self>, backend: Box<dyn StorageBackend>) -> PageSpace {
        self.attach_inner(backend, None)
    }

    /// Attaches `backend` with a per-page CRC32 table; every physical read
    /// of page `p` is verified against `page_crcs[p]` and surfaces
    /// [`StorageError::Corrupt`] on mismatch.
    pub fn attach_verified(
        self: &Arc<Self>,
        backend: Box<dyn StorageBackend>,
        page_crcs: Vec<u32>,
    ) -> PageSpace {
        self.attach_inner(backend, Some(page_crcs))
    }

    fn attach_inner(
        self: &Arc<Self>,
        backend: Box<dyn StorageBackend>,
        crcs: Option<Vec<u32>>,
    ) -> PageSpace {
        let mut inner = self.inner.lock();
        let tenant = inner.tenants.len() as u32;
        inner.tenants.push(Tenant {
            backend,
            stats: IoStats::default(),
            last_miss: None,
            crcs,
        });
        PageSpace {
            pool: Arc::clone(self),
            tenant,
        }
    }

    /// Pool-wide statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock();
        let mut s = PoolStats {
            capacity: self.capacity,
            resident: inner.frames.len(),
            pinned: inner
                .frames
                .values()
                .filter(|f| f.pins.load(Ordering::Acquire) > 0)
                .count(),
            evictions: inner.evictions,
            flushes: inner.flushes,
            crc_failures: inner.crc_failures,
            quarantined: inner.quarantined.len(),
            ..PoolStats::default()
        };
        for t in &inner.tenants {
            s.hits += t.stats.hits;
            s.misses += t.stats.misses;
        }
        s
    }

    /// Writes every tenant's dirty pages back to its backend.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        let cells: Vec<Arc<FrameCell>> = inner.frames.values().map(Arc::clone).collect();
        for cell in cells {
            Self::write_back(&mut inner, &cell)?;
        }
        Ok(())
    }

    /// Writes `cell` back to its tenant's backend if dirty. Called with
    /// the inner lock held; safe because dirty data is only produced under
    /// a pin, and write-back targets are either unpinned (eviction) or
    /// quiesced by the caller (flush).
    fn write_back(inner: &mut Inner, cell: &FrameCell) -> Result<(), StorageError> {
        if !cell.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        let data = cell.data.read().expect("page lock poisoned");
        let tenant = &mut inner.tenants[cell.tenant as usize];
        tenant.backend.write_page(cell.page, &data)?;
        tenant.stats.writes += 1;
        inner.flushes += 1;
        if let Some(crcs) = &mut tenant.crcs {
            if let Some(slot) = crcs.get_mut(cell.page.0 as usize) {
                *slot = crc32(&data);
            }
        }
        Ok(())
    }

    /// Evicts least-recently-used unpinned frames until the pool is below
    /// capacity (or nothing more is evictable — with every frame pinned
    /// the pool overcommits rather than deadlocking).
    fn make_room(&self, inner: &mut Inner) -> Result<(), StorageError> {
        while inner.frames.len() >= self.capacity {
            let victim = inner
                .frames
                .values()
                .filter(|f| f.pins.load(Ordering::Acquire) == 0)
                .min_by_key(|f| f.tick.load(Ordering::Acquire))
                .map(Arc::clone);
            let Some(victim) = victim else {
                return Ok(()); // everything pinned: overcommit
            };
            let dirty = victim.dirty.load(Ordering::Acquire);
            Self::write_back(inner, &victim)?;
            inner.frames.remove(&(victim.tenant, victim.page));
            inner.evictions += 1;
            if let Some(events) = self.events.get() {
                if events.enabled() {
                    events.record(
                        Category::Pool,
                        Severity::Debug,
                        "pool.evict",
                        vec![
                            ("tenant", FieldValue::U64(victim.tenant as u64)),
                            ("page", FieldValue::U64(victim.page.0)),
                            ("dirty", FieldValue::Bool(dirty)),
                        ],
                    );
                }
            }
        }
        Ok(())
    }

    /// Marks `(tenant, id)` quarantined after a failed physical read and
    /// narrates it. Called with the inner lock held.
    fn quarantine(&self, inner: &mut Inner, tenant: u32, id: PageId, reason: &str) {
        if !inner.quarantined.insert((tenant, id)) {
            return;
        }
        if let Some(events) = self.events.get() {
            events.record(
                Category::Pool,
                Severity::Error,
                "pool.quarantine",
                vec![
                    ("tenant", FieldValue::U64(tenant as u64)),
                    ("page", FieldValue::U64(id.0)),
                    ("reason", FieldValue::Str(reason.to_string())),
                ],
            );
        }
    }

    fn pin_impl(&self, tenant: u32, id: PageId) -> Result<Arc<FrameCell>, StorageError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(cell) = inner.frames.get(&(tenant, id)) {
            let cell = Arc::clone(cell);
            cell.tick.store(tick, Ordering::Release);
            cell.pins.fetch_add(1, Ordering::AcqRel);
            inner.tenants[tenant as usize].stats.hits += 1;
            return Ok(cell);
        }
        // A quarantined page fails fast: its last physical read failed,
        // and retrying would at best re-read the same damage. Only the
        // operations that touch this page degrade; everything else keeps
        // serving.
        if inner.quarantined.contains(&(tenant, id)) {
            return Err(StorageError::Corrupt {
                page: id,
                detail: "page is quarantined (failed a previous read)".into(),
            });
        }
        // Miss: account, make room, do the physical read.
        {
            let t = &mut inner.tenants[tenant as usize];
            t.stats.misses += 1;
            if t.last_miss.map(|p| PageId(p.0 + 1)) != Some(id) {
                t.stats.random_reads += 1;
            }
            t.last_miss = Some(id);
        }
        self.make_room(&mut inner)?;
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        let crc_mismatch = {
            let t = &mut inner.tenants[tenant as usize];
            match t.backend.read_page(id, &mut buf) {
                Ok(()) => {}
                // An out-of-range id is a caller bug, not page damage —
                // quarantining it would mask the bug. I/O failures mean
                // the page itself could not be delivered: quarantine.
                Err(e @ StorageError::OutOfRange { .. }) => return Err(e),
                Err(e) => {
                    self.quarantine(&mut inner, tenant, id, "io_error");
                    return Err(e);
                }
            }
            match t.crcs.as_ref().and_then(|c| c.get(id.0 as usize)) {
                Some(&expect) if crc32(&buf) != expect => Some(expect),
                _ => None,
            }
        };
        if let Some(expect) = crc_mismatch {
            inner.crc_failures += 1;
            let got = crc32(&buf);
            if let Some(events) = self.events.get() {
                events.record(
                    Category::Pool,
                    Severity::Error,
                    "pool.crc_failure",
                    vec![
                        ("tenant", FieldValue::U64(tenant as u64)),
                        ("page", FieldValue::U64(id.0)),
                        ("stored_crc", FieldValue::U64(expect as u64)),
                        ("read_crc", FieldValue::U64(got as u64)),
                    ],
                );
            }
            self.quarantine(&mut inner, tenant, id, "crc_mismatch");
            return Err(StorageError::Corrupt {
                page: id,
                detail: format!("CRC mismatch (stored {expect:#010x}, got {got:#010x})"),
            });
        }
        let cell = Arc::new(FrameCell {
            tenant,
            page: id,
            data: RwLock::new(buf),
            pins: AtomicU32::new(1),
            dirty: AtomicBool::new(false),
            tick: AtomicU64::new(tick),
        });
        inner.frames.insert((tenant, id), Arc::clone(&cell));
        Ok(cell)
    }
}

/// One tenant's view of a shared [`BufferPool`]: a private page-id space
/// over its own [`StorageBackend`], competing with the pool's other
/// tenants for frames. Cloning the handle is cheap and shares the tenant.
#[derive(Clone)]
pub struct PageSpace {
    pool: Arc<BufferPool>,
    tenant: u32,
}

impl PageSpace {
    /// Convenience: a fresh single-tenant in-memory pool (tests and
    /// in-memory indexes).
    pub fn in_memory(capacity: usize) -> Self {
        BufferPool::shared(capacity).attach(Box::new(MemBackend::new()))
    }

    /// The shared pool this space lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Allocates a fresh zeroed page.
    ///
    /// # Panics
    /// Fail-stop on backend errors (e.g. the disk filling up mid-build);
    /// use [`PageSpace::try_allocate`] where the caller can surface the
    /// failure instead.
    pub fn allocate(&self) -> PageId {
        self.try_allocate()
            .expect("invariant: page allocation must succeed on this build path")
    }

    /// Allocates a fresh zeroed page, surfacing backend failures.
    pub fn try_allocate(&self) -> Result<PageId, StorageError> {
        let mut inner = self.pool.inner.lock();
        inner.tenants[self.tenant as usize].backend.allocate()
    }

    /// Number of pages in the underlying backend.
    pub fn num_pages(&self) -> u64 {
        self.pool.inner.lock().tenants[self.tenant as usize]
            .backend
            .num_pages()
    }

    /// Pins page `id` and returns its guard.
    ///
    /// # Panics
    /// Fail-stop on I/O errors or CRC verification failure; use
    /// [`PageSpace::try_pin`] to handle damage gracefully.
    pub fn pin(&self, id: PageId) -> PageGuard {
        self.try_pin(id).unwrap_or_else(|e| {
            panic!(
                "invariant: page {} must be readable on this path: {e}",
                id.0
            )
        })
    }

    /// Pins page `id`, surfacing backend and checksum failures.
    pub fn try_pin(&self, id: PageId) -> Result<PageGuard, StorageError> {
        let cell = self.pool.pin_impl(self.tenant, id)?;
        Ok(PageGuard { cell })
    }

    /// Runs `f` over an immutable view of page `id` (pinning it for the
    /// duration of the call).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        let guard = self.pin(id);
        let data = guard.data();
        f(&data)
    }

    /// Runs `f` over a mutable view of page `id`, marking it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let guard = self.pin(id);
        let mut data = guard.data_mut();
        f(&mut data)
    }

    /// Writes this tenant's dirty pages back to its backend.
    pub fn flush(&self) -> Result<(), StorageError> {
        let mut inner = self.pool.inner.lock();
        let cells: Vec<Arc<FrameCell>> = inner
            .frames
            .values()
            .filter(|c| c.tenant == self.tenant)
            .map(Arc::clone)
            .collect();
        for cell in cells {
            BufferPool::write_back(&mut inner, &cell)?;
        }
        Ok(())
    }

    /// Snapshot of this tenant's I/O counters.
    pub fn stats(&self) -> IoStats {
        self.pool.inner.lock().tenants[self.tenant as usize].stats
    }

    /// Resets this tenant's I/O counters (between experiment phases).
    pub fn reset_stats(&self) {
        let mut inner = self.pool.inner.lock();
        let t = &mut inner.tenants[self.tenant as usize];
        t.stats = IoStats::default();
        t.last_miss = None;
    }

    /// Pool-wide statistics (all tenants).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// This tenant's quarantined pages, ascending (pages whose physical
    /// read failed; see [`PageSpace::clear_quarantine`]).
    pub fn quarantined(&self) -> Vec<PageId> {
        let inner = self.pool.inner.lock();
        let mut pages: Vec<PageId> = inner
            .quarantined
            .iter()
            .filter(|(t, _)| *t == self.tenant)
            .map(|&(_, p)| p)
            .collect();
        pages.sort_by_key(|p| p.0);
        pages
    }

    /// Lifts the quarantine on `id` after a repair has rewritten its
    /// backing bytes — the next pin re-reads from the backend. Returns
    /// whether the page was quarantined.
    pub fn clear_quarantine(&self, id: PageId) -> bool {
        self.pool
            .inner
            .lock()
            .quarantined
            .remove(&(self.tenant, id))
    }
}

/// A pinned page. The underlying frame cannot be evicted while the guard
/// lives; borrow the bytes with [`PageGuard::data`] /
/// [`PageGuard::data_mut`].
pub struct PageGuard {
    cell: Arc<FrameCell>,
}

impl fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageGuard")
            .field("page", &self.cell.page)
            .finish()
    }
}

impl PageGuard {
    /// The pinned page's id.
    pub fn page(&self) -> PageId {
        self.cell.page
    }

    /// Immutable view of the page bytes.
    pub fn data(&self) -> PageRef<'_> {
        PageRef(self.cell.data.read().expect("page lock poisoned"))
    }

    /// Mutable view of the page bytes; marks the page dirty.
    pub fn data_mut(&self) -> PageRefMut<'_> {
        let guard = self.cell.data.write().expect("page lock poisoned");
        self.cell.dirty.store(true, Ordering::Release);
        PageRefMut(guard)
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.cell.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Shared borrow of a pinned page's bytes.
pub struct PageRef<'a>(RwLockReadGuard<'a, Box<[u8]>>);

impl Deref for PageRef<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Mutable borrow of a pinned page's bytes.
pub struct PageRefMut<'a>(RwLockWriteGuard<'a, Box<[u8]>>);

impl Deref for PageRefMut<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for PageRefMut<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_writes() {
        let pool = PageSpace::in_memory(4);
        let p = pool.allocate();
        pool.with_page_mut(p, |b| b[0..4].copy_from_slice(&[1, 2, 3, 4]));
        let v = pool.with_page(p, |b| b[0..4].to_vec());
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let pool = PageSpace::in_memory(2);
        let ids: Vec<_> = (0..5).map(|_| pool.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |b| b[0] = i as u8 + 10);
        }
        // All five pages were touched through a 2-frame pool; re-read them.
        for (i, &id) in ids.iter().enumerate() {
            let v = pool.with_page(id, |b| b[0]);
            assert_eq!(v, i as u8 + 10);
        }
        let s = pool.stats();
        assert!(s.misses >= 5, "{s:?}");
        assert!(s.writes >= 3, "{s:?}");
    }

    #[test]
    fn hits_are_counted() {
        let pool = PageSpace::in_memory(2);
        let p = pool.allocate();
        pool.with_page(p, |_| ());
        pool.with_page(p, |_| ());
        pool.with_page(p, |_| ());
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn sequential_vs_random_reads() {
        let pool = PageSpace::in_memory(1);
        let ids: Vec<_> = (0..4).map(|_| pool.allocate()).collect();
        // Sequential scan: 4 misses, only the first is "random".
        for &id in &ids {
            pool.with_page(id, |_| ());
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.random_reads, 1, "{s:?}");
        pool.reset_stats();
        // Reverse scan: the last page is still cached (hit); every other
        // access misses, and every miss is random.
        for &id in ids.iter().rev() {
            pool.with_page(id, |_| ());
        }
        let s = pool.stats();
        assert_eq!(s.hits, 1, "{s:?}");
        assert_eq!(s.misses, 3, "{s:?}");
        assert_eq!(s.random_reads, 3, "{s:?}");
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("fix-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        {
            let pool = BufferPool::shared(2).attach(Box::new(FileBackend::create(&path).unwrap()));
            let p0 = pool.allocate();
            let p1 = pool.allocate();
            pool.with_page_mut(p0, |b| b[100] = 42);
            pool.with_page_mut(p1, |b| b[200] = 43);
            pool.flush().unwrap();
        }
        {
            let pool = BufferPool::shared(2).attach(Box::new(FileBackend::open(&path).unwrap()));
            assert_eq!(pool.num_pages(), 2);
            assert_eq!(pool.with_page(PageId(0), |b| b[100]), 42);
            assert_eq!(pool.with_page(PageId(1), |b| b[200]), 43);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_evicts_the_coldest_page() {
        let pool = PageSpace::in_memory(2);
        let a = pool.allocate();
        let b = pool.allocate();
        let c = pool.allocate();
        pool.with_page(a, |_| ());
        pool.with_page(b, |_| ());
        pool.with_page(a, |_| ()); // a is now hotter than b
        pool.with_page(c, |_| ()); // should evict b
        pool.reset_stats();
        pool.with_page(a, |_| ());
        assert_eq!(pool.stats().hits, 1, "a must still be cached");
        pool.with_page(b, |_| ());
        assert_eq!(pool.stats().misses, 1, "b must have been evicted");
    }

    #[test]
    fn mem_backend_rejects_out_of_range_pages() {
        let mut be = MemBackend::new();
        be.allocate().unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        match be.read_page(PageId(7), &mut buf) {
            Err(StorageError::OutOfRange { page, pages }) => {
                assert_eq!(page, PageId(7));
                assert_eq!(pages, 1);
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        assert!(matches!(
            be.write_page(PageId(1), &buf),
            Err(StorageError::OutOfRange { .. })
        ));
        // In-range access still works.
        be.write_page(PageId(0), &buf).unwrap();
        be.read_page(PageId(0), &mut buf).unwrap();
    }

    #[test]
    fn out_of_range_surfaces_through_try_pin() {
        let pool = PageSpace::in_memory(2);
        pool.allocate();
        let err = pool.try_pin(PageId(9)).unwrap_err();
        assert!(matches!(err, StorageError::OutOfRange { .. }), "{err}");
        // The failed fetch must not leave a frame behind.
        assert_eq!(pool.pool_stats().resident, 0);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let pool = PageSpace::in_memory(2);
        let ids: Vec<_> = (0..6).map(|_| pool.allocate()).collect();
        pool.with_page_mut(ids[0], |b| b[7] = 99);
        let guard = pool.pin(ids[0]);
        // Sweep everything else through the 2-frame pool.
        for &id in &ids[1..] {
            pool.with_page(id, |_| ());
        }
        // The pinned page was never evicted: reading it is a hit, and its
        // dirty byte is still in the frame.
        pool.reset_stats();
        assert_eq!(guard.data()[7], 99);
        assert_eq!(pool.with_page(ids[0], |b| b[7]), 99);
        assert_eq!(pool.stats().misses, 0, "pinned page must stay resident");
        drop(guard);
        // Unpinned now: pressure can evict it again.
        for &id in &ids[1..] {
            pool.with_page(id, |_| ());
        }
        pool.reset_stats();
        pool.with_page(ids[0], |b| assert_eq!(b[7], 99));
        assert_eq!(pool.stats().misses, 1, "unpinned page is evictable");
    }

    #[test]
    fn eviction_order_is_lru_among_unpinned() {
        let pool = PageSpace::in_memory(3);
        let a = pool.allocate();
        let b = pool.allocate();
        let c = pool.allocate();
        let d = pool.allocate();
        pool.with_page(a, |_| ());
        pool.with_page(b, |_| ());
        pool.with_page(c, |_| ());
        // LRU order is now a < b < c. Pin `a` so the sweep must pick `b`.
        let guard = pool.pin(a);
        pool.with_page(d, |_| ()); // evicts b, not pinned a
        drop(guard);
        pool.reset_stats();
        pool.with_page(a, |_| ());
        pool.with_page(c, |_| ());
        assert_eq!(pool.stats().hits, 2, "a and c must still be resident");
        pool.with_page(b, |_| ());
        assert_eq!(pool.stats().misses, 1, "b was the eviction victim");
    }

    #[test]
    fn pool_stats_track_residency_and_pins() {
        let pool = PageSpace::in_memory(4);
        let ids: Vec<_> = (0..3).map(|_| pool.allocate()).collect();
        for &id in &ids {
            pool.with_page(id, |_| ());
        }
        let s = pool.pool_stats();
        assert_eq!(s.capacity, 4);
        assert_eq!(s.resident, 3);
        assert_eq!(s.pinned, 0);
        let g0 = pool.pin(ids[0]);
        let g1 = pool.pin(ids[1]);
        assert_eq!(pool.pool_stats().pinned, 2);
        drop((g0, g1));
        assert_eq!(pool.pool_stats().pinned, 0);
        assert_eq!(s.misses, 3);
        assert!(s.hit_rate() < 1.0);
    }

    #[test]
    fn two_tenants_share_one_pool() {
        let pool = BufferPool::shared(4);
        let a = pool.attach(Box::new(MemBackend::new()));
        let b = pool.attach(Box::new(MemBackend::new()));
        let pa = a.allocate();
        let pb = b.allocate();
        // Same page id, different tenants: the frames must not alias.
        assert_eq!(pa, pb);
        a.with_page_mut(pa, |buf| buf[0] = 1);
        b.with_page_mut(pb, |buf| buf[0] = 2);
        assert_eq!(a.with_page(pa, |buf| buf[0]), 1);
        assert_eq!(b.with_page(pb, |buf| buf[0]), 2);
        // Both tenants' pages count against one budget.
        assert_eq!(pool.stats().resident, 2);
        // Per-tenant counters stay separate.
        assert_eq!(a.stats().misses, 1);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn shared_pool_capacity_bounds_both_tenants() {
        let pool = BufferPool::shared(2);
        let a = pool.attach(Box::new(MemBackend::new()));
        let b = pool.attach(Box::new(MemBackend::new()));
        for _ in 0..4 {
            a.allocate();
            b.allocate();
        }
        for i in 0..4u64 {
            a.with_page(PageId(i), |_| ());
            b.with_page(PageId(i), |_| ());
        }
        let s = pool.stats();
        assert!(s.resident <= 2, "{s:?}");
        assert!(s.evictions >= 6, "{s:?}");
    }

    #[test]
    fn verified_attach_rejects_corrupt_pages() {
        let dir = std::env::temp_dir().join(format!("fix-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let mut crcs = Vec::new();
        {
            let pool = BufferPool::shared(4).attach(Box::new(FileBackend::create(&path).unwrap()));
            for i in 0..3u8 {
                let p = pool.allocate();
                pool.with_page_mut(p, |b| b[0] = i + 1);
            }
            pool.flush().unwrap();
            for i in 0..3u64 {
                crcs.push(pool.with_page(PageId(i), crc32));
            }
        }
        // Flip a byte in page 1 on disk.
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[0xFF], PAGE_SIZE as u64 + 17).unwrap();
        }
        let pool = BufferPool::shared(4)
            .attach_verified(Box::new(FileBackend::open(&path).unwrap()), crcs);
        assert_eq!(pool.with_page(PageId(0), |b| b[0]), 1);
        assert_eq!(pool.with_page(PageId(2), |b| b[0]), 3);
        let err = pool.try_pin(PageId(1)).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { page, .. } if page == PageId(1)),
            "{err}"
        );
        assert_eq!(pool.pool_stats().crc_failures, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc_failure_quarantines_until_cleared() {
        let dir = std::env::temp_dir().join(format!("fix-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let mut crcs = Vec::new();
        {
            let pool = BufferPool::shared(4).attach(Box::new(FileBackend::create(&path).unwrap()));
            for i in 0..2u8 {
                let p = pool.allocate();
                pool.with_page_mut(p, |b| b[0] = i + 1);
            }
            pool.flush().unwrap();
            for i in 0..2u64 {
                crcs.push(pool.with_page(PageId(i), crc32));
            }
        }
        // Damage page 1 on disk.
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[0xFF], PAGE_SIZE as u64 + 9).unwrap();
        }
        let pool = BufferPool::shared(4)
            .attach_verified(Box::new(FileBackend::open(&path).unwrap()), crcs.clone());
        assert!(pool.try_pin(PageId(1)).is_err());
        assert_eq!(pool.quarantined(), vec![PageId(1)]);
        assert_eq!(pool.pool_stats().quarantined, 1);
        // Fail-fast now: no second physical read, no second CRC failure.
        let before = pool.pool_stats().crc_failures;
        let err = pool.try_pin(PageId(1)).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        assert_eq!(pool.pool_stats().crc_failures, before);
        // The undamaged page is unaffected.
        assert_eq!(pool.with_page(PageId(0), |b| b[0]), 1);
        // Repair the bytes on disk, lift the quarantine: reads work again.
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[0x00], PAGE_SIZE as u64 + 9).unwrap();
            let mut page = vec![0u8; PAGE_SIZE];
            page[0] = 2;
            assert_eq!(crc32(&page), crcs[1], "test rebuilt the original page");
        }
        assert!(pool.clear_quarantine(PageId(1)));
        assert_eq!(pool.with_page(PageId(1), |b| b[0]), 2);
        assert_eq!(pool.pool_stats().quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_read_fault_surfaces_and_quarantines() {
        let dir = std::env::temp_dir().join(format!("fix-rfault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        {
            let pool = BufferPool::shared(4).attach(Box::new(FileBackend::create(&path).unwrap()));
            let p = pool.allocate();
            pool.with_page_mut(p, |b| b[0] = 7);
            pool.flush().unwrap();
        }
        let pool = BufferPool::shared(4).attach(Box::new(FileBackend::open(&path).unwrap()));
        crate::fault::set_read_fault(Some(crate::fault::ReadFaultPlan::new(
            0,
            crate::fault::ReadFaultKind::Error,
        )));
        let err = pool.try_pin(PageId(0)).unwrap_err();
        crate::fault::set_read_fault(None);
        assert!(matches!(err, StorageError::Io(_)), "{err}");
        assert_eq!(pool.quarantined(), vec![PageId(0)]);
        // Out-of-range ids never quarantine (caller bug, not damage).
        assert!(pool.try_pin(PageId(99)).is_err());
        assert_eq!(pool.quarantined().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_errors_display() {
        let e = StorageError::OutOfRange {
            page: PageId(9),
            pages: 3,
        };
        assert_eq!(e.to_string(), "page 9 out of range (backend has 3)");
        let e = StorageError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }
}
