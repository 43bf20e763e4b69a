//! [`FixDatabase`] — the one-stop facade over collection, index, and
//! persistence.
//!
//! The lower-level pieces ([`Collection`], [`FixIndex`], the persist
//! module) stay public for experiments that need to hold them apart, but
//! applications should only ever need this:
//!
//! ```
//! use fix_core::{FixDatabase, FixOptions};
//!
//! let mut db = FixDatabase::in_memory();
//! db.add_xml("<bib><article><author/><ee/></article></bib>")?;
//! db.add_xml("<bib><book><author/></book></bib>")?;
//! db.build(FixOptions::builder().threads(2).build())?;
//! let out = db.query("//article[author]/ee")?;
//! assert_eq!(out.results.len(), 1);
//! # Ok::<(), fix_core::FixError>(())
//! ```
//!
//! # Snapshots and concurrency
//!
//! Collection and index live behind [`Arc`], so
//! [`FixDatabase::session`] can hand out [`QuerySession`] snapshots that
//! serve queries from any number of threads while the database itself
//! stays usable for read-side admin work (more queries, [`save`], stats).
//! Mutations (`write`, `add_xml`, `remove_document`) need exclusive
//! ownership and return [`FixError::SnapshotInUse`] while sessions are
//! alive; [`vacuum`] instead swaps in a *new* snapshot pair, leaving live
//! sessions on the old (still consistent) one.
//!
//! # The write path
//!
//! Mutations on a path-bound, indexed database are durable without
//! rewriting the file: [`FixDatabase::write`] commits a [`WriteBatch`]
//! as **one** record in a write-ahead log beside the database file
//! (`<db>.wal/`), then applies it in memory — `add_xml` and
//! `remove_document` are one-op batches. [`FixOptions::durability`]
//! decides when the commit is fsynced (every commit, batched in the
//! background, or left to the OS — see
//! [`Durability`]). `open` replays whatever the
//! log holds, so a crash or an exit without [`save`] loses nothing that
//! the durability policy promised to keep. [`save`] doubles as the
//! checkpoint: it writes the full image and truncates the log.
//! Structural operations that are *not* logged ([`build`],
//! [`FixDatabase::vacuum`]) leave the log unable to extend the old
//! image, so the next `write` checkpoints first — nothing is lost, one
//! save is paid at the next mutation instead of inside the structural op.
//!
//! [`save`]: FixDatabase::save
//! [`build`]: FixDatabase::build
//! [`vacuum`]: FixDatabase::vacuum

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fix_obs::{
    names, Category, Event, EventRecorder, FieldValue, MetricsRegistry, Reportable, Severity, Stage,
};
use fix_storage::{wal_dir, Durability, FaultPlan, Wal, WalStats};

use crate::batch::{WriteBatch, WriteOp};
use crate::builder::{BuildStats, FixIndex};
use crate::collection::{Collection, DocId};
use crate::error::FixError;
use crate::options::FixOptions;
use crate::persist::VerifyReport;
use crate::query::{QueryHits, QueryOutcome};
use crate::session::QuerySession;

/// `wal_stale_reason` value: no image has been checkpointed yet.
const STALE_NO_IMAGE: u8 = 0;
/// `wal_stale_reason` value: an un-logged structural change
/// (`build`, `vacuum`) outdated the image.
const STALE_STRUCTURAL: u8 = 1;
/// `wal_stale_reason` value: a WAL append failed and poisoned the log.
const STALE_APPEND_FAILED: u8 = 2;

/// A FIX database: a document collection plus (once built or loaded) its
/// index, optionally bound to a file path for persistence.
pub struct FixDatabase {
    path: Option<PathBuf>,
    coll: Arc<Collection>,
    index: Option<Arc<FixIndex>>,
    /// The database's metrics registry; sessions created via
    /// [`FixDatabase::session`] record into it.
    metrics: Arc<MetricsRegistry>,
    /// Max element nesting accepted by [`FixDatabase::add_xml`] before an
    /// index exists (afterwards the index options govern). Set from
    /// [`FixOptions::max_parse_depth`] on build/open.
    parse_depth: usize,
    /// The write-ahead log, once the first durable write engages it
    /// (path-bound + indexed databases only).
    wal: Option<Wal>,
    /// True ⇔ the in-memory state equals the saved image plus the WAL's
    /// records, i.e. the log is allowed to keep extending that image.
    /// Cleared by un-logged structural changes (`build`, `vacuum`) and
    /// by WAL append failures; the next `write` checkpoints first.
    /// Atomic only so `save(&self)` can set it.
    wal_extends_image: AtomicBool,
    /// Why `wal_extends_image` is false (one of the `STALE_*` values) —
    /// flight-recorder narration for the checkpoint the next write runs.
    /// Only meaningful while the flag is false.
    wal_stale_reason: AtomicU8,
    /// The flight recorder: a bounded ring of structured engine events
    /// shared with the WAL and the buffer pool (see `DESIGN.md` §16).
    events: Arc<EventRecorder>,
    /// Current durability policy (seeded from [`FixOptions::durability`]
    /// at build, adjustable at runtime via
    /// [`FixDatabase::set_durability`]).
    durability: Durability,
    /// WAL segment seal threshold, from [`FixOptions::wal_seal_bytes`].
    wal_seal_bytes: u64,
    /// Deterministic WAL write fault for crash testing; applied to the
    /// log when it is (re)created and forwarded when already live.
    wal_fault: Option<FaultPlan>,
    /// Set when a write-side disk-full failure flipped the database into
    /// read-only degradation: mutations fail fast with
    /// [`FixError::ReadOnly`] carrying this cause while queries keep
    /// serving; [`FixDatabase::try_resume`] clears it once space is
    /// back. Behind a mutex only because `save(&self)` can set it.
    read_only: Mutex<Option<String>>,
}

/// What [`FixDatabase::repair`] did: the quarantine it answered and the
/// shape of the rebuilt snapshot.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Pages the buffer pool had quarantined when repair started.
    pub quarantined_before: u64,
    /// Documents re-serialized through their primary pages.
    pub documents: usize,
    /// Tombstones carried over unchanged.
    pub tombstones: usize,
    /// Index entries in the rebuilt base tree.
    pub entries: u64,
    /// Whether the repaired image was checkpointed to the bound path
    /// (false only for an unbound, in-memory database).
    pub checkpointed: bool,
    /// Wall time of the rebuild (excluding the checkpoint).
    pub wall: std::time::Duration,
}

impl std::fmt::Display for RepairReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "repaired {} quarantined page(s): rebuilt {} entries from {} document(s) ({} tombstoned), image {}",
            self.quarantined_before,
            self.entries,
            self.documents,
            self.tombstones,
            if self.checkpointed {
                "checkpointed"
            } else {
                "not checkpointed (no bound path)"
            }
        )
    }
}

impl FixDatabase {
    /// Assembles a database around already-wrapped parts, seeding the
    /// write-path policy knobs from the index's options (or the
    /// collection defaults when no index exists yet).
    fn assemble(
        path: Option<PathBuf>,
        coll: Arc<Collection>,
        index: Option<Arc<FixIndex>>,
        metrics: Arc<MetricsRegistry>,
        parse_depth: usize,
        wal_extends_image: bool,
    ) -> Self {
        let defaults;
        let o = match index.as_deref() {
            Some(i) => i.options(),
            None => {
                defaults = FixOptions::collection();
                &defaults
            }
        };
        let (durability, wal_seal_bytes) = (o.durability, o.wal_seal_bytes);
        let events = EventRecorder::shared(o.event_capacity);
        events.set_slow_threshold_ns(o.slow_op_ns);
        if let Some(i) = index.as_deref() {
            i.pool.pool().attach_events(events.clone());
        }
        Self {
            path,
            coll,
            index,
            metrics,
            parse_depth,
            wal: None,
            wal_extends_image: AtomicBool::new(wal_extends_image),
            wal_stale_reason: AtomicU8::new(STALE_NO_IMAGE),
            events,
            durability,
            wal_seal_bytes,
            wal_fault: None,
            read_only: Mutex::new(None),
        }
    }

    /// Creates an empty, unbound in-memory database.
    pub fn in_memory() -> Self {
        Self::assemble(
            None,
            Arc::new(Collection::new()),
            None,
            Arc::new(MetricsRegistry::new()),
            fix_xml::DEFAULT_MAX_DEPTH,
            false,
        )
    }

    /// Opens the database file at `path`, loading it if it exists or
    /// starting empty (bound to that path, so [`FixDatabase::save`] knows
    /// where to write) if it does not.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, FixError> {
        Self::open_inner(path.as_ref(), None)
    }

    /// [`FixDatabase::open`] attaching a paged file's pages to an existing
    /// shared [`BufferPool`](fix_storage::BufferPool) — several open
    /// databases then compete for the
    /// same bounded frame budget instead of each holding its own. Opening
    /// an in-memory-format (v3/v2) file this way simply ignores the pool.
    pub fn open_shared(
        path: impl AsRef<Path>,
        pool: &Arc<fix_storage::BufferPool>,
    ) -> Result<Self, FixError> {
        Self::open_inner(path.as_ref(), Some(pool))
    }

    fn open_inner(
        path: &Path,
        pool: Option<&Arc<fix_storage::BufferPool>>,
    ) -> Result<Self, FixError> {
        let metrics = Arc::new(MetricsRegistry::new());
        let existed = path.exists();
        let mut load_ns = 0u64;
        let mut load_bytes = 0u64;
        let (coll, index) = if existed {
            let start = Instant::now();
            // `bytes` is what open physically read: the whole file for
            // v3/v2, just the superblock + metadata tail for paged (v4)
            // files — the counter shows paged cold-start cost directly.
            let (c, i, bytes) = crate::persist::load_any(path, pool)?;
            metrics
                .histogram(names::PERSIST_LOAD_NS)
                .record_duration(start.elapsed());
            metrics.counter(names::PERSIST_BYTES_READ).add(bytes);
            load_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            load_bytes = bytes;
            (c, Some(Arc::new(i)))
        } else {
            (Collection::new(), None)
        };
        let parse_depth = index
            .as_deref()
            .map(|i| i.options().max_parse_depth)
            .unwrap_or(fix_xml::DEFAULT_MAX_DEPTH);
        // A loaded image *is* what the log (if any) extends; a fresh path
        // has no image, so the first write checkpoints one first.
        let mut db = Self::assemble(
            Some(path.to_path_buf()),
            Arc::new(coll),
            index,
            metrics,
            parse_depth,
            existed,
        );
        if db.events.enabled() {
            if existed {
                db.events.record_span(
                    Category::Persist,
                    Severity::Info,
                    "open",
                    load_ns,
                    vec![
                        ("bytes", FieldValue::U64(load_bytes)),
                        ("documents", FieldValue::U64(db.len() as u64)),
                    ],
                );
            } else {
                db.events.record(
                    Category::Persist,
                    Severity::Info,
                    "open",
                    vec![("created", FieldValue::Bool(true))],
                );
            }
        }
        if existed && db.index.is_some() && wal_dir(path).is_dir() {
            db.replay_wal(path)?;
        }
        Ok(db)
    }

    /// Crash recovery: replays the WAL beside `path` onto the
    /// just-loaded image, re-creating the pre-crash logical state —
    /// same documents, tombstones, and query answers. Delta seal points
    /// are honored, so the tier layout is re-created too; it matches the
    /// writer's exactly when the writer ran with the default compaction
    /// policy (`compact_ratio`/`tier_fanout` are process policy, not
    /// persisted, so replay applies the loaded defaults).
    fn replay_wal(&mut self, path: &Path) -> Result<(), FixError> {
        let token = fix_storage::db_token(path)?;
        let (wal, segments) =
            Wal::recover(&wal_dir(path), token, self.durability, self.wal_seal_bytes)?;
        wal.attach_obs(&self.metrics, self.events.clone());
        if self.events.enabled() {
            let r = wal.recovery();
            if r.stale_discarded {
                self.events.record(
                    Category::Recovery,
                    Severity::Warn,
                    "recovery.token_mismatch",
                    vec![("wiped_segments", FieldValue::U64(r.wiped_segments))],
                );
            }
            if r.torn_tail {
                self.events.record(
                    Category::Recovery,
                    Severity::Warn,
                    "recovery.torn_tail",
                    vec![("truncated_bytes", FieldValue::U64(r.torn_bytes))],
                );
            }
        }
        let t0 = Instant::now();
        let mut replayed = 0u64;
        let mut sealed = 0u64;
        for seg in &segments {
            for rec in &seg.records {
                let batch = WriteBatch::decode(rec).map_err(|detail| FixError::Corrupt {
                    section: "wal".into(),
                    detail,
                })?;
                self.apply_ops(batch.ops())?;
                replayed += 1;
            }
            if seg.sealed {
                sealed += 1;
                let detail = self
                    .index
                    .as_mut()
                    .and_then(Arc::get_mut)
                    .and_then(FixIndex::seal_delta_detailed);
                if let Some(detail) = detail {
                    self.note_seal(&detail);
                }
            }
        }
        if self.events.enabled() {
            self.events.record_span(
                Category::Recovery,
                Severity::Info,
                "recovery.replay",
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                vec![
                    ("records", FieldValue::U64(replayed)),
                    ("segments", FieldValue::U64(segments.len() as u64)),
                    ("sealed_segments", FieldValue::U64(sealed)),
                ],
            );
        }
        self.metrics.counter(names::WAL_REPLAYED).add(replayed);
        self.wal = Some(wal);
        self.report_wal_metrics();
        Ok(())
    }

    /// Wraps an already-constructed collection/index pair (escape hatch
    /// for experiment code that built the parts by hand).
    pub fn from_parts(coll: Collection, index: Option<FixIndex>) -> Self {
        let parse_depth = index
            .as_ref()
            .map(|i| i.options().max_parse_depth)
            .unwrap_or(fix_xml::DEFAULT_MAX_DEPTH);
        Self::assemble(
            None,
            Arc::new(coll),
            index.map(Arc::new),
            Arc::new(MetricsRegistry::new()),
            parse_depth,
            false,
        )
    }

    /// Tears the database back into its parts. Fails with
    /// [`FixError::SnapshotInUse`] while [`QuerySession`] snapshots are
    /// alive, because the parts would no longer be exclusively owned.
    pub fn into_parts(self) -> Result<(Collection, Option<FixIndex>), FixError> {
        let coll = Arc::try_unwrap(self.coll).map_err(|_| FixError::SnapshotInUse)?;
        let index = match self.index {
            None => None,
            Some(i) => Some(Arc::try_unwrap(i).map_err(|_| FixError::SnapshotInUse)?),
        };
        Ok((coll, index))
    }

    /// Adds one XML document — a one-op [`WriteBatch`] through
    /// [`FixDatabase::write`]. Before [`FixDatabase::build`] this only
    /// grows the collection; afterwards the document is feature-extracted
    /// into the index's delta (durably, via the WAL, when the database is
    /// path-bound), and when the delta has grown past
    /// [`FixOptions::compact_ratio`] × the base tree it is folded into
    /// the base automatically (the explicit trigger is
    /// [`FixDatabase::compact`]).
    pub fn add_xml(&mut self, xml: &str) -> Result<DocId, FixError> {
        let mut batch = WriteBatch::new();
        batch.add_xml(xml);
        let ids = self.write(batch)?;
        Ok(ids[0])
    }

    /// Commits an atomic batch of mutations and returns the ids assigned
    /// to its adds, in batch order.
    ///
    /// The batch is validated up front (XML parses within the depth
    /// limit, removed ids exist) and rejected whole on the first problem
    /// — nothing is logged or applied. On a path-bound, indexed database
    /// the batch is then appended to the write-ahead log as one record
    /// (made durable per [`FixDatabase::durability`]) before being
    /// applied in memory, so it survives a crash without a full
    /// [`FixDatabase::save`]; crash recovery replays it all or not at
    /// all. Before [`FixDatabase::build`], only adds are accepted
    /// (removes need an index) and they go straight into the collection.
    pub fn write(&mut self, batch: WriteBatch) -> Result<Vec<DocId>, FixError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        self.check_writable()?;
        if self.index.is_none() {
            return self.write_unindexed(&batch);
        }
        // Exclusivity probe *before* touching the log: a snapshot in use
        // must not leave a logged-but-unapplied record behind.
        {
            let idx = self.index.as_mut().expect("checked above");
            Arc::get_mut(idx).ok_or(FixError::SnapshotInUse)?;
            Arc::get_mut(&mut self.coll).ok_or(FixError::SnapshotInUse)?;
        }
        let ops = batch.ops().len() as u64;
        let t0 = Instant::now();
        self.validate(&batch)?;
        let validate_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t_wal = Instant::now();
        let sealed = if self.path.is_some() {
            self.commit_to_wal(&batch)?
        } else {
            false
        };
        let wal_ns = u64::try_from(t_wal.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ids = self.apply_ops(batch.ops())?;
        if self.events.enabled() {
            // One event per commit (not one per phase) keeps the recorder
            // inside the write path's overhead budget; the phases ride
            // along as payload fields.
            self.events.record_span(
                Category::Commit,
                Severity::Info,
                "commit",
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                vec![
                    ("ops", FieldValue::U64(ops)),
                    ("validate_ns", FieldValue::U64(validate_ns)),
                    ("wal_ns", FieldValue::U64(wal_ns)),
                    ("sealed", FieldValue::Bool(sealed)),
                ],
            );
        }
        if sealed {
            // The record that filled the WAL segment is the last one in
            // it; replay seals the delta right after applying it, so the
            // live path must too for the tier layout to match.
            let detail = self
                .index
                .as_mut()
                .and_then(Arc::get_mut)
                .and_then(FixIndex::seal_delta_detailed);
            if let Some(detail) = detail {
                self.note_seal(&detail);
            }
        }
        self.report_wal_metrics();
        Ok(ids)
    }

    /// The pre-build arm of [`FixDatabase::write`]: adds go straight into
    /// the collection (there is no index to log against yet; `build` +
    /// `save` establish the first durable image), removes are rejected.
    fn write_unindexed(&mut self, batch: &WriteBatch) -> Result<Vec<DocId>, FixError> {
        if batch
            .ops()
            .iter()
            .any(|op| matches!(op, WriteOp::Remove(_)))
        {
            return Err(FixError::NoIndex);
        }
        self.validate(batch)?;
        let depth = self.parse_depth;
        let coll = Arc::get_mut(&mut self.coll).ok_or(FixError::SnapshotInUse)?;
        let mut ids = Vec::new();
        for op in batch.ops() {
            let WriteOp::AddXml(xml) = op else {
                unreachable!("removes rejected above")
            };
            ids.push(coll.add_xml_limited(xml, depth)?);
        }
        Ok(ids)
    }

    /// Rejects a batch that could fail partway through application:
    /// every add must parse within the depth limit, every remove must
    /// name a document that exists (counting adds earlier in the batch).
    fn validate(&self, batch: &WriteBatch) -> Result<(), FixError> {
        let depth = self
            .index
            .as_deref()
            .map(|i| i.options().max_parse_depth)
            .unwrap_or(self.parse_depth);
        let mut next_id = self.coll.len() as u32;
        for op in batch.ops() {
            match op {
                WriteOp::AddXml(xml) => {
                    let mut labels = fix_xml::LabelTable::new();
                    fix_xml::parse_document_limited(xml, &mut labels, depth)?;
                    next_id += 1;
                }
                WriteOp::Remove(doc) => {
                    if doc.0 >= next_id {
                        return Err(FixError::NoSuchDocument { doc: doc.0 });
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a validated batch's operations in order — the one code
    /// path shared by live writes and WAL replay, so both evolve the
    /// index (including automatic compaction decisions) identically.
    fn apply_ops(&mut self, ops: &[WriteOp]) -> Result<Vec<DocId>, FixError> {
        let mut ids = Vec::new();
        for op in ops {
            {
                let idx = self.index.as_mut().ok_or(FixError::NoIndex)?;
                let idx_mut = Arc::get_mut(idx).ok_or(FixError::SnapshotInUse)?;
                match op {
                    WriteOp::AddXml(xml) => {
                        let coll = Arc::get_mut(&mut self.coll).ok_or(FixError::SnapshotInUse)?;
                        ids.push(idx_mut.insert_xml(coll, xml)?);
                    }
                    WriteOp::Remove(doc) => idx_mut.remove_document(*doc),
                }
            }
            self.maybe_auto_compact();
        }
        self.report_delta_gauges();
        Ok(ids)
    }

    /// Folds the delta into the base when it has outgrown
    /// [`FixOptions::compact_ratio`]. Checked after every applied op —
    /// live and replayed alike — so recovery reproduces the same
    /// compaction points.
    fn maybe_auto_compact(&mut self) {
        let Some(idx) = self.index.as_mut() else {
            return;
        };
        let Some(idx_mut) = Arc::get_mut(idx) else {
            return;
        };
        let ratio = idx_mut.options().compact_ratio;
        let (base, delta) = (idx_mut.btree_stats().entries, idx_mut.delta_len());
        if ratio > 0.0 && delta > 0 && delta as f64 >= ratio * base as f64 {
            let start = Instant::now();
            let compacted = idx_mut.compact();
            *idx = Arc::new(compacted);
            self.attach_index_events();
            self.note_compaction(start.elapsed(), delta);
        }
    }

    /// Ensures the log can extend the on-disk image (checkpointing if it
    /// cannot), lazily engages it, and appends the batch as one record.
    /// Returns whether the append sealed the tail segment.
    fn commit_to_wal(&mut self, batch: &WriteBatch) -> Result<bool, FixError> {
        let path = self.path.clone().expect("caller checked path.is_some()");
        if !self.wal_extends_image.load(Ordering::Acquire) {
            // The image on disk (if any) does not reflect some un-logged
            // change (build, vacuum, a failed append). Write a fresh
            // image first; save_to also rebases/invalidates the log.
            let reason = self.stale_reason_name();
            let t0 = Instant::now();
            self.save_to(&path)?;
            if self.events.enabled() {
                self.events.record_span(
                    Category::Persist,
                    Severity::Info,
                    "checkpoint",
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    vec![("reason", FieldValue::Str(reason.into()))],
                );
            }
        }
        if self.wal.is_none() {
            let token = fix_storage::db_token(&path)?;
            let (wal, _stale) =
                Wal::recover(&wal_dir(&path), token, self.durability, self.wal_seal_bytes)?;
            wal.attach_obs(&self.metrics, self.events.clone());
            // Anything recover salvaged is already part of the image (or
            // predates it): this database's in-memory state was not built
            // from those records, so force the log empty before use.
            if !wal.is_empty() {
                let token = token.expect("image exists: checkpointed above or loaded");
                wal.rebase(token)?;
            }
            wal.set_fault(self.wal_fault.take());
            self.wal = Some(wal);
        }
        let wal = self.wal.as_ref().expect("just engaged");
        match wal.append(&batch.encode()) {
            Ok(outcome) => Ok(outcome.sealed),
            Err(e) => {
                // The tail may hold a torn record now. Recovery truncates
                // torn tails, so the on-disk state is still image + the
                // previously committed records — consistent with memory,
                // since this batch was not applied. Stop extending the
                // log; the next write checkpoints and starts a fresh one.
                if self.events.enabled() {
                    self.events.record(
                        Category::Wal,
                        Severity::Warn,
                        "wal.append_failed",
                        vec![("error", FieldValue::Str(e.to_string()))],
                    );
                }
                self.wal = None;
                self.wal_extends_image.store(false, Ordering::Release);
                self.wal_stale_reason
                    .store(STALE_APPEND_FAILED, Ordering::Release);
                Err(self.note_write_failure("WAL append", e))
            }
        }
    }

    /// Folds the index's delta run into its base B+-tree. Like
    /// [`FixDatabase::vacuum`], this *replaces* the snapshot rather than
    /// mutating it, so it works with live sessions — they keep serving the
    /// pre-compaction snapshot (which answers identically; compaction
    /// changes layout, not results).
    pub fn compact(&mut self) -> Result<(), FixError> {
        let idx = self.index.as_ref().ok_or(FixError::NoIndex)?;
        let entries = idx.delta_len();
        let start = Instant::now();
        let compacted = idx.compact();
        self.index = Some(Arc::new(compacted));
        self.attach_index_events();
        self.note_compaction(start.elapsed(), entries);
        self.report_delta_gauges();
        Ok(())
    }

    /// Records one compaction in the registry and the flight recorder.
    fn note_compaction(&self, wall: std::time::Duration, entries_folded: u64) {
        self.metrics.counter(names::DELTA_COMPACTIONS).add(1);
        self.metrics
            .histogram(names::DELTA_COMPACT_NS)
            .record_duration(wall);
        if self.events.enabled() {
            self.events.record_span(
                Category::Compact,
                Severity::Info,
                "compact",
                u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                vec![("entries_folded", FieldValue::U64(entries_folded))],
            );
        }
    }

    /// Narrates one delta freeze in the flight recorder: the L0 freeze
    /// itself plus each size-tier cascade merge it triggered.
    fn note_seal(&self, detail: &crate::delta::SealDetail) {
        if !self.events.enabled() {
            return;
        }
        self.events.record(
            Category::Tier,
            Severity::Info,
            "tier.freeze",
            vec![("entries", FieldValue::U64(detail.entries))],
        );
        for m in &detail.merges {
            self.events.record_span(
                Category::Tier,
                Severity::Info,
                "tier.merge",
                m.wall_ns,
                vec![
                    ("level", FieldValue::U64(m.level as u64)),
                    ("runs_in", FieldValue::U64(m.runs_in as u64)),
                    ("entries", FieldValue::U64(m.entries)),
                ],
            );
        }
    }

    /// Re-points the (possibly re-created) index's buffer pool at this
    /// database's flight recorder. Called wherever a fresh [`FixIndex`]
    /// (and thus a fresh pool) replaces the current one.
    fn attach_index_events(&self) {
        if let Some(idx) = self.index.as_deref() {
            idx.pool.pool().attach_events(self.events.clone());
        }
    }

    /// Refreshes the delta size gauges after a delta transition (insert
    /// or compaction).
    fn report_delta_gauges(&self) {
        if let Some(idx) = self.index.as_deref() {
            let d = idx.delta_stats();
            self.metrics
                .gauge(names::DELTA_ENTRIES)
                .set(d.entries as i64);
            self.metrics.gauge(names::DELTA_BYTES).set(d.bytes as i64);
        }
    }

    /// Builds (or rebuilds) the index over the current collection with an
    /// in-memory page pool. Returns the construction statistics.
    pub fn build(&mut self, opts: FixOptions) -> Result<&BuildStats, FixError> {
        if Arc::get_mut(&mut self.coll).is_none() {
            return Err(FixError::SnapshotInUse);
        }
        self.adopt_write_policy(&opts);
        let coll = Arc::get_mut(&mut self.coll).expect("probed above");
        let idx = FixIndex::build(coll, opts);
        self.index = Some(Arc::new(idx));
        self.attach_index_events();
        self.invalidate_wal_base();
        self.report_metrics();
        Ok(self.stats().expect("index was just built"))
    }

    /// Adopts the write-path policy knobs of a (re)build's options.
    fn adopt_write_policy(&mut self, opts: &FixOptions) {
        self.parse_depth = opts.max_parse_depth;
        self.durability = opts.durability;
        self.wal_seal_bytes = opts.wal_seal_bytes;
        if let Some(wal) = self.wal.as_ref() {
            wal.set_durability(opts.durability);
        }
        self.events.set_slow_threshold_ns(opts.slow_op_ns);
        if opts.event_capacity != self.events.capacity() {
            // Ring capacity is fixed at construction, so a capacity change
            // means a fresh recorder. Components attach lazily (the WAL on
            // its next engagement, the pool right after the rebuild that
            // brought the new options), so new events land in the new ring.
            self.events = EventRecorder::shared(opts.event_capacity);
            self.events.set_slow_threshold_ns(opts.slow_op_ns);
        }
    }

    /// Marks the on-disk image as no longer current after an un-logged
    /// structural change ([`build`](Self::build), [`vacuum`](Self::vacuum)).
    /// The log (if engaged) still extends the *old* image — both stay on
    /// disk untouched, so a crash now recovers the pre-change state; the
    /// next [`write`](Self::write) checkpoints the new one first.
    fn invalidate_wal_base(&self) {
        self.wal_extends_image.store(false, Ordering::Release);
        self.wal_stale_reason
            .store(STALE_STRUCTURAL, Ordering::Release);
    }

    /// The human name of the current `wal_stale_reason` value.
    fn stale_reason_name(&self) -> &'static str {
        match self.wal_stale_reason.load(Ordering::Acquire) {
            STALE_STRUCTURAL => "structural_change",
            STALE_APPEND_FAILED => "append_failed",
            _ => "no_image",
        }
    }

    /// Builds (or rebuilds) the index with its pages in a real file at
    /// `pages` — the configuration for corpora larger than memory.
    pub fn build_on_disk(
        &mut self,
        opts: FixOptions,
        pages: impl AsRef<Path>,
    ) -> Result<&BuildStats, FixError> {
        if Arc::get_mut(&mut self.coll).is_none() {
            return Err(FixError::SnapshotInUse);
        }
        self.adopt_write_policy(&opts);
        let coll = Arc::get_mut(&mut self.coll).expect("probed above");
        let idx = crate::builder::build_on_disk_impl(coll, opts, pages.as_ref())?;
        self.index = Some(Arc::new(idx));
        self.attach_index_events();
        self.invalidate_wal_base();
        self.report_metrics();
        Ok(self.stats().expect("index was just built"))
    }

    /// Runs an XPath query through the index, end to end on the fallible
    /// read path: a page that cannot be read (I/O failure, CRC mismatch,
    /// quarantine) surfaces as a structured [`FixError::Io`] /
    /// [`FixError::Corrupt`] naming the section at fault — never a panic,
    /// never a wrong answer.
    pub fn query(&self, query: &str) -> Result<QueryOutcome, FixError> {
        let idx = self.index.as_ref().ok_or(FixError::NoIndex)?;
        let plan = idx.compile(&self.coll, query).map_err(FixError::from)?;
        let mut ctl = crate::query::QueryCtl::unbounded();
        let candidates = idx.try_scan_plan(&plan, &mut ctl)?;
        let (outcome, _) =
            idx.try_refine_with_threads_timed(&self.coll, plan.path(), candidates, 1, &ctl)?;
        Ok(outcome)
    }

    /// Parses a query and returns a lazy iterator over its
    /// `(document, node)` matches, in document order. Pruning runs up
    /// front; refinement is paid one candidate document at a time, so
    /// consumers that stop early skip the remaining evaluation work.
    pub fn query_iter(&self, query: &str) -> Result<QueryHits<'_>, FixError> {
        let idx = self.index.as_ref().ok_or(FixError::NoIndex)?;
        idx.query_iter(&self.coll, query)
    }

    /// Opens a concurrent query snapshot: a cheaply cloneable,
    /// `Send + Sync` handle over the current collection and index, with a
    /// shared plan cache and parallel refinement (see [`QuerySession`]).
    /// The session stays on this exact snapshot even if the database is
    /// later vacuumed or rebuilt.
    pub fn session(&self) -> Result<QuerySession, FixError> {
        let idx = self.index.as_ref().ok_or(FixError::NoIndex)?;
        Ok(QuerySession::new(self.coll.clone(), idx.clone()).with_registry(self.metrics.clone()))
    }

    /// Tombstones a document — a one-op [`WriteBatch`] through
    /// [`FixDatabase::write`] (so the removal is WAL-durable on a
    /// path-bound database). Fails with [`FixError::NoSuchDocument`] for
    /// an id the collection never assigned.
    pub fn remove_document(&mut self, doc: DocId) -> Result<(), FixError> {
        let mut batch = WriteBatch::new();
        batch.remove_document(doc);
        self.write(batch)?;
        Ok(())
    }

    /// Rebuilds collection and index without tombstoned documents. This
    /// *replaces* the snapshot rather than mutating it, so it works with
    /// live sessions — they simply keep serving the pre-vacuum state.
    pub fn vacuum(&mut self) -> Result<(), FixError> {
        let idx = self.index.as_ref().ok_or(FixError::NoIndex)?;
        let (coll, index) = idx.vacuum(&self.coll);
        self.coll = Arc::new(coll);
        self.index = Some(Arc::new(index));
        self.attach_index_events();
        // Vacuum renumbers documents, so WAL records (which name ids)
        // cannot extend the new state.
        self.invalidate_wal_base();
        // Unlike a rebuild — which leaves logical content untouched —
        // vacuum changes *visible* state (ids, document count). On a
        // path-bound database that change must not evaporate in a
        // crash, so checkpoint it now rather than on the next write.
        if let Some(path) = self.path.clone() {
            self.save_to(&path)?;
        }
        Ok(())
    }

    /// Online repair for quarantined *derived* pages: re-serializes every
    /// document through its primary pages and rebuilds every derived
    /// structure (B-tree, edge dictionary, clustered heap, tier runs)
    /// from scratch — the same rebuild-from-source-of-truth guarantee
    /// salvage gives, but id-preserving and in-process. Like
    /// [`FixDatabase::vacuum`] this *replaces* the snapshot, so live
    /// [`QuerySession`]s keep serving the old one throughout; on a
    /// path-bound database the repaired image is checkpointed so the file
    /// stops carrying the corrupt pages. The fresh snapshot reads through
    /// a fresh pool, so the quarantine set starts empty.
    ///
    /// A *primary* (document) page that cannot be read is data loss that
    /// repair must not paper over: it surfaces as the structured
    /// [`FixError::Corrupt`]/[`FixError::Io`] of the failing read — reach
    /// for `fixdb verify --salvage` then, which recovers everything else
    /// and reports exactly what was dropped.
    pub fn repair(&mut self) -> Result<RepairReport, FixError> {
        self.check_writable()?;
        let idx = self.index.as_ref().ok_or(FixError::NoIndex)?.clone();
        let quarantined_before = idx.pool_stats().quarantined as u64;
        let t0 = Instant::now();
        let mut fresh = Collection::new();
        for i in 0..self.coll.len() {
            let d = self.coll.try_doc(DocId(i as u32))?;
            let xml = fix_xml::to_xml_string(d, &self.coll.labels);
            fresh
                .add_xml_limited(&xml, usize::MAX)
                .expect("invariant: a re-serialized parsed document parses");
        }
        let mut rebuilt = FixIndex::build(&mut fresh, idx.options().clone());
        rebuilt.removed = idx.removed.clone();
        let report = RepairReport {
            quarantined_before,
            documents: fresh.len(),
            tombstones: rebuilt.removed.len(),
            entries: rebuilt.btree.len(),
            checkpointed: self.path.is_some(),
            wall: t0.elapsed(),
        };
        self.coll = Arc::new(fresh);
        self.index = Some(Arc::new(rebuilt));
        self.attach_index_events();
        // Un-logged structural change: WAL records name the old image.
        // The checkpoint below (or the next write, when unbound) rebases.
        self.invalidate_wal_base();
        if let Some(path) = self.path.clone() {
            self.save_to(&path)?;
        }
        if self.events.enabled() {
            self.events.record_span(
                Category::Recovery,
                Severity::Warn,
                "repair",
                u64::try_from(report.wall.as_nanos()).unwrap_or(u64::MAX),
                vec![
                    ("quarantined", FieldValue::U64(report.quarantined_before)),
                    ("documents", FieldValue::U64(report.documents as u64)),
                    ("entries", FieldValue::U64(report.entries)),
                ],
            );
        }
        self.report_metrics();
        Ok(report)
    }

    /// Pages the index's buffer pool has quarantined (a CRC or I/O
    /// failure on their read; see [`FixDatabase::repair`]). Empty when
    /// healthy or when no index exists.
    pub fn quarantined_pages(&self) -> Vec<fix_storage::PageId> {
        self.index
            .as_deref()
            .map(|i| i.pool.quarantined())
            .unwrap_or_default()
    }

    /// Saves to the bound path (set by [`FixDatabase::open`] or a prior
    /// [`FixDatabase::save_as`]). The index must exist — the file format
    /// stores collection and index together.
    pub fn save(&self) -> Result<(), FixError> {
        let path = self.path.clone().ok_or(FixError::NoPath)?;
        self.save_to(&path)
    }

    /// Saves to `path` and binds the database to it. The WAL (if any)
    /// stays with the *old* path — it extends the old image there, which
    /// remains consistent; the new binding starts with a clean slate.
    pub fn save_as(&mut self, path: impl AsRef<Path>) -> Result<(), FixError> {
        self.save_to(path.as_ref())?;
        self.path = Some(path.as_ref().to_path_buf());
        self.wal = None;
        // The image just written at the new path is exactly the current
        // state, so the (empty, not-yet-engaged) log extends it.
        self.wal_extends_image.store(true, Ordering::Release);
        Ok(())
    }

    /// Writes the full image at `path`. When `path` is the bound path
    /// this doubles as the WAL checkpoint: the engaged log is rebased
    /// (emptied and re-pinned to the fresh image) and logged writes may
    /// resume extending it. Saving elsewhere instead discards any stale
    /// log lying beside the target, so a later `open` of that copy
    /// cannot replay records that are already inside it.
    fn save_to(&self, path: &Path) -> Result<(), FixError> {
        self.check_writable()?;
        let idx = self.index.as_ref().ok_or(FixError::NoIndex)?;
        let start = Instant::now();
        if let Err(e) = crate::persist::save_impl(path, &self.coll, idx) {
            return Err(self.note_write_failure("save", e));
        }
        self.metrics
            .histogram(names::PERSIST_SAVE_NS)
            .record_duration(start.elapsed());
        let mut saved_bytes = 0u64;
        if let Ok(m) = std::fs::metadata(path) {
            saved_bytes = m.len();
            self.metrics
                .counter(names::PERSIST_BYTES_WRITTEN)
                .add(m.len());
        }
        if self.events.enabled() {
            self.events.record_span(
                Category::Persist,
                Severity::Info,
                "save",
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                vec![("bytes", FieldValue::U64(saved_bytes))],
            );
        }
        let bound_here = self.path.as_deref() == Some(path);
        match self.wal.as_ref() {
            Some(wal) if bound_here => {
                let token = fix_storage::db_token(path)?.expect("save_impl just wrote the file");
                wal.rebase(token)?;
            }
            _ => {
                let stale = wal_dir(path);
                if stale.is_dir() {
                    std::fs::remove_dir_all(&stale)?;
                }
            }
        }
        if bound_here {
            self.wal_extends_image.store(true, Ordering::Release);
        }
        Ok(())
    }

    /// Integrity-checks the bound database file without loading it: walks
    /// every frame, validates every checksum and length, and returns the
    /// per-section report (the engine behind `fixdb verify`). Corruption
    /// is *data* here, not an error — inspect
    /// [`VerifyReport::is_ok`]; `Err` means the file could not be read at
    /// all (or the database has no bound path).
    pub fn verify(&self) -> Result<VerifyReport, FixError> {
        let path = self.path.as_deref().ok_or(FixError::NoPath)?;
        let start = Instant::now();
        let report = crate::persist::verify_file(path)?;
        self.metrics
            .histogram(names::PERSIST_VERIFY_NS)
            .record_duration(start.elapsed());
        self.metrics
            .counter(names::PERSIST_BYTES_READ)
            .add(report.file_len);
        self.metrics
            .counter(names::PERSIST_CORRUPTION_DETECTED)
            .add(report.corrupt_count() as u64);
        Ok(report)
    }

    /// The database's metrics registry. Sessions opened via
    /// [`FixDatabase::session`] record their per-query stage timings and
    /// work counters here; [`FixDatabase::report_metrics`] refreshes the
    /// level-style gauges (index shape, build stats, scan totals).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The flight-recorder window: every event still in the ring, merged
    /// with the retained `Warn`+ list, in sequence order (see
    /// [`EventRecorder::events`]). The engine lifecycle — commits, WAL
    /// seals, tier freezes and merges, compactions, saves, recovery
    /// replays, pool evictions — narrates itself here.
    pub fn events(&self) -> Vec<Event> {
        self.events.events()
    }

    /// The slow-op log: recorded spans whose duration met
    /// [`FixOptions::slow_op_ns`], oldest first, payloads intact.
    pub fn slow_ops(&self) -> Vec<Event> {
        self.events.slow_ops()
    }

    /// The shared flight recorder itself (threshold control and live
    /// follow-by-sequence for tooling).
    pub fn event_recorder(&self) -> &Arc<EventRecorder> {
        &self.events
    }

    /// Refreshes every level-style gauge in the registry from current
    /// state and materializes the standard per-query instruments (so an
    /// exposition shows them at zero before any query has run). Call
    /// before [`MetricsRegistry::render_prometheus`] /
    /// [`MetricsRegistry::render_json`].
    pub fn report_metrics(&self) {
        let reg = &*self.metrics;
        reg.counter("fix_queries_total");
        reg.histogram("fix_query_wall_ns");
        for s in Stage::ALL {
            reg.histogram(s.metric_name());
        }
        reg.counter("fix_refine_candidates_total");
        reg.counter("fix_refine_producing_total");
        for h in [
            names::PERSIST_SAVE_NS,
            names::PERSIST_LOAD_NS,
            names::PERSIST_VERIFY_NS,
            names::WAL_APPEND_NS,
            names::WAL_FSYNC_NS,
        ] {
            reg.histogram(h);
        }
        for c in [
            names::PERSIST_BYTES_WRITTEN,
            names::PERSIST_BYTES_READ,
            names::PERSIST_CORRUPTION_DETECTED,
            names::DELTA_SCANS,
            names::DELTA_SCAN_ENTRIES,
            names::DELTA_SCAN_NS,
            names::DELTA_CANDIDATES_TOTAL,
            names::DELTA_COMPACTIONS,
            names::WAL_APPENDS,
            names::WAL_APPENDED_BYTES,
            names::WAL_FSYNCS,
            names::WAL_SEALS,
            names::WAL_REPLAYED,
            names::WAL_GROUP_COMMITS,
            names::LEVEL_SEALS,
            names::LEVEL_MERGES,
            names::QUERY_TIMEOUTS,
        ] {
            reg.counter(c);
        }
        reg.gauge(names::POOL_QUARANTINED);
        for g in [
            names::WAL_SEGMENTS,
            names::WAL_TAIL_RECORDS,
            names::WAL_TAIL_BYTES,
            names::WAL_GROUP_QUEUE_DEPTH,
            names::LEVEL_RUNS,
            names::LEVEL_DEPTH,
            names::LEVEL_ENTRIES,
            names::LEVEL_BYTES,
        ] {
            reg.gauge(g);
        }
        reg.histogram(names::DELTA_COMPACT_NS);
        for g in [
            "fix_plan_cache_hits",
            "fix_plan_cache_misses",
            "fix_plan_cache_evictions",
            "fix_plan_cache_entries",
            "fix_plan_cache_capacity",
        ] {
            reg.gauge(g);
        }
        if let Some(idx) = self.index.as_deref() {
            idx.stats().report(reg);
            idx.btree_stats().report(reg);
            idx.scan_stats().report(reg);
            idx.pool_stats().report(reg);
            reg.gauge("fix_index_entries").set(idx.entry_count() as i64);
            let d = idx.delta_stats();
            reg.gauge(names::DELTA_ENTRIES).set(d.entries as i64);
            reg.gauge(names::DELTA_BYTES).set(d.bytes as i64);
            // Scan totals are cumulative on the index (compaction carries
            // them forward), so bump the counters up to the level rather
            // than adding — re-reporting stays idempotent.
            for (name, target) in [
                (names::DELTA_SCANS, d.scans),
                (names::DELTA_SCAN_ENTRIES, d.scanned_entries),
                (names::DELTA_SCAN_NS, d.scan_ns),
            ] {
                let c = reg.counter(name);
                c.add(target.saturating_sub(c.value()));
            }
        } else {
            reg.gauge(names::DELTA_ENTRIES);
            reg.gauge(names::DELTA_BYTES);
        }
        self.report_wal_metrics();
    }

    /// Refreshes the WAL counters/gauges and the delta tier gauges. WAL
    /// counters are cumulative on the log, so they are bumped up to the
    /// level rather than added — re-reporting stays idempotent.
    fn report_wal_metrics(&self) {
        let reg = &*self.metrics;
        if let Some(wal) = self.wal.as_ref() {
            let s = wal.stats();
            for (name, target) in [
                (names::WAL_APPENDS, s.appends),
                (names::WAL_APPENDED_BYTES, s.appended_bytes),
                (names::WAL_FSYNCS, s.fsyncs),
                (names::WAL_SEALS, s.seals),
            ] {
                let c = reg.counter(name);
                c.add(target.saturating_sub(c.value()));
            }
            reg.gauge(names::WAL_SEGMENTS).set(s.segments as i64);
            reg.gauge(names::WAL_TAIL_RECORDS)
                .set(s.tail_records as i64);
            reg.gauge(names::WAL_TAIL_BYTES).set(s.tail_bytes as i64);
        }
        if let Some(idx) = self.index.as_deref() {
            let d = idx.delta_stats();
            let levels = idx.delta_level_stats();
            reg.gauge(names::LEVEL_RUNS)
                .set(levels.iter().map(|l| l.runs).sum::<usize>() as i64);
            reg.gauge(names::LEVEL_DEPTH).set(levels.len() as i64);
            reg.gauge(names::LEVEL_ENTRIES)
                .set(levels.iter().map(|l| l.entries).sum::<u64>() as i64);
            reg.gauge(names::LEVEL_BYTES)
                .set(levels.iter().map(|l| l.bytes).sum::<u64>() as i64);
            for (name, target) in [
                (names::LEVEL_SEALS, d.seals),
                (names::LEVEL_MERGES, d.run_merges),
            ] {
                let c = reg.counter(name);
                c.add(target.saturating_sub(c.value()));
            }
        }
    }

    /// The document collection.
    pub fn collection(&self) -> &Collection {
        &self.coll
    }

    /// The index, if one has been built or loaded.
    pub fn index(&self) -> Option<&FixIndex> {
        self.index.as_deref()
    }

    /// Construction statistics, if an index exists.
    pub fn stats(&self) -> Option<&BuildStats> {
        self.index.as_deref().map(FixIndex::stats)
    }

    /// Buffer-pool statistics of the index's page storage (resident and
    /// pinned frames, hit/miss/eviction/flush counters, CRC failures).
    /// For a paged database this is the live view of the shared pool; for
    /// an in-memory one it reflects the in-memory page space.
    pub fn pool_stats(&self) -> Option<fix_storage::PoolStats> {
        self.index.as_deref().map(FixIndex::pool_stats)
    }

    /// The bound file path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The durability policy applied to WAL commits.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Changes the durability policy for subsequent writes (takes effect
    /// immediately on an engaged log — e.g. switching `Async` → `Sync`
    /// makes the next commit flush everything outstanding).
    pub fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
        if let Some(wal) = self.wal.as_ref() {
            wal.set_durability(durability);
        }
    }

    /// Changes the WAL segment seal threshold for subsequent commits
    /// (takes effect immediately on an engaged log). Seal decisions
    /// already taken are embodied in the on-disk segment boundaries, so
    /// recovery replays them unchanged whatever threshold the replaying
    /// process uses — lowering it here only makes *future* commits seal
    /// (and freeze delta runs) sooner.
    pub fn set_wal_seal_bytes(&mut self, bytes: u64) {
        self.wal_seal_bytes = bytes;
        if let Some(wal) = self.wal.as_ref() {
            wal.set_seal_bytes(bytes);
        }
    }

    /// Live write-ahead-log statistics, once a logged write has engaged
    /// the WAL (or recovery reopened one).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Per-level statistics of the delta's tiered runs (deepest level
    /// first; empty when no index exists or nothing has been sealed).
    pub fn level_stats(&self) -> Vec<fix_btree::LevelStats> {
        self.index
            .as_deref()
            .map(FixIndex::delta_level_stats)
            .unwrap_or_default()
    }

    /// Test hook: arms a deterministic write fault on the WAL (applied
    /// to the engaged log immediately, or to the next one engaged).
    #[doc(hidden)]
    pub fn set_wal_fault(&mut self, fault: Option<FaultPlan>) {
        match self.wal.as_ref() {
            Some(wal) => wal.set_fault(fault),
            None => self.wal_fault = fault,
        }
    }

    /// Why the database is read-only, or `None` when writes are enabled.
    /// A disk-full failure on a WAL append or a save/checkpoint flips the
    /// database into read-only degradation: queries keep serving, every
    /// mutation fails fast with [`FixError::ReadOnly`] instead of
    /// retrying a write that cannot fit.
    pub fn read_only_cause(&self) -> Option<String> {
        self.read_only.lock().expect("read_only lock").clone()
    }

    /// Fails with [`FixError::ReadOnly`] while the database is degraded.
    fn check_writable(&self) -> Result<(), FixError> {
        match self.read_only_cause() {
            Some(cause) => Err(FixError::ReadOnly { cause }),
            None => Ok(()),
        }
    }

    /// Classifies a write-side failure: disk-full latches the read-only
    /// state (first cause wins) and is reported as
    /// [`FixError::ReadOnly`]; anything else passes through unchanged.
    fn note_write_failure(&self, op: &str, e: std::io::Error) -> FixError {
        if !fix_storage::is_disk_full(&e) {
            return FixError::Io(e);
        }
        let cause = format!("{op} failed: {e}");
        {
            let mut ro = self.read_only.lock().expect("read_only lock");
            if ro.is_none() {
                if self.events.enabled() {
                    self.events.record(
                        Category::Persist,
                        Severity::Error,
                        "db.read_only",
                        vec![("cause", FieldValue::Str(cause.clone()))],
                    );
                }
                *ro = Some(cause.clone());
            }
        }
        FixError::ReadOnly { cause }
    }

    /// Re-probes the write path after a disk-full degradation: writes,
    /// syncs, and removes a small sibling file next to the bound database
    /// file. On success the read-only latch clears and mutations may
    /// proceed (the failure that latched it already marked the log stale,
    /// so the next logged write checkpoints a fresh image first). Returns
    /// `true` when writes are enabled — immediately so if the database
    /// never was read-only — and `false` when the probe still finds no
    /// space.
    pub fn try_resume(&mut self) -> Result<bool, FixError> {
        let Some(cause) = self.read_only_cause() else {
            return Ok(true);
        };
        if let Some(path) = self.path.clone() {
            let probe = path.with_extension("space-probe");
            match probe_space(&probe) {
                Ok(()) => {}
                Err(e) if fix_storage::is_disk_full(&e) => return Ok(false),
                Err(e) => return Err(FixError::Io(e)),
            }
        }
        *self.read_only.lock().expect("read_only lock") = None;
        if self.events.enabled() {
            self.events.record(
                Category::Persist,
                Severity::Info,
                "db.resume",
                vec![("was", FieldValue::Str(cause))],
            );
        }
        Ok(true)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.coll.len()
    }

    /// True if the collection holds no documents.
    pub fn is_empty(&self) -> bool {
        self.coll.len() == 0
    }
}

/// The [`FixDatabase::try_resume`] space probe: create, fill, sync, and
/// remove a 64 KiB sibling file — enough headroom that a cleared probe
/// means real writes have room too, small enough to be instant.
fn probe_space(probe: &Path) -> std::io::Result<()> {
    let res = (|| {
        use std::io::Write as _;
        let mut f = std::fs::File::create(probe)?;
        f.write_all(&vec![0u8; 64 << 10])?;
        f.sync_all()
    })();
    let _ = std::fs::remove_file(probe);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fix-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn in_memory_lifecycle() {
        let mut db = FixDatabase::in_memory();
        assert!(db.is_empty());
        assert!(matches!(db.query("//a"), Err(FixError::NoIndex)));
        db.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        db.add_xml("<bib><book><author/></book></bib>").unwrap();
        let stats = db.build(FixOptions::collection()).unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(db.query("//article[author]/ee").unwrap().results.len(), 1);
        // Post-build adds go through incremental insertion.
        db.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.query("//article[author]/ee").unwrap().results.len(), 2);
    }

    #[test]
    fn clustered_absorbs_post_build_adds() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(
            FixOptions::builder()
                .clustered(true)
                .compact_ratio(0.0)
                .build(),
        )
        .unwrap();
        db.add_xml("<a><c/></a>").unwrap();
        assert_eq!(db.len(), 2);
        // The new document is served from the delta run (no compaction:
        // ratio 0.0 disables the automatic trigger).
        assert_eq!(db.index().unwrap().delta_len(), 1);
        assert_eq!(db.query("//a/b").unwrap().results.len(), 1);
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
    }

    #[test]
    fn auto_compaction_triggers_on_ratio() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection()).unwrap();
        // Default ratio 0.5 with base=1: the first insert (delta 1 >=
        // 0.5 * 1) folds immediately.
        db.add_xml("<a><c/></a>").unwrap();
        let idx = db.index().unwrap();
        assert_eq!(idx.delta_len(), 0, "delta folded into the base");
        assert_eq!(idx.compaction_stats().0, 1);
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
        let snap = db.metrics().snapshot();
        assert_eq!(snap.counter(names::DELTA_COMPACTIONS), Some(1));
    }

    #[test]
    fn explicit_compact_through_facade() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection().with_compact_ratio(0.0))
            .unwrap();
        assert!(matches!(
            FixDatabase::in_memory().compact(),
            Err(FixError::NoIndex)
        ));
        db.add_xml("<a><c/></a>").unwrap();
        assert_eq!(db.index().unwrap().delta_len(), 1);
        // A live session pins the old snapshot but does not block compact.
        let session = db.session().unwrap();
        db.compact().unwrap();
        assert_eq!(db.index().unwrap().delta_len(), 0);
        assert_eq!(db.index().unwrap().compaction_stats().0, 1);
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
        assert_eq!(session.query("//a/c").unwrap().results.len(), 1);
    }

    #[test]
    fn open_save_round_trip() {
        let path = temp("facade.fixdb");
        std::fs::remove_file(&path).ok();
        {
            let mut db = FixDatabase::open(&path).unwrap();
            assert!(db.is_empty(), "fresh path starts empty");
            db.add_xml("<bib><article><author/><ee/></article></bib>")
                .unwrap();
            db.build(FixOptions::builder().depth_limit(3).build())
                .unwrap();
            db.save().unwrap();
        }
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.path(), Some(path.as_path()));
        assert_eq!(db.query("//article[author]/ee").unwrap().results.len(), 1);
        // Loaded indexes accept adds too (incremental resume, cold memo).
        let mut db = db;
        db.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        assert_eq!(db.query("//article[author]/ee").unwrap().results.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_requires_binding_and_index() {
        let db = FixDatabase::in_memory();
        assert!(matches!(db.save(), Err(FixError::NoPath)));
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a/>").unwrap();
        let path = temp("unbuilt.fixdb");
        assert!(matches!(db.save_as(&path), Err(FixError::NoIndex)));
    }

    #[test]
    fn vacuum_through_facade() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.add_xml("<a><c/></a>").unwrap();
        db.build(FixOptions::collection()).unwrap();
        db.remove_document(DocId(0)).unwrap();
        db.vacuum().unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.query("//a/b").unwrap().results.is_empty());
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
    }

    #[test]
    fn build_on_disk_through_facade() {
        let pages = temp("facade.pages");
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b><c/></b></a>").unwrap();
        db.build_on_disk(FixOptions::builder().depth_limit(3).build(), &pages)
            .unwrap();
        assert!(pages.exists());
        assert_eq!(db.query("//b/c").unwrap().results.len(), 1);
        std::fs::remove_file(&pages).ok();
    }

    #[test]
    fn query_iter_streams_lazily() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        db.add_xml("<bib><article><author/><ee/></article></bib>")
            .unwrap();
        db.build(FixOptions::collection()).unwrap();
        let eager = db.query("//article[author]/ee").unwrap();
        let mut it = db.query_iter("//article[author]/ee").unwrap();
        let first = it.next().unwrap().unwrap();
        assert_eq!(first, eager.results[0]);
        // Only the first document group has been refined so far.
        assert_eq!(it.metrics().producing, 1);
        let rest: Vec<_> = it.collect::<Result<_, _>>().unwrap();
        assert_eq!(rest, eager.results[1..]);
        assert!(matches!(
            db.query_iter("not a path"),
            Err(FixError::BadQuery(_))
        ));
    }

    #[test]
    fn mutations_fail_while_a_session_is_live() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection()).unwrap();
        let session = db.session().unwrap();
        assert!(matches!(
            db.add_xml("<a><c/></a>"),
            Err(FixError::SnapshotInUse)
        ));
        assert!(matches!(
            db.remove_document(DocId(0)),
            Err(FixError::SnapshotInUse)
        ));
        // Reads are unaffected.
        assert_eq!(db.query("//a/b").unwrap().results.len(), 1);
        assert_eq!(session.query("//a/b").unwrap().results.len(), 1);
        drop(session);
        db.add_xml("<a><c/></a>").unwrap();
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn vacuum_leaves_live_sessions_on_the_old_snapshot() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.add_xml("<a><c/></a>").unwrap();
        db.build(FixOptions::collection()).unwrap();
        db.remove_document(DocId(0)).unwrap();
        let session = db.session().unwrap();
        db.vacuum().unwrap();
        assert_eq!(db.len(), 1);
        // The session still serves the pre-vacuum snapshot (with the
        // tombstone applied, as at session creation).
        assert!(session.query("//a/b").unwrap().results.is_empty());
        assert_eq!(session.query("//a/c").unwrap().results.len(), 1);
    }

    #[test]
    fn verify_reports_health_and_records_metrics() {
        let path = temp("verify-facade.fixdb");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            FixDatabase::in_memory().verify(),
            Err(FixError::NoPath)
        ));
        let mut db = FixDatabase::open(&path).unwrap();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection()).unwrap();
        db.save().unwrap();
        let report = db.verify().unwrap();
        assert!(report.is_ok(), "{report}");
        let snap = db.metrics().snapshot();
        assert_eq!(
            snap.counter("fix_persist_corruption_detected_total"),
            Some(0)
        );
        assert!(snap.counter("fix_persist_bytes_written_total").unwrap() > 0);
        assert_eq!(snap.histogram("fix_persist_save_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("fix_persist_verify_ns").unwrap().count, 1);

        // Flip a byte mid-file: verify flags it and counts the detection.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let report = db.verify().unwrap();
        assert!(!report.is_ok());
        let snap = db.metrics().snapshot();
        assert!(
            snap.counter("fix_persist_corruption_detected_total")
                .unwrap()
                > 0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_metrics_recorded_on_open() {
        let path = temp("load-metrics.fixdb");
        std::fs::remove_file(&path).ok();
        {
            let mut db = FixDatabase::open(&path).unwrap();
            db.add_xml("<a><b/></a>").unwrap();
            db.build(FixOptions::collection()).unwrap();
            db.save().unwrap();
        }
        let db = FixDatabase::open(&path).unwrap();
        let snap = db.metrics().snapshot();
        assert_eq!(snap.histogram("fix_persist_load_ns").unwrap().count, 1);
        assert!(snap.counter("fix_persist_bytes_read_total").unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_depth_limit_governs_adds() {
        let deep = |n: usize| "<a>".repeat(n) + &"</a>".repeat(n);
        // Pre-build adds enforce the default limit.
        let mut db = FixDatabase::in_memory();
        db.add_xml(&deep(40)).unwrap();
        assert!(matches!(db.add_xml(&deep(2000)), Err(FixError::Parse(_))));
        // Post-build, the built options govern (via incremental insert).
        db.build(FixOptions::collection().with_max_parse_depth(8))
            .unwrap();
        assert!(matches!(db.add_xml(&deep(40)), Err(FixError::Parse(_))));
    }

    #[test]
    fn logged_writes_survive_reopen_without_save() {
        let path = temp("wal-reopen.fixdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        {
            let mut db = FixDatabase::open(&path).unwrap();
            db.add_xml("<a><b/></a>").unwrap();
            db.build(FixOptions::collection().with_compact_ratio(0.0))
                .unwrap();
            db.save().unwrap();
            // Post-save mutations go through the WAL, not the image.
            let before = std::fs::metadata(&path).unwrap().len();
            db.add_xml("<a><c/></a>").unwrap();
            db.remove_document(DocId(0)).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
            let ws = db.wal_stats().expect("log engaged by the first write");
            assert_eq!(ws.appends, 2);
            // Dropped here without save(): the image is stale, the log is not.
        }
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), 2);
        assert!(db.query("//a/b").unwrap().results.is_empty(), "tombstone");
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
        let snap = db.metrics().snapshot();
        assert_eq!(snap.counter(names::WAL_REPLAYED), Some(2));
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_checkpoints_and_truncates_the_log() {
        let path = temp("wal-checkpoint.fixdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        let mut db = FixDatabase::open(&path).unwrap();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection().with_compact_ratio(0.0))
            .unwrap();
        db.save().unwrap();
        db.add_xml("<a><c/></a>").unwrap();
        assert_eq!(db.wal_stats().unwrap().records, 1);
        db.save().unwrap();
        let ws = db.wal_stats().unwrap();
        assert_eq!((ws.records, ws.tail_records), (0, 0), "rebased");
        // Reopen sees the checkpointed image with nothing to replay.
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.metrics().snapshot().counter(names::WAL_REPLAYED),
            Some(0)
        );
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batches_are_validated_whole_before_anything_applies() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection().with_compact_ratio(0.0))
            .unwrap();
        // Second op names a document that will not exist: whole batch out.
        let mut batch = WriteBatch::new();
        batch.add_xml("<a><c/></a>").remove_document(DocId(9));
        assert!(matches!(
            db.write(batch),
            Err(FixError::NoSuchDocument { doc: 9 })
        ));
        assert_eq!(db.len(), 1, "the valid add was not applied either");
        // A remove may target an add earlier in the same batch.
        let mut batch = WriteBatch::new();
        batch.add_xml("<a><c/></a>").remove_document(DocId(1));
        let ids = db.write(batch).unwrap();
        assert_eq!(ids, vec![DocId(1)]);
        assert!(db.query("//a/c").unwrap().results.is_empty());
        // Unparsable XML rejects the batch up front too.
        let mut batch = WriteBatch::new();
        batch.add_xml("<a><unclosed>");
        assert!(matches!(db.write(batch), Err(FixError::Parse(_))));
        assert!(db.write(WriteBatch::new()).unwrap().is_empty());
    }

    #[test]
    fn unindexed_writes_accept_adds_and_reject_removes() {
        let mut db = FixDatabase::in_memory();
        let mut batch = WriteBatch::new();
        batch.add_xml("<a/>").add_xml("<b/>");
        assert_eq!(db.write(batch).unwrap(), vec![DocId(0), DocId(1)]);
        let mut batch = WriteBatch::new();
        batch.remove_document(DocId(0));
        assert!(matches!(db.write(batch), Err(FixError::NoIndex)));
        assert!(matches!(
            db.remove_document(DocId(9)),
            Err(FixError::NoIndex)
        ));
    }

    #[test]
    fn structural_changes_checkpoint_before_the_next_logged_write() {
        let path = temp("wal-structural.fixdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        let mut db = FixDatabase::open(&path).unwrap();
        db.add_xml("<a><b/></a>").unwrap();
        db.add_xml("<a><x/></a>").unwrap();
        db.build(FixOptions::collection().with_compact_ratio(0.0))
            .unwrap();
        db.save().unwrap();
        db.remove_document(DocId(0)).unwrap(); // logged
        db.vacuum().unwrap(); // un-logged: renumbers, checkpoints itself
        db.add_xml("<a><c/></a>").unwrap(); // logs against the fresh image
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), 2, "vacuumed survivor plus the post-vacuum add");
        assert!(db.query("//a/b").unwrap().results.is_empty());
        assert_eq!(db.query("//a/x").unwrap().results.len(), 1);
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_append_leaves_state_consistent() {
        use fix_storage::{FaultKind, FaultPlan};
        let path = temp("wal-fault.fixdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        let mut db = FixDatabase::open(&path).unwrap();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection().with_compact_ratio(0.0))
            .unwrap();
        db.save().unwrap();
        db.add_xml("<a><c/></a>").unwrap(); // engages the log
        db.set_wal_fault(Some(FaultPlan::new(0, FaultKind::Torn { keep: 3 })));
        let err = db.add_xml("<a><d/></a>").unwrap_err();
        assert!(matches!(err, FixError::Io(_)), "got {err:?}");
        assert_eq!(db.len(), 2, "failed batch was not applied");
        // The next write checkpoints and starts a fresh log.
        db.add_xml("<a><e/></a>").unwrap();
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
        assert!(db.query("//a/d").unwrap().results.is_empty());
        assert_eq!(db.query("//a/e").unwrap().results.len(), 1);
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sealed_segments_freeze_delta_runs_on_both_paths() {
        let path = temp("wal-seal.fixdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        let mut db = FixDatabase::open(&path).unwrap();
        // A roomy base keeps the default compact_ratio (0.5) quiet while
        // the deltas pile up — and the default policy is exactly what a
        // reopened database replays with (policy knobs are not
        // persisted), so the tier layout must reproduce bit-for-bit.
        for i in 0..12 {
            db.add_xml(&format!("<a><base{i}/></a>")).unwrap();
        }
        db.build(
            FixOptions::builder()
                .wal_seal_bytes(1) // every record seals its segment
                .build(),
        )
        .unwrap();
        db.save().unwrap();
        for i in 0..5 {
            db.add_xml(&format!("<a><c{i}/></a>")).unwrap();
        }
        let live_levels = db.level_stats();
        assert!(
            live_levels.iter().map(|l| l.runs).sum::<usize>() > 0,
            "seals froze runs: {live_levels:?}"
        );
        let live_answers = db.query("//a/c3").unwrap().results;
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.level_stats(), live_levels, "replay rebuilt the tiers");
        assert_eq!(db.query("//a/c3").unwrap().results, live_answers);
        let snap = db.metrics().snapshot();
        assert!(snap.counter(names::LEVEL_SEALS).unwrap() >= 5);
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_full_flips_read_only_and_resume_recovers() {
        use fix_storage::{FaultKind, FaultPlan};
        let path = temp("read-only.fixdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        let mut db = FixDatabase::open(&path).unwrap();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection().with_compact_ratio(0.0))
            .unwrap();
        db.save().unwrap();
        db.add_xml("<a><c/></a>").unwrap(); // engages the log
        db.set_wal_fault(Some(FaultPlan::new(0, FaultKind::DiskFull)));
        let err = db.add_xml("<a><d/></a>").unwrap_err();
        assert!(matches!(err, FixError::ReadOnly { .. }), "got {err:?}");
        assert!(db.read_only_cause().unwrap().contains("WAL append"));
        // Writes now fail fast without touching the log; queries serve.
        assert!(matches!(
            db.add_xml("<a><e/></a>"),
            Err(FixError::ReadOnly { .. })
        ));
        assert!(matches!(db.save(), Err(FixError::ReadOnly { .. })));
        assert_eq!(db.query("//a/c").unwrap().results.len(), 1);
        assert!(db.events().iter().any(|e| e.name == "db.read_only"));
        // Space is actually fine (the failure was injected), so the probe
        // clears the latch and the next write checkpoints past the
        // poisoned log.
        assert!(db.try_resume().unwrap());
        assert!(db.read_only_cause().is_none());
        db.add_xml("<a><f/></a>").unwrap();
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.query("//a/f").unwrap().results.len(), 1);
        assert!(db.query("//a/d").unwrap().results.is_empty());
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantined_derived_page_repairs_online() {
        use crate::options::StorageMode;
        let path = temp("repair.fixdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        {
            let mut db = FixDatabase::open(&path).unwrap();
            for i in 0..8 {
                db.add_xml(&format!("<a><b{i}/></a>")).unwrap();
            }
            let mut opts = FixOptions::collection().with_compact_ratio(0.0);
            opts.storage = StorageMode::Paged;
            db.build(opts).unwrap();
            db.save().unwrap();
        }
        // Corrupt the *last* data page: the paged writer lays out the
        // document heap first and bulk-loads the B-tree last, so the tail
        // page is derived state — exactly what repair re-derives.
        let mut data = std::fs::read(&path).unwrap();
        let meta_off = u64::from_le_bytes(data[20..28].try_into().unwrap()) as usize;
        let page_size = fix_storage::PAGE_SIZE;
        data[meta_off - page_size / 2] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let mut db = FixDatabase::open(&path).unwrap();
        let session = db.session().unwrap();
        let err = db.query("//a/b0").unwrap_err();
        assert!(
            matches!(err, FixError::Corrupt { .. } | FixError::Io(_)),
            "got {err:?}"
        );
        assert!(!db.quarantined_pages().is_empty(), "pool quarantined it");
        let report = db.repair().unwrap();
        assert!(report.quarantined_before >= 1, "{report}");
        assert!(report.checkpointed);
        assert_eq!(report.documents, 8);
        // The repaired snapshot answers; quarantine starts empty.
        assert_eq!(db.query("//a/b0").unwrap().results.len(), 1);
        assert!(db.quarantined_pages().is_empty());
        // The live session was never closed. It still holds the damaged
        // snapshot, so its reads may fail — structurally, not by panic.
        let _ = session.query("//a/b0");
        drop(session);
        // The checkpointed image verifies clean and round-trips.
        assert!(db.verify().unwrap().is_ok());
        assert!(db.events().iter().any(|e| e.name == "repair"));
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.query("//a/b3").unwrap().results.len(), 1);
        std::fs::remove_dir_all(fix_storage::wal_dir(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn into_parts_requires_exclusive_ownership() {
        let mut db = FixDatabase::in_memory();
        db.add_xml("<a><b/></a>").unwrap();
        db.build(FixOptions::collection()).unwrap();
        let session = db.session().unwrap();
        let db = match db.into_parts() {
            Err(FixError::SnapshotInUse) => {
                // Rebuild the handle; the session still pins the snapshot.
                let mut db = FixDatabase::in_memory();
                db.add_xml("<a><b/></a>").unwrap();
                db.build(FixOptions::collection()).unwrap();
                db
            }
            other => panic!("expected SnapshotInUse, got {:?}", other.map(|_| ())),
        };
        drop(session);
        let (coll, index) = db.into_parts().unwrap();
        assert_eq!(coll.len(), 1);
        assert!(index.is_some());
    }
}
