//! The delta index: entries accepted since the last build or compaction,
//! held as an LSM-style stack of sorted runs.
//!
//! `add_xml` after `build()` feature-extracts just the new document and
//! appends its entries to the *active* run — the in-memory image of the
//! unsealed WAL tail segment. When that segment seals, `DeltaIndex::seal`
//! freezes the active run into the size-tiered [`TieredRuns`] stack
//! (level 0; merges cascade as levels fill, see `fix_btree::levels`).
//! Scans merge the base tree and **every** live run into one key-ordered
//! candidate stream (see `FixIndex::scan_plan`), so query answers are
//! identical to a monolithic index at all times; compaction folds the
//! whole stack back into the base tree when it grows past
//! `FixOptions::compact_ratio`.
//!
//! Entry keys embed per-entry sequence numbers and are globally unique,
//! so the merged stream is independent of how entries are distributed
//! across runs — tiering is invisible to the byte-identity invariants.
//!
//! Clustered indexes store each delta entry's truncated-subtree copy in a
//! single shared `copies` store (8-byte pointer prefix + serialized XML,
//! the base copy heap's record format). Run values index into that store,
//! which run merges never touch, so values stay stable as runs fold
//! together and compaction can still move records verbatim.

use std::sync::atomic::{AtomicU64, Ordering};

use fix_btree::levels::{KMergeIter, LevelStats, MergeDetail, TieredRuns};
use fix_btree::SortedRun;

use crate::key::{EntryPtr, KEY_LEN};

/// Cumulative delta counters for observability: size levels plus the
/// scan work charged to the delta side of merged scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Entries across all delta runs (active + frozen).
    pub entries: u64,
    /// Resident bytes (runs plus clustered copies).
    pub bytes: u64,
    /// Delta-side scans performed since build/load.
    pub scans: u64,
    /// Entries yielded by those scans.
    pub scanned_entries: u64,
    /// Wall time spent scanning the delta, in nanoseconds.
    pub scan_ns: u64,
    /// Entries in the active (unsealed-tail) run.
    pub tail_entries: u64,
    /// Frozen runs in the tier stack.
    pub frozen_runs: u64,
    /// Depth of the tier stack (occupied or shallower levels).
    pub levels: u64,
    /// Seals performed since build/load (active run → level 0).
    pub seals: u64,
    /// Run merges performed by tier cascades since build/load.
    pub run_merges: u64,
}

/// What one [`DeltaIndex::seal_detailed`] did: the frozen run's size and
/// every tier merge the freeze cascaded into.
#[derive(Debug, Clone)]
pub(crate) struct SealDetail {
    /// Entries frozen from the active run into level 0.
    pub entries: u64,
    /// Cascaded merges, in the order they ran (level 0 upward).
    pub merges: Vec<MergeDetail>,
}

/// Post-build index entries: an active run plus tiered frozen runs, with
/// (for clustered indexes) their subtree copies in one shared store.
#[derive(Debug)]
pub(crate) struct DeltaIndex {
    /// The unsealed WAL tail's entries; all inserts land here.
    active: SortedRun,
    /// Frozen runs, one per sealed WAL segment, size-tier merged.
    tiers: TieredRuns,
    /// Clustered copy records, indexed by run values. `None` for
    /// unclustered indexes, whose values are encoded [`EntryPtr`]s.
    copies: Option<Vec<Vec<u8>>>,
    seals: u64,
    run_merges: u64,
    scans: AtomicU64,
    scan_entries: AtomicU64,
    scan_ns: AtomicU64,
}

impl DeltaIndex {
    /// An empty delta; `clustered` selects whether copy records are kept,
    /// `fanout` the tier merge trigger (`FixOptions::tier_fanout`).
    pub(crate) fn new(clustered: bool, fanout: usize) -> Self {
        Self {
            active: SortedRun::new(KEY_LEN),
            tiers: TieredRuns::new(KEY_LEN, fanout),
            copies: clustered.then(Vec::new),
            seals: 0,
            run_merges: 0,
            scans: AtomicU64::new(0),
            scan_entries: AtomicU64::new(0),
            scan_ns: AtomicU64::new(0),
        }
    }

    /// Rebuilds a delta from persisted parts. `entries` must already be in
    /// key order (they are written in key order). The persisted stream is
    /// level-blind — everything loads into the active run, and WAL replay
    /// re-applies the seal points that rebuild the tier structure.
    pub(crate) fn from_sorted(
        entries: impl IntoIterator<Item = (Vec<u8>, u64)>,
        copies: Option<Vec<Vec<u8>>>,
        fanout: usize,
    ) -> Self {
        let mut active = SortedRun::new(KEY_LEN);
        for (k, v) in entries {
            active.insert(&k, v);
        }
        Self {
            active,
            copies,
            ..Self::new(false, fanout)
        }
    }

    pub(crate) fn is_clustered(&self) -> bool {
        self.copies.is_some()
    }

    pub(crate) fn len(&self) -> u64 {
        (self.active.len() + self.tiers.len()) as u64
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.active.is_empty() && self.tiers.is_empty()
    }

    /// Resident size: all runs plus any clustered copy records.
    pub(crate) fn size_bytes(&self) -> u64 {
        let copies: usize = self.copies.iter().flatten().map(|r| r.len()).sum::<usize>();
        (self.active.size_bytes() + self.tiers.size_bytes() + copies) as u64
    }

    /// Inserts an unclustered entry (value = encoded [`EntryPtr`]).
    pub(crate) fn push(&mut self, key: &[u8], value: u64) {
        debug_assert!(self.copies.is_none(), "clustered deltas take records");
        self.active.insert(key, value);
    }

    /// Inserts a clustered entry with its copy record (8-byte pointer
    /// prefix + serialized subtree, the base heap's record format).
    pub(crate) fn push_record(&mut self, key: &[u8], record: Vec<u8>) {
        let copies = self.copies.as_mut().expect("unclustered deltas take ptrs");
        let value = copies.len() as u64;
        copies.push(record);
        self.active.insert(key, value);
    }

    /// Freezes the active run into the tier stack — called when the WAL
    /// segment whose records it mirrors seals. Returns `false` when the
    /// active run was empty (nothing to freeze).
    pub(crate) fn seal(&mut self) -> bool {
        self.seal_detailed().is_some()
    }

    /// [`DeltaIndex::seal`] with narration detail: how many entries froze
    /// into the L0 run and what each cascaded tier merge did. `None` when
    /// the active run was empty.
    pub(crate) fn seal_detailed(&mut self) -> Option<SealDetail> {
        if self.active.is_empty() {
            return None;
        }
        let run = std::mem::replace(&mut self.active, SortedRun::new(KEY_LEN));
        let entries = run.len() as u64;
        let merges = self.tiers.push_run_detailed(run);
        self.run_merges += merges.len() as u64;
        self.seals += 1;
        Some(SealDetail { entries, merges })
    }

    /// Every live run, oldest data first (deepest frozen level outward,
    /// active run last). Scans build one candidate source per run and
    /// k-way merge them with the base stream.
    pub(crate) fn runs(&self) -> Vec<&SortedRun> {
        let mut out = self.tiers.runs();
        if !self.active.is_empty() {
            out.push(&self.active);
        }
        out
    }

    /// All entries across all runs, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], u64)> + '_ {
        KMergeIter::new(self.runs().iter().map(|r| r.as_slice()).collect())
    }

    /// The copy record a clustered delta value resolves to.
    pub(crate) fn record(&self, value: u64) -> &[u8] {
        &self.copies.as_ref().expect("clustered delta")[value as usize]
    }

    /// Resolves a clustered delta value to the entry pointer heading its
    /// copy record, the delta-side counterpart of
    /// `FixIndex::try_clustered_ptr`.
    pub(crate) fn ptr(&self, value: u64) -> EntryPtr {
        EntryPtr::from_u64(u64::from_le_bytes(
            self.record(value)[0..8]
                .try_into()
                .expect("8-byte ptr prefix"),
        ))
    }

    /// The copy records in insertion order (compaction and diagnostics).
    pub(crate) fn copies(&self) -> Option<&[Vec<u8>]> {
        self.copies.as_deref()
    }

    /// Per-level shapes of the frozen tier stack (level 0 first).
    pub(crate) fn level_stats(&self) -> Vec<LevelStats> {
        self.tiers.level_stats()
    }

    /// Charges one delta-side scan to the counters (`Relaxed`: the values
    /// are monotone telemetry, never synchronization).
    pub(crate) fn note_scan(&self, entries: u64, ns: u64) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.scan_entries.fetch_add(entries, Ordering::Relaxed);
        self.scan_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Seeds the scan counters from a predecessor delta's snapshot, so
    /// scan totals stay cumulative across compactions (size levels are
    /// derived from the runs and reset naturally).
    pub(crate) fn carry_scan_history(&self, prior: &DeltaStats) {
        self.scans.store(prior.scans, Ordering::Relaxed);
        self.scan_entries
            .store(prior.scanned_entries, Ordering::Relaxed);
        self.scan_ns.store(prior.scan_ns, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative counters.
    pub(crate) fn stats(&self) -> DeltaStats {
        DeltaStats {
            entries: self.len(),
            bytes: self.size_bytes(),
            scans: self.scans.load(Ordering::Relaxed),
            scanned_entries: self.scan_entries.load(Ordering::Relaxed),
            scan_ns: self.scan_ns.load(Ordering::Relaxed),
            tail_entries: self.active.len() as u64,
            frozen_runs: self.tiers.run_count() as u64,
            levels: self.tiers.level_stats().len() as u64,
            seals: self.seals,
            run_merges: self.run_merges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::DocId;

    const FANOUT: usize = 4;

    #[test]
    fn unclustered_entries_round_trip() {
        let mut d = DeltaIndex::new(false, FANOUT);
        assert!(d.is_empty());
        let ptr = EntryPtr {
            doc: DocId(3),
            node: 7,
        };
        d.push(&[1u8; KEY_LEN], ptr.to_u64());
        d.push(&[0u8; KEY_LEN], 0);
        assert_eq!(d.len(), 2);
        let vals: Vec<u64> = d.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![0, ptr.to_u64()]);
        assert!(!d.is_clustered());
        assert!(d.size_bytes() > 0);
    }

    #[test]
    fn clustered_records_resolve() {
        let mut d = DeltaIndex::new(true, FANOUT);
        let ptr = EntryPtr {
            doc: DocId(1),
            node: 0,
        };
        let mut record = ptr.to_u64().to_le_bytes().to_vec();
        record.extend_from_slice(b"<a/>");
        d.push_record(&[2u8; KEY_LEN], record);
        assert_eq!(d.ptr(0), ptr);
        assert_eq!(&d.record(0)[8..], b"<a/>");
        assert_eq!(d.copies().unwrap().len(), 1);
    }

    #[test]
    fn scan_counters_accumulate() {
        let d = DeltaIndex::new(false, FANOUT);
        d.note_scan(5, 100);
        d.note_scan(2, 50);
        let s = d.stats();
        assert_eq!(s.scans, 2);
        assert_eq!(s.scanned_entries, 7);
        assert_eq!(s.scan_ns, 150);
    }

    #[test]
    fn sealing_freezes_runs_but_keeps_the_merged_stream() {
        let mut d = DeltaIndex::new(false, 2);
        let mut expect: Vec<(Vec<u8>, u64)> = Vec::new();
        for i in 0..10u64 {
            let mut key = [0u8; KEY_LEN];
            key[0] = (i as u8) ^ 0x2A; // scatter so runs interleave
            key[KEY_LEN - 1] = i as u8; // unique keys
            d.push(&key, i);
            expect.push((key.to_vec(), i));
            if i % 3 == 2 {
                assert!(d.seal());
            }
        }
        assert!(!d.seal() || d.stats().tail_entries == 0);
        expect.sort();
        let got: Vec<(Vec<u8>, u64)> = d.iter().map(|(k, v)| (k.to_vec(), v)).collect();
        assert_eq!(got, expect, "tiering is invisible to iteration order");
        let s = d.stats();
        assert_eq!(s.entries, 10);
        assert!(s.seals >= 3);
        assert!(s.run_merges > 0, "fanout 2 must have cascaded merges");
        assert!(s.frozen_runs as usize <= d.level_stats().len() * 2);
    }

    #[test]
    fn clustered_values_survive_run_merges() {
        // Values index the shared copy store; merges must not disturb them.
        let mut d = DeltaIndex::new(true, 2);
        for i in 0..6u64 {
            let mut key = [0u8; KEY_LEN];
            key[0] = 5 - i as u8;
            let ptr = EntryPtr {
                doc: DocId(i as u32),
                node: 0,
            };
            let mut record = ptr.to_u64().to_le_bytes().to_vec();
            record.extend_from_slice(format!("<d{i}/>").as_bytes());
            d.push_record(&key, record);
            d.seal();
        }
        for (_, v) in d.iter() {
            let xml = format!("<d{}/>", d.ptr(v).doc.0);
            assert_eq!(&d.record(v)[8..], xml.as_bytes());
        }
    }
}
