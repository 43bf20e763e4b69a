//! The B+-tree proper.
//!
//! Nodes live on buffer-pool pages. For modification we deserialize a node
//! into memory, mutate, and re-serialize — with ~200 entries per page this
//! costs a memcpy and keeps the split logic obviously correct; the I/O
//! pattern (the part the experiments measure) is identical to an in-place
//! implementation.

use std::sync::atomic::{AtomicU64, Ordering};

use fix_obs::{MetricsRegistry, Reportable};
use fix_storage::{PageGuard, PageId, PageSpace, StorageError, PAGE_SIZE};

/// Offset of the entry area in a node page.
const HDR: usize = 12;
/// "No next leaf" sentinel.
const NO_PAGE: u64 = u64::MAX;

/// Tree shape statistics (Table 1 reports index sizes; benches report I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeStats {
    /// Height (1 = a single leaf).
    pub height: usize,
    /// Number of pages owned by the tree.
    pub pages: u64,
    /// Number of key/value entries.
    pub entries: u64,
    /// Page-granular size in bytes.
    pub size_bytes: u64,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, u64)>,
        next: u64,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<u64>,
    },
}

/// Cumulative scan-work counters since the tree was opened (relaxed
/// atomics — `&self` scans from any number of threads tally safely).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Range scans started (`range`, `iter`, and `get` each count one).
    pub scans: u64,
    /// Entries yielded across all scans.
    pub entries_scanned: u64,
}

#[derive(Default)]
struct ScanCounters {
    scans: AtomicU64,
    entries: AtomicU64,
}

/// A B+-tree with fixed-length byte keys and `u64` values.
pub struct BTree {
    pool: PageSpace,
    key_len: usize,
    root: PageId,
    height: usize,
    entries: u64,
    pages: u64,
    scan_counters: ScanCounters,
}

impl BTree {
    /// Creates an empty tree with `key_len`-byte keys on `pool`.
    pub fn new(pool: PageSpace, key_len: usize) -> Self {
        assert!((1..=256).contains(&key_len), "unsupported key length");
        let root = pool.allocate();
        let mut t = Self {
            pool,
            key_len,
            root,
            height: 1,
            entries: 0,
            pages: 1,
            scan_counters: ScanCounters::default(),
        };
        t.store(
            root,
            &Node::Leaf {
                entries: Vec::new(),
                next: NO_PAGE,
            },
        );
        t
    }

    /// Builds a tree bottom-up from entries already sorted by key
    /// (ascending; equal keys must be adjacent). Leaves are packed full
    /// and chained left-to-right, then each internal level is built over
    /// the one below it — one page write per page, no splits. This is the
    /// loading path for batch index construction; the resulting tree
    /// accepts ordinary [`insert`](Self::insert) calls afterwards.
    ///
    /// # Panics
    /// Panics if the input is not sorted or a key has the wrong length.
    pub fn bulk_load<I>(pool: PageSpace, key_len: usize, sorted: I) -> Self
    where
        I: IntoIterator<Item = (Vec<u8>, u64)>,
    {
        assert!((1..=256).contains(&key_len), "unsupported key length");
        let entries: Vec<(Vec<u8>, u64)> = sorted.into_iter().collect();
        if entries.is_empty() {
            return Self::new(pool, key_len);
        }
        for (k, _) in &entries {
            assert_eq!(k.len(), key_len, "key length mismatch");
        }
        for w in entries.windows(2) {
            assert!(w[0].0 <= w[1].0, "bulk_load input not sorted");
        }
        let total = entries.len() as u64;
        let mut t = Self {
            pool,
            key_len,
            root: PageId(0), // patched below
            height: 1,
            entries: 0,
            pages: 0,
            scan_counters: ScanCounters::default(),
        };

        // Leaf level: pack `leaf_cap` entries per page, chain the pages.
        let cap = t.leaf_cap();
        let leaf_count = entries.len().div_ceil(cap);
        let leaf_pages: Vec<PageId> = (0..leaf_count).map(|_| t.alloc()).collect();
        // `(subtree min key, page)` for the level under construction.
        let mut level: Vec<(Vec<u8>, u64)> = Vec::with_capacity(leaf_count);
        let mut iter = entries.into_iter();
        for (i, page) in leaf_pages.iter().enumerate() {
            let chunk: Vec<(Vec<u8>, u64)> = iter.by_ref().take(cap).collect();
            level.push((chunk[0].0.clone(), page.0));
            let next = leaf_pages.get(i + 1).map_or(NO_PAGE, |p| p.0);
            t.store(
                *page,
                &Node::Leaf {
                    entries: chunk,
                    next,
                },
            );
        }

        // Internal levels: group children, separator = right child's min.
        let mut height = 1;
        while level.len() > 1 {
            let per = t.internal_cap() + 1;
            let mut next_level = Vec::with_capacity(level.len().div_ceil(per));
            let mut i = 0;
            while i < level.len() {
                let mut take = per.min(level.len() - i);
                // Never leave a single orphan child for the next group:
                // an internal node must have at least one key.
                if level.len() - i - take == 1 {
                    take -= 1;
                }
                let group = &level[i..i + take];
                let keys: Vec<Vec<u8>> = group[1..].iter().map(|(k, _)| k.clone()).collect();
                let children: Vec<u64> = group.iter().map(|&(_, p)| p).collect();
                let page = t.alloc();
                t.store(page, &Node::Internal { keys, children });
                next_level.push((group[0].0.clone(), page.0));
                i += take;
            }
            level = next_level;
            height += 1;
        }

        t.root = PageId(level[0].1);
        t.height = height;
        t.entries = total;
        t
    }

    /// Max entries in a leaf page.
    fn leaf_cap(&self) -> usize {
        (PAGE_SIZE - HDR) / (self.key_len + 8)
    }

    /// Max keys in an internal page (children = keys + 1).
    fn internal_cap(&self) -> usize {
        (PAGE_SIZE - HDR - 8) / (self.key_len + 8)
    }

    fn load(&self, page: PageId) -> Node {
        let key_len = self.key_len;
        self.pool.with_page(page, |b| {
            let kind = b[0];
            let count = u16::from_le_bytes([b[2], b[3]]) as usize;
            if kind == 0 {
                let next = u64::from_le_bytes(b[4..12].try_into().expect("8"));
                let stride = key_len + 8;
                let entries = (0..count)
                    .map(|i| {
                        let off = HDR + i * stride;
                        let key = b[off..off + key_len].to_vec();
                        let val = u64::from_le_bytes(
                            b[off + key_len..off + stride].try_into().expect("8"),
                        );
                        (key, val)
                    })
                    .collect();
                Node::Leaf { entries, next }
            } else {
                let mut children = Vec::with_capacity(count + 1);
                for i in 0..=count {
                    let off = HDR + i * 8;
                    children.push(u64::from_le_bytes(b[off..off + 8].try_into().expect("8")));
                }
                let key_base = HDR + (count + 1) * 8;
                let keys = (0..count)
                    .map(|i| {
                        let off = key_base + i * key_len;
                        b[off..off + key_len].to_vec()
                    })
                    .collect();
                Node::Internal { keys, children }
            }
        })
    }

    fn store(&mut self, page: PageId, node: &Node) {
        let key_len = self.key_len;
        let leaf_cap = self.leaf_cap();
        let internal_cap = self.internal_cap();
        self.pool.with_page_mut(page, |b| match node {
            Node::Leaf { entries, next } => {
                assert!(entries.len() <= leaf_cap, "leaf overflow");
                b[0] = 0;
                b[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                b[4..12].copy_from_slice(&next.to_le_bytes());
                let stride = key_len + 8;
                for (i, (k, v)) in entries.iter().enumerate() {
                    let off = HDR + i * stride;
                    b[off..off + key_len].copy_from_slice(k);
                    b[off + key_len..off + stride].copy_from_slice(&v.to_le_bytes());
                }
            }
            Node::Internal { keys, children } => {
                assert!(keys.len() <= internal_cap, "internal overflow");
                assert_eq!(children.len(), keys.len() + 1);
                b[0] = 1;
                b[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                for (i, c) in children.iter().enumerate() {
                    let off = HDR + i * 8;
                    b[off..off + 8].copy_from_slice(&c.to_le_bytes());
                }
                let key_base = HDR + children.len() * 8;
                for (i, k) in keys.iter().enumerate() {
                    let off = key_base + i * key_len;
                    b[off..off + key_len].copy_from_slice(k);
                }
            }
        });
    }

    fn alloc(&mut self) -> PageId {
        self.pages += 1;
        self.pool.allocate()
    }

    /// Inserts `(key, value)`. Equal keys are allowed (they are stored
    /// adjacently); FIX keys carry a sequence suffix and are unique.
    ///
    /// # Panics
    /// Panics if `key.len()` differs from the tree's key length.
    pub fn insert(&mut self, key: &[u8], value: u64) {
        assert_eq!(key.len(), self.key_len, "key length mismatch");
        if let Some((sep, right)) = self.insert_rec(self.root, key, value) {
            let new_root = self.alloc();
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![self.root.0, right.0],
            };
            self.store(new_root, &node);
            self.root = new_root;
            self.height += 1;
        }
        self.entries += 1;
    }

    fn insert_rec(&mut self, page: PageId, key: &[u8], value: u64) -> Option<(Vec<u8>, PageId)> {
        match self.load(page) {
            Node::Leaf { mut entries, next } => {
                let pos = entries.partition_point(|(k, _)| k.as_slice() <= key);
                entries.insert(pos, (key.to_vec(), value));
                if entries.len() <= self.leaf_cap() {
                    self.store(page, &Node::Leaf { entries, next });
                    return None;
                }
                // Split.
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let right_page = self.alloc();
                self.store(
                    right_page,
                    &Node::Leaf {
                        entries: right_entries,
                        next,
                    },
                );
                self.store(
                    page,
                    &Node::Leaf {
                        entries,
                        next: right_page.0,
                    },
                );
                Some((sep, right_page))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                // Child i covers keys in [keys[i-1], keys[i]).
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let child = PageId(children[idx]);
                let (sep, right) = self.insert_rec(child, key, value)?;
                keys.insert(idx, sep);
                children.insert(idx + 1, right.0);
                if keys.len() <= self.internal_cap() {
                    self.store(page, &Node::Internal { keys, children });
                    return None;
                }
                // Split; the middle key moves up.
                let mid = keys.len() / 2;
                let up = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // `up`
                let right_children = children.split_off(mid + 1);
                let right_page = self.alloc();
                self.store(
                    right_page,
                    &Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    },
                );
                self.store(page, &Node::Internal { keys, children });
                Some((up, right_page))
            }
        }
    }

    /// Exact lookup: the value of the *first* entry with exactly `key`.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.range(key, None)
            .next()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Iterates entries with `start ≤ key` (and `key < end` if an end bound
    /// is given), in key order. The descent and the scan read node pages
    /// through pinned page guards — no node is materialized into an owned
    /// buffer, and the scan keeps exactly one leaf pinned at a time.
    ///
    /// # Panics
    /// Fail-stop on I/O or checksum failure during the descent; use
    /// [`BTree::try_range`] where the caller can degrade gracefully.
    pub fn range<'a>(&'a self, start: &[u8], end: Option<&[u8]>) -> RangeScan<'a> {
        self.try_range(start, end)
            .unwrap_or_else(|e| panic!("invariant: B-tree descent must be readable: {e}"))
    }

    /// [`BTree::range`] surfacing storage failures. The descent's page
    /// reads fail here; a failure while the scan later advances along the
    /// leaf chain ends iteration early and parks the error on the scan —
    /// check [`RangeScan::take_error`] after exhaustion.
    pub fn try_range<'a>(
        &'a self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Result<RangeScan<'a>, StorageError> {
        assert_eq!(start.len(), self.key_len);
        self.scan_counters.scans.fetch_add(1, Ordering::Relaxed);
        let key_len = self.key_len;
        // Descend to the leaf that may contain `start`.
        let mut page = self.root;
        loop {
            let guard = self.pool.try_pin(page)?;
            let step = {
                let b = guard.data();
                let count = u16::from_le_bytes([b[2], b[3]]) as usize;
                if b[0] == 1 {
                    // Internal: first child whose separator exceeds `start`
                    // (binary search over the in-page key array).
                    let key_base = HDR + (count + 1) * 8;
                    let (mut lo, mut hi) = (0, count);
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let off = key_base + mid * key_len;
                        if &b[off..off + key_len] <= start {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    let off = HDR + lo * 8;
                    Err(u64::from_le_bytes(b[off..off + 8].try_into().expect("8")))
                } else {
                    // Leaf: first entry with `key ≥ start`.
                    let stride = key_len + 8;
                    let (mut lo, mut hi) = (0, count);
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let off = HDR + mid * stride;
                        if &b[off..off + key_len] < start {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    Ok(lo)
                }
            };
            match step {
                Err(child) => page = PageId(child),
                Ok(pos) => {
                    return Ok(RangeScan {
                        tree: self,
                        leaf: Some(guard),
                        pos,
                        end: end.map(<[u8]>::to_vec),
                        yielded: 0,
                        error: None,
                    })
                }
            }
        }
    }

    /// Iterates the whole tree in key order.
    pub fn iter(&self) -> RangeScan<'_> {
        let start = vec![0u8; self.key_len];
        self.range(&start, None)
    }

    /// [`BTree::iter`] surfacing storage failures (see
    /// [`BTree::try_range`]).
    pub fn try_iter(&self) -> Result<RangeScan<'_>, StorageError> {
        let start = vec![0u8; self.key_len];
        self.try_range(&start, None)
    }

    /// Cumulative scan-work counters since the tree was opened.
    pub fn scan_stats(&self) -> ScanStats {
        ScanStats {
            scans: self.scan_counters.scans.load(Ordering::Relaxed),
            entries_scanned: self.scan_counters.entries.load(Ordering::Relaxed),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> BTreeStats {
        BTreeStats {
            height: self.height,
            pages: self.pages,
            entries: self.entries,
            size_bytes: self.pages * PAGE_SIZE as u64,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if no entry was inserted.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The tree's page space (shared I/O statistics).
    pub fn pool(&self) -> &PageSpace {
        &self.pool
    }

    /// The root page (persisted by the paged database format).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Reconstructs a tree over pages that already exist in `pool`'s
    /// backend (the paged-open path): `root`/`height`/`entries`/`pages`
    /// come from persisted metadata, and no node is read until a lookup
    /// pins it.
    pub fn attach(
        pool: PageSpace,
        key_len: usize,
        root: PageId,
        height: usize,
        entries: u64,
        pages: u64,
    ) -> Self {
        assert!((1..=256).contains(&key_len), "unsupported key length");
        Self {
            pool,
            key_len,
            root,
            height,
            entries,
            pages,
            scan_counters: ScanCounters::default(),
        }
    }

    /// Verifies B+-tree invariants (test/diagnostic helper): key order
    /// within and across nodes, child counts, and uniform leaf depth.
    /// Returns the total entry count found.
    pub fn check_invariants(&self) -> u64 {
        fn rec(
            t: &BTree,
            page: PageId,
            lo: Option<&[u8]>,
            hi: Option<&[u8]>,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> u64 {
            match t.load(page) {
                Node::Leaf { entries, .. } => {
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "ragged leaf depth"),
                        None => *leaf_depth = Some(depth),
                    }
                    for w in entries.windows(2) {
                        assert!(w[0].0 <= w[1].0, "leaf keys out of order");
                    }
                    if let (Some(lo), Some((k, _))) = (lo, entries.first()) {
                        assert!(k.as_slice() >= lo, "leaf key below lower bound");
                    }
                    if let (Some(hi), Some((k, _))) = (hi, entries.last()) {
                        assert!(
                            k.as_slice() < hi || k.as_slice() <= hi,
                            "leaf key above bound"
                        );
                    }
                    entries.len() as u64
                }
                Node::Internal { keys, children } => {
                    assert!(!keys.is_empty(), "empty internal node");
                    assert_eq!(children.len(), keys.len() + 1);
                    for w in keys.windows(2) {
                        assert!(w[0] <= w[1], "internal keys out of order");
                    }
                    let mut total = 0;
                    for (i, &c) in children.iter().enumerate() {
                        let lo2 = if i == 0 {
                            lo
                        } else {
                            Some(keys[i - 1].as_slice())
                        };
                        let hi2 = keys.get(i).map(Vec::as_slice).or(hi);
                        total += rec(t, PageId(c), lo2, hi2, depth + 1, leaf_depth);
                    }
                    total
                }
            }
        }
        let mut leaf_depth = None;
        let found = rec(self, self.root, None, None, 1, &mut leaf_depth);
        assert_eq!(found, self.entries, "entry count mismatch");
        found
    }
}

/// Iterator over a key range, following the leaf chain. Holds one pinned
/// leaf at a time and reads entries straight off the page — dropping the
/// scan unpins the leaf.
pub struct RangeScan<'a> {
    tree: &'a BTree,
    leaf: Option<PageGuard>,
    pos: usize,
    end: Option<Vec<u8>>,
    /// Entries yielded so far; flushed into the tree's counters once on
    /// drop so the scan hot loop touches no shared cache lines.
    yielded: u64,
    /// A leaf-chain read failure mid-scan. Iteration ends early when this
    /// is set; callers that must distinguish "range exhausted" from
    /// "range truncated by damage" check [`RangeScan::take_error`].
    error: Option<StorageError>,
}

impl RangeScan<'_> {
    /// Takes the storage error that ended this scan early, if any.
    /// `None` after exhaustion means every entry in range was yielded.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Advances the scan, lending the next entry's key into `key` (exactly
    /// the tree's key length) and returning its value; `None` once the
    /// range is exhausted or a leaf-chain read failed. This is the scan:
    /// nothing is allocated per entry, and the [`Iterator`] form is this
    /// plus a fresh key buffer per item.
    ///
    /// # Panics
    /// Panics if `key.len()` differs from the tree's key length.
    pub fn next_into(&mut self, key: &mut [u8]) -> Option<u64> {
        let key_len = self.tree.key_len;
        assert_eq!(key.len(), key_len, "key length mismatch");
        loop {
            let guard = self.leaf.take()?;
            let step = {
                let b = guard.data();
                let count = u16::from_le_bytes([b[2], b[3]]) as usize;
                debug_assert_eq!(b[0], 0, "leaf chain points to internal node");
                if self.pos < count {
                    let stride = key_len + 8;
                    let off = HDR + self.pos * stride;
                    let k = &b[off..off + key_len];
                    match &self.end {
                        Some(end) if k >= end.as_slice() => ScanStep::Done,
                        _ => {
                            key.copy_from_slice(k);
                            ScanStep::Yield(u64::from_le_bytes(
                                b[off + key_len..off + stride].try_into().expect("8"),
                            ))
                        }
                    }
                } else {
                    ScanStep::Advance(u64::from_le_bytes(b[4..12].try_into().expect("8")))
                }
            };
            match step {
                ScanStep::Yield(v) => {
                    self.pos += 1;
                    self.yielded += 1;
                    self.leaf = Some(guard);
                    return Some(v);
                }
                ScanStep::Done | ScanStep::Advance(NO_PAGE) => return None,
                ScanStep::Advance(next) => {
                    self.pos = 0;
                    match self.tree.pool.try_pin(PageId(next)) {
                        Ok(guard) => self.leaf = Some(guard),
                        Err(e) => {
                            // Park the failure and end the scan: the
                            // caller decides whether a truncated range is
                            // fatal (query path) or tolerable (salvage).
                            self.error = Some(e);
                            return None;
                        }
                    }
                }
            }
        }
    }
}

/// One step of a guard-held scan: yield an entry's value (its key already
/// lent out), hop to the next leaf, or finish.
enum ScanStep {
    Yield(u64),
    Advance(u64),
    Done,
}

impl Iterator for RangeScan<'_> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let mut key = vec![0u8; self.tree.key_len];
        self.next_into(&mut key).map(|v| (key, v))
    }
}

impl Drop for RangeScan<'_> {
    fn drop(&mut self) {
        if self.yielded > 0 {
            self.tree
                .scan_counters
                .entries
                .fetch_add(self.yielded, Ordering::Relaxed);
        }
    }
}

impl Reportable for BTreeStats {
    /// Sets shape gauges (idempotent — levels, not work).
    fn report(&self, registry: &MetricsRegistry) {
        registry.gauge("fix_btree_height").set(self.height as i64);
        registry.gauge("fix_btree_pages").set(self.pages as i64);
        registry.gauge("fix_btree_entries").set(self.entries as i64);
        registry
            .gauge("fix_btree_size_bytes")
            .set(self.size_bytes as i64);
    }
}

impl Reportable for ScanStats {
    /// Sets cumulative scan-work gauges (the tree's atomics are the source
    /// of truth; re-reporting overwrites with the latest totals).
    fn report(&self, registry: &MetricsRegistry) {
        registry.gauge("fix_btree_scans").set(self.scans as i64);
        registry
            .gauge("fix_btree_scanned_entries")
            .set(self.entries_scanned as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(key_len: usize) -> BTree {
        BTree::new(PageSpace::in_memory(64), key_len)
    }

    fn key8(v: u64) -> Vec<u8> {
        v.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_and_get() {
        let mut t = tree(8);
        t.insert(&key8(5), 50);
        t.insert(&key8(1), 10);
        t.insert(&key8(9), 90);
        assert_eq!(t.get(&key8(5)), Some(50));
        assert_eq!(t.get(&key8(1)), Some(10));
        assert_eq!(t.get(&key8(2)), None);
        t.check_invariants();
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let mut t = tree(8);
        // Insert in a scrambled but deterministic order.
        let n = 5000u64;
        let mut v: Vec<u64> = (0..n).collect();
        // Deterministic shuffle.
        let mut seed = 42u64;
        for i in (1..v.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (seed % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        for &x in &v {
            t.insert(&key8(x), x * 2);
        }
        assert_eq!(t.len(), n);
        assert!(t.stats().height >= 2, "{:?}", t.stats());
        t.check_invariants();
        // Full scan is sorted and complete.
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all.len(), n as usize);
        for (i, (k, val)) in all.iter().enumerate() {
            assert_eq!(k, &key8(i as u64));
            assert_eq!(*val, i as u64 * 2);
        }
    }

    #[test]
    fn range_scan_bounds() {
        let mut t = tree(8);
        for i in 0..100u64 {
            t.insert(&key8(i * 10), i);
        }
        let got: Vec<u64> = t
            .range(&key8(250), Some(&key8(500)))
            .map(|(_, v)| v)
            .collect();
        // Keys 250..500 exclusive → 250,260,...,490 → values 25..49.
        assert_eq!(got, (25..50).collect::<Vec<_>>());
        // Start below the smallest key.
        let from_start: Vec<u64> = t.range(&key8(0), Some(&key8(30))).map(|(_, v)| v).collect();
        assert_eq!(from_start, vec![0, 1, 2]);
        // Empty range.
        assert_eq!(t.range(&key8(991), None).count(), 0);
    }

    #[test]
    fn duplicate_keys_are_kept() {
        let mut t = tree(8);
        for v in 0..10u64 {
            t.insert(&key8(7), v);
        }
        let vals: Vec<u64> = t.range(&key8(7), Some(&key8(8))).map(|(_, v)| v).collect();
        assert_eq!(vals.len(), 10);
        t.check_invariants();
    }

    #[test]
    fn sequential_inserts() {
        let mut t = tree(8);
        for i in 0..3000u64 {
            t.insert(&key8(i), i);
        }
        t.check_invariants();
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all.len(), 3000);
    }

    #[test]
    fn reverse_sequential_inserts() {
        let mut t = tree(8);
        for i in (0..3000u64).rev() {
            t.insert(&key8(i), i);
        }
        t.check_invariants();
        assert_eq!(t.iter().count(), 3000);
    }

    #[test]
    fn wide_keys() {
        let mut t = tree(28);
        let mk = |i: u64| {
            let mut k = vec![0u8; 28];
            k[20..28].copy_from_slice(&i.to_be_bytes());
            k
        };
        for i in 0..2000 {
            t.insert(&mk(i), i);
        }
        t.check_invariants();
        let got: Vec<u64> = t.range(&mk(100), Some(&mk(110))).map(|(_, v)| v).collect();
        assert_eq!(got, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn stats_track_shape() {
        let mut t = tree(8);
        let s0 = t.stats();
        assert_eq!(s0.height, 1);
        assert_eq!(s0.pages, 1);
        for i in 0..10_000u64 {
            t.insert(&key8(i), i);
        }
        let s = t.stats();
        assert!(s.height >= 2);
        assert!(s.pages > 10);
        assert_eq!(s.entries, 10_000);
        assert_eq!(s.size_bytes, s.pages * PAGE_SIZE as u64);
    }

    #[test]
    fn bulk_load_matches_insertion_order_scan() {
        for n in [0u64, 1, 2, 200, 5000] {
            let sorted: Vec<(Vec<u8>, u64)> = (0..n).map(|i| (key8(i), i * 3)).collect();
            let t = BTree::bulk_load(PageSpace::in_memory(64), 8, sorted.clone());
            assert_eq!(t.len(), n);
            t.check_invariants();
            let scanned: Vec<_> = t.iter().collect();
            assert_eq!(scanned, sorted, "scan mismatch at n={n}");
            if n > 0 {
                assert_eq!(t.get(&key8(0)), Some(0));
                assert_eq!(t.get(&key8(n - 1)), Some((n - 1) * 3));
                assert_eq!(t.get(&key8(n)), None);
            }
        }
    }

    #[test]
    fn bulk_load_then_insert_keeps_invariants() {
        let sorted: Vec<(Vec<u8>, u64)> = (0..2000u64).map(|i| (key8(i * 2), i)).collect();
        let mut t = BTree::bulk_load(PageSpace::in_memory(64), 8, sorted);
        for i in 0..2000u64 {
            t.insert(&key8(i * 2 + 1), i + 10_000);
        }
        assert_eq!(t.len(), 4000);
        t.check_invariants();
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all.len(), 4000);
        for (i, (k, _)) in all.iter().enumerate() {
            assert_eq!(k, &key8(i as u64));
        }
    }

    #[test]
    fn bulk_load_range_scans_agree_with_inserted_tree() {
        let sorted: Vec<(Vec<u8>, u64)> = (0..1500u64).map(|i| (key8(i * 7), i)).collect();
        let bulk = BTree::bulk_load(PageSpace::in_memory(64), 8, sorted.clone());
        let mut inserted = tree(8);
        for (k, v) in &sorted {
            inserted.insert(k, *v);
        }
        for (lo, hi) in [(0u64, 100), (500, 5000), (9000, 11_000)] {
            let a: Vec<_> = bulk.range(&key8(lo), Some(&key8(hi))).collect();
            let b: Vec<_> = inserted.range(&key8(lo), Some(&key8(hi))).collect();
            assert_eq!(a, b, "range {lo}..{hi}");
        }
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn bulk_load_rejects_unsorted_input() {
        let out_of_order = vec![(key8(5), 1), (key8(3), 2)];
        BTree::bulk_load(PageSpace::in_memory(64), 8, out_of_order);
    }

    #[test]
    fn scan_stats_count_scans_and_entries() {
        let mut t = tree(8);
        for i in 0..100u64 {
            t.insert(&key8(i), i);
        }
        assert_eq!(t.scan_stats(), ScanStats::default());
        assert_eq!(t.range(&key8(10), Some(&key8(20))).count(), 10);
        let s = t.scan_stats();
        assert_eq!(s.scans, 1);
        assert_eq!(s.entries_scanned, 10);
        // `get` runs a one-entry scan; iter scans everything.
        t.get(&key8(5));
        assert_eq!(t.iter().count(), 100);
        let s = t.scan_stats();
        assert_eq!(s.scans, 3);
        assert_eq!(s.entries_scanned, 111);
        // A dropped, half-consumed scan still flushes what it yielded.
        let mut scan = t.range(&key8(0), None);
        scan.next();
        scan.next();
        drop(scan);
        assert_eq!(t.scan_stats().entries_scanned, 113);
        // The lending form counts the same way: nothing until the drop.
        let mut scan = t.range(&key8(0), None);
        let mut key = [0u8; 8];
        for want in 0..3 {
            assert_eq!(scan.next_into(&mut key), Some(want));
            assert_eq!(key, want.to_be_bytes());
        }
        assert_eq!(t.scan_stats().entries_scanned, 113);
        drop(scan);
        assert_eq!(t.scan_stats().entries_scanned, 116);
    }

    #[test]
    fn stats_report_as_gauges() {
        let mut t = tree(8);
        for i in 0..50u64 {
            t.insert(&key8(i), i);
        }
        t.iter().count();
        let reg = MetricsRegistry::new();
        t.stats().report(&reg);
        t.scan_stats().report(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("fix_btree_entries"), Some(50));
        assert_eq!(snap.gauge("fix_btree_scans"), Some(1));
        assert_eq!(snap.gauge("fix_btree_scanned_entries"), Some(50));
        assert!(snap.gauge("fix_btree_height").unwrap() >= 1);
    }

    /// Drains `scan` through the lending form, reusing one key buffer.
    fn drain_lending(scan: &mut RangeScan<'_>, key_len: usize) -> Vec<(Vec<u8>, u64)> {
        let mut key = vec![0u8; key_len];
        let mut out = Vec::new();
        while let Some(v) = scan.next_into(&mut key) {
            out.push((key.clone(), v));
        }
        out
    }

    #[test]
    fn lending_scan_equals_the_iterator_and_the_model_on_random_ranges() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        // 511 eight-byte-key entries fill a leaf: 0, 1, exactly one leaf,
        // one past it, and several leaves.
        for n in [0usize, 1, 511, 512, 2000] {
            let mut model: Vec<(Vec<u8>, u64)> = (0..n)
                .map(|i| (key8(rng.gen_range(0..4000u64)), i as u64))
                .collect();
            model.sort();
            let mut inserted = tree(8);
            for (k, v) in &model {
                inserted.insert(k, *v);
            }
            let bulk = BTree::bulk_load(PageSpace::in_memory(64), 8, model.clone());
            for _ in 0..40 {
                let lo = rng.gen_range(0..4100u64);
                // Empty (hi ≤ lo), mid-leaf, multi-leaf and unbounded ends.
                let hi = match rng.gen_range(0..4u32) {
                    0 => None,
                    1 => Some(key8(lo.saturating_sub(rng.gen_range(0..3u64)))),
                    _ => Some(key8(lo + rng.gen_range(0..3000u64))),
                };
                let (lo, hi) = (key8(lo), hi.as_deref());
                let want: Vec<_> = model
                    .iter()
                    .filter(|(k, _)| k >= &lo && hi.is_none_or(|h| k.as_slice() < h))
                    .cloned()
                    .collect();
                for t in [&inserted, &bulk] {
                    let lent = drain_lending(&mut t.range(&lo, hi), 8);
                    assert_eq!(lent, t.range(&lo, hi).collect::<Vec<_>>(), "n={n}");
                    assert!(lent.iter().map(|(k, _)| k).eq(want.iter().map(|(k, _)| k)));
                    // bulk_load keeps the model's order among equal keys,
                    // so values agree too; insertion may permute them.
                    if std::ptr::eq(t, &bulk) {
                        assert_eq!(lent, want, "n={n}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn lending_scan_rejects_a_wrong_sized_buffer() {
        let mut t = tree(8);
        t.insert(&key8(1), 1);
        t.range(&key8(0), None).next_into(&mut [0u8; 7]);
    }

    #[test]
    fn try_range_surfaces_descent_failures() {
        // Attach over a backend that does not hold the root page: the
        // descent's first pin fails and try_range surfaces it.
        let pool = PageSpace::in_memory(4);
        let t = BTree::attach(pool, 8, PageId(42), 1, 0, 1);
        assert!(t.try_range(&key8(0), None).is_err());
        assert!(t.try_iter().is_err());
    }

    #[test]
    fn leaf_chain_damage_parks_an_error_on_the_scan() {
        use fix_storage::{BufferPool, FileBackend};
        let dir = std::env::temp_dir().join(format!("fix-btree-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.pages");
        // 600 eight-byte-key entries span two leaves (leaf_cap = 511).
        let sorted: Vec<(Vec<u8>, u64)> = (0..600u64).map(|i| (key8(i), i)).collect();
        let (root, height, entries, pages, crcs) = {
            let pool = BufferPool::shared(16).attach(Box::new(FileBackend::create(&path).unwrap()));
            let t = BTree::bulk_load(pool.clone(), 8, sorted.clone());
            pool.flush().unwrap();
            let crcs: Vec<u32> = (0..pool.num_pages())
                .map(|i| pool.with_page(PageId(i), fix_storage::crc32))
                .collect();
            let s = t.stats();
            (t.root_page(), s.height, s.entries, s.pages, crcs)
        };
        // Damage the second leaf (bulk_load allocates leaves first, in
        // order, so it is page 1) on disk.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(PAGE_SIZE as u64 + 100)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let pool = BufferPool::shared(16)
            .attach_verified(Box::new(FileBackend::open(&path).unwrap()), crcs);
        let t = BTree::attach(pool, 8, root, height, entries, pages);
        let mut scan = t.try_range(&key8(0), None).unwrap();
        let got: Vec<_> = scan.by_ref().collect();
        assert_eq!(got.len(), 511, "first leaf yielded, second truncated");
        let err = scan.take_error().expect("damage must be reported");
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        // The lending form truncates and parks at the same entry (the
        // damaged page is quarantined now; that is still `Corrupt`).
        let mut scan = t.try_range(&key8(0), None).unwrap();
        assert_eq!(drain_lending(&mut scan, 8), got);
        let err = scan.take_error().expect("damage must be reported");
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        assert!(
            scan.next_into(&mut [0u8; 8]).is_none(),
            "a failed scan stays ended"
        );
        // A bounded scan that never reaches the damage reports nothing.
        let mut scan = t.try_range(&key8(0), Some(&key8(100))).unwrap();
        assert_eq!(scan.by_ref().count(), 100);
        assert!(scan.take_error().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = tree(8);
        assert!(t.is_empty());
        assert_eq!(t.get(&key8(1)), None);
        assert_eq!(t.iter().count(), 0);
        t.check_invariants();
    }
}
