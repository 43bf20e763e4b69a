//! The R-tree probe path (the paper's future-work direction): feature
//! keys as 2-D points `(λ_max, −σ₂)` in one R-tree per root-label
//! partition, probed with the quadrant query
//! `λ_max ≥ q.λ_max ∧ σ₂ ≥ q.σ₂` (the second dimension participates only
//! under `extended_features`; without it the probe degenerates to the
//! 1-D λ_max test, where the B-tree is already optimal — an honest
//! finding about the paper's R-tree suggestion: it pays off only once the
//! key has a second *independent* dimension, and `λ_min = −λ_max` is not
//! one).
//!
//! Candidate sets are identical to the B-tree probe (tested); what differs
//! is the *visited* volume — the B-tree scans the whole λ_max suffix and
//! post-filters, the R-tree prunes on both dimensions. The `ablation`
//! binary reports both counters. Built only from the index's public
//! surface: `FixIndex::entries` for the points, `FixIndex::plan_path` for
//! the query features.

use std::collections::HashMap;

use fix_core::{Collection, FixIndex, IndexKey, QueryError};
use fix_spectral::Features;
use fix_xml::LabelId;
use fix_xpath::{Axis, PathExpr};

use super::rtree::{Point, RTree, RTreeProbeStats};

/// R-trees over the index's feature points, one per root-label partition.
pub struct SpatialIndex {
    trees: HashMap<LabelId, RTree>,
    /// Full keys in insertion order; R-tree payloads are indices into this
    /// (the 2-D probe needs the σ₂/bloom components for the optional
    /// extended filters).
    keys: Vec<(IndexKey, u64)>,
}

impl SpatialIndex {
    /// Builds the spatial probe from an existing index (one full scan).
    pub fn build(idx: &FixIndex, fanout: usize) -> Self {
        let mut keys = Vec::new();
        let mut by_label: HashMap<LabelId, Vec<Point>> = HashMap::new();
        for (key, v) in idx.entries() {
            let i = keys.len() as u64;
            keys.push((key, v));
            by_label.entry(key.root).or_default().push(Point {
                x: key.lmax,
                y: -key.sigma2,
                value: i,
            });
        }
        let trees = by_label
            .into_iter()
            .map(|(l, pts)| (l, RTree::bulk_load(pts, fanout)))
            .collect();
        Self { trees, keys }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the index was empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The pruning phase through the R-tree probe. Returns the same
    /// candidate set as [`FixIndex::candidates`] (in key-index order) plus
    /// the R-tree visit statistics. Only anchored probes are supported
    /// (large-document mode, or rooted collection queries) — the quadrant
    /// structure is per-partition.
    pub fn candidates(
        &self,
        idx: &FixIndex,
        coll: &Collection,
        path: &PathExpr,
    ) -> Result<(Vec<(IndexKey, u64)>, RTreeProbeStats), QueryError> {
        let anchored = idx.options().depth_limit > 0 || path.steps[0].axis == Axis::Child;
        assert!(
            anchored,
            "the spatial probe requires an anchored query (use the B-tree path)"
        );
        let plan = idx.plan_path(coll, path)?;
        let Some(feat) = plan.features() else {
            return Ok((Vec::new(), RTreeProbeStats::default()));
        };
        let Some(tree) = self.trees.get(&feat.root) else {
            return Ok((Vec::new(), RTreeProbeStats::default()));
        };
        let eps = 1e-9 * (1.0 + feat.lmax.abs());
        // Second dimension only under extended features; otherwise accept
        // any σ₂ (y ≤ +∞).
        let qy = if idx.options().extended_features {
            -feat.sigma2 + 1e-9 * (1.0 + feat.sigma2.abs())
        } else {
            f64::INFINITY
        };
        let (hits, stats) = tree.query_quadrant(feat.lmax - eps, qy);
        let mut out: Vec<(IndexKey, u64)> = hits
            .iter()
            .map(|p| self.keys[p.value as usize])
            .filter(|(k, _)| entry_admits(idx, k, feat))
            .collect();
        out.sort_unstable_by_key(|(k, _)| k.seq);
        Ok((out, stats))
    }
}

/// The residual filters (λ_min, edge bloom) applied on top of the
/// quadrant result — mirrors the tail of the B-tree probe's containment
/// check. (The quadrant already enforced λ_max and, under extended
/// features, σ₂.)
fn entry_admits(idx: &FixIndex, entry: &IndexKey, query: &Features) -> bool {
    let eps = 1e-9 * (1.0 + entry.lmin.abs());
    if query.lmin < entry.lmin - eps {
        return false;
    }
    if idx.options().edge_bloom && query.bloom & !entry.bloom != 0 {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_core::FixOptions;
    use fix_datagen::GenConfig;
    use fix_xpath::parse_path;

    #[test]
    fn spatial_candidates_equal_btree_candidates() {
        let mut coll = Collection::new();
        coll.add_xml(&fix_datagen::xmark(GenConfig::scaled(0.05)))
            .unwrap();
        let idx = FixIndex::build(&mut coll, FixOptions::large_document(6));
        let spatial = SpatialIndex::build(&idx, 16);
        assert_eq!(spatial.len() as u64, idx.entry_count());
        for q in [
            "//item/mailbox/mail/text",
            "//category/description",
            "//open_auction[seller]/annotation",
            "//nonexistent_label",
        ] {
            let path = parse_path(q).unwrap();
            let a = idx.candidates(&coll, &path).unwrap();
            let (b, _) = spatial.candidates(&idx, &coll, &path).unwrap();
            let mut a_seq: Vec<u32> = a.iter().map(|c| c.key.seq).collect();
            let mut b_seq: Vec<u32> = b.iter().map(|(k, _)| k.seq).collect();
            a_seq.sort_unstable();
            b_seq.sort_unstable();
            assert_eq!(a_seq, b_seq, "candidate sets differ on {q}");
        }
    }

    #[test]
    fn spatial_probe_visits_less_than_full_partition() {
        let mut coll = Collection::new();
        coll.add_xml(&fix_datagen::treebank(GenConfig::scaled(0.1)))
            .unwrap();
        let idx = FixIndex::build(&mut coll, FixOptions::large_document(6));
        let spatial = SpatialIndex::build(&idx, 16);
        let path = parse_path("//NP/PP/NP/NN").unwrap();
        let (cands, stats) = spatial.candidates(&idx, &coll, &path).unwrap();
        assert!(!cands.is_empty());
        assert!(
            (stats.points_tested as u64) < idx.entry_count(),
            "quadrant probe should not test every entry"
        );
    }
}
